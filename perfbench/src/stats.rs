//! The benchmark's own arithmetic: percentiles, geometric means, span
//! self time and engine efficiency. Everything here is pure and tested
//! on hand-made inputs.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a tail estimated
/// from a handful of points is not reported.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile rank {p} out of (0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest value with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (n >= rank && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Total length of the union of half-open `[start, end)` intervals.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of it that its children cover. Children may nest, overlap each other
/// (when a span fans work out to parallel workers) or run past the
/// parent; only their union clipped to the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .collect();
    end.saturating_sub(start) - union_len(&clipped)
}

/// Share of the available worker time spent busy: `busy / (workers ·
/// wall)`. 1.0 means no worker ever idled.
pub fn parallel_eff(busy_ns: u64, workers: usize, wall_ns: u64) -> f64 {
    if workers == 0 || wall_ns == 0 {
        return 0.0;
    }
    busy_ns as f64 / (workers as f64 * wall_ns as f64)
}

/// Straggler time of one fork-join phase: from the moment the first
/// worker ran out of work to the end of the last item. `last_end` holds
/// each worker's last item end time.
pub fn straggler(last_end: &[u64]) -> u64 {
    match (last_end.iter().min(), last_end.iter().max()) {
        (Some(first_idle), Some(finish)) => finish - first_idle,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly 10 beyond: reported.
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        // p99 of 100 samples has one beyond: refused.
        assert_eq!(percentile(&v, 0.99), None);
        // 99 samples: rank 90 leaves 9 beyond.
        assert_eq!(percentile(&v[..99], 0.9), None);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_hand_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[0.5, 2.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // Parent [0, 100); children [10, 30) and [50, 60), the second
        // with a grandchild that must not count twice.
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        assert_eq!(self_time(0, 100, &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel children [10, 50) and [30, 70) cover [10, 70).
        assert_eq!(self_time(0, 100, &[(10, 50), (30, 70)]), 40);
        // A child contained in another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 50), (20, 30)]), 60);
        // A child running past the parent is clipped to it.
        assert_eq!(self_time(0, 100, &[(90, 150)]), 90);
        // Children covering the whole parent leave no self time.
        assert_eq!(self_time(0, 100, &[(0, 60), (40, 100)]), 0);
    }

    #[test]
    fn union_of_touching_intervals() {
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&[(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn parallel_eff_of_hand_runs() {
        // Two workers, 10 units of wall time, 15 units busy.
        assert!((parallel_eff(15, 2, 10) - 0.75).abs() < 1e-12);
        assert!((parallel_eff(20, 2, 10) - 1.0).abs() < 1e-12);
        assert_eq!(parallel_eff(5, 0, 10), 0.0);
        assert_eq!(parallel_eff(5, 2, 0), 0.0);
    }

    #[test]
    fn straggler_from_worker_last_ends() {
        assert_eq!(straggler(&[80, 100]), 20);
        assert_eq!(straggler(&[100]), 0);
        assert_eq!(straggler(&[]), 0);
    }
}
