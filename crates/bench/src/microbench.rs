//! A minimal wall-clock benchmark harness for the `benches/` targets.
//!
//! The build environment is offline, so `criterion` is unavailable; the
//! bench targets (`harness = false`) use this instead. It is deliberately
//! small: warm up, sample until a time budget is met, report min / median
//! / mean. Good enough to compare orders of magnitude and track gross
//! regressions, not a statistics package.
//!
//! Filtering works like libtest: `cargo bench -p cgra-bench -- fig8`
//! runs only benchmarks whose name contains `fig8`.

use std::time::{Duration, Instant};

/// The harness: construct once per bench binary with [`Bench::from_env`],
/// then call [`Bench::run`] for each benchmark.
#[derive(Debug)]
pub struct Bench {
    filter: Option<String>,
    min_time: Duration,
    max_iters: usize,
}

impl Bench {
    /// A harness configured from the command line: the first
    /// non-flag argument is a substring filter on benchmark names.
    pub fn from_env() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Bench {
            filter,
            min_time: Duration::from_millis(200),
            max_iters: 200,
        }
    }

    /// Override the per-benchmark iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters.max(1);
        self
    }

    /// Time `f`, printing one summary line. Skipped (silently) when a
    /// filter is active and `name` does not contain it.
    pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // One untimed warm-up pass (first-touch allocation, caches).
        std::hint::black_box(f());
        let mut samples: Vec<Duration> = Vec::new();
        let budget = Instant::now();
        while samples.len() < self.max_iters {
            let t = Instant::now();
            std::hint::black_box(f());
            samples.push(t.elapsed());
            if budget.elapsed() >= self.min_time && samples.len() >= 5 {
                break;
            }
        }
        samples.sort_unstable();
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        println!(
            "bench {name:<42} {:>5} iters   min {:>11}   median {:>11}   mean {:>11}",
            samples.len(),
            fmt(min),
            fmt(median),
            fmt(mean),
        );
    }
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_respects_iteration_cap() {
        let bench = Bench {
            filter: None,
            min_time: Duration::ZERO,
            max_iters: 7,
        };
        let mut calls = 0u32;
        bench.run("counting", || calls += 1);
        // Warm-up + at most max_iters timed passes, at least 5 samples.
        assert!((6..=8).contains(&calls), "calls = {calls}");
    }

    #[test]
    fn filter_skips_non_matching() {
        let bench = Bench {
            filter: Some("match-me".into()),
            min_time: Duration::ZERO,
            max_iters: 3,
        };
        let mut calls = 0u32;
        bench.run("other", || calls += 1);
        assert_eq!(calls, 0);
        bench.run("does-match-me-yes", || calls += 1);
        assert!(calls > 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt(Duration::from_micros(150)), "150.0 µs");
        assert_eq!(fmt(Duration::from_millis(25)), "25.0 ms");
        assert_eq!(fmt(Duration::from_secs(12)), "12.00 s");
    }
}
