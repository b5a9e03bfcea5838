//! Figure 9 — system-level throughput improvement from multithreading.
//!
//! For each CGRA size, page size, CGRA need (50/75/87.5 %), and thread
//! count (1–16), simulate the same randomly generated workload on the
//! single-threaded FCFS baseline and on the multithreaded page-multiplexed
//! CGRA, and report the percentage improvement in completion time,
//! averaged over seeds.
//!
//! One entry point per stage: [`run_point`] measures one point,
//! [`run_all`] sweeps the grid and [`curve`] sweeps fault specs at one
//! operating point (rows from [`degradation_rows`] or
//! [`recovery_rows`]). Each takes the [`MapCache`] that compiles the
//! kernel libraries and a [`Fig9Params`] run spec, which carries the
//! fault schedule and the tracer as plain inputs.
//!
//! The grid sweep runs in two [`Engine`] phases: first the kernel
//! libraries for every fabric in the grid are compiled (in parallel,
//! deduplicated by the mapping cache), then the simulation points run in
//! parallel. Workload seeds derive from point *coordinates* via
//! [`crate::engine::point_seed`], so `--jobs N` output is byte-identical
//! for every `N`.

use crate::engine::{point_seed, Engine};
use crate::mapcache::MapCache;
use cgra_arch::FaultSpec;
use cgra_mapper::MapOptions;
use cgra_obs::Tracer;
use cgra_sim::{
    generate, improvement_percent, simulate_baseline, simulate_multithreaded, CgraNeed,
    ExpandPolicy, FaultStats, KernelLibrary, MtConfig, SimError, WorkloadParams,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One bar of Figure 9 (mean over seeds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Point {
    /// CGRA dimension.
    pub dim: u16,
    /// Page size in PEs.
    pub page_size: usize,
    /// CGRA need operating point.
    pub need: CgraNeed,
    /// Number of threads.
    pub threads: usize,
    /// Mean improvement % over the baseline system.
    pub improvement_pct: f64,
    /// Mean shrink transformations per run.
    pub mean_shrinks: f64,
    /// Mean baseline makespan (cycles).
    pub base_makespan: f64,
    /// Mean multithreaded makespan (cycles).
    pub mt_makespan: f64,
    /// Fault counters summed over the point's seeds (all zero when the
    /// sweep runs fault-free).
    pub faults: FaultStats,
}

/// The run spec of a Fig. 9 sweep: every input besides the fabric and
/// the operating point.
#[derive(Debug, Clone)]
pub struct Fig9Params {
    /// Seeds averaged per point.
    pub seeds: u64,
    /// Nominal work per thread in cycles.
    pub work_per_thread: u64,
    /// CGRA bursts per thread.
    pub bursts: usize,
    /// Multithreaded-system knobs.
    pub mt: MtConfig,
    /// Fault schedule injected into every multithreaded run (the
    /// baseline stays fault-free as the fixed reference). MTBF specs are
    /// reseeded per point/seed so timelines are independent but
    /// reproducible.
    pub faults: FaultSpec,
    /// Receives every multithreaded run (the baseline FCFS runs stay
    /// untraced — they are the fixed reference). A point's whole seed
    /// loop is forwarded as one batch, so parallel sweep points writing
    /// to a shared sink interleave at point granularity, never mid-run.
    /// Compile events reach a trace only through a
    /// [`MapCache::traced`] cache. Off by default.
    pub tracer: Tracer,
}

impl Default for Fig9Params {
    fn default() -> Self {
        Fig9Params {
            seeds: crate::DEFAULT_SEEDS,
            work_per_thread: 60_000,
            bursts: 4,
            mt: MtConfig::default(),
            faults: FaultSpec::Off,
            tracer: Tracer::off(),
        }
    }
}

/// The kernel library of the `dim × dim` fabric with `page_size`-PE
/// pages, compiled under [`MapOptions::default`].
fn library(cache: &MapCache, dim: u16, page_size: usize) -> Arc<KernelLibrary> {
    cache.library(&crate::cgra(dim, page_size), &MapOptions::default())
}

/// Measure one Fig. 9 point.
///
/// # Errors
///
/// Propagates the first [`SimError`] from the multithreaded simulator —
/// e.g. a fault schedule that starves a thread. A poisoned point fills
/// its own result slot; the rest of the sweep completes.
pub fn run_point(
    cache: &MapCache,
    dim: u16,
    page_size: usize,
    need: CgraNeed,
    threads: usize,
    params: &Fig9Params,
) -> Result<Fig9Point, SimError> {
    let lib = library(cache, dim, page_size);
    let mut improvements = Vec::with_capacity(params.seeds as usize);
    let mut shrinks = 0.0;
    let mut base_total = 0.0;
    let mut mt_total = 0.0;
    let mut faults = FaultStats::default();
    params.tracer.batched(|tracer| -> Result<(), SimError> {
        for seed in 0..params.seeds {
            // Seeded from the point's coordinates only — never from worker
            // identity or execution order (the engine's determinism
            // contract).
            let wl_seed = point_seed(&[
                dim as u64,
                page_size as u64,
                need as u64,
                threads as u64,
                seed,
            ]);
            let workload = generate(
                &lib,
                &WorkloadParams {
                    threads,
                    need,
                    work_per_thread: params.work_per_thread,
                    bursts: params.bursts,
                    seed: wl_seed,
                },
            );
            let events = params.faults.reseeded(wl_seed).schedule(lib.num_pages);
            let base = simulate_baseline(&lib, &workload);
            let mt = simulate_multithreaded(&lib, &workload, params.mt, &events, tracer)?;
            improvements.push(improvement_percent(base.makespan, mt.makespan));
            shrinks += mt.shrinks as f64;
            base_total += base.makespan as f64;
            mt_total += mt.makespan as f64;
            faults.absorb(&mt.faults);
        }
        Ok(())
    })?;
    let n = params.seeds as f64;
    Ok(Fig9Point {
        dim,
        page_size,
        need,
        threads,
        improvement_pct: improvements.iter().sum::<f64>() / n,
        mean_shrinks: shrinks / n,
        base_makespan: base_total / n,
        mt_makespan: mt_total / n,
        faults,
    })
}

/// Run the full Fig. 9 grid.
///
/// Each point carries its own `Result`: one poisoned point (a fault
/// schedule that starves a thread, a profile hole) reports its
/// [`SimError`] in its slot while every other point completes.
pub fn run_all(
    engine: &Engine,
    cache: &MapCache,
    params: &Fig9Params,
) -> Vec<Result<Fig9Point, SimError>> {
    // Phase 1: compile every fabric's library. Parallel across configs;
    // the mapping cache deduplicates shared per-kernel profiles, so no
    // compilation happens twice even when two configs race.
    let configs: Vec<(u16, usize)> = crate::GRID
        .iter()
        .flat_map(|&(dim, sizes)| sizes.iter().map(move |&s| (dim, s)))
        .collect();
    engine.run(&configs, |&(dim, s)| {
        library(cache, dim, s);
    });

    // Phase 2: the simulation points, self-scheduled across workers.
    let mut points: Vec<(u16, usize, CgraNeed, usize)> = Vec::new();
    for &(dim, sizes) in &crate::GRID {
        for &s in sizes {
            for need in CgraNeed::ALL {
                for &t in &crate::THREAD_COUNTS {
                    points.push((dim, s, need, t));
                }
            }
        }
    }
    engine.run(&points, |&(dim, s, need, t)| {
        run_point(cache, dim, s, need, t, params)
    })
}

/// Split sweep results into the completed points and `(index, error)`
/// pairs for the poisoned ones, preserving point order.
pub fn partition_results(
    results: Vec<Result<Fig9Point, SimError>>,
) -> (Vec<Fig9Point>, Vec<(usize, SimError)>) {
    let mut points = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(p) => points.push(p),
            Err(e) => errors.push((i, e)),
        }
    }
    (points, errors)
}

/// Render one sub-figure (one CGRA size): rows = thread counts × needs.
pub fn render(points: &[Fig9Point], dim: u16) -> String {
    let sizes: Vec<usize> = {
        let mut v: Vec<usize> = points
            .iter()
            .filter(|p| p.dim == dim)
            .map(|p| p.page_size)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut headers: Vec<String> = vec!["threads".into(), "need".into()];
    for s in &sizes {
        headers.push(format!("page {s}: improv%"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for &t in &crate::THREAD_COUNTS {
        for need in CgraNeed::ALL {
            let mut row = vec![t.to_string(), need.label().to_string()];
            for &s in &sizes {
                match points
                    .iter()
                    .find(|p| p.dim == dim && p.page_size == s && p.need == need && p.threads == t)
                {
                    Some(p) => row.push(format!("{:+.1}", p.improvement_pct)),
                    None => row.push("-".into()),
                }
            }
            rows.push(row);
        }
    }
    crate::table::markdown(&header_refs, &rows)
}

/// The headline averages: mean improvement per CGRA size at the highest
/// contention (16 threads, all needs, best page size), which the abstract
/// summarises as "over 30%, 75%, and 150% on 4x4, 6x6, and 8x8".
pub fn headline(points: &[Fig9Point]) -> Vec<(u16, f64)> {
    [4u16, 6, 8]
        .iter()
        .map(|&dim| {
            let best = points
                .iter()
                .filter(|p| p.dim == dim && p.threads == 16)
                .map(|p| p.improvement_pct)
                .fold(f64::MIN, f64::max);
            (dim, best)
        })
        .collect()
}

/// Fault-free improvement at the ablation operating point (8 threads,
/// 87.5 % need) under `mt`.
fn ablation_point(cache: &MapCache, dim: u16, page_size: usize, mt: MtConfig) -> f64 {
    let params = Fig9Params {
        mt,
        ..Default::default()
    };
    run_point(cache, dim, page_size, CgraNeed::High, 8, &params)
        .expect("fault-free ablation point")
        .improvement_pct
}

/// Ablation A1: improvement vs switch-transformation overhead.
pub fn ablation_overhead(cache: &MapCache, dim: u16, page_size: usize) -> Vec<(u64, f64)> {
    [0u64, 10, 100, 1_000, 10_000]
        .iter()
        .map(|&switch_overhead| {
            let mt = MtConfig {
                switch_overhead,
                ..Default::default()
            };
            (switch_overhead, ablation_point(cache, dim, page_size, mt))
        })
        .collect()
}

/// Ablation A2: improvement vs expansion policy.
pub fn ablation_policy(cache: &MapCache, dim: u16, page_size: usize) -> Vec<(String, f64)> {
    [
        ("smallest-first", ExpandPolicy::SmallestFirst),
        ("largest-first", ExpandPolicy::LargestFirst),
        ("no-expansion", ExpandPolicy::None),
    ]
    .iter()
    .map(|&(name, expand)| {
        let mt = MtConfig {
            expand,
            ..Default::default()
        };
        (name.to_string(), ablation_point(cache, dim, page_size, mt))
    })
    .collect()
}

/// One row of a fault curve: its label, the row's fault spec, and the
/// measured point (or the error that poisoned it).
pub type CurveRow<L> = (L, FaultSpec, Result<Fig9Point, SimError>);

/// Throughput under a list of fault specs at one operating point — the
/// highest-contention point (8 threads, 87.5 % need) of the
/// `dim × dim` fabric with `page_size`-PE pages.
///
/// Each row is one Fig. 9 point under `params` with the row's fault
/// spec, and keeps its label. Poisoned rows (e.g. every page dead)
/// report their error in their slot.
pub fn curve<L: Sync>(
    engine: &Engine,
    cache: &MapCache,
    dim: u16,
    page_size: usize,
    rows: Vec<(L, FaultSpec)>,
    params: &Fig9Params,
) -> Vec<CurveRow<L>> {
    library(cache, dim, page_size); // compile once, outside the sweep
    let results = engine.run(&rows, |&(_, spec)| {
        let row_params = Fig9Params {
            faults: spec,
            ..params.clone()
        };
        run_point(cache, dim, page_size, CgraNeed::High, 8, &row_params)
    });
    rows.into_iter()
        .zip(results)
        .map(|((label, spec), r)| (label, spec, r))
        .collect()
}

/// Fault-rate scale factors of the degradation curve: 0 is the
/// fault-free reference row, then the base spec's rate ×1, ×2, ×4, ×8.
pub const CURVE_SCALES: [u64; 5] = [0, 1, 2, 4, 8];

/// The rows of the throughput-vs-fault-rate degradation [`curve`],
/// labelled by rate scale.
///
/// Row 0 is the fault-free reference; each following row scales the base
/// MTBF spec's fault rate by [`CURVE_SCALES`] (for `At` specs the rate
/// axis collapses, but the off-vs-on comparison still stands).
pub fn degradation_rows(base: FaultSpec) -> Vec<(u64, FaultSpec)> {
    CURVE_SCALES
        .iter()
        .map(|&scale| {
            let spec = if scale == 0 {
                FaultSpec::Off
            } else {
                base.scaled(scale)
            };
            (scale, spec)
        })
        .collect()
}

/// Render a degradation curve as a markdown table (errors in-row).
pub fn render_curve(curve: &[CurveRow<u64>]) -> String {
    fault_table("rate x", true, curve)
}

/// MTTR scale factors of the recovery curve: each row multiplies the
/// base spec's repair interval, descending so the table reads as
/// "repairs get faster, throughput returns".
pub const RECOVERY_MTTR_SCALES: [u64; 4] = [8, 4, 2, 1];

/// The rows of the throughput-vs-repair-speed *recovery* [`curve`] — the
/// degradation curve's mttr dimension.
///
/// Row 0 is the fault-free reference and row 1 the same fault schedule
/// with repair disabled (every transient made permanent): the two ends
/// of the recovery spectrum. Each following row repairs the same
/// strikes with the base spec's mttr scaled by [`RECOVERY_MTTR_SCALES`]
/// — as the repair interval shrinks, throughput visibly returns toward
/// the fault-free reference. `base` should carry an `mttr=` clause
/// (rows fall back to a 1000-cycle repair interval when it does not).
pub fn recovery_rows(base: &FaultSpec) -> Vec<(String, FaultSpec)> {
    let mttr = base.mttr().unwrap_or(1_000);
    let mut rows: Vec<(String, FaultSpec)> = vec![
        ("fault-free".into(), FaultSpec::Off),
        ("no-repair".into(), base.permanent()),
    ];
    for &scale in &RECOVERY_MTTR_SCALES {
        rows.push((
            format!("mttr x{scale}"),
            base.with_mttr(mttr.saturating_mul(scale)),
        ));
    }
    rows
}

/// Render a recovery curve as a markdown table (errors in-row). It has
/// no `degraded` column: repair concerns killed pages.
pub fn render_recovery_curve(curve: &[CurveRow<String>]) -> String {
    fault_table("row", false, curve)
}

/// A fault curve as a markdown table: the row label (headed `label`),
/// spec, improvement, makespan and the fault counters, the
/// degraded-pages count only `with_degraded`. A poisoned row shows its
/// error and dashes.
fn fault_table<L: ToString>(label: &str, with_degraded: bool, curve: &[CurveRow<L>]) -> String {
    let mut headers = vec![label, "spec", "improv%", "mt makespan", "killed"];
    if with_degraded {
        headers.push("degraded");
    }
    headers.extend(["remapped", "revoked", "repairs", "reexpand", "recovery cyc"]);
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|(l, spec, r)| {
            let mut row = vec![l.to_string(), spec.to_string()];
            match r {
                Ok(p) => {
                    let f = &p.faults;
                    row.push(format!("{:+.1}", p.improvement_pct));
                    row.push(format!("{:.0}", p.mt_makespan));
                    row.push(f.pages_killed.to_string());
                    if with_degraded {
                        row.push(f.pages_degraded.to_string());
                    }
                    let rest = [
                        f.threads_remapped,
                        f.threads_revoked,
                        f.repairs,
                        f.reexpansions,
                        f.recovery_cycles,
                    ];
                    row.extend(rest.map(|v| v.to_string()));
                }
                Err(e) => {
                    row.push(format!("error: {e}"));
                    row.resize(headers.len(), "-".into());
                }
            }
            row
        })
        .collect();
    crate::table::markdown(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Fig9Params {
        Fig9Params {
            seeds: 2,
            work_per_thread: 20_000,
            bursts: 2,
            ..Fig9Params::default()
        }
    }

    #[test]
    fn single_thread_improvement_is_small() {
        let cache = MapCache::in_memory();
        let p = run_point(&cache, 4, 4, CgraNeed::High, 1, &quick_params()).unwrap();
        // One thread cannot benefit; constrained II may even cost a bit.
        assert!(p.improvement_pct <= 5.0, "{}", p.improvement_pct);
    }

    #[test]
    fn contention_brings_improvement_on_8x8() {
        let cache = MapCache::in_memory();
        let p = run_point(&cache, 8, 4, CgraNeed::High, 16, &quick_params()).unwrap();
        assert!(p.improvement_pct > 50.0, "got {:.1}%", p.improvement_pct);
    }

    #[test]
    fn improvement_grows_with_array_size() {
        let cache = MapCache::in_memory();
        let params = quick_params();
        let p4 = run_point(&cache, 4, 4, CgraNeed::High, 16, &params).unwrap();
        let p8 = run_point(&cache, 8, 4, CgraNeed::High, 16, &params).unwrap();
        assert!(
            p8.improvement_pct > p4.improvement_pct,
            "8x8 {:.1}% <= 4x4 {:.1}%",
            p8.improvement_pct,
            p4.improvement_pct
        );
    }

    #[test]
    fn render_has_all_thread_counts() {
        let cache = MapCache::in_memory();
        let pts = vec![run_point(&cache, 4, 4, CgraNeed::Low, 2, &quick_params()).unwrap()];
        let s = render(&pts, 4);
        // The measured cell is rendered signed; everything else is "-".
        assert!(s.contains("50%"));
        assert!(s.lines().count() > crate::THREAD_COUNTS.len() * CgraNeed::ALL.len());
    }

    #[test]
    fn run_point_is_deterministic() {
        let cache = MapCache::in_memory();
        let a = run_point(&cache, 4, 2, CgraNeed::Medium, 4, &quick_params());
        let b = run_point(&cache, 4, 2, CgraNeed::Medium, 4, &quick_params());
        assert_eq!(a, b);
    }

    #[test]
    fn off_faults_match_the_fault_free_point() {
        let cache = MapCache::in_memory();
        let plain = run_point(&cache, 4, 4, CgraNeed::High, 8, &quick_params()).unwrap();
        let off = run_point(
            &cache,
            4,
            4,
            CgraNeed::High,
            8,
            &Fig9Params {
                faults: FaultSpec::Off,
                ..quick_params()
            },
        )
        .unwrap();
        assert_eq!(plain, off);
        assert!(!plain.faults.any());
    }

    #[test]
    fn faulty_point_reports_counters_and_degrades() {
        let cache = MapCache::in_memory();
        let params = Fig9Params {
            faults: FaultSpec::Mtbf {
                mean: 5_000,
                count: 3,
                seed: 7,
                kind: cgra_arch::FaultKind::Kill,
            },
            ..quick_params()
        };
        let faulty = run_point(&cache, 8, 4, CgraNeed::High, 8, &params).unwrap();
        let clean = run_point(&cache, 8, 4, CgraNeed::High, 8, &quick_params()).unwrap();
        assert!(faulty.faults.any());
        assert!(faulty.faults.pages_killed > 0);
        assert!(
            faulty.mt_makespan >= clean.mt_makespan,
            "killing pages should not speed the system up: {} < {}",
            faulty.mt_makespan,
            clean.mt_makespan
        );
    }

    #[test]
    fn recovery_curve_shows_throughput_returning() {
        let cache = MapCache::in_memory();
        let base = FaultSpec::Mtbf {
            mean: 10_000,
            count: 2,
            seed: 1,
            kind: cgra_arch::FaultKind::Transient { repair_after: 500 },
        };
        let curve = curve(
            &Engine::with_jobs(2),
            &cache,
            4,
            4,
            recovery_rows(&base),
            &quick_params(),
        );
        assert_eq!(curve.len(), 2 + RECOVERY_MTTR_SCALES.len());
        assert_eq!(curve[0].1, FaultSpec::Off);
        let reference = curve[0].2.as_ref().unwrap();
        assert!(!reference.faults.any());
        let no_repair = curve[1].2.as_ref().unwrap();
        assert_eq!(no_repair.faults.repairs, 0, "repair disabled in row 1");
        assert!(no_repair.faults.pages_killed > 0);
        let fastest = curve.last().unwrap().2.as_ref().unwrap();
        assert!(fastest.faults.repairs > 0, "mttr rows repair pages");
        // The headline: with repair, throughput returns toward the
        // fault-free reference — the recovered system beats no-repair
        // and sits between it and the clean run.
        assert!(
            fastest.mt_makespan <= no_repair.mt_makespan,
            "repair must not be slower than no repair: {} vs {}",
            fastest.mt_makespan,
            no_repair.mt_makespan
        );
        // Close to the fault-free reference (shrink/expand reshuffles
        // allocation order, so a repaired run may even land a hair
        // under it — a scheduling anomaly, not a free lunch).
        assert!(
            fastest.mt_makespan >= reference.mt_makespan * 0.95,
            "repaired run should track the fault-free reference: {} vs {}",
            fastest.mt_makespan,
            reference.mt_makespan
        );
        let rendered = render_recovery_curve(&curve);
        assert!(rendered.contains("fault-free"));
        assert!(rendered.contains("no-repair"));
        assert!(rendered.contains("mttr x1"));
        assert_eq!(rendered.lines().count(), curve.len() + 2);
    }

    #[test]
    fn recovery_curve_rows_are_deterministic() {
        let cache = MapCache::in_memory();
        let base = FaultSpec::Mtbf {
            mean: 8_000,
            count: 2,
            seed: 3,
            kind: cgra_arch::FaultKind::Transient { repair_after: 400 },
        };
        let a = curve(
            &Engine::with_jobs(1),
            &cache,
            4,
            4,
            recovery_rows(&base),
            &quick_params(),
        );
        let b = curve(
            &Engine::with_jobs(4),
            &cache,
            4,
            4,
            recovery_rows(&base),
            &quick_params(),
        );
        assert_eq!(render_recovery_curve(&a), render_recovery_curve(&b));
    }

    #[test]
    fn degradation_curve_has_fault_free_reference_row() {
        let cache = MapCache::in_memory();
        let base = FaultSpec::Mtbf {
            mean: 10_000,
            count: 2,
            seed: 1,
            kind: cgra_arch::FaultKind::Kill,
        };
        let curve = curve(
            &Engine::with_jobs(2),
            &cache,
            4,
            4,
            degradation_rows(base),
            &quick_params(),
        );
        assert_eq!(curve.len(), CURVE_SCALES.len());
        assert_eq!(curve[0].1, FaultSpec::Off);
        let reference = curve[0].2.as_ref().unwrap();
        assert!(!reference.faults.any());
        let rendered = render_curve(&curve);
        assert!(rendered.contains("rate x"));
        // Every row rendered, errors included in-slot.
        assert_eq!(rendered.lines().count(), CURVE_SCALES.len() + 2);
    }
}
