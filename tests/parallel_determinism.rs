//! Differential tests for the sweep engine's determinism contract: a
//! reduced Fig. 8 / Fig. 9 grid run with `jobs = 1` must produce
//! **byte-identical** reports to the same grid run with `jobs = 4`, with
//! the mapping cache enabled and disabled. `jobs = 1` is the pure-serial
//! reference path (no threads, no locks), so any divergence pins the
//! blame on scheduling- or cache-dependent state.

use cgra_arch::{FaultKind, FaultSpec};
use cgra_bench::engine::Engine;
use cgra_bench::fig8;
use cgra_bench::fig9::{self, CurveRow, Fig9Params, Fig9Point};
use cgra_bench::mapcache::MapCache;
use cgra_obs::{check_trace, RingSink, Tracer};
use cgra_sim::CgraNeed;
use std::sync::Arc;

/// The reduced Fig. 8 grid: two page sizes on the 4x4.
fn fig8_reduced(engine: &Engine, cache: &MapCache) -> Vec<fig8::Fig8Point> {
    let mut points = fig8_config(engine, cache, 4, 2);
    points.extend(fig8_config(engine, cache, 4, 8));
    points
}

fn fig8_config(engine: &Engine, cache: &MapCache, dim: u16, page: usize) -> Vec<fig8::Fig8Point> {
    fig8::run_config(engine, cache, dim, page)
}

fn quick_params() -> Fig9Params {
    Fig9Params {
        seeds: 2,
        work_per_thread: 20_000,
        bursts: 2,
        ..Fig9Params::default()
    }
}

/// The reduced Fig. 9 grid: 4x4 fabric, two page sizes, all needs, three
/// thread counts — driven through the engine like the real sweep.
fn fig9_reduced(engine: &Engine, cache: &MapCache) -> Vec<Fig9Point> {
    let params = quick_params();
    let mut points: Vec<(u16, usize, CgraNeed, usize)> = Vec::new();
    for &s in &[2usize, 4] {
        for need in CgraNeed::ALL {
            for &t in &[1usize, 4, 16] {
                points.push((4, s, need, t));
            }
        }
    }
    engine.run(&points, |&(dim, s, need, t)| {
        fig9::run_point(cache, dim, s, need, t, &params).unwrap()
    })
}

#[test]
fn fig8_is_byte_identical_across_jobs_and_cache_modes() {
    let reference = fig8_reduced(&Engine::with_jobs(1), &MapCache::in_memory());
    let reference_render = fig8::render(&reference, 4);
    let reference_summary = format!("{:?}", fig8::summary(&reference));

    for jobs in [1usize, 4] {
        for cached in [true, false] {
            let cache = if cached {
                MapCache::in_memory()
            } else {
                MapCache::disabled()
            };
            let got = fig8_reduced(&Engine::with_jobs(jobs), &cache);
            assert_eq!(
                got, reference,
                "fig8 points diverge at jobs={jobs} cached={cached}"
            );
            assert_eq!(
                fig8::render(&got, 4),
                reference_render,
                "fig8 rendered table diverges at jobs={jobs} cached={cached}"
            );
            assert_eq!(
                format!("{:?}", fig8::summary(&got)),
                reference_summary,
                "fig8 summary diverges at jobs={jobs} cached={cached}"
            );
        }
    }
}

#[test]
fn fig9_is_byte_identical_across_jobs_and_cache_modes() {
    let reference = fig9_reduced(&Engine::with_jobs(1), &MapCache::in_memory());
    let reference_render = fig9::render(&reference, 4);

    for jobs in [1usize, 4] {
        for cached in [true, false] {
            let cache = if cached {
                MapCache::in_memory()
            } else {
                MapCache::disabled()
            };
            let got = fig9_reduced(&Engine::with_jobs(jobs), &cache);
            // Fig9Point holds f64 means; PartialEq equality here really is
            // bit-level, which is exactly the contract under test.
            assert_eq!(
                got, reference,
                "fig9 points diverge at jobs={jobs} cached={cached}"
            );
            assert_eq!(
                fig9::render(&got, 4),
                reference_render,
                "fig9 rendered table diverges at jobs={jobs} cached={cached}"
            );
        }
    }
}

/// Run a fault curve at 4x4 page 4 serially and with four workers, each
/// traced into its own sink. The two must agree point-for-point and
/// render identically, and both traces must replay clean through the
/// trace oracle with the same run and event counts. Returns the serial
/// curve.
fn curve_across_jobs<L: Sync + PartialEq + std::fmt::Debug>(
    rows: impl Fn() -> Vec<(L, FaultSpec)>,
    render: fn(&[CurveRow<L>]) -> String,
) -> Vec<CurveRow<L>> {
    let run = |jobs: usize| {
        let sink = Arc::new(RingSink::unbounded());
        let params = Fig9Params {
            tracer: Tracer::new(sink.clone()),
            ..quick_params()
        };
        let cache = MapCache::in_memory();
        let curve = fig9::curve(&Engine::with_jobs(jobs), &cache, 4, 4, rows(), &params);
        let report = check_trace(&sink.drain())
            .unwrap_or_else(|e| panic!("jobs={jobs} trace does not replay clean: {e}"));
        (curve, report)
    };

    let (reference, report) = run(1);
    assert!(reference.iter().all(|(_, _, r)| r.is_ok()), "{reference:?}");
    assert!(report.runs > 0, "traced runs must be recorded");
    assert_eq!(report.aborted_runs, 0);

    let (parallel, parallel_report) = run(4);
    // Fig9Point holds f64 means; equality is bit-level — the contract.
    assert_eq!(parallel, reference, "curve diverges at jobs=4");
    assert_eq!(
        render(&parallel),
        render(&reference),
        "rendered curve diverges at jobs=4"
    );
    assert_eq!(
        (parallel_report.runs, parallel_report.events),
        (report.runs, report.events),
        "jobs=4 must trace the same runs and events as jobs=1"
    );
    reference
}

#[test]
fn fault_curve_is_identical_across_jobs_and_traces_are_oracle_clean() {
    // The fault-injection path must honour the same contract as the
    // fault-free grid: a degradation curve run serially and with four
    // workers must agree point-for-point, and the trace captured from
    // either run must replay clean through the trace oracle. count=2
    // kills on the 4-page fabric means at most half the fabric dies, so
    // no scale of the curve can starve a thread.
    let base = FaultSpec::Mtbf {
        mean: 10_000,
        count: 2,
        seed: 1,
        kind: FaultKind::Kill,
    };
    let curve = curve_across_jobs(|| fig9::degradation_rows(base), fig9::render_curve);
    // Faults actually struck — the revoke/shrink machinery was exercised.
    let faulted = curve
        .iter()
        .filter_map(|(_, _, r)| r.as_ref().ok())
        .any(|p| p.faults.any());
    assert!(faulted, "no fault ever fired; the curve tests nothing");
}

#[test]
fn recovery_curve_is_identical_across_jobs_and_traces_are_oracle_clean() {
    // Same contract for the transient-fault path: the mttr
    // degradation-and-recovery curve (fault-free row, no-repair row,
    // and the descending-mttr rows) must render byte-identically at
    // jobs=1 and jobs=4, and the traces — now carrying PageRepaired and
    // Reexpanded events — must replay clean through the oracle.
    let base = FaultSpec::Mtbf {
        mean: 10_000,
        count: 2,
        seed: 1,
        kind: FaultKind::Transient { repair_after: 500 },
    };
    let curve = curve_across_jobs(|| fig9::recovery_rows(&base), fig9::render_recovery_curve);
    // Repairs actually fired — the revive/re-expand machinery ran.
    let repaired = curve
        .iter()
        .filter_map(|(_, _, r)| r.as_ref().ok())
        .any(|p| p.faults.repairs > 0);
    assert!(repaired, "no page ever repaired; the curve tests nothing");
}

#[test]
fn disk_cache_round_trip_is_also_identical() {
    // A profile loaded back from target/mapcache JSON must reproduce the
    // freshly computed report bytes too.
    let dir = std::env::temp_dir().join(format!("mapcache-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let reference = fig8_reduced(&Engine::with_jobs(1), &MapCache::in_memory());

    let writer = MapCache::persistent_at(&dir);
    let first = fig8_reduced(&Engine::with_jobs(4), &writer);
    assert_eq!(first, reference);

    // A fresh cache over the same directory serves from disk.
    let reader = MapCache::persistent_at(&dir);
    let second = fig8_reduced(&Engine::with_jobs(4), &reader);
    assert_eq!(second, reference, "disk-loaded profiles diverge");
    assert!(
        reader.stats().disk_hits > 0,
        "expected disk hits, got {:?}",
        reader.stats()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
