//! The simulator over real compiled libraries: the fault-free and
//! faulty multithreaded system, the single-threaded FCFS baseline, the
//! workload generator and the profile queries the allocator relies on.
//!
//! These tests need the benchmark library compiled by `cgra-bench`, which
//! depends on this crate, so they live here rather than beside the code:
//! an integration test links the same `cgra-sim` that `cgra-bench` does.

use cgra_arch::CgraConfig;
use cgra_bench::mapcache::MapCache;
use cgra_mapper::MapOptions;
use cgra_sim::KernelLibrary;
use std::sync::OnceLock;

/// The 11-kernel library on the `dim × dim` fabric with 2×2 pages,
/// compiled once per fabric for the whole test binary.
fn lib(dim: u16) -> KernelLibrary {
    static CACHE: OnceLock<MapCache> = OnceLock::new();
    let cache = CACHE.get_or_init(MapCache::in_memory);
    (*cache.library(&CgraConfig::square(dim), &MapOptions::default())).clone()
}

mod multithreaded {
    use super::lib;
    use cgra_arch::{FaultEvent, FaultKind, FaultSpec};
    use cgra_obs::{RingSink, TraceEvent, Tracer};
    use cgra_sim::{
        generate, improvement_percent, simulate_baseline, simulate_multithreaded, CgraNeed,
        KernelLibrary, MtConfig, Segment, SimError, SimReport, ThreadSpec, WorkloadParams,
    };
    use std::sync::Arc;

    /// An untraced run under the default [`MtConfig`].
    fn simulate(
        lib: &KernelLibrary,
        threads: &[ThreadSpec],
        faults: &[FaultEvent],
    ) -> Result<SimReport, SimError> {
        simulate_multithreaded(lib, threads, MtConfig::default(), faults, &Tracer::off())
    }

    #[test]
    fn single_thread_matches_constrained_rate() {
        let lib = lib(4);
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: 0,
                iterations: 50,
            }],
        };
        let r = simulate(&lib, &[spec], &[]).unwrap();
        let ii = lib.profile(0).ii_constrained as u64;
        assert_eq!(r.makespan, 50 * ii);
        assert_eq!(r.shrinks, 0);
    }

    #[test]
    fn deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let a = simulate(&lib, &w, &[]).unwrap();
        let b = simulate(&lib, &w, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn small_kernels_co_run_without_shrinking() {
        let lib = lib(4);
        // Two threads running kernels that fit half the array each.
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) <= 2)
            .expect("some kernel uses at most half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 100,
            }],
        };
        let r = simulate(&lib, &[spec.clone(), spec], &[]).unwrap();
        assert_eq!(r.shrinks, 0, "unused-portion rule should serve both");
        let ii = lib.profile(small).ii_constrained as u64;
        assert_eq!(r.makespan, 100 * ii);
    }

    #[test]
    fn multithreading_beats_baseline_on_contended_workloads() {
        let lib = lib(8);
        let w = generate(
            &lib,
            &WorkloadParams {
                threads: 8,
                need: CgraNeed::High,
                work_per_thread: 50_000,
                bursts: 3,
                seed: 7,
            },
        );
        let base = simulate_baseline(&lib, &w);
        let mt = simulate(&lib, &w, &[]).unwrap();
        let imp = improvement_percent(base.makespan, mt.makespan);
        assert!(
            imp > 20.0,
            "expected solid improvement on 8x8 with 8 threads, got {imp:.1}%"
        );
    }

    #[test]
    fn overhead_reduces_but_does_not_break_improvement() {
        let lib = lib(4);
        let w = generate(
            &lib,
            &WorkloadParams {
                threads: 4,
                need: CgraNeed::High,
                ..Default::default()
            },
        );
        let zero = simulate(&lib, &w, &[]).unwrap();
        let heavy = simulate_multithreaded(
            &lib,
            &w,
            MtConfig {
                switch_overhead: 1000,
                ..Default::default()
            },
            &[],
            &Tracer::off(),
        )
        .unwrap();
        assert!(heavy.makespan >= zero.makespan);
    }

    #[test]
    fn conservation_of_iterations() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let total: u64 = w
            .iter()
            .flat_map(|t| &t.segments)
            .map(|s| match s {
                Segment::Cgra { iterations, .. } => *iterations,
                _ => 0,
            })
            .sum();
        let r = simulate(&lib, &w, &[]).unwrap();
        assert_eq!(r.cgra_iterations, total);
    }

    #[test]
    fn queued_thread_drains_when_capacity_frees() {
        let lib = lib(4);
        // Find a kernel wanting the whole array, so every arrival forces
        // a shrink and the fifth request finds everyone at one page.
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = |iters: u64| ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: iters,
            }],
        };
        // Threads 0..4 fill the fabric down to 1 page each; thread 4
        // arrives with nothing shrinkable left and must queue until one
        // of the others finishes.
        let threads = [spec(200), spec(200), spec(200), spec(200), spec(50)];
        let r = simulate(&lib, &threads, &[]).unwrap();
        assert!(r.stall_cycles > 0, "fifth thread should have waited: {r:?}");
        assert!(r.thread_finish.iter().all(|&f| f > 0));
        assert_eq!(r.shrinks, 3, "arrivals 1..3 each shrink a tenant");
    }

    #[test]
    fn zero_fault_schedule_is_identical_to_plain_path() {
        // An `off` spec schedules nothing, and a traced run of it is the
        // plain untraced fault-free run.
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let off = FaultSpec::Off.reseeded(3).schedule(lib.num_pages);
        assert!(off.is_empty());
        let plain = simulate(&lib, &w, &[]);
        let sink = Arc::new(RingSink::unbounded());
        let traced =
            simulate_multithreaded(&lib, &w, MtConfig::default(), &off, &Tracer::new(sink));
        assert_eq!(plain, traced);
        assert!(!plain.unwrap().faults.any());
    }

    #[test]
    fn concurrent_calls_agree_with_serial() {
        // The sweep engine's contract: runs sharing one `&KernelLibrary`
        // from many threads match serial runs, with and without faults.
        let lib = lib(4);
        let runs: Vec<(Vec<ThreadSpec>, Vec<FaultEvent>)> = (0..8)
            .map(|i| {
                let params = WorkloadParams {
                    threads: 1 + i % 4,
                    need: CgraNeed::ALL[i % 3],
                    work_per_thread: 8_000,
                    bursts: 2,
                    seed: i as u64,
                };
                let faults = match i % 2 {
                    0 => Vec::new(),
                    _ => FaultSpec::parse("mtbf=4000,count=2,mttr=1000")
                        .unwrap()
                        .reseeded(i as u64)
                        .schedule(lib.num_pages),
                };
                (generate(&lib, &params), faults)
            })
            .collect();
        let run = |(w, f): &(Vec<ThreadSpec>, Vec<FaultEvent>)| simulate(&lib, w, f);
        let serial: Vec<_> = runs.iter().map(run).collect();
        let parallel: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = runs.iter().map(|r| s.spawn(move || run(r))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn page_death_shrinks_only_the_owner() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        // Two tenants at 2 pages each: thread 0 on pages {0,1}, thread 1
        // on pages {2,3}. Kill page 0 mid-run: only thread 0 is remapped.
        let ii = lib.profile(small).ii_constrained as u64;
        let faults = [FaultEvent {
            time: 100 * ii,
            page: 0,
            kind: FaultKind::Kill,
        }];
        let r = simulate(&lib, &[spec.clone(), spec], &faults).unwrap();
        assert_eq!(r.faults.injected, 1);
        assert_eq!(r.faults.pages_killed, 1);
        assert_eq!(r.faults.threads_remapped, 1);
        assert_eq!(r.faults.threads_revoked, 0);
        // Thread 1 is untouched: it finishes at its undisturbed rate.
        assert_eq!(r.thread_finish[1], 1000 * ii);
        // Thread 0 lost a page and must run slower from the fault on.
        assert!(r.thread_finish[0] > 1000 * ii);
        assert_eq!(r.cgra_iterations, 2000);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let faults = [
            FaultEvent {
                time: 5_000,
                page: 1,
                kind: FaultKind::Kill,
            },
            FaultEvent {
                time: 9_000,
                page: 3,
                kind: FaultKind::Degrade,
            },
        ];
        let a = simulate(&lib, &w, &faults).unwrap();
        let b = simulate(&lib, &w, &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn revoked_thread_requeues_and_completes() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = |iters: u64| ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: iters,
            }],
        };
        // Four tenants at one page each; kill thread 0's page early. It
        // is revoked, waits, and is re-admitted when a tenant finishes.
        let threads = [spec(500), spec(100), spec(500), spec(500)];
        let r = simulate(
            &lib,
            &threads,
            &[FaultEvent {
                time: 3,
                page: 0,
                kind: FaultKind::Kill,
            }],
        )
        .unwrap();
        assert_eq!(r.faults.threads_revoked, 1);
        assert!(r.faults.iterations_deferred > 0);
        assert!(r.faults.recovery_cycles > 0);
        assert!(r.thread_finish.iter().all(|&f| f > 0), "{r:?}");
    }

    #[test]
    fn killing_every_page_starves_typed() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 1_000_000,
            }],
        };
        let faults: Vec<FaultEvent> = (0..4)
            .map(|p| FaultEvent {
                time: 10 + p as u64,
                page: p,
                kind: FaultKind::Kill,
            })
            .collect();
        let err = simulate(&lib, &[spec], &faults).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Starved {
                    usable_pages: 0,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// Two tenants at two pages each; a transient strike on page 0
    /// shrinks thread 0 to one page, then repair + supervised
    /// re-expansion puts it back on two — the full
    /// shrink → repair → expand round trip, with the trace showing
    /// `PageRepaired` and `Reexpanded` at the expected cycles.
    #[test]
    fn transient_fault_round_trips_to_original_page_count() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let (strike, repair_after, quarantine) = (100 * ii, 50 * ii, 64);
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let r = simulate_multithreaded(
            &lib,
            &[spec.clone(), spec],
            MtConfig {
                quarantine,
                ..MtConfig::default()
            },
            &[FaultEvent {
                time: strike,
                page: 0,
                kind: FaultKind::Transient { repair_after },
            }],
            &tracer,
        )
        .unwrap();
        assert_eq!(r.faults.pages_killed, 1);
        assert_eq!(r.faults.threads_remapped, 1);
        assert_eq!(r.faults.repairs, 1);
        assert_eq!(r.faults.reexpansions, 1);
        // No revoke ⇒ no iteration loss across the round trip.
        assert_eq!(r.faults.iterations_deferred, 0);
        assert_eq!(r.cgra_iterations, 2000);
        // Thread 1 never noticed; thread 0 paid for the one-page spell.
        assert_eq!(r.thread_finish[1], 1000 * ii);
        assert!(r.thread_finish[0] > 1000 * ii);
        let events = sink.drain();
        let repaired_at = events
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::PageRepaired { time, page: 0 } => Some(*time),
                _ => None,
            })
            .expect("page 0 is repaired");
        assert_eq!(repaired_at, strike + repair_after + quarantine);
        let reexpanded = events
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::Reexpanded {
                    time,
                    thread: 0,
                    from,
                    to,
                    ..
                } => Some((*time, *from, *to)),
                _ => None,
            })
            .expect("thread 0 is re-expanded");
        assert_eq!(reexpanded.1, 1, "re-expansion starts from the shrunk size");
        assert_eq!(reexpanded.2, 2, "…and restores the original page count");
        assert!(reexpanded.0 >= repaired_at);
    }

    /// A longer quarantine window keeps the repaired page out of the
    /// pool longer, so the shrunk thread runs slow for longer.
    #[test]
    fn quarantine_delays_the_reoffer() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let fault = [FaultEvent {
            time: 100 * ii,
            page: 0,
            kind: FaultKind::Transient {
                repair_after: 10 * ii,
            },
        }];
        let run = |quarantine: u64| {
            simulate_multithreaded(
                &lib,
                &[spec.clone(), spec.clone()],
                MtConfig {
                    quarantine,
                    ..MtConfig::default()
                },
                &fault,
                &Tracer::off(),
            )
            .unwrap()
        };
        let short = run(0);
        let long = run(400 * ii);
        assert_eq!(short.faults.repairs, 1);
        assert_eq!(long.faults.repairs, 1);
        assert!(
            short.thread_finish[0] < long.thread_finish[0],
            "longer quarantine must delay recovery: {} vs {}",
            short.thread_finish[0],
            long.thread_finish[0]
        );
    }

    /// A permanent kill landing while the page awaits repair cancels
    /// the repair — the page stays dead for good.
    #[test]
    fn permanent_kill_during_repair_sticks() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 1000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let faults = [
            FaultEvent {
                time: 100 * ii,
                page: 0,
                kind: FaultKind::Transient {
                    repair_after: 50 * ii,
                },
            },
            // Lands while page 0 is dead awaiting repair.
            FaultEvent {
                time: 120 * ii,
                page: 0,
                kind: FaultKind::Kill,
            },
        ];
        let r = simulate(&lib, &[spec.clone(), spec], &faults).unwrap();
        assert_eq!(r.faults.injected, 2);
        assert_eq!(r.faults.pages_killed, 1, "second strike found it dead");
        assert_eq!(r.faults.repairs, 0, "the permanent kill cancels repair");
        assert_eq!(r.faults.reexpansions, 0);
        assert!(r.thread_finish[0] > 1000 * ii, "thread 0 stays shrunk");
    }

    /// A second transient strike mid-quarantine invalidates the pending
    /// commit and restarts the repair clock from the new strike.
    #[test]
    fn restrike_during_quarantine_restarts_the_repair_clock() {
        let lib = lib(4);
        let small = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == 2)
            .expect("some kernel wants half the 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: small,
                iterations: 2000,
            }],
        };
        let ii = lib.profile(small).ii_constrained as u64;
        let (t0, ra, q) = (100 * ii, 20 * ii, 100 * ii);
        let t1 = t0 + ra + q / 2; // inside the quarantine window
        let faults = [
            FaultEvent {
                time: t0,
                page: 0,
                kind: FaultKind::Transient { repair_after: ra },
            },
            FaultEvent {
                time: t1,
                page: 0,
                kind: FaultKind::Transient { repair_after: ra },
            },
        ];
        let sink = std::sync::Arc::new(cgra_obs::RingSink::unbounded());
        let tracer = Tracer::new(sink.clone());
        let r = simulate_multithreaded(
            &lib,
            &[spec.clone(), spec],
            MtConfig {
                quarantine: q,
                ..MtConfig::default()
            },
            &faults,
            &tracer,
        )
        .unwrap();
        assert_eq!(r.faults.pages_killed, 2, "the re-strike kills it again");
        assert_eq!(r.faults.repairs, 1, "only the restarted repair commits");
        let repaired_at = sink
            .drain()
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::PageRepaired { time, page: 0 } => Some(*time),
                _ => None,
            })
            .expect("page 0 is eventually repaired");
        assert_eq!(repaired_at, t1 + ra + q, "clock restarts at the re-strike");
    }

    /// Transient kills of *every* page starve the fabric only until the
    /// repairs land — the revoked threads are re-admitted from the
    /// queue and the run completes (contrast
    /// [`killing_every_page_starves_typed`]).
    #[test]
    fn transient_kill_of_every_page_recovers_instead_of_starving() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 1000,
            }],
        };
        let faults: Vec<FaultEvent> = (0..4)
            .map(|p| FaultEvent {
                time: 10 + u64::from(p),
                page: p,
                kind: FaultKind::Transient { repair_after: 500 },
            })
            .collect();
        let r = simulate(&lib, std::slice::from_ref(&spec), &faults).unwrap();
        assert_eq!(r.faults.repairs, 4, "every page comes back");
        assert_eq!(r.faults.threads_revoked, 1);
        assert!(r.faults.recovery_cycles > 0);
        assert!(r.thread_finish[0] > 0, "{r:?}");
        assert_eq!(r.cgra_iterations, 1000, "no iterations lost for good");
    }

    #[test]
    fn transient_runs_are_deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        let faults = [
            FaultEvent {
                time: 5_000,
                page: 1,
                kind: FaultKind::Transient { repair_after: 800 },
            },
            FaultEvent {
                time: 9_000,
                page: 3,
                kind: FaultKind::Transient { repair_after: 200 },
            },
        ];
        let a = simulate(&lib, &w, &faults).unwrap();
        let b = simulate(&lib, &w, &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degrade_slows_only_while_holding_the_page() {
        let lib = lib(4);
        let big = (0..lib.len())
            .find(|&k| lib.profile(k).wanted_pages(lib.num_pages) == lib.num_pages)
            .expect("some kernel wants the whole 4x4");
        let spec = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: big,
                iterations: 100,
            }],
        };
        let ii = lib.profile(big).ii_constrained as u64;
        let clean = simulate(&lib, std::slice::from_ref(&spec), &[]).unwrap();
        let degraded = simulate(
            &lib,
            &[spec],
            &[FaultEvent {
                time: 10 * ii,
                page: 2,
                kind: FaultKind::Degrade,
            }],
        )
        .unwrap();
        assert_eq!(degraded.faults.pages_degraded, 1);
        assert!(
            degraded.makespan > clean.makespan,
            "degraded page should slow the tenant: {} vs {}",
            degraded.makespan,
            clean.makespan
        );
    }
}

mod baseline {
    use super::lib;
    use cgra_sim::{generate, simulate_baseline, Segment, ThreadSpec, WorkloadParams};

    #[test]
    fn single_thread_runs_back_to_back() {
        let lib = lib(4);
        let spec = ThreadSpec {
            segments: vec![
                Segment::Cpu(100),
                Segment::Cgra {
                    kernel: 0,
                    iterations: 10,
                },
            ],
        };
        let r = simulate_baseline(&lib, &[spec]);
        let ii = lib.profile(0).ii_baseline as u64;
        assert_eq!(r.makespan, 100 + 10 * ii);
        assert_eq!(r.stall_cycles, 0);
        assert_eq!(r.cgra_iterations, 10);
    }

    #[test]
    fn two_threads_serialize_on_the_cgra() {
        let lib = lib(4);
        let seg = Segment::Cgra {
            kernel: 0,
            iterations: 100,
        };
        let spec = ThreadSpec {
            segments: vec![seg],
        };
        let r = simulate_baseline(&lib, &[spec.clone(), spec]);
        let ii = lib.profile(0).ii_baseline as u64;
        assert_eq!(r.makespan, 200 * ii);
        assert_eq!(r.stall_cycles, 100 * ii);
    }

    #[test]
    fn cpu_segments_overlap_cgra_use() {
        let lib = lib(4);
        let ii = lib.profile(0).ii_baseline as u64;
        let a = ThreadSpec {
            segments: vec![Segment::Cgra {
                kernel: 0,
                iterations: 100,
            }],
        };
        let b = ThreadSpec {
            segments: vec![Segment::Cpu(100 * ii)],
        };
        let r = simulate_baseline(&lib, &[a, b]);
        // Thread b's CPU work fully overlaps thread a's CGRA work.
        assert_eq!(r.makespan, 100 * ii);
    }

    #[test]
    fn deterministic() {
        let lib = lib(4);
        let w = generate(&lib, &WorkloadParams::default());
        assert_eq!(simulate_baseline(&lib, &w), simulate_baseline(&lib, &w));
    }
}

mod workload {
    use super::lib;
    use cgra_sim::{generate, CgraNeed, Segment, WorkloadParams};

    #[test]
    fn generation_is_deterministic() {
        let lib = lib(4);
        let p = WorkloadParams::default();
        assert_eq!(generate(&lib, &p), generate(&lib, &p));
    }

    #[test]
    fn different_seeds_differ() {
        let lib = lib(4);
        let a = generate(&lib, &WorkloadParams::default());
        let b = generate(
            &lib,
            &WorkloadParams {
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn need_fraction_is_respected() {
        let lib = lib(4);
        for need in CgraNeed::ALL {
            let threads = generate(
                &lib,
                &WorkloadParams {
                    need,
                    threads: 8,
                    work_per_thread: 200_000,
                    ..Default::default()
                },
            );
            for t in &threads {
                let cgra = t.nominal_cgra_cycles(&lib) as f64;
                let total = cgra + t.cpu_cycles() as f64;
                let f = cgra / total;
                assert!(
                    (f - need.fraction()).abs() < 0.1,
                    "need {need:?}: got fraction {f}"
                );
            }
        }
    }

    #[test]
    fn segments_alternate_and_have_work() {
        let lib = lib(4);
        let threads = generate(&lib, &WorkloadParams::default());
        for t in &threads {
            assert!(!t.segments.is_empty());
            assert!(t.segments.iter().any(|s| matches!(s, Segment::Cgra { .. })));
            for s in &t.segments {
                match s {
                    Segment::Cpu(c) => assert!(*c > 0),
                    Segment::Cgra { iterations, .. } => assert!(*iterations > 0),
                }
            }
        }
    }
}

mod kernel_lib {
    use cgra_arch::CgraConfig;
    use cgra_bench::compile::compile;
    use cgra_mapper::MapOptions;
    use cgra_obs::Tracer;
    use cgra_sim::{halving_chain, KernelProfile};

    /// A kernel's profile on the 4x4 with 2x2 pages.
    fn profile_4x4(dfg: &cgra_dfg::Dfg) -> KernelProfile {
        let cgra = CgraConfig::square(4);
        compile(dfg, &cgra, &MapOptions::default(), &Tracer::off())
            .expect("compiles")
            .profile
    }

    #[test]
    fn wanted_pages_covers_footprint() {
        let p = profile_4x4(&cgra_dfg::kernels::sor());
        let want = p.wanted_pages(4);
        assert!(want >= p.used_pages);
        assert!(halving_chain(4).contains(&want));
    }

    #[test]
    #[should_panic(expected = "no transform cached")]
    fn ii_at_off_chain_panics() {
        let p = profile_4x4(&cgra_dfg::kernels::laplace());
        p.ii_at(3);
    }
}
