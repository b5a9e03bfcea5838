//! Golden-file snapshot of the multithreaded simulator at the high-tenant
//! end of the Fig. 9 sweep: 64 threads, 16 CGRA bursts each, on a 6×6
//! fabric with page size 2 (18 pages), for all three CGRA needs, both
//! fault-free and under the recovery sweep's reseeded
//! `mtbf=20000,count=4,mttr=4000` schedule. Two more axes ride along: a
//! reseeded degrade-only schedule (degraded pages slow their owner),
//! and the same grid at 8 threads, where with fewer tenants than pages
//! faults shrink and remap threads and repairs re-expand them — which
//! 64 one-page tenants never see.
//!
//! The snapshot pins the *whole* `SimReport` — makespan, every thread's
//! finish time, iteration and occupancy counters, shrink/expand/stall
//! counts and every fault counter — plus the length and a hash of the
//! run's trace event stream. Performance work on the simulator must
//! leave it byte-identical. The compiled library's profiles are
//! rendered first, so a mapper or transform change shows up as a
//! library diff rather than as unexplained simulator drift. Refresh
//! with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p cgra-sim --test golden_sim
//! ```
//!
//! and review the diff like any other code change.

use cgra_arch::{CgraConfig, FaultSpec};
use cgra_bench::mapcache::MapCache;
use cgra_mapper::MapOptions;
use cgra_obs::{RingSink, TraceEvent, Tracer};
use cgra_sim::{
    generate, simulate_multithreaded, CgraNeed, KernelLibrary, MtConfig, SimReport, WorkloadParams,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const THREADS: [usize; 2] = [8, 64];
const BURSTS: usize = 16;
const WORK_PER_THREAD: u64 = 60_000;
/// Fault-free, the recovery sweep's spec, and a degrade-only spec; each
/// reseeded per workload.
const FAULTS: [&str; 3] = [
    "off",
    "mtbf=20000,count=4,mttr=4000",
    "mtbf=10000,count=6,degrade",
];

fn library() -> Arc<KernelLibrary> {
    let cgra = CgraConfig::square(6)
        .with_page_size(2)
        .expect("6x6 tiles into pages of 2");
    MapCache::in_memory().library(&cgra, &MapOptions::default())
}

/// FNV-1a over the `Debug` rendering of every event: a compact pin on
/// the exact event stream (order, times, page lists).
fn trace_hash(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in events {
        for b in format!("{ev:?}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn render_report(out: &mut String, r: &SimReport, events: &[TraceEvent]) {
    let _ = writeln!(out, "makespan: {}", r.makespan);
    let _ = writeln!(out, "cgra_iterations: {}", r.cgra_iterations);
    let _ = writeln!(out, "page_cycles: {}", r.page_cycles);
    let _ = writeln!(out, "shrinks: {}", r.shrinks);
    let _ = writeln!(out, "expands: {}", r.expands);
    let _ = writeln!(out, "stall_cycles: {}", r.stall_cycles);
    let _ = writeln!(out, "faults: {:?}", r.faults);
    for (i, chunk) in r.thread_finish.chunks(8).enumerate() {
        let _ = writeln!(out, "thread_finish[{}..]: {chunk:?}", i * 8);
    }
    let _ = writeln!(
        out,
        "trace: {} events, fnv {:016x}",
        events.len(),
        trace_hash(events)
    );
}

fn render() -> String {
    let lib = library();
    let mut out = String::new();
    let _ = writeln!(out, "library: 6x6 page 2, {} pages", lib.num_pages);
    for p in &lib.profiles {
        let _ = writeln!(
            out,
            "  {}: ii_baseline={} ii_constrained={} used_pages={} ii_by_pages={:?}",
            p.name, p.ii_baseline, p.ii_constrained, p.used_pages, p.ii_by_pages
        );
    }
    for (threads, (i, need)) in THREADS
        .into_iter()
        .flat_map(|t| CgraNeed::ALL.into_iter().enumerate().map(move |n| (t, n)))
    {
        let seed = 100 + i as u64;
        let workload = generate(
            &lib,
            &WorkloadParams {
                threads,
                need,
                work_per_thread: WORK_PER_THREAD,
                bursts: BURSTS,
                seed,
            },
        );
        for label in FAULTS {
            let schedule = FaultSpec::parse(label)
                .expect("fault spec parses")
                .reseeded(seed)
                .schedule(lib.num_pages);
            let sink = Arc::new(RingSink::unbounded());
            let tracer = Tracer::new(sink.clone());
            let report =
                simulate_multithreaded(&lib, &workload, MtConfig::default(), &schedule, &tracer)
                    .expect("simulation completes");
            let _ = writeln!(
                out,
                "\n## need {} seed {seed}, {threads} threads, {BURSTS} bursts, faults {label}",
                need.label()
            );
            render_report(&mut out, &report, &sink.drain());
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("sim_6x6p2.txt")
}

#[test]
fn simulator_reports_match_golden() {
    let actual = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "simulator snapshot diverged; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}
