//! Figure 9 — regenerates the multithreading-improvement table for the
//! 6x6 CGRA, then times the simulators.
//!
//! `cargo bench -p cgra-bench --bench fig9_multithreading` prints the
//! Fig. 9(b)-style series before timing one baseline and two
//! multithreaded simulations (8 threads on 4 pages, 64 threads on 18
//! pages) with the in-repo microbench harness.

use cgra_bench::fig9::{self, Fig9Params};
use cgra_bench::mapcache::MapCache;
use cgra_bench::microbench::Bench;
use cgra_mapper::MapOptions;
use cgra_obs::Tracer;
use cgra_sim::{
    generate, simulate_baseline, simulate_multithreaded, CgraNeed, MtConfig, WorkloadParams,
};
use std::hint::black_box;

fn print_figure(cache: &MapCache) {
    let params = Fig9Params {
        seeds: 3,
        ..Default::default()
    };
    let mut points = Vec::new();
    for &s in &[2usize, 4, 9] {
        for need in CgraNeed::ALL {
            for &t in &cgra_bench::THREAD_COUNTS {
                points.push(fig9::run_point(cache, 6, s, need, t, &params).unwrap());
            }
        }
    }
    println!("\n## Figure 9(b) — 6x6 CGRA, improvement over single-threaded baseline\n");
    println!("{}", fig9::render(&points, 6));
}

fn main() {
    let cache = MapCache::in_memory();
    print_figure(&cache);

    let lib = cache.library(&cgra_bench::cgra(6, 4), &MapOptions::default());
    let workload = generate(
        &lib,
        &WorkloadParams {
            threads: 8,
            need: CgraNeed::High,
            work_per_thread: 60_000,
            bursts: 4,
            seed: 3,
        },
    );
    let bench = Bench::from_env();
    bench.run("fig9_simulators/baseline_8threads_6x6", || {
        simulate_baseline(black_box(&lib), black_box(&workload))
    });
    bench.run("fig9_simulators/multithreaded_8threads_6x6", || {
        simulate_multithreaded(
            black_box(&lib),
            black_box(&workload),
            MtConfig::default(),
            &[],
            &Tracer::off(),
        )
    });

    // The high-tenant end of the sweep: 64 threads with 16 bursts each
    // on an 18-page fabric, where per-event cost that grows with the
    // thread count rather than the page count would dominate.
    let lib = cache.library(&cgra_bench::cgra(6, 2), &MapOptions::default());
    let workload = generate(
        &lib,
        &WorkloadParams {
            threads: 64,
            need: CgraNeed::High,
            work_per_thread: 60_000,
            bursts: 16,
            seed: 3,
        },
    );
    bench.run("fig9_simulators/multithreaded_64threads_6x6p2", || {
        simulate_multithreaded(
            black_box(&lib),
            black_box(&workload),
            MtConfig::default(),
            &[],
            &Tracer::off(),
        )
    });
}
