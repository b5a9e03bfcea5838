//! A Figure 9-style experiment in miniature: sweep thread counts on one
//! fabric and watch the multithreaded CGRA pull ahead of the FCFS
//! baseline.
//!
//! Run with: `cargo run --release --example multithreaded_workload [dim]`

use cgra_bench::mapcache::MapCache;
use cgra_mt::prelude::*;

fn main() {
    let dim: u16 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    let cgra = CgraConfig::square(dim);
    println!(
        "Compiling the 11-kernel library for a {dim}x{dim} CGRA ({} pages)...\n",
        cgra.layout().num_pages()
    );
    let lib = MapCache::in_memory().library(&cgra, &MapOptions::default());

    println!("kernel    footprint(pages)  II(full)  II(half)  II(1 page)");
    let n = lib.num_pages;
    for p in &lib.profiles {
        println!(
            "{:>8}  {:>16}  {:>8}  {:>8}  {:>10}",
            p.name,
            p.used_pages,
            p.ii_constrained,
            p.ii_at((n / 2).max(1)),
            p.ii_at(1)
        );
    }

    println!("\nthreads | need  | FCFS makespan | MT makespan | improvement | shrinks");
    for &threads in &[1usize, 2, 4, 8, 16] {
        for need in CgraNeed::ALL {
            let workload = generate(
                &lib,
                &WorkloadParams {
                    threads,
                    need,
                    work_per_thread: 60_000,
                    bursts: 4,
                    seed: 11,
                },
            );
            let base = simulate_baseline(&lib, &workload);
            let mt =
                simulate_multithreaded(&lib, &workload, MtConfig::default(), &[], &Tracer::off())
                    .expect("simulates");
            println!(
                "{threads:>7} | {:>5} | {:>13} | {:>11} | {:>+10.1}% | {:>7}",
                need.label(),
                base.makespan,
                mt.makespan,
                improvement_percent(base.makespan, mt.makespan),
                mt.shrinks
            );
        }
    }
    println!(
        "\nLarger fabrics host more co-running kernels: try\n  cargo run --release --example multithreaded_workload 8"
    );
}
