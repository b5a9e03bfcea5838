//! Figure 8 — regenerates the constraint-cost table, then times the
//! underlying sweep.
//!
//! `cargo bench -p cgra-bench --bench fig8_constraints` prints the same
//! rows the paper's Fig. 8 plots (performance % per kernel per page size)
//! before timing one sub-figure sweep with the in-repo microbench
//! harness.

use cgra_bench::engine::Engine;
use cgra_bench::fig8;
use cgra_bench::mapcache::MapCache;
use cgra_bench::microbench::Bench;

fn print_figure(engine: &Engine) {
    let points = fig8::run_all(engine, &MapCache::in_memory());
    for &(dim, _) in &cgra_bench::GRID {
        println!("\n## Figure 8 — {dim}x{dim} CGRA (100% = identical to baseline)\n");
        println!("{}", fig8::render(&points, dim));
    }
    println!("## Geometric means\n");
    for (dim, size, gm) in fig8::summary(&points) {
        println!("{dim}x{dim}  page {size:>2}: {gm:6.1}%");
    }
    println!();
}

fn main() {
    let engine = Engine::default();
    print_figure(&engine);
    let bench = Bench::from_env().with_max_iters(10);
    bench.run("fig8/sweep_4x4_page4", || {
        fig8::run_config(&engine, &MapCache::in_memory(), 4, 4)
    });
}
