//! Quickstart: compile a kernel for a CGRA, shrink it at runtime, and see
//! what multithreading buys — the paper's pipeline end to end.
//!
//! Run with: `cargo run --release --example quickstart`

use cgra_bench::mapcache::MapCache;
use cgra_mt::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. The fabric: a 4x4 CGRA (Fig. 1), divided into four 2x2 pages.
    // ------------------------------------------------------------------
    let cgra = CgraConfig::square(4);
    println!(
        "CGRA: {}x{} PEs, {} pages of {:?}, rotating RF of {} regs/PE\n",
        cgra.mesh().rows(),
        cgra.mesh().cols(),
        cgra.layout().num_pages(),
        cgra.layout().shape(),
        cgra.rf().size()
    );

    // ------------------------------------------------------------------
    // 2. A kernel: the paper's Fig. 2 MPEG2 loop.
    // ------------------------------------------------------------------
    let kernel = cgra_mt::dfg::kernels::mpeg2();
    println!(
        "Kernel '{}': {} ops ({} memory), RecMII {}, ResMII(16 PEs) {}\n",
        kernel.name,
        kernel.num_nodes(),
        kernel.num_mem_ops(),
        cgra_mt::dfg::rec_mii(&kernel),
        cgra_mt::dfg::res_mii(&kernel, 16),
    );

    // ------------------------------------------------------------------
    // 3. Compile twice: unconstrained baseline vs paging-constrained.
    // ------------------------------------------------------------------
    let opts = MapOptions::default();
    let base = map_baseline(&kernel, &cgra, &opts).expect("baseline mapping");
    let cons = map_constrained(&kernel, &cgra, &opts).expect("constrained mapping");
    assert!(validate_mapping(&cons.mdfg, &cgra, &cons.mapping, MapMode::Constrained).is_empty());
    println!(
        "Baseline II = {}, constrained II = {} (constraint cost: {:.0}%)",
        base.ii(),
        cons.ii(),
        (cons.ii() as f64 / base.ii() as f64 - 1.0) * 100.0
    );

    // ------------------------------------------------------------------
    // 4. Runtime shrink: another thread arrives; give up half the array.
    // ------------------------------------------------------------------
    let paged = PagedSchedule::from_mapping(&cons, &cgra).expect("page schedule");
    println!(
        "Page schedule: {} pages x II {} ({} occupied cells)",
        paged.num_pages,
        paged.ii,
        paged.cells.iter().filter(|c| !c.is_empty()).count()
    );
    for m in [2u16, 1] {
        let plan = transform(
            &paged.trimmed(),
            m.min(paged.trimmed().num_pages),
            Strategy::Auto,
        )
        .expect("transform");
        let violations = validate_plan(&paged.trimmed(), &plan);
        assert!(violations.is_empty(), "{violations:?}");
        println!(
            "  shrink to {} page(s): II_q = {:.1} (x{:.2} slowdown), strategy {:?}, validated",
            plan.m,
            plan.ii_q(),
            plan.ii_q() / cons.ii() as f64,
            plan.strategy
        );
    }

    // ------------------------------------------------------------------
    // 5. System view: 4 threads sharing the CGRA (Fig. 9 in miniature).
    // ------------------------------------------------------------------
    let lib = MapCache::in_memory().library(&cgra, &opts);
    let workload = generate(
        &lib,
        &WorkloadParams {
            threads: 4,
            need: CgraNeed::High,
            work_per_thread: 40_000,
            bursts: 3,
            seed: 42,
        },
    );
    let fcfs = simulate_baseline(&lib, &workload);
    let mt = simulate_multithreaded(&lib, &workload, MtConfig::default(), &[], &Tracer::off())
        .expect("simulates");
    println!(
        "\n4 threads, 87.5% CGRA need: FCFS makespan {} vs multithreaded {} ({:+.1}%)",
        fcfs.makespan,
        mt.makespan,
        improvement_percent(fcfs.makespan, mt.makespan)
    );
    println!(
        "  {} shrink / {} expand transformations, zero-stall: {}",
        mt.shrinks,
        mt.expands,
        mt.stall_cycles == 0
    );
}
