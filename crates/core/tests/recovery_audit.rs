//! Recovery legality, re-derived by the independent analyzer.
//!
//! The shrink → repair → re-expand round trip promised by the
//! fail-recover fabric: a real kernel's schedule is degraded around a
//! dead page, the page heals (Dead → Repairing → Healthy), and
//! [`plan_recovery`] upgrades the degraded plan back to the full-ring
//! schedule. The `A31x` analyzer codes audit what the unit tests cannot
//! prove from structure alone — repaired-page reuse legality (A310),
//! the quarantine window (A311), and iteration conservation across the
//! round trip (A312). (An integration test because the analyzer is a
//! dev-dependency cycle: it links this crate's library instance.)

use cgra_arch::{CgraConfig, FaultMap, PageHealth};
use cgra_core::{plan_recovery, transform_degraded, PagedSchedule, RepairedPage};
use cgra_mapper::{map_constrained, MapOptions};

const QUARANTINE: u64 = 64;

/// Kill `dead_page`, shrink around it, repair it, re-expand, and audit
/// the whole round trip for one kernel. Returns nothing; panics with
/// the analyzer's rendering on any violation.
fn round_trip(kernel: cgra_dfg::Dfg, dead_page: u16, completed: u64) {
    let cgra = CgraConfig::square(4);
    let name = kernel.name.clone();
    let r = map_constrained(&kernel, &cgra, &MapOptions::default())
        .unwrap_or_else(|e| panic!("{name} maps on 4x4: {e:?}"));
    let ps = PagedSchedule::from_mapping(&r, &cgra).expect("paged extraction");
    assert!(
        dead_page < ps.num_pages,
        "{name}: fixture page {dead_page} outside {} pages",
        ps.num_pages
    );

    // Strike: the page dies, the thread shrinks onto the survivors.
    let mut faults = FaultMap::new(ps.num_pages);
    faults.mark_page(dead_page, PageHealth::Dead);
    let d = transform_degraded(&ps, &faults, ps.num_pages)
        .unwrap_or_else(|e| panic!("{name} degrades: {e:?}"));
    assert!(d.plan.m < ps.num_pages, "{name}: must shrink");
    let degrade_report = cgra_analyze::analyze_degraded(&ps, &d, &faults);
    assert!(!degrade_report.has_errors(), "{}", degrade_report.render());

    // Repair: Dead → Repairing → Healthy, quarantine respected.
    faults.begin_repair(dead_page);
    faults.complete_repair(dead_page);
    let repaired = [RepairedPage {
        page: dead_page,
        repaired_at: 10_000,
        activated_at: 10_000 + QUARANTINE,
    }];
    let rec = plan_recovery(&ps, &d, &faults, &repaired, QUARANTINE, completed)
        .unwrap_or_else(|e| panic!("{name} recovers: {e:?}"));

    // Back on the original page count, zero iterations lost.
    assert!(
        rec.is_full_ring(&ps),
        "{name}: recovered {} of {} pages",
        rec.remap.plan.m,
        ps.num_pages
    );
    assert_eq!(rec.iterations_lost(), 0, "{name}: iterations lost");
    assert_eq!(rec.resume_iteration, completed);

    // The independent analyzer agrees: A310/A311/A312 all pass.
    let rep = cgra_analyze::analyze_recovery(&ps, &rec, &faults);
    assert!(rep.is_clean(), "{name}:\n{}", rep.render());
}

#[test]
fn fir_round_trips_clean() {
    round_trip(cgra_dfg::kernels::fir(), 0, 137);
}

#[test]
fn sobel_round_trips_clean() {
    round_trip(cgra_dfg::kernels::sobel(), 1, 52);
}

#[test]
fn yuv2rgb_round_trips_clean() {
    round_trip(cgra_dfg::kernels::yuv2rgb(), 2, 9_999);
}

#[test]
fn mid_repair_reexpansion_is_flagged_a310() {
    // Cutting the recovery over while the page is still Repairing (the
    // quarantine has not elapsed) must be caught by the analyzer.
    let cgra = CgraConfig::square(4);
    let r = map_constrained(&cgra_dfg::kernels::fir(), &cgra, &MapOptions::default())
        .expect("fir maps on 4x4");
    let ps = PagedSchedule::from_mapping(&r, &cgra).expect("paged extraction");
    let mut faults = FaultMap::new(ps.num_pages);
    faults.mark_page(0, PageHealth::Dead);
    let d = transform_degraded(&ps, &faults, ps.num_pages).unwrap();
    // Heal fully to *build* the plan, then regress the map to Repairing
    // to model a premature cutover.
    let mut healed = faults.clone();
    healed.begin_repair(0);
    healed.complete_repair(0);
    let rec = plan_recovery(&ps, &d, &healed, &[], QUARANTINE, 5).unwrap();
    let mut mid_repair = FaultMap::new(ps.num_pages);
    mid_repair.mark_page(0, PageHealth::Dead);
    mid_repair.begin_repair(0);
    let rep = cgra_analyze::analyze_recovery(&ps, &rec, &mid_repair);
    assert!(
        rep.codes()
            .contains(&cgra_analyze::Code::A310RecoveryOnUnrepairedPage),
        "{}",
        rep.render()
    );
}
