//! Re-expansion after repair: undo a [`DegradedPlan`] once pages heal.
//!
//! A transient fault shrinks a thread onto the surviving run of its
//! region ([`transform_degraded`]); when the dead pages are repaired and
//! their quarantine windows elapse, the supervision policy re-expands
//! the thread. PageMaster is one transformation used in both directions,
//! so the re-expansion is the *same* remap: a [`DegradedPlan`] built by
//! [`transform_degraded`] against the healed map with the full source
//! page count as its budget — at full recovery, the thread's original
//! full-ring schedule. On top of that remap, a [`RecoveryPlan`] carries
//! the bookkeeping the analyzer needs to prove the recovery legal —
//!
//! * the remap itself, whose backing pages may not still be dead or
//!   mid-repair (`cgra-analyze` code **A310**),
//! * when each repaired page was repaired vs. when the plan activates
//!   it (the quarantine window must be respected — **A311**),
//! * how many kernel iterations were completed before the fault and at
//!   which iteration the recovered schedule resumes (the round trip
//!   must lose nothing — **A312**).

use crate::degrade::{transform_degraded, DegradedPlan};
use crate::paged::PagedSchedule;
use crate::transform::TransformError;
use cgra_arch::FaultMap;
use serde::{Deserialize, Serialize};

/// One page that came back from a transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairedPage {
    /// The physical page index.
    pub page: u16,
    /// Cycle at which the repair committed (the page re-entered the
    /// allocator's free pool).
    pub repaired_at: u64,
    /// Cycle at which the recovery plan first places work on the page.
    pub activated_at: u64,
}

/// The undo of a [`DegradedPlan`]: a schedule re-expanded onto the
/// recovered page region, plus the repair bookkeeping.
///
/// `remap` is an ordinary degraded plan over the healed map — at full
/// recovery `remap.plan.m ==` the source schedule's `num_pages`, i.e. the
/// thread's original full-ring schedule. Its `dead_pages` count a page
/// still mid-repair as dead ([`FaultMap::dead_pages`] is every unusable
/// page).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// The re-expanded remap onto the recovered columns.
    pub remap: DegradedPlan,
    /// Pages that were repaired to make this expansion possible, with
    /// their repair/activation cycles.
    pub repaired: Vec<RepairedPage>,
    /// The quarantine window (cycles) each repaired page must sit out
    /// after its repair before the plan may activate it.
    pub quarantine: u64,
    /// Kernel iterations the thread had completed (degraded or not)
    /// when the recovery plan was cut over.
    pub completed_iterations: u64,
    /// Iteration index at which the recovered schedule resumes. Equal
    /// to `completed_iterations` when the round trip loses nothing.
    pub resume_iteration: u64,
}

impl RecoveryPlan {
    /// Whether the thread is back to the full ring of its source
    /// schedule (`m` recovered columns out of `m` original pages).
    pub fn is_full_ring(&self, p: &PagedSchedule) -> bool {
        self.remap.plan.m == p.num_pages
    }

    /// Iterations lost across the shrink → repair → expand round trip
    /// (zero for a correct recovery).
    pub fn iterations_lost(&self) -> u64 {
        self.completed_iterations.abs_diff(self.resume_iteration)
    }
}

/// Plan the re-expansion of `p` onto the recovered region of `faults`,
/// undoing `degraded`.
///
/// `faults` describes the thread's page region *after* repair (the
/// pages listed in `repaired` must be usable again); `repaired` carries
/// the repair/activation cycles the analyzer audits against
/// `quarantine`. `completed_iterations` is the thread's progress at
/// cutover; the returned plan resumes exactly there.
///
/// The remap is [`transform_degraded`] over the healed map with the
/// source schedule's page count as budget — if every page healed, the
/// result is the thread's original full-ring schedule.
///
/// # Errors
///
/// Whatever [`transform_degraded`] reports on the healed map.
pub fn plan_recovery(
    p: &PagedSchedule,
    degraded: &DegradedPlan,
    faults: &FaultMap,
    repaired: &[RepairedPage],
    quarantine: u64,
    completed_iterations: u64,
) -> Result<RecoveryPlan, TransformError> {
    let remap = transform_degraded(p, faults, p.num_pages)?;
    debug_assert!(
        remap.plan.m >= degraded.plan.m,
        "recovery must not shrink below the degraded plan"
    );
    Ok(RecoveryPlan {
        remap,
        repaired: repaired.to_vec(),
        quarantine,
        completed_iterations,
        resume_iteration: completed_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{transform, Strategy};
    use cgra_arch::PageHealth;

    // Like `degrade.rs`: legality auditing lives in the analyzer's
    // fixtures and `tests/recovery_audit.rs` (dev-dependency cycle);
    // unit tests here check structure.

    fn shrink_then_heal(pages: u16, dead: u16) -> (PagedSchedule, DegradedPlan, FaultMap) {
        let p = PagedSchedule::synthetic_canonical(pages, 2, false);
        let mut faults = FaultMap::new(pages);
        faults.mark_page(dead, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, pages).unwrap();
        // The page repairs: Dead → Repairing → Healthy.
        faults.begin_repair(dead);
        faults.complete_repair(dead);
        (p, d, faults)
    }

    #[test]
    fn full_heal_restores_the_full_ring() {
        let (p, d, faults) = shrink_then_heal(8, 2);
        assert_eq!(d.plan.m, 5, "shrunk onto the right-side run");
        let repaired = [RepairedPage {
            page: 2,
            repaired_at: 1_000,
            activated_at: 1_100,
        }];
        let r = plan_recovery(&p, &d, &faults, &repaired, 100, 42).unwrap();
        assert!(r.is_full_ring(&p));
        assert_eq!(r.remap.plan.m, 8);
        assert_eq!(r.remap.column_pages, (0..8).collect::<Vec<u16>>());
        assert_eq!(r.iterations_lost(), 0);
        assert_eq!(r.resume_iteration, 42);
        assert!(r.remap.dead_pages.is_empty());
    }

    #[test]
    fn partial_heal_grows_to_the_surviving_run() {
        let p = PagedSchedule::synthetic_canonical(8, 2, false);
        let mut faults = FaultMap::new(8);
        faults.mark_page(1, PageHealth::Dead);
        faults.mark_page(6, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, 8).unwrap();
        assert_eq!(d.plan.m, 4, "run [2,6) wins");
        // Only page 6 heals; page 1 stays dead.
        faults.begin_repair(6);
        faults.complete_repair(6);
        let repaired = [RepairedPage {
            page: 6,
            repaired_at: 500,
            activated_at: 700,
        }];
        let r = plan_recovery(&p, &d, &faults, &repaired, 200, 10).unwrap();
        assert_eq!(r.remap.plan.m, 6, "run [2,8) after the heal");
        assert_eq!(r.remap.column_pages, vec![2, 3, 4, 5, 6, 7]);
        assert!(!r.is_full_ring(&p));
        assert_eq!(r.remap.dead_pages, vec![1]);
    }

    #[test]
    fn mid_repair_pages_are_not_reused() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        faults.mark_page(3, PageHealth::Dead);
        let d = transform_degraded(&p, &faults, 4).unwrap();
        // Repair began but the quarantine has not elapsed: the page is
        // Repairing, still unusable.
        faults.begin_repair(3);
        let r = plan_recovery(&p, &d, &faults, &[], 100, 5).unwrap();
        assert_eq!(r.remap.plan.m, 3, "repairing page must not be re-placed");
        assert_eq!(r.remap.column_pages, vec![0, 1, 2]);
        assert_eq!(r.remap.dead_pages, vec![3], "mid-repair counts as dead");
    }

    #[test]
    fn nothing_healed_still_errors_when_all_dead() {
        let p = PagedSchedule::synthetic_canonical(4, 1, false);
        let mut faults = FaultMap::new(4);
        for page in 0..4 {
            faults.mark_page(page, PageHealth::Dead);
        }
        let d = DegradedPlan {
            plan: transform(&p, 1, Strategy::Auto).unwrap(),
            column_pages: vec![0],
            dead_pages: vec![],
            degraded_pages: vec![],
        };
        assert!(matches!(
            plan_recovery(&p, &d, &faults, &[], 0, 0),
            Err(TransformError::NoHealthyPages)
        ));
    }

    #[test]
    fn real_kernel_round_trips_through_shrink_and_recovery() {
        let cgra = cgra_arch::CgraConfig::square(4);
        let k = cgra_dfg::kernels::fir();
        let r = cgra_mapper::map_constrained(&k, &cgra, &cgra_mapper::MapOptions::default())
            .expect("fir maps on 4x4");
        let ps = PagedSchedule::from_mapping(&r, &cgra).expect("paged extraction");
        let mut faults = FaultMap::new(ps.num_pages);
        faults.mark_page(0, PageHealth::Dead);
        let d = transform_degraded(&ps, &faults, ps.num_pages).unwrap();
        assert_eq!(d.plan.m, ps.num_pages - 1);
        faults.begin_repair(0);
        faults.complete_repair(0);
        let repaired = [RepairedPage {
            page: 0,
            repaired_at: 2_000,
            activated_at: 2_064,
        }];
        let rec = plan_recovery(&ps, &d, &faults, &repaired, 64, 77).unwrap();
        assert!(rec.is_full_ring(&ps));
        assert_eq!(rec.iterations_lost(), 0);
        assert!(
            crate::validate::validate_plan(&ps, &rec.remap.plan).is_empty(),
            "recovered full-ring plan is legal"
        );
    }
}
