//! One kernel's offline compile, with every artifact it produces.
//!
//! Compilation happens once, offline (§V: "threads are to be compiled
//! independently of each other"); at runtime the OS only consults the
//! resulting [`KernelProfile`]. [`compile`] is the one place the
//! pipeline is chained — baseline mapping, ring-constrained mapping,
//! paged extraction + trim, then the PageMaster/block transform at every
//! halving-chain budget below the footprint — and [`Compiled`] keeps
//! each intermediate artifact beside the profile, so the linter, the
//! cache and the debug audits all look at the same objects.
//! [`Compiled::analyze`] is the one walk of the analyzer over them.

use cgra_analyze::{analyze_mapping, analyze_paged, analyze_plan, analyze_profile, Report};
use cgra_arch::CgraConfig;
use cgra_core::transform::{transform_traced, ShrinkPlan, Strategy};
use cgra_core::PagedSchedule;
use cgra_dfg::Dfg;
use cgra_mapper::{map_baseline_traced, map_constrained_traced, MapError, MapOptions, MapResult};
use cgra_obs::Tracer;
use cgra_sim::{halving_chain, KernelProfile};

/// Every artifact of one kernel's compile for one fabric.
#[derive(Debug)]
pub struct Compiled {
    /// The unconstrained mapping (the single-threaded baseline's rate).
    pub base: MapResult,
    /// The paging-constrained mapping (the multithreaded full-array rate).
    pub cons: MapResult,
    /// The page-level schedule extracted from `cons`, trimmed to the
    /// pages it occupies.
    pub paged: PagedSchedule,
    /// `(M, plan)` for every halving-chain budget below the footprint,
    /// largest `M` first.
    pub plans: Vec<(u16, ShrinkPlan)>,
    /// What the runtime reads: the II at every halving-chain budget.
    pub profile: KernelProfile,
}

/// Compile `dfg` for `cgra`: both mapper searches, then every
/// halving-chain transform, emitted to `tracer` in that order (pass
/// [`Tracer::off`] for an untraced compile; extraction is untraced).
/// Extraction and transform failures surface as
/// [`MapError::Unmappable`].
///
/// Debug builds audit every artifact with [`Compiled::analyze`] and
/// panic on an error diagnostic; release builds trust the producing
/// code.
pub fn compile(
    dfg: &Dfg,
    cgra: &CgraConfig,
    opts: &MapOptions,
    tracer: &Tracer,
) -> Result<Compiled, MapError> {
    let base = map_baseline_traced(dfg, cgra, opts, tracer)?;
    let cons = map_constrained_traced(dfg, cgra, opts, tracer)?;
    let paged = PagedSchedule::from_mapping(&cons, cgra)
        .map_err(|e| MapError::Unmappable {
            reason: e.to_string(),
        })?
        .trimmed();
    let used = paged.num_pages;
    let mut plans = Vec::new();
    let mut ii_by_pages = Vec::new();
    for m in halving_chain(cgra.layout().num_pages() as u16) {
        let ii_q = if m >= used {
            // §VII-B.1: schedules not using the entire CGRA need no
            // transformation for budgets covering their footprint.
            cons.ii()
        } else {
            let plan = transform_traced(&paged, m, Strategy::Auto, tracer).map_err(|e| {
                MapError::Unmappable {
                    reason: format!("transform to {m} pages: {e}"),
                }
            })?;
            let ii_q = plan.ii_q_ceil();
            plans.push((m, plan));
            ii_q
        };
        ii_by_pages.push((m, ii_q));
    }
    let profile = KernelProfile {
        name: dfg.name.clone(),
        ii_baseline: base.ii(),
        ii_constrained: cons.ii(),
        used_pages: used,
        ii_by_pages,
    };
    let compiled = Compiled {
        base,
        cons,
        paged,
        plans,
        profile,
    };
    #[cfg(debug_assertions)]
    for (artifact, report) in compiled.analyze(cgra) {
        debug_assert!(
            !report.has_errors(),
            "{} {artifact} failed analysis:\n{}",
            dfg.name,
            report.render()
        );
    }
    Ok(compiled)
}

impl Compiled {
    /// Analyze every artifact against `cgra` (the fabric it was compiled
    /// for), labelled as `cgra-lint` prints them: `baseline-mapping`,
    /// `constrained-mapping`, `paged-schedule`, `plan-m{M}` per shrink
    /// plan, then `profile`.
    pub fn analyze(&self, cgra: &CgraConfig) -> Vec<(String, Report)> {
        let mapping = |r: &MapResult| analyze_mapping(&r.mdfg, cgra, &r.mapping, r.mode);
        let p = &self.profile;
        let mut out = vec![
            ("baseline-mapping".to_string(), mapping(&self.base)),
            ("constrained-mapping".to_string(), mapping(&self.cons)),
            (
                "paged-schedule".to_string(),
                analyze_paged(&self.paged, cgra.rf().size()),
            ),
        ];
        for (m, plan) in &self.plans {
            out.push((format!("plan-m{m}"), analyze_plan(&self.paged, plan)));
        }
        out.push((
            "profile".to_string(),
            analyze_profile(
                &p.name,
                p.ii_baseline,
                p.ii_constrained,
                p.used_pages,
                &p.ii_by_pages,
                cgra.layout().num_pages() as u16,
            ),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_compiles_for_mpeg2_on_4x4() {
        let cgra = CgraConfig::square(4);
        let p = compile(
            &cgra_dfg::kernels::mpeg2(),
            &cgra,
            &MapOptions::default(),
            &Tracer::off(),
        )
        .expect("compiles")
        .profile;
        assert!(p.ii_constrained >= p.ii_baseline);
        assert!(p.used_pages >= 1 && p.used_pages <= 4);
        // Rates weakly degrade as pages shrink.
        let iis: Vec<u32> = p.ii_by_pages.iter().map(|&(_, ii)| ii).collect();
        for w in iis.windows(2) {
            assert!(w[1] >= w[0], "rates not monotone: {iis:?}");
        }
        // One page executes the used pages sequentially.
        let one = p.ii_at(1);
        assert!(one >= p.ii_constrained * p.used_pages as u32 / 2);
    }
}
