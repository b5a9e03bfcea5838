//! Pre-compiled kernel profiles — what the OS knows about each kernel.
//!
//! Compilation happens once, offline (§V: "threads are to be compiled
//! independently of each other"); at runtime the OS only consults the
//! profile: the baseline II, the paging-constrained II, the number of
//! pages the schedule actually occupies, and the transformed II for every
//! page budget on the halving chain.

use cgra_arch::CgraConfig;
use cgra_core::transform::{transform_traced, Strategy};
use cgra_core::PagedSchedule;
use cgra_mapper::{map_baseline_traced, map_constrained_traced, MapError, MapOptions};
use cgra_obs::Tracer;
use serde::{Deserialize, Serialize};

/// The page budgets the allocator hands out: `N, N/2, N/4, …, 1`
/// (integer halving, §VII-B.1's policy).
pub fn halving_chain(n: u16) -> Vec<u16> {
    let mut chain = Vec::new();
    let mut m = n;
    while m >= 1 {
        chain.push(m);
        if m == 1 {
            break;
        }
        m /= 2;
    }
    chain
}

/// Everything the runtime needs to know about one compiled kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// II of the *unconstrained* mapping (the single-threaded baseline
    /// system runs at this rate).
    pub ii_baseline: u32,
    /// II of the paging-constrained mapping (full-array rate in the
    /// multithreaded system).
    pub ii_constrained: u32,
    /// Pages the constrained schedule actually occupies.
    pub used_pages: u16,
    /// `(M, II_q)` for every budget on the halving chain, from the actual
    /// PageMaster/block transform (not the analytic formula).
    pub ii_by_pages: Vec<(u16, u32)>,
}

impl KernelProfile {
    /// Compile a kernel for `cgra` and derive its profile, with both
    /// mapper searches and every halving-chain transform emitted to
    /// `tracer` (pass [`Tracer::off`] for an untraced compile).
    pub fn compile(
        dfg: &cgra_dfg::Dfg,
        cgra: &CgraConfig,
        opts: &MapOptions,
        tracer: &Tracer,
    ) -> Result<Self, MapError> {
        let base = map_baseline_traced(dfg, cgra, opts, tracer)?;
        let cons = map_constrained_traced(dfg, cgra, opts, tracer)?;
        // Debug builds re-audit every artifact with the independent
        // static analyzer; release builds trust the producing code.
        #[cfg(debug_assertions)]
        for r in [&base, &cons] {
            let rep = cgra_analyze::analyze_mapping(&r.mdfg, cgra, &r.mapping, r.mode);
            debug_assert!(
                !rep.has_errors(),
                "{} mapping ({:?}) failed analysis:\n{}",
                dfg.name,
                r.mode,
                rep.render()
            );
        }
        let paged = PagedSchedule::from_mapping(&cons, cgra)
            .map_err(|e| MapError::Unmappable {
                reason: e.to_string(),
            })?
            .trimmed();
        #[cfg(debug_assertions)]
        {
            let rep = cgra_analyze::analyze_paged(&paged, cgra.rf().size());
            debug_assert!(
                !rep.has_errors(),
                "{} paged schedule failed analysis:\n{}",
                dfg.name,
                rep.render()
            );
        }
        let used = paged.num_pages;
        let n = cgra.layout().num_pages() as u16;
        let mut ii_by_pages = Vec::new();
        for m in halving_chain(n) {
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
                #[cfg(debug_assertions)]
                {
                    let rep = cgra_analyze::analyze_plan(&paged, &plan);
                    debug_assert!(
                        !rep.has_errors(),
                        "{} plan at M={m} failed analysis:\n{}",
                        dfg.name,
                        rep.render()
                    );
                }
                plan.ii_q_ceil()
            };
            ii_by_pages.push((m, ii_q));
        }
        #[cfg(debug_assertions)]
        {
            let rep = cgra_analyze::analyze_profile(
                &dfg.name,
                base.ii(),
                cons.ii(),
                used,
                &ii_by_pages,
                n,
            );
            debug_assert!(
                !rep.has_errors(),
                "{} profile failed analysis:\n{}",
                dfg.name,
                rep.render()
            );
        }
        Ok(KernelProfile {
            name: dfg.name.clone(),
            ii_baseline: base.ii(),
            ii_constrained: cons.ii(),
            used_pages: used,
            ii_by_pages,
        })
    }

    /// The smallest halving-chain budget that covers the kernel's
    /// footprint — what the thread asks the allocator for (`n` when no
    /// budget does). Walks [`halving_chain`] down without building it.
    pub fn wanted_pages(&self, n: u16) -> u16 {
        let mut m = n;
        while m > 1 && m / 2 >= self.used_pages {
            m /= 2;
        }
        if m >= self.used_pages {
            m
        } else {
            n
        }
    }

    /// Cycles per kernel iteration with `m` pages allocated, or `None`
    /// if `m` is off the halving chain the profile was built for. The
    /// simulator's fault paths use this to report a typed
    /// [`SimError`](crate::error::SimError) instead of panicking.
    pub fn try_ii_at(&self, m: u16) -> Option<u32> {
        self.ii_by_pages
            .iter()
            .find(|&&(pm, _)| pm == m)
            .map(|&(_, ii)| ii)
    }

    /// Cycles per kernel iteration with `m` pages allocated.
    ///
    /// # Panics
    /// Panics if `m` is not on the halving chain the profile was built
    /// for (use [`try_ii_at`](Self::try_ii_at) on fallible paths).
    pub fn ii_at(&self, m: u16) -> u32 {
        self.try_ii_at(m)
            .unwrap_or_else(|| panic!("{}: no transform cached for M={m}", self.name))
    }
}

/// The compiled library: one profile per benchmark kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelLibrary {
    /// Profiles in `cgra_dfg::kernels::NAMES` order.
    pub profiles: Vec<KernelProfile>,
    /// Pages in the fabric the library was compiled for.
    pub num_pages: u16,
}

impl KernelLibrary {
    /// Compile all 11 benchmark kernels for a fabric, with every
    /// kernel's compilation emitted to `tracer` (one `MapBegin`/`MapEnd`
    /// segment per mapper search, in `cgra_dfg::kernels::NAMES` order).
    pub fn compile_benchmarks(
        cgra: &CgraConfig,
        opts: &MapOptions,
        tracer: &Tracer,
    ) -> Result<Self, MapError> {
        let profiles = cgra_dfg::kernels::all()
            .iter()
            .map(|k| KernelProfile::compile(k, cgra, opts, tracer))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(KernelLibrary {
            profiles,
            num_pages: cgra.layout().num_pages() as u16,
        })
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile by index.
    pub fn profile(&self, kernel: usize) -> &KernelProfile {
        &self.profiles[kernel]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel's profile on the 4x4 with 2x2 pages.
    fn profile_4x4(dfg: &cgra_dfg::Dfg) -> KernelProfile {
        let cgra = CgraConfig::square(4);
        KernelProfile::compile(dfg, &cgra, &MapOptions::default(), &Tracer::off())
            .expect("compiles")
    }

    #[test]
    fn halving_chains() {
        assert_eq!(halving_chain(16), vec![16, 8, 4, 2, 1]);
        assert_eq!(halving_chain(9), vec![9, 4, 2, 1]);
        assert_eq!(halving_chain(4), vec![4, 2, 1]);
        assert_eq!(halving_chain(1), vec![1]);
    }

    #[test]
    fn profile_compiles_for_mpeg2_on_4x4() {
        let p = profile_4x4(&cgra_dfg::kernels::mpeg2());
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

    #[test]
    fn wanted_pages_is_the_smallest_covering_chain_budget() {
        for n in 0..=40u16 {
            for used in 0..=42u16 {
                let p = KernelProfile {
                    name: "k".to_string(),
                    ii_baseline: 1,
                    ii_constrained: 1,
                    used_pages: used,
                    ii_by_pages: Vec::new(),
                };
                let expected = halving_chain(n)
                    .into_iter()
                    .filter(|&m| m >= used)
                    .min()
                    .unwrap_or(n);
                assert_eq!(p.wanted_pages(n), expected, "n={n} used={used}");
            }
        }
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
