//! Pre-compiled kernel profiles — what the OS knows about each kernel.
//!
//! Compilation happens once, offline (§V: "threads are to be compiled
//! independently of each other"); at runtime the OS only consults the
//! profile: the baseline II, the paging-constrained II, the number of
//! pages the schedule actually occupies, and the transformed II for every
//! page budget on the halving chain. The profiles are produced by
//! `cgra_bench::compile`; this module only holds and queries them.

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

    #[test]
    fn halving_chains() {
        assert_eq!(halving_chain(16), vec![16, 8, 4, 2, 1]);
        assert_eq!(halving_chain(9), vec![9, 4, 2, 1]);
        assert_eq!(halving_chain(4), vec![4, 2, 1]);
        assert_eq!(halving_chain(1), vec![1]);
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
}
