//! Thread workload generation (§VII-B.1).
//!
//! "Each thread is randomly and independently generated, where portions
//! of the thread are either assigned to the processor or the CGRA. For
//! portions assigned to the CGRA, the schedule that is ran is randomly
//! chosen so as to not create bias towards any one kernel."

use crate::kernel_lib::KernelLibrary;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// The fraction of a thread's work accelerated on the CGRA (§VII-B.1's
/// three "CGRA need" operating points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CgraNeed {
    /// 50 % of the thread's nominal cycles on the CGRA.
    Low,
    /// 75 %.
    Medium,
    /// 87.5 % — chosen so processor-side effects are negligible by
    /// Amdahl's argument.
    High,
}

impl CgraNeed {
    /// The fraction as a number.
    pub fn fraction(self) -> f64 {
        match self {
            CgraNeed::Low => 0.50,
            CgraNeed::Medium => 0.75,
            CgraNeed::High => 0.875,
        }
    }

    /// All three operating points, in the paper's order.
    pub const ALL: [CgraNeed; 3] = [CgraNeed::Low, CgraNeed::Medium, CgraNeed::High];

    /// Label used in tables ("50%", "75%", "87.5%").
    pub fn label(self) -> &'static str {
        match self {
            CgraNeed::Low => "50%",
            CgraNeed::Medium => "75%",
            CgraNeed::High => "87.5%",
        }
    }
}

/// One phase of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segment {
    /// Run on the host processor for this many cycles.
    Cpu(u64),
    /// Run `iterations` of kernel `kernel` on the CGRA.
    Cgra {
        /// Index into the kernel library.
        kernel: usize,
        /// Loop iterations to execute.
        iterations: u64,
    },
}

/// A generated thread: an alternating sequence of CPU and CGRA segments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadSpec {
    /// The phases, executed in order.
    pub segments: Vec<Segment>,
}

impl ThreadSpec {
    /// Nominal cycles of CGRA work (at the constrained full-array rate)
    /// given a library — used to calibrate the need fraction.
    pub fn nominal_cgra_cycles(&self, lib: &KernelLibrary) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Cgra { kernel, iterations } => {
                    *iterations * lib.profile(*kernel).ii_constrained as u64
                }
                Segment::Cpu(_) => 0,
            })
            .sum()
    }

    /// Total CPU cycles.
    pub fn cpu_cycles(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Cpu(c) => *c,
                _ => 0,
            })
            .sum()
    }
}

/// Workload generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    /// Threads to generate.
    pub threads: usize,
    /// CGRA need operating point.
    pub need: CgraNeed,
    /// Nominal total work per thread, in cycles (CPU + CGRA at the
    /// constrained full-array rate).
    pub work_per_thread: u64,
    /// CGRA bursts per thread (segments alternate CPU / CGRA).
    pub bursts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            threads: 4,
            need: CgraNeed::Medium,
            work_per_thread: 100_000,
            bursts: 4,
            seed: 1,
        }
    }
}

/// Generate a multithreaded workload against a compiled kernel library.
///
/// Each thread gets `bursts` CGRA segments with randomly chosen kernels,
/// interleaved with CPU segments; segment sizes are jittered ±50 % but the
/// thread's total CGRA-cycle share matches `need.fraction()` of its work.
pub fn generate(lib: &KernelLibrary, params: &WorkloadParams) -> Vec<ThreadSpec> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut threads = Vec::with_capacity(params.threads);
    for _ in 0..params.threads {
        let cgra_budget = (params.work_per_thread as f64 * params.need.fraction()) as u64;
        let cpu_budget = params.work_per_thread - cgra_budget;
        let mut segments = Vec::with_capacity(params.bursts * 2);
        // Split each budget into `bursts` jittered chunks.
        let chunks = |total: u64, parts: usize, rng: &mut StdRng| -> Vec<u64> {
            let base = total / parts as u64;
            let mut v: Vec<u64> = (0..parts)
                .map(|_| {
                    let jitter = rng.gen_range(0.5..1.5);
                    ((base as f64) * jitter) as u64
                })
                .collect();
            // Repair the sum to hit the budget exactly.
            let sum: u64 = v.iter().sum();
            if sum > 0 {
                let last = v.len() - 1;
                v[last] = v[last].saturating_add(total.saturating_sub(sum));
                if sum > total {
                    v[last] = v[last].saturating_sub(sum - total);
                }
            }
            v
        };
        let cpu_chunks = chunks(cpu_budget, params.bursts, &mut rng);
        let cgra_chunks = chunks(cgra_budget, params.bursts, &mut rng);
        for (cpu, cgra) in cpu_chunks.into_iter().zip(cgra_chunks) {
            if cpu > 0 {
                segments.push(Segment::Cpu(cpu));
            }
            let kernel = rng.gen_range(0..lib.len());
            let ii = lib.profile(kernel).ii_constrained as u64;
            let iterations = (cgra / ii).max(1);
            segments.push(Segment::Cgra { kernel, iterations });
        }
        threads.push(ThreadSpec { segments });
    }
    threads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn need_fractions() {
        assert_eq!(CgraNeed::Low.fraction(), 0.5);
        assert_eq!(CgraNeed::Medium.fraction(), 0.75);
        assert_eq!(CgraNeed::High.fraction(), 0.875);
    }
}
