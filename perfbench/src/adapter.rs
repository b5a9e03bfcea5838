//! Every call the benchmark makes into the program, in one place.
//!
//! Only layer functions are used here — the DFG generators, the two
//! mappers, paged extraction and the transform, the analyzer, the
//! simulators, the trace oracle, `MapCache` and the sweep `Engine` —
//! never the figure drivers or `LibCache`. Each call is wrapped in a
//! span named after its layer, so an API change in the program touches
//! this file only.

use crate::trace::Ctx;
use cgra_arch::{CgraConfig, FaultSpec};
use cgra_bench::engine::Engine;
use cgra_bench::mapcache::{CacheStats, MapCache};
use cgra_core::transform::{transform_traced, ShrinkPlan, Strategy};
use cgra_core::PagedSchedule;
use cgra_dfg::random::{random_dfg, RandomDfgParams};
use cgra_dfg::Dfg;
use cgra_mapper::{
    kernel_mii, map_baseline_traced, map_constrained_traced, validate_mapping, MapOptions,
    MapResult,
};
use cgra_obs::{OracleReport, TraceEvent, Tracer};
use cgra_sim::{
    generate, halving_chain, simulate_baseline, simulate_multithreaded_faulty_traced, CgraNeed,
    KernelLibrary, KernelProfile, MtConfig, SimReport, WorkloadParams,
};
use std::path::Path;
use std::sync::Arc;

pub use cgra_bench::engine::point_seed;

/// Workers of every engine the benchmark runs.
pub const WORKERS: usize = 2;

pub fn engine() -> Engine {
    Engine::with_jobs(WORKERS)
}

/// The nine `(dim, page size)` fabrics of the paper's grid, in grid
/// order.
pub fn grid() -> Vec<(u16, usize)> {
    cgra_bench::GRID
        .iter()
        .flat_map(|&(dim, sizes)| sizes.iter().map(move |&s| (dim, s)))
        .collect()
}

pub fn fabric(dim: u16, page_size: usize) -> CgraConfig {
    CgraConfig::square(dim)
        .with_page_size(page_size)
        .unwrap_or_else(|e| panic!("{dim}x{dim} page {page_size}: {e}"))
}

/// The 11 benchmark kernels of the paper.
pub const PAPER_KERNELS: usize = cgra_dfg::kernels::NAMES.len();

pub fn paper_kernels() -> Vec<Dfg> {
    cgra_dfg::kernels::all()
}

/// One seeded random DFG: `layers` layers of 2–5 ops, with
/// `recurrences` recurrence cycles of carried distance `distance`.
pub fn random_kernel(seed: u64, layers: usize, recurrences: usize, distance: u32) -> Dfg {
    random_dfg(
        seed,
        RandomDfgParams {
            layers,
            width: (2, 5),
            recurrences,
            rec_distance: distance,
            ..RandomDfgParams::default()
        },
    )
}

pub fn mii(dfg: &Dfg, cgra: &CgraConfig) -> u32 {
    kernel_mii(dfg, cgra)
}

/// An operation the program refused, by layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Refusal {
    Map(String),
    Extract(String),
    Transform(String),
    Sim(String),
}

/// Every artifact of one kernel compiled for one fabric.
pub struct Compiled {
    pub base: MapResult,
    pub cons: MapResult,
    pub paged: PagedSchedule,
    /// `(M, plan)` for each halving-chain budget below the footprint.
    pub plans: Vec<(u16, ShrinkPlan)>,
    pub profile: KernelProfile,
}

impl Compiled {
    /// Whether two compilations produced identical artifacts.
    pub fn same_as(&self, o: &Compiled) -> bool {
        let same_map = |a: &MapResult, b: &MapResult| {
            a.mode == b.mode && a.mapping == b.mapping && a.mdfg.dfg == b.mdfg.dfg
        };
        same_map(&self.base, &o.base)
            && same_map(&self.cons, &o.cons)
            && self.paged == o.paged
            && self.plans == o.plans
            && self.profile == o.profile
    }
}

/// Program operations attempted and refused, by layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Calls {
    pub baseline: u64,
    pub constrained: u64,
    pub mapper_failed: u64,
    pub extracts: u64,
    pub transforms: u64,
    pub core_failed: u64,
    pub sims: u64,
    pub sim_failed: u64,
}

impl Calls {
    pub fn add(&mut self, o: &Calls) {
        self.baseline += o.baseline;
        self.constrained += o.constrained;
        self.mapper_failed += o.mapper_failed;
        self.extracts += o.extracts;
        self.transforms += o.transforms;
        self.core_failed += o.core_failed;
        self.sims += o.sims;
        self.sim_failed += o.sim_failed;
    }

    pub fn attempted(&self) -> u64 {
        self.baseline + self.constrained + self.extracts + self.transforms + self.sims
    }

    pub fn failed(&self) -> u64 {
        self.mapper_failed + self.core_failed + self.sim_failed
    }
}

/// Compile `dfg` for `cgra` with no cache, through the same calls
/// `KernelProfile::compile` makes: both mappers, paged extraction and
/// trimming, and the transform for every halving-chain budget below the
/// schedule's footprint.
pub fn compile(
    dfg: &Dfg,
    cgra: &CgraConfig,
    ctx: Ctx<'_>,
    tracer: &Tracer,
) -> (Result<Compiled, Refusal>, Calls) {
    let opts = MapOptions::default();
    let mut calls = Calls::default();
    let result = (|| {
        let base = ctx.span("mapper.baseline", |_| {
            map_baseline_traced(dfg, cgra, &opts, tracer)
        });
        calls.baseline += 1;
        calls.mapper_failed += u64::from(base.is_err());
        let base = base.map_err(|e| Refusal::Map(e.to_string()))?;
        let cons = ctx.span("mapper.constrained", |_| {
            map_constrained_traced(dfg, cgra, &opts, tracer)
        });
        calls.constrained += 1;
        calls.mapper_failed += u64::from(cons.is_err());
        let cons = cons.map_err(|e| Refusal::Map(e.to_string()))?;
        let paged = ctx.span("core.extract", |_| {
            PagedSchedule::from_mapping(&cons, cgra).map(|p| p.trimmed())
        });
        calls.extracts += 1;
        calls.core_failed += u64::from(paged.is_err());
        let paged = paged.map_err(|e| Refusal::Extract(e.to_string()))?;
        let used = paged.num_pages;
        let mut plans = Vec::new();
        let mut ii_by_pages = Vec::new();
        for m in halving_chain(cgra.layout().num_pages() as u16) {
            if m >= used {
                ii_by_pages.push((m, cons.ii()));
                continue;
            }
            let plan = ctx.span("core.transform", |_| {
                transform_traced(&paged, m, Strategy::Auto, tracer)
            });
            calls.transforms += 1;
            calls.core_failed += u64::from(plan.is_err());
            let plan = plan.map_err(|e| Refusal::Transform(e.to_string()))?;
            ii_by_pages.push((m, plan.ii_q_ceil()));
            plans.push((m, plan));
        }
        let profile = KernelProfile {
            name: dfg.name.clone(),
            ii_baseline: base.ii(),
            ii_constrained: cons.ii(),
            used_pages: used,
            ii_by_pages,
        };
        Ok(Compiled {
            base,
            cons,
            paged,
            plans,
            profile,
        })
    })();
    (result, calls)
}

/// Re-check every artifact of `c` with the mapping validator and the
/// static analyzer. Returns `(artifacts checked, error diagnostics)`.
pub fn analyze(c: &Compiled, cgra: &CgraConfig, ctx: Ctx<'_>) -> (u64, u64) {
    ctx.span("analyze", |_| {
        let n = cgra.layout().num_pages() as u16;
        let mut errors = 0;
        for r in [&c.base, &c.cons] {
            errors += validate_mapping(&r.mdfg, cgra, &r.mapping, r.mode).len() as u64;
            let report = cgra_analyze::analyze_mapping(&r.mdfg, cgra, &r.mapping, r.mode);
            errors += error_count(&report);
        }
        errors += error_count(&cgra_analyze::analyze_paged(&c.paged, cgra.rf().size()));
        for (_, plan) in &c.plans {
            errors += error_count(&cgra_analyze::analyze_plan(&c.paged, plan));
        }
        let p = &c.profile;
        errors += error_count(&cgra_analyze::analyze_profile(
            &p.name,
            p.ii_baseline,
            p.ii_constrained,
            p.used_pages,
            &p.ii_by_pages,
            n,
        ));
        (2 + 1 + c.plans.len() as u64 + 1, errors)
    })
}

fn error_count(r: &cgra_analyze::Report) -> u64 {
    r.diagnostics()
        .iter()
        .filter(|d| d.severity == cgra_analyze::Severity::Error)
        .count() as u64
}

/// A kernel library for a fabric from its compiled profiles, in
/// `cgra_dfg::kernels::NAMES` order.
pub fn library(profiles: Vec<KernelProfile>, cgra: &CgraConfig) -> KernelLibrary {
    KernelLibrary {
        profiles,
        num_pages: cgra.layout().num_pages() as u16,
    }
}

/// Compile the paper kernel library of every fabric into a `MapCache`
/// persisted under `dir`, one fabric per engine item.
pub fn mapcache_fill(dir: &Path, fabrics: &[CgraConfig], ctx: Ctx<'_>) -> Vec<Arc<KernelLibrary>> {
    let cache = MapCache::persistent_at(dir);
    let opts = MapOptions::default();
    engine().run(fabrics, |cgra| {
        ctx.span("bench.mapcache.fill", |_| cache.library(cgra, &opts))
    })
}

/// Reopen the `MapCache` under `dir` and load every fabric's library
/// from disk (each entry is re-audited by the analyzer on load).
pub fn mapcache_load(
    dir: &Path,
    fabrics: &[CgraConfig],
    ctx: Ctx<'_>,
) -> (Vec<Arc<KernelLibrary>>, CacheStats) {
    let cache = MapCache::persistent_at(dir);
    let opts = MapOptions::default();
    let libs = engine().run(fabrics, |cgra| {
        ctx.span("bench.mapcache.load", |_| cache.library(cgra, &opts))
    });
    (libs, cache.stats())
}

/// One Fig. 9 style simulation point.
#[derive(Debug, Clone, Copy)]
pub struct SimPoint {
    pub fabric: usize,
    pub need: CgraNeed,
    pub threads: usize,
    pub seed: u64,
}

/// Nominal work per thread and CGRA bursts per thread of every point.
pub const WORK_PER_THREAD: u64 = 60_000;
pub const BURSTS: usize = 16;

/// Both systems' reports for one point.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub base: SimReport,
    pub mt: Result<SimReport, Refusal>,
    pub num_pages: u16,
}

/// Generate the point's workload (and, with `faults`, its reseeded
/// fault schedule), then run it on the FCFS baseline and on the
/// multithreaded system.
pub fn simulate(
    lib: &KernelLibrary,
    p: &SimPoint,
    faults: Option<&FaultSpec>,
    ctx: Ctx<'_>,
    tracer: &Tracer,
) -> SimOutcome {
    let (workload, schedule) = ctx.span("sim.generate", |_| {
        let params = WorkloadParams {
            threads: p.threads,
            need: p.need,
            work_per_thread: WORK_PER_THREAD,
            bursts: BURSTS,
            seed: p.seed,
        };
        let schedule = faults.map_or_else(Vec::new, |f| f.reseeded(p.seed).schedule(lib.num_pages));
        (generate(lib, &params), schedule)
    });
    let base = ctx.span("sim.baseline", |_| simulate_baseline(lib, &workload));
    let mt = ctx.span("sim.mt", |_| {
        simulate_multithreaded_faulty_traced(lib, &workload, MtConfig::default(), &schedule, tracer)
    });
    SimOutcome {
        base,
        mt: mt.map_err(|e| Refusal::Sim(e.to_string())),
        num_pages: lib.num_pages,
    }
}

pub fn needs() -> [CgraNeed; 3] {
    CgraNeed::ALL
}

pub fn improvement_pct(o: &SimOutcome) -> Option<f64> {
    let mt = o.mt.as_ref().ok()?;
    Some(cgra_sim::improvement_percent(o.base.makespan, mt.makespan))
}

/// The fault spec of the recovery sweep in EXPERIMENTS.md.
pub fn recovery_faults() -> FaultSpec {
    FaultSpec::parse("mtbf=20000,count=4,mttr=4000").expect("recovery spec parses")
}

/// Replay a run's events through the trace oracle.
pub fn oracle(events: &[TraceEvent], ctx: Ctx<'_>) -> Result<OracleReport, String> {
    ctx.span("obs.oracle", |_| {
        cgra_obs::check_trace(events).map_err(|e| e.to_string())
    })
}
