//! The three workloads: what each sets up, times and checks.
//!
//! Every run has three phases. Set-up prepares the inputs (several
//! times, so its time is a median). The timed phase runs *passes* — one
//! engine sweep over a fixed list of items — until `--seconds` have
//! elapsed; a worker takes the next item only when its current one is
//! done. The check phase re-derives what the timed phase produced with
//! the program's independent checkers, and replays pass 0 untraced and
//! traced, which must both give pass 0's results.

use crate::adapter::{self, Calls, Compiled, Refusal, SimOutcome, SimPoint};
use crate::stats;
use crate::trace::{Ctx, EventCounts, SelfTimes, Span, SpanLog};
use cgra_arch::{CgraConfig, FaultSpec};
use cgra_dfg::Dfg;
use cgra_obs::{TraceEvent, Tracer};
use cgra_sim::KernelLibrary;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileCold,
    SweepWarm,
    SweepFaults,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CompileCold,
        Workload::SweepWarm,
        Workload::SweepFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile-cold",
            Workload::SweepWarm => "sweep-warm",
            Workload::SweepFaults => "sweep-faults",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The `(layers, recurrences)` shape of each random DFG in a
/// `compile-cold` pass: every combination once, so the mix of sizes and
/// recurrences is the same in every pass and for every seed.
pub const RANDOM_SHAPES: [(usize, usize); 9] = [
    (3, 0),
    (3, 1),
    (3, 2),
    (4, 0),
    (4, 1),
    (4, 2),
    (5, 0),
    (5, 1),
    (5, 2),
];
/// Passes whose inputs `compile-cold` generates up front; the timed
/// phase stops early if it ever gets through all of them.
pub const COLD_PASS_CAP: usize = 96;
/// Thread counts of the sweeps: the paper's 1–16 plus 32 and 64.
pub const THREADS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Set-up repetitions per run (the reported set-up time is their median).
pub const COLD_SETUPS: usize = 11;
pub const SWEEP_SETUPS: usize = 5;
/// Passes whose results the deterministic metrics (mapping quality,
/// simulated statistics, call and event counts) are taken from. The
/// timed phase always completes them, however short `--seconds`.
pub const FIXED_PASSES: usize = 8;

/// Item ids: timed items are `pass << 32 | index`; check-phase items
/// set the top bit.
const CHECK_ITEM: u64 = 1 << 63;

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub passes: u64,
    /// Items per second of each timed pass, loads included, and the
    /// pass's median and p90 item time.
    pub pass_rates: Vec<f64>,
    pub pass_p50_ms: Vec<f64>,
    pub pass_p90_ms: Vec<f64>,
    pub items: u64,
    pub failed_items: u64,
    /// Program calls of the timed phase.
    pub calls: Calls,
    /// Item time summed over the timed passes, and the passes' wall
    /// time, each from its first item start to its last item end.
    pub busy_ns: u64,
    pub wall_ns: u64,
    pub straggler_ns: Vec<u64>,
    /// `(kernel_mii / II)` per (item, mode) of the compiled artifacts the
    /// workload checks.
    pub mii_ratios: Vec<f64>,
    /// Simulations of the fixed passes (`compile-cold`: of the check
    /// sweep).
    pub sims: Vec<SimOutcome>,
    /// Program event counts of the fixed passes, of the check phase and
    /// of every timed pass (all zero when untraced).
    pub counts_fixed: EventCounts,
    pub counts_check: EventCounts,
    pub counts_timed: EventCounts,
    /// Program calls of the fixed passes and the check phase.
    pub fixed_calls: Calls,
    pub analyze_artifacts: u64,
    pub analyze_errors: u64,
    pub disk_hits: u64,
    pub disk_rejects: u64,
    pub misses: u64,
    pub oracle_runs: u64,
    pub oracle_violations: u64,
    /// Median extra item time with the program's events tapped, from the
    /// paired replay of pass 0.
    pub trace_overhead_pct: f64,
    /// Span self times per phase.
    pub setup_times: SelfTimes,
    pub timed_times: SelfTimes,
    pub check_times: SelfTimes,
    pub breaches: Vec<String>,
}

impl Measured {
    fn breach(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: correctness breach: {what}");
        self.breaches.push(what);
    }
}

/// One finished item.
struct ItemOut<T> {
    start_ns: u64,
    end_ns: u64,
    worker: u64,
    value: T,
    counts: EventCounts,
    oracle: Option<Result<(), String>>,
}

/// One pass of items through the engine.
struct PassOut<T> {
    items: Vec<ItemOut<T>>,
    busy_ns: u64,
    /// From the first item start to the last item end.
    wall_ns: u64,
    straggler_ns: u64,
}

fn worker_id() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

/// Run `items` through the engine, each inside an item span, with a
/// program tracer feeding a tap when `ctx` taps events. Simulator events
/// are replayed through the trace oracle outside the item's clock: with
/// spans on, after the engine run ends, so that the pass's wall time and
/// its busy time cover the same work; with spans off, on the item's
/// worker right away, so that only one item's events are held at a time.
fn run_items<I, T, F>(
    clock: Instant,
    ctx: Ctx<'_>,
    span: &'static str,
    id_base: u64,
    items: &[I],
    f: F,
) -> PassOut<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I, Ctx<'_>, &Tracer) -> T + Sync,
{
    let indexed: Vec<(u64, &I)> = items
        .iter()
        .enumerate()
        .map(|(i, it)| (id_base | i as u64, it))
        .collect();
    let now = || clock.elapsed().as_nanos() as u64;
    let defer = ctx.traced();
    let check = |events: &[TraceEvent]| adapter::oracle(events, ctx).map(|_| ());
    let ran = adapter::engine().run(&indexed, |&(id, item)| {
        let (tracer, tap) = ctx.tap();
        let start_ns = now();
        let value = ctx.item(span, id, |c| f(item, c, &tracer));
        let end_ns = now();
        let events = tap.map(|t| t.drain()).unwrap_or_default();
        let counts = EventCounts::of(&events);
        let sim = (counts.sim > 0).then_some(events);
        let (oracle, pending) = match sim {
            Some(events) if defer => (None, Some(events)),
            Some(events) => (Some(check(&events)), None),
            None => (None, None),
        };
        let out = ItemOut {
            start_ns,
            end_ns,
            worker: worker_id(),
            value,
            counts,
            oracle,
        };
        (out, pending)
    });
    let (mut outs, pending): (Vec<_>, Vec<_>) = ran.into_iter().unzip();
    let pending: Vec<(usize, Vec<TraceEvent>)> = pending
        .into_iter()
        .enumerate()
        .filter_map(|(i, events)| Some((i, events?)))
        .collect();
    let verdicts = adapter::engine().run(&pending, |(_, events)| check(events));
    for ((i, _), verdict) in pending.iter().zip(verdicts) {
        outs[*i].oracle = Some(verdict);
    }
    let busy_ns = outs.iter().map(|o| o.end_ns - o.start_ns).sum();
    let first_start = outs.iter().map(|o| o.start_ns).min().unwrap_or(0);
    let wall_ns = outs.iter().map(|o| o.end_ns).max().unwrap_or(0) - first_start;
    let mut last_end: std::collections::HashMap<u64, u64> = Default::default();
    for o in &outs {
        let e = last_end.entry(o.worker).or_default();
        *e = (*e).max(o.end_ns);
    }
    let ends: Vec<u64> = last_end.into_values().collect();
    PassOut {
        busy_ns,
        wall_ns,
        straggler_ns: stats::straggler(&ends),
        items: outs,
    }
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Run one workload; `work` is a scratch directory the run owns.
pub fn run(w: Workload, o: RunOpts, work: &Path, spans_out: Option<&Path>) -> Measured {
    let log = o.traced.then(SpanLog::new);
    let ctx = Ctx::root(log.as_ref());
    let clock = Instant::now();
    let mut m = Measured::default();
    match w {
        Workload::CompileCold => cold(&mut m, o, ctx, clock, work),
        Workload::SweepWarm | Workload::SweepFaults => {
            let faults = (w == Workload::SweepFaults).then(adapter::recovery_faults);
            sweep(&mut m, o, ctx, clock, work, faults.as_ref())
        }
    }
    if let Some(log) = &log {
        let spans = log.spans();
        let phase = |name: &str| {
            let Some(p) = spans.iter().find(|s| s.name == name) else {
                return SelfTimes::default();
            };
            let inside: Vec<Span> = spans
                .iter()
                .filter(|s| s.start_ns >= p.start_ns && s.end_ns <= p.end_ns)
                .cloned()
                .collect();
            SelfTimes::of(&inside)
        };
        m.setup_times = phase("setup");
        m.timed_times = phase("timed");
        m.check_times = phase("check");
        if let Some(path) = spans_out {
            if let Err(e) = log.write_jsonl(path) {
                eprintln!(
                    "perfbench: could not write spans to {}: {e}",
                    path.display()
                );
            }
        }
    }
    m
}

// ---------------------------------------------------------------- cold

struct ColdItem {
    dfg: Arc<Dfg>,
    fabric: usize,
}

/// The inputs of every `compile-cold` pass: the 11 paper kernels plus
/// one seeded random DFG per [`RANDOM_SHAPES`] entry, each over the nine
/// fabrics. Random DFGs have 3–5 layers of 2–5 ops (7–23 ops; the paper
/// kernels have 9–33) and 0–2 recurrences of carried distance 1–2.
fn cold_inputs(seed: u64, fabrics: usize) -> Vec<Vec<ColdItem>> {
    let paper: Vec<Arc<Dfg>> = adapter::paper_kernels().into_iter().map(Arc::new).collect();
    (0..COLD_PASS_CAP)
        .map(|pass| {
            let random = RANDOM_SHAPES
                .iter()
                .enumerate()
                .map(|(i, &(layers, recs))| {
                    let s = adapter::point_seed(&[seed, pass as u64, i as u64]);
                    let distance = 1 + (s % 2) as u32;
                    Arc::new(adapter::random_kernel(s >> 1, layers, recs, distance))
                });
            paper
                .iter()
                .cloned()
                .chain(random)
                .flat_map(|dfg| {
                    (0..fabrics).map(move |fabric| ColdItem {
                        dfg: dfg.clone(),
                        fabric,
                    })
                })
                .collect()
        })
        .collect()
}

type CompileOut = (Result<Compiled, Refusal>, Calls);

fn compile_pass(
    clock: Instant,
    ctx: Ctx<'_>,
    span: &'static str,
    id_base: u64,
    items: &[ColdItem],
    fabrics: &[CgraConfig],
) -> PassOut<CompileOut> {
    run_items(clock, ctx, span, id_base, items, |it, c, tracer| {
        adapter::compile(&it.dfg, &fabrics[it.fabric], c, tracer)
    })
}

fn fabrics() -> Vec<CgraConfig> {
    adapter::grid()
        .into_iter()
        .map(|(d, s)| adapter::fabric(d, s))
        .collect()
}

fn cold(m: &mut Measured, o: RunOpts, ctx: Ctx<'_>, clock: Instant, work: &Path) {
    let fabrics = fabrics();
    let mut inputs = Vec::new();
    ctx.span("setup", |c| {
        for _ in 0..COLD_SETUPS {
            let t = Instant::now();
            inputs = c.span("dfg", |_| cold_inputs(o.seed, fabrics.len()));
            m.setup_s.push(t.elapsed().as_secs_f64());
        }
    });

    let mut pass0: Option<PassOut<CompileOut>> = None;
    ctx.span("timed", |c| {
        let t = Instant::now();
        for (pass, items) in inputs.iter().enumerate() {
            if pass >= FIXED_PASSES && t.elapsed().as_secs_f64() >= o.seconds {
                break;
            }
            let pass_start = Instant::now();
            let out = c.span("pass", |c| {
                compile_pass(clock, c, "item", (pass as u64) << 32, items, &fabrics)
            });
            absorb_timed(m, &out, pass_start, |(r, calls)| (r.is_err(), *calls));
            m.counts_timed.add(&sum_counts(&out));
            let fixed = pass < FIXED_PASSES;
            if fixed {
                m.counts_fixed.add(&sum_counts(&out));
            }
            compile_stats(m, &out, items, &fabrics, c, fixed);
            match &pass0 {
                None => pass0 = Some(out),
                // The paper kernels open every pass and must compile the
                // same way each time.
                Some(first) => {
                    let paper = adapter::PAPER_KERNELS * fabrics.len();
                    for (a, b) in first.items.iter().zip(&out.items).take(paper) {
                        if !same_compile(&a.value.0, &b.value.0) {
                            m.breach(format!("pass {pass}: a paper kernel compiled differently"));
                            break;
                        }
                    }
                }
            }
        }
    });
    let pass0 = pass0.expect("at least one pass ran");

    ctx.span("check", |c| {
        let items = &inputs[0];

        // Replay pass 0 untraced and traced: identical artifacts.
        let pairs = replay(clock, items, |it, c, tracer| {
            adapter::compile(&it.dfg, &fabrics[it.fabric], c, tracer)
        });
        check_replay(m, &pass0, &pairs, |a, b| same_compile(&a.0, &b.0));
        drop(pairs);

        // The same paper kernels through `MapCache`: compiled and stored
        // by the cache, reloaded from disk, equal to the layer-by-layer
        // compilation above.
        let paper_profiles = |f: usize| -> Option<Vec<_>> {
            pass0
                .items
                .iter()
                .zip(items)
                .filter(|(_, it)| it.fabric == f)
                .take(adapter::PAPER_KERNELS)
                .map(|(out, _)| out.value.0.as_ref().ok().map(|c| c.profile.clone()))
                .collect()
        };
        let expected: Option<Vec<KernelLibrary>> = (0..fabrics.len())
            .map(|f| paper_profiles(f).map(|p| adapter::library(p, &fabrics[f])))
            .collect();
        let dir = work.join("mapcache");
        let filled = adapter::mapcache_fill(&dir, &fabrics, c);
        let libs = load_checked(m, &dir, &fabrics, c);
        let same = |a: &[Arc<KernelLibrary>], b: &[KernelLibrary]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| **x == *y)
        };
        match &expected {
            Some(e) if same(&filled, e) && same(&libs, e) => {}
            _ => m.breach("MapCache libraries differ from the layer-by-layer compilation"),
        }

        // Drive the simulator with the freshly compiled libraries: one
        // sweep of the grid, every run replayed through the oracle.
        let points = sweep_points(o.seed, u64::MAX, fabrics.len());
        let sims = sim_pass(
            clock,
            c.tapped(),
            "check.item",
            CHECK_ITEM,
            &points,
            &libs,
            None,
        );
        oracle_stats(m, &sims, true);
        m.counts_check.add(&sum_counts(&sims));
        keep_sims(m, sims.items.into_iter().map(|o| o.value).collect());
    });
}

fn same_compile(a: &Result<Compiled, Refusal>, b: &Result<Compiled, Refusal>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.same_as(y),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

fn sum_counts<T>(p: &PassOut<T>) -> EventCounts {
    let mut c = EventCounts::default();
    for o in &p.items {
        c.add(&o.counts);
    }
    c
}

/// Fold one timed pass into the run's item and engine statistics.
fn absorb_timed<T>(
    m: &mut Measured,
    p: &PassOut<T>,
    start: Instant,
    outcome: impl Fn(&T) -> (bool, Calls),
) {
    m.passes += 1;
    m.pass_rates
        .push(p.items.len() as f64 / start.elapsed().as_secs_f64());
    let ms: Vec<f64> = p
        .items
        .iter()
        .map(|o| (o.end_ns - o.start_ns) as f64 / 1e6)
        .collect();
    for (q, out) in [(0.5, &mut m.pass_p50_ms), (0.9, &mut m.pass_p90_ms)] {
        match stats::percentile(&ms, q) {
            Some(v) => out.push(v),
            None => m
                .breaches
                .push(format!("{} items per pass are too few for p{q}", ms.len())),
        }
    }
    m.busy_ns += p.busy_ns;
    m.wall_ns += p.wall_ns;
    m.straggler_ns.push(p.straggler_ns);
    m.items += ms.len() as u64;
    for o in &p.items {
        let (failed, calls) = outcome(&o.value);
        m.failed_items += u64::from(failed);
        m.calls.add(&calls);
    }
}

/// One item run twice back to back on the same worker: untraced, then
/// with the program's events tapped.
struct Pair<T> {
    plain: T,
    tapped: T,
    /// `tapped / plain` wall time.
    slowdown: f64,
}

/// Replay `items` through `f` as [`Pair`]s, outside any span, so that
/// the two runs of an item differ only in tracing. The tapped runs'
/// simulator events go through the trace oracle.
fn replay<I, T, F>(clock: Instant, items: &[I], f: F) -> PassOut<Pair<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&I, Ctx<'_>, &Tracer) -> T + Sync,
{
    let ctx = Ctx::root(None).tapped();
    run_items(
        clock,
        ctx,
        "check.item",
        CHECK_ITEM,
        items,
        |it, c, tracer| {
            let t = Instant::now();
            let plain = f(it, c, &Tracer::off());
            let plain_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let tapped = f(it, c, tracer);
            Pair {
                plain,
                tapped,
                slowdown: t.elapsed().as_secs_f64() / plain_s,
            }
        },
    )
}

/// Check a replay against the timed pass 0 and record the tracing
/// overhead: the median over items of the tapped / untraced slowdown.
fn check_replay<T>(
    m: &mut Measured,
    pass0: &PassOut<T>,
    replay: &PassOut<Pair<T>>,
    same: impl Fn(&T, &T) -> bool,
) {
    let identical = pass0.items.len() == replay.items.len()
        && pass0
            .items
            .iter()
            .zip(&replay.items)
            .all(|(a, b)| same(&a.value, &b.value.plain) && same(&a.value, &b.value.tapped));
    if !identical {
        m.breach("pass 0 replayed with and without tracing gave different results");
    }
    oracle_stats(m, replay, true);
    let slowdowns: Vec<f64> = replay.items.iter().map(|o| o.value.slowdown).collect();
    m.trace_overhead_pct = stats::median(&slowdowns).map_or(0.0, |r| 100.0 * (r - 1.0));
}

/// Analyze every compiled artifact of a pass (any error diagnostic is
/// a breach). For a fixed pass, also fold in mapping quality, calls and
/// event counts.
fn compile_stats(
    m: &mut Measured,
    pass: &PassOut<CompileOut>,
    items: &[ColdItem],
    fabrics: &[CgraConfig],
    ctx: Ctx<'_>,
    fixed: bool,
) {
    let work: Vec<(&Compiled, &ColdItem)> = pass
        .items
        .iter()
        .zip(items)
        .filter_map(|(out, it)| Some((out.value.0.as_ref().ok()?, it)))
        .collect();
    let analyzed = adapter::engine().run(&work, |(c, it)| {
        adapter::analyze(c, &fabrics[it.fabric], ctx)
    });
    let (artifacts, errors) = analyzed
        .iter()
        .fold((0, 0), |(a, e), (a1, e1)| (a + a1, e + e1));
    if errors > 0 {
        m.breach(format!(
            "{errors} error diagnostics from validate_mapping / cgra-analyze"
        ));
    }
    m.analyze_errors += errors;
    if !fixed {
        return;
    }
    m.analyze_artifacts += artifacts;
    for (c, it) in &work {
        let mii = adapter::mii(&it.dfg, &fabrics[it.fabric]);
        for ii in [c.profile.ii_baseline, c.profile.ii_constrained] {
            m.mii_ratios.push(f64::from(mii) / f64::from(ii));
        }
    }
    for out in &pass.items {
        m.fixed_calls.add(&out.value.1);
    }
}

// --------------------------------------------------------------- sweeps

/// The sweep grid of one pass: every fabric × need × thread count, each
/// with its own workload seed.
fn sweep_points(seed: u64, pass: u64, fabrics: usize) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for fabric in 0..fabrics {
        for need in adapter::needs() {
            for threads in THREADS {
                let coords = [seed, pass, fabric as u64, need as u64, threads as u64];
                points.push(SimPoint {
                    fabric,
                    need,
                    threads,
                    seed: adapter::point_seed(&coords),
                });
            }
        }
    }
    points
}

fn sim_pass(
    clock: Instant,
    ctx: Ctx<'_>,
    span: &'static str,
    id_base: u64,
    points: &[SimPoint],
    libs: &[Arc<KernelLibrary>],
    faults: Option<&FaultSpec>,
) -> PassOut<SimOutcome> {
    run_items(clock, ctx, span, id_base, points, |p, c, tracer| {
        adapter::simulate(&libs[p.fabric], p, faults, c, tracer)
    })
}

/// Fold in the oracle verdicts of a pass; `fixed` passes (and the check
/// phase) also count their replayed runs.
fn oracle_stats<T>(m: &mut Measured, p: &PassOut<T>, fixed: bool) {
    for o in &p.items {
        if let Some(verdict) = &o.oracle {
            m.oracle_runs += u64::from(fixed);
            if let Err(e) = verdict {
                m.oracle_violations += 1;
                m.breach(format!("trace oracle: {e}"));
            }
        }
    }
}

fn sim_calls(s: &SimOutcome) -> Calls {
    Calls {
        sims: 2,
        sim_failed: u64::from(s.mt.is_err()),
        ..Calls::default()
    }
}

/// Keep the outcomes of a fixed sweep and count its calls.
fn keep_sims(m: &mut Measured, sims: Vec<SimOutcome>) {
    for s in &sims {
        m.fixed_calls.add(&sim_calls(s));
    }
    m.sims.extend(sims);
}

/// Reload the libraries under `dir`; every entry must come from disk.
fn load_checked(
    m: &mut Measured,
    dir: &Path,
    fabrics: &[CgraConfig],
    ctx: Ctx<'_>,
) -> Vec<Arc<KernelLibrary>> {
    let (libs, st) = adapter::mapcache_load(dir, fabrics, ctx);
    let entries = (adapter::PAPER_KERNELS * fabrics.len()) as u64;
    (m.disk_hits, m.disk_rejects, m.misses) = (st.disk_hits, st.disk_rejects, st.misses);
    if st.disk_hits != entries || st.misses != 0 || st.disk_rejects != 0 {
        m.breach(format!(
            "warm load: {} disk hits (want {entries}), {} misses, {} rejects",
            st.disk_hits, st.misses, st.disk_rejects
        ));
    }
    libs
}

fn sweep(
    m: &mut Measured,
    o: RunOpts,
    ctx: Ctx<'_>,
    clock: Instant,
    work: &Path,
    faults: Option<&FaultSpec>,
) {
    let fabrics = fabrics();
    let mut dir = PathBuf::new();
    let mut compiled = Vec::new();
    ctx.span("setup", |c| {
        for i in 0..SWEEP_SETUPS {
            let _ = std::fs::remove_dir_all(&dir);
            dir = work.join(format!("mapcache-{i}"));
            let t = Instant::now();
            compiled = adapter::mapcache_fill(&dir, &fabrics, c);
            m.setup_s.push(t.elapsed().as_secs_f64());
        }
    });

    let mut pass0 = None;
    ctx.span("timed", |c| {
        let t = Instant::now();
        for pass in 0u64.. {
            if pass >= FIXED_PASSES as u64 && t.elapsed().as_secs_f64() >= o.seconds {
                break;
            }
            let points = sweep_points(o.seed, pass, fabrics.len());
            let pass_start = Instant::now();
            let out = c.span("pass", |c| {
                let libs = load_checked(m, &dir, &fabrics, c);
                if libs.len() != compiled.len() || libs.iter().zip(&compiled).any(|(a, b)| a != b) {
                    m.breach(format!(
                        "pass {pass}: loaded libraries differ from the stored ones"
                    ));
                }
                sim_pass(clock, c, "item", pass << 32, &points, &libs, faults)
            });
            absorb_timed(m, &out, pass_start, |s| (s.mt.is_err(), sim_calls(s)));
            m.counts_timed.add(&sum_counts(&out));
            oracle_stats(m, &out, pass < FIXED_PASSES as u64);
            if pass < FIXED_PASSES as u64 {
                m.counts_fixed.add(&sum_counts(&out));
                keep_sims(m, out.items.iter().map(|o| o.value.clone()).collect());
            }
            if pass == 0 {
                pass0 = Some(out);
            }
        }
    });
    let pass0 = pass0.expect("at least one pass ran");

    ctx.span("check", |c| {
        // Replay pass 0 untraced and traced: identical reports, and
        // every traced run replays clean through the oracle.
        let points = sweep_points(o.seed, 0, fabrics.len());
        let pairs = replay(clock, &points, |p, c, tracer| {
            adapter::simulate(&compiled[p.fabric], p, faults, c, tracer)
        });
        check_replay(m, &pass0, &pairs, |a, b| a == b);

        // Compile the paper kernels layer by layer: the warm libraries
        // must equal what a cold compilation produces.
        let kernels: Vec<Arc<Dfg>> = c.span("dfg", |_| {
            adapter::paper_kernels().into_iter().map(Arc::new).collect()
        });
        let items: Vec<ColdItem> = (0..fabrics.len())
            .flat_map(|fabric| {
                kernels.iter().map(move |k| ColdItem {
                    dfg: k.clone(),
                    fabric,
                })
            })
            .collect();
        let out = compile_pass(clock, c, "check.item", CHECK_ITEM, &items, &fabrics);
        m.counts_check.add(&sum_counts(&out));
        compile_stats(m, &out, &items, &fabrics, c, true);
        let cold: Option<Vec<_>> = out
            .items
            .iter()
            .map(|x| x.value.0.as_ref().ok().map(|c| c.profile.clone()))
            .collect();
        let warm = compiled.iter().flat_map(|l| l.profiles.iter().cloned());
        if cold.is_none_or(|cold| !cold.into_iter().eq(warm)) {
            m.breach("warm libraries differ from a cold layer-by-layer compilation");
        }
    });
}

/// Simulated statistics of the fixed sweep.
#[derive(Debug, Default, PartialEq)]
pub struct SimTotals {
    pub runs: u64,
    pub errors: u64,
    pub shrinks: u64,
    pub expands: u64,
    pub stall_cycles: u64,
    pub makespan_cycles: u64,
    pub page_util_pct: f64,
    pub injected: u64,
    pub repairs: u64,
    pub reexpansions: u64,
    pub revoked: u64,
    pub recovery_cycles: u64,
}

impl SimTotals {
    pub fn of(sims: &[SimOutcome]) -> Self {
        let mut t = SimTotals::default();
        let mut util = Vec::new();
        for s in sims {
            t.runs += 2;
            let Ok(r) = &s.mt else {
                t.errors += 1;
                continue;
            };
            t.shrinks += r.shrinks;
            t.expands += r.expands;
            t.stall_cycles += r.stall_cycles;
            t.makespan_cycles += r.makespan;
            let busy_pages = r.page_cycles as f64 / r.makespan.max(1) as f64;
            util.push(100.0 * busy_pages / f64::from(s.num_pages));
            t.injected += r.faults.injected;
            t.repairs += r.faults.repairs;
            t.reexpansions += r.faults.reexpansions;
            t.revoked += r.faults.threads_revoked;
            t.recovery_cycles += r.faults.recovery_cycles;
        }
        t.page_util_pct = util.iter().sum::<f64>() / util.len().max(1) as f64;
        t
    }
}
