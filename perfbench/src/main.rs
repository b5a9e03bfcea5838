//! End-to-end and per-layer benchmark of the CGRA multithreading
//! pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-cold|sweep-warm|sweep-faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs with spans and program-event
//! taps on and reports the per-layer metrics. Any correctness breach
//! makes the exit code 1.

mod adapter;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use workloads::{Measured, RunOpts, SimTotals, Workload};

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
}

struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cgra-perfbench --workload <compile-cold|sweep-warm|sweep-faults> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

struct Args {
    workload: Workload,
    opts: RunOpts,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        opts,
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn end_to_end(m: &Measured, r: &mut Report) {
    // Timings are medians over passes, so a burst of load from outside
    // the process during part of the run does not move them.
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    r.put("setup_s", median(&m.setup_s), "s", m.setup_s.len() as u64);
    r.put("items_per_s", median(&m.pass_rates), "1/s", m.items);
    r.put("item_ms_p50", median(&m.pass_p50_ms), "ms", m.items);
    r.put("item_ms_p90", median(&m.pass_p90_ms), "ms", m.items);
    r.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let (attempted, failed) = (m.calls.attempted(), m.calls.failed());
    r.put(
        "success_share",
        1.0 - ratio(failed as f64, attempted as f64),
        "ratio",
        attempted,
    );
    let eff = stats::geomean(&m.mii_ratios).map_or(0.0, |g| 100.0 * g);
    r.put("ii_efficiency_pct", eff, "%", m.mii_ratios.len() as u64);
    let gains: Vec<f64> = m.sims.iter().filter_map(adapter::improvement_pct).collect();
    let mean_gain = ratio(gains.iter().sum(), gains.len() as f64);
    r.put("mt_improvement_pct", mean_gain, "%", gains.len() as u64);
}

fn per_layer(m: &Measured, r: &mut Report) {
    let setups = m.setup_s.len().max(1) as f64;
    let passes = m.passes.max(1) as f64;
    // Self time of a layer in one unit of fixed work: one set-up, one
    // timed pass and the check phase.
    let ms = |name: &str| {
        m.setup_times.ms(name) / setups + m.timed_times.ms(name) / passes + m.check_times.ms(name)
    };
    let ns_timed_check = |name: &str| 1e6 * (m.timed_times.ms(name) + m.check_times.ms(name));
    let mut fixed = m.counts_fixed;
    fixed.add(&m.counts_check);
    let mut all = m.counts_timed;
    all.add(&m.counts_check);
    let calls = &m.fixed_calls;
    let n = |v: u64| v as f64;

    r.put(
        "mapper.baseline.ms",
        ms("mapper.baseline"),
        "ms",
        calls.baseline,
    );
    r.put(
        "mapper.constrained.ms",
        ms("mapper.constrained"),
        "ms",
        calls.constrained,
    );
    r.put("mapper.baseline.calls", n(calls.baseline), "count", 1);
    r.put("mapper.constrained.calls", n(calls.constrained), "count", 1);
    r.put("mapper.searches", n(fixed.searches), "count", 1);
    r.put("mapper.backtracks", n(fixed.backtracks), "count", 1);
    r.put("mapper.evictions", n(fixed.evictions), "count", 1);
    r.put("mapper.attempts", n(fixed.attempts()), "count", 1);
    r.put(
        "mapper.useful_ratio",
        ratio(n(fixed.accepted), n(fixed.attempts())),
        "ratio",
        fixed.attempts(),
    );
    let ii_over: Vec<f64> = m.mii_ratios.iter().map(|x| 1.0 / x).collect();
    r.put(
        "mapper.ii_over_mii",
        ratio(ii_over.iter().sum(), ii_over.len() as f64),
        "ratio",
        ii_over.len() as u64,
    );
    let mapper_ns = ns_timed_check("mapper.baseline") + ns_timed_check("mapper.constrained");
    r.put(
        "mapper.ns_per_attempt",
        ratio(mapper_ns, n(all.attempts())),
        "ns",
        all.attempts(),
    );
    r.put("mapper.failed", n(calls.mapper_failed), "count", 1);
    let share = |p: &str| m.timed_times.item_share_pct(p);
    let items = m.items;
    r.put("mapper.item_share_pct", share("mapper."), "%", items);

    r.put("core.extract.ms", ms("core.extract"), "ms", calls.extracts);
    r.put(
        "core.transform.ms",
        ms("core.transform"),
        "ms",
        calls.transforms,
    );
    r.put("core.transform.calls", n(calls.transforms), "count", 1);
    r.put("core.failed", n(calls.core_failed), "count", 1);
    r.put("core.item_share_pct", share("core."), "%", items);

    r.put("analyze.ms", ms("analyze"), "ms", m.analyze_artifacts);
    r.put("analyze.artifacts", n(m.analyze_artifacts), "count", 1);
    r.put("analyze.errors", n(m.analyze_errors), "count", 1);
    r.put("dfg.ms", ms("dfg"), "ms", 1);

    let sims = SimTotals::of(&m.sims);
    r.put("sim.generate.ms", ms("sim.generate"), "ms", sims.runs / 2);
    r.put("sim.baseline.ms", ms("sim.baseline"), "ms", sims.runs / 2);
    r.put("sim.mt.ms", ms("sim.mt"), "ms", sims.runs / 2);
    r.put("sim.runs", n(sims.runs), "count", 1);
    r.put("sim.events", n(fixed.sim), "count", 1);
    r.put(
        "sim.ns_per_event",
        ratio(ns_timed_check("sim.mt"), n(all.sim)),
        "ns",
        all.sim,
    );
    r.put("sim.item_share_pct", share("sim."), "%", items);
    r.put("sim.shrinks", n(sims.shrinks), "count", 1);
    r.put("sim.expands", n(sims.expands), "count", 1);
    r.put("sim.stall_cycles", n(sims.stall_cycles), "cycles", 1);
    r.put("sim.page_util_pct", sims.page_util_pct, "%", sims.runs / 2);
    r.put("sim.makespan_cycles", n(sims.makespan_cycles), "cycles", 1);
    r.put("sim.faults.injected", n(sims.injected), "count", 1);
    r.put("sim.faults.repairs", n(sims.repairs), "count", 1);
    r.put("sim.faults.reexpansions", n(sims.reexpansions), "count", 1);
    r.put("sim.faults.revoked", n(sims.revoked), "count", 1);
    r.put(
        "sim.faults.recovery_cycles",
        n(sims.recovery_cycles),
        "cycles",
        1,
    );
    r.put("sim.errors", n(sims.errors), "count", 1);

    r.put("bench.mapcache.load_ms", ms("bench.mapcache.load"), "ms", 1);
    r.put("bench.mapcache.fill_ms", ms("bench.mapcache.fill"), "ms", 1);
    r.put("bench.mapcache.disk_hits", n(m.disk_hits), "count", 1);
    r.put("bench.mapcache.disk_rejects", n(m.disk_rejects), "count", 1);
    r.put("bench.mapcache.misses", n(m.misses), "count", 1);

    r.put(
        "bench.engine.busy_ms",
        n(m.busy_ns) / 1e6 / passes,
        "ms",
        m.passes,
    );
    r.put(
        "bench.engine.parallel_eff",
        stats::parallel_eff(m.busy_ns, adapter::WORKERS, m.wall_ns),
        "ratio",
        m.passes,
    );
    let straggle: Vec<f64> = m.straggler_ns.iter().map(|&v| v as f64 / 1e6).collect();
    r.put(
        "bench.engine.straggler_ms",
        ratio(straggle.iter().sum(), straggle.len() as f64),
        "ms",
        m.passes,
    );

    r.put("obs.events", n(fixed.total), "count", 1);
    r.put(
        "obs.trace_overhead_pct",
        m.trace_overhead_pct,
        "%",
        m.items / m.passes.max(1),
    );
    r.put("obs.oracle_runs", n(m.oracle_runs), "count", 1);
    r.put("obs.oracle_violations", n(m.oracle_violations), "count", 1);
    r.put(
        "failed_share",
        ratio(n(m.calls.failed()), n(m.calls.attempted())),
        "ratio",
        m.calls.attempted(),
    );
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let work = manifest_dir()
        .join("work")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    let spans = args.opts.traced.then(|| {
        manifest_dir()
            .join("out")
            .join(format!("spans-{}.jsonl", w.name()))
    });
    let mut m = workloads::run(w, args.opts, &work, spans.as_deref());
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(work.parent().unwrap_or(Path::new("")));

    let mut report = Report {
        metrics: Vec::new(),
    };
    if args.opts.traced {
        per_layer(&m, &mut report);
    } else {
        end_to_end(&m, &mut report);
    }
    println!(
        "# {} (seed {}, {} passes)",
        w.name(),
        args.opts.seed,
        m.passes
    );
    for x in &report.metrics {
        if !x.value.is_finite() {
            m.breaches.push(format!("{} is not a number", x.name));
        }
        println!(
            "{:<30} {:>18.6} {:<7} n={}",
            x.name, x.value, x.unit, x.samples
        );
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.breaches.is_empty(),
        m.items,
        m.failed_items,
        metrics.join(", ")
    );
    if !m.breaches.is_empty() {
        for b in &m.breaches {
            eprintln!("perfbench: FAILED: {}: {b}", w.name());
        }
        std::process::exit(1);
    }
}
