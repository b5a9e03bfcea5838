//! `cgra-lint` — run the whole-pipeline static analyzer over every
//! kernel and every artifact the compilation pipeline produces.
//!
//! For each `(fabric, kernel)` pair the linter compiles the kernel once
//! with [`compile`](crate::compile::compile), analyzes every artifact it
//! returns through [`Compiled::analyze`](crate::compile::Compiled::analyze)
//! — baseline mapping, ring-constrained mapping, extracted page-level
//! schedule, every halving-chain shrink plan and the assembled kernel
//! profile — and adds one artifact of its own, a one-dead-page
//! degradation of the paged schedule. Every artifact yields one labeled
//! [`Report`]; an error diagnostic anywhere is a pipeline bug.
//!
//! A kernel whose compile fails (the mapper cannot place it, or
//! extraction or a transform fails) is skipped whole: the error is the
//! compiler's own diagnostic channel, and none of its artifacts is
//! linted. Every benchmark kernel compiles on every grid fabric and on
//! the 2×2 and 10×10 fabrics, so no lint output depends on this.
//!
//! Used by the `cgra-lint` binary and the `analyze-smoke` CI job; the
//! figure binaries run the same passes under `--analyze`.

use crate::compile::compile;
use cgra_analyze::{analyze_degraded, Report};
use cgra_arch::{CgraConfig, FaultMap, PageHealth};
use cgra_core::transform_degraded;
use cgra_mapper::MapOptions;
use cgra_obs::Tracer;

/// One analyzed artifact: where it came from and what the analyzer said.
pub struct LintFinding {
    /// `dim`, `page_size` of the fabric.
    pub config: (u16, usize),
    /// Kernel name.
    pub kernel: String,
    /// Which pipeline artifact was analyzed (`baseline-mapping`,
    /// `constrained-mapping`, `paged-schedule`, `plan-m2`, …).
    pub artifact: String,
    /// The analyzer's report.
    pub report: Report,
}

/// Lint every kernel on one square fabric (a user-supplied size comes
/// from [`CgraConfig::try_square`]); findings name it by mesh side and
/// page size.
pub fn lint_config(cgra: &CgraConfig) -> Vec<LintFinding> {
    let config = (cgra.mesh().rows(), cgra.layout().shape().size());
    let mut out = Vec::new();
    for dfg in cgra_dfg::kernels::all() {
        let Ok(c) = compile(&dfg, cgra, &MapOptions::default(), &Tracer::off()) else {
            continue;
        };
        let mut reports = c.analyze(cgra);
        // One dead page at the far end of the schedule's footprint: the
        // canonical survivable degradation.
        let used = c.paged.num_pages;
        if used >= 2 {
            let mut faults = FaultMap::new(used);
            faults.mark_page(0, PageHealth::Dead);
            if let Ok(d) = transform_degraded(&c.paged, &faults, used) {
                let report = analyze_degraded(&c.paged, &d, &faults);
                reports.push(("degraded-dead0".to_string(), report));
            }
        }
        out.extend(reports.into_iter().map(|(artifact, report)| LintFinding {
            config,
            kernel: dfg.name.clone(),
            artifact,
            report,
        }));
    }
    out
}

/// Lint every configuration of the paper grid ([`crate::GRID`]).
pub fn lint_grid() -> Vec<LintFinding> {
    crate::GRID
        .iter()
        .flat_map(|&(d, sizes)| sizes.iter().map(move |&s| (d, s)))
        .flat_map(|(d, s)| lint_config(&crate::cgra(d, s)))
        .collect()
}

/// Render findings for humans: every non-clean artifact in full, then a
/// one-line summary. Returns `(text, error_count)`.
pub fn render(findings: &[LintFinding]) -> (String, usize) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut errors = 0;
    let mut warnings = 0;
    for f in findings {
        if f.report.is_clean() {
            continue;
        }
        if f.report.has_errors() {
            errors += 1;
        } else {
            warnings += 1;
        }
        let (dim, page) = f.config;
        let _ = writeln!(
            out,
            "{dim}x{dim} page {page} {} [{}]:",
            f.kernel, f.artifact
        );
        for line in f.report.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(
        out,
        "{} artifacts analyzed: {} clean, {warnings} with warnings, {errors} with errors",
        findings.len(),
        findings.len() - warnings - errors,
    );
    (out, errors)
}

/// Render findings as one JSON document.
pub fn render_json(findings: &[LintFinding]) -> String {
    use crate::jsonio::Json;
    let arr = findings
        .iter()
        .map(|f| {
            Json::obj([
                ("dim", Json::Int(i64::from(f.config.0))),
                ("page_size", Json::Int(f.config.1 as i64)),
                ("kernel", Json::Str(f.kernel.clone())),
                ("artifact", Json::Str(f.artifact.clone())),
                ("report", f.report.to_json()),
            ])
        })
        .collect();
    Json::Arr(arr).pretty()
}

/// The `--analyze` hook for the figure binaries: lint the full grid,
/// print the human rendering to **stderr** (stdout stays
/// byte-deterministic), and report whether any artifact had errors.
pub fn analyze_grid_to_stderr() -> bool {
    let findings = lint_grid();
    let (text, errors) = render(&findings);
    eprint!("analyze: {text}");
    errors > 0
}
