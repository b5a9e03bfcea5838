//! Golden-file snapshot of `cgra-lint` on the paper's default fabric
//! (4×4, page size 4): one line per analyzed artifact — kernel, artifact
//! label and the diagnostic codes it carries (`clean` when none).
//!
//! The snapshot pins which artifacts the compile pipeline produces for
//! every benchmark kernel (both mappings, the paged schedule, one shrink
//! plan per halving-chain budget below the footprint, the profile and the
//! one-dead-page degradation) and what the analyzer finds in each. No
//! artifact may carry an error diagnostic. Refresh with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p cgra-bench --test golden_lint
//! ```
//!
//! and review the diff like any other code change.

use cgra_analyze::Severity;
use cgra_bench::cgra;
use cgra_bench::lint::lint_config;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("lint_4x4_page4.txt")
}

#[test]
fn lint_4x4_matches_golden_and_has_no_errors() {
    let findings = lint_config(&cgra(4, 4));
    let mut actual = String::new();
    for f in &findings {
        let codes: Vec<&str> = f.report.codes().iter().map(|c| c.as_str()).collect();
        let codes = if codes.is_empty() {
            "clean".to_string()
        } else {
            codes.join(",")
        };
        let _ = writeln!(actual, "{} {} {codes}", f.kernel, f.artifact);
    }
    let errors: Vec<String> = findings
        .iter()
        .flat_map(|f| {
            f.report
                .diagnostics()
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(move |d| format!("{} [{}]: {d}", f.kernel, f.artifact))
        })
        .collect();
    assert!(
        errors.is_empty(),
        "error diagnostics:\n{}",
        errors.join("\n")
    );

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "lint snapshot diverged; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}
