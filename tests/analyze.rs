//! The analyzer gate has teeth: a seeded break in an otherwise valid
//! artifact must not analyze clean. That every artifact the pipeline
//! produces for every kernel analyzes clean is pinned by the `cgra-lint`
//! golden (`crates/bench/tests/golden_lint.rs`).

use cgra_mt::prelude::*;

/// A seeded mutation must *not* analyze clean — the gate has teeth.
#[test]
fn analyzer_rejects_a_seeded_break() {
    let report = cgra_mt::analyze::mutate::broken_fir_report(7);
    assert!(report.has_errors());
    assert!(report.codes().contains(&Code::A005BadDataflow));
}
