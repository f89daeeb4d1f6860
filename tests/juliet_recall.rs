//! Recall on the Juliet-style suite (§5.1.2): the paper reports Pinpoint
//! detecting all 1421 use-after-free/double-free cases. The full-scale
//! run (51 × 28 cases) lives in the benchmark harness; here a smaller
//! slice asserts 100% recall per variant.

use pinpoint::workload::generate_juliet;
use pinpoint::{Analysis, CheckerKind, Query};

#[test]
fn every_flaw_variant_detected() {
    let suite = generate_juliet(1); // one case per variant: 51 cases
    let analysis = Analysis::from_source(&suite.source).expect("suite compiles");
    let reports = analysis
        .session()
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    let mut missed = Vec::new();
    for case in &suite.cases {
        let found = reports.iter().any(|r| {
            analysis
                .module
                .func(r.source_func)
                .name
                .contains(&case.marker)
                || analysis
                    .module
                    .func(r.sink_func)
                    .name
                    .contains(&case.marker)
        });
        if !found {
            missed.push((case.variant, case.marker.clone()));
        }
    }
    assert!(
        missed.is_empty(),
        "recall below 100%: missed variants {missed:?}"
    );
}

#[test]
fn suite_reports_match_case_count_order() {
    let suite = generate_juliet(2);
    let analysis = Analysis::from_source(&suite.source).expect("compiles");
    let reports = analysis
        .session()
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    // Every case is a real defect; reports must be at least one per case
    // (a case may yield more than one source/sink pairing).
    assert!(
        reports.len() >= suite.cases.len(),
        "{} reports for {} cases",
        reports.len(),
        suite.cases.len()
    );
}
