//! The fuzz subsystem must *catch* planted bugs, not just pass on clean
//! builds. This test flips the detect-layer fault toggle (drop the last
//! merged report when running multi-threaded — a modelled merge race),
//! runs the thread-determinism oracle, and asserts the bug is found and
//! shrunk to a small reproducer — and that the same planted bug shows
//! when the reports come through `Workspace::query`, whose query-cached
//! path shares the one `run_spec` the toggle lives in.

use pinpoint_core::detect::faults::DROP_LAST_REPORT_MT;
use pinpoint_core::{AnalysisBuilder, Query};
use pinpoint_fuzz::{run_fuzz, FindingKind, FuzzConfig, OracleKind};
use std::sync::atomic::Ordering;

/// Every report of `program` through a workspace at `threads` workers.
fn workspace_reports(program: &str, threads: usize) -> Vec<String> {
    let mut ws = AnalysisBuilder::new()
        .threads(threads)
        .open_workspace(program)
        .expect("reproducer compiles");
    let reports = ws.query(&Query::All).into_reports();
    reports.iter().map(ToString::to_string).collect()
}

#[test]
fn injected_merge_bug_is_caught_and_shrunk() {
    let out_dir = std::env::temp_dir().join("pinpoint-fuzz-fault-test");
    let _ = std::fs::remove_dir_all(&out_dir);
    DROP_LAST_REPORT_MT.store(true, Ordering::SeqCst);
    let outcome = run_fuzz(&FuzzConfig {
        seed: 5,
        iters: 40,
        oracles: vec![OracleKind::Threads],
        threads: 3,
        out_dir: Some(out_dir.clone()),
        ..FuzzConfig::default()
    });
    let finding = outcome
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::Discrepancy && f.oracle == OracleKind::Threads);
    let program = finding.and_then(|f| f.program.as_deref());
    // While the fault is still planted: the reproducer must diverge
    // through the workspace's query-cached path too.
    let through_workspace = program.map(|p| (workspace_reports(p, 1), workspace_reports(p, 3)));
    DROP_LAST_REPORT_MT.store(false, Ordering::SeqCst);

    assert!(
        outcome.discrepancies > 0,
        "the threads oracle must catch the planted merge bug"
    );
    let finding = finding.expect("a deduplicated finding");
    let program = program.expect("program-based finding");
    let (one, many) = through_workspace.expect("program-based finding");
    assert_ne!(
        one, many,
        "Workspace::query must expose the planted merge bug as well"
    );
    assert_eq!(
        workspace_reports(program, 3),
        one,
        "and be clean without it"
    );
    assert!(
        program.lines().count() <= 15,
        "reproducer must shrink to <= 15 lines, got {}:\n{program}",
        program.lines().count()
    );
    assert!(finding.shrink_steps > 0);
    assert!(outcome.shrink_steps > 0);
    // The reproducer landed on disk, corpus-ready (.pp with a reference
    // `// expect:` header) since the single-threaded reference analysis
    // of the minimized program is healthy.
    let path = finding.reproducer.as_ref().expect("reproducer written");
    let body = std::fs::read_to_string(path).unwrap();
    assert!(body.contains("// fuzz-regression: oracle=threads"));
    assert!(body.contains("// expect: "));
    let _ = std::fs::remove_dir_all(&out_dir);
}
