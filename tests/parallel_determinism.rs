//! Thread-count invariance: the parallel pipeline's merges are
//! deterministic, so the analysis must produce *byte-identical* reports
//! — contents and order — for any worker count. Checked on a generated
//! workload and on every program in the regression corpus.

use pinpoint::workload::{generate, GenConfig};
use pinpoint::{AnalysisBuilder, CheckerKind, Query};
use std::path::PathBuf;

/// Renders every checker's reports (in checker order) to one string per
/// report, preserving detection order — the exact user-visible output.
fn all_reports(source: &str, threads: usize) -> Vec<String> {
    let analysis = AnalysisBuilder::new()
        .threads(threads)
        .build_source(source)
        .expect("source compiles");
    let mut session = analysis.session();
    let mut out = Vec::new();
    for kind in CheckerKind::ALL {
        out.extend(
            session
                .query(&Query::Check(kind))
                .reports()
                .iter()
                .map(ToString::to_string),
        );
    }
    out
}

#[test]
fn generated_workload_reports_identical_across_thread_counts() {
    let project = generate(&GenConfig {
        seed: 17,
        real_bugs: 3,
        decoys: 3,
        taint: true,
        ..GenConfig::default().with_target_kloc(2.0)
    });
    let sequential = all_reports(&project.source, 1);
    assert!(
        !sequential.is_empty(),
        "workload must produce reports for the comparison to mean anything"
    );
    let parallel = all_reports(&project.source, 4);
    assert_eq!(
        sequential, parallel,
        "threads=4 must match threads=1 byte for byte, including order"
    );
}

#[test]
fn corpus_reports_identical_across_thread_counts() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pp"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    for path in &entries {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(path).expect("readable");
        let sequential = all_reports(&source, 1);
        let parallel = all_reports(&source, 4);
        assert_eq!(
            sequential, parallel,
            "{file}: threads=4 diverges from threads=1"
        );
    }
}

/// Runs every checker with tracing on and returns the canonical (timing-
/// and lane-free) stats and trace JSON documents.
fn canonical_obs(source: &str, threads: usize) -> (String, String) {
    let analysis = AnalysisBuilder::new()
        .threads(threads)
        .trace(true)
        .build_source(source)
        .expect("source compiles");
    let mut session = analysis.session();
    session.query(&Query::All);
    (session.stats_json(true), session.trace_canonical_json())
}

#[test]
fn canonical_stats_and_trace_identical_across_thread_counts() {
    // The observability layer must not perturb determinism: with
    // wall-clock values zeroed and lanes dropped, the stats document
    // (including per-query attribution ids/outcomes/conflict counts) and
    // the span tree must be byte-identical at any worker count.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pp"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    let mut saw_queries = false;
    for path in &entries {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(path).expect("readable");
        let (stats1, trace1) = canonical_obs(&source, 1);
        let (stats4, trace4) = canonical_obs(&source, 4);
        assert_eq!(stats1, stats4, "{file}: canonical stats JSON diverges");
        assert_eq!(trace1, trace4, "{file}: canonical trace JSON diverges");
        saw_queries |= stats1.contains("\"checker\":");
        for family in [
            "\"frontend\":{\"bytes\":",
            "\"tokens\":",
            "\"callgraph\"",
            "\"keys\"",
            "\"pta\"",
            "\"seg\":{\"bytes\":",
            "\"cache\":{\"hits\":0,",
            "detect",
            "smt",
        ] {
            assert!(
                stats1.contains(family),
                "{file}: stats JSON missing stage family {family}"
            );
        }
        let smt = stats1
            .split_once("\"smt\":{")
            .and_then(|(_, rest)| rest.split_once('}'))
            .expect("smt family")
            .0;
        let keys: Vec<&str> = smt
            .split(',')
            .filter_map(|field| field.split(':').next())
            .collect();
        assert_eq!(
            keys,
            [
                "\"budget_exhausted\"",
                "\"conflicts\"",
                "\"decisions\"",
                "\"incremental.reused_clauses\"",
                "\"incremental.sessions\"",
                "\"learned\"",
                "\"propagations\"",
                "\"queries\"",
                "\"solve_ns\"",
                "\"theory_checks\"",
                "\"theory_conflicts\"",
                "\"verdict.hits\"",
                "\"verdict.misses\"",
                "\"verdict.persisted\"",
            ],
            "{file}: the smt family's keys"
        );
        let pta = stats1
            .split_once("\"pta\":{")
            .and_then(|(_, rest)| rest.split_once('}'))
            .expect("pta family")
            .0;
        let keys: Vec<&str> = pta
            .split(',')
            .filter_map(|field| field.split(':').next())
            .collect();
        assert_eq!(
            keys,
            [
                "\"final_passes\"",
                "\"kept\"",
                "\"linear_checks\"",
                "\"pruned\"",
                "\"time_ns\"",
            ],
            "{file}: the pta family's keys"
        );
        for span in ["frontend", "frontend.split", "callgraph"] {
            assert_eq!(
                trace1.matches(&format!("\"name\":\"{span}\"")).count(),
                1,
                "{file}: exactly one {span} span per build"
            );
        }
        assert!(
            !trace1.contains("\"name\":\"keys\""),
            "{file}: a build for one-shot queries derives no keys"
        );
        let funcs = stats1
            .split_once("\"funcs\":")
            .and_then(|(_, rest)| rest.split(',').next()?.parse::<usize>().ok())
            .expect("frontend.funcs counter");
        assert_eq!(
            trace1.matches("\"name\":\"frontend.lower\"").count(),
            funcs,
            "{file}: one frontend.lower span per function, whatever the shard"
        );
        let sources = stats1
            .split_once("\"detect\":{")
            .and_then(|(_, rest)| rest.split_once("\"sources\":"))
            .and_then(|(_, rest)| rest.split([',', '}']).next()?.parse::<usize>().ok())
            .expect("detect.sources counter");
        assert_eq!(
            trace1.matches("\"name\":\"detect.source\"").count(),
            sources,
            "{file}: one detect.source span per source"
        );
    }
    assert!(
        saw_queries,
        "at least one corpus program must exercise per-query attribution"
    );
}

#[test]
fn a_build_for_an_owned_workspace_derives_keys_once() {
    let source = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/callee_pair.pp"),
    )
    .expect("readable");
    for threads in [1, 4] {
        let ws = AnalysisBuilder::new()
            .threads(threads)
            .trace(true)
            .open_workspace(&source)
            .expect("source compiles");
        let trace = ws.trace_canonical_json();
        assert_eq!(trace.matches("\"name\":\"keys\"").count(), 1, "{trace}");
    }
}

#[test]
fn profile_table_identical_across_thread_counts() {
    let project = generate(&GenConfig {
        seed: 17,
        real_bugs: 3,
        decoys: 3,
        taint: true,
        ..GenConfig::default().with_target_kloc(2.0)
    });
    let profile = |threads: usize| {
        let analysis = AnalysisBuilder::new()
            .threads(threads)
            .build_source(&project.source)
            .expect("compiles");
        let mut session = analysis.session();
        session.query(&Query::All);
        assert!(
            !session.queries().is_empty(),
            "workload must produce queries"
        );
        // The table is sorted by solver time, which varies run to run, so
        // compare the sorted row *contents* minus the time column.
        let mut rows: Vec<String> = session
            .profile(usize::MAX)
            .lines()
            .skip(2)
            .map(|l| {
                l.rsplit_once(char::is_whitespace)
                    .map_or(l, |(a, _)| a)
                    .trim_end()
                    .to_string()
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(profile(1), profile(4));
}

#[test]
fn stage_statistics_identical_across_thread_counts() {
    // Not just the reports: the structural outputs of the parallel build
    // (SEG sizes, term counts) must also be invariant.
    let project = generate(&GenConfig {
        seed: 29,
        real_bugs: 2,
        decoys: 2,
        taint: false,
        ..GenConfig::default().with_target_kloc(1.0)
    });
    let build = |threads: usize| {
        AnalysisBuilder::new()
            .threads(threads)
            .build_source(&project.source)
            .expect("compiles")
    };
    let a1 = build(1);
    let a4 = build(4);
    assert_eq!(a1.segs.vertex_count, a4.segs.vertex_count);
    assert_eq!(a1.segs.edge_count, a4.segs.edge_count);
    assert_eq!(a1.segs.heap_bytes(), a4.segs.heap_bytes());
    assert_eq!(a1.arena.len(), a4.arena.len());
}
