//! Cross-crate integration: generated projects with ground truth, full
//! pipeline, report matching.

use pinpoint::workload::{generate, BugKind, GenConfig};
use pinpoint::{Analysis, CheckerKind, Query};

/// Matches reports back to ground-truth markers by function names.
fn hits(analysis: &Analysis, reports: &[pinpoint::Report], marker: &str) -> usize {
    reports
        .iter()
        .filter(|r| {
            analysis.module.func(r.source_func).name.contains(marker)
                || analysis.module.func(r.sink_func).name.contains(marker)
        })
        .count()
}

#[test]
fn all_real_memory_bugs_found_no_decoys_flagged() {
    let project = generate(&GenConfig {
        seed: 11,
        real_bugs: 4,
        decoys: 4,
        taint: false,
        ..GenConfig::default().with_target_kloc(1.0)
    });
    let analysis = Analysis::from_source(&project.source).expect("compiles");
    let reports = analysis
        .session()
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    for bug in &project.bugs {
        let n = hits(&analysis, &reports, &bug.marker);
        if bug.real {
            assert!(n > 0, "missed real {:?} bug {}", bug.kind, bug.marker);
        } else {
            assert_eq!(n, 0, "flagged decoy {:?} {}", bug.kind, bug.marker);
        }
    }
}

#[test]
fn taint_bugs_found_decoys_refuted() {
    let project = generate(&GenConfig {
        seed: 23,
        real_bugs: 3,
        decoys: 3,
        taint: true,
        functions: 10,
        ..GenConfig::default()
    });
    let analysis = Analysis::from_source(&project.source).expect("compiles");
    let pt = analysis
        .session()
        .query(&Query::Check(CheckerKind::PathTraversal))
        .into_reports();
    let dt = analysis
        .session()
        .query(&Query::Check(CheckerKind::DataTransmission))
        .into_reports();
    for bug in &project.bugs {
        let reports = match bug.kind {
            BugKind::PathTraversal => &pt,
            BugKind::DataTransmission => &dt,
            _ => continue,
        };
        let n = hits(&analysis, reports, &bug.marker);
        if bug.real {
            assert!(n > 0, "missed {:?} {}", bug.kind, bug.marker);
        } else {
            assert_eq!(n, 0, "flagged decoy {:?} {}", bug.kind, bug.marker);
        }
    }
}

#[test]
fn analysis_is_deterministic() {
    let project = generate(&GenConfig {
        seed: 3,
        functions: 30,
        ..GenConfig::default()
    });
    let run = || {
        let a = Analysis::from_source(&project.source).unwrap();
        let mut reports: Vec<String> = a
            .session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports()
            .iter()
            .map(|r| r.to_string())
            .collect();
        reports.sort();
        reports
    };
    assert_eq!(run(), run());
}

#[test]
fn multiple_seeds_analyse_cleanly() {
    for seed in [1, 2, 3, 4, 5] {
        let project = generate(&GenConfig {
            seed,
            functions: 25,
            real_bugs: 2,
            decoys: 2,
            taint: true,
            ..GenConfig::default()
        });
        let analysis =
            Analysis::from_source(&project.source).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let reports = analysis.session().query(&Query::All).into_reports();
        // Every real bug's marker appears; no panic, no runaway.
        let real = project.bugs.iter().filter(|b| b.real).count();
        assert!(
            reports.len() >= real / 2,
            "seed {seed}: suspiciously few reports ({} for {real} real bugs)",
            reports.len()
        );
    }
}

#[test]
fn stats_are_consistent() {
    let project = generate(&GenConfig {
        seed: 9,
        functions: 20,
        real_bugs: 1,
        decoys: 1,
        ..GenConfig::default()
    });
    let analysis = Analysis::from_source(&project.source).unwrap();
    let mut session = analysis.session();
    let reports = session
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    let s = session.stats();
    assert_eq!(s.detect.reports as usize, reports.len());
    assert_eq!(
        s.detect.candidates,
        s.detect.reports + s.detect.refuted,
        "every candidate is either reported or refuted"
    );
    assert!(analysis.segs.edge_count > 0);
    assert!(analysis.segs.heap_bytes() > 0);
    assert!(!analysis.arena.is_empty());
}
