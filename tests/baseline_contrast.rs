//! The precision contrasts of Tables 1 and 3, asserted as invariants on
//! generated workloads: the layered checker over-reports, the dense
//! per-unit checker under-reports across functions, and Pinpoint's report
//! set is precise on ground truth.

use pinpoint::baseline::{dense_check, layered_check_uaf, Fsvfg};
use pinpoint::workload::{generate, GenConfig};
use pinpoint::{Analysis, CheckerKind, Query};

fn project(seed: u64) -> pinpoint::workload::Generated {
    generate(&GenConfig {
        seed,
        real_bugs: 2,
        decoys: 4,
        taint: false,
        ..GenConfig::default().with_target_kloc(1.0)
    })
}

#[test]
fn layered_overreports_pinpoint() {
    let p = project(31);
    let analysis = Analysis::from_source(&p.source).unwrap();
    let pinpoint_reports = analysis
        .session()
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports()
        .len();
    let module = pinpoint::compile(&p.source).unwrap();
    let g = Fsvfg::build(&module);
    let layered = layered_check_uaf(&module, &g).len();
    assert!(
        layered > pinpoint_reports,
        "layered {layered} vs pinpoint {pinpoint_reports}"
    );
}

#[test]
fn layered_flags_decoys() {
    let p = project(32);
    let module = pinpoint::compile(&p.source).unwrap();
    let g = Fsvfg::build(&module);
    let warnings = layered_check_uaf(&module, &g);
    let flagged_decoys = p
        .bugs
        .iter()
        .filter(|b| !b.real)
        .filter(|b| {
            warnings.iter().any(|w| {
                module.func(w.source_func).name.contains(&b.marker)
                    || module.func(w.sink_func).name.contains(&b.marker)
            })
        })
        .count();
    assert!(
        flagged_decoys > 0,
        "the path-insensitive baseline must flag infeasible decoys"
    );
}

#[test]
fn dense_misses_cross_function_bugs() {
    // A project whose only real bugs are cross-call (shape 1/2 in the
    // generator rotates; use a seed that produces at least one).
    let src = "
        fn release(p: int*) { free(p); return; }
        fn main() {
            let p: int* = malloc();
            release(p);
            let x: int = *p;
            print(x);
            return;
        }";
    let module = pinpoint::compile(src).unwrap();
    assert!(dense_check(&module).is_empty(), "per-unit checker is blind");
    let analysis = Analysis::from_source(src).unwrap();
    assert_eq!(
        analysis
            .session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports()
            .len(),
        1,
        "pinpoint sees across the call"
    );
}

#[test]
fn pinpoint_false_positive_rate_low_on_ground_truth() {
    // Aggregate over several seeds: FP rate on ground-truth-matched
    // reports must stay at zero for decoys; the paper's overall rates
    // are 14.3%–23.6% on real code, dominated by unmodelled semantics.
    let mut real_found = 0usize;
    let mut real_total = 0usize;
    let mut decoys_flagged = 0usize;
    for seed in [41, 42, 43] {
        let p = project(seed);
        let analysis = Analysis::from_source(&p.source).unwrap();
        let reports = analysis
            .session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
        for b in &p.bugs {
            let hit = reports.iter().any(|r| {
                analysis.module.func(r.source_func).name.contains(&b.marker)
                    || analysis.module.func(r.sink_func).name.contains(&b.marker)
            });
            if b.real {
                real_total += 1;
                real_found += usize::from(hit);
            } else if hit {
                decoys_flagged += 1;
            }
        }
    }
    assert_eq!(real_found, real_total, "recall on injected bugs");
    assert_eq!(decoys_flagged, 0, "no decoy survives the SMT check");
}
