//! Incremental re-analysis: edit one function, pay for one caller chain.
//!
//! The paper frames its performance target against the industrial
//! requirement of checking millions of lines within hours; day-to-day,
//! that only works if a one-function edit does not re-run the whole
//! pipeline. Pinpoint's bottom-up architecture makes the dependency
//! structure explicit: a function's analysis depends on its own IR and
//! its callees' connector shapes — so an edit dirties exactly its
//! transitive caller chain.
//!
//! Two mechanisms deliver that, demonstrated below:
//!
//! 1. **in-process** — a long-lived [`Workspace`] accepts edits, detects
//!    what changed by diffing content fingerprints, splices the clean
//!    functions' artefacts, and re-answers checks reusing every cached
//!    per-source query whose *cone* (the set of functions its search
//!    visited) the edit did not touch;
//! 2. **cross-run** — [`AnalysisBuilder::cache_dir`] persists what the
//!    solver decided, keyed by condition fingerprint, so even a fresh
//!    process solves only the conditions the edit changed. (The cheap
//!    stages — points-to, SEG — are recomputed: that is faster than
//!    reading them back.)
//!
//! ```sh
//! cargo run --release --example incremental
//! ```

use pinpoint::workload::{generate, GenConfig};
use pinpoint::{AnalysisBuilder, CheckerKind, Query, Workspace};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let project = generate(&GenConfig {
        seed: 5,
        real_bugs: 2,
        decoys: 2,
        taint: false,
        ..GenConfig::default().with_target_kloc(20.0)
    });
    println!(
        "project: {} lines, {} functions",
        project.lines,
        project.source.matches("fn ").count()
    );

    // Open a workspace: full analysis once, then live across edits.
    let t0 = Instant::now();
    let mut ws = Workspace::open(&project.source)?;
    let full_time = t0.elapsed();
    let uaf = Query::Check(CheckerKind::UseAfterFree);
    let baseline: usize = ws.query(&uaf).len();
    println!("cold open + check: {full_time:?}, {baseline} reports");

    // Edit one leaf-ish filler function.
    let edited = {
        let needle = "fn filler1(";
        let start = project.source.find(needle).expect("filler1 exists");
        let brace = project.source[start..].find('{').unwrap() + start + 1;
        format!(
            "{}\n    let hotfix: int = 1;\n    print(hotfix);{}",
            &project.source[..brace],
            &project.source[brace..]
        )
    };
    let t1 = Instant::now();
    // No need to say what changed: the workspace diffs per-function
    // fingerprints and dirties exactly the edit's caller chain.
    let outcome = ws.update_source(&edited)?;
    let after = ws.query(&uaf).len();
    let warm_time = t1.elapsed();
    let total = ws.analysis().module.funcs.len();
    let c = ws.counters();
    println!(
        "warm update + check: {warm_time:?}, {}/{total} functions re-analysed, \
         {}/{} source queries answered from cache, {after} reports",
        outcome.reanalyzed,
        c.queries_reused,
        c.queries_reused + c.queries_rerun,
    );
    assert_eq!(baseline, after, "verdicts stable across the edit");
    assert!(outcome.reanalyzed < total / 4, "most of the project reused");
    assert!(c.queries_reused > 0, "warm check replayed cached queries");
    println!(
        "\nend-to-end speedup: ~{:.1}x (the floor is re-lowering the edited\n\
         source text; the analysis stages themselves — points-to,\n\
         transformation, SEG construction — ran for {}/{} functions only)",
        full_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9),
        outcome.reanalyzed,
        total
    );

    // Reuse across *runs*: the verdict table persists, keyed by condition
    // fingerprint. The first check fills it; a later run (here, of the
    // edited source — imagine a fresh process after the edit) replays
    // every verdict whose condition the edit left alone.
    let dir = std::env::temp_dir().join(format!("pinpoint-example-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = AnalysisBuilder::new()
        .cache_dir(&dir)
        .build_source(&project.source)?;
    let mut first = cold.session();
    let t2 = Instant::now();
    let first_reports = first.query(&Query::All).into_reports().len();
    let first_time = t2.elapsed();
    let solved = first.stats().detect.verdict_misses;
    let warm = AnalysisBuilder::new()
        .cache_dir(&dir)
        .build_source(&edited)?;
    let mut second = warm.session();
    let t3 = Instant::now();
    let second_reports = second.query(&Query::All).into_reports().len();
    let second_time = t3.elapsed();
    let d = second.stats().detect;
    println!(
        "\npersistent verdicts ({}):\n  first check: {first_time:?} ({solved} conditions solved \
         and stored)\n  the check of a fresh build after the edit: {second_time:?} — {} replayed, {} solved",
        dir.display(),
        d.verdict_hits,
        d.verdict_misses,
    );
    assert_eq!(warm.stats.cache.hits, 1, "the stored table was loaded");
    assert!(d.verdict_misses < solved, "the second run solves less");
    assert_eq!(first_reports, second_reports, "warm verdicts identical");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
