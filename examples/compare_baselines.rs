//! Head-to-head on a generated project with ground truth: Pinpoint vs
//! the layered (SVF-style) checker vs the dense per-unit (Infer/CSA-
//! style) checker — a miniature of the paper's Table 1 / Table 3
//! contrast.
//!
//! ```sh
//! cargo run --release --example compare_baselines
//! ```

use pinpoint::baseline::{dense_check, layered_check_uaf, Fsvfg};
use pinpoint::workload::{generate, GenConfig};
use pinpoint::{AnalysisBuilder, CheckerKind, Query};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let project = generate(&GenConfig {
        seed: 7,
        real_bugs: 3,
        decoys: 3,
        taint: false,
        ..GenConfig::default().with_target_kloc(2.0)
    });
    let real = project.bugs.iter().filter(|b| b.real).count();
    let decoys = project.bugs.len() - real;
    println!(
        "generated project: {} lines, {real} real memory bugs, {decoys} infeasible decoys\n",
        project.lines
    );

    // Pinpoint.
    let analysis = AnalysisBuilder::new().build_source(&project.source)?;
    let reports = analysis
        .session()
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    let hit = |marker: &str| {
        reports.iter().any(|r| {
            analysis.module.func(r.source_func).name.contains(marker)
                || analysis.module.func(r.sink_func).name.contains(marker)
        })
    };
    let found_real = project
        .bugs
        .iter()
        .filter(|b| b.real && hit(&b.marker))
        .count();
    let flagged_decoys = project
        .bugs
        .iter()
        .filter(|b| !b.real && hit(&b.marker))
        .count();
    println!(
        "Pinpoint      : {:>5} reports | {found_real}/{real} real bugs found | {flagged_decoys}/{decoys} decoys flagged",
        reports.len()
    );

    // Layered (Andersen + FSVFG, no conditions).
    let module = pinpoint::compile(&project.source)?;
    let g = Fsvfg::build(&module);
    let layered = layered_check_uaf(&module, &g);
    println!(
        "Layered (SVF) : {:>5} warnings | flow/context/path-insensitive traversal",
        layered.len()
    );

    // Dense per-unit checker.
    let dense = dense_check(&module);
    println!(
        "Dense (CSA)   : {:>5} warnings | per-function only, no path correlation",
        dense.len()
    );

    println!(
        "\nThe shape of the paper's result: Pinpoint reports few, precise \
         findings;\nthe layered checker floods (every decoy and many filler \
         flows);\nthe dense checker is quiet but misses every cross-function bug."
    );
    Ok(())
}
