//! Retained-memory guard for detection — counts, not clocks. Its own test
//! binary because it installs the counting global allocator; one `#[test]`
//! because the counters are process-wide.
//!
//! What it pins: a whole-program check through a borrowed session keeps
//! almost nothing per function once it returns. The session holds its
//! counters, query records and verdicts, which grow with the candidates,
//! not with the module; the interface summaries a search forces live
//! only as long as that search's detect worker.

use pinpoint_bench::CountingAlloc;
use pinpoint_core::{AnalysisBuilder, Query};
use pinpoint_workload::gen::{generate, GenConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes per function a borrowed session retains after
/// `query(&Query::All)` over a generated project of `kloc` thousand lines.
fn retained_per_func(kloc: f64) -> f64 {
    let project = generate(&GenConfig {
        seed: 1,
        ..GenConfig::default().with_target_kloc(kloc)
    });
    let analysis = AnalysisBuilder::new()
        .threads(1)
        .build_source(&project.source)
        .expect("generated projects compile");
    let funcs = analysis.module.funcs.len();
    let before = CountingAlloc::live();
    CountingAlloc::reset_peak();
    let mut session = analysis.session();
    let reports = session.query(&Query::All).into_reports().len();
    let retained = CountingAlloc::live().saturating_sub(before);
    let peak = CountingAlloc::peak() - before;
    drop(session);
    let per_func = retained as f64 / funcs as f64;
    eprintln!(
        "{kloc} KLoC: {funcs} functions, {reports} reports, {per_func:.1} B retained \
         per function ({retained} B), peak {:.2} MiB over the analysis",
        peak as f64 / (1 << 20) as f64
    );
    per_func
}

#[test]
fn a_check_retains_almost_nothing_per_function() {
    for kloc in [20.0, 60.0] {
        let per_func = retained_per_func(kloc);
        assert!(
            per_func < 8.0,
            "{kloc} KLoC: the session retains {per_func:.1} B per function"
        );
    }
}
