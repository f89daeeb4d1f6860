//! Transient-memory guard for the build stages — counts, not clocks. Its
//! own test binary because it installs the counting global allocator; one
//! `#[test]` because the counters are process-wide.
//!
//! What it pins: while an [`Analysis`](pinpoint_core::Analysis) is built,
//! the heap never holds much more than the analysis being returned, and
//! the excess does not grow with the input. A build's transients are the
//! points-to stage's private arenas of the functions analysed but not yet
//! merged, which it bounds by a constant (the SEG is built straight into
//! the shared arena); what it returns carries no dead points-to facts and
//! no spare capacity.

use pinpoint_bench::CountingAlloc;
use pinpoint_core::AnalysisBuilder;
use pinpoint_workload::gen::{generate, GenConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live heap while building a generated project of `kloc` thousand
/// lines over the live heap of the returned analysis, both counted from
/// the state before the call.
fn peak_over_kept(kloc: f64) -> f64 {
    let project = generate(&GenConfig {
        seed: 1,
        ..GenConfig::default().with_target_kloc(kloc)
    });
    let before = CountingAlloc::live();
    CountingAlloc::reset_peak();
    let analysis = AnalysisBuilder::new()
        .threads(1)
        .build_source(&project.source)
        .expect("generated projects compile");
    let kept = CountingAlloc::live() - before;
    let peak = CountingAlloc::peak() - before;
    drop(analysis);
    eprintln!(
        "{kloc} KLoC: peak {:.2} MiB over kept {:.2} MiB",
        peak as f64 / (1 << 20) as f64,
        kept as f64 / (1 << 20) as f64
    );
    peak as f64 / kept as f64
}

#[test]
fn build_peak_stays_close_to_the_analysis_it_returns() {
    let at_20 = peak_over_kept(20.0);
    assert!(
        at_20 <= 1.10,
        "20 KLoC: peak heap is {at_20:.3} × the analysis"
    );
    let at_60 = peak_over_kept(60.0);
    assert!(
        at_60 <= 1.06,
        "60 KLoC: peak heap is {at_60:.3} × the analysis"
    );
}
