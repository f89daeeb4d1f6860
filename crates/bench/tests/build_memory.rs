//! Transient-memory guard for the build stages — counts, not clocks. Its
//! own test binary because it installs the counting global allocator; one
//! `#[test]` because the counters are process-wide.
//!
//! What it pins: while an [`Analysis`](pinpoint_core::Analysis) is built,
//! the heap never holds much more than the analysis being returned, and
//! the excess does not grow with the input; and what it returns stays
//! within a fixed number of heap bytes per IR instruction. A build's
//! points-to transient is one function's private arena, in flight from
//! its analysis to its merge (the SEG is built straight into the shared
//! arena); what it returns carries no points-to tables (a build
//! keeps only the memory edges, global accesses and counters the SEG and
//! an edit read) and no spare capacity.

use pinpoint_bench::CountingAlloc;
use pinpoint_core::AnalysisBuilder;
use pinpoint_workload::gen::{generate, GenConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What building a generated project of `kloc` thousand lines costs.
struct Cost {
    /// Peak live heap while building over the live heap of the returned
    /// analysis, both counted from the state before the call.
    peak_over_kept: f64,
    /// Live heap of the returned analysis per instruction of its module.
    kept_per_inst: f64,
}

fn cost(kloc: f64) -> Cost {
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
    let insts = analysis.module.inst_count();
    drop(analysis);
    let cost = Cost {
        peak_over_kept: peak as f64 / kept as f64,
        kept_per_inst: kept as f64 / insts as f64,
    };
    eprintln!(
        "{kloc} KLoC: peak {:.2} MiB over kept {:.2} MiB, {:.0} B kept per instruction",
        peak as f64 / (1 << 20) as f64,
        kept as f64 / (1 << 20) as f64,
        cost.kept_per_inst
    );
    cost
}

#[test]
fn build_peak_stays_close_to_the_analysis_it_returns() {
    let at_20 = cost(20.0);
    assert!(
        at_20.peak_over_kept <= 1.10,
        "20 KLoC: peak heap is {:.3} × the analysis",
        at_20.peak_over_kept
    );
    let at_60 = cost(60.0);
    assert!(
        at_60.peak_over_kept <= 1.06,
        "60 KLoC: peak heap is {:.3} × the analysis",
        at_60.peak_over_kept
    );
    // 145 B per instruction when this bound was set (163 B while a build
    // kept every function's points-to sets, 234 B while the IR held
    // strings), plus 10 %.
    for (kloc, at) in [(20, &at_20), (60, &at_60)] {
        assert!(
            at.kept_per_inst <= 160.0,
            "{kloc} KLoC: the analysis keeps {:.0} B per instruction",
            at.kept_per_inst
        );
    }
}
