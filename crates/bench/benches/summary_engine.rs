//! Whole-program engine benchmarks: the demand-driven `check_all`
//! versus the summary engine, at 1 and 4 threads.
//!
//! The summary engine forces per-function source→sink interface
//! summaries — bottom-up over the call-graph condensation, for the cones
//! its gate reads — and uses them to gate sources whose value flow
//! provably never reaches a sink, a global, or the function interface:
//! those sources skip the demand-driven search entirely (reports stay
//! byte-identical). The `summary-warm` rows re-answer from a session
//! that already holds the forced summaries in memory, isolating the
//! gate's per-query cost.

use pinpoint_bench::harness::{bench, smoke_mode};
use pinpoint_core::{AnalysisBuilder, Engine};
use pinpoint_workload::{generate, GenConfig};

fn bench_engines() {
    println!("# group: summary-engine");
    let kloc = if smoke_mode() { 1.0 } else { 10.0 };
    let project = generate(&GenConfig {
        seed: 29,
        real_bugs: 2,
        decoys: 2,
        taint: true,
        ..GenConfig::default().with_target_kloc(kloc)
    });
    for threads in [1usize, 4] {
        let analysis = AnalysisBuilder::new()
            .threads(threads)
            .build_source(&project.source)
            .unwrap();
        bench(&format!("demand/{kloc}kloc/t{threads}"), 5, || {
            let mut session = analysis.session().with_engine(Engine::Demand);
            session.check_all().len()
        });
        bench(&format!("summary-cold/{kloc}kloc/t{threads}"), 5, || {
            let mut session = analysis.session().with_engine(Engine::Summary);
            session.check_all().len()
        });
        let mut warm = analysis.session().with_engine(Engine::Summary);
        let _ = warm.check_all();
        bench(&format!("summary-warm/{kloc}kloc/t{threads}"), 5, || {
            warm.check_all().len()
        });
    }
}

fn main() {
    bench_engines();
}
