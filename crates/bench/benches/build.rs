//! Build-stage benchmarks for Fig. 7's core contrast — building
//! Pinpoint's SEGs vs the layered baseline's FSVFG at two program sizes
//! (the FSVFG's memory def-use cross product is quadratic under
//! imprecise points-to) — plus the `parallel` group comparing the
//! end-to-end pipeline at 1 worker vs the machine's parallelism on the
//! large generated workload.

use pinpoint_bench::harness::{bench, smoke_mode};
use pinpoint_core::{default_threads, AnalysisBuilder, Query};
use pinpoint_workload::{generate, GenConfig};

fn bench_builds() {
    println!("# group: build");
    let klocs: &[f64] = if smoke_mode() { &[1.0] } else { &[1.0, 5.0] };
    for &kloc in klocs {
        let project = generate(&GenConfig {
            seed: 5,
            real_bugs: 1,
            decoys: 1,
            taint: false,
            ..GenConfig::default().with_target_kloc(kloc)
        });
        bench(&format!("seg/{kloc}kloc"), 10, || {
            let module = pinpoint_ir::compile(&project.source).unwrap();
            pinpoint_core::Analysis::from_module(module)
        });
        bench(&format!("fsvfg/{kloc}kloc"), 10, || {
            let module = pinpoint_ir::compile(&project.source).unwrap();
            pinpoint_baseline::Fsvfg::build(&module)
        });
    }
}

/// One worker vs the machine's parallelism, over the full pipeline
/// (points-to → SEG → every checker) on the large generated workload.
/// The merges are deterministic, so both rows produce identical reports;
/// only the wall time differs.
fn bench_parallel() {
    println!("# group: parallel");
    let kloc = if smoke_mode() { 1.0 } else { 10.0 };
    let project = generate(&GenConfig {
        seed: 7,
        real_bugs: 4,
        decoys: 4,
        taint: true,
        ..GenConfig::default().with_target_kloc(kloc)
    });
    let n = default_threads().max(2);
    if default_threads() == 1 {
        println!(
            "# note: single-core host — the threads={n} row measures pure \
             coordination overhead, not speedup"
        );
    }
    let mut report_renderings: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, n] {
        bench(&format!("pipeline/{kloc}kloc/threads={threads}"), 5, || {
            let analysis = AnalysisBuilder::new()
                .threads(threads)
                .build_source(&project.source)
                .unwrap();
            analysis.session().query(&Query::All).into_reports().len()
        });
        let analysis = AnalysisBuilder::new()
            .threads(threads)
            .build_source(&project.source)
            .unwrap();
        report_renderings.push(
            analysis
                .session()
                .query(&Query::All)
                .into_reports()
                .iter()
                .map(ToString::to_string)
                .collect(),
        );
    }
    assert!(
        report_renderings.windows(2).all(|w| w[0] == w[1]),
        "thread counts must not change reports"
    );
}

fn main() {
    bench_builds();
    bench_parallel();
}
