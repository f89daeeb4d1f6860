//! End-to-end checker benchmarks: Pinpoint vs the layered and dense
//! baselines on the same generated project (Tables 1/3 cost columns).

use pinpoint_bench::harness::bench;
use pinpoint_core::{Analysis, CheckerKind, Query};
use pinpoint_workload::{generate, generate_juliet, GenConfig};

fn bench_checkers() {
    println!("# group: checker");
    let project = generate(&GenConfig {
        seed: 5,
        real_bugs: 2,
        decoys: 2,
        taint: true,
        ..GenConfig::default().with_target_kloc(2.0)
    });
    bench("pinpoint_uaf_2kloc", 10, || {
        let a = Analysis::from_source(&project.source).unwrap();
        a.session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports()
            .len()
    });
    bench("pinpoint_taint_2kloc", 10, || {
        let a = Analysis::from_source(&project.source).unwrap();
        a.session()
            .query(&Query::Check(CheckerKind::PathTraversal))
            .into_reports()
            .len()
            + a.session()
                .query(&Query::Check(CheckerKind::DataTransmission))
                .into_reports()
                .len()
    });
    bench("layered_uaf_2kloc", 10, || {
        let module = pinpoint_ir::compile(&project.source).unwrap();
        let g = pinpoint_baseline::Fsvfg::build(&module);
        pinpoint_baseline::layered_check_uaf(&module, &g).len()
    });
    bench("dense_uaf_2kloc", 10, || {
        let module = pinpoint_ir::compile(&project.source).unwrap();
        pinpoint_baseline::dense_check(&module).len()
    });
    let juliet = generate_juliet(2);
    bench("juliet_102_cases", 10, || {
        let a = Analysis::from_source(&juliet.source).unwrap();
        a.session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports()
            .len()
    });
}

fn main() {
    bench_checkers();
}
