//! Stress tests for deep calling contexts and long value-flow paths —
//! the paper's §5.2 highlights a MySQL use-after-free whose control flow
//! spans 36 functions across 11 compilation units.

use pinpoint::{Analysis, CheckerKind, DetectConfig, Query, Report, Workspace};
use std::fmt::Write;

const UAF: Query = Query::Check(CheckerKind::UseAfterFree);

fn uaf(a: &Analysis) -> Vec<Report> {
    a.session().query(&UAF).into_reports()
}

/// Builds a program where the freed pointer travels through a chain of
/// `n` forwarding functions (each stores it into a fresh cell and loads
/// it back, so the flow alternates direct and memory edges) before the
/// caller dereferences it.
fn chain_program(n: usize) -> String {
    let mut src = String::new();
    // hop0 frees; hop_i forwards to hop_{i-1}.
    let _ = writeln!(src, "fn hop0(p: int*) -> int* {{ free(p); return p; }}");
    for i in 1..n {
        let _ = writeln!(
            src,
            "fn hop{i}(p: int*) -> int* {{
                let cell: int** = malloc();
                *cell = p;
                let q: int* = *cell;
                let r: int* = hop{}(q);
                return r;
            }}",
            i - 1
        );
    }
    let _ = writeln!(
        src,
        "fn main() {{
            let p: int* = malloc();
            let q: int* = hop{}(p);
            let x: int = *q;
            print(x);
            return;
        }}",
        n - 1
    );
    src
}

#[test]
fn bug_across_six_functions_found_at_default_depth() {
    let src = chain_program(5); // 5 hops + main = 6 functions
    let a = Analysis::from_source(&src).unwrap();
    let reports = uaf(&a);
    assert_eq!(reports.len(), 1, "{reports:?}");
    // The path crosses from hop0 (the free) back out to main (the deref).
    let r = &reports[0];
    assert_eq!(a.module.func(r.source_func).name, "hop0");
    assert_eq!(a.module.func(r.sink_func).name, "main");
    assert!(r.path.len() >= 8, "long path: {} steps", r.path.len());
}

#[test]
fn mysql_class_chain_found_with_deep_contexts() {
    // 36 functions like the paper's Bug #87203; needs a context budget
    // beyond the default 6.
    let src = chain_program(35);
    let a = Analysis::from_source(&src).unwrap();
    let config = DetectConfig {
        max_ctx_depth: 40,
        ..a.config()
    };
    let reports = a.session().with_config(config).query(&UAF).into_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert!(
        reports[0].path.len() > 35,
        "path spans the whole chain: {} steps",
        reports[0].path.len()
    );
}

#[test]
fn default_depth_misses_overdeep_chain() {
    // The soundiness trade-off is observable: at the default depth the
    // 35-hop chain is out of budget.
    let src = chain_program(35);
    let a = Analysis::from_source(&src).unwrap();
    let reports = uaf(&a);
    assert!(
        reports.is_empty(),
        "depth-6 budget cannot span 36 functions: {reports:?}"
    );
}

#[test]
fn wide_fanout_remains_fast() {
    // One dangerous flow among 120 harmless callees: the VF summaries
    // keep the search from exploring the noise.
    let mut src = String::new();
    for i in 0..120 {
        let _ = writeln!(src, "fn noise{i}(p: int*) {{ print({i}); return; }}");
    }
    let _ = writeln!(
        src,
        "fn hit(p: int*) {{ let x: int = *p; print(x); return; }}"
    );
    let mut main = String::from(
        "fn main() {
            let p: int* = malloc();
            free(p);
",
    );
    for i in 0..120 {
        let _ = writeln!(main, "    noise{i}(p);");
    }
    main.push_str("    hit(p);\n    return;\n}\n");
    src.push_str(&main);
    let a = Analysis::from_source(&src).unwrap();
    let mut session = a.session();
    let reports = session.query(&UAF).into_reports();
    assert_eq!(reports.len(), 1);
    let det = session.stats().detect;
    assert!(
        det.skipped_descents >= 120,
        "summaries skipped the noise: {}",
        det.skipped_descents
    );
    assert!(
        det.visited < 30,
        "search stayed on the bug path: {} visited",
        det.visited
    );
}

#[test]
fn incremental_update_preserves_verdicts() {
    use pinpoint::workload::{generate, GenConfig};
    let project = generate(&GenConfig {
        seed: 77,
        real_bugs: 2,
        decoys: 2,
        taint: false,
        ..GenConfig::default().with_target_kloc(1.0)
    });
    // Full analysis of the original.
    let mut ws = Workspace::open(&project.source).unwrap();
    let before: Vec<String> = ws
        .query(&UAF)
        .reports()
        .iter()
        .map(|r| r.to_string())
        .collect();
    // Edit one filler function (no semantic change to any bug): insert
    // a harmless statement at the start of filler0's body.
    let edited = {
        let needle = "fn filler0";
        let start = project.source.find(needle).unwrap();
        let brace = project.source[start..].find('{').unwrap() + start + 1;
        format!(
            "{}\n    let edited_marker: int = 123;\n    print(edited_marker);{}",
            &project.source[..brace],
            &project.source[brace..]
        )
    };
    let outcome = ws.update_source(&edited).unwrap();
    let reanalyzed = outcome.reanalyzed;
    let total = ws.analysis().module.funcs.len();
    assert!(
        reanalyzed < total / 2,
        "incremental reuse: {reanalyzed}/{total} re-analysed"
    );
    let after: Vec<String> = ws
        .query(&UAF)
        .reports()
        .iter()
        .map(|r| r.to_string())
        .collect();
    let mut b = before.clone();
    let mut a = after.clone();
    b.sort();
    a.sort();
    assert_eq!(b, a, "verdicts identical across the incremental update");
}
