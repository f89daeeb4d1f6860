//! The demand-driven detect stage against its oracles.
//!
//! Interface summaries (`ModuleSummaries`) and descent summaries
//! (`ParamSummaries`) are memos over the call-graph condensation: a read
//! forces the callee cone below it and nothing else. The whole-module
//! tables — `ModuleSummaries::build_with_graph`, `ParamSummaries::build` —
//! run the same per-SCC computation over every function, so they are the
//! reference the on-demand bits must equal, in any forcing order, at any
//! thread count. The work-bound tests then pin the point of the exercise
//! with counters: a check forces what its sources reach, not the module.

use pinpoint::core::summary::ParamSummaries;
use pinpoint::core::{ModuleSeg, ModuleSummaries, Spec, SummaryCx};
use pinpoint::fuzz::oracles::custom_specs;
use pinpoint::ir::{CallGraph, FuncId, Module};
use pinpoint::workload::fuzzgen::{generate, FuzzGenConfig};
use pinpoint::workload::rng::SmallRng;
use pinpoint::{AnalysisBuilder, CheckerKind, Query, Workspace};
use std::path::PathBuf;

/// Module, SEGs and call graph of `src`, as the stand-alone layer entry
/// points build them.
fn artefact(src: &str) -> (Module, ModuleSeg, CallGraph) {
    let mut module = pinpoint::compile(src).expect("source compiles");
    let mut pta = pinpoint::pta::analyze_module(&mut module);
    let segs = ModuleSeg::build(&module, &mut pta.arena, &mut pta.symbols, &pta.pta);
    let cg = CallGraph::new(&module);
    (module, segs, cg)
}

/// Every function id of `m` in a seeded shuffled order.
fn shuffled(m: &Module, seed: u64) -> Vec<FuncId> {
    let mut order: Vec<FuncId> = m.iter_funcs().map(|(fid, _)| fid).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// Forces every function one at a time in `order`, checking each summary
/// against the oracle's the moment it is forced.
fn force_each(
    cx: &SummaryCx<'_>,
    funcs: usize,
    order: &[FuncId],
    oracle: &ModuleSummaries,
    what: &str,
) -> ModuleSummaries {
    let mut lazy = ModuleSummaries::new(funcs);
    for &f in order {
        assert_eq!(lazy.force(cx, f), oracle.get(f), "{what}: summary of {f:?}");
    }
    lazy
}

/// Lazy ≡ eager on one program, for one property: interface summaries
/// field for field and descent bits, the eager tables at 1 and 4 threads.
fn assert_lazy_equals_eager(src: &str, spec: &Spec, seed: u64, what: &str) {
    let (m, segs, cg) = artefact(src);
    let n = m.funcs.len();
    let order = shuffled(&m, seed);
    let eager = ModuleSummaries::build_with_graph(&m, &segs, spec, 1, None, &cg);
    let eager4 = ModuleSummaries::build_with_graph(&m, &segs, spec, 4, None, &cg);
    assert_eq!(eager, eager4, "{what}: eager table at 1 vs 4 threads");
    assert_eq!(eager.built, n as u64, "{what}");

    let cx = SummaryCx::new(&m, &segs, spec, &cg);
    let lazy = force_each(&cx, n, &order, &eager, what);
    assert_eq!(lazy, eager, "{what}: lazy table and counters");

    let mut all = ParamSummaries::build(&m, &segs, spec, &cg);
    let mut lazy = ParamSummaries::new(&m, &segs, spec, &cg);
    for &f in &order {
        for j in 0..m.func(f).params.len() {
            assert_eq!(
                lazy.descend_useful(f, j),
                all.descend_useful(f, j),
                "{what}: descend_useful({f:?}, {j})"
            );
        }
    }
}

/// The corpus programs followed by 50 seeded `fuzzgen` programs, by name.
fn corpus_and_fuzzgen() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut programs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pp"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable");
            (p.display().to_string(), src)
        })
        .collect();
    programs.sort();
    assert!(
        programs.len() >= 20,
        "corpus moved? found {}",
        programs.len()
    );
    for seed in 1..=50 {
        let src = generate(&FuzzGenConfig {
            seed,
            recursion: true,
            ..FuzzGenConfig::default()
        });
        programs.push((format!("fuzzgen seed {seed}"), src));
    }
    programs
}

#[test]
fn lazy_equals_eager_on_corpus_and_fuzzgen() {
    for (i, (name, src)) in corpus_and_fuzzgen().iter().enumerate() {
        for kind in CheckerKind::ALL {
            let what = format!("{name} / {kind}");
            assert_lazy_equals_eager(src, &kind.spec(), i as u64 + 1, &what);
        }
    }
}

#[test]
fn gated_equals_ungated_for_builtin_and_custom_specs() {
    // Every query is gated, custom specs included; the ungated search is
    // the reference. The three custom specs cover each source shape
    // (free argument, call receiver through transforms, null constant).
    let (mut reports, mut gated) = ([0usize; 3], [0u64; 3]);
    let mut programs = corpus_and_fuzzgen();
    // The generated programs never print a pointer.
    programs.push(("needle".into(), needle_in_haystack(3)));
    for (name, src) in programs {
        let a = AnalysisBuilder::new()
            .threads(1)
            .build_source(&src)
            .unwrap();
        for kind in CheckerKind::ALL {
            let q = Query::Check(kind);
            assert_eq!(
                render(a.session().query(&q).reports()),
                render(a.session().ungated().query(&q).reports()),
                "{name} / {kind}"
            );
        }
        for (i, spec) in custom_specs().into_iter().enumerate() {
            let q = Query::Custom(spec);
            let mut session = a.session();
            let got = render(session.query(&q).reports());
            let expected = render(a.session().ungated().query(&q).reports());
            assert_eq!(got, expected, "{name} / {}", q.label());
            reports[i] += got.len();
            gated[i] += session.stats().detect.summary_gated;
        }
    }
    assert!(
        reports.iter().all(|&n| n > 0) && gated.iter().all(|&n| n > 0),
        "each custom spec must both report and gate somewhere: {reports:?} {gated:?}"
    );
}

#[test]
fn scc_forced_through_either_member_gives_the_same_summaries() {
    // `ping`/`pong` form one SCC above `leaf`; `main` sits above them.
    let src = "fn leaf(p: int*) { free(p); return; }
         fn ping(p: int*, n: int) -> int* { let q: int* = pong(p, n); return q; }
         fn pong(p: int*, n: int) -> int* { leaf(p); let q: int* = ping(p, n); return p; }
         fn main() { let a: int* = malloc(); let b: int* = ping(a, 3); print(b); return; }";
    let (m, segs, cg) = artefact(src);
    let (ping, pong) = (
        m.func_by_name("ping").unwrap(),
        m.func_by_name("pong").unwrap(),
    );
    assert!(cg.same_scc(ping, pong) && ping < pong);
    for kind in CheckerKind::ALL {
        let spec = kind.spec();
        let eager = ModuleSummaries::build_with_graph(&m, &segs, &spec, 1, None, &cg);
        for first in [pong, ping] {
            let cx = SummaryCx::new(&m, &segs, &spec, &cg);
            let mut lazy = ModuleSummaries::new(m.funcs.len());
            lazy.force(&cx, first);
            assert_eq!(lazy.built, 3, "{kind}: the SCC and the leaf below it");
            for f in [ping, pong, m.func_by_name("leaf").unwrap()] {
                assert_eq!(lazy.get(f), eager.get(f), "{kind}: {f:?} via {first:?}");
            }
            assert_eq!(lazy.get(m.func_by_name("main").unwrap()), None);
        }
    }
}

#[test]
fn hundred_thousand_deep_chain_forces_on_a_test_thread_stack() {
    // Test threads get 2 MiB of stack; a recursive bottom-up walk over a
    // chain this deep would need tens of MiB.
    const DEPTH: usize = 100_000;
    let mut src = String::from("fn f0(p: int*) { free(p); return; }\n");
    for i in 1..DEPTH {
        src.push_str(&format!("fn f{i}(p: int*) {{ f{}(p); return; }}\n", i - 1));
    }
    let (m, segs, cg) = artefact(&src);
    let spec = CheckerKind::UseAfterFree.spec();
    let top = m.func_by_name(&format!("f{}", DEPTH - 1)).unwrap();
    let cx = SummaryCx::new(&m, &segs, &spec, &cg);
    let mut sums = ModuleSummaries::new(m.funcs.len());
    assert!(sums.force(&cx, top).is_some());
    assert_eq!(sums.built, DEPTH as u64, "the whole chain is one cone");
    assert!(
        ParamSummaries::new(&m, &segs, &spec, &cg).descend_useful(top, 0),
        "the free at the bottom is reachable from the top"
    );
}

/// One use-after-free whose pointer is passed to two callees, beside
/// `unrelated` functions no source ever reaches.
fn needle_in_haystack(unrelated: usize) -> String {
    let mut src = String::from(
        "fn deref(p: int*) { let x: int = *p; print(x); return; }
         fn show(p: int*) { print(p); return; }
         fn main() { let p: int* = malloc(); free(p); deref(p); show(p); return; }\n",
    );
    for i in 0..unrelated {
        src.push_str(&format!("fn u{i}(v: int) {{ print(v); return; }}\n"));
    }
    src
}

/// The most summaries one whole-program check may force on
/// [`needle_in_haystack`]: the two callees, for the one checker that has
/// a source (fewer when the first callee read already settles the gate).
const DEMANDED: u64 = 2;

fn render(reports: &[pinpoint::Report]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn check_all_forces_only_what_its_sources_reach() {
    let src = needle_in_haystack(20_000);
    let a = AnalysisBuilder::new()
        .threads(1)
        .build_source(&src)
        .unwrap();
    let expected = render(a.session().ungated().query(&Query::All).reports());
    assert_eq!(expected.len(), 1);
    let mut summary = a.session();
    assert_eq!(render(summary.query(&Query::All).reports()), expected);
    let stats = summary.stats().detect;
    assert!(
        (1..=DEMANDED).contains(&stats.summary_built),
        "20 003 functions, at most two demanded: {stats:?}"
    );
    // A second whole-program check finds them in memory.
    assert_eq!(render(summary.query(&Query::All).reports()), expected);
    assert_eq!(summary.stats().detect.summary_built, stats.summary_built);
}

#[test]
fn workspace_update_rebuilds_no_summary_that_is_not_demanded() {
    let src = needle_in_haystack(20_000);
    let mut ws = Workspace::open(&src).unwrap();
    let cold = render(&ws.query(&Query::All).into_reports());
    let before = ws.stats().detect.summary_built;
    assert!((1..=DEMANDED).contains(&before));
    let edited = src.replace(
        "fn u7(v: int) {",
        "fn u7(v: int) { let pad: int = 1; print(pad);",
    );
    let outcome = ws.update_source(&edited).unwrap();
    assert!(!outcome.fell_back && outcome.reanalyzed == 1, "{outcome:?}");
    assert_eq!(render(&ws.query(&Query::All).into_reports()), cold);
    let stats = ws.stats().detect;
    assert_eq!(
        stats.summary_built,
        2 * before,
        "the edit re-keys the module, so the gate forces the same callees \
         again — and nothing else: {stats:?}"
    );
}
