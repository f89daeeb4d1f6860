//! The demand-driven detect stage against its oracles.
//!
//! The interface summaries (`ModuleSummaries`) are a memo over the
//! call-graph condensation: a read — a search's descent bit
//! (`param_fruitful`) — forces the callee cone below it and nothing
//! else. The whole-module table `ModuleSummaries::build_with_graph` runs
//! the same per-SCC computation over every function, so it is the
//! reference the on-demand summaries must equal, in any forcing order, at
//! any thread count. Reports are checked against the summary-free
//! reference search (`use_summaries: false`: no descent pruning),
//! including on programs built to trip the descent bits.

use pinpoint::core::{ModuleSeg, ModuleSummaries, Spec, SummaryCx};
use pinpoint::fuzz::oracles::custom_specs;
use pinpoint::ir::{CallGraph, FuncId, Module};
use pinpoint::workload::fuzzgen::{generate, FuzzGenConfig};
use pinpoint::workload::rng::SmallRng;
use pinpoint::{Analysis, AnalysisBuilder, CheckerKind, DetectConfig, Query, Workspace};
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
/// field for field (the descent bits included), the eager tables at 1 and
/// 4 threads.
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

/// The summary-free reference search over `a`: no descent pruning,
/// every other setting as built.
fn reference(a: &Analysis) -> Workspace<&Analysis> {
    a.session().with_config(DetectConfig {
        use_summaries: false,
        ..a.config()
    })
}

#[test]
fn summaries_equal_the_summary_free_reference_for_builtin_and_custom_specs() {
    // Every query prunes descents, custom specs included; the
    // summary-free search is the reference. The three custom specs cover
    // each source shape (free argument, call receiver through
    // transforms, null constant).
    let (mut reports, mut pruned, mut skipped) = ([0usize; 3], [0u64; 3], 0u64);
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
            let mut session = a.session();
            assert_eq!(
                render(session.query(&q).reports()),
                render(reference(&a).query(&q).reports()),
                "{name} / {kind}"
            );
            skipped += session.stats().detect.skipped_descents;
        }
        for (i, spec) in custom_specs().into_iter().enumerate() {
            let q = Query::Custom(spec);
            let mut session = a.session();
            let got = render(session.query(&q).reports());
            let expected = render(reference(&a).query(&q).reports());
            assert_eq!(got, expected, "{name} / {}", q.label());
            reports[i] += got.len();
            pruned[i] += session.stats().detect.skipped_descents;
        }
    }
    assert!(
        reports.iter().all(|&n| n > 0) && pruned.iter().all(|&n| n > 0),
        "each custom spec must both report and prune somewhere: {reports:?} {pruned:?}"
    );
    assert!(skipped > 0, "some built-in search must prune a descent");
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
    let mut fresh = ModuleSummaries::new(m.funcs.len());
    assert!(
        fresh.param_fruitful(&cx, top, 0),
        "the free at the bottom is reachable from the top"
    );
    assert_eq!(
        fresh.built, DEPTH as u64,
        "the descent bit forces the same cone"
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

fn render(reports: &[pinpoint::Report]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

/// The descent bit of formal `j` of `func` for use-after-free over `src`,
/// from an empty memo.
fn descent_bit(src: &str, func: &str, j: usize) -> bool {
    let (m, segs, cg) = artefact(src);
    let spec = CheckerKind::UseAfterFree.spec();
    let cx = SummaryCx::new(&m, &segs, &spec, &cg);
    let f = m.func_by_name(func).expect("function exists");
    ModuleSummaries::new(m.funcs.len()).param_fruitful(&cx, f, j)
}

/// Every checker over `src` with the summaries and without them, at 1 and
/// 2 threads: the reports must be equal. Returns the summarised run's
/// report count and skipped descents.
fn against_reference(src: &str) -> (usize, u64) {
    let mut seen = None;
    for threads in [1, 2] {
        let a = AnalysisBuilder::new()
            .threads(threads)
            .build_source(src)
            .unwrap();
        let mut session = a.session();
        let got = render(session.query(&Query::All).reports());
        let expected = render(reference(&a).query(&Query::All).reports());
        assert_eq!(
            got, expected,
            "summarised vs summary-free at {threads} threads"
        );
        let now = (got.len(), session.stats().detect.skipped_descents);
        assert_eq!(*seen.get_or_insert(now), now, "{threads} threads");
    }
    seen.expect("ran")
}

#[test]
fn a_formal_reaching_a_sink_and_the_return_is_descended() {
    let src = "fn use_and_pass(p: int*) -> int* { let x: int = *p; print(x); return p; }
         fn main() {
             let p: int* = malloc();
             free(p);
             let q: int* = use_and_pass(p);
             let y: int = *q;
             print(y);
             return;
         }";
    assert!(descent_bit(src, "use_and_pass", 0));
    let (reports, skipped) = against_reference(src);
    assert_eq!(
        (reports, skipped),
        (2, 0),
        "both dereferences, nothing pruned"
    );
}

#[test]
fn a_formal_reaching_only_a_dead_receiver_is_pruned() {
    // `drop_it`'s formal reaches `id`'s return, whose receiver in
    // `drop_it` is never read: the descent can find nothing. A lattice
    // that counts "reaches a callee's return" as fruitful descends.
    let src = "fn id(p: int*) -> int* { return p; }
         fn drop_it(p: int*) { let q: int* = id(p); return; }
         fn main() {
             let p: int* = malloc();
             free(p);
             drop_it(p);
             let x: int = *p;
             print(x);
             return;
         }";
    assert!(descent_bit(src, "id", 0), "id returns its formal");
    assert!(!descent_bit(src, "drop_it", 0));
    let (reports, skipped) = against_reference(src);
    assert_eq!(reports, 1, "the dereference in main");
    assert!(skipped > 0, "the descent into drop_it is pruned");
}

#[test]
fn overflow_keeps_descents_past_the_sixty_third_formal() {
    const WIDTH: usize = 70;
    let formals: Vec<String> = (0..WIDTH).map(|i| format!("p{i}: int*")).collect();
    let actuals: Vec<&str> = (0..WIDTH)
        .map(|i| if i == 65 { "p" } else { "o" })
        .collect();
    let src = format!(
        "fn wide({}) {{ let x: int = *p65; print(x); return; }}
         fn main() {{
             let p: int* = malloc();
             let o: int* = malloc();
             free(p);
             wide({});
             return;
         }}",
        formals.join(", "),
        actuals.join(", ")
    );
    assert!(descent_bit(&src, "wide", 65), "the dereferenced formal");
    assert!(
        descent_bit(&src, "wide", 64),
        "an index past 62 has no bit of its own: OVERFLOW answers fruitful"
    );
    assert!(
        !descent_bit(&src, "wide", 0),
        "a formal below 63 that reaches nothing"
    );
    let (reports, _) = against_reference(&src);
    assert_eq!(reports, 1, "the use after free through formal 65");
}

#[test]
fn direct_recursion_is_summary_free_like_the_search() {
    // `p` reaches the dereference only as `q` of the recursive call. The
    // search never follows a direct self-call (§4.2), and neither does
    // the summary: the descent into `p` is pruned and nothing is lost.
    let src = "fn rec(p: int*, q: int*, n: int) {
             if (n > 0) { rec(q, p, n - 1); }
             if (n == 0) { let x: int = *q; print(x); }
             return;
         }
         fn main() {
             let a: int* = malloc();
             let b: int* = malloc();
             free(a);
             rec(a, b, 3);
             let y: int = *a;
             print(y);
             return;
         }";
    assert!(!descent_bit(src, "rec", 0));
    assert!(descent_bit(src, "rec", 1));
    let (reports, skipped) = against_reference(src);
    assert_eq!(reports, 1, "the dereference in main");
    assert!(skipped > 0, "the descent into rec's first formal is pruned");
}

#[test]
fn a_mutual_recursion_scc_answers_alike_through_either_member() {
    // `ping`/`pong` reach `leaf`'s dereference; `bounce_a`/`bounce_b`
    // reach nothing. Each SCC is entered from `main` through both members.
    let src = "fn leaf(p: int*) { let x: int = *p; print(x); return; }
         fn ping(p: int*, n: int) { if (n > 0) { pong(p, n - 1); } return; }
         fn pong(p: int*, n: int) { if (n > 0) { ping(p, n - 1); } leaf(p); return; }
         fn bounce_a(p: int*, n: int) { if (n > 0) { bounce_b(p, n - 1); } return; }
         fn bounce_b(p: int*, n: int) { if (n > 0) { bounce_a(p, n - 1); } return; }
         fn main() {
             let a: int* = malloc();
             free(a);
             ping(a, 3);
             bounce_a(a, 3);
             let b: int* = malloc();
             free(b);
             pong(b, 3);
             bounce_b(b, 3);
             let x: int = *a;
             let y: int = *b;
             print(x);
             print(y);
             return;
         }";
    let (m, segs, cg) = artefact(src);
    let spec = CheckerKind::UseAfterFree.spec();
    let cx = SummaryCx::new(&m, &segs, &spec, &cg);
    let id = |n: &str| m.func_by_name(n).unwrap();
    let mut eager = ModuleSummaries::build_with_graph(&m, &segs, &spec, 1, None, &cg);
    for (members, fruitful) in [(["ping", "pong"], true), (["bounce_a", "bounce_b"], false)] {
        for order in [[0, 1], [1, 0]] {
            let mut lazy = ModuleSummaries::new(m.funcs.len());
            for i in order {
                let f = id(members[i]);
                assert_eq!(lazy.param_fruitful(&cx, f, 0), fruitful, "{}", members[i]);
                let eager_bit = eager.param_fruitful(&cx, f, 0);
                assert_eq!(eager_bit, fruitful, "{} in the eager table", members[i]);
            }
        }
    }
    let (reports, skipped) = against_reference(src);
    assert_eq!(reports, 4, "each pointer through the SCC and in main");
    assert!(skipped > 0, "the bounce SCC is pruned from either side");
}
