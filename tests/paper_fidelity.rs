//! Tests pinned to the paper's worked examples (§2–§3): each asserts a
//! behaviour the text derives by hand for the `foo`/`bar`/`qux` program
//! of Fig. 1/2 and the `test`/`foo` program of Fig. 5.

use pinpoint::core::cond::{CondBuilder, CondConfig, CtxInterner, ROOT};
use pinpoint::core::seg::{EdgeKind, ModuleSeg};
use pinpoint::ir::{Inst, Module};
use pinpoint::pta::{ModuleAnalysis, Symbols};
use pinpoint::smt::{SmtResult, SmtSession, TermArena};
use pinpoint::{Analysis, CheckerKind, Query};

/// The paper's bar function (Fig. 2 / Fig. 4), with θ₃ = (*q ≠ 0) and
/// θ₄ opaque.
const BAR: &str = "
    global gb: int;
    fn bar(q: int**) {
        let c: int* = malloc();
        let t3: bool = *q != null;
        if (t3) {
            *q = c;
            free(c);
        } else {
            let t4: bool = nondet_bool();
            if (t4) { *q = gb; }
        }
        let y: int* = *q;
        print(y);
        return;
    }
";

struct Fixture {
    module: Module,
    analysis: ModuleAnalysis,
    segs: ModuleSeg,
    arena: TermArena,
    symbols: Symbols,
}

fn build(src: &str) -> Fixture {
    let mut module = pinpoint::compile(src).unwrap();
    let mut analysis = pinpoint::pta::analyze_module(&mut module);
    let mut arena = std::mem::take(&mut analysis.arena);
    let mut symbols = std::mem::take(&mut analysis.symbols);
    let segs = ModuleSeg::build(&module, &mut arena, &mut symbols, &analysis.pta);
    Fixture {
        module,
        analysis,
        segs,
        arena,
        symbols,
    }
}

/// Example 3.4: the load `y = *q` must see the store `*q = c` under a
/// condition equivalent to θ₃, and the store of `gb` under ¬θ₃ ∧ θ₄.
#[test]
fn example_3_4_conditional_data_dependence() {
    let mut fx = build(BAR);
    let bar = fx.module.func_by_name("bar").unwrap();
    let f = fx.module.func(bar);
    let seg = fx.segs.seg(bar);
    // Find the memory edges into the load defining y ("ld" feeding "y").
    let mem_edges: Vec<_> = f
        .iter_insts()
        .filter_map(|(_, i)| match i {
            Inst::Load { dst, .. } => Some(*dst),
            _ => None,
        })
        .flat_map(|dst| seg.preds(dst))
        .filter(|e| e.kind == EdgeKind::Memory)
        .collect();
    assert!(
        mem_edges.len() >= 2,
        "y sees both conditional stores: {mem_edges:?}"
    );
    // Every such edge carries a non-trivial condition.
    let conditional = mem_edges
        .iter()
        .filter(|e| !fx.arena.is_true(e.cond))
        .count();
    assert!(conditional >= 2, "edges must be gated");
    let _ = &mut fx;
}

/// Example 3.6: the "efficient path condition" on which `return` is
/// reachable is `true` — the return block has no control dependences, so
/// no verbose disjunction θ₃ ∨ (¬θ₃ ∧ θ₄) ∨ … is built.
#[test]
fn example_3_6_efficient_path_condition_of_return() {
    let mut fx = build(BAR);
    let bar = fx.module.func_by_name("bar").unwrap();
    let f = fx.module.func(bar);
    let ret_block = f.return_block().unwrap();
    let mut ctxs = CtxInterner::new();
    let mut cb = CondBuilder::new(
        &fx.module,
        &fx.segs,
        &mut fx.symbols,
        &mut fx.arena,
        &mut ctxs,
        CondConfig::default(),
    );
    cb.add_control_deps(bar, ret_block, ROOT, 6);
    assert!(
        cb.is_empty(),
        "CD(return) must be empty — the efficient path condition is true"
    );
}

/// Example 3.7/3.8 combined: in BAR the freed value flows to `y` but is
/// never dereferenced — no report. Adding a dereference of `y` creates
/// exactly one report whose condition includes the data-dependence guard
/// θ₃ (satisfiable because the entry content of `*q` is unconstrained).
#[test]
fn example_3_7_dd_closure_grounds_theta3() {
    // The original BAR: y = *q is a load through q, not through the
    // freed c; y itself is only printed. No use-after-free.
    let analysis = Analysis::from_source(BAR).unwrap();
    let reports = analysis
        .session()
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    assert!(reports.is_empty(), "y is never dereferenced: {reports:?}");

    // With `print(*y)` the freed value is dereferenced under θ₃.
    let deref_src = BAR.replace("print(y);", "print(*y);");
    let analysis = Analysis::from_source(&deref_src).unwrap();
    let reports = analysis
        .session()
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert!(
        reports[0].condition_size > 0,
        "the path condition carries θ₃'s DD chain"
    );
}

/// Fig. 5 / Example 3.9–3.10: the RV summary of `test` constrains the
/// caller's receiver: `t = test(c)` with `t` asserted true entails
/// `c ≠ null`.
#[test]
fn example_3_10_rv_summary() {
    let mut fx = build(
        "fn test(e: int*) -> bool {
            let f: bool = e != null;
            return f;
        }
        fn foo(c: int*) -> bool {
            let t: bool = test(c);
            return t;
        }",
    );
    let foo = fx.module.func_by_name("foo").unwrap();
    let ret = fx.module.func(foo).return_values()[0];
    let param = fx.module.func(foo).params[0];
    let closure = {
        let mut ctxs = CtxInterner::new();
        let mut cb = CondBuilder::new(
            &fx.module,
            &fx.segs,
            &mut fx.symbols,
            &mut fx.arena,
            &mut ctxs,
            CondConfig::default(),
        );
        cb.add_value_closure(foo, ret, ROOT, 6);
        cb.condition()
    };
    let f = fx.module.func(foo);
    let t_term = fx.symbols.value_term(&mut fx.arena, foo, f, ret);
    let c_term = fx.symbols.value_term(&mut fx.arena, foo, f, param);
    let zero = fx.arena.int(0);
    let c_null = fx.arena.eq(c_term, zero);
    let query = fx.arena.and([closure, t_term, c_null]);
    let mut solver = SmtSession::new();
    assert_eq!(
        solver.check(&fx.arena, query),
        SmtResult::Unsat,
        "t ⇒ c ≠ null through ① t = f, ② f = (e ≠ 0), ③ e = c"
    );
}

/// §2's bottom line: for the Fig. 1 program, Pinpoint computes exactly
/// one inter-procedural data-dependence relation relevant to the bug and
/// solves one path condition — operationally, one candidate and one
/// report, none refuted.
#[test]
fn section_2_exactly_one_candidate() {
    let src = "
        global gb: int;
        fn foo(a: int*) {
            let ptr: int** = malloc();
            *ptr = a;
            if (nondet_bool()) { bar(ptr); } else { qux(ptr); }
            let f: int* = *ptr;
            if (nondet_bool()) { print(*f); }
            return;
        }
        fn bar(q: int**) {
            let c: int* = malloc();
            let t3: bool = *q != null;
            if (t3) { *q = c; free(c); }
            else { if (nondet_bool()) { *q = gb; } }
            return;
        }
        fn qux(r: int**) {
            if (nondet_bool()) { *r = null; } else { *r = null; }
            return;
        }";
    let analysis = Analysis::from_source(src).unwrap();
    let mut session = analysis.session();
    let reports = session
        .query(&Query::Check(CheckerKind::UseAfterFree))
        .into_reports();
    assert_eq!(reports.len(), 1);
    let det = session.stats().detect;
    assert_eq!(
        det.candidates, 1,
        "demand-driven: only the bug-related path is examined"
    );
    assert_eq!(det.refuted, 0);
    // The flow through qux (points-to targets d, e in the paper) is
    // pruned automatically: the report's path goes through bar.
    let desc = reports[0].to_string();
    assert!(desc.contains("bar:"), "{desc}");
    assert!(!desc.contains("qux:"), "{desc}");
}

/// The quasi path-sensitive stage (§3.1.1) prunes facts during points-to
/// analysis — before any SMT solving — on the bar program's exclusive
/// branches.
#[test]
fn section_3_1_1_pruning_happens_before_smt() {
    let fx = build(BAR);
    let bar = fx.module.func_by_name("bar").unwrap();
    let stats = fx.analysis.func_pta(bar).stats;
    assert!(stats.linear_checks > 0);
    assert!(
        stats.pruned > 0,
        "the else-branch store must be pruned from the then-branch load"
    );
}

/// §3.3.1(2): context-sensitivity by cloning — two call sites of the same
/// callee instantiate its RV summary under *different* variable renamings,
/// so the two receivers are constrained independently.
#[test]
fn cloning_keeps_call_sites_independent() {
    let analysis = Analysis::from_source(
        "fn pick(c: bool, a: int, b: int) -> int {
            let r: int = a;
            if (!c) { r = b; }
            return r;
        }
        fn main(c1: bool, c2: bool) {
            let x: int = pick(c1, 1, 2);
            let y: int = pick(c2, 3, 4);
            print(x + y);
            return;
        }",
    )
    .unwrap();
    // No checker fires here; the property is exercised through the
    // condition machinery by the driver's own closure building. Use a
    // taint-style custom spec flowing through pick twice to force both
    // instantiations into one query.
    use pinpoint::core::spec::{SinkSpec, SourceSpec, Spec};
    let spec = Spec {
        name: "flow".into(),
        source: SourceSpec::CallReceiver(vec!["pick".into()]),
        sink: SinkSpec::Calls(vec!["print".into()]),
        traverses_transforms: true,
    };
    let reports = analysis
        .session()
        .query(&Query::Custom(spec))
        .into_reports();
    // Both receivers flow into print's argument: two reports, and both
    // survive SMT (the conditions of the two contexts must not collide —
    // a shared namespace would conflate c1/c2 selections of a/b and could
    // make the conjunction unsatisfiable).
    assert_eq!(reports.len(), 2, "{reports:?}");
}
