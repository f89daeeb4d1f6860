//! The module-level points-to pipeline.
//!
//! Functions are processed bottom-up on the call graph (§3.3.2). For each
//! function:
//!
//! 1. call sites are rewritten against the already-final connector shapes
//!    of the callees (Fig. 3(b); same-SCC calls are skipped — the §4.2
//!    rule of unrolling call-graph cycles once);
//! 2. a first quasi path-sensitive points-to pass collects the function's
//!    referenced/modified parameter-rooted access paths (Mod/Ref);
//! 3. connectors (Aux formal parameters / Aux return values) are inserted
//!    (Fig. 3(a));
//! 4. a second pass over the transformed body produces the final guarded
//!    points-to sets and the conditional memory def-use edges consumed by
//!    the SEG builder.

use crate::incremental::{splice, IncrementalOutcome, PreviousRun};
use crate::intra::{analyze_function_over, AuxParamBinding, FlowFacts, FuncPta, PtaStats};
use crate::symbols::Symbols;
use crate::transform::{insert_connectors, rewrite_call_sites, AuxShape};
use pinpoint_ir::{CallGraph, FuncId, Function, Module, Terminator, ValueId};
use pinpoint_obs::TraceBuf;
use pinpoint_smt::{LinearSolver, TermArena, TermTranslator};

/// Result of the whole-module pipeline.
#[derive(Debug, Default)]
pub struct ModuleAnalysis {
    /// Shared term arena (conditions of every function live here).
    pub arena: TermArena,
    /// Value-to-term cache.
    pub symbols: Symbols,
    /// Connector shape per function (indexed by `FuncId`).
    pub shapes: Vec<AuxShape>,
    /// Points-to result per function (indexed by `FuncId`).
    pub pta: Vec<FuncPta>,
    /// The linear-time solver, retaining its statistics.
    pub linear: LinearSolver,
}

impl ModuleAnalysis {
    /// The state every run starts from: a fresh arena and one empty slot
    /// per function.
    pub(crate) fn blank(funcs: usize) -> Self {
        ModuleAnalysis {
            arena: TermArena::new(),
            shapes: vec![AuxShape::default(); funcs],
            pta: (0..funcs).map(|_| FuncPta::default()).collect(),
            ..ModuleAnalysis::default()
        }
    }

    /// Aggregated pruning statistics across all functions.
    pub fn total_stats(&self) -> PtaStats {
        let mut total = PtaStats::default();
        for p in &self.pta {
            total.pruned += p.stats.pruned;
            total.kept += p.stats.kept;
            total.linear_checks += p.stats.linear_checks;
        }
        total
    }

    /// Connector shape of `f`.
    pub fn shape(&self, f: FuncId) -> &AuxShape {
        &self.shapes[f.0 as usize]
    }

    /// Points-to result of `f`.
    pub fn func_pta(&self, f: FuncId) -> &FuncPta {
        &self.pta[f.0 as usize]
    }
}

/// Runs the pipeline, transforming `module` in place: one worker, no
/// previous run, no trace — [`analyze_module_par`] with nothing to splice.
///
/// # Examples
///
/// ```
/// let mut module = pinpoint_ir::compile(
///     "fn set(q: int**, v: int*) { *q = v; return; }",
/// ).unwrap();
/// let analysis = pinpoint_pta::analyze_module(&mut module);
/// let fid = module.func_by_name("set").unwrap();
/// // *q is modified, so `set` gained an Aux return value.
/// assert_eq!(analysis.shape(fid).aux_rets.len(), 1);
/// ```
pub fn analyze_module(module: &mut Module) -> ModuleAnalysis {
    let callgraph = CallGraph::new(module);
    let config = PtaConfig::default();
    analyze_module_par(module, &config, 1, &mut TraceBuf::off(), &callgraph, None).analysis
}

/// Points-to pipeline options.
#[derive(Debug, Clone, Copy)]
pub struct PtaConfig {
    /// Run the §3.1.1 linear-time contradiction pruning (`false` is the
    /// ablation: keep every guarded fact).
    pub prune: bool,
}

impl Default for PtaConfig {
    fn default() -> Self {
        PtaConfig { prune: true }
    }
}

/// The callees whose connectors `caller`'s call sites are rewritten
/// against, by name (sorted): every callee with a non-empty shape outside
/// `caller`'s own SCC (same-SCC recursion is summary-free, §4.2). Read off
/// the call graph, so looking a call's name up costs a few string
/// comparisons against this short list instead of a hash of the module's
/// name index — most calls target nothing on it.
fn connected_callees<'a>(
    module: &'a Module,
    caller: FuncId,
    shapes: &'a [AuxShape],
    callgraph: &CallGraph,
) -> Vec<(&'a str, &'a AuxShape)> {
    let mut connected: Vec<(&str, &AuxShape)> = callgraph
        .callees(caller)
        .iter()
        .filter(|&&c| !shapes[c.0 as usize].is_empty() && !callgraph.same_scc(caller, c))
        .map(|&c| (module.func(c).name.as_str(), &shapes[c.0 as usize]))
        .collect();
    connected.sort_unstable_by_key(|&(name, _)| name);
    connected
}

/// Takes `fid`'s body out of `module`, leaving a blank placeholder, so it
/// can be transformed while the module is borrowed.
fn detach(module: &mut Module, fid: FuncId) -> Function {
    std::mem::replace(module.func_mut(fid), Function::new(""))
}

/// One function's analysis output in its private term arena: what the
/// deterministic merge consumes.
struct FuncResult {
    /// Connector shape.
    shape: AuxShape,
    /// Points-to result, with conditions in [`FuncResult::arena`].
    pta: FuncPta,
    /// The private term arena all conditions refer into.
    arena: TermArena,
    /// Sorted values the symbol interner cached for this function; the
    /// merge re-derives their terms against the shared arena in exactly
    /// this order.
    cached_values: Vec<ValueId>,
    /// Linear-solver unsat verdicts attributed to this function.
    unsat: u64,
    /// Linear-solver unknown verdicts attributed to this function.
    unknown: u64,
}

/// Steps 1–4 of the [module docs](self) on `f`, function `fid`'s body
/// detached from `module` (which stays borrowable for name resolution),
/// against the finished callee `shapes`, in a *fresh* private
/// arena/interner/linear solver.
///
/// Because every function starts from an empty arena, its result is
/// bit-identical no matter which worker runs it or how functions are
/// sharded — determinism is then purely a property of the merge order.
fn analyze_one(
    fid: FuncId,
    f: &mut Function,
    shapes: &[AuxShape],
    callgraph: &CallGraph,
    module: &Module,
    config: &PtaConfig,
) -> FuncResult {
    let mut arena = TermArena::new();
    let mut symbols = Symbols::new();
    let mut linear = LinearSolver::new();
    // 1. Rewrite call sites against finished callee shapes.
    let connected = connected_callees(module, fid, shapes, callgraph);
    rewrite_call_sites(f, |name| {
        let i = connected.binary_search_by_key(&name, |&(n, _)| n).ok()?;
        Some(connected[i].1)
    });
    // The transform adds instructions and return operands, never blocks,
    // successors or branch conditions, so one set of control-flow facts
    // (reach conditions included: their terms are cached from here on)
    // serves both passes.
    let flow = FlowFacts::new(&mut arena, &mut symbols, fid, f);
    let control = |f: &Function| -> Vec<Terminator> {
        f.blocks
            .iter()
            .map(|b| match &b.term {
                Terminator::Return(_) => Terminator::Return(Vec::new()),
                other => other.clone(),
            })
            .collect()
    };
    let control_before = cfg!(debug_assertions).then(|| control(f));
    let prune = config.prune;
    // 2. Mod/Ref pass (pre-connector body).
    let pass1 = analyze_function_over(
        &mut arena,
        &mut symbols,
        &mut linear,
        fid,
        f,
        &[],
        prune,
        &flow,
    );
    // 3. Insert connectors.
    let shape = insert_connectors(f, &pass1.refs, &pass1.mods);
    debug_assert!(
        control_before.is_none_or(|before| before == control(f)),
        "the connector transform must not change control flow"
    );
    // 4. Final pass on the transformed body.
    let bindings: Vec<AuxParamBinding> = shape
        .aux_params
        .iter()
        .map(|&(path, value)| AuxParamBinding { path, value })
        .collect();
    let mut pta = analyze_function_over(
        &mut arena,
        &mut symbols,
        &mut linear,
        fid,
        f,
        &bindings,
        prune,
        &flow,
    );
    // Both outlive the build by the life of the analysis, and the passes
    // grew them by doubling: give the slack back.
    pta.shrink_to_fit();
    f.shrink_to_fit();
    FuncResult {
        shape,
        pta,
        arena,
        cached_values: symbols.cached_values(fid),
        unsat: linear.unsat_count,
        unknown: linear.unknown_count,
    }
}

/// The parallel schedule: the functions of each condensation level
/// ([`CallGraph::scc_levels`]), in bottom-up order. Within a level no
/// function depends on another's connector shape.
fn stratify_levels(callgraph: &CallGraph) -> Vec<Vec<FuncId>> {
    callgraph
        .scc_levels()
        .iter()
        .map(|level| {
            level
                .iter()
                .flat_map(|&scc| callgraph.scc(scc))
                .copied()
                .collect()
        })
        .collect()
}

/// Merges one function's private-arena result into the shared state:
/// re-derives the symbol cache against the shared arena (sorted value
/// order), then rebuilds every condition term through the translator's
/// smart constructors so canonical child ordering is restored in the
/// target arena.
fn merge_one(fid: FuncId, f: &Function, r: FuncResult, out: &mut ModuleAnalysis) {
    let arena = &mut out.arena;
    for &v in &r.cached_values {
        out.symbols.value_term(arena, fid, f, v);
    }
    let mut func_pta = r.pta;
    let mut tr = TermTranslator::new();
    for d in &mut func_pta.mem_deps {
        d.cond = tr.translate(&r.arena, arena, d.cond);
    }
    func_pta
        .points_to
        .map_conds(|c| tr.translate(&r.arena, arena, c));
    for g in &mut func_pta.global_stores {
        g.cond = tr.translate(&r.arena, arena, g.cond);
    }
    for g in &mut func_pta.global_loads {
        g.cond = tr.translate(&r.arena, arena, g.cond);
    }
    out.shapes[fid.0 as usize] = r.shape;
    out.pta[fid.0 as usize] = func_pta;
    out.linear.unsat_count += r.unsat;
    out.linear.unknown_count += r.unknown;
}

/// Functions analysed per worker between two merges. Every analysed
/// function holds a private arena until it is merged, so this — not the
/// width of a call-graph level — bounds what is in flight.
const MERGE_EVERY: usize = 256;

/// Runs the pipeline over `callgraph`, the call graph of `module`: the
/// one points-to algorithm, for builds and edits alike.
///
/// With a `previous` run of the same function set, every function outside
/// its dirty set is spliced first ([`crate::incremental`]: transformed
/// body, shape and facts move over; the arena, interner and solver
/// counters carry over whole). Without one — or when the function set
/// changed (`fell_back`) — nothing is spliced and every function is
/// analysed from a fresh arena, so a fallback is a cold build.
///
/// The functions left to analyse are taken level by level over the call
/// graph's SCC condensation (`level(scc) = 1 + max(level of callee
/// SCCs)`). Within a level no function depends on another's connector
/// shape — cross-SCC callees sit strictly below, and same-SCC calls are
/// summary-free (§4.2) — so each level fans out over `threads` workers
/// ([`TraceBuf::shard_map`], one `pta.func` span per function), a
/// contiguous chunk of the level at a time. Every worker analyzes its
/// functions in fresh private arenas; results are merged back into the
/// shared arena in the level's bottom-up order, so the returned
/// [`ModuleAnalysis`] is byte-identical for any thread count and any chunk
/// size. `threads == 1` runs the same shard-and-merge steps on the calling
/// thread, which is what makes that guarantee hold by construction rather
/// than by accident.
pub fn analyze_module_par(
    module: &mut Module,
    config: &PtaConfig,
    threads: usize,
    trace: &mut TraceBuf,
    callgraph: &CallGraph,
    previous: Option<PreviousRun>,
) -> IncrementalOutcome {
    let (mut out, clean, fell_back) = splice(module, callgraph, previous);
    let mut reanalyzed = Vec::new();
    for level in stratify_levels(callgraph) {
        let dirty: Vec<FuncId> = level.into_iter().filter(|f| !clean[f.0 as usize]).collect();
        for chunk in dirty.chunks(MERGE_EVERY * threads.max(1)) {
            // Detached so workers can transform the bodies while the
            // module stays borrowable.
            let mut work: Vec<(FuncId, Function)> = chunk
                .iter()
                .map(|&fid| (fid, detach(module, fid)))
                .collect();
            let shapes = &out.shapes;
            let frozen = &*module;
            let results = trace.shard_map(
                &mut work,
                threads,
                || (),
                |(), (fid, f), lane| {
                    lane.span("pta.func", f.name.clone(), |_| {
                        analyze_one(*fid, f, shapes, callgraph, frozen, config)
                    })
                },
            );
            // Deterministic merge in the level's bottom-up order.
            for ((fid, f), r) in work.into_iter().zip(results) {
                *module.func_mut(fid) = f;
                merge_one(fid, module.func(fid), r, &mut out);
            }
        }
        reanalyzed.extend(dirty);
    }
    IncrementalOutcome {
        analysis: out,
        reused: module.funcs.len() - reanalyzed.len(),
        reanalyzed,
        fell_back,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::AccessPath;
    use pinpoint_ir::{compile, Inst};

    #[test]
    fn figure2_pipeline_end_to_end() {
        // The motivating example of Fig. 1/2.
        let mut m = compile(
            r#"
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
            }
            "#,
        )
        .unwrap();
        let analysis = analyze_module(&mut m);
        let bar = m.func_by_name("bar").unwrap();
        let foo = m.func_by_name("foo").unwrap();
        let qux = m.func_by_name("qux").unwrap();
        // bar reads and writes *(q,1): one aux param (X), one aux ret (Y).
        assert_eq!(analysis.shape(bar).aux_params.len(), 1);
        assert_eq!(analysis.shape(bar).aux_rets.len(), 1);
        // qux writes but (only conditionally) reads *(r,1): at least the
        // aux return exists.
        assert_eq!(analysis.shape(qux).aux_rets.len(), 1);
        // foo's call sites were rewritten: the call to bar now has 2 args.
        let f = m.func(foo);
        let bar_call = f
            .iter_insts()
            .find_map(|(_, i)| match i {
                Inst::Call { callee, args, dsts } if callee == "bar" => {
                    Some((args.len(), dsts.len()))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(bar_call, (2, 1), "bar(ptr, K) with receiver L");
        // foo has no param-rooted side effects of its own (a is read only
        // as a value), so no connectors on foo from memory paths.
        assert!(analysis.shape(foo).aux_params.is_empty());
        // In foo, the load f = *ptr must now see the store *ptr = L
        // (the write-back of bar's aux return) and *ptr = M (qux's).
        let foo_pta = analysis.func_pta(foo);
        let src_names: Vec<&str> = foo_pta
            .mem_deps
            .iter()
            .map(|d| f.value(d.src).name.as_str())
            .collect();
        assert!(
            src_names.iter().any(|n| n.starts_with("aux_recv")),
            "f = *ptr reads the written-back aux receiver, got {src_names:?}"
        );
    }

    #[test]
    fn deep_call_chain_propagates_paths() {
        // inner writes *(q,1); middle just forwards; outer must see the
        // effect through two levels of connectors.
        let mut m = compile(
            "fn inner(q: int**) { *q = null; return; }
             fn middle(q: int**) { inner(q); return; }
             fn outer(a: int*) -> int* {
                let p: int** = malloc();
                *p = a;
                middle(p);
                let r: int* = *p;
                return r;
             }",
        )
        .unwrap();
        let analysis = analyze_module(&mut m);
        let middle = m.func_by_name("middle").unwrap();
        // middle's rewritten call to inner makes middle itself modify
        // *(q,1), so middle gets an aux return too.
        assert!(
            analysis.shape(middle).aux_rets.contains(&(
                AccessPath { root: 0, depth: 1 },
                analysis.shape(middle).aux_rets[0].1
            )),
            "middle inherits the modification"
        );
        let outer = m.func_by_name("outer").unwrap();
        let f = m.func(outer);
        let pta = analysis.func_pta(outer);
        let r_deps: Vec<&str> = pta
            .mem_deps
            .iter()
            .map(|d| f.value(d.src).name.as_str())
            .collect();
        assert!(
            r_deps.iter().any(|n| n.starts_with("aux_recv")),
            "outer's load sees middle's write-back: {r_deps:?}"
        );
    }

    #[test]
    fn recursion_does_not_loop() {
        let mut m = compile(
            "fn f(q: int**, n: int) {
                if (n > 0) { f(q, n - 1); }
                *q = null;
                return;
             }",
        )
        .unwrap();
        let analysis = analyze_module(&mut m);
        let f = m.func_by_name("f").unwrap();
        // The direct store still yields an aux return.
        assert_eq!(analysis.shape(f).aux_rets.len(), 1);
    }

    #[test]
    fn stats_accumulate_across_functions() {
        let mut m = compile(
            "fn a(c: bool, p: int**) {
                *p = null;
                if (c) { let x: int* = *p; print(x); } else { *p = null; }
                return;
             }
             fn b(c: bool, p: int**) {
                if (c) { *p = null; } else { let x: int* = *p; print(x); }
                return;
             }",
        )
        .unwrap();
        let analysis = analyze_module(&mut m);
        let stats = analysis.total_stats();
        assert!(stats.linear_checks > 0);
        assert!(stats.kept > 0);
    }

    const WAVEFRONT_SRC: &str = r#"
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
            if (*q != null) { *q = c; free(c); }
            else { if (nondet_bool()) { *q = gb; } }
            return;
        }
        fn qux(r: int**) {
            if (nondet_bool()) { *r = null; } else { *r = null; }
            return;
        }
        fn even(n: int, q: int**) { odd(n - 1, q); *q = null; return; }
        fn odd(n: int, q: int**) { even(n - 1, q); return; }
        fn top(x: int*) {
            let p: int** = malloc();
            *p = x;
            foo(x);
            even(3, p);
            return;
        }
        "#;

    #[test]
    fn parallel_is_byte_identical_across_thread_counts() {
        let analyses: Vec<(Module, ModuleAnalysis)> = [1usize, 2, 4, 7]
            .iter()
            .map(|&t| {
                let mut m = compile(WAVEFRONT_SRC).unwrap();
                let cg = CallGraph::new(&m);
                let config = PtaConfig::default();
                let off = &mut TraceBuf::off();
                let a = analyze_module_par(&mut m, &config, t, off, &cg, None).analysis;
                (m, a)
            })
            .collect();
        let (m0, a0) = &analyses[0];
        for (m, a) in &analyses[1..] {
            // The transformed modules agree instruction-for-instruction.
            for (fid, f) in m0.iter_funcs() {
                assert_eq!(
                    format!("{:?}", f.blocks),
                    format!("{:?}", m.func(fid).blocks)
                );
            }
            // The shared arenas have identical layouts, so every TermId
            // in the results means the same term.
            assert_eq!(a0.arena.len(), a.arena.len());
            for fid in 0..m0.funcs.len() {
                let fid = pinpoint_ir::FuncId(fid as u32);
                assert_eq!(a0.func_pta(fid).mem_deps, a.func_pta(fid).mem_deps);
                let p0: Vec<_> = a0.func_pta(fid).points_to.iter().collect();
                let p1: Vec<_> = a.func_pta(fid).points_to.iter().collect();
                assert_eq!(p0, p1);
            }
            assert_eq!(a0.symbols.len(), a.symbols.len());
        }
    }

    #[test]
    fn trace_spans_are_thread_count_invariant() {
        let run = |t: usize| {
            let mut m = compile(WAVEFRONT_SRC).unwrap();
            let mut trace = TraceBuf::on();
            let cg = CallGraph::new(&m);
            let _ = analyze_module_par(&mut m, &PtaConfig::default(), t, &mut trace, &cg, None);
            (trace.records().len(), trace.canonical_json())
        };
        let (n1, c1) = run(1);
        let (n4, c4) = run(4);
        assert_eq!(n1, 6, "one pta.func span per function");
        assert_eq!(n1, n4);
        assert_eq!(c1, c4, "canonical trace is thread-count invariant");
    }

    #[test]
    fn read_only_chain_gets_aux_param_only() {
        let mut m = compile(
            "fn get(q: int**) -> int* {
                let v: int* = *q;
                return v;
             }",
        )
        .unwrap();
        let analysis = analyze_module(&mut m);
        let f = m.func_by_name("get").unwrap();
        assert_eq!(analysis.shape(f).aux_params.len(), 1);
        assert!(analysis.shape(f).aux_rets.is_empty());
        // The load now reads the entry store of the aux param.
        let func = m.func(f);
        let pta = analysis.func_pta(f);
        let dep_srcs: Vec<&str> = pta
            .mem_deps
            .iter()
            .map(|d| func.value(d.src).name.as_str())
            .collect();
        assert!(
            dep_srcs.iter().any(|n| n.starts_with("aux_in")),
            "v = *q reads F: {dep_srcs:?}"
        );
    }
}
