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
//! 4. if step 3 inserted any, a second pass over the transformed body
//!    produces the final guarded points-to sets and the conditional memory
//!    def-use edges consumed by the SEG builder. If it inserted none, the
//!    body, the (empty) Aux bindings and the flow facts are the ones step
//!    2 read, and its terms are already in the function's arena, so step
//!    2's output *is* the final one, term for term.
//!
//! The steps run on the calling thread, one function at a time, each in a
//! private term arena that is merged into the shared one before the next
//! function starts. The merge order fixes the shared arena's numbering,
//! which the witnesses of every query follow; a sharded schedule of the
//! same merges took longer at two threads than at one, so there is none.
//!
//! What a build keeps per function is what the SEG builder and an edit's
//! splice read: the memory edges, the global accesses and the counters
//! ([`FuncPta`]). The points-to sets and Mod/Ref paths are dropped once
//! the merge has translated their conditions into the shared arena.

use crate::incremental::{splice, IncrementalOutcome, PreviousRun};
use crate::intra::{
    analyze_function_over, AuxParamBinding, FlowFacts, FuncPta, PassOutput, PtaStats,
};
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

    /// Aggregated pruning statistics across all functions: the sum of
    /// their [`FuncPta::stats`].
    pub fn total_stats(&self) -> PtaStats {
        self.pta.iter().map(|p| p.stats).sum()
    }

    /// Empties function `i`'s entries (shape and points-to result) before
    /// it is analysed again.
    pub(crate) fn clear(&mut self, i: usize) {
        self.shapes[i] = AuxShape::default();
        self.pta[i] = FuncPta::default();
    }

    /// Functions whose connector transform inserted something: those the
    /// final pass ran on ([module docs](self), step 4).
    pub fn final_passes(&self) -> usize {
        self.shapes.iter().filter(|s| !s.is_empty()).count()
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

/// Runs the pipeline, transforming `module` in place: no previous run, no
/// trace — [`analyze_module_with`] with nothing to splice.
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
    analyze_module_with(module, &config, &mut TraceBuf::off(), &callgraph, None).analysis
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

/// One function's analysis output in its private term arena: what the
/// deterministic merge consumes.
struct FuncResult {
    /// Connector shape.
    shape: AuxShape,
    /// The final pass's output, with conditions in [`FuncResult::arena`].
    pass: PassOutput,
    /// The private term arena all conditions refer into.
    arena: TermArena,
    /// Sorted values the symbol interner cached for this function; the
    /// merge re-derives their terms against the shared arena in exactly
    /// this order.
    cached_values: Vec<ValueId>,
}

/// Steps 1–4 of the [module docs](self) on `f`, function `fid`'s body,
/// against the finished callee `shapes`, in a *fresh* private
/// arena/interner/linear solver.
///
/// Because every function starts from an empty arena, its result depends
/// on its body and its callees' shapes alone, and the shared arena's
/// numbering — which orders the SAT variables, and hence the witnesses, of
/// every query — is purely a property of the merge order.
fn analyze_one(
    fid: FuncId,
    f: &mut Function,
    shapes: &[AuxShape],
    callgraph: &CallGraph,
    config: &PtaConfig,
) -> FuncResult {
    let mut arena = TermArena::new();
    let mut symbols = Symbols::new();
    let mut linear = LinearSolver::new();
    // 1. Rewrite call sites against finished callee shapes: those of
    //    callees outside `fid`'s own SCC (same-SCC recursion is
    //    summary-free, §4.2).
    rewrite_call_sites(f, |callee| {
        let c = callee.as_func()?;
        (!callgraph.same_scc(fid, c)).then(|| &shapes[c.0 as usize])
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
    // 4. Final pass on the transformed body, if the transform changed it.
    let mut pass = if shape.is_empty() {
        pass1
    } else {
        let bindings: Vec<AuxParamBinding> = shape
            .aux_params
            .iter()
            .map(|&(path, value)| AuxParamBinding { path, value })
            .collect();
        analyze_function_over(
            &mut arena,
            &mut symbols,
            &mut linear,
            fid,
            f,
            &bindings,
            prune,
            &flow,
        )
    };
    // Both outlive the build by the life of the analysis, and the passes
    // grew them by doubling: give the slack back.
    pass.kept.shrink_to_fit();
    f.shrink_to_fit();
    FuncResult {
        shape,
        pass,
        arena,
        cached_values: symbols.cached_values(fid),
    }
}

/// Merges one function's private-arena result into the shared state:
/// re-derives the symbol cache against the shared arena (sorted value
/// order), then rebuilds every condition term through the translator's
/// smart constructors so canonical child ordering is restored in the
/// target arena. Only the kept part of the result survives the merge.
fn merge_one(fid: FuncId, f: &Function, r: FuncResult, out: &mut ModuleAnalysis) {
    let arena = &mut out.arena;
    for &v in &r.cached_values {
        out.symbols.value_term(arena, fid, f, v);
    }
    let mut func_pta = r.pass.kept;
    let mut tr = TermTranslator::new();
    for d in &mut func_pta.mem_deps {
        d.cond = tr.translate(&r.arena, arena, d.cond);
    }
    // No points-to set outlives the merge, but their conditions are
    // translated all the same: the terms they add are part of the shared
    // arena's numbering, which orders the SAT variables of every query.
    for (_, set) in r.pass.points_to.iter() {
        for &(_, c) in set {
            tr.translate(&r.arena, arena, c);
        }
    }
    for g in &mut func_pta.global_stores {
        g.cond = tr.translate(&r.arena, arena, g.cond);
    }
    for g in &mut func_pta.global_loads {
        g.cond = tr.translate(&r.arena, arena, g.cond);
    }
    out.shapes[fid.0 as usize] = r.shape;
    out.pta[fid.0 as usize] = func_pta;
}

/// Runs the pipeline over `callgraph`, the call graph of `module`: the
/// one points-to algorithm, for builds and edits alike.
///
/// With a `previous` run of the same function set, every function outside
/// its dirty set is spliced first ([`crate::incremental`]: shape and kept
/// result move over, the arena and interner carry over whole, and
/// `module` already holds the function's transformed body). Without one
/// nothing is spliced and every function is analysed from a fresh arena,
/// so a run whose function set changed is a cold build.
///
/// The functions left to analyse are taken bottom-up over the call
/// graph's SCC condensation, one at a time on the calling thread (one
/// `pta.func` span each): each is analysed in a fresh private arena
/// against its callees' finished shapes, then merged straight into the
/// shared arena. The merge order alone fixes the shared arena's numbering,
/// so the returned [`ModuleAnalysis`] is the same whatever else the caller
/// runs in parallel.
pub fn analyze_module_with(
    module: &mut Module,
    config: &PtaConfig,
    trace: &mut TraceBuf,
    callgraph: &CallGraph,
    previous: Option<PreviousRun>,
) -> IncrementalOutcome {
    run(module, config, trace, callgraph, previous, analyze_one)
}

/// [`analyze_module_with`] with `analyze` as the per-function step:
/// [`analyze_one`], or in tests the reference or an instrumented copy.
fn run<A>(
    module: &mut Module,
    config: &PtaConfig,
    trace: &mut TraceBuf,
    callgraph: &CallGraph,
    previous: Option<PreviousRun>,
    mut analyze: A,
) -> IncrementalOutcome
where
    A: FnMut(FuncId, &mut Function, &[AuxShape], &CallGraph, &PtaConfig) -> FuncResult,
{
    let (mut out, dirty) = splice(module, callgraph, previous);
    let mut reanalyzed = Vec::new();
    // Bottom-up: the merge numbers the shared arena in this order.
    for &fid in callgraph.schedule() {
        if !dirty[fid.0 as usize] {
            continue;
        }
        let f = module.func_mut(fid);
        let shapes = &out.shapes;
        let r = trace.span("pta.func", f.name.clone(), |_| {
            analyze(fid, f, shapes, callgraph, config)
        });
        merge_one(fid, module.func(fid), r, &mut out);
        reanalyzed.push(fid);
    }
    IncrementalOutcome {
        analysis: out,
        reused: module.funcs.len() - reanalyzed.len(),
        reanalyzed,
    }
}

/// The pipeline over `module`, returning beside the analysis every
/// function's final pass output (conditions in its private arena), which
/// a build drops at the merge.
#[cfg(test)]
pub(crate) fn analyze_recording(module: &mut Module) -> (ModuleAnalysis, Vec<PassOutput>) {
    let callgraph = CallGraph::new(module);
    let mut passes = vec![PassOutput::default(); module.funcs.len()];
    let record =
        |fid: FuncId, f: &mut Function, shapes: &[AuxShape], cg: &CallGraph, c: &PtaConfig| {
            let r = analyze_one(fid, f, shapes, cg, c);
            passes[fid.0 as usize] = r.pass.clone();
            r
        };
    let config = PtaConfig::default();
    let off = &mut TraceBuf::off();
    let analysis = run(module, &config, off, &callgraph, None, record).analysis;
    (analysis, passes)
}

/// The per-function step as it was before the final pass became
/// conditional: every function runs it, whatever the transform inserted.
/// Kept as the oracle the skip is tested against.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn analyze_one(
        fid: FuncId,
        f: &mut Function,
        shapes: &[AuxShape],
        callgraph: &CallGraph,
        config: &PtaConfig,
    ) -> FuncResult {
        let mut arena = TermArena::new();
        let mut symbols = Symbols::new();
        let mut linear = LinearSolver::new();
        rewrite_call_sites(f, |callee| {
            let c = callee.as_func()?;
            (!callgraph.same_scc(fid, c)).then(|| &shapes[c.0 as usize])
        });
        let flow = FlowFacts::new(&mut arena, &mut symbols, fid, f);
        let prune = config.prune;
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
        let shape = insert_connectors(f, &pass1.refs, &pass1.mods);
        let bindings: Vec<AuxParamBinding> = shape
            .aux_params
            .iter()
            .map(|&(path, value)| AuxParamBinding { path, value })
            .collect();
        let mut pass = analyze_function_over(
            &mut arena,
            &mut symbols,
            &mut linear,
            fid,
            f,
            &bindings,
            prune,
            &flow,
        );
        pass.kept.shrink_to_fit();
        f.shrink_to_fit();
        FuncResult {
            shape,
            pass,
            arena,
            cached_values: symbols.cached_values(fid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::AccessPath;
    use pinpoint_ir::{compile, Inst};
    use pinpoint_workload::fuzzgen::{self, FuzzGenConfig};
    use pinpoint_workload::{generate, GenConfig};

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
                Inst::Call { callee, .. } if callee.as_func() == Some(bar) => {
                    let call = i.as_call().unwrap();
                    Some((call.args.len(), call.dsts.len()))
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
            .map(|d| f.value_name(d.src))
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
        let r_deps: Vec<&str> = pta.mem_deps.iter().map(|d| f.value_name(d.src)).collect();
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

    /// Every value's guarded points-to set, in ascending value order.
    fn sets(p: &PassOutput) -> Vec<(ValueId, Vec<crate::intra::Fact>)> {
        p.points_to.iter().map(|(v, s)| (v, s.to_vec())).collect()
    }

    /// FNV-1a (64-bit) over the debug form of every term, in arena order.
    fn arena_digest(arena: &TermArena) -> u64 {
        arena
            .kinds()
            .fold(0xcbf2_9ce4_8422_2325, |h, (kind, sort)| {
                format!("{kind:?}/{sort:?}")
                    .bytes()
                    .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
            })
    }

    /// The shared arena's numbering orders the SAT variables of every
    /// query, so witnesses follow the merge order. Pinned on the module
    /// `gen_project --kloc 20 --seed 1` prints and on the `cold_dense`
    /// module `gen_project --fuzz --kloc 10 --seed 15` prints.
    #[test]
    fn shared_arena_numbering_is_pinned() {
        let project = generate(
            &GenConfig {
                seed: 1,
                real_bugs: 2,
                decoys: 2,
                taint: true,
                ..GenConfig::default()
            }
            .with_target_kloc(20.0),
        );
        let dense = fuzzgen::generate(&FuzzGenConfig {
            seed: 15,
            functions: 555,
            max_stmts: 10,
            globals: 4,
            recursion: true,
        });
        let pins = [
            (&project.source, 767, 0x0d4e_c419_3336_e8fc),
            (&dense, 1240, 0xb4f0_7fc5_fffa_e259),
        ];
        for (src, len, digest) in pins {
            let mut m = compile(src).unwrap();
            let a = analyze_module(&mut m);
            assert_eq!((a.arena.len(), arena_digest(&a.arena)), (len, digest));
        }
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
            .map(|d| func.value_name(d.src))
            .collect();
        assert!(
            dep_srcs.iter().any(|n| n.starts_with("aux_in")),
            "v = *q reads F: {dep_srcs:?}"
        );
    }

    /// [`analyze_one`] checked against [`reference::analyze_one`] run on a
    /// copy of the body: same transformed body, shape, Mod/Ref paths, kept
    /// result, points-to sets, private-arena length and symbol cache.
    fn checked_one(
        fid: FuncId,
        f: &mut Function,
        shapes: &[AuxShape],
        callgraph: &CallGraph,
        config: &PtaConfig,
    ) -> FuncResult {
        let mut copy = f.clone();
        let want = reference::analyze_one(fid, &mut copy, shapes, callgraph, config);
        let got = analyze_one(fid, f, shapes, callgraph, config);
        let name = &f.name;
        assert_eq!(format!("{f:?}"), format!("{copy:?}"), "{name}: body");
        assert_eq!(
            format!("{:?}", got.shape),
            format!("{:?}", want.shape),
            "{name}: shape"
        );
        assert_eq!(got.pass.refs, want.pass.refs, "{name}: Mod/Ref");
        assert_eq!(got.pass.mods, want.pass.mods, "{name}: Mod/Ref");
        assert_eq!(got.pass.kept, want.pass.kept, "{name}: kept result");
        assert_eq!(sets(&got.pass), sets(&want.pass), "{name}: points-to");
        assert_eq!(got.arena.len(), want.arena.len(), "{name}: arena");
        assert_eq!(got.cached_values, want.cached_values, "{name}: symbols");
        got
    }

    /// The pipeline over a copy of `m` with `analyze` as the
    /// per-function step.
    fn pipeline<A>(m: &Module, analyze: A) -> ModuleAnalysis
    where
        A: FnMut(FuncId, &mut Function, &[AuxShape], &CallGraph, &PtaConfig) -> FuncResult,
    {
        let mut m = m.clone();
        let cg = CallGraph::new(&m);
        let (config, off) = (PtaConfig::default(), &mut TraceBuf::off());
        run(&mut m, &config, off, &cg, None, analyze).analysis
    }

    /// Asserts that skipping the final pass changes nothing on `m`,
    /// function by function ([`checked_one`]) and module-wide. Returns how
    /// many of its functions ran the final pass.
    fn assert_skip_is_exact(m: &Module) -> usize {
        let want = pipeline(m, reference::analyze_one);
        let got = pipeline(m, checked_one);
        assert_eq!(got.arena.len(), want.arena.len(), "shared arena");
        assert_eq!(got.symbols.len(), want.symbols.len(), "symbols");
        assert_eq!(
            format!("{:?}", got.shapes),
            format!("{:?}", want.shapes),
            "shapes"
        );
        assert_eq!(got.pta, want.pta, "kept results");
        got.final_passes()
    }

    #[test]
    fn skipping_the_final_pass_is_exact_on_the_corpus() {
        let dir = format!("{}/../../tests/corpus", env!("CARGO_MANIFEST_DIR"));
        let (mut files, mut ran, mut funcs) = (0, 0, 0);
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "pp") {
                let m = compile(&std::fs::read_to_string(&path).unwrap()).unwrap();
                ran += assert_skip_is_exact(&m);
                funcs += m.funcs.len();
                files += 1;
            }
        }
        assert!(files >= 20, "corpus not found");
        assert!(
            0 < ran && ran < funcs,
            "{ran} of {funcs} ran the final pass"
        );
    }

    #[test]
    fn skipping_the_final_pass_is_exact_on_fuzzgen_seeds() {
        let (mut ran, mut funcs) = (0, 0);
        for seed in 1..=50 {
            let src = fuzzgen::generate(&FuzzGenConfig {
                seed,
                recursion: true,
                ..FuzzGenConfig::default()
            });
            let m = compile(&src).unwrap();
            ran += assert_skip_is_exact(&m);
            funcs += m.funcs.len();
        }
        assert!(
            0 < ran && ran < funcs,
            "{ran} of {funcs} ran the final pass"
        );
    }

    #[test]
    fn skipping_the_final_pass_is_exact_on_a_generated_project() {
        // The module `gen_project --kloc 3` prints.
        let project = generate(&GenConfig {
            real_bugs: 2,
            decoys: 2,
            taint: true,
            ..GenConfig::default().with_target_kloc(3.0)
        });
        let m = compile(&project.source).unwrap();
        let ran = assert_skip_is_exact(&m);
        let funcs = m.funcs.len();
        assert!(
            0 < ran && ran < funcs,
            "{ran} of {funcs} ran the final pass"
        );
    }
}
