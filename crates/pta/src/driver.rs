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

use crate::intra::{analyze_function_with, AuxParamBinding, FuncPta, PtaStats};
use crate::symbols::Symbols;
use crate::transform::{insert_connectors, rewrite_call_sites, AuxShape};
use pinpoint_ir::{CallGraph, FuncId, Function, Module, ValueId};
use pinpoint_obs::TraceBuf;
use pinpoint_smt::{LinearSolver, TermArena, TermTranslator};
use std::collections::HashMap;

/// Result of the whole-module pipeline.
#[derive(Debug)]
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

/// Runs the pipeline, transforming `module` in place.
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
    analyze_module_with(module, &PtaConfig::default())
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

/// Runs the pipeline with explicit options.
pub fn analyze_module_with(module: &mut Module, config: &PtaConfig) -> ModuleAnalysis {
    let callgraph = CallGraph::new(module);
    analyze_module_with_graph(module, config, &callgraph)
}

/// [`analyze_module_with`] over a caller-supplied call graph of `module`
/// (the pre-transform graph: the transform never changes it).
pub fn analyze_module_with_graph(
    module: &mut Module,
    config: &PtaConfig,
    callgraph: &CallGraph,
) -> ModuleAnalysis {
    let mut arena = TermArena::new();
    let mut symbols = Symbols::new();
    let mut linear = LinearSolver::new();
    let n = module.funcs.len();
    let mut shapes: Vec<AuxShape> = vec![AuxShape::default(); n];
    let mut pta: Vec<Option<FuncPta>> = (0..n).map(|_| None).collect();

    for &fid in callgraph.bottom_up() {
        // 1. Rewrite call sites against finished callee shapes.
        rewrite_calls(module, fid, &shapes, callgraph);
        // 2. Mod/Ref pass (pre-connector body).
        let pass1 = analyze_function_with(
            &mut arena,
            &mut symbols,
            &mut linear,
            fid,
            module.func(fid),
            &[],
            config.prune,
        );
        // 3. Insert connectors.
        let shape = insert_connectors(module.func_mut(fid), &pass1.refs, &pass1.mods);
        // 4. Final pass on the transformed body.
        let bindings: Vec<AuxParamBinding> = shape
            .aux_params
            .iter()
            .map(|&(path, value)| AuxParamBinding { path, value })
            .collect();
        let pass2 = analyze_function_with(
            &mut arena,
            &mut symbols,
            &mut linear,
            fid,
            module.func(fid),
            &bindings,
            config.prune,
        );
        shapes[fid.0 as usize] = shape;
        pta[fid.0 as usize] = Some(pass2);
    }

    ModuleAnalysis {
        arena,
        symbols,
        shapes,
        pta: pta.into_iter().map(|p| p.unwrap_or_default()).collect(),
        linear,
    }
}

/// The connector shape `caller`'s call sites to `name` are rewritten
/// against: `None` for intrinsics, unknown names and same-SCC recursion
/// (summary unavailable, §4.2).
fn callee_shape<'a>(
    module: &Module,
    caller: FuncId,
    name: &str,
    shapes: &'a [AuxShape],
    callgraph: &CallGraph,
) -> Option<&'a AuxShape> {
    let target = module.func_by_name(name)?;
    if callgraph.same_scc(caller, target) {
        return None;
    }
    Some(&shapes[target.0 as usize])
}

/// Rewrites `fid`'s call sites in place against the finished callee
/// `shapes`. The body is detached for the duration so the module stays
/// borrowable for name resolution.
pub(crate) fn rewrite_calls(
    module: &mut Module,
    fid: FuncId,
    shapes: &[AuxShape],
    callgraph: &CallGraph,
) {
    let mut body = std::mem::replace(module.func_mut(fid), Function::new(""));
    rewrite_call_sites(&mut body, |name| {
        callee_shape(module, fid, name, shapes, callgraph)
    });
    *module.func_mut(fid) = body;
}

/// Output of one function's worker analysis, carried in a private arena
/// until the deterministic merge.
struct FuncResult {
    fid: FuncId,
    shape: AuxShape,
    pta: FuncPta,
    arena: TermArena,
    symbols: Symbols,
    unsat: u64,
    unknown: u64,
}

/// Analyzes one function against the finished callee `shapes` with a
/// *fresh* private arena/interner/linear solver.
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
    prune: bool,
) -> FuncResult {
    let mut arena = TermArena::new();
    let mut symbols = Symbols::new();
    let mut linear = LinearSolver::new();
    rewrite_call_sites(f, |name| callee_shape(module, fid, name, shapes, callgraph));
    let pass1 = analyze_function_with(&mut arena, &mut symbols, &mut linear, fid, f, &[], prune);
    let shape = insert_connectors(f, &pass1.refs, &pass1.mods);
    let bindings: Vec<AuxParamBinding> = shape
        .aux_params
        .iter()
        .map(|&(path, value)| AuxParamBinding { path, value })
        .collect();
    let pta = analyze_function_with(
        &mut arena,
        &mut symbols,
        &mut linear,
        fid,
        f,
        &bindings,
        prune,
    );
    FuncResult {
        fid,
        shape,
        pta,
        arena,
        symbols,
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

/// Fans one level's detached bodies out over `threads` scoped workers.
/// Results come back in `work` order regardless of sharding, and each
/// worker's `pta.func` trace spans are merged back in shard order.
fn run_level(
    work: &mut [(FuncId, Function)],
    shapes: &[AuxShape],
    callgraph: &CallGraph,
    module: &Module,
    prune: bool,
    threads: usize,
    trace: &mut TraceBuf,
) -> Vec<FuncResult> {
    if threads == 1 || work.len() <= 1 {
        let mut lane = trace.fork(1);
        let out = work
            .iter_mut()
            .map(|(fid, f)| {
                let span = lane.open("pta.func", f.name.clone());
                let r = analyze_one(*fid, f, shapes, callgraph, module, prune);
                lane.close(span);
                r
            })
            .collect();
        trace.merge(lane);
        out
    } else {
        let chunk = work.len().div_ceil(threads);
        let trace_ref = &*trace;
        let (out, lanes) = std::thread::scope(|s| {
            let handles: Vec<_> = work
                .chunks_mut(chunk)
                .enumerate()
                .map(|(shard_idx, shard)| {
                    s.spawn(move || {
                        let mut lane = trace_ref.fork(shard_idx as u32 + 1);
                        let results = shard
                            .iter_mut()
                            .map(|(fid, f)| {
                                let span = lane.open("pta.func", f.name.clone());
                                let r = analyze_one(*fid, f, shapes, callgraph, module, prune);
                                lane.close(span);
                                r
                            })
                            .collect::<Vec<_>>();
                        (results, lane)
                    })
                })
                .collect();
            let mut out = Vec::new();
            let mut lanes = Vec::new();
            for h in handles {
                let (results, lane) = h.join().expect("points-to worker panicked");
                out.extend(results);
                lanes.push(lane);
            }
            (out, lanes)
        });
        for lane in lanes {
            trace.merge(lane);
        }
        out
    }
}

/// Merges one function's private-arena result into the shared state:
/// re-derives the symbol cache against the shared arena (sorted value
/// order), then rebuilds every condition term through the translator's
/// smart constructors so canonical child ordering is restored in the
/// target arena.
#[allow(clippy::too_many_arguments)]
fn merge_one(
    fid: FuncId,
    f: &Function,
    shape: AuxShape,
    mut func_pta: FuncPta,
    src_arena: &TermArena,
    cached_values: &[ValueId],
    arena: &mut TermArena,
    symbols: &mut Symbols,
    shapes: &mut [AuxShape],
    pta: &mut [FuncPta],
) {
    for &v in cached_values {
        symbols.value_term(arena, fid, f, v);
    }
    let mut tr = TermTranslator::new();
    for d in &mut func_pta.mem_deps {
        d.cond = tr.translate(src_arena, arena, d.cond);
    }
    let mut keys: Vec<ValueId> = func_pta.points_to.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        for (_, c) in func_pta.points_to.get_mut(&k).expect("key just listed") {
            *c = tr.translate(src_arena, arena, *c);
        }
    }
    for g in &mut func_pta.global_stores {
        g.cond = tr.translate(src_arena, arena, g.cond);
    }
    for g in &mut func_pta.global_loads {
        g.cond = tr.translate(src_arena, arena, g.cond);
    }
    shapes[fid.0 as usize] = shape;
    pta[fid.0 as usize] = func_pta;
}

/// Runs the pipeline with function-level parallelism over `callgraph`,
/// the call graph of `module`.
///
/// The call graph's SCC condensation is stratified into *levels*
/// (`level(scc) = 1 + max(level of callee SCCs)`). Within a level no
/// function depends on another's connector shape — cross-SCC callees sit
/// strictly below, and same-SCC calls are summary-free (§4.2) — so each
/// level fans out over `threads` scoped workers. Every worker analyzes
/// its functions in fresh private arenas; results are merged back into
/// the shared arena in bottom-up order, so the returned
/// [`ModuleAnalysis`] is byte-identical for any thread count.
///
/// `threads == 1` exercises the same shard-and-merge machinery on a
/// single worker, which is what makes that guarantee hold by
/// construction rather than by accident.
///
/// When `trace` is recording, every function analysis gets a `pta.func`
/// span captured in a worker-private buffer ([`TraceBuf::fork`]) and
/// merged back at the level join in shard order — the same deterministic
/// order the results themselves are merged in.
pub fn analyze_module_par(
    module: &mut Module,
    config: &PtaConfig,
    threads: usize,
    trace: &mut TraceBuf,
    callgraph: &CallGraph,
) -> ModuleAnalysis {
    let threads = threads.max(1);
    let n = module.funcs.len();
    let mut arena = TermArena::new();
    let mut symbols = Symbols::new();
    let mut linear = LinearSolver::new();
    let mut shapes: Vec<AuxShape> = vec![AuxShape::default(); n];
    let mut pta: Vec<FuncPta> = (0..n).map(|_| FuncPta::default()).collect();

    let levels = stratify_levels(callgraph);

    for level_fids in &levels {
        // Detach the level's bodies so workers can transform them while
        // the module stays borrowable for the spawn scope.
        let mut work: Vec<(FuncId, Function)> = level_fids
            .iter()
            .map(|&fid| {
                (
                    fid,
                    std::mem::replace(&mut module.funcs[fid.0 as usize], Function::new("")),
                )
            })
            .collect();

        let results = run_level(
            &mut work,
            &shapes,
            callgraph,
            module,
            config.prune,
            threads,
            trace,
        );

        for (fid, f) in work {
            module.funcs[fid.0 as usize] = f;
        }

        // Deterministic merge, in the level's bottom-up order.
        for r in results {
            let cached_values = r.symbols.cached_values(r.fid);
            merge_one(
                r.fid,
                module.func(r.fid),
                r.shape,
                r.pta,
                &r.arena,
                &cached_values,
                &mut arena,
                &mut symbols,
                &mut shapes,
                &mut pta,
            );
            linear.unsat_count += r.unsat;
            linear.unknown_count += r.unknown;
        }
    }

    ModuleAnalysis {
        arena,
        symbols,
        shapes,
        pta,
        linear,
    }
}

/// A function's complete per-function analysis output in its private
/// term arena — everything needed to splice the function into a later
/// run without re-analyzing it. This is the unit the persistent cache
/// stores and loads.
///
/// Because every worker analysis starts from a fresh private arena, the
/// artifact of a function whose content (and callee-summary cone) is
/// unchanged is bit-identical across runs; replaying the deterministic
/// merge over loaded artifacts therefore reconstructs the exact shared
/// state a cold run would have produced.
#[derive(Debug)]
pub struct FuncArtifact {
    /// The transformed (post-connector, call-site-rewritten) body.
    pub body: Function,
    /// Connector shape.
    pub shape: AuxShape,
    /// Points-to result, with conditions in [`FuncArtifact::arena`].
    pub pta: FuncPta,
    /// The private term arena all conditions refer into.
    pub arena: TermArena,
    /// Sorted values the symbol interner cached for this function; the
    /// merge re-derives their terms against the shared arena in exactly
    /// this order.
    pub cached_values: Vec<ValueId>,
    /// Linear-solver unsat verdicts attributed to this function.
    pub unsat: u64,
    /// Linear-solver unknown verdicts attributed to this function.
    pub unknown: u64,
}

/// Where [`analyze_module_cached`] loads and stores per-function
/// artifacts. Implementations must treat `key` as fully identifying:
/// a `load` hit is spliced into the run *without verification*, so a
/// store must never return an artifact for a key it was not stored
/// under.
pub trait ArtifactStore {
    /// Fetches the artifact stored under `key`, if any.
    fn load(&mut self, key: u128) -> Option<FuncArtifact>;
    /// Persists `artifact` under `key`. Failures must be swallowed
    /// (degrading to a miss on the next run), not surfaced.
    fn store(&mut self, key: u128, artifact: &FuncArtifact);
}

/// Outcome counters of a cached run (see [`analyze_module_cached`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Functions spliced from the store.
    pub hits: u64,
    /// Functions analyzed fresh (and written back).
    pub misses: u64,
}

/// Runs the parallel pipeline against a persistent artifact store, over
/// `callgraph`, the call graph of `module`.
///
/// `keys[fid]` must be a content key that changes whenever function
/// `fid`'s analysis inputs change (its own body, its callee-summary
/// cone, the configuration, or the artifact format). For each function,
/// a store hit splices the persisted transformed body and private-arena
/// result; a miss analyzes the function exactly as
/// [`analyze_module_par`] would and writes the artifact back. Hits and
/// misses then flow through the same deterministic bottom-up merge, so
/// the result is byte-identical to a cold run.
pub fn analyze_module_cached(
    module: &mut Module,
    config: &PtaConfig,
    threads: usize,
    trace: &mut TraceBuf,
    keys: &[u128],
    store: &mut dyn ArtifactStore,
    callgraph: &CallGraph,
) -> (ModuleAnalysis, CacheOutcome) {
    let threads = threads.max(1);
    let n = module.funcs.len();
    assert_eq!(keys.len(), n, "one cache key per function");
    let mut arena = TermArena::new();
    let mut symbols = Symbols::new();
    let mut linear = LinearSolver::new();
    let mut shapes: Vec<AuxShape> = vec![AuxShape::default(); n];
    let mut pta: Vec<FuncPta> = (0..n).map(|_| FuncPta::default()).collect();
    let mut outcome = CacheOutcome::default();

    let levels = stratify_levels(callgraph);

    for level_fids in &levels {
        // Probe the store first; hits splice their transformed body into
        // the module immediately so caller levels rewrite against it.
        let mut artifacts: HashMap<FuncId, FuncArtifact> = HashMap::new();
        let mut work: Vec<(FuncId, Function)> = Vec::new();
        for &fid in level_fids {
            match store.load(keys[fid.0 as usize]) {
                Some(art) => {
                    outcome.hits += 1;
                    module.funcs[fid.0 as usize] = art.body.clone();
                    artifacts.insert(fid, art);
                }
                None => {
                    outcome.misses += 1;
                    work.push((
                        fid,
                        std::mem::replace(&mut module.funcs[fid.0 as usize], Function::new("")),
                    ));
                }
            }
        }

        let results = run_level(
            &mut work,
            &shapes,
            callgraph,
            module,
            config.prune,
            threads,
            trace,
        );

        for (fid, f) in work {
            module.funcs[fid.0 as usize] = f;
        }

        for r in results {
            let art = FuncArtifact {
                body: module.func(r.fid).clone(),
                shape: r.shape,
                pta: r.pta,
                arena: r.arena,
                cached_values: r.symbols.cached_values(r.fid),
                unsat: r.unsat,
                unknown: r.unknown,
            };
            store.store(keys[r.fid.0 as usize], &art);
            artifacts.insert(r.fid, art);
        }

        // Uniform deterministic merge over hits and misses alike, in the
        // level's bottom-up order — the same order a cold run uses.
        for &fid in level_fids {
            let art = artifacts.remove(&fid).expect("level function analyzed");
            merge_one(
                fid,
                module.func(fid),
                art.shape,
                art.pta,
                &art.arena,
                &art.cached_values,
                &mut arena,
                &mut symbols,
                &mut shapes,
                &mut pta,
            );
            linear.unsat_count += art.unsat;
            linear.unknown_count += art.unknown;
        }
    }

    (
        ModuleAnalysis {
            arena,
            symbols,
            shapes,
            pta,
            linear,
        },
        outcome,
    )
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
    fn parallel_matches_sequential_results() {
        let mut m_seq = compile(WAVEFRONT_SRC).unwrap();
        let mut m_par = compile(WAVEFRONT_SRC).unwrap();
        let seq = analyze_module(&mut m_seq);
        let cg = CallGraph::new(&m_par);
        let par = analyze_module_par(
            &mut m_par,
            &PtaConfig::default(),
            4,
            &mut TraceBuf::off(),
            &cg,
        );
        for fid in 0..m_seq.funcs.len() {
            let fid = pinpoint_ir::FuncId(fid as u32);
            assert_eq!(
                seq.shape(fid).aux_params,
                par.shape(fid).aux_params,
                "aux params of {}",
                m_seq.func(fid).name
            );
            assert_eq!(seq.shape(fid).aux_rets, par.shape(fid).aux_rets);
            assert_eq!(
                seq.func_pta(fid).mem_deps.len(),
                par.func_pta(fid).mem_deps.len(),
                "mem-dep count of {}",
                m_seq.func(fid).name
            );
        }
        let (s, p) = (seq.total_stats(), par.total_stats());
        assert_eq!(s.pruned, p.pruned);
        assert_eq!(s.kept, p.kept);
        assert_eq!(s.linear_checks, p.linear_checks);
    }

    #[test]
    fn parallel_is_byte_identical_across_thread_counts() {
        let analyses: Vec<(Module, ModuleAnalysis)> = [1usize, 2, 4, 7]
            .iter()
            .map(|&t| {
                let mut m = compile(WAVEFRONT_SRC).unwrap();
                let cg = CallGraph::new(&m);
                let a =
                    analyze_module_par(&mut m, &PtaConfig::default(), t, &mut TraceBuf::off(), &cg);
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
                let mut p0: Vec<_> = a0.func_pta(fid).points_to.iter().collect();
                let mut p1: Vec<_> = a.func_pta(fid).points_to.iter().collect();
                p0.sort_by_key(|(v, _)| **v);
                p1.sort_by_key(|(v, _)| **v);
                assert_eq!(format!("{p0:?}"), format!("{p1:?}"));
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
            let _ = analyze_module_par(&mut m, &PtaConfig::default(), t, &mut trace, &cg);
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
