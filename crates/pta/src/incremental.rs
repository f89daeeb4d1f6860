//! Incremental re-analysis.
//!
//! The industrial requirement the paper quotes (§5: "checking
//! millions-of-LoC code in 5-10 hours", citing McPeak et al.'s
//! incremental bug detection) implies that day-to-day runs must not pay
//! the whole-program price for a one-function edit. Pinpoint's bottom-up,
//! per-function architecture makes this natural:
//!
//! * the quasi points-to result, connector shape, and transformed body of
//!   a function depend only on the function's own IR and its *callees'*
//!   shapes;
//! * therefore an edit invalidates exactly the edited functions plus the
//!   transitive *callers* of any function whose interface may have
//!   changed — everything else is spliced from the previous run.
//!
//! [`analyze_module_incremental_dirty`] takes the previous analysis, a
//! freshly lowered module, and the set of edited functions (typically a
//! fingerprint-key diff). Clean functions' transformed bodies and
//! points-to results are moved over; dirty functions are re-analysed
//! bottom-up, with their stale term-cache entries invalidated (the shared
//! hash-consed arena is append-only, so all clean terms stay valid).
//!
//! The conservative dirtying rule (all transitive callers of an edit) can
//! over-approximate — a body edit that leaves the connector shape
//! untouched would not really need its callers re-analysed — but it never
//! under-approximates, so the incremental result is always identical to a
//! full re-analysis (asserted by the test-suite on generated projects).
//!
//! A whole-module run is the same algorithm with nothing to splice and
//! everything dirty: [`crate::analyze_module_with`] and the shape-change
//! fallback both call [`reanalyze`] without a previous run.

use crate::driver::{analyze_function, detach, ModuleAnalysis, PtaConfig};
use pinpoint_ir::{CallGraph, FuncId, Module};
use std::collections::HashSet;

/// Outcome of an incremental run.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The merged analysis (same shape as a full run's).
    pub analysis: ModuleAnalysis,
    /// Functions that were actually re-analysed.
    pub reanalyzed: Vec<FuncId>,
    /// Functions spliced from the previous run.
    pub reused: usize,
    /// `true` if the incremental path was abandoned for a full run
    /// (function set changed).
    pub fell_back: bool,
}

/// Closes a seed set of dirty functions under transitive callers: a
/// caller's call sites must be re-rewritten against possibly-changed
/// callee shapes, so any function above an edit is dirty too.
///
/// Idempotent, so feeding it an already-closed set (e.g. one derived
/// from the transitive fingerprint keys of `pinpoint-cache`) is a no-op.
pub fn dirty_closure(
    callgraph: &CallGraph,
    seeds: impl IntoIterator<Item = FuncId>,
) -> HashSet<FuncId> {
    let mut dirty: HashSet<FuncId> = seeds.into_iter().collect();
    let mut work: Vec<FuncId> = dirty.iter().copied().collect();
    while let Some(f) = work.pop() {
        for &caller in callgraph.callers(f) {
            if dirty.insert(caller) {
                work.push(caller);
            }
        }
    }
    dirty
}

/// `true` when the two modules have the same function names in the same
/// order — the precondition for splicing per-function artifacts.
fn same_shape(module: &Module, old_module: &Module) -> bool {
    module.funcs.len() == old_module.funcs.len()
        && module
            .iter_funcs()
            .zip(old_module.iter_funcs())
            .all(|((_, a), (_, b))| a.name == b.name)
}

/// Incrementally re-analyses `module` (freshly lowered, untransformed)
/// against the previous `old` analysis of `old_module` — both consumed:
/// what is clean moves into the result — under the same `config` the
/// previous run used.
///
/// `dirty` is the set of edited [`FuncId`]s — typically derived by
/// diffing [`pinpoint_ir::module_fingerprints`]-based keys. It is
/// re-closed under transitive callers ([`dirty_closure`]), so passing an
/// already caller-closed set (as fingerprint-key diffs are) costs
/// nothing. `callgraph` is the call graph of the new `module`. If the
/// function name sequences of the two modules differ
/// (additions/removals), nothing can be spliced and the whole module is
/// re-analysed from a fresh arena (`fell_back`).
pub fn analyze_module_incremental_dirty(
    module: &mut Module,
    old_module: Module,
    old: ModuleAnalysis,
    dirty: &HashSet<FuncId>,
    callgraph: &CallGraph,
    config: &PtaConfig,
) -> IncrementalOutcome {
    let dirty =
        same_shape(module, &old_module).then(|| dirty_closure(callgraph, dirty.iter().copied()));
    let previous = dirty.as_ref().map(|dirty| (old_module, old, dirty));
    let (analysis, reanalyzed) = reanalyze(module, previous, callgraph, config);
    IncrementalOutcome {
        analysis,
        reused: module.funcs.len() - reanalyzed.len(),
        reanalyzed,
        fell_back: dirty.is_none(),
    }
}

/// The serial, shared-arena algorithm: splices every function outside
/// `dirty` from the `previous` run (transformed body, shape, points-to
/// facts; the arena, interner and solver counters carry over whole), then
/// analyses the rest bottom-up in place. Returns the analysis and the
/// functions it analysed. `dirty` must be closed under transitive
/// callers; without a previous run everything is analysed, from a fresh
/// arena.
pub(crate) fn reanalyze(
    module: &mut Module,
    previous: Option<(Module, ModuleAnalysis, &HashSet<FuncId>)>,
    callgraph: &CallGraph,
    config: &PtaConfig,
) -> (ModuleAnalysis, Vec<FuncId>) {
    let n = module.funcs.len();
    let mut out = ModuleAnalysis::blank(n);
    let mut clean = vec![false; n];
    if let Some((old_module, old, dirty)) = previous {
        (out.arena, out.symbols, out.linear) = (old.arena, old.symbols, old.linear);
        let bodies = old_module.funcs.into_iter();
        for (i, ((shape, pta), body)) in old.shapes.into_iter().zip(old.pta).zip(bodies).enumerate()
        {
            let fid = FuncId(i as u32);
            if dirty.contains(&fid) {
                out.symbols.invalidate_function(fid);
                continue;
            }
            module.funcs[i] = body;
            (out.shapes[i], out.pta[i], clean[i]) = (shape, pta, true);
        }
    }
    let mut reanalyzed = Vec::new();
    for &fid in callgraph.bottom_up() {
        if clean[fid.0 as usize] {
            continue;
        }
        reanalyzed.push(fid);
        let mut body = detach(module, fid);
        let (shape, pta) = analyze_function(
            &mut out.arena,
            &mut out.symbols,
            &mut out.linear,
            fid,
            &mut body,
            module,
            &out.shapes,
            callgraph,
            config,
        );
        *module.func_mut(fid) = body;
        out.shapes[fid.0 as usize] = shape;
        out.pta[fid.0 as usize] = pta;
    }
    (out, reanalyzed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::analyze_module;

    /// Seeds the dirty set from edited function names, as a build system
    /// reports them.
    fn incremental_by_name(
        module: &mut Module,
        old_module: Module,
        old: ModuleAnalysis,
        changed: &[&str],
    ) -> IncrementalOutcome {
        let cg = CallGraph::new(module);
        let seeds: HashSet<FuncId> = changed
            .iter()
            .filter_map(|n| module.func_by_name(n))
            .collect();
        analyze_module_incremental_dirty(
            module,
            old_module,
            old,
            &seeds,
            &cg,
            &PtaConfig::default(),
        )
    }

    const BASE: &str = "
        fn leaf_a(p: int*) -> int { let x: int = *p; return x; }
        fn leaf_b(q: int**) { *q = null; return; }
        fn mid(q: int**) -> int {
            leaf_b(q);
            let p: int* = *q;
            let v: int = leaf_a(p);
            return v;
        }
        fn top() -> int {
            let q: int** = malloc();
            let p: int* = malloc();
            *q = p;
            let v: int = mid(q);
            return v;
        }
        fn unrelated(x: int) -> int { return x + 1; }
    ";

    fn edited_leaf_a() -> String {
        BASE.replace(
            "fn leaf_a(p: int*) -> int { let x: int = *p; return x; }",
            "fn leaf_a(p: int*) -> int { let x: int = *p; return x + 1; }",
        )
    }

    #[test]
    fn leaf_edit_reanalyzes_only_its_caller_chain() {
        let mut old_module = pinpoint_ir::compile(BASE).unwrap();
        let old_pristine = pinpoint_ir::compile(BASE).unwrap();
        let old = analyze_module(&mut old_module);
        let src = edited_leaf_a();
        let mut new_module = pinpoint_ir::compile(&src).unwrap();
        // NOTE: old_module is post-transform; the splice source.
        let out = incremental_by_name(&mut new_module, old_module, old, &["leaf_a"]);
        assert!(!out.fell_back);
        let names: Vec<&str> = out
            .reanalyzed
            .iter()
            .map(|&f| new_module.func(f).name.as_str())
            .collect();
        // leaf_a + its callers mid + top; leaf_b and unrelated reused.
        assert!(names.contains(&"leaf_a"), "{names:?}");
        assert!(names.contains(&"mid"), "{names:?}");
        assert!(names.contains(&"top"), "{names:?}");
        assert!(!names.contains(&"leaf_b"), "{names:?}");
        assert!(!names.contains(&"unrelated"), "{names:?}");
        assert_eq!(out.reused, 2);
        let _ = old_pristine;
    }

    #[test]
    fn incremental_matches_full_analysis() {
        let mut old_module = pinpoint_ir::compile(BASE).unwrap();
        let old = analyze_module(&mut old_module);
        let src = edited_leaf_a();
        // Full run on the edited source.
        let mut full_module = pinpoint_ir::compile(&src).unwrap();
        let full = analyze_module(&mut full_module);
        // Incremental run.
        let mut inc_module = pinpoint_ir::compile(&src).unwrap();
        let out = incremental_by_name(&mut inc_module, old_module, old, &["leaf_a"]);
        // Shapes must agree function by function.
        for (fid, f) in full_module.iter_funcs() {
            let a = full.shape(fid);
            let b = out.analysis.shape(fid);
            assert_eq!(
                a.aux_params.len(),
                b.aux_params.len(),
                "{}: aux params",
                f.name
            );
            assert_eq!(a.aux_rets.len(), b.aux_rets.len(), "{}: aux rets", f.name);
            // Memory-dependence edge counts must agree.
            assert_eq!(
                full.func_pta(fid).mem_deps.len(),
                out.analysis.func_pta(fid).mem_deps.len(),
                "{}: mem deps",
                f.name
            );
        }
        // The transformed modules must verify.
        let errs = pinpoint_ir::verify_module(&inc_module);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn dirty_set_entry_point_expands_to_caller_chain() {
        // The automatic path: diff pre-transform fingerprints instead of
        // naming the edited function, then let the closure find callers.
        let mut old_module = pinpoint_ir::compile(BASE).unwrap();
        let old_pristine = pinpoint_ir::compile(BASE).unwrap();
        let old = analyze_module(&mut old_module);
        let src = edited_leaf_a();
        let mut new_module = pinpoint_ir::compile(&src).unwrap();
        let before = pinpoint_ir::module_fingerprints(&old_pristine);
        let after = pinpoint_ir::module_fingerprints(&new_module);
        let dirty: HashSet<FuncId> = (0..after.len())
            .filter(|&i| before[i] != after[i])
            .map(|i| FuncId(i as u32))
            .collect();
        assert_eq!(dirty.len(), 1, "only leaf_a's body changed");
        let cg = CallGraph::new(&new_module);
        let out = analyze_module_incremental_dirty(
            &mut new_module,
            old_module,
            old,
            &dirty,
            &cg,
            &PtaConfig::default(),
        );
        assert!(!out.fell_back);
        let names: Vec<&str> = out
            .reanalyzed
            .iter()
            .map(|&f| new_module.func(f).name.as_str())
            .collect();
        assert!(names.contains(&"leaf_a"), "{names:?}");
        assert!(names.contains(&"mid"), "{names:?}");
        assert!(names.contains(&"top"), "{names:?}");
        assert_eq!(out.reused, 2, "leaf_b and unrelated spliced");
    }

    #[test]
    fn function_set_change_falls_back() {
        let mut old_module = pinpoint_ir::compile(BASE).unwrap();
        let old = analyze_module(&mut old_module);
        let src = format!("{BASE}\nfn brand_new() {{ return; }}");
        let mut new_module = pinpoint_ir::compile(&src).unwrap();
        let out = incremental_by_name(&mut new_module, old_module, old, &["brand_new"]);
        assert!(out.fell_back);
        assert_eq!(out.reused, 0);
    }

    #[test]
    fn no_edit_reuses_everything() {
        let mut old_module = pinpoint_ir::compile(BASE).unwrap();
        let old = analyze_module(&mut old_module);
        let mut new_module = pinpoint_ir::compile(BASE).unwrap();
        let out = incremental_by_name(&mut new_module, old_module, old, &[]);
        assert!(out.reanalyzed.is_empty());
        assert_eq!(out.reused, new_module.funcs.len());
    }
}
