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
//! An edit is a build with something to splice: [`crate::analyze_module_par`]
//! takes an optional [`PreviousRun`] — the previous analysis, its
//! transformed module, and the set of edited functions (typically a
//! fingerprint-key diff). Clean functions' transformed bodies, points-to
//! results and symbol caches are moved over, and the shared hash-consed
//! arena with them (it is append-only, so every clean term stays valid);
//! dirty functions then go through the same analyse-in-a-private-arena,
//! merge-in-level-order steps as a cold build, with their stale
//! term-cache entries invalidated first. A run whose function set changed
//! splices nothing (`fell_back`) and *is* a cold build.
//!
//! The conservative dirtying rule (all transitive callers of an edit) can
//! over-approximate — a body edit that leaves the connector shape
//! untouched would not really need its callers re-analysed — but it never
//! under-approximates, so every function's shape, body and facts are a
//! cold build's (asserted by the test-suite on generated projects). The
//! `TermId`s of re-analysed functions' terms are new ones appended to the
//! previous arena, so they can differ from a cold build's numbering.

use crate::driver::ModuleAnalysis;
use pinpoint_ir::{CallGraph, FuncId, Module};
use std::collections::HashSet;

/// Outcome of a points-to run.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The analysis (same shape whether or not anything was spliced).
    pub analysis: ModuleAnalysis,
    /// Functions that were analysed, in merge order.
    pub reanalyzed: Vec<FuncId>,
    /// Functions spliced from the previous run.
    pub reused: usize,
    /// `true` if a previous run was given but nothing could be spliced
    /// from it (function set changed).
    pub fell_back: bool,
}

/// A previous run to splice from: its transformed module and analysis,
/// both consumed — what is clean moves into the new run — and the
/// functions an edit dirtied. The previous run must have used the same
/// [`crate::PtaConfig`].
#[derive(Debug)]
pub struct PreviousRun {
    /// The previous run's transformed module.
    pub module: Module,
    /// The previous run's analysis.
    pub analysis: ModuleAnalysis,
    /// The edited [`FuncId`]s of the *new* module — typically derived by
    /// diffing [`pinpoint_ir::module_fingerprints`]-based keys. Re-closed
    /// under transitive callers ([`dirty_closure`]), so an already
    /// caller-closed set (as fingerprint-key diffs are) costs nothing.
    pub dirty: HashSet<FuncId>,
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

/// The state a run starts from: splices every function outside the
/// caller-closed dirty set of `previous` into `module` (transformed body)
/// and the returned analysis (shape, points-to facts; the arena, interner
/// and solver counters carry over whole, minus the dirty functions'
/// cached symbols). Returns that analysis, which functions are clean, and
/// whether a previous run had to be discarded because the function set
/// changed. Without a usable previous run everything is dirty and the
/// arena is fresh.
pub(crate) fn splice(
    module: &mut Module,
    callgraph: &CallGraph,
    previous: Option<PreviousRun>,
) -> (ModuleAnalysis, Vec<bool>, bool) {
    let n = module.funcs.len();
    let mut out = ModuleAnalysis::blank(n);
    let mut clean = vec![false; n];
    let Some(previous) = previous else {
        return (out, clean, false);
    };
    if !same_shape(module, &previous.module) {
        return (out, clean, true);
    }
    let dirty = dirty_closure(callgraph, previous.dirty);
    let old = previous.analysis;
    (out.arena, out.symbols, out.linear) = (old.arena, old.symbols, old.linear);
    let bodies = previous.module.funcs.into_iter();
    for (i, ((shape, pta), body)) in old.shapes.into_iter().zip(old.pta).zip(bodies).enumerate() {
        let fid = FuncId(i as u32);
        if dirty.contains(&fid) {
            out.symbols.invalidate_function(fid);
            continue;
        }
        module.funcs[i] = body;
        (out.shapes[i], out.pta[i], clean[i]) = (shape, pta, true);
    }
    (out, clean, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{analyze_module, analyze_module_par, PtaConfig};
    use pinpoint_obs::TraceBuf;

    /// Re-analyses `module` against the previous run of `old_module`,
    /// dirty set `dirty`, at `threads` workers.
    fn incremental(
        module: &mut Module,
        old_module: Module,
        old: ModuleAnalysis,
        dirty: HashSet<FuncId>,
        threads: usize,
    ) -> IncrementalOutcome {
        let cg = CallGraph::new(module);
        let previous = PreviousRun {
            module: old_module,
            analysis: old,
            dirty,
        };
        let config = PtaConfig::default();
        analyze_module_par(
            module,
            &config,
            threads,
            &mut TraceBuf::off(),
            &cg,
            Some(previous),
        )
    }

    /// Seeds the dirty set from edited function names, as a build system
    /// reports them.
    fn incremental_by_name(
        module: &mut Module,
        old_module: Module,
        old: ModuleAnalysis,
        changed: &[&str],
    ) -> IncrementalOutcome {
        let seeds: HashSet<FuncId> = changed
            .iter()
            .filter_map(|n| module.func_by_name(n))
            .collect();
        incremental(module, old_module, old, seeds, 1)
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
        let out = incremental(&mut new_module, old_module, old, dirty, 1);
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
        // Nothing spliced, so the run is a cold build, term for term.
        let mut cold_module = pinpoint_ir::compile(&src).unwrap();
        let cold = analyze_module(&mut cold_module);
        assert_eq!(out.analysis.arena.len(), cold.arena.len());
        assert_eq!(format!("{:?}", out.analysis.pta), format!("{:?}", cold.pta));
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
