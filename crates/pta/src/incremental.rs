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
//! An edit is a build with something to splice: [`crate::analyze_module_with`]
//! takes an optional [`PreviousRun`] — the previous analysis and the
//! dirty set: the functions whose own fingerprint the edit changed,
//! closed over their callers once by the caller ([`dirty_closure`]) on
//! the new call graph — over a module in which every clean function
//! already holds its previous *transformed* body. The caller puts those
//! bodies there: the front end of an update moves them over for the
//! functions whose source did not change rather than lowering them
//! again, and the transform never
//! changes a call, so the call graph the caller builds over that mixed
//! module is the pre-transform one. The previous analysis becomes the
//! new one in place: clean functions' points-to results and symbol
//! caches stay where they are, and so does the shared hash-consed arena
//! (it is append-only, so every clean term stays valid); the dirty
//! functions' entries are cleared, and they go through the same
//! analyse-in-a-private-arena, merge-in-level-order steps as a cold
//! build, in the call graph's [`CallGraph::schedule`] order. A previous run covers the same
//! function set as the new module; a caller whose function set changed
//! passes none, and that run is a cold build.
//!
//! The caller reads the same closed set for every other reuse layer (the
//! SEG's rebuild set, the stamps a query cache validates against), so
//! this is the one statement of what an edit invalidates. The
//! conservative dirtying rule (all transitive callers of an edit) can
//! over-approximate — a body edit that leaves the connector shape
//! untouched would not really need its callers re-analysed — but it never
//! under-approximates, so every function's shape, body and facts are a
//! cold build's (asserted by the test-suite on generated projects). The
//! `TermId`s of re-analysed functions' terms are new ones appended to the
//! previous arena, so they can differ from a cold build's numbering.

use crate::driver::ModuleAnalysis;
use pinpoint_ir::{CallGraph, FuncId, Module};

/// Outcome of a points-to run.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The analysis (same shape whether or not anything was spliced).
    pub analysis: ModuleAnalysis,
    /// Functions that were analysed, in merge order.
    pub reanalyzed: Vec<FuncId>,
    /// Functions spliced from the previous run.
    pub reused: usize,
}

/// A previous run to splice from: its analysis, consumed — what is clean
/// stays in place in the new run — and the functions an edit dirtied.
/// The previous run must have used the same [`crate::PtaConfig`] over the
/// same function set, and the module of the new run must hold every
/// clean function's previous transformed body (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct PreviousRun {
    /// The previous run's analysis.
    pub analysis: ModuleAnalysis,
    /// Per [`FuncId`] of the *new* module, whether an edit dirtied it:
    /// the functions whose own fingerprint changed, already closed under
    /// transitive callers on the new call graph ([`dirty_closure`]).
    pub dirty: Vec<bool>,
}

/// Closes the dirty set `dirty` (indexed by [`FuncId`]) under transitive
/// callers: a caller's call sites must be re-rewritten against
/// possibly-changed callee shapes, so any function above an edit is
/// dirty too.
///
/// Idempotent: an already closed set gains nothing.
pub fn dirty_closure(callgraph: &CallGraph, dirty: &mut [bool]) {
    let mut work: Vec<FuncId> = (0..dirty.len())
        .filter(|&i| dirty[i])
        .map(|i| FuncId(i as u32))
        .collect();
    while let Some(f) = work.pop() {
        for &caller in callgraph.callers(f) {
            let seen = &mut dirty[caller.0 as usize];
            if !*seen {
                *seen = true;
                work.push(caller);
            }
        }
    }
}

/// The state a run starts from: the analysis of `previous` with every
/// function of its dirty set, which the caller closed over callers,
/// cleared in place (shape, points-to result, cached symbols; the arena
/// and every clean function's entries stay as they are), and the dirty
/// set. Without a previous run everything is dirty and the arena is
/// fresh.
///
/// # Panics
///
/// Panics if `previous` covers another number of functions than
/// `module`; a debug build also if its dirty set is not caller-closed.
pub(crate) fn splice(
    module: &Module,
    callgraph: &CallGraph,
    previous: Option<PreviousRun>,
) -> (ModuleAnalysis, Vec<bool>) {
    let n = module.funcs.len();
    let Some(PreviousRun {
        analysis: mut out,
        dirty,
    }) = previous
    else {
        return (ModuleAnalysis::blank(n), vec![true; n]);
    };
    assert_eq!(out.pta.len(), n, "a previous run covers the same functions");
    assert_eq!(dirty.len(), n, "one dirty flag per function");
    debug_assert!(
        is_caller_closed(callgraph, &dirty),
        "a previous run's dirty set is closed over callers"
    );
    out.symbols.invalidate_functions(&dirty);
    for i in (0..n).filter(|&i| dirty[i]) {
        out.clear(i);
    }
    (out, dirty)
}

/// Whether every caller of a function in `dirty` is in it too.
fn is_caller_closed(callgraph: &CallGraph, dirty: &[bool]) -> bool {
    (0..dirty.len()).filter(|&i| dirty[i]).all(|i| {
        callgraph
            .callers(FuncId(i as u32))
            .iter()
            .all(|c| dirty[c.0 as usize])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{analyze_module, analyze_module_with, PtaConfig};
    use pinpoint_obs::TraceBuf;

    /// Re-analyses `module` against the previous run of `old_module`,
    /// seeded by `dirty`, closing it over callers and moving the
    /// transformed body of every function outside the closure over from
    /// `old_module` first, as the caller of a splice does.
    fn incremental(
        module: &mut Module,
        old_module: Module,
        old: ModuleAnalysis,
        mut dirty: Vec<bool>,
    ) -> IncrementalOutcome {
        let cg = CallGraph::new(module);
        dirty_closure(&cg, &mut dirty);
        for (i, body) in old_module.funcs.into_iter().enumerate() {
            if !dirty[i] {
                module.funcs[i] = body;
            }
        }
        let previous = PreviousRun {
            analysis: old,
            dirty,
        };
        let config = PtaConfig::default();
        analyze_module_with(module, &config, &mut TraceBuf::off(), &cg, Some(previous))
    }

    /// Seeds the dirty set from edited function names, as a build system
    /// reports them.
    fn incremental_by_name(
        module: &mut Module,
        old_module: Module,
        old: ModuleAnalysis,
        changed: &[&str],
    ) -> IncrementalOutcome {
        let mut seeds = vec![false; module.funcs.len()];
        for f in changed.iter().filter_map(|n| module.func_by_name(n)) {
            seeds[f.0 as usize] = true;
        }
        incremental(module, old_module, old, seeds)
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
        let dirty: Vec<bool> = (0..after.len()).map(|i| before[i] != after[i]).collect();
        assert_eq!(
            dirty.iter().filter(|&&d| d).count(),
            1,
            "only leaf_a's body changed"
        );
        let out = incremental(&mut new_module, old_module, old, dirty);
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
    fn no_edit_reuses_everything() {
        let mut old_module = pinpoint_ir::compile(BASE).unwrap();
        let old = analyze_module(&mut old_module);
        let mut new_module = pinpoint_ir::compile(BASE).unwrap();
        let out = incremental_by_name(&mut new_module, old_module, old, &[]);
        assert!(out.reanalyzed.is_empty());
        assert_eq!(out.reused, new_module.funcs.len());
    }
}
