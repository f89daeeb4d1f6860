//! Memory-leak detection on the SEG.
//!
//! The sparse value-flow literature the paper builds on (Fastcheck,
//! Saber) is largely about leak detection, so the framework should carry
//! it too. Unlike the source–sink checkers, a leak is an *all-paths*
//! property: an allocation leaks when **no** execution path hands the
//! memory to `free`. Two report grades:
//!
//! * **never freed** — the allocated value cannot reach any `free` in the
//!   whole program's value-flow graph (closed-world: every caller is
//!   visible, so unreachable really means never released);
//! * **conditionally freed** — every reachable `free` of the value sits
//!   in the allocating function under branch conditions; the SMT solver
//!   is asked whether the allocation can execute while *all* the freeing
//!   branches are avoided, and a witness assignment is reported.
//!
//! The traversal is context-insensitive (a may-reach query needs no
//! cloning); the conditional refinement reuses the §3.2.2 condition
//! machinery.

use crate::cond::{CondBuilder, CondConfig, CtxInterner, ROOT};
use crate::seg::{EdgeKind, ModuleSeg, SiteKind};
use pinpoint_ir::{CallGraph, FuncId, Inst, InstId, Module, ValueId};
use pinpoint_pta::Symbols;
use pinpoint_smt::{SmtResult, SmtSession, TermArena};
use std::collections::HashSet;

/// How certain the leak finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeakKind {
    /// No `free` is reachable from the allocation at all.
    NeverFreed,
    /// `free`s exist but can all be skipped on a satisfiable path.
    ConditionallyFreed,
}

/// A leak report.
#[derive(Debug, Clone)]
pub struct LeakReport {
    /// Function containing the allocation.
    pub func: FuncId,
    /// The `malloc` site.
    pub alloc_site: InstId,
    /// Report grade.
    pub kind: LeakKind,
    /// Witness branch assignment avoiding every `free`
    /// (for [`LeakKind::ConditionallyFreed`]).
    pub witness: Vec<(String, bool)>,
}

/// Runs leak detection over a finished analysis whose call graph is `cg`.
pub fn find_leaks(
    module: &Module,
    segs: &ModuleSeg,
    cg: &CallGraph,
    symbols: &mut Symbols,
    arena: &mut TermArena,
) -> Vec<LeakReport> {
    let config = CondConfig::default();
    let mut reports = Vec::new();
    for (fid, f) in module.iter_funcs() {
        for (site, inst) in f.iter_insts() {
            let Inst::Alloc { dst } = inst else { continue };
            // The utility-wrapper pattern: an allocation that is returned
            // by its function is owned by the callers; it is analysed at
            // the receiving sites via the value-flow traversal, and the
            // local function is not the owner. Skip direct returns to
            // avoid blaming the wrapper.
            let frees = reachable_frees(module, segs, cg, fid, *dst);
            match frees {
                Reachability::Escapes => {}
                Reachability::Frees(list) if list.is_empty() => {
                    reports.push(LeakReport {
                        func: fid,
                        alloc_site: site,
                        kind: LeakKind::NeverFreed,
                        witness: Vec::new(),
                    });
                }
                Reachability::Frees(list) => {
                    // Conditional refinement only when every free sits in
                    // the allocating function (the common local pattern).
                    if !list.iter().all(|&(ff, _)| ff == fid) {
                        continue;
                    }
                    let mut ctxs = CtxInterner::new();
                    let mut cb = CondBuilder::new(module, segs, symbols, arena, &mut ctxs, config);
                    // The allocation executes…
                    cb.add_control_deps(fid, site.block, ROOT, config.max_depth);
                    let alloc_cond = cb.condition();
                    // …but every freeing branch is avoided.
                    let mut avoid = Vec::new();
                    for &(_, free_site) in &list {
                        let mut fcb =
                            CondBuilder::new(module, segs, symbols, arena, &mut ctxs, config);
                        fcb.add_control_deps(fid, free_site.block, ROOT, config.max_depth);
                        if fcb.is_empty() {
                            // Unconditional free: no leak possible.
                            avoid.clear();
                            break;
                        }
                        let freed = fcb.condition();
                        avoid.push(freed);
                    }
                    if avoid.is_empty() {
                        continue;
                    }
                    let not_freed: Vec<_> = avoid.into_iter().map(|c| arena.not(c)).collect();
                    let all_avoided = arena.and(not_freed);
                    let query = arena.and2(alloc_cond, all_avoided);
                    let (result, model) = SmtSession::new().check_with_model(arena, query);
                    if result == SmtResult::Sat {
                        let witness = model
                            .into_iter()
                            .filter_map(|(name, value)| {
                                Some((Symbols::witness_name(module, &name)?, value))
                            })
                            .collect();
                        reports.push(LeakReport {
                            func: fid,
                            alloc_site: site,
                            kind: LeakKind::ConditionallyFreed,
                            witness,
                        });
                    }
                }
            }
        }
    }
    reports
}

/// Outcome of the may-reach traversal.
enum Reachability {
    /// The value reaches a `free` at these sites (possibly none).
    Frees(Vec<(FuncId, InstId)>),
    /// The value escapes into untracked memory or unknown code; ownership
    /// cannot be decided, so no report.
    Escapes,
}

/// Context-insensitive forward may-reach over the virtual global SEG
/// whose call graph is `cg`.
fn reachable_frees(
    module: &Module,
    segs: &ModuleSeg,
    cg: &CallGraph,
    fid: FuncId,
    value: ValueId,
) -> Reachability {
    let freed = segs.source_sites(SiteKind::Freed);
    let mut frees = Vec::new();
    let mut visited: HashSet<(FuncId, ValueId)> = HashSet::new();
    let mut stack = vec![(fid, value)];
    while let Some((cf, cv)) = stack.pop() {
        if !visited.insert((cf, cv)) {
            continue;
        }
        if visited.len() > 100_000 {
            return Reachability::Escapes; // budget: give the benefit of the doubt
        }
        let seg = segs.seg(cf);
        // free() uses of this value: the source index's `free` sites of
        // `cf`, in site order.
        let lo = freed.partition_point(|&(f, _)| f < cf);
        let hi = freed.partition_point(|&(f, _)| f <= cf);
        for &(_, s) in &freed[lo..hi] {
            if s.value == cv {
                frees.push((cf, s.site));
            }
        }
        // Stores into globals escape tracking precision but stay in the
        // closed world; follow the global channel. The per-function store
        // index says whether any global's list is worth scanning.
        if segs.global_store_values(cf).binary_search(&cv).is_ok() {
            for (g, entries) in &segs.global_stores {
                for (sf, sv, _) in entries {
                    if *sf == cf && *sv == cv {
                        if let Some(loads) = segs.global_loads.get(g) {
                            for &(lf, lv, _) in loads {
                                stack.push((lf, lv));
                            }
                        }
                    }
                }
            }
        }
        for e in seg.succs(cv) {
            if e.kind != EdgeKind::Transform {
                stack.push((cf, e.dst));
            }
        }
        // Descend through calls.
        for au in seg.arg_uses(cv) {
            if let Some(&p) = module.func(au.callee).params.get(au.index) {
                stack.push((au.callee, p));
            }
        }
        // Ascend through returns (to every caller: context-insensitive).
        if let Some(idx) = seg.ret_index(cv) {
            for (caller, site) in segs.callers(cg, cf) {
                if let Some(call) = segs.seg(caller).call_site(site) {
                    if let Some(&recv) = call.dsts.get(idx) {
                        stack.push((caller, recv));
                    }
                }
            }
        }
    }
    Reachability::Frees(frees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Analysis;
    use crate::query::Query;

    fn leaks(src: &str) -> (Analysis, Vec<LeakReport>) {
        let a = Analysis::from_source(src).expect("compiles");
        let reports = a.session().query(&Query::Leaks).into_leaks();
        (a, reports)
    }

    #[test]
    fn never_freed_allocation_reported() {
        let (_a, r) = leaks(
            "fn main() {
                let p: int* = malloc();
                *p = 1;
                return;
            }",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, LeakKind::NeverFreed);
    }

    #[test]
    fn freed_allocation_is_quiet() {
        let (_a, r) = leaks(
            "fn main() {
                let p: int* = malloc();
                free(p);
                return;
            }",
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn conditional_free_reported_with_witness() {
        let (_a, r) = leaks(
            "fn main(keep: bool) {
                let p: int* = malloc();
                if (!keep) { free(p); }
                return;
            }",
        );
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].kind, LeakKind::ConditionallyFreed);
        assert!(
            r[0].witness.iter().any(|(n, v)| n == "main:keep" && *v),
            "leak witness keeps the memory: {:?}",
            r[0].witness
        );
    }

    #[test]
    fn exhaustive_branches_both_freeing_is_quiet() {
        let (_a, r) = leaks(
            "fn main(c: bool) {
                let p: int* = malloc();
                if (c) { free(p); } else { free(p); }
                return;
            }",
        );
        assert!(r.is_empty(), "both arms free: {r:?}");
    }

    #[test]
    fn cross_function_free_is_seen() {
        let (_a, r) = leaks(
            "fn release(x: int*) { free(x); return; }
             fn main() {
                let p: int* = malloc();
                release(p);
                return;
             }",
        );
        assert!(r.is_empty(), "freed in callee: {r:?}");
    }

    #[test]
    fn allocation_returned_to_freeing_caller_is_quiet() {
        let (_a, r) = leaks(
            "fn make() -> int* {
                let p: int* = malloc();
                return p;
             }
             fn main() {
                let q: int* = make();
                free(q);
                return;
             }",
        );
        assert!(r.is_empty(), "freed by caller: {r:?}");
    }

    #[test]
    fn allocation_returned_to_leaking_caller_reported() {
        let (a, r) = leaks(
            "fn make() -> int* {
                let p: int* = malloc();
                return p;
             }
             fn main() {
                let q: int* = make();
                *q = 1;
                return;
             }",
        );
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(a.module.func(r[0].func).name, "make");
    }

    #[test]
    fn global_stash_counts_as_reachable() {
        // Stored into a global, loaded and freed elsewhere: not a leak.
        let (_a, r) = leaks(
            "global cell: int*;
             fn main() {
                let p: int* = malloc();
                *cell = p;
                return;
             }
             fn cleaner() {
                let q: int* = *cell;
                free(q);
                return;
             }",
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn only_the_stored_value_takes_the_global_channel() {
        // `p` is stashed in a global that `cleaner` loads and frees; `q`
        // lives in the same function and is never freed. The channel
        // follows the stored value only.
        let (a, r) = leaks(
            "global cell: int*;
             fn main() {
                let p: int* = malloc();
                *cell = p;
                let q: int* = malloc();
                *q = 1;
                return;
             }
             fn cleaner() {
                let x: int* = *cell;
                free(x);
                return;
             }",
        );
        let main = a.module.func_by_name("main").unwrap();
        let allocs: Vec<InstId> = a
            .module
            .func(main)
            .iter_insts()
            .filter(|(_, inst)| matches!(inst, Inst::Alloc { .. }))
            .map(|(site, _)| site)
            .collect();
        assert_eq!(allocs.len(), 2);
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!((r[0].func, r[0].alloc_site), (main, allocs[1]), "{r:?}");
        assert_eq!(r[0].kind, LeakKind::NeverFreed);
    }
}
