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

use crate::cond::{CondBuilder, CtxInterner, ROOT};
use crate::seg::{EdgeKind, ModuleSeg};
use pinpoint_ir::{intrinsics, FuncId, Inst, InstId, Module, ValueId};
use pinpoint_pta::Symbols;
use pinpoint_smt::{SmtResult, SmtSolver, TermArena};
use std::collections::{HashMap, HashSet};

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

/// Runs leak detection over a finished analysis.
pub fn check_leaks(
    module: &Module,
    segs: &ModuleSeg,
    symbols: &mut Symbols,
    arena: &mut TermArena,
) -> Vec<LeakReport> {
    let mut reports = Vec::new();
    let mut smt = SmtSolver::new();
    for (fid, f) in module.iter_funcs() {
        for (site, inst) in f.iter_insts() {
            let Inst::Alloc { dst } = inst else { continue };
            // The utility-wrapper pattern: an allocation that is returned
            // by its function is owned by the callers; it is analysed at
            // the receiving sites via the value-flow traversal, and the
            // local function is not the owner. Skip direct returns to
            // avoid blaming the wrapper.
            let frees = reachable_frees(module, segs, fid, *dst);
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
                    let mut cb = CondBuilder::new(
                        module,
                        segs,
                        symbols,
                        arena,
                        &mut ctxs,
                        crate::cond::CondConfig::default(),
                    );
                    // The allocation executes…
                    cb.add_control_deps(fid, site.block, ROOT, 6);
                    let alloc_cond = cb.condition();
                    // …but every freeing branch is avoided.
                    let mut avoid = Vec::new();
                    for &(_, free_site) in &list {
                        let mut fcb = CondBuilder::new(
                            module,
                            segs,
                            symbols,
                            arena,
                            &mut ctxs,
                            crate::cond::CondConfig::default(),
                        );
                        fcb.add_control_deps(fid, free_site.block, ROOT, 6);
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
                    let (result, model) = smt.check_with_model(arena, query);
                    if result == SmtResult::Sat {
                        let witness = model
                            .into_iter()
                            .filter_map(|(name, value)| Some((friendly(module, &name)?, value)))
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

/// Context-insensitive forward may-reach over the virtual global SEG.
fn reachable_frees(module: &Module, segs: &ModuleSeg, fid: FuncId, value: ValueId) -> Reachability {
    let mut frees = Vec::new();
    let mut visited: HashSet<(FuncId, ValueId)> = HashSet::new();
    let mut stack = vec![(fid, value)];
    // Receiver lookup per function, built lazily.
    let mut free_sites: HashMap<FuncId, HashMap<ValueId, Vec<InstId>>> = HashMap::new();
    while let Some((cf, cv)) = stack.pop() {
        if !visited.insert((cf, cv)) {
            continue;
        }
        if visited.len() > 100_000 {
            return Reachability::Escapes; // budget: give the benefit of the doubt
        }
        let f = module.func(cf);
        let seg = segs.seg(cf);
        // free() uses of this value.
        let sites = free_sites.entry(cf).or_insert_with(|| {
            let mut m: HashMap<ValueId, Vec<InstId>> = HashMap::new();
            for (site, inst) in f.iter_insts() {
                if let Inst::Call { callee, args, .. } = inst {
                    if callee == intrinsics::FREE {
                        if let Some(&a) = args.first() {
                            m.entry(a).or_default().push(site);
                        }
                    }
                }
            }
            m
        });
        if let Some(list) = sites.get(&cv) {
            for &s in list {
                frees.push((cf, s));
            }
        }
        // Stores into globals escape tracking precision but stay in the
        // closed world; follow the global channel.
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
        for e in seg.succs(cv) {
            if e.kind != EdgeKind::Transform {
                stack.push((cf, e.dst));
            }
        }
        // Descend through calls.
        for au in seg.arg_uses(cv) {
            // Uses are of user-function calls only; one whose name does
            // not resolve is external.
            let Some(gid) = au.callee else {
                return Reachability::Escapes;
            };
            if let Some(&p) = module.func(gid).params.get(au.index) {
                stack.push((gid, p));
            }
        }
        // Ascend through returns (to every caller: context-insensitive).
        if let Some(idx) = seg.ret_index(cv) {
            for &(caller, site) in segs.callers(cf) {
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

fn friendly(module: &Module, raw: &str) -> Option<String> {
    let base = raw.split('|').next()?;
    let rest = base.strip_prefix('f')?;
    let (fid_str, vid_str) = rest.split_once(".v")?;
    let fid: u32 = fid_str.parse().ok()?;
    let vid: u32 = vid_str.parse().ok()?;
    let f = module.funcs.get(fid as usize)?;
    let info = f.values.get(vid as usize)?;
    if info.name.starts_with("aux_") {
        return None;
    }
    if let Some(def) = info.def {
        if matches!(f.inst(def), Inst::Const { .. }) {
            return None;
        }
    }
    Some(format!("{}:{}", f.name, info.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Analysis;

    fn leaks(src: &str) -> (Analysis, Vec<LeakReport>) {
        let a = Analysis::from_source(src).expect("compiles");
        let reports = a.check_leaks();
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
}
