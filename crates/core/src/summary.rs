//! Compositional value-flow summaries (§3.3.2).
//!
//! The paper's VF summaries record, per function, how bug-specific
//! vertices relate to the function's interface: VF1 (parameter → return),
//! VF2 (source → return), VF3 (parameter → source), VF4 (parameter →
//! sink). The demand-driven search uses them to decide whether entering a
//! callee can possibly contribute to a bug path — avoiding the blind
//! inlining a summary-free search would do at every call site.
//!
//! This module computes the *existence* form of those summaries for a
//! given property: for a formal parameter of a function, can a value
//! arriving there reach (transitively, through callees and the function's
//! own interface) a sink, a return value, or a global store? If not,
//! descending into that parameter during the search is provably fruitless
//! and the detector skips it.
//!
//! The bits are computed on demand: the first question about a function
//! forces its SCC and the not-yet-forced SCCs below it, bottom-up over the
//! call-graph condensation ([`ConeMemo`]), each SCC by a monotone boolean
//! fixpoint over its members. The least fixpoint of a monotone system
//! restricted to an SCC whose callees are final equals the whole-module
//! one, so the bits are a pure function of `(module, segs, property)` —
//! the same whichever question forced them, in whatever order.
//!
//! Summaries are purely boolean, so they mint no terms themselves — but
//! by pruning the search they bound which conditions ever reach the
//! solver, and those conditions all live in the shared module interner
//! whose overlay arenas and verdict table detect.rs threads through the
//! workers (see DESIGN.md "Cross-query condition reuse").

use crate::seg::{EdgeKind, ModuleSeg};
use crate::spec::{self, Spec};
use pinpoint_ir::{CallGraph, ConeMemo, FuncId, Module, ValueId};
use std::collections::HashSet;

/// Per-function, per-parameter interface summaries for one property,
/// forced on first read.
#[derive(Debug)]
pub struct ParamSummaries<'a> {
    module: &'a Module,
    segs: &'a ModuleSeg,
    property: &'a Spec,
    cg: &'a CallGraph,
    /// `[f][j]` — a value arriving at parameter `j` of `f` may reach a
    /// sink, a return position, or a global store.
    interesting: ConeMemo<Vec<bool>>,
}

impl<'a> ParamSummaries<'a> {
    /// An empty memo for `property` over `module`; `cg` must be the
    /// module's call graph.
    pub fn new(
        module: &'a Module,
        segs: &'a ModuleSeg,
        property: &'a Spec,
        cg: &'a CallGraph,
    ) -> Self {
        ParamSummaries {
            module,
            segs,
            property,
            cg,
            interesting: ConeMemo::new(module.funcs.len()),
        }
    }

    /// [`ParamSummaries::new`] with every function forced — the
    /// whole-module table the on-demand bits are tested against.
    pub fn build(
        module: &'a Module,
        segs: &'a ModuleSeg,
        property: &'a Spec,
        cg: &'a CallGraph,
    ) -> Self {
        let mut all = Self::new(module, segs, property, cg);
        for &f in cg.bottom_up() {
            all.force(f);
        }
        all
    }

    /// `true` if descending into parameter `j` of `f` can contribute to a
    /// bug path. Forces `f`'s callee cone on first read; functions outside
    /// the module default to `true` (conservative).
    pub fn descend_useful(&mut self, f: FuncId, param_index: usize) -> bool {
        if f.0 as usize >= self.interesting.len() {
            return true;
        }
        self.force(f);
        self.interesting
            .get(f)
            .and_then(|v| v.get(param_index))
            .copied()
            .unwrap_or(true)
    }

    fn force(&mut self, f: FuncId) {
        let (module, segs, property) = (self.module, self.segs, self.property);
        self.interesting.force(self.cg, f, |members, done| {
            scc_fixpoint(module, segs, property, members, done)
        });
    }
}

/// The monotone fixpoint over one SCC's members, given the final bits of
/// every callee outside it: re-evaluate until no parameter flips.
fn scc_fixpoint(
    module: &Module,
    segs: &ModuleSeg,
    property: &Spec,
    members: &[FuncId],
    done: &ConeMemo<Vec<bool>>,
) -> Vec<Vec<bool>> {
    let sinks: Vec<HashSet<ValueId>> = members
        .iter()
        .map(|&fid| {
            spec::spec_sinks(property, module.func(fid))
                .into_iter()
                .map(|s| s.value)
                .collect()
        })
        .collect();
    let mut local: Vec<Vec<bool>> = members
        .iter()
        .map(|&fid| vec![false; module.func(fid).params.len()])
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (m, &fid) in members.iter().enumerate() {
            for (j, &p) in module.func(fid).params.iter().enumerate() {
                if local[m][j] {
                    continue;
                }
                // Members ascend by id; everything else is a final callee.
                let callee_bit = |gid: FuncId, index: usize| {
                    let bits = match members.binary_search(&gid) {
                        Ok(i) => local.get(i),
                        Err(_) => done.get(gid),
                    };
                    bits.and_then(|b| b.get(index)).copied().unwrap_or(false)
                };
                if param_reaches(segs, property, &sinks[m], callee_bit, fid, p) {
                    local[m][j] = true;
                    changed = true;
                }
            }
        }
    }
    local
}

/// Local forward reachability from `start` in `fid`, consulting callee
/// summaries (`callee_bit`) at call sites.
fn param_reaches(
    segs: &ModuleSeg,
    property: &Spec,
    sinks: &HashSet<ValueId>,
    callee_bit: impl Fn(FuncId, usize) -> bool,
    fid: FuncId,
    start: ValueId,
) -> bool {
    let seg = segs.seg(fid);
    let gstores = segs.global_store_values(fid);
    let mut visited: HashSet<ValueId> = HashSet::new();
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        if !visited.insert(v) {
            continue;
        }
        if sinks.contains(&v) {
            return true;
        }
        if seg.ret_index(v).is_some() {
            return true; // may flow back to any caller (VF1/VF2)
        }
        if gstores.binary_search(&v).is_ok() {
            return true; // escapes through a global channel
        }
        for au in seg.arg_uses(v) {
            // An unresolved callee (external or undeclared; intrinsics
            // are not recorded as uses) may do anything with the
            // argument — summarising it fruitless would prune paths the
            // §4.2 soundiness rules don't license.
            if au.callee.is_none_or(|gid| callee_bit(gid, au.index)) {
                return true; // the callee can do something with it
            }
        }
        for e in seg.succs(v) {
            if e.kind == EdgeKind::Transform && !property.traverses_transforms {
                continue;
            }
            stack.push(e.dst);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CheckerKind;

    fn artefact(mut module: Module) -> (Module, ModuleSeg, CallGraph) {
        let mut analysis = pinpoint_pta::analyze_module(&mut module);
        let mut arena = std::mem::take(&mut analysis.arena);
        let mut symbols = std::mem::take(&mut analysis.symbols);
        let segs = ModuleSeg::build(&module, &mut arena, &mut symbols, &analysis.pta);
        let cg = CallGraph::new(&module);
        (module, segs, cg)
    }

    /// `descend_useful(func, 0)` for `kind` over `src`, forced on demand.
    fn useful(src: &str, kind: CheckerKind, func: &str) -> bool {
        let (m, segs, cg) = artefact(pinpoint_ir::compile(src).unwrap());
        let spec = kind.spec();
        let f = m.func_by_name(func).unwrap();
        ParamSummaries::new(&m, &segs, &spec, &cg).descend_useful(f, 0)
    }

    #[test]
    fn sinkless_callee_is_fruitless() {
        assert!(
            !useful(
                "fn harmless(p: int*) { print(p); return; }
                 fn main() { let p: int* = malloc(); harmless(p); free(p); return; }",
                CheckerKind::UseAfterFree,
                "harmless",
            ),
            "print is not a UAF sink"
        );
    }

    #[test]
    fn dereferencing_callee_is_fruitful() {
        assert!(useful(
            "fn deref(p: int*) { let x: int = *p; print(x); return; }
             fn main() { let p: int* = malloc(); free(p); deref(p); return; }",
            CheckerKind::UseAfterFree,
            "deref",
        ));
    }

    #[test]
    fn returning_callee_is_fruitful() {
        // VF1: the parameter flows back out; the caller may sink it.
        assert!(useful(
            "fn id(p: int*) -> int* { return p; }
             fn main() { let p: int* = malloc(); let q: int* = id(p); print(q); return; }",
            CheckerKind::UseAfterFree,
            "id",
        ));
    }

    #[test]
    fn transitive_fruitfulness_through_wrappers() {
        assert!(
            useful(
                "fn inner(p: int*) { free(p); return; }
                 fn wrapper(p: int*) { inner(p); return; }
                 fn main() { let p: int* = malloc(); wrapper(p); return; }",
                CheckerKind::UseAfterFree,
                "wrapper",
            ),
            "wrapper forwards to a freeing callee (forced below it first)"
        );
    }

    #[test]
    fn property_specific_summaries_differ() {
        let src = "fn sendit(v: int) { sendto(v); return; }
                   fn main() { let s: int = getpass(); sendit(s); return; }";
        assert!(
            !useful(src, CheckerKind::UseAfterFree, "sendit"),
            "sendto is not a UAF sink"
        );
        assert!(
            useful(src, CheckerKind::DataTransmission, "sendit"),
            "sendto is the DT sink"
        );
    }

    #[test]
    fn unresolved_extern_callee_is_fruitful() {
        // Regression: a parameter whose only escape is a call to an
        // undeclared external function used to be summarised fruitless
        // (param_reaches ignored unresolvable callees), pruning a descent
        // the §4.2 soundiness rules don't license. The frontend rejects
        // unknown callees at lowering time, so build a resolved module
        // first and then retarget the call at an external name — exactly
        // the shape a linker-resolved extern has in a real module.
        let mut module = pinpoint_ir::compile(
            "fn inner(q: int*) { return; }
             fn wrap(p: int*) { inner(p); return; }
             fn main() { let p: int* = malloc(); free(p); wrap(p); return; }",
        )
        .unwrap();
        let wrap = module.func_by_name("wrap").unwrap();
        let mut retargeted = false;
        for block in &mut module.funcs[wrap.0 as usize].blocks {
            for inst in &mut block.insts {
                if let pinpoint_ir::Inst::Call { callee, .. } = inst {
                    if callee == "inner" {
                        *callee = "ext_fn".to_string();
                        retargeted = true;
                    }
                }
            }
        }
        assert!(retargeted, "wrap must contain the call to retarget");
        let (module, segs, cg) = artefact(module);
        let spec = CheckerKind::UseAfterFree.spec();
        assert!(
            ParamSummaries::new(&module, &segs, &spec, &cg).descend_useful(wrap, 0),
            "an unresolved extern callee may do anything with its argument"
        );
        // Intrinsic sinks-by-name are unaffected: print stays fruitless.
        assert!(!useful(
            "fn harmless(p: int*) { print(p); return; }
             fn main() { let p: int* = malloc(); harmless(p); free(p); return; }",
            CheckerKind::UseAfterFree,
            "harmless",
        ));
    }

    #[test]
    fn global_store_counts_as_escape() {
        assert!(
            useful(
                "global cell: int*;
                 fn stash(p: int*) { *cell = p; return; }
                 fn main() { let p: int* = malloc(); stash(p); free(p); return; }",
                CheckerKind::UseAfterFree,
                "stash",
            ),
            "a global store can reach any load"
        );
    }

    #[test]
    fn a_read_forces_only_the_callee_cone() {
        let (m, segs, cg) = artefact(
            pinpoint_ir::compile(
                "fn leaf(p: int*) { free(p); return; }
                 fn mid(p: int*) { leaf(p); return; }
                 fn other(p: int*) { print(p); return; }
                 fn main() { let p: int* = malloc(); mid(p); other(p); return; }",
            )
            .unwrap(),
        );
        let spec = CheckerKind::UseAfterFree.spec();
        let mut s = ParamSummaries::new(&m, &segs, &spec, &cg);
        let id = |n: &str| m.func_by_name(n).unwrap();
        assert!(s.descend_useful(id("mid"), 0));
        let forced: Vec<bool> = ["leaf", "mid", "other", "main"]
            .iter()
            .map(|n| s.interesting.get(id(n)).is_some())
            .collect();
        assert_eq!(forced, [true, true, false, false]);
    }
}
