//! Whole-program interface summaries: the descent bits of every search
//! (§3.3.2 materialised bottom-up).
//!
//! The demand-driven detector answers a query by ascending from each
//! source through the virtual global SEG. This module materialises the
//! paper's per-function value-flow summaries at most *once per (function,
//! property)* per detect worker and answers, at every descent into a
//! callee formal, "can a value arriving here ever meet a sink?" — for
//! every query, built-in checker or custom spec alike. The summaries are
//! themselves demand-driven: [`ModuleSummaries`] is a memo over the
//! call-graph condensation, and a descent forces — bottom-up, callee
//! components first — only the SCCs below the formal it reads. The
//! interface edges:
//!
//! * **VF1 (param → ret)** — a formal parameter reaches a return
//!   position: recorded as a per-value bitset of reachable return
//!   indices, composed at call sites as a pseudo-edge from the actual
//!   argument to the call's receiver.
//! * **VF2 (source → ret)** — any value (sources included) reaching a
//!   return position: the same bitset.
//! * **VF4 (param → sink)** — a parameter reaches a property sink
//!   (directly or through callees): a per-value flag, composed through
//!   call sites so callers inherit it at their actuals.
//!
//! (VF3, param → source, is the search's own parameter ascent: nothing
//! reads it as a summary bit, so none is kept.)
//!
//! **Descent pruning.** Inside a search, a descent into formal `j` of a
//! callee is skipped when that formal's flags hold no sink, global or
//! overflow bit and its return set is empty
//! ([`ModuleSummaries::param_fruitful`]). The closure is a superset of
//! what the demand search can reach below that formal (it ignores
//! context-depth limits, dominance filters and vertex budgets), so it
//! never suppresses a report; DESIGN.md "One summary lattice" argues it
//! rule by rule. The reference is the same search with
//! `DetectConfig::use_summaries` off (no pruning): the `engines` fuzz
//! oracle and `tests/demand_summaries.rs` compare against it.
//!
//! A memo lives as long as the detect worker that forced it — one
//! property's pass over one artefact — so no edit can outdate it and it
//! carries no validity stamp.

use crate::seg::{EdgeKind, ModuleSeg};
use crate::spec::{ResolvedSpec, Spec};
use pinpoint_ir::{CallGraph, ConeMemo, FuncId, Module, ValueId};
use pinpoint_obs::TraceBuf;
use std::collections::HashMap;

/// Value reaches a property sink (in this function or through callees).
pub(crate) const SINK: u8 = 1;
/// Value reaches a global store (escapes into a module-wide channel).
pub(crate) const GLOBAL: u8 = 1 << 1;
/// Interface index ≥ 63 involved somewhere below — treated as "may
/// reach anything" instead of widening the bitsets (vanishingly rare).
pub(crate) const OVERFLOW: u8 = 1 << 2;

/// One function's interface summary for one property: per-value class
/// bits over the function's SSA values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuncSummary {
    /// Per-value [`SINK`] | [`GLOBAL`] | [`OVERFLOW`] flags.
    pub(crate) flags: Vec<u8>,
    /// Per-value bitset of the function's own return indices the value
    /// reaches (VF1/VF2; bits 0..63).
    pub(crate) rets: Vec<u64>,
}

impl FuncSummary {
    /// Number of values summarised (must equal the function's value
    /// count for the summary to be valid).
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// `true` when the function has no values.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

fn iter_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let k = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(k)
    })
}

/// What a summary computation reads: the artefact, the property and the
/// condensation it walks.
#[derive(Debug, Clone)]
pub struct SummaryCx<'a> {
    module: &'a Module,
    segs: &'a ModuleSeg,
    spec: ResolvedSpec<'a>,
    cg: &'a CallGraph,
}

impl<'a> SummaryCx<'a> {
    /// `cg` must be `module`'s call graph.
    pub fn new(module: &'a Module, segs: &'a ModuleSeg, spec: &'a Spec, cg: &'a CallGraph) -> Self {
        SummaryCx {
            module,
            segs,
            spec: ResolvedSpec::new(spec, module),
            cg,
        }
    }
}

/// The interface summaries of one property over one module, forced on
/// demand, with a count of what forcing computed.
///
/// A function's summary is a pure function of `(module, segs, spec)` —
/// identical whichever read forced it, for any thread count — so the memo
/// restricted to what was demanded equals the same rows of the
/// whole-module table [`ModuleSummaries::build_with_graph`] produces.
#[derive(Debug, PartialEq, Eq)]
pub struct ModuleSummaries {
    funcs: ConeMemo<FuncSummary>,
    /// Functions whose summary was computed.
    pub built: u64,
}

impl ModuleSummaries {
    /// An empty memo over a module of `funcs` functions.
    pub fn new(funcs: usize) -> Self {
        ModuleSummaries {
            funcs: ConeMemo::new(funcs),
            built: 0,
        }
    }

    /// The whole-module table over a caller-supplied call graph: an empty
    /// memo with everything forced, level by level over the condensation,
    /// the independent SCCs of one level sharded over `threads` workers
    /// ([`TraceBuf::shard_map`]).
    /// Detection never needs it — each descent forces what it reads — so
    /// it survives as the oracle the on-demand bits are tested against
    /// and as a stand-alone probe of the summary layer.
    ///
    /// `_retired` was the persistent summary store; only `None` inhabits
    /// it now. The slot is kept because the frozen `pinbench` probe calls
    /// this with six arguments, and goes with the benchmark-only
    /// follow-up that re-points that probe.
    pub fn build_with_graph(
        module: &Module,
        segs: &ModuleSeg,
        spec: &Spec,
        threads: usize,
        _retired: Option<std::convert::Infallible>,
        cg: &CallGraph,
    ) -> Self {
        let spec = &ResolvedSpec::new(spec, module);
        let mut all = Self::new(module.funcs.len());
        for level in cg.scc_levels() {
            let mut pending: Vec<&[FuncId]> = level.iter().map(|&scc| cg.scc(scc)).collect();
            // A worker costs more than a small level's fixpoints (one
            // component solves in microseconds): only fan out when the
            // level has enough independent SCCs to keep every worker busy.
            // The cut-off cannot change output — results come back in
            // pending order either way.
            let workers = if pending.len() < 64 * threads {
                1
            } else {
                threads
            };
            let done = &all.funcs;
            let results = TraceBuf::off().shard_map(
                &mut pending,
                workers,
                || (),
                |(), members, _| compute_scc(module, segs, spec, members, done),
            );
            for (members, sums) in pending.into_iter().zip(results) {
                all.built += members.len() as u64;
                all.funcs.fill(members, sums);
            }
        }
        all
    }

    /// `f`'s summary, forcing the not-yet-forced part of its callee cone.
    /// `None` for a function outside the module the memo was sized for.
    pub fn force(&mut self, cx: &SummaryCx<'_>, f: FuncId) -> Option<&FuncSummary> {
        if f.0 as usize >= self.funcs.len() {
            return None;
        }
        let built = &mut self.built;
        self.funcs.force(cx.cg, f, |members, done| {
            *built += members.len() as u64;
            compute_scc(cx.module, cx.segs, &cx.spec, members, done)
        });
        self.funcs.get(f)
    }

    /// The descent bit (VF1 + VF4 at one formal): `true` when a value
    /// arriving at parameter `j` of `g` may reach a sink, a global store
    /// or one of `g`'s returns — so a search descending there can find
    /// something. `false` proves the descended subtree holds no candidate
    /// and no step of any candidate's path. Forces `g`'s callee cone as
    /// [`ModuleSummaries::force`] does; a function outside the module or
    /// a formal `g` does not have answers `true`.
    pub fn param_fruitful(&mut self, cx: &SummaryCx<'_>, g: FuncId, j: usize) -> bool {
        let Some(s) = self.force(cx, g) else {
            return true;
        };
        let Some(i) = cx.module.func(g).params.get(j).map(|p| p.0 as usize) else {
            return true;
        };
        match (s.flags.get(i), s.rets.get(i)) {
            (Some(&flags), Some(&rets)) => flags & (SINK | GLOBAL | OVERFLOW) != 0 || rets != 0,
            _ => true,
        }
    }

    /// `f`'s summary, if it has been forced.
    pub fn get(&self, f: FuncId) -> Option<&FuncSummary> {
        self.funcs.get(f)
    }

    /// Number of functions the memo covers (forced or not).
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// `true` for an empty module.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }
}

/// Fixpoint over one SCC's members (mutual recursion iterates until the
/// monotone bits stabilise), given the final summaries of every callee
/// outside it. Returns the members' summaries, in member order.
fn compute_scc(
    module: &Module,
    segs: &ModuleSeg,
    spec: &ResolvedSpec,
    members: &[FuncId],
    done: &ConeMemo<FuncSummary>,
) -> Vec<FuncSummary> {
    let mut local: HashMap<FuncId, FuncSummary> = HashMap::new();
    if let &[fid] = members {
        // Direct recursion is summary-free (§4.2), so a singleton never
        // reads its own summary: one evaluation is the fixpoint.
        return vec![compute_one(module, segs, spec, fid, &local, done)];
    }
    loop {
        let mut changed = false;
        for &fid in members {
            let s = compute_one(module, segs, spec, fid, &local, done);
            changed |= local.get(&fid) != Some(&s);
            local.insert(fid, s);
        }
        if !changed {
            break;
        }
    }
    members
        .iter()
        .map(|fid| local.remove(fid).expect("member computed"))
        .collect()
}

/// One function's summary, given its callees' summaries: seed the
/// interface values (sinks, global stores, returns, wide formals) plus the
/// call-site compositions, then propagate backward over the function's
/// SEG to a local fixpoint.
fn compute_one(
    module: &Module,
    segs: &ModuleSeg,
    spec: &ResolvedSpec,
    fid: FuncId,
    local: &HashMap<FuncId, FuncSummary>,
    done: &ConeMemo<FuncSummary>,
) -> FuncSummary {
    let lookup = |g: FuncId| -> Option<&FuncSummary> { local.get(&g).or_else(|| done.get(g)) };
    let f = module.func(fid);
    let seg = segs.seg(fid);
    let n = f.values.len();
    let mut flags = vec![0u8; n];
    let mut rets = vec![0u64; n];
    // Interface seeds.
    for s in spec.sinks(f) {
        if let Some(fl) = flags.get_mut(s.value.0 as usize) {
            *fl |= SINK;
        }
    }
    for v in segs.global_store_values(fid) {
        if let Some(fl) = flags.get_mut(v.0 as usize) {
            *fl |= GLOBAL;
        }
    }
    for &(v, k) in seg.ret_values() {
        let i = v.0 as usize;
        if i >= n {
            continue;
        }
        if k < 63 {
            rets[i] |= 1u64 << k;
        } else {
            flags[i] |= OVERFLOW;
        }
    }
    // A formal past the 63rd has no interface bit: it answers fruitful.
    for &p in f.params.iter().skip(63) {
        if let Some(fl) = flags.get_mut(p.0 as usize) {
            *fl |= OVERFLOW;
        }
    }
    // Call-site compositions: the actual argument inherits the callee
    // formal's sink/global reach (VF4, and VF2 via deeper returns), and
    // each callee return index the formal reaches becomes a pseudo-edge
    // to the call's receiver (VF1), continued locally.
    let mut extra_preds: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    for v in (0..n as u32).map(ValueId) {
        for au in seg.arg_uses(v) {
            let gid = au.callee;
            if gid == fid {
                continue; // direct recursion: summary-free (§4.2)
            }
            let Some(&formal) = module.func(gid).params.get(au.index) else {
                continue;
            };
            let Some(cs) = lookup(gid) else {
                continue; // same-SCC member before its first round
            };
            let fi = formal.0 as usize;
            let inherited = cs.flags.get(fi).copied().unwrap_or(0) & (SINK | GLOBAL | OVERFLOW);
            flags[v.0 as usize] |= inherited;
            let crets = cs.rets.get(fi).copied().unwrap_or(0);
            if crets != 0 {
                if let Some(call) = seg.call_site(au.site) {
                    for k in iter_bits(crets) {
                        if let Some(&dst) = call.dsts.get(k) {
                            extra_preds.entry(dst).or_default().push(v);
                        }
                    }
                }
            }
        }
    }
    // Backward propagation to a local fixpoint: a value inherits
    // everything its successors (local SEG edges and composition
    // pseudo-edges) reach.
    let mut wl: Vec<ValueId> = (0..n)
        .filter(|&i| flags[i] != 0 || rets[i] != 0)
        .map(|i| ValueId(i as u32))
        .collect();
    while let Some(w) = wl.pop() {
        let wi = w.0 as usize;
        let (wf, wr) = (flags[wi], rets[wi]);
        for e in seg.preds(w) {
            if e.kind == EdgeKind::Transform && !spec.spec.traverses_transforms {
                continue;
            }
            let pi = e.src.0 as usize;
            if pi >= n {
                continue;
            }
            let (nf, nr) = (flags[pi] | wf, rets[pi] | wr);
            if nf != flags[pi] || nr != rets[pi] {
                flags[pi] = nf;
                rets[pi] = nr;
                wl.push(e.src);
            }
        }
        if let Some(srcs) = extra_preds.get(&w) {
            for &p in srcs {
                let pi = p.0 as usize;
                let (nf, nr) = (flags[pi] | wf, rets[pi] | wr);
                if nf != flags[pi] || nr != rets[pi] {
                    flags[pi] = nf;
                    rets[pi] = nr;
                    wl.push(p);
                }
            }
        }
    }
    FuncSummary { flags, rets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CheckerKind;

    fn artefact(src: &str) -> (Module, ModuleSeg) {
        let mut module = pinpoint_ir::compile(src).unwrap();
        let mut analysis = pinpoint_pta::analyze_module(&mut module);
        let mut arena = std::mem::take(&mut analysis.arena);
        let mut symbols = std::mem::take(&mut analysis.symbols);
        let segs = ModuleSeg::build(&module, &mut arena, &mut symbols, &analysis.pta);
        (module, segs)
    }

    const WRAPPED_UAF: &str = "fn sinker(p: int*) { let x: int = *p; print(x); return; }
         fn wrapper(p: int*) { sinker(p); return; }
         fn idfn(p: int*) -> int* { return p; }
         fn harmless(v: int) { print(v); return; }
         fn main() {
             let p: int* = malloc();
             free(p);
             wrapper(p);
             let q: int* = idfn(p);
             let y: int = *q;
             print(y);
             let c: int = 3;
             harmless(c);
             return;
         }";

    #[test]
    fn interface_bits_compose_through_wrappers() {
        let (m, segs) = artefact(WRAPPED_UAF);
        let spec = CheckerKind::UseAfterFree.spec();
        let cg = CallGraph::new(&m);
        let sums = ModuleSummaries::build_with_graph(&m, &segs, &spec, 1, None, &cg);
        let sinker = m.func_by_name("sinker").unwrap();
        let wrapper = m.func_by_name("wrapper").unwrap();
        let idfn = m.func_by_name("idfn").unwrap();
        let harmless = m.func_by_name("harmless").unwrap();
        // VF4 at the dereferencing callee, inherited by the wrapper (VF4
        // composed through one level).
        let p_sinker = m.func(sinker).params[0];
        assert_ne!(
            sums.get(sinker).unwrap().flags[p_sinker.0 as usize] & SINK,
            0
        );
        let p_wrapper = m.func(wrapper).params[0];
        assert_ne!(
            sums.get(wrapper).unwrap().flags[p_wrapper.0 as usize] & SINK,
            0
        );
        // VF1: identity's parameter reaches return index 0.
        let p_id = m.func(idfn).params[0];
        assert_eq!(sums.get(idfn).unwrap().rets[p_id.0 as usize] & 1, 1);
        // The taint-free helper has no interface reach at all.
        let p_h = m.func(harmless).params[0];
        assert_eq!(sums.get(harmless).unwrap().flags[p_h.0 as usize], 0);
        assert_eq!(sums.get(harmless).unwrap().rets[p_h.0 as usize], 0);
        assert_eq!(sums.built, m.funcs.len() as u64);
    }

    #[test]
    fn summaries_are_thread_count_invariant() {
        let (m, segs) = artefact(WRAPPED_UAF);
        let spec = CheckerKind::UseAfterFree.spec();
        let cg = CallGraph::new(&m);
        let one = ModuleSummaries::build_with_graph(&m, &segs, &spec, 1, None, &cg);
        let four = ModuleSummaries::build_with_graph(&m, &segs, &spec, 4, None, &cg);
        assert_eq!(one, four);
    }

    /// `param_fruitful(func, 0)` for `kind` over `src`, from an empty memo.
    fn fruitful(src: &str, kind: CheckerKind, func: &str) -> bool {
        let (m, segs) = artefact(src);
        let (spec, cg) = (kind.spec(), CallGraph::new(&m));
        let cx = SummaryCx::new(&m, &segs, &spec, &cg);
        let f = m.func_by_name(func).unwrap();
        ModuleSummaries::new(m.funcs.len()).param_fruitful(&cx, f, 0)
    }

    #[test]
    fn sinkless_callee_is_fruitless() {
        assert!(
            !fruitful(
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
        assert!(fruitful(
            "fn deref(p: int*) { let x: int = *p; print(x); return; }
             fn main() { let p: int* = malloc(); free(p); deref(p); return; }",
            CheckerKind::UseAfterFree,
            "deref",
        ));
    }

    #[test]
    fn returning_callee_is_fruitful() {
        // VF1: the parameter flows back out; the caller may sink it.
        assert!(fruitful(
            "fn id(p: int*) -> int* { return p; }
             fn main() { let p: int* = malloc(); let q: int* = id(p); print(q); return; }",
            CheckerKind::UseAfterFree,
            "id",
        ));
    }

    #[test]
    fn return_composition_at_a_call_site_is_fruitful() {
        // The formal reaches a sink only through VF1 composition: it is
        // passed through the identity, whose receiver is dereferenced.
        assert!(fruitful(
            "fn idfn(p: int*) -> int* { return p; }
             fn user(p: int*) { let q: int* = idfn(p); let x: int = *q; print(x); return; }
             fn main() { let p: int* = malloc(); free(p); user(p); return; }",
            CheckerKind::UseAfterFree,
            "user",
        ));
    }

    #[test]
    fn transitive_fruitfulness_through_wrappers() {
        assert!(
            fruitful(
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
            !fruitful(src, CheckerKind::UseAfterFree, "sendit"),
            "sendto is not a UAF sink"
        );
        assert!(
            fruitful(src, CheckerKind::DataTransmission, "sendit"),
            "sendto is the DT sink"
        );
    }

    #[test]
    fn an_intrinsic_that_is_no_sink_stays_fruitless() {
        // `print` is not a use-after-free sink, and an intrinsic call is
        // no argument use: a parameter that only reaches it is fruitless.
        assert!(!fruitful(
            "fn harmless(p: int*) { print(p); return; }
             fn main() { let p: int* = malloc(); harmless(p); free(p); return; }",
            CheckerKind::UseAfterFree,
            "harmless",
        ));
    }

    #[test]
    fn global_store_counts_as_escape() {
        assert!(
            fruitful(
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
        let (m, segs) = artefact(
            "fn leaf(p: int*) { free(p); return; }
             fn mid(p: int*) { leaf(p); return; }
             fn other(p: int*) { print(p); return; }
             fn main() { let p: int* = malloc(); mid(p); other(p); return; }",
        );
        let (spec, cg) = (CheckerKind::UseAfterFree.spec(), CallGraph::new(&m));
        let cx = SummaryCx::new(&m, &segs, &spec, &cg);
        let mut sums = ModuleSummaries::new(m.funcs.len());
        let id = |n: &str| m.func_by_name(n).unwrap();
        assert!(sums.param_fruitful(&cx, id("mid"), 0));
        let forced: Vec<bool> = ["leaf", "mid", "other", "main"]
            .iter()
            .map(|n| sums.get(id(n)).is_some())
            .collect();
        assert_eq!(forced, [true, true, false, false]);
        assert!(
            sums.param_fruitful(&cx, id("mid"), 1) && sums.param_fruitful(&cx, FuncId(99), 0),
            "a formal or a function that does not exist answers fruitful"
        );
    }
}
