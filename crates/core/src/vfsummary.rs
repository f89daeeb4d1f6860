//! Whole-program interface summaries: the gate in front of every search
//! (§3.3.2 materialised bottom-up).
//!
//! The demand-driven detector answers a query by ascending from each
//! source through the virtual global SEG. This module materialises the
//! paper's per-function value-flow summaries at most *once per (function,
//! property)* and answers the whole-program question "can this source
//! ever meet a sink?" by composing interface edges at call sites — for
//! every query, built-in checker or custom spec alike. The summaries are
//! themselves demand-driven: [`ModuleSummaries`] is a memo over the
//! call-graph condensation, and the gate forces — bottom-up, callee
//! components first — only the SCCs whose bits it reads. The interface
//! edges:
//!
//! * **VF1 (param → ret)** — a formal parameter reaches a return
//!   position: recorded as a per-value bitset of reachable return
//!   indices, composed at call sites as a pseudo-edge from the actual
//!   argument to the call's receiver.
//! * **VF2 (source → ret)** — any value (sources included) reaching a
//!   return position: the same bitset, read at the source's value.
//! * **VF3 (param → source)** — a dangerous formal parameter maps back
//!   to caller actuals: recorded as a per-value bitset of the function's
//!   own formal indices, expanded upward through caller argument lists.
//! * **VF4 (param → sink)** — a parameter reaches a property sink
//!   (directly or through callees): a per-value flag, composed through
//!   call sites so callers inherit it at their actuals.
//!
//! A source whose upward closure over these edges never reaches a sink
//! (or a global store, which can feed any load) is *gated*: the detector
//! emits an empty outcome for it without searching. A source that
//! passes the gate runs the unchanged demand-driven search — including
//! its path-condition construction in the shared term interner, so the
//! verdict table applies exactly as before. Because the gate closure is
//! a strict superset of the demand search's reachability (it ignores
//! context-depth limits, dominance filters, and vertex budgets), gating
//! never suppresses a report, and non-gated sources are searched by the
//! very same code — reports are byte-identical to the ungated search at
//! any thread count, by construction. That search is kept as the
//! reference (`DetectSession::ungated`, hidden) the `engines` fuzz oracle
//! and `tests/demand_summaries.rs` compare against.
//!
//! Forced summaries live as long as the session or workspace that forced
//! them, stamped with [`keys_fingerprint`] of the per-function transitive
//! keys ([`pinpoint_cache::module_keys`]): those fold callee fingerprints
//! over the condensation, so any edit that could change a summary changes
//! the stamp and the memo is dropped.

use crate::seg::{EdgeKind, ModuleSeg};
use crate::spec::{self, Spec};
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
    /// Per-value bitset of the function's own formal-parameter indices
    /// the value covers (VF3; bits 0..63).
    pub(crate) params: Vec<u64>,
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

/// Structural fingerprint of the property parts the summaries depend on
/// (sources, sinks, transform traversal — detection budgets deliberately
/// excluded: the bits are budget-independent).
pub(crate) fn summary_fingerprint(spec: &Spec) -> u128 {
    use pinpoint_ir::fingerprint::Fnv128;
    let mut h = Fnv128::new();
    h.write_u32(1); // codec/schema version
    match &spec.source {
        spec::SourceSpec::CallReceiver(names) => {
            h.write_u32(0);
            h.write_u64(names.len() as u64);
            for n in names {
                h.write_str(n);
            }
        }
        spec::SourceSpec::FreeArgument => h.write_u32(1),
        spec::SourceSpec::NullConstant => h.write_u32(2),
    }
    match &spec.sink {
        spec::SinkSpec::DerefsAndFrees => h.write_u32(0),
        spec::SinkSpec::Derefs => h.write_u32(1),
        spec::SinkSpec::Calls(names) => {
            h.write_u32(2);
            h.write_u64(names.len() as u64);
            for n in names {
                h.write_str(n);
            }
        }
    }
    h.write_u32(spec.traverses_transforms as u32);
    h.finish()
}

/// Fingerprint of the artefact's whole per-function key vector — the
/// validity stamp for an in-memory [`ModuleSummaries`]: keys fold callee
/// fingerprints over the call-graph condensation, so any edit that could
/// change any function's summary changes this value.
pub(crate) fn keys_fingerprint(keys: &[u128]) -> u128 {
    use pinpoint_ir::fingerprint::Fnv128;
    let mut h = Fnv128::new();
    h.write_u64(keys.len() as u64);
    for &k in keys {
        h.write_u128(k);
    }
    h.finish()
}

/// What a summary computation reads: the artefact, the property and the
/// condensation it walks.
#[derive(Debug, Clone, Copy)]
pub struct SummaryCx<'a> {
    module: &'a Module,
    segs: &'a ModuleSeg,
    spec: &'a Spec,
    cg: &'a CallGraph,
}

impl<'a> SummaryCx<'a> {
    /// `cg` must be `module`'s call graph.
    pub fn new(module: &'a Module, segs: &'a ModuleSeg, spec: &'a Spec, cg: &'a CallGraph) -> Self {
        SummaryCx {
            module,
            segs,
            spec,
            cg,
        }
    }
}

/// The interface summaries of one property over one module, forced on
/// demand, plus accounting of what forcing cost.
///
/// A function's summary is a pure function of `(module, segs, spec)` —
/// identical whichever read forced it, for any thread count — so the memo
/// restricted to what was demanded equals the same rows of the
/// whole-module table [`ModuleSummaries::build`] produces.
#[derive(Debug, PartialEq, Eq)]
pub struct ModuleSummaries {
    funcs: ConeMemo<FuncSummary>,
    /// Functions whose summary was computed.
    pub built: u64,
    /// Interface edges composed at call sites (VF1–VF4 compositions
    /// applied by those computations).
    pub composed: u64,
}

impl ModuleSummaries {
    /// An empty memo over a module of `funcs` functions.
    pub fn new(funcs: usize) -> Self {
        ModuleSummaries {
            funcs: ConeMemo::new(funcs),
            built: 0,
            composed: 0,
        }
    }

    /// The whole-module table: every function's summary for `spec`. See
    /// [`ModuleSummaries::build_with_graph`].
    pub fn build(module: &Module, segs: &ModuleSeg, spec: &Spec, threads: usize) -> Self {
        let cg = CallGraph::new(module);
        Self::build_with_graph(module, segs, spec, threads, None, &cg)
    }

    /// The whole-module table over a caller-supplied call graph: an empty
    /// memo with everything forced, level by level over the condensation,
    /// the independent SCCs of one level sharded over `threads` workers
    /// ([`TraceBuf::shard_map`]).
    /// Detection never needs it — the gate forces what it reads — so it
    /// survives as the oracle the on-demand bits are tested against and
    /// as a stand-alone probe of the summary layer.
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
            for (members, (sums, composed)) in pending.into_iter().zip(results) {
                all.fill_built(members, sums, composed);
            }
        }
        all
    }

    /// Fills one SCC with summaries just computed.
    fn fill_built(&mut self, members: &[FuncId], sums: Vec<FuncSummary>, composed: u64) {
        self.built += members.len() as u64;
        self.composed += composed;
        self.funcs.fill(members, sums);
    }

    /// `f`'s summary, forcing the not-yet-forced part of its callee cone.
    /// `None` for a function outside the module the memo was sized for.
    pub fn force(&mut self, cx: &SummaryCx<'_>, f: FuncId) -> Option<&FuncSummary> {
        if f.0 as usize >= self.funcs.len() {
            return None;
        }
        for scc in self.funcs.unforced_cone(cx.cg, f) {
            let members = cx.cg.scc(scc);
            let (sums, composed) = compute_scc(cx.module, cx.segs, cx.spec, members, &self.funcs);
            self.fill_built(members, sums, composed);
        }
        self.funcs.get(f)
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

    /// The whole-program gate: `true` when the source's upward closure
    /// over interface edges may reach a sink — i.e. the demand-driven
    /// search *could* produce a candidate, so it must run. `false` is a
    /// proof that the search would find nothing: the closure follows a
    /// superset of the search's transitions (local SEG edges, call-site
    /// compositions, unmatched return ascents, parameter ascents, global
    /// channels) with none of its depth, budget, or ordering limits.
    ///
    /// The source's own frame is walked locally (not through the
    /// per-value bits) so the search's source-statement skip — a sink at
    /// exactly the source site never fires — applies: without it, every
    /// `free`-argument source would gate in through its own `free`.
    /// Frames reached upward use the conservative summary bits, which
    /// fold all sink sites together (including the source's own on a
    /// re-entry) — over-approximate, never under.
    ///
    /// Every summary the closure reads — the callees the source's value
    /// is passed to, the callers it ascends into — is forced first
    /// ([`ModuleSummaries::force`]); nothing else is computed.
    pub fn source_fruitful(
        &mut self,
        cx: &SummaryCx<'_>,
        source_func: FuncId,
        source: crate::spec::SourceSite,
    ) -> bool {
        let (module, segs, spec) = (cx.module, cx.segs, cx.spec);
        let f = module.func(source_func);
        let seg = segs.seg(source_func);
        let n = f.values.len();
        // Sink sites of the source frame, re-derived so the source-site
        // skip can be applied per site.
        let mut sink_sites: HashMap<ValueId, Vec<pinpoint_ir::InstId>> = HashMap::new();
        for s in spec::spec_sinks(spec, f) {
            sink_sites.entry(s.value).or_default().push(s.site);
        }
        let gvals = segs.global_store_values(source_func);
        // Interface pairs escaping the source frame, closed over the
        // summary bits below.
        let mut wl: Vec<(FuncId, ValueId)> = Vec::new();
        let push_ascents = |k: Option<usize>, j: Option<usize>, wl: &mut Vec<(FuncId, ValueId)>| {
            for &(caller, site) in segs.callers(source_func) {
                if caller == source_func {
                    continue; // direct recursion: summary-free (§4.2)
                }
                let Some(call) = segs.seg(caller).call_site(site) else {
                    continue;
                };
                if let Some(k) = k {
                    if let Some(&recv) = call.dsts.get(k) {
                        wl.push((caller, recv));
                    }
                }
                if let Some(j) = j {
                    if let Some(&actual) = call.args.get(j) {
                        wl.push((caller, actual));
                    }
                }
            }
        };
        // Local forward walk of the source frame.
        let mut local_seen: std::collections::HashSet<ValueId> = std::collections::HashSet::new();
        let mut local = vec![source.value];
        while let Some(v) = local.pop() {
            if !local_seen.insert(v) {
                continue;
            }
            if v.0 as usize >= n {
                return true; // out-of-range value: conservatively fruitful
            }
            if sink_sites
                .get(&v)
                .is_some_and(|sites| sites.iter().any(|&site| site != source.site))
            {
                return true;
            }
            if gvals.binary_search(&v).is_ok() {
                return true;
            }
            for au in seg.arg_uses(v) {
                let Some(gid) = au.callee else {
                    continue; // the search cannot descend into it either
                };
                if gid == source_func {
                    continue; // direct recursion: summary-free (§4.2)
                }
                let Some(&formal) = module.func(gid).params.get(au.index) else {
                    continue;
                };
                let Some(cs) = self.force(cx, gid) else {
                    return true;
                };
                let fi = formal.0 as usize;
                let Some(&cf) = cs.flags.get(fi) else {
                    return true;
                };
                if cf & (SINK | GLOBAL | OVERFLOW) != 0 {
                    return true;
                }
                let crets = cs.rets.get(fi).copied().unwrap_or(0);
                if crets != 0 {
                    if let Some(call) = seg.call_site(au.site) {
                        for k in iter_bits(crets) {
                            if let Some(&dst) = call.dsts.get(k) {
                                local.push(dst);
                            }
                        }
                    }
                }
            }
            if let Some(k) = seg.ret_index(v) {
                push_ascents(Some(k), None, &mut wl);
            }
            if let Some(j) = f.params.iter().position(|&p| p == v) {
                push_ascents(None, Some(j), &mut wl);
            }
            for e in seg.succs(v) {
                if e.kind == EdgeKind::Transform && !spec.traverses_transforms {
                    continue;
                }
                local.push(e.dst);
            }
        }
        // Upward closure over the per-value summary bits.
        let mut seen: std::collections::HashSet<(FuncId, ValueId)> =
            std::collections::HashSet::new();
        while let Some((fid, v)) = wl.pop() {
            if !seen.insert((fid, v)) {
                continue;
            }
            let Some(fs) = self.force(cx, fid) else {
                return true; // unknown function: conservatively fruitful
            };
            let i = v.0 as usize;
            let Some(&flags) = fs.flags.get(i) else {
                return true; // out-of-range value: conservatively fruitful
            };
            if flags & (SINK | GLOBAL | OVERFLOW) != 0 {
                return true;
            }
            let rets = fs.rets[i];
            let params = fs.params[i];
            if rets == 0 && params == 0 {
                continue;
            }
            for &(caller, site) in segs.callers(fid) {
                if caller == fid {
                    continue; // direct recursion: summary-free (§4.2)
                }
                let Some(call) = segs.seg(caller).call_site(site) else {
                    continue;
                };
                for k in iter_bits(rets) {
                    if let Some(&recv) = call.dsts.get(k) {
                        wl.push((caller, recv));
                    }
                }
                for j in iter_bits(params) {
                    if let Some(&actual) = call.args.get(j) {
                        wl.push((caller, actual));
                    }
                }
            }
        }
        false
    }
}

/// Fixpoint over one SCC's members (mutual recursion iterates until the
/// monotone bits stabilise), given the final summaries of every callee outside it. Returns the
/// members' summaries, in member order, and the interface-edge
/// compositions their final computations applied.
fn compute_scc(
    module: &Module,
    segs: &ModuleSeg,
    spec: &Spec,
    members: &[FuncId],
    done: &ConeMemo<FuncSummary>,
) -> (Vec<FuncSummary>, u64) {
    let mut local: HashMap<FuncId, (FuncSummary, u64)> = HashMap::new();
    if let &[fid] = members {
        // Direct recursion is summary-free (§4.2), so a singleton never
        // reads its own summary: one evaluation is the fixpoint.
        let (s, c) = compute_one(module, segs, spec, fid, &local, done);
        return (vec![s], c);
    }
    loop {
        let mut changed = false;
        for &fid in members {
            let (s, c) = compute_one(module, segs, spec, fid, &local, done);
            match local.get(&fid) {
                Some((prev, _)) if *prev == s => {}
                _ => changed = true,
            }
            local.insert(fid, (s, c));
        }
        if !changed {
            break;
        }
    }
    let mut composed = 0;
    let sums = members
        .iter()
        .map(|fid| {
            let (s, c) = local.remove(fid).expect("member computed");
            composed += c;
            s
        })
        .collect();
    (sums, composed)
}

/// One function's summary, given its callees' summaries: seed the
/// interface values (sinks, global stores, returns, formals) plus the
/// call-site compositions, then propagate backward over the function's
/// SEG to a local fixpoint.
fn compute_one(
    module: &Module,
    segs: &ModuleSeg,
    spec: &Spec,
    fid: FuncId,
    local: &HashMap<FuncId, (FuncSummary, u64)>,
    done: &ConeMemo<FuncSummary>,
) -> (FuncSummary, u64) {
    let lookup = |g: FuncId| -> Option<&FuncSummary> {
        local.get(&g).map(|(s, _)| s).or_else(|| done.get(g))
    };
    let f = module.func(fid);
    let seg = segs.seg(fid);
    let n = f.values.len();
    let mut flags = vec![0u8; n];
    let mut rets = vec![0u64; n];
    let mut params = vec![0u64; n];
    let mut composed = 0u64;
    let set = |slot: &mut Vec<u64>, v: ValueId, idx: usize, flags: &mut Vec<u8>| {
        let i = v.0 as usize;
        if i >= n {
            return;
        }
        if idx < 63 {
            slot[i] |= 1u64 << idx;
        } else {
            flags[i] |= OVERFLOW;
        }
    };
    // Interface seeds.
    for s in spec::spec_sinks(spec, f) {
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
        set(&mut rets, v, k, &mut flags);
    }
    for (j, &p) in f.params.iter().enumerate() {
        set(&mut params, p, j, &mut flags);
    }
    // Call-site compositions: the actual argument inherits the callee
    // formal's sink/global reach (VF4, and VF2 via deeper returns), and
    // each callee return index the formal reaches becomes a pseudo-edge
    // to the call's receiver (VF1), continued locally.
    let mut extra_preds: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    for v in (0..n as u32).map(ValueId) {
        for au in seg.arg_uses(v) {
            let Some(gid) = au.callee else {
                continue; // the search cannot descend into it either
            };
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
            if inherited != 0 {
                flags[v.0 as usize] |= inherited;
                composed += 1;
            }
            let crets = cs.rets.get(fi).copied().unwrap_or(0);
            if crets != 0 {
                if let Some(call) = seg.call_site(au.site) {
                    for k in iter_bits(crets) {
                        if let Some(&dst) = call.dsts.get(k) {
                            extra_preds.entry(dst).or_default().push(v);
                            composed += 1;
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
        .filter(|&i| flags[i] != 0 || rets[i] != 0 || params[i] != 0)
        .map(|i| ValueId(i as u32))
        .collect();
    while let Some(w) = wl.pop() {
        let wi = w.0 as usize;
        let (wf, wr, wp) = (flags[wi], rets[wi], params[wi]);
        for e in seg.preds(w) {
            if e.kind == EdgeKind::Transform && !spec.traverses_transforms {
                continue;
            }
            let pi = e.src.0 as usize;
            if pi >= n {
                continue;
            }
            let (nf, nr, np) = (flags[pi] | wf, rets[pi] | wr, params[pi] | wp);
            if nf != flags[pi] || nr != rets[pi] || np != params[pi] {
                flags[pi] = nf;
                rets[pi] = nr;
                params[pi] = np;
                wl.push(e.src);
            }
        }
        if let Some(srcs) = extra_preds.get(&w) {
            for &p in srcs {
                let pi = p.0 as usize;
                let (nf, nr, np) = (flags[pi] | wf, rets[pi] | wr, params[pi] | wp);
                if nf != flags[pi] || nr != rets[pi] || np != params[pi] {
                    flags[pi] = nf;
                    rets[pi] = nr;
                    params[pi] = np;
                    wl.push(p);
                }
            }
        }
    }
    (
        FuncSummary {
            flags,
            rets,
            params,
        },
        composed,
    )
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

    /// The gate's verdict on every source of `func`, from an empty memo:
    /// each read forces exactly the summaries it needs.
    fn gate(m: &Module, segs: &ModuleSeg, spec: &Spec, func: &str) -> Vec<bool> {
        let cg = CallGraph::new(m);
        let cx = SummaryCx::new(m, segs, spec, &cg);
        let mut sums = ModuleSummaries::new(m.funcs.len());
        let fid = m.func_by_name(func).unwrap();
        spec::spec_sources(spec, m.func(fid))
            .into_iter()
            .map(|s| sums.source_fruitful(&cx, fid, s))
            .collect()
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
        let sums = ModuleSummaries::build(&m, &segs, &spec, 1);
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
        assert!(sums.built > 0);
        assert!(sums.composed > 0, "wrapper/idfn call sites compose");
    }

    #[test]
    fn summaries_are_thread_count_invariant() {
        let (m, segs) = artefact(WRAPPED_UAF);
        let spec = CheckerKind::UseAfterFree.spec();
        let one = ModuleSummaries::build(&m, &segs, &spec, 1);
        let four = ModuleSummaries::build(&m, &segs, &spec, 4);
        assert_eq!(one.funcs, four.funcs);
        assert_eq!(one.composed, four.composed);
    }

    #[test]
    fn gate_admits_fruitful_and_rejects_fruitless_sources() {
        let src = "fn deref(p: int*) { let x: int = *p; print(x); return; }
             fn main() {
                 let a: int* = malloc();
                 free(a);
                 deref(a);
                 let b: int* = malloc();
                 free(b);
                 return;
             }";
        let (m, segs) = artefact(src);
        let spec = CheckerKind::UseAfterFree.spec();
        assert_eq!(
            gate(&m, &segs, &spec, "main"),
            vec![true, false],
            "a is dereferenced after free, b's only sink is its own free site"
        );
    }

    #[test]
    fn gate_follows_return_composition_upward() {
        // The source value only reaches a sink through VF1 composition:
        // free(p) in a callee, dereference of the identity's return in
        // the caller.
        let src = "fn idfn(p: int*) -> int* { return p; }
             fn freer(p: int*) { free(p); return; }
             fn main() {
                 let a: int* = malloc();
                 freer(a);
                 let b: int* = idfn(a);
                 let x: int = *b;
                 print(x);
                 return;
             }";
        let (m, segs) = artefact(src);
        let spec = CheckerKind::UseAfterFree.spec();
        // The source is free's argument — a formal parameter of `freer`,
        // whose only path to the dereference is a VF3 parameter ascent
        // into main followed by local flow through idfn's VF1 edge.
        assert_eq!(gate(&m, &segs, &spec, "freer"), vec![true]);
    }

    #[test]
    fn global_escape_is_fruitful() {
        let src = "global cell: int*;
             fn stash(p: int*) { *cell = p; return; }
             fn main() { let p: int* = malloc(); free(p); stash(p); return; }";
        let (m, segs) = artefact(src);
        let spec = CheckerKind::UseAfterFree.spec();
        assert_eq!(
            gate(&m, &segs, &spec, "main"),
            vec![true],
            "the freed pointer escapes through a global store — never gate it"
        );
    }
}
