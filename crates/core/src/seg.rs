//! The Symbolic Expression Graph (SEG) — Definition 3.2.
//!
//! The SEG is Pinpoint's per-function sparse value-flow graph. Its data
//! subgraph `Gd` has a vertex per SSA value and a labelled edge per data
//! dependence; operator vertices (Example 3.3) are realised as the
//! hash-consed structure of each value's *term* (see
//! [`pinpoint_pta::Symbols`]), so a condition like `X ≠ 0` is stored once
//! and queried in O(1). The control subgraph `Gc` keeps, per block, the
//! immediate control dependences (branch value + polarity, Example 3.5);
//! transitive dependences are recovered by following the chain during
//! condition construction (Example 3.8).
//!
//! Three kinds of data edges exist:
//!
//! * *direct* — copies and φ-selections (φ edges carry the gating
//!   condition, Example 3.4);
//! * *memory* — store-to-load dependences discovered by the quasi
//!   path-sensitive points-to analysis, labelled with the guard under
//!   which the aliasing holds;
//! * *transform* — operand-to-result edges of unary/binary operations,
//!   traversed only by taint-like checkers.
//!
//! The SEG also indexes everything the demand-driven global analysis
//! (§3.3) needs at function boundaries: actual-argument uses, call
//! receivers, return positions, and call sites.

// Every table below is indexed by an id that is already dense; a hash
// container here would reintroduce per-process iteration order and a
// heap allocation per key (see `clippy.toml`).
#![deny(clippy::disallowed_types)]

use pinpoint_ir::{
    intrinsics, BlockId, Cfg, ControlDeps, DomTree, FuncId, Function, Gating, GlobalId, Inst,
    InstId, Module, PostDomTree, ValueId,
};
use pinpoint_obs::TraceBuf;
use pinpoint_pta::{FuncPta, MemDep, Symbols};
use pinpoint_smt::{TermArena, TermId};
use std::collections::BTreeMap;
use std::mem::size_of;

/// Kind of a data-dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Copy or φ-selection: the value flows unchanged.
    Direct,
    /// Store-to-load dependence through memory.
    Memory,
    /// Operand-to-result through an operator (taint only).
    Transform,
}

/// A directed data-dependence edge `src → dst`, labelled with the
/// condition on which the dependence holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegEdge {
    /// Source vertex.
    pub src: ValueId,
    /// Destination vertex.
    pub dst: ValueId,
    /// Label: condition of the dependence (`true` if unconditional).
    pub cond: TermId,
    /// Edge kind.
    pub kind: EdgeKind,
}

impl SegEdge {
    fn memory(dep: &MemDep) -> Self {
        SegEdge {
            src: dep.src,
            dst: dep.dst,
            cond: dep.cond,
            kind: EdgeKind::Memory,
        }
    }
}

/// An actual-argument occurrence of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgUse {
    /// The call instruction.
    pub site: InstId,
    /// The callee, when the name resolves to a function of the module.
    pub callee: Option<FuncId>,
    /// Zero-based argument position.
    pub index: usize,
}

/// A call-receiver definition of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvDef {
    /// The call instruction.
    pub site: InstId,
    /// The callee, when the name resolves to a function of the module.
    pub callee: Option<FuncId>,
    /// Zero-based return position.
    pub index: usize,
}

/// A call to a user function, as [`Seg::call_site`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite<'a> {
    /// The call instruction.
    pub site: InstId,
    /// The callee, when the name resolves to a function of the module.
    pub callee: Option<FuncId>,
    /// Actual arguments.
    pub args: &'a [ValueId],
    /// Return-value receivers.
    pub dsts: &'a [ValueId],
}

/// One row of the call-site table: the call's `args` then its `dsts` lie
/// back to back in the flat value array, from `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CallRecord {
    site: InstId,
    callee: Option<FuncId>,
    start: u32,
    args: u32,
    dsts: u32,
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("SEG table overflows u32")
}

/// Rows of variable length over one flat array: row `i` is
/// `data[offsets[i]..offsets[i + 1]]`. No rows at all is the empty
/// `offsets`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows {
            offsets: Vec::new(),
            data: Vec::new(),
        }
    }
}

impl<T: Copy> Rows<T> {
    /// Groups `items` into `rows` rows, item `i` going to row `key(i)`;
    /// the items of a row keep the order they arrive in (a stable
    /// counting sort).
    ///
    /// # Panics
    ///
    /// Panics if a key is `>= rows`.
    fn group(rows: usize, items: &[T], key: impl Fn(usize) -> usize) -> Self {
        to_u32(items.len());
        // `offsets[r + 1]` is row `r`'s write cursor: it starts at the
        // row's first slot and stops at its end — the next row's start.
        let mut offsets = vec![0u32; rows + 2];
        for i in 0..items.len() {
            offsets[key(i) + 2] += 1;
        }
        for r in 1..=rows {
            offsets[r + 1] += offsets[r];
        }
        let mut data = items.to_vec();
        for (i, item) in items.iter().enumerate() {
            let slot = &mut offsets[key(i) + 1];
            data[*slot as usize] = *item;
            *slot += 1;
        }
        offsets.truncate(rows + 1);
        Rows { offsets, data }
    }

    /// Appends a row after the existing ones.
    fn push_row(&mut self, items: impl IntoIterator<Item = T>) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.data.extend(items);
        self.offsets.push(to_u32(self.data.len()));
    }

    /// Row `i`; empty when out of range.
    fn row(&self, i: usize) -> &[T] {
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.data[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Number of rows.
    fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.len() * size_of::<u32>() + self.data.len() * size_of::<T>()
    }
}

/// The symbolic expression graph of one function.
///
/// Storage is sealed and dense (DESIGN.md, "SEG storage"): edges live in
/// two flat arrays, grouped by source and by destination vertex, and the
/// boundary indexes are rows or sorted tables over the function's own
/// ids. Within a vertex's row, edges keep the order they were added in —
/// locally derived edges in instruction order, then memory edges in the
/// points-to result's order — which is the order the detection search
/// explores them in.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Seg {
    /// Data edges grouped by source vertex.
    out: Rows<SegEdge>,
    /// The same edges grouped by destination vertex.
    inc: Rows<SegEdge>,
    /// Immediate control dependences per block: `(branch value, polarity)`.
    control: Rows<(ValueId, bool)>,
    /// Actual-argument occurrences per value, in instruction order.
    arg_uses: Rows<ArgUse>,
    /// Call receivers `(value, row of `calls`, return position)`, sorted
    /// by value.
    receivers: Vec<(ValueId, u32, u32)>,
    /// Return positions `(value, index in the return tuple)`, sorted by
    /// value.
    rets: Vec<(ValueId, usize)>,
    /// Calls to user functions, in instruction (= site) order.
    calls: Vec<CallRecord>,
    /// Arguments and receivers of every call, back to back.
    call_values: Vec<ValueId>,
}

/// A [`Seg`] under construction: what [`Seg::build`] scans from the
/// body, before [`SegParts::seal`] groups it by vertex.
#[derive(Debug, Default)]
struct SegParts {
    /// Number of SSA values of the function.
    values: usize,
    /// Every edge, in insertion order.
    edges: Vec<SegEdge>,
    control: Rows<(ValueId, bool)>,
    /// The value of each entry of `arg_uses`.
    arg_values: Vec<ValueId>,
    arg_uses: Vec<ArgUse>,
    receivers: Vec<(ValueId, u32, u32)>,
    /// `(value, return position)` pairs.
    rets: Vec<(ValueId, usize)>,
    calls: Vec<CallRecord>,
    call_values: Vec<ValueId>,
}

impl SegParts {
    /// Empty tables for a function with `values` SSA values.
    fn new(values: usize) -> Self {
        SegParts {
            values,
            ..SegParts::default()
        }
    }

    /// Appends the control dependences of the next block.
    fn push_control(&mut self, deps: impl IntoIterator<Item = (ValueId, bool)>) {
        self.control.push_row(deps);
    }

    /// Makes room for `calls` more calls with `args` arguments and `dsts`
    /// receivers between them, so [`SegParts::push_call`] never regrows
    /// a table.
    fn reserve_calls(&mut self, calls: usize, args: usize, dsts: usize) {
        self.arg_values.reserve_exact(args);
        self.arg_uses.reserve_exact(args);
        self.receivers.reserve_exact(dsts);
        self.calls.reserve_exact(calls);
        self.call_values.reserve_exact(args + dsts);
    }

    /// Appends a call to a user function, recording its arguments' uses
    /// and its receivers' definitions. Calls must arrive in site order.
    fn push_call(&mut self, call: CallSite<'_>) {
        debug_assert!(self.calls.last().is_none_or(|c| c.site < call.site));
        let row = to_u32(self.calls.len());
        let CallSite { site, callee, .. } = call;
        for (index, &a) in call.args.iter().enumerate() {
            self.arg_values.push(a);
            let au = ArgUse {
                site,
                callee,
                index,
            };
            self.arg_uses.push(au);
        }
        for (index, &d) in call.dsts.iter().enumerate() {
            self.receivers.push((d, row, to_u32(index)));
        }
        self.calls.push(CallRecord {
            site,
            callee,
            start: to_u32(self.call_values.len()),
            args: to_u32(call.args.len()),
            dsts: to_u32(call.dsts.len()),
        });
        self.call_values.extend_from_slice(call.args);
        self.call_values.extend_from_slice(call.dsts);
    }

    /// Groups the tables by vertex.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint or an argument value is `>= values`.
    fn seal(mut self) -> Seg {
        let n = self.values;
        // Later entries win, as in a map: stable sort, keep the last.
        self.receivers.sort_by_key(|&(v, ..)| v);
        dedup_keep_last(&mut self.receivers, |&(v, ..)| v);
        self.rets.sort_by_key(|&(v, _)| v);
        dedup_keep_last(&mut self.rets, |&(v, _)| v);
        let edges = &self.edges;
        Seg {
            out: Rows::group(n, edges, |i| edges[i].src.0 as usize),
            inc: Rows::group(n, edges, |i| edges[i].dst.0 as usize),
            control: self.control,
            arg_uses: Rows::group(n, &self.arg_uses, |i| self.arg_values[i].0 as usize),
            receivers: self.receivers,
            rets: self.rets,
            calls: self.calls,
            call_values: self.call_values,
        }
    }
}

/// Keeps, of each run of equal keys in a key-sorted table, the last entry.
fn dedup_keep_last<T>(table: &mut Vec<T>, key: impl Fn(&T) -> ValueId) {
    if table.windows(2).all(|w| key(&w[0]) != key(&w[1])) {
        return;
    }
    table.reverse();
    table.dedup_by_key(|entry| key(entry));
    table.reverse();
}

impl Seg {
    /// Builds the SEG of `f` (function `fid` of `module`) from its
    /// points-to result.
    pub fn build(
        arena: &mut TermArena,
        symbols: &mut Symbols,
        module: &Module,
        fid: FuncId,
        f: &Function,
        pta: &FuncPta,
    ) -> Self {
        let cfg = Cfg::new(f);
        let pdt = PostDomTree::new(f, &cfg);
        let cds = ControlDeps::new(f, &cfg, &pdt);
        let mut parts = SegParts::new(f.values.len());
        for b in 0..f.blocks.len() {
            let deps = cds.deps(BlockId(b as u32));
            parts.push_control(deps.iter().map(|d| (d.cond, d.polarity)));
        }
        // Size the call tables first: five of them grow with every call,
        // and a counting pass costs less than their regrowth.
        let (mut calls, mut args, mut dsts) = (0, 0, 0);
        for (_, inst) in f.iter_insts() {
            if let Inst::Call {
                dsts: d,
                callee,
                args: a,
            } = inst
            {
                if !intrinsics::is_intrinsic(callee) {
                    calls += 1;
                    args += a.len();
                    dsts += d.len();
                }
            }
        }
        parts.reserve_calls(calls, args, dsts);
        // Gates are only asked about φ-incomings.
        let mut gating: Option<Gating> = None;
        let tru = arena.tru();
        let mut edges: Vec<SegEdge> = Vec::with_capacity(f.inst_count() + pta.mem_deps.len());
        let mut edge = |src: ValueId, dst: ValueId, cond: TermId, kind: EdgeKind| {
            edges.push(SegEdge {
                src,
                dst,
                cond,
                kind,
            });
        };
        for (site, inst) in f.iter_insts() {
            match inst {
                Inst::Copy { dst, src } => edge(*src, *dst, tru, EdgeKind::Direct),
                Inst::Phi { dst, incomings } => {
                    let gating = gating
                        .get_or_insert_with(|| Gating::new(f, &cfg, &DomTree::dominators(f, &cfg)));
                    for &(pred, v) in incomings {
                        let gate = gating.gate(site.block, pred);
                        let g = symbols.gate_term(arena, fid, f, gate);
                        edge(v, *dst, g, EdgeKind::Direct);
                    }
                }
                Inst::Bin { dst, lhs, rhs, .. } => {
                    edge(*lhs, *dst, tru, EdgeKind::Transform);
                    edge(*rhs, *dst, tru, EdgeKind::Transform);
                }
                Inst::Un { dst, operand, .. } => edge(*operand, *dst, tru, EdgeKind::Transform),
                Inst::Call { dsts, callee, args } => {
                    if intrinsics::is_intrinsic(callee) {
                        continue;
                    }
                    parts.push_call(CallSite {
                        site,
                        callee: module.func_by_name(callee),
                        args,
                        dsts,
                    });
                }
                _ => {}
            }
        }
        // Memory dependences from the points-to analysis, after every
        // locally derived edge.
        edges.extend(pta.mem_deps.iter().map(SegEdge::memory));
        parts.edges = edges;
        // Return positions.
        parts.rets = f.return_values().iter().copied().zip(0..).collect();
        parts.seal()
    }

    /// Outgoing edges of `v`, in insertion order.
    pub fn succs(&self, v: ValueId) -> &[SegEdge] {
        self.out.row(v.0 as usize)
    }

    /// Incoming edges of `v`, in insertion order.
    pub fn preds(&self, v: ValueId) -> &[SegEdge] {
        self.inc.row(v.0 as usize)
    }

    /// Every edge, grouped by source vertex in ascending order, each
    /// vertex's edges in insertion order.
    pub fn edges(&self) -> &[SegEdge] {
        &self.out.data
    }

    /// Number of data edges (for the scalability accounting).
    pub fn edge_count(&self) -> usize {
        self.out.data.len()
    }

    /// Number of vertices: values with at least one edge.
    pub fn vertex_count(&self) -> usize {
        let degree = |rows: &Rows<SegEdge>, v: usize| rows.offsets[v + 1] - rows.offsets[v];
        (0..self.out.rows())
            .filter(|&v| degree(&self.out, v) + degree(&self.inc, v) > 0)
            .count()
    }

    /// Immediate control dependences of `block`: `(branch value,
    /// polarity)`.
    pub fn control_deps(&self, block: BlockId) -> &[(ValueId, bool)] {
        self.control.row(block.0 as usize)
    }

    /// Number of blocks [`Seg::control_deps`] covers.
    pub fn block_count(&self) -> usize {
        self.control.rows()
    }

    /// The occurrences of `v` as an actual argument of a user-function
    /// call, in instruction order.
    pub fn arg_uses(&self, v: ValueId) -> &[ArgUse] {
        self.arg_uses.row(v.0 as usize)
    }

    fn recv_def(&self, &(_, row, index): &(ValueId, u32, u32)) -> RecvDef {
        let call = &self.calls[row as usize];
        RecvDef {
            site: call.site,
            callee: call.callee,
            index: index as usize,
        }
    }

    /// The call `v` is a receiver of, if any.
    pub fn receiver(&self, v: ValueId) -> Option<RecvDef> {
        let i = self.receivers.binary_search_by_key(&v, |&(r, ..)| r).ok()?;
        Some(self.recv_def(&self.receivers[i]))
    }

    /// Every call receiver with its definition, in ascending value order.
    pub fn receivers(&self) -> impl ExactSizeIterator<Item = (ValueId, RecvDef)> + '_ {
        self.receivers.iter().map(|r| (r.0, self.recv_def(r)))
    }

    /// Position of `v` in the return tuple, if it is returned.
    pub fn ret_index(&self, v: ValueId) -> Option<usize> {
        let i = self.rets.binary_search_by_key(&v, |&(r, _)| r).ok()?;
        Some(self.rets[i].1)
    }

    /// The returned values with their positions, in ascending value order.
    pub fn ret_values(&self) -> &[(ValueId, usize)] {
        &self.rets
    }

    fn call(&self, c: &CallRecord) -> CallSite<'_> {
        let (start, args, dsts) = (c.start as usize, c.args as usize, c.dsts as usize);
        CallSite {
            site: c.site,
            callee: c.callee,
            args: &self.call_values[start..start + args],
            dsts: &self.call_values[start + args..start + args + dsts],
        }
    }

    /// The user-function call at `site`, if there is one.
    pub fn call_site(&self, site: InstId) -> Option<CallSite<'_>> {
        let i = self.calls.binary_search_by_key(&site, |c| c.site).ok()?;
        Some(self.call(&self.calls[i]))
    }

    /// Every user-function call, in instruction order.
    pub fn call_sites(&self) -> impl Iterator<Item = CallSite<'_>> + '_ {
        self.calls.iter().map(|c| self.call(c))
    }

    /// Bytes of heap this graph's tables hold, counted from their
    /// lengths (so equal graphs report equal sizes, whatever built them).
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes()
            + self.inc.heap_bytes()
            + self.control.heap_bytes()
            + self.arg_uses.heap_bytes()
            + self.receivers.len() * size_of::<(ValueId, u32, u32)>()
            + self.rets.len() * size_of::<(ValueId, usize)>()
            + self.calls.len() * size_of::<CallRecord>()
            + self.call_values.len() * size_of::<ValueId>()
    }
}

/// A cross-function global-cell access: `(function, value, condition)`.
pub type GlobalFlow = (FuncId, ValueId, TermId);

/// The SEGs of a whole module plus the module-level indexes the global
/// analysis needs.
#[derive(Debug, Default)]
pub struct ModuleSeg {
    /// Per-function SEG, indexed by `FuncId`.
    pub segs: Vec<Seg>,
    /// Call sites of each function, a row per callee `FuncId`:
    /// `(caller, site)` in ascending order.
    callers: Rows<(FuncId, InstId)>,
    /// Cross-function global-cell flows: for each global, the stores into
    /// it and the loads out of it. Ordered maps: the detection search
    /// iterates them whole, so their order feeds DFS exploration order
    /// and must not depend on per-process hash seeds.
    pub global_stores: BTreeMap<GlobalId, Vec<GlobalFlow>>,
    /// Loads out of global cells.
    pub global_loads: BTreeMap<GlobalId, Vec<GlobalFlow>>,
    /// `global_stores` by storing function: the values each function
    /// writes into some global cell, sorted and distinct. Indexed by
    /// `FuncId`; read through [`ModuleSeg::global_store_values`].
    global_store_values: Vec<Vec<ValueId>>,
    /// Total SEG vertices (distinct values touched by edges).
    pub vertex_count: usize,
    /// Total SEG edges.
    pub edge_count: usize,
}

impl ModuleSeg {
    /// Builds every function's SEG: [`ModuleSeg::build_reusing`] with
    /// nothing to reuse and no trace.
    pub fn build(
        module: &Module,
        arena: &mut TermArena,
        symbols: &mut Symbols,
        pta: &[FuncPta],
    ) -> Self {
        Self::build_reusing(module, arena, symbols, pta, None, &mut TraceBuf::off())
    }

    /// Builds the SEGs of `module`, one function after another in id
    /// order, straight into the shared `arena` and `symbols` (one
    /// `seg.func` span per function built), then the module-level indexes.
    ///
    /// `reuse` provides an edit's previous graphs plus the functions that
    /// must be rebuilt; every other graph is spliced. A spliced graph
    /// keeps the callee ids it was built with, so the old build's module
    /// must have had the same functions in the same order. Module-level
    /// indexes are recomputed from the whole set (cheap relative to graph
    /// construction).
    pub fn build_reusing(
        module: &Module,
        arena: &mut TermArena,
        symbols: &mut Symbols,
        pta: &[FuncPta],
        reuse: Option<(ModuleSeg, &[FuncId])>,
        trace: &mut TraceBuf,
    ) -> Self {
        let mut old_segs: Option<Vec<Option<Seg>>> = reuse.map(|(old, dirty)| {
            let mut segs: Vec<Option<Seg>> = old.segs.into_iter().map(Some).collect();
            for f in dirty {
                if let Some(slot) = segs.get_mut(f.0 as usize) {
                    *slot = None;
                }
            }
            segs
        });
        let mut segs = Vec::with_capacity(module.funcs.len());
        for (fid, f) in module.iter_funcs() {
            let spliced = old_segs
                .as_mut()
                .and_then(|old| old.get_mut(fid.0 as usize)?.take());
            let seg = spliced.unwrap_or_else(|| {
                trace.span("seg.func", f.name.as_str(), |_| {
                    Seg::build(arena, symbols, module, fid, f, &pta[fid.0 as usize])
                })
            });
            segs.push(seg);
        }
        Self::assemble(module, segs, pta)
    }

    /// Computes the module-level indexes (callers, global channels,
    /// vertex/edge totals) over finished per-function graphs.
    fn assemble(module: &Module, segs: Vec<Seg>, pta: &[FuncPta]) -> Self {
        // Functions in id order, each function's sites in order: every
        // callee's row comes out sorted by `(caller, site)`.
        let (mut targets, mut sites) = (Vec::new(), Vec::new());
        let mut global_stores: BTreeMap<GlobalId, Vec<GlobalFlow>> = BTreeMap::new();
        let mut global_loads: BTreeMap<GlobalId, Vec<GlobalFlow>> = BTreeMap::new();
        for (fid, _) in module.iter_funcs() {
            let i = fid.0 as usize;
            for call in segs[i].call_sites() {
                if let Some(target) = call.callee {
                    targets.push(target);
                    sites.push((fid, call.site));
                }
            }
            for ga in &pta[i].global_stores {
                let flows = global_stores.entry(ga.global).or_default();
                flows.push((fid, ga.value, ga.cond));
            }
            for ga in &pta[i].global_loads {
                let flows = global_loads.entry(ga.global).or_default();
                flows.push((fid, ga.value, ga.cond));
            }
        }
        let callers = Rows::group(module.funcs.len(), &sites, |i| targets[i].0 as usize);
        let global_store_values = pta
            .iter()
            .map(|p| {
                let mut vs: Vec<ValueId> = p.global_stores.iter().map(|ga| ga.value).collect();
                vs.sort_unstable();
                vs.dedup();
                vs
            })
            .collect();
        let vertex_count = segs.iter().map(Seg::vertex_count).sum();
        let edge_count = segs.iter().map(Seg::edge_count).sum();
        ModuleSeg {
            segs,
            callers,
            global_stores,
            global_loads,
            global_store_values,
            vertex_count,
            edge_count,
        }
    }

    /// The call sites of `f`: `(caller, site)` in ascending order.
    pub fn callers(&self, f: FuncId) -> &[(FuncId, InstId)] {
        self.callers.row(f.0 as usize)
    }

    /// The values `f` stores into global cells (sorted, distinct): the
    /// per-function view of [`ModuleSeg::global_stores`], so asking "does
    /// this value escape through a global?" costs a binary search, not a
    /// scan of every global's store list.
    pub fn global_store_values(&self, f: FuncId) -> &[ValueId] {
        self.global_store_values
            .get(f.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// The SEG of `f`.
    pub fn seg(&self, f: FuncId) -> &Seg {
        &self.segs[f.0 as usize]
    }

    /// Bytes of heap the per-function graphs and the callers index hold,
    /// counted from table lengths: the Fig. 8 memory figure as a counter
    /// that is the same for every thread count and allocator.
    pub fn heap_bytes(&self) -> usize {
        self.segs.len() * size_of::<Seg>()
            + self.segs.iter().map(Seg::heap_bytes).sum::<usize>()
            + self.callers.heap_bytes()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::reference::RefModule;
    use super::*;
    use pinpoint_ir::{compile, Terminator, Type};
    use pinpoint_pta::{analyze_module, ModuleAnalysis};

    fn build(src: &str) -> (Module, ModuleAnalysis, ModuleSeg) {
        let mut m = compile(src).unwrap();
        let mut analysis = analyze_module(&mut m);
        let seg = {
            let mut arena = std::mem::take(&mut analysis.arena);
            let mut symbols = std::mem::take(&mut analysis.symbols);
            let s = ModuleSeg::build(&m, &mut arena, &mut symbols, &analysis.pta);
            analysis.arena = arena;
            analysis.symbols = symbols;
            s
        };
        (m, analysis, seg)
    }

    #[test]
    fn copy_chain_edges() {
        let (m, _a, ms) = build(
            "fn f(a: int*) -> int* {
                let b: int* = a;
                let c: int* = b;
                return c;
            }",
        );
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let seg = ms.seg(fid);
        // a → b → c through direct edges.
        let a = f.params[0];
        assert_eq!(seg.succs(a).len(), 1);
        assert_eq!(seg.succs(a)[0].kind, EdgeKind::Direct);
        let b = seg.succs(a)[0].dst;
        assert_eq!(seg.succs(b).len(), 1);
    }

    #[test]
    fn phi_edges_carry_gates() {
        let (m, a, ms) = build(
            "fn f(c: bool, x: int*, y: int*) -> int* {
                let r: int* = null;
                if (c) { r = x; } else { r = y; }
                return r;
            }",
        );
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let seg = ms.seg(fid);
        let phi_in: Vec<&SegEdge> = f
            .iter_insts()
            .filter_map(|(_, i)| match i {
                Inst::Phi { dst, .. } => Some(*dst),
                _ => None,
            })
            .flat_map(|dst| seg.preds(dst))
            .collect();
        assert_eq!(phi_in.len(), 2);
        for e in phi_in {
            assert!(
                !a.arena.is_true(e.cond),
                "φ edges must be gated, got unconditional"
            );
        }
    }

    #[test]
    fn memory_edges_from_pta() {
        let (m, _a, ms) = build(
            "fn f(a: int*) -> int* {
                let p: int** = malloc();
                *p = a;
                let q: int* = *p;
                return q;
            }",
        );
        let fid = m.func_by_name("f").unwrap();
        let seg = ms.seg(fid);
        let mem_edges = seg.edges().iter().filter(|e| e.kind == EdgeKind::Memory);
        assert_eq!(mem_edges.count(), 1);
    }

    #[test]
    fn boundary_indexes_populated() {
        let (m, _a, ms) = build(
            "fn g(x: int*) -> int* { return x; }
             fn f(a: int*) -> int* {
                let r: int* = g(a);
                return r;
             }",
        );
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let seg = ms.seg(fid);
        let a = f.params[0];
        let gid = m.func_by_name("g").unwrap();
        assert_eq!(seg.arg_uses(a).len(), 1);
        assert_eq!(seg.arg_uses(a)[0].callee, Some(gid));
        assert_eq!(seg.receivers().len(), 1);
        assert_eq!(ms.callers(gid).len(), 1);
        // Return index of g's returned param.
        let g = m.func(gid);
        let seg_g = ms.seg(gid);
        assert_eq!(seg_g.ret_index(g.return_values()[0]), Some(0));
    }

    #[test]
    fn control_deps_attached_to_blocks() {
        let (m, _a, ms) = build(
            "fn f(c: bool, p: int*) {
                if (c) { free(p); }
                return;
            }",
        );
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let seg = ms.seg(fid);
        let free_block = f
            .iter_insts()
            .find_map(|(id, i)| match i {
                Inst::Call { callee, .. } if callee == "free" => Some(id.block),
                _ => None,
            })
            .unwrap();
        assert_eq!(seg.control_deps(free_block).len(), 1);
        let (cv, pol) = seg.control_deps(free_block)[0];
        assert_eq!(cv, f.params[0]);
        assert!(pol);
    }

    #[test]
    fn global_channels_recorded() {
        let (m, _a, ms) = build(
            "global g: int*;
             fn w(x: int*) { *g = x; return; }
             fn r() -> int* { let v: int* = *g; return v; }",
        );
        assert_eq!(ms.global_stores.len(), 1);
        assert_eq!(ms.global_loads.len(), 1);
        let _ = m;
    }

    #[test]
    fn parallel_build_is_byte_identical_across_thread_counts() {
        let src = "global g: int*;
             fn w(x: int*) { *g = x; return; }
             fn callee(q: int**) { *q = null; return; }
             fn f(c: bool, x: int*, y: int*) -> int* {
                let p: int** = malloc();
                *p = x;
                callee(p);
                let r: int* = null;
                if (c) { r = x; } else { r = y; }
                let l: int* = *p;
                print(l);
                return r;
             }";
        // Arena/interner sizes plus every function's edges per vertex:
        // equal renderings mean identical `TermId`s.
        let build = |t: usize| {
            let a = crate::AnalysisBuilder::new()
                .threads(t)
                .build_source(src)
                .unwrap();
            let ms = &a.segs;
            let mut out = format!(
                "terms={} symbols={} edges={} vertices={} bytes={}\n",
                a.arena.len(),
                a.pta.symbols.len(),
                ms.edge_count,
                ms.vertex_count,
                ms.heap_bytes(),
            );
            for (fid, f) in a.module.iter_funcs() {
                for v in (0..f.values.len() as u32).map(ValueId) {
                    let seg = ms.seg(fid);
                    out.push_str(&format!("{:?}\n{:?}\n", seg.succs(v), seg.preds(v)));
                }
            }
            out
        };
        let serial = build(1);
        for t in [3usize, 4, 8] {
            assert_eq!(build(t), serial, "threads={t}");
        }
    }

    #[test]
    fn edge_and_vertex_counts_positive() {
        let (_m, _a, ms) = build(
            "fn f(a: int*) -> int* {
                let b: int* = a;
                return b;
            }",
        );
        assert!(ms.edge_count >= 1);
        assert!(ms.vertex_count >= 2);
    }

    /// The graphs of `module` ≡ the keyed-map reference, field for field,
    /// and both grow the arena and the interner alike.
    fn assert_matches_reference(mut module: Module, what: &str) {
        let a = analyze_module(&mut module);
        let m = &module;
        let (mut arena, mut symbols) = (a.arena.clone(), a.symbols.clone());
        let ms = ModuleSeg::build(m, &mut arena, &mut symbols, &a.pta);
        let (mut ref_arena, mut ref_symbols) = (a.arena.clone(), a.symbols.clone());
        let reference = RefModule::build(m, &mut ref_arena, &mut ref_symbols, &a.pta);
        reference.assert_matches(&ms, m, &a.pta, what);
        assert_eq!(
            (arena.len(), symbols.len()),
            (ref_arena.len(), ref_symbols.len()),
            "{what}: terms, symbols"
        );
    }

    #[test]
    fn matches_reference_on_corpus() {
        let dir = format!("{}/../../tests/corpus", env!("CARGO_MANIFEST_DIR"));
        let mut files = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "pp") {
                let module = compile(&std::fs::read_to_string(&path).unwrap()).unwrap();
                assert_matches_reference(module, &path.display().to_string());
                files += 1;
            }
        }
        assert!(files >= 20, "corpus not found");
    }

    #[test]
    fn matches_reference_on_fuzzgen_seeds() {
        use pinpoint_workload::fuzzgen::{generate, FuzzGenConfig};
        for seed in 1..=50 {
            let src = generate(&FuzzGenConfig {
                seed,
                recursion: true,
                ..FuzzGenConfig::default()
            });
            assert_matches_reference(compile(&src).unwrap(), &format!("fuzzgen seed {seed}"));
        }
    }

    #[test]
    fn matches_reference_on_hand_built_shapes() {
        // What the front end never produces: a callee name that resolves
        // to nothing, one value returned at two positions, and the same
        // value passed twice to one call.
        let mut m = compile(
            "fn g(a: int*, b: int*) -> int* { return a; }
             fn f(p: int*) -> int* { let r: int* = g(p, p); return r; }",
        )
        .unwrap();
        let f = m.func_by_name("f").unwrap();
        let p = m.func(f).params[0];
        let ghost = Inst::Call {
            dsts: Vec::new(),
            callee: "ghost".to_string(),
            args: vec![p],
        };
        let func = m.func_mut(f);
        let entry = func.entry();
        func.push_inst(entry, ghost);
        let exit = func.return_block().unwrap();
        let Terminator::Return(vals) = &mut func.blocks[exit.0 as usize].term else {
            unreachable!("the return block returns");
        };
        vals.push(vals[0]);
        func.ret_tys.push(Type::Int.ptr_to());
        let pta: Vec<FuncPta> = m.funcs.iter().map(|_| FuncPta::default()).collect();
        let (mut arena, mut symbols) = (TermArena::new(), Symbols::new());
        let ms = ModuleSeg::build(&m, &mut arena, &mut symbols, &pta);
        let (mut ref_arena, mut ref_symbols) = (TermArena::new(), Symbols::new());
        let reference = RefModule::build(&m, &mut ref_arena, &mut ref_symbols, &pta);
        reference.assert_matches(&ms, &m, &pta, "hand-built");
        let seg = ms.seg(f);
        assert_eq!(seg.arg_uses(p).len(), 3);
        assert_eq!(seg.arg_uses(p)[2].callee, None, "ghost resolves to nothing");
        let ret = m.func(f).return_values()[0];
        assert_eq!(seg.ret_index(ret), Some(1), "the later position wins");
    }

    #[test]
    fn edges_are_sixteen_bytes() {
        assert!(size_of::<SegEdge>() <= 16);
    }

    /// `count` calls `callee(p)` in a row, in one block.
    fn caller_of(name: &str, callee: &str, count: usize) -> Function {
        let mut f = Function::new(name);
        let p = f.new_value("p", Type::Int.ptr_to());
        f.params.push(p);
        for _ in 0..count {
            let call = Inst::Call {
                dsts: Vec::new(),
                callee: callee.to_string(),
                args: vec![p],
            };
            f.push_inst(f.entry(), call);
        }
        f.set_term(f.entry(), Terminator::Return(Vec::new()));
        f
    }

    #[test]
    fn long_chains_and_hub_callees_build_in_linear_time() {
        // One function of 200 000 values in a copy chain, and one callee
        // with 200 000 call sites, all passing the same value. Linear
        // construction is well under a second even unoptimised; a
        // per-vertex scan or a `contains`-based index is 4·10¹⁰ steps.
        const N: usize = 200_000;
        let mut chain = Function::new("chain");
        let mut prev = chain.new_value("v", Type::Int.ptr_to());
        chain.params.push(prev);
        for _ in 0..N {
            let next = chain.new_value("v", Type::Int.ptr_to());
            chain.push_inst(
                chain.entry(),
                Inst::Copy {
                    dst: next,
                    src: prev,
                },
            );
            prev = next;
        }
        chain.set_term(chain.entry(), Terminator::Return(vec![prev]));
        let mut m = Module::new();
        let chain = m.add_func(chain);
        let hub = m.add_func(caller_of("hub", "print", 0));
        let big = m.add_func(caller_of("big", "hub", N));
        let pta: Vec<FuncPta> = m.funcs.iter().map(|_| FuncPta::default()).collect();
        let (mut arena, mut symbols) = (TermArena::new(), Symbols::new());
        let start = std::time::Instant::now();
        let ms = ModuleSeg::build(&m, &mut arena, &mut symbols, &pta);
        let vertices = ms.seg(chain).vertex_count();
        let took = start.elapsed();
        assert_eq!(ms.seg(chain).edge_count(), N);
        assert_eq!(vertices, N + 1);
        assert_eq!(ms.callers(hub).len(), N);
        let p = m.func(big).params[0];
        assert_eq!(ms.seg(big).arg_uses(p).len(), N);
        assert_eq!(ms.seg(big).call_sites().count(), N);
        assert!(took.as_secs_f64() < 2.0, "SEG build took {took:?}");
    }
}
