//! The quasi path-sensitive intra-procedural points-to analysis (§3.1.1).
//!
//! The analysis is flow-sensitive over the acyclic SSA CFG and *guarded*:
//! every points-to fact and every memory content carries the condition
//! under which it holds, so a single pass in topological order is fully
//! path-aware without per-block state copies. A store under reach
//! condition `θ` to an object the pointer targets under `c` adds the entry
//! `(src, θ ∧ c)` and weakens every older entry by `∧ ¬(θ ∧ c)`; a load
//! pairs the pointer's target conditions with the surviving entries.
//!
//! Conditions that contain an apparent contradiction (`a ∧ ¬a`) are pruned
//! on the spot by the paper's linear-time solver — *quasi* path
//! sensitivity: no SMT solving happens here, but most infeasible-path
//! facts never survive into the SEG.

// Analysis state is indexed by the function's dense ids; a hash container
// here would reintroduce per-process iteration order (see `clippy.toml`).
#![deny(clippy::disallowed_types)]

use crate::object::{AccessPath, Obj, MAX_PATH_DEPTH};
use crate::reach::ReachConds;
use crate::symbols::Symbols;
use pinpoint_ir::{
    BlockId, Cfg, DomTree, FuncId, Function, Gating, GlobalId, Inst, InstId, ValueId,
};
use pinpoint_smt::{LinearSolver, LinearVerdict, TermArena, TermId};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// A conditional memory dependence: the value stored at `store_site` flows
/// to the value loaded at `load_site` when `cond` holds.
///
/// These are exactly the pointer-induced data-dependence edges of the SEG
/// ("connecting the load `p ← *q` to the store `*u ← w` if `*q` and `*u`
/// are aliased").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDep {
    /// The store instruction (or `None` for Aux-entry initialisation that
    /// has no explicit site).
    pub store_site: InstId,
    /// The stored SSA value.
    pub src: ValueId,
    /// The load instruction.
    pub load_site: InstId,
    /// The loaded SSA value.
    pub dst: ValueId,
    /// Condition on which the dependence holds.
    pub cond: TermId,
}

/// A store into / load from a global cell (stitched across functions by
/// the global value-flow analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalAccess {
    /// Which global.
    pub global: GlobalId,
    /// The stored or loaded SSA value.
    pub value: ValueId,
    /// Condition on which the access happens (reach ∧ target).
    pub cond: TermId,
    /// The access site.
    pub site: InstId,
}

/// Counters reported by the evaluation harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PtaStats {
    /// Dependence/points-to facts pruned by the linear solver.
    pub pruned: u64,
    /// Facts kept.
    pub kept: u64,
    /// Linear-solver calls.
    pub linear_checks: u64,
}

impl std::iter::Sum for PtaStats {
    fn sum<I: Iterator<Item = PtaStats>>(iter: I) -> Self {
        iter.fold(PtaStats::default(), |acc, s| PtaStats {
            pruned: acc.pruned + s.pruned,
            kept: acc.kept + s.kept,
            linear_checks: acc.linear_checks + s.linear_checks,
        })
    }
}

impl PtaStats {
    /// Publishes the counters into the unified metrics registry under the
    /// `pta.` stage prefix.
    pub fn record_into(&self, metrics: &mut pinpoint_obs::MetricsRegistry) {
        metrics.counter_add("pta.pruned", self.pruned);
        metrics.counter_add("pta.kept", self.kept);
        metrics.counter_add("pta.linear_checks", self.linear_checks);
    }
}

/// One guarded points-to fact: the object and the condition it is
/// targeted under.
pub type Fact = (Obj, TermId);

/// The guarded points-to sets of one function's values, indexed by
/// [`ValueId`]: a `(start, len)` span per value into one fact pool. A
/// pass only appends to the pool — overwriting a set leaves the old one
/// behind; the table lives only until the driver has merged its pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PointsTo {
    spans: Vec<(u32, u32)>,
    facts: Vec<Fact>,
}

impl PointsTo {
    /// An all-empty table for a function with `values` SSA values.
    pub fn new(values: usize) -> Self {
        PointsTo {
            spans: vec![(0, 0); values],
            facts: Vec::new(),
        }
    }

    fn span(&self, (start, len): (u32, u32)) -> &[Fact] {
        &self.facts[start as usize..(start + len) as usize]
    }

    /// Guarded points-to set of `v` (empty when untracked or out of
    /// range).
    pub fn get(&self, v: ValueId) -> &[Fact] {
        self.spans
            .get(v.0 as usize)
            .map_or(&[], |&span| self.span(span))
    }

    /// Sets the points-to set of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a value of the function the table was sized
    /// for, or the pool outgrows `u32`.
    pub fn set(&mut self, v: ValueId, facts: &[Fact]) {
        let start = u32::try_from(self.facts.len()).expect("points-to pool overflow");
        let len = u32::try_from(facts.len()).expect("points-to pool overflow");
        self.facts.extend_from_slice(facts);
        self.spans[v.0 as usize] = (start, len);
    }

    /// Gives `dst` the points-to set `src` has now.
    fn copy(&mut self, dst: ValueId, src: ValueId) {
        let Some(&(start, len)) = self.spans.get(src.0 as usize) else {
            return;
        };
        if len == 0 {
            return;
        }
        let new_start = u32::try_from(self.facts.len()).expect("points-to pool overflow");
        self.facts
            .extend_from_within(start as usize..(start + len) as usize);
        self.spans[dst.0 as usize] = (new_start, len);
    }

    /// The tracked values with their sets, in ascending [`ValueId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &[Fact])> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, &(_, len))| len != 0)
            .map(|(i, &span)| (ValueId(i as u32), self.span(span)))
    }
}

/// What a build keeps of one function's points-to analysis: what the SEG
/// builder and an edit's splice read.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FuncPta {
    /// Conditional memory def-use edges.
    pub mem_deps: Vec<MemDep>,
    /// Stores into global cells.
    pub global_stores: Vec<GlobalAccess>,
    /// Loads out of global cells.
    pub global_loads: Vec<GlobalAccess>,
    /// Prune statistics.
    pub stats: PtaStats,
}

impl FuncPta {
    /// Drops the spare capacity a pass leaves behind, for a result that
    /// is kept.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.mem_deps.shrink_to_fit();
        self.global_stores.shrink_to_fit();
        self.global_loads.shrink_to_fit();
    }
}

/// Everything one points-to pass computes: the result a build keeps, plus
/// the guarded points-to sets and Mod/Ref paths only the driver reads.
/// The connector transform reads the paths; the merge translates the
/// sets' conditions into the shared arena and then drops both.
#[derive(Debug, Default, Clone)]
pub struct PassOutput {
    /// The part a build keeps.
    pub kept: FuncPta,
    /// Final guarded points-to sets.
    pub points_to: PointsTo,
    /// Referenced parameter-rooted access paths (Mod/Ref "REF").
    pub refs: Vec<AccessPath>,
    /// Modified parameter-rooted access paths (Mod/Ref "MOD").
    pub mods: Vec<AccessPath>,
}

impl PassOutput {
    /// Guarded points-to set of `v` (empty slice when untracked).
    pub fn pt(&self, v: ValueId) -> &[Fact] {
        self.points_to.get(v)
    }
}

/// Memory content entry: a stored value or the symbolic initial content of
/// a parameter pseudo-object (which points one level down the chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemVal {
    /// An SSA value stored by `InstId`.
    Value(ValueId, InstId),
    /// Initial (caller-provided) content pointing to the next pseudo
    /// object in the chain.
    InitialPtr(Obj),
}

/// Aux formal parameters registered before the second analysis pass:
/// `(path, value)` — the value `F_i` holds the initial content of
/// `*(v_root, depth)`.
#[derive(Debug, Clone, Copy)]
pub struct AuxParamBinding {
    /// The access path this Aux formal covers.
    pub path: AccessPath,
    /// The Aux formal parameter value.
    pub value: ValueId,
}

/// The control-flow facts a points-to pass reads. They depend only on the
/// function's blocks, successors and branch conditions, so one set serves
/// every pass over bodies that differ in their other instructions alone.
#[derive(Debug)]
pub struct FlowFacts {
    cfg: Cfg,
    topo: Vec<BlockId>,
    /// Reach condition per block, as terms of the arena they were built
    /// in.
    reach: ReachConds,
    /// φ gates, computed at the first φ.
    gating: OnceCell<Gating>,
}

impl FlowFacts {
    /// Computes the facts of `f`, function `fid`, with conditions in
    /// `arena`.
    pub fn new(arena: &mut TermArena, symbols: &mut Symbols, fid: FuncId, f: &Function) -> Self {
        let cfg = Cfg::new(f);
        let topo = cfg.topo_order(f.entry());
        let reach = ReachConds::over(arena, symbols, fid, f, &topo);
        FlowFacts {
            cfg,
            topo,
            reach,
            gating: OnceCell::new(),
        }
    }

    fn gating(&self, f: &Function) -> &Gating {
        self.gating
            .get_or_init(|| Gating::new(f, &self.cfg, &DomTree::dominators(f, &self.cfg)))
    }
}

/// Runs the quasi path-sensitive points-to analysis over `f`, given
/// control-flow facts the caller computed: `flow` must describe `f`'s
/// blocks and terminators (see [`FlowFacts`]) and hold its conditions in
/// `arena`.
///
/// `aux_params` communicates the Fig. 3 connectors inserted by the
/// transformation pass: each Aux formal parameter for path `*(p, k)`
/// points (if pointer-typed) to the pseudo object `*(p, k+1)`. `prune =
/// false` is the "no quasi path sensitivity" ablation: every guarded fact
/// is kept regardless of apparent contradictions.
#[allow(clippy::too_many_arguments)]
pub fn analyze_function_over(
    arena: &mut TermArena,
    symbols: &mut Symbols,
    linear: &mut LinearSolver,
    fid: FuncId,
    f: &Function,
    aux_params: &[AuxParamBinding],
    prune: bool,
    flow: &FlowFacts,
) -> PassOutput {
    let mut st = State {
        pruner: Pruner {
            arena,
            linear,
            prune,
            stats: PtaStats::default(),
        },
        symbols,
        fid,
        f,
        pt: PointsTo::new(f.values.len()),
        #[cfg(test)]
        reference: Default::default(),
        mem: BTreeMap::new(),
        out: PassOutput::default(),
    };
    // Parameter pseudo-chains: every pointer-typed original parameter
    // points to its depth-1 pseudo object; Aux formals point one past
    // their path.
    for (i, &p) in f.params.iter().enumerate() {
        if aux_params.iter().any(|b| b.value == p) {
            continue;
        }
        if f.ty(p).is_ptr() {
            let t = st.pruner.arena.tru();
            let obj = Obj::Param {
                root: i as u32,
                depth: 1,
            };
            st.set_pt(p, &[(obj, t)]);
        }
    }
    for b in aux_params {
        if f.ty(b.value).is_ptr() && b.path.depth < MAX_PATH_DEPTH {
            let t = st.pruner.arena.tru();
            let obj = Obj::Param {
                root: b.path.root,
                depth: b.path.depth + 1,
            };
            st.set_pt(b.value, &[(obj, t)]);
        }
    }
    // Single pass in topological order.
    for &b in &flow.topo {
        let theta = flow.reach.cond(b);
        for (idx, inst) in f.block(b).insts.iter().enumerate() {
            let site = InstId {
                block: b,
                index: idx as u32,
            };
            st.step(site, inst, theta, flow);
        }
    }
    let mut out = st.finish();
    out.refs.sort_unstable();
    out.refs.dedup();
    out.mods.sort_unstable();
    out.mods.dedup();
    out
}

/// The guarded-conjunction half of the pass state: everything
/// [`Pruner::conjoin`] touches, apart from the tables the pass iterates
/// while conjoining.
struct Pruner<'a> {
    arena: &'a mut TermArena,
    linear: &'a mut LinearSolver,
    prune: bool,
    stats: PtaStats,
}

impl Pruner<'_> {
    /// Guarded conjunction with on-the-spot pruning; `None` when the
    /// linear solver refutes the conjunction.
    fn conjoin(&mut self, a: TermId, b: TermId) -> Option<TermId> {
        let c = self.arena.and2(a, b);
        if !self.prune {
            if self.arena.is_false(c) {
                return None; // structurally false facts are never useful
            }
            self.stats.kept += 1;
            return Some(c);
        }
        self.stats.linear_checks += 1;
        match self.linear.check(self.arena, c) {
            LinearVerdict::Unsat => {
                self.stats.pruned += 1;
                None
            }
            LinearVerdict::Unknown => {
                self.stats.kept += 1;
                Some(c)
            }
        }
    }

    /// Quasi path-sensitive feasibility probe: `true` unless the linear
    /// solver refutes `a ∧ b`. Unlike [`Pruner::conjoin`] the conjunction
    /// is only tested, not returned — used to prune a dependence against
    /// the consuming statement's reach condition without baking that
    /// condition into the edge label (the SEG adds control dependence
    /// separately).
    fn feasible(&mut self, a: TermId, b: TermId) -> bool {
        if !self.prune {
            return true;
        }
        let c = self.arena.and2(a, b);
        self.stats.linear_checks += 1;
        match self.linear.check(self.arena, c) {
            LinearVerdict::Unsat => {
                self.stats.pruned += 1;
                false
            }
            LinearVerdict::Unknown => true,
        }
    }
}

struct State<'a> {
    pruner: Pruner<'a>,
    symbols: &'a mut Symbols,
    fid: FuncId,
    f: &'a Function,
    /// Guarded points-to sets of SSA values.
    pt: PointsTo,
    /// The keyed map `pt` replaced, written in step with it: the oracle
    /// [`State::finish`] compares the dense table against.
    #[cfg(test)]
    #[allow(clippy::disallowed_types)]
    reference: std::collections::HashMap<ValueId, Vec<Fact>>,
    /// Guarded memory contents. Keyed, not dense: the objects a function
    /// touches are a sparse subset of sites × globals × parameter paths.
    mem: BTreeMap<Obj, Vec<(MemVal, TermId)>>,
    out: PassOutput,
}

/// The memory contents of `o`, created on first touch: a parameter
/// pseudo-object starts out pointing down its chain.
fn mem_entries<'m>(
    mem: &'m mut BTreeMap<Obj, Vec<(MemVal, TermId)>>,
    arena: &mut TermArena,
    o: Obj,
) -> &'m mut Vec<(MemVal, TermId)> {
    mem.entry(o).or_insert_with(|| match o {
        Obj::Param { depth, .. } if depth < MAX_PATH_DEPTH => {
            let next = o.next_in_chain().expect("param chains extend");
            vec![(MemVal::InitialPtr(next), arena.tru())]
        }
        _ => Vec::new(),
    })
}

fn record_path(paths: &mut Vec<AccessPath>, o: Obj) {
    if let Obj::Param { root, depth } = o {
        if depth <= MAX_PATH_DEPTH {
            paths.push(AccessPath { root, depth });
        }
    }
}

impl State<'_> {
    fn set_pt(&mut self, v: ValueId, facts: &[Fact]) {
        #[cfg(test)]
        self.reference.insert(v, facts.to_vec());
        self.pt.set(v, facts);
    }

    fn copy_pt(&mut self, dst: ValueId, src: ValueId) {
        #[cfg(test)]
        if let Some(p) = self.reference.get(&src).cloned() {
            self.reference.insert(dst, p);
        }
        self.pt.copy(dst, src);
    }

    fn finish(mut self) -> PassOutput {
        #[cfg(test)]
        {
            let mut expected: Vec<(ValueId, &[Fact])> = self
                .reference
                .iter()
                .map(|(&v, set)| (v, set.as_slice()))
                .collect();
            expected.sort_unstable_by_key(|&(v, _)| v);
            let dense: Vec<(ValueId, &[Fact])> = self.pt.iter().collect();
            assert_eq!(dense, expected, "dense points-to ≠ reference map");
        }
        self.out.kept.stats = self.pruner.stats;
        self.out.points_to = self.pt;
        self.out
    }

    /// Objects targeted by dereferencing `ptr` exactly `depth` times,
    /// recording REF paths for intermediate reads.
    ///
    /// Depth 1 returns `pt(ptr)`. Depth k > 1 reads the contents of the
    /// depth-(k−1) targets and resolves them to objects.
    fn targets_at_depth(&mut self, ptr: ValueId, depth: u32) -> Vec<Fact> {
        let mut cur = self.pt.get(ptr).to_vec();
        for _level in 1..depth {
            let mut next: Vec<Fact> = Vec::new();
            for (o, c) in cur {
                record_path(&mut self.out.refs, o);
                for &(val, vc) in &*mem_entries(&mut self.mem, self.pruner.arena, o) {
                    let Some(cc) = self.pruner.conjoin(c, vc) else {
                        continue;
                    };
                    match val {
                        MemVal::InitialPtr(o2) => {
                            push_target(&mut next, o2, cc, self.pruner.arena);
                        }
                        MemVal::Value(v, _) => {
                            for &(o2, c2) in self.pt.get(v) {
                                if let Some(c3) = self.pruner.conjoin(cc, c2) {
                                    push_target(&mut next, o2, c3, self.pruner.arena);
                                }
                            }
                        }
                    }
                }
            }
            cur = next;
        }
        cur
    }

    fn step(&mut self, site: InstId, inst: &Inst, theta: TermId, flow: &FlowFacts) {
        match inst {
            Inst::Const { .. } => {}
            Inst::Copy { dst, src } => self.copy_pt(*dst, *src),
            Inst::Phi { dst, incomings } => {
                let mut set: Vec<Fact> = Vec::new();
                for &(pred, v) in incomings {
                    let gate = flow.gating(self.f).gate(site.block, pred);
                    let g = self
                        .symbols
                        .gate_term(self.pruner.arena, self.fid, self.f, gate);
                    for &(o, c) in self.pt.get(v) {
                        if let Some(cc) = self.pruner.conjoin(g, c) {
                            push_target(&mut set, o, cc, self.pruner.arena);
                        }
                    }
                }
                if !set.is_empty() {
                    self.set_pt(*dst, &set);
                }
            }
            Inst::Bin { .. } | Inst::Un { .. } => {}
            Inst::Alloc { dst } => {
                let t = self.pruner.arena.tru();
                self.set_pt(*dst, &[(Obj::Alloc(site), t)]);
                self.mem.entry(Obj::Alloc(site)).or_default();
            }
            Inst::GlobalAddr { dst, global } => {
                let t = self.pruner.arena.tru();
                self.set_pt(*dst, &[(Obj::Global(*global), t)]);
                self.mem.entry(Obj::Global(*global)).or_default();
            }
            Inst::Load { dst, ptr, depth } => {
                let targets = self.targets_at_depth(*ptr, *depth);
                let mut new_pt: Vec<Fact> = Vec::new();
                for (o, c) in targets {
                    record_path(&mut self.out.refs, o);
                    if let Obj::Global(g) = o {
                        self.out.kept.global_loads.push(GlobalAccess {
                            global: g,
                            value: *dst,
                            cond: c,
                            site,
                        });
                    }
                    for &(val, vc) in &*mem_entries(&mut self.mem, self.pruner.arena, o) {
                        let Some(cc) = self.pruner.conjoin(c, vc) else {
                            continue;
                        };
                        if !self.pruner.feasible(theta, cc) {
                            continue; // infeasible on every path to this load
                        }
                        match val {
                            MemVal::Value(v, store_site) => {
                                self.out.kept.mem_deps.push(MemDep {
                                    store_site,
                                    src: v,
                                    load_site: site,
                                    dst: *dst,
                                    cond: cc,
                                });
                                for &(o2, c2) in self.pt.get(v) {
                                    if let Some(c3) = self.pruner.conjoin(cc, c2) {
                                        push_target(&mut new_pt, o2, c3, self.pruner.arena);
                                    }
                                }
                            }
                            MemVal::InitialPtr(o2) => {
                                push_target(&mut new_pt, o2, cc, self.pruner.arena);
                            }
                        }
                    }
                }
                if !new_pt.is_empty() {
                    self.set_pt(*dst, &new_pt);
                }
            }
            Inst::Store { ptr, depth, src } => {
                let targets = self.targets_at_depth(*ptr, *depth);
                for (o, c) in targets {
                    record_path(&mut self.out.mods, o);
                    let Some(guard) = self.pruner.conjoin(theta, c) else {
                        continue;
                    };
                    if let Obj::Global(g) = o {
                        self.out.kept.global_stores.push(GlobalAccess {
                            global: g,
                            value: *src,
                            cond: guard,
                            site,
                        });
                    }
                    let not_guard = self.pruner.arena.not(guard);
                    // Weaken survivors, dropping refuted ones.
                    let entries = mem_entries(&mut self.mem, self.pruner.arena, o);
                    entries.retain_mut(|(_, vc)| match self.pruner.conjoin(*vc, not_guard) {
                        Some(weak) => {
                            *vc = weak;
                            true
                        }
                        None => false,
                    });
                    entries.push((MemVal::Value(*src, site), guard));
                }
            }
            Inst::Call { .. } => {
                // Receivers of pointer type get a unique external object so
                // later loads/stores through them alias consistently.
                let call = inst.as_call().expect("a call");
                if call.callee.as_intrinsic().is_some() {
                    return;
                }
                for (i, &d) in call.dsts.iter().enumerate() {
                    if self.f.ty(d).is_ptr() {
                        let t = self.pruner.arena.tru();
                        self.set_pt(d, &[(Obj::External(site, i as u32), t)]);
                        self.mem.entry(Obj::External(site, i as u32)).or_default();
                    }
                }
            }
        }
    }
}

/// Inserts `(obj, cond)` into a guarded set, disjoining conditions for an
/// existing object.
fn push_target(set: &mut Vec<Fact>, o: Obj, c: TermId, arena: &mut TermArena) {
    for (eo, ec) in set.iter_mut() {
        if *eo == o {
            *ec = arena.or2(*ec, c);
            return;
        }
    }
    set.push((o, c));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::compile;

    fn analyze(src: &str, name: &str) -> (PassOutput, TermArena, pinpoint_ir::Module) {
        let m = compile(src).unwrap();
        let fid = m.func_by_name(name).unwrap();
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let mut lin = LinearSolver::new();
        let flow = FlowFacts::new(&mut arena, &mut sym, fid, m.func(fid));
        let pta = analyze_function_over(
            &mut arena,
            &mut sym,
            &mut lin,
            fid,
            m.func(fid),
            &[],
            true,
            &flow,
        );
        (pta, arena, m)
    }

    #[test]
    fn store_load_through_alloc() {
        let (pta, arena, m) = analyze(
            "fn f(a: int*) -> int* {
                let p: int** = malloc();
                *p = a;
                let q: int* = *p;
                return q;
            }",
            "f",
        );
        assert_eq!(pta.kept.mem_deps.len(), 1);
        let dep = pta.kept.mem_deps[0];
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.value_name(dep.src), "a");
        assert!(arena.is_true(dep.cond));
    }

    #[test]
    fn conditional_stores_get_guards() {
        let (pta, arena, m) = analyze(
            "fn f(c: bool, a: int*, b: int*) -> int* {
                let p: int** = malloc();
                if (c) { *p = a; } else { *p = b; }
                let q: int* = *p;
                return q;
            }",
            "f",
        );
        assert_eq!(pta.kept.mem_deps.len(), 2, "both stores may reach the load");
        let f = m.func(m.func_by_name("f").unwrap());
        for dep in &pta.kept.mem_deps {
            let name = f.value_name(dep.src);
            assert!(name == "a" || name == "b");
            assert!(!arena.is_true(dep.cond), "guards must be conditional");
        }
    }

    #[test]
    fn same_branch_load_prunes_sibling_store() {
        // Load inside the then-branch must not see the else-branch store:
        // c ∧ ¬c is pruned by the linear solver.
        let (pta, _arena, m) = analyze(
            "fn f(c: bool, a: int*, b: int*) -> int* {
                let p: int** = malloc();
                *p = a;
                if (c) {
                    let q: int* = *p;
                    print(q);
                } else {
                    *p = b;
                }
                return a;
            }",
            "f",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        // The only dep into q is from the unconditional store of a.
        let q_deps: Vec<_> = pta
            .kept
            .mem_deps
            .iter()
            .filter(|d| f.value_name(d.dst) == "ld" || f.value_name(d.dst) == "q")
            .collect();
        assert_eq!(q_deps.len(), 1);
        assert_eq!(f.value_name(q_deps[0].src), "a");
        assert!(
            pta.kept.stats.pruned > 0,
            "the sibling store kill must be pruned"
        );
    }

    #[test]
    fn overwrite_kills_previous_store() {
        let (pta, _arena, m) = analyze(
            "fn f(a: int*, b: int*) -> int* {
                let p: int** = malloc();
                *p = a;
                *p = b;
                let q: int* = *p;
                return q;
            }",
            "f",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        // Only b can reach q: the unconditional second store kills a.
        let deps: Vec<_> = pta.kept.mem_deps.iter().collect();
        assert_eq!(deps.len(), 1, "killed store pruned: {deps:?}");
        assert_eq!(f.value_name(deps[0].src), "b");
    }

    #[test]
    fn param_refs_and_mods_collected() {
        let (pta, _arena, _m) = analyze(
            "fn bar(q: int**) {
                let c: int* = malloc();
                let t: bool = *q != null;
                if (t) { *q = c; free(c); }
                return;
            }",
            "bar",
        );
        assert!(pta.refs.contains(&AccessPath { root: 0, depth: 1 }));
        assert!(pta.mods.contains(&AccessPath { root: 0, depth: 1 }));
    }

    #[test]
    fn read_only_param_not_in_mods() {
        let (pta, _arena, _m) = analyze(
            "fn f(q: int**) -> int* {
                let x: int* = *q;
                return x;
            }",
            "f",
        );
        assert_eq!(pta.refs, vec![AccessPath { root: 0, depth: 1 }]);
        assert!(pta.mods.is_empty());
    }

    #[test]
    fn depth_two_paths_tracked() {
        let (pta, _arena, _m) = analyze(
            "fn f(q: int***) {
                **q = null;
                return;
            }",
            "f",
        );
        // Writing **q modifies *(q,2) and references *(q,1).
        assert!(pta.mods.contains(&AccessPath { root: 0, depth: 2 }));
        assert!(pta.refs.contains(&AccessPath { root: 0, depth: 1 }));
    }

    #[test]
    fn phi_merges_guarded_points_to() {
        let (pta, _arena, m) = analyze(
            "fn f(c: bool) -> int* {
                let p: int* = malloc();
                let q: int* = malloc();
                let r: int* = null;
                if (c) { r = p; } else { r = q; }
                return r;
            }",
            "f",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let ret = f.return_values()[0];
        let pt = pta.pt(ret);
        assert_eq!(pt.len(), 2, "r points to both allocs, guarded: {pt:?}");
    }

    #[test]
    fn globals_recorded() {
        let (pta, _arena, _m) = analyze(
            "global g: int;
             fn f(p: int**) {
                *p = g;
                return;
             }",
            "f",
        );
        // g's address is stored into *p (a param path): a MOD, and no
        // global store (we store the global's address, not into it).
        assert!(pta.mods.contains(&AccessPath { root: 0, depth: 1 }));
        assert!(pta.kept.global_stores.is_empty());
    }

    #[test]
    fn store_into_global_cell_recorded() {
        let (pta, _arena, _m) = analyze(
            "global g: int;
             fn f(x: int) {
                *g = x;
                return;
             }",
            "f",
        );
        assert_eq!(pta.kept.global_stores.len(), 1);
    }

    #[test]
    fn aux_param_binding_extends_chain() {
        // With an aux binding for *(q,1), the aux value points to *(q,2).
        let m = compile(
            "fn f(q: int**, aux: int*) -> int {
                let x: int = *aux;
                return x;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let mut lin = LinearSolver::new();
        let aux = f.params[1];
        let flow = FlowFacts::new(&mut arena, &mut sym, fid, f);
        let pta = analyze_function_over(
            &mut arena,
            &mut sym,
            &mut lin,
            fid,
            f,
            &[AuxParamBinding {
                path: AccessPath { root: 0, depth: 1 },
                value: aux,
            }],
            true,
            &flow,
        );
        let pt = pta.pt(aux);
        assert_eq!(pt.len(), 1);
        assert_eq!(pt[0].0, Obj::Param { root: 0, depth: 2 });
        // Loading *aux references *(q,2).
        assert!(pta.refs.contains(&AccessPath { root: 0, depth: 2 }));
    }

    #[test]
    fn call_receivers_get_external_objects() {
        let (pta, _arena, m) = analyze(
            "fn g() -> int* { return null; }
             fn f() -> int {
                let p: int* = g();
                let x: int = *p;
                return x;
             }",
            "f",
        );
        let f = m.func(m.func_by_name("f").unwrap());
        let recv = f
            .iter_insts()
            .find_map(|(_, i)| i.as_call()?.dsts.first().copied())
            .unwrap();
        assert!(matches!(pta.pt(recv)[0].0, Obj::External(..)));
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use crate::driver::analyze_recording;
    use pinpoint_ir::{compile, Module};
    use pinpoint_workload::fuzzgen::{generate, FuzzGenConfig};

    /// The module pipeline over `m`; every pass checks its dense table
    /// against the keyed reference as it finishes ([`State::finish`]), and
    /// every final pass's table reads alike through `get` and `iter`.
    fn analyze_both_ways(m: &Module) {
        let mut m = m.clone();
        let (_, passes) = analyze_recording(&mut m);
        for (p, f) in passes.iter().zip(&m.funcs) {
            for v in (0..f.values.len() as u32).map(ValueId) {
                let listed = p.points_to.iter().find(|&(k, _)| k == v);
                assert_eq!(p.pt(v), listed.map_or(&[][..], |(_, set)| set));
            }
            assert!(p.pt(ValueId(f.values.len() as u32)).is_empty());
        }
    }

    #[test]
    fn dense_points_to_matches_reference_map_on_corpus() {
        let dir = format!("{}/../../tests/corpus", env!("CARGO_MANIFEST_DIR"));
        let mut files = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "pp") {
                analyze_both_ways(&compile(&std::fs::read_to_string(&path).unwrap()).unwrap());
                files += 1;
            }
        }
        assert!(files >= 20, "corpus not found");
    }

    #[test]
    fn dense_points_to_matches_reference_map_on_fuzzgen_seeds() {
        for seed in 1..=50 {
            let src = generate(&FuzzGenConfig {
                seed,
                recursion: true,
                ..FuzzGenConfig::default()
            });
            analyze_both_ways(&compile(&src).unwrap());
        }
    }

    #[test]
    fn table_reads_are_empty_out_of_range_and_copies_are_independent() {
        let mut t = PointsTo::new(3);
        let t0 = TermId::from_index(0);
        let fact = (Obj::Param { root: 0, depth: 1 }, t0);
        assert!(t.get(ValueId(1)).is_empty() && t.get(ValueId(9)).is_empty());
        t.set(ValueId(1), &[fact]);
        t.copy(ValueId(2), ValueId(1));
        t.copy(ValueId(0), ValueId(0));
        let moved = (fact.0, TermId::from_index(7));
        t.set(ValueId(1), &[moved]);
        let listed: Vec<_> = t.iter().collect();
        assert_eq!(
            listed,
            [(ValueId(1), &[moved][..]), (ValueId(2), &[fact][..])]
        );
        assert!(PointsTo::default().get(ValueId(0)).is_empty());
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;
    use pinpoint_ir::compile;

    fn analyze(src: &str, name: &str) -> PassOutput {
        let m = compile(src).unwrap();
        let fid = m.func_by_name(name).unwrap();
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let mut lin = LinearSolver::new();
        let flow = FlowFacts::new(&mut arena, &mut sym, fid, m.func(fid));
        analyze_function_over(
            &mut arena,
            &mut sym,
            &mut lin,
            fid,
            m.func(fid),
            &[],
            true,
            &flow,
        )
    }

    #[test]
    fn depth_three_paths_tracked() {
        let pta = analyze(
            "fn f(q: int****) {
                let a: int*** = *q;
                let b: int** = *a;
                let c: int* = *b;
                print(c);
                return;
            }",
            "f",
        );
        assert!(pta.refs.contains(&AccessPath { root: 0, depth: 1 }));
        assert!(pta.refs.contains(&AccessPath { root: 0, depth: 2 }));
        assert!(pta.refs.contains(&AccessPath { root: 0, depth: 3 }));
    }

    #[test]
    fn paths_beyond_max_depth_dropped() {
        // MAX_PATH_DEPTH = 3: the depth-4 read is not recorded (soundiness
        // bound) and the analysis terminates cleanly.
        let pta = analyze(
            "fn f(q: int*****) {
                let a: int**** = *q;
                let b: int*** = *a;
                let c: int** = *b;
                let d: int* = *c;
                print(d);
                return;
            }",
            "f",
        );
        assert!(
            !pta.refs.iter().any(|p| p.depth > MAX_PATH_DEPTH),
            "{:?}",
            pta.refs
        );
    }

    #[test]
    fn store_then_load_same_branch_feasible() {
        // Both accesses under the same condition: the conjunction c ∧ c
        // survives the linear solver.
        let pta = analyze(
            "fn f(c: bool, a: int*) -> int* {
                let p: int** = malloc();
                let r: int* = null;
                if (c) {
                    *p = a;
                    r = *p;
                }
                return r;
            }",
            "f",
        );
        assert_eq!(pta.kept.mem_deps.len(), 1);
    }
}
