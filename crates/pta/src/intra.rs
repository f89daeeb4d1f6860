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

use crate::object::{AccessPath, Obj, MAX_PATH_DEPTH};
use crate::reach::ReachConds;
use crate::symbols::Symbols;
use pinpoint_ir::{
    intrinsics, Cfg, DomTree, FuncId, Function, Gating, GlobalId, Inst, InstId, ValueId,
};
use pinpoint_smt::{LinearSolver, LinearVerdict, TermArena, TermId};
use std::collections::HashMap;

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
#[derive(Debug, Default, Clone, Copy)]
pub struct PtaStats {
    /// Dependence/points-to facts pruned by the linear solver.
    pub pruned: u64,
    /// Facts kept.
    pub kept: u64,
    /// Linear-solver calls.
    pub linear_checks: u64,
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

/// Result of analysing one function.
#[derive(Debug, Default, Clone)]
pub struct FuncPta {
    /// Conditional memory def-use edges.
    pub mem_deps: Vec<MemDep>,
    /// Final guarded points-to sets.
    pub points_to: HashMap<ValueId, Vec<(Obj, TermId)>>,
    /// Referenced parameter-rooted access paths (Mod/Ref "REF").
    pub refs: Vec<AccessPath>,
    /// Modified parameter-rooted access paths (Mod/Ref "MOD").
    pub mods: Vec<AccessPath>,
    /// Stores into global cells.
    pub global_stores: Vec<GlobalAccess>,
    /// Loads out of global cells.
    pub global_loads: Vec<GlobalAccess>,
    /// Prune statistics.
    pub stats: PtaStats,
}

impl FuncPta {
    /// Guarded points-to set of `v` (empty slice when untracked).
    pub fn pt(&self, v: ValueId) -> &[(Obj, TermId)] {
        self.points_to.get(&v).map_or(&[], Vec::as_slice)
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

/// Runs the quasi path-sensitive points-to analysis over `f`.
///
/// `aux_params` communicates the Fig. 3 connectors inserted by the
/// transformation pass: each Aux formal parameter for path `*(p, k)`
/// points (if pointer-typed) to the pseudo object `*(p, k+1)`.
pub fn analyze_function(
    arena: &mut TermArena,
    symbols: &mut Symbols,
    linear: &mut LinearSolver,
    fid: FuncId,
    f: &Function,
    aux_params: &[AuxParamBinding],
) -> FuncPta {
    analyze_function_with(arena, symbols, linear, fid, f, aux_params, true)
}

/// Like [`analyze_function`], with the linear-time pruning switchable —
/// `prune = false` is the "no quasi path sensitivity" ablation: every
/// guarded fact is kept regardless of apparent contradictions.
#[allow(clippy::too_many_arguments)]
pub fn analyze_function_with(
    arena: &mut TermArena,
    symbols: &mut Symbols,
    linear: &mut LinearSolver,
    fid: FuncId,
    f: &Function,
    aux_params: &[AuxParamBinding],
    prune: bool,
) -> FuncPta {
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(f, &cfg);
    let gating = Gating::new(f, &cfg, &dom);
    let reach = ReachConds::new(arena, symbols, fid, f, &cfg);
    let mut st = State {
        arena,
        symbols,
        linear,
        fid,
        f,
        prune,
        pt: HashMap::new(),
        mem: HashMap::new(),
        out: FuncPta::default(),
    };
    // Parameter pseudo-chains: every pointer-typed original parameter
    // points to its depth-1 pseudo object; Aux formals point one past
    // their path.
    let aux_values: Vec<ValueId> = aux_params.iter().map(|b| b.value).collect();
    for (i, &p) in f.params.iter().enumerate() {
        if aux_values.contains(&p) {
            continue;
        }
        if f.ty(p).is_ptr() {
            let t = st.arena.tru();
            st.pt.insert(
                p,
                vec![(
                    Obj::Param {
                        root: i as u32,
                        depth: 1,
                    },
                    t,
                )],
            );
        }
    }
    for b in aux_params {
        if f.ty(b.value).is_ptr() && b.path.depth < MAX_PATH_DEPTH {
            let t = st.arena.tru();
            st.pt.insert(
                b.value,
                vec![(
                    Obj::Param {
                        root: b.path.root,
                        depth: b.path.depth + 1,
                    },
                    t,
                )],
            );
        }
    }
    // Single pass in topological order.
    for b in cfg.topo_order(f.entry()) {
        let theta = reach.cond(b);
        for (idx, inst) in f.block(b).insts.iter().enumerate() {
            let site = InstId {
                block: b,
                index: idx as u32,
            };
            st.step(site, inst, theta, &gating);
        }
    }
    let mut out = st.finish();
    out.refs.sort_unstable();
    out.refs.dedup();
    out.mods.sort_unstable();
    out.mods.dedup();
    out
}

struct State<'a> {
    arena: &'a mut TermArena,
    symbols: &'a mut Symbols,
    linear: &'a mut LinearSolver,
    fid: FuncId,
    f: &'a Function,
    prune: bool,
    /// Guarded points-to sets of SSA values.
    pt: HashMap<ValueId, Vec<(Obj, TermId)>>,
    /// Guarded memory contents.
    mem: HashMap<Obj, Vec<(MemVal, TermId)>>,
    out: FuncPta,
}

impl<'a> State<'a> {
    fn finish(mut self) -> FuncPta {
        self.out.points_to = self.pt;
        self.out
    }

    /// Guarded conjunction with on-the-spot pruning; `None` when the
    /// linear solver refutes the conjunction.
    fn conjoin(&mut self, a: TermId, b: TermId) -> Option<TermId> {
        let c = self.arena.and2(a, b);
        if !self.prune {
            if self.arena.is_false(c) {
                return None; // structurally false facts are never useful
            }
            self.out.stats.kept += 1;
            return Some(c);
        }
        self.out.stats.linear_checks += 1;
        match self.linear.check(self.arena, c) {
            LinearVerdict::Unsat => {
                self.out.stats.pruned += 1;
                None
            }
            LinearVerdict::Unknown => {
                self.out.stats.kept += 1;
                Some(c)
            }
        }
    }

    /// Quasi path-sensitive feasibility probe: `true` unless the linear
    /// solver refutes `a ∧ b`. Unlike [`State::conjoin`] the conjunction is
    /// only tested, not returned — used to prune a dependence against the
    /// consuming statement's reach condition without baking that condition
    /// into the edge label (the SEG adds control dependence separately).
    fn feasible(&mut self, a: TermId, b: TermId) -> bool {
        if !self.prune {
            return true;
        }
        let c = self.arena.and2(a, b);
        self.out.stats.linear_checks += 1;
        match self.linear.check(self.arena, c) {
            LinearVerdict::Unsat => {
                self.out.stats.pruned += 1;
                false
            }
            LinearVerdict::Unknown => true,
        }
    }

    fn pt_of(&self, v: ValueId) -> Vec<(Obj, TermId)> {
        self.pt.get(&v).cloned().unwrap_or_default()
    }

    /// Initial memory contents of a pseudo-object chain (lazy).
    fn mem_entries(&mut self, o: Obj) -> Vec<(MemVal, TermId)> {
        if let Some(e) = self.mem.get(&o) {
            return e.clone();
        }
        let init = match o {
            Obj::Param { depth, .. } if depth < MAX_PATH_DEPTH => {
                let next = o.next_in_chain().expect("param chains extend");
                let t = self.arena.tru();
                vec![(MemVal::InitialPtr(next), t)]
            }
            _ => Vec::new(),
        };
        self.mem.insert(o, init.clone());
        init
    }

    /// Objects targeted by dereferencing `ptr` exactly `depth` times,
    /// recording REF paths for intermediate reads.
    ///
    /// Depth 1 returns `pt(ptr)`. Depth k > 1 reads the contents of the
    /// depth-(k−1) targets and resolves them to objects.
    fn targets_at_depth(
        &mut self,
        ptr: ValueId,
        depth: u32,
        record_ref: bool,
    ) -> Vec<(Obj, TermId)> {
        let mut cur = self.pt_of(ptr);
        for _level in 1..depth {
            let mut next: Vec<(Obj, TermId)> = Vec::new();
            for (o, c) in cur {
                if record_ref {
                    self.record_ref(o);
                }
                for (val, vc) in self.mem_entries(o) {
                    let Some(cc) = self.conjoin(c, vc) else {
                        continue;
                    };
                    match val {
                        MemVal::InitialPtr(o2) => push_target(&mut next, o2, cc, self.arena),
                        MemVal::Value(v, _) => {
                            for (o2, c2) in self.pt_of(v) {
                                if let Some(c3) = self.conjoin(cc, c2) {
                                    push_target(&mut next, o2, c3, self.arena);
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

    fn record_ref(&mut self, o: Obj) {
        if let Obj::Param { root, depth } = o {
            if depth <= MAX_PATH_DEPTH {
                self.out.refs.push(AccessPath { root, depth });
            }
        }
    }

    fn record_mod(&mut self, o: Obj) {
        if let Obj::Param { root, depth } = o {
            if depth <= MAX_PATH_DEPTH {
                self.out.mods.push(AccessPath { root, depth });
            }
        }
    }

    fn step(&mut self, site: InstId, inst: &Inst, theta: TermId, gating: &Gating) {
        match inst {
            Inst::Const { .. } => {}
            Inst::Copy { dst, src } => {
                let p = self.pt_of(*src);
                if !p.is_empty() {
                    self.pt.insert(*dst, p);
                }
            }
            Inst::Phi { dst, incomings } => {
                let mut set: Vec<(Obj, TermId)> = Vec::new();
                for &(pred, v) in incomings {
                    let gate = gating.gate(site.block, pred);
                    let g = self.symbols.gate_term(self.arena, self.fid, self.f, &gate);
                    for (o, c) in self.pt_of(v) {
                        if let Some(cc) = self.conjoin(g, c) {
                            push_target(&mut set, o, cc, self.arena);
                        }
                    }
                }
                if !set.is_empty() {
                    self.pt.insert(*dst, set);
                }
            }
            Inst::Bin { .. } | Inst::Un { .. } => {}
            Inst::Alloc { dst } => {
                let t = self.arena.tru();
                self.pt.insert(*dst, vec![(Obj::Alloc(site), t)]);
                self.mem.entry(Obj::Alloc(site)).or_default();
            }
            Inst::GlobalAddr { dst, global } => {
                let t = self.arena.tru();
                self.pt.insert(*dst, vec![(Obj::Global(*global), t)]);
                self.mem.entry(Obj::Global(*global)).or_default();
            }
            Inst::Load { dst, ptr, depth } => {
                let targets = self.targets_at_depth(*ptr, *depth, true);
                let mut new_pt: Vec<(Obj, TermId)> = Vec::new();
                for (o, c) in targets {
                    self.record_ref(o);
                    if let Obj::Global(g) = o {
                        self.out.global_loads.push(GlobalAccess {
                            global: g,
                            value: *dst,
                            cond: c,
                            site,
                        });
                    }
                    for (val, vc) in self.mem_entries(o) {
                        let Some(cc) = self.conjoin(c, vc) else {
                            continue;
                        };
                        if !self.feasible(theta, cc) {
                            continue; // infeasible on every path to this load
                        }
                        match val {
                            MemVal::Value(v, store_site) => {
                                self.out.mem_deps.push(MemDep {
                                    store_site,
                                    src: v,
                                    load_site: site,
                                    dst: *dst,
                                    cond: cc,
                                });
                                for (o2, c2) in self.pt_of(v) {
                                    if let Some(c3) = self.conjoin(cc, c2) {
                                        push_target(&mut new_pt, o2, c3, self.arena);
                                    }
                                }
                            }
                            MemVal::InitialPtr(o2) => {
                                push_target(&mut new_pt, o2, cc, self.arena);
                            }
                        }
                    }
                }
                if !new_pt.is_empty() {
                    self.pt.insert(*dst, new_pt);
                }
            }
            Inst::Store { ptr, depth, src } => {
                let targets = self.targets_at_depth(*ptr, *depth, true);
                for (o, c) in targets {
                    self.record_mod(o);
                    let Some(guard) = self.conjoin(theta, c) else {
                        continue;
                    };
                    if let Obj::Global(g) = o {
                        self.out.global_stores.push(GlobalAccess {
                            global: g,
                            value: *src,
                            cond: guard,
                            site,
                        });
                    }
                    let not_guard = self.arena.not(guard);
                    let mut entries = self.mem_entries(o);
                    // Weaken survivors, dropping refuted ones.
                    let mut kept: Vec<(MemVal, TermId)> = Vec::new();
                    for (val, vc) in entries.drain(..) {
                        if let Some(weak) = self.conjoin(vc, not_guard) {
                            kept.push((val, weak));
                        }
                    }
                    kept.push((MemVal::Value(*src, site), guard));
                    self.mem.insert(o, kept);
                }
            }
            Inst::Call { dsts, callee, .. } => {
                // Receivers of pointer type get a unique external object so
                // later loads/stores through them alias consistently.
                if intrinsics::is_intrinsic(callee) {
                    return;
                }
                for (i, &d) in dsts.iter().enumerate() {
                    if self.f.ty(d).is_ptr() {
                        let t = self.arena.tru();
                        self.pt.insert(d, vec![(Obj::External(site, i as u32), t)]);
                        self.mem.entry(Obj::External(site, i as u32)).or_default();
                    }
                }
            }
        }
    }
}

/// Inserts `(obj, cond)` into a guarded set, disjoining conditions for an
/// existing object.
fn push_target(set: &mut Vec<(Obj, TermId)>, o: Obj, c: TermId, arena: &mut TermArena) {
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

    fn analyze(src: &str, name: &str) -> (FuncPta, TermArena, pinpoint_ir::Module) {
        let m = compile(src).unwrap();
        let fid = m.func_by_name(name).unwrap();
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let mut lin = LinearSolver::new();
        let pta = analyze_function(&mut arena, &mut sym, &mut lin, fid, m.func(fid), &[]);
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
        assert_eq!(pta.mem_deps.len(), 1);
        let dep = pta.mem_deps[0];
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.value(dep.src).name, "a");
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
        assert_eq!(pta.mem_deps.len(), 2, "both stores may reach the load");
        let f = m.func(m.func_by_name("f").unwrap());
        for dep in &pta.mem_deps {
            let name = &f.value(dep.src).name;
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
            .mem_deps
            .iter()
            .filter(|d| f.value(d.dst).name == "ld" || f.value(d.dst).name == "q")
            .collect();
        assert_eq!(q_deps.len(), 1);
        assert_eq!(f.value(q_deps[0].src).name, "a");
        assert!(
            pta.stats.pruned > 0,
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
        let deps: Vec<_> = pta.mem_deps.iter().collect();
        assert_eq!(deps.len(), 1, "killed store pruned: {deps:?}");
        assert_eq!(f.value(deps[0].src).name, "b");
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
        assert!(pta.global_stores.is_empty());
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
        assert_eq!(pta.global_stores.len(), 1);
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
        let pta = analyze_function(
            &mut arena,
            &mut sym,
            &mut lin,
            fid,
            f,
            &[AuxParamBinding {
                path: AccessPath { root: 0, depth: 1 },
                value: aux,
            }],
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
            .find_map(|(_, i)| match i {
                Inst::Call { dsts, .. } => dsts.first().copied(),
                _ => None,
            })
            .unwrap();
        assert!(matches!(pta.pt(recv)[0].0, Obj::External(..)));
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;
    use pinpoint_ir::compile;

    fn analyze(src: &str, name: &str) -> FuncPta {
        let m = compile(src).unwrap();
        let fid = m.func_by_name(name).unwrap();
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let mut lin = LinearSolver::new();
        analyze_function(&mut arena, &mut sym, &mut lin, fid, m.func(fid), &[])
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
        assert_eq!(pta.mem_deps.len(), 1);
    }
}
