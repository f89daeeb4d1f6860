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

use pinpoint_ir::{
    intrinsics, Cfg, ControlDeps, DomTree, FuncId, Function, Gating, Inst, InstId, Module,
    PostDomTree, Terminator, ValueId,
};
use pinpoint_pta::{FuncPta, Symbols};
use pinpoint_smt::{TermArena, TermId, TermTranslator};
use std::collections::{BTreeMap, HashMap};

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

/// An actual-argument occurrence of a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgUse {
    /// The call instruction.
    pub site: InstId,
    /// Callee name.
    pub callee: String,
    /// Zero-based argument position.
    pub index: usize,
}

/// A call-receiver definition of a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvDef {
    /// The call instruction.
    pub site: InstId,
    /// Callee name.
    pub callee: String,
    /// Zero-based return position.
    pub index: usize,
}

/// The symbolic expression graph of one function.
#[derive(Debug, Default, Clone)]
pub struct Seg {
    /// Outgoing data edges per source vertex.
    pub out_edges: HashMap<ValueId, Vec<SegEdge>>,
    /// Incoming data edges per destination vertex.
    pub in_edges: HashMap<ValueId, Vec<SegEdge>>,
    /// Immediate control dependences per block: `(branch value, polarity)`.
    pub control_deps: Vec<Vec<(ValueId, bool)>>,
    /// Values used as actual arguments of user-function calls.
    pub arg_uses: HashMap<ValueId, Vec<ArgUse>>,
    /// Values defined as call receivers.
    pub receivers: HashMap<ValueId, RecvDef>,
    /// Return positions: value → index in the return tuple.
    pub ret_index: HashMap<ValueId, usize>,
    /// Call sites: instruction → (callee name, args, receivers).
    pub call_sites: HashMap<InstId, (String, Vec<ValueId>, Vec<ValueId>)>,
    /// Number of data edges (for the scalability accounting).
    pub edge_count: usize,
}

impl Seg {
    /// Builds the SEG of `f` from its points-to result.
    pub fn build(
        arena: &mut TermArena,
        symbols: &mut Symbols,
        fid: FuncId,
        f: &Function,
        pta: &FuncPta,
    ) -> Self {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let gating = Gating::new(f, &cfg, &dom);
        let pdt = PostDomTree::new(f, &cfg);
        let cds = ControlDeps::new(f, &cfg, &pdt);
        let mut seg = Seg {
            control_deps: (0..f.blocks.len())
                .map(|b| {
                    cds.deps(pinpoint_ir::BlockId(b as u32))
                        .iter()
                        .map(|d| (d.cond, d.polarity))
                        .collect()
                })
                .collect(),
            ..Seg::default()
        };
        let tru = arena.tru();
        for (site, inst) in f.iter_insts() {
            match inst {
                Inst::Copy { dst, src } => {
                    seg.add_edge(SegEdge {
                        src: *src,
                        dst: *dst,
                        cond: tru,
                        kind: EdgeKind::Direct,
                    });
                }
                Inst::Phi { dst, incomings } => {
                    for &(pred, v) in incomings {
                        let gate = gating.gate(site.block, pred);
                        let g = symbols.gate_term(arena, fid, f, &gate);
                        seg.add_edge(SegEdge {
                            src: v,
                            dst: *dst,
                            cond: g,
                            kind: EdgeKind::Direct,
                        });
                    }
                }
                Inst::Bin { dst, lhs, rhs, .. } => {
                    for src in [lhs, rhs] {
                        seg.add_edge(SegEdge {
                            src: *src,
                            dst: *dst,
                            cond: tru,
                            kind: EdgeKind::Transform,
                        });
                    }
                }
                Inst::Un { dst, operand, .. } => {
                    seg.add_edge(SegEdge {
                        src: *operand,
                        dst: *dst,
                        cond: tru,
                        kind: EdgeKind::Transform,
                    });
                }
                Inst::Call { dsts, callee, args } => {
                    if intrinsics::is_intrinsic(callee) {
                        continue;
                    }
                    for (i, &a) in args.iter().enumerate() {
                        seg.arg_uses.entry(a).or_default().push(ArgUse {
                            site,
                            callee: callee.clone(),
                            index: i,
                        });
                    }
                    for (i, &d) in dsts.iter().enumerate() {
                        seg.receivers.insert(
                            d,
                            RecvDef {
                                site,
                                callee: callee.clone(),
                                index: i,
                            },
                        );
                    }
                    seg.call_sites
                        .insert(site, (callee.clone(), args.clone(), dsts.clone()));
                }
                _ => {}
            }
        }
        // Memory dependences from the points-to analysis.
        for dep in &pta.mem_deps {
            seg.add_edge(SegEdge {
                src: dep.src,
                dst: dep.dst,
                cond: dep.cond,
                kind: EdgeKind::Memory,
            });
        }
        // Return positions.
        if let Some(rb) = f.return_block() {
            if let Terminator::Return(vals) = &f.block(rb).term {
                for (i, &v) in vals.iter().enumerate() {
                    seg.ret_index.insert(v, i);
                }
            }
        }
        seg
    }

    fn add_edge(&mut self, e: SegEdge) {
        self.out_edges.entry(e.src).or_default().push(e);
        self.in_edges.entry(e.dst).or_default().push(e);
        self.edge_count += 1;
    }

    /// Returns a copy of this SEG with every memory edge removed.
    ///
    /// This is the *persisted* form: memory-edge conditions are
    /// [`TermId`]s into the run's shared arena (they arrive pre-merged
    /// from the points-to stage and are never rebuilt during SEG
    /// construction), so they cannot survive a round-trip through a
    /// private arena. [`Seg::readd_memory_edges`] restores them from the
    /// current run's merged points-to result — [`Seg::build`] appends
    /// memory edges after all locally-derived edges, so re-adding them
    /// last reproduces the cold build's exact per-vertex edge order.
    pub fn without_memory_edges(&self) -> Seg {
        let mut out = self.clone();
        let mut removed = 0usize;
        for edges in [&mut out.out_edges, &mut out.in_edges] {
            for v in edges.values_mut() {
                v.retain(|e| e.kind != EdgeKind::Memory);
            }
            edges.retain(|_, v| !v.is_empty());
        }
        for v in self.out_edges.values() {
            removed += v.iter().filter(|e| e.kind == EdgeKind::Memory).count();
        }
        out.edge_count = self.edge_count - removed;
        out
    }

    /// Re-adds the memory edges of `pta` (see
    /// [`Seg::without_memory_edges`]).
    pub fn readd_memory_edges(&mut self, pta: &FuncPta) {
        for dep in &pta.mem_deps {
            self.add_edge(SegEdge {
                src: dep.src,
                dst: dep.dst,
                cond: dep.cond,
                kind: EdgeKind::Memory,
            });
        }
    }

    /// Outgoing edges of `v`.
    pub fn succs(&self, v: ValueId) -> &[SegEdge] {
        self.out_edges.get(&v).map_or(&[], Vec::as_slice)
    }

    /// Incoming edges of `v`.
    pub fn preds(&self, v: ValueId) -> &[SegEdge] {
        self.in_edges.get(&v).map_or(&[], Vec::as_slice)
    }
}

/// One worker's SEG construction output, in a private arena until the
/// deterministic merge.
struct SegResult {
    seg: Seg,
    arena: TermArena,
    /// Sorted values the private interner cached: the merge re-derives
    /// their terms against the shared arena in this order.
    cached_values: Vec<ValueId>,
}

/// Builds one function's SEG in a fresh private arena/interner, so the
/// result is bit-identical no matter which worker runs it.
fn build_one(fid: FuncId, f: &Function, pta: &FuncPta) -> SegResult {
    let mut arena = TermArena::new();
    let mut symbols = Symbols::new();
    let seg = Seg::build(&mut arena, &mut symbols, fid, f, pta);
    SegResult {
        seg,
        arena,
        cached_values: symbols.cached_values(fid),
    }
}

/// A function's persisted SEG: the graph with memory edges stripped
/// (their conditions live in the run's shared arena and are re-derived
/// at load — see [`Seg::without_memory_edges`]), the private arena its
/// remaining conditions index, and the interner's cached values for
/// deterministic symbol re-derivation at merge.
#[derive(Debug, Clone)]
pub struct SegArtifact {
    /// The memory-edge-stripped graph.
    pub seg: Seg,
    /// Private arena holding the non-memory edge conditions.
    pub arena: TermArena,
    /// Sorted values whose terms the merge re-derives, in order.
    pub cached_values: Vec<ValueId>,
}

/// Where [`ModuleSeg::build_par`] loads and stores per-function
/// SEG artifacts; the same contract as
/// [`pinpoint_pta::ArtifactStore`] — keys are fully identifying and
/// store failures must degrade silently.
pub trait SegStore {
    /// Fetches the artifact stored under `key`, if any.
    fn load(&mut self, key: u128) -> Option<SegArtifact>;
    /// Persists `artifact` under `key`.
    fn store(&mut self, key: u128, artifact: &SegArtifact);
}

/// The SEGs of a whole module plus the module-level indexes the global
/// analysis needs.
#[derive(Debug, Default)]
pub struct ModuleSeg {
    /// Per-function SEG, indexed by `FuncId`.
    pub segs: Vec<Seg>,
    /// Call sites of each function: callee `FuncId` → `(caller, site)`.
    pub callers: HashMap<FuncId, Vec<(FuncId, InstId)>>,
    /// Cross-function global-cell flows: for each global, the stores into
    /// it and the loads out of it. Ordered maps: the detection search
    /// iterates them whole, so their order feeds DFS exploration order
    /// and must not depend on per-process hash seeds.
    pub global_stores: BTreeMap<pinpoint_ir::GlobalId, Vec<(FuncId, ValueId, TermId)>>,
    /// Loads out of global cells.
    pub global_loads: BTreeMap<pinpoint_ir::GlobalId, Vec<(FuncId, ValueId, TermId)>>,
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
    /// Builds every function's SEG.
    pub fn build(
        module: &Module,
        arena: &mut TermArena,
        symbols: &mut Symbols,
        pta: &[FuncPta],
    ) -> Self {
        Self::build_reusing(module, arena, symbols, pta, None)
    }

    /// Builds SEGs, splicing unchanged functions' graphs from a previous
    /// build. `reuse` provides the old graphs plus the set of function ids
    /// that must be rebuilt; module-level indexes are recomputed from the
    /// merged set (cheap relative to graph construction).
    pub fn build_reusing(
        module: &Module,
        arena: &mut TermArena,
        symbols: &mut Symbols,
        pta: &[FuncPta],
        reuse: Option<(ModuleSeg, &std::collections::HashSet<FuncId>)>,
    ) -> Self {
        let mut old_segs: Vec<Option<Seg>> = match reuse {
            Some((old, dirty)) => old
                .segs
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    if dirty.contains(&FuncId(i as u32)) {
                        None
                    } else {
                        Some(s)
                    }
                })
                .collect(),
            None => Vec::new(),
        };
        old_segs.resize_with(module.funcs.len(), || None);
        let mut segs = Vec::with_capacity(module.funcs.len());
        for (fid, f) in module.iter_funcs() {
            let seg = match old_segs[fid.0 as usize].take() {
                Some(seg) => seg,
                None => Seg::build(arena, symbols, fid, f, &pta[fid.0 as usize]),
            };
            segs.push(seg);
        }
        Self::assemble(module, segs, pta)
    }

    /// Builds every function's SEG with `threads` workers, optionally
    /// against a persistent artifact `store`.
    ///
    /// Per-function SEG construction is embarrassingly parallel: each
    /// worker ([`pinpoint_obs::TraceBuf::shard_map`], one `seg.func` span
    /// per function) lowers its functions' gating conditions into a
    /// *fresh* private arena and symbol interner, so results are
    /// bit-identical regardless of sharding. The merge walks functions in
    /// id order, re-derives the symbol cache against the shared arena and
    /// rebuilds each locally-created edge condition through the
    /// translator's smart constructors. Memory-edge conditions already
    /// live in the shared arena (they come from the merged points-to
    /// result and are never dereferenced during construction), so they
    /// pass through untouched.
    ///
    /// With a store, `keys[fid]` is the same content key the points-to
    /// stage used (the persisted SEG depends only on the transformed
    /// body, which that key covers). A hit splices the stored graph: its
    /// locally-derived edge conditions are translated from the persisted
    /// private arena exactly as a fresh result's are, and its memory
    /// edges are re-derived from the *current* merged points-to result —
    /// which for a clean function is identical to the cold run's. A miss
    /// is built as above and its (memory-edge-stripped) artifact written
    /// back. The result is byte-identical to a storeless run, which
    /// never materialises a [`SegArtifact`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_par(
        module: &Module,
        arena: &mut TermArena,
        symbols: &mut Symbols,
        pta: &[FuncPta],
        threads: usize,
        trace: &mut pinpoint_obs::TraceBuf,
        mut store: Option<(&[u128], &mut dyn SegStore)>,
    ) -> Self {
        if let Some((keys, _)) = &store {
            assert_eq!(keys.len(), module.funcs.len(), "one cache key per function");
        }
        let mut loaded: HashMap<FuncId, SegArtifact> = HashMap::new();
        let mut work: Vec<(FuncId, &Function)> = Vec::new();
        for (fid, f) in module.iter_funcs() {
            let hit = store
                .as_mut()
                .and_then(|(keys, st)| st.load(keys[fid.0 as usize]));
            match hit {
                Some(art) => {
                    loaded.insert(fid, art);
                }
                None => work.push((fid, f)),
            }
        }
        let mut fresh = trace
            .shard_map(
                &mut work,
                threads,
                || (),
                |(), &mut (fid, f), lane| {
                    lane.span("seg.func", f.name.clone(), |_| {
                        build_one(fid, f, &pta[fid.0 as usize])
                    })
                },
            )
            .into_iter();

        let mut segs: Vec<Seg> = Vec::with_capacity(module.funcs.len());
        for (fid, f) in module.iter_funcs() {
            // A loaded graph arrives without its memory edges.
            let (mut seg, src_arena, cached_values, stripped) = match loaded.remove(&fid) {
                Some(art) => (art.seg, art.arena, art.cached_values, true),
                None => {
                    let mut r = fresh.next().expect("function loaded or built");
                    if let Some((keys, st)) = store.as_mut() {
                        // Arena and values move through the artifact and
                        // back: the store only borrows them.
                        let art = SegArtifact {
                            seg: r.seg.without_memory_edges(),
                            arena: r.arena,
                            cached_values: r.cached_values,
                        };
                        st.store(keys[fid.0 as usize], &art);
                        (r.arena, r.cached_values) = (art.arena, art.cached_values);
                    }
                    (r.seg, r.arena, r.cached_values, false)
                }
            };
            // Merge into the shared arena: re-derive the symbol cache
            // (sorted value order), then rebuild every locally-created
            // edge condition over sorted vertex keys.
            for &v in &cached_values {
                symbols.value_term(arena, fid, f, v);
            }
            let mut tr = TermTranslator::new();
            for edges in [&mut seg.out_edges, &mut seg.in_edges] {
                let mut keys: Vec<ValueId> = edges.keys().copied().collect();
                keys.sort_unstable();
                for k in keys {
                    for e in edges.get_mut(&k).expect("key just listed") {
                        if e.kind != EdgeKind::Memory {
                            e.cond = tr.translate(&src_arena, arena, e.cond);
                        }
                    }
                }
            }
            if stripped {
                seg.readd_memory_edges(&pta[fid.0 as usize]);
            }
            segs.push(seg);
        }
        Self::assemble(module, segs, pta)
    }

    /// Computes the module-level indexes (callers, global channels,
    /// vertex/edge totals) over finished per-function graphs.
    fn assemble(module: &Module, segs: Vec<Seg>, pta: &[FuncPta]) -> Self {
        let mut callers: HashMap<FuncId, Vec<(FuncId, InstId)>> = HashMap::new();
        let mut global_stores: BTreeMap<pinpoint_ir::GlobalId, Vec<(FuncId, ValueId, TermId)>> =
            BTreeMap::new();
        let mut global_loads: BTreeMap<pinpoint_ir::GlobalId, Vec<(FuncId, ValueId, TermId)>> =
            BTreeMap::new();
        for (fid, _) in module.iter_funcs() {
            let seg = &segs[fid.0 as usize];
            // `call_sites` is a HashMap, so its iteration order is not
            // deterministic; the per-callee lists are sorted below so the
            // detection search (and every fingerprint hashed over them)
            // sees one canonical order.
            for (site, (callee, _, _)) in &seg.call_sites {
                if let Some(target) = module.func_by_name(callee) {
                    callers.entry(target).or_default().push((fid, *site));
                }
            }
            for ga in &pta[fid.0 as usize].global_stores {
                global_stores
                    .entry(ga.global)
                    .or_default()
                    .push((fid, ga.value, ga.cond));
            }
            for ga in &pta[fid.0 as usize].global_loads {
                global_loads
                    .entry(ga.global)
                    .or_default()
                    .push((fid, ga.value, ga.cond));
            }
        }
        for v in callers.values_mut() {
            v.sort_unstable();
        }
        let global_store_values = pta
            .iter()
            .map(|p| {
                let mut vs: Vec<ValueId> = p.global_stores.iter().map(|ga| ga.value).collect();
                vs.sort_unstable();
                vs.dedup();
                vs
            })
            .collect();
        let vertex_count = segs
            .iter()
            .map(|s| {
                let mut vs: Vec<ValueId> = s
                    .out_edges
                    .keys()
                    .chain(s.in_edges.keys())
                    .copied()
                    .collect();
                vs.sort_unstable();
                vs.dedup();
                vs.len()
            })
            .sum();
        let edge_count = segs.iter().map(|s| s.edge_count).sum();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::compile;
    use pinpoint_pta::analyze_module;

    fn build(src: &str) -> (pinpoint_ir::Module, pinpoint_pta::ModuleAnalysis, ModuleSeg) {
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
        let mem_edges: usize = seg
            .out_edges
            .values()
            .flatten()
            .filter(|e| e.kind == EdgeKind::Memory)
            .count();
        assert_eq!(mem_edges, 1);
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
        assert_eq!(seg.arg_uses[&a].len(), 1);
        assert_eq!(seg.arg_uses[&a][0].callee, "g");
        assert_eq!(seg.receivers.len(), 1);
        let gid = m.func_by_name("g").unwrap();
        assert_eq!(ms.callers[&gid].len(), 1);
        // Return index of g's returned param.
        let g = m.func(gid);
        let seg_g = ms.seg(gid);
        assert_eq!(seg_g.ret_index[&g.return_values()[0]], 0);
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
        assert_eq!(seg.control_deps[free_block.0 as usize].len(), 1);
        let (cv, pol) = seg.control_deps[free_block.0 as usize][0];
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
        /// An in-memory [`SegStore`] counting its traffic.
        #[derive(Default)]
        struct MemStore {
            map: HashMap<u128, SegArtifact>,
            hits: usize,
            stores: usize,
        }
        impl SegStore for MemStore {
            fn load(&mut self, key: u128) -> Option<SegArtifact> {
                let hit = self.map.get(&key).cloned();
                self.hits += usize::from(hit.is_some());
                hit
            }
            fn store(&mut self, key: u128, artifact: &SegArtifact) {
                self.stores += 1;
                self.map.insert(key, artifact.clone());
            }
        }
        // Arena/interner sizes plus every function's edges in sorted
        // vertex order: equal renderings mean identical `TermId`s.
        let build = |t: usize, store: Option<&mut MemStore>| {
            let mut m = compile(src).unwrap();
            let mut trace = pinpoint_obs::TraceBuf::off();
            let cg = pinpoint_ir::CallGraph::new(&m);
            let keys: Vec<u128> = (1..=m.funcs.len() as u128).collect();
            let mut a = pinpoint_pta::analyze_module_par(
                &mut m,
                &pinpoint_pta::PtaConfig::default(),
                t,
                &mut trace,
                &cg,
                None,
            );
            let ms = ModuleSeg::build_par(
                &m,
                &mut a.arena,
                &mut a.symbols,
                &a.pta,
                t,
                &mut trace,
                store.map(|s| (keys.as_slice(), s as &mut dyn SegStore)),
            );
            let mut out = format!(
                "terms={} symbols={} edges={} vertices={}\n",
                a.arena.len(),
                a.symbols.len(),
                ms.edge_count,
                ms.vertex_count
            );
            for (fid, _) in m.iter_funcs() {
                for edges in [&ms.seg(fid).out_edges, &ms.seg(fid).in_edges] {
                    let mut sorted: Vec<_> = edges.iter().collect();
                    sorted.sort_by_key(|(v, _)| **v);
                    out.push_str(&format!("{sorted:?}\n"));
                }
            }
            out
        };
        let storeless = build(1, None);
        for t in [3usize, 8] {
            assert_eq!(build(t, None), storeless, "threads={t}");
        }
        for t in [1usize, 4] {
            let mut store = MemStore::default();
            let cold = build(t, Some(&mut store));
            assert_eq!((store.hits, store.stores), (0, 3), "threads={t}");
            let warm = build(t, Some(&mut store));
            assert_eq!((store.hits, store.stores), (3, 3), "threads={t}");
            assert_eq!(cold, storeless, "cold-with-store, threads={t}");
            assert_eq!(warm, storeless, "warm-from-store, threads={t}");
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
}
