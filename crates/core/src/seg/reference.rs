//! The keyed-map SEG builder the dense tables of [`super`] replaced,
//! kept as the oracle the tests compare them against: per-vertex `Vec`s
//! in `HashMap`s, callees resolved per read, indexes derived by
//! collect-and-sort.
#![allow(clippy::disallowed_types)]

use super::{EdgeKind, ModuleSeg, Seg, SegEdge};
use pinpoint_ir::{
    BlockId, CallGraph, Callee, Cfg, ControlDeps, DomTree, FuncId, Function, Gating, Inst, InstId,
    Module, PostDomTree, Terminator, ValueId,
};
use pinpoint_pta::{FuncPta, Symbols};
use pinpoint_smt::TermArena;
use std::collections::HashMap;

/// `(site, callee, position)` of an argument use or a receiver.
type Boundary = (InstId, Callee, usize);

#[derive(Debug, Default)]
pub(super) struct RefSeg {
    out_edges: HashMap<ValueId, Vec<SegEdge>>,
    in_edges: HashMap<ValueId, Vec<SegEdge>>,
    control_deps: Vec<Vec<(ValueId, bool)>>,
    arg_uses: HashMap<ValueId, Vec<Boundary>>,
    receivers: HashMap<ValueId, Boundary>,
    ret_index: HashMap<ValueId, usize>,
    call_sites: HashMap<InstId, (Callee, Vec<ValueId>, Vec<ValueId>)>,
    edge_count: usize,
}

impl RefSeg {
    pub(super) fn build(
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
        let mut seg = RefSeg {
            control_deps: (0..f.blocks.len())
                .map(|b| {
                    let deps = cds.deps(BlockId(b as u32));
                    deps.iter().map(|d| (d.cond, d.polarity)).collect()
                })
                .collect(),
            ..RefSeg::default()
        };
        let tru = arena.tru();
        for (site, inst) in f.iter_insts() {
            match inst {
                Inst::Copy { dst, src } => seg.add_edge(*src, *dst, tru, EdgeKind::Direct),
                Inst::Phi { dst, incomings } => {
                    for &(pred, v) in incomings {
                        let gate = gating.gate(site.block, pred);
                        let g = symbols.gate_term(arena, fid, f, gate);
                        seg.add_edge(v, *dst, g, EdgeKind::Direct);
                    }
                }
                Inst::Bin { dst, lhs, rhs, .. } => {
                    for src in [lhs, rhs] {
                        seg.add_edge(*src, *dst, tru, EdgeKind::Transform);
                    }
                }
                Inst::Un { dst, operand, .. } => {
                    seg.add_edge(*operand, *dst, tru, EdgeKind::Transform);
                }
                Inst::Call { callee, .. } => {
                    if callee.as_intrinsic().is_some() {
                        continue;
                    }
                    let call = inst.as_call().expect("a call");
                    for (i, &a) in call.args.iter().enumerate() {
                        let uses = seg.arg_uses.entry(a).or_default();
                        uses.push((site, *callee, i));
                    }
                    for (i, &d) in call.dsts.iter().enumerate() {
                        seg.receivers.insert(d, (site, *callee, i));
                    }
                    seg.call_sites
                        .insert(site, (*callee, call.args.to_vec(), call.dsts.to_vec()));
                }
                _ => {}
            }
        }
        for dep in &pta.mem_deps {
            seg.add_edge(dep.src, dep.dst, dep.cond, EdgeKind::Memory);
        }
        if let Some(rb) = f.return_block() {
            if let Terminator::Return(vals) = &f.block(rb).term {
                for (i, &v) in vals.iter().enumerate() {
                    seg.ret_index.insert(v, i);
                }
            }
        }
        seg
    }

    fn add_edge(&mut self, src: ValueId, dst: ValueId, cond: pinpoint_smt::TermId, kind: EdgeKind) {
        let e = SegEdge {
            src,
            dst,
            cond,
            kind,
        };
        self.out_edges.entry(src).or_default().push(e);
        self.in_edges.entry(dst).or_default().push(e);
        self.edge_count += 1;
    }

    fn vertex_count(&self) -> usize {
        let mut vs: Vec<ValueId> = self.out_edges.keys().copied().collect();
        vs.extend(self.in_edges.keys());
        vs.sort_unstable();
        vs.dedup();
        vs.len()
    }

    /// Field-for-field equality with the dense graph of `f`.
    pub(super) fn assert_matches(&self, seg: &Seg, f: &Function, what: &str) {
        let what = format!("{what}: {}", f.name);
        let resolve = |callee: &Callee| callee.as_func().expect("intrinsics are not recorded");
        for v in (0..f.values.len() as u32 + 1).map(ValueId) {
            let row = |m: &HashMap<ValueId, Vec<SegEdge>>| m.get(&v).cloned().unwrap_or_default();
            assert_eq!(seg.succs(v), row(&self.out_edges), "{what}: succs({v:?})");
            assert_eq!(seg.preds(v), row(&self.in_edges), "{what}: preds({v:?})");
            let uses: Vec<_> = seg
                .arg_uses(v)
                .iter()
                .map(|u| (u.site, u.callee, u.index))
                .collect();
            let expected = self.arg_uses.get(&v).into_iter().flatten();
            let expected: Vec<_> = expected.map(|(s, c, i)| (*s, resolve(c), *i)).collect();
            assert_eq!(uses, expected, "{what}: arg_uses({v:?})");
            let recv = seg.receiver(v).map(|r| (r.site, r.callee, r.index));
            let expected = self.receivers.get(&v).map(|(s, c, i)| (*s, resolve(c), *i));
            assert_eq!(recv, expected, "{what}: receiver({v:?})");
            let expected = self.ret_index.get(&v).copied();
            assert_eq!(seg.ret_index(v), expected, "{what}: ret_index({v:?})");
        }
        assert_eq!(
            seg.receivers().len(),
            self.receivers.len(),
            "{what}: receivers"
        );
        assert_eq!(seg.ret_values().len(), self.ret_index.len(), "{what}: rets");
        let mut sites: Vec<InstId> = self.call_sites.keys().copied().collect();
        sites.sort_unstable();
        let listed: Vec<InstId> = seg.call_sites().map(|c| c.site).collect();
        assert_eq!(listed, sites, "{what}: call_sites order");
        for call in seg.call_sites() {
            let (callee, args, dsts) = &self.call_sites[&call.site];
            assert_eq!(
                seg.call_site(call.site),
                Some(call),
                "{what}: call_site lookup"
            );
            assert_eq!(
                (call.callee, call.args, call.dsts),
                (resolve(callee), args.as_slice(), dsts.as_slice()),
                "{what}: call at {}",
                call.site
            );
        }
        let absent = InstId {
            block: BlockId(u32::MAX),
            index: 0,
        };
        assert_eq!(seg.call_site(absent), None);
        assert_eq!(seg.block_count(), self.control_deps.len(), "{what}: blocks");
        for (b, deps) in self.control_deps.iter().enumerate() {
            assert_eq!(
                seg.control_deps(BlockId(b as u32)),
                deps,
                "{what}: control_deps({b})"
            );
        }
        assert_eq!(seg.edge_count(), self.edge_count, "{what}: edge_count");
        assert_eq!(
            seg.vertex_count(),
            self.vertex_count(),
            "{what}: vertex_count"
        );
        // The flat edge view is the out rows in ascending vertex order.
        let mut keys: Vec<ValueId> = self.out_edges.keys().copied().collect();
        keys.sort_unstable();
        let flat: Vec<SegEdge> = keys
            .iter()
            .flat_map(|k| self.out_edges[k].clone())
            .collect();
        assert_eq!(seg.edges(), flat, "{what}: edges()");
    }
}

/// The module-level indexes, as `assemble` derived them from the maps.
pub(super) struct RefModule {
    segs: Vec<RefSeg>,
    callers: HashMap<FuncId, Vec<(FuncId, InstId)>>,
}

impl RefModule {
    fn assemble(module: &Module, segs: Vec<RefSeg>) -> Self {
        let mut callers: HashMap<FuncId, Vec<(FuncId, InstId)>> = HashMap::new();
        for (fid, _) in module.iter_funcs() {
            for (site, (callee, _, _)) in &segs[fid.0 as usize].call_sites {
                if let Some(target) = callee.as_func() {
                    callers.entry(target).or_default().push((fid, *site));
                }
            }
        }
        for v in callers.values_mut() {
            v.sort_unstable();
        }
        RefModule { segs, callers }
    }

    /// Every function straight into the shared arena, in id order.
    pub(super) fn build(
        module: &Module,
        arena: &mut TermArena,
        symbols: &mut Symbols,
        pta: &[FuncPta],
    ) -> Self {
        let segs = module
            .iter_funcs()
            .map(|(fid, f)| RefSeg::build(arena, symbols, fid, f, &pta[fid.0 as usize]))
            .collect();
        Self::assemble(module, segs)
    }

    /// Field-for-field equality with the dense module graph.
    pub(super) fn assert_matches(
        &self,
        ms: &ModuleSeg,
        module: &Module,
        pta: &[FuncPta],
        what: &str,
    ) {
        assert_eq!(ms.segs.len(), self.segs.len(), "{what}: function count");
        let cg = CallGraph::new(module);
        for (fid, f) in module.iter_funcs() {
            self.segs[fid.0 as usize].assert_matches(ms.seg(fid), f, what);
            let expected = self.callers.get(&fid).cloned().unwrap_or_default();
            let callers: Vec<_> = ms.callers(&cg, fid).collect();
            assert_eq!(callers, expected, "{what}: callers({})", f.name);
        }
        let past_the_end = FuncId(module.funcs.len() as u32);
        assert_eq!(ms.callers(&cg, past_the_end).count(), 0);
        let vertices: usize = self.segs.iter().map(RefSeg::vertex_count).sum();
        let edges: usize = self.segs.iter().map(|s| s.edge_count).sum();
        assert_eq!(
            (ms.vertex_count, ms.edge_count),
            (vertices, edges),
            "{what}: totals"
        );
        for (flows, of) in [(&ms.global_stores, 0), (&ms.global_loads, 1)] {
            let mut expected = std::collections::BTreeMap::<_, Vec<_>>::new();
            for (fid, _) in module.iter_funcs() {
                let p = &pta[fid.0 as usize];
                for ga in [&p.global_stores, &p.global_loads][of] {
                    let row = expected.entry(ga.global).or_default();
                    row.push((fid, ga.value, ga.cond));
                }
            }
            assert_eq!(flows, &expected, "{what}: global flows {of}");
        }
        for (fid, _) in module.iter_funcs() {
            let mut vs: Vec<ValueId> = pta[fid.0 as usize]
                .global_stores
                .iter()
                .map(|g| g.value)
                .collect();
            vs.sort_unstable();
            vs.dedup();
            assert_eq!(
                ms.global_store_values(fid),
                vs,
                "{what}: global_store_values"
            );
        }
    }
}
