//! The full sparse value-flow graph (FSVFG) of the *layered* design.
//!
//! This is the comparator of the paper's evaluation (§5.1): a whole-
//! program sparse value-flow graph built on top of an independent,
//! flow- and context-insensitive Andersen points-to analysis, in the
//! style of SVF. Memory def-use edges are materialised per abstract
//! object: every store that may write object `o` feeds every load that
//! may read `o`. With an imprecise points-to analysis this is exactly the
//! "pointer trap": spurious points-to facts multiply into spurious
//! value-flow edges, blowing up both construction cost and the number of
//! paths the checker must traverse.

use pinpoint_ir::{FuncId, Inst, InstId, Intrinsic, Module, ValueId};
use pinpoint_pta::andersen::{self, Andersen, Node};
use std::collections::HashMap;

/// A vertex of the FSVFG: an SSA value of a function.
pub type Vertex = (FuncId, ValueId);

/// The whole-program sparse value-flow graph.
#[derive(Debug, Default)]
pub struct Fsvfg {
    /// Forward edges.
    pub succs: HashMap<Vertex, Vec<Vertex>>,
    /// Total edge count.
    pub edge_count: usize,
    /// Object → sites that dereference a pointer targeting it: every
    /// level of a k-level load/store chain plus `free` arguments. The
    /// checker needs this object layer because a deep access like
    /// `**w` dereferences *loaded* pointer values that never appear as
    /// SSA vertices of the graph.
    pub deref_sites: HashMap<Node, Vec<(FuncId, InstId)>>,
    /// Every `free` site with the objects its argument may point to.
    pub freed_objects: Vec<(Vertex, InstId, Vec<Node>)>,
}

impl Fsvfg {
    /// Builds the FSVFG of `module` (runs Andersen internally).
    pub fn build(module: &Module) -> Self {
        let pt = andersen::analyze(module);
        Self::build_with(module, &pt)
    }

    /// Like [`Fsvfg::build`], bounded by an optional wall-clock deadline
    /// *and* an optional edge budget. The edge budget models memory
    /// exhaustion: the paper's layered baseline fails some subjects by
    /// blowing past physical memory rather than the time limit.
    pub fn build_within(
        module: &Module,
        deadline: Option<std::time::Instant>,
        max_edges: Option<usize>,
    ) -> Option<Self> {
        let pt = andersen::analyze_with_deadline(module, deadline)?;
        let g = Self::build_bounded(module, &pt, deadline, max_edges)?;
        Some(g)
    }

    /// Builds the FSVFG from a precomputed points-to analysis.
    pub fn build_with(module: &Module, pt: &Andersen) -> Self {
        Self::build_bounded(module, pt, None, None).expect("no bounds set")
    }

    fn build_bounded(
        module: &Module,
        pt: &Andersen,
        deadline: Option<std::time::Instant>,
        max_edges: Option<usize>,
    ) -> Option<Self> {
        let mut g = Fsvfg::default();
        // Per-object store/load indexes.
        let mut stores_of: HashMap<Node, Vec<Vertex>> = HashMap::new();
        let mut loads_of: HashMap<Node, Vec<Vertex>> = HashMap::new();
        for (fid, f) in module.iter_funcs() {
            for (site, inst) in f.iter_insts() {
                match inst {
                    Inst::Copy { dst, src } => g.add_edge((fid, *src), (fid, *dst)),
                    Inst::Phi { dst, incomings } => {
                        for &(_, v) in incomings {
                            g.add_edge((fid, v), (fid, *dst));
                        }
                    }
                    Inst::Load { dst, ptr, depth } => {
                        // A k-level load reads a cell at every level of
                        // its chain; value flow into `dst` is attributed
                        // to each read over-approximately.
                        for objs in chain_objects(pt, fid, *ptr, *depth) {
                            for &o in &objs {
                                loads_of.entry(o).or_default().push((fid, *dst));
                                g.deref_sites.entry(o).or_default().push((fid, site));
                            }
                        }
                    }
                    Inst::Store { ptr, src, depth } => {
                        let levels = chain_objects(pt, fid, *ptr, *depth);
                        if let Some(last) = levels.last() {
                            for &o in last {
                                stores_of.entry(o).or_default().push((fid, *src));
                            }
                        }
                        for objs in &levels {
                            for &o in objs {
                                g.deref_sites.entry(o).or_default().push((fid, site));
                            }
                        }
                    }
                    Inst::Call { callee, .. } if callee.is(Intrinsic::Free) => {
                        if let Some(&p) = inst.as_call().and_then(|c| c.args.first()) {
                            let mut objs: Vec<Node> = pt.pt(fid, p).collect();
                            objs.sort_unstable();
                            objs.dedup();
                            for &o in &objs {
                                g.deref_sites.entry(o).or_default().push((fid, site));
                            }
                            g.freed_objects.push(((fid, p), site, objs));
                        }
                    }
                    Inst::Call { .. } => {
                        let call = inst.as_call().expect("a call");
                        let (dsts, args) = (call.dsts, call.args);
                        let Some(target) = call.callee.as_func() else {
                            continue;
                        };
                        let gfn = module.func(target);
                        for (&a, &p) in args.iter().zip(gfn.params.iter()) {
                            g.add_edge((fid, a), (target, p));
                        }
                        let rets = gfn.return_values();
                        for (&d, &r) in dsts.iter().zip(rets.iter()) {
                            g.add_edge((target, r), (fid, d));
                        }
                    }
                    _ => {}
                }
            }
        }
        // Memory def-use: stores × loads per object. This cross product
        // is where the pointer trap bites: imprecise points-to sets make
        // it quadratic.
        let mut last_checked_edges = 0usize;
        for (o, stores) in &stores_of {
            if let Some(loads) = loads_of.get(o) {
                for &s in stores {
                    if g.edge_count - last_checked_edges >= 65_536 {
                        last_checked_edges = g.edge_count;
                        if let Some(d) = deadline {
                            if std::time::Instant::now() > d {
                                return None;
                            }
                        }
                        if let Some(cap) = max_edges {
                            if g.edge_count > cap {
                                return None; // would exhaust memory
                            }
                        }
                    }
                    for &l in loads {
                        g.add_edge(s, l);
                    }
                }
            }
        }
        for v in g.deref_sites.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        Some(g)
    }

    fn add_edge(&mut self, from: Vertex, to: Vertex) {
        self.succs.entry(from).or_default().push(to);
        self.edge_count += 1;
    }

    /// Successors of a vertex.
    pub fn succs(&self, v: Vertex) -> &[Vertex] {
        self.succs.get(&v).map_or(&[], Vec::as_slice)
    }
}

/// Objects whose cells are read at each level of dereferencing `ptr`
/// `depth` times: level 1 reads the cells of `pt(ptr)`, level k the
/// cells of the (flow-insensitive) contents of level k−1.
fn chain_objects(pt: &Andersen, f: FuncId, ptr: ValueId, depth: u32) -> Vec<Vec<Node>> {
    let mut cur: Vec<Node> = pt.pt(f, ptr).collect();
    cur.sort_unstable();
    cur.dedup();
    let mut levels = Vec::with_capacity(depth as usize);
    for _ in 0..depth {
        levels.push(cur.clone());
        let mut next: Vec<Node> = cur
            .iter()
            .filter_map(|o| pt.points_to.get(o))
            .flatten()
            .copied()
            .collect();
        next.sort_unstable();
        next.dedup();
        cur = next;
    }
    levels
}

/// A warning from the layered checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayeredWarning {
    /// Function containing the source (`free`).
    pub source_func: FuncId,
    /// The `free` site.
    pub source_site: InstId,
    /// Function containing the use.
    pub sink_func: FuncId,
    /// The use site.
    pub sink_site: InstId,
}

/// The layered use-after-free checker: flow-, context- and path-
/// insensitive traversal of the FSVFG from every freed pointer.
///
/// Mirrors the SVF-based checker the paper compares against (§5.1.2):
/// with no conditions to prune anything, every deref reachable from a
/// freed value in the graph becomes a warning.
pub fn check_uaf(module: &Module, g: &Fsvfg) -> Vec<LayeredWarning> {
    // Index deref/free uses per vertex.
    let mut uses: HashMap<Vertex, Vec<InstId>> = HashMap::new();
    let mut frees: Vec<(Vertex, InstId)> = Vec::new();
    for (fid, f) in module.iter_funcs() {
        for (site, inst) in f.iter_insts() {
            match inst {
                Inst::Load { ptr, .. } | Inst::Store { ptr, .. } => {
                    uses.entry((fid, *ptr)).or_default().push(site);
                }
                Inst::Call { callee, .. } if callee.is(Intrinsic::Free) => {
                    if let Some(&p) = inst.as_call().and_then(|c| c.args.first()) {
                        frees.push(((fid, p), site));
                        uses.entry((fid, p)).or_default().push(site);
                    }
                }
                _ => {}
            }
        }
    }
    let mut warnings = Vec::new();
    for &(src, site) in &frees {
        let mut visited: std::collections::HashSet<Vertex> = std::collections::HashSet::new();
        let mut stack = vec![src];
        while let Some(v) = stack.pop() {
            if !visited.insert(v) {
                continue;
            }
            if let Some(sites) = uses.get(&v) {
                for &u in sites {
                    if v == src && u == site {
                        continue; // the free itself
                    }
                    warnings.push(LayeredWarning {
                        source_func: src.0,
                        source_site: site,
                        sink_func: v.0,
                        sink_site: u,
                    });
                }
            }
            stack.extend(g.succs(v).iter().copied());
        }
    }
    // Object layer: with no flow to prune anything, every site that
    // dereferences a pointer targeting a freed object is a warning —
    // including deep-chain reads whose intermediate pointer values are
    // not SSA vertices of the graph.
    for (src, site, objs) in &g.freed_objects {
        for o in objs {
            for &(sf, u) in g.deref_sites.get(o).map_or(&[][..], Vec::as_slice) {
                if sf == src.0 && u == *site {
                    continue; // the free itself
                }
                warnings.push(LayeredWarning {
                    source_func: src.0,
                    source_site: *site,
                    sink_func: sf,
                    sink_site: u,
                });
            }
        }
    }
    warnings.sort_unstable_by_key(|w| (w.source_func, w.source_site, w.sink_func, w.sink_site));
    warnings.dedup();
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::compile;

    #[test]
    fn finds_real_uaf() {
        let m = compile(
            "fn main() {
                let p: int* = malloc();
                free(p);
                let x: int = *p;
                print(x);
                return;
            }",
        )
        .unwrap();
        let g = Fsvfg::build(&m);
        let w = check_uaf(&m, &g);
        assert!(!w.is_empty());
    }

    #[test]
    fn flow_insensitivity_causes_false_positive() {
        // Use strictly before free: Pinpoint's ordering filter and path
        // conditions suppress this; the layered checker cannot.
        let m = compile(
            "fn main() {
                let p: int* = malloc();
                let x: int = *p;
                print(x);
                free(p);
                return;
            }",
        )
        .unwrap();
        let g = Fsvfg::build(&m);
        let w = check_uaf(&m, &g);
        assert!(
            !w.is_empty(),
            "the layered checker flags the use-before-free (a FP)"
        );
    }

    #[test]
    fn path_insensitivity_causes_false_positive() {
        let m = compile(
            "fn main(c: bool) {
                let p: int* = malloc();
                if (c) { free(p); }
                if (!c) { let x: int = *p; print(x); }
                return;
            }",
        )
        .unwrap();
        let g = Fsvfg::build(&m);
        let w = check_uaf(&m, &g);
        assert!(!w.is_empty(), "exclusive branches not pruned (a FP)");
    }

    #[test]
    fn context_insensitivity_conflates_call_sites() {
        // a is freed; only p == id(a) is dangerous. Context-insensitive
        // return binding makes the freed a flow to q == id(b) as well,
        // so dereferencing the innocent q draws a warning (a FP that
        // Pinpoint's context-sensitive search avoids).
        let m = compile(
            "fn id(x: int*) -> int* { return x; }
             fn main() {
                let a: int* = malloc();
                let b: int* = malloc();
                let p: int* = id(a);
                let q: int* = id(b);
                free(a);
                let y: int = *q;
                print(y);
                return;
             }",
        )
        .unwrap();
        let g = Fsvfg::build(&m);
        let w = check_uaf(&m, &g);
        assert!(!w.is_empty(), "context conflation yields a warning");
    }

    #[test]
    fn edge_counts_grow_with_aliasing() {
        // Many stores and loads through the same imprecise pointer set.
        let src = "fn main(c: bool) {
            let p: int** = malloc();
            let q: int** = p;
            let a: int* = malloc();
            let b: int* = malloc();
            *p = a;
            *q = b;
            let x: int* = *p;
            let y: int* = *q;
            print(x);
            print(y);
            return;
        }";
        let m = compile(src).unwrap();
        let g = Fsvfg::build(&m);
        // 2 stores × 2 loads through the same object = 4 memory edges
        // (plus copies).
        assert!(g.edge_count >= 4 + 2);
    }
}
