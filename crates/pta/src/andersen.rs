//! Whole-program Andersen-style points-to analysis.
//!
//! This is the *baseline* substrate: the flow- and context-insensitive,
//! inclusion-based points-to analysis that "layered" sparse value-flow
//! frameworks (SVF, Saber, Fastcheck) run as an independent first stage.
//! Pinpoint's comparison experiments (Fig. 7–9, Table 1) need it to build
//! the full sparse value-flow graph the layered checker traverses.
//!
//! Constraints are the classic four, derived from the IR:
//!
//! * address-of:  `p ⊇ {o}`           (`malloc`, `&global`)
//! * copy:        `p ⊇ q`             (copies, φ, call/return binding)
//! * load:        `p ⊇ *q`            (`p ← *(q,1)`)
//! * store:       `*p ⊇ q`            (`*(p,1) ← q`)
//!
//! k-level accesses are decomposed through temporary nodes. The solver is
//! a standard worklist over inclusion edges with dynamic load/store edge
//! materialisation.

use pinpoint_ir::{FuncId, GlobalId, Inst, InstId, Module, Terminator, ValueId};
use std::collections::{HashMap, HashSet, VecDeque};

/// A node of the constraint graph: an SSA value of a function, a global
/// cell, an allocation site, or a synthetic temporary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    /// An SSA value.
    Value(FuncId, ValueId),
    /// A heap object (allocation site).
    Heap(FuncId, InstId),
    /// A global cell.
    GlobalCell(GlobalId),
    /// A synthetic temporary introduced by k-level decomposition, numbered.
    Temp(u32),
}

/// Result of the Andersen analysis: points-to sets over abstract objects.
#[derive(Debug, Default)]
pub struct Andersen {
    /// Final points-to sets (node → objects).
    pub points_to: HashMap<Node, HashSet<Node>>,
    /// Number of constraint-solving iterations (worklist pops).
    pub iterations: u64,
}

impl Andersen {
    /// Points-to set of a value (empty when untracked).
    pub fn pt(&self, f: FuncId, v: ValueId) -> impl Iterator<Item = Node> + '_ {
        self.points_to
            .get(&Node::Value(f, v))
            .into_iter()
            .flatten()
            .copied()
    }
}

/// Builds and solves the inclusion constraints of `module`.
pub fn analyze(module: &Module) -> Andersen {
    analyze_with_deadline(module, None).expect("no deadline set")
}

/// Like [`analyze`], but gives up when `deadline` passes (returns `None`)
/// — used by the evaluation harness to reproduce the paper's timeout
/// band on large subjects.
pub fn analyze_with_deadline(
    module: &Module,
    deadline: Option<std::time::Instant>,
) -> Option<Andersen> {
    let mut b = Builder::default();
    // Object "contents" are modelled by a companion cell node per object:
    // pt(o-cell) holds what is stored *in* o. Loads traverse it.
    for (fid, f) in module.iter_funcs() {
        for (site, inst) in f.iter_insts() {
            match inst {
                Inst::Alloc { dst } => {
                    b.addr_of(Node::Value(fid, *dst), Node::Heap(fid, site));
                }
                Inst::GlobalAddr { dst, global } => {
                    b.addr_of(Node::Value(fid, *dst), Node::GlobalCell(*global));
                }
                Inst::Copy { dst, src } => {
                    b.copy(Node::Value(fid, *dst), Node::Value(fid, *src));
                }
                Inst::Phi { dst, incomings } => {
                    for &(_, v) in incomings {
                        b.copy(Node::Value(fid, *dst), Node::Value(fid, v));
                    }
                }
                Inst::Load { dst, ptr, depth } => {
                    let mut src = Node::Value(fid, *ptr);
                    for _ in 1..*depth {
                        let t = b.fresh_temp();
                        b.load(t, src);
                        src = t;
                    }
                    b.load(Node::Value(fid, *dst), src);
                }
                Inst::Store { ptr, depth, src } => {
                    let mut target = Node::Value(fid, *ptr);
                    for _ in 1..*depth {
                        let t = b.fresh_temp();
                        b.load(t, target);
                        target = t;
                    }
                    b.store(target, Node::Value(fid, *src));
                }
                Inst::Call { .. } => {
                    let call = inst.as_call().expect("a call");
                    let (dsts, args) = (call.dsts, call.args);
                    let Some(target) = call.callee.as_func() else {
                        continue;
                    };
                    let g = module.func(target);
                    // Bind actuals to formals (context-insensitively).
                    for (&a, &p) in args.iter().zip(g.params.iter()) {
                        b.copy(Node::Value(target, p), Node::Value(fid, a));
                    }
                    // Bind return values to receivers.
                    let rets = g.return_values();
                    for (&d, &r) in dsts.iter().zip(rets.iter()) {
                        b.copy(Node::Value(fid, d), Node::Value(target, r));
                    }
                }
                _ => {}
            }
        }
        // Nothing needed for terminators beyond returns, handled above.
        let _ = Terminator::Unreachable;
    }
    b.solve(deadline)
}

#[derive(Debug, Default)]
struct Builder {
    /// p ⊇ {o}
    addr: Vec<(Node, Node)>,
    /// successor copy edges: q → {p} meaning p ⊇ q
    copy_edges: HashMap<Node, HashSet<Node>>,
    /// load constraints: (dst, ptr) meaning dst ⊇ *ptr
    loads: Vec<(Node, Node)>,
    /// store constraints: (ptr, src) meaning *ptr ⊇ src
    stores: Vec<(Node, Node)>,
    temp_counter: u32,
}

impl Builder {
    fn addr_of(&mut self, p: Node, o: Node) {
        self.addr.push((p, o));
    }

    fn copy(&mut self, dst: Node, src: Node) {
        self.copy_edges.entry(src).or_default().insert(dst);
    }

    fn load(&mut self, dst: Node, ptr: Node) {
        self.loads.push((dst, ptr));
    }

    fn store(&mut self, ptr: Node, src: Node) {
        self.stores.push((ptr, src));
    }

    fn fresh_temp(&mut self) -> Node {
        self.temp_counter += 1;
        Node::Temp(self.temp_counter)
    }

    fn solve(self, deadline: Option<std::time::Instant>) -> Option<Andersen> {
        let mut pt: HashMap<Node, HashSet<Node>> = HashMap::new();
        let mut copy_edges = self.copy_edges;
        let mut work: VecDeque<Node> = VecDeque::new();
        let mut iterations = 0u64;
        for (p, o) in &self.addr {
            if pt.entry(*p).or_default().insert(*o) {
                work.push_back(*p);
            }
        }
        // Index load/store constraints by pointer node.
        let mut loads_by_ptr: HashMap<Node, Vec<Node>> = HashMap::new();
        for (dst, ptr) in &self.loads {
            loads_by_ptr.entry(*ptr).or_default().push(*dst);
        }
        let mut stores_by_ptr: HashMap<Node, Vec<Node>> = HashMap::new();
        for (ptr, src) in &self.stores {
            stores_by_ptr.entry(*ptr).or_default().push(*src);
        }
        while let Some(n) = work.pop_front() {
            iterations += 1;
            if iterations.is_multiple_of(4096) {
                if let Some(d) = deadline {
                    if std::time::Instant::now() > d {
                        return None;
                    }
                }
            }
            let objs: Vec<Node> = pt.get(&n).into_iter().flatten().copied().collect();
            // Materialise load/store edges through the objects of n.
            //   dst ⊇ *n: for each o ∈ pt(n), add copy o-cell → dst.
            //   *n ⊇ src: for each o ∈ pt(n), add copy src → o-cell.
            // The "cell" of object o is o itself used as a node key.
            let mut new_edges: Vec<(Node, Node)> = Vec::new();
            if let Some(dsts) = loads_by_ptr.get(&n) {
                for &o in &objs {
                    for &d in dsts {
                        new_edges.push((o, d));
                    }
                }
            }
            if let Some(srcs) = stores_by_ptr.get(&n) {
                for &o in &objs {
                    for &s in srcs {
                        new_edges.push((s, o));
                    }
                }
            }
            for (src, dst) in new_edges {
                if copy_edges.entry(src).or_default().insert(dst) {
                    // Propagate immediately.
                    let from: Vec<Node> = pt.get(&src).into_iter().flatten().copied().collect();
                    if !from.is_empty() {
                        let set = pt.entry(dst).or_default();
                        let mut changed = false;
                        for o in from {
                            changed |= set.insert(o);
                        }
                        if changed {
                            work.push_back(dst);
                        }
                    }
                }
            }
            // Propagate along existing copy edges.
            let succs: Vec<Node> = copy_edges.get(&n).into_iter().flatten().copied().collect();
            for s in succs {
                let from: Vec<Node> = pt.get(&n).into_iter().flatten().copied().collect();
                let set = pt.entry(s).or_default();
                let mut changed = false;
                for o in from {
                    changed |= set.insert(o);
                }
                if changed {
                    work.push_back(s);
                }
            }
        }
        Some(Andersen {
            points_to: pt,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::compile;

    #[test]
    fn direct_alloc_flow() {
        let m = compile(
            "fn f() -> int* {
                let p: int* = malloc();
                let q: int* = p;
                return q;
            }",
        )
        .unwrap();
        let a = analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        let ret = m.func(fid).return_values()[0];
        assert_eq!(a.pt(fid, ret).count(), 1);
    }

    #[test]
    fn store_load_roundtrip() {
        let m = compile(
            "fn f(a: int*) -> int* {
                let p: int** = malloc();
                *p = a;
                let q: int* = *p;
                return q;
            }",
        )
        .unwrap();
        let a = analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let ret = f.return_values()[0];
        let param = f.params[0];
        // q ⊇ *p ⊇ a: whatever a points to, q points to — both are empty
        // of concrete objects here, but q must include pt(a)'s node
        // contents; use alias check through a shared alloc instead.
        let _ = (ret, param);
        // Make a version with an observable object:
        let m2 = compile(
            "fn g() -> int* {
                let obj: int* = malloc();
                let p: int** = malloc();
                *p = obj;
                let q: int* = *p;
                return q;
            }",
        )
        .unwrap();
        let a2 = analyze(&m2);
        let gid = m2.func_by_name("g").unwrap();
        let ret2 = m2.func(gid).return_values()[0];
        assert_eq!(a2.pt(gid, ret2).count(), 1, "q points to obj");
        let _ = a;
    }

    #[test]
    fn context_insensitive_merging() {
        // The classic imprecision: two callers of id() conflate.
        let m = compile(
            "fn id(x: int*) -> int* { return x; }
             fn f() -> int* {
                let a: int* = malloc();
                let b: int* = malloc();
                let p: int* = id(a);
                let q: int* = id(b);
                return p;
             }",
        )
        .unwrap();
        let a = analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        let ret = m.func(fid).return_values()[0];
        // Context-insensitivity: p points to BOTH allocs.
        assert_eq!(a.pt(fid, ret).count(), 2, "layered analysis conflates");
    }

    #[test]
    fn phi_unions() {
        let m = compile(
            "fn f(c: bool) -> int* {
                let a: int* = malloc();
                let b: int* = malloc();
                let r: int* = null;
                if (c) { r = a; } else { r = b; }
                return r;
            }",
        )
        .unwrap();
        let a = analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        let ret = m.func(fid).return_values()[0];
        assert_eq!(a.pt(fid, ret).count(), 2);
    }

    #[test]
    fn flow_insensitive_sees_dead_store() {
        // Flow-insensitivity: the killed store still contributes.
        let m = compile(
            "fn f() -> int* {
                let a: int* = malloc();
                let b: int* = malloc();
                let p: int** = malloc();
                *p = a;
                *p = b;
                let q: int* = *p;
                return q;
            }",
        )
        .unwrap();
        let an = analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        let ret = m.func(fid).return_values()[0];
        assert_eq!(
            an.pt(fid, ret).count(),
            2,
            "Andersen keeps both stores — exactly the imprecision Pinpoint avoids"
        );
    }

    #[test]
    fn global_cells_flow() {
        let m = compile(
            "global g: int*;
             fn w(x: int*) { *g = x; return; }
             fn r() -> int* { let v: int* = *g; return v; }",
        )
        .unwrap();
        let an = analyze(&m);
        let rid = m.func_by_name("r").unwrap();
        let ret = m.func(rid).return_values()[0];
        // v ⊇ *gcell ⊇ x — x itself has no objects; add one via caller.
        let m2 = compile(
            "global g: int*;
             fn w() { let o: int* = malloc(); *g = o; return; }
             fn r() -> int* { let v: int* = *g; return v; }",
        )
        .unwrap();
        let an2 = analyze(&m2);
        let rid2 = m2.func_by_name("r").unwrap();
        let ret2 = m2.func(rid2).return_values()[0];
        assert_eq!(an2.pt(rid2, ret2).count(), 1, "global flow tracked");
        let _ = (an, ret, rid);
    }

    #[test]
    fn may_alias_through_shared_store() {
        let m = compile(
            "fn f(c: bool) -> int* {
                let o: int* = malloc();
                let p: int** = malloc();
                let q: int** = p;
                *p = o;
                let x: int* = *q;
                return x;
            }",
        )
        .unwrap();
        let an = analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let ret = f.return_values()[0];
        assert_eq!(an.pt(fid, ret).count(), 1, "x gets o through alias p=q");
    }
}
