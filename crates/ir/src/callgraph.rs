//! Call graph, Tarjan SCC condensation, and bottom-up ordering.
//!
//! Pinpoint is a bottom-up compositional analysis: callees are analysed
//! before callers so their summaries are available at call sites (§3.3.2).
//! Recursive SCCs are cut by the §4.2 soundiness rule (call-graph loops
//! unrolled once): calls to a function in the *same* SCC are treated as
//! summary-free (no value flows through them).
//!
//! Construction is linear in the module's instruction count and the
//! result is three flat compressed-sparse-row tables (callees, callers,
//! SCC members), so a hub function with tens of thousands of callers —
//! an allocator wrapper, say — costs what its edges cost and no more.

use crate::ir::{intrinsics, FuncId, Inst, Module};
use std::collections::HashSet;

/// Adjacency in compressed-sparse-row form: row `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Csr {
    offsets: Vec<u32>,
    items: Vec<FuncId>,
}

impl Csr {
    fn row(&self, i: usize) -> &[FuncId] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Call graph over a module's user-defined functions.
///
/// Every order a consumer can observe is a function of the module alone:
/// callee lists keep first-occurrence order, caller lists ascend by
/// [`FuncId`], SCCs come out in Tarjan's reverse-topological order with
/// members ascending. The points-to schedule, term numbering, cache keys
/// and report bytes all hang off these orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    callees: Csr,
    callers: Csr,
    /// SCC index per function (condensation node).
    scc_of: Vec<u32>,
    /// SCC members, rows in reverse topological order of the condensation
    /// (callee components first). The concatenated rows are the
    /// bottom-up function order.
    sccs: Csr,
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("call-graph edge count fits u32")
}

impl CallGraph {
    /// Builds the call graph of `module` in time linear in its
    /// instruction count.
    pub fn new(module: &Module) -> Self {
        let n = module.funcs.len();
        // Functions are visited in ascending id order, so "the last
        // caller recorded for `target` is `fid`" decides in O(1) whether
        // the edge fid → target was already seen — for the callee list
        // and the caller list at once.
        const NONE: u32 = u32::MAX;
        let mut last_caller = vec![NONE; n];
        let mut in_degree = vec![0u32; n];
        let mut callees = Csr {
            offsets: Vec::with_capacity(n + 1),
            items: Vec::new(),
        };
        callees.offsets.push(0);
        for (fid, f) in module.iter_funcs() {
            for (_, inst) in f.iter_insts() {
                let Inst::Call { callee, .. } = inst else {
                    continue;
                };
                if intrinsics::is_intrinsic(callee) {
                    continue;
                }
                let Some(target) = module.func_by_name(callee) else {
                    continue;
                };
                let seen = &mut last_caller[target.0 as usize];
                if *seen != fid.0 {
                    *seen = fid.0;
                    in_degree[target.0 as usize] += 1;
                    callees.items.push(target);
                }
            }
            callees.offsets.push(offset(callees.items.len()));
        }
        // Transpose by counting sort; scanning callers in ascending order
        // leaves every caller list ascending.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &d in &in_degree {
            total += d;
            offsets.push(total);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut items = vec![FuncId(0); callees.items.len()];
        for caller in 0..n {
            for &target in callees.row(caller) {
                let at = &mut cursor[target.0 as usize];
                items[*at as usize] = FuncId(caller as u32);
                *at += 1;
            }
        }
        let callers = Csr { offsets, items };
        let (scc_of, sccs) = tarjan(&callees);
        CallGraph {
            callees,
            callers,
            scc_of,
            sccs,
        }
    }

    /// Distinct user-defined callees of `f`, in first-occurrence order
    /// (intrinsics and unresolved names excluded).
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        self.callees.row(f.0 as usize)
    }

    /// Distinct callers of `f`, ascending.
    pub fn callers(&self, f: FuncId) -> &[FuncId] {
        self.callers.row(f.0 as usize)
    }

    /// Index of the SCC (condensation node) containing `f`.
    pub fn scc_of(&self, f: FuncId) -> usize {
        self.scc_of[f.0 as usize] as usize
    }

    /// Number of SCCs.
    pub fn scc_count(&self) -> usize {
        self.sccs.rows()
    }

    /// Members of SCC `scc`, ascending by [`FuncId`].
    pub fn scc(&self, scc: usize) -> &[FuncId] {
        self.sccs.row(scc)
    }

    /// Every SCC's members in reverse topological order of the
    /// condensation: callee components before caller components.
    pub fn sccs(&self) -> impl ExactSizeIterator<Item = &[FuncId]> + '_ {
        (0..self.scc_count()).map(|i| self.scc(i))
    }

    /// Functions in bottom-up order (callees before callers; within an
    /// SCC, ascending by [`FuncId`]), so schedules derived from the
    /// condensation are deterministic inputs.
    pub fn bottom_up(&self) -> &[FuncId] {
        &self.sccs.items
    }

    /// Number of distinct caller → callee edges.
    pub fn edge_count(&self) -> usize {
        self.callees.items.len()
    }

    /// In-degree of the most-called function (0 for an empty module).
    pub fn max_callers(&self) -> usize {
        self.callers
            .offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// `true` if `caller` and `callee` are in the same SCC (recursive
    /// call; its summary is unavailable — treated as a no-flow call).
    pub fn same_scc(&self, a: FuncId, b: FuncId) -> bool {
        self.scc_of[a.0 as usize] == self.scc_of[b.0 as usize]
    }

    /// `true` if `f` is self-recursive or part of a larger cycle.
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.scc(self.scc_of(f)).len() > 1 || self.callees(f).contains(&f)
    }

    /// `true` if this is the call graph of `module`. The connector
    /// transform rewrites call sites in place and never adds, removes or
    /// retargets one, so the graph built before it must still describe
    /// the module after it (debug builds assert this).
    pub fn describes(&self, module: &Module) -> bool {
        *self == Self::new(module)
    }

    /// Condensation levels: SCC indices grouped so that every callee
    /// component of an SCC lives at a strictly lower level. SCCs within
    /// one level have no edges between them, so a bottom-up pass may
    /// process a whole level in parallel; iterating levels in order (and
    /// each level's SCCs in the returned order) is a deterministic
    /// schedule because intra-SCC member order is sorted by [`FuncId`].
    pub fn scc_levels(&self) -> Vec<Vec<usize>> {
        let mut level = vec![0usize; self.scc_count()];
        // `bottom_up` visits callee components before caller components,
        // so each callee's level is final when its caller reads it.
        for &f in self.bottom_up() {
            let sf = self.scc_of(f);
            for &c in self.callees(f) {
                let sc = self.scc_of(c);
                if sc != sf {
                    level[sf] = level[sf].max(level[sc] + 1);
                }
            }
        }
        let depth = level.iter().copied().max().map_or(0, |m| m + 1);
        let mut out = vec![Vec::new(); depth];
        for (scc, &l) in level.iter().enumerate() {
            out[l].push(scc);
        }
        out
    }
}

/// Per-function values that depend on the values of the function's
/// callees, computed on demand: reading `f` forces the not-yet-forced SCCs
/// of `f`'s callee cone — callee components first — and nothing else.
///
/// A value is only ever computed from *final* callee values, so what a
/// function gets does not depend on which read forced it or in what
/// order: the memo restricted to any forced set equals the table a
/// force-everything pass over [`CallGraph::sccs`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeMemo<T> {
    slots: Vec<Option<T>>,
}

impl<T> ConeMemo<T> {
    /// An empty memo over a module of `funcs` functions.
    pub fn new(funcs: usize) -> Self {
        ConeMemo {
            slots: std::iter::repeat_with(|| None).take(funcs).collect(),
        }
    }

    /// Number of functions the memo covers (forced or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for an empty module.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `f`'s value, if it has been forced.
    pub fn get(&self, f: FuncId) -> Option<&T> {
        self.slots.get(f.0 as usize)?.as_ref()
    }

    /// The not-yet-forced SCCs `f`'s value depends on, `f`'s own included,
    /// in bottom-up order (Tarjan numbers callee components before their
    /// callers, so ascending SCC index is a valid schedule). Empty when
    /// `f` is already forced. Iterative: call chains tens of thousands
    /// deep must not recurse.
    pub fn unforced_cone(&self, cg: &CallGraph, f: FuncId) -> Vec<usize> {
        if self.get(f).is_some() {
            return Vec::new();
        }
        let mut cone = vec![cg.scc_of(f)];
        let mut seen: HashSet<usize> = cone.iter().copied().collect();
        let mut next = 0;
        while let Some(&scc) = cone.get(next) {
            next += 1;
            for &member in cg.scc(scc) {
                for &callee in cg.callees(member) {
                    // SCCs are filled whole, so one member speaks for all.
                    let below = cg.scc_of(callee);
                    if self.get(callee).is_none() && seen.insert(below) {
                        cone.push(below);
                    }
                }
            }
        }
        cone.sort_unstable();
        cone
    }

    /// Records one SCC's values, in member order.
    ///
    /// # Panics
    ///
    /// If `values` is not one value per member.
    pub fn fill(&mut self, members: &[FuncId], values: Vec<T>) {
        assert_eq!(members.len(), values.len(), "one value per SCC member");
        for (&f, v) in members.iter().zip(values) {
            self.slots[f.0 as usize] = Some(v);
        }
    }

    /// Forces `f`: runs `compute` on every SCC of
    /// [`ConeMemo::unforced_cone`], bottom-up. `compute` gets the SCC's
    /// members and the memo — in which every callee outside the SCC is
    /// forced — and returns one value per member, in member order.
    pub fn force(
        &mut self,
        cg: &CallGraph,
        f: FuncId,
        mut compute: impl FnMut(&[FuncId], &Self) -> Vec<T>,
    ) {
        for scc in self.unforced_cone(cg, f) {
            let members = cg.scc(scc);
            let values = compute(members, self);
            self.fill(members, values);
        }
    }
}

/// Iterative Tarjan SCC. Returns (scc index per node, SCC member rows in
/// reverse-topological order of the condensation).
fn tarjan(succs: &Csr) -> (Vec<u32>, Csr) {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: u32,
        lowlink: u32,
        on_stack: bool,
        visited: bool,
    }
    let n = succs.rows();
    let mut state = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut counter = 0u32;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs = Csr {
        offsets: vec![0],
        items: Vec::with_capacity(n),
    };
    let mut scc_of = vec![u32::MAX; n];

    // Explicit DFS stack: (node, next child index).
    let mut dfs: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if state[root].visited {
            continue;
        }
        dfs.push((root, 0));
        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if *ci == 0 && !state[v].visited {
                state[v].visited = true;
                state[v].index = counter;
                state[v].lowlink = counter;
                counter += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            let children = succs.row(v);
            if *ci < children.len() {
                let w = children[*ci].0 as usize;
                *ci += 1;
                if !state[w].visited {
                    dfs.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    let low = state[v].lowlink;
                    state[parent].lowlink = state[parent].lowlink.min(low);
                }
                if state[v].lowlink == state[v].index {
                    let scc = offset(sccs.rows());
                    let start = sccs.items.len();
                    loop {
                        let w = stack.pop().expect("tarjan stack nonempty");
                        state[w].on_stack = false;
                        scc_of[w] = scc;
                        sccs.items.push(FuncId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    // Tarjan pops members in stack order, which depends on
                    // DFS traversal; sort so intra-SCC order is a stable
                    // function of the module alone.
                    sccs.items[start..].sort_unstable();
                    sccs.offsets.push(offset(sccs.items.len()));
                }
            }
        }
    }
    (scc_of, sccs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Function;
    use crate::lower::lower;
    use crate::parser::parse;

    fn build(src: &str) -> (Module, CallGraph) {
        let m = lower(&parse(src).unwrap()).unwrap();
        let cg = CallGraph::new(&m);
        (m, cg)
    }

    fn id(m: &Module, name: &str) -> FuncId {
        m.func_by_name(name).unwrap()
    }

    #[test]
    fn bottom_up_orders_callees_first() {
        let (m, cg) = build(
            "fn leaf() { return; }
             fn mid() { leaf(); return; }
             fn top() { mid(); leaf(); return; }",
        );
        let pos = |n: &str| {
            let f = id(&m, n);
            cg.bottom_up().iter().position(|g| *g == f).unwrap()
        };
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("top"));
    }

    #[test]
    fn intrinsics_are_not_edges() {
        let (_, cg) = build("fn f(p: int*) { free(p); print(p); return; }");
        assert!(cg.callees(FuncId(0)).is_empty());
        assert_eq!(cg.edge_count(), 0);
    }

    #[test]
    fn mutual_recursion_one_scc() {
        let (m, cg) = build(
            "fn even(n: int) { odd(n - 1); return; }
             fn odd(n: int) { even(n - 1); return; }",
        );
        assert!(cg.same_scc(id(&m, "even"), id(&m, "odd")));
        assert!(cg.is_recursive(id(&m, "even")));
        assert_eq!(cg.sccs().filter(|s| s.len() == 2).count(), 1);
    }

    #[test]
    fn self_recursion_detected() {
        let (m, cg) = build("fn f(n: int) { f(n - 1); return; }");
        assert!(cg.is_recursive(id(&m, "f")));
        assert!(cg.same_scc(id(&m, "f"), id(&m, "f")));
    }

    #[test]
    fn non_recursive_functions_in_singleton_sccs() {
        let (m, cg) = build(
            "fn a() { b(); return; }
             fn b() { return; }",
        );
        assert!(!cg.is_recursive(id(&m, "a")));
        assert!(!cg.same_scc(id(&m, "a"), id(&m, "b")));
    }

    #[test]
    fn intra_scc_order_is_sorted_by_func_id() {
        // Declare the cycle members in an order Tarjan would pop
        // differently from declaration order: the DFS root is `c`
        // (declared last but explored first from main), so stack-pop
        // order differs from FuncId order without the sort.
        let (m, cg) = build(
            "fn a(n: int) { b(n - 1); return; }
             fn b(n: int) { c(n - 1); return; }
             fn c(n: int) { a(n - 1); return; }
             fn main() { c(3); return; }",
        );
        let cycle = cg
            .sccs()
            .find(|s| s.len() == 3)
            .expect("a,b,c form one SCC");
        assert!(
            cycle.windows(2).all(|w| w[0] < w[1]),
            "SCC members must be sorted by FuncId"
        );
        assert_eq!(cycle[0], id(&m, "a"));
        // bottom_up inherits the same deterministic intra-SCC order.
        let pos = |n: &str| {
            let f = id(&m, n);
            cg.bottom_up().iter().position(|g| *g == f).unwrap()
        };
        assert!(pos("a") < pos("b") && pos("b") < pos("c"));
    }

    #[test]
    fn scc_levels_respect_condensation_edges() {
        let (m, cg) = build(
            "fn leaf() { return; }
             fn left() { leaf(); return; }
             fn right() { leaf(); return; }
             fn top() { left(); right(); return; }",
        );
        let levels = cg.scc_levels();
        let level_of = |n: &str| {
            let scc = cg.scc_of(id(&m, n));
            levels.iter().position(|l| l.contains(&scc)).unwrap()
        };
        assert_eq!(level_of("leaf"), 0);
        assert_eq!(level_of("left"), 1);
        assert_eq!(level_of("right"), 1);
        assert_eq!(level_of("top"), 2);
        let total: usize = levels.iter().map(|l| l.len()).sum();
        assert_eq!(total, cg.scc_count(), "every SCC is scheduled exactly once");
    }

    #[test]
    fn callers_mirror_callees() {
        let (m, cg) = build(
            "fn leaf() { return; }
             fn top() { leaf(); return; }",
        );
        assert_eq!(cg.callers(id(&m, "leaf")), [id(&m, "top")]);
        assert!(cg.callers(id(&m, "top")).is_empty());
        assert_eq!(cg.max_callers(), 1);
    }

    #[test]
    fn cone_memo_forces_the_callee_cone_bottom_up_and_nothing_else() {
        // `even`/`odd` are one SCC above `leaf`; `island` is unrelated.
        let (m, cg) = build(
            "fn leaf() { return; }
             fn even(n: int) { odd(n - 1); leaf(); return; }
             fn odd(n: int) { even(n - 1); return; }
             fn top() { even(2); return; }
             fn island() { leaf(); return; }",
        );
        // Each function's value: how many functions were computed before
        // its SCC — callees must come out strictly lower.
        let mut memo: ConeMemo<usize> = ConeMemo::new(m.funcs.len());
        let mut computed = 0;
        let mut compute = |members: &[FuncId], done: &ConeMemo<usize>| {
            for &f in members {
                for &c in cg.callees(f) {
                    assert!(
                        cg.same_scc(f, c) || done.get(c).is_some(),
                        "callee {c:?} of {f:?} not final"
                    );
                }
            }
            let at = computed;
            computed += members.len();
            vec![at; members.len()]
        };
        // Entering the SCC through its second member forces all of it.
        memo.force(&cg, id(&m, "odd"), &mut compute);
        assert_eq!(memo.get(id(&m, "leaf")), Some(&0));
        assert_eq!(memo.get(id(&m, "even")), Some(&1));
        assert_eq!(memo.get(id(&m, "odd")), Some(&1));
        assert_eq!(memo.get(id(&m, "top")), None);
        assert_eq!(memo.get(id(&m, "island")), None);
        // A forced function is not recomputed; a caller adds only itself.
        memo.force(&cg, id(&m, "even"), &mut compute);
        memo.force(&cg, id(&m, "top"), &mut compute);
        assert_eq!(memo.get(id(&m, "top")), Some(&3));
        assert!(memo.unforced_cone(&cg, id(&m, "top")).is_empty());
        assert_eq!(memo.unforced_cone(&cg, id(&m, "island")).len(), 1);
    }

    /// The builder this module used before it went linear: nested `Vec`s,
    /// `contains` for both dedups. Kept as the behavioural reference —
    /// every order the CSR graph exposes must equal what this produces.
    struct Reference {
        callees: Vec<Vec<FuncId>>,
        callers: Vec<Vec<FuncId>>,
        scc_of: Vec<usize>,
        sccs: Vec<Vec<FuncId>>,
        bottom_up: Vec<FuncId>,
    }

    impl Reference {
        fn new(module: &Module) -> Self {
            let n = module.funcs.len();
            let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
            let mut callers: Vec<Vec<FuncId>> = vec![Vec::new(); n];
            for (fid, f) in module.iter_funcs() {
                for (_, inst) in f.iter_insts() {
                    if let Inst::Call { callee, .. } = inst {
                        if intrinsics::is_intrinsic(callee) {
                            continue;
                        }
                        if let Some(target) = module.func_by_name(callee) {
                            if !callees[fid.0 as usize].contains(&target) {
                                callees[fid.0 as usize].push(target);
                            }
                            if !callers[target.0 as usize].contains(&fid) {
                                callers[target.0 as usize].push(fid);
                            }
                        }
                    }
                }
            }
            let (scc_of, sccs) = Self::tarjan(n, &callees);
            let bottom_up = sccs.iter().flatten().copied().collect();
            Reference {
                callees,
                callers,
                scc_of,
                sccs,
                bottom_up,
            }
        }

        fn scc_levels(&self) -> Vec<Vec<usize>> {
            let mut level = vec![0usize; self.sccs.len()];
            for &f in &self.bottom_up {
                let sf = self.scc_of[f.0 as usize];
                for &c in &self.callees[f.0 as usize] {
                    let sc = self.scc_of[c.0 as usize];
                    if sc != sf {
                        level[sf] = level[sf].max(level[sc] + 1);
                    }
                }
            }
            let depth = level.iter().copied().max().map_or(0, |m| m + 1);
            let mut out = vec![Vec::new(); depth];
            for (scc, &l) in level.iter().enumerate() {
                out[l].push(scc);
            }
            out
        }

        fn tarjan(n: usize, succs: &[Vec<FuncId>]) -> (Vec<usize>, Vec<Vec<FuncId>>) {
            #[derive(Clone, Copy, Default)]
            struct NodeState {
                index: u32,
                lowlink: u32,
                on_stack: bool,
                visited: bool,
            }
            let mut state = vec![NodeState::default(); n];
            let mut counter = 0u32;
            let mut stack: Vec<usize> = Vec::new();
            let mut sccs: Vec<Vec<FuncId>> = Vec::new();
            let mut scc_of = vec![usize::MAX; n];
            for root in 0..n {
                if state[root].visited {
                    continue;
                }
                let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
                while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
                    if *ci == 0 && !state[v].visited {
                        state[v].visited = true;
                        state[v].index = counter;
                        state[v].lowlink = counter;
                        counter += 1;
                        stack.push(v);
                        state[v].on_stack = true;
                    }
                    if *ci < succs[v].len() {
                        let w = succs[v][*ci].0 as usize;
                        *ci += 1;
                        if !state[w].visited {
                            dfs.push((w, 0));
                        } else if state[w].on_stack {
                            state[v].lowlink = state[v].lowlink.min(state[w].index);
                        }
                    } else {
                        dfs.pop();
                        if let Some(&mut (parent, _)) = dfs.last_mut() {
                            let low = state[v].lowlink;
                            state[parent].lowlink = state[parent].lowlink.min(low);
                        }
                        if state[v].lowlink == state[v].index {
                            let mut comp = Vec::new();
                            loop {
                                let w = stack.pop().expect("tarjan stack nonempty");
                                state[w].on_stack = false;
                                scc_of[w] = sccs.len();
                                comp.push(FuncId(w as u32));
                                if w == v {
                                    break;
                                }
                            }
                            comp.sort_unstable();
                            sccs.push(comp);
                        }
                    }
                }
            }
            (scc_of, sccs)
        }
    }

    /// Field-for-field equality of the CSR graph with the reference.
    fn assert_matches_reference(m: &Module, what: &str) {
        let cg = CallGraph::new(m);
        let r = Reference::new(m);
        for (fid, _) in m.iter_funcs() {
            let i = fid.0 as usize;
            assert_eq!(cg.callees(fid), r.callees[i], "{what}: callees of {fid:?}");
            assert_eq!(cg.callers(fid), r.callers[i], "{what}: callers of {fid:?}");
            assert_eq!(cg.scc_of(fid), r.scc_of[i], "{what}: scc_of {fid:?}");
        }
        let sccs: Vec<&[FuncId]> = cg.sccs().collect();
        assert_eq!(sccs, r.sccs, "{what}: sccs");
        assert_eq!(cg.bottom_up(), r.bottom_up, "{what}: bottom_up");
        assert_eq!(cg.scc_levels(), r.scc_levels(), "{what}: scc_levels");
        assert!(cg.describes(m), "{what}: a graph describes its own module");
    }

    #[test]
    fn matches_reference_on_hand_built_shapes() {
        // Self-recursion, mutual recursion, duplicate calls, intrinsics
        // and a name that resolves to nothing (legal in the IR, though
        // the front end rejects it — hence the hand-built caller).
        let (mut m, _) = build(
            "fn leaf(p: int*) { free(p); print(p); return; }
             fn selfrec(n: int) { selfrec(n - 1); selfrec(n - 2); return; }
             fn even(n: int) { odd(n - 1); leaf(null); odd(n - 2); return; }
             fn odd(n: int) { even(n - 1); selfrec(n); even(n - 2); return; }
             fn hub(p: int*) { leaf(p); even(1); leaf(p); odd(2); leaf(p); return; }
             fn island() { return; }",
        );
        let callees = ["nowhere", "hub", "free", "nowhere", "hub", "dangling"];
        m.add_func(caller_of("dangling", callees.map(String::from)));
        assert_matches_reference(&m, "hand-built");
        let cg = CallGraph::new(&m);
        let dangling = id(&m, "dangling");
        assert_eq!(cg.callees(dangling), [id(&m, "hub"), dangling]);
        assert_eq!(cg.callers(id(&m, "leaf")), [id(&m, "even"), id(&m, "hub")]);
    }

    #[test]
    fn matches_reference_on_corpus() {
        let dir = format!("{}/../../tests/corpus", env!("CARGO_MANIFEST_DIR"));
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pp"))
            .collect();
        files.sort();
        assert!(files.len() >= 20, "corpus moved? found {}", files.len());
        for path in files {
            let src = std::fs::read_to_string(&path).unwrap();
            let m = lower(&parse(&src).unwrap()).unwrap();
            assert_matches_reference(&m, &path.display().to_string());
        }
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
            let m = lower(&parse(&src).unwrap()).unwrap();
            assert_matches_reference(&m, &format!("fuzzgen seed {seed}"));
        }
    }

    /// A function whose body is one call per name in `callees`.
    fn caller_of(name: &str, callees: impl IntoIterator<Item = String>) -> Function {
        let mut f = Function::new(name);
        for callee in callees {
            f.push_inst(
                f.entry(),
                Inst::Call {
                    dsts: Vec::new(),
                    callee,
                    args: Vec::new(),
                },
            );
        }
        f
    }

    #[test]
    fn hub_in_degree_and_out_degree_build_in_linear_time() {
        // One callee with 200 000 callers and one caller with 20 000
        // distinct callees (each called twice). Linear construction is
        // milliseconds even unoptimised; `contains`-based dedup is
        // 2·10¹⁰ comparisons — minutes.
        const CALLERS: usize = 200_000;
        const FANOUT: usize = 20_000;
        let mut m = Module::new();
        let hub = m.add_func(caller_of("hub", []));
        for i in 0..CALLERS {
            m.add_func(caller_of(&format!("c{i}"), ["hub".to_string()]));
        }
        let fan = m.add_func(caller_of(
            "fan",
            (0..2 * FANOUT).map(|i| format!("c{}", i % FANOUT)),
        ));
        let t = std::time::Instant::now();
        let cg = CallGraph::new(&m);
        let took = t.elapsed();
        assert_eq!(cg.callers(hub).len(), CALLERS);
        assert_eq!(cg.max_callers(), CALLERS);
        assert_eq!(cg.callees(fan).len(), FANOUT);
        assert_eq!(cg.edge_count(), CALLERS + FANOUT);
        assert_eq!(cg.scc_count(), CALLERS + 2);
        assert_eq!(cg.bottom_up()[0], hub);
        assert_eq!(*cg.bottom_up().last().unwrap(), fan);
        assert!(
            took < std::time::Duration::from_secs(2),
            "CallGraph::new took {took:?} on a hub-shaped module; it must stay linear"
        );
    }
}
