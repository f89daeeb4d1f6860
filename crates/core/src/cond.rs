//! Path-condition construction (§3.2.2, §3.3.1).
//!
//! Given a global value-flow path, the detector must build the *efficient
//! path condition* of Equations (1)–(3): for each vertex the control
//! dependence `CD(·)`, for each edge the flow equality, the edge label,
//! and the data-dependence closure `DD(·)` of the label, and at every
//! function boundary the parameter/return bindings (the bold parts of
//! Eq. 2 and Eq. 3).
//!
//! Context-sensitivity follows the cloning approach (§3.3.1(2)): each
//! calling context is an interned [`CtxId`]; cloning a term under a
//! context renames every variable with a `|c<id>` suffix, so constraints
//! from two instantiations of the same callee never collide. The return
//! -value constraints of a callee (`DD(v@s)^P_∅` — the **RV summary**) are
//! computed once in the callee's own namespace (memoised in
//! [`pinpoint_pta::Symbols`]' term cache) and instantiated per context by
//! cloning plus formal/actual binding, exactly as the paper's Example 3.10.
//!
//! All construction happens against the worker's [`TermArena`], which is
//! an O(1) *overlay* of the module-wide interner built during the PTA and
//! SEG stages: every build-time condition is visible by its original
//! interned id, and the ids this module mints extend that shared space.
//! Downstream, each finished condition is canonically fingerprinted and
//! checked against the cross-run verdict table before any solver call
//! (see DESIGN.md "Cross-query condition reuse").

use crate::seg::ModuleSeg;
use pinpoint_ir::{BlockId, FuncId, Inst, InstId, Module, ValueId};
use pinpoint_pta::Symbols;
use pinpoint_smt::{TermArena, TermId, TermKind};
use std::collections::{HashMap, HashSet};

/// An interned calling context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

/// The root context: terms are used in their original namespace.
pub const ROOT: CtxId = CtxId(0);

/// Interner for calling contexts.
///
/// A context is either the root, a callee frame entered from a call site
/// (`CalleeOf`), or a caller frame entered by unwinding past the root
/// function of the query (`CallerOf`).
#[derive(Debug, Default)]
pub struct CtxInterner {
    keys: HashMap<(CtxId, FuncId, InstId, bool), CtxId>,
    count: u32,
}

impl CtxInterner {
    /// Creates an interner holding only [`ROOT`].
    pub fn new() -> Self {
        CtxInterner {
            keys: HashMap::new(),
            count: 1,
        }
    }

    /// The context entered by descending from `parent` through `site`
    /// (in function `caller`) into a callee.
    pub fn callee_of(&mut self, parent: CtxId, caller: FuncId, site: InstId) -> CtxId {
        self.intern((parent, caller, site, true))
    }

    /// The context of a caller frame reached by ascending out of `child`
    /// through `site` of `caller`.
    pub fn caller_of(&mut self, child: CtxId, caller: FuncId, site: InstId) -> CtxId {
        self.intern((child, caller, site, false))
    }

    fn intern(&mut self, key: (CtxId, FuncId, InstId, bool)) -> CtxId {
        if let Some(&id) = self.keys.get(&key) {
            return id;
        }
        let id = CtxId(self.count);
        self.count += 1;
        self.keys.insert(key, id);
        id
    }

    /// Number of contexts created (root included).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Never empty: the root always exists.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Tunables of condition construction.
#[derive(Debug, Clone, Copy)]
pub struct CondConfig {
    /// Maximum closure recursion depth across function boundaries
    /// (the paper's experiments use six nested levels).
    pub max_depth: u32,
    /// Hard cap on accumulated constraints per query.
    pub max_constraints: usize,
}

impl Default for CondConfig {
    fn default() -> Self {
        CondConfig {
            max_depth: 6,
            max_constraints: 4_000,
        }
    }
}

/// Accumulates the constraints of one candidate path.
#[derive(Debug)]
pub struct CondBuilder<'a> {
    module: &'a Module,
    segs: &'a ModuleSeg,
    symbols: &'a mut Symbols,
    arena: &'a mut TermArena,
    ctxs: &'a mut CtxInterner,
    config: CondConfig,
    acc: Vec<TermId>,
    acc_set: HashSet<TermId>,
    visited_values: HashSet<(FuncId, ValueId, CtxId)>,
    visited_cd: HashSet<(FuncId, BlockId, CtxId)>,
    clone_cache: HashMap<(TermId, CtxId), TermId>,
    leaves_cache: HashMap<TermId, Vec<TermId>>,
    truncated: bool,
}

impl<'a> CondBuilder<'a> {
    /// Creates a builder for one query.
    pub fn new(
        module: &'a Module,
        segs: &'a ModuleSeg,
        symbols: &'a mut Symbols,
        arena: &'a mut TermArena,
        ctxs: &'a mut CtxInterner,
        config: CondConfig,
    ) -> Self {
        CondBuilder {
            module,
            segs,
            symbols,
            arena,
            ctxs,
            config,
            acc: Vec::new(),
            acc_set: HashSet::new(),
            visited_values: HashSet::new(),
            visited_cd: HashSet::new(),
            clone_cache: HashMap::new(),
            leaves_cache: HashMap::new(),
            truncated: false,
        }
    }

    /// The conjunction of everything accumulated so far.
    pub fn condition(&mut self) -> TermId {
        self.arena.and(self.acc.clone())
    }

    /// Number of accumulated constraint conjuncts.
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// `true` if nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// `true` if the constraint cap was hit (condition is then an
    /// under-approximation: solving it may report an infeasible path).
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    fn push(&mut self, t: TermId) {
        if self.acc.len() >= self.config.max_constraints {
            self.truncated = true;
            return;
        }
        if self.acc_set.insert(t) {
            self.acc.push(t);
        }
    }

    /// Clones `t` into context `ctx` by renaming every variable.
    pub fn clone_term(&mut self, t: TermId, ctx: CtxId) -> TermId {
        if ctx == ROOT {
            return t;
        }
        if let Some(&c) = self.clone_cache.get(&(t, ctx)) {
            return c;
        }
        let cloned = match self.arena.kind(t).clone() {
            TermKind::Var(name, sort) => self.arena.var(format!("{name}|c{}", ctx.0), sort),
            TermKind::BoolConst(_) | TermKind::IntConst(_) => t,
            TermKind::Not(x) => {
                let cx = self.clone_term(x, ctx);
                self.arena.not(cx)
            }
            TermKind::Neg(x) => {
                let cx = self.clone_term(x, ctx);
                self.arena.neg(cx)
            }
            TermKind::And(xs) => {
                let cs: Vec<TermId> = xs.iter().map(|&x| self.clone_term(x, ctx)).collect();
                self.arena.and(cs)
            }
            TermKind::Or(xs) => {
                let cs: Vec<TermId> = xs.iter().map(|&x| self.clone_term(x, ctx)).collect();
                self.arena.or(cs)
            }
            TermKind::Add(xs) => {
                let cs: Vec<TermId> = xs.iter().map(|&x| self.clone_term(x, ctx)).collect();
                self.arena.add(cs)
            }
            TermKind::Ite(c, a, b) => {
                let cc = self.clone_term(c, ctx);
                let ca = self.clone_term(a, ctx);
                let cb = self.clone_term(b, ctx);
                self.arena.ite(cc, ca, cb)
            }
            TermKind::Eq(a, b) => {
                let ca = self.clone_term(a, ctx);
                let cb = self.clone_term(b, ctx);
                self.arena.eq(ca, cb)
            }
            TermKind::Lt(a, b) => {
                let ca = self.clone_term(a, ctx);
                let cb = self.clone_term(b, ctx);
                self.arena.lt(ca, cb)
            }
            TermKind::Le(a, b) => {
                let ca = self.clone_term(a, ctx);
                let cb = self.clone_term(b, ctx);
                self.arena.le(ca, cb)
            }
            TermKind::Sub(a, b) => {
                let ca = self.clone_term(a, ctx);
                let cb = self.clone_term(b, ctx);
                self.arena.sub(ca, cb)
            }
            TermKind::Mul(a, b) => {
                let ca = self.clone_term(a, ctx);
                let cb = self.clone_term(b, ctx);
                self.arena.mul(ca, cb)
            }
        };
        self.clone_cache.insert((t, ctx), cloned);
        cloned
    }

    /// The opaque variable leaves of `t` (memoised).
    fn leaves(&mut self, t: TermId) -> Vec<TermId> {
        if let Some(l) = self.leaves_cache.get(&t) {
            return l.clone();
        }
        let mut out = Vec::new();
        let mut stack = vec![t];
        let mut seen = HashSet::new();
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            match self.arena.kind(x) {
                TermKind::Var(..) => out.push(x),
                TermKind::Not(a) | TermKind::Neg(a) => stack.push(*a),
                TermKind::And(xs) | TermKind::Or(xs) | TermKind::Add(xs) => {
                    stack.extend(xs.iter().copied())
                }
                TermKind::Ite(c, a, b) => stack.extend([*c, *a, *b]),
                TermKind::Eq(a, b)
                | TermKind::Lt(a, b)
                | TermKind::Le(a, b)
                | TermKind::Sub(a, b)
                | TermKind::Mul(a, b) => stack.extend([*a, *b]),
                _ => {}
            }
        }
        self.leaves_cache.insert(t, out.clone());
        out
    }

    /// Adds the data-dependence closure of every opaque leaf of `t`
    /// (which is a term of function `fid`, instantiated under `ctx`).
    pub fn add_term_closure(&mut self, fid: FuncId, t: TermId, ctx: CtxId, depth: u32) {
        for leaf in self.leaves(t) {
            if let Some((ofid, ov)) = self.symbols.origin(leaf) {
                debug_assert_eq!(ofid, fid, "terms never mix functions before cloning");
                self.add_value_closure(fid, ov, ctx, depth);
            }
        }
    }

    /// Adds `DD(v)` (Example 3.7): the constraints that define the opaque
    /// variable of `v`, recursively, stopping at function parameters
    /// (whose constraints are added when a boundary is crossed — the
    /// `P`-set of `PC(·)^P_∅`).
    pub fn add_value_closure(&mut self, fid: FuncId, v: ValueId, ctx: CtxId, depth: u32) {
        if !self.visited_values.insert((fid, v, ctx)) {
            return;
        }
        let f = self.module.func(fid);
        let term = self.symbols.value_term(self.arena, fid, f, v);
        let Some(def) = f.value(v).def else {
            return; // parameter: boundary crossing resolves it
        };
        let inst = f.inst(def);
        match inst {
            // Structural definitions: close the leaves of the term.
            Inst::Const { .. } | Inst::Copy { .. } | Inst::Bin { .. } | Inst::Un { .. } => {
                // Avoid self-recursion on the defining value itself.
                for leaf in self.leaves(term) {
                    if let Some((ofid, ov)) = self.symbols.origin(leaf) {
                        if ov != v {
                            self.add_value_closure(ofid, ov, ctx, depth);
                        }
                    }
                }
            }
            // φ and loads: guarded equalities over the SEG in-edges.
            Inst::Phi { .. } | Inst::Load { .. } => {
                let segs = self.segs;
                for &e in segs.seg(fid).preds(v) {
                    let src_term = self.symbols.value_term(self.arena, fid, f, e.src);
                    let eq = self.arena.eq(term, src_term);
                    let implied = self.arena.implies(e.cond, eq);
                    let cloned = self.clone_term(implied, ctx);
                    self.push(cloned);
                    self.add_term_closure(fid, e.cond, ctx, depth);
                    self.add_value_closure(fid, e.src, ctx, depth);
                }
            }
            // Call receivers: instantiate the callee's RV summary (Eq. 2).
            Inst::Call { .. } => {
                let call = inst.as_call().expect("a call");
                let Some(gid) = call.callee.as_func().filter(|_| depth > 0) else {
                    return;
                };
                let idx = call.dsts.iter().position(|&d| d == v).unwrap_or(0);
                let g = self.module.func(gid);
                let rets = g.return_values().to_vec();
                let Some(&ret) = rets.get(idx) else { return };
                let child = self.ctxs.callee_of(ctx, fid, def);
                // ① receiver = return value.
                let ret_term = self.symbols.value_term(self.arena, gid, g, ret);
                let lhs = self.clone_term(term, ctx);
                let rhs = self.clone_term(ret_term, child);
                let eq = self.arena.eq(lhs, rhs);
                self.push(eq);
                // ② the callee's return-value constraints.
                self.add_value_closure(gid, ret, child, depth - 1);
                self.add_term_closure(gid, ret_term, child, depth - 1);
                // ③ formal/actual bindings.
                self.bind_params(fid, ctx, gid, child, call.args, depth - 1);
            }
            Inst::Alloc { .. } | Inst::GlobalAddr { .. } | Inst::Store { .. } => {}
        }
    }

    /// Adds `formal = actual` equalities plus the actuals' closures
    /// (the bold part of Eq. 3).
    pub fn bind_params(
        &mut self,
        caller: FuncId,
        caller_ctx: CtxId,
        callee: FuncId,
        callee_ctx: CtxId,
        args: &[ValueId],
        depth: u32,
    ) {
        let cf = self.module.func(caller);
        let gf = self.module.func(callee);
        let params = gf.params.clone();
        for (&a, &p) in args.iter().zip(params.iter()) {
            let p_term = self.symbols.value_term(self.arena, callee, gf, p);
            let a_term = self.symbols.value_term(self.arena, caller, cf, a);
            let lhs = self.clone_term(p_term, callee_ctx);
            let rhs = self.clone_term(a_term, caller_ctx);
            let eq = self.arena.eq(lhs, rhs);
            self.push(eq);
            self.add_term_closure(caller, a_term, caller_ctx, depth);
            self.add_value_closure(caller, a, caller_ctx, depth);
        }
    }

    /// Adds `CD(block)` (Example 3.8): the chained control-dependence
    /// constraints of a block, with the `DD` closure of every branch
    /// condition on the chain.
    pub fn add_control_deps(&mut self, fid: FuncId, block: BlockId, ctx: CtxId, depth: u32) {
        if !self.visited_cd.insert((fid, block, ctx)) {
            return;
        }
        let deps = self.segs.seg(fid).control_deps(block);
        let f = self.module.func(fid);
        for &(cv, pol) in deps {
            let t = self.symbols.value_term(self.arena, fid, f, cv);
            let lit = if pol { t } else { self.arena.not(t) };
            let cloned = self.clone_term(lit, ctx);
            self.push(cloned);
            self.add_term_closure(fid, t, ctx, depth);
            self.add_value_closure(fid, cv, ctx, depth);
            // Transitive: the branch variable's own defining block.
            if let Some(def) = f.value(cv).def {
                self.add_control_deps(fid, def.block, ctx, depth);
            }
        }
    }

    /// Adds a raw (already-built) constraint term of function `fid` under
    /// `ctx`, plus the closure of its leaves.
    pub fn add_constraint(&mut self, fid: FuncId, t: TermId, ctx: CtxId, depth: u32) {
        let cloned = self.clone_term(t, ctx);
        self.push(cloned);
        self.add_term_closure(fid, t, ctx, depth);
    }

    /// Adds the flow equality `dst = src` across (possibly different)
    /// functions/contexts.
    pub fn add_flow_equality(
        &mut self,
        dst_fid: FuncId,
        dst: ValueId,
        dst_ctx: CtxId,
        src_fid: FuncId,
        src: ValueId,
        src_ctx: CtxId,
    ) {
        let df = self.module.func(dst_fid);
        let sf = self.module.func(src_fid);
        let dt = self.symbols.value_term(self.arena, dst_fid, df, dst);
        let st = self.symbols.value_term(self.arena, src_fid, sf, src);
        let lhs = self.clone_term(dt, dst_ctx);
        let rhs = self.clone_term(st, src_ctx);
        let eq = self.arena.eq(lhs, rhs);
        self.push(eq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::ModuleSeg;
    use pinpoint_ir::{compile, Intrinsic};
    use pinpoint_pta::analyze_module;
    use pinpoint_smt::{SmtResult, SmtSession};

    struct Fixture {
        module: Module,
        segs: ModuleSeg,
        symbols: Symbols,
        arena: TermArena,
    }

    fn fixture(src: &str) -> Fixture {
        let mut module = compile(src).unwrap();
        let mut analysis = analyze_module(&mut module);
        let mut arena = std::mem::take(&mut analysis.arena);
        let mut symbols = std::mem::take(&mut analysis.symbols);
        let segs = ModuleSeg::build(&module, &mut arena, &mut symbols, &analysis.pta);
        Fixture {
            module,
            segs,
            symbols,
            arena,
        }
    }

    #[test]
    fn context_interner_dedups() {
        let mut ctxs = CtxInterner::new();
        let site = InstId {
            block: BlockId(0),
            index: 0,
        };
        let a = ctxs.callee_of(ROOT, FuncId(0), site);
        let b = ctxs.callee_of(ROOT, FuncId(0), site);
        assert_eq!(a, b);
        let c = ctxs.caller_of(ROOT, FuncId(0), site);
        assert_ne!(a, c);
        assert_eq!(ctxs.len(), 3);
    }

    #[test]
    fn clone_renames_variables() {
        let mut fx = fixture("fn f(x: int) -> bool { let t: bool = x != 0; return t; }");
        let fid = fx.module.func_by_name("f").unwrap();
        let f = fx.module.func(fid);
        let ret = f.return_values()[0];
        let t = fx.symbols.value_term(&mut fx.arena, fid, f, ret);
        let mut ctxs = CtxInterner::new();
        let mut cb = CondBuilder::new(
            &fx.module,
            &fx.segs,
            &mut fx.symbols,
            &mut fx.arena,
            &mut ctxs,
            CondConfig::default(),
        );
        let ctx = cb.ctxs.callee_of(
            ROOT,
            fid,
            InstId {
                block: BlockId(0),
                index: 0,
            },
        );
        let cloned = cb.clone_term(t, ctx);
        assert_ne!(t, cloned);
        let printed = cb.arena.display(cloned);
        assert!(printed.contains("|c1"), "renamed: {printed}");
        // Cloning under ROOT is the identity.
        assert_eq!(cb.clone_term(t, ROOT), t);
    }

    #[test]
    fn phi_closure_adds_guarded_equalities() {
        let mut fx = fixture(
            "fn f(c: bool) -> int {
                let x: int = 0;
                if (c) { x = 1; } else { x = 2; }
                return x;
            }",
        );
        let fid = fx.module.func_by_name("f").unwrap();
        let f = fx.module.func(fid);
        let ret = f.return_values()[0];
        let mut ctxs = CtxInterner::new();
        let mut cb = CondBuilder::new(
            &fx.module,
            &fx.segs,
            &mut fx.symbols,
            &mut fx.arena,
            &mut ctxs,
            CondConfig::default(),
        );
        cb.add_value_closure(fid, ret, ROOT, 6);
        assert!(cb.len() >= 2, "two guarded equalities for the φ");
        // The closure + x = 1 must be satisfiable; + x = 3 unsatisfiable.
        let x_term = {
            let f = fx.module.func(fid);
            cb.symbols.value_term(cb.arena, fid, f, ret)
        };
        let one = cb.arena.int(1);
        let three = cb.arena.int(3);
        let cond = cb.condition();
        let eq1 = cb.arena.eq(x_term, one);
        let eq3 = cb.arena.eq(x_term, three);
        let sat_case = cb.arena.and2(cond, eq1);
        let unsat_case = cb.arena.and2(cond, eq3);
        let mut solver = SmtSession::new();
        assert_eq!(solver.check(&fx.arena, sat_case), SmtResult::Sat);
        assert_eq!(solver.check(&fx.arena, unsat_case), SmtResult::Unsat);
    }

    #[test]
    fn rv_summary_instantiation() {
        // Example 3.10's shape: t = test(c) where test returns (e != 0).
        let mut fx = fixture(
            "fn test(e: int*) -> bool {
                let f: bool = e != null;
                return f;
            }
            fn foo(c: int*) -> bool {
                let t: bool = test(c);
                return t;
            }",
        );
        let foo = fx.module.func_by_name("foo").unwrap();
        let f = fx.module.func(foo);
        let ret = f.return_values()[0];
        let mut ctxs = CtxInterner::new();
        let mut cb = CondBuilder::new(
            &fx.module,
            &fx.segs,
            &mut fx.symbols,
            &mut fx.arena,
            &mut ctxs,
            CondConfig::default(),
        );
        cb.add_value_closure(foo, ret, ROOT, 6);
        // t must now be constrained: t ∧ (c = 0) is unsatisfiable because
        // t = (e ≠ 0) ∧ e = c.
        let f = fx.module.func(foo);
        let t_term = cb.symbols.value_term(cb.arena, foo, f, ret);
        let c_term = cb.symbols.value_term(cb.arena, foo, f, f.params[0]);
        let zero = cb.arena.int(0);
        let c_is_null = cb.arena.eq(c_term, zero);
        let closure = cb.condition();
        let query = cb.arena.and([closure, t_term, c_is_null]);
        let mut solver = SmtSession::new();
        assert_eq!(
            solver.check(&fx.arena, query),
            SmtResult::Unsat,
            "t ⇒ c ≠ null through the RV summary"
        );
    }

    #[test]
    fn control_deps_chain_transitively() {
        // Example 3.8's shape: a statement controlled by θ4 which is
        // itself only evaluated under ¬θ3.
        let mut fx = fixture(
            "fn f(t3: bool, p: int*) {
                if (t3) { print(p); }
                else {
                    let t4: bool = nondet_bool();
                    if (t4) { free(p); }
                }
                return;
            }",
        );
        let fid = fx.module.func_by_name("f").unwrap();
        let f = fx.module.func(fid);
        let free_block = f
            .iter_insts()
            .find_map(|(id, i)| match i {
                Inst::Call { callee, .. } if callee.is(Intrinsic::Free) => Some(id.block),
                _ => None,
            })
            .unwrap();
        let mut ctxs = CtxInterner::new();
        let mut cb = CondBuilder::new(
            &fx.module,
            &fx.segs,
            &mut fx.symbols,
            &mut fx.arena,
            &mut ctxs,
            CondConfig::default(),
        );
        cb.add_control_deps(fid, free_block, ROOT, 6);
        let cond = cb.condition();
        // The chained CD must contain ¬t3: conjoining t3 is unsatisfiable.
        let f = fx.module.func(fid);
        let t3 = cb.symbols.value_term(cb.arena, fid, f, f.params[0]);
        let with_t3 = cb.arena.and2(cond, t3);
        let mut solver = SmtSession::new();
        assert_eq!(solver.check(&fx.arena, with_t3), SmtResult::Unsat);
        assert_eq!(solver.check(&fx.arena, cond), SmtResult::Sat);
    }

    #[test]
    fn constraint_cap_truncates() {
        let mut fx = fixture(
            "fn f(c: bool) -> int {
                let x: int = 0;
                if (c) { x = 1; } else { x = 2; }
                return x;
            }",
        );
        let fid = fx.module.func_by_name("f").unwrap();
        let ret = fx.module.func(fid).return_values()[0];
        let mut ctxs = CtxInterner::new();
        let mut cb = CondBuilder::new(
            &fx.module,
            &fx.segs,
            &mut fx.symbols,
            &mut fx.arena,
            &mut ctxs,
            CondConfig {
                max_depth: 6,
                max_constraints: 1,
            },
        );
        cb.add_value_closure(fid, ret, ROOT, 6);
        assert!(cb.is_truncated());
        assert_eq!(cb.len(), 1);
    }
}
