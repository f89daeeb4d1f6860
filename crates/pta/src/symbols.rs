//! Symbolisation of SSA values into condition terms.
//!
//! The SEG's operator vertices (Def. 3.2, Example 3.3) are realised here
//! as hash-consed terms: a boolean SSA value like `θ₃ = (X ≠ 0)` is mapped
//! to the term `ne(X, 0)` whose sub-structure is shared across every
//! condition mentioning it. Values whose definitions are opaque to the
//! condition language (loads, φ, calls, allocations) become fresh
//! uninterpreted variables; their data dependences are added separately by
//! the SEG's `DD(·)` constraints (Example 3.7).
//!
//! Variable names are qualified as `f{fid}.v{vid}` so terms from different
//! functions can coexist in the module-wide arena; the bug-detection stage
//! appends a context suffix when cloning summaries (§3.3.1 achieves
//! context-sensitivity by cloning).

use pinpoint_ir::{Const, FuncId, Function, Inst, UnOp, ValueId};
use pinpoint_smt::{Sort, TermArena, TermId};
use std::collections::HashMap;

/// Caches value terms for a whole module.
#[derive(Debug, Default, Clone)]
pub struct Symbols {
    map: HashMap<(FuncId, ValueId), TermId>,
    origins: HashMap<TermId, (FuncId, ValueId)>,
    /// Insertion journal for [`Symbols::checkpoint`]/[`Symbols::rollback`]:
    /// every key added to `map` or `origins`, in order. Rolling back
    /// removes exactly the journalled keys — a term-id threshold would be
    /// wrong, because a post-checkpoint cache entry can map to a
    /// *pre-existing* term and must still be evicted so a later
    /// re-derivation replays the same arena insertions.
    journal: Vec<JournalEntry>,
}

#[derive(Debug, Clone, Copy)]
enum JournalEntry {
    Map(FuncId, ValueId),
    Origin(TermId),
}

/// Opaque checkpoint of a [`Symbols`] cache (see [`Symbols::checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolsMark(usize);

impl Symbols {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a checkpoint for [`Symbols::rollback`].
    pub fn checkpoint(&self) -> SymbolsMark {
        SymbolsMark(self.journal.len())
    }

    /// Removes every cache entry created after `mark`, restoring the cache
    /// to exactly its checkpointed state. Pairs with
    /// [`pinpoint_smt::TermArena::truncate_to`] so a detection query can
    /// use shared state as private scratch.
    pub fn rollback(&mut self, mark: SymbolsMark) {
        while self.journal.len() > mark.0 {
            match self.journal.pop().expect("journal length checked") {
                JournalEntry::Map(f, v) => {
                    self.map.remove(&(f, v));
                }
                JournalEntry::Origin(t) => {
                    self.origins.remove(&t);
                }
            }
        }
    }

    /// Number of cached value terms.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The values of `fid` with cached terms, sorted — the deterministic
    /// iteration order the parallel merge uses to re-derive a worker's
    /// symbols against the shared arena.
    pub fn cached_values(&self, fid: FuncId) -> Vec<ValueId> {
        let mut vs: Vec<ValueId> = self
            .map
            .keys()
            .filter(|(f, _)| *f == fid)
            .map(|&(_, v)| v)
            .collect();
        vs.sort_unstable();
        vs
    }

    /// Drops every cached term of function `fid` — required when a
    /// function's IR is replaced (incremental re-analysis): the same
    /// `ValueId`s may now mean different things.
    pub fn invalidate_function(&mut self, fid: FuncId) {
        self.map.retain(|&(f, _), _| f != fid);
        self.origins.retain(|_, &mut (f, _)| f != fid);
        // Bulk removal cannot be replayed entry-wise; outstanding
        // checkpoints are void after an invalidation (none are held across
        // incremental updates).
        self.journal.clear();
    }

    /// The value whose opaque variable `t` is, if any. Terms with
    /// structure (comparisons, arithmetic) have no single origin; only the
    /// uninterpreted variables introduced for parameters, loads, φ, calls,
    /// and allocations do.
    pub fn origin(&self, t: TermId) -> Option<(FuncId, ValueId)> {
        self.origins.get(&t).copied()
    }

    /// Canonical variable name for a value of a function.
    pub fn var_name(fid: FuncId, v: ValueId) -> String {
        format!("f{}.v{}", fid.0, v.0)
    }

    /// The SMT sort corresponding to a value's type (pointers are ints).
    pub fn sort_of(f: &Function, v: ValueId) -> Sort {
        match *f.ty(v) {
            pinpoint_ir::Type::Bool => Sort::Bool,
            _ => Sort::Int,
        }
    }

    /// Returns the term for `v`, building it on first use.
    ///
    /// Transparent definitions (constants, copies, binary and unary
    /// operations) are expanded structurally; everything else becomes an
    /// uninterpreted variable.
    pub fn value_term(
        &mut self,
        arena: &mut TermArena,
        fid: FuncId,
        f: &Function,
        v: ValueId,
    ) -> TermId {
        if let Some(&t) = self.map.get(&(fid, v)) {
            return t;
        }
        // Insert a placeholder var first to break accidental cycles (SSA
        // is acyclic, but recursion depth stays bounded regardless).
        let term = self.build(arena, fid, f, v);
        self.map.insert((fid, v), term);
        self.journal.push(JournalEntry::Map(fid, v));
        term
    }

    fn opaque(&mut self, arena: &mut TermArena, fid: FuncId, f: &Function, v: ValueId) -> TermId {
        let t = arena.var(Self::var_name(fid, v), Self::sort_of(f, v));
        if self.origins.insert(t, (fid, v)).is_none() {
            self.journal.push(JournalEntry::Origin(t));
        }
        t
    }

    fn build(&mut self, arena: &mut TermArena, fid: FuncId, f: &Function, v: ValueId) -> TermId {
        let info = f.value(v);
        let Some(def) = info.def else {
            // Parameter or undefined: opaque.
            return self.opaque(arena, fid, f, v);
        };
        match *f.inst(def) {
            Inst::Const { value, .. } => match value {
                Const::Int(k) => arena.int(k),
                Const::Bool(b) => arena.bool_const(b),
                // The null pointer is the integer 0 (so `p != null`
                // becomes `p ≠ 0`).
                Const::Null => arena.int(0),
            },
            Inst::Copy { src, .. } => self.value_term(arena, fid, f, src),
            Inst::Un { op, operand, .. } => {
                let o = self.value_term(arena, fid, f, operand);
                match op {
                    UnOp::Neg => arena.neg(o),
                    UnOp::Not => arena.not(o),
                }
            }
            Inst::Bin { op, lhs, rhs, .. } => {
                let l = self.value_term(arena, fid, f, lhs);
                let r = self.value_term(arena, fid, f, rhs);
                use pinpoint_ir::BinOp;
                match op {
                    BinOp::Add => arena.add2(l, r),
                    BinOp::Sub => arena.sub(l, r),
                    BinOp::Mul => arena.mul(l, r),
                    BinOp::Eq => arena.eq(l, r),
                    BinOp::Ne => arena.ne(l, r),
                    BinOp::Lt => arena.lt(l, r),
                    BinOp::Le => arena.le(l, r),
                    BinOp::And => arena.and2(l, r),
                    BinOp::Or => arena.or2(l, r),
                }
            }
            // Loads, φ, calls, allocations, global addresses: opaque.
            _ => self.opaque(arena, fid, f, v),
        }
    }

    /// Converts a gating condition into a term.
    pub fn gate_term(
        &mut self,
        arena: &mut TermArena,
        fid: FuncId,
        f: &Function,
        gate: &pinpoint_ir::Gate,
    ) -> TermId {
        match gate {
            pinpoint_ir::Gate::True => arena.tru(),
            pinpoint_ir::Gate::Lit(v, pol) => {
                let t = self.value_term(arena, fid, f, *v);
                if *pol {
                    t
                } else {
                    arena.not(t)
                }
            }
            pinpoint_ir::Gate::And(xs) => {
                let ts: Vec<TermId> = xs
                    .iter()
                    .map(|g| self.gate_term(arena, fid, f, g))
                    .collect();
                arena.and(ts)
            }
            pinpoint_ir::Gate::Or(xs) => {
                let ts: Vec<TermId> = xs
                    .iter()
                    .map(|g| self.gate_term(arena, fid, f, g))
                    .collect();
                arena.or(ts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_ir::compile;

    #[test]
    fn comparison_expands_structurally() {
        let m = compile(
            "fn f(q: int**) -> bool {
                let x: int* = *q;
                let t: bool = x != null;
                return t;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let ret = f.return_values()[0];
        let t = sym.value_term(&mut arena, fid, f, ret);
        // t expands to (not (= load 0)): the load stays opaque, the
        // comparison is structural.
        let printed = arena.display(t);
        assert!(printed.contains("(not (="), "got {printed}");
        assert!(printed.contains(" 0)"), "got {printed}");
    }

    #[test]
    fn copies_are_transparent() {
        let m = compile(
            "fn f(a: int) -> int {
                let b: int = a;
                let c: int = b;
                return c;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let ret = f.return_values()[0];
        let t_ret = sym.value_term(&mut arena, fid, f, ret);
        let t_a = sym.value_term(&mut arena, fid, f, f.params[0]);
        assert_eq!(t_ret, t_a, "copy chains collapse to the parameter");
    }

    #[test]
    fn arithmetic_folds_through_terms() {
        let m = compile("fn f() -> int { return 2 + 3 * 4; }").unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let ret = f.return_values()[0];
        let t = sym.value_term(&mut arena, fid, f, ret);
        assert_eq!(arena.display(t), "14");
    }

    #[test]
    fn phi_is_opaque() {
        let m = compile(
            "fn f(c: bool) -> int {
                let x: int = 0;
                if (c) { x = 1; } else { x = 2; }
                return x;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        let ret = f.return_values()[0];
        let t = sym.value_term(&mut arena, fid, f, ret);
        assert!(arena.display(t).starts_with("f0.v"), "φ must be opaque");
    }

    #[test]
    fn names_qualified_by_function() {
        assert_eq!(Symbols::var_name(FuncId(3), ValueId(7)), "f3.v7");
    }

    #[test]
    fn rollback_restores_cache_and_arena_replay() {
        let m = compile(
            "fn f(q: int**) -> bool {
                let x: int* = *q;
                let t: bool = x != null;
                return t;
            }",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let f = m.func(fid);
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        // Base state: the parameter's term.
        let base = sym.value_term(&mut arena, fid, f, f.params[0]);
        let sym_mark = sym.checkpoint();
        let arena_mark = arena.mark();
        let arena_len = arena.len();
        let cached = sym.len();
        // Scratch: symbolise the return value (creates the load var and
        // the comparison structure).
        let ret = f.return_values()[0];
        let t1 = sym.value_term(&mut arena, fid, f, ret);
        let printed1 = arena.display(t1);
        sym.rollback(sym_mark);
        arena.truncate_to(arena_mark);
        assert_eq!(sym.len(), cached);
        assert_eq!(arena.len(), arena_len);
        assert_eq!(sym.value_term(&mut arena, fid, f, f.params[0]), base);
        // Re-derivation replays the identical layout: same term id, same
        // structure. This is the invariant parallel detection relies on.
        let t2 = sym.value_term(&mut arena, fid, f, ret);
        assert_eq!(t1, t2);
        assert_eq!(arena.display(t2), printed1);
    }

    #[test]
    fn cached_values_sorted_per_function() {
        let m = compile(
            "fn a(x: int) -> int { return x + 1; }
             fn b(y: int) -> int { return y + 2; }",
        )
        .unwrap();
        let fa = m.func_by_name("a").unwrap();
        let fb = m.func_by_name("b").unwrap();
        let mut arena = TermArena::new();
        let mut sym = Symbols::new();
        for (fid, f) in m.iter_funcs() {
            let ret = f.return_values()[0];
            sym.value_term(&mut arena, fid, f, ret);
        }
        let va = sym.cached_values(fa);
        assert!(!va.is_empty());
        assert!(va.windows(2).all(|w| w[0] < w[1]), "sorted: {va:?}");
        assert!(!sym.cached_values(fb).is_empty());
    }
}
