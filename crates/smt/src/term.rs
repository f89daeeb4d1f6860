//! Hash-consed term representation for path conditions.
//!
//! Every condition manipulated by the analysis — branch conditions, gating
//! conditions of φ-assignments, data-dependence guards, and whole path
//! conditions — is a [`TermId`] pointing into a [`TermArena`]. Terms are
//! *hash-consed*: structurally equal terms are represented by the same id,
//! so equality is `O(1)` and the condition DAG shared across a function's
//! symbolic expression graph is stored exactly once.
//!
//! The term language mirrors what Pinpoint's analysis emits: boolean
//! structure (`and`/`or`/`not`/`ite`), equalities and integer comparisons
//! between symbolic values, and linear integer arithmetic. Anything beyond
//! that (e.g. a product of two variables) is still representable and is
//! treated as an opaque function application by the theory solver.

use std::collections::HashMap;
use std::fmt;

/// Sort (type) of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sort {
    /// Boolean sort.
    Bool,
    /// Mathematical integer sort (models program integers and pointers).
    Int,
}

/// Identifier of a hash-consed term inside a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// Returns the raw index of this term.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `TermId` from a raw index, e.g. when decoding a
    /// persisted arena. The caller is responsible for only using the id
    /// with an arena in which that index is populated.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        TermId(u32::try_from(index).expect("term index overflow"))
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Structure of a term. Children are [`TermId`]s into the same arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// Boolean constant `true`/`false`.
    BoolConst(bool),
    /// Integer constant.
    IntConst(i64),
    /// Free variable (uninterpreted constant) with a name and sort.
    Var(String, Sort),
    /// Logical negation of a boolean term.
    Not(TermId),
    /// N-ary conjunction (flattened, deduplicated, sorted).
    And(Vec<TermId>),
    /// N-ary disjunction (flattened, deduplicated, sorted).
    Or(Vec<TermId>),
    /// If-then-else; condition is boolean, branches share a sort.
    Ite(TermId, TermId, TermId),
    /// Equality between two terms of the same sort (arguments sorted).
    Eq(TermId, TermId),
    /// Strict less-than over integers.
    Lt(TermId, TermId),
    /// Non-strict less-than over integers.
    Le(TermId, TermId),
    /// N-ary integer addition (flattened, sorted).
    Add(Vec<TermId>),
    /// Integer subtraction.
    Sub(TermId, TermId),
    /// Integer multiplication (binary).
    Mul(TermId, TermId),
    /// Integer negation.
    Neg(TermId),
}

/// Arena owning all terms; the sole way to create or inspect terms.
///
/// An arena is either *standalone* (it owns every term) or an *overlay*
/// over a shared, immutable base arena (see [`TermArena::overlay`]): ids
/// below the base length resolve in the base, new terms are appended
/// locally starting at the base length. An overlay therefore behaves
/// exactly like a deep clone of its base — identical ids for identical
/// construction sequences — while sharing the base storage. This is what
/// makes the module-wide term interner practical: the points-to and SEG
/// stages build one shared arena, and each detection worker layers a
/// cheap scratch overlay on top instead of cloning it.
///
/// # Examples
///
/// ```
/// use pinpoint_smt::term::{Sort, TermArena};
///
/// let mut arena = TermArena::new();
/// let x = arena.var("x", Sort::Bool);
/// let not_x = arena.not(x);
/// let not_not_x = arena.not(not_x);
/// // hash-consing + simplification: ¬¬x is the same term as x
/// assert_eq!(x, not_not_x);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TermArena {
    /// Shared immutable base (overlay arenas only).
    base: Option<std::sync::Arc<TermArena>>,
    /// Number of terms owned by `base` (0 for standalone arenas). Local
    /// ids start here.
    base_len: usize,
    terms: Vec<TermKind>,
    sorts: Vec<Sort>,
    consed: HashMap<TermKind, TermId>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch overlay over a shared base arena. Every base
    /// term is visible (same ids, same hash-consing), and new terms are
    /// allocated locally from `base.len()` upward — the overlay is
    /// indistinguishable from a deep clone of the base, at O(1) cost.
    pub fn overlay(base: std::sync::Arc<TermArena>) -> Self {
        let base_len = base.len();
        TermArena {
            base: Some(base),
            base_len,
            terms: Vec::new(),
            sorts: Vec::new(),
            consed: HashMap::new(),
        }
    }

    /// Number of distinct terms visible (base + local).
    pub fn len(&self) -> usize {
        self.base_len + self.terms.len()
    }

    /// Returns `true` if no terms are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the structure of `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` was produced by a different arena.
    pub fn kind(&self, t: TermId) -> &TermKind {
        if t.index() < self.base_len {
            self.base
                .as_ref()
                .expect("ids below base_len require a base")
                .kind(t)
        } else {
            &self.terms[t.index() - self.base_len]
        }
    }

    /// Returns the sort of `t`.
    pub fn sort(&self, t: TermId) -> Sort {
        if t.index() < self.base_len {
            self.base
                .as_ref()
                .expect("ids below base_len require a base")
                .sort(t)
        } else {
            self.sorts[t.index() - self.base_len]
        }
    }

    /// Looks up a structurally equal term anywhere in the base chain or
    /// the local layer.
    fn lookup_consed(&self, kind: &TermKind) -> Option<TermId> {
        if let Some(base) = &self.base {
            if let Some(id) = base.lookup_consed(kind) {
                return Some(id);
            }
        }
        self.consed.get(kind).copied()
    }

    /// Iterates over every term in insertion (id) order as `(kind, sort)`
    /// pairs, base layers first. This is the serialization view of the
    /// arena: replaying the sequence through [`TermArena::push_raw`]
    /// reconstructs a bit-identical arena, because ids are dense indices
    /// assigned in insertion order.
    pub fn kinds(&self) -> impl Iterator<Item = (&TermKind, Sort)> {
        let mut chain: Vec<&TermArena> = Vec::new();
        let mut cur = Some(self);
        while let Some(a) = cur {
            chain.push(a);
            cur = a.base.as_deref();
        }
        chain.reverse();
        chain
            .into_iter()
            .flat_map(|a| a.terms.iter().zip(a.sorts.iter()).map(|(k, &s)| (k, s)))
    }

    /// Appends a term with an explicit structure, for rebuilding an arena
    /// from a persisted [`TermArena::kinds`] stream. Unlike the smart
    /// constructors this performs *no* simplification: the term is stored
    /// exactly as given, so a replayed stream reproduces the original ids.
    ///
    /// Returns an error (leaving the arena untouched) if the term refers
    /// to children at indices not yet populated, or if a structurally
    /// equal term already exists — either would break the hash-consing
    /// invariant that every id has a unique structure.
    pub fn push_raw(&mut self, kind: TermKind, sort: Sort) -> Result<TermId, RawTermError> {
        let len = self.len();
        let ok = |t: TermId| t.index() < len;
        let children_ok = match &kind {
            TermKind::BoolConst(_) | TermKind::IntConst(_) | TermKind::Var(..) => true,
            TermKind::Not(x) | TermKind::Neg(x) => ok(*x),
            TermKind::And(xs) | TermKind::Or(xs) | TermKind::Add(xs) => xs.iter().all(|&x| ok(x)),
            TermKind::Ite(c, a, b) => ok(*c) && ok(*a) && ok(*b),
            TermKind::Eq(a, b)
            | TermKind::Lt(a, b)
            | TermKind::Le(a, b)
            | TermKind::Sub(a, b)
            | TermKind::Mul(a, b) => ok(*a) && ok(*b),
        };
        if !children_ok {
            return Err(RawTermError::ForwardReference);
        }
        if self.lookup_consed(&kind).is_some() {
            return Err(RawTermError::Duplicate);
        }
        let id = TermId(u32::try_from(len).expect("term arena overflow"));
        self.terms.push(kind.clone());
        self.sorts.push(sort);
        self.consed.insert(kind, id);
        Ok(id)
    }

    fn intern(&mut self, kind: TermKind, sort: Sort) -> TermId {
        if let Some(id) = self.lookup_consed(&kind) {
            return id;
        }
        let id = TermId(u32::try_from(self.len()).expect("term arena overflow"));
        self.terms.push(kind.clone());
        self.sorts.push(sort);
        self.consed.insert(kind, id);
        id
    }

    /// The constant `true`.
    pub fn tru(&mut self) -> TermId {
        self.intern(TermKind::BoolConst(true), Sort::Bool)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> TermId {
        self.intern(TermKind::BoolConst(false), Sort::Bool)
    }

    /// Boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.intern(TermKind::BoolConst(b), Sort::Bool)
    }

    /// Integer constant.
    pub fn int(&mut self, v: i64) -> TermId {
        self.intern(TermKind::IntConst(v), Sort::Int)
    }

    /// Free variable of the given sort. Two calls with the same name and
    /// sort return the same term.
    pub fn var(&mut self, name: impl Into<String>, sort: Sort) -> TermId {
        self.intern(TermKind::Var(name.into(), sort), sort)
    }

    /// Negation, with simplification: `¬true = false`, `¬¬x = x`.
    pub fn not(&mut self, t: TermId) -> TermId {
        debug_assert_eq!(self.sort(t), Sort::Bool);
        match self.kind(t) {
            TermKind::BoolConst(b) => {
                let b = !b;
                self.bool_const(b)
            }
            TermKind::Not(inner) => *inner,
            _ => self.intern(TermKind::Not(t), Sort::Bool),
        }
    }

    /// N-ary conjunction with flattening, deduplication, unit laws and
    /// complement detection (`x ∧ ¬x = false`).
    pub fn and(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat: Vec<TermId> = Vec::new();
        for t in ts {
            match self.kind(t) {
                TermKind::BoolConst(true) => {}
                TermKind::BoolConst(false) => return self.fls(),
                TermKind::And(children) => flat.extend(children.iter().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // x ∧ ¬x = false
        for &t in &flat {
            if let TermKind::Not(inner) = self.kind(t) {
                if flat.binary_search(inner).is_ok() {
                    return self.fls();
                }
            }
        }
        match flat.len() {
            0 => self.tru(),
            1 => flat[0],
            _ => self.intern(TermKind::And(flat), Sort::Bool),
        }
    }

    /// Binary conjunction convenience wrapper over [`TermArena::and`].
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and([a, b])
    }

    /// N-ary disjunction with flattening, deduplication, unit laws and
    /// complement detection (`x ∨ ¬x = true`).
    pub fn or(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat: Vec<TermId> = Vec::new();
        for t in ts {
            match self.kind(t) {
                TermKind::BoolConst(false) => {}
                TermKind::BoolConst(true) => return self.tru(),
                TermKind::Or(children) => flat.extend(children.iter().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        for &t in &flat {
            if let TermKind::Not(inner) = self.kind(t) {
                if flat.binary_search(inner).is_ok() {
                    return self.tru();
                }
            }
        }
        match flat.len() {
            0 => self.fls(),
            1 => flat[0],
            _ => self.intern(TermKind::Or(flat), Sort::Bool),
        }
    }

    /// Binary disjunction convenience wrapper over [`TermArena::or`].
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or([a, b])
    }

    /// Implication `a ⇒ b`, encoded as `¬a ∨ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// If-then-else with constant-condition and equal-branch simplification.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not boolean or the branches have different sorts.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        assert_eq!(self.sort(c), Sort::Bool, "ite condition must be boolean");
        assert_eq!(self.sort(t), self.sort(e), "ite branches must share a sort");
        match self.kind(c) {
            TermKind::BoolConst(true) => return t,
            TermKind::BoolConst(false) => return e,
            _ => {}
        }
        if t == e {
            return t;
        }
        let sort = self.sort(t);
        self.intern(TermKind::Ite(c, t, e), sort)
    }

    /// Equality with reflexivity and constant folding; arguments are
    /// canonically ordered so `eq(a, b) == eq(b, a)`.
    ///
    /// Boolean equality is expanded structurally into an *iff*
    /// (`(a ∧ b) ∨ (¬a ∧ ¬b)`) so the SAT core reasons through it; only
    /// integer equality becomes a theory atom.
    ///
    /// # Panics
    ///
    /// Panics if the arguments have different sorts.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "eq arguments must share a sort");
        if a == b {
            return self.tru();
        }
        if let (TermKind::IntConst(x), TermKind::IntConst(y)) = (self.kind(a), self.kind(b)) {
            let r = x == y;
            return self.bool_const(r);
        }
        if self.sort(a) == Sort::Bool {
            let na = self.not(a);
            let nb = self.not(b);
            let both = self.and2(a, b);
            let neither = self.and2(na, nb);
            return self.or2(both, neither);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermKind::Eq(a, b), Sort::Bool)
    }

    /// Disequality `a ≠ b`, encoded as `¬(a = b)`.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Strict integer comparison `a < b` with constant folding.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), Sort::Int);
        debug_assert_eq!(self.sort(b), Sort::Int);
        if a == b {
            return self.fls();
        }
        if let (TermKind::IntConst(x), TermKind::IntConst(y)) = (self.kind(a), self.kind(b)) {
            let r = x < y;
            return self.bool_const(r);
        }
        self.intern(TermKind::Lt(a, b), Sort::Bool)
    }

    /// Non-strict integer comparison `a ≤ b` with constant folding.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), Sort::Int);
        debug_assert_eq!(self.sort(b), Sort::Int);
        if a == b {
            return self.tru();
        }
        if let (TermKind::IntConst(x), TermKind::IntConst(y)) = (self.kind(a), self.kind(b)) {
            let r = x <= y;
            return self.bool_const(r);
        }
        self.intern(TermKind::Le(a, b), Sort::Bool)
    }

    /// Strict integer comparison `a > b`, encoded as `b < a`.
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.lt(b, a)
    }

    /// Non-strict integer comparison `a ≥ b`, encoded as `b ≤ a`.
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// N-ary integer addition with flattening and constant folding.
    ///
    /// Constants are accumulated exactly (in `i128`): the term algebra
    /// models unbounded integers, matching the linear theory, so a sum
    /// like `i64::MAX + 1` must *not* wrap to `i64::MIN`. When the exact
    /// constant does not fit in one `i64` literal it is kept as several
    /// in-range literals whose exact sum is the accumulated value.
    pub fn add(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat: Vec<TermId> = Vec::new();
        let mut konst: i128 = 0;
        for t in ts {
            match self.kind(t) {
                TermKind::IntConst(v) => konst += i128::from(*v),
                TermKind::Add(children) => {
                    for &c in children {
                        if let TermKind::IntConst(v) = self.kind(c) {
                            konst += i128::from(*v);
                        } else {
                            flat.push(c);
                        }
                    }
                }
                _ => flat.push(t),
            }
        }
        let mut consts: Vec<i64> = Vec::new();
        while konst > i128::from(i64::MAX) {
            consts.push(i64::MAX);
            konst -= i128::from(i64::MAX);
        }
        while konst < i128::from(i64::MIN) {
            consts.push(i64::MIN);
            konst -= i128::from(i64::MIN);
        }
        let rem = konst as i64;
        if rem != 0 || (flat.is_empty() && consts.is_empty()) {
            consts.push(rem);
        }
        for c in consts {
            let k = self.int(c);
            flat.push(k);
        }
        flat.sort_unstable();
        match flat.len() {
            1 => flat[0],
            _ => self.intern(TermKind::Add(flat), Sort::Int),
        }
    }

    /// Binary integer addition.
    pub fn add2(&mut self, a: TermId, b: TermId) -> TermId {
        self.add([a, b])
    }

    /// Integer subtraction with constant folding and `a - a = 0`.
    ///
    /// A constant difference that would leave the `i64` literal range is
    /// left symbolic (the linear theory evaluates it exactly in `i128`)
    /// rather than folded with wraparound.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.int(0);
        }
        if let (TermKind::IntConst(x), TermKind::IntConst(y)) = (self.kind(a), self.kind(b)) {
            if let Some(v) = x.checked_sub(*y) {
                return self.int(v);
            }
            return self.intern(TermKind::Sub(a, b), Sort::Int);
        }
        if let TermKind::IntConst(0) = self.kind(b) {
            return a;
        }
        self.intern(TermKind::Sub(a, b), Sort::Int)
    }

    /// Integer multiplication with constant folding and unit/zero laws.
    ///
    /// An out-of-range constant product stays symbolic instead of
    /// wrapping, keeping folds consistent with the theory's exact
    /// arithmetic.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        if let (TermKind::IntConst(x), TermKind::IntConst(y)) = (self.kind(a), self.kind(b)) {
            if let Some(v) = x.checked_mul(*y) {
                return self.int(v);
            }
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            return self.intern(TermKind::Mul(a, b), Sort::Int);
        }
        for (k, other) in [(a, b), (b, a)] {
            match self.kind(k) {
                TermKind::IntConst(0) => return self.int(0),
                TermKind::IntConst(1) => return other,
                _ => {}
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermKind::Mul(a, b), Sort::Int)
    }

    /// Integer negation with folding. `-i64::MIN` has no `i64`
    /// representation and stays symbolic.
    pub fn neg(&mut self, a: TermId) -> TermId {
        match self.kind(a) {
            TermKind::IntConst(v) => match v.checked_neg() {
                Some(v) => self.int(v),
                None => self.intern(TermKind::Neg(a), Sort::Int),
            },
            TermKind::Neg(inner) => *inner,
            _ => self.intern(TermKind::Neg(a), Sort::Int),
        }
    }

    /// Returns `true` if `t` is the constant `true`.
    pub fn is_true(&self, t: TermId) -> bool {
        matches!(self.kind(t), TermKind::BoolConst(true))
    }

    /// Returns `true` if `t` is the constant `false`.
    pub fn is_false(&self, t: TermId) -> bool {
        matches!(self.kind(t), TermKind::BoolConst(false))
    }

    /// Returns `true` if `t` is an *atomic constraint* in the paper's sense
    /// (§3.1.1): a boolean term that is not built from `∧`, `∨`, `¬`.
    pub fn is_atom(&self, t: TermId) -> bool {
        self.sort(t) == Sort::Bool
            && !matches!(
                self.kind(t),
                TermKind::And(_) | TermKind::Or(_) | TermKind::Not(_) | TermKind::BoolConst(_)
            )
    }

    /// Returns a checkpoint mark for [`TermArena::truncate_to`].
    ///
    /// Terms created after `mark()` can be dropped wholesale, restoring
    /// the arena to exactly its current state. This is what lets the
    /// detection stage give every source site a private scratch region in
    /// an otherwise shared arena.
    pub fn mark(&self) -> TermMark {
        TermMark(self.len())
    }

    /// Drops every term created after `mark`, including its hash-consing
    /// entry. Cost is linear in the number of *dropped* terms, not the
    /// arena size.
    ///
    /// # Panics
    ///
    /// Panics if `mark` came from a different (or longer) arena, or if it
    /// would truncate into an overlay's immutable base.
    pub fn truncate_to(&mut self, mark: TermMark) {
        assert!(mark.0 <= self.len(), "mark beyond arena length");
        assert!(
            mark.0 >= self.base_len,
            "mark would truncate into the shared base arena"
        );
        let local = mark.0 - self.base_len;
        for kind in self.terms.drain(local..) {
            self.consed.remove(&kind);
        }
        self.sorts.truncate(local);
    }

    /// Pretty-prints a term as an S-expression.
    pub fn display(&self, t: TermId) -> String {
        let mut s = String::new();
        self.write_sexpr(t, &mut s);
        s
    }

    fn write_sexpr(&self, t: TermId, out: &mut String) {
        use std::fmt::Write;
        match self.kind(t) {
            TermKind::BoolConst(b) => {
                let _ = write!(out, "{b}");
            }
            TermKind::IntConst(v) => {
                let _ = write!(out, "{v}");
            }
            TermKind::Var(name, _) => out.push_str(name),
            TermKind::Not(x) => {
                out.push_str("(not ");
                self.write_sexpr(*x, out);
                out.push(')');
            }
            TermKind::And(xs) => self.write_nary("and", xs, out),
            TermKind::Or(xs) => self.write_nary("or", xs, out),
            TermKind::Add(xs) => self.write_nary("+", xs, out),
            TermKind::Ite(c, a, b) => {
                out.push_str("(ite ");
                self.write_sexpr(*c, out);
                out.push(' ');
                self.write_sexpr(*a, out);
                out.push(' ');
                self.write_sexpr(*b, out);
                out.push(')');
            }
            TermKind::Eq(a, b) => self.write_bin("=", *a, *b, out),
            TermKind::Lt(a, b) => self.write_bin("<", *a, *b, out),
            TermKind::Le(a, b) => self.write_bin("<=", *a, *b, out),
            TermKind::Sub(a, b) => self.write_bin("-", *a, *b, out),
            TermKind::Mul(a, b) => self.write_bin("*", *a, *b, out),
            TermKind::Neg(a) => {
                out.push_str("(- ");
                self.write_sexpr(*a, out);
                out.push(')');
            }
        }
    }

    fn write_nary(&self, op: &str, xs: &[TermId], out: &mut String) {
        out.push('(');
        out.push_str(op);
        for &x in xs {
            out.push(' ');
            self.write_sexpr(x, out);
        }
        out.push(')');
    }

    fn write_bin(&self, op: &str, a: TermId, b: TermId, out: &mut String) {
        out.push('(');
        out.push_str(op);
        out.push(' ');
        self.write_sexpr(a, out);
        out.push(' ');
        self.write_sexpr(b, out);
        out.push(')');
    }
}

/// Opaque checkpoint of a [`TermArena`] (see [`TermArena::mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermMark(usize);

/// Rejection reasons for [`TermArena::push_raw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawTermError {
    /// The term references a child index that is not yet populated.
    ForwardReference,
    /// A structurally equal term already exists in the arena.
    Duplicate,
}

impl fmt::Display for RawTermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawTermError::ForwardReference => write!(f, "term references an unpopulated child"),
            RawTermError::Duplicate => write!(f, "structurally duplicate term"),
        }
    }
}

/// Imports terms from one arena into another, structurally.
///
/// Translation rebuilds each term through the target arena's smart
/// constructors rather than copying raw children: n-ary operators sort
/// their children by [`TermId`], so a term's stored shape is relative to
/// *its* arena's allocation order. Re-running the constructors
/// re-canonicalises against the target's order, which is what makes the
/// parallel pipeline deterministic — per-worker arenas can lay terms out
/// in any order, and the merge still produces one canonical shared arena.
///
/// A memo table makes repeated translation of a shared sub-DAG `O(1)`.
#[derive(Debug, Default)]
pub struct TermTranslator {
    /// Target id per source id (indexed by [`TermId::index`]); `None`
    /// until translated. Grows to the source arena's length on demand.
    memo: Vec<Option<TermId>>,
}

impl TermTranslator {
    /// Creates a translator with an empty memo table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Translates `t` from `src` into `dst`, returning the target id.
    pub fn translate(&mut self, src: &TermArena, dst: &mut TermArena, t: TermId) -> TermId {
        if let Some(&Some(done)) = self.memo.get(t.index()) {
            return done;
        }
        let many = |this: &mut Self, dst: &mut TermArena, xs: &[TermId]| -> Vec<TermId> {
            xs.iter().map(|&x| this.translate(src, dst, x)).collect()
        };
        let out = match src.kind(t) {
            TermKind::BoolConst(b) => dst.bool_const(*b),
            TermKind::IntConst(v) => dst.int(*v),
            TermKind::Var(name, sort) => dst.var(name.as_str(), *sort),
            TermKind::Not(x) => {
                let x = self.translate(src, dst, *x);
                dst.not(x)
            }
            TermKind::And(xs) => {
                let xs = many(self, dst, xs);
                dst.and(xs)
            }
            TermKind::Or(xs) => {
                let xs = many(self, dst, xs);
                dst.or(xs)
            }
            TermKind::Ite(c, a, b) => {
                let c = self.translate(src, dst, *c);
                let a = self.translate(src, dst, *a);
                let b = self.translate(src, dst, *b);
                dst.ite(c, a, b)
            }
            TermKind::Eq(a, b) => {
                let a = self.translate(src, dst, *a);
                let b = self.translate(src, dst, *b);
                dst.eq(a, b)
            }
            TermKind::Lt(a, b) => {
                let a = self.translate(src, dst, *a);
                let b = self.translate(src, dst, *b);
                dst.lt(a, b)
            }
            TermKind::Le(a, b) => {
                let a = self.translate(src, dst, *a);
                let b = self.translate(src, dst, *b);
                dst.le(a, b)
            }
            TermKind::Add(xs) => {
                let xs = many(self, dst, xs);
                dst.add(xs)
            }
            TermKind::Sub(a, b) => {
                let a = self.translate(src, dst, *a);
                let b = self.translate(src, dst, *b);
                dst.sub(a, b)
            }
            TermKind::Mul(a, b) => {
                let a = self.translate(src, dst, *a);
                let b = self.translate(src, dst, *b);
                dst.mul(a, b)
            }
            TermKind::Neg(a) => {
                let a = self.translate(src, dst, *a);
                dst.neg(a)
            }
        };
        if self.memo.len() < src.len() {
            self.memo.resize(src.len(), None);
        }
        self.memo[t.index()] = Some(out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut a = TermArena::new();
        let x1 = a.var("x", Sort::Int);
        let x2 = a.var("x", Sort::Int);
        assert_eq!(x1, x2);
        let y = a.var("y", Sort::Int);
        let e1 = a.eq(x1, y);
        let e2 = a.eq(y, x1);
        assert_eq!(e1, e2, "eq is canonically ordered");
    }

    #[test]
    fn and_simplifies_units_and_complements() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let t = a.tru();
        let f = a.fls();
        assert_eq!(a.and([p, t]), p);
        assert_eq!(a.and([p, f]), f);
        let np = a.not(p);
        let contradiction = a.and([p, np]);
        assert!(a.is_false(contradiction));
    }

    #[test]
    fn or_simplifies_units_and_complements() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let f = a.fls();
        assert_eq!(a.or([p, f]), p);
        let np = a.not(p);
        let taut = a.or([p, np]);
        assert!(a.is_true(taut));
    }

    #[test]
    fn and_flattens_nested() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let q = a.var("q", Sort::Bool);
        let r = a.var("r", Sort::Bool);
        let pq = a.and2(p, q);
        let pqr = a.and2(pq, r);
        match a.kind(pqr) {
            TermKind::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_folds_constants() {
        let mut a = TermArena::new();
        let two = a.int(2);
        let three = a.int(3);
        assert_eq!(a.add2(two, three), a.int(5));
        assert_eq!(a.mul(two, three), a.int(6));
        assert_eq!(a.sub(three, two), a.int(1));
        let x = a.var("x", Sort::Int);
        assert_eq!(a.sub(x, x), a.int(0));
        let zero = a.int(0);
        assert_eq!(a.mul(zero, x), a.int(0));
        let one = a.int(1);
        assert_eq!(a.mul(one, x), x);
    }

    #[test]
    fn boundary_folds_never_wrap() {
        // The term algebra models unbounded integers (as the linear
        // theory evaluates them); folding must not wrap at the i64
        // literal boundary.
        let mut a = TermArena::new();
        let max = a.int(i64::MAX);
        let min = a.int(i64::MIN);
        let one = a.int(1);
        let two = a.int(2);
        // MAX + 1 stays exact (an Add of in-range literals), not MIN.
        let over = a.add2(max, one);
        assert_ne!(over, min);
        assert!(matches!(a.kind(over), TermKind::Add(_)));
        // MIN - 1 stays symbolic, not MAX.
        let under = a.sub(min, one);
        assert_ne!(under, max);
        assert!(matches!(a.kind(under), TermKind::Sub(..)));
        // MAX * 2 stays symbolic, not -2.
        let dbl = a.mul(max, two);
        assert!(matches!(a.kind(dbl), TermKind::Mul(..)));
        // -MIN stays symbolic, not MIN.
        let negated = a.neg(min);
        assert_ne!(negated, min);
        assert!(matches!(a.kind(negated), TermKind::Neg(_)));
        // In-range folds still happen.
        let m1 = a.int(-1);
        let max_again = a.add2(over, m1);
        assert_eq!(max_again, max);
    }

    #[test]
    fn comparisons_fold() {
        let mut a = TermArena::new();
        let two = a.int(2);
        let three = a.int(3);
        let lt = a.lt(two, three);
        assert!(a.is_true(lt));
        let x = a.var("x", Sort::Int);
        let le_refl = a.le(x, x);
        assert!(a.is_true(le_refl));
        let lt_irrefl = a.lt(x, x);
        assert!(a.is_false(lt_irrefl));
    }

    #[test]
    fn ite_simplifies() {
        let mut a = TermArena::new();
        let c = a.var("c", Sort::Bool);
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let t = a.tru();
        assert_eq!(a.ite(t, x, y), x);
        assert_eq!(a.ite(c, x, x), x);
    }

    #[test]
    fn atoms_are_recognised() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let e = a.eq(x, zero);
        assert!(a.is_atom(p));
        assert!(a.is_atom(e));
        let np = a.not(p);
        assert!(!a.is_atom(np));
        let conj = a.and2(p, e);
        assert!(!a.is_atom(conj));
    }

    #[test]
    fn display_is_readable() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let atom = a.ne(x, zero);
        assert_eq!(a.display(atom), "(not (= x 0))");
    }

    #[test]
    fn truncate_restores_exact_state() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let base = a.eq(x, zero);
        let mark = a.mark();
        let len = a.len();
        let y = a.var("y", Sort::Int);
        let _scratch = a.lt(y, zero);
        assert!(a.len() > len);
        a.truncate_to(mark);
        assert_eq!(a.len(), len);
        // Pre-mark terms survive and still hash-cons to the same ids.
        assert_eq!(a.eq(x, zero), base);
        // The dropped var is genuinely gone: re-creating it allocates at
        // the old scratch position, proving the consed entry was removed.
        let y2 = a.var("y", Sort::Int);
        assert_eq!(y2.index(), len);
    }

    #[test]
    fn truncate_is_idempotent_at_mark() {
        let mut a = TermArena::new();
        let _ = a.var("x", Sort::Int);
        let mark = a.mark();
        a.truncate_to(mark);
        a.truncate_to(mark);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn overlay_behaves_like_a_clone() {
        use std::sync::Arc;
        let mut base = TermArena::new();
        let x = base.var("x", Sort::Int);
        let zero = base.int(0);
        let atom = base.eq(x, zero);
        let base_len = base.len();
        let shared = Arc::new(base);

        let mut cloned = (*shared).clone();
        let mut over = TermArena::overlay(Arc::clone(&shared));
        assert_eq!(over.len(), base_len);
        // Base terms hash-cons to their base ids.
        assert_eq!(over.eq(x, zero), atom);
        assert_eq!(over.sort(atom), Sort::Bool);
        // New terms allocate identically to a clone.
        let y_c = cloned.var("y", Sort::Int);
        let y_o = over.var("y", Sort::Int);
        assert_eq!(y_c, y_o);
        let lt_c = cloned.lt(y_c, zero);
        let lt_o = over.lt(y_o, zero);
        assert_eq!(lt_c, lt_o);
        assert_eq!(over.len(), cloned.len());
        assert_eq!(over.display(lt_o), cloned.display(lt_c));
        // kinds() streams base + local in id order.
        let ks: Vec<Sort> = over.kinds().map(|(_, s)| s).collect();
        let kc: Vec<Sort> = cloned.kinds().map(|(_, s)| s).collect();
        assert_eq!(ks, kc);
    }

    #[test]
    fn overlay_truncate_drops_only_local_terms() {
        use std::sync::Arc;
        let mut base = TermArena::new();
        let x = base.var("x", Sort::Int);
        let zero = base.int(0);
        let _ = base.eq(x, zero);
        let shared = Arc::new(base);
        let mut over = TermArena::overlay(Arc::clone(&shared));
        let mark = over.mark();
        let len = over.len();
        let y = over.var("y", Sort::Int);
        let _ = over.lt(y, zero);
        assert!(over.len() > len);
        over.truncate_to(mark);
        assert_eq!(over.len(), len);
        // Dropped local consed entries are gone; base entries survive.
        let y2 = over.var("y", Sort::Int);
        assert_eq!(y2.index(), len);
        assert_eq!(over.var("x", Sort::Int), x);
    }

    #[test]
    #[should_panic(expected = "shared base arena")]
    fn overlay_truncate_into_base_panics() {
        use std::sync::Arc;
        let mut base = TermArena::new();
        let mark = base.mark();
        let _ = base.var("x", Sort::Int);
        let mut over = TermArena::overlay(Arc::new(base));
        over.truncate_to(mark);
    }

    #[test]
    fn translation_rebuilds_canonically() {
        // Build the same conjunction in two arenas with opposite insertion
        // orders; translation into a common target must unify them.
        let mut a1 = TermArena::new();
        let p1 = a1.var("p", Sort::Bool);
        let q1 = a1.var("q", Sort::Bool);
        let and1 = a1.and2(p1, q1);

        let mut a2 = TermArena::new();
        let q2 = a2.var("q", Sort::Bool);
        let p2 = a2.var("p", Sort::Bool);
        let and2 = a2.and2(p2, q2);

        let mut target = TermArena::new();
        let t1 = TermTranslator::new().translate(&a1, &mut target, and1);
        let t2 = TermTranslator::new().translate(&a2, &mut target, and2);
        assert_eq!(t1, t2, "cross-arena structural identity");
    }

    #[test]
    fn translation_memo_reuses_shared_subterms() {
        let mut src = TermArena::new();
        let x = src.var("x", Sort::Int);
        let zero = src.int(0);
        let e = src.eq(x, zero);
        let ne = src.not(e);
        let both = src.and2(e, ne); // folds to false in src already
        let mut dst = TermArena::new();
        let mut tr = TermTranslator::new();
        let t = tr.translate(&src, &mut dst, both);
        assert!(dst.is_false(t));
        let te = tr.translate(&src, &mut dst, e);
        assert_eq!(dst.display(te), "(= x 0)");
    }
}
