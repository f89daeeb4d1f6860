//! Theory reasoning for the lazy DPLL(T) loop.
//!
//! Two cooperating decision procedures check a conjunction of asserted
//! theory literals for consistency:
//!
//! * **EUF**: congruence closure over the term DAG. Asserted equalities
//!   merge classes; congruent applications (same kind, class-equal
//!   children) are merged transitively; an asserted disequality whose
//!   sides end up in the same class is a conflict.
//! * **Linear integer arithmetic**: atoms are normalised into linear
//!   inequalities `Σ cᵢ·bᵢ ≤ k` over *base* terms (variables and opaque
//!   non-linear subterms) and checked by Fourier–Motzkin elimination over
//!   the rationals, with disequality handling by entailment probing.
//!
//! The combination is deliberately partial (no full Nelson–Oppen equality
//! propagation, rational relaxation of integer constraints): the solver may
//! answer *consistent* for a conjunction that is integer-infeasible in a
//! corner case, which in Pinpoint's setting can only produce a spurious
//! report, never a missed one along an explored path. Both procedures are
//! complete for the conflicts the analysis actually generates (value-flow
//! equalities, branch atoms, null/range comparisons).
//!
//! A DPLL(T) query asks about the same atoms in every round and only their
//! polarities change, so the work that depends on the atoms alone lives in
//! a `TheoryContext` built once per query: the subterm closure of the
//! `Eq` atoms, indexed densely for a `Vec` union–find, and each literal's
//! arithmetic rows, normalised once. A round then only merges, closes and
//! eliminates. [`check_conjunction`] is a context built for one check.

use crate::term::{Sort, TermArena, TermId, TermKind};
use std::borrow::Cow;
use std::collections::HashMap;

/// An asserted theory literal: an atom and its assigned polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TheoryLit {
    /// The atomic constraint (see [`TermArena::is_atom`]).
    pub atom: TermId,
    /// `true` if asserted positively.
    pub positive: bool,
}

/// Verdict of a theory consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// The conjunction of asserted literals is theory-consistent (up to the
    /// documented incompleteness).
    Consistent,
    /// The conjunction is inconsistent.
    Conflict,
}

/// Calls `f` on each child of `t`, in the order congruence compares them.
fn for_each_child(arena: &TermArena, t: TermId, mut f: impl FnMut(TermId)) {
    match arena.kind(t) {
        TermKind::Not(a) | TermKind::Neg(a) => f(*a),
        TermKind::Eq(a, b)
        | TermKind::Lt(a, b)
        | TermKind::Le(a, b)
        | TermKind::Sub(a, b)
        | TermKind::Mul(a, b) => {
            f(*a);
            f(*b);
        }
        TermKind::Ite(c, a, b) => {
            f(*c);
            f(*a);
            f(*b);
        }
        TermKind::And(xs) | TermKind::Or(xs) | TermKind::Add(xs) => xs.iter().copied().for_each(f),
        TermKind::BoolConst(_) | TermKind::IntConst(_) | TermKind::Var(..) => {}
    }
}

/// Structural tag used to detect congruent applications.
fn op_tag(arena: &TermArena, t: TermId) -> Option<u8> {
    match arena.kind(t) {
        TermKind::Not(_) => Some(1),
        TermKind::Neg(_) => Some(2),
        TermKind::Eq(..) => Some(3),
        TermKind::Lt(..) => Some(4),
        TermKind::Le(..) => Some(5),
        TermKind::Sub(..) => Some(6),
        TermKind::Mul(..) => Some(7),
        TermKind::Ite(..) => Some(8),
        TermKind::Add(_) => Some(9),
        TermKind::And(_) => Some(10),
        TermKind::Or(_) => Some(11),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Linear integer arithmetic (Fourier–Motzkin over rationals)
// ---------------------------------------------------------------------------

/// A linear expression `Σ coeff·base + constant` over opaque base terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LinExpr {
    coeffs: Vec<(TermId, i128)>, // sorted by TermId, nonzero coeffs
    constant: i128,
}

impl LinExpr {
    fn constant(v: i128) -> Self {
        LinExpr {
            coeffs: Vec::new(),
            constant: v,
        }
    }

    fn base(t: TermId) -> Self {
        LinExpr {
            coeffs: vec![(t, 1)],
            constant: 0,
        }
    }

    /// Scales by `k` with checked `i128` arithmetic. `None` means the
    /// coefficients left the `i128` range — callers treat that as "give
    /// up, assume feasible" (consistent-biased, like [`FM_LIMIT`]).
    fn scale(&self, k: i128) -> Option<Self> {
        if k == 0 {
            return Some(LinExpr::constant(0));
        }
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for &(t, c) in &self.coeffs {
            coeffs.push((t, c.checked_mul(k)?));
        }
        Some(LinExpr {
            coeffs,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// Adds two expressions with checked `i128` arithmetic.
    fn add(&self, other: &LinExpr) -> Option<Self> {
        let mut out = Vec::with_capacity(self.coeffs.len() + other.coeffs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.coeffs.len() && j < other.coeffs.len() {
            let (ta, ca) = self.coeffs[i];
            let (tb, cb) = other.coeffs[j];
            match ta.cmp(&tb) {
                std::cmp::Ordering::Less => {
                    out.push((ta, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((tb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = ca.checked_add(cb)?;
                    if c != 0 {
                        out.push((ta, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.coeffs[i..]);
        out.extend_from_slice(&other.coeffs[j..]);
        Some(LinExpr {
            coeffs: out,
            constant: self.constant.checked_add(other.constant)?,
        })
    }

    fn sub(&self, other: &LinExpr) -> Option<Self> {
        self.add(&other.scale(-1)?)
    }

    fn is_const(&self) -> bool {
        self.coeffs.is_empty()
    }
}

/// Linearises an integer term; non-linear subterms become opaque bases.
/// A subterm whose exact coefficients overflow `i128` also goes opaque —
/// losing precision (the solver may call an infeasible conjunction
/// feasible), never soundness.
fn linearize(arena: &TermArena, t: TermId) -> LinExpr {
    try_linearize(arena, t).unwrap_or_else(|| LinExpr::base(t))
}

fn try_linearize(arena: &TermArena, t: TermId) -> Option<LinExpr> {
    match arena.kind(t) {
        TermKind::IntConst(v) => Some(LinExpr::constant(i128::from(*v))),
        TermKind::Add(xs) => {
            let mut acc = LinExpr::constant(0);
            for &x in xs {
                acc = acc.add(&linearize(arena, x))?;
            }
            Some(acc)
        }
        TermKind::Sub(a, b) => linearize(arena, *a).sub(&linearize(arena, *b)),
        TermKind::Neg(a) => linearize(arena, *a).scale(-1),
        TermKind::Mul(a, b) => {
            let la = linearize(arena, *a);
            let lb = linearize(arena, *b);
            if la.is_const() {
                lb.scale(la.constant)
            } else if lb.is_const() {
                la.scale(lb.constant)
            } else {
                Some(LinExpr::base(t)) // opaque non-linear product
            }
        }
        _ => Some(LinExpr::base(t)), // Var, Ite, … opaque
    }
}

/// Maximum number of constraints Fourier–Motzkin may generate before the
/// check gives up and assumes consistency (documented incompleteness).
const FM_LIMIT: usize = 20_000;

/// Checks `rows` (each `e ≤ 0`) for rational feasibility. The row order
/// decides which variable goes first and so where [`FM_LIMIT`] and
/// coefficient overflow give up; callers pass rows in literal order.
fn fm_feasible(mut rows: Vec<Cow<'_, LinExpr>>) -> bool {
    loop {
        // A constant row `k ≤ 0` is violated iff `k > 0`; a satisfied one
        // says nothing.
        let mut violated = false;
        rows.retain(|e| {
            if e.is_const() {
                violated |= e.constant > 0;
                false
            } else {
                true
            }
        });
        if violated {
            return false;
        }
        // Eliminate the first variable of the first row.
        let Some(v) = rows.first().map(|e| e.coeffs[0].0) else {
            return true;
        };
        let mut lower: Vec<Cow<'_, LinExpr>> = Vec::new(); // coeff(v) < 0
        let mut upper: Vec<Cow<'_, LinExpr>> = Vec::new(); // coeff(v) > 0
        let mut rest: Vec<Cow<'_, LinExpr>> = Vec::new();
        for e in rows {
            match coeff_of(&e, v) {
                c if c > 0 => upper.push(e),
                c if c < 0 => lower.push(e),
                _ => rest.push(e),
            }
        }
        if lower.len() * upper.len() + rest.len() > FM_LIMIT {
            return true; // give up: assume feasible
        }
        for lo in &lower {
            let cl = -coeff_of(lo, v); // > 0
            for up in &upper {
                let cu = coeff_of(up, v); // > 0
                                          // cl*up + cu*lo eliminates v: (cu*lo + cl*up) ≤ 0.
                let Some(combined) = up.scale(cl).and_then(|u| u.add(&lo.scale(cu)?)) else {
                    return true; // coefficient overflow: give up, assume feasible
                };
                debug_assert_eq!(coeff_of(&combined, v), 0);
                if combined.is_const() {
                    if combined.constant > 0 {
                        return false;
                    }
                } else {
                    rest.push(Cow::Owned(combined));
                }
            }
        }
        rows = rest;
    }
}

fn coeff_of(e: &LinExpr, v: TermId) -> i128 {
    e.coeffs
        .iter()
        .find(|&&(t, _)| t == v)
        .map_or(0, |&(_, c)| c)
}

// ---------------------------------------------------------------------------
// The per-query context
// ---------------------------------------------------------------------------

/// What asserting one polarity of an atom adds to the arithmetic check.
/// All or nothing per literal: a literal whose normalisation overflows
/// `i128` adds nothing — the conjunction gets weaker, so the verdict can
/// only err toward Consistent (the documented safe direction).
#[derive(Debug)]
enum Arith {
    /// Not an integer comparison, or normalisation overflowed.
    Nothing,
    /// Rows `e ≤ 0`, in push order.
    Rows(Vec<LinExpr>),
    /// `e ≠ 0`, with its entailment probes `1 - e ≤ 0` and `e + 1 ≤ 0`
    /// (`None` if building either overflowed: the probe is skipped).
    Diseq(LinExpr, Option<(LinExpr, LinExpr)>),
}

impl Arith {
    fn row(e: Option<LinExpr>) -> Self {
        e.map_or(Arith::Nothing, |e| Arith::Rows(vec![e]))
    }

    /// The contributions of `atom` asserted positively and negatively.
    fn of(arena: &TermArena, atom: TermId) -> (Arith, Arith) {
        let (a, b) = match arena.kind(atom) {
            TermKind::Lt(a, b) | TermKind::Le(a, b) => (*a, *b),
            TermKind::Eq(a, b) if arena.sort(*a) == Sort::Int => (*a, *b),
            _ => return (Arith::Nothing, Arith::Nothing),
        };
        let Some(e) = linearize(arena, a).sub(&linearize(arena, b)) else {
            return (Arith::Nothing, Arith::Nothing);
        };
        let one = LinExpr::constant(1);
        match arena.kind(atom) {
            // a < b ⇔ a - b + 1 ≤ 0 (integers); ¬(a < b) ⇔ b - a ≤ 0.
            TermKind::Lt(..) => (Arith::row(e.add(&one)), Arith::row(e.scale(-1))),
            // a ≤ b ⇔ a - b ≤ 0; ¬(a ≤ b) ⇔ b < a ⇔ b - a + 1 ≤ 0.
            TermKind::Le(..) => {
                let strict = e.scale(-1).and_then(|n| n.add(&one));
                (Arith::Rows(vec![e]), Arith::row(strict))
            }
            // a = b ⇔ a - b ≤ 0 ∧ b - a ≤ 0.
            _ => {
                let both = match e.scale(-1) {
                    Some(n) => Arith::Rows(vec![e.clone(), n]),
                    None => Arith::Nothing,
                };
                let probes = one.sub(&e).zip(e.add(&one));
                (both, Arith::Diseq(e, probes))
            }
        }
    }
}

/// One atom of a `TheoryContext`, resolved for both polarities.
#[derive(Debug)]
struct AtomFacts {
    /// The sides of an `Eq` atom, as nodes of the context's closure.
    eq: Option<(u32, u32)>,
    pos: Arith,
    neg: Arith,
}

/// The theory state of one query, built once from its atoms and checked
/// once per DPLL(T) round against that round's polarities.
///
/// Verdicts are those of checking the asserted literals from scratch: the
/// congruence closure is the least congruence containing the asserted
/// equalities, so it depends neither on merge order nor on the closure
/// holding the subterms of unasserted atoms too, and the arithmetic rows
/// reach Fourier–Motzkin in literal order, exactly as normalised.
#[derive(Debug)]
pub(crate) struct TheoryContext {
    atoms: Vec<AtomFacts>,
    /// Op tag per closure node (`0`: a leaf, never congruent to anything).
    tags: Vec<u8>,
    /// Node `i`'s children are `kids[kid_off[i]..kid_off[i + 1]]`.
    kid_off: Vec<u32>,
    kids: Vec<u32>,
    /// Tagged nodes sharing their `(tag, arity)` with another: the only
    /// candidates for a congruence merge.
    apps: Vec<u32>,
    /// Integer-constant nodes; distinct constants must stay apart.
    consts: Vec<u32>,
    // Per-round scratch, kept to avoid reallocating.
    parent: Vec<u32>,
    root: Vec<u32>,
    order: Vec<u32>,
    /// Classes already holding an integer constant.
    taken: Vec<bool>,
}

impl TheoryContext {
    /// Builds the context of `atoms` (theory atoms, in the order their
    /// literals are asserted; other terms contribute nothing).
    pub(crate) fn new(arena: &TermArena, atoms: &[TermId]) -> Self {
        // Dense index of the subterm closure of every `Eq` atom's sides.
        let mut index: HashMap<TermId, u32> = HashMap::new();
        let mut terms: Vec<TermId> = Vec::new();
        let mut stack: Vec<TermId> = Vec::new();
        for &atom in atoms {
            if let TermKind::Eq(a, b) = arena.kind(atom) {
                stack.push(*a);
                stack.push(*b);
            }
        }
        // Node and child counts are bounded by the arena's `u32` ids.
        let dense = |n: usize| u32::try_from(n).expect("closure indexable by u32");
        while let Some(t) = stack.pop() {
            if let std::collections::hash_map::Entry::Vacant(e) = index.entry(t) {
                e.insert(dense(terms.len()));
                terms.push(t);
                for_each_child(arena, t, |c| stack.push(c));
            }
        }
        let mut cx = TheoryContext {
            atoms: Vec::with_capacity(atoms.len()),
            tags: Vec::with_capacity(terms.len()),
            kid_off: vec![0],
            kids: Vec::new(),
            apps: Vec::new(),
            consts: Vec::new(),
            parent: Vec::new(),
            root: Vec::new(),
            order: Vec::new(),
            taken: Vec::new(),
        };
        for (i, &t) in terms.iter().enumerate() {
            cx.tags.push(op_tag(arena, t).unwrap_or(0));
            for_each_child(arena, t, |c| cx.kids.push(index[&c]));
            cx.kid_off.push(dense(cx.kids.len()));
            if matches!(arena.kind(t), TermKind::IntConst(_)) {
                cx.consts.push(dense(i));
            }
        }
        let shape = |i: usize| (cx.tags[i], cx.kid_off[i + 1] - cx.kid_off[i]);
        let mut shapes: HashMap<(u8, u32), u32> = HashMap::new();
        for i in (0..terms.len()).filter(|&i| cx.tags[i] != 0) {
            *shapes.entry(shape(i)).or_default() += 1;
        }
        let apps: Vec<u32> = (0..terms.len())
            .filter(|&i| cx.tags[i] != 0 && shapes[&shape(i)] > 1)
            .map(dense)
            .collect();
        cx.apps = apps;
        for &atom in atoms {
            let eq = match arena.kind(atom) {
                TermKind::Eq(a, b) => Some((index[a], index[b])),
                _ => None,
            };
            let (pos, neg) = Arith::of(arena, atom);
            cx.atoms.push(AtomFacts { eq, pos, neg });
        }
        cx
    }

    /// Checks the conjunction that asserts atom `i` with polarity
    /// `polarity[i]` (`None`: not asserted).
    ///
    /// # Panics
    ///
    /// Panics unless there is one polarity per atom.
    pub(crate) fn check(&mut self, polarity: &[Option<bool>]) -> TheoryVerdict {
        assert_eq!(polarity.len(), self.atoms.len(), "one polarity per atom");
        if self.euf_conflict(polarity) || self.arith_conflict(polarity) {
            TheoryVerdict::Conflict
        } else {
            TheoryVerdict::Consistent
        }
    }

    fn euf_conflict(&mut self, polarity: &[Option<bool>]) -> bool {
        let n = self.tags.len() as u32;
        self.parent.clear();
        self.parent.extend(0..n);
        let mut merged = false;
        for (facts, pol) in self.atoms.iter().zip(polarity) {
            if let (Some((a, b)), Some(true)) = (facts.eq, pol) {
                union(&mut self.parent, a, b);
                merged = true;
            }
        }
        if !merged {
            // Disequalities alone conflict only via reflexivity, which the
            // arena already folds (eq(a, a) = true); nothing to do.
            return false;
        }
        self.close_congruence();
        for (facts, pol) in self.atoms.iter().zip(polarity) {
            if let (Some((a, b)), Some(false)) = (facts.eq, pol) {
                if find(&mut self.parent, a) == find(&mut self.parent, b) {
                    return true;
                }
            }
        }
        self.taken.clear();
        self.taken.resize(n as usize, false);
        for &c in &self.consts {
            let r = find(&mut self.parent, c) as usize;
            if std::mem::replace(&mut self.taken[r], true) {
                return true;
            }
        }
        false
    }

    /// Merges congruent applications until none are left: each pass sorts
    /// the candidates by signature (tag, arity, the children's classes)
    /// and merges neighbours with equal signatures.
    fn close_congruence(&mut self) {
        let TheoryContext {
            tags,
            kid_off,
            kids,
            apps,
            parent,
            root,
            order,
            ..
        } = self;
        let kids_of =
            |x: u32| &kids[kid_off[x as usize] as usize..kid_off[x as usize + 1] as usize];
        loop {
            root.clear();
            for x in 0..tags.len() as u32 {
                root.push(find(parent, x));
            }
            let signature = |x: u32| {
                let ks = kids_of(x);
                let classes = ks.iter().map(|&k| root[k as usize]);
                (tags[x as usize], ks.len(), classes)
            };
            order.clear();
            order.extend_from_slice(apps);
            order.sort_unstable_by(|&x, &y| {
                let (tx, nx, cx) = signature(x);
                let (ty, ny, cy) = signature(y);
                tx.cmp(&ty).then(nx.cmp(&ny)).then_with(|| cx.cmp(cy))
            });
            let mut changed = false;
            for w in order.windows(2) {
                let (tx, nx, cx) = signature(w[0]);
                let (ty, ny, cy) = signature(w[1]);
                if tx == ty && nx == ny && cx.eq(cy) {
                    changed |= union(parent, w[0], w[1]);
                }
            }
            if !changed {
                return;
            }
        }
    }

    fn arith_conflict(&self, polarity: &[Option<bool>]) -> bool {
        let mut rows: Vec<Cow<'_, LinExpr>> = Vec::new();
        let mut diseqs: Vec<(&LinExpr, &Option<(LinExpr, LinExpr)>)> = Vec::new();
        for (facts, pol) in self.atoms.iter().zip(polarity) {
            let arith = match pol {
                Some(true) => &facts.pos,
                Some(false) => &facts.neg,
                None => continue,
            };
            match arith {
                Arith::Nothing => {}
                Arith::Rows(rs) => rows.extend(rs.iter().map(Cow::Borrowed)),
                Arith::Diseq(e, probes) => diseqs.push((e, probes)),
            }
        }
        if diseqs.iter().any(|(e, _)| e.is_const() && e.constant == 0) {
            return true;
        }
        if !fm_feasible(rows.clone()) {
            return true;
        }
        // Disequality handling: e ≠ 0 conflicts iff the inequalities entail
        // e = 0, i.e. both (e ≥ 1) and (e ≤ -1) are infeasible additions.
        diseqs.iter().any(|&(e, probes)| match probes {
            Some((ge_one, le_neg_one)) if !e.is_const() => [ge_one, le_neg_one].iter().all(|&p| {
                let mut with = rows.clone();
                with.push(Cow::Borrowed(p));
                !fm_feasible(with)
            }),
            _ => false,
        })
    }
}

/// Union–find root of `x`, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Merges the classes of `a` and `b`; `true` if they were apart.
fn union(parent: &mut [u32], a: u32, b: u32) -> bool {
    let (ra, rb) = (find(parent, a), find(parent, b));
    parent[ra as usize] = rb;
    ra != rb
}

/// Checks the conjunction of `lits` for consistency in EUF + linear
/// integer arithmetic: a `TheoryContext` over the literals' atoms,
/// checked once.
///
/// # Examples
///
/// ```
/// use pinpoint_smt::term::{Sort, TermArena};
/// use pinpoint_smt::theory::{check_conjunction, TheoryLit, TheoryVerdict};
///
/// let mut arena = TermArena::new();
/// let x = arena.var("x", Sort::Int);
/// let y = arena.var("y", Sort::Int);
/// let lt = arena.lt(x, y);
/// let gt = arena.lt(y, x);
/// let lits = [
///     TheoryLit { atom: lt, positive: true },
///     TheoryLit { atom: gt, positive: true },
/// ];
/// assert_eq!(check_conjunction(&arena, &lits), TheoryVerdict::Conflict);
/// ```
pub fn check_conjunction(arena: &TermArena, lits: &[TheoryLit]) -> TheoryVerdict {
    let atoms: Vec<TermId> = lits.iter().map(|l| l.atom).collect();
    let polarity: Vec<Option<bool>> = lits.iter().map(|l| Some(l.positive)).collect();
    TheoryContext::new(arena, &atoms).check(&polarity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn pos(atom: TermId) -> TheoryLit {
        TheoryLit {
            atom,
            positive: true,
        }
    }

    fn neg(atom: TermId) -> TheoryLit {
        TheoryLit {
            atom,
            positive: false,
        }
    }

    #[test]
    fn euf_transitivity_conflict() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let z = a.var("z", Sort::Int);
        let xy = a.eq(x, y);
        let yz = a.eq(y, z);
        let xz = a.eq(x, z);
        let lits = [pos(xy), pos(yz), neg(xz)];
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }

    #[test]
    fn euf_congruence_conflict() {
        // x = y ∧ x+1 ≠ y+1 is a congruence conflict.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let one = a.int(1);
        let x1 = a.add2(x, one);
        let y1 = a.add2(y, one);
        let xy = a.eq(x, y);
        let fx_fy = a.eq(x1, y1);
        let lits = [pos(xy), neg(fx_fy)];
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }

    #[test]
    fn distinct_constants_conflict() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let one = a.int(1);
        let e0 = a.eq(x, zero);
        let e1 = a.eq(x, one);
        let lits = [pos(e0), pos(e1)];
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }

    #[test]
    fn arith_cycle_conflict() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let lt = a.lt(x, y);
        let gt = a.lt(y, x);
        assert_eq!(
            check_conjunction(&a, &[pos(lt), pos(gt)]),
            TheoryVerdict::Conflict
        );
    }

    #[test]
    fn arith_bounds_consistent() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let ten = a.int(10);
        let lo = a.le(zero, x);
        let hi = a.le(x, ten);
        assert_eq!(
            check_conjunction(&a, &[pos(lo), pos(hi)]),
            TheoryVerdict::Consistent
        );
    }

    #[test]
    fn arith_bounds_conflict() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let ten = a.int(10);
        let hi = a.lt(x, zero);
        let lo = a.lt(ten, x);
        assert_eq!(
            check_conjunction(&a, &[pos(lo), pos(hi)]),
            TheoryVerdict::Conflict
        );
    }

    #[test]
    fn diseq_squeeze_conflict() {
        // 0 ≤ x ∧ x ≤ 0 ∧ x ≠ 0 is a conflict.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let lo = a.le(zero, x);
        let hi = a.le(x, zero);
        let eq = a.eq(x, zero);
        let lits = [pos(lo), pos(hi), neg(eq)];
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }

    #[test]
    fn diseq_alone_consistent() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let eq = a.eq(x, zero);
        assert_eq!(check_conjunction(&a, &[neg(eq)]), TheoryVerdict::Consistent);
    }

    #[test]
    fn equality_chain_feeds_arith() {
        // x = y ∧ y = 5 ∧ x < 3: arithmetic must see the chain.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let five = a.int(5);
        let three = a.int(3);
        let xy = a.eq(x, y);
        let y5 = a.eq(y, five);
        let x3 = a.lt(x, three);
        let lits = [pos(xy), pos(y5), pos(x3)];
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }

    #[test]
    fn negated_le_is_strict_gt() {
        // ¬(x ≤ 5) ∧ x ≤ 5 → conflict (checks both polarities wired right).
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let five = a.int(5);
        let le = a.le(x, five);
        assert_eq!(
            check_conjunction(&a, &[pos(le), neg(le)]),
            TheoryVerdict::Conflict
        );
    }

    #[test]
    fn integer_strictness_used() {
        // x < y ∧ y < x+2 ∧ x ≠ ... fine; but x < y ∧ y < x+1 is an
        // integer conflict that the +1 encoding catches.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let one = a.int(1);
        let x1 = a.add2(x, one);
        let l1 = a.lt(x, y);
        let l2 = a.lt(y, x1);
        assert_eq!(
            check_conjunction(&a, &[pos(l1), pos(l2)]),
            TheoryVerdict::Conflict
        );
    }

    #[test]
    fn empty_conjunction_consistent() {
        let a = TermArena::new();
        assert_eq!(check_conjunction(&a, &[]), TheoryVerdict::Consistent);
    }

    #[test]
    fn nonlinear_products_are_opaque() {
        // x*y = 1 ∧ x*y = 2 conflicts via the opaque base (same product).
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let xy = a.mul(x, y);
        let one = a.int(1);
        let two = a.int(2);
        let e1 = a.eq(xy, one);
        let e2 = a.eq(xy, two);
        assert_eq!(
            check_conjunction(&a, &[pos(e1), pos(e2)]),
            TheoryVerdict::Conflict
        );
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use crate::term::{Sort, TermArena};

    fn pos(atom: crate::term::TermId) -> TheoryLit {
        TheoryLit {
            atom,
            positive: true,
        }
    }

    #[test]
    fn long_strict_chain_cycle_conflicts() {
        // x0 < x1 < … < x9 < x0 is a conflict FM must find after
        // eliminating nine variables.
        let mut a = TermArena::new();
        let xs: Vec<_> = (0..10).map(|i| a.var(format!("x{i}"), Sort::Int)).collect();
        let mut lits = Vec::new();
        for w in xs.windows(2) {
            let l = a.lt(w[0], w[1]);
            lits.push(pos(l));
        }
        let back = a.lt(xs[9], xs[0]);
        lits.push(pos(back));
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }

    #[test]
    fn long_chain_without_cycle_is_consistent() {
        let mut a = TermArena::new();
        let xs: Vec<_> = (0..10).map(|i| a.var(format!("x{i}"), Sort::Int)).collect();
        let lits: Vec<TheoryLit> = xs
            .windows(2)
            .map(|w| {
                let l = a.lt(w[0], w[1]);
                pos(l)
            })
            .collect();
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Consistent);
    }

    #[test]
    fn coefficient_scaling_conflict() {
        // 2x ≤ y ∧ y ≤ x ∧ 1 ≤ x conflicts (forces x ≤ 0 and x ≥ 1).
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let two = a.int(2);
        let one = a.int(1);
        let tx = a.mul(two, x);
        let l1 = a.le(tx, y);
        let l2 = a.le(y, x);
        let l3 = a.le(one, x);
        let lits = [pos(l1), pos(l2), pos(l3)];
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }

    #[test]
    fn sum_constraint_propagates() {
        // x + y ≤ 1 ∧ 1 ≤ x ∧ 1 ≤ y conflicts.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let one = a.int(1);
        let s = a.add2(x, y);
        let l1 = a.le(s, one);
        let l2 = a.le(one, x);
        let l3 = a.le(one, y);
        let lits = [pos(l1), pos(l2), pos(l3)];
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }

    #[test]
    fn boundary_add_is_exact_not_wrapped() {
        // x = i64::MAX + 1 ∧ x ≤ i64::MAX must conflict: the sum is the
        // exact integer 2^63, not a wrapped i64::MIN (which would make
        // the conjunction satisfiable).
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let max = a.int(i64::MAX);
        let one = a.int(1);
        let over = a.add2(max, one);
        let eq = a.eq(x, over);
        let le = a.le(x, max);
        assert_eq!(
            check_conjunction(&a, &[pos(eq), pos(le)]),
            TheoryVerdict::Conflict
        );
        // …and x = MAX + 1 ∧ MAX ≤ x is fine.
        let ge = a.le(max, x);
        assert_eq!(
            check_conjunction(&a, &[pos(eq), pos(ge)]),
            TheoryVerdict::Consistent
        );
    }

    #[test]
    fn boundary_sub_is_exact_not_wrapped() {
        // y = i64::MIN - 1 ∧ MIN ≤ y conflicts; wrapped folding would
        // have made y = i64::MAX and the conjunction satisfiable.
        let mut a = TermArena::new();
        let y = a.var("y", Sort::Int);
        let min = a.int(i64::MIN);
        let one = a.int(1);
        let under = a.sub(min, one);
        let eq = a.eq(y, under);
        let ge = a.le(min, y);
        assert_eq!(
            check_conjunction(&a, &[pos(eq), pos(ge)]),
            TheoryVerdict::Conflict
        );
    }

    #[test]
    fn boundary_neg_is_exact_not_wrapped() {
        // -i64::MIN is the exact 2^63: it is > 0 (consistent) and ≠ MIN
        // (conflict if equated). Wrapped folding said -MIN = MIN < 0.
        let mut a = TermArena::new();
        let min = a.int(i64::MIN);
        let zero = a.int(0);
        let negated = a.neg(min);
        let gt = a.lt(zero, negated);
        assert_eq!(check_conjunction(&a, &[pos(gt)]), TheoryVerdict::Consistent);
        let eq = a.eq(negated, min);
        assert_eq!(check_conjunction(&a, &[pos(eq)]), TheoryVerdict::Conflict);
    }

    #[test]
    fn boundary_mul_is_exact_not_wrapped() {
        // i64::MAX * 2 = 2^64 - 2 exactly, which is positive; the
        // wrapped fold said -2.
        let mut a = TermArena::new();
        let max = a.int(i64::MAX);
        let two = a.int(2);
        let zero = a.int(0);
        let dbl = a.mul(max, two);
        let neg_claim = a.lt(dbl, zero);
        assert_eq!(
            check_conjunction(&a, &[pos(neg_claim)]),
            TheoryVerdict::Conflict
        );
    }

    #[test]
    fn ite_terms_handled_opaquely_by_euf() {
        // ite(c, x, y) = z ∧ ite(c, x, y) ≠ z is a direct EUF conflict
        // even though the solver gives the ite no arithmetic meaning.
        let mut a = TermArena::new();
        let c = a.var("c", Sort::Bool);
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let z = a.var("z", Sort::Int);
        let ite = a.ite(c, x, y);
        let eq = a.eq(ite, z);
        let lits = [
            pos(eq),
            TheoryLit {
                atom: eq,
                positive: false,
            },
        ];
        assert_eq!(check_conjunction(&a, &lits), TheoryVerdict::Conflict);
    }
}

/// The stateless checks the context replaced, kept as they were (less
/// comments, and the vacuous assertion) as the differential tests'
/// oracle: each check re-collects the closure and re-normalises every
/// literal from scratch, with a `HashMap` union–find and hashed
/// signatures, and its Fourier–Motzkin relies on the caller to pre-check
/// constant rows.
#[cfg(test)]
mod reference {
    use super::{coeff_of, linearize, op_tag, LinExpr, TheoryLit, TheoryVerdict, FM_LIMIT};
    use crate::term::{TermArena, TermId, TermKind};
    use std::collections::HashMap;

    /// Union–find with congruence closure over a slice of relevant terms.
    #[derive(Debug)]
    struct Congruence {
        parent: HashMap<TermId, TermId>,
    }

    impl Congruence {
        fn new() -> Self {
            Self {
                parent: HashMap::new(),
            }
        }

        fn find(&mut self, t: TermId) -> TermId {
            let p = *self.parent.get(&t).unwrap_or(&t);
            if p == t {
                return t;
            }
            let root = self.find(p);
            self.parent.insert(t, root);
            root
        }

        fn union(&mut self, a: TermId, b: TermId) -> bool {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return false;
            }
            self.parent.insert(ra, rb);
            true
        }
    }

    fn children(arena: &TermArena, t: TermId) -> Vec<TermId> {
        let mut out = Vec::new();
        super::for_each_child(arena, t, |c| out.push(c));
        out
    }

    fn collect_subterms(arena: &TermArena, roots: &[TermId], out: &mut Vec<TermId>) {
        let mut seen: HashMap<TermId, ()> = HashMap::new();
        let mut stack: Vec<TermId> = roots.to_vec();
        while let Some(t) = stack.pop() {
            if seen.insert(t, ()).is_some() {
                continue;
            }
            out.push(t);
            stack.extend(children(arena, t));
        }
    }

    fn check_euf(arena: &TermArena, lits: &[TheoryLit]) -> TheoryVerdict {
        let mut eqs: Vec<(TermId, TermId)> = Vec::new();
        let mut neqs: Vec<(TermId, TermId)> = Vec::new();
        let mut roots: Vec<TermId> = Vec::new();
        for l in lits {
            if let TermKind::Eq(a, b) = arena.kind(l.atom) {
                roots.push(*a);
                roots.push(*b);
                if l.positive {
                    eqs.push((*a, *b));
                } else {
                    neqs.push((*a, *b));
                }
            }
        }
        if eqs.is_empty() {
            return TheoryVerdict::Consistent;
        }
        let mut subterms = Vec::new();
        collect_subterms(arena, &roots, &mut subterms);
        let mut cc = Congruence::new();
        for (a, b) in &eqs {
            cc.union(*a, *b);
        }
        let consts: Vec<TermId> = subterms
            .iter()
            .copied()
            .filter(|t| matches!(arena.kind(*t), TermKind::IntConst(_)))
            .collect();
        loop {
            let mut changed = false;
            let mut sig: HashMap<(u8, Vec<TermId>), TermId> = HashMap::new();
            for &t in &subterms {
                if let Some(tag) = op_tag(arena, t) {
                    let key: Vec<TermId> = children(arena, t).iter().map(|&c| cc.find(c)).collect();
                    match sig.entry((tag, key)) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if cc.union(t, *e.get()) {
                                changed = true;
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(t);
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (a, b) in &neqs {
            if cc.find(*a) == cc.find(*b) {
                return TheoryVerdict::Conflict;
            }
        }
        for i in 0..consts.len() {
            for j in (i + 1)..consts.len() {
                if cc.find(consts[i]) == cc.find(consts[j]) {
                    return TheoryVerdict::Conflict;
                }
            }
        }
        TheoryVerdict::Consistent
    }

    /// Fourier–Motzkin as it was: constant rows are dropped unchecked.
    fn fm_feasible(mut ineqs: Vec<LinExpr>) -> bool {
        loop {
            ineqs.retain(|e| !e.is_const());
            let mut var: Option<TermId> = None;
            for e in &ineqs {
                if let Some(&(t, _)) = e.coeffs.first() {
                    var = Some(t);
                    break;
                }
            }
            let Some(v) = var else {
                return true;
            };
            let mut lower: Vec<LinExpr> = Vec::new();
            let mut upper: Vec<LinExpr> = Vec::new();
            let mut rest: Vec<LinExpr> = Vec::new();
            for e in ineqs {
                match e.coeffs.iter().find(|&&(t, _)| t == v) {
                    Some(&(_, c)) if c > 0 => upper.push(e),
                    Some(&(_, c)) if c < 0 => lower.push(e),
                    _ => rest.push(e),
                }
            }
            if lower.len() * upper.len() + rest.len() > FM_LIMIT {
                return true;
            }
            for lo in &lower {
                let cl = -coeff_of(lo, v);
                for up in &upper {
                    let cu = coeff_of(up, v);
                    let Some(combined) = up.scale(cl).and_then(|u| u.add(&lo.scale(cu)?)) else {
                        return true;
                    };
                    if combined.is_const() {
                        if combined.constant > 0 {
                            return false;
                        }
                    } else {
                        rest.push(combined);
                    }
                }
            }
            ineqs = rest;
            if ineqs.iter().any(|e| e.is_const() && e.constant > 0) {
                return false;
            }
            if ineqs.is_empty() {
                return true;
            }
        }
    }

    fn check_arith(arena: &TermArena, lits: &[TheoryLit]) -> TheoryVerdict {
        let mut ineqs: Vec<LinExpr> = Vec::new();
        let mut diseqs: Vec<LinExpr> = Vec::new();
        for l in lits {
            let _ = (|| -> Option<()> {
                match arena.kind(l.atom) {
                    TermKind::Lt(a, b) => {
                        let e = linearize(arena, *a).sub(&linearize(arena, *b))?;
                        if l.positive {
                            ineqs.push(e.add(&LinExpr::constant(1))?);
                        } else {
                            ineqs.push(e.scale(-1)?);
                        }
                    }
                    TermKind::Le(a, b) => {
                        let e = linearize(arena, *a).sub(&linearize(arena, *b))?;
                        if l.positive {
                            ineqs.push(e);
                        } else {
                            ineqs.push(e.scale(-1)?.add(&LinExpr::constant(1))?);
                        }
                    }
                    TermKind::Eq(a, b) if arena.sort(*a) == crate::term::Sort::Int => {
                        let e = linearize(arena, *a).sub(&linearize(arena, *b))?;
                        if l.positive {
                            let neg = e.scale(-1)?;
                            ineqs.push(e);
                            ineqs.push(neg);
                        } else {
                            diseqs.push(e);
                        }
                    }
                    _ => {}
                }
                Some(())
            })();
        }
        for e in &ineqs {
            if e.is_const() && e.constant > 0 {
                return TheoryVerdict::Conflict;
            }
        }
        for e in &diseqs {
            if e.is_const() && e.constant == 0 {
                return TheoryVerdict::Conflict;
            }
        }
        if !fm_feasible(ineqs.clone()) {
            return TheoryVerdict::Conflict;
        }
        for e in &diseqs {
            if e.is_const() {
                continue;
            }
            let (Some(ge_one), Some(le_neg_one)) =
                (LinExpr::constant(1).sub(e), e.add(&LinExpr::constant(1)))
            else {
                continue;
            };
            let mut with_pos = ineqs.clone();
            with_pos.push(ge_one);
            let mut with_neg = ineqs.clone();
            with_neg.push(le_neg_one);
            if !fm_feasible(with_pos) && !fm_feasible(with_neg) {
                return TheoryVerdict::Conflict;
            }
        }
        TheoryVerdict::Consistent
    }

    /// The conjunction of `lits`, checked from scratch.
    pub(super) fn check_conjunction(arena: &TermArena, lits: &[TheoryLit]) -> TheoryVerdict {
        if check_euf(arena, lits) == TheoryVerdict::Conflict {
            return TheoryVerdict::Conflict;
        }
        check_arith(arena, lits)
    }
}

/// The context against the reference on seeded random conjunctions.
#[cfg(test)]
mod differential {
    use super::*;

    /// xorshift64*: the test's only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// A random pool of theory atoms over a few integer and boolean
    /// variables: linear and non-linear arithmetic, `ite` terms, the `i64`
    /// boundaries, and raw boolean equalities (which the smart constructor
    /// would fold away).
    fn atom_pool(rng: &mut Rng, arena: &mut TermArena) -> Vec<TermId> {
        let ints: Vec<TermId> = (0..4)
            .map(|i| arena.var(format!("x{i}"), Sort::Int))
            .collect();
        let bools: Vec<TermId> = (0..3)
            .map(|i| arena.var(format!("p{i}"), Sort::Bool))
            .collect();
        let consts: Vec<TermId> = [0, 1, -1, 2, 5, i64::MAX, i64::MIN, i64::MAX - 1]
            .iter()
            .map(|&v| arena.int(v))
            .collect();
        let mut terms: Vec<TermId> = ints.iter().chain(&consts).copied().collect();
        // ±2·(2^63 - 1)^2 and the same times x0, just inside i128: a
        // difference or a strict bound over these overflows, which drops
        // the literal.
        let square = arena.mul(consts[5], consts[5]);
        let big = arena.mul(square, consts[3]);
        let big_x = arena.mul(big, ints[0]);
        let mut edge = vec![big, big_x, consts[5], consts[6]];
        for t in [big, big_x] {
            edge.push(arena.neg(t));
        }
        terms.extend(&edge);
        for _ in 0..8 {
            let (a, b) = (rng.pick(&terms), rng.pick(&terms));
            let t = match rng.below(6) {
                0 => arena.add2(a, b),
                1 => arena.sub(a, b),
                2 => arena.mul(a, b),
                3 => arena.neg(a),
                4 => {
                    let c = rng.pick(&bools);
                    arena.ite(c, a, b)
                }
                _ => {
                    let k = rng.pick(&consts);
                    arena.mul(k, a)
                }
            };
            terms.push(t);
        }
        let want = 3 + rng.below(6);
        let mut atoms = Vec::new();
        while atoms.len() < want {
            let (a, b) = (rng.pick(&terms), rng.pick(&terms));
            let atom = match rng.below(9) {
                0..=2 => arena.eq(a, b),
                3 | 4 => arena.lt(a, b),
                5 => arena.le(a, b),
                6 => {
                    let (a, b) = (rng.pick(&edge), rng.pick(&terms));
                    match rng.below(3) {
                        0 => arena.eq(a, b),
                        1 => arena.lt(a, b),
                        _ => arena.le(b, a),
                    }
                }
                7 => {
                    let (a, b) = (rng.pick(&edge), rng.pick(&edge));
                    if rng.below(2) == 0 {
                        arena.lt(a, b)
                    } else {
                        arena.le(a, b)
                    }
                }
                _ => {
                    let (p, q) = (rng.pick(&bools), rng.pick(&atoms_or(&atoms, &bools)));
                    raw(arena, TermKind::Eq(p, q))
                }
            };
            if matches!(
                arena.kind(atom),
                TermKind::Eq(..) | TermKind::Lt(..) | TermKind::Le(..)
            ) {
                atoms.push(atom);
            }
        }
        atoms
    }

    fn atoms_or(atoms: &[TermId], bools: &[TermId]) -> Vec<TermId> {
        atoms.iter().chain(bools).copied().collect()
    }

    /// `kind` as a term, whether or not the arena already has it.
    fn raw(arena: &mut TermArena, kind: TermKind) -> TermId {
        let existing = arena
            .kinds()
            .position(|(k, _)| *k == kind)
            .map(TermId::from_index);
        existing.unwrap_or_else(|| arena.push_raw(kind, Sort::Bool).expect("fresh raw term"))
    }

    fn lits_of(atoms: &[TermId], polarity: &[Option<bool>]) -> Vec<TheoryLit> {
        atoms
            .iter()
            .zip(polarity)
            .filter_map(|(&atom, p)| p.map(|positive| TheoryLit { atom, positive }))
            .collect()
    }

    fn random_polarity(rng: &mut Rng, n: usize) -> Vec<Option<bool>> {
        (0..n)
            .map(|_| match rng.below(5) {
                0 => None,
                1 | 2 => Some(true),
                _ => Some(false),
            })
            .collect()
    }

    #[test]
    fn random_conjunctions_match_the_reference() {
        let mut rng = Rng(0x5eed_0001);
        let mut conflicts = 0;
        for _ in 0..3000 {
            let mut arena = TermArena::new();
            let atoms = atom_pool(&mut rng, &mut arena);
            let polarity = random_polarity(&mut rng, atoms.len());
            let lits = lits_of(&atoms, &polarity);
            let want = reference::check_conjunction(&arena, &lits);
            assert_eq!(check_conjunction(&arena, &lits), want, "{lits:?}");
            let mut cx = TheoryContext::new(&arena, &atoms);
            assert_eq!(cx.check(&polarity), want, "{lits:?} through the context");
            conflicts += usize::from(want == TheoryVerdict::Conflict);
        }
        // Both verdicts must be well represented for the test to mean much.
        assert!((300..2700).contains(&conflicts), "{conflicts} conflicts");
    }

    #[test]
    fn one_context_through_many_rounds() {
        // One context per query, many polarity vectors in sequence: no
        // state may leak from one round into the next.
        let mut rng = Rng(0x5eed_0002);
        for _ in 0..200 {
            let mut arena = TermArena::new();
            let atoms = atom_pool(&mut rng, &mut arena);
            let mut cx = TheoryContext::new(&arena, &atoms);
            for _ in 0..25 {
                let polarity = random_polarity(&mut rng, atoms.len());
                let lits = lits_of(&atoms, &polarity);
                assert_eq!(
                    cx.check(&polarity),
                    reference::check_conjunction(&arena, &lits),
                    "{lits:?}"
                );
            }
        }
    }

    #[test]
    fn duplicate_and_contradictory_literals() {
        // `check_conjunction` may see an atom twice, with either polarity.
        let mut rng = Rng(0x5eed_0003);
        for _ in 0..500 {
            let mut arena = TermArena::new();
            let atoms = atom_pool(&mut rng, &mut arena);
            let lits: Vec<TheoryLit> = (0..atoms.len() + 2)
                .map(|_| TheoryLit {
                    atom: rng.pick(&atoms),
                    positive: rng.below(2) == 0,
                })
                .collect();
            assert_eq!(
                check_conjunction(&arena, &lits),
                reference::check_conjunction(&arena, &lits),
                "{lits:?}"
            );
        }
    }

    #[test]
    fn congruence_chains_and_squeezes() {
        // f-chains merged from either end, and x ≠ c squeezed by bounds.
        let mut a = TermArena::new();
        let xs: Vec<TermId> = (0..6).map(|i| a.var(format!("x{i}"), Sort::Int)).collect();
        let two = a.int(2);
        let doubled: Vec<TermId> = xs.iter().map(|&x| a.mul(x, x)).collect();
        let twice: Vec<TermId> = doubled.iter().map(|&d| a.add2(d, two)).collect();
        let mut atoms: Vec<TermId> = xs.windows(2).map(|w| a.eq(w[0], w[1])).collect();
        atoms.push(a.eq(twice[0], twice[5]));
        atoms.push(a.le(xs[0], two));
        atoms.push(a.le(two, xs[5]));
        atoms.push(a.eq(xs[3], two));
        let mut cx = TheoryContext::new(&a, &atoms);
        let n = atoms.len();
        for mask in 0..(1u32 << n) {
            let polarity: Vec<Option<bool>> = (0..n).map(|i| Some(mask >> i & 1 == 1)).collect();
            let lits = lits_of(&atoms, &polarity);
            assert_eq!(
                cx.check(&polarity),
                reference::check_conjunction(&a, &lits),
                "{lits:?}"
            );
        }
    }

    #[test]
    fn fm_limit_chain() {
        // z_i < x < y_i for n pairs, closed into a cycle by y_0 < z_0.
        // Eliminating x first pairs every lower bound with every upper
        // bound: n = 100 stays under FM_LIMIT and finds the cycle; n = 150
        // outgrows it, and both implementations give up (Consistent) at
        // the same place.
        for (n, want) in [
            (100, TheoryVerdict::Conflict),
            (150, TheoryVerdict::Consistent),
        ] {
            let mut a = TermArena::new();
            let x = a.var("x", Sort::Int);
            let ys: Vec<TermId> = (0..n).map(|i| a.var(format!("y{i}"), Sort::Int)).collect();
            let zs: Vec<TermId> = (0..n).map(|i| a.var(format!("z{i}"), Sort::Int)).collect();
            let mut atoms: Vec<TermId> = ys.iter().map(|&y| a.lt(x, y)).collect();
            atoms.extend(zs.iter().map(|&z| a.lt(z, x)));
            atoms.push(a.lt(ys[0], zs[0]));
            let polarity = vec![Some(true); atoms.len()];
            let lits = lits_of(&atoms, &polarity);
            assert_eq!(reference::check_conjunction(&a, &lits), want, "n = {n}");
            assert_eq!(check_conjunction(&a, &lits), want, "n = {n}");
            assert_eq!(TheoryContext::new(&a, &atoms).check(&polarity), want);
        }
    }
}
