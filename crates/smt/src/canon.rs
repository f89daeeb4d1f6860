//! Canonical formula fingerprinting for cross-query verdict reuse.
//!
//! Pinpoint's §3.1 observation is that path conditions across queries
//! share enormous structure: the same guard conjunctions recur for every
//! sink reached under them, warm runs re-pose exactly the formulas of the
//! cold run, and ≥90% of the UNSAT ones are easy. To pay for a formula
//! once, we need a *name* for it that survives both variable renaming
//! (context cloning appends `|c{id}` suffixes that differ per traversal)
//! and argument reordering (n-ary operators sort children by arena-local
//! [`TermId`], which depends on allocation order).
//!
//! [`canon_info`] computes a 128-bit fingerprint of a boolean term that
//! is invariant under both, in two passes over the hash-consed DAG:
//!
//! 1. **Blinded hashing** — a bottom-up structural hash in which every
//!    variable is reduced to its sort (names blinded) and the children
//!    of commutative operators (`and`/`or`/`+`/`=`/`*`) are combined as
//!    a sorted multiset of child hashes.
//! 2. **Canonical serialization** — a depth-first pre-order walk from
//!    the root in which commutative children are visited in blinded-hash
//!    order, variables are numbered by first occurrence, and shared DAG
//!    nodes are emitted as back-references to their visit number. The
//!    fingerprint is a 128-bit FNV-1a hash of this stream.
//!
//! Equal streams reconstruct isomorphic DAGs with a consistent variable
//! correspondence, so **equal fingerprints imply alpha-equivalence** and
//! therefore equisatisfiability — and a satisfying assignment transfers
//! between the two formulas through the canonical variable indices. The
//! converse is deliberately weaker: blinded-hash ties between *distinct*
//! subterms are broken by arena-local id, so an alpha-equivalent pair can
//! (rarely) fingerprint differently. That direction only costs a cache
//! miss, never a wrong verdict.

use crate::solver::{BoolModel, SmtResult};
use crate::term::{Sort, TermArena, TermId, TermKind};
use crate::verdict::Verdict;
use std::collections::HashMap;

/// Version of the canonicalisation scheme, mixed into every fingerprint
/// and into the persisted verdict-store key: bumping it invalidates all
/// previously persisted verdicts (stale → cold, never wrong).
pub const CANON_VERSION: u32 = 1;

/// The canonical identity of one boolean formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonInfo {
    /// Order/alpha-invariant 128-bit fingerprint of the formula.
    pub fingerprint: u128,
    /// The formula's free variables by canonical index (first occurrence
    /// in the canonical traversal). A cached model expressed over
    /// canonical indices is rebound to concrete variables through this
    /// table.
    pub vars: Vec<(String, Sort)>,
}

impl CanonInfo {
    /// The verdict of a full solve of this formula: `model` (by variable
    /// name) rewritten to canonical indices.
    pub fn verdict(&self, result: SmtResult, model: &BoolModel) -> Verdict {
        match result {
            SmtResult::Unsat => Verdict::Unsat,
            SmtResult::Sat => {
                let mut vals: Vec<(u32, bool)> = model
                    .iter()
                    .filter_map(|(name, value)| {
                        let idx = self.vars.iter().position(|(n, _)| n == name)?;
                        Some((u32::try_from(idx).ok()?, *value))
                    })
                    .collect();
                vals.sort_unstable();
                Verdict::Sat(vals)
            }
        }
    }

    /// A recorded `Sat` witness rebound to this instance's variable
    /// names, sorted by name exactly as a fresh solve's model is.
    pub fn rebind(&self, vals: &[(u32, bool)]) -> BoolModel {
        let mut model: BoolModel = vals
            .iter()
            .filter_map(|&(idx, value)| Some((self.vars.get(idx as usize)?.0.clone(), value)))
            .collect();
        model.sort();
        model
    }
}

/// 128-bit FNV-1a.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(Self::PRIME);
    }

    fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_u128(&mut self, v: u128) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

fn sort_tag(s: Sort) -> u8 {
    match s {
        Sort::Bool => 0,
        Sort::Int => 1,
    }
}

/// Kind tag + whether the children are an unordered multiset.
fn kind_tag(kind: &TermKind) -> (u8, bool) {
    match kind {
        TermKind::BoolConst(_) => (1, false),
        TermKind::IntConst(_) => (2, false),
        TermKind::Var(..) => (3, false),
        TermKind::Not(_) => (4, false),
        TermKind::And(_) => (5, true),
        TermKind::Or(_) => (6, true),
        TermKind::Ite(..) => (7, false),
        TermKind::Eq(..) => (8, true),
        TermKind::Lt(..) => (9, false),
        TermKind::Le(..) => (10, false),
        TermKind::Add(_) => (11, true),
        TermKind::Sub(..) => (12, false),
        TermKind::Mul(..) => (13, true),
        TermKind::Neg(_) => (14, false),
    }
}

fn children_of(kind: &TermKind) -> Vec<TermId> {
    match kind {
        TermKind::BoolConst(_) | TermKind::IntConst(_) | TermKind::Var(..) => Vec::new(),
        TermKind::Not(x) | TermKind::Neg(x) => vec![*x],
        TermKind::And(xs) | TermKind::Or(xs) | TermKind::Add(xs) => xs.clone(),
        TermKind::Ite(c, a, b) => vec![*c, *a, *b],
        TermKind::Eq(a, b)
        | TermKind::Lt(a, b)
        | TermKind::Le(a, b)
        | TermKind::Sub(a, b)
        | TermKind::Mul(a, b) => vec![*a, *b],
    }
}

/// Bottom-up blinded structural hashes over the DAG reachable from
/// `root` (variables reduced to their sort; commutative children hashed
/// as a sorted multiset).
fn blinded_hashes(arena: &TermArena, root: TermId) -> HashMap<TermId, u128> {
    let mut memo: HashMap<TermId, u128> = HashMap::new();
    let mut stack: Vec<(TermId, bool)> = vec![(root, false)];
    while let Some((t, expanded)) = stack.pop() {
        if memo.contains_key(&t) {
            continue;
        }
        let kind = arena.kind(t);
        if !expanded {
            stack.push((t, true));
            for c in children_of(kind) {
                if !memo.contains_key(&c) {
                    stack.push((c, false));
                }
            }
            continue;
        }
        let (tag, commutative) = kind_tag(kind);
        let mut h = Fnv128::new();
        h.write_u8(tag);
        h.write_u8(sort_tag(arena.sort(t)));
        match kind {
            TermKind::BoolConst(b) => h.write_u8(u8::from(*b)),
            TermKind::IntConst(v) => h.write_u64(*v as u64),
            TermKind::Var(..) => {}
            _ => {
                let mut child_hashes: Vec<u128> =
                    children_of(kind).iter().map(|c| memo[c]).collect();
                if commutative {
                    child_hashes.sort_unstable();
                }
                for ch in child_hashes {
                    h.write_u128(ch);
                }
            }
        }
        memo.insert(t, h.finish());
    }
    memo
}

/// Computes the canonical fingerprint and variable table of `root`.
///
/// Cost is linear in the size of the hash-consed DAG under `root` (each
/// node is visited once per pass; shared nodes are emitted as
/// back-references, not re-expanded).
pub fn canon_info(arena: &TermArena, root: TermId) -> CanonInfo {
    let blinded = blinded_hashes(arena, root);
    let mut h = Fnv128::new();
    h.write_u32(CANON_VERSION);
    let mut visit: HashMap<TermId, u32> = HashMap::new();
    let mut vars: Vec<(String, Sort)> = Vec::new();
    let mut var_index: HashMap<TermId, u32> = HashMap::new();
    let mut stack: Vec<TermId> = vec![root];
    while let Some(t) = stack.pop() {
        if let Some(&vi) = visit.get(&t) {
            // Shared DAG node: back-reference by visit number.
            h.write_u8(255);
            h.write_u32(vi);
            continue;
        }
        let vi = u32::try_from(visit.len()).expect("canonical visit overflow");
        visit.insert(t, vi);
        let kind = arena.kind(t);
        let (tag, commutative) = kind_tag(kind);
        h.write_u8(tag);
        h.write_u8(sort_tag(arena.sort(t)));
        match kind {
            TermKind::BoolConst(b) => h.write_u8(u8::from(*b)),
            TermKind::IntConst(v) => h.write_u64(*v as u64),
            TermKind::Var(name, sort) => {
                let idx = *var_index.entry(t).or_insert_with(|| {
                    let idx = u32::try_from(vars.len()).expect("canonical var overflow");
                    vars.push((name.clone(), *sort));
                    idx
                });
                h.write_u32(idx);
            }
            _ => {
                let mut children = children_of(kind);
                if commutative {
                    // Deterministic canonical order: blinded hash first,
                    // arena id as the (arena-local) tie-break.
                    children.sort_unstable_by_key(|c| (blinded[c], *c));
                }
                h.write_u32(u32::try_from(children.len()).expect("arity overflow"));
                // Reverse so the pre-order pop visits them left-to-right.
                for &c in children.iter().rev() {
                    stack.push(c);
                }
            }
        }
    }
    CanonInfo {
        fingerprint: h.finish(),
        vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_renaming_preserves_fingerprint() {
        let mut a = TermArena::new();
        let p = a.var("p|c0", Sort::Bool);
        let x = a.var("x|c0", Sort::Int);
        let zero = a.int(0);
        let atom = a.eq(x, zero);
        let f = a.and2(p, atom);
        let fa = canon_info(&a, f);

        let mut b = TermArena::new();
        let q = b.var("p|c7", Sort::Bool);
        let y = b.var("x|c7", Sort::Int);
        let zero_b = b.int(0);
        let atom_b = b.eq(y, zero_b);
        let g = b.and2(q, atom_b);
        let gb = canon_info(&b, g);

        assert_eq!(fa.fingerprint, gb.fingerprint);
        // Canonical variable indices correspond across the renaming.
        let sorts_a: Vec<Sort> = fa.vars.iter().map(|(_, s)| *s).collect();
        let sorts_b: Vec<Sort> = gb.vars.iter().map(|(_, s)| *s).collect();
        assert_eq!(sorts_a, sorts_b);
    }

    #[test]
    fn construction_order_does_not_matter() {
        // Same formula, operands interned in opposite orders, so the
        // arena-sorted And children differ as id sequences.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let five = a.int(5);
        let lo = a.lt(zero, x);
        let hi = a.lt(x, five);
        let f = a.and2(lo, hi);
        let fa = canon_info(&a, f);

        let mut b = TermArena::new();
        let five_b = b.int(5);
        let x_b = b.var("x", Sort::Int);
        let zero_b = b.int(0);
        let hi_b = b.lt(x_b, five_b);
        let lo_b = b.lt(zero_b, x_b);
        let g = b.and2(hi_b, lo_b);
        let gb = canon_info(&b, g);

        assert_eq!(fa.fingerprint, gb.fingerprint);
    }

    #[test]
    fn distinct_formulas_fingerprint_differently() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let one = a.int(1);
        let f0 = a.eq(x, zero);
        let f1 = a.eq(x, one);
        let lt = a.lt(x, zero);
        let i0 = canon_info(&a, f0);
        let i1 = canon_info(&a, f1);
        let il = canon_info(&a, lt);
        assert_ne!(i0.fingerprint, i1.fingerprint);
        assert_ne!(i0.fingerprint, il.fingerprint);
        // Ordered operators must not be treated as commutative.
        let gt = a.lt(zero, x);
        assert_ne!(canon_info(&a, gt).fingerprint, il.fingerprint);
    }

    #[test]
    fn variables_are_numbered_by_first_occurrence() {
        let mut a = TermArena::new();
        let p = a.var("first", Sort::Bool);
        let q = a.var("second", Sort::Bool);
        let np = a.not(p);
        let f = a.and2(np, q); // canonical order may differ, but indices are 1:1
        let info = canon_info(&a, f);
        assert_eq!(info.vars.len(), 2);
        let names: Vec<&str> = info.vars.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"first") && names.contains(&"second"));
    }

    #[test]
    fn distinct_variable_patterns_distinguish() {
        // and(p, p → q) vs and(p, q → p): same blinded skeleton, but the
        // first-occurrence numbering separates them.
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let q = a.var("q", Sort::Bool);
        let pq = a.implies(p, q);
        let qp = a.implies(q, p);
        let f = a.and2(p, pq);
        let g = a.and2(p, qp);
        assert_ne!(canon_info(&a, f).fingerprint, canon_info(&a, g).fingerprint);
    }

    #[test]
    fn shared_subdags_are_backreferenced_not_reexpanded() {
        // A formula with heavy sharing canonicalises in linear time; the
        // fingerprint must also distinguish sharing patterns only up to
        // semantics-preserving structure, so a clone in a fresh arena
        // matches.
        let mut a = TermArena::new();
        let mut cur = a.var("x", Sort::Bool);
        for i in 0..40 {
            let y = a.var(format!("y{i}"), Sort::Bool);
            let wide = a.or2(cur, y);
            cur = a.and2(wide, cur);
        }
        let i1 = canon_info(&a, cur);
        let b = a.clone();
        let i2 = canon_info(&b, cur);
        assert_eq!(i1.fingerprint, i2.fingerprint);
    }
}
