//! Property test: the smart constructors' simplifications (unit laws,
//! complement folding, flattening, constant folding, boolean-equality
//! expansion) are semantics-preserving. A reference evaluator interprets
//! the *intended* formula; the arena-built term is evaluated under the
//! same assignment; the two must agree for every random assignment.

use pinpoint_smt::{Sort, TermArena, TermId, TermKind};
use std::collections::HashMap;

/// Minimal SplitMix64 so the property loops below are deterministic
/// without an external PRNG dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    fn bool4(&mut self) -> [bool; 4] {
        std::array::from_fn(|_| self.below(2) == 1)
    }

    fn ints4(&mut self) -> [i64; 4] {
        std::array::from_fn(|_| self.int_in(-3, 4))
    }
}

/// Intended formulas, interpreted directly (no simplification).
#[derive(Debug, Clone)]
enum Formula {
    BVar(u8),
    IVarCmp(u8, i64, CmpOp), // x_i ⋈ k
    Not(Box<Formula>),
    And(Vec<Formula>),
    Or(Vec<Formula>),
    BoolConst(bool),
    IffVars(u8, u8), // b_i = b_j (boolean equality)
}

#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Eq,
    Lt,
    Le,
}

fn random_leaf(rng: &mut Mix) -> Formula {
    match rng.below(4) {
        0 => Formula::BVar(rng.below(4) as u8),
        1 => {
            let v = rng.below(4) as u8;
            let k = rng.int_in(-3, 4);
            let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le][rng.below(3) as usize];
            Formula::IVarCmp(v, k, op)
        }
        2 => Formula::BoolConst(rng.below(2) == 1),
        _ => Formula::IffVars(rng.below(4) as u8, rng.below(4) as u8),
    }
}

fn random_formula(rng: &mut Mix, depth: u32) -> Formula {
    if depth == 0 || rng.below(3) == 0 {
        return random_leaf(rng);
    }
    match rng.below(3) {
        0 => Formula::Not(Box::new(random_formula(rng, depth - 1))),
        1 => Formula::And(
            (0..1 + rng.below(3))
                .map(|_| random_formula(rng, depth - 1))
                .collect(),
        ),
        _ => Formula::Or(
            (0..1 + rng.below(3))
                .map(|_| random_formula(rng, depth - 1))
                .collect(),
        ),
    }
}

/// Direct interpretation of the intended formula.
fn eval_formula(f: &Formula, bools: &[bool; 4], ints: &[i64; 4]) -> bool {
    match f {
        Formula::BVar(i) => bools[*i as usize],
        Formula::IVarCmp(i, k, op) => {
            let x = ints[*i as usize];
            match op {
                CmpOp::Eq => x == *k,
                CmpOp::Lt => x < *k,
                CmpOp::Le => x <= *k,
            }
        }
        Formula::Not(inner) => !eval_formula(inner, bools, ints),
        Formula::And(xs) => xs.iter().all(|x| eval_formula(x, bools, ints)),
        Formula::Or(xs) => xs.iter().any(|x| eval_formula(x, bools, ints)),
        Formula::BoolConst(b) => *b,
        Formula::IffVars(a, b) => bools[*a as usize] == bools[*b as usize],
    }
}

/// Builds the term through the simplifying constructors.
fn build_term(arena: &mut TermArena, f: &Formula) -> TermId {
    match f {
        Formula::BVar(i) => arena.var(format!("b{i}"), Sort::Bool),
        Formula::IVarCmp(i, k, op) => {
            let x = arena.var(format!("x{i}"), Sort::Int);
            let kk = arena.int(*k);
            match op {
                CmpOp::Eq => arena.eq(x, kk),
                CmpOp::Lt => arena.lt(x, kk),
                CmpOp::Le => arena.le(x, kk),
            }
        }
        Formula::Not(inner) => {
            let t = build_term(arena, inner);
            arena.not(t)
        }
        Formula::And(xs) => {
            let ts: Vec<TermId> = xs.iter().map(|x| build_term(arena, x)).collect();
            arena.and(ts)
        }
        Formula::Or(xs) => {
            let ts: Vec<TermId> = xs.iter().map(|x| build_term(arena, x)).collect();
            arena.or(ts)
        }
        Formula::BoolConst(b) => arena.bool_const(*b),
        Formula::IffVars(a, b) => {
            let ta = arena.var(format!("b{a}"), Sort::Bool);
            let tb = arena.var(format!("b{b}"), Sort::Bool);
            arena.eq(ta, tb)
        }
    }
}

/// Evaluates a built term under an assignment.
fn eval_term(
    arena: &TermArena,
    t: TermId,
    bools: &[bool; 4],
    ints: &[i64; 4],
    cache: &mut HashMap<TermId, i64>,
) -> i64 {
    if let Some(&v) = cache.get(&t) {
        return v;
    }
    let v: i64 = match arena.kind(t) {
        TermKind::BoolConst(b) => i64::from(*b),
        TermKind::IntConst(k) => *k,
        TermKind::Var(name, sort) => {
            let idx: usize = name[1..].parse().expect("test var name");
            match sort {
                Sort::Bool => i64::from(bools[idx]),
                Sort::Int => ints[idx],
            }
        }
        TermKind::Not(a) => {
            let va = eval_term(arena, *a, bools, ints, cache);
            i64::from(va == 0)
        }
        TermKind::And(xs) => i64::from(
            xs.iter()
                .all(|&x| eval_term(arena, x, bools, ints, cache) != 0),
        ),
        TermKind::Or(xs) => i64::from(
            xs.iter()
                .any(|&x| eval_term(arena, x, bools, ints, cache) != 0),
        ),
        TermKind::Ite(c, a, b) => {
            if eval_term(arena, *c, bools, ints, cache) != 0 {
                eval_term(arena, *a, bools, ints, cache)
            } else {
                eval_term(arena, *b, bools, ints, cache)
            }
        }
        TermKind::Eq(a, b) => i64::from(
            eval_term(arena, *a, bools, ints, cache) == eval_term(arena, *b, bools, ints, cache),
        ),
        TermKind::Lt(a, b) => i64::from(
            eval_term(arena, *a, bools, ints, cache) < eval_term(arena, *b, bools, ints, cache),
        ),
        TermKind::Le(a, b) => i64::from(
            eval_term(arena, *a, bools, ints, cache) <= eval_term(arena, *b, bools, ints, cache),
        ),
        TermKind::Add(xs) => xs
            .iter()
            .map(|&x| eval_term(arena, x, bools, ints, cache))
            .fold(0i64, i64::wrapping_add),
        TermKind::Sub(a, b) => eval_term(arena, *a, bools, ints, cache)
            .wrapping_sub(eval_term(arena, *b, bools, ints, cache)),
        TermKind::Mul(a, b) => eval_term(arena, *a, bools, ints, cache)
            .wrapping_mul(eval_term(arena, *b, bools, ints, cache)),
        TermKind::Neg(a) => eval_term(arena, *a, bools, ints, cache).wrapping_neg(),
    };
    cache.insert(t, v);
    v
}

#[test]
fn simplification_preserves_semantics() {
    let mut rng = Mix(0x51A9);
    for _ in 0..512 {
        let formula = random_formula(&mut rng, 4);
        let bools = rng.bool4();
        let ints = rng.ints4();
        let mut arena = TermArena::new();
        let term = build_term(&mut arena, &formula);
        let expected = eval_formula(&formula, &bools, &ints);
        let mut cache = HashMap::new();
        let got = eval_term(&arena, term, &bools, &ints, &mut cache) != 0;
        assert_eq!(got, expected, "formula {formula:?}");
    }
}

/// The SMT solver is a decision procedure for these formulas: if any
/// of a sample of assignments satisfies the formula, the solver must
/// say Sat; if the solver says Unsat, no sampled assignment may
/// satisfy it.
#[test]
fn solver_agrees_with_sampled_assignments() {
    use pinpoint_smt::{SmtResult, SmtSession};
    let mut rng = Mix(0x501E);
    for _ in 0..256 {
        let formula = random_formula(&mut rng, 4);
        let samples: Vec<([bool; 4], [i64; 4])> =
            (0..8).map(|_| (rng.bool4(), rng.ints4())).collect();
        let mut arena = TermArena::new();
        let term = build_term(&mut arena, &formula);
        let mut solver = SmtSession::new();
        let verdict = solver.check(&arena, term);
        let any_model = samples.iter().any(|(b, i)| eval_formula(&formula, b, i));
        if any_model {
            assert_eq!(verdict, SmtResult::Sat, "witnessed: {formula:?}");
        }
        if verdict == SmtResult::Unsat {
            assert!(!any_model, "solver unsat but model sampled: {formula:?}");
        }
    }
}
