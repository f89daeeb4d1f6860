//! Property-based tests on cross-crate invariants, driven by a
//! deterministic SplitMix64 generator (the workspace vendors no external
//! property-testing framework).

use pinpoint::smt::{LinearSolver, LinearVerdict, SmtResult, SmtSession, Sort, TermArena, TermId};
use pinpoint::workload::{generate, GenConfig};
use pinpoint::{Analysis, CheckerKind, Query};

/// Minimal SplitMix64 so the fuzz loops below are deterministic without
/// an external PRNG dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A small generator of random boolean conditions over a fixed pool of
/// atoms, shaped like the analysis' path conditions.
#[derive(Debug, Clone)]
enum CondTree {
    Atom(u8),
    NotAtom(u8),
    And(Vec<CondTree>),
    Or(Vec<CondTree>),
}

fn gen_tree(rng: &mut Mix, depth: usize) -> CondTree {
    if depth == 0 || rng.below(3) == 0 {
        let atom = rng.below(6) as u8;
        if rng.below(2) == 0 {
            CondTree::Atom(atom)
        } else {
            CondTree::NotAtom(atom)
        }
    } else {
        let n = 2 + rng.below(2);
        let children: Vec<CondTree> = (0..n).map(|_| gen_tree(rng, depth - 1)).collect();
        if rng.below(2) == 0 {
            CondTree::And(children)
        } else {
            CondTree::Or(children)
        }
    }
}

fn build(arena: &mut TermArena, t: &CondTree) -> TermId {
    match t {
        CondTree::Atom(i) => {
            // Mix boolean atoms and integer comparisons, like real
            // path conditions.
            if i % 2 == 0 {
                arena.var(format!("b{i}"), Sort::Bool)
            } else {
                let x = arena.var(format!("x{i}"), Sort::Int);
                let zero = arena.int(0);
                arena.ne(x, zero)
            }
        }
        CondTree::NotAtom(i) => {
            let a = build(arena, &CondTree::Atom(*i));
            arena.not(a)
        }
        CondTree::And(xs) => {
            let ts: Vec<TermId> = xs.iter().map(|x| build(arena, x)).collect();
            arena.and(ts)
        }
        CondTree::Or(xs) => {
            let ts: Vec<TermId> = xs.iter().map(|x| build(arena, x)).collect();
            arena.or(ts)
        }
    }
}

/// The linear-time solver is sound: whenever it says Unsat, the full
/// SMT solver agrees. (This is the §3.1.1 contract: the cheap solver
/// may under-detect unsatisfiability but never over-detects.)
#[test]
fn linear_solver_unsat_implies_smt_unsat() {
    let mut rng = Mix(0x51AC);
    for _ in 0..256 {
        let tree = gen_tree(&mut rng, 4);
        let mut arena = TermArena::new();
        let cond = build(&mut arena, &tree);
        let mut linear = LinearSolver::new();
        if linear.check(&arena, cond) == LinearVerdict::Unsat {
            let mut smt = SmtSession::new();
            assert_eq!(smt.check(&arena, cond), SmtResult::Unsat, "{tree:?}");
        }
    }
}

/// Hash-consing invariant: building the same tree twice yields the
/// same term id.
#[test]
fn term_construction_is_canonical() {
    let mut rng = Mix(0xCAFE);
    for _ in 0..256 {
        let tree = gen_tree(&mut rng, 4);
        let mut arena = TermArena::new();
        let a = build(&mut arena, &tree);
        let b = build(&mut arena, &tree);
        assert_eq!(a, b, "{tree:?}");
    }
}

/// De Morgan consistency through the simplifying constructors: the
/// SMT solver finds cond ∧ ¬cond unsatisfiable for generated trees.
#[test]
fn negation_equisatisfiable() {
    let mut rng = Mix(0xDEAD);
    for _ in 0..256 {
        let tree = gen_tree(&mut rng, 4);
        let mut arena = TermArena::new();
        let cond = build(&mut arena, &tree);
        let neg = arena.not(cond);
        let both = arena.and2(cond, neg);
        let mut smt = SmtSession::new();
        assert_eq!(smt.check(&arena, both), SmtResult::Unsat, "{tree:?}");
    }
}

// ---- Brute-force enumeration oracle vs DPLL(T) ------------------------

/// Number of boolean / integer variables in oracle formulas. Total
/// distinct atoms stay ≤ 12, so exhaustive enumeration is cheap.
const NB: usize = 3;
const NI: usize = 3;
/// Enumeration domain for integer variables. Family-A atoms compare a
/// variable against constants in `0..=3`, so any satisfying assignment
/// over ℤ can be clamped into this domain without changing any atom's
/// truth value — making enumeration a *complete* oracle there.
const DOM: [i64; 6] = [-1, 0, 1, 2, 3, 4];

#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
}

#[derive(Debug, Clone)]
enum IntExpr {
    Var(usize),
    Const(i64),
    Add(Box<IntExpr>, Box<IntExpr>),
    Sub(Box<IntExpr>, Box<IntExpr>),
}

#[derive(Debug, Clone)]
enum Formula {
    BVar(usize),
    Cmp(CmpOp, IntExpr, IntExpr),
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
}

fn eval_expr(e: &IntExpr, xs: &[i64]) -> i64 {
    match e {
        IntExpr::Var(i) => xs[*i],
        IntExpr::Const(c) => *c,
        IntExpr::Add(a, b) => eval_expr(a, xs) + eval_expr(b, xs),
        IntExpr::Sub(a, b) => eval_expr(a, xs) - eval_expr(b, xs),
    }
}

fn eval_formula(f: &Formula, bs: &[bool], xs: &[i64]) -> bool {
    match f {
        Formula::BVar(i) => bs[*i],
        Formula::Cmp(op, a, b) => {
            let (a, b) = (eval_expr(a, xs), eval_expr(b, xs));
            match op {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
            }
        }
        Formula::Not(x) => !eval_formula(x, bs, xs),
        Formula::And(a, b) => eval_formula(a, bs, xs) && eval_formula(b, bs, xs),
        Formula::Or(a, b) => eval_formula(a, bs, xs) || eval_formula(b, bs, xs),
    }
}

fn term_of_expr(arena: &mut TermArena, e: &IntExpr) -> TermId {
    match e {
        IntExpr::Var(i) => arena.var(format!("ox{i}"), Sort::Int),
        IntExpr::Const(c) => arena.int(*c),
        IntExpr::Add(a, b) => {
            let (a, b) = (term_of_expr(arena, a), term_of_expr(arena, b));
            arena.add2(a, b)
        }
        IntExpr::Sub(a, b) => {
            let (a, b) = (term_of_expr(arena, a), term_of_expr(arena, b));
            arena.sub(a, b)
        }
    }
}

fn term_of_formula(arena: &mut TermArena, f: &Formula) -> TermId {
    match f {
        Formula::BVar(i) => arena.var(format!("ob{i}"), Sort::Bool),
        Formula::Cmp(op, a, b) => {
            let (a, b) = (term_of_expr(arena, a), term_of_expr(arena, b));
            match op {
                CmpOp::Lt => arena.lt(a, b),
                CmpOp::Le => arena.le(a, b),
                CmpOp::Eq => arena.eq(a, b),
                CmpOp::Ne => arena.ne(a, b),
            }
        }
        Formula::Not(x) => {
            let t = term_of_formula(arena, x);
            arena.not(t)
        }
        Formula::And(a, b) => {
            let (a, b) = (term_of_formula(arena, a), term_of_formula(arena, b));
            arena.and2(a, b)
        }
        Formula::Or(a, b) => {
            let (a, b) = (term_of_formula(arena, a), term_of_formula(arena, b));
            arena.or2(a, b)
        }
    }
}

/// Exhaustively checks satisfiability over `NB` booleans and `NI`
/// integers drawn from [`DOM`], honouring fixed boolean assignments
/// (from a solver model).
fn enumerate_sat(f: &Formula, fixed: &[(usize, bool)]) -> bool {
    for bits in 0..(1u32 << NB) {
        let bs: Vec<bool> = (0..NB).map(|i| bits & (1 << i) != 0).collect();
        if fixed.iter().any(|&(i, v)| bs[i] != v) {
            continue;
        }
        for &x0 in &DOM {
            for &x1 in &DOM {
                for &x2 in &DOM {
                    if eval_formula(f, &bs, &[x0, x1, x2]) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn gen_cmp_op(rng: &mut Mix) -> CmpOp {
    match rng.below(4) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Eq,
        _ => CmpOp::Ne,
    }
}

/// Family A leaves: booleans and `var ⊲ const` atoms with constants in
/// `0..=3` — the clamp-complete fragment.
fn gen_leaf_a(rng: &mut Mix) -> Formula {
    if rng.below(2) == 0 {
        Formula::BVar(rng.below(NB))
    } else {
        Formula::Cmp(
            gen_cmp_op(rng),
            IntExpr::Var(rng.below(NI)),
            IntExpr::Const(rng.below(4) as i64),
        )
    }
}

/// Family B leaves add variable–variable comparisons and ±arithmetic,
/// where enumeration is only a sound (one-directional) oracle.
fn gen_leaf_b(rng: &mut Mix) -> Formula {
    let lhs = match rng.below(3) {
        0 => IntExpr::Var(rng.below(NI)),
        1 => IntExpr::Add(
            Box::new(IntExpr::Var(rng.below(NI))),
            Box::new(IntExpr::Var(rng.below(NI))),
        ),
        _ => IntExpr::Sub(
            Box::new(IntExpr::Var(rng.below(NI))),
            Box::new(IntExpr::Var(rng.below(NI))),
        ),
    };
    let rhs = if rng.below(2) == 0 {
        IntExpr::Var(rng.below(NI))
    } else {
        IntExpr::Const(rng.below(4) as i64)
    };
    if rng.below(4) == 0 {
        Formula::BVar(rng.below(NB))
    } else {
        Formula::Cmp(gen_cmp_op(rng), lhs, rhs)
    }
}

fn gen_formula(rng: &mut Mix, depth: usize, leaf: &dyn Fn(&mut Mix) -> Formula) -> Formula {
    if depth == 0 || rng.below(4) == 0 {
        let l = leaf(rng);
        if rng.below(3) == 0 {
            Formula::Not(Box::new(l))
        } else {
            l
        }
    } else {
        let a = Box::new(gen_formula(rng, depth - 1, leaf));
        let b = Box::new(gen_formula(rng, depth - 1, leaf));
        if rng.below(2) == 0 {
            Formula::And(a, b)
        } else {
            Formula::Or(a, b)
        }
    }
}

/// Parses a solver boolean model (`ob{i}` names) back into indices.
fn fixed_bools(model: &[(String, bool)]) -> Vec<(usize, bool)> {
    model
        .iter()
        .filter_map(|(name, v)| {
            name.strip_prefix("ob")
                .and_then(|i| i.parse::<usize>().ok())
                .map(|i| (i, *v))
        })
        .collect()
}

/// Family A: on the clamp-complete fragment, the DPLL(T) verdict must
/// agree *exactly* with exhaustive enumeration, and every `Sat` model's
/// boolean assignment must extend to a full satisfying assignment.
#[test]
fn smt_agrees_with_enumeration_oracle_exactly() {
    let mut rng = Mix(0x0A11);
    for round in 0..160 {
        let f = gen_formula(&mut rng, 3, &gen_leaf_a);
        let mut arena = TermArena::new();
        let t = term_of_formula(&mut arena, &f);
        let expected = enumerate_sat(&f, &[]);
        let mut smt = SmtSession::new();
        let (got, model) = smt.check_with_model(&arena, t);
        assert_eq!(
            got == SmtResult::Sat,
            expected,
            "round {round}: oracle disagrees on {f:?}"
        );
        if got == SmtResult::Sat {
            assert!(
                enumerate_sat(&f, &fixed_bools(&model)),
                "round {round}: model {model:?} does not extend to a witness of {f:?}"
            );
        }
    }
}

/// Family B: with variable–variable atoms and arithmetic, enumeration
/// over a finite domain is still a sound oracle — any witness it finds
/// is a real witness over ℤ, so the solver must never answer `Unsat`
/// for an enumeration-satisfiable formula.
#[test]
fn smt_never_refutes_enumeration_witness() {
    let mut rng = Mix(0x0B22);
    for round in 0..160 {
        let f = gen_formula(&mut rng, 3, &gen_leaf_b);
        let mut arena = TermArena::new();
        let t = term_of_formula(&mut arena, &f);
        let mut smt = SmtSession::new();
        let got = smt.check(&arena, t);
        if enumerate_sat(&f, &[]) {
            assert_eq!(
                got,
                SmtResult::Sat,
                "round {round}: solver refuted a formula with a finite witness: {f:?}"
            );
        }
    }
}

/// Any generated project compiles and the full pipeline runs without
/// panicking; detection candidate accounting stays consistent.
#[test]
fn pipeline_total_on_generated_projects() {
    for seed in 0u64..8 {
        let project = generate(&GenConfig {
            seed,
            functions: 12,
            stmts_per_function: 8,
            real_bugs: 1,
            decoys: 1,
            taint: true,
        });
        let analysis =
            Analysis::from_source(&project.source).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut session = analysis.session();
        session.query(&Query::Check(CheckerKind::UseAfterFree));
        let s = session.stats();
        assert_eq!(s.detect.candidates, s.detect.reports + s.detect.refuted);
    }
}
