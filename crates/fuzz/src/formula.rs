//! Oracle (d): brute-force enumeration vs the DPLL(T) solver.
//!
//! Random formulas over a small fixed atom pool are checked two ways:
//! exhaustive enumeration over a finite domain, and the production
//! [`SmtSession`]. On the *clamp-complete* fragment (boolean atoms plus
//! `var ⊲ const` with constants in `0..=3`) any satisfying assignment
//! over ℤ can be clamped into the enumeration domain, so the two
//! verdicts must agree exactly; with variable–variable atoms and
//! ±arithmetic the enumeration witness is still sound, so `Sat` is
//! mandatory whenever enumeration finds one.

use pinpoint_smt::{
    canon_info, SmtResult, SmtSession, Sort, TermArena, TermId, Verdict, VerdictTable,
};
use pinpoint_workload::rng::SmallRng;

const NB: usize = 3;
const NI: usize = 3;
/// Family-A atoms compare variables against constants in `0..=3`, so
/// this domain makes enumeration complete there.
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

/// Variable-name prefixes for one term build. The verdict oracle builds
/// the same [`Formula`] twice under different prefixes to exercise the
/// alpha-invariance of the canonical fingerprint.
#[derive(Debug, Clone, Copy)]
struct Names {
    bool_pfx: &'static str,
    int_pfx: &'static str,
}

const ORACLE_NAMES: Names = Names {
    bool_pfx: "ob",
    int_pfx: "ox",
};

fn term_of_expr(arena: &mut TermArena, e: &IntExpr, names: Names) -> TermId {
    match e {
        IntExpr::Var(i) => arena.var(format!("{}{i}", names.int_pfx), Sort::Int),
        IntExpr::Const(c) => arena.int(*c),
        IntExpr::Add(a, b) => {
            let (a, b) = (term_of_expr(arena, a, names), term_of_expr(arena, b, names));
            arena.add2(a, b)
        }
        IntExpr::Sub(a, b) => {
            let (a, b) = (term_of_expr(arena, a, names), term_of_expr(arena, b, names));
            arena.sub(a, b)
        }
    }
}

fn term_of_formula(arena: &mut TermArena, f: &Formula, names: Names) -> TermId {
    match f {
        Formula::BVar(i) => arena.var(format!("{}{i}", names.bool_pfx), Sort::Bool),
        Formula::Cmp(op, a, b) => {
            let (a, b) = (term_of_expr(arena, a, names), term_of_expr(arena, b, names));
            match op {
                CmpOp::Lt => arena.lt(a, b),
                CmpOp::Le => arena.le(a, b),
                CmpOp::Eq => arena.eq(a, b),
                CmpOp::Ne => arena.ne(a, b),
            }
        }
        Formula::Not(x) => {
            let t = term_of_formula(arena, x, names);
            arena.not(t)
        }
        Formula::And(a, b) => {
            let (a, b) = (
                term_of_formula(arena, a, names),
                term_of_formula(arena, b, names),
            );
            arena.and2(a, b)
        }
        Formula::Or(a, b) => {
            let (a, b) = (
                term_of_formula(arena, a, names),
                term_of_formula(arena, b, names),
            );
            arena.or2(a, b)
        }
    }
}

/// Exhaustive satisfiability over `NB` booleans × `NI` ints from [`DOM`],
/// honouring fixed boolean assignments from a solver model.
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

fn gen_cmp_op(rng: &mut SmallRng) -> CmpOp {
    match rng.gen_range(0..4) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Eq,
        _ => CmpOp::Ne,
    }
}

/// Clamp-complete leaves: booleans and `var ⊲ const`, constants `0..=3`.
fn gen_leaf_a(rng: &mut SmallRng) -> Formula {
    if rng.gen_range(0..2) == 0 {
        Formula::BVar(rng.gen_range(0..NB))
    } else {
        Formula::Cmp(
            gen_cmp_op(rng),
            IntExpr::Var(rng.gen_range(0..NI)),
            IntExpr::Const(rng.gen_range(0..4) as i64),
        )
    }
}

/// Leaves with variable–variable comparisons and ±arithmetic, where
/// enumeration is only sound (one-directional).
fn gen_leaf_b(rng: &mut SmallRng) -> Formula {
    let lhs = match rng.gen_range(0..3) {
        0 => IntExpr::Var(rng.gen_range(0..NI)),
        1 => IntExpr::Add(
            Box::new(IntExpr::Var(rng.gen_range(0..NI))),
            Box::new(IntExpr::Var(rng.gen_range(0..NI))),
        ),
        _ => IntExpr::Sub(
            Box::new(IntExpr::Var(rng.gen_range(0..NI))),
            Box::new(IntExpr::Var(rng.gen_range(0..NI))),
        ),
    };
    let rhs = if rng.gen_range(0..2) == 0 {
        IntExpr::Var(rng.gen_range(0..NI))
    } else {
        IntExpr::Const(rng.gen_range(0..4) as i64)
    };
    if rng.gen_range(0..4) == 0 {
        Formula::BVar(rng.gen_range(0..NB))
    } else {
        Formula::Cmp(gen_cmp_op(rng), lhs, rhs)
    }
}

fn gen_formula(rng: &mut SmallRng, depth: usize, family_a: bool) -> Formula {
    if depth == 0 || rng.gen_range(0..4) == 0 {
        let l = if family_a {
            gen_leaf_a(rng)
        } else {
            gen_leaf_b(rng)
        };
        if rng.gen_range(0..3) == 0 {
            Formula::Not(Box::new(l))
        } else {
            l
        }
    } else {
        let a = Box::new(gen_formula(rng, depth - 1, family_a));
        let b = Box::new(gen_formula(rng, depth - 1, family_a));
        if rng.gen_range(0..2) == 0 {
            Formula::And(a, b)
        } else {
            Formula::Or(a, b)
        }
    }
}

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

/// Runs the enumeration-vs-DPLL(T) oracle for one seed. Checks one
/// clamp-complete formula (exact agreement, model extension) and one
/// arithmetic formula (soundness direction).
pub fn smt_oracle(seed: u64) -> Result<(), (String, String)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5317_0AC1_E0F0_12A5);
    // Family A: exact agreement.
    let f = gen_formula(&mut rng, 3, true);
    let mut arena = TermArena::new();
    let t = term_of_formula(&mut arena, &f, ORACLE_NAMES);
    let expected = enumerate_sat(&f, &[]);
    let (got, model) = SmtSession::new().check_with_model(&arena, t);
    if (got == SmtResult::Sat) != expected {
        return Err((
            "exactness".into(),
            format!("solver said {got:?}, enumeration said sat={expected} on {f:?}"),
        ));
    }
    if got == SmtResult::Sat && !enumerate_sat(&f, &fixed_bools(&model)) {
        return Err((
            "model".into(),
            format!("model {model:?} does not extend to a witness of {f:?}"),
        ));
    }
    // Family B: enumeration witnesses are sound.
    let f = gen_formula(&mut rng, 3, false);
    let mut arena = TermArena::new();
    let t = term_of_formula(&mut arena, &f, ORACLE_NAMES);
    let got = SmtSession::new().check(&arena, t);
    if enumerate_sat(&f, &[]) && got != SmtResult::Sat {
        return Err((
            "soundness".into(),
            format!("solver refuted a formula with a finite witness: {f:?}"),
        ));
    }
    Ok(())
}

/// Runs the cached-vs-fresh verdict oracle for one seed: random formulas
/// are solved fresh to populate a [`VerdictTable`] keyed by canonical
/// fingerprint (exactly like a cold detection run), then rebuilt under
/// *renamed* variables and answered from the table. Every rebuild must
/// hit (fingerprints are alpha-invariant), every replayed verdict must
/// match what a fresh solver says about the renamed build, and on the
/// clamp-complete family a replayed `Sat` model — transferred across the
/// renaming through canonical variable indices — must extend to a real
/// witness.
pub fn verdicts_oracle(seed: u64) -> Result<(), (String, String)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E4D_1C7C_AC8E_D0AB);
    let formulas: Vec<(Formula, bool)> = (0..4)
        .map(|i| {
            let family_a = i % 2 == 0;
            (gen_formula(&mut rng, 3, family_a), family_a)
        })
        .collect();
    let renamed = Names {
        bool_pfx: "qb",
        int_pfx: "qx",
    };

    // Cold pass: fresh solves populate the table under canonical
    // fingerprints, with `Sat` models rewritten to canonical indices.
    let mut table = VerdictTable::new();
    for (f, _) in &formulas {
        let mut arena = TermArena::new();
        let t = term_of_formula(&mut arena, f, ORACLE_NAMES);
        let info = canon_info(&arena, t);
        let (got, model) = SmtSession::new().check_with_model(&arena, t);
        let verdict = info.verdict(got, &model);
        table.insert(info.fingerprint, verdict);
    }

    // Warm pass: alpha-renamed rebuilds must be answered by the table,
    // and the answers must agree with fresh solves.
    for (f, family_a) in &formulas {
        let mut arena = TermArena::new();
        let t = term_of_formula(&mut arena, f, renamed);
        let info = canon_info(&arena, t);
        let Some(verdict) = table.get(info.fingerprint) else {
            return Err((
                "verdict-miss".into(),
                format!("alpha-renamed formula missed the verdict table: {f:?}"),
            ));
        };
        let fresh = SmtSession::new().check(&arena, t);
        let replayed = match verdict {
            Verdict::Unsat => SmtResult::Unsat,
            Verdict::Sat(_) => SmtResult::Sat,
        };
        if replayed != fresh {
            return Err((
                "verdict-mismatch".into(),
                format!("cached verdict {replayed:?} but fresh solve says {fresh:?} on {f:?}"),
            ));
        }
        if let Verdict::Sat(vals) = verdict {
            let mut fixed = Vec::new();
            for &(idx, v) in vals {
                let Some((name, _)) = info.vars.get(idx as usize) else {
                    return Err((
                        "verdict-index".into(),
                        format!("canonical index {idx} out of range for {f:?}"),
                    ));
                };
                if let Some(i) = name
                    .strip_prefix(renamed.bool_pfx)
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    fixed.push((i, v));
                }
            }
            if *family_a && !enumerate_sat(f, &fixed) {
                return Err((
                    "verdict-model".into(),
                    format!("replayed model {vals:?} does not extend to a witness of {f:?}"),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_clean_over_many_seeds() {
        for seed in 0..64 {
            smt_oracle(seed).unwrap_or_else(|(tag, d)| panic!("seed {seed} [{tag}]: {d}"));
        }
    }

    #[test]
    fn verdict_oracle_clean_over_many_seeds() {
        for seed in 0..64 {
            verdicts_oracle(seed).unwrap_or_else(|(tag, d)| panic!("seed {seed} [{tag}]: {d}"));
        }
    }
}
