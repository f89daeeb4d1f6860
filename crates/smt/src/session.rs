//! Incremental SMT sessions: one long-lived solver answering many
//! related queries.
//!
//! This is the crate's one DPLL(T) loop. A query that stands alone runs
//! in a session of its own (`SmtSession::new().check(..)`), which encodes
//! and learns everything from scratch. Pinpoint's detection stage poses
//! hundreds of queries per source whose conditions share most of their
//! structure (§3.1), so it keeps one [`SmtSession`] — one Tseitin encoder
//! and one SAT core — alive across them:
//!
//! - every clause in the core is either a Tseitin *definition* (a full
//!   `gate ↔ inputs` equivalence) or a theory lemma (a blocking clause
//!   refuting a theory-inconsistent conjunction of atoms), both globally
//!   valid — so clauses from one query, including everything the CDCL
//!   core *learned*, soundly constrain every later query;
//! - a query root is asserted as an **assumption** literal
//!   ([`crate::sat::SatSolver::solve_assuming`]), never as a permanent
//!   unit clause, so an `Unsat` answer retracts with the assumption
//!   instead of poisoning the instance;
//! - shared subterms encode once: the second query over a re-occurring
//!   guard conjunction reuses its SAT variables and clauses outright.
//!
//! Determinism: given the same sequence of queries over the same arena,
//! a session's answers, models, and query costs are identical — atom
//! scans are ordered by [`TermId`], not hash-map order. The detection
//! stage exploits this by running one session per source, so results are
//! independent of how sources are scheduled across worker threads.

use crate::sat::{BVar, Lit, SatResult as CoreResult};
use crate::solver::{BoolModel, Encoder, SmtResult};
use crate::term::{Sort, TermArena, TermId, TermKind};
use crate::theory::{check_conjunction, TheoryContext, TheoryLit, TheoryVerdict};
use pinpoint_obs::QueryCost;
use std::collections::HashSet;

/// A persistent, assumption-based incremental SMT solver.
///
/// The session keeps no ledger across queries: what a query cost (SAT
/// conflicts, decisions, propagations, learned clauses, DPLL(T) theory
/// checks and conflicts, an exhausted round budget, wall time) is
/// [`SmtSession::last_cost`], replaced by the next query. Callers that
/// want totals add the costs up; the detection stage records one per
/// query, and the `smt.*` metrics are sums of those records.
///
/// # Examples
///
/// ```
/// use pinpoint_smt::term::{Sort, TermArena};
/// use pinpoint_smt::session::SmtSession;
/// use pinpoint_smt::solver::SmtResult;
///
/// let mut arena = TermArena::new();
/// let x = arena.var("x", Sort::Int);
/// let zero = arena.int(0);
/// let five = arena.int(5);
/// let pos = arena.lt(zero, x);
/// let neg = arena.lt(x, zero);
/// let x5 = arena.eq(x, five);
/// let q1 = arena.and2(pos, neg);
/// let q2 = arena.and2(pos, x5);
/// let mut s = SmtSession::new();
/// assert_eq!(s.check(&arena, q1), SmtResult::Unsat);
/// // Refuting `q1` took the arithmetic theory.
/// assert!(s.last_cost.theory_conflicts > 0);
/// // The session survives the Unsat answer and reuses the encoding of
/// // `pos` for the next query.
/// assert_eq!(s.check(&arena, q2), SmtResult::Sat);
/// ```
#[derive(Debug)]
pub struct SmtSession {
    enc: Encoder,
    /// Bound on DPLL(T) model-refutation rounds per query; an exceeded
    /// bound conservatively answers `Sat` and counts in
    /// [`QueryCost::budget_exhausted`].
    pub max_rounds: u32,
    /// Cost of the most recent query (zeroed at the start of each check).
    pub last_cost: QueryCost,
}

impl Default for SmtSession {
    fn default() -> Self {
        Self::new()
    }
}

impl SmtSession {
    /// Creates an empty session with the default round limit.
    pub fn new() -> Self {
        Self {
            enc: Encoder::new(),
            max_rounds: 10_000,
            last_cost: QueryCost::default(),
        }
    }

    /// Number of conflict-derived clauses currently held by the SAT
    /// core — the state an incremental session carries between queries.
    pub fn num_learnt(&self) -> usize {
        self.enc.sat.num_learnt()
    }

    /// Checks satisfiability of `formula` (a boolean term in `arena`).
    ///
    /// # Panics
    ///
    /// Panics if `formula` is not of boolean sort.
    pub fn check(&mut self, arena: &TermArena, formula: TermId) -> SmtResult {
        self.check_with_model(arena, formula).0
    }

    /// Like [`SmtSession::check`], also returning a witness
    /// assignment of the formula's free *boolean* variables when
    /// satisfiable.
    ///
    /// # Panics
    ///
    /// Panics if `formula` is not of boolean sort.
    pub fn check_with_model(
        &mut self,
        arena: &TermArena,
        formula: TermId,
    ) -> (SmtResult, BoolModel) {
        assert_eq!(arena.sort(formula), Sort::Bool, "SMT query must be boolean");
        // The DPLL(T) loop counts theory checks and conflicts straight
        // into the new cost; the SAT core's counters are differenced.
        self.last_cost = QueryCost::default();
        let sat_before = self.enc.sat.stats;
        let started = std::time::Instant::now();
        let (result, model, exhausted) = self.check_inner(arena, formula);
        let sat_after = self.enc.sat.stats;
        let cost = &mut self.last_cost;
        cost.solver_ns = started.elapsed().as_nanos() as u64;
        cost.conflicts = sat_after.conflicts - sat_before.conflicts;
        cost.learned = sat_after.learned - sat_before.learned;
        cost.propagations = sat_after.propagations - sat_before.propagations;
        cost.decisions = sat_after.decisions - sat_before.decisions;
        cost.budget_exhausted = u64::from(exhausted);
        (result, model)
    }

    /// The DPLL(T) loop; the flag is set when the answer is the
    /// conservative `Sat` of an exhausted round budget.
    fn check_inner(&mut self, arena: &TermArena, formula: TermId) -> (SmtResult, BoolModel, bool) {
        if arena.is_false(formula) {
            return (SmtResult::Unsat, Vec::new(), false);
        }
        if arena.is_true(formula) {
            return (SmtResult::Sat, Vec::new(), false);
        }
        if self.enc.sat.is_unsat() {
            // A level-0 contradiction (e.g. conflicting theory lemmas on
            // shared structure) refutes every query.
            return (SmtResult::Unsat, Vec::new(), false);
        }
        let root = self.enc.encode(arena, formula);
        // Theory reasoning is restricted to the atoms this query can see:
        // the root's cone. Atoms of *other* queries encoded in this
        // session keep their variables and clauses but do not join the
        // conjunction sent to the theory checker.
        let mut atoms = Self::relevant_atoms(arena, formula);
        atoms.sort_unstable();
        let theory: Vec<(TermId, BVar)> = atoms
            .iter()
            .filter(|&&t| {
                matches!(
                    arena.kind(t),
                    TermKind::Eq(..) | TermKind::Lt(..) | TermKind::Le(..)
                )
            })
            .map(|&t| (t, self.enc.atom_vars[&t]))
            .collect();
        // Built on the second round: most queries end in their first
        // (4 424 of 7 931 on `cold_dense`), which `check_conjunction`
        // answers over that round's literals alone.
        let mut context: Option<TheoryContext> = None;
        let mut polarity: Vec<Option<bool>> = Vec::with_capacity(theory.len());
        let mut rounds = 0u32;
        loop {
            match self.enc.sat.solve_assuming(&[root]) {
                CoreResult::Unsat => return (SmtResult::Unsat, Vec::new(), false),
                CoreResult::Sat => {
                    polarity.clear();
                    polarity.extend(theory.iter().map(|&(_, bvar)| self.enc.sat.value(bvar)));
                    let blocking: Vec<Lit> = theory
                        .iter()
                        .zip(&polarity)
                        .filter_map(|(&(_, bvar), value)| Some(Lit::new(bvar, !(*value)?)))
                        .collect();
                    self.last_cost.theory_checks += 1;
                    let verdict = match &mut context {
                        Some(cx) => cx.check(&polarity),
                        None if rounds == 0 => {
                            let lits: Vec<TheoryLit> = theory
                                .iter()
                                .zip(&polarity)
                                .filter_map(|(&(atom, _), value)| {
                                    Some(TheoryLit {
                                        atom,
                                        positive: (*value)?,
                                    })
                                })
                                .collect();
                            check_conjunction(arena, &lits)
                        }
                        None => {
                            let terms: Vec<TermId> = theory.iter().map(|&(t, _)| t).collect();
                            context
                                .insert(TheoryContext::new(arena, &terms))
                                .check(&polarity)
                        }
                    };
                    match verdict {
                        TheoryVerdict::Consistent => {
                            let model = self.bool_model(arena, &atoms);
                            return (SmtResult::Sat, model, false);
                        }
                        TheoryVerdict::Conflict => {
                            self.last_cost.theory_conflicts += 1;
                            if blocking.is_empty() {
                                return (SmtResult::Unsat, Vec::new(), false);
                            }
                            // A theory lemma: valid regardless of the
                            // query, so it persists in the session.
                            self.enc.sat.add_clause(blocking);
                        }
                    }
                }
            }
            rounds += 1;
            if rounds >= self.max_rounds {
                return (SmtResult::Sat, Vec::new(), true);
            }
        }
    }

    /// Atoms (theory predicates and free booleans) reachable from the
    /// query root through boolean gates.
    fn relevant_atoms(arena: &TermArena, formula: TermId) -> Vec<TermId> {
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut atoms: Vec<TermId> = Vec::new();
        let mut stack: Vec<TermId> = vec![formula];
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            match arena.kind(t) {
                TermKind::BoolConst(_) => {}
                TermKind::Not(x) => stack.push(*x),
                TermKind::And(xs) | TermKind::Or(xs) => stack.extend(xs.iter().copied()),
                TermKind::Ite(c, a, b) if arena.sort(t) == Sort::Bool => {
                    stack.push(*c);
                    stack.push(*a);
                    stack.push(*b);
                }
                _ => atoms.push(t),
            }
        }
        atoms
    }

    /// The current assignment of the free boolean variables among
    /// `atoms`, sorted by name.
    fn bool_model(&self, arena: &TermArena, atoms: &[TermId]) -> BoolModel {
        let mut model: BoolModel = atoms
            .iter()
            .filter_map(|&term| match arena.kind(term) {
                TermKind::Var(name, Sort::Bool) => {
                    let bvar = self.enc.atom_vars[&term];
                    self.enc.sat.value(bvar).map(|value| (name.clone(), value))
                }
                _ => None,
            })
            .collect();
        model.sort();
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_matches_fresh_solver_over_query_sequence() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let p = a.var("p", Sort::Bool);
        let zero = a.int(0);
        let ten = a.int(10);
        let five = a.int(5);
        let l = a.lt(x, zero);
        let r = a.gt(x, ten);
        let lr = a.or2(l, r);
        let x5 = a.eq(x, five);
        let queries = [
            a.and2(lr, x5),    // theory-unsat
            a.and2(lr, p),     // sat
            a.and2(l, r),      // theory-unsat
            a.and([lr, p, r]), // sat
            a.tru(),
            a.fls(),
        ];
        let mut session = SmtSession::new();
        for &q in &queries {
            let (want, want_model) = SmtSession::new().check_with_model(&a, q);
            let (got, got_model) = session.check_with_model(&a, q);
            assert_eq!(got, want, "verdict mismatch");
            assert_eq!(got_model, want_model, "model mismatch");
        }
    }

    #[test]
    fn unsat_queries_do_not_poison_the_session() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let pos = a.lt(zero, x);
        let neg = a.lt(x, zero);
        let contradiction = a.and2(pos, neg);
        let mut s = SmtSession::new();
        for _ in 0..3 {
            assert_eq!(s.check(&a, contradiction), SmtResult::Unsat);
            assert_eq!(s.check(&a, pos), SmtResult::Sat);
        }
    }

    #[test]
    fn shared_structure_is_encoded_once() {
        let mut a = TermArena::new();
        let mut guards = Vec::new();
        for i in 0..8 {
            guards.push(a.var(format!("g{i}"), Sort::Bool));
        }
        let base = a.and(guards.clone());
        let s1 = a.var("sink1", Sort::Bool);
        let s2 = a.var("sink2", Sort::Bool);
        let q1 = a.and2(base, s1);
        let q2 = a.and2(base, s2);
        let mut s = SmtSession::new();
        assert_eq!(s.check(&a, q1), SmtResult::Sat);
        let vars_after_q1 = s.enc.sat.num_vars();
        assert_eq!(s.check(&a, q2), SmtResult::Sat);
        // Only `sink2` and the new And gate need fresh variables; the
        // eight guards and the shared conjunction are reused.
        let added = s.enc.sat.num_vars() - vars_after_q1;
        assert!(added <= 2, "expected ≤2 fresh vars, got {added}");
    }

    #[test]
    fn theory_lemmas_persist_across_queries() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let five = a.int(5);
        let l = a.lt(x, zero);
        let e = a.eq(x, five);
        let q = a.and2(l, e);
        let mut s = SmtSession::new();
        assert_eq!(s.check(&a, q), SmtResult::Unsat);
        assert!(s.last_cost.theory_checks > 0);
        // The same contradiction re-queried: the blocking lemma from the
        // first query (or propositional learning) refutes the second
        // without new theory rounds.
        assert_eq!(s.check(&a, q), SmtResult::Unsat);
        assert_eq!(
            s.last_cost.theory_checks, 0,
            "second identical query must not re-enter the theory loop"
        );
    }

    #[test]
    fn round_budget_exhaustion_is_flagged_and_counted() {
        // x < 0 ∧ (x = 1 ∨ … ∨ x = 6): every propositional model is a
        // theory conflict, and refuting them all takes more than 3 rounds.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let negative = a.lt(x, zero);
        let picks: Vec<TermId> = (1..=6)
            .map(|i| {
                let c = a.int(i);
                a.eq(x, c)
            })
            .collect();
        let any = a.or(picks);
        let q = a.and2(negative, any);
        let mut s = SmtSession::new();
        s.max_rounds = 3;
        assert_eq!(s.check(&a, q), SmtResult::Sat, "conservative answer");
        assert_eq!(s.last_cost.budget_exhausted, 1);
        assert_eq!(s.last_cost.theory_checks, 3);
        // The flag is per query: a query that finishes clears it.
        let p = a.var("p", Sort::Bool);
        assert_eq!(s.check(&a, p), SmtResult::Sat);
        assert_eq!(s.last_cost.budget_exhausted, 0);
        // With the default budget the same query is refuted.
        let mut full = SmtSession::new();
        assert_eq!(full.check(&a, q), SmtResult::Unsat);
        assert!(full.last_cost.theory_checks > 3);
        assert_eq!(full.last_cost.budget_exhausted, 0);
    }

    #[test]
    fn model_is_restricted_to_the_current_query() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let q = a.var("q", Sort::Bool);
        let mut s = SmtSession::new();
        let (r1, m1) = s.check_with_model(&a, p);
        assert_eq!(r1, SmtResult::Sat);
        assert_eq!(m1, vec![("p".to_string(), true)]);
        // `p` is encoded in the session, but a query over `q` alone must
        // not leak `p` into the witness.
        let (r2, m2) = s.check_with_model(&a, q);
        assert_eq!(r2, SmtResult::Sat);
        assert_eq!(m2, vec![("q".to_string(), true)]);
    }
}
