//! Query results and the Tseitin encoder of the lazy
//! DPLL(T) solver used at Pinpoint's bug-detection stage.
//!
//! Path conditions harvested from the symbolic expression graph are boolean
//! combinations of theory atoms. The solver Tseitin-encodes the boolean
//! skeleton into CNF, runs the CDCL core, and on every propositional model
//! checks the implied conjunction of theory literals with
//! [`crate::theory::check_conjunction`]. Inconsistent models are excluded
//! with a blocking clause and the loop repeats until either a
//! theory-consistent model is found (`Sat`) or the CNF becomes
//! unsatisfiable (`Unsat`). That loop exists once, in
//! [`SmtSession`](crate::SmtSession).

use crate::sat::{BVar, Lit, SatSolver};
use crate::term::{TermArena, TermId, TermKind};
use std::collections::HashMap;

/// Result of an SMT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtResult {
    /// The formula is satisfiable (a theory-consistent model was found).
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
}

/// A witness assignment for the boolean variables of a satisfiable query,
/// mapping variable names to their values. Integer-sorted variables are
/// not included (their theory models are not materialised); boolean
/// branch conditions are what a bug report's witness needs.
pub type BoolModel = Vec<(String, bool)>;

/// Tseitin encoder: maps boolean subterms to SAT variables and emits the
/// defining clauses.
///
/// All emitted clauses are *definitions* (full Tseitin equivalences) or
/// globally valid theory lemmas, so one encoder may serve many roots over
/// its lifetime: asserting a root is done with an assumption literal, not
/// a permanent unit clause (see [`crate::session::SmtSession`]).
#[derive(Debug)]
pub(crate) struct Encoder {
    pub(crate) sat: SatSolver,
    /// SAT variable for every boolean subterm (atoms and gates alike).
    pub(crate) term_vars: HashMap<TermId, BVar>,
    /// The subset of `term_vars` that are theory atoms or free booleans.
    pub(crate) atom_vars: HashMap<TermId, BVar>,
}

impl Encoder {
    pub(crate) fn new() -> Self {
        Self {
            sat: SatSolver::new(),
            term_vars: HashMap::new(),
            atom_vars: HashMap::new(),
        }
    }

    /// Returns the literal representing `t` (positive polarity).
    pub(crate) fn encode(&mut self, arena: &TermArena, t: TermId) -> Lit {
        if let Some(&v) = self.term_vars.get(&t) {
            return Lit::new(v, true);
        }
        match arena.kind(t).clone() {
            TermKind::BoolConst(b) => {
                let v = self.fresh(t);
                self.sat.add_clause(vec![Lit::new(v, b)]);
                Lit::new(v, true)
            }
            TermKind::Not(x) => {
                let inner = self.encode(arena, x);
                // Reuse the inner variable with flipped polarity; cache via
                // a gate variable to keep the map total.
                let v = self.fresh(t);
                let lv = Lit::new(v, true);
                // v ↔ ¬inner
                self.sat.add_clause(vec![lv.negate(), inner.negate()]);
                self.sat.add_clause(vec![lv, inner]);
                lv
            }
            TermKind::And(xs) => {
                let children: Vec<Lit> = xs.iter().map(|&x| self.encode(arena, x)).collect();
                let v = self.fresh(t);
                let lv = Lit::new(v, true);
                // v → each child; all children → v.
                let mut long = vec![lv];
                for c in &children {
                    self.sat.add_clause(vec![lv.negate(), *c]);
                    long.push(c.negate());
                }
                self.sat.add_clause(long);
                lv
            }
            TermKind::Or(xs) => {
                let children: Vec<Lit> = xs.iter().map(|&x| self.encode(arena, x)).collect();
                let v = self.fresh(t);
                let lv = Lit::new(v, true);
                let mut long = vec![lv.negate()];
                for c in &children {
                    self.sat.add_clause(vec![lv, c.negate()]);
                    long.push(*c);
                }
                self.sat.add_clause(long);
                lv
            }
            TermKind::Ite(c, a, b) if arena.sort(t) == crate::term::Sort::Bool => {
                let lc = self.encode(arena, c);
                let la = self.encode(arena, a);
                let lb = self.encode(arena, b);
                let v = self.fresh(t);
                let lv = Lit::new(v, true);
                // v ↔ (c ? a : b)
                self.sat.add_clause(vec![lc.negate(), la.negate(), lv]);
                self.sat.add_clause(vec![lc.negate(), la, lv.negate()]);
                self.sat.add_clause(vec![lc, lb.negate(), lv]);
                self.sat.add_clause(vec![lc, lb, lv.negate()]);
                lv
            }
            // Atoms: free boolean variables and theory predicates.
            _ => {
                let v = self.fresh(t);
                self.atom_vars.insert(t, v);
                Lit::new(v, true)
            }
        }
    }

    fn fresh(&mut self, t: TermId) -> BVar {
        let v = self.sat.new_var();
        self.term_vars.insert(t, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SmtSession;
    use crate::term::Sort;

    fn solver() -> SmtSession {
        SmtSession::new()
    }

    #[test]
    fn pure_boolean_sat_unsat() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let q = a.var("q", Sort::Bool);
        let nq = a.not(q);
        let f = a.and2(p, nq);
        let mut s = solver();
        assert_eq!(s.check(&a, f), SmtResult::Sat);
        // (p ∨ q) ∧ ¬p ∧ ¬q
        let pq = a.or2(p, q);
        let np = a.not(p);
        let g = a.and([pq, np, nq]);
        assert_eq!(s.check(&a, g), SmtResult::Unsat);
    }

    #[test]
    fn theory_unsat_via_bounds() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let five = a.int(5);
        let lo = a.lt(five, x);
        let hi = a.lt(x, zero);
        let f = a.and2(lo, hi);
        let mut s = solver();
        assert_eq!(s.check(&a, f), SmtResult::Unsat);
    }

    #[test]
    fn theory_guides_boolean_choice() {
        // (x < 0 ∨ x > 10) ∧ x = 5 is unsat; ∧ x = 12 is sat.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let ten = a.int(10);
        let five = a.int(5);
        let twelve = a.int(12);
        let l = a.lt(x, zero);
        let r = a.gt(x, ten);
        let lr = a.or2(l, r);
        let x5 = a.eq(x, five);
        let x12 = a.eq(x, twelve);
        let f_unsat = a.and2(lr, x5);
        let f_sat = a.and2(lr, x12);
        let mut s = solver();
        assert_eq!(s.check(&a, f_unsat), SmtResult::Unsat);
        assert!(s.last_cost.theory_conflicts > 0, "needed theory refutation");
        assert_eq!(s.check(&a, f_sat), SmtResult::Sat);
    }

    #[test]
    fn equality_transitivity_in_context() {
        // p → x = y, p, y = 0, x ≠ 0 is unsat.
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let zero = a.int(0);
        let xy = a.eq(x, y);
        let imp = a.implies(p, xy);
        let y0 = a.eq(y, zero);
        let nx0 = a.ne(x, zero);
        let f = a.and([imp, p, y0, nx0]);
        let mut s = solver();
        assert_eq!(s.check(&a, f), SmtResult::Unsat);
        // Without p it is satisfiable.
        let g = a.and([imp, y0, nx0]);
        assert_eq!(s.check(&a, g), SmtResult::Sat);
    }

    #[test]
    fn value_flow_shaped_condition() {
        // The shape Pinpoint emits for the Fig. 2 bug: θ1 ∧ θ3 ∧ θ2 with
        // θ3 ⇔ (X ≠ 0) and the value-flow equalities; must be SAT.
        let mut a = TermArena::new();
        let t1 = a.var("theta1", Sort::Bool);
        let t2 = a.var("theta2", Sort::Bool);
        let x = a.var("X", Sort::Int);
        let k = a.var("K", Sort::Int);
        let c = a.var("c", Sort::Int);
        let f_ = a.var("f", Sort::Int);
        let zero = a.int(0);
        let t3 = a.ne(x, zero);
        let flow = [a.eq(k, x), a.eq(c, f_)];
        let cond = a.and([t1, t2, t3, flow[0], flow[1]]);
        let mut s = solver();
        assert_eq!(s.check(&a, cond), SmtResult::Sat);
    }

    #[test]
    fn constants_fold_to_immediate_answers() {
        let mut a = TermArena::new();
        let t = a.tru();
        let f = a.fls();
        let mut s = solver();
        assert_eq!(s.check(&a, t), SmtResult::Sat);
        assert_eq!(s.check(&a, f), SmtResult::Unsat);
        // Neither reached the SAT core or the theories.
        let cost = s.last_cost;
        assert_eq!(
            (cost.decisions, cost.propagations, cost.theory_checks),
            (0, 0, 0)
        );
    }

    #[test]
    fn boolean_ite_encoded() {
        let mut a = TermArena::new();
        let c = a.var("c", Sort::Bool);
        let p = a.var("p", Sort::Bool);
        let q = a.var("q", Sort::Bool);
        let ite = a.ite(c, p, q);
        // ite(c,p,q) ∧ c ∧ ¬p is unsat.
        let np = a.not(p);
        let f = a.and([ite, c, np]);
        let mut s = solver();
        assert_eq!(s.check(&a, f), SmtResult::Unsat);
        // ite(c,p,q) ∧ ¬c ∧ q is sat.
        let nc = a.not(c);
        let g = a.and([ite, nc, q]);
        assert_eq!(s.check(&a, g), SmtResult::Sat);
    }

    #[test]
    fn deep_conjunction_of_independent_atoms() {
        let mut a = TermArena::new();
        let mut conj = Vec::new();
        for i in 0..50 {
            let x = a.var(format!("x{i}"), Sort::Int);
            let c = a.int(i);
            conj.push(a.eq(x, c));
        }
        let f = a.and(conj);
        let mut s = solver();
        assert_eq!(s.check(&a, f), SmtResult::Sat);
    }

    #[test]
    fn last_cost_is_per_query() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int(0);
        let ten = a.int(10);
        let five = a.int(5);
        let l = a.lt(x, zero);
        let r = a.gt(x, ten);
        let lr = a.or2(l, r);
        let x5 = a.eq(x, five);
        let hard = a.and2(lr, x5);
        let mut s = solver();
        assert_eq!(s.check(&a, hard), SmtResult::Unsat);
        let hard_cost = s.last_cost;
        assert!(hard_cost.theory_checks > 0);
        assert!(hard_cost.solver_ns > 0);
        // A trivial constant query must reset the snapshot, not accumulate.
        let t = a.tru();
        assert_eq!(s.check(&a, t), SmtResult::Sat);
        assert_eq!(s.last_cost.theory_checks, 0);
        assert_eq!(s.last_cost.decisions, 0);
    }
}
