//! CDCL SAT solver: the boolean core of the lazy SMT solver.
//!
//! A conventional conflict-driven clause-learning solver with two-watched
//!-literal propagation, VSIDS-style variable activities, phase saving, 1UIP
//! conflict analysis and Luby restarts. It is deliberately compact — the
//! conditions Pinpoint emits are small compared to industrial SAT instances
//! — but it is a complete solver, and the theory layer (see
//! [`crate::theory`]) drives it through the incremental
//! [`SatSolver::add_clause`] / [`SatSolver::solve`] interface.
//!
//! # Clause layout
//!
//! A clause is split in two. Its two watched literals sit in `heads`, one
//! dense `[Lit; 2]` per clause (8 bytes); positions 2 and up sit in one
//! flat `tail_pool`, addressed by the clause's `tail_range` (binary
//! clauses have an empty range). The conditions Pinpoint emits give a
//! core of a hundred-odd variables and some fifteen thousand clauses —
//! the blocking clauses of the DPLL(T) loop plus the learnt ones — and
//! almost every watch visit ends at "the other watched literal is already
//! true". With literals encoded as `2*var + sign`, that other literal is
//! `h[0] ^ h[1] ^ false_lit`, so such a visit reads eight bytes and writes
//! nothing. A visit that does not skip first stores the header as
//! `[other, false_lit]` and then scans the tail from position 2 up, as a
//! clause kept in one `Vec<Lit>` would be normalised and scanned.
//!
//! That makes the search the same as with one vector per clause: a skip
//! only ever reordered positions 0 and 1, and the next visit that does not
//! skip rewrites that order anyway. Conflict analysis reads only conflict
//! and reason clauses, whose header was written, in normalised order, by
//! the visit that made them so, and learnt clauses are stored as
//! `[asserting, …]`. Every enqueue, conflict, learnt clause and decision
//! is therefore unchanged; the in-file `differential` tests compare the
//! solver against the one-vector-per-clause core it replaced
//! (`reference`).

/// A boolean variable, identified by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BVar(pub u32);

/// A literal: a variable with a polarity, encoded as `2*var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive or negative literal of `v`.
    #[inline]
    pub fn new(v: BVar, positive: bool) -> Self {
        Lit(v.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> BVar {
        BVar(self.0 >> 1)
    }

    /// `true` for a positive literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[inline]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    #[inline]
    fn code(self) -> usize {
        self.0 as usize
    }
}

/// Result of a SAT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Undef,
}

/// Reason for an assignment: either a decision or a propagating clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    Decision,
    Clause(usize),
}

/// Work counters since the solver was created; a session differences
/// them into each query's cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SatStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of clauses learned from conflict analysis (unit learnts
    /// included).
    pub learned: u64,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use pinpoint_smt::sat::{Lit, SatResult, SatSolver};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(vec![Lit::new(a, true), Lit::new(b, true)]);
/// s.add_clause(vec![Lit::new(a, false)]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct SatSolver {
    /// heads[ci] = the two watched literals of clause `ci` (positions 0, 1).
    heads: Vec<[Lit; 2]>,
    /// tail_range[ci] = the range of `tail_pool` holding positions 2.. of
    /// clause `ci`.
    tail_range: Vec<(u32, u32)>,
    /// Every clause's literals past the header, clause after clause.
    tail_pool: Vec<Lit>,
    /// watches[lit.code()] = clause indices watching that literal.
    watches: Vec<Vec<usize>>,
    assign: Vec<Value>,
    reason: Vec<Reason>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    queue_head: usize,
    activity: Vec<f64>,
    activity_inc: f64,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    /// Learnt clauses stored (none is ever deleted).
    learnt: usize,
    unsat: bool,
    /// Statistics for the harness.
    pub stats: SatStats,
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self {
            activity_inc: 1.0,
            ..Self::default()
        }
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Allocates a fresh boolean variable.
    pub fn new_var(&mut self) -> BVar {
        let v = BVar(u32::try_from(self.assign.len()).expect("too many SAT vars"));
        self.assign.push(Value::Undef);
        self.reason.push(Reason::Decision);
        self.level.push(0);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    fn lit_value(&self, l: Lit) -> Value {
        match self.assign[l.var().0 as usize] {
            Value::Undef => Value::Undef,
            Value::True => {
                if l.is_positive() {
                    Value::True
                } else {
                    Value::False
                }
            }
            Value::False => {
                if l.is_positive() {
                    Value::False
                } else {
                    Value::True
                }
            }
        }
    }

    /// Adds a clause. An empty clause makes the instance trivially UNSAT.
    /// Must be called at decision level 0 (i.e. between `solve` calls the
    /// solver automatically backtracks to level 0).
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) {
        self.backtrack_to(0);
        if self.unsat {
            return;
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology?
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return; // contains l and ¬l
            }
        }
        // Remove literals already false at level 0; satisfied clause is a no-op.
        let mut filtered = Vec::with_capacity(lits.len());
        for &l in &lits {
            match self.lit_value(l) {
                Value::True => return,
                Value::False => {}
                Value::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => self.unsat = true,
            1 => {
                let conflict =
                    !self.enqueue(filtered[0], Reason::Decision) || self.propagate().is_some();
                if conflict {
                    self.unsat = true;
                }
            }
            _ => {
                self.push_clause(&filtered);
            }
        }
    }

    /// Stores a clause of at least two literals, watching the first two;
    /// returns its index.
    fn push_clause(&mut self, lits: &[Lit]) -> usize {
        let idx = self.heads.len();
        self.watches[lits[0].negate().code()].push(idx);
        self.watches[lits[1].negate().code()].push(idx);
        self.heads.push([lits[0], lits[1]]);
        let start = self.tail_pool.len() as u32;
        self.tail_pool.extend_from_slice(&lits[2..]);
        self.tail_range.push((start, self.tail_pool.len() as u32));
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) -> bool {
        match self.lit_value(l) {
            Value::True => true,
            Value::False => false,
            Value::Undef => {
                let v = l.var().0 as usize;
                self.assign[v] = if l.is_positive() {
                    Value::True
                } else {
                    Value::False
                };
                self.reason[v] = reason;
                self.level[v] = self.trail_lim.len() as u32;
                self.saved_phase[v] = l.is_positive();
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagates all enqueued literals; returns a conflicting clause index.
    fn propagate(&mut self) -> Option<usize> {
        while self.queue_head < self.trail.len() {
            let l = self.trail[self.queue_head];
            self.queue_head += 1;
            self.stats.propagations += 1;
            let mut i = 0;
            let mut watch_list = std::mem::take(&mut self.watches[l.code()]);
            let false_lit = l.negate();
            while i < watch_list.len() {
                let ci = watch_list[i];
                // The other watched literal; a satisfied clause is left
                // untouched.
                let [h0, h1] = self.heads[ci];
                let first = Lit(h0.0 ^ h1.0 ^ false_lit.0);
                if self.lit_value(first) == Value::True {
                    i += 1;
                    continue;
                }
                self.heads[ci] = [first, false_lit];
                // Find a new literal to watch.
                let (start, end) = self.tail_range[ci];
                let free = (start as usize..end as usize)
                    .find(|&k| self.lit_value(self.tail_pool[k]) != Value::False);
                if let Some(k) = free {
                    let lk = self.tail_pool[k];
                    self.tail_pool[k] = false_lit;
                    self.heads[ci][1] = lk;
                    self.watches[lk.negate().code()].push(ci);
                    watch_list.swap_remove(i);
                    continue;
                }
                // Unit or conflict.
                if !self.enqueue(first, Reason::Clause(ci)) {
                    self.watches[l.code()] = watch_list;
                    self.queue_head = self.trail.len();
                    return Some(ci);
                }
                i += 1;
            }
            let existing = std::mem::replace(&mut self.watches[l.code()], watch_list);
            self.watches[l.code()].extend(existing);
        }
        None
    }

    fn bump(&mut self, v: BVar) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.activity_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
    }

    /// 1UIP conflict analysis; returns (learnt clause, backtrack level).
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause_idx = conflict;
        let mut trail_idx = self.trail.len();
        let current_level = self.trail_lim.len() as u32;
        loop {
            // A reason clause's position 0 is the literal it implied.
            let [h0, h1] = self.heads[clause_idx];
            if p.is_none() {
                counter += self.see(h0, current_level, &mut learnt);
            }
            counter += self.see(h1, current_level, &mut learnt);
            let (start, end) = self.tail_range[clause_idx];
            for k in start as usize..end as usize {
                counter += self.see(self.tail_pool[k], current_level, &mut learnt);
            }
            // Walk the trail backwards to the next seen literal.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found UIP candidate").var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            match self.reason[pv] {
                Reason::Clause(ci) => clause_idx = ci,
                Reason::Decision => unreachable!("non-UIP decision inside level"),
            }
        }
        let asserting = p.expect("1UIP literal").negate();
        for l in &learnt {
            self.seen[l.var().0 as usize] = false;
        }
        // Backtrack level = max level among the other literals.
        let bt = learnt
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        let mut clause = vec![asserting];
        clause.extend(learnt);
        (clause, bt)
    }

    /// Marks `q`'s variable as seen in conflict analysis (unless it is
    /// already, or assigned at level 0) and bumps it; a literal below the
    /// current level goes into `learnt`. Returns 1 for a newly seen
    /// variable of the current level, else 0.
    fn see(&mut self, q: Lit, current_level: u32, learnt: &mut Vec<Lit>) -> usize {
        let v = q.var();
        let vi = v.0 as usize;
        if self.seen[vi] || self.level[vi] == 0 {
            return 0;
        }
        self.seen[vi] = true;
        self.bump(v);
        if self.level[vi] == current_level {
            return 1;
        }
        learnt.push(q);
        0
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("trail_lim nonempty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                self.assign[l.var().0 as usize] = Value::Undef;
            }
        }
        self.queue_head = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<(f64, usize)> = None;
        for (v, val) in self.assign.iter().enumerate() {
            if *val == Value::Undef {
                let act = self.activity[v];
                if best.is_none_or(|(ba, _)| act > ba) {
                    best = Some((act, v));
                }
            }
        }
        best.map(|(_, v)| Lit::new(BVar(v as u32), self.saved_phase[v]))
    }

    fn luby(i: u64) -> u64 {
        // Luby sequence 1 1 2 1 1 2 4 …, 0-based index.
        let mut n = i + 1; // 1-based position
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < n {
                k += 1;
            }
            if (1u64 << k) - 1 == n {
                return 1u64 << (k - 1);
            }
            n -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_assuming(&[])
    }

    /// Solves the current clause set under `assumptions` (MiniSat-style
    /// incremental interface). Each assumption is established as its own
    /// decision level before ordinary search decisions; `Unsat` under
    /// assumptions does *not* mark the instance permanently unsatisfiable
    /// (only a level-0 conflict does), so the solver — including every
    /// clause learned along the way — remains usable for further queries
    /// with different assumptions. Learned clauses are implied by the
    /// clause database alone (conflict analysis resolves only on clause
    /// reasons, never on assumption decisions), so keeping them across
    /// queries is sound.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SatResult {
        self.backtrack_to(0);
        if self.unsat {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_idx = 0u64;
        let mut restart_limit = 32 * Self::luby(restart_idx);
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                let (clause, bt) = self.analyze(conflict);
                self.backtrack_to(bt);
                self.activity_inc *= 1.05;
                self.stats.learned += 1;
                let asserting = clause[0];
                if clause.len() == 1 {
                    debug_assert_eq!(self.trail_lim.len(), 0);
                    if !self.enqueue(asserting, Reason::Decision) {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    let idx = self.push_clause(&clause);
                    self.learnt += 1;
                    let ok = self.enqueue(asserting, Reason::Clause(idx));
                    debug_assert!(ok, "asserting literal must be enqueueable");
                }
            } else if self.trail_lim.len() < assumptions.len() {
                // Establish the next assumption at its own decision level.
                // (Restarts and learnt-clause backtracking may strip
                // assumption levels; they are re-established here.)
                let a = assumptions[self.trail_lim.len()];
                match self.lit_value(a) {
                    Value::True => {
                        // Already implied: a dummy level keeps the
                        // level ↔ assumption-index correspondence.
                        self.trail_lim.push(self.trail.len());
                    }
                    Value::False => {
                        // Conflicts with the clause set under the earlier
                        // assumptions: unsatisfiable *under assumptions*
                        // only — the instance itself stays usable.
                        return SatResult::Unsat;
                    }
                    Value::Undef => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(a, Reason::Decision);
                        debug_assert!(ok, "assumption variable was unassigned");
                    }
                }
            } else if conflicts_since_restart >= restart_limit {
                restart_idx += 1;
                restart_limit = 32 * Self::luby(restart_idx);
                conflicts_since_restart = 0;
                self.backtrack_to(0);
            } else {
                match self.decide() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, Reason::Decision);
                        debug_assert!(ok, "decision variable was unassigned");
                    }
                }
            }
        }
    }

    /// Value of `v` in the last satisfying assignment (if `solve` returned
    /// `Sat` and `v` was assigned).
    pub fn value(&self, v: BVar) -> Option<bool> {
        match self.assign[v.0 as usize] {
            Value::True => Some(true),
            Value::False => Some(false),
            Value::Undef => None,
        }
    }

    /// Number of clauses currently stored (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.heads.len()
    }

    /// Number of learnt (conflict-derived) clauses in the database.
    pub fn num_learnt(&self) -> usize {
        self.learnt
    }

    /// Returns `true` once the instance is known UNSAT.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops read naturally for PHP grids
mod tests {
    use super::*;

    fn lit(s: &mut SatSolver, vars: &mut Vec<BVar>, idx: usize, pos: bool) -> Lit {
        while vars.len() <= idx {
            vars.push(s.new_var());
        }
        Lit::new(vars[idx], pos)
    }

    #[test]
    fn trivially_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![Lit::new(a, true)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![Lit::new(a, true)]);
        s.add_clause(vec![Lit::new(a, false)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = SatSolver::new();
        let mut v = Vec::new();
        // a, a→b, b→c, c→d ⇒ all true.
        let a = lit(&mut s, &mut v, 0, true);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![a],
            vec![lit(&mut s, &mut v, 0, false), lit(&mut s, &mut v, 1, true)],
            vec![lit(&mut s, &mut v, 1, false), lit(&mut s, &mut v, 2, true)],
            vec![lit(&mut s, &mut v, 2, false), lit(&mut s, &mut v, 3, true)],
        ];
        for c in clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for i in 0..4 {
            assert_eq!(s.value(v[i]), Some(true));
        }
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole: p1h1, p2h1, ¬p1h1 ∨ ¬p2h1.
        let mut s = SatSolver::new();
        let p1 = s.new_var();
        let p2 = s.new_var();
        s.add_clause(vec![Lit::new(p1, true)]);
        s.add_clause(vec![Lit::new(p2, true)]);
        s.add_clause(vec![Lit::new(p1, false), Lit::new(p2, false)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn learnt_clauses_recorded() {
        // PHP(4,3) requires deep conflict analysis; non-unit learnt
        // clauses must appear in the database (PHP(3,2) learns only unit
        // clauses, which are asserted directly instead of stored).
        let mut s = SatSolver::new();
        let mut x = vec![vec![BVar(0); 3]; 4];
        for row in x.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &x {
            s.add_clause(row.iter().map(|&v| Lit::new(v, true)).collect());
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in (p1 + 1)..4 {
                    s.add_clause(vec![Lit::new(x[p1][h], false), Lit::new(x[p2][h], false)]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.num_learnt() > 0);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): each pigeon in some hole; no two pigeons share a hole.
        let mut s = SatSolver::new();
        let mut x = [[BVar(0); 2]; 3];
        for p in 0..3 {
            for h in 0..2 {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..3 {
            s.add_clause(vec![Lit::new(x[p][0], true), Lit::new(x[p][1], true)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause(vec![Lit::new(x[p1][h], false), Lit::new(x[p2][h], false)]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(
            s.stats.conflicts > 0,
            "requires search, not just propagation"
        );
    }

    #[test]
    fn satisfiable_3sat_random_shape() {
        // A small satisfiable instance with multiple models.
        let mut s = SatSolver::new();
        let mut v = Vec::new();
        let cs: Vec<Vec<(usize, bool)>> = vec![
            vec![(0, true), (1, false), (2, true)],
            vec![(0, false), (1, true), (3, true)],
            vec![(2, false), (3, false), (4, true)],
            vec![(1, true), (4, false), (0, true)],
            vec![(3, true), (2, true), (1, false)],
        ];
        for c in &cs {
            let clause: Vec<Lit> = c.iter().map(|&(i, p)| lit(&mut s, &mut v, i, p)).collect();
            s.add_clause(clause);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        // Model check.
        for c in &cs {
            assert!(
                c.iter()
                    .any(|&(i, p)| s.value(v[i]) == Some(p) || s.value(v[i]).is_none()),
                "clause {c:?} not satisfied"
            );
        }
    }

    #[test]
    fn incremental_solving_after_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![Lit::new(a, true), Lit::new(b, true)]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Force a and ¬b afterwards; still SAT.
        s.add_clause(vec![Lit::new(a, true)]);
        s.add_clause(vec![Lit::new(b, false)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(false));
        // Now contradict.
        s.add_clause(vec![Lit::new(a, false)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![Lit::new(a, true), Lit::new(a, false)]);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        let _ = s.new_var();
        s.add_clause(vec![]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(SatSolver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn assumptions_do_not_poison_the_instance() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        // a ∨ b, ¬a ∨ b  ⇒  b is implied.
        s.add_clause(vec![Lit::new(a, true), Lit::new(b, true)]);
        s.add_clause(vec![Lit::new(a, false), Lit::new(b, true)]);
        assert_eq!(s.solve_assuming(&[Lit::new(b, false)]), SatResult::Unsat);
        assert!(!s.is_unsat(), "assumption failure must not be permanent");
        assert_eq!(s.solve_assuming(&[Lit::new(b, true)]), SatResult::Sat);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn assumptions_force_model_values() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![Lit::new(a, true), Lit::new(b, true)]);
        assert_eq!(
            s.solve_assuming(&[Lit::new(a, false), Lit::new(b, true)]),
            SatResult::Sat
        );
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn contradictory_assumptions_unsat_but_recoverable() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert_eq!(
            s.solve_assuming(&[Lit::new(a, true), Lit::new(a, false)]),
            SatResult::Unsat
        );
        assert!(!s.is_unsat());
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn learnt_clauses_survive_assumption_queries() {
        // PHP(4,3) gated behind a selector g: with g assumed true the
        // instance is UNSAT and learns clauses; afterwards the instance
        // (and its learnt clauses) must still answer SAT with ¬g.
        let mut s = SatSolver::new();
        let g = s.new_var();
        let mut x = vec![vec![BVar(0); 3]; 4];
        for row in x.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &x {
            let mut c: Vec<Lit> = row.iter().map(|&v| Lit::new(v, true)).collect();
            c.push(Lit::new(g, false));
            s.add_clause(c);
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in (p1 + 1)..4 {
                    s.add_clause(vec![
                        Lit::new(x[p1][h], false),
                        Lit::new(x[p2][h], false),
                        Lit::new(g, false),
                    ]);
                }
            }
        }
        assert_eq!(s.solve_assuming(&[Lit::new(g, true)]), SatResult::Unsat);
        assert!(!s.is_unsat());
        let learnt_after_first = s.num_learnt();
        assert!(learnt_after_first > 0, "expected learnt clauses");
        assert_eq!(s.solve_assuming(&[Lit::new(g, false)]), SatResult::Sat);
        assert!(
            s.num_learnt() >= learnt_after_first,
            "learnt clauses must persist across queries"
        );
        // Re-asking the UNSAT query still answers UNSAT.
        assert_eq!(s.solve_assuming(&[Lit::new(g, true)]), SatResult::Unsat);
    }

    #[test]
    fn lit_encoding_roundtrip() {
        let v = BVar(7);
        let l = Lit::new(v, true);
        assert_eq!(l.var(), v);
        assert!(l.is_positive());
        let n = l.negate();
        assert_eq!(n.var(), v);
        assert!(!n.is_positive());
        assert_eq!(n.negate(), l);
        // The watch scan finds a clause's other watched literal by XOR.
        let m = Lit::new(BVar(3), false);
        assert_eq!(Lit(l.0 ^ m.0 ^ l.0), m);
        assert_eq!(Lit(l.0 ^ m.0 ^ m.0), l);
    }
}

/// The solver as it was before the header array: one `Vec<Lit>` per
/// clause, normalised (false literal to position 1) on every watch visit,
/// and conflict analysis copying each clause it resolves on. Kept as the
/// differential tests' oracle.
#[cfg(test)]
mod reference {
    use super::{BVar, Lit, Reason, SatResult, SatSolver as Current, SatStats, Value};

    #[derive(Debug, Clone)]
    pub(super) struct Clause {
        pub(super) lits: Vec<Lit>,
    }

    #[derive(Debug, Default)]
    pub(super) struct SatSolver {
        pub(super) clauses: Vec<Clause>,
        pub(super) watches: Vec<Vec<usize>>,
        pub(super) assign: Vec<Value>,
        pub(super) reason: Vec<Reason>,
        level: Vec<u32>,
        trail: Vec<Lit>,
        trail_lim: Vec<usize>,
        queue_head: usize,
        pub(super) activity: Vec<f64>,
        pub(super) activity_inc: f64,
        saved_phase: Vec<bool>,
        seen: Vec<bool>,
        learnt: usize,
        unsat: bool,
        pub(super) stats: SatStats,
    }

    impl SatSolver {
        pub(super) fn new() -> Self {
            Self {
                activity_inc: 1.0,
                ..Self::default()
            }
        }

        pub(super) fn new_var(&mut self) -> BVar {
            let v = BVar(u32::try_from(self.assign.len()).expect("too many SAT vars"));
            self.assign.push(Value::Undef);
            self.reason.push(Reason::Decision);
            self.level.push(0);
            self.activity.push(0.0);
            self.saved_phase.push(false);
            self.seen.push(false);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            v
        }

        fn lit_value(&self, l: Lit) -> Value {
            match (self.assign[l.var().0 as usize], l.is_positive()) {
                (Value::Undef, _) => Value::Undef,
                (Value::True, true) | (Value::False, false) => Value::True,
                _ => Value::False,
            }
        }

        pub(super) fn add_clause(&mut self, mut lits: Vec<Lit>) {
            self.backtrack_to(0);
            if self.unsat {
                return;
            }
            lits.sort_unstable();
            lits.dedup();
            for w in lits.windows(2) {
                if w[0].var() == w[1].var() {
                    return;
                }
            }
            let mut filtered = Vec::with_capacity(lits.len());
            for &l in &lits {
                match self.lit_value(l) {
                    Value::True => return,
                    Value::False => {}
                    Value::Undef => filtered.push(l),
                }
            }
            match filtered.len() {
                0 => self.unsat = true,
                1 => {
                    let conflict =
                        !self.enqueue(filtered[0], Reason::Decision) || self.propagate().is_some();
                    if conflict {
                        self.unsat = true;
                    }
                }
                _ => {
                    let idx = self.clauses.len();
                    self.watches[filtered[0].negate().code()].push(idx);
                    self.watches[filtered[1].negate().code()].push(idx);
                    self.clauses.push(Clause { lits: filtered });
                }
            }
        }

        fn enqueue(&mut self, l: Lit, reason: Reason) -> bool {
            match self.lit_value(l) {
                Value::True => true,
                Value::False => false,
                Value::Undef => {
                    let v = l.var().0 as usize;
                    self.assign[v] = if l.is_positive() {
                        Value::True
                    } else {
                        Value::False
                    };
                    self.reason[v] = reason;
                    self.level[v] = self.trail_lim.len() as u32;
                    self.saved_phase[v] = l.is_positive();
                    self.trail.push(l);
                    true
                }
            }
        }

        fn propagate(&mut self) -> Option<usize> {
            while self.queue_head < self.trail.len() {
                let l = self.trail[self.queue_head];
                self.queue_head += 1;
                self.stats.propagations += 1;
                let mut i = 0;
                let mut watch_list = std::mem::take(&mut self.watches[l.code()]);
                while i < watch_list.len() {
                    let ci = watch_list[i];
                    let false_lit = l.negate();
                    {
                        let c = &mut self.clauses[ci];
                        if c.lits[0] == false_lit {
                            c.lits.swap(0, 1);
                        }
                    }
                    let first = self.clauses[ci].lits[0];
                    if self.lit_value(first) == Value::True {
                        i += 1;
                        continue;
                    }
                    let mut moved = false;
                    let len = self.clauses[ci].lits.len();
                    for k in 2..len {
                        let lk = self.clauses[ci].lits[k];
                        if self.lit_value(lk) != Value::False {
                            self.clauses[ci].lits.swap(1, k);
                            self.watches[lk.negate().code()].push(ci);
                            watch_list.swap_remove(i);
                            moved = true;
                            break;
                        }
                    }
                    if moved {
                        continue;
                    }
                    if !self.enqueue(first, Reason::Clause(ci)) {
                        self.watches[l.code()] = watch_list;
                        self.queue_head = self.trail.len();
                        return Some(ci);
                    }
                    i += 1;
                }
                let existing = std::mem::replace(&mut self.watches[l.code()], watch_list);
                self.watches[l.code()].extend(existing);
            }
            None
        }

        fn bump(&mut self, v: BVar) {
            let a = &mut self.activity[v.0 as usize];
            *a += self.activity_inc;
            if *a > 1e100 {
                for act in &mut self.activity {
                    *act *= 1e-100;
                }
                self.activity_inc *= 1e-100;
            }
        }

        fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
            let mut learnt: Vec<Lit> = Vec::new();
            let mut counter = 0usize;
            let mut p: Option<Lit> = None;
            let mut clause_idx = conflict;
            let mut trail_idx = self.trail.len();
            let current_level = self.trail_lim.len() as u32;
            loop {
                let start = usize::from(p.is_some());
                let lits: Vec<Lit> = self.clauses[clause_idx].lits[start..].to_vec();
                for q in lits {
                    let v = q.var();
                    let vi = v.0 as usize;
                    if !self.seen[vi] && self.level[vi] > 0 {
                        self.seen[vi] = true;
                        self.bump(v);
                        if self.level[vi] == current_level {
                            counter += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
                loop {
                    trail_idx -= 1;
                    let l = self.trail[trail_idx];
                    if self.seen[l.var().0 as usize] {
                        p = Some(l);
                        break;
                    }
                }
                let pv = p.expect("found UIP candidate").var().0 as usize;
                self.seen[pv] = false;
                counter -= 1;
                if counter == 0 {
                    break;
                }
                match self.reason[pv] {
                    Reason::Clause(ci) => clause_idx = ci,
                    Reason::Decision => unreachable!("non-UIP decision inside level"),
                }
            }
            let asserting = p.expect("1UIP literal").negate();
            for l in &learnt {
                self.seen[l.var().0 as usize] = false;
            }
            let bt = learnt
                .iter()
                .map(|l| self.level[l.var().0 as usize])
                .max()
                .unwrap_or(0);
            let mut clause = vec![asserting];
            clause.extend(learnt);
            (clause, bt)
        }

        fn backtrack_to(&mut self, level: u32) {
            while self.trail_lim.len() as u32 > level {
                let lim = self.trail_lim.pop().expect("trail_lim nonempty");
                while self.trail.len() > lim {
                    let l = self.trail.pop().expect("trail nonempty");
                    self.assign[l.var().0 as usize] = Value::Undef;
                }
            }
            self.queue_head = self.trail.len();
        }

        fn decide(&mut self) -> Option<Lit> {
            let mut best: Option<(f64, usize)> = None;
            for (v, val) in self.assign.iter().enumerate() {
                if *val == Value::Undef {
                    let act = self.activity[v];
                    if best.is_none_or(|(ba, _)| act > ba) {
                        best = Some((act, v));
                    }
                }
            }
            best.map(|(_, v)| Lit::new(BVar(v as u32), self.saved_phase[v]))
        }

        pub(super) fn solve_assuming(&mut self, assumptions: &[Lit]) -> SatResult {
            self.backtrack_to(0);
            if self.unsat {
                return SatResult::Unsat;
            }
            if self.propagate().is_some() {
                self.unsat = true;
                return SatResult::Unsat;
            }
            let mut conflicts_since_restart = 0u64;
            let mut restart_idx = 0u64;
            let mut restart_limit = 32 * Current::luby(restart_idx);
            loop {
                if let Some(conflict) = self.propagate() {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.trail_lim.is_empty() {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    let (clause, bt) = self.analyze(conflict);
                    self.backtrack_to(bt);
                    self.activity_inc *= 1.05;
                    self.stats.learned += 1;
                    let asserting = clause[0];
                    if clause.len() == 1 {
                        if !self.enqueue(asserting, Reason::Decision) {
                            self.unsat = true;
                            return SatResult::Unsat;
                        }
                    } else {
                        let idx = self.clauses.len();
                        self.watches[clause[0].negate().code()].push(idx);
                        self.watches[clause[1].negate().code()].push(idx);
                        self.clauses.push(Clause { lits: clause });
                        self.learnt += 1;
                        let ok = self.enqueue(asserting, Reason::Clause(idx));
                        debug_assert!(ok, "asserting literal must be enqueueable");
                    }
                } else if self.trail_lim.len() < assumptions.len() {
                    let a = assumptions[self.trail_lim.len()];
                    match self.lit_value(a) {
                        Value::True => self.trail_lim.push(self.trail.len()),
                        Value::False => return SatResult::Unsat,
                        Value::Undef => {
                            self.trail_lim.push(self.trail.len());
                            let ok = self.enqueue(a, Reason::Decision);
                            debug_assert!(ok, "assumption variable was unassigned");
                        }
                    }
                } else if conflicts_since_restart >= restart_limit {
                    restart_idx += 1;
                    restart_limit = 32 * Current::luby(restart_idx);
                    conflicts_since_restart = 0;
                    self.backtrack_to(0);
                } else {
                    match self.decide() {
                        None => return SatResult::Sat,
                        Some(l) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let ok = self.enqueue(l, Reason::Decision);
                            debug_assert!(ok, "decision variable was unassigned");
                        }
                    }
                }
            }
        }

        pub(super) fn num_learnt(&self) -> usize {
            self.learnt
        }
    }
}

/// The header-array solver against the reference on seeded sequences of
/// clauses, assumptions and solves.
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

        fn lit(&mut self, vars: usize) -> Lit {
            Lit::new(BVar(self.below(vars) as u32), self.below(2) == 0)
        }

        fn clause(&mut self, vars: usize, len: usize) -> Vec<Lit> {
            (0..len).map(|_| self.lit(vars)).collect()
        }
    }

    /// Both solvers, fed the same calls and compared after each solve.
    struct Pair {
        cur: SatSolver,
        old: reference::SatSolver,
    }

    impl Pair {
        fn new(vars: usize) -> Self {
            let mut p = Pair {
                cur: SatSolver::new(),
                old: reference::SatSolver::new(),
            };
            for _ in 0..vars {
                assert_eq!(p.cur.new_var(), p.old.new_var());
            }
            p
        }

        fn add(&mut self, lits: Vec<Lit>) {
            self.cur.add_clause(lits.clone());
            self.old.add_clause(lits);
        }

        fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
            let r = self.cur.solve_assuming(assumptions);
            assert_eq!(r, self.old.solve_assuming(assumptions));
            self.assert_same_state();
            r
        }

        /// Same assignment, counters, activities, watch lists and clauses.
        /// A skipped watch visit leaves the order of positions 0 and 1 as
        /// it was where the reference normalised it, so headers are
        /// compared as sets, except for the reason clauses of assigned
        /// variables, which conflict analysis reads in order.
        fn assert_same_state(&self) {
            let (cur, old) = (&self.cur, &self.old);
            assert_eq!(cur.assign, old.assign, "assignment");
            assert_eq!(cur.stats, old.stats, "stats");
            assert_eq!(cur.num_clauses(), old.clauses.len(), "num_clauses");
            assert_eq!(cur.num_learnt(), old.num_learnt(), "num_learnt");
            assert_eq!(cur.activity, old.activity, "activity");
            assert_eq!(cur.activity_inc, old.activity_inc, "activity_inc");
            assert_eq!(cur.watches, old.watches, "watch lists");
            for (ci, c) in old.clauses.iter().enumerate() {
                let [h0, h1] = cur.heads[ci];
                let (start, end) = cur.tail_range[ci];
                assert_eq!(
                    &cur.tail_pool[start as usize..end as usize],
                    &c.lits[2..],
                    "tail of clause {ci}"
                );
                let mut head = [h0, h1];
                let mut want = [c.lits[0], c.lits[1]];
                head.sort_unstable();
                want.sort_unstable();
                assert_eq!(head, want, "header of clause {ci}");
            }
            assert_eq!(cur.reason, old.reason, "reasons");
            for (v, &reason) in old.reason.iter().enumerate() {
                if let (Reason::Clause(ci), Value::True | Value::False) = (reason, old.assign[v]) {
                    let want = &old.clauses[ci].lits;
                    assert_eq!(cur.heads[ci], [want[0], want[1]], "reason clause {ci}");
                }
            }
        }
    }

    /// Random 3-SAT near the 4.26 threshold with unit and binary clauses,
    /// duplicate literals and tautologies mixed in, then interleaved
    /// clause additions and solves under random assumption sets.
    #[test]
    fn random_3sat_with_assumptions_matches_the_reference() {
        for seed in 1..=60u64 {
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed);
            let vars = 20 + rng.below(100);
            let mut p = Pair::new(vars);
            for _ in 0..vars * 426 / 100 {
                let len = match rng.below(20) {
                    0 => 1,
                    1 | 2 => 2,
                    3 => 4 + rng.below(4),
                    _ => 3,
                };
                let mut c = rng.clause(vars, len);
                match rng.below(10) {
                    0 => c.push(c[0]),
                    1 => c.push(c[0].negate()),
                    _ => {}
                }
                p.add(c);
            }
            p.solve(&[]);
            for _ in 0..30 {
                for _ in 0..rng.below(4) {
                    let len = 2 + rng.below(3);
                    p.add(rng.clause(vars, len));
                }
                let n = rng.below(6);
                let assumptions = rng.clause(vars, n);
                p.solve(&assumptions);
            }
        }
    }

    /// The DPLL(T) loop's shape: a small base formula, then long blocking
    /// clauses that each refute part of the last model. Each episode
    /// guards its blocking clauses with a fresh selector, assumed true
    /// until the episode is refuted, so the instance stays satisfiable and
    /// the run lasts long enough to cross the 1e100 activity rescale.
    #[test]
    fn blocking_sequences_match_the_reference() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let vars = 40 + rng.below(24);
        // The increment grows by 1.05 a conflict: past 1e100 after
        // 4 720, so activities are rescaled by then.
        let mut p = Pair::new(vars);
        for _ in 0..vars * 3 {
            let c = rng.clause(vars, 3);
            p.add(c);
        }
        while p.cur.stats.conflicts < 5000 {
            let g = Lit::new(p.cur.new_var(), true);
            assert_eq!(p.old.new_var(), g.var());
            while p.solve(&[g]) == SatResult::Sat {
                let mut block: Vec<Lit> = (0..vars as u32)
                    .filter(|_| rng.below(3) == 0)
                    .filter_map(|v| p.cur.value(BVar(v)).map(|b| Lit::new(BVar(v), !b)))
                    .collect();
                block.push(g.negate());
                p.add(block);
            }
            assert!(!p.cur.is_unsat());
        }
        assert!(p.cur.activity_inc < 1e100, "no activity rescale");
    }
}
