//! Per-query solver attribution.
//!
//! Every source→sink candidate the detector evaluates becomes a
//! [`QueryRecord`]: which checker raised it, which functions anchor the
//! source and sink, how it was resolved (linear refutation, SMT
//! refutation, reported, or bailed), and what the DPLL(T) core spent on
//! it (wall time, CDCL conflicts, learned clauses, propagations,
//! decisions, theory rounds). Records are assigned ids during the
//! detector's deterministic merge replay, so ids — and everything except
//! the `solver_ns` timing — are byte-identical across thread counts.
//!
//! [`ProfileTable`] folds the records into a per-`(checker, function)`
//! "where did the time go" view for the `pinpoint profile` subcommand.

use crate::json::{Arr, Obj};
use std::collections::BTreeMap;

/// How a query was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Feasible (or assumed feasible): a report was produced.
    Reported,
    /// Refuted by the cheap linear pre-pass; the SMT solver never ran.
    LinearRefuted,
    /// Refuted by the DPLL(T) solver.
    SmtRefuted,
    /// Solver gave up (round budget); treated as feasible.
    Unsolved,
}

impl QueryOutcome {
    /// Stable lowercase label used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            QueryOutcome::Reported => "reported",
            QueryOutcome::LinearRefuted => "linear_refuted",
            QueryOutcome::SmtRefuted => "smt_refuted",
            QueryOutcome::Unsolved => "unsolved",
        }
    }
}

/// Solver-side cost of one query (all zero when the solver never ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Wall time inside the SMT check, nanoseconds.
    pub solver_ns: u64,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// Clauses learned from conflict analysis.
    pub learned: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Branching decisions.
    pub decisions: u64,
    /// Theory consistency checks (DPLL(T) rounds).
    pub theory_checks: u64,
    /// Theory conflicts (blocking clauses added).
    pub theory_conflicts: u64,
    /// 1 if the solver ran out of rounds and assumed the query feasible.
    /// Summed into `smt.budget_exhausted`; not a column of the JSON row.
    pub budget_exhausted: u64,
}

impl QueryCost {
    /// Component-wise sum.
    pub fn add(&mut self, other: &QueryCost) {
        self.solver_ns += other.solver_ns;
        self.conflicts += other.conflicts;
        self.learned += other.learned;
        self.propagations += other.propagations;
        self.decisions += other.decisions;
        self.theory_checks += other.theory_checks;
        self.theory_conflicts += other.theory_conflicts;
        self.budget_exhausted += other.budget_exhausted;
    }
}

/// One evaluated source→sink query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRecord {
    /// Query id, assigned in deterministic replay order.
    pub id: u32,
    /// Checker that owns the query (`use-after-free`, `memory-leak`, …).
    pub checker: String,
    /// Function containing the source.
    pub source_func: String,
    /// Function containing the sink (usually the same — detection is
    /// per-SEG with connectors inlined).
    pub sink_func: String,
    /// Resolution.
    pub outcome: QueryOutcome,
    /// Solver cost.
    pub cost: QueryCost,
}

impl QueryRecord {
    /// JSON row. With `canonical`, `solver_ns` is zeroed (it is the only
    /// field that varies run to run).
    pub fn json(&self, canonical: bool) -> String {
        let mut o = Obj::new();
        o.u64("id", u64::from(self.id))
            .str("checker", &self.checker)
            .str("source_func", &self.source_func)
            .str("sink_func", &self.sink_func)
            .str("outcome", self.outcome.label())
            .u64("solver_ns", if canonical { 0 } else { self.cost.solver_ns })
            .u64("conflicts", self.cost.conflicts)
            .u64("learned", self.cost.learned)
            .u64("propagations", self.cost.propagations)
            .u64("decisions", self.cost.decisions)
            .u64("theory_checks", self.cost.theory_checks)
            .u64("theory_conflicts", self.cost.theory_conflicts);
        o.finish()
    }
}

/// Serializes query records as a JSON array.
pub fn queries_json(records: &[QueryRecord], canonical: bool) -> String {
    let mut a = Arr::new();
    for r in records {
        a.raw(&r.json(canonical));
    }
    a.finish()
}

/// Aggregate row of a [`ProfileTable`].
#[derive(Debug, Clone, Default)]
pub struct ProfileRow {
    /// Checker name.
    pub checker: String,
    /// Source function name.
    pub func: String,
    /// Number of queries.
    pub queries: u64,
    /// Reported / linear-refuted / SMT-refuted / unsolved tallies.
    pub reported: u64,
    /// Queries killed by the linear pre-pass.
    pub linear_refuted: u64,
    /// Queries killed by the SMT solver.
    pub smt_refuted: u64,
    /// Queries that exhausted the round budget.
    pub unsolved: u64,
    /// Summed solver cost.
    pub cost: QueryCost,
}

/// Per-`(checker, function)` aggregation of query records, sorted by
/// total solver time descending (ties broken by query count, then
/// checker and function name, so the order is deterministic even when
/// all timings are zero).
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    rows: Vec<ProfileRow>,
}

impl ProfileTable {
    /// Builds the table from query records.
    pub fn build(records: &[QueryRecord]) -> Self {
        let mut agg: BTreeMap<(&str, &str), ProfileRow> = BTreeMap::new();
        for r in records {
            let row = agg
                .entry((r.checker.as_str(), r.source_func.as_str()))
                .or_insert_with(|| ProfileRow {
                    checker: r.checker.clone(),
                    func: r.source_func.clone(),
                    ..ProfileRow::default()
                });
            row.queries += 1;
            match r.outcome {
                QueryOutcome::Reported => row.reported += 1,
                QueryOutcome::LinearRefuted => row.linear_refuted += 1,
                QueryOutcome::SmtRefuted => row.smt_refuted += 1,
                QueryOutcome::Unsolved => row.unsolved += 1,
            }
            row.cost.add(&r.cost);
        }
        let mut rows: Vec<ProfileRow> = agg.into_values().collect();
        rows.sort_by(|a, b| {
            b.cost
                .solver_ns
                .cmp(&a.cost.solver_ns)
                .then(b.queries.cmp(&a.queries))
                .then(a.checker.cmp(&b.checker))
                .then(a.func.cmp(&b.func))
        });
        ProfileTable { rows }
    }

    /// The sorted rows.
    pub fn rows(&self) -> &[ProfileRow] {
        &self.rows
    }

    /// Renders the top-`k` rows as a fixed-width text table.
    pub fn render(&self, k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:<24} {:>7} {:>9} {:>8} {:>8} {:>9} {:>9} {:>10}\n",
            "checker",
            "function",
            "queries",
            "reported",
            "linear",
            "smt",
            "unsolved",
            "conflicts",
            "time(us)"
        ));
        let width = 16 + 1 + 24 + 1 + 7 + 1 + 9 + 1 + 8 + 1 + 8 + 1 + 9 + 1 + 9 + 1 + 10;
        out.push_str(&"-".repeat(width));
        out.push('\n');
        for row in self.rows.iter().take(k) {
            out.push_str(&format!(
                "{:<16} {:<24} {:>7} {:>9} {:>8} {:>8} {:>9} {:>9} {:>10.1}\n",
                truncate(&row.checker, 16),
                truncate(&row.func, 24),
                row.queries,
                row.reported,
                row.linear_refuted,
                row.smt_refuted,
                row.unsolved,
                row.cost.conflicts,
                row.cost.solver_ns as f64 / 1000.0,
            ));
        }
        if self.rows.len() > k {
            out.push_str(&format!("... {} more rows\n", self.rows.len() - k));
        }
        // Over all rows, shown or not: the queries whose report stands only
        // because the solver ran out of rounds.
        let exhausted: u64 = self.rows.iter().map(|r| r.cost.budget_exhausted).sum();
        let queries: u64 = self.rows.iter().map(|r| r.queries).sum();
        out.push_str(&format!(
            "solver budget exhausted: {exhausted} of {queries} queries\n"
        ));
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, checker: &str, func: &str, outcome: QueryOutcome, ns: u64) -> QueryRecord {
        QueryRecord {
            id,
            checker: checker.to_string(),
            source_func: func.to_string(),
            sink_func: func.to_string(),
            outcome,
            cost: QueryCost {
                solver_ns: ns,
                conflicts: 1,
                ..QueryCost::default()
            },
        }
    }

    #[test]
    fn table_sorts_by_time_then_count() {
        let records = vec![
            rec(0, "use-after-free", "f", QueryOutcome::Reported, 10),
            rec(1, "use-after-free", "g", QueryOutcome::SmtRefuted, 500),
            rec(2, "use-after-free", "f", QueryOutcome::LinearRefuted, 5),
            rec(3, "memory-leak", "f", QueryOutcome::Unsolved, 0),
        ];
        let t = ProfileTable::build(&records);
        assert_eq!(t.rows()[0].func, "g");
        assert_eq!(t.rows()[1].func, "f");
        assert_eq!(t.rows()[1].queries, 2);
        assert_eq!(t.rows()[1].reported, 1);
        assert_eq!(t.rows()[1].linear_refuted, 1);
        assert_eq!(t.rows()[2].checker, "memory-leak");
        let rendered = t.render(2);
        assert!(rendered.contains("use-after-free"));
        assert!(rendered.contains("... 1 more rows"));
        assert!(rendered.ends_with("solver budget exhausted: 0 of 4 queries\n"));
    }

    #[test]
    fn canonical_json_zeroes_only_time() {
        let r = rec(7, "use-after-free", "main", QueryOutcome::SmtRefuted, 999);
        let j = r.json(true);
        assert!(j.contains(r#""solver_ns":0"#));
        assert!(j.contains(r#""conflicts":1"#));
        assert!(j.contains(r#""outcome":"smt_refuted""#));
        let real = r.json(false);
        assert!(real.contains(r#""solver_ns":999"#));
        assert_eq!(queries_json(&[], true), "[]");
    }
}
