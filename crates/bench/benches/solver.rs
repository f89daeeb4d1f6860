//! Solver micro-benchmarks: the linear-time contradiction solver vs the
//! full DPLL(T) solver on path-condition-shaped formulas (§3.1.1's cost
//! argument: the cheap solver discharges most conditions for a fraction
//! of the price).

use pinpoint_bench::harness::{bench, smoke_mode};
use pinpoint_core::{AnalysisBuilder, Query};
use pinpoint_smt::{LinearSolver, SmtSolver, Sort, TermArena, TermId};
use pinpoint_workload::{generate, GenConfig};

/// Builds a path-condition-shaped formula: a conjunction of branch
/// literals, value-flow equalities, and guarded implications.
fn path_condition(arena: &mut TermArena, n: usize, contradictory: bool) -> TermId {
    let mut conj = Vec::new();
    for i in 0..n {
        let b = arena.var(format!("theta{i}"), Sort::Bool);
        let x = arena.var(format!("x{i}"), Sort::Int);
        let y = arena.var(format!("y{i}"), Sort::Int);
        let zero = arena.int(0);
        let ne = arena.ne(x, zero);
        let eq = arena.eq(x, y);
        let imp = arena.implies(b, eq);
        conj.push(b);
        conj.push(ne);
        conj.push(imp);
    }
    if contradictory {
        // An *apparent* contradiction the arena's flattening does not
        // fold away: θ0 is asserted above, and ¬θ0 is common to both
        // disjuncts here (P/N sets intersect).
        let t0 = arena.var("theta0".to_string(), Sort::Bool);
        let nt0 = arena.not(t0);
        let p = arena.var("aux_p".to_string(), Sort::Bool);
        let q = arena.var("aux_q".to_string(), Sort::Bool);
        let l = arena.and2(nt0, p);
        let r = arena.and2(nt0, q);
        conj.push(arena.or2(l, r));
    }
    arena.and(conj)
}

fn bench_solvers() {
    println!("# group: solver");
    for n in [8usize, 32] {
        for contradictory in [false, true] {
            let label = if contradictory { "unsat" } else { "sat" };
            {
                let mut arena = TermArena::new();
                let cond = path_condition(&mut arena, n, contradictory);
                bench(&format!("linear_{label}_{n}"), 50, || {
                    let mut solver = LinearSolver::new();
                    solver.check(&arena, cond)
                });
            }
            {
                let mut arena = TermArena::new();
                let cond = path_condition(&mut arena, n, contradictory);
                bench(&format!("smt_{label}_{n}"), 50, || {
                    let mut solver = SmtSolver::new();
                    solver.check(&arena, cond)
                });
            }
        }
    }
}

/// Cold-vs-warm end-to-end solver cost: the same `Query::All` workload
/// with an empty verdict table versus one preloaded from a persisted
/// verdict store (`--cache-dir`). The warm rows replay cached verdicts
/// by canonical fingerprint instead of re-running CDCL, so the delta is
/// the wall-clock the cross-query cache buys.
fn bench_solver_reuse() {
    println!("# group: solver-reuse");
    let kloc = if smoke_mode() { 1.0 } else { 5.0 };
    let project = generate(&GenConfig {
        seed: 29,
        real_bugs: 2,
        decoys: 2,
        taint: true,
        ..GenConfig::default().with_target_kloc(kloc)
    });
    let dir = std::env::temp_dir().join(format!(
        "pinpoint-bench-solver-reuse-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Prime the verdict store: one full run against the cache directory
    // solves every condition once and persists the table.
    {
        let a = AnalysisBuilder::new()
            .threads(1)
            .cache_dir(&dir)
            .build_source(&project.source)
            .unwrap();
        a.session().query(&Query::All);
    }

    // Cold: no cache directory, so every session starts from an empty
    // verdict table and pays for every CDCL solve.
    let cold = AnalysisBuilder::new()
        .threads(1)
        .build_source(&project.source)
        .unwrap();
    let mut cold_reports: Vec<String> = Vec::new();
    let mut cold_misses = 0u64;
    bench(&format!("cold-check_all/{kloc}kloc"), 5, || {
        let mut s = cold.session();
        cold_reports = s
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        cold_misses = s.stats().detect.verdict_misses;
        cold_reports.len()
    });

    // Warm: the analysis loads the persisted verdict table, so sessions
    // replay cached verdicts instead of re-deriving them.
    let warm = AnalysisBuilder::new()
        .threads(1)
        .cache_dir(&dir)
        .build_source(&project.source)
        .unwrap();
    let mut warm_reports: Vec<String> = Vec::new();
    let mut warm_hits = 0u64;
    let mut warm_misses = 0u64;
    bench(&format!("warm-check_all/{kloc}kloc"), 5, || {
        let mut s = warm.session();
        warm_reports = s
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        let d = s.stats().detect;
        warm_hits = d.verdict_hits;
        warm_misses = d.verdict_misses;
        warm_reports.len()
    });

    assert_eq!(warm_reports, cold_reports, "warm reports equal cold");
    assert!(warm_hits > 0, "warm run replays cached verdicts");
    assert!(
        warm_misses < cold_misses,
        "warm run must solve strictly less ({warm_misses} vs {cold_misses})"
    );
    println!(
        "# solver reuse: warm run replayed {warm_hits} verdicts and solved {warm_misses} \
         (cold solved {cold_misses})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    bench_solvers();
    bench_solver_reuse();
}
