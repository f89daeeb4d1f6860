//! `pinpoint-fuzz`: the differential fuzzing and auto-shrinking
//! subsystem of the Pinpoint reproduction.
//!
//! The analysis ships a stack of consistency contracts spread across
//! the test suite — sparse reports are a subset of the layered
//! baseline's, reports are byte-identical for any thread count, warm
//! incremental results equal cold rebuilds, the DPLL(T) solver agrees
//! with brute-force enumeration, and verdicts replayed from the
//! canonical-fingerprint cache equal fresh solves. This crate turns
//! those contracts into an
//! *engine*: a seeded grammar generator ([`pinpoint_workload::fuzzgen`])
//! produces arbitrary well-typed §3 programs, each program is pushed
//! through a configurable stack of [`OracleKind`]s, panics are caught
//! and deduplicated by site, and every fresh failure is minimized by a
//! delta-debugging [`shrink`]er before being written out as a
//! reproducer for `tests/corpus/fuzz-regressions/`.
//!
//! ```
//! use pinpoint_fuzz::{run_fuzz, FuzzConfig, OracleKind};
//!
//! let outcome = run_fuzz(&FuzzConfig {
//!     seed: 5,
//!     iters: 3,
//!     oracles: vec![OracleKind::Verify],
//!     ..FuzzConfig::default()
//! });
//! assert_eq!(outcome.iters, 3);
//! assert_eq!(outcome.discrepancies + outcome.crashes, 0);
//! ```

#![warn(missing_docs)]

pub mod formula;
pub mod oracles;
pub mod shrink;

use oracles::RunOutcome;
use pinpoint_workload::fuzzgen::FuzzGenConfig;
use pinpoint_workload::rng::SmallRng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One differential oracle in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Sparse UAF reports must be a subset (by function-name pair) of
    /// the layered FSVFG baseline's warnings.
    Baseline,
    /// Reports must be byte-identical for 1 and N worker threads.
    Threads,
    /// Warm [`pinpoint_core::Workspace`] results after random edits
    /// must equal cold rebuilds, and persistent-cache runs must equal
    /// cache-less runs.
    Warm,
    /// DPLL(T) verdicts must agree with brute-force enumeration on the
    /// clamp-complete formula fragment (and never refute a finite
    /// witness elsewhere).
    Smt,
    /// Verdicts replayed from a canonical-fingerprint
    /// [`pinpoint_smt::VerdictTable`] must equal fresh solves — including
    /// across alpha-renaming, and with replayed `Sat` models still
    /// extending to real witnesses.
    Verdicts,
    /// `verify_module` invariants must hold after lowering and after
    /// IR optimisation.
    Verify,
    /// The search with the interface summaries (descent pruning; every
    /// built-in checker and custom spec) must report
    /// byte-identically to the summary-free reference search — at 1
    /// and N threads, and on an alpha-renamed rebuild (helper renaming
    /// permutes `FuncId`s, so the bottom-up SCC schedule runs in a
    /// different order).
    Engines,
}

impl OracleKind {
    /// All oracles, in canonical execution order.
    pub const ALL: [OracleKind; 7] = [
        OracleKind::Baseline,
        OracleKind::Threads,
        OracleKind::Warm,
        OracleKind::Smt,
        OracleKind::Verdicts,
        OracleKind::Verify,
        OracleKind::Engines,
    ];

    /// Stable lowercase name (CLI flag value, counter suffix).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Baseline => "baseline",
            OracleKind::Threads => "threads",
            OracleKind::Warm => "warm",
            OracleKind::Smt => "smt",
            OracleKind::Verdicts => "verdicts",
            OracleKind::Verify => "verify",
            OracleKind::Engines => "engines",
        }
    }

    /// Parses a CLI flag value (`all` is handled by the caller).
    pub fn parse(s: &str) -> Option<OracleKind> {
        OracleKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether this oracle consumes the generated program (and so has
    /// something for the shrinker to minimize). The formula-based
    /// oracles ([`OracleKind::Smt`], [`OracleKind::Verdicts`]) derive
    /// everything from the seed instead.
    pub fn uses_program(self) -> bool {
        !matches!(self, OracleKind::Smt | OracleKind::Verdicts)
    }
}

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every iteration derives its program seed from it.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Optional wall-clock budget; the run stops early when exceeded.
    pub time_budget: Option<Duration>,
    /// Oracles to run on each program.
    pub oracles: Vec<OracleKind>,
    /// Where to write minimized reproducers (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Worker count for the thread-determinism oracle (≥ 2).
    pub threads: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            iters: 100,
            time_budget: None,
            oracles: OracleKind::ALL.to_vec(),
            out_dir: None,
            threads: 4,
        }
    }
}

/// What a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Two configurations disagreed.
    Discrepancy,
    /// A panic escaped the pipeline.
    Crash,
}

/// One deduplicated failure, minimized where a program is involved.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The oracle that failed.
    pub oracle: OracleKind,
    /// The iteration (0-based) whose program triggered it.
    pub iteration: u64,
    /// Discrepancy or crash.
    pub kind: FindingKind,
    /// Human-readable description (tag, mismatch detail, panic site).
    pub detail: String,
    /// The minimized program (`None` for program-less oracles like SMT).
    pub program: Option<String>,
    /// Oracle evaluations spent shrinking this finding.
    pub shrink_steps: u64,
    /// Where the reproducer was written, if anywhere.
    pub reproducer: Option<PathBuf>,
}

/// Aggregate result of a fuzz run. The counter fields feed the
/// `fuzz.{iters,discrepancies,crashes,shrink_steps}` metrics.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Iterations actually executed (≤ configured under a time budget).
    pub iters: u64,
    /// Total discrepancy observations (before dedup).
    pub discrepancies: u64,
    /// Total crash observations (before dedup).
    pub crashes: u64,
    /// Total shrinker oracle evaluations.
    pub shrink_steps: u64,
    /// Deduplicated, minimized findings.
    pub findings: Vec<Finding>,
    /// Wall time of the run.
    pub elapsed: Duration,
}

/// Derives the program seed of iteration `i` from the master seed.
fn program_seed(master: u64, i: u64) -> u64 {
    let mut r = SmallRng::seed_from_u64(master.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i);
    r.next_u64()
}

/// Runs the configured oracle stack over `iters` generated programs.
///
/// Failures are deduplicated — crashes by panic site, discrepancies by
/// `(oracle, tag)` — and each fresh failure is shrunk and (if
/// [`FuzzConfig::out_dir`] is set) written as a reproducer.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let _guard = oracles::PanicCapture::install();
    let start = Instant::now();
    let mut out = FuzzOutcome::default();
    let mut seen: HashSet<String> = HashSet::new();
    for i in 0..cfg.iters {
        if let Some(budget) = cfg.time_budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        let pseed = program_seed(cfg.seed, i);
        let src = pinpoint_workload::fuzzgen::generate(&FuzzGenConfig {
            seed: pseed,
            functions: 5,
            max_stmts: 8,
            globals: 2,
            recursion: true,
        });
        for &oracle in &cfg.oracles {
            let outcome = oracles::run(oracle, &src, pseed, cfg.threads);
            let (kind, key, detail) = match &outcome {
                RunOutcome::Pass => continue,
                RunOutcome::Discrepancy { tag, detail } => (
                    FindingKind::Discrepancy,
                    format!("{}:{tag}", oracle.name()),
                    detail.clone(),
                ),
                RunOutcome::Crash { site, message } => (
                    FindingKind::Crash,
                    format!("panic:{site}"),
                    format!("panic at {site}: {message}"),
                ),
            };
            match kind {
                FindingKind::Discrepancy => out.discrepancies += 1,
                FindingKind::Crash => out.crashes += 1,
            }
            if !seen.insert(key.clone()) {
                continue;
            }
            let mut finding = Finding {
                oracle,
                iteration: i,
                kind,
                detail,
                program: None,
                shrink_steps: 0,
                reproducer: None,
            };
            if oracle.uses_program() {
                let mut steps = 0u64;
                let minimized = shrink::shrink(
                    &src,
                    &mut |candidate| {
                        oracles::run(oracle, candidate, pseed, cfg.threads).same_class(&outcome)
                    },
                    &mut steps,
                    2_000,
                );
                out.shrink_steps += steps;
                finding.shrink_steps = steps;
                finding.program = Some(minimized);
            }
            if let Some(dir) = &cfg.out_dir {
                finding.reproducer = write_reproducer(dir, &finding, &key);
            }
            out.findings.push(finding);
        }
        out.iters += 1;
    }
    out.elapsed = start.elapsed();
    out
}

/// Writes a reproducer file for `finding` into `dir`.
///
/// Discrepancy reproducers become corpus-ready `.pp` files whose
/// `// expect:` header pins the single-threaded reference verdicts;
/// crash reproducers (whose programs cannot be analysed to produce a
/// reference) are written as `.txt` so `corpus_runner` skips them until
/// a human triages the fix.
fn write_reproducer(dir: &std::path::Path, finding: &Finding, key: &str) -> Option<PathBuf> {
    let program = finding.program.as_deref()?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes().chain(program.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    let expect = oracles::reference_expectations(program);
    let ext = if expect.is_some() { "pp" } else { "txt" };
    let path = dir.join(format!("fuzz-{}-{h:08x}.{ext}", finding.oracle.name()));
    let mut body = String::new();
    body.push_str(&format!(
        "// fuzz-regression: oracle={} {}\n",
        finding.oracle.name(),
        finding.detail.lines().next().unwrap_or_default()
    ));
    if let Some(expect) = expect {
        body.push_str(&format!("// expect: {expect}\n"));
    }
    body.push_str(program);
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    std::fs::write(&path, body).ok()?;
    Some(path)
}
