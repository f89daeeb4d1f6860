//! The differential oracle stack.
//!
//! Each oracle takes a generated program (plus its seed, which also
//! seeds edit scripts and formula generation) and either passes, reports
//! a *discrepancy* (two configurations disagreed), or records a *crash*
//! (a panic escaped the pipeline — caught by `catch_unwind` with the
//! panic site captured by a process-wide hook for deduplication).

use crate::{formula, OracleKind};
use pinpoint_baseline::{layered_check_uaf, Fsvfg};
use pinpoint_core::spec::{SinkSpec, SourceSpec, Spec};
use pinpoint_core::{Analysis, AnalysisBuilder, CheckerKind, DetectSession, Query, Workspace};
use pinpoint_workload::fuzzgen;
use pinpoint_workload::rng::SmallRng;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Result of one oracle run on one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The contract held.
    Pass,
    /// The contract broke. `tag` is a short stable class (dedup and
    /// shrinking key); `detail` is the human-readable mismatch.
    Discrepancy {
        /// Stable failure class, e.g. `subset` or `mismatch`.
        tag: String,
        /// Full description of the disagreement.
        detail: String,
    },
    /// A panic escaped the pipeline.
    Crash {
        /// `file:line` of the panic site (from the panic hook).
        site: String,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl RunOutcome {
    /// Whether `self` is the same failure class as `other` — the
    /// shrinker's predicate: a candidate only counts as still-failing
    /// if it fails the *same way* (same discrepancy tag or same panic
    /// site), so minimization cannot wander onto an unrelated bug.
    pub fn same_class(&self, other: &RunOutcome) -> bool {
        match (self, other) {
            (RunOutcome::Discrepancy { tag: a, .. }, RunOutcome::Discrepancy { tag: b, .. }) => {
                a == b
            }
            (RunOutcome::Crash { site: a, .. }, RunOutcome::Crash { site: b, .. }) => a == b,
            _ => false,
        }
    }
}

/// Last panic site recorded by the [`PanicCapture`] hook.
static LAST_PANIC: Mutex<Option<(String, String)>> = Mutex::new(None);

type Hook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// RAII guard that swaps in a silent panic hook recording the panic
/// site (`file:line`) and message, and restores the previous hook on
/// drop. Install once around a fuzz run so expected panics don't spam
/// stderr and crash findings dedup by site.
pub struct PanicCapture {
    prev: Option<Hook>,
}

impl std::fmt::Debug for PanicCapture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PanicCapture").finish_non_exhaustive()
    }
}

impl PanicCapture {
    /// Installs the capture hook.
    pub fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            let site = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()))
                .unwrap_or_else(|| "<unknown>".into());
            let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = info.payload().downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string payload>".into()
            };
            *LAST_PANIC.lock().unwrap() = Some((site, message));
        }));
        PanicCapture { prev: Some(prev) }
    }
}

impl Drop for PanicCapture {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Runs one oracle on one program, converting escaped panics into
/// [`RunOutcome::Crash`].
pub fn run(kind: OracleKind, src: &str, seed: u64, threads: usize) -> RunOutcome {
    *LAST_PANIC.lock().unwrap() = None;
    let result = catch_unwind(AssertUnwindSafe(|| check(kind, src, seed, threads)));
    match result {
        Ok(Ok(())) => RunOutcome::Pass,
        Ok(Err((tag, detail))) => RunOutcome::Discrepancy { tag, detail },
        Err(_) => {
            let (site, message) = LAST_PANIC
                .lock()
                .unwrap()
                .take()
                .unwrap_or_else(|| ("<unknown>".into(), "<unknown>".into()));
            RunOutcome::Crash { site, message }
        }
    }
}

type CheckResult = Result<(), (String, String)>;

fn fail(tag: &str, detail: impl Into<String>) -> CheckResult {
    Err((tag.to_string(), detail.into()))
}

fn check(kind: OracleKind, src: &str, seed: u64, threads: usize) -> CheckResult {
    match kind {
        OracleKind::Baseline => baseline_oracle(src),
        OracleKind::Threads => threads_oracle(src, threads),
        OracleKind::Warm => warm_oracle(src, seed),
        OracleKind::Smt => formula::smt_oracle(seed),
        OracleKind::Verdicts => formula::verdicts_oracle(seed),
        OracleKind::Verify => verify_oracle(src),
        OracleKind::Engines => engines_oracle(src, threads),
    }
}

/// Renders a report set into one canonical string for byte comparison.
fn render(analysis_reports: &[pinpoint_core::Report]) -> String {
    analysis_reports
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Oracle (a): every sparse UAF report's (source function, sink
/// function) pair must appear among the layered FSVFG baseline's
/// warnings — the baseline is flow-, context- and path-insensitive, so
/// its warning set over-approximates Pinpoint's.
fn baseline_oracle(src: &str) -> CheckResult {
    let analysis = match AnalysisBuilder::new().threads(1).build_source(src) {
        Ok(a) => a,
        Err(e) => {
            return fail(
                "frontend-reject",
                format!("generated program rejected: {e}"),
            )
        }
    };
    let reports = analysis.check(CheckerKind::UseAfterFree);
    if reports.is_empty() {
        return Ok(());
    }
    let module = &analysis.module;
    let g = Fsvfg::build(module);
    let warnings = layered_check_uaf(module, &g);
    let allowed: HashSet<(String, String)> = warnings
        .iter()
        .map(|w| {
            (
                module.func(w.source_func).name.clone(),
                module.func(w.sink_func).name.clone(),
            )
        })
        .collect();
    for r in &reports {
        let pair = (r.source_func_name.clone(), r.sink_func_name.clone());
        if !allowed.contains(&pair) {
            return fail(
                "subset",
                format!(
                    "sparse UAF report {} -> {} has no layered counterpart ({} warnings)\n{r}",
                    pair.0,
                    pair.1,
                    warnings.len()
                ),
            );
        }
    }
    Ok(())
}

/// Oracle (b): reports (all checkers + leaks) must be byte-identical
/// for 1 worker and `threads` workers.
fn threads_oracle(src: &str, threads: usize) -> CheckResult {
    let n = threads.max(2);
    let one = match AnalysisBuilder::new().threads(1).build_source(src) {
        Ok(a) => a,
        Err(e) => {
            return fail(
                "frontend-reject",
                format!("generated program rejected: {e}"),
            )
        }
    };
    let many = match AnalysisBuilder::new().threads(n).build_source(src) {
        Ok(a) => a,
        Err(e) => return fail("frontend-reject", format!("threads={n} rejected: {e}")),
    };
    let r1 = render(&one.check_all());
    let rn = render(&many.check_all());
    if r1 != rn {
        return fail(
            "mismatch",
            format!("reports differ between 1 and {n} threads:\n--- 1 thread\n{r1}\n--- {n} threads\n{rn}"),
        );
    }
    let l1 = format!("{:?}", one.check_leaks());
    let ln = format!("{:?}", many.check_leaks());
    if l1 != ln {
        return fail(
            "leak-mismatch",
            format!("leak reports differ between 1 and {n} threads:\n{l1}\n---\n{ln}"),
        );
    }
    Ok(())
}

/// Oracle (c): a warm [`Workspace`] stepped through a random edit
/// script must agree with a cold build at every step, and a
/// persistent-cache rebuild must agree with a cache-less build.
fn warm_oracle(src: &str, seed: u64) -> CheckResult {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x57A7_E0F5_EEDC_0DE5);
    let mut ws = match Workspace::open(src) {
        Ok(w) => w,
        Err(e) => {
            return fail(
                "frontend-reject",
                format!("generated program rejected: {e}"),
            )
        }
    };
    let _ = ws.query(&Query::All);
    let mut cur = src.to_string();
    for step in 0..2 {
        cur = fuzzgen::mutate(&cur, &mut rng);
        if let Err(e) = ws.update_source(&cur) {
            return fail("mutant-reject", format!("edit {step} rejected: {e}"));
        }
        let warm = render(&ws.query(&Query::All).into_reports());
        let mut cold_ws = match Workspace::open(&cur) {
            Ok(w) => w,
            Err(e) => return fail("mutant-reject", format!("cold reopen {step}: {e}")),
        };
        let cold = render(&cold_ws.query(&Query::All).into_reports());
        if warm != cold {
            return fail(
                "warm-mismatch",
                format!("edit {step}: warm workspace disagrees with cold build\n--- warm\n{warm}\n--- cold\n{cold}"),
            );
        }
    }
    // Persistent cache roundtrip (every 8th seed: it does real IO).
    if seed.is_multiple_of(8) {
        let dir = std::env::temp_dir().join(format!("pinpoint-fuzz-cache-{seed:016x}"));
        let result = cache_roundtrip(src, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
    Ok(())
}

fn cache_roundtrip(src: &str, dir: &std::path::Path) -> CheckResult {
    let plain = match AnalysisBuilder::new().threads(1).build_source(src) {
        Ok(a) => render(&a.check_all()),
        Err(e) => return fail("frontend-reject", format!("{e}")),
    };
    for round in 0..2 {
        let cached = match AnalysisBuilder::new()
            .threads(1)
            .cache_dir(dir)
            .build_source(src)
        {
            Ok(a) => render(&a.check_all()),
            Err(e) => return fail("cache-reject", format!("cache round {round}: {e}")),
        };
        if cached != plain {
            return fail(
                "cache-mismatch",
                format!("cache round {round} disagrees with cache-less build\n--- cached\n{cached}\n--- plain\n{plain}"),
            );
        }
    }
    Ok(())
}

/// Oracle (f): the summary gate in front of every search must never
/// change an answer — every built-in checker and every spec of
/// [`custom_specs`] reports byte-identically to the ungated reference
/// search, at 1 and N threads, and again after alpha-renaming every
/// generated helper (`fK` → `rK`), which permutes `FuncId` assignment and
/// therefore runs the SCC schedule in a different function order.
fn engines_oracle(src: &str, threads: usize) -> CheckResult {
    engines_compare(src, 1, "as generated")?;
    engines_compare(src, threads.max(2), "as generated")?;
    engines_compare(&alpha_rename_helpers(src), 1, "alpha-renamed")
}

/// Custom properties the generated programs have sources and sinks for,
/// one per [`SourceSpec`] shape: the specs the gate is checked on next
/// to the built-in checkers.
pub fn custom_specs() -> [Spec; 3] {
    let print = || SinkSpec::Calls(vec!["print".into()]);
    [
        Spec {
            name: "free-to-print".into(),
            source: SourceSpec::FreeArgument,
            sink: print(),
            traverses_transforms: false,
        },
        Spec {
            name: "nondet-to-print".into(),
            source: SourceSpec::CallReceiver(vec!["nondet_int".into()]),
            sink: print(),
            traverses_transforms: true,
        },
        Spec {
            name: "null-to-deref".into(),
            source: SourceSpec::NullConstant,
            sink: SinkSpec::Derefs,
            traverses_transforms: false,
        },
    ]
}

fn engines_compare(src: &str, threads: usize, variant: &str) -> CheckResult {
    let analysis = match AnalysisBuilder::new().threads(threads).build_source(src) {
        Ok(a) => a,
        Err(e) => {
            return fail(
                "frontend-reject",
                format!("{variant} program rejected (threads={threads}): {e}"),
            )
        }
    };
    let run = |mut session: DetectSession<'_>| {
        let mut reports = session.check_all();
        for spec in custom_specs() {
            reports.extend(session.check_custom(&spec));
        }
        render(&reports)
    };
    let ungated = run(analysis.session().ungated());
    let gated = run(analysis.session());
    if ungated != gated {
        return fail(
            "engine-mismatch",
            format!(
                "gated search disagrees with the ungated reference ({variant}, threads={threads}):\n--- ungated\n{ungated}\n--- gated\n{gated}"
            ),
        );
    }
    Ok(())
}

/// Renames every generated helper `fK` (for decimal `K`) to `rK`,
/// definition and call sites alike. The generator never emits other
/// identifiers of that shape, so a whole-token rewrite is semantics
/// preserving while permuting function order.
fn alpha_rename_helpers(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let tok = &bytes[start..i];
            if tok[0] == b'f' && tok.len() > 1 && tok[1..].iter().all(u8::is_ascii_digit) {
                out.push(b'r');
                out.extend_from_slice(&tok[1..]);
            } else {
                out.extend_from_slice(tok);
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).expect("rename only rewrites ASCII tokens")
}

/// Oracle (e): the IR verifier must accept both the freshly lowered and
/// the optimised module.
fn verify_oracle(src: &str) -> CheckResult {
    let mut module = match pinpoint_ir::compile(src) {
        Ok(m) => m,
        Err(e) => {
            return fail(
                "frontend-reject",
                format!("generated program rejected: {e}"),
            )
        }
    };
    let errs = pinpoint_ir::verify::verify_module(&module);
    if !errs.is_empty() {
        return fail(
            "verify-raw",
            format!(
                "lowered module fails verification: {}",
                errs.iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
        );
    }
    pinpoint_ir::optimize_module(&mut module);
    let errs = pinpoint_ir::verify::verify_module(&module);
    if !errs.is_empty() {
        return fail(
            "verify-opt",
            format!(
                "optimised module fails verification: {}",
                errs.iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
        );
    }
    Ok(())
}

/// Computes corpus-style reference expectations for a program from a
/// single-threaded run: `uaf=N taint-pt=N taint-dt=N null=N leak=N`.
/// Returns `None` if the program does not compile or the reference run
/// itself panics (crash reproducers).
pub fn reference_expectations(src: &str) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| {
        let analysis = Analysis::from_source(src).ok()?;
        let count = |k: CheckerKind| analysis.check(k).len();
        Some(format!(
            "uaf={} taint-pt={} taint-dt={} null={} leak={}",
            count(CheckerKind::UseAfterFree),
            count(CheckerKind::PathTraversal),
            count(CheckerKind::DataTransmission),
            count(CheckerKind::NullDeref),
            analysis.check_leaks().len()
        ))
    }))
    .ok()
    .flatten()
}
