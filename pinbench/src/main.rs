//! `pinbench`: the repository's benchmark.
//!
//! ```sh
//! bash pinbench/run.sh --workload cold_sparse --seed 1 --seconds 10 --trace 0
//! bash pinbench/run.sh --workload serve_edit --trace 1      # per-layer probes
//! bash pinbench/run.sh --smoke                              # all four, 1/50 size
//! bash pinbench/run.sh --out a.jsonl                        # append result lines
//! bash pinbench/run.sh compare a.jsonl b.jsonl
//! ```
//!
//! With `--trace 0` the release `pinpoint` binary is measured from
//! outside, tracing off ([`run`], [`serve`]); with `--trace 1` each
//! layer's public entry points are called in-process at one thread on the
//! same inputs, a span around each call ([`layers`]). Every run checks
//! the program's outputs ([`oracle`], the pins of [`inputs`]) and ends
//! with one JSON result line. README.md defines every metric.

mod compare;
mod inputs;
mod json;
mod layers;
mod oracle;
mod proc;
mod run;
mod serve;
mod speed;

use pinpoint::obs::json::Obj;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: every workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
///
/// Each bound is at least three times the widest run-to-run spread the
/// metric showed on any workload (README.md, "Noise"); set-up and first
/// results are short and few, and get the widest bound the contract allows.
/// The bound of `peak_rss_mb` covers the inputs, not noise: the server of
/// `serve_edit` needs 68 MiB for most seeds and 74 MiB for the others.
pub const END_TO_END: [Metric; 8] = [
    lower("setup_s", "s", 0.25),
    lower("op_ms", "ms", 0.15),
    lower("op_tail_ms", "ms", 0.15),
    lower("cpu_ms", "ms", 0.15),
    lower("peak_rss_mb", "MiB", 0.15),
    lower("first_result_ms", "ms", 0.25),
    lower("disk_mb", "MiB", 0.05),
    Metric {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
];

pub const WORKLOADS: [&str; 4] = ["cold_sparse", "cold_dense", "warm_edit", "serve_edit"];

/// Length of the timed phase when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;

/// Every run keeps one program thread busy: `check` runs at one thread,
/// the server has one worker at one thread, and its two clients wait for
/// each other's requests. The sandbox has two cores at best, the harness
/// and the kernel need one, and what the second delivers changes from
/// minute to minute — a workload that fills both measures that.
pub const CLI_THREADS: usize = 1;
pub const SERVE_WORKERS: usize = 1;
pub const SERVE_THREADS: usize = 1;
pub const SERVE_CLIENTS: usize = 2;

/// One reported number and how many samples stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Value>,
}

/// Everything a run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub pinpoint: PathBuf,
    /// Scratch directory of this run, relative to the working directory
    /// (Unix socket paths must stay short); removed when the run ends.
    pub work: PathBuf,
    pub target_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Ctx {
    /// Inputs are checked against `pins.txt` at the pinned seed and size.
    pub fn pinned(&self) -> bool {
        self.seed == inputs::PINNED_SEED && !self.smoke
    }

    /// The `cold_dense` module set does not follow `--seed` (see
    /// `inputs::dense_modules`), so its pins hold at every seed.
    pub fn dense_pinned(&self) -> bool {
        !self.smoke
    }

    pub fn sizes(&self) -> inputs::Sizes {
        inputs::Sizes::new(self.smoke)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The lower quartile by nearest rank, rounding down: the minimum of up to
/// four values, the second lowest of five to eight. What the scaling of
/// [`speed`] leaves of the sandbox's noise is one-sided — a slow spell the
/// sampler caught too little of, a page cache gone cold, a late wake-up: all
/// add time, nothing takes any away — so within a run the slow samples are
/// the host's and the fast ones the program's. A median moves as soon as
/// the disturbances cover half of a run; the lower quartile holds until
/// they cover three quarters of it (README.md, "Noise").
pub fn quiet(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 4).copied().unwrap_or(0.0)
}

/// [`quiet`] for a metric where higher is better: the upper quartile.
pub fn quiet_high(values: &[f64]) -> f64 {
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    -quiet(&negated)
}

/// The 90th percentile by nearest rank: of ten values the ninth, of one
/// that one.
pub fn p90(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[(n * 90).div_ceil(100) - 1],
    }
}

/// Bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

const USAGE: &str = "usage:
  pinbench [--workload cold_sparse|cold_dense|warm_edit|serve_edit] [--seed N] [--seconds S]
           [--trace 0|1] [--smoke] [--out FILE] [--pinpoint PATH]
  pinbench compare A.jsonl B.jsonl

  Without --workload all four run in turn. --trace 0 measures the release
  pinpoint binary from outside; --trace 1 probes each layer in-process and
  writes a Chrome trace. --smoke runs at 1/50 size. --out appends each
  result (with run metadata) to FILE for `compare`.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    pinpoint: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: inputs::PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        pinpoint: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("invalid {flag} value `{v}`");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.contains(&v.as_str()) {
                    return Err(format!("unknown workload `{v}`"));
                }
                parsed.workload = Some(v);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value()?.into()),
            "--pinpoint" => parsed.pinpoint = Some(value()?.into()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// The release `pinpoint` binary, or a one-line reason to refuse it.
fn locate_pinpoint(explicit: Option<PathBuf>, target_dir: &Path) -> Result<PathBuf, String> {
    let path = explicit.unwrap_or_else(|| target_dir.join("release").join("pinpoint"));
    if !path.is_file() {
        return Err(format!(
            "no pinpoint binary at `{}` (build it with `cargo build --release`, or run through pinbench/run.sh)",
            path.display()
        ));
    }
    if !path.components().any(|c| c.as_os_str() == "release") {
        return Err(format!(
            "`{}` is not a release build; only optimized builds are measured",
            path.display()
        ));
    }
    Ok(path)
}

fn run_one(ctx: &Ctx, workload: &str, trace: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("cannot create `{}`: {e}", ctx.work.display()))?;
    let outcome = if trace {
        layers::trace(ctx, workload)
    } else {
        match workload {
            "cold_sparse" => run::cold_sparse(ctx),
            "cold_dense" => run::cold_dense(ctx),
            "warm_edit" => run::warm_edit(ctx),
            _ => serve::serve_edit(ctx),
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

fn metrics_json(metrics: &[Value]) -> String {
    let mut obj = Obj::new();
    for m in metrics {
        let mut v = Obj::new();
        v.raw("value", &format!("{}", m.value)).str("unit", m.unit);
        obj.raw(m.name, &v.finish());
    }
    obj.finish()
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let mut obj = Obj::new();
    obj.raw("correct", if outcome.correct { "true" } else { "false" })
        .u64("attempted", outcome.attempted)
        .u64("failed", outcome.failed)
        .raw("metrics", &metrics_json(&outcome.metrics));
    obj.finish()
}

/// The `--out` line: what is needed to compare runs, and the result line
/// under `result`.
fn out_line(ctx: &Ctx, workload: &str, trace: bool, outcome: &Outcome) -> String {
    let head = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut obj = Obj::new();
    obj.str("workload", workload)
        .u64("seed", ctx.seed)
        .raw("seconds", &format!("{}", ctx.seconds))
        .raw("trace", if trace { "true" } else { "false" })
        .raw("smoke", if ctx.smoke { "true" } else { "false" })
        .u64("nproc", nproc as u64)
        .u64("cli_threads", CLI_THREADS as u64)
        .u64("serve_workers", SERVE_WORKERS as u64)
        .u64("serve_threads", SERVE_THREADS as u64)
        .u64("serve_clients", SERVE_CLIENTS as u64)
        .str("git_head", &head)
        .str("pinpoint", &ctx.pinpoint.display().to_string())
        .raw("result", &result_line(outcome));
    obj.finish()
}

fn print_outcome(workload: &str, trace: bool, outcome: &Outcome) {
    for m in &outcome.metrics {
        let bound = END_TO_END
            .iter()
            .find(|e| !trace && e.name == m.name)
            .map(|e| format!(" bound={}%", e.bound * 100.0))
            .unwrap_or_default();
        println!(
            "metric {workload} {} {} {} n={}{bound}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "result {workload} attempted={} failed={} correct={}",
        outcome.attempted, outcome.failed, outcome.correct
    );
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return Err(format!("compare takes two files\n{USAGE}"));
        };
        return compare::compare(Path::new(a), Path::new(b));
    }
    let args = parse_args(&args)?;
    let target_dir: PathBuf =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let pinpoint = locate_pinpoint(args.pinpoint, &target_dir)?;
    let Some(workload) = args.workload.as_deref() else {
        // One process per workload: a child's peak resident set, as wait4
        // reports it, is never below its parent's at the moment of the
        // spawn, so inputs left in memory by one workload must not be
        // there when the next one spawns.
        let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
        for workload in WORKLOADS {
            let status = std::process::Command::new(&exe)
                .args(std::env::args().skip(1))
                .args(["--workload", workload])
                .status()
                .map_err(|e| format!("cannot run `{}`: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{workload} did not complete"));
            }
        }
        return Ok(());
    };
    let ctx = Ctx {
        pinpoint,
        work: target_dir
            .join("pinbench-work")
            .join(format!("{workload}-{}", std::process::id())),
        target_dir,
        seed: args.seed,
        seconds: if args.smoke { 1.0 } else { args.seconds },
        smoke: args.smoke,
    };
    let outcome = run_one(&ctx, workload, args.trace)?;
    print_outcome(workload, args.trace, &outcome);
    if let Some(path) = &args.out {
        use std::io::Write;
        let line = out_line(&ctx, workload, args.trace, &outcome);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pinbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
