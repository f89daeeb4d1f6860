//! The three workloads whose operation is a `pinpoint check` process:
//! `cold_sparse`, `cold_dense` and `warm_edit`. Each child is timed from
//! exec to exit by `wait4` ([`crate::proc`]), its JSON report goes to a
//! file, and the file is checked after the clock has stopped.

use crate::inputs::{self, EditScript, InputId};
use crate::proc::{self, Exit};
use crate::speed::Speed;
use crate::{
    dir_bytes, median, oracle, p90, quiet, quiet_high, Ctx, Outcome, Value, CLI_THREADS, END_TO_END,
};
use pinpoint::workload::InjectedBug;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fewest timed operations of `cold_sparse`, however long one takes.
pub const MIN_OPS: usize = 3;

/// How often set-up is repeated; the median is reported. Set-up is
/// milliseconds of generating and writing on most workloads, so it takes
/// this many samples for the median to hold still.
pub const SETUP_REPEATS: usize = 7;

/// Fewest timed passes of `cold_dense`: the quiet quartile of five samples
/// is the second lowest, so one lucky sample does not set it.
const MIN_PASSES: usize = 5;

/// Fewest timed operations of `warm_edit`, and how often one is followed
/// by an uncached check of the same version (a first-result sample, and
/// the report the warm one must equal).
const WARM_MIN_OPS: usize = 40;
const WARM_UNCACHED_EVERY: usize = 8;

/// Wall-clock limit of one child; a child that exceeds it is killed and
/// counted as failed, its full time staying in the samples.
pub const CHILD_LIMIT: Duration = Duration::from_secs(60);

const MIB: f64 = 1024.0 * 1024.0;

/// A stretch of the timed phase. Every timed statistic of a run is taken
/// per window and the window at the quiet quartile is reported
/// ([`crate::quiet`]): a burst of host noise spoils the windows it falls
/// in and leaves the others as they are. Where the program runs one
/// operation at a time, every operation is a window; only `serve_edit`,
/// whose clients queue behind each other, has windows of many.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of each operation of the window.
    pub op_ms: Vec<f64>,
    /// CPU the program used during the window.
    pub cpu_ms: f64,
    /// Wall time the operations took together; with several clients less
    /// than the sum of `op_ms`.
    pub wall_ms: f64,
}

/// The numbers one run of one workload yields; [`E2e::outcome`] turns
/// them into the end-to-end metrics.
#[derive(Debug)]
pub struct E2e {
    /// Scales every time below to a quiet core's; see [`crate::speed`].
    pub speed: Speed,
    pub setup_s: Vec<f64>,
    pub windows: Vec<Window>,
    pub peak_rss_kib: u64,
    /// Wall time of each operation against empty state; left empty where
    /// every timed operation is one.
    pub first_result_ms: Vec<f64>,
    pub disk_bytes: u64,
    pub failed: u64,
    /// Why an output was wrong, if one was.
    pub wrong: Option<String>,
}

impl E2e {
    /// Confines this thread and what it starts to the program's core and
    /// starts the speed sampler there.
    pub fn start() -> E2e {
        E2e {
            speed: Speed::start(),
            setup_s: Vec::new(),
            windows: Vec::new(),
            peak_rss_kib: 0,
            first_result_ms: Vec::new(),
            disk_bytes: 0,
            failed: 0,
            wrong: None,
        }
    }

    /// Wall and CPU time of a child in milliseconds on a quiet core.
    pub fn cost(&self, child: &Exit) -> (f64, f64) {
        let factor = self.speed.factor(child.started, child.wall);
        (ms(child.wall) * factor, ms(child.cpu) * factor)
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("pinbench: failed op: {why}");
        self.wrong.get_or_insert(why);
    }

    pub fn outcome(self) -> Outcome {
        let ops: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| w.op_ms.iter().copied())
            .collect();
        let per_window =
            |stat: fn(&Window) -> f64| -> Vec<f64> { self.windows.iter().map(stat).collect() };
        let first_result = if self.first_result_ms.is_empty() {
            &ops
        } else {
            &self.first_result_ms
        };
        // Few enough samples to read: show them, the metrics below only
        // give a quartile of each.
        let costs = self.speed.costs();
        println!(
            "speed samples={} cost_ms quiet={} median={} p90={}",
            costs.len(),
            quiet(&costs),
            median(&costs),
            p90(&costs)
        );
        println!("samples op_ms {ops:?}");
        println!("samples first_result_ms {:?}", self.first_result_ms);
        let values = [
            (median(&self.setup_s), self.setup_s.len()),
            (quiet(&per_window(|w| median(&w.op_ms))), ops.len()),
            (quiet(&per_window(|w| p90(&w.op_ms))), ops.len()),
            (
                quiet(&per_window(|w| w.cpu_ms / w.op_ms.len() as f64)),
                self.windows.len(),
            ),
            (self.peak_rss_kib as f64 / 1024.0, ops.len()),
            (quiet(first_result), first_result.len()),
            (self.disk_bytes as f64 / MIB, 1),
            (
                quiet_high(&per_window(|w| w.op_ms.len() as f64 * 1000.0 / w.wall_ms)),
                self.windows.len(),
            ),
        ];
        Outcome {
            attempted: (ops.len() + self.first_result_ms.len()) as u64,
            failed: self.failed,
            correct: self.failed == 0 && self.wrong.is_none(),
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, (value, samples))| Value {
                    name: m.name,
                    value,
                    unit: m.unit,
                    samples,
                })
                .collect(),
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

pub fn io_err(what: &str, path: &Path) -> impl Fn(std::io::Error) -> String {
    let context = format!("cannot {what} `{}`", path.display());
    move |e| format!("{context}: {e}")
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(io_err("write", path))
}

/// Runs set-up [`SETUP_REPEATS`] times, timing each; returns the last
/// result.
pub fn repeat_setup<T>(
    e2e: &mut E2e,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(setup()?);
        let wall = start.elapsed();
        e2e.setup_s
            .push(wall.as_secs_f64() * e2e.speed.factor(start, wall));
    }
    Ok(last.expect("SETUP_REPEATS is at least one"))
}

/// One `pinpoint check <input> --json --threads N [--cache-dir D]`, its
/// report written to `out`.
pub fn check(
    ctx: &Ctx,
    input: &Path,
    threads: usize,
    cache_dir: Option<&Path>,
    out: &Path,
) -> Result<Exit, String> {
    let mut cmd = Command::new(&ctx.pinpoint);
    cmd.arg("check")
        .arg(input)
        .args(["--json", "--threads", &threads.to_string()]);
    if let Some(dir) = cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    cmd.stdin(Stdio::null())
        .stdout(File::create(out).map_err(io_err("create", out))?)
        .stderr(Stdio::null());
    proc::run(&mut cmd, CHILD_LIMIT).map_err(io_err("run", &ctx.pinpoint))
}

/// `Err` with the reason when a check process did not end normally: exit
/// codes 0 (clean) and 1 (reports found) are the normal ones.
pub fn exit_ok(exit: &Exit) -> Result<(), String> {
    match exit.code {
        _ if exit.timed_out => Err(format!("no verdict within {CHILD_LIMIT:?}")),
        Some(0 | 1) => Ok(()),
        Some(code) => Err(format!("exit code {code}")),
        None => Err("killed by a signal".to_string()),
    }
}

/// Repeats `op`, each a window of its own, until the operations have taken
/// `ctx.seconds` and at least `min_ops` ran. `op` returns the children of
/// one operation and whether its outputs were right.
fn measure(
    ctx: &Ctx,
    e2e: &mut E2e,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<(Vec<Exit>, Result<(), String>), String>,
) -> Result<(), String> {
    let mut spent = Duration::ZERO;
    while e2e.windows.len() < min_ops || spent.as_secs_f64() < ctx.seconds {
        let (children, verdict) = op(e2e.windows.len())?;
        let (mut wall_ms, mut cpu_ms) = (0.0, 0.0);
        for child in &children {
            let (wall, cpu) = e2e.cost(child);
            wall_ms += wall;
            cpu_ms += cpu;
            spent += child.wall;
            e2e.peak_rss_kib = e2e.peak_rss_kib.max(child.max_rss_kib);
        }
        e2e.windows.push(Window {
            op_ms: vec![wall_ms],
            cpu_ms,
            wall_ms,
        });
        if let Err(why) = verdict {
            e2e.fail(why);
        }
    }
    Ok(())
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(io_err("read", path))
}

/// The verdict on one check of a generator project: a normal exit, and a
/// report at `out` that names exactly the real defects.
fn project_verdict(exit: &Exit, out: &Path, bugs: &[InjectedBug]) -> Result<(), String> {
    exit_ok(exit).and_then(|()| oracle::check_markers(&read(out)?, bugs))
}

/// `cold_sparse`: one cold check of a ~1 MLoC generator project. Every
/// operation starts from nothing, so the first result costs what any
/// operation costs.
pub fn cold_sparse(ctx: &Ctx) -> Result<Outcome, String> {
    let mut e2e = E2e::start();
    let input = ctx.work.join("project.pp");
    let out = ctx.work.join("reports.json");
    // Only the ground truth outlives set-up: the 24 MiB of source must not
    // sit in this process while children are measured (see `real_main`).
    let (id, bugs) = repeat_setup(&mut e2e, || {
        let project = inputs::project(ctx.seed, ctx.sizes().sparse_kloc);
        write_file(&input, &project.source)?;
        Ok((InputId::of("project", &project.source), project.bugs))
    })?;
    inputs::check_pins("cold_sparse", &[id], ctx.pinned())?;
    e2e.disk_bytes = dir_bytes(&ctx.work);
    measure(ctx, &mut e2e, MIN_OPS, |_| {
        let exit = check(ctx, &input, CLI_THREADS, None, &out)?;
        let verdict = project_verdict(&exit, &out, &bugs);
        Ok((vec![exit], verdict))
    })?;
    Ok(e2e.outcome())
}

/// `cold_dense`: one pass over twelve source-dense grammar modules, one
/// process each.
pub fn cold_dense(ctx: &Ctx) -> Result<Outcome, String> {
    let mut e2e = E2e::start();
    let input = |i: usize| ctx.work.join(format!("module{i}.pp"));
    let out = ctx.work.join("reports.json");
    let modules = repeat_setup(&mut e2e, || {
        let modules = inputs::dense_modules(&ctx.sizes());
        for (i, source) in modules.iter().enumerate() {
            write_file(&input(i), source)?;
        }
        Ok(modules)
    })?;
    let pinned = ctx.dense_pinned();
    let ids: Vec<InputId> = modules
        .iter()
        .enumerate()
        .map(|(i, source)| InputId::of(format!("module{i}"), source))
        .collect();
    inputs::check_pins("cold_dense", &ids, pinned)?;
    e2e.disk_bytes = dir_bytes(&ctx.work);
    // There is no ground truth for grammar modules: a module's report must
    // be the same in every pass and, at the pinned size, the pinned one.
    let mut first_pass: Vec<InputId> = Vec::new();
    // Wall and CPU time of every module's check of every pass.
    let mut checks: Vec<Vec<(f64, f64)>> = vec![Vec::new(); modules.len()];
    let mut spent = Duration::ZERO;
    let mut passes = 0;
    while passes < MIN_PASSES || spent.as_secs_f64() < ctx.seconds {
        let mut verdict = Ok(());
        for (i, of_module) in checks.iter_mut().enumerate() {
            let exit = check(ctx, &input(i), CLI_THREADS, None, &out)?;
            let report = InputId::of(format!("report{i}"), &read(&out)?);
            let module_verdict = exit_ok(&exit).and_then(|()| {
                if passes == 0 {
                    inputs::check_pins("cold_dense", std::slice::from_ref(&report), pinned)
                } else if first_pass.get(i) != Some(&report) {
                    Err(format!("module {i}: report differs from the first pass"))
                } else {
                    Ok(())
                }
            });
            if passes == 0 {
                first_pass.push(report);
            }
            verdict = verdict.and(module_verdict);
            spent += exit.wall;
            e2e.peak_rss_kib = e2e.peak_rss_kib.max(exit.max_rss_kib);
            of_module.push(e2e.cost(&exit));
        }
        if let Err(why) = verdict {
            e2e.fail(why);
        }
        passes += 1;
    }
    // A pass takes four seconds, as long as one of the host's bursts, so
    // hardly a pass runs clear of them; a module's check takes a third of a
    // second and mostly does. So the checks are dealt into passes again by
    // rank: pass k is every module's k-th fastest check, and the pass at
    // the quiet quartile is made of each module's quiet-quartile check.
    for of_module in &mut checks {
        of_module.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    e2e.windows = (0..passes)
        .map(|k| {
            let wall_ms: f64 = checks.iter().map(|of_module| of_module[k].0).sum();
            Window {
                op_ms: vec![wall_ms],
                cpu_ms: checks.iter().map(|of_module| of_module[k].1).sum(),
                wall_ms,
            }
        })
        .collect();
    Ok(e2e.outcome())
}

/// `warm_edit`: a check with `--cache-dir` after a one-function edit,
/// against a cache populated from the unedited project: almost all reads,
/// plus the edited function's delta written back.
pub fn warm_edit(ctx: &Ctx) -> Result<Outcome, String> {
    let mut e2e = E2e::start();
    let input = ctx.work.join("project.pp");
    let out = ctx.work.join("reports.json");
    let uncached_out = ctx.work.join("reports-uncached.json");
    let cache = ctx.work.join("cache");
    let project = repeat_setup(&mut e2e, || {
        let project = inputs::project(ctx.seed, ctx.sizes().warm_kloc);
        write_file(&input, &project.source)?;
        Ok(project)
    })?;
    inputs::check_pins(
        "warm_edit",
        &[InputId::of("project", &project.source)],
        ctx.pinned(),
    )?;
    // Populating the cache is not timed here: it is some 18 000 file
    // creations, and on the sandbox's ext4 (mounted with `discard`) their
    // cost is set by how recently files were deleted — 1.1 s on a quiet
    // file system, 3 to 5 s after the previous run's clean-up — not by the
    // program. The traced run measures the store path
    // (`cache.build_store_s`), `disk_mb` its size.
    let populate = check(ctx, &input, CLI_THREADS, Some(&cache), &out)?;
    project_verdict(&populate, &out, &project.bugs)?;
    e2e.disk_bytes = dir_bytes(&ctx.work);
    // Edits are cumulative; every fifth lands in a defect's driver and so
    // invalidates queries and verdicts, the others in a filler function.
    let mut script = EditScript::new(&project, inputs::derive_seed(ctx.seed, 1));
    // First result: the check with no cache directory, what a user without
    // one pays and what the warm operations are to be compared with. The
    // samples are taken between the timed operations, as far apart as the
    // run allows, each on the version the operation before it checked: the
    // warm report must be byte-identical to the uncached one.
    let mut uncached: Vec<(Exit, Result<(), String>)> = Vec::new();
    measure(ctx, &mut e2e, WARM_MIN_OPS, |k| {
        write_file(&input, script.edit(k % 5 == 4))?;
        let exit = check(ctx, &input, CLI_THREADS, Some(&cache), &out)?;
        let verdict = project_verdict(&exit, &out, &project.bugs);
        if k % WARM_UNCACHED_EVERY == 0 {
            let cold = check(ctx, &input, CLI_THREADS, None, &uncached_out)?;
            let same = exit_ok(&cold).and_then(|()| {
                if read(&uncached_out)? == read(&out)? {
                    Ok(())
                } else {
                    Err(format!("edit {k}: warm report differs from uncached"))
                }
            });
            uncached.push((cold, same));
        }
        Ok((vec![exit], verdict))
    })?;
    for (exit, verdict) in uncached {
        e2e.first_result_ms.push(e2e.cost(&exit).0);
        if let Err(why) = verdict {
            e2e.fail(why);
        }
    }
    Ok(e2e.outcome())
}
