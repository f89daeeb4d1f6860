//! The `pinpoint` command-line front end.
//!
//! ```sh
//! pinpoint check program.pp                 # run every checker
//! pinpoint check program.pp --checker uaf   # one checker
//! pinpoint check program.pp --json          # machine-readable output
//! pinpoint check program.pp --threads 8     # explicit worker count
//! pinpoint leaks program.pp                 # memory-leak detection
//! pinpoint dump-ir program.pp               # lowered SSA IR
//! pinpoint dump-seg program.pp foo          # SEG of `foo` as Graphviz
//! pinpoint stats program.pp                 # pipeline statistics
//! pinpoint profile program.pp --top 10      # per-query solver attribution
//! pinpoint cache info .pinpoint-cache       # verdict-store maintenance
//! pinpoint serve                            # concurrent sessions on stdio
//! pinpoint serve --listen /tmp/pp.sock      # …or on a Unix socket
//! ```
//!
//! `serve` speaks line-delimited JSON: the versioned `pinpoint-rpc-v2`
//! protocol (sessions, request ids, typed errors), opened by a `hello`
//! handshake. See the [`serve`] module.
//!
//! `check`, `leaks`, and `stats` accept `--cache-dir DIR` to persist
//! solver verdicts across runs: a later run, also of an edited program,
//! solves only the conditions no earlier run decided, with byte-identical
//! results.
//!
//! `check`, `leaks`, and `stats` additionally accept `--trace-out FILE`
//! (Chrome trace-event JSON, loadable in Perfetto) and
//! `--stats-json FILE` (the unified `pinpoint-stats-v1` document).
//!
//! Exit codes: 0 = clean, 1 = reports found, 2 = usage or input error.

mod flags;
mod jsonl;
mod serve;
mod top;

use flags::{Common, CommonFlags};
use pinpoint::core::export::{leaks_json, reports_json, seg_to_dot};
use pinpoint::{Analysis, CheckerKind, DetectSession, PinpointError, Report};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(found_reports) => {
            if found_reports {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Pipeline(err)) => {
            // A typed pipeline failure is not a usage mistake: report the
            // stage without echoing the usage banner.
            eprintln!("error: {err}");
            ExitCode::from(2)
        }
    }
}

/// Either a command-line mistake or a typed analysis failure.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Pipeline(PinpointError),
}

impl From<PinpointError> for CliError {
    fn from(e: PinpointError) -> Self {
        CliError::Pipeline(e)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

const USAGE: &str = "usage:
  pinpoint check <file> [--checker uaf|taint-pt|taint-dt|null] [--json] [--no-solve] [--ctx-depth N] [--threads N] [--cache-dir DIR] [--trace-out FILE] [--stats-json FILE]
  pinpoint leaks <file> [--json] [--threads N] [--cache-dir DIR] [--trace-out FILE] [--stats-json FILE]
  pinpoint dump-ir <file>
  pinpoint dump-seg <file> <function> [--threads N]
  pinpoint stats <file> [--threads N] [--cache-dir DIR] [--trace-out FILE] [--stats-json FILE]
  pinpoint profile <file> [--top K] [--threads N]
  pinpoint cache info|clear|verify <dir>
  pinpoint serve [--threads N] [--no-solve] [--cache-dir DIR] [--workers N] [--queue-cap N] [--listen PATH] [--slow-ms N] [--flight-cap N]
  pinpoint top [--connect PATH] [--interval-ms N] [--frames N] [--tail N] [--plain] [--prometheus]
  pinpoint fuzz [--seed N] [--iters N] [--time-budget SECS] [--oracle NAME]... [--threads N] [--out-dir DIR] [--stats-json FILE]

  serve reads line-delimited JSON requests (stdin, or a Unix socket with
  --listen) and answers one JSON object per line in the concurrent
  pinpoint-rpc-v2 protocol. The first request must be {\"cmd\":\"hello\"}:
    {\"cmd\":\"hello\",\"id\":\"0\",\"proto\":\"pinpoint-rpc-v2\"}
    {\"cmd\":\"open\",\"id\":\"1\",\"session\":\"a\",\"path\":\"prog.pp\"}   or \"source\":\"...\"
    {\"cmd\":\"update\",\"id\":\"2\",\"session\":\"a\",\"path\":\"prog.pp\"}   re-analyzes only what changed
    {\"cmd\":\"check\",\"id\":\"3\",\"session\":\"a\"}   every checker (or \"checker\":\"uaf\")
    {\"cmd\":\"stats\",\"id\":\"4\",\"session\":\"a\"}   pinpoint-stats-v1 document, server.* counters included
    {\"cmd\":\"quit\",\"id\":\"5\"}
  Sessions run concurrently on --workers threads (per-session FIFO);
  replies echo the request id and session; errors are typed
  {\"code\":...,\"message\":...} objects, and submissions past --queue-cap
  are shed with code \"overloaded\". The in-band {\"cmd\":\"status\"} and
  {\"cmd\":\"metrics\"} verbs are answered by the transport itself — never
  a worker — so an overloaded server stays inspectable: status returns
  the pinpoint-status-v1 document (uptime, queue depths, per-session
  state, rolling p50/p95/p99 latencies, flight-recorder tail); metrics
  returns a Prometheus text exposition. Requests slower than --slow-ms
  land in the flight recorder with per-query solver attribution.
  `pinpoint top` renders status as a refreshing terminal dashboard
  (--connect dials a --listen socket; --prometheus prints the scrape
  body instead). A connection that ends — quit, shutdown or hang-up —
  closes the sessions it opened.
  Warm checks reuse cached per-source queries whose searched functions
  the edit did not touch; results are byte-identical to a cold run.

  fuzz generates seeded well-typed programs and cross-checks the
  analysis against its differential oracles (--oracle baseline, threads,
  warm, smt, verdicts, verify, engines, or all — repeatable; default
  all). Fresh failures
  are minimized by delta debugging and, with --out-dir, written as
  corpus-ready reproducers. Exit 0 = clean, 1 = findings.

  --threads N shards the front end, points-to and detection; it
  defaults to the available parallelism.
  --cache-dir persists solver verdicts — one checksummed object, keyed
  by condition fingerprint — so a later run, also of an edited program,
  solves only conditions no earlier run decided. Everything else is
  recomputed, which is faster than reloading it (results stay
  byte-identical; a corrupt or missing directory degrades to a cold
  run). `cache info|clear|verify` inspect, empty and check a directory;
  objects older versions left there (pta-*, seg-*, vfsum-*) are never
  read — `cache clear` reclaims them.
  --trace-out writes hierarchical span data as Chrome trace-event JSON
  (open in Perfetto / chrome://tracing); --stats-json writes the unified
  pinpoint-stats-v1 metrics document including per-query attribution.";

fn run(args: &[String]) -> Result<bool, CliError> {
    let cmd = args.first().ok_or("missing subcommand")?;
    if cmd == "cache" {
        return cache_cmd(&args[1..]);
    }
    if cmd == "serve" {
        return serve::serve(&args[1..]).map_err(CliError::Usage);
    }
    if cmd == "top" {
        return top::top(&args[1..]).map_err(CliError::Usage);
    }
    if cmd == "fuzz" {
        return fuzz_cmd(&args[1..]);
    }
    let file = args.get(1).ok_or("missing input file")?;
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    match cmd.as_str() {
        "check" => check(&source, &args[2..]),
        "leaks" => leaks(&source, &args[2..]),
        "profile" => profile(&source, &args[2..]),
        "dump-ir" => {
            let module = pinpoint::compile(&source).map_err(|e| e.to_string())?;
            print!("{}", pinpoint::ir::printer::print_module(&module));
            Ok(false)
        }
        "dump-seg" => {
            let func = args.get(2).ok_or("missing function name")?;
            let mut rest = args[3..].to_vec();
            let common = CommonFlags::extract(&mut rest, &[Common::Threads])?;
            flags::reject_unknown(&rest)?;
            let analysis = common.builder().build_source(&source)?;
            let fid = analysis
                .module
                .func_by_name(func)
                .ok_or_else(|| format!("no function `{func}`"))?;
            print!(
                "{}",
                seg_to_dot(&analysis.module, &analysis.segs, &analysis.arena, fid)
            );
            Ok(false)
        }
        "stats" => stats_cmd(&source, &args[2..]),
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

/// `pinpoint cache info|clear|verify <dir>`: maintenance for a
/// `--cache-dir` store.
fn cache_cmd(args: &[String]) -> Result<bool, CliError> {
    use pinpoint::cache::CacheStore;
    let action = args.first().ok_or("missing cache action")?;
    let dir = std::path::Path::new(args.get(1).ok_or("missing cache directory")?);
    match action.as_str() {
        "info" => {
            let info = CacheStore::info(dir).map_err(|e| format!("cannot read cache: {e}"))?;
            println!("entries:     {}", info.entries);
            println!("bytes:       {}", info.bytes);
            println!("temp files:  {}", info.temp_files);
            Ok(false)
        }
        "clear" => {
            let removed = CacheStore::clear(dir).map_err(|e| format!("cannot clear cache: {e}"))?;
            println!("removed {removed} entries");
            Ok(false)
        }
        "verify" => {
            let outcome =
                CacheStore::verify(dir).map_err(|e| format!("cannot verify cache: {e}"))?;
            println!("ok:          {}", outcome.ok);
            println!("corrupt:     {}", outcome.corrupt.len());
            for p in &outcome.corrupt {
                println!("  {}", p.display());
            }
            // Corrupt entries are reported through the exit code like
            // reports are: 1 = findings.
            Ok(!outcome.corrupt.is_empty())
        }
        other => Err(format!("unknown cache action `{other}`").into()),
    }
}

/// `pinpoint fuzz`: run the differential fuzzing engine — generate
/// seeded programs, push each through the selected oracle stack, shrink
/// and persist fresh failures. Findings surface through the exit code
/// (1 = findings) and, with `--stats-json`, as
/// `fuzz.{iters,discrepancies,crashes,shrink_steps}` counters in the
/// `pinpoint-stats-v1` document.
fn fuzz_cmd(args: &[String]) -> Result<bool, CliError> {
    use pinpoint::fuzz::{run_fuzz, FuzzConfig, OracleKind};
    let mut cfg = FuzzConfig::default();
    let mut rest = args.to_vec();
    if let Some(seed) = flags::take_parsed::<u64>(&mut rest, "--seed")? {
        cfg.seed = seed;
    }
    if let Some(iters) = flags::take_parsed::<u64>(&mut rest, "--iters")? {
        cfg.iters = iters;
    }
    if let Some(secs) = flags::take_parsed::<u64>(&mut rest, "--time-budget")? {
        cfg.time_budget = Some(std::time::Duration::from_secs(secs));
    }
    if let Some(n) = flags::take_threads(&mut rest)? {
        cfg.threads = n;
    }
    if let Some(dir) = flags::take_value(&mut rest, "--out-dir")? {
        cfg.out_dir = Some(std::path::PathBuf::from(dir));
    }
    let stats_json = flags::take_value(&mut rest, "--stats-json")?;
    let mut oracles: Vec<OracleKind> = Vec::new();
    while let Some(v) = flags::take_value(&mut rest, "--oracle")? {
        if v == "all" {
            oracles.extend(OracleKind::ALL);
        } else {
            oracles.push(OracleKind::parse(&v).ok_or_else(|| format!("unknown oracle `{v}`"))?);
        }
    }
    flags::reject_unknown(&rest)?;
    if !oracles.is_empty() {
        oracles.sort_by_key(|k| OracleKind::ALL.iter().position(|a| a == k));
        oracles.dedup();
        cfg.oracles = oracles;
    }
    let outcome = run_fuzz(&cfg);
    println!("iterations:     {}", outcome.iters);
    println!("discrepancies:  {}", outcome.discrepancies);
    println!("crashes:        {}", outcome.crashes);
    println!("shrink steps:   {}", outcome.shrink_steps);
    println!("elapsed:        {:?}", outcome.elapsed);
    for f in &outcome.findings {
        println!(
            "[{}] {:?} at iteration {}: {}",
            f.oracle.name(),
            f.kind,
            f.iteration,
            f.detail.lines().next().unwrap_or_default()
        );
        if let Some(p) = &f.reproducer {
            println!("  reproducer: {}", p.display());
        }
    }
    if let Some(path) = &stats_json {
        let mut m = pinpoint::obs::MetricsRegistry::new();
        m.counter_add("fuzz.iters", outcome.iters);
        m.counter_add("fuzz.discrepancies", outcome.discrepancies);
        m.counter_add("fuzz.crashes", outcome.crashes);
        m.counter_add("fuzz.shrink_steps", outcome.shrink_steps);
        m.counter_add("fuzz.findings", outcome.findings.len() as u64);
        let doc = m.stats_json(
            &[("seed", cfg.seed), ("threads", cfg.threads as u64)],
            None,
            false,
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(!outcome.findings.is_empty())
}

/// The artefact of a one-shot command, never freed: the process exits
/// right after its output is written, and walking a million-line
/// artefact's small allocations to free them costs over a second that
/// the OS reclaims for nothing (see [`finish`]).
fn leak(analysis: Analysis) -> &'static Analysis {
    Box::leak(Box::new(analysis))
}

/// Ends a one-shot command. By now everything it persists is on disk —
/// reports, the `--stats-json`/`--trace-out` files, and the verdicts each
/// `check_*` call wrote as it ran; no `Drop` impl persists anything — so
/// once stdout is flushed the session is forgotten like its artefact.
fn finish(session: DetectSession<'static>, found_reports: bool) -> bool {
    std::io::stdout()
        .flush()
        .expect("failed printing to stdout");
    std::mem::forget(session);
    found_reports
}

fn check(source: &str, args: &[String]) -> Result<bool, CliError> {
    let mut rest = args.to_vec();
    let common = CommonFlags::extract(
        &mut rest,
        &[
            Common::Threads,
            Common::CacheDir,
            Common::NoSolve,
            Common::TraceOut,
            Common::StatsJson,
        ],
    )?;
    let json = flags::take_switch(&mut rest, "--json");
    let ctx_depth = flags::take_parsed::<u32>(&mut rest, "--ctx-depth")?;
    let mut kinds: Vec<CheckerKind> = Vec::new();
    while let Some(name) = flags::take_value(&mut rest, "--checker")? {
        kinds.push(parse_checker(&name)?);
    }
    flags::reject_unknown(&rest)?;
    if kinds.is_empty() {
        kinds.extend(CheckerKind::ALL);
    }
    let mut builder = common.builder().checkers(kinds);
    if let Some(d) = ctx_depth {
        builder = builder.max_ctx_depth(d);
    }
    let analysis = leak(builder.build_source(source)?);
    let mut session = analysis.session();
    let all: Vec<Report> = session.check_configured();
    common.write_obs(&session)?;
    if json {
        println!("{}", reports_json(&analysis.module, &all));
    } else if all.is_empty() {
        println!("no defects found");
    } else {
        for r in &all {
            println!("{r}");
            if !r.witness.is_empty() {
                let w: Vec<String> = r.witness.iter().map(|(n, v)| format!("{n}={v}")).collect();
                println!("  witness: {}", w.join(" "));
            }
        }
        println!("{} report(s)", all.len());
    }
    Ok(finish(session, !all.is_empty()))
}

fn leaks(source: &str, args: &[String]) -> Result<bool, CliError> {
    let mut rest = args.to_vec();
    let common = CommonFlags::extract(
        &mut rest,
        &[
            Common::Threads,
            Common::CacheDir,
            Common::TraceOut,
            Common::StatsJson,
        ],
    )?;
    let json = flags::take_switch(&mut rest, "--json");
    flags::reject_unknown(&rest)?;
    let analysis = leak(common.builder().build_source(source)?);
    let mut session = analysis.session();
    let reports = session.check_leaks();
    common.write_obs(&session)?;
    if json {
        println!("{}", leaks_json(&analysis.module, &reports));
    } else if reports.is_empty() {
        println!("no leaks found");
    } else {
        for r in &reports {
            println!(
                "[leak:{:?}] allocation at {} in `{}`",
                r.kind,
                r.alloc_site,
                analysis.module.func(r.func).name
            );
        }
        println!("{} leak(s)", reports.len());
    }
    Ok(finish(session, !reports.is_empty()))
}

fn stats_cmd(source: &str, args: &[String]) -> Result<bool, CliError> {
    let mut rest = args.to_vec();
    let common = CommonFlags::extract(
        &mut rest,
        &[
            Common::Threads,
            Common::CacheDir,
            Common::TraceOut,
            Common::StatsJson,
        ],
    )?;
    flags::reject_unknown(&rest)?;
    let analysis = leak(common.builder().build_source(source)?);
    let mut session = analysis.session();
    let _ = session.check_all();
    common.write_obs(&session)?;
    let s = session.stats();
    println!("source bytes:     {}", s.front_bytes);
    println!("tokens:           {}", s.front_tokens);
    println!("functions:        {}", analysis.module.funcs.len());
    println!("instructions:     {}", analysis.module.inst_count());
    println!("threads:          {}", analysis.threads());
    println!("SEG vertices:     {}", s.seg_vertices);
    println!("SEG edges:        {}", s.seg_edges);
    println!("SEG bytes:        {}", s.seg_bytes);
    println!("terms:            {}", s.terms);
    println!("frontend time:    {:?}", s.front_time);
    println!("pta time:         {:?}", s.pta_time);
    println!("seg time:         {:?}", s.seg_time);
    println!("detect time:      {:?}", s.detect_time);
    println!("linear checks:    {}", s.pta.linear_checks);
    println!("linear pruned:    {}", s.pta.pruned);
    println!("search visited:   {}", s.detect.visited);
    println!("candidates:       {}", s.detect.candidates);
    println!("SMT-refuted:      {}", s.detect.refuted);
    println!("search budget:    {}", s.detect.budget_exhausted);
    let solver_budget: u64 = session
        .queries()
        .iter()
        .map(|q| q.cost.budget_exhausted)
        .sum();
    println!("solver budget:    {solver_budget}");
    println!("reports:          {}", s.detect.reports);
    if common.cache_dir.is_some() {
        println!("cache hits:       {}", s.cache.hits);
        println!("cache misses:     {}", s.cache.misses);
        println!("cache invalid:    {}", s.cache.invalidated);
    }
    Ok(finish(session, false))
}

/// `pinpoint profile <file>`: run every checker, then print the top-K
/// "where did the time go" table bucketing solver cost per checker and
/// per source function.
fn profile(source: &str, args: &[String]) -> Result<bool, CliError> {
    let mut rest = args.to_vec();
    let common = CommonFlags::extract(&mut rest, &[Common::Threads])?;
    let top = flags::take_parsed::<usize>(&mut rest, "--top")?.unwrap_or(10);
    flags::reject_unknown(&rest)?;
    let analysis = leak(common.builder().build_source(source)?);
    let mut session = analysis.session();
    let _ = session.check_all();
    print!("{}", session.profile(top));
    Ok(finish(session, false))
}

fn parse_checker(name: &str) -> Result<CheckerKind, CliError> {
    CheckerKind::parse(name).ok_or_else(|| format!("unknown checker `{name}`").into())
}
