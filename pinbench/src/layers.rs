//! The traced run (`--trace 1`): each layer's public entry points are
//! called in-process at one thread on the inputs the end-to-end run
//! analyses, with a span around every call. The spans live in memory
//! (`pinpoint::obs::TraceBuf`, driven from here — the program's own
//! tracing stays off) and are written as a Chrome trace when the run
//! ends. Work counters are read where the program already exposes them.
//!
//! One probe per layer, each in one function, each calling the base entry
//! point: `compile`, `analyze_module`, `ModuleSeg::build`,
//! `ModuleSummaries::build`, `AnalysisBuilder`, `DetectSession::check_all`,
//! `Workspace::{open,update_source,query}`, `Server::submit`.

use crate::inputs::{self, EditScript, InputId};
use crate::run::{check, exit_ok, io_err, ms, write_file};
use crate::serve::{write_projects, Server};
use crate::{dir_bytes, median, oracle, Ctx, Outcome, Value, SERVE_THREADS, SERVE_WORKERS};
use pinpoint::core::export::reports_json;
use pinpoint::core::ModuleSeg;
use pinpoint::core::ModuleSummaries;
use pinpoint::obs::TraceBuf;
use pinpoint::workload::InjectedBug;
use pinpoint::{
    AnalysisBuilder, CheckerKind, DetectConfig, Op, Query, Reply, Request, ServerConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// The per-layer metrics, as `BENCHMARK.json` lists them. Every traced
/// run reports all of them; a layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("ir.compile_s", "s"),
    ("ir.fingerprint_s", "s"),
    ("ir.funcs", "count"),
    ("ir.insts", "count"),
    ("pta.analyze_s", "s"),
    ("pta.linear_checks", "count"),
    ("pta.pruned_ratio", "ratio"),
    ("seg.build_s", "s"),
    ("seg.vertices", "count"),
    ("seg.edges", "count"),
    ("seg.ns_per_edge", "ns"),
    ("vfsummary.build_s", "s"),
    ("vfsummary.gated_ratio", "ratio"),
    ("detect.search_s", "s"),
    ("detect.sources", "count"),
    ("detect.visited", "count"),
    ("detect.candidates", "count"),
    ("detect.reports", "count"),
    ("detect.budget_exhausted", "count"),
    ("detect.us_per_visited", "us"),
    ("smt.solve_s", "s"),
    ("smt.queries", "count"),
    ("smt.conflicts", "count"),
    ("smt.decisions", "count"),
    ("smt.propagations", "count"),
    ("smt.us_per_conflict", "us"),
    ("smt.verdict_hit_ratio", "ratio"),
    ("smt.top1pct_share", "ratio"),
    ("cache.keys_s", "s"),
    ("cache.build_cold_s", "s"),
    ("cache.build_store_s", "s"),
    ("cache.build_warm_s", "s"),
    ("cache.load_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_per_kloc", "B"),
    ("workspace.open_s", "s"),
    ("workspace.update_ms", "ms"),
    ("workspace.query_ms", "ms"),
    ("workspace.funcs_dirty", "count"),
    ("workspace.query_reuse_ratio", "ratio"),
    ("server.round_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.shed", "count"),
    ("transport.overhead_ms", "ms"),
    ("transport.bytes_per_round", "B"),
    ("cli.residual_s", "s"),
    ("pipeline.scaling_exp", "ratio"),
    ("pipeline.par_speedup", "ratio"),
    ("pipeline.layer_sum_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Rounds of the edit script the `serve_edit` probes replay.
const PROBE_ROUNDS: usize = 40;

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The span recorder and the numbers read so far.
struct Probes {
    trace: TraceBuf,
    workload: String,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    wrong: Vec<String>,
}

impl Probes {
    fn new(workload: &str, recording: bool) -> Self {
        Probes {
            trace: if recording {
                TraceBuf::on()
            } else {
                TraceBuf::off()
            },
            workload: workload.to_string(),
            values: BTreeMap::new(),
            attempted: 0,
            wrong: Vec::new(),
        }
    }

    /// Calls `f` inside a span named `name`; returns its result and its
    /// wall time in seconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.trace.open(name, self.workload.as_str());
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.trace.close(id);
        (out, secs)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one checked output.
    fn verdict(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            eprintln!("pinbench: wrong output: {why}");
            self.wrong.push(why);
        }
    }
}

/// What the cold layers cost and counted, summed over one or more
/// inputs: wall seconds and work counts by name, plus every query's
/// solver nanoseconds.
#[derive(Debug, Default)]
struct Cold {
    sums: BTreeMap<&'static str, f64>,
    query_ns: Vec<u64>,
}

impl Cold {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    fn absorb(&mut self, other: Cold) {
        for (name, value) in other.sums {
            self.add(name, value);
        }
        self.query_ns.extend(other.query_ns);
    }

    /// The program's own path: one `build_source` and one solving
    /// `check_all`.
    fn in_process_s(&self) -> f64 {
        self.get("build_s") + self.get("solve_s")
    }

    /// `check_all` builds the summaries it gates with, so the search is
    /// what remains of the non-solving run after the stand-alone build.
    fn search_s(&self) -> f64 {
        (self.get("no_solve_s") - self.get("summary_s")).max(0.0)
    }

    fn smt_s(&self) -> f64 {
        (self.get("solve_s") - self.get("no_solve_s")).max(0.0)
    }

    /// The layers measured one by one, as one build and one solving
    /// `check_all` string them together (the fingerprints are part of the
    /// keys).
    fn layer_sum_s(&self) -> f64 {
        ["compile_s", "keys_s", "pta_s", "seg_s", "summary_s"]
            .iter()
            .map(|name| self.get(name))
            .sum::<f64>()
            + self.search_s()
            + self.smt_s()
    }

    /// Share of solver time in the costliest 1 % of queries.
    fn top1pct_share(&self) -> f64 {
        let mut ns = self.query_ns.clone();
        ns.sort_unstable_by(|a, b| b.cmp(a));
        let top = ns.len().div_ceil(100);
        ratio(
            ns[..top].iter().sum::<u64>() as f64,
            ns.iter().sum::<u64>() as f64,
        )
    }

    fn report(&self, p: &mut Probes) {
        for (metric, sum) in [
            ("ir.compile_s", "compile_s"),
            ("ir.fingerprint_s", "fingerprint_s"),
            ("ir.funcs", "funcs"),
            ("ir.insts", "insts"),
            ("pta.analyze_s", "pta_s"),
            ("pta.linear_checks", "linear_checks"),
            ("seg.build_s", "seg_s"),
            ("seg.vertices", "vertices"),
            ("seg.edges", "edges"),
            ("vfsummary.build_s", "summary_s"),
            ("cache.keys_s", "keys_s"),
            ("detect.sources", "sources"),
            ("detect.visited", "visited"),
            ("detect.candidates", "candidates"),
            ("detect.reports", "reports"),
            ("detect.budget_exhausted", "budget_exhausted"),
            ("smt.conflicts", "conflicts"),
            ("smt.decisions", "decisions"),
            ("smt.propagations", "propagations"),
        ] {
            p.set(metric, self.get(sum));
        }
        let g = |name| self.get(name);
        p.set(
            "pta.pruned_ratio",
            ratio(g("pruned"), g("pruned") + g("kept")),
        );
        p.set("seg.ns_per_edge", ratio(g("seg_s") * 1e9, g("edges")));
        p.set("vfsummary.gated_ratio", ratio(g("gated"), g("sources")));
        p.set("detect.search_s", self.search_s());
        p.set(
            "detect.us_per_visited",
            ratio(self.search_s() * 1e6, g("visited")),
        );
        p.set("smt.solve_s", self.smt_s());
        p.set("smt.queries", self.query_ns.len() as f64);
        p.set(
            "smt.us_per_conflict",
            ratio(self.smt_s() * 1e6, g("conflicts")),
        );
        p.set(
            "smt.verdict_hit_ratio",
            ratio(g("verdict_hits"), g("verdict_hits") + g("verdict_misses")),
        );
        p.set("smt.top1pct_share", self.top1pct_share());
        p.set(
            "pipeline.layer_sum_ratio",
            ratio(self.layer_sum_s(), self.in_process_s()),
        );
    }
}

fn builder() -> AnalysisBuilder {
    AnalysisBuilder::new().threads(1)
}

/// Probes `ir`, `pta`, `seg`, `vfsummary`, `detect` and `smt` on one
/// source text. Returns the costs and the rendered reports of the
/// solving run, as the CLI prints them.
fn cold_layers(p: &mut Probes, source: &str) -> Result<(Cold, String), String> {
    let mut cold = Cold::default();
    {
        let (module, secs) = p.span("ir.compile", || pinpoint::compile(source));
        let mut module = module.map_err(|e| format!("compile: {e}"))?;
        cold.add("compile_s", secs);
        let (fingerprints, secs) = p.span("ir.fingerprint", || {
            pinpoint::ir::module_fingerprints(&module)
        });
        black_box(fingerprints);
        cold.add("fingerprint_s", secs);
        // The cache keys every build derives, cache directory or not:
        // fingerprints again, folded bottom-up over the call graph.
        let (keys, secs) = p.span("cache.keys", || {
            let config = pinpoint::cache::config_fp(&pinpoint::pta::PtaConfig::default());
            pinpoint::cache::module_keys(&module, config)
        });
        black_box(keys);
        cold.add("keys_s", secs);
        cold.add("funcs", module.funcs.len() as f64);
        cold.add("insts", module.inst_count() as f64);

        let (mut pta, secs) = p.span("pta.analyze", || pinpoint::pta::analyze_module(&mut module));
        cold.add("pta_s", secs);
        let stats = pta.total_stats();
        cold.add("linear_checks", stats.linear_checks as f64);
        cold.add("pruned", stats.pruned as f64);
        cold.add("kept", stats.kept as f64);

        let (segs, secs) = p.span("seg.build", || {
            ModuleSeg::build(&module, &mut pta.arena, &mut pta.symbols, &pta.pta)
        });
        cold.add("seg_s", secs);
        cold.add("vertices", segs.vertex_count as f64);
        cold.add("edges", segs.edge_count as f64);

        // As a session does it: one call graph, then one build per checker.
        let ((), secs) = p.span("vfsummary.build", || {
            let graph = pinpoint::ir::CallGraph::new(&module);
            for kind in CheckerKind::ALL {
                black_box(ModuleSummaries::build_with_graph(
                    &module,
                    &segs,
                    &kind.spec(),
                    1,
                    None,
                    &graph,
                ));
            }
        });
        cold.add("summary_s", secs);
        // The stand-alone artefacts go before the builder makes its own.
    }

    let (analysis, secs) = p.span("pipeline.build_source", || builder().build_source(source));
    let analysis = analysis.map_err(|e| format!("build: {e}"))?;
    cold.add("build_s", secs);
    let (found, secs) = p.span("detect.check_all.no_solve", || {
        let config = DetectConfig {
            solve: false,
            ..analysis.config()
        };
        analysis.session().with_config(config).check_all().len()
    });
    black_box(found);
    cold.add("no_solve_s", secs);
    let mut session = analysis.session();
    let (reports, secs) = p.span("detect.check_all", || session.check_all());
    cold.add("solve_s", secs);
    let stats = session.stats().detect;
    cold.add("sources", stats.sources as f64);
    cold.add("gated", stats.summary_gated as f64);
    cold.add("visited", stats.visited as f64);
    cold.add("candidates", stats.candidates as f64);
    cold.add("reports", stats.reports as f64);
    cold.add("budget_exhausted", stats.budget_exhausted as f64);
    cold.add("verdict_hits", stats.verdict_hits as f64);
    cold.add("verdict_misses", stats.verdict_misses as f64);
    for q in session.queries() {
        cold.add("conflicts", q.cost.conflicts as f64);
        cold.add("decisions", q.cost.decisions as f64);
        cold.add("propagations", q.cost.propagations as f64);
        cold.query_ns.push(q.cost.solver_ns);
    }
    // As the CLI prints it: the array and a newline.
    let rendered = format!("{}\n", reports_json(&analysis.module, &reports));
    Ok((cold, rendered))
}

/// `(traced − untraced) / untraced` of the cold layers on `source`: the
/// same probes with the span recorder on and off.
fn overhead_share(source: &str) -> Result<f64, String> {
    let mut sums = [0.0; 2];
    for (recording, sum) in [false, true].into_iter().zip(&mut sums) {
        let (cold, _) = cold_layers(&mut Probes::new("overhead", recording), source)?;
        *sum = cold.layer_sum_s() + cold.get("build_s");
    }
    Ok(ratio(sums[1] - sums[0], sums[0]))
}

/// Wall seconds of `pinpoint check` on `source` (median of `runs`), with
/// the report it printed.
fn cli_check(
    ctx: &Ctx,
    source: &str,
    threads: usize,
    runs: usize,
) -> Result<(f64, String), String> {
    let input = ctx.work.join("cli.pp");
    let out = ctx.work.join("cli.json");
    write_file(&input, source)?;
    let mut walls = Vec::new();
    for _ in 0..runs {
        let exit = check(ctx, &input, threads, None, &out)?;
        exit_ok(&exit)?;
        walls.push(exit.wall.as_secs_f64());
    }
    let report = std::fs::read_to_string(&out).map_err(io_err("read", &out))?;
    Ok((median(&walls), report))
}

/// The cold layers plus the CLI's share on a generator project; returns
/// the CLI's wall seconds.
fn project_layers(
    ctx: &Ctx,
    p: &mut Probes,
    source: &str,
    bugs: &[InjectedBug],
) -> Result<f64, String> {
    let (cold, reports) = cold_layers(p, source)?;
    p.verdict(oracle::check_markers(&reports, bugs));
    let (cli, _) = p.span("cli.check", || cli_check(ctx, source, 1, 1));
    let (cli_s, cli_reports) = cli?;
    p.verdict(if cli_reports == reports {
        Ok(())
    } else {
        Err("CLI report differs from the in-process one".to_string())
    });
    p.set("cli.residual_s", cli_s - cold.in_process_s());
    cold.report(p);
    Ok(cli_s)
}

fn trace_cold_sparse(ctx: &Ctx, p: &mut Probes) -> Result<(), String> {
    let project = inputs::project(ctx.seed, ctx.sizes().sparse_kloc);
    let side = inputs::project(ctx.seed, ctx.sizes().sparse_side_kloc);
    inputs::check_pins(
        "cold_sparse",
        &[
            InputId::of("project", &project.source),
            InputId::of("side", &side.source),
        ],
        ctx.pinned(),
    )?;
    let cli_s = project_layers(ctx, p, &project.source, &project.bugs)?;
    // The side input: how time grows with size, and what a second thread
    // buys, both through the CLI.
    let (side_1, _) = cli_check(ctx, &side.source, 1, 3)?;
    let (side_2, reports) = cli_check(ctx, &side.source, 2, 3)?;
    p.verdict(oracle::check_markers(&reports, &side.bugs));
    p.set(
        "pipeline.scaling_exp",
        (cli_s / side_1).ln() / (project.lines as f64 / side.lines as f64).ln(),
    );
    p.set("pipeline.par_speedup", ratio(side_1, side_2));
    p.set("trace.overhead_share", overhead_share(&side.source)?);
    Ok(())
}

fn trace_cold_dense(ctx: &Ctx, p: &mut Probes) -> Result<(), String> {
    let modules = inputs::dense_modules(&ctx.sizes());
    let pinned = ctx.dense_pinned();
    let mut total = Cold::default();
    let mut residual = 0.0;
    for (i, source) in modules.iter().enumerate() {
        inputs::check_pins(
            "cold_dense",
            &[InputId::of(format!("module{i}"), source)],
            pinned,
        )?;
        let (cold, reports) = cold_layers(p, source)?;
        p.verdict(inputs::check_pins(
            "cold_dense",
            &[InputId::of(format!("report{i}"), &reports)],
            pinned,
        ));
        let (cli, _) = p.span("cli.check", || cli_check(ctx, source, 1, 1));
        residual += cli?.0 - cold.in_process_s();
        total.absorb(cold);
    }
    p.set("cli.residual_s", residual);
    total.report(p);
    p.set("trace.overhead_share", overhead_share(&modules[0])?);
    Ok(())
}

fn trace_warm_edit(ctx: &Ctx, p: &mut Probes) -> Result<(), String> {
    let project = inputs::project(ctx.seed, ctx.sizes().warm_kloc);
    inputs::check_pins(
        "warm_edit",
        &[InputId::of("project", &project.source)],
        ctx.pinned(),
    )?;
    project_layers(ctx, p, &project.source, &project.bugs)?;

    // The cache layer: the same build with no directory, an empty one, a
    // full one.
    let dir = ctx.work.join("cache");
    let source = project.source.as_str();
    let (cold, secs) = p.span("cache.build_cold", || builder().build_source(source));
    cold.map_err(|e| format!("build: {e}"))?;
    p.set("cache.build_cold_s", secs);
    let (stored, secs) = p.span("cache.build_store", || {
        builder().cache_dir(&dir).build_source(source)
    });
    stored.map_err(|e| format!("build: {e}"))?;
    p.set("cache.build_store_s", secs);
    p.set(
        "cache.bytes_per_kloc",
        ratio(dir_bytes(&dir) as f64, project.lines as f64 / 1000.0),
    );
    let (warm, secs) = p.span("cache.build_warm", || {
        builder().cache_dir(&dir).build_source(source)
    });
    let warm = warm.map_err(|e| format!("build: {e}"))?;
    p.set("cache.build_warm_s", secs);
    let cache = warm.stats.cache;
    p.set("cache.load_s", cache.load_ns as f64 / 1e9);
    p.set(
        "cache.hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    let reports = warm.session().check_all();
    p.verdict(oracle::check_markers(
        &reports_json(&warm.module, &reports),
        &project.bugs,
    ));
    p.set("trace.overhead_share", overhead_share(source)?);
    Ok(())
}

fn trace_serve_edit(ctx: &Ctx, p: &mut Probes) -> Result<(), String> {
    let rounds = if ctx.smoke { 10 } else { PROBE_ROUNDS };
    let mut projects = write_projects(ctx, 1)?;
    let (project, path) = projects.pop().expect("one project was asked for");
    inputs::check_pins(
        "serve_edit",
        &[InputId::of("project0", &project.source)],
        ctx.pinned(),
    )?;
    let (cold, reports) = cold_layers(p, &project.source)?;
    p.verdict(oracle::check_markers(&reports, &project.bugs));
    cold.report(p);
    let script = || EditScript::new(&project, inputs::derive_seed(ctx.seed, 20));
    let serve_builder = || AnalysisBuilder::new().threads(SERVE_THREADS);

    // workspace: the engine under the server, called directly.
    let (ws, secs) = p.span("workspace.open", || {
        serve_builder().open_workspace(&project.source)
    });
    let mut ws = ws.map_err(|e| format!("open: {e}"))?;
    p.set("workspace.open_s", secs);
    black_box(ws.query(&Query::All));
    let mut edits = script();
    let (mut update_ms, mut query_ms) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let source = edits.edit(round % 5 == 4);
        let (updated, secs) = p.span("workspace.update", || ws.update_source(source));
        updated.map_err(|e| format!("update: {e}"))?;
        update_ms.push(secs * 1000.0);
        let (response, secs) = p.span("workspace.query", || ws.query(&Query::All));
        query_ms.push(secs * 1000.0);
        let rendered = reports_json(&ws.analysis().module, response.reports());
        p.verdict(oracle::check_markers(&rendered, &project.bugs));
    }
    let workspace_ms = median(&update_ms) + median(&query_ms);
    p.set("workspace.update_ms", median(&update_ms));
    p.set("workspace.query_ms", median(&query_ms));
    let counters = ws.counters();
    p.set("workspace.funcs_dirty", counters.funcs_dirty as f64);
    p.set(
        "workspace.query_reuse_ratio",
        ratio(
            counters.queries_reused as f64,
            (counters.queries_reused + counters.queries_rerun) as f64,
        ),
    );
    drop(ws);

    // server: the same script through the in-process dispatch core.
    let server = pinpoint::Server::start(ServerConfig {
        workers: SERVE_WORKERS,
        builder: serve_builder(),
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let call = |op: Op| -> Result<Reply, String> {
        let request = Request {
            id: String::new(),
            session: "probe".to_string(),
            op,
        };
        server.submit(request, &tx);
        let response = rx.recv().map_err(|_| "server dropped the request")?;
        response.reply.map_err(|e| e.message)
    };
    call(Op::Open {
        source: project.source.clone(),
    })?;
    call(Op::Query(Query::All))?;
    let mut edits = script();
    let mut round_ms = Vec::new();
    for round in 0..rounds {
        let source = edits.edit(round % 5 == 4).to_string();
        let (reply, secs) = p.span("server.round", || {
            call(Op::Update { source }).and_then(|_| call(Op::Query(Query::All)))
        });
        round_ms.push(secs * 1000.0);
        p.verdict(match reply? {
            Reply::Reports { json, .. } => oracle::check_markers(&json, &project.bugs),
            other => Err(format!("check answered {other:?}")),
        });
    }
    let server_ms = median(&round_ms);
    p.set("server.round_ms", server_ms);
    p.set("server.overhead_ms", server_ms - workspace_ms);
    p.set("server.shed", server.stats().shed as f64);
    server.shutdown();

    // transport: the same script through the socket, one client.
    let child = Server::start(ctx)?;
    let mut client = child.connect("probe")?;
    client.open(&path)?;
    client.check()?;
    let mut edits = script();
    let bytes_before = client.bytes;
    let mut socket_ms = Vec::new();
    for round in 0..rounds {
        let (round, _) = p.span("transport.round", || {
            client.round(&mut edits, round, &project)
        });
        socket_ms.push(ms(round.wall));
        p.verdict(round.verdict);
    }
    p.set("transport.overhead_ms", median(&socket_ms) - server_ms);
    p.set(
        "transport.bytes_per_round",
        (client.bytes - bytes_before) as f64 / rounds as f64,
    );
    child.shutdown(client)?;
    p.set("trace.overhead_share", overhead_share(&project.source)?);
    Ok(())
}

/// Prints each span name's calls, total and self time (its duration minus
/// the part its child spans cover).
fn print_self_times(trace: &TraceBuf) {
    let records = trace.records();
    let mut children_ns = vec![0u64; records.len()];
    for r in records {
        if let Some(parent) = children_ns.get_mut(r.parent as usize) {
            *parent += r.dur_ns;
        }
    }
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (r, child_ns) in records.iter().zip(&children_ns) {
        let row = by_name.entry(r.name).or_default();
        row.0 += 1;
        row.1 += r.dur_ns;
        row.2 += r.dur_ns.saturating_sub(*child_ns);
    }
    for (name, (calls, total_ns, self_ns)) in by_name {
        println!(
            "span {name} calls={calls} total_s={} self_s={}",
            total_ns as f64 / 1e9,
            self_ns as f64 / 1e9
        );
    }
}

/// The traced run of `workload`.
pub fn trace(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut p = Probes::new(workload, true);
    let root = p.trace.open("workload", workload);
    match workload {
        "cold_sparse" => trace_cold_sparse(ctx, &mut p),
        "cold_dense" => trace_cold_dense(ctx, &mut p),
        "warm_edit" => trace_warm_edit(ctx, &mut p),
        _ => trace_serve_edit(ctx, &mut p),
    }?;
    p.trace.close(root);
    print_self_times(&p.trace);
    let path = ctx
        .target_dir
        .join(format!("pinbench-trace-{workload}.json"));
    write_file(&path, &p.trace.chrome_json())?;
    println!("trace {workload} {}", path.display());
    Ok(Outcome {
        attempted: p.attempted.max(1),
        failed: p.wrong.len() as u64,
        correct: p.wrong.is_empty(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Value {
                name,
                value: p.values.get(name).copied().unwrap_or(0.0),
                unit,
                samples: 1,
            })
            .collect(),
    })
}
