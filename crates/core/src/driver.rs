//! End-to-end analysis driver: source text → reports.
//!
//! Mirrors the architecture figure of §4: Mod/Ref + local quasi points-to
//! analysis → SEG building → compositional global value-flow analysis,
//! with the linear-time solver embedded in the first stage and the SMT
//! solver in the last. The front end and detection are parallel at
//! function / source-site granularity (the paper's §6 scaling argument):
//! workers own their state and are merged deterministically, so results
//! are byte-identical for any thread count. Points-to runs on the calling
//! thread, one function at a time in a private arena merged straight into
//! the shared one, and the SEG is built one function at a time straight
//! into the shared arena. A build and an incremental update run the same
//! stage sequence; an update just has a previous run to splice.
//!
//! The public shape is a builder/artefact/workspace triple:
//!
//! * [`AnalysisBuilder`] — thread count, detection configuration, cache
//!   directory; consumed by `build_source`/`build_module`;
//! * [`Analysis`] — the immutable analyzed artefact (module, points-to,
//!   SEGs, shared arena). Nothing in it mutates during querying, so it
//!   can be shared across threads;
//! * [`Workspace`] — the one query surface: per-query state
//!   (configuration override, statistics, verdicts) around a borrowed
//!   artefact ([`Analysis::session`], any number concurrently) or an
//!   owned one that accepts edits ([`Workspace::open`]).

use crate::cache_io::load_verdicts;
use crate::detect::{DetectConfig, DetectStats};
use crate::error::PinpointError;
use crate::seg::ModuleSeg;
#[cfg(doc)]
use crate::workspace::Workspace;
#[cfg(test)]
use pinpoint_cache::config_fp;
use pinpoint_cache::{CacheStats, CacheStore};
use pinpoint_ir::frontend::first_error;
use pinpoint_ir::{
    func_fingerprint, module_fingerprints, CallGraph, CompileError, FuncId, Function, Module,
    Snapshot, Unit,
};
use pinpoint_obs::TraceBuf;
use pinpoint_pta::{analyze_module_with, dirty_closure, ModuleAnalysis, PreviousRun, PtaConfig};
use pinpoint_smt::{TermArena, VerdictTable};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The number of workers used when none is configured.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What the front end made of one source text.
#[derive(Debug)]
pub struct Compiled {
    /// The lowered, pre-transform module.
    pub module: Module,
    /// Tokens in the source (end of input not counted).
    pub tokens: usize,
    /// Bytes of source text.
    pub bytes: usize,
}

/// The front end as the pipeline runs it, with typed errors: one pass
/// splits `src` into items (`frontend.split`), then the functions are
/// parsed and lowered one at a time on up to `threads` workers
/// ([`TraceBuf::shard_map`], one `frontend.lower` span per function) and
/// assembled in source order. Every function's result depends on the
/// source text alone, so the module — and, on failure, the error — is the
/// same for any `threads`; [`pinpoint_ir::compile`] is the serial loop
/// over the same steps.
///
/// # Errors
///
/// [`PinpointError::Parse`] / [`PinpointError::Lower`]: the error the
/// whole-file order (lex, then parse, then lower) stops at first, see
/// [`pinpoint_ir::frontend`].
pub fn compile_source(
    src: &str,
    threads: usize,
    trace: &mut TraceBuf,
) -> Result<Compiled, PinpointError> {
    Ok(compile_keeping(src, None, threads, trace)?.0)
}

/// [`compile_source`], also returning the snapshot an owned workspace
/// keeps for its first update when it `keep`s `src`'s text.
fn compile_keeping(
    src: &str,
    keep: Option<Arc<String>>,
    threads: usize,
    trace: &mut TraceBuf,
) -> Result<(Compiled, Option<Snapshot>), PinpointError> {
    let unit = trace.span("frontend.split", "", |_| Unit::split(src))?;
    let source = keep.map(|text| unit.snapshot(text));
    let results = lower_fns(&unit, (0..unit.func_count()).collect(), threads, trace);
    let (tokens, bytes) = (unit.tokens(), unit.bytes());
    let compiled = Compiled {
        module: unit.finish(results)?,
        tokens,
        bytes,
    };
    Ok((compiled, source))
}

/// Parses and lowers functions `ids` of `unit` on up to `threads` workers,
/// one `frontend.lower` span each; the results are in `ids` order.
fn lower_fns(
    unit: &Unit<'_>,
    mut ids: Vec<usize>,
    threads: usize,
    trace: &mut TraceBuf,
) -> Vec<Result<Function, CompileError>> {
    trace.shard_map(
        &mut ids,
        threads,
        || (),
        |(), &mut i, lane| lane.span("frontend.lower", unit.func_name(i), |_| unit.compile_fn(i)),
    )
}

/// Stage timings and the counters no artefact holds, for the evaluation
/// harness.
///
/// The copy held by [`Analysis`] covers the build stages (points-to,
/// SEG); detection counters accumulate per [`Workspace`] and are read
/// through [`Workspace::stats`]. Sizes are read from the artefact itself:
/// [`ModuleSeg::vertex_count`], [`ModuleSeg::edge_count`] and
/// [`ModuleSeg::heap_bytes`] of [`Analysis::segs`], the arena's length,
/// and [`ModuleAnalysis::total_stats`] of [`Analysis::pta`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineStats {
    /// Wall time of parsing + lowering: of the whole file after
    /// [`AnalysisBuilder::build_source`], and after
    /// [`Workspace::update_source`] of what the update lowered (the split
    /// around the edit, the changed functions and the callers it
    /// dirtied); zero when the module was built elsewhere.
    pub front_time: Duration,
    /// Tokens in the source text (zero like [`Self::front_time`] when the
    /// module was built elsewhere).
    pub front_tokens: usize,
    /// Bytes of source text.
    pub front_bytes: usize,
    /// Wall time of the call-graph build (one per build or update).
    pub callgraph_time: Duration,
    /// Wall time of the keys stage: an owned workspace's build
    /// fingerprints every function, an update diffs the fingerprints of
    /// what it lowered and closes the changes over callers (zero for an
    /// artefact built for one-shot queries, which keeps no keys).
    pub keys_time: Duration,
    /// Wall time of points-to + transformation.
    pub pta_time: Duration,
    /// Wall time of SEG construction.
    pub seg_time: Duration,
    /// Wall time of all detection runs so far.
    pub detect_time: Duration,
    /// Detection statistics (accumulated over checkers).
    pub detect: DetectStats,
    /// Traffic of the persistent verdict store: the load at build time
    /// and, on a workspace's copy, its persists (all zero
    /// unless the builder set [`AnalysisBuilder::cache_dir`]).
    pub cache: CacheStats,
}

/// Configures and builds an [`Analysis`].
///
/// # Examples
///
/// ```
/// use pinpoint_core::{AnalysisBuilder, CheckerKind, DetectConfig, Query};
///
/// let src = "
///     fn main() {
///         let p: int* = malloc();
///         free(p);
///         let x: int = *p;
///         print(x);
///         return;
///     }";
/// let config = DetectConfig { max_ctx_depth: 4, ..DetectConfig::default() };
/// let analysis = AnalysisBuilder::new()
///     .threads(2)
///     .detect_config(config)
///     .build_source(src)?;
/// let reports = analysis.session().query(&Query::Check(CheckerKind::UseAfterFree));
/// assert_eq!(reports.len(), 1);
/// # Ok::<(), pinpoint_core::PinpointError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisBuilder {
    threads: usize,
    config: DetectConfig,
    pta: PtaConfig,
    trace: bool,
    cache_dir: Option<PathBuf>,
}

impl Default for AnalysisBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisBuilder {
    /// A builder with default budgets and [`default_threads`] workers.
    pub fn new() -> Self {
        AnalysisBuilder {
            threads: default_threads(),
            config: DetectConfig::default(),
            pta: PtaConfig::default(),
            trace: false,
            cache_dir: None,
        }
    }

    /// Persists solver verdicts under `dir`: the build loads the table
    /// earlier runs left there, and every query that establishes new
    /// verdicts writes the grown table back, so a later run — of this or
    /// an edited program — solves only conditions no run has decided yet.
    /// Nothing else is kept between runs: the points-to and SEG stages
    /// recompute faster than they reload. Reports are byte-identical to a
    /// run without a directory; a missing, corrupt, or unwritable one
    /// silently degrades to a cold run (see [`PipelineStats::cache`] for
    /// hit/miss/invalidation counters).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Enables hierarchical span tracing across every pipeline stage
    /// (exported through [`Workspace::trace_json`]). Off by default:
    /// a disabled recorder is a no-op enum variant, so the analysis pays
    /// nothing for the instrumentation points.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Number of workers (clamped to ≥ 1) the sharded stages — front end
    /// and detection — fan out over. Points-to and the SEG run on the
    /// calling thread.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Replaces the whole detection configuration workspaces start from
    /// (budgets, context depth, solving; see [`DetectConfig`]).
    pub fn detect_config(mut self, config: DetectConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables or disables the §3.1.1 linear-time contradiction pruning
    /// in the points-to stage.
    pub fn prune(mut self, on: bool) -> Self {
        self.pta.prune = on;
        self
    }

    fn validate(&self) -> Result<(), PinpointError> {
        if self.config.max_visited_per_source == 0 {
            return Err(PinpointError::SolverBudget(
                "max_visited_per_source must be at least 1 (a zero vertex budget makes every \
                 search empty)"
                    .into(),
            ));
        }
        if self.config.cond.max_constraints == 0 {
            return Err(PinpointError::SolverBudget(
                "max_constraints must be at least 1 (a zero constraint budget drops every path \
                 condition)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Compiles `src` and runs the points-to and SEG stages.
    ///
    /// # Errors
    ///
    /// [`PinpointError::Parse`] / [`PinpointError::Lower`] from the front
    /// end and [`PinpointError::SolverBudget`] for unusable budgets.
    pub fn build_source(self, src: &str) -> Result<Analysis, PinpointError> {
        self.build_keeping(src, None)
    }

    /// [`AnalysisBuilder::build_source`]; an owned workspace's build
    /// `keep`s the text `src` is, and derives the function keys.
    pub(crate) fn build_keeping(
        self,
        src: &str,
        keep: Option<Arc<String>>,
    ) -> Result<Analysis, PinpointError> {
        let mut trace = self.make_trace();
        let front_span = trace.open("frontend", "");
        let t = Instant::now();
        let (compiled, source) = compile_keeping(src, keep, self.threads, &mut trace)?;
        let front_time = t.elapsed();
        trace.close(front_span);
        let mut analysis = self.build_module_traced(compiled.module, source, trace)?;
        analysis.stats.front_time = front_time;
        analysis.stats.front_tokens = compiled.tokens;
        analysis.stats.front_bytes = compiled.bytes;
        Ok(analysis)
    }

    /// Runs the points-to and SEG stages over an existing module.
    ///
    /// # Errors
    ///
    /// [`PinpointError::SolverBudget`] for unusable budgets.
    pub fn build_module(self, module: Module) -> Result<Analysis, PinpointError> {
        let trace = self.make_trace();
        self.build_module_traced(module, None, trace)
    }

    fn make_trace(&self) -> TraceBuf {
        if self.trace {
            TraceBuf::on()
        } else {
            TraceBuf::off()
        }
    }

    /// The stages after the front end; a `source` snapshot (an owned
    /// workspace's build) makes them derive keys.
    fn build_module_traced(
        self,
        module: Module,
        source: Option<Snapshot>,
        mut trace: TraceBuf,
    ) -> Result<Analysis, PinpointError> {
        self.validate()?;
        let mut stats = PipelineStats::default();
        let (callgraph, _) = call_graph(&module, None, &mut trace, &mut stats);
        let keys = source.is_some().then(|| {
            let t = Instant::now();
            let keys = trace.span("keys", "", |_| Keys::new(&module, 0));
            stats.keys_time = t.elapsed();
            keys
        });
        let built = run_stages(
            module,
            callgraph,
            None,
            &self.pta,
            self.threads,
            &mut trace,
            &mut stats,
        );
        // A cache directory that fails to open (permissions, not a
        // directory, …) silently degrades to a cold run.
        let mut verdicts = VerdictTable::new();
        if let Some(mut store) = open_store(self.cache_dir.as_deref()) {
            verdicts = load_verdicts(&mut store);
            stats.cache = store.stats();
        }
        Ok(Analysis {
            module: built.module,
            pta: built.pta,
            segs: built.segs,
            callgraph: built.callgraph,
            arena: Arc::new(built.arena),
            verdicts,
            cache_dir: self.cache_dir,
            config: self.config,
            pta_config: self.pta,
            threads: self.threads,
            keys,
            source,
            stats,
            trace,
        })
    }
}

/// The verdict store under `dir`, if there is a directory and it opens.
pub(crate) fn open_store(dir: Option<&Path>) -> Option<CacheStore> {
    CacheStore::open(dir?).ok()
}

/// What an owned workspace compares across edits: each function's local
/// fingerprint, and the update that last re-analysed it.
#[derive(Debug)]
pub(crate) struct Keys {
    /// Each function's local fingerprint
    /// ([`pinpoint_ir::func_fingerprint`] of its pre-transform body),
    /// indexed by `FuncId`: what an update diffs the functions it lowers
    /// against, kept for the ones it does not lower.
    pub(crate) local: Vec<u128>,
    /// Per function, the number of the update that last re-analysed it
    /// (0: the build): what the query cache's cone fingerprints hash.
    pub(crate) stamps: Vec<u64>,
    /// The number of the last update (0: none yet).
    updates: u64,
}

impl Keys {
    /// The keys of a module every function of which update number
    /// `update` analysed (0: a build).
    fn new(module: &Module, update: u64) -> Keys {
        Keys {
            local: module_fingerprints(module),
            stamps: vec![update; module.funcs.len()],
            updates: update,
        }
    }

    /// Applies an update over the same function set and returns what it
    /// dirtied: the `lowered` functions whose fingerprint moved (patched
    /// into [`Keys::local`] in place), closed over their callers on the
    /// new call graph `callgraph`, which [`Keys::stamp`] then stamps. A
    /// function's connector shape, points-to result and transformed body
    /// depend only on its own body and its callees' shapes, so this is
    /// exactly what the edit invalidates (see
    /// [`pinpoint_pta::incremental`]).
    fn update(&mut self, module: &Module, lowered: &[bool], callgraph: &CallGraph) -> Vec<bool> {
        let mut dirty = vec![false; lowered.len()];
        for i in (0..lowered.len()).filter(|&i| lowered[i]) {
            let fp = func_fingerprint(&module.funcs[i], module);
            if fp != self.local[i] {
                self.local[i] = fp;
                dirty[i] = true;
            }
        }
        dirty_closure(callgraph, &mut dirty);
        self.stamp(&dirty);
        dirty
    }

    /// Numbers a new update and stamps the `dirty` functions with it.
    fn stamp(&mut self, dirty: &[bool]) {
        self.updates += 1;
        for i in (0..dirty.len()).filter(|&i| dirty[i]) {
            self.stamps[i] = self.updates;
        }
    }
}

/// The call graph of the pre-transform `module`, under the `callgraph`
/// span, recording the stage's time, and whether it is `kept`: an
/// update's previous graph and its lowered flags. The previous graph is
/// kept when every lowered function has its previous callee row; a
/// build, or any other update, gets a new one.
fn call_graph(
    module: &Module,
    kept: Option<(&Arc<CallGraph>, &[bool])>,
    trace: &mut TraceBuf,
    stats: &mut PipelineStats,
) -> (Arc<CallGraph>, bool) {
    let t = Instant::now();
    let graph = trace.span("callgraph", "", |_| {
        let (cg, lowered) = kept?;
        let mut lowered = lowered.iter().enumerate().filter(|(_, &l)| l);
        lowered
            .all(|(i, _)| cg.keeps_callees(FuncId(i as u32), &module.funcs[i]))
            .then(|| Arc::clone(cg))
    });
    stats.callgraph_time = t.elapsed();
    match graph {
        Some(cg) => {
            debug_assert!(cg.describes(module), "a kept call graph is the module's");
            (cg, true)
        }
        None => (Arc::new(CallGraph::new(module)), false),
    }
}

/// What an update splices from, beside its module: the previous
/// artefact's points-to analysis (arena included) and SEGs, the new
/// source, to lower what the edit dirtied, and the dirty set.
struct Previous<'u, 'src> {
    unit: &'u Unit<'src>,
    /// Per function: whether the module holds a body lowered from
    /// [`Previous::unit`] (else it holds the previous transformed one).
    lowered: Vec<bool>,
    /// The previous transformed bodies of the functions in
    /// [`Previous::lowered`], by function, ascending; the others are in
    /// the module.
    replaced: Vec<(usize, Function)>,
    pta: ModuleAnalysis,
    segs: ModuleSeg,
    /// Per function: whether the edit dirtied it, closed over callers
    /// ([`Keys::update`]).
    dirty: Vec<bool>,
}

/// What the build stages produce: the artefact minus its configuration
/// and keys.
struct Built {
    module: Module,
    /// Points-to artefacts, the arena moved out into [`Built::arena`].
    pta: ModuleAnalysis,
    segs: ModuleSeg,
    callgraph: Arc<CallGraph>,
    arena: TermArena,
    outcome: UpdateOutcome,
}

/// The build stages after the call graph (and, for an owned workspace,
/// the keys) over `module`, in order: points-to, then SEG — recording
/// spans into `trace` and times into `stats`. The transform leaves the
/// call graph unchanged, so every stage borrows `callgraph`.
///
/// A build is an edit with nothing to splice, and its module is the
/// pre-transform one. With a `previous` run, the module holds the
/// previous transformed body of each function the front end did not
/// lower again, and [`Previous::dirty`] is the dirty set: a dirty
/// function not lowered yet is lowered now, a clean one gets its
/// previous transformed body back, and both stages splice everything
/// clean from the previous run and analyse only the dirty functions (see
/// [`pinpoint_pta::incremental`]).
fn run_stages(
    mut module: Module,
    callgraph: Arc<CallGraph>,
    previous: Option<Previous<'_, '_>>,
    config: &PtaConfig,
    threads: usize,
    trace: &mut TraceBuf,
    stats: &mut PipelineStats,
) -> Built {
    let mut lowered = module.funcs.len();
    let (previous, old_segs) = match previous {
        Some(p) => {
            let t = Instant::now();
            let late: Vec<usize> = (0..p.dirty.len())
                .filter(|&i| p.dirty[i] && !p.lowered[i])
                .collect();
            let results = lower_fns(p.unit, late.clone(), threads, trace);
            for (i, f) in late.iter().zip(results) {
                module.funcs[*i] = f.expect("an unchanged slice lowers as it did before");
            }
            for (i, body) in p.replaced {
                if !p.dirty[i] {
                    module.funcs[i] = body;
                }
            }
            stats.front_time += t.elapsed();
            lowered = p.lowered.iter().filter(|&&l| l).count() + late.len();
            let run = PreviousRun {
                analysis: p.pta,
                dirty: p.dirty,
            };
            (Some(run), Some(p.segs))
        }
        None => (None, None),
    };
    let t = Instant::now();
    let span = trace.open("pta", "");
    let out = analyze_module_with(&mut module, config, trace, &callgraph, previous);
    trace.close(span);
    stats.pta_time = t.elapsed();
    debug_assert!(
        callgraph.describes(&module),
        "the connector transform must not change the call graph"
    );
    let mut pta = out.analysis;
    let t = Instant::now();
    let mut arena = std::mem::take(&mut pta.arena);
    let reuse = old_segs.map(|segs| (segs, out.reanalyzed.as_slice()));
    let span = trace.open("seg", "");
    let segs = ModuleSeg::build_reusing(
        &module,
        &mut arena,
        &mut pta.symbols,
        &pta.pta,
        reuse,
        trace,
    );
    trace.close(span);
    stats.seg_time = t.elapsed();
    Built {
        module,
        pta,
        segs,
        callgraph,
        arena,
        outcome: UpdateOutcome {
            reanalyzed: out.reanalyzed.len(),
            reused: out.reused,
            fell_back: false,
            lowered,
            split_bytes: 0,
            callgraph_kept: false,
        },
    }
}

/// What [`Workspace::update_source`] reused versus recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Functions whose points-to/SEG artefacts were re-analysed (the
    /// edited functions plus their transitive callers).
    pub reanalyzed: usize,
    /// Functions whose artefacts were spliced from the previous run.
    pub reused: usize,
    /// `true` when the incremental path was abandoned for a full rebuild
    /// (the function set changed shape).
    pub fell_back: bool,
    /// Functions the front end parsed and lowered: those whose source
    /// slice changed (all of them when a global or a function header
    /// did) plus the callers the edit dirtied.
    pub lowered: usize,
    /// Bytes of the new source the update's split lexed: the edited
    /// range out to the item boundaries around it (see
    /// [`Unit::resplit`]).
    pub split_bytes: usize,
    /// `true` when no lowered function changed its user callees, so the
    /// update kept the previous call graph.
    pub callgraph_kept: bool,
}

/// The immutable Pinpoint analysis artefact, ready to be queried.
///
/// Built by [`AnalysisBuilder`]; all querying goes through a [`Workspace`]
/// that holds the per-query state. A borrowed one ([`Analysis::session`])
/// only reads the artefact, so concurrent checkers are safe; an owned one
/// ([`Workspace::update_source`]) is the only thing that replaces it for
/// an edited program.
///
/// # Examples
///
/// ```
/// use pinpoint_core::{Analysis, CheckerKind, Query};
///
/// let src = "
///     fn main() {
///         let p: int* = malloc();
///         free(p);
///         let x: int = *p;
///         print(x);
///         return;
///     }";
/// let analysis = Analysis::from_source(src)?;
/// let mut session = analysis.session();
/// let reports = session.query(&Query::Check(CheckerKind::UseAfterFree));
/// assert_eq!(reports.len(), 1);
/// assert_eq!(session.stats().detect.reports, 1);
/// # Ok::<(), pinpoint_core::PinpointError>(())
/// ```
#[derive(Debug)]
pub struct Analysis {
    /// The (transformed) module.
    pub module: Module,
    /// Points-to artefacts.
    pub pta: ModuleAnalysis,
    /// Per-function SEGs.
    pub segs: ModuleSeg,
    /// The module's call graph and its SCC condensation: built once per
    /// build or update from the pre-transform module (the connector
    /// transform leaves it unchanged) and borrowed by the key
    /// derivation, the points-to schedule and every summary build.
    pub callgraph: Arc<CallGraph>,
    /// The module-global term interner. Shared behind an [`Arc`] so
    /// detection workers overlay it ([`TermArena::overlay`]) instead of
    /// deep-cloning: base terms are read in place, per-source scratch
    /// terms live in the overlay.
    pub arena: Arc<TermArena>,
    /// Solver verdicts known at build time (loaded from the persistent
    /// store when a cache directory is configured; empty otherwise).
    /// Workspaces seed their own accumulating tables from this snapshot.
    pub(crate) verdicts: VerdictTable,
    /// Where to persist newly-established verdicts (the builder's
    /// [`AnalysisBuilder::cache_dir`]).
    pub(crate) cache_dir: Option<PathBuf>,
    /// The detection configuration workspaces start from (from the
    /// builder).
    config: DetectConfig,
    /// Points-to configuration (from the builder), which an update
    /// re-analyses under.
    pta_config: PtaConfig,
    /// Worker count (from the builder).
    threads: usize,
    /// The function fingerprints and update stamps, derived by a build
    /// for an owned workspace ([`AnalysisBuilder::open_workspace`]) and
    /// kept current by every update. A build for one-shot queries has none: a
    /// borrowed workspace keeps no query cache, and its artefact never
    /// changes.
    pub(crate) keys: Option<Keys>,
    /// The source text the artefact is of, with its item table and
    /// tables ([`Unit::snapshot`]): what the next update splits against
    /// ([`Unit::resplit`]). Kept, like [`Analysis::keys`], for an owned
    /// workspace only.
    pub(crate) source: Option<Snapshot>,
    /// Build-stage statistics (detection counters stay zero here; see
    /// [`Workspace::stats`]).
    pub stats: PipelineStats,
    /// Build-stage spans (frontend, pta, seg), recorded when the builder
    /// enabled [`AnalysisBuilder::trace`]; workspaces extend a clone with
    /// their detection spans.
    trace: TraceBuf,
}

impl Analysis {
    /// Starts configuring an analysis.
    pub fn builder() -> AnalysisBuilder {
        AnalysisBuilder::new()
    }

    /// Compiles `src` with default configuration.
    ///
    /// # Errors
    ///
    /// Returns typed parse or lowering errors from the front end.
    pub fn from_source(src: &str) -> Result<Self, PinpointError> {
        AnalysisBuilder::new().build_source(src)
    }

    /// Analyzes an existing module with default configuration.
    pub fn from_module(module: Module) -> Self {
        AnalysisBuilder::new()
            .build_module(module)
            .expect("default configuration is always valid")
    }

    /// The detection configuration workspaces start from.
    pub fn config(&self) -> DetectConfig {
        self.config
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The build-stage span trace ([`TraceBuf::Off`] unless the builder
    /// enabled [`AnalysisBuilder::trace`]).
    pub fn trace(&self) -> &TraceBuf {
        &self.trace
    }

    /// Replaces the program with `text`, splicing from this artefact: the
    /// body of [`Workspace::update_source`]. The kept [`Snapshot`] takes
    /// `text` itself, not a copy. The front end splits only
    /// around the edit ([`Unit::resplit`] of the kept [`Snapshot`]) and
    /// lowers only the functions of the re-split window whose source slice
    /// changed (every function when a global or a header changed the
    /// tables fingerprint). With the same fingerprint the function set is
    /// the same, so the lowered bodies are swapped into the module in
    /// place and every other function keeps its transformed body and its
    /// fingerprint. The fingerprints of the lowered functions are then
    /// diffed against the kept ones, and the functions whose fingerprint
    /// changed, closed once over their callers on the new call graph
    /// ([`Keys::update`]), are the dirty set: they are lowered if they
    /// were not, re-analysed (see [`run_stages`]) and stamped for the
    /// query cache. Everything else (transformed bodies, points-to
    /// results, SEGs, hash-consed terms) is spliced from this artefact.
    ///
    /// An error is the one a whole-file compile of `src` gives: a slice
    /// that did not change compiled cleanly against the same tables
    /// before, so the first error in file order lies in a changed one.
    /// The artefact is untouched when there is one.
    pub(crate) fn update_source(
        &mut self,
        text: Arc<String>,
    ) -> Result<UpdateOutcome, PinpointError> {
        let t = Instant::now();
        // Updates are untraced (the artefact's trace is its build's), so
        // only the stage times are kept.
        let trace = &mut TraceBuf::off();
        let kept = self
            .source
            .as_ref()
            .expect("an owned workspace's artefact keeps its source");
        let (unit, split_bytes) = Unit::resplit(&text, kept)?;
        let n = unit.func_count();
        // The fingerprint covers every declaration in order: the same one
        // means the same functions at the same ids, and outside the
        // window the same slices.
        let same_tables = unit.tables_fingerprint() == kept.tables_fingerprint();
        let window = unit.window();
        let lowered: Vec<bool> = (0..n)
            .map(|i| !same_tables || (window.contains(&i) && unit.slice(i) != kept.slice(i)))
            .collect();
        let ids: Vec<usize> = (0..n).filter(|&i| lowered[i]).collect();
        let results = lower_fns(&unit, ids.clone(), self.threads, trace);
        if let Some(e) = first_error(&results) {
            return Err(e.clone().into());
        }
        // Nothing fails from here on: take the previous artefact apart.
        let mut keys = self
            .keys
            .take()
            .expect("an owned workspace's artefact has keys");
        let same_shape = same_tables
            || (self.module.funcs.len() == n
                && (0..n).all(|i| self.module.funcs[i].name == unit.func_name(i)));
        let mut module = std::mem::take(&mut self.module);
        let fresh = results.into_iter().map(|r| r.expect("checked above"));
        let mut replaced = Vec::with_capacity(ids.len());
        if same_tables {
            for (&i, f) in ids.iter().zip(fresh) {
                replaced.push((i, std::mem::replace(&mut module.funcs[i], f)));
            }
        } else {
            // Every function was lowered.
            let old = std::mem::replace(&mut module, unit.module(fresh));
            replaced.extend(old.funcs.into_iter().enumerate());
        }
        self.stats.front_time = t.elapsed();
        self.stats.front_tokens = unit.tokens();
        self.stats.front_bytes = unit.bytes();
        let mut pta = std::mem::take(&mut self.pta);
        pta.arena = self.take_arena();
        let segs = std::mem::take(&mut self.segs);
        // A changed function set splices nothing: every function was
        // lowered (the tables changed), and the run is a cold build.
        let kept = same_shape.then_some((&self.callgraph, lowered.as_slice()));
        let (callgraph, callgraph_kept) = call_graph(&module, kept, trace, &mut self.stats);
        let t = Instant::now();
        let previous = if same_shape {
            let dirty = keys.update(&module, &lowered, &callgraph);
            Some(Previous {
                unit: &unit,
                lowered,
                replaced,
                pta,
                segs,
                dirty,
            })
        } else {
            keys = Keys::new(&module, keys.updates + 1);
            None
        };
        self.stats.keys_time = t.elapsed();
        let built = run_stages(
            module,
            callgraph,
            previous,
            &self.pta_config,
            self.threads,
            trace,
            &mut self.stats,
        );
        let outcome = UpdateOutcome {
            fell_back: !same_shape,
            split_bytes,
            callgraph_kept,
            ..built.outcome
        };
        self.source = Some(unit.into_snapshot(Arc::clone(&text)));
        self.install(built, keys);
        Ok(outcome)
    }

    /// The whole-file update, the reference [`Analysis::update_source`]
    /// is compared against: the whole file is compiled and every function
    /// fingerprinted, the dirty set is the diff of the transitive keys
    /// ([`pinpoint_cache::module_keys`]) of the previous and the new
    /// module, and every clean function's freshly lowered body is
    /// replaced by its previous transformed one.
    #[cfg(test)]
    pub(crate) fn update_source_whole_file(
        &mut self,
        src: &str,
    ) -> Result<UpdateOutcome, PinpointError> {
        let module = compile_source(src, self.threads, &mut TraceBuf::off())?.module;
        let unit = Unit::split(src)?;
        let mut keys = self
            .keys
            .take()
            .expect("an owned workspace's artefact has keys");
        let same_shape = self.module.funcs.len() == module.funcs.len()
            && module
                .iter_funcs()
                .all(|(f, g)| self.module.func(f).name == g.name);
        let mut pta = std::mem::take(&mut self.pta);
        pta.arena = self.take_arena();
        let bodies = std::mem::take(&mut self.module).funcs;
        let previous = if same_shape {
            // The previous pre-transform module's keys are its
            // fingerprints folded over its call graph, which the
            // transform left unchanged.
            let config = config_fp(&self.pta_config);
            let old = pinpoint_cache::fold_keys(&keys.local, config, &self.callgraph);
            let new = pinpoint_cache::module_keys(&module, config);
            let dirty: Vec<bool> = old.iter().zip(&new).map(|(a, b)| a != b).collect();
            keys.local = module_fingerprints(&module);
            keys.stamp(&dirty);
            Some(Previous {
                unit: &unit,
                lowered: vec![true; module.funcs.len()],
                replaced: bodies.into_iter().enumerate().collect(),
                pta,
                segs: std::mem::take(&mut self.segs),
                dirty,
            })
        } else {
            keys = Keys::new(&module, keys.updates + 1);
            None
        };
        let callgraph = Arc::new(CallGraph::new(&module));
        let mut built = run_stages(
            module,
            callgraph,
            previous,
            &self.pta_config,
            self.threads,
            &mut TraceBuf::off(),
            &mut self.stats,
        );
        // The SEG's module-level indexes are recomputed from the graphs,
        // so that the splice of the update under test meets a reference
        // that did not splice.
        built.segs = built.segs.reindexed(&built.module, &built.pta.pta);
        let outcome = UpdateOutcome {
            fell_back: !same_shape,
            split_bytes: src.len(),
            ..built.outcome
        };
        self.source = Some(unit.snapshot(Arc::new(src.to_string())));
        self.install(built, keys);
        Ok(outcome)
    }

    /// Makes `built` this artefact's module, analyses, call graph and
    /// arena, and `keys` its keys.
    fn install(&mut self, built: Built, keys: Keys) {
        self.module = built.module;
        self.pta = built.pta;
        self.segs = built.segs;
        self.callgraph = built.callgraph;
        self.arena = Arc::new(built.arena);
        self.keys = Some(keys);
    }

    /// Takes the interner out of its shared handle for mutation. The
    /// `&mut self` receiver guarantees no workspace borrows the artefact;
    /// worker overlays only hold the `Arc` during a run, so this is
    /// normally free (falls back to a deep clone if a stray handle
    /// survives).
    fn take_arena(&mut self) -> TermArena {
        let arc = std::mem::take(&mut self.arena);
        Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::Report;
    use crate::query::Query;
    use crate::spec::CheckerKind;
    use crate::workspace::Workspace;

    /// One checker through a fresh borrowed workspace.
    fn check(a: &Analysis, kind: CheckerKind) -> Vec<Report> {
        a.session().query(&Query::Check(kind)).into_reports()
    }

    /// Every checker's reports, debug-rendered: witnesses included, so
    /// warm replays must reproduce the exact witness assignments the cold
    /// solves recorded.
    fn render_all(s: &mut Workspace<&Analysis>) -> Vec<String> {
        let all = s.query(&Query::All).into_reports();
        all.iter().map(|r| format!("{r:?}")).collect()
    }

    const UAF: &str = "fn main() {
        let p: int* = malloc();
        free(p);
        let x: int = *p;
        print(x);
        return;
    }";

    #[test]
    fn builder_defaults_match_from_source() {
        let a = Analysis::from_source(UAF).unwrap();
        let b = AnalysisBuilder::new().build_source(UAF).unwrap();
        assert_eq!(a.arena.len(), b.arena.len());
        assert_eq!(
            check(&a, CheckerKind::UseAfterFree).len(),
            check(&b, CheckerKind::UseAfterFree).len()
        );
    }

    #[test]
    fn zero_budgets_rejected() {
        let no_vertices = DetectConfig {
            max_visited_per_source: 0,
            ..DetectConfig::default()
        };
        let mut no_constraints = DetectConfig::default();
        no_constraints.cond.max_constraints = 0;
        for config in [no_vertices, no_constraints] {
            let err = AnalysisBuilder::new()
                .detect_config(config)
                .build_source(UAF)
                .unwrap_err();
            assert!(matches!(err, PinpointError::SolverBudget(_)), "{err:?}");
        }
    }

    #[test]
    fn session_accumulates_stats_across_checkers() {
        let a = Analysis::from_source(UAF).unwrap();
        let mut s = a.session();
        let reports = s.query(&Query::Check(CheckerKind::UseAfterFree));
        assert_eq!(reports.len(), 1);
        let after_one = s.stats().detect.sources;
        assert!(after_one > 0);
        s.query(&Query::Check(CheckerKind::NullDeref));
        assert!(s.stats().detect.sources >= after_one);
        // The artefact's own stats never grow detection counters.
        assert_eq!(a.stats.detect.sources, 0);
    }

    #[test]
    fn concurrent_sessions_from_shared_artifact() {
        // Two checkers run concurrently from separate threads through
        // `&Analysis` — no locks, no `unsafe`.
        let a = Analysis::from_source(
            "fn main() {
                let p: int* = malloc();
                free(p);
                let x: int = *p;
                print(x);
                let input: int = fgetc();
                let h: int = fopen(input);
                print(h);
                return;
            }",
        )
        .unwrap();
        let a = &a;
        let (uaf, taint) = std::thread::scope(|s| {
            let h1 = s.spawn(move || check(a, CheckerKind::UseAfterFree));
            let h2 = s.spawn(move || check(a, CheckerKind::PathTraversal));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(uaf.len(), 1);
        assert_eq!(taint.len(), 1);
        // Identical to what the same checkers report sequentially.
        assert_eq!(
            uaf[0].description,
            check(a, CheckerKind::UseAfterFree)[0].description
        );
    }

    #[test]
    fn cache_warm_rebuild_is_identical_and_hits() {
        let src = "fn release(x: int*) { free(x); return; }
            fn main(c: bool) {
                let p: int* = malloc();
                if (c) { release(p); }
                let x: int = *p;
                print(x);
                return;
            }";
        let dir = std::env::temp_dir().join(format!("pinpoint-drv-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            AnalysisBuilder::new()
                .cache_dir(&dir)
                .build_source(src)
                .unwrap()
        };
        let plain = AnalysisBuilder::new().build_source(src).unwrap();
        assert_eq!(plain.stats.cache, CacheStats::default());
        let expected = render_all(&mut plain.session());
        // The one object the store holds is the verdict table: nothing to
        // load before the first check, which then persists it.
        let cold = build();
        let c = cold.stats.cache;
        assert_eq!((c.hits, c.misses, c.invalidated), (0, 1, 0), "{c:?}");
        assert!(cold.verdicts.is_empty());
        let mut session = cold.session();
        assert_eq!(render_all(&mut session), expected);
        assert!(session.stats().cache.store_ns > 0, "the session persisted");
        // One hit after it, and every verdict the warm run needs is on
        // disk: nothing new to persist.
        let warm = build();
        let c = warm.stats.cache;
        assert_eq!((c.hits, c.misses, c.invalidated), (1, 0, 0), "{c:?}");
        assert!(!warm.verdicts.is_empty());
        assert_eq!(warm.arena.len(), plain.arena.len());
        let mut session = warm.session();
        assert_eq!(render_all(&mut session), expected);
        assert_eq!(session.stats().cache.store_ns, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_counts_do_not_change_reports() {
        let src = "fn release(x: int*) { free(x); return; }
            fn main(c: bool) {
                let p: int* = malloc();
                let q: int* = malloc();
                if (c) { release(p); }
                let x: int = *p;
                print(x);
                free(q);
                free(q);
                return;
            }";
        let seq = AnalysisBuilder::new().threads(1).build_source(src).unwrap();
        let par = AnalysisBuilder::new().threads(4).build_source(src).unwrap();
        assert_eq!(
            render_all(&mut seq.session()),
            render_all(&mut par.session())
        );
    }

    /// A call chain, a diamond and a mutually recursive pair: points-to
    /// sees several condensation levels and one non-trivial SCC.
    const WAVEFRONT_SRC: &str = r#"
        global gb: int;
        fn foo(a: int*) {
            let ptr: int** = malloc();
            *ptr = a;
            if (nondet_bool()) { bar(ptr); } else { qux(ptr); }
            let f: int* = *ptr;
            if (nondet_bool()) { print(*f); }
            return;
        }
        fn bar(q: int**) {
            let c: int* = malloc();
            if (*q != null) { *q = c; free(c); }
            else { if (nondet_bool()) { *q = gb; } }
            return;
        }
        fn qux(r: int**) {
            if (nondet_bool()) { *r = null; } else { *r = null; }
            return;
        }
        fn even(n: int, q: int**) { odd(n - 1, q); *q = null; return; }
        fn odd(n: int, q: int**) { even(n - 1, q); return; }
        fn top(x: int*) {
            let p: int** = malloc();
            *p = x;
            foo(x);
            even(3, p);
            return;
        }
        "#;

    #[test]
    fn parallel_is_byte_identical_across_thread_counts() {
        let build = |t| {
            let a = AnalysisBuilder::new().threads(t);
            a.build_source(WAVEFRONT_SRC).unwrap()
        };
        let a0 = build(1);
        for threads in [2, 4, 7] {
            let a = build(threads);
            // The transformed modules agree instruction-for-instruction.
            for (fid, f) in a0.module.iter_funcs() {
                assert_eq!(
                    format!("{:?}", f.blocks),
                    format!("{:?}", a.module.func(fid).blocks)
                );
            }
            // The shared arenas are the same term for term, so every
            // TermId in the kept results means the same term.
            assert!(a0.arena.kinds().eq(a.arena.kinds()), "{threads}: arena");
            assert_eq!(a0.pta.pta, a.pta.pta);
            assert_eq!(a0.pta.symbols.len(), a.pta.symbols.len());
            assert_eq!(render_all(&mut a0.session()), render_all(&mut a.session()));
        }
    }

    #[test]
    fn trace_spans_are_thread_count_invariant() {
        let run = |t| {
            let a = AnalysisBuilder::new().threads(t).trace(true);
            a.build_source(WAVEFRONT_SRC).unwrap().trace().clone()
        };
        let (t1, t4) = (run(1), run(4));
        let lanes = |t: &TraceBuf, name: &str| -> Vec<u32> {
            let records = t.records().iter().filter(|r| r.name == name);
            records.map(|r| r.lane).collect()
        };
        for t in [&t1, &t4] {
            assert_eq!(
                lanes(t, "pta.func"),
                [0; 6],
                "one pta.func span per function, on the caller's lane"
            );
        }
        assert!(
            lanes(&t4, "frontend.lower").iter().any(|&l| l > 1),
            "the front end shards"
        );
        assert_eq!(
            t1.canonical_json(),
            t4.canonical_json(),
            "canonical trace is thread-count invariant"
        );
    }

    /// A workload with enough distinct sources and branchy conditions
    /// that both SAT and UNSAT verdicts get recorded.
    const VERDICT_WORKLOAD: &str = "fn release(x: int*) { free(x); return; }
        fn guarded(c: bool) {
            let p: int* = malloc();
            if (c) { release(p); }
            let x: int = *p;
            print(x);
            return;
        }
        fn twin(d: bool) {
            let q: int* = malloc();
            if (d) { release(q); }
            let y: int = *q;
            print(y);
            return;
        }
        fn dead(e: bool) {
            let r: int* = malloc();
            if (e) { if (!e) { free(r); let z: int = *r; print(z); } }
            free(r);
            return;
        }
        fn main(c: bool) {
            let s: int* = malloc();
            free(s);
            free(s);
            guarded(c);
            twin(c);
            dead(c);
            return;
        }";

    #[test]
    fn warm_verdicts_solve_strictly_less_with_identical_reports() {
        let dir = std::env::temp_dir().join(format!("pinpoint-verdicts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = AnalysisBuilder::new()
            .cache_dir(&dir)
            .build_source(VERDICT_WORKLOAD)
            .unwrap();
        assert!(cold.verdicts.is_empty(), "first run starts cold");
        let mut cold_session = cold.session();
        let cold_reports = render_all(&mut cold_session);
        let cold_stats = cold_session.stats().detect;
        assert!(cold_stats.verdict_misses > 0, "{cold_stats:?}");
        assert!(cold_stats.sessions > 0, "{cold_stats:?}");
        // `Query::All` runs five checkers; later ones reuse verdicts the
        // earlier ones persisted into the workspace table.
        drop(cold_session);
        for threads in [1, 4] {
            let warm = AnalysisBuilder::new()
                .threads(threads)
                .cache_dir(&dir)
                .build_source(VERDICT_WORKLOAD)
                .unwrap();
            assert!(!warm.verdicts.is_empty(), "verdicts persisted to disk");
            let mut s = warm.session();
            let reports = render_all(&mut s);
            let stats = s.stats().detect;
            assert_eq!(reports, cold_reports, "threads={threads}");
            assert!(stats.verdict_hits > 0, "threads={threads}: {stats:?}");
            assert!(
                stats.verdict_misses < cold_stats.verdict_misses,
                "threads={threads}: warm {stats:?} vs cold {cold_stats:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_accumulates_verdicts_across_queries() {
        // No cache directory: reuse comes purely from the session's
        // in-memory table accumulating across runs.
        let a = Analysis::from_source(VERDICT_WORKLOAD).unwrap();
        let mut s = a.session();
        let first: Vec<String> = s
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .reports()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let after_first = s.stats().detect;
        assert!(after_first.verdict_misses > 0);
        let second: Vec<String> = s
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .reports()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let after_second = s.stats().detect;
        assert_eq!(first, second, "verdict replay must not change reports");
        assert_eq!(
            after_second.verdict_misses, after_first.verdict_misses,
            "an identical re-run must not solve anything anew"
        );
        assert!(
            after_second.verdict_hits > after_first.verdict_hits,
            "{after_second:?}"
        );
        // Nothing was persisted without a cache directory.
        let json = s.stats_json(true);
        assert!(json.contains("\"verdict.persisted\":0"), "{json}");
    }

    #[test]
    fn stats_json_exports_verdict_and_incremental_counters() {
        let a = Analysis::from_source(UAF).unwrap();
        let mut s = a.session();
        s.query(&Query::Check(CheckerKind::UseAfterFree));
        let json = s.stats_json(true);
        for key in [
            "\"verdict.hits\"",
            "\"verdict.misses\"",
            "\"verdict.persisted\"",
            "\"incremental.reused_clauses\"",
            "\"incremental.sessions\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn corrupt_verdict_store_degrades_to_cold_never_wrong() {
        let dir =
            std::env::temp_dir().join(format!("pinpoint-verdicts-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = AnalysisBuilder::new()
            .cache_dir(&dir)
            .build_source(VERDICT_WORKLOAD)
            .unwrap();
        let cold_reports = render_all(&mut cold.session());
        let objects = dir.join("objects");
        let verdict_file = std::fs::read_dir(&objects)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("verdicts-"))
            })
            .expect("verdict record persisted");
        let pristine = std::fs::read(&verdict_file).unwrap();
        assert!(pristine.len() > 40, "frame has header + payload");

        let corruptions: Vec<(&str, Vec<u8>)> = vec![
            ("truncated", pristine[..pristine.len() / 2].to_vec()),
            ("bit-flipped payload", {
                let mut b = pristine.clone();
                let i = b.len() - 3;
                b[i] ^= 0x40;
                b
            }),
            ("wrong format version", {
                let mut b = pristine.clone();
                b[4] = b[4].wrapping_add(1);
                b
            }),
        ];
        for (what, bytes) in corruptions {
            std::fs::write(&verdict_file, &bytes).unwrap();
            let damaged = AnalysisBuilder::new()
                .cache_dir(&dir)
                .build_source(VERDICT_WORKLOAD)
                .unwrap();
            assert!(
                damaged.verdicts.is_empty(),
                "{what}: damaged store must read as cold"
            );
            let mut s = damaged.session();
            let reports = render_all(&mut s);
            let stats = s.stats().detect;
            assert_eq!(reports, cold_reports, "{what}: reports must stay correct");
            assert!(
                stats.verdict_misses > 0,
                "{what}: everything re-solves from scratch: {stats:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
