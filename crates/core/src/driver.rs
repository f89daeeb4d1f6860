//! End-to-end analysis driver: source text → reports.
//!
//! Mirrors the architecture figure of §4: Mod/Ref + local quasi points-to
//! analysis → SEG building → compositional global value-flow analysis,
//! with the linear-time solver embedded in the first stage and the SMT
//! solver in the last. The front end, points-to and detection are parallel
//! at function / source-site granularity (the paper's §6 scaling
//! argument): workers own private term arenas and symbol interners and
//! are merged deterministically, so results are byte-identical for any
//! thread count. The SEG is built one function at a time straight into the
//! shared arena. A build and an incremental update run the same stage
//! sequence ([`run_stages`]); an update just has a previous run to splice.
//!
//! The public shape is a builder/artefact/session triple:
//!
//! * [`AnalysisBuilder`] — thread count, solver budgets, checker
//!   selection; consumed by `build_source`/`build_module`;
//! * [`Analysis`] — the immutable analyzed artefact (module, points-to,
//!   SEGs, shared arena). Nothing in it mutates during querying, so it
//!   can be shared across threads;
//! * [`DetectSession`] — per-query scratch state (configuration override,
//!   statistics). Sessions are created from `&Analysis`, so any number of
//!   checkers can run concurrently.

use crate::cache_io::{load_verdicts, persist_verdicts};
use crate::detect::{run_spec, DetectConfig, DetectStats, QueryCache, QueryReuse, Report};
use crate::error::PinpointError;
use crate::seg::ModuleSeg;
use crate::spec::CheckerKind;
use crate::vfsummary::{keys_fingerprint, summary_fingerprint, ModuleSummaries};
use pinpoint_cache::{config_fp, module_keys_with_graph, CacheStats, CacheStore};
use pinpoint_ir::{CallGraph, FuncId, Module, Unit};
use pinpoint_obs::{queries_json, MetricsRegistry, ProfileTable, QueryRecord, TraceBuf};
use pinpoint_pta::{analyze_module_par, ModuleAnalysis, PreviousRun, PtaConfig, PtaStats};
use pinpoint_smt::{TermArena, VerdictTable};
use std::collections::HashMap;
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
    let unit = trace.span("frontend.split", "", |_| Unit::split(src))?;
    let mut funcs: Vec<usize> = (0..unit.func_count()).collect();
    let results = trace.shard_map(
        &mut funcs,
        threads,
        || (),
        |(), &mut i, lane| lane.span("frontend.lower", unit.func_name(i), |_| unit.compile_fn(i)),
    );
    let (tokens, bytes) = (unit.tokens(), unit.bytes());
    Ok(Compiled {
        module: unit.finish(results)?,
        tokens,
        bytes,
    })
}

/// Stage timings and structural counters for the evaluation harness.
///
/// The copy held by [`Analysis`] covers the build stages (points-to,
/// SEG); detection counters accumulate per [`DetectSession`] and are read
/// through [`DetectSession::stats`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineStats {
    /// Wall time of parsing + lowering (only populated by
    /// [`AnalysisBuilder::build_source`]; zero when the module was built
    /// elsewhere).
    pub front_time: Duration,
    /// Tokens in the source text (zero like [`Self::front_time`] when the
    /// module was built elsewhere).
    pub front_tokens: usize,
    /// Bytes of source text.
    pub front_bytes: usize,
    /// Wall time of the call-graph build (one per build or update).
    pub callgraph_time: Duration,
    /// Wall time of the cache-key derivation.
    pub keys_time: Duration,
    /// Wall time of points-to + transformation.
    pub pta_time: Duration,
    /// Wall time of SEG construction.
    pub seg_time: Duration,
    /// Wall time of all detection runs so far.
    pub detect_time: Duration,
    /// SEG vertices.
    pub seg_vertices: usize,
    /// SEG edges.
    pub seg_edges: usize,
    /// Heap bytes of the SEG tables ([`ModuleSeg::heap_bytes`]): the
    /// Fig. 8 memory figure, counted from table lengths.
    pub seg_bytes: usize,
    /// Hash-consed terms allocated.
    pub terms: usize,
    /// Linear-solver statistics from the points-to stage.
    pub pta: PtaStats,
    /// Detection statistics (accumulated over checkers).
    pub detect: DetectStats,
    /// Traffic of the persistent verdict store: the load at build time
    /// and, on a session's or workspace's copy, its persists (all zero
    /// unless the builder set [`AnalysisBuilder::cache_dir`]).
    pub cache: CacheStats,
}

/// Configures and builds an [`Analysis`].
///
/// # Examples
///
/// ```
/// use pinpoint_core::{AnalysisBuilder, CheckerKind};
///
/// let src = "
///     fn main() {
///         let p: int* = malloc();
///         free(p);
///         let x: int = *p;
///         print(x);
///         return;
///     }";
/// let analysis = AnalysisBuilder::new().threads(2).build_source(src)?;
/// let reports = analysis.check(CheckerKind::UseAfterFree);
/// assert_eq!(reports.len(), 1);
/// # Ok::<(), pinpoint_core::PinpointError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisBuilder {
    threads: usize,
    config: DetectConfig,
    pta: PtaConfig,
    checkers: Vec<CheckerKind>,
    verify: bool,
    trace: bool,
    cache_dir: Option<PathBuf>,
}

impl Default for AnalysisBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisBuilder {
    /// A builder with default budgets, every built-in checker selected,
    /// and [`default_threads`] workers.
    pub fn new() -> Self {
        AnalysisBuilder {
            threads: default_threads(),
            config: DetectConfig::default(),
            pta: PtaConfig::default(),
            checkers: CheckerKind::ALL.to_vec(),
            verify: false,
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
    /// (exported through [`DetectSession::trace_json`]). Off by default:
    /// a disabled recorder is a no-op enum variant, so the analysis pays
    /// nothing for the instrumentation points.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Number of workers (clamped to ≥ 1) the sharded stages — front end,
    /// points-to, detection — fan out over.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Replaces the whole detection configuration.
    pub fn detect_config(mut self, config: DetectConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables or disables SMT filtering of candidates (the ablation
    /// benchmarks disable it).
    pub fn solve(mut self, on: bool) -> Self {
        self.config.solve = on;
        self
    }

    /// Maximum nesting of calling contexts (the paper uses six).
    pub fn max_ctx_depth(mut self, depth: u32) -> Self {
        self.config.max_ctx_depth = depth;
        self
    }

    /// Search budget: explored vertices per source.
    pub fn max_visited_per_source(mut self, budget: usize) -> Self {
        self.config.max_visited_per_source = budget;
        self
    }

    /// Solver budget: accumulated constraints per query.
    pub fn max_constraints(mut self, budget: usize) -> Self {
        self.config.cond.max_constraints = budget;
        self
    }

    /// Enables or disables the §3.1.1 linear-time contradiction pruning
    /// in the points-to stage.
    pub fn prune(mut self, on: bool) -> Self {
        self.pta.prune = on;
        self
    }

    /// Runs IR well-formedness verification after lowering, failing the
    /// build with [`PinpointError::Verify`] on violations.
    pub fn verify_ir(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Selects the checkers [`Analysis::check_configured`] runs.
    pub fn checkers(mut self, kinds: impl IntoIterator<Item = CheckerKind>) -> Self {
        self.checkers = kinds.into_iter().collect();
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
    /// end, [`PinpointError::Verify`] under [`AnalysisBuilder::verify_ir`],
    /// and [`PinpointError::SolverBudget`] for unusable budgets.
    pub fn build_source(self, src: &str) -> Result<Analysis, PinpointError> {
        let mut trace = self.make_trace();
        let front_span = trace.open("frontend", "");
        let t = Instant::now();
        let compiled = compile_source(src, self.threads, &mut trace)?;
        let front_time = t.elapsed();
        trace.close(front_span);
        let mut analysis = self.build_module_traced(compiled.module, trace)?;
        analysis.stats.front_time = front_time;
        analysis.stats.front_tokens = compiled.tokens;
        analysis.stats.front_bytes = compiled.bytes;
        Ok(analysis)
    }

    /// Runs the points-to and SEG stages over an existing module.
    ///
    /// # Errors
    ///
    /// [`PinpointError::Verify`] under [`AnalysisBuilder::verify_ir`] and
    /// [`PinpointError::SolverBudget`] for unusable budgets.
    pub fn build_module(self, module: Module) -> Result<Analysis, PinpointError> {
        let trace = self.make_trace();
        self.build_module_traced(module, trace)
    }

    fn make_trace(&self) -> TraceBuf {
        if self.trace {
            TraceBuf::on()
        } else {
            TraceBuf::off()
        }
    }

    fn build_module_traced(
        self,
        module: Module,
        mut trace: TraceBuf,
    ) -> Result<Analysis, PinpointError> {
        self.validate()?;
        if self.verify {
            let errors = pinpoint_ir::verify_module(&module);
            if !errors.is_empty() {
                return Err(PinpointError::Verify(errors));
            }
        }
        let mut stats = PipelineStats::default();
        let built = run_stages(
            module,
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
            checkers: self.checkers,
            func_keys: built.func_keys,
            keys_fp: built.keys_fp,
            stats,
            trace,
        })
    }
}

/// The verdict store under `dir`, if there is a directory and it opens.
fn open_store(dir: Option<&Path>) -> Option<CacheStore> {
    CacheStore::open(dir?).ok()
}

/// Builds the module's one call graph and derives the per-function cache
/// keys over it, under the `callgraph` and `keys` spans, recording both
/// stages' times. Runs against the *pre-transform* module; the
/// transform leaves the graph unchanged, so every later stage borrows
/// this one.
fn graph_and_keys(
    module: &Module,
    pta: &PtaConfig,
    trace: &mut TraceBuf,
    stats: &mut PipelineStats,
) -> (Arc<CallGraph>, Vec<u128>) {
    let t = Instant::now();
    let callgraph = trace.span("callgraph", "", |_| Arc::new(CallGraph::new(module)));
    stats.callgraph_time = t.elapsed();
    let t = Instant::now();
    let keys = trace.span("keys", "", |_| {
        module_keys_with_graph(module, config_fp(pta), &callgraph)
    });
    stats.keys_time = t.elapsed();
    (callgraph, keys)
}

/// What one run of the build stages leaves for the next to splice from:
/// an artefact's transformed module, points-to analysis (arena included),
/// SEGs, and the fingerprint keys of its pre-transform functions.
struct Previous {
    module: Module,
    pta: ModuleAnalysis,
    segs: ModuleSeg,
    func_keys: Vec<u128>,
}

/// What the build stages produce: the artefact minus its configuration.
struct Built {
    module: Module,
    /// Points-to artefacts, the arena moved out into [`Built::arena`].
    pta: ModuleAnalysis,
    segs: ModuleSeg,
    callgraph: Arc<CallGraph>,
    arena: TermArena,
    func_keys: Vec<u128>,
    keys_fp: u128,
    outcome: UpdateOutcome,
}

/// The build stages over the pre-transform `module`, in order: call graph
/// and keys, points-to, SEG, then the structural statistics — recording
/// spans into `trace` and times and counters into `stats`.
///
/// A build is an edit with nothing to splice. With a `previous` run, the
/// functions whose keys changed are the dirty set: both stages splice
/// everything else from it and analyse only those (see
/// [`pinpoint_pta::incremental`]). A changed function set splices nothing
/// (`fell_back`), so that run is a cold build.
fn run_stages(
    mut module: Module,
    previous: Option<Previous>,
    config: &PtaConfig,
    threads: usize,
    trace: &mut TraceBuf,
    stats: &mut PipelineStats,
) -> Built {
    let (callgraph, func_keys) = graph_and_keys(&module, config, trace, stats);
    // Key diffs are caller-closed: an edit anywhere below a function
    // changes that function's transitive key, so the dirty set needs no
    // further closure.
    let (previous, old_segs) = match previous {
        Some(p) => {
            let dirty = func_keys
                .iter()
                .zip(&p.func_keys)
                .enumerate()
                .filter(|(_, (new, old))| new != old)
                .map(|(i, _)| FuncId(i as u32))
                .collect();
            let run = PreviousRun {
                module: p.module,
                analysis: p.pta,
                dirty,
            };
            (Some(run), Some(p.segs))
        }
        None => (None, None),
    };
    let t = Instant::now();
    let span = trace.open("pta", "");
    let out = analyze_module_par(&mut module, config, threads, trace, &callgraph, previous);
    trace.close(span);
    stats.pta_time = t.elapsed();
    debug_assert!(
        callgraph.describes(&module),
        "the connector transform must not change the call graph"
    );
    let mut pta = out.analysis;
    stats.pta = pta.total_stats();
    let t = Instant::now();
    let mut arena = std::mem::take(&mut pta.arena);
    let reuse = old_segs
        .filter(|_| !out.fell_back)
        .map(|segs| (segs, out.reanalyzed.as_slice()));
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
    stats.seg_vertices = segs.vertex_count;
    stats.seg_edges = segs.edge_count;
    stats.seg_bytes = segs.heap_bytes();
    stats.terms = arena.len();
    Built {
        module,
        pta,
        segs,
        callgraph,
        arena,
        keys_fp: keys_fingerprint(&func_keys),
        func_keys,
        outcome: UpdateOutcome {
            reanalyzed: out.reanalyzed.len(),
            reused: out.reused,
            fell_back: out.fell_back,
        },
    }
}

/// What [`Analysis::update_incremental`] reused versus recomputed.
#[derive(Debug, Clone, Copy)]
pub struct UpdateOutcome {
    /// Functions whose points-to/SEG artefacts were re-analysed (the
    /// edited functions plus their transitive callers).
    pub reanalyzed: usize,
    /// Functions whose artefacts were spliced from the previous run.
    pub reused: usize,
    /// `true` when the incremental path was abandoned for a full rebuild
    /// (the function set changed shape).
    pub fell_back: bool,
}

/// The immutable Pinpoint analysis artefact, ready to run checkers.
///
/// Built by [`AnalysisBuilder`]; all querying goes through `&self` (a
/// [`DetectSession`] owns the per-query scratch state), so concurrent
/// checkers are safe. The only mutating operation is
/// [`Analysis::update_incremental`], which replaces the artefact for an
/// edited program.
///
/// # Examples
///
/// ```
/// use pinpoint_core::{Analysis, CheckerKind};
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
/// let reports = analysis.check(CheckerKind::UseAfterFree);
/// assert_eq!(reports.len(), 1);
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
    /// Sessions and workspaces seed their own accumulating tables from
    /// this snapshot.
    pub(crate) verdicts: VerdictTable,
    /// Where to persist newly-established verdicts (the builder's
    /// [`AnalysisBuilder::cache_dir`]).
    pub(crate) cache_dir: Option<PathBuf>,
    /// Session-default detection configuration (from the builder).
    config: DetectConfig,
    /// Points-to configuration (from the builder) — needed to recompute
    /// fingerprint keys after incremental updates.
    pta_config: PtaConfig,
    /// Worker count (from the builder).
    threads: usize,
    /// Checker selection (from the builder).
    checkers: Vec<CheckerKind>,
    /// Per-function transitive fingerprint keys of the pre-transform
    /// module ([`pinpoint_cache::module_keys`] order, indexed by
    /// `FuncId`). Kept current across incremental updates; the query
    /// cache validates cone fingerprints against them.
    pub(crate) func_keys: Vec<u128>,
    /// [`keys_fingerprint`] of `func_keys`, hashed once per build or
    /// update: the stamp in-memory interface summaries are valid under.
    pub(crate) keys_fp: u128,
    /// Build-stage statistics (detection counters stay zero here; see
    /// [`DetectSession::stats`]).
    pub stats: PipelineStats,
    /// Build-stage spans (frontend, pta, seg), recorded when the builder
    /// enabled [`AnalysisBuilder::trace`]; sessions extend a clone with
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

    /// The detection configuration sessions start from.
    pub fn config(&self) -> DetectConfig {
        self.config
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The checkers [`Analysis::check_configured`] runs.
    pub fn checkers(&self) -> &[CheckerKind] {
        &self.checkers
    }

    /// The build-stage span trace ([`TraceBuf::Off`] unless the builder
    /// enabled [`AnalysisBuilder::trace`]).
    pub fn trace(&self) -> &TraceBuf {
        &self.trace
    }

    /// Opens a detection session owning its scratch state. Sessions
    /// borrow the artefact immutably, so several can run concurrently
    /// (from separate threads) without synchronisation.
    pub fn session(&self) -> DetectSession<'_> {
        DetectSession {
            analysis: self,
            config: self.config,
            runner: QueryRunner::new(self),
        }
    }

    /// Runs one checker with the artefact's default configuration,
    /// discarding session statistics. Shorthand for
    /// `self.session().check(kind)`.
    pub fn check(&self, kind: CheckerKind) -> Vec<Report> {
        self.session().check(kind)
    }

    /// Runs a user-defined property specification (see
    /// [`crate::spec::Spec`]).
    pub fn check_custom(&self, spec: &crate::spec::Spec) -> Vec<Report> {
        self.session().check_custom(spec)
    }

    /// Runs every supported checker.
    pub fn check_all(&self) -> Vec<Report> {
        self.session().check_all()
    }

    /// Runs the checkers selected at build time
    /// ([`AnalysisBuilder::checkers`]).
    pub fn check_configured(&self) -> Vec<Report> {
        self.session().check_configured()
    }

    /// Runs the memory-leak checker (see [`crate::leak`]).
    pub fn check_leaks(&self) -> Vec<crate::leak::LeakReport> {
        self.session().check_leaks()
    }

    /// Incrementally updates this analysis for an edited version of the
    /// program (see [`pinpoint_pta::incremental`]). The edit is detected
    /// automatically: the new module's per-function fingerprint keys are
    /// diffed against the previous build's, and exactly the functions
    /// whose keys changed — the edited ones plus, because keys are
    /// transitive over the call graph, their transitive callers — are
    /// re-analysed. Everything else (transformed bodies, points-to
    /// results, SEGs, hash-consed terms) is spliced from the previous
    /// artefact.
    ///
    /// # Errors
    ///
    /// Returns typed front-end errors for the new source.
    pub fn update_incremental(&mut self, new_source: &str) -> Result<UpdateOutcome, PinpointError> {
        let t = Instant::now();
        let compiled = compile_source(new_source, self.threads, &mut TraceBuf::off())?;
        self.stats.front_time = t.elapsed();
        self.stats.front_tokens = compiled.tokens;
        self.stats.front_bytes = compiled.bytes;
        Ok(self.update_module_incremental(compiled.module))
    }

    /// [`Analysis::update_incremental`] over an already-compiled
    /// (pre-transform) module.
    pub fn update_module_incremental(&mut self, new_module: Module) -> UpdateOutcome {
        let mut pta = std::mem::take(&mut self.pta);
        pta.arena = self.take_arena();
        let previous = Previous {
            module: std::mem::take(&mut self.module),
            pta,
            segs: std::mem::take(&mut self.segs),
            func_keys: std::mem::take(&mut self.func_keys),
        };
        // Updates are untraced (the artefact's trace is its build's), so
        // only the stage times are kept.
        let built = run_stages(
            new_module,
            Some(previous),
            &self.pta_config,
            self.threads,
            &mut TraceBuf::off(),
            &mut self.stats,
        );
        self.module = built.module;
        self.pta = built.pta;
        self.segs = built.segs;
        self.callgraph = built.callgraph;
        self.arena = Arc::new(built.arena);
        self.func_keys = built.func_keys;
        self.keys_fp = built.keys_fp;
        built.outcome
    }

    /// Takes the interner out of its shared handle for mutation. The
    /// `&mut self` receiver guarantees no session borrows the artefact;
    /// worker overlays only hold the `Arc` during a run, so this is
    /// normally free (falls back to a deep clone if a stray handle
    /// survives).
    fn take_arena(&mut self) -> TermArena {
        let arc = std::mem::take(&mut self.arena);
        Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone())
    }

    /// A rough structural memory proxy in bytes: term arena + SEG edges +
    /// points-to facts. Used by the evaluation harness alongside the real
    /// allocator counter.
    pub fn structural_bytes(&self) -> usize {
        // A term is one kind plus one sort entry in the arena's parallel
        // vectors; a points-to fact is one `(Obj, TermId)` pair.
        let per_term = std::mem::size_of::<pinpoint_smt::TermKind>()
            + std::mem::size_of::<pinpoint_smt::Sort>();
        let per_fact = std::mem::size_of::<(pinpoint_pta::Obj, pinpoint_smt::TermId)>();
        let term_bytes = self.arena.len() * per_term;
        let edge_bytes = self.stats.seg_edges * std::mem::size_of::<crate::seg::SegEdge>();
        let pt_bytes: usize = self
            .pta
            .pta
            .iter()
            .map(|p| p.points_to.fact_count() * per_fact)
            .sum();
        term_bytes + edge_bytes + pt_bytes
    }
}

/// The query state machine under both check surfaces: a
/// [`DetectSession`] is `&Analysis` + a runner, a
/// [`Workspace`](crate::workspace::Workspace) is `Analysis` + a runner +
/// the per-source [`QueryCache`] and its counters. The runner owns
/// everything a sequence of queries accumulates — detection counters,
/// per-query attribution, the span trace, the verdict table with its
/// persist watermark, and the in-memory interface summaries — and is
/// handed the artefact on every call, so it survives the workspace
/// replacing its artefact under it.
#[derive(Debug)]
pub(crate) struct QueryRunner {
    pub(crate) threads: usize,
    /// Skip the summary gate and search every source: the reference the
    /// gated search is compared against ([`DetectSession::ungated`]).
    ungated: bool,
    detect_time: Duration,
    detect: DetectStats,
    /// Build-stage spans (cloned from the artefact) extended with the
    /// detection spans of this runner's queries.
    pub(crate) trace: TraceBuf,
    /// Per-query solver attribution accumulated across checker runs, ids
    /// in deterministic replay order.
    pub(crate) queries: Vec<QueryRecord>,
    /// The accumulating verdict table, seeded from the artefact's
    /// persisted snapshot. Each run consults the table as it stood when
    /// the run started and merges what it learned afterwards, so later
    /// queries reuse earlier verdicts while each run stays thread-count
    /// invariant. Verdicts survive edits — canonical fingerprints are
    /// arena-independent, so even a full fallback (which clears the
    /// per-source query cache) keeps them valid.
    verdicts: VerdictTable,
    /// Table size at the last persist — the already-durable prefix.
    persisted_len: usize,
    /// Verdicts newly written to the persistent store by this runner.
    verdicts_persisted: u64,
    /// Where new verdicts persist: the artefact's cache directory, if it
    /// has one and it opened.
    store: Option<CacheStore>,
    /// The interface summaries forced so far, per property fingerprint,
    /// stamped with the artefact's [`Analysis::keys_fp`] they were forced
    /// under: an edit changes the keys of exactly the edited functions
    /// and (via transitive folding) their SCCs' callers, so a stale memo
    /// is dropped and the next gate forces only what it reads. Under a
    /// session the artefact is immutable and the stamp always matches.
    summaries: HashMap<u128, (u128, ModuleSummaries)>,
}

impl QueryRunner {
    pub(crate) fn new(analysis: &Analysis) -> Self {
        let verdicts = analysis.verdicts.clone();
        QueryRunner {
            threads: analysis.threads,
            ungated: false,
            detect_time: Duration::ZERO,
            detect: DetectStats::default(),
            trace: analysis.trace.clone(),
            queries: Vec::new(),
            persisted_len: verdicts.len(),
            verdicts,
            verdicts_persisted: 0,
            store: open_store(analysis.cache_dir.as_deref()),
            summaries: HashMap::new(),
        }
    }

    /// The interface-summary memo for `spec` over `a`: the one an earlier
    /// query of this runner forced, if the artefact's keys have not
    /// changed since, else an empty one. Its counters start from zero
    /// either way, so after the run they are what this query forced —
    /// summaries already in memory cost nothing and count nowhere.
    fn summaries_for(&mut self, a: &Analysis, spec: &crate::spec::Spec) -> ModuleSummaries {
        match self.summaries.remove(&summary_fingerprint(spec)) {
            Some((stamp, mut sums)) if stamp == a.keys_fp => {
                (sums.built, sums.composed) = (0, 0);
                sums
            }
            _ => ModuleSummaries::new(a.module.funcs.len()),
        }
    }

    /// Runs one property over `a` under `config` and folds its outcome
    /// into the accumulated state: gate, then query cache (`cache`, the
    /// workspace's), then search. Returns the reports and the cache's
    /// reuse split.
    pub(crate) fn run(
        &mut self,
        a: &Analysis,
        config: DetectConfig,
        spec: &crate::spec::Spec,
        kind: Option<CheckerKind>,
        cache: Option<&mut QueryCache>,
    ) -> (Vec<Report>, QueryReuse) {
        let t0 = Instant::now();
        let span = self.trace.open("detect", spec.name.clone());
        let base_id = u32::try_from(self.queries.len()).expect("query count fits u32");
        let mut sums = (!self.ungated).then(|| self.summaries_for(a, spec));
        let mut out = run_spec(
            a,
            &self.verdicts,
            spec,
            kind,
            config,
            self.threads,
            &mut self.trace,
            &mut self.detect,
            sums.as_mut(),
            cache,
        );
        if let Some(sums) = sums {
            self.summaries
                .insert(summary_fingerprint(spec), (a.keys_fp, sums));
        }
        self.trace.close(span);
        for q in &mut out.queries {
            q.id += base_id;
        }
        self.queries.extend(out.queries);
        self.detect_time += t0.elapsed();
        for (fp, v) in out.new_verdicts {
            self.verdicts.insert(fp, v);
        }
        if let Some(store) = self.store.as_mut() {
            if self.verdicts.len() > self.persisted_len {
                persist_verdicts(store, &self.verdicts);
                self.verdicts_persisted += (self.verdicts.len() - self.persisted_len) as u64;
                self.persisted_len = self.verdicts.len();
            }
        }
        (out.reports, out.reuse)
    }

    /// Runs the memory-leak checker on private scratch copies of the
    /// symbol cache and arena. Leak checking is a whole-module graph
    /// reachability pass without per-source structure, so it is never
    /// query-cached; under a workspace it is still incremental through
    /// the spliced SEGs it reads.
    pub(crate) fn leaks(&mut self, a: &Analysis) -> Vec<crate::leak::LeakReport> {
        let t0 = Instant::now();
        let span = self.trace.open("detect", "memory-leak");
        let mut symbols = a.pta.symbols.clone();
        let mut arena = (*a.arena).clone();
        let reports = crate::leak::check_leaks(&a.module, &a.segs, &mut symbols, &mut arena);
        self.trace.close(span);
        self.detect_time += t0.elapsed();
        reports
    }

    /// The artefact's build stages plus the accumulated detection
    /// counters and time.
    pub(crate) fn stats(&self, a: &Analysis) -> PipelineStats {
        let mut s = a.stats;
        s.detect = self.detect;
        s.detect_time = self.detect_time;
        if let Some(store) = &self.store {
            // This handle only ever writes.
            s.cache.store_ns += store.stats().store_ns;
        }
        s
    }

    /// The unified metrics registry covering all five stage families
    /// (frontend, pta, seg, detect, smt), absorbing the per-crate stats
    /// structs into the dotted-name schema.
    pub(crate) fn metrics(&self, a: &Analysis) -> MetricsRegistry {
        let s = self.stats(a);
        let mut m = MetricsRegistry::new();
        m.counter_add("frontend.time_ns", s.front_time.as_nanos() as u64);
        m.counter_add("frontend.bytes", s.front_bytes as u64);
        m.counter_add("frontend.tokens", s.front_tokens as u64);
        m.counter_add("frontend.funcs", a.module.funcs.len() as u64);
        m.counter_add(
            "frontend.insts",
            a.module
                .funcs
                .iter()
                .map(|f| f.iter_insts().count() as u64)
                .sum(),
        );
        m.counter_add("callgraph.time_ns", s.callgraph_time.as_nanos() as u64);
        m.counter_add("callgraph.edges", a.callgraph.edge_count() as u64);
        m.counter_add("callgraph.sccs", a.callgraph.scc_count() as u64);
        m.counter_add("callgraph.max_callers", a.callgraph.max_callers() as u64);
        m.counter_add("keys.time_ns", s.keys_time.as_nanos() as u64);
        m.counter_add("pta.time_ns", s.pta_time.as_nanos() as u64);
        s.pta.record_into(&mut m);
        m.counter_add("seg.time_ns", s.seg_time.as_nanos() as u64);
        m.counter_add("seg.vertices", s.seg_vertices as u64);
        m.counter_add("seg.edges", s.seg_edges as u64);
        m.counter_add("seg.bytes", s.seg_bytes as u64);
        m.counter_add("seg.terms", s.terms as u64);
        // Always present (zero without a cache directory) so the exported
        // schema is shape-stable.
        m.counter_add("cache.hits", s.cache.hits);
        m.counter_add("cache.misses", s.cache.misses);
        m.counter_add("cache.invalidated", s.cache.invalidated);
        m.counter_add("cache.load_ns", s.cache.load_ns);
        m.counter_add("cache.store_ns", s.cache.store_ns);
        m.counter_add("detect.time_ns", s.detect_time.as_nanos() as u64);
        m.counter_add("detect.sources", s.detect.sources);
        m.counter_add("detect.visited", s.detect.visited);
        m.counter_add("detect.candidates", s.detect.candidates);
        m.counter_add("detect.refuted", s.detect.refuted);
        m.counter_add("detect.linear_refuted", s.detect.linear_refuted);
        m.counter_add("detect.skipped_descents", s.detect.skipped_descents);
        m.counter_add("detect.budget_exhausted", s.detect.budget_exhausted);
        m.counter_add("detect.reports", s.detect.reports);
        // The summary gate: interface summaries built, the interface
        // edges composed while building, and the sources the gate
        // answered without a search.
        m.counter_add("summary.built", s.detect.summary_built);
        m.counter_add("summary.composed", s.detect.summary_composed);
        m.counter_add("summary.gated", s.detect.summary_gated);
        // The SMT family is derived from per-query attribution, so the
        // aggregate and the query rows can never disagree.
        m.counter_add("smt.queries", self.queries.len() as u64);
        for q in &self.queries {
            m.counter_add("smt.solve_ns", q.cost.solver_ns);
            m.counter_add("smt.conflicts", q.cost.conflicts);
            m.counter_add("smt.learned", q.cost.learned);
            m.counter_add("smt.propagations", q.cost.propagations);
            m.counter_add("smt.decisions", q.cost.decisions);
            m.counter_add("smt.theory_checks", q.cost.theory_checks);
            m.counter_add("smt.theory_conflicts", q.cost.theory_conflicts);
            m.counter_add("smt.budget_exhausted", q.cost.budget_exhausted);
            m.hist_record("smt.query_ns", q.cost.solver_ns);
            m.hist_record("smt.conflicts_per_query", q.cost.conflicts);
        }
        // Cross-query condition reuse: how often the verdict table answered
        // for the solver, and how much incremental-session state the misses
        // inherited.
        m.counter_add("smt.verdict.hits", s.detect.verdict_hits);
        m.counter_add("smt.verdict.misses", s.detect.verdict_misses);
        m.counter_add("smt.verdict.persisted", self.verdicts_persisted);
        m.counter_add("smt.incremental.reused_clauses", s.detect.reused_clauses);
        m.counter_add("smt.incremental.sessions", s.detect.sessions);
        // Keep the family's keys present even with zero queries so the
        // exported schema is shape-stable.
        for key in [
            "smt.solve_ns",
            "smt.conflicts",
            "smt.learned",
            "smt.propagations",
            "smt.decisions",
            "smt.theory_checks",
            "smt.theory_conflicts",
            "smt.budget_exhausted",
        ] {
            m.counter_add(key, 0);
        }
        m
    }

    /// The `pinpoint-stats-v1` document over `metrics` ([`Self::metrics`],
    /// plus whatever families the caller added): run metadata, per-stage
    /// counters, histograms, and the per-query attribution rows.
    /// `canonical` zeroes wall-clock values and omits run metadata,
    /// making the bytes thread-count invariant.
    pub(crate) fn stats_json(&self, metrics: &MetricsRegistry, canonical: bool) -> String {
        metrics.stats_json(
            &[("threads", self.threads as u64)],
            Some(&queries_json(&self.queries, canonical)),
            canonical,
        )
    }

    /// Renders the top-`k` rows of the per-`(checker, function)` "where
    /// did the time go" table.
    pub(crate) fn profile(&self, k: usize) -> String {
        ProfileTable::build(&self.queries).render(k)
    }
}

/// A detection session: per-query configuration and statistics over an
/// immutable [`Analysis`].
///
/// Each `check*` call shards its sources over the session's worker count;
/// workers own private arenas and solver instances, and their outcomes
/// are merged in canonical `(function, site)` order, so reports are
/// byte-identical for any thread count. Because the session only borrows
/// the artefact, sessions on separate threads run fully concurrently.
#[derive(Debug)]
pub struct DetectSession<'a> {
    analysis: &'a Analysis,
    /// Detection configuration for this session's queries (starts from
    /// the artefact's build-time configuration).
    pub config: DetectConfig,
    runner: QueryRunner,
}

impl<'a> DetectSession<'a> {
    /// The artefact this session queries.
    pub fn analysis(&self) -> &'a Analysis {
        self.analysis
    }

    /// Overrides the worker count for this session.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.runner.threads = n.max(1);
        self
    }

    /// Overrides the detection configuration for this session.
    pub fn with_config(mut self, config: DetectConfig) -> Self {
        self.config = config;
        self
    }

    /// The reference search: every source is searched, none gated by the
    /// interface summaries. Reports are byte-identical either way; this
    /// exists so the `engines` fuzz oracle and the tests can say so.
    #[doc(hidden)]
    pub fn ungated(mut self) -> Self {
        self.runner.ungated = true;
        self
    }

    /// Runs one checker, returning its reports.
    pub fn check(&mut self, kind: CheckerKind) -> Vec<Report> {
        let spec = kind.spec();
        let run = self
            .runner
            .run(self.analysis, self.config, &spec, Some(kind), None);
        run.0
    }

    /// Runs a user-defined property specification.
    pub fn check_custom(&mut self, spec: &crate::spec::Spec) -> Vec<Report> {
        let run = self
            .runner
            .run(self.analysis, self.config, spec, None, None);
        run.0
    }

    /// Runs every supported checker.
    pub fn check_all(&mut self) -> Vec<Report> {
        CheckerKind::ALL
            .into_iter()
            .flat_map(|k| self.check(k))
            .collect()
    }

    /// Runs the checkers selected at build time.
    pub fn check_configured(&mut self) -> Vec<Report> {
        let analysis = self.analysis;
        analysis
            .checkers
            .iter()
            .flat_map(|&k| self.check(k))
            .collect()
    }

    /// Runs the memory-leak checker on session-private scratch copies of
    /// the symbol cache and arena.
    pub fn check_leaks(&mut self) -> Vec<crate::leak::LeakReport> {
        self.runner.leaks(self.analysis)
    }

    /// Combined statistics: the artefact's build stages plus this
    /// session's accumulated detection counters and time.
    pub fn stats(&self) -> PipelineStats {
        self.runner.stats(self.analysis)
    }

    /// Per-query solver attribution accumulated so far (ids in the
    /// deterministic replay order they were evaluated in).
    pub fn queries(&self) -> &[QueryRecord] {
        &self.runner.queries
    }

    /// The session's span trace: build stages plus this session's
    /// detection spans.
    pub fn trace(&self) -> &TraceBuf {
        &self.runner.trace
    }

    /// Chrome trace-event JSON of the session's spans (Perfetto-loadable).
    pub fn trace_json(&self) -> String {
        self.trace().chrome_json()
    }

    /// Normalized trace (timings/lanes dropped, rows sorted) —
    /// byte-identical across thread counts.
    pub fn trace_canonical_json(&self) -> String {
        self.trace().canonical_json()
    }

    /// The unified metrics registry covering all five stage families
    /// (frontend, pta, seg, detect, smt).
    pub fn metrics(&self) -> MetricsRegistry {
        self.runner.metrics(self.analysis)
    }

    /// The unified stats document (`pinpoint-stats-v1`): run metadata,
    /// per-stage counters, histograms, and the per-query attribution
    /// rows. `canonical` zeroes wall-clock values and omits run metadata,
    /// making the bytes thread-count invariant.
    pub fn stats_json(&self, canonical: bool) -> String {
        self.runner.stats_json(&self.metrics(), canonical)
    }

    /// Renders the top-`k` rows of the per-`(checker, function)` "where
    /// did the time go" table.
    pub fn profile(&self, k: usize) -> String {
        self.runner.profile(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CheckerKind;

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
            a.check(CheckerKind::UseAfterFree).len(),
            b.check(CheckerKind::UseAfterFree).len()
        );
    }

    #[test]
    fn zero_budgets_rejected() {
        let err = AnalysisBuilder::new()
            .max_visited_per_source(0)
            .build_source(UAF)
            .unwrap_err();
        assert!(matches!(err, PinpointError::SolverBudget(_)), "{err:?}");
        let err = AnalysisBuilder::new()
            .max_constraints(0)
            .build_source(UAF)
            .unwrap_err();
        assert!(matches!(err, PinpointError::SolverBudget(_)), "{err:?}");
    }

    #[test]
    fn verify_ir_accepts_wellformed_modules() {
        let a = AnalysisBuilder::new().verify_ir(true).build_source(UAF);
        assert!(a.is_ok(), "{:?}", a.err());
    }

    #[test]
    fn session_accumulates_stats_across_checkers() {
        let a = Analysis::from_source(UAF).unwrap();
        let mut s = a.session();
        let reports = s.check(CheckerKind::UseAfterFree);
        assert_eq!(reports.len(), 1);
        let after_one = s.stats().detect.sources;
        assert!(after_one > 0);
        s.check(CheckerKind::NullDeref);
        assert!(s.stats().detect.sources >= after_one);
        // The artefact's own stats never grow detection counters.
        assert_eq!(a.stats.detect.sources, 0);
    }

    #[test]
    fn checker_selection_drives_check_configured() {
        let src = "fn main() {
            let p: int* = malloc();
            free(p);
            let x: int = *p;
            print(x);
            let input: int = fgetc();
            let h: int = fopen(input);
            print(h);
            return;
        }";
        let uaf_only = AnalysisBuilder::new()
            .checkers([CheckerKind::UseAfterFree])
            .build_source(src)
            .unwrap();
        let reports = uaf_only.check_configured();
        assert!(reports
            .iter()
            .all(|r| r.kind == Some(CheckerKind::UseAfterFree)));
        assert_eq!(reports.len(), 1);
        let all = AnalysisBuilder::new().build_source(src).unwrap();
        assert!(all.check_configured().len() > reports.len());
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
            let h1 = s.spawn(move || a.session().check(CheckerKind::UseAfterFree));
            let h2 = s.spawn(move || a.session().check(CheckerKind::PathTraversal));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(uaf.len(), 1);
        assert_eq!(taint.len(), 1);
        // Identical to what the same checkers report sequentially.
        assert_eq!(
            uaf[0].description,
            a.check(CheckerKind::UseAfterFree)[0].description
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
        let render = |s: &mut DetectSession| -> Vec<String> {
            s.check_all().iter().map(ToString::to_string).collect()
        };
        let plain = AnalysisBuilder::new().build_source(src).unwrap();
        assert_eq!(plain.stats.cache, CacheStats::default());
        let expected = render(&mut plain.session());
        // The one object the store holds is the verdict table: nothing to
        // load before the first check, which then persists it.
        let cold = build();
        let c = cold.stats.cache;
        assert_eq!((c.hits, c.misses, c.invalidated), (0, 1, 0), "{c:?}");
        assert!(cold.verdicts.is_empty());
        let mut session = cold.session();
        assert_eq!(render(&mut session), expected);
        assert!(session.stats().cache.store_ns > 0, "the session persisted");
        // One hit after it, and every verdict the warm run needs is on
        // disk: nothing new to persist.
        let warm = build();
        let c = warm.stats.cache;
        assert_eq!((c.hits, c.misses, c.invalidated), (1, 0, 0), "{c:?}");
        assert!(!warm.verdicts.is_empty());
        assert_eq!(warm.arena.len(), plain.arena.len());
        let mut session = warm.session();
        assert_eq!(render(&mut session), expected);
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
        let rs: Vec<String> = seq.check_all().iter().map(ToString::to_string).collect();
        let rp: Vec<String> = par.check_all().iter().map(ToString::to_string).collect();
        assert_eq!(rs, rp);
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

    /// Full report rendering including witnesses — stricter than the
    /// display description, so warm replays must reproduce the exact
    /// witness assignments the cold solves recorded.
    fn full_reports(a: &Analysis, threads: usize) -> Vec<String> {
        let mut s = a.session().with_threads(threads);
        s.check_all().iter().map(|r| format!("{r:?}")).collect()
    }

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
        let cold_reports: Vec<String> = cold_session
            .check_all()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let cold_stats = cold_session.stats().detect;
        assert!(cold_stats.verdict_misses > 0, "{cold_stats:?}");
        assert!(cold_stats.sessions > 0, "{cold_stats:?}");
        // check_all runs five checkers; later ones reuse verdicts the
        // earlier ones persisted into the session table.
        drop(cold_session);
        let warm = AnalysisBuilder::new()
            .cache_dir(&dir)
            .build_source(VERDICT_WORKLOAD)
            .unwrap();
        assert!(!warm.verdicts.is_empty(), "verdicts persisted to disk");
        for threads in [1, 4] {
            let mut s = warm.session().with_threads(threads);
            let reports: Vec<String> = s.check_all().iter().map(|r| format!("{r:?}")).collect();
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
            .check(CheckerKind::UseAfterFree)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let after_first = s.stats().detect;
        assert!(after_first.verdict_misses > 0);
        let second: Vec<String> = s
            .check(CheckerKind::UseAfterFree)
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
        s.check(CheckerKind::UseAfterFree);
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
        let cold_reports = full_reports(&cold, 1);
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
            let reports: Vec<String> = s.check_all().iter().map(|r| format!("{r:?}")).collect();
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
