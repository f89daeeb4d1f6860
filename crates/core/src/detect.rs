//! Demand-driven global value-flow bug detection (§3.3).
//!
//! For every bug-specific source vertex the detector searches the *virtual
//! global SEG*: local SEG edges within a function, descents from actual
//! arguments into callee formals, ascents from return values to call-site
//! receivers, and global-cell channels. The search is demand-driven — the
//! expensive path- and context-sensitive computation only happens for
//! bug-related paths (§3.3.1(3)) — and compositional: each boundary
//! crossing reuses the callee's memoised constraints instead of
//! re-analysing it (the VF/RV summaries of §3.3.2 correspond to the edges
//! this search follows and the closures [`crate::cond`] instantiates).
//!
//! A completed source→sink path is turned into an *efficient path
//! condition* (Eq. 1–3) and handed to the SMT solver; only satisfiable
//! paths are reported.

use crate::cond::{CondBuilder, CondConfig, CtxId, CtxInterner, ROOT};
use crate::driver::Analysis;
use crate::seg::{EdgeKind, ModuleSeg, SegEdge};
use crate::spec::{self, CheckerKind, SinkRole, SinkSite, SourceSite, Spec};
use crate::summary::ParamSummaries;
use crate::vfsummary::{ModuleSummaries, SummaryCx};
use pinpoint_ir::{CallGraph, Cfg, DomTree, FuncId, InstId, Module, ValueId};
use pinpoint_obs::{QueryCost, QueryOutcome, QueryRecord, TraceBuf};
use pinpoint_pta::Symbols;
use pinpoint_smt::{
    canon_info, LastQueryCost, SmtResult, SmtSession, TermArena, Verdict, VerdictTable,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Detection tunables.
#[derive(Debug, Clone, Copy)]
pub struct DetectConfig {
    /// Maximum nesting of calling contexts (the paper uses six).
    pub max_ctx_depth: u32,
    /// Maximum explored vertices per source (search budget).
    pub max_visited_per_source: usize,
    /// Condition-construction tunables.
    pub cond: CondConfig,
    /// If `false`, candidates are reported without SMT filtering
    /// (used by ablation benchmarks).
    pub solve: bool,
    /// Also run the linear-time contradiction solver on every candidate
    /// condition, recording how many of the SMT-refuted conditions it
    /// would have caught (the §3.1.1 "easy constraints" measurement).
    pub measure_linear: bool,
    /// Use compositional VF summaries (§3.3.2) to prune fruitless
    /// descents (`false` is the summary-free ablation).
    pub use_summaries: bool,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            max_ctx_depth: 6,
            max_visited_per_source: 50_000,
            cond: CondConfig::default(),
            solve: true,
            measure_linear: false,
            use_summaries: true,
        }
    }
}

/// One step of a reported value-flow path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The function the value lives in.
    pub func: FuncId,
    /// The value.
    pub value: ValueId,
    /// Human-readable note (edge kind or boundary crossing).
    pub note: &'static str,
}

/// A bug report.
#[derive(Debug, Clone)]
pub struct Report {
    /// The checked property (`None` for user-defined specs; see
    /// [`Report::property`] for the name either way).
    pub kind: Option<CheckerKind>,
    /// The property name (a built-in checker's display name or the
    /// custom [`Spec::name`]).
    pub property: String,
    /// Where the value became dangerous.
    pub source_func: FuncId,
    /// Source statement.
    pub source_site: InstId,
    /// Where it is consumed.
    pub sink_func: FuncId,
    /// Sink statement.
    pub sink_site: InstId,
    /// How it is consumed.
    pub sink_role: SinkRole,
    /// The value-flow path (source value first).
    pub path: Vec<Step>,
    /// Number of conjuncts in the solved path condition.
    pub condition_size: usize,
    /// A witness assignment of the branch conditions that makes the path
    /// feasible (`function:variable = value`), extracted from the SMT
    /// model. Empty when the condition was trivially true or solving was
    /// disabled.
    pub witness: Vec<(String, bool)>,
    /// Name of the function holding the source statement.
    pub source_func_name: String,
    /// Name of the function holding the sink statement.
    pub sink_func_name: String,
    /// Human-readable rendering of the value-flow path
    /// (`[property] func:value → …`), resolved at creation so the report
    /// is self-describing without the [`Module`].
    pub description: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.description)
    }
}

/// Statistics of one detection run.
#[derive(Debug, Default, Clone, Copy)]
pub struct DetectStats {
    /// Sources enumerated.
    pub sources: u64,
    /// Vertices visited across all searches.
    pub visited: u64,
    /// Candidate source→sink pairs found by the graph search.
    pub candidates: u64,
    /// Candidates refuted by the SMT solver (path-sensitivity wins).
    pub refuted: u64,
    /// Of the refuted candidates, how many the linear-time solver alone
    /// would have refuted (only counted under
    /// [`DetectConfig::measure_linear`]).
    pub linear_refuted: u64,
    /// Call-site descents skipped because the callee's VF summary proved
    /// the parameter fruitless.
    pub skipped_descents: u64,
    /// Source searches that exhausted [`DetectConfig::max_visited_per_source`]
    /// and stopped early — their outcomes are truncated, not complete.
    /// Surfaced (rather than silently dropped) so a zero here certifies
    /// that every search ran to completion.
    pub budget_exhausted: u64,
    /// Reports emitted.
    pub reports: u64,
    /// Candidate conditions answered from the verdict table — the run's
    /// starting snapshot or an earlier candidate of the same source —
    /// without a CDCL solve.
    pub verdict_hits: u64,
    /// Candidate conditions that required a full solver call. A warm run
    /// over an unchanged program performs strictly fewer of these than a
    /// cold one whenever any condition was previously solved.
    pub verdict_misses: u64,
    /// Learned clauses already resident in a worker's incremental solver
    /// session when a query arrived, summed over queries — the clause
    /// reuse that per-query solver construction would have thrown away.
    pub reused_clauses: u64,
    /// Incremental solver sessions that performed at least one solve
    /// (one session per source search that missed the verdict table).
    pub sessions: u64,
    /// Sources the whole-program summary gate proved fruitless and
    /// answered with an empty outcome, no search run.
    pub summary_gated: u64,
    /// Function interface summaries the gate demanded and computed. One
    /// already forced by an earlier query of the same session or
    /// workspace costs nothing and counts nowhere.
    pub summary_built: u64,
    /// Interface edges composed at call sites while computing summaries.
    pub summary_composed: u64,
}

/// One node of the search: a value in a function under a context, with the
/// calling stack for return matching.
#[derive(Debug, Clone)]
struct Node {
    func: FuncId,
    value: ValueId,
    ctx: CtxId,
    /// Frames to return into: (caller func, caller ctx, call site).
    stack: Rc<Vec<(FuncId, CtxId, InstId)>>,
    /// Parent pointer for path/condition reconstruction.
    trace: Rc<Trace>,
    depth: u32,
    /// Danger onset within `func`: sinks ordered strictly before this
    /// statement cannot consume the dangerous value (the value only
    /// arrives here at/after it). `None` = the whole function.
    since: Option<InstId>,
}

/// Reverse-linked trace of how a node was reached.
#[derive(Debug)]
enum Trace {
    Start,
    Local {
        parent: Rc<Trace>,
        edge: SegEdge,
        func: FuncId,
        ctx: CtxId,
    },
    Descend {
        parent: Rc<Trace>,
        caller: FuncId,
        caller_ctx: CtxId,
        site: InstId,
        callee: FuncId,
        callee_ctx: CtxId,
        arg_index: usize,
    },
    Ascend {
        parent: Rc<Trace>,
        callee: FuncId,
        callee_ctx: CtxId,
        ret_value: ValueId,
        caller: FuncId,
        caller_ctx: CtxId,
        site: InstId,
        recv: ValueId,
    },
    GlobalChannel {
        parent: Rc<Trace>,
        src_func: FuncId,
        src_value: ValueId,
        src_cond: pinpoint_smt::TermId,
        dst_func: FuncId,
        dst_value: ValueId,
        dst_cond: pinpoint_smt::TermId,
    },
    /// VF3-style ascent: a dangerous formal parameter maps back to the
    /// caller's actual argument.
    ParamAscend {
        parent: Rc<Trace>,
        callee: FuncId,
        callee_ctx: CtxId,
        caller: FuncId,
        caller_ctx: CtxId,
        site: InstId,
        actual: ValueId,
    },
}

/// A candidate source→sink pair key: `(source func, source site, sink
/// func, sink site)`.
type CandidateKey = (FuncId, InstId, FuncId, InstId);

/// One candidate found during a worker's search, in per-source discovery
/// order. Recorded instead of immediately reported so the merge can
/// replay cross-source deduplication deterministically.
#[derive(Debug, Clone)]
struct CandidateEvent {
    key: CandidateKey,
    /// The mirrored key a free→free pair also suppresses (double-free
    /// symmetry).
    mirror: Option<CandidateKey>,
    /// The report, when the path condition was satisfiable (or solving
    /// was disabled); `None` means the SMT solver refuted it.
    report: Option<Report>,
    /// Whether the linear-time solver alone would have refuted it
    /// (only computed under [`DetectConfig::measure_linear`]).
    linear_refuted: bool,
    /// The DPLL(T) cost of evaluating this candidate's path condition
    /// (all zero when solving was disabled or trivially short-circuited).
    cost: LastQueryCost,
}

/// Everything one source's search produced.
///
/// Besides the candidate events and counters the merge replays, the
/// outcome records the *dependency cone* of the search: every function a
/// node of the search lived in (`cone`), every function whose caller
/// list the search consulted for an unmatched or parameter ascent
/// (`callers_consulted`), and every global whose load list fed a
/// global-cell channel (`globals_consulted`). Together with the
/// transitive per-function fingerprint keys, these determine the search
/// result completely (see [`cone_fingerprint`]), which is what makes
/// per-source caching across edits sound.
#[derive(Debug, Clone)]
struct SourceOutcome {
    events: Vec<CandidateEvent>,
    visited: u64,
    skipped_descents: u64,
    /// Candidates answered from the verdict table without a solver call.
    verdict_hits: u64,
    /// Candidates that went through a full solve.
    verdict_misses: u64,
    /// Learned clauses already resident in the source's incremental
    /// session when each query arrived, summed over queries.
    reused_clauses: u64,
    /// Verdicts this source's solves established, in discovery order,
    /// excluding fingerprints already answered by the run's snapshot.
    new_verdicts: Vec<(u128, Verdict)>,
    /// The search stopped early on the vertex budget.
    truncated: bool,
    /// Sorted, deduplicated functions visited (always contains the
    /// source's function).
    cone: Vec<FuncId>,
    /// Sorted functions whose `ModuleSeg::callers` lists were read.
    callers_consulted: Vec<FuncId>,
    /// Sorted globals whose `ModuleSeg::global_loads` lists were read.
    globals_consulted: Vec<pinpoint_ir::GlobalId>,
}

/// Property-wide read-only state shared by every worker. Nothing here is
/// precomputed per property: sink indexes, descent summaries and
/// dominator trees are filled per function, on first visit, by the
/// [`Worker`] that needs them.
#[derive(Debug)]
struct SpecContext<'a> {
    module: &'a Module,
    segs: &'a ModuleSeg,
    callgraph: &'a CallGraph,
    spec: &'a Spec,
    kind: Option<CheckerKind>,
    config: DetectConfig,
}

/// Enumerates the property's sources in canonical module order — the
/// order the merge replays and the query cache is keyed in.
fn enumerate_sources(module: &Module, spec: &Spec) -> Vec<(FuncId, SourceSite)> {
    module
        .iter_funcs()
        .flat_map(|(fid, f)| {
            spec::spec_sources(spec, f)
                .into_iter()
                .map(move |s| (fid, s))
        })
        .collect()
}

/// Output of one detection pass.
#[derive(Debug)]
pub(crate) struct DetectOutput {
    pub reports: Vec<Report>,
    /// Per-query attribution, ids in replay order from 0.
    pub queries: Vec<QueryRecord>,
    /// The query-cache split of the sources that were not gated (without
    /// a cache, every one of them counts as re-run).
    pub reuse: QueryReuse,
    /// Verdicts newly solved during the pass (fingerprint → verdict).
    pub new_verdicts: Vec<(u128, Verdict)>,
}

/// Replays per-source outcomes in canonical source order against a global
/// seen-set, producing reports, statistics (added onto `stats`), and query
/// attribution exactly as a single-threaded pass over the same results
/// would. A pure function of the outcomes, so replaying a mix of cached
/// and freshly-computed outcomes is byte-identical to replaying all-fresh
/// ones. ([`DetectOutput::reuse`] is left for the caller to fill.)
fn merge_outcomes(
    module: &Module,
    spec: &Spec,
    outcomes: Vec<SourceOutcome>,
    stats: &mut DetectStats,
) -> DetectOutput {
    stats.sources += outcomes.len() as u64;
    let mut reports = Vec::new();
    let mut queries: Vec<QueryRecord> = Vec::new();
    let mut seen: HashSet<CandidateKey> = HashSet::new();
    // Newly-established verdicts, deduplicated first-wins in canonical
    // source order — the same fingerprint solved by two sources keeps the
    // first source's verdict, independent of sharding.
    let mut new_verdicts: Vec<(u128, Verdict)> = Vec::new();
    let mut verdict_seen: HashSet<u128> = HashSet::new();
    for outcome in outcomes {
        stats.visited += outcome.visited;
        stats.skipped_descents += outcome.skipped_descents;
        stats.budget_exhausted += u64::from(outcome.truncated);
        stats.verdict_hits += outcome.verdict_hits;
        stats.verdict_misses += outcome.verdict_misses;
        stats.reused_clauses += outcome.reused_clauses;
        stats.sessions += u64::from(outcome.verdict_misses > 0);
        for (fp, v) in outcome.new_verdicts {
            if verdict_seen.insert(fp) {
                new_verdicts.push((fp, v));
            }
        }
        for ev in outcome.events {
            // Every evaluated candidate is attributed — its outcome is a
            // pure function of the artefact, so the list (ids included)
            // is replay-order deterministic.
            queries.push(QueryRecord {
                id: u32::try_from(queries.len()).expect("query count fits u32"),
                checker: spec.name.clone(),
                source_func: module.func(ev.key.0).name.clone(),
                sink_func: module.func(ev.key.2).name.clone(),
                outcome: match (&ev.report, ev.linear_refuted) {
                    (Some(_), _) => QueryOutcome::Reported,
                    (None, true) => QueryOutcome::LinearRefuted,
                    (None, false) => QueryOutcome::SmtRefuted,
                },
                cost: QueryCost {
                    solver_ns: ev.cost.solver_ns,
                    conflicts: ev.cost.conflicts,
                    learned: ev.cost.learned,
                    propagations: ev.cost.propagations,
                    decisions: ev.cost.decisions,
                    theory_checks: ev.cost.theory_checks,
                    theory_conflicts: ev.cost.theory_conflicts,
                    budget_exhausted: ev.cost.budget_exhausted,
                },
            });
            if !seen.insert(ev.key) {
                continue; // claimed by an earlier source
            }
            if let Some(m) = ev.mirror {
                seen.insert(m);
            }
            stats.candidates += 1;
            match ev.report {
                Some(r) => {
                    stats.reports += 1;
                    reports.push(r);
                }
                None => {
                    stats.refuted += 1;
                    if ev.linear_refuted {
                        stats.linear_refuted += 1;
                    }
                }
            }
        }
    }
    DetectOutput {
        reports,
        queries,
        reuse: QueryReuse::default(),
        new_verdicts,
    }
}

/// One detection worker: owns private copies of the condition vocabulary
/// so several workers (or several concurrent sessions) can search at
/// once without touching the immutable analysis artefact.
///
/// Every source is evaluated from the pristine artefact state: the
/// worker checkpoints its arena and symbol cache before the search and
/// rolls both back afterwards, so a source's outcome is a pure function
/// of the artefact — independent of sharding, thread count, or the
/// sources that ran before it on the same worker.
#[derive(Debug)]
struct Worker<'cx, 'a> {
    cx: &'cx SpecContext<'a>,
    symbols: Symbols,
    /// Scratch overlay over the shared module-global interner: base terms
    /// are read in place, per-source terms are appended locally and
    /// truncated away between sources.
    arena: TermArena,
    /// Incremental solver session, fresh per source: all of one source's
    /// candidate conditions run through it, sharing the Tseitin encoding,
    /// learned clauses, and theory lemmas of earlier candidates. Scoping
    /// the session to a source (rather than the worker) keeps every
    /// query's cost a pure function of the source, independent of which
    /// other sources shared the worker's shard.
    session: SmtSession,
    /// The run-wide verdict snapshot, consulted before every solve.
    /// Read-only during the run so lookups are shard-independent.
    verdicts: &'cx VerdictTable,
    /// Verdicts established by the current source's solves, in discovery
    /// order, with an index by fingerprint for intra-source reuse.
    new_verdicts: Vec<(u128, Verdict)>,
    local_idx: HashMap<u128, usize>,
    /// Per-source counters mirrored into the [`SourceOutcome`].
    verdict_hits: u64,
    verdict_misses: u64,
    reused_clauses: u64,
    /// Fresh per source: its memo is keyed by `TermId`, which rollback
    /// recycles.
    linear: pinpoint_smt::LinearSolver,
    /// Per-function dominator trees for the same-function ordering filter.
    doms: HashMap<FuncId, DomTree>,
    /// Per-function sink index for this property, filled on first visit.
    sinks: HashMap<FuncId, HashMap<ValueId, Vec<SinkSite>>>,
    /// Descent summaries of the property being checked (§3.3.2), forced
    /// for the callee cones the searches actually reach; `None` under the
    /// summary-free ablation. Worker-private, but a pure function of the
    /// artefact, so outcomes stay shard-independent.
    params: Option<ParamSummaries<'a>>,
}

/// Runs one property over the artefact `a` with `threads` workers, merging
/// per-source outcomes into reports and statistics (added onto `stats`)
/// that are byte-identical for any thread count, with or without the two
/// optional reuse inputs.
///
/// Sources are enumerated in module order. Each is answered by the first
/// of three means that applies:
///
/// 1. `gate` — the whole-program interface summaries
///    ([`ModuleSummaries`], forced on demand; `None` only for the
///    ungated reference search): a source the gate proves
///    fruitless gets a synthesised empty outcome. Gated sources bypass
///    the query cache entirely (a cached cone would not cover the summary
///    consultations the gate made) and count in
///    [`DetectStats::summary_gated`], not in the [`QueryReuse`] split;
/// 2. `cache` — the per-source [`QueryCache`], validated against the
///    artefact's current per-function transitive fingerprint keys: a
///    source whose recomputed [`cone_fingerprint`] still matches its
///    entry replays the cached outcome, including the verdict counters
///    and costs recorded when it was computed (its verdict snapshot may
///    predate the current one), so solver-side statistics reflect the
///    work actually performed, not a hypothetical fresh run;
/// 3. the demand-driven search: the remaining sources are partitioned
///    into contiguous shards ([`TraceBuf::shard_map`]). Each worker
///    records *candidate events* (it cannot know which candidates an
///    earlier source already claimed), and fresh outcomes are written
///    back to the cache when there is one.
///
/// The merge then replays all outcomes in canonical source order against
/// a global seen-set, counting candidates and emitting reports exactly as
/// a single-threaded, ungated, uncached pass would.
///
/// Besides reports and statistics, every evaluated candidate — including
/// those a later dedup suppresses, since each was really solved — comes
/// back as a [`QueryRecord`] with its solver cost, ids assigned in the
/// replay order. When `trace` is recording, the gating loop gets one
/// `detect.gate` span and each source search a `detect.source` span (with
/// nested `smt.query` spans per candidate) in a worker-private buffer
/// merged at the join.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_spec(
    a: &Analysis,
    verdicts: &VerdictTable,
    spec: &Spec,
    kind: Option<CheckerKind>,
    config: DetectConfig,
    threads: usize,
    trace: &mut TraceBuf,
    stats: &mut DetectStats,
    mut gate: Option<&mut ModuleSummaries>,
    mut cache: Option<&mut QueryCache>,
) -> DetectOutput {
    let (module, segs, keys) = (&a.module, &a.segs, a.func_keys.as_slice());
    let spec_fp = spec_fingerprint(spec, &config);
    let sources = enumerate_sources(module, spec);
    let mut slots: Vec<Option<SourceOutcome>> = Vec::with_capacity(sources.len());
    let mut rerun: Vec<usize> = Vec::new();
    let mut gated = 0u64;
    let gate_span = gate
        .is_some()
        .then(|| trace.open("detect.gate", spec.name.clone()));
    let summary_cx = SummaryCx::new(module, segs, spec, &a.callgraph);
    for (i, &(fid, s)) in sources.iter().enumerate() {
        if let Some(sums) = gate.as_mut() {
            if !sums.source_fruitful(&summary_cx, fid, s) {
                gated += 1;
                slots.push(Some(gated_outcome(fid)));
                continue;
            }
        }
        let hit = cache.as_ref().and_then(|cache| {
            let e = cache.entries.get(&(spec_fp, fid, s.site, s.value))?;
            (cone_fingerprint(&e.outcome, segs, keys) == Some(e.cone_fp)).then(|| e.outcome.clone())
        });
        if hit.is_none() {
            rerun.push(i);
        }
        slots.push(hit);
    }
    if let Some(span) = gate_span {
        trace.close(span);
    }
    let reuse = QueryReuse {
        reused: sources.len() as u64 - gated - rerun.len() as u64,
        rerun: rerun.len() as u64,
    };
    if !rerun.is_empty() {
        let cx = SpecContext {
            module,
            segs,
            callgraph: &a.callgraph,
            spec,
            kind,
            config,
        };
        // Each shard's worker is its state; an outcome depends on its
        // source alone (see [`Worker`]).
        let fresh = trace.shard_map(
            &mut rerun,
            threads,
            || {
                let overlay = TermArena::overlay(Arc::clone(&a.arena));
                Worker::new(&cx, a.pta.symbols.clone(), overlay, verdicts)
            },
            |w, &mut i, lane| w.run_source(sources[i].0, sources[i].1, lane),
        );
        for (i, outcome) in rerun.into_iter().zip(fresh) {
            if let Some(cache) = cache.as_mut() {
                if let Some(cone_fp) = cone_fingerprint(&outcome, segs, keys) {
                    let (fid, s) = sources[i];
                    let entry = CachedSource {
                        cone_fp,
                        outcome: outcome.clone(),
                    };
                    cache.entries.insert((spec_fp, fid, s.site, s.value), entry);
                }
            }
            slots[i] = Some(outcome);
        }
    }
    let outcomes: Vec<SourceOutcome> = slots
        .into_iter()
        .map(|s| s.expect("every source slot filled"))
        .collect();
    let mut out = merge_outcomes(module, spec, outcomes, stats);
    out.reuse = reuse;
    if let Some(sums) = gate {
        stats.summary_gated += gated;
        stats.summary_built += sums.built;
        stats.summary_composed += sums.composed;
    }
    if threads > 1 && faults::drop_last_report_mt() {
        out.reports.pop();
    }
    out
}

/// Test-only fault injection points.
///
/// These exist so the differential fuzzing subsystem (`pinpoint-fuzz`)
/// can prove its oracles catch real detect-layer bug classes: a test
/// flips a toggle, runs the fuzz loop, and asserts the corresponding
/// oracle reports (and shrinks) the planted bug. All toggles default to
/// off and must never be set outside tests.
#[doc(hidden)]
pub mod faults {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When set, [`super::run_spec`] silently drops the last merged
    /// report — but only when running with more than one worker. This
    /// models a lost report in a racy merge, the bug class the
    /// 1-vs-N-thread byte-identity oracle exists to catch.
    pub static DROP_LAST_REPORT_MT: AtomicBool = AtomicBool::new(false);

    pub(crate) fn drop_last_report_mt() -> bool {
        DROP_LAST_REPORT_MT.load(Ordering::Relaxed)
    }
}

/// How many source queries a cached run answered from the cache vs.
/// re-searched.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct QueryReuse {
    /// Sources whose cached outcome was spliced into the merge.
    pub reused: u64,
    /// Sources whose search was re-run.
    pub rerun: u64,
}

/// One cached per-source search result, with the cone fingerprint it was
/// computed under.
#[derive(Debug, Clone)]
struct CachedSource {
    cone_fp: u128,
    outcome: SourceOutcome,
}

/// An in-memory cache of per-source search outcomes, keyed by
/// `(spec fingerprint, source function, source site, source value)`.
///
/// An entry is valid while its recomputed [`cone_fingerprint`] matches:
/// the search would consult exactly the same data, so it would unfold
/// identically. Entries whose cone intersects an edit's dirty closure get
/// a different fingerprint and are transparently re-run. The cache must
/// be cleared whenever the artefact is rebuilt from scratch (full
/// fallback): term ids are only comparable within one append-only arena
/// lineage.
#[derive(Debug, Default)]
pub(crate) struct QueryCache {
    entries: HashMap<(u128, FuncId, InstId, ValueId), CachedSource>,
}

impl QueryCache {
    /// Drops every cached outcome.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached source outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Fingerprint of everything that selects and parameterises a property's
/// searches: the spec itself plus every detection knob that can change a
/// search or its evaluation.
pub(crate) fn spec_fingerprint(spec: &Spec, config: &DetectConfig) -> u128 {
    use pinpoint_ir::fingerprint::Fnv128;
    let mut h = Fnv128::new();
    h.write_str(&spec.name);
    match &spec.source {
        spec::SourceSpec::CallReceiver(names) => {
            h.write_u32(0);
            h.write_u64(names.len() as u64);
            for n in names {
                h.write_str(n);
            }
        }
        spec::SourceSpec::FreeArgument => h.write_u32(1),
        spec::SourceSpec::NullConstant => h.write_u32(2),
    }
    match &spec.sink {
        spec::SinkSpec::DerefsAndFrees => h.write_u32(0),
        spec::SinkSpec::Derefs => h.write_u32(1),
        spec::SinkSpec::Calls(names) => {
            h.write_u32(2);
            h.write_u64(names.len() as u64);
            for n in names {
                h.write_str(n);
            }
        }
    }
    h.write_u32(spec.traverses_transforms as u32);
    h.write_u32(config.max_ctx_depth);
    h.write_u64(config.max_visited_per_source as u64);
    h.write_u32(config.cond.max_depth);
    h.write_u64(config.cond.max_constraints as u64);
    h.write_u32(config.solve as u32);
    h.write_u32(config.measure_linear as u32);
    h.write_u32(config.use_summaries as u32);
    h.finish()
}

/// Combined fingerprint of every artefact datum a source's search
/// consulted, recomputed against the *current* artefact:
///
/// * per cone member: its transitive per-function key (covers the
///   member's body, its SEG/sinks/dominators, and — because the keys
///   fold callee fingerprints over the call-graph condensation — the
///   bodies and connector shapes of everything it can call, which is
///   what sink checks, local edges, descents, summary consultations, and
///   matched ascents read);
/// * per callers-list consultation (unmatched and parameter ascents):
///   the list's entries together with each caller's call-site record
///   (callee, actuals, receivers) — exactly the caller-side data an
///   ascent reads before the caller itself becomes a cone member;
/// * per global-channel consultation: the global's load list, including
///   the hash-consed condition term ids (content addresses within one
///   arena lineage).
///
/// Equal fingerprints therefore imply the search would unfold
/// identically and produce the same [`SourceOutcome`]. Returns `None`
/// when an id is out of range for the current artefact (stale entry
/// after a shape change — callers treat that as a miss).
fn cone_fingerprint(out: &SourceOutcome, segs: &ModuleSeg, keys: &[u128]) -> Option<u128> {
    use pinpoint_ir::fingerprint::Fnv128;
    let mut h = Fnv128::new();
    h.write_u64(out.cone.len() as u64);
    for &fid in &out.cone {
        h.write_u32(fid.0);
        h.write_u128(*keys.get(fid.0 as usize)?);
    }
    h.write_u64(out.callers_consulted.len() as u64);
    for &fid in &out.callers_consulted {
        h.write_u32(fid.0);
        let callers = segs.callers(fid);
        h.write_u64(callers.len() as u64);
        for &(caller, site) in callers {
            h.write_u32(caller.0);
            h.write_u32(site.block.0);
            h.write_u64(site.index as u64);
            match segs.seg(caller).call_site(site) {
                Some(call) => {
                    h.write_u32(1);
                    h.write_u32(call.callee.map_or(u32::MAX, |c| c.0));
                    h.write_u64(call.args.len() as u64);
                    for a in call.args {
                        h.write_u32(a.0);
                    }
                    h.write_u64(call.dsts.len() as u64);
                    for d in call.dsts {
                        h.write_u32(d.0);
                    }
                }
                None => h.write_u32(0),
            }
        }
    }
    h.write_u64(out.globals_consulted.len() as u64);
    for &g in &out.globals_consulted {
        h.write_u32(g.0);
        let loads = segs.global_loads.get(&g).map(Vec::as_slice).unwrap_or(&[]);
        h.write_u64(loads.len() as u64);
        for &(lf, lv, cond) in loads {
            h.write_u32(lf.0);
            h.write_u32(lv.0);
            h.write_u64(cond.index() as u64);
        }
    }
    Some(h.finish())
}

/// The outcome synthesised for a gated source: the
/// whole-program gate proved its search would visit nothing fruitful, so
/// it contributes no events, no verdicts, and no cost — exactly what the
/// demand search would have produced, minus the walking.
fn gated_outcome(fid: FuncId) -> SourceOutcome {
    SourceOutcome {
        events: Vec::new(),
        visited: 0,
        skipped_descents: 0,
        verdict_hits: 0,
        verdict_misses: 0,
        reused_clauses: 0,
        new_verdicts: Vec::new(),
        truncated: false,
        cone: vec![fid],
        callers_consulted: Vec::new(),
        globals_consulted: Vec::new(),
    }
}

impl<'cx, 'a> Worker<'cx, 'a> {
    fn new(
        cx: &'cx SpecContext<'a>,
        symbols: Symbols,
        arena: TermArena,
        verdicts: &'cx VerdictTable,
    ) -> Self {
        Worker {
            cx,
            symbols,
            arena,
            session: SmtSession::new(),
            verdicts,
            new_verdicts: Vec::new(),
            local_idx: HashMap::new(),
            verdict_hits: 0,
            verdict_misses: 0,
            reused_clauses: 0,
            linear: pinpoint_smt::LinearSolver::new(),
            doms: HashMap::new(),
            sinks: HashMap::new(),
            params: cx
                .config
                .use_summaries
                .then(|| ParamSummaries::new(cx.module, cx.segs, cx.spec, cx.callgraph)),
        }
    }

    /// The property's sinks consuming `value` in `fid`.
    fn sinks_at(&mut self, fid: FuncId, value: ValueId) -> Vec<SinkSite> {
        let cx = self.cx;
        let index = self.sinks.entry(fid).or_insert_with(|| {
            let mut by_value: HashMap<ValueId, Vec<SinkSite>> = HashMap::new();
            for s in spec::spec_sinks(cx.spec, cx.module.func(fid)) {
                by_value.entry(s.value).or_default().push(s);
            }
            by_value
        });
        index.get(&value).cloned().unwrap_or_default()
    }

    fn dom_of(&mut self, fid: FuncId) -> &DomTree {
        let module = self.cx.module;
        self.doms.entry(fid).or_insert_with(|| {
            let f = module.func(fid);
            let cfg = Cfg::new(f);
            DomTree::dominators(f, &cfg)
        })
    }

    /// `true` if the sink is ordered strictly before the source within the
    /// same function (use-before-free on every path — not a bug).
    fn sink_precedes_source(&mut self, fid: FuncId, sink: InstId, source: InstId) -> bool {
        if sink.block == source.block {
            return sink.index < source.index;
        }
        let dom = self.dom_of(fid);
        dom.dominates(sink.block, source.block)
    }

    /// Searches from one source, recording candidate events. The worker's
    /// arena and symbol cache are restored afterwards, so every source is
    /// evaluated from the pristine artefact state.
    #[allow(clippy::too_many_lines)]
    fn run_source(
        &mut self,
        source_func: FuncId,
        source: SourceSite,
        lane: &mut TraceBuf,
    ) -> SourceOutcome {
        let source_span = lane.open(
            "detect.source",
            format!(
                "{}@b{}.i{}",
                self.cx.module.func(source_func).name,
                source.site.block.0,
                source.site.index
            ),
        );
        let mark = self.arena.mark();
        let ckpt = self.symbols.checkpoint();
        self.linear = pinpoint_smt::LinearSolver::new();
        // Fresh incremental session and verdict scratch per source: the
        // session's state (and hence every query's cost attribution) is a
        // pure function of this source alone, and the verdicts it learns
        // are published only through the deterministic merge.
        self.session = SmtSession::new();
        self.new_verdicts.clear();
        self.local_idx.clear();
        self.verdict_hits = 0;
        self.verdict_misses = 0;
        self.reused_clauses = 0;
        let mut out = SourceOutcome {
            events: Vec::new(),
            visited: 0,
            skipped_descents: 0,
            verdict_hits: 0,
            verdict_misses: 0,
            reused_clauses: 0,
            new_verdicts: Vec::new(),
            truncated: false,
            cone: Vec::new(),
            callers_consulted: Vec::new(),
            globals_consulted: Vec::new(),
        };
        // The consultation record: every function whose artefact data this
        // search reads (its *cone*), plus the caller lists and global load
        // lists it consults outside the cone. Together these determine the
        // search, which is what makes the outcome cacheable.
        let mut cone: HashSet<FuncId> = HashSet::new();
        cone.insert(source_func);
        let mut callers_consulted: HashSet<FuncId> = HashSet::new();
        let mut globals_consulted: HashSet<pinpoint_ir::GlobalId> = HashSet::new();
        // Local deduplication only; the cross-source pass happens at the
        // merge replay.
        let mut local_seen: HashSet<CandidateKey> = HashSet::new();
        let mut ctxs = CtxInterner::new();
        let mut visited: HashSet<(FuncId, ValueId, CtxId)> = HashSet::new();
        let mut stack: Vec<Node> = vec![Node {
            func: source_func,
            value: source.value,
            ctx: ROOT,
            stack: Rc::new(Vec::new()),
            trace: Rc::new(Trace::Start),
            depth: 0,
            since: Some(source.site),
        }];
        while let Some(node) = stack.pop() {
            if visited.len() > self.cx.config.max_visited_per_source {
                out.truncated = true;
                break;
            }
            if !visited.insert((node.func, node.value, node.ctx)) {
                continue;
            }
            out.visited += 1;
            cone.insert(node.func);
            // 1. Sink checks at this vertex.
            for sink in self.sinks_at(node.func, node.value) {
                if node.func == source_func && sink.site == source.site {
                    continue; // the source statement itself
                }
                if let Some(onset) = node.since {
                    if self.sink_precedes_source(node.func, sink.site, onset) {
                        continue; // ordered use-before-danger in this frame
                    }
                }
                let key = (source_func, source.site, node.func, sink.site);
                if !local_seen.insert(key) {
                    continue;
                }
                // A free→free pair is one double-free bug regardless of
                // which free the search started from: suppress the
                // mirrored candidate.
                let mirror = (sink.role == SinkRole::Free).then(|| {
                    let m = (node.func, sink.site, source_func, source.site);
                    local_seen.insert(m);
                    m
                });
                let query_span = lane.open(
                    "smt.query",
                    format!(
                        "{}@b{}.i{}",
                        self.cx.module.func(node.func).name,
                        sink.site.block.0,
                        sink.site.index
                    ),
                );
                let (report, linear_refuted, cost) =
                    self.evaluate(source_func, source, &node, sink, &mut ctxs);
                lane.close(query_span);
                out.events.push(CandidateEvent {
                    key,
                    mirror,
                    report,
                    linear_refuted,
                    cost,
                });
            }
            // 2. Local SEG edges.
            let seg = self.cx.segs.seg(node.func);
            for e in seg.succs(node.value) {
                if e.kind == EdgeKind::Transform && !self.cx.spec.traverses_transforms {
                    continue;
                }
                stack.push(Node {
                    func: node.func,
                    value: e.dst,
                    ctx: node.ctx,
                    stack: Rc::clone(&node.stack),
                    trace: Rc::new(Trace::Local {
                        parent: Rc::clone(&node.trace),
                        edge: *e,
                        func: node.func,
                        ctx: node.ctx,
                    }),
                    depth: node.depth,
                    since: node.since,
                });
            }
            // 3. Descend into callees through actual arguments.
            for au in seg.arg_uses(node.value) {
                if node.depth >= self.cx.config.max_ctx_depth {
                    continue;
                }
                let Some(gid) = au.callee else {
                    continue;
                };
                if gid == node.func {
                    continue; // direct recursion: summary-free (§4.2)
                }
                if let Some(s) = &mut self.params {
                    if !s.descend_useful(gid, au.index) {
                        out.skipped_descents += 1;
                        continue; // VF summary: nothing reachable below
                    }
                }
                let g = self.cx.module.func(gid);
                let Some(&formal) = g.params.get(au.index) else {
                    continue;
                };
                let callee_ctx = ctxs.callee_of(node.ctx, node.func, au.site);
                let mut new_stack = (*node.stack).clone();
                new_stack.push((node.func, node.ctx, au.site));
                stack.push(Node {
                    func: gid,
                    value: formal,
                    ctx: callee_ctx,
                    stack: Rc::new(new_stack),
                    trace: Rc::new(Trace::Descend {
                        parent: Rc::clone(&node.trace),
                        caller: node.func,
                        caller_ctx: node.ctx,
                        site: au.site,
                        callee: gid,
                        callee_ctx,
                        arg_index: au.index,
                    }),
                    depth: node.depth + 1,
                    since: None,
                });
            }
            // 4. Ascend through return values.
            if let Some(ret_idx) = seg.ret_index(node.value) {
                if let Some(&(caller, caller_ctx, site)) = node.stack.last() {
                    // Matched return: continue at the recorded receiver.
                    let recv = self.receiver_at(caller, site, ret_idx);
                    if let Some(recv) = recv {
                        let mut new_stack = (*node.stack).clone();
                        new_stack.pop();
                        stack.push(Node {
                            func: caller,
                            value: recv,
                            ctx: caller_ctx,
                            stack: Rc::new(new_stack),
                            trace: Rc::new(Trace::Ascend {
                                parent: Rc::clone(&node.trace),
                                callee: node.func,
                                callee_ctx: node.ctx,
                                ret_value: node.value,
                                caller,
                                caller_ctx,
                                site,
                                recv,
                            }),
                            depth: node.depth.saturating_sub(1),
                            since: Some(site),
                        });
                    }
                } else if node.depth < self.cx.config.max_ctx_depth {
                    // Unmatched: ascend to every caller (VF2-style).
                    callers_consulted.insert(node.func);
                    for &(caller, site) in self.cx.segs.callers(node.func) {
                        if caller == node.func {
                            continue;
                        }
                        let Some(recv) = self.receiver_at(caller, site, ret_idx) else {
                            continue;
                        };
                        let caller_ctx = ctxs.caller_of(node.ctx, caller, site);
                        stack.push(Node {
                            func: caller,
                            value: recv,
                            ctx: caller_ctx,
                            stack: Rc::new(Vec::new()),
                            trace: Rc::new(Trace::Ascend {
                                parent: Rc::clone(&node.trace),
                                callee: node.func,
                                callee_ctx: node.ctx,
                                ret_value: node.value,
                                caller,
                                caller_ctx,
                                site,
                                recv,
                            }),
                            depth: node.depth + 1,
                            since: Some(site),
                        });
                    }
                }
            }
            // 4b. VF3-style parameter ascent: when the dangerous value
            // is a formal parameter of an un-entered frame, the callers'
            // actual arguments hold the same (dangerous) value after the
            // call — this is what a VF3 summary communicates upward.
            if node.stack.is_empty() && node.depth < self.cx.config.max_ctx_depth {
                let f = self.cx.module.func(node.func);
                if let Some(param_idx) = f.params.iter().position(|&p| p == node.value) {
                    callers_consulted.insert(node.func);
                    for &(caller, site) in self.cx.segs.callers(node.func) {
                        if caller == node.func {
                            continue;
                        }
                        let Some(call) = self.cx.segs.seg(caller).call_site(site) else {
                            continue;
                        };
                        let Some(&actual) = call.args.get(param_idx) else {
                            continue;
                        };
                        let caller_ctx = ctxs.caller_of(node.ctx, caller, site);
                        stack.push(Node {
                            func: caller,
                            value: actual,
                            ctx: caller_ctx,
                            stack: Rc::new(Vec::new()),
                            trace: Rc::new(Trace::ParamAscend {
                                parent: Rc::clone(&node.trace),
                                callee: node.func,
                                callee_ctx: node.ctx,
                                caller,
                                caller_ctx,
                                site,
                                actual,
                            }),
                            depth: node.depth + 1,
                            since: Some(site),
                        });
                    }
                }
            }
            // 5. Global-cell channels. The per-function store index says
            // whether any global's list is worth scanning at all.
            let stores_here = self
                .cx
                .segs
                .global_store_values(node.func)
                .binary_search(&node.value)
                .is_ok();
            let stores: Vec<(pinpoint_ir::GlobalId, pinpoint_smt::TermId)> = self
                .cx
                .segs
                .global_stores
                .iter()
                .filter(|_| stores_here)
                .flat_map(|(g, entries)| {
                    entries
                        .iter()
                        .filter(|(f, v, _)| *f == node.func && *v == node.value)
                        .map(|(_, _, c)| (*g, *c))
                })
                .collect();
            for (g, store_cond) in stores {
                globals_consulted.insert(g);
                let loads = self
                    .cx
                    .segs
                    .global_loads
                    .get(&g)
                    .cloned()
                    .unwrap_or_default();
                for (lf, lv, load_cond) in loads {
                    stack.push(Node {
                        func: lf,
                        value: lv,
                        ctx: ROOT,
                        stack: Rc::new(Vec::new()),
                        trace: Rc::new(Trace::GlobalChannel {
                            parent: Rc::clone(&node.trace),
                            src_func: node.func,
                            src_value: node.value,
                            src_cond: store_cond,
                            dst_func: lf,
                            dst_value: lv,
                            dst_cond: load_cond,
                        }),
                        depth: node.depth,
                        since: None,
                    });
                }
            }
        }
        // Restore the pristine artefact state for the next source.
        self.arena.truncate_to(mark);
        self.symbols.rollback(ckpt);
        lane.close(source_span);
        out.verdict_hits = self.verdict_hits;
        out.verdict_misses = self.verdict_misses;
        out.reused_clauses = self.reused_clauses;
        out.new_verdicts = std::mem::take(&mut self.new_verdicts);
        out.cone = cone.into_iter().collect();
        out.cone.sort_unstable();
        out.callers_consulted = callers_consulted.into_iter().collect();
        out.callers_consulted.sort_unstable();
        out.globals_consulted = globals_consulted.into_iter().collect();
        out.globals_consulted.sort_unstable();
        out
    }

    fn receiver_at(&self, caller: FuncId, site: InstId, ret_idx: usize) -> Option<ValueId> {
        let call = self.cx.segs.seg(caller).call_site(site)?;
        call.dsts.get(ret_idx).copied()
    }

    /// Builds the path condition of a candidate and solves it; returns
    /// the report when satisfiable (or when solving is disabled), whether
    /// the linear-time solver alone would have refuted it, and the
    /// solver's cost snapshot for attribution.
    fn evaluate(
        &mut self,
        source_func: FuncId,
        source: SourceSite,
        node: &Node,
        sink: SinkSite,
        ctxs: &mut CtxInterner,
    ) -> (Option<Report>, bool, LastQueryCost) {
        let depth = self.cx.config.cond.max_depth;
        // The actual arguments of a call the search walked through.
        let segs = self.cx.segs;
        let call_args = |caller: FuncId, site: InstId| -> &[ValueId] {
            let call = segs.seg(caller).call_site(site);
            call.expect("trace sites are call sites").args
        };
        let mut cb = CondBuilder::new(
            self.cx.module,
            self.cx.segs,
            &mut self.symbols,
            &mut self.arena,
            ctxs,
            self.cx.config.cond,
        );
        // CD of the source and the sink statements.
        cb.add_control_deps(source_func, source.site.block, ROOT, depth);
        cb.add_control_deps(node.func, sink.site.block, node.ctx, depth);
        cb.add_value_closure(source_func, source.value, ROOT, depth);
        // Walk the trace, collecting steps (reversed) and constraints.
        let mut steps = vec![Step {
            func: node.func,
            value: node.value,
            note: "sink",
        }];
        let mut cur: &Trace = &node.trace;
        loop {
            match cur {
                Trace::Start => break,
                Trace::Local {
                    parent,
                    edge,
                    func,
                    ctx,
                } => {
                    cb.add_constraint(*func, edge.cond, *ctx, depth);
                    // Transform edges relate operand and result through the
                    // operator's own term structure; asserting equality
                    // would wrongly claim `x + 1 = x`.
                    if edge.kind != EdgeKind::Transform {
                        cb.add_flow_equality(*func, edge.dst, *ctx, *func, edge.src, *ctx);
                    }
                    let f = self.cx.module.func(*func);
                    if let Some(def) = f.value(edge.dst).def {
                        cb.add_control_deps(*func, def.block, *ctx, depth);
                    }
                    steps.push(Step {
                        func: *func,
                        value: edge.src,
                        note: match edge.kind {
                            EdgeKind::Direct => "flow",
                            EdgeKind::Memory => "store/load",
                            EdgeKind::Transform => "op",
                        },
                    });
                    cur = parent;
                }
                Trace::Descend {
                    parent,
                    caller,
                    caller_ctx,
                    site,
                    callee,
                    callee_ctx,
                    arg_index,
                } => {
                    let args = call_args(*caller, *site);
                    cb.bind_params(*caller, *caller_ctx, *callee, *callee_ctx, args, depth);
                    cb.add_control_deps(*caller, site.block, *caller_ctx, depth);
                    let arg = args[*arg_index];
                    steps.push(Step {
                        func: *caller,
                        value: arg,
                        note: "call →",
                    });
                    cur = parent;
                }
                Trace::Ascend {
                    parent,
                    callee,
                    callee_ctx,
                    ret_value,
                    caller,
                    caller_ctx,
                    site,
                    recv,
                } => {
                    cb.add_flow_equality(
                        *caller,
                        *recv,
                        *caller_ctx,
                        *callee,
                        *ret_value,
                        *callee_ctx,
                    );
                    // Bind the call's actuals so callee-side constraints
                    // referring to formals are grounded (Eq. 2 ③).
                    let args = call_args(*caller, *site);
                    cb.bind_params(*caller, *caller_ctx, *callee, *callee_ctx, args, depth);
                    cb.add_control_deps(*caller, site.block, *caller_ctx, depth);
                    steps.push(Step {
                        func: *callee,
                        value: *ret_value,
                        note: "return ←",
                    });
                    cur = parent;
                }
                Trace::ParamAscend {
                    parent,
                    callee,
                    callee_ctx,
                    caller,
                    caller_ctx,
                    site,
                    actual,
                } => {
                    let args = call_args(*caller, *site);
                    cb.bind_params(*caller, *caller_ctx, *callee, *callee_ctx, args, depth);
                    cb.add_control_deps(*caller, site.block, *caller_ctx, depth);
                    steps.push(Step {
                        func: *caller,
                        value: *actual,
                        note: "arg ←",
                    });
                    cur = parent;
                }
                Trace::GlobalChannel {
                    parent,
                    src_func,
                    src_value,
                    src_cond,
                    dst_func,
                    dst_value,
                    dst_cond,
                } => {
                    cb.add_constraint(*src_func, *src_cond, ROOT, depth);
                    cb.add_constraint(*dst_func, *dst_cond, ROOT, depth);
                    cb.add_flow_equality(*dst_func, *dst_value, ROOT, *src_func, *src_value, ROOT);
                    steps.push(Step {
                        func: *src_func,
                        value: *src_value,
                        note: "global",
                    });
                    cur = parent;
                }
            }
        }
        steps.push(Step {
            func: source_func,
            value: source.value,
            note: "source",
        });
        steps.reverse();
        let condition_size = cb.len();
        let cond = cb.condition();
        let mut witness = Vec::new();
        let mut cost = LastQueryCost::default();
        if self.cx.config.solve {
            let (result, model) = self.solve_candidate(cond, &mut cost);
            witness = model
                .into_iter()
                .filter_map(|(name, value)| Some((self.friendly_var_name(&name)?, value)))
                .collect();
            match result {
                SmtResult::Unsat => {
                    let linear_refuted = self.cx.config.measure_linear
                        && self.linear.check(&self.arena, cond)
                            == pinpoint_smt::LinearVerdict::Unsat;
                    return (None, linear_refuted, cost);
                }
                SmtResult::Sat => {}
            }
        }
        let module = self.cx.module;
        let rendered: Vec<String> = steps
            .iter()
            .map(|s| {
                let f = module.func(s.func);
                format!("{}:{}", f.name, f.value(s.value).name)
            })
            .collect();
        let property = self.cx.spec.name.clone();
        let description = format!("[{}] {}", property, rendered.join(" → "));
        (
            Some(Report {
                kind: self.cx.kind,
                property,
                source_func,
                source_site: source.site,
                sink_func: node.func,
                sink_site: sink.site,
                sink_role: sink.role,
                path: steps,
                condition_size,
                witness,
                source_func_name: module.func(source_func).name.clone(),
                sink_func_name: module.func(node.func).name.clone(),
                description,
            }),
            false,
            cost,
        )
    }

    /// Solves one candidate path condition through the verdict table.
    ///
    /// Constant conditions short-circuit without touching the table (they
    /// are free either way and would only pollute the hit/miss counters).
    /// Otherwise the condition is canonicalised; a fingerprint already in
    /// the run snapshot — or already solved by an earlier candidate of
    /// this source — replays its recorded verdict, rebinding a recorded
    /// SAT witness from canonical variable indices to this instance's
    /// names, so a hit yields byte-identical output to the solve it
    /// replaced. A genuine miss runs on the source's incremental session
    /// and records the verdict (unless the round budget forced a
    /// conservative answer, which is never cached).
    fn solve_candidate(
        &mut self,
        cond: pinpoint_smt::TermId,
        cost: &mut LastQueryCost,
    ) -> (SmtResult, Vec<(String, bool)>) {
        if self.arena.is_true(cond) || self.arena.is_false(cond) {
            let (result, model) = self.session.check_with_model(&self.arena, cond);
            *cost = self.session.last_cost;
            return (result, model);
        }
        let info = canon_info(&self.arena, cond);
        let cached: Option<Verdict> = self.verdicts.get(info.fingerprint).cloned().or_else(|| {
            self.local_idx
                .get(&info.fingerprint)
                .map(|&i| self.new_verdicts[i].1.clone())
        });
        if let Some(verdict) = cached {
            self.verdict_hits += 1;
            return match verdict {
                Verdict::Unsat => (SmtResult::Unsat, Vec::new()),
                Verdict::Sat(vals) => {
                    // Rebind the recorded witness to this instance's
                    // variables, sorted by name exactly as a fresh
                    // solve's model would be.
                    let mut model: Vec<(String, bool)> = vals
                        .iter()
                        .filter_map(|&(idx, value)| {
                            let (name, _) = info.vars.get(idx as usize)?;
                            Some((name.clone(), value))
                        })
                        .collect();
                    model.sort();
                    (SmtResult::Sat, model)
                }
            };
        }
        self.verdict_misses += 1;
        self.reused_clauses += self.session.num_learnt() as u64;
        let (result, model) = self.session.check_with_model(&self.arena, cond);
        *cost = self.session.last_cost;
        if self.session.last_cost.budget_exhausted == 0 {
            let verdict = match result {
                SmtResult::Unsat => Verdict::Unsat,
                SmtResult::Sat => {
                    let mut vals: Vec<(u32, bool)> = model
                        .iter()
                        .filter_map(|(name, value)| {
                            let idx = info.vars.iter().position(|(n, _)| n == name)?;
                            Some((u32::try_from(idx).ok()?, *value))
                        })
                        .collect();
                    vals.sort_unstable();
                    Verdict::Sat(vals)
                }
            };
            if let std::collections::hash_map::Entry::Vacant(e) =
                self.local_idx.entry(info.fingerprint)
            {
                e.insert(self.new_verdicts.len());
                self.new_verdicts.push((info.fingerprint, verdict));
            }
        }
        (result, model)
    }

    /// Maps an internal variable name (`f3.v12` or `f3.v12|c7`) back to
    /// `function:variable`, dropping aux temporaries.
    fn friendly_var_name(&self, raw: &str) -> Option<String> {
        let base = raw.split('|').next()?;
        let rest = base.strip_prefix('f')?;
        let (fid_str, vid_str) = rest.split_once(".v")?;
        let fid: u32 = fid_str.parse().ok()?;
        let vid: u32 = vid_str.parse().ok()?;
        let f = self.cx.module.funcs.get(fid as usize)?;
        let info = f.values.get(vid as usize)?;
        if info.name.starts_with("aux_") {
            return None; // connector plumbing, not user-visible
        }
        // Constants never carry useful witness information (their value
        // is fixed); skip them by def-site rather than by name so user
        // variables that happen to share the temp naming stay visible.
        if let Some(def) = info.def {
            if matches!(f.inst(def), pinpoint_ir::Inst::Const { .. }) {
                return None;
            }
        }
        Some(format!("{}:{}", f.name, info.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Analysis;
    use crate::spec::CheckerKind;

    fn check(src: &str, kind: CheckerKind) -> (Analysis, Vec<Report>) {
        let a = Analysis::from_source(src).expect("compiles");
        let reports = a.check(kind);
        (a, reports)
    }

    #[test]
    fn intraprocedural_uaf_detected() {
        let (_a, reports) = check(
            "fn main() {
                let p: int* = malloc();
                free(p);
                let x: int = *p;
                print(x);
                return;
            }",
            CheckerKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].sink_role, SinkRole::Deref);
    }

    #[test]
    fn use_before_free_not_reported() {
        let (_a, reports) = check(
            "fn main() {
                let p: int* = malloc();
                let x: int = *p;
                print(x);
                free(p);
                return;
            }",
            CheckerKind::UseAfterFree,
        );
        assert!(reports.is_empty(), "ordering filter: {reports:?}");
    }

    #[test]
    fn double_free_detected() {
        let (_a, reports) = check(
            "fn main() {
                let p: int* = malloc();
                free(p);
                free(p);
                return;
            }",
            CheckerKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].sink_role, SinkRole::Free);
    }

    #[test]
    fn exclusive_branches_refuted_by_smt() {
        // free and use are on opposite arms of the same condition:
        // path condition c ∧ ¬c is unsatisfiable.
        let a = Analysis::from_source(
            "fn main(c: bool) {
                let p: int* = malloc();
                if (c) { free(p); }
                if (!c) { let x: int = *p; print(x); }
                return;
            }",
        )
        .expect("compiles");
        let mut session = a.session();
        let reports = session.check(CheckerKind::UseAfterFree);
        assert!(reports.is_empty(), "{reports:?}");
        assert!(
            session.stats().detect.refuted > 0,
            "SMT must have refuted it"
        );
    }

    #[test]
    fn same_branch_condition_reported() {
        // Both guarded by the same polarity: feasible.
        let (_a, reports) = check(
            "fn main(c: bool) {
                let p: int* = malloc();
                if (c) { free(p); }
                if (c) { let x: int = *p; print(x); }
                return;
            }",
            CheckerKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn figure1_interprocedural_uaf() {
        // The paper's motivating example: free(c) in bar propagates
        // through *ptr back to the dereference in foo.
        let (_a, reports) = check(
            r#"
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
                let t3: bool = *q != null;
                if (t3) { *q = c; free(c); }
                else { if (nondet_bool()) { *q = gb; } }
                return;
            }
            fn qux(r: int**) {
                if (nondet_bool()) { *r = null; } else { *r = null; }
                return;
            }
            "#,
            CheckerKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
        let r = &reports[0];
        assert_eq!(r.sink_role, SinkRole::Deref);
        // Path crosses from bar (source) into foo (sink).
        assert_ne!(r.source_func, r.sink_func);
    }

    #[test]
    fn figure1_with_contradictory_guard_refuted() {
        // Variant: the store *q = c only happens when *q == null, but the
        // deref print(*f) requires f != null... make the bug infeasible by
        // guarding source and sink on opposite polarities of the same
        // caller condition.
        let (_a, reports) = check(
            r#"
            fn foo(g: bool) {
                let ptr: int** = malloc();
                let a: int* = malloc();
                *ptr = a;
                if (g) { bar(ptr); }
                let f: int* = *ptr;
                if (!g) { print(*f); }
                return;
            }
            fn bar(q: int**) {
                let c: int* = malloc();
                *q = c;
                free(c);
                return;
            }
            "#,
            CheckerKind::UseAfterFree,
        );
        assert!(reports.is_empty(), "g ∧ ¬g refuted: {reports:?}");
    }

    #[test]
    fn context_sensitivity_distinguishes_call_sites() {
        // id() is called twice; only the freed pointer's flow matters.
        // A context-insensitive analysis would conflate p and q and
        // report the deref of q too.
        let (_a, reports) = check(
            "fn id(x: int*) -> int* { return x; }
             fn main() {
                let a: int* = malloc();
                let b: int* = malloc();
                let p: int* = id(a);
                let q: int* = id(b);
                free(a);
                let y: int = *q;
                print(y);
                return;
             }",
            CheckerKind::UseAfterFree,
        );
        // a (freed) flows only to p through the matched descent/ascent;
        // the innocent q = id(b) is never reached. The layered baseline's
        // context-insensitive return binding conflates the call sites and
        // warns here (see pinpoint-baseline's svfg tests).
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn freed_value_returned_to_caller() {
        // VF2-style: the freed pointer is returned; the caller derefs it.
        let (_a, reports) = check(
            "fn make() -> int* {
                let p: int* = malloc();
                free(p);
                return p;
             }
             fn main() {
                let q: int* = make();
                let x: int = *q;
                print(x);
                return;
             }",
            CheckerKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
    }

    #[test]
    fn freed_param_used_by_caller_after_call() {
        // VF3-style (Fig. 5): foo frees its parameter; the caller's
        // argument is dangerous afterwards.
        let (_a, reports) = check(
            "fn release(a: int*) { free(a); return; }
             fn main() {
                let p: int* = malloc();
                release(p);
                free(p);
                return;
             }",
            CheckerKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1, "double free across call: {reports:?}");
        assert_eq!(reports[0].sink_role, SinkRole::Free);
    }

    #[test]
    fn taint_path_traversal_detected() {
        let (_a, reports) = check(
            "fn main() {
                let input: int = fgetc();
                let path: int = input + 1;
                let h: int = fopen(path);
                print(h);
                return;
            }",
            CheckerKind::PathTraversal,
        );
        assert_eq!(reports.len(), 1, "taint flows through arithmetic");
    }

    #[test]
    fn taint_does_not_cross_checkers() {
        let (_a, reports) = check(
            "fn main() {
                let secret: int = getpass();
                let h: int = fopen(secret);
                print(h);
                return;
            }",
            CheckerKind::PathTraversal,
        );
        assert!(reports.is_empty(), "getpass is not a fgetc source");
    }

    #[test]
    fn data_transmission_interprocedural() {
        let (_a, reports) = check(
            "fn fetch() -> int {
                let s: int = getpass();
                return s;
            }
            fn main() {
                let v: int = fetch();
                sendto(v);
                return;
            }",
            CheckerKind::DataTransmission,
        );
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn null_deref_with_guard_refuted() {
        let (_a, reports) = check(
            "fn main(p0: int*) {
                let p: int* = null;
                if (p != null) {
                    let x: int = *p;
                    print(x);
                }
                return;
            }",
            CheckerKind::NullDeref,
        );
        assert!(reports.is_empty(), "guard p != null refutes: {reports:?}");
    }

    #[test]
    fn null_deref_unguarded_reported() {
        let (_a, reports) = check(
            "fn main() {
                let p: int* = null;
                let x: int = *p;
                print(x);
                return;
            }",
            CheckerKind::NullDeref,
        );
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn uaf_through_global_channel() {
        let (_a, reports) = check(
            "global cell: int*;
             fn stash(p: int*) { *cell = p; return; }
             fn main() {
                let p: int* = malloc();
                stash(p);
                free(p);
                take();
                return;
             }
             fn take() {
                let q: int* = *cell;
                let x: int = *q;
                print(x);
                return;
             }",
            CheckerKind::UseAfterFree,
        );
        assert!(!reports.is_empty(), "global channel flows: {reports:?}");
    }

    #[test]
    fn report_description_is_readable() {
        let (_a, reports) = check(
            "fn main() {
                let p: int* = malloc();
                free(p);
                free(p);
                return;
            }",
            CheckerKind::UseAfterFree,
        );
        // Names are resolved at creation: Display needs no module.
        let desc = reports[0].to_string();
        assert!(desc.contains("use-after-free"));
        assert!(desc.contains("main:"), "{desc}");
    }

    #[test]
    fn detection_stats_populated() {
        let a = Analysis::from_source(
            "fn main() {
                let p: int* = malloc();
                free(p);
                let x: int = *p;
                print(x);
                return;
            }",
        )
        .expect("compiles");
        let mut session = a.session();
        let reports = session.check(CheckerKind::UseAfterFree);
        assert_eq!(reports.len(), 1);
        let stats = session.stats();
        assert_eq!(stats.detect.sources, 1);
        assert!(stats.detect.visited > 0);
        assert_eq!(stats.detect.reports, 1);
    }

    #[test]
    fn solve_disabled_reports_candidates() {
        let src = "fn main(c: bool) {
            let p: int* = malloc();
            if (c) { free(p); }
            if (!c) { let x: int = *p; print(x); }
            return;
        }";
        let a = crate::AnalysisBuilder::new()
            .solve(false)
            .build_source(src)
            .unwrap();
        let reports = a.check(CheckerKind::UseAfterFree);
        assert_eq!(
            reports.len(),
            1,
            "without SMT the infeasible candidate survives (ablation)"
        );
    }

    #[test]
    fn deep_call_chain_within_context_budget() {
        let (_a, reports) = check(
            "fn l1(p: int*) { free(p); return; }
             fn l2(p: int*) { l1(p); return; }
             fn l3(p: int*) { l2(p); return; }
             fn main() {
                let p: int* = malloc();
                l3(p);
                let x: int = *p;
                print(x);
                return;
             }",
            CheckerKind::UseAfterFree,
        );
        assert_eq!(reports.len(), 1, "3 levels deep: {reports:?}");
    }

    #[test]
    fn recursion_terminates() {
        let (_a, reports) = check(
            "fn rec(p: int*, n: int) {
                if (n > 0) { rec(p, n - 1); }
                free(p);
                return;
             }
             fn main() {
                let p: int* = malloc();
                rec(p, 3);
                return;
             }",
            CheckerKind::UseAfterFree,
        );
        // rec frees p possibly multiple times dynamically, but with the
        // unrolled call graph only one free is seen; no false double-free
        // within a single unrolling, and no hang.
        let _ = reports;
    }
}

#[cfg(test)]
mod witness_tests {
    use crate::driver::Analysis;
    use crate::spec::CheckerKind;

    #[test]
    fn witness_names_the_deciding_branch() {
        let a = Analysis::from_source(
            "fn main(enabled: bool) {
                let p: int* = malloc();
                if (enabled) { free(p); }
                if (enabled) { let x: int = *p; print(x); }
                return;
            }",
        )
        .unwrap();
        let reports = a.check(CheckerKind::UseAfterFree);
        assert_eq!(reports.len(), 1);
        let w = &reports[0].witness;
        assert!(
            w.iter().any(|(name, val)| name == "main:enabled" && *val),
            "witness must set enabled = true, got {w:?}"
        );
    }

    #[test]
    fn unconditional_bug_has_minimal_witness() {
        let a = Analysis::from_source(
            "fn main() {
                let p: int* = malloc();
                free(p);
                free(p);
                return;
            }",
        )
        .unwrap();
        let reports = a.check(CheckerKind::UseAfterFree);
        assert_eq!(reports.len(), 1);
        // No branch variables exist; the witness carries no branch names.
        assert!(reports[0].witness.is_empty(), "{:?}", reports[0].witness);
    }
}

#[cfg(test)]
mod ordering_tests {
    use crate::driver::Analysis;
    use crate::spec::CheckerKind;

    /// The danger-onset filter generalises across function boundaries: a
    /// use ordered strictly before the call that frees cannot be a UAF.
    #[test]
    fn use_before_freeing_call_not_reported() {
        let a = Analysis::from_source(
            "fn release(x: int*) { free(x); return; }
             fn main() {
                let p: int* = malloc();
                *p = 1;
                release(p);
                return;
             }",
        )
        .unwrap();
        let reports = a.check(CheckerKind::UseAfterFree);
        assert!(reports.is_empty(), "store precedes the call: {reports:?}");
    }

    /// …but a use after the freeing call is reported.
    #[test]
    fn use_after_freeing_call_reported() {
        let a = Analysis::from_source(
            "fn release(x: int*) { free(x); return; }
             fn main() {
                let p: int* = malloc();
                release(p);
                *p = 1;
                return;
             }",
        )
        .unwrap();
        let reports = a.check(CheckerKind::UseAfterFree);
        assert_eq!(reports.len(), 1, "{reports:?}");
    }

    /// A use before a *conditional* freeing call in a sibling branch is
    /// not dominated-before, so it must still be reported when feasible.
    #[test]
    fn non_dominating_order_still_reported() {
        let a = Analysis::from_source(
            "fn release(x: int*) { free(x); return; }
             fn main(c: bool) {
                let p: int* = malloc();
                if (c) { release(p); }
                *p = 1;
                return;
             }",
        )
        .unwrap();
        let reports = a.check(CheckerKind::UseAfterFree);
        assert_eq!(
            reports.len(),
            1,
            "the join use follows the free: {reports:?}"
        );
    }

    /// The onset resets correctly through a returned value: a use of the
    /// receiver after the call is a UAF even if the same cell was used
    /// before the call through a different value.
    #[test]
    fn onset_through_return_value() {
        let a = Analysis::from_source(
            "fn broken() -> int* {
                let p: int* = malloc();
                free(p);
                return p;
             }
             fn main() {
                let fine: int* = malloc();
                *fine = 1;
                let q: int* = broken();
                let x: int = *q;
                print(x);
                return;
             }",
        )
        .unwrap();
        let reports = a.check(CheckerKind::UseAfterFree);
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(
            a.module.func(reports[0].sink_func).name,
            "main",
            "the deref of q, not the store to fine"
        );
    }
}
