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
//! Every source is searched; the interface summaries of
//! [`crate::vfsummary`] are read only inside a search, to skip a descent
//! into a callee formal that can reach no sink, global store or return.
//!
//! A completed source→sink path is turned into an *efficient path
//! condition* (Eq. 1–3) and handed to the SMT solver; only satisfiable
//! paths are reported. Per source these are four stages with typed
//! hand-offs: the worker's search yields a candidate path, the path
//! condition builder its condition, the worker's decision step a verdict,
//! and its record step the candidate event the merge replays.

use crate::cond::{CondBuilder, CondConfig, CtxId, CtxInterner, ROOT};
use crate::driver::Analysis;
use crate::seg::{EdgeKind, ModuleSeg, SegEdge};
use crate::spec::{
    CheckerKind, ResolvedSpec, SinkRole, SinkSite, SinkSpec, SourceSite, SourceSpec, Spec,
};
use crate::vfsummary::{ModuleSummaries, SummaryCx};
use pinpoint_ir::{CallGraph, Cfg, DomTree, FuncId, GlobalId, InstId, Module, ValueId};
use pinpoint_obs::{QueryCost, QueryOutcome, QueryRecord, TraceBuf};
use pinpoint_pta::Symbols;
use pinpoint_smt::{
    canon_info, LinearSolver, LinearVerdict, SmtResult, SmtSession, TermArena, TermId, Verdict,
    VerdictTable,
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
    /// Use the compositional VF summaries (§3.3.2) to prune descents into
    /// callee formals that cannot contribute. `false` is the summary-free
    /// reference search, which reports byte-identically.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Always zero: the source gate it counted is gone, and every source
    /// is searched. Kept only because the frozen `pinbench` probe reads
    /// it; the benchmark-only change of ROADMAP item 1 removes it.
    pub summary_gated: u64,
}

/// A calling-stack frame to return into: (caller func, caller ctx, call
/// site).
type Frame = (FuncId, CtxId, InstId);

/// One node of the search: a value in a function under a context, with the
/// calling stack for return matching.
#[derive(Debug)]
struct Node {
    func: FuncId,
    value: ValueId,
    ctx: CtxId,
    /// Frames to return into.
    stack: Rc<Vec<Frame>>,
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
    /// A call-boundary crossing: a descent from an actual argument into
    /// the callee's formal, a return ascent from the returned value to the
    /// call's receiver, or a (VF3-style) parameter ascent from a formal
    /// back to the caller's actual. Each binds the call's actuals to the
    /// callee's formals and adds the call site's control dependences.
    Call {
        parent: Rc<Trace>,
        crossing: Crossing,
    },
    GlobalChannel {
        parent: Rc<Trace>,
        src_func: FuncId,
        src_value: ValueId,
        src_cond: TermId,
        dst_func: FuncId,
        dst_value: ValueId,
        dst_cond: TermId,
    },
}

/// One call-boundary crossing of the search (see [`Trace::Call`]).
#[derive(Debug, Clone, Copy)]
struct Crossing {
    caller: FuncId,
    caller_ctx: CtxId,
    site: InstId,
    callee: FuncId,
    callee_ctx: CtxId,
    /// The path step the crossing contributes.
    step: Step,
    /// A return ascent's `(returned value, receiver)`: the one crossing
    /// that also equates a caller value with a callee value.
    ret: Option<(ValueId, ValueId)>,
}

impl Node {
    /// The trace of taking `crossing` from this node.
    fn cross(&self, crossing: Crossing) -> Rc<Trace> {
        Rc::new(Trace::Call {
            parent: Rc::clone(&self.trace),
            crossing,
        })
    }

    /// The node an ascent across `c` reaches: `value` in the caller,
    /// under the caller's context, dangerous from the call site on.
    fn ascent(&self, c: Crossing, value: ValueId, stack: Rc<Vec<Frame>>, depth: u32) -> Node {
        Node {
            func: c.caller,
            value,
            ctx: c.caller_ctx,
            stack,
            trace: self.cross(c),
            depth,
            since: Some(c.site),
        }
    }
}

/// A candidate source→sink pair key: `(source func, source site, sink
/// func, sink site)`.
type CandidateKey = (FuncId, InstId, FuncId, InstId);

/// Stage 1's hand-off: the search reached `node`, where `sink` consumes
/// the dangerous value.
#[derive(Debug, Clone, Copy)]
struct Candidate<'n> {
    node: &'n Node,
    sink: SinkSite,
    key: CandidateKey,
    /// The mirrored key a free→free pair also suppresses (double-free
    /// symmetry).
    mirror: Option<CandidateKey>,
}

/// Stage 2's hand-off: a candidate's efficient path condition (Eq. 1–3).
#[derive(Debug)]
struct PathCondition {
    cond: TermId,
    /// Number of conjuncts.
    size: usize,
    /// The value-flow path, source value first.
    steps: Vec<Step>,
}

/// How [`Worker::decide`] answered a path condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// The condition is a constant: the session answers it without the
    /// verdict table (free either way, and kept out of its counters).
    Constant,
    /// The run's snapshot, or an earlier candidate of the same source,
    /// had the verdict.
    Table,
    /// A CDCL solve on the source's session; its verdict is recorded.
    Cdcl,
    /// A CDCL solve that ran out of rounds and answered a conservative
    /// `Sat`, never recorded.
    Budget,
}

/// Stage 3's hand-off.
#[derive(Debug)]
struct Decision {
    result: SmtResult,
    /// The witness of a `Sat` result, by internal variable name.
    model: Vec<(String, bool)>,
    via: Via,
}

/// Stage 4's product: one evaluated candidate, in per-source discovery
/// order. Recorded instead of immediately reported so the merge can
/// replay cross-source deduplication deterministically.
#[derive(Debug, Clone)]
struct CandidateEvent {
    key: CandidateKey,
    mirror: Option<CandidateKey>,
    outcome: QueryOutcome,
    /// The DPLL(T) cost of evaluating the path condition (all zero when
    /// solving was disabled or answered from the verdict table).
    cost: QueryCost,
    /// The report, when the path condition was satisfiable (or solving
    /// was disabled).
    report: Option<Report>,
}

/// Everything one source's search produced.
///
/// Besides the candidate events and counters the merge replays, the
/// outcome records the *dependency cone* of the search: every function a
/// node of the search lived in (`cone`), every function whose caller
/// list the search consulted for an unmatched or parameter ascent
/// (`callers_consulted`), and every global whose load list fed a
/// global-cell channel (`globals_consulted`). Together with the
/// per-function update stamps, these determine the search
/// result completely (see [`cone_fingerprint`]), which is what makes
/// per-source caching across edits sound.
#[derive(Debug, Clone, Default)]
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
    /// `new_verdicts` by fingerprint, for reuse within the source.
    local_idx: HashMap<u128, usize>,
    /// The search stopped early on the vertex budget.
    truncated: bool,
    /// Sorted, deduplicated functions visited (always contains the
    /// source's function).
    cone: Vec<FuncId>,
    /// Sorted functions whose `ModuleSeg::callers` lists were read.
    callers_consulted: Vec<FuncId>,
    /// Sorted globals whose `ModuleSeg::global_loads` lists were read.
    globals_consulted: Vec<GlobalId>,
}

impl SourceOutcome {
    /// The outcome of a source in `fid` before its search runs: no
    /// events, no verdicts, no cost, a cone of `fid` alone.
    fn new(fid: FuncId) -> Self {
        SourceOutcome {
            cone: vec![fid],
            ..SourceOutcome::default()
        }
    }
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
    property: &'a ResolvedSpec<'a>,
    kind: Option<CheckerKind>,
    config: DetectConfig,
}

/// Output of one detection pass.
#[derive(Debug)]
pub(crate) struct DetectOutput {
    pub reports: Vec<Report>,
    /// Per-query attribution, ids in replay order from 0.
    pub queries: Vec<QueryRecord>,
    /// The query-cache split of the sources (without a cache, every one
    /// of them counts as re-run).
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
                outcome: ev.outcome,
                cost: ev.cost,
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
                    stats.linear_refuted += u64::from(ev.outcome == QueryOutcome::LinearRefuted);
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
    /// Fresh per source: its memo is keyed by `TermId`, which rollback
    /// recycles.
    linear: LinearSolver,
    /// Per-function dominator trees for the same-function ordering filter.
    doms: HashMap<FuncId, DomTree>,
    /// Per-function sink index for this property, filled on first visit.
    sinks: HashMap<FuncId, HashMap<ValueId, Vec<SinkSite>>>,
    /// The interface summaries of the property being checked (§3.3.2),
    /// read for descent pruning and forced for the callee cones the
    /// searches actually reach; `None` under the summary-free reference.
    /// Worker-private (and its forcing counted nowhere), but a pure
    /// function of the artefact, so outcomes stay shard-independent.
    params: Option<(SummaryCx<'a>, ModuleSummaries)>,
}

/// Runs one property over the artefact `a` with `threads` workers, merging
/// per-source outcomes into reports and statistics (added onto `stats`)
/// that are byte-identical for any thread count, with or without the
/// optional query cache.
///
/// Sources are read from the SEG's source index
/// ([`ResolvedSpec::sources`]) in module order. Each is answered by the
/// first of two means that applies:
///
/// 1. `cache` — the per-source [`QueryCache`], validated against the
///    artefact's current per-function update stamps: a
///    source whose recomputed [`cone_fingerprint`] still matches its
///    entry replays the cached outcome, including the verdict counters
///    and costs recorded when it was computed (its verdict snapshot may
///    predate the current one), so solver-side statistics reflect the
///    work actually performed, not a hypothetical fresh run;
/// 2. the demand-driven search: the remaining sources are partitioned
///    into contiguous shards ([`TraceBuf::shard_map`]). Each worker runs
///    a source through the four stages of [`Worker::run_source`] —
///    search, path condition, decision, record — and keeps one
///    [`CandidateEvent`] per evaluated candidate (it cannot know which
///    candidates an earlier source already claimed). Fresh outcomes are
///    written back to the cache when there is one.
///
/// The merge then replays all outcomes in canonical source order against
/// a global seen-set, counting candidates and emitting reports exactly as
/// a single-threaded, summary-free, uncached pass would.
///
/// Besides reports and statistics, every evaluated candidate — including
/// those a later dedup suppresses, since each was really solved — comes
/// back as a [`QueryRecord`] with its solver cost, ids assigned in the
/// replay order. When `trace` is recording, each searched source gets one
/// `detect.source` span and each evaluated candidate one `smt.query` span
/// nested in it, in a worker-private buffer merged at the join. Without a
/// cache, a pass has exactly as many `smt.query` spans as
/// [`QueryRecord`]s, and one `detect.source` span per source.
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
    mut cache: Option<&mut QueryCache>,
) -> DetectOutput {
    let (module, segs) = (&a.module, &a.segs);
    // Only an owned workspace passes a cache, and its artefact has keys.
    debug_assert!(cache.is_none() || a.keys.is_some());
    let stamps: &[u64] = a.keys.as_ref().map_or(&[], |k| &k.stamps);
    let spec_fp = spec_fingerprint(spec, &config);
    let property = ResolvedSpec::new(spec, module);
    // Canonical `(function, site)` order: the merge replays it, and its
    // seen-set keeps the first claim of a candidate.
    let sources = property.sources(segs, &a.callgraph);
    let mut slots: Vec<Option<SourceOutcome>> = Vec::with_capacity(sources.len());
    let mut rerun: Vec<usize> = Vec::new();
    for (i, &(fid, s)) in sources.iter().enumerate() {
        let hit = cache.as_ref().and_then(|cache| {
            let e = cache.entries.get(&(spec_fp, fid, s.site, s.value))?;
            (cone_fingerprint(&e.outcome, a, stamps) == Some(e.cone_fp)).then(|| e.outcome.clone())
        });
        if hit.is_none() {
            rerun.push(i);
        }
        slots.push(hit);
    }
    let reuse = QueryReuse {
        reused: sources.len() as u64 - rerun.len() as u64,
        rerun: rerun.len() as u64,
    };
    if !rerun.is_empty() {
        let cx = SpecContext {
            module,
            segs,
            callgraph: &a.callgraph,
            property: &property,
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
                if let Some(cone_fp) = cone_fingerprint(&outcome, a, stamps) {
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

    /// When set, the detection pass silently drops the last merged
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

/// Structural fingerprint of a spec's shape: its sources, sinks and
/// transform traversal.
fn shape_fingerprint(spec: &Spec) -> u128 {
    use pinpoint_ir::fingerprint::Fnv128;
    let mut h = Fnv128::new();
    h.write_u32(1); // codec/schema version
    match &spec.source {
        SourceSpec::CallReceiver(names) => {
            h.write_u32(0);
            h.write_u64(names.len() as u64);
            for n in names {
                h.write_str(n);
            }
        }
        SourceSpec::FreeArgument => h.write_u32(1),
        SourceSpec::NullConstant => h.write_u32(2),
    }
    match &spec.sink {
        SinkSpec::DerefsAndFrees => h.write_u32(0),
        SinkSpec::Derefs => h.write_u32(1),
        SinkSpec::Calls(names) => {
            h.write_u32(2);
            h.write_u64(names.len() as u64);
            for n in names {
                h.write_str(n);
            }
        }
    }
    h.write_u32(spec.traverses_transforms as u32);
    h.finish()
}

/// Fingerprint of everything that selects and parameterises a property's
/// searches: the spec's shape ([`shape_fingerprint`]) and name, plus
/// every detection knob that can change a search or its evaluation.
pub(crate) fn spec_fingerprint(spec: &Spec, config: &DetectConfig) -> u128 {
    use pinpoint_ir::fingerprint::Fnv128;
    let mut h = Fnv128::new();
    h.write_u128(shape_fingerprint(spec));
    h.write_str(&spec.name);
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
/// * per cone member: the number of the update that last re-analysed it
///   (its stamp; see `Keys::update`). An update re-analyses exactly the
///   callers-closure of the functions whose body it changed, so the
///   stamp moves whenever the member's body, its SEG/sinks/dominators,
///   or the body or connector shape of anything it can call moves —
///   which is what sink checks, local edges, descents, summary
///   consultations, and matched ascents read;
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
fn cone_fingerprint(out: &SourceOutcome, a: &Analysis, stamps: &[u64]) -> Option<u128> {
    use pinpoint_ir::fingerprint::Fnv128;
    let (segs, cg) = (&a.segs, &*a.callgraph);
    let mut h = Fnv128::new();
    h.write_u64(out.cone.len() as u64);
    for &fid in &out.cone {
        h.write_u32(fid.0);
        h.write_u64(*stamps.get(fid.0 as usize)?);
    }
    h.write_u64(out.callers_consulted.len() as u64);
    for &fid in &out.callers_consulted {
        h.write_u32(fid.0);
        h.write_u64(segs.callers(cg, fid).count() as u64);
        for (caller, site) in segs.callers(cg, fid) {
            h.write_u32(caller.0);
            h.write_u32(site.block.0);
            h.write_u64(site.index as u64);
            match segs.seg(caller).call_site(site) {
                Some(call) => {
                    h.write_u32(1);
                    h.write_u32(call.callee.0);
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

/// The search's work list and the consultation record it keeps besides
/// the visited functions: every function whose artefact data a search
/// reads (its *cone*), plus the caller lists and global load lists it
/// consults outside the cone. Together these determine the search, which
/// is what makes the outcome cacheable.
struct Walk {
    stack: Vec<Node>,
    /// Calling contexts, interned per source.
    ctxs: CtxInterner,
    cone: HashSet<FuncId>,
    callers_consulted: HashSet<FuncId>,
    globals_consulted: HashSet<GlobalId>,
}

/// Sorts a consultation set into its outcome field.
fn sorted<T: Ord>(set: HashSet<T>) -> Vec<T> {
    let mut v: Vec<T> = set.into_iter().collect();
    v.sort_unstable();
    v
}

/// `func@b{block}.i{index}`: the label of a source or sink span.
fn site_label(module: &Module, func: FuncId, site: InstId) -> String {
    let name = &module.func(func).name;
    format!("{name}@b{}.i{}", site.block.0, site.index)
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
            linear: LinearSolver::new(),
            doms: HashMap::new(),
            sinks: HashMap::new(),
            params: cx.config.use_summaries.then(|| {
                let scx = SummaryCx::new(cx.module, cx.segs, cx.property.spec, cx.callgraph);
                (scx, ModuleSummaries::new(cx.module.funcs.len()))
            }),
        }
    }

    /// The property's sinks consuming `value` in `fid`.
    fn sinks_at(&mut self, fid: FuncId, value: ValueId) -> Vec<SinkSite> {
        let cx = self.cx;
        let index = self.sinks.entry(fid).or_insert_with(|| {
            let mut by_value: HashMap<ValueId, Vec<SinkSite>> = HashMap::new();
            for s in cx.property.sinks(cx.module.func(fid)) {
                by_value.entry(s.value).or_default().push(s);
            }
            by_value
        });
        index.get(&value).cloned().unwrap_or_default()
    }

    /// `true` if the sink is ordered strictly before the source within the
    /// same function (use-before-free on every path — not a bug).
    fn sink_precedes_source(&mut self, fid: FuncId, sink: InstId, source: InstId) -> bool {
        if sink.block == source.block {
            return sink.index < source.index;
        }
        let module = self.cx.module;
        let dom = self.doms.entry(fid).or_insert_with(|| {
            let f = module.func(fid);
            DomTree::dominators(f, &Cfg::new(f))
        });
        dom.dominates(sink.block, source.block)
    }

    /// Runs the four stages for one source: [`Worker::search`] hands each
    /// candidate to [`PathCondition::build`], [`Worker::decide`] and
    /// [`Worker::record`] as it is found. The worker's arena and symbol
    /// cache are restored afterwards, so every source is evaluated from
    /// the pristine artefact state.
    fn run_source(
        &mut self,
        source_func: FuncId,
        source: SourceSite,
        lane: &mut TraceBuf,
    ) -> SourceOutcome {
        let module = self.cx.module;
        let source_span = lane.open(
            "detect.source",
            site_label(module, source_func, source.site),
        );
        let mark = self.arena.mark();
        let ckpt = self.symbols.checkpoint();
        // A fresh session per source: its state (and hence every query's
        // cost attribution) is a pure function of this source alone.
        self.session = SmtSession::new();
        self.linear = LinearSolver::new();
        let mut out = SourceOutcome::new(source_func);
        self.search(source_func, source, &mut out, |w, ctxs, out, cand| {
            let span = lane.open(
                "smt.query",
                site_label(module, cand.node.func, cand.sink.site),
            );
            let pc = PathCondition::build(w, ctxs, source_func, source, &cand);
            let decision = w.cx.config.solve.then(|| w.decide(pc.cond, out));
            let event = w.record(source_func, source, cand, pc, decision);
            lane.close(span);
            out.events.push(event);
        });
        self.arena.truncate_to(mark);
        self.symbols.rollback(ckpt);
        lane.close(source_span);
        out
    }

    /// Stage 1, the demand search from one source (transition 1, sink
    /// checks, here; 2–5 in [`Worker::expand`]). Each candidate goes to
    /// `on_candidate` the moment it is found, not after the walk: the
    /// condition builder interns calling contexts into the walk's
    /// interner and appends to the worker's arena, so context ids and
    /// term ids (and the witnesses, which follow term order) depend on
    /// evaluation running in discovery order.
    fn search(
        &mut self,
        source_func: FuncId,
        source: SourceSite,
        out: &mut SourceOutcome,
        mut on_candidate: impl FnMut(&mut Self, &mut CtxInterner, &mut SourceOutcome, Candidate<'_>),
    ) {
        let budget = self.cx.config.max_visited_per_source;
        let mut walk = Walk {
            stack: vec![Node {
                func: source_func,
                value: source.value,
                ctx: ROOT,
                stack: Rc::new(Vec::new()),
                trace: Rc::new(Trace::Start),
                depth: 0,
                since: Some(source.site),
            }],
            ctxs: CtxInterner::new(),
            cone: HashSet::from([source_func]),
            callers_consulted: HashSet::new(),
            globals_consulted: HashSet::new(),
        };
        let mut visited: HashSet<(FuncId, ValueId, CtxId)> = HashSet::new();
        // Local deduplication only; the cross-source pass happens at the
        // merge replay.
        let mut local_seen: HashSet<CandidateKey> = HashSet::new();
        while let Some(node) = walk.stack.pop() {
            // The budget refuses a new vertex, never a revisit.
            let vertex = (node.func, node.value, node.ctx);
            if visited.len() < budget {
                if !visited.insert(vertex) {
                    continue;
                }
            } else if visited.contains(&vertex) {
                continue;
            } else {
                out.truncated = true;
                break;
            }
            walk.cone.insert(node.func);
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
                let cand = Candidate {
                    node: &node,
                    sink,
                    key,
                    mirror,
                };
                on_candidate(self, &mut walk.ctxs, out, cand);
            }
            self.expand(&node, &mut walk, out);
        }
        out.visited = visited.len() as u64;
        out.cone = sorted(walk.cone);
        out.callers_consulted = sorted(walk.callers_consulted);
        out.globals_consulted = sorted(walk.globals_consulted);
    }

    /// Transitions 2–5 of the search: pushes every successor of `node`.
    fn expand(&mut self, node: &Node, walk: &mut Walk, out: &mut SourceOutcome) {
        let cx = self.cx;
        let seg = cx.segs.seg(node.func);
        // 2. Local SEG edges.
        for e in seg.succs(node.value) {
            if e.kind == EdgeKind::Transform && !cx.property.spec.traverses_transforms {
                continue;
            }
            walk.stack.push(Node {
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
            if node.depth >= cx.config.max_ctx_depth {
                continue;
            }
            let gid = au.callee;
            if gid == node.func {
                continue; // direct recursion: summary-free (§4.2)
            }
            if let Some((scx, sums)) = &mut self.params {
                if !sums.param_fruitful(scx, gid, au.index) {
                    out.skipped_descents += 1;
                    continue; // VF summary: nothing reachable below
                }
            }
            let Some(&formal) = cx.module.func(gid).params.get(au.index) else {
                continue;
            };
            let callee_ctx = walk.ctxs.callee_of(node.ctx, node.func, au.site);
            let mut stack = (*node.stack).clone();
            stack.push((node.func, node.ctx, au.site));
            let crossing = Crossing {
                caller: node.func,
                caller_ctx: node.ctx,
                site: au.site,
                callee: gid,
                callee_ctx,
                step: Step {
                    func: node.func,
                    value: node.value,
                    note: "call →",
                },
                ret: None,
            };
            walk.stack.push(Node {
                func: gid,
                value: formal,
                ctx: callee_ctx,
                stack: Rc::new(stack),
                trace: node.cross(crossing),
                depth: node.depth + 1,
                since: None,
            });
        }
        self.ascend(node, walk);
        self.cross_globals(node, walk);
    }

    /// Transition 4, return ascents: a matched return continues at the
    /// receiver of the frame on the stack, an unmatched one (VF2-style)
    /// at every caller's receiver. Transition 4b, parameter ascents
    /// (VF3-style): a dangerous formal of an un-entered frame means the
    /// callers' actual arguments hold the same value after the call.
    fn ascend(&mut self, node: &Node, walk: &mut Walk) {
        let cx = self.cx;
        let segs = cx.segs;
        let deep = node.depth >= cx.config.max_ctx_depth;
        // A crossing from `node` up into `caller` at `site`.
        let up = |caller, caller_ctx, site, step, ret| Crossing {
            caller,
            caller_ctx,
            site,
            callee: node.func,
            callee_ctx: node.ctx,
            step,
            ret,
        };
        if let Some(ret_idx) = segs.seg(node.func).ret_index(node.value) {
            let receiver = |caller: FuncId, site: InstId| {
                segs.seg(caller).call_site(site)?.dsts.get(ret_idx).copied()
            };
            let step = Step {
                func: node.func,
                value: node.value,
                note: "return ←",
            };
            if let Some(&(caller, caller_ctx, site)) = node.stack.last() {
                // Matched return: continue at the recorded receiver.
                if let Some(recv) = receiver(caller, site) {
                    let mut stack = (*node.stack).clone();
                    stack.pop();
                    let c = up(caller, caller_ctx, site, step, Some((node.value, recv)));
                    let depth = node.depth.saturating_sub(1);
                    walk.stack.push(node.ascent(c, recv, Rc::new(stack), depth));
                }
            } else if !deep {
                // Unmatched: ascend to every caller (VF2-style).
                walk.callers_consulted.insert(node.func);
                for (caller, site) in segs.callers(cx.callgraph, node.func) {
                    if caller == node.func {
                        continue;
                    }
                    let Some(recv) = receiver(caller, site) else {
                        continue;
                    };
                    let caller_ctx = walk.ctxs.caller_of(node.ctx, caller, site);
                    let c = up(caller, caller_ctx, site, step, Some((node.value, recv)));
                    walk.stack
                        .push(node.ascent(c, recv, Rc::default(), node.depth + 1));
                }
            }
        }
        if !node.stack.is_empty() || deep {
            return;
        }
        let f = cx.module.func(node.func);
        let Some(param_idx) = f.params.iter().position(|&p| p == node.value) else {
            return;
        };
        walk.callers_consulted.insert(node.func);
        for (caller, site) in segs.callers(cx.callgraph, node.func) {
            if caller == node.func {
                continue;
            }
            let Some(call) = segs.seg(caller).call_site(site) else {
                continue;
            };
            let Some(&actual) = call.args.get(param_idx) else {
                continue;
            };
            let caller_ctx = walk.ctxs.caller_of(node.ctx, caller, site);
            let step = Step {
                func: caller,
                value: actual,
                note: "arg ←",
            };
            let c = up(caller, caller_ctx, site, step, None);
            walk.stack
                .push(node.ascent(c, actual, Rc::default(), node.depth + 1));
        }
    }

    /// Transition 5, global-cell channels. The per-function store index
    /// says whether any global's list is worth scanning at all.
    fn cross_globals(&mut self, node: &Node, walk: &mut Walk) {
        let segs = self.cx.segs;
        if segs
            .global_store_values(node.func)
            .binary_search(&node.value)
            .is_err()
        {
            return;
        }
        for (&g, entries) in &segs.global_stores {
            let here = entries
                .iter()
                .filter(|(f, v, _)| *f == node.func && *v == node.value);
            for &(_, _, store_cond) in here {
                walk.globals_consulted.insert(g);
                let loads = segs.global_loads.get(&g).map_or(&[][..], Vec::as_slice);
                for &(lf, lv, load_cond) in loads {
                    walk.stack.push(Node {
                        func: lf,
                        value: lv,
                        ctx: ROOT,
                        stack: Rc::default(),
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
    }

    /// Stage 3: answers a path condition. A constant goes straight to the
    /// session. Otherwise the canonical fingerprint is looked up in the
    /// run snapshot, then in this source's earlier verdicts; a hit replays
    /// the recorded verdict, rebinding a `Sat` witness from canonical
    /// variable indices to this instance's names, so it yields
    /// byte-identical output to the solve it replaces. A miss runs CDCL on
    /// the source's incremental session and records the verdict, unless
    /// the round budget forced a conservative answer. The outcome's
    /// verdict counters follow from the decision's [`Via`].
    fn decide(&mut self, cond: TermId, out: &mut SourceOutcome) -> Decision {
        let resident = self.session.num_learnt() as u64;
        let (result, model, via) = if self.arena.is_true(cond) || self.arena.is_false(cond) {
            let (result, model) = self.session.check_with_model(&self.arena, cond);
            (result, model, Via::Constant)
        } else {
            let info = canon_info(&self.arena, cond);
            let fp = info.fingerprint;
            let local = out.local_idx.get(&fp).map(|&i| &out.new_verdicts[i].1);
            match self.verdicts.get(fp).or(local) {
                Some(Verdict::Unsat) => (SmtResult::Unsat, Vec::new(), Via::Table),
                Some(Verdict::Sat(vals)) => (SmtResult::Sat, info.rebind(vals), Via::Table),
                None => {
                    let (result, model) = self.session.check_with_model(&self.arena, cond);
                    if self.session.last_cost.budget_exhausted > 0 {
                        (result, model, Via::Budget)
                    } else {
                        out.local_idx.insert(fp, out.new_verdicts.len());
                        out.new_verdicts.push((fp, info.verdict(result, &model)));
                        (result, model, Via::Cdcl)
                    }
                }
            }
        };
        match via {
            Via::Constant => {}
            Via::Table => out.verdict_hits += 1,
            Via::Cdcl | Via::Budget => {
                out.verdict_misses += 1;
                out.reused_clauses += resident;
            }
        }
        Decision { result, model, via }
    }

    /// Stage 4: the candidate's event. A feasible (or unsolved) path
    /// becomes a report with its witness; a refuted one records whether
    /// the linear-time solver alone would have refuted it (the §3.1.1
    /// measurement, only under [`DetectConfig::measure_linear`]).
    fn record(
        &mut self,
        source_func: FuncId,
        source: SourceSite,
        cand: Candidate<'_>,
        pc: PathCondition,
        decision: Option<Decision>,
    ) -> CandidateEvent {
        let module = self.cx.module;
        let cost = match &decision {
            Some(d) if d.via != Via::Table => self.session.last_cost,
            _ => QueryCost::default(),
        };
        let (outcome, witness) = match decision {
            Some(d) if d.result == SmtResult::Unsat => {
                let linear = self.cx.config.measure_linear
                    && self.linear.check(&self.arena, pc.cond) == LinearVerdict::Unsat;
                let refuted = if linear {
                    QueryOutcome::LinearRefuted
                } else {
                    QueryOutcome::SmtRefuted
                };
                (refuted, Vec::new())
            }
            Some(d) => {
                let named = |(name, value): (String, bool)| {
                    Some((Symbols::witness_name(module, &name)?, value))
                };
                (
                    QueryOutcome::Reported,
                    d.model.into_iter().filter_map(named).collect(),
                )
            }
            None => (QueryOutcome::Reported, Vec::new()),
        };
        let report = (outcome == QueryOutcome::Reported).then(|| {
            let rendered: Vec<String> = pc
                .steps
                .iter()
                .map(|s| {
                    let f = module.func(s.func);
                    format!("{}:{}", f.name, f.value_name(s.value))
                })
                .collect();
            let property = self.cx.property.spec.name.clone();
            let description = format!("[{}] {}", property, rendered.join(" → "));
            let sink_func = cand.node.func;
            Report {
                kind: self.cx.kind,
                property,
                source_func,
                source_site: source.site,
                sink_func,
                sink_site: cand.sink.site,
                sink_role: cand.sink.role,
                path: pc.steps,
                condition_size: pc.size,
                witness,
                source_func_name: module.func(source_func).name.clone(),
                sink_func_name: module.func(sink_func).name.clone(),
                description,
            }
        });
        CandidateEvent {
            key: cand.key,
            mirror: cand.mirror,
            outcome,
            cost,
            report,
        }
    }
}

impl PathCondition {
    /// Stage 2: the candidate's path condition: the control dependences
    /// of the source and sink statements and the source value's closure,
    /// then each trace step's constraints ([`Trace::constrain`]), walking
    /// back from the sink.
    fn build(
        w: &mut Worker<'_, '_>,
        ctxs: &mut CtxInterner,
        source_func: FuncId,
        source: SourceSite,
        cand: &Candidate<'_>,
    ) -> PathCondition {
        let cx = w.cx;
        let depth = cx.config.cond.max_depth;
        let (node, sink) = (cand.node, cand.sink);
        let (symbols, arena) = (&mut w.symbols, &mut w.arena);
        let mut cb = CondBuilder::new(cx.module, cx.segs, symbols, arena, ctxs, cx.config.cond);
        cb.add_control_deps(source_func, source.site.block, ROOT, depth);
        cb.add_control_deps(node.func, sink.site.block, node.ctx, depth);
        cb.add_value_closure(source_func, source.value, ROOT, depth);
        let mut steps = vec![Step {
            func: node.func,
            value: node.value,
            note: "sink",
        }];
        let mut cur: &Trace = &node.trace;
        while let Some((step, parent)) = cur.constrain(&mut cb, cx) {
            steps.push(step);
            cur = parent;
        }
        steps.push(Step {
            func: source_func,
            value: source.value,
            note: "source",
        });
        steps.reverse();
        let size = cb.len();
        let cond = cb.condition();
        PathCondition { cond, size, steps }
    }
}

impl Trace {
    /// Adds this step's constraints to `cb` and returns its path step and
    /// the trace before it (`None` at the start). A local edge adds its
    /// condition, flow equality (not across an operator) and the
    /// destination's control dependences; a call crossing binds the
    /// call's parameters and adds the call site's control dependences,
    /// plus the return-value equality of a return ascent; a global
    /// channel adds its store and load conditions and their equality.
    fn constrain(&self, cb: &mut CondBuilder<'_>, cx: &SpecContext<'_>) -> Option<(Step, &Trace)> {
        let depth = cx.config.cond.max_depth;
        match self {
            Trace::Start => None,
            Trace::Local {
                parent,
                edge,
                func,
                ctx,
            } => {
                cb.add_constraint(*func, edge.cond, *ctx, depth);
                // Transform edges relate operand and result through the
                // operator's own term structure; asserting equality would
                // wrongly claim `x + 1 = x`.
                if edge.kind != EdgeKind::Transform {
                    cb.add_flow_equality(*func, edge.dst, *ctx, *func, edge.src, *ctx);
                }
                if let Some(def) = cx.module.func(*func).value(edge.dst).def {
                    cb.add_control_deps(*func, def.block, *ctx, depth);
                }
                let note = match edge.kind {
                    EdgeKind::Direct => "flow",
                    EdgeKind::Memory => "store/load",
                    EdgeKind::Transform => "op",
                };
                let step = Step {
                    func: *func,
                    value: edge.src,
                    note,
                };
                Some((step, parent))
            }
            Trace::Call {
                parent,
                crossing: c,
            } => {
                if let Some((ret, recv)) = c.ret {
                    cb.add_flow_equality(c.caller, recv, c.caller_ctx, c.callee, ret, c.callee_ctx);
                }
                // Bind the call's actuals so callee-side constraints
                // referring to formals are grounded (Eq. 2 ③).
                let call = cx.segs.seg(c.caller).call_site(c.site);
                let args = call.expect("trace sites are call sites").args;
                cb.bind_params(c.caller, c.caller_ctx, c.callee, c.callee_ctx, args, depth);
                cb.add_control_deps(c.caller, c.site.block, c.caller_ctx, depth);
                Some((c.step, parent))
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
                let step = Step {
                    func: *src_func,
                    value: *src_value,
                    note: "global",
                };
                Some((step, parent))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Analysis;
    use crate::query::Query;
    use crate::spec::CheckerKind;

    fn check(src: &str, kind: CheckerKind) -> (Analysis, Vec<Report>) {
        let a = Analysis::from_source(src).expect("compiles");
        let reports = a.session().query(&Query::Check(kind)).into_reports();
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
        let reports = session
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
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
        let reports = session
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
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
        let config = DetectConfig {
            solve: false,
            ..DetectConfig::default()
        };
        let a = crate::AnalysisBuilder::new()
            .detect_config(config)
            .build_source(src)
            .unwrap();
        let reports = a
            .session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
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

    #[test]
    fn search_budget_bounds_the_visited_vertices() {
        use crate::workspace::Workspace;
        // The one source (the free in f3) visits 10 vertices unbounded.
        let chain = "fn f3(r: int*) { free(r); return; }
            fn f2(q: int*) { f3(q); return; }
            fn f1(p: int*) { f2(p); return; }
            fn main() {
                let p: int* = malloc();
                f1(p);
                let x: int = *p;
                print(x);
                return;
            }";
        for k in 0..=12 {
            let ws = Workspace::open(chain).unwrap();
            let config = DetectConfig {
                max_visited_per_source: k,
                ..ws.detect_config()
            };
            let mut ws = ws.with_config(config);
            let reports = ws
                .query(&Query::Check(CheckerKind::UseAfterFree))
                .into_reports();
            let stats = ws.stats().detect;
            assert_eq!(stats.sources, 1, "k = {k}");
            assert_eq!(stats.visited, k.min(10) as u64, "k = {k}");
            assert_eq!(stats.budget_exhausted, u64::from(k < 10), "k = {k}");
            if k >= 10 {
                assert_eq!(reports.len(), 1, "k = {k}: {reports:?}");
            }
        }
    }
}

#[cfg(test)]
mod witness_tests {
    use crate::detect::Report;
    use crate::driver::Analysis;
    use crate::query::Query;
    use crate::spec::CheckerKind;

    fn uaf(src: &str) -> Vec<Report> {
        let a = Analysis::from_source(src).unwrap();
        a.session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports()
    }

    #[test]
    fn witness_names_the_deciding_branch() {
        let reports = uaf("fn main(enabled: bool) {
                let p: int* = malloc();
                if (enabled) { free(p); }
                if (enabled) { let x: int = *p; print(x); }
                return;
            }");
        assert_eq!(reports.len(), 1);
        let w = &reports[0].witness;
        assert!(
            w.iter().any(|(name, val)| name == "main:enabled" && *val),
            "witness must set enabled = true, got {w:?}"
        );
    }

    #[test]
    fn unconditional_bug_has_minimal_witness() {
        let reports = uaf("fn main() {
                let p: int* = malloc();
                free(p);
                free(p);
                return;
            }");
        assert_eq!(reports.len(), 1);
        // No branch variables exist; the witness carries no branch names.
        assert!(reports[0].witness.is_empty(), "{:?}", reports[0].witness);
    }
}

#[cfg(test)]
mod ordering_tests {
    use crate::detect::Report;
    use crate::driver::Analysis;
    use crate::query::Query;
    use crate::spec::CheckerKind;

    fn uaf(src: &str) -> Vec<Report> {
        let a = Analysis::from_source(src).unwrap();
        a.session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports()
    }

    /// The danger-onset filter generalises across function boundaries: a
    /// use ordered strictly before the call that frees cannot be a UAF.
    #[test]
    fn use_before_freeing_call_not_reported() {
        let reports = uaf("fn release(x: int*) { free(x); return; }
             fn main() {
                let p: int* = malloc();
                *p = 1;
                release(p);
                return;
             }");
        assert!(reports.is_empty(), "store precedes the call: {reports:?}");
    }

    /// …but a use after the freeing call is reported.
    #[test]
    fn use_after_freeing_call_reported() {
        let reports = uaf("fn release(x: int*) { free(x); return; }
             fn main() {
                let p: int* = malloc();
                release(p);
                *p = 1;
                return;
             }");
        assert_eq!(reports.len(), 1, "{reports:?}");
    }

    /// A use before a *conditional* freeing call in a sibling branch is
    /// not dominated-before, so it must still be reported when feasible.
    #[test]
    fn non_dominating_order_still_reported() {
        let reports = uaf("fn release(x: int*) { free(x); return; }
             fn main(c: bool) {
                let p: int* = malloc();
                if (c) { release(p); }
                *p = 1;
                return;
             }");
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
        let reports = a
            .session()
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(
            a.module.func(reports[0].sink_func).name,
            "main",
            "the deref of q, not the store to fine"
        );
    }
}
