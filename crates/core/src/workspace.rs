//! The one query surface: a [`Workspace`] holds an [`Analysis`] and
//! answers [`Query`]s against it.
//!
//! How it holds the artefact is fixed by the constructor:
//!
//! * **borrowed** — [`Analysis::session`] gives a `Workspace<&Analysis>`,
//!   the one-shot kind. The artefact is immutable under it, so any number
//!   of borrowed workspaces can query one artefact from separate threads.
//!   It keeps no query cache: a check computes no cone fingerprints and
//!   stores no outcomes, and an artefact built for it
//!   ([`AnalysisBuilder::build_source`]) derives no function keys.
//! * **owned** — [`Workspace::open`] and [`AnalysisBuilder::open_workspace`]
//!   give a `Workspace` (that is, `Workspace<Analysis>`), which accepts
//!   edits and reuses work at two layers when the program changes. Its
//!   artefact keeps each function's local fingerprint and update stamp,
//!   which both layers read:
//!
//! 1. **Artefact layer** — [`Workspace::update_source`] splits the new
//!    source into function slices and lowers only those whose text
//!    changed, or all of them when a global or a function header did;
//!    every other function keeps its fingerprint and its previous
//!    transformed body. It then diffs the fingerprints of the lowered
//!    functions against the kept ones and closes the changed set over
//!    callers once, on the new call graph: a function's connector shape,
//!    points-to result and transformed body depend only on its own body
//!    and its callees' shapes, so that closure is what the edit dirtied.
//!    It re-analyses exactly those functions (lowering the callers among
//!    them again) and stamps each with the update's number. Clean
//!    functions' transformed bodies, points-to facts, SEGs, and
//!    hash-consed terms are spliced from the previous artefact. The
//!    module, fingerprints, stamps and reports are those of a whole-file
//!    update that dirties the diff of the transitive keys
//!    ([`pinpoint_cache::module_keys`]), which a test keeps as the
//!    reference.
//! 2. **Query layer** — each query caches every per-source search
//!    outcome keyed by `(spec fingerprint, source site)` together with a
//!    *cone fingerprint*: a hash of every artefact datum the search
//!    consulted (the update stamps of all functions it visited, the
//!    caller lists it ascended through, the global load lists it
//!    followed). On a warm check, a source whose recomputed cone
//!    fingerprint still matches is answered from the cache; only sources
//!    whose cone meets a function an edit dirtied since re-run.
//!
//! Both kinds accumulate the same state across queries — detection
//! counters, per-query attribution, the span trace, and the verdict
//! table with its persist watermark — and answer every query through the
//! same code; the owned kind adds the query cache and the `workspace.*`
//! metrics family that counts it.
//!
//! # Determinism
//!
//! Warm results are byte-identical to a cold build at any thread count:
//!
//! * a cached outcome is replayed only when its cone fingerprint
//!   matches, i.e. when every input the search would read is unchanged —
//!   so the cached [`SourceOutcome`](crate::detect) equals what a
//!   re-search would produce;
//! * reports, statistics, and per-query attribution are produced by one
//!   canonical merge over per-source outcomes in source order — a pure
//!   function of those outcomes — so mixing cached and fresh outcomes
//!   cannot change the result;
//! * the only warm-vs-cold difference is the term arena's *length*
//!   (append-only splicing keeps dead terms alive), which affects no
//!   report, witness, or counter other than the `terms` gauge.
//!
//! On a full fallback (the function set changed shape) the artefact —
//! including the term arena — is rebuilt from scratch, so the query
//! cache is cleared: term ids are only comparable within one arena
//! lineage.
//!
//! # Examples
//!
//! ```
//! use pinpoint_core::{CheckerKind, Query, Workspace};
//!
//! let mut ws = Workspace::open(
//!     "fn main() {
//!         let p: int* = malloc();
//!         free(p);
//!         let x: int = *p;
//!         print(x);
//!         return;
//!     }",
//! )?;
//! let uaf = Query::Check(CheckerKind::UseAfterFree);
//! assert_eq!(ws.query(&uaf).len(), 1);
//! // Fix the bug; only the edited function re-runs.
//! ws.update_source(
//!     "fn main() {
//!         let p: int* = malloc();
//!         let x: int = *p;
//!         print(x);
//!         free(p);
//!         return;
//!     }",
//! )?;
//! assert_eq!(ws.query(&uaf).len(), 0);
//! # Ok::<(), pinpoint_core::PinpointError>(())
//! ```

use crate::cache_io::persist_verdicts;
use crate::detect::{run_spec, DetectConfig, DetectStats, QueryCache, Report};
use crate::driver::{open_store, Analysis, AnalysisBuilder, Keys, PipelineStats, UpdateOutcome};
use crate::error::PinpointError;
use crate::query::Query;
use crate::spec::{CheckerKind, Spec};
use pinpoint_cache::CacheStore;
use pinpoint_obs::{queries_json, MetricsRegistry, ProfileTable, QueryRecord, TraceBuf};
use pinpoint_smt::{TermArena, VerdictTable};
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cumulative reuse counters across a workspace's lifetime.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkspaceCounters {
    /// Source queries answered from the query cache.
    pub queries_reused: u64,
    /// Source queries whose search was (re-)run.
    pub queries_rerun: u64,
    /// Functions re-analysed by [`Workspace::update_source`] calls.
    pub funcs_dirty: u64,
    /// Functions spliced from the previous artefact by
    /// [`Workspace::update_source`] calls.
    pub funcs_reused: u64,
    /// Functions parsed and lowered by [`Workspace::update_source`]
    /// calls (see [`UpdateOutcome::lowered`]).
    pub funcs_lowered: u64,
    /// Bytes the splits of [`Workspace::update_source`] calls lexed (see
    /// [`UpdateOutcome::split_bytes`]).
    pub split_bytes: u64,
    /// [`Workspace::update_source`] calls that kept the previous call
    /// graph (see [`UpdateOutcome::callgraph_kept`]).
    pub callgraph_kept: u64,
}

/// The analysis engine every query goes through: an [`Analysis`], held
/// borrowed (`A = &Analysis`, from [`Analysis::session`]) or owned (the
/// default, from [`Workspace::open`]), plus the state its queries
/// accumulate (see the [module docs](self)).
///
/// Each query shards its sources over the artefact's worker count;
/// workers own private arenas and solver instances, and their outcomes
/// are merged in canonical `(function, site)` order, so reports are
/// byte-identical for any thread count.
#[derive(Debug)]
pub struct Workspace<A: Borrow<Analysis> = Analysis> {
    analysis: A,
    /// Detection configuration for this workspace's queries (starts from
    /// the artefact's build-time configuration).
    config: DetectConfig,
    /// The per-source query cache: owned workspaces only, since only they
    /// can be edited and so ever ask the same question twice of a
    /// changed program.
    cache: Option<QueryCache>,
    counters: WorkspaceCounters,
    detect_time: Duration,
    detect: DetectStats,
    /// Build-stage spans (cloned from the artefact) extended with the
    /// detection spans of this workspace's queries.
    trace: TraceBuf,
    /// Per-query solver attribution accumulated across checker runs, ids
    /// in deterministic replay order.
    queries: Vec<QueryRecord>,
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
    /// Verdicts newly written to the persistent store by this workspace.
    verdicts_persisted: u64,
    /// Where new verdicts persist: the artefact's cache directory, if it
    /// has one and it opened.
    store: Option<CacheStore>,
}

impl<A: Borrow<Analysis>> Workspace<A> {
    fn new(analysis: A, cache: Option<QueryCache>) -> Self {
        let a = analysis.borrow();
        let verdicts = a.verdicts.clone();
        Workspace {
            config: a.config(),
            cache,
            counters: WorkspaceCounters::default(),
            detect_time: Duration::ZERO,
            detect: DetectStats::default(),
            trace: a.trace().clone(),
            queries: Vec::new(),
            persisted_len: verdicts.len(),
            verdicts,
            verdicts_persisted: 0,
            store: open_store(a.cache_dir.as_deref()),
            analysis,
        }
    }

    /// The artefact this workspace queries.
    pub fn analysis(&self) -> &Analysis {
        self.analysis.borrow()
    }

    /// Overrides the detection configuration for this workspace's
    /// queries. The query cache is keyed by the spec *and* configuration
    /// fingerprint (budgets included), so outcomes computed under another
    /// configuration — truncated searches in particular — are never
    /// replayed as answers for this one.
    pub fn with_config(mut self, config: DetectConfig) -> Self {
        self.config = config;
        self
    }

    /// The detection configuration current queries run under.
    pub fn detect_config(&self) -> DetectConfig {
        self.config
    }

    /// Every built-in checker: `query(&Query::All).into_reports()`.
    pub fn check_all(&mut self) -> Vec<Report> {
        self.query(&Query::All).into_reports()
    }

    /// Runs one property (a built-in `kind` or a custom spec) and folds
    /// its outcome into the accumulated state: query cache (layer 2 of the
    /// [module docs](self), owned workspaces only), then search. With
    /// [`DetectConfig::use_summaries`] off no descent is pruned: the
    /// reference run.
    pub(crate) fn run_property(&mut self, spec: &Spec, kind: Option<CheckerKind>) -> Vec<Report> {
        let t0 = Instant::now();
        let span = self.trace.open("detect", spec.name.clone());
        let base_id = u32::try_from(self.queries.len()).expect("query count fits u32");
        let a = self.analysis.borrow();
        let mut out = run_spec(
            a,
            &self.verdicts,
            spec,
            kind,
            self.config,
            a.threads(),
            &mut self.trace,
            &mut self.detect,
            self.cache.as_mut(),
        );
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
        // Reuse is counted against a query cache; a borrowed workspace has
        // none, so nothing it runs is a rerun.
        if self.cache.is_some() {
            self.counters.queries_reused += out.reuse.reused;
            self.counters.queries_rerun += out.reuse.rerun;
        }
        out.reports
    }

    /// The memory-leak pass (the [`Query::Leaks`] arm), on private scratch
    /// copies of the symbol cache and arena. Leak checking is a
    /// whole-module graph reachability pass without per-source structure,
    /// so it is never query-cached; under an owned workspace it is still
    /// incremental through the spliced SEGs it reads.
    pub(crate) fn run_leaks(&mut self) -> Vec<crate::leak::LeakReport> {
        let t0 = Instant::now();
        let span = self.trace.open("detect", "memory-leak");
        let a = self.analysis.borrow();
        let mut symbols = a.pta.symbols.clone();
        // Leak conditions are scratch terms over the shared arena, like
        // a detection worker's: an overlay numbers them as a deep clone
        // would.
        let mut arena = TermArena::overlay(Arc::clone(&a.arena));
        let reports =
            crate::leak::find_leaks(&a.module, &a.segs, &a.callgraph, &mut symbols, &mut arena);
        self.trace.close(span);
        self.detect_time += t0.elapsed();
        reports
    }

    /// Cumulative reuse counters.
    pub fn counters(&self) -> WorkspaceCounters {
        self.counters
    }

    /// Combined statistics: the artefact's build stages plus the
    /// accumulated detection counters and time.
    pub fn stats(&self) -> PipelineStats {
        let mut s = self.analysis().stats;
        s.detect = self.detect;
        s.detect_time = self.detect_time;
        if let Some(store) = &self.store {
            // This handle only ever writes.
            s.cache.store_ns += store.stats().store_ns;
        }
        s
    }

    /// Per-query solver attribution accumulated so far (ids in the
    /// deterministic replay order they were evaluated in). Cached sources
    /// replay their recorded events, so warm attribution is identical to
    /// a cold run's.
    pub fn queries(&self) -> &[QueryRecord] {
        &self.queries
    }

    /// The attribution rows recorded after the first `n` — the slice a
    /// caller that snapshotted `queries().len()` before an operation
    /// uses to attribute exactly that operation's solver work (the
    /// server's slow-query capture). `n` past the end yields an empty
    /// slice.
    pub fn queries_since(&self, n: usize) -> &[QueryRecord] {
        &self.queries[n.min(self.queries.len())..]
    }

    /// The span trace: build stages plus this workspace's detection
    /// spans.
    pub fn trace(&self) -> &TraceBuf {
        &self.trace
    }

    /// Chrome trace-event JSON of the spans (Perfetto-loadable).
    pub fn trace_json(&self) -> String {
        self.trace.chrome_json()
    }

    /// Normalized trace (timings/lanes dropped, rows sorted) —
    /// byte-identical across thread counts.
    pub fn trace_canonical_json(&self) -> String {
        self.trace.canonical_json()
    }

    /// The top-`k` rows of the per-`(checker, function)` "where did the
    /// time go" table.
    pub fn profile(&self, k: usize) -> String {
        ProfileTable::build(&self.queries).render(k)
    }

    /// The unified metrics registry covering the stage families
    /// (frontend, callgraph, keys, pta, seg, cache, detect, smt),
    /// plus the `workspace.*` reuse counters on a workspace with a query
    /// cache.
    pub fn metrics(&self) -> MetricsRegistry {
        let a = self.analysis();
        let s = self.stats();
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
        a.pta.total_stats().record_into(&mut m);
        m.counter_add("pta.final_passes", a.pta.final_passes() as u64);
        m.counter_add("seg.time_ns", s.seg_time.as_nanos() as u64);
        m.counter_add("seg.vertices", a.segs.vertex_count as u64);
        m.counter_add("seg.edges", a.segs.edge_count as u64);
        m.counter_add("seg.bytes", a.segs.heap_bytes() as u64);
        m.counter_add("seg.terms", a.arena.len() as u64);
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
        if self.cache.is_some() {
            m.counter_add("workspace.queries.reused", self.counters.queries_reused);
            m.counter_add("workspace.queries.rerun", self.counters.queries_rerun);
            m.counter_add("workspace.funcs.dirty", self.counters.funcs_dirty);
            m.counter_add("workspace.callgraph.kept", self.counters.callgraph_kept);
            m.counter_add("workspace.funcs.reused", self.counters.funcs_reused);
            m.counter_add("workspace.funcs.lowered", self.counters.funcs_lowered);
            m.counter_add("workspace.split.bytes", self.counters.split_bytes);
        }
        m
    }

    /// The unified stats document (`pinpoint-stats-v1`): run metadata,
    /// per-stage counters ([`Self::metrics`]), histograms, and the
    /// per-query attribution rows. `canonical` zeroes wall-clock values
    /// and omits run metadata, making the bytes thread-count invariant.
    pub fn stats_json(&self, canonical: bool) -> String {
        self.stats_json_with(&[], canonical)
    }

    /// [`Self::stats_json`] with `run` appended to the run metadata
    /// (the server adds its pool size).
    pub(crate) fn stats_json_with(&self, run: &[(&str, u64)], canonical: bool) -> String {
        let mut meta = vec![("threads", self.analysis().threads() as u64)];
        meta.extend_from_slice(run);
        self.metrics().stats_json(
            &meta,
            Some(&queries_json(&self.queries, canonical)),
            canonical,
        )
    }
}

impl Workspace {
    /// Opens a workspace over `src` with default configuration.
    ///
    /// # Errors
    ///
    /// Returns typed parse or lowering errors from the front end.
    pub fn open(src: &str) -> Result<Self, PinpointError> {
        AnalysisBuilder::new().open_workspace(src)
    }

    /// Number of per-source outcomes currently cached.
    pub fn cached_queries(&self) -> usize {
        self.cache.as_ref().map_or(0, QueryCache::len)
    }

    /// Replaces the program with an edited version, reusing the previous
    /// artefact for everything the edit did not dirty (layer 1 of the
    /// [module docs](self)): only the changed function slices are lowered
    /// ([`UpdateOutcome::lowered`] counts them with the callers the edit
    /// dirtied), and exactly the functions whose fingerprint changed and
    /// their transitive callers are re-analysed (see
    /// [`pinpoint_pta::incremental`]). The query cache survives — entries
    /// are validated per source on the next check — except on a full
    /// fallback, which rebuilds the term arena and therefore clears it.
    ///
    /// # Errors
    ///
    /// Returns typed front-end errors for the new source; the workspace
    /// is unchanged when it does.
    pub fn update_source(&mut self, new_source: &str) -> Result<UpdateOutcome, PinpointError> {
        self.update_text(Arc::new(new_source.to_string()))
    }

    /// [`Workspace::update_source`] of a text the workspace then keeps
    /// as it is, shared with the caller rather than copied.
    pub(crate) fn update_text(
        &mut self,
        text: Arc<String>,
    ) -> Result<UpdateOutcome, PinpointError> {
        let outcome = self.analysis.update_source(text)?;
        Ok(self.absorb(outcome))
    }

    /// [`Workspace::update_source`] through the whole-file reference
    /// update ([`Analysis::update_source_whole_file`]).
    #[cfg(test)]
    pub(crate) fn update_source_whole_file(
        &mut self,
        new_source: &str,
    ) -> Result<UpdateOutcome, PinpointError> {
        let outcome = self.analysis.update_source_whole_file(new_source)?;
        Ok(self.absorb(outcome))
    }

    /// Accounts for an update of the artefact.
    fn absorb(&mut self, outcome: UpdateOutcome) -> UpdateOutcome {
        if let Some(cache) = self.cache.as_mut().filter(|_| outcome.fell_back) {
            // The artefact (term arena included) was rebuilt from
            // scratch: cached outcomes reference the dead arena lineage.
            cache.clear();
        }
        self.counters.funcs_dirty += outcome.reanalyzed as u64;
        self.counters.funcs_reused += outcome.reused as u64;
        self.counters.funcs_lowered += outcome.lowered as u64;
        self.counters.split_bytes += outcome.split_bytes as u64;
        self.counters.callgraph_kept += u64::from(outcome.callgraph_kept);
        outcome
    }

    /// The local fingerprint of every function's pre-transform body,
    /// indexed by `FuncId`: what an update diffs the functions it lowers
    /// against.
    #[doc(hidden)]
    pub fn func_fingerprints(&self) -> &[u128] {
        &self.keys().local
    }

    /// The number of the update that last re-analysed each function (0:
    /// the build), indexed by `FuncId`: what the query cache validates
    /// against.
    #[doc(hidden)]
    pub fn func_stamps(&self) -> &[u64] {
        &self.keys().stamps
    }

    fn keys(&self) -> &Keys {
        self.analysis
            .keys
            .as_ref()
            .expect("an owned workspace's artefact has keys")
    }
}

impl Analysis {
    /// A borrowed workspace over this artefact for one-shot queries: it
    /// keeps no query cache. Several can run concurrently from separate
    /// threads without synchronisation.
    pub fn session(&self) -> Workspace<&Analysis> {
        Workspace::new(self, None)
    }
}

impl AnalysisBuilder {
    /// Builds the artefact for `src` and wraps it in a [`Workspace`].
    /// Unlike a build for one-shot queries, this one derives the function
    /// keys the workspace's query cache and first update compare against.
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisBuilder::build_source`].
    pub fn open_workspace(self, src: &str) -> Result<Workspace, PinpointError> {
        self.open_text(Arc::new(src.to_string()))
    }

    /// [`AnalysisBuilder::open_workspace`] over a text the workspace
    /// keeps as it is, shared with the caller rather than copied.
    pub(crate) fn open_text(self, text: Arc<String>) -> Result<Workspace, PinpointError> {
        let analysis = self.build_keeping(&text, Some(Arc::clone(&text)))?;
        Ok(Workspace::new(analysis, Some(QueryCache::default())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UAF: &str = "fn helper(q: int*) { free(q); return; }
        fn main() {
            let p: int* = malloc();
            helper(p);
            let x: int = *p;
            print(x);
            return;
        }";

    #[test]
    fn warm_check_reuses_untouched_queries() {
        let mut ws = Workspace::open(UAF).unwrap();
        let cold = ws.query(&Query::All).into_reports();
        assert!(!cold.is_empty());
        let rerun_cold = ws.counters().queries_rerun;
        assert!(rerun_cold > 0);
        assert_eq!(ws.counters().queries_reused, 0);
        // Unchanged program: every query replays from the cache.
        let warm = ws.query(&Query::All).into_reports();
        assert_eq!(
            cold.iter().map(ToString::to_string).collect::<Vec<_>>(),
            warm.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        assert_eq!(ws.counters().queries_rerun, rerun_cold);
        assert_eq!(ws.counters().queries_reused, rerun_cold);
    }

    #[test]
    fn only_a_workspace_with_a_query_cache_counts_reuse() {
        let counts = |c: WorkspaceCounters| {
            (
                c.queries_reused,
                c.queries_rerun,
                c.funcs_dirty,
                c.funcs_reused,
            )
        };
        let analysis = Analysis::from_source(UAF).unwrap();
        let mut borrowed = analysis.session();
        assert!(!borrowed.query(&Query::All).into_reports().is_empty());
        assert_eq!(counts(borrowed.counters()), (0, 0, 0, 0));
        let mut owned = Workspace::open(UAF).unwrap();
        owned.query(&Query::All).into_reports();
        let sources = owned.stats().detect.sources;
        assert!(sources > 0);
        assert_eq!(counts(owned.counters()), (0, sources, 0, 0));
    }

    #[test]
    fn one_shot_builds_derive_no_keys() {
        let one_shot = Analysis::from_source(UAF).unwrap();
        assert!(one_shot.keys.is_none());
        assert_eq!(one_shot.stats.keys_time, Duration::ZERO);
        let mut owned = Workspace::open(UAF).unwrap();
        assert!(owned.analysis().keys.is_some());
        owned
            .update_source(&format!("{UAF}\nfn extra() {{ return; }}"))
            .unwrap();
        assert!(owned.analysis().keys.is_some());
    }

    #[test]
    fn edit_invalidates_only_affected_cones() {
        let base = "fn freer(q: int*) { free(q); return; }
            fn lone(c: bool) {
                let v: int* = malloc();
                if (c) { free(v); }
                let y: int = *v;
                print(y);
                return;
            }
            fn main() {
                let p: int* = malloc();
                freer(p);
                let x: int = *p;
                print(x);
                return;
            }";
        // Edit only `lone`; the freer/main cone stays clean.
        let edited = "fn freer(q: int*) { free(q); return; }
            fn lone(c: bool) {
                let v: int* = malloc();
                let pad: int = 7;
                print(pad);
                if (c) { free(v); }
                let y: int = *v;
                print(y);
                return;
            }
            fn main() {
                let p: int* = malloc();
                freer(p);
                let x: int = *p;
                print(x);
                return;
            }";
        let mut ws = Workspace::open(base).unwrap();
        let cold: Vec<String> = ws
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        let outcome = ws.update_source(edited).unwrap();
        assert!(!outcome.fell_back);
        assert!(outcome.reused > 0, "{outcome:?}");
        let before = ws.counters();
        let warm: Vec<String> = ws
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        let after = ws.counters();
        assert!(
            after.queries_reused > before.queries_reused,
            "clean cones must replay from cache: {after:?}"
        );
        // The edited function's sources re-ran.
        assert!(after.queries_rerun > before.queries_rerun, "{after:?}");
        // Warm reports equal a cold build of the edited program.
        let fresh = Workspace::open(edited)
            .unwrap()
            .query(&Query::All)
            .into_reports();
        let fresh: Vec<String> = fresh.iter().map(ToString::to_string).collect();
        assert_eq!(warm, fresh);
        let _ = cold;
    }

    /// A cached search that skipped a descent into a callee through its
    /// VF summary is stale once the callee changes: the callee's stamp
    /// moves, and with it the cone fingerprint of every search that
    /// visited its caller.
    #[test]
    fn a_callee_edit_reruns_a_cached_search_that_skipped_it() {
        let base = "fn g(q: int*) { return; }
            fn main() { let p: int* = malloc(); free(p); g(p); return; }";
        let edited = base.replace("{ return; }", "{ let v: int = *q; print(v); return; }");
        let uaf = Query::Check(CheckerKind::UseAfterFree);
        let reports = |ws: &mut Workspace| -> Vec<String> {
            let reports = ws.query(&uaf).into_reports();
            reports.iter().map(|r| format!("{r:?}")).collect()
        };
        let mut ws = Workspace::open(base).unwrap();
        assert!(reports(&mut ws).is_empty());
        assert_eq!(ws.stats().detect.skipped_descents, 1);
        ws.update_source(&edited).unwrap();
        let warm = reports(&mut ws);
        assert_eq!(warm.len(), 1, "{warm:?}");
        assert_eq!(warm, reports(&mut Workspace::open(&edited).unwrap()));
    }

    #[test]
    fn shape_change_falls_back_and_clears_cache() {
        let mut ws = Workspace::open(UAF).unwrap();
        ws.query(&Query::All).into_reports();
        assert!(ws.cached_queries() > 0);
        let with_extra = format!("{UAF}\nfn extra() {{ return; }}");
        let outcome = ws.update_source(&with_extra).unwrap();
        assert!(outcome.fell_back);
        assert_eq!(ws.cached_queries(), 0, "stale arena lineage must drop");
        // Still correct after the fallback.
        let warm: Vec<String> = ws
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        let fresh: Vec<String> = Workspace::open(&with_extra)
            .unwrap()
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(warm, fresh);
    }

    #[test]
    fn raising_budget_reruns_truncated_sources() {
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
        let ws = Workspace::open(chain).unwrap();
        let tight = DetectConfig {
            max_visited_per_source: 1,
            ..ws.detect_config()
        };
        let mut ws = ws.with_config(tight);
        let starved = ws
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
        assert!(starved.is_empty(), "budget 1 must truncate before the sink");
        assert!(ws.stats().detect.budget_exhausted > 0);
        let rerun_before = ws.counters().queries_rerun;
        // Restore the default budget: the truncated outcome is keyed to
        // the old configuration fingerprint, so the source re-runs
        // instead of replaying its truncated (empty) answer.
        let mut ws = ws.with_config(DetectConfig::default());
        let full = ws
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
        assert_eq!(full.len(), 1, "{full:?}");
        assert!(ws.counters().queries_rerun > rerun_before);
    }

    /// A program every edit kind of the script below applies to: globals,
    /// a helper with four callers, an uncalled function whose header can
    /// change, and defects so that there are reports to compare.
    const EDIT_BASE: &str = "global counter: int;
global cell: int*;
fn helper(p: int*) -> int { let v: int = *p; return v; }
fn leaf(q: int**) { *q = null; return; }
fn user_a(p: int*) -> int { let a: int = helper(p); return a; }
fn user_b(p: int*) -> int { let b: int = helper(p); print(b); return b; }
fn user_c(c: bool) {
    let p: int* = malloc();
    if (c) { free(p); }
    let x: int = helper(p);
    print(x);
    return;
}
fn stash(p: int*) { *cell = p; return; }
fn lone(c: bool) -> int { let x: int = 1; if (c) { x = 2; } return x; }
fn main(c: bool) {
    let p: int* = malloc();
    let q: int** = malloc();
    *q = p;
    leaf(q);
    let a: int = user_a(p);
    let b: int = user_b(p);
    user_c(c);
    stash(p);
    free(p);
    let y: int = helper(p);
    print(y);
    return;
}
";

    /// The edit script: each step rewrites the previous step's source and
    /// names the functions the update must lower (`None` for every
    /// function, and for a rejected edit, which lowers nothing that
    /// stays).
    fn edit_script() -> Vec<(&'static str, String, Option<usize>)> {
        fn edit(src: &str, from: &str, to: &str) -> String {
            assert!(src.contains(from), "`{from}` not in\n{src}");
            src.replacen(from, to, 1)
        }
        let mut steps: Vec<(&'static str, String, Option<usize>)> = Vec::new();
        let mut push = |name, f: &dyn Fn(&str) -> String, lowered| {
            let prev = steps
                .iter()
                .rev()
                .find(|(n, _, _): &&(&str, String, Option<usize>)| !n.starts_with("error"))
                .map_or(EDIT_BASE.to_string(), |(_, s, _)| s.clone());
            steps.push((name, f(&prev), lowered));
        };
        push(
            "body",
            &|s| edit(s, "let x: int = 1;", "let x: int = 3;"),
            Some(1),
        );
        push(
            "comment",
            &|s| {
                edit(
                    &edit(s, "fn stash(", "// between\nfn stash("),
                    "    leaf(q);",
                    "    // inside\n    leaf(q);",
                )
            },
            Some(1),
        );
        push(
            "param-type",
            &|s| {
                edit(
                    s,
                    "fn lone(c: bool) -> int { let x: int = 3; if (c)",
                    "fn lone(c: int) -> int { let x: int = 3; if (c > 0)",
                )
            },
            None,
        );
        push(
            "return-type",
            &|s| {
                edit(
                    s,
                    "fn lone(c: int) -> int { let x: int = 3; if (c > 0) { x = 2; } return x; }",
                    "fn lone(c: int) -> bool { return c > 0; }",
                )
            },
            None,
        );
        push(
            "global-added",
            &|s| format!("global extra: bool;\n{s}"),
            None,
        );
        push(
            "global-retyped",
            &|s| edit(s, "global counter: int;", "global counter: bool;"),
            None,
        );
        push(
            "function-added",
            &|s| {
                edit(
                    s,
                    "// between\n",
                    "fn added(p: int*) { free(p); return; }\n// between\n",
                )
            },
            None,
        );
        push(
            "function-removed",
            &|s| edit(s, "fn added(p: int*) { free(p); return; }\n", ""),
            None,
        );
        push(
            "reordered",
            &|s| {
                let leaf = "fn leaf(q: int**) { *q = null; return; }\n";
                edit(
                    &edit(s, leaf, ""),
                    "fn helper(",
                    &format!("{leaf}fn helper("),
                )
            },
            None,
        );
        push(
            "error-parse",
            &|s| edit(s, "print(y);", "print(y;"),
            Some(0),
        );
        push(
            "error-lower",
            &|s| edit(s, "print(y);", "print(zz);"),
            Some(0),
        );
        push("fix", &|s| edit(s, "print(y);", "print(a);"), Some(1));
        push(
            "helper",
            &|s| {
                edit(
                    s,
                    "let v: int = *p; return v;",
                    "let w: int = 0; let v: int = *p + w; return v;",
                )
            },
            Some(5),
        );
        push("byte-0", &|s| format!("// head\n{s}"), Some(0));
        push("eof", &|s| format!("{s}// tail"), Some(0));
        push(
            "comment-added",
            &|s| edit(s, "// between\n", "// between\n/* a note */\n"),
            Some(0),
        );
        push(
            "in-comment",
            &|s| edit(s, "/* a note */", "/* a longer\n note */"),
            Some(0),
        );
        push(
            "error-open-comment",
            &|s| edit(s, "/* a longer\n note */", "/* a longer\n note"),
            Some(0),
        );
        // An unmatched brace runs the re-split to the end of the file.
        push(
            "error-unmatched-brace",
            &|s| edit(s, "if (c) { free(p); }", "if (c) { { free(p); }"),
            Some(0),
        );
        push(
            "brace-matched",
            &|s| edit(s, "if (c) { free(p); }", "if (c) { if (c) { free(p); } }"),
            Some(2),
        );
        push(
            "error-header",
            &|s| edit(s, "fn leaf(q: int**) {", "fn leaf(q: int** {"),
            Some(0),
        );
        // The body error comes first in the file, so it outranks the
        // malformed header the re-split stops at.
        push(
            "error-body-then-header",
            &|s| {
                edit(
                    &edit(s, "let a: int = helper(p);", "let a: int = helper(p)"),
                    "fn stash(p: int*) {",
                    "fn stash(p: int* {",
                )
            },
            Some(0),
        );
        // Call-structure edits: the call graph changes although the
        // function set does not. `stash` and `user_a` have `main` as their
        // one caller, and `lone` none.
        push(
            "call-added",
            &|s| edit(s, "*cell = p; return;", "*cell = p; lone(1); return;"),
            Some(2),
        );
        push(
            "call-removed",
            &|s| edit(s, "let a: int = helper(p);", "let a: int = *p;"),
            Some(2),
        );
        push(
            "cycle-closed",
            &|s| {
                edit(
                    s,
                    "-> bool { return c > 0; }",
                    "-> bool { let p: int* = malloc(); stash(p); return c > 0; }",
                )
            },
            Some(3),
        );
        push(
            "cycle-broken",
            &|s| {
                edit(
                    s,
                    "-> bool { let p: int* = malloc(); stash(p); return c > 0; }",
                    "-> bool { return c > 0; }",
                )
            },
            Some(3),
        );
        push("unchanged", &|s| s.to_string(), Some(0));
        steps
    }

    /// Everything an update leaves that a user or the next update reads:
    /// reports with witnesses, the transformed module, the kept source,
    /// item table and tables fingerprint, fingerprints and stamps, the SEG's
    /// module-level indexes and totals, the arena's length and the reuse
    /// counters.
    fn snapshot(ws: &mut Workspace) -> String {
        let reports: Vec<String> = ws
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let c = ws.counters();
        let a = ws.analysis();
        let source = a
            .source
            .as_ref()
            .expect("an owned workspace keeps its source");
        let segs = &a.segs;
        let funcs = (0..a.module.funcs.len()).map(|i| pinpoint_ir::FuncId(i as u32));
        let rows: Vec<String> = funcs
            .map(|f| {
                let callers: Vec<_> = segs.callers(&a.callgraph, f).collect();
                let stores = segs.global_store_values(f);
                format!("{f:?} callers {callers:?} stores {stores:?}")
            })
            .collect();
        format!(
            "{}\n{}\n{:?}\ntables {:x}\nlocal {:x?}\nstamps {:?}\n{}\nchannels {:?} {:?}\n\
             seg {} {} {}\nterms {}\nreuse {:?}",
            reports.join("\n"),
            pinpoint_ir::printer::print_module(&a.module),
            source,
            source.tables_fingerprint(),
            ws.func_fingerprints(),
            ws.func_stamps(),
            rows.join("\n"),
            segs.global_stores,
            segs.global_loads,
            segs.vertex_count,
            segs.edge_count,
            segs.heap_bytes(),
            a.arena.len(),
            (
                c.queries_reused,
                c.queries_rerun,
                c.funcs_dirty,
                c.funcs_reused
            ),
        )
    }

    #[test]
    fn updates_equal_the_whole_file_reference() {
        for threads in [1, 2] {
            let open = || {
                AnalysisBuilder::new()
                    .threads(threads)
                    .open_workspace(EDIT_BASE)
                    .unwrap()
            };
            let (mut ws, mut reference) = (open(), open());
            assert_eq!(snapshot(&mut ws), snapshot(&mut reference));
            for (step, src, lowered) in edit_script() {
                let before = snapshot(&mut ws);
                assert_eq!(snapshot(&mut reference), before);
                let graph = Arc::clone(&ws.analysis().callgraph);
                let got = ws.update_source(&src);
                let want = reference.update_source_whole_file(&src);
                let at = format!("{step} at {threads} threads");
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert!(!step.starts_with("error"), "{at}: accepted");
                        let n = ws.analysis().module.funcs.len();
                        assert_eq!(got.lowered, lowered.unwrap_or(n), "{at}: {got:?}");
                        assert_eq!(want.lowered, n, "{at}");
                        assert!(got.split_bytes <= src.len(), "{at}: {got:?}");
                        // The graph is kept exactly when the reference
                        // builds an equal one over the same functions.
                        let same_graph = *graph == *reference.analysis().callgraph;
                        assert_eq!(got.callgraph_kept, !got.fell_back && same_graph, "{at}");
                        match step {
                            "body" => assert!(got.callgraph_kept, "{at}"),
                            s if s.starts_with("call-") || s.starts_with("cycle-") => {
                                assert!(!got.callgraph_kept, "{at}")
                            }
                            _ => {}
                        }
                        let whole = UpdateOutcome {
                            lowered: n,
                            split_bytes: src.len(),
                            callgraph_kept: false,
                            ..got
                        };
                        assert_eq!(whole, want, "{at}");
                        let a = ws.analysis();
                        crate::spec::assert_source_index_matches_scan(a, &at);
                    }
                    (Err(got), Err(want)) => {
                        assert!(step.starts_with("error"), "{at}: {got}");
                        assert_eq!(got.to_string(), want.to_string(), "{at}");
                        let cold = Workspace::open(&src).unwrap_err();
                        assert_eq!(got.to_string(), cold.to_string(), "{at}");
                        let after = snapshot(&mut ws);
                        let reuse = |s: &str| s[..s.rfind("reuse").unwrap()].to_string();
                        assert_eq!(
                            reuse(&after),
                            reuse(&before),
                            "{at}: an error changes nothing"
                        );
                        snapshot(&mut reference);
                    }
                    (got, want) => panic!("{at}: {got:?} vs {want:?}"),
                }
                assert_eq!(snapshot(&mut ws), snapshot(&mut reference), "{at}");
            }
        }
    }

    #[test]
    fn stats_json_exports_workspace_family() {
        let mut ws = Workspace::open(UAF).unwrap();
        ws.query(&Query::All).into_reports();
        // A body edit of `main`, the one caller of `helper`: the graph is
        // kept, and only `main`, which has no callers, is dirtied.
        ws.update_source(&UAF.replace("print(x);", "print(x); print(x);"))
            .unwrap();
        ws.query(&Query::All).into_reports();
        let json = ws.stats_json(true);
        // Families are nested by their first dot segment in the document.
        assert!(json.contains("\"workspace\":{"), "{json}");
        assert!(json.contains("\"queries.reused\""), "{json}");
        assert!(json.contains("\"queries.rerun\""), "{json}");
        assert!(json.contains("\"funcs.dirty\":1"), "{json}");
        assert!(json.contains("\"callgraph.kept\":1"), "{json}");
        assert!(json.contains("\"funcs.reused\""), "{json}");
        assert!(json.contains("\"funcs.lowered\""), "{json}");
        assert!(json.contains("\"split.bytes\""), "{json}");
        assert!(json.contains("\"budget_exhausted\""), "{json}");
    }
}
