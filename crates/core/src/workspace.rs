//! A long-lived, incrementally-updatable analysis engine.
//!
//! [`Workspace`] owns an [`Analysis`] across edits and reuses work at two
//! layers when the program changes:
//!
//! 1. **Artefact layer** — [`Workspace::update_source`] diffs the new
//!    module's per-function transitive fingerprint keys
//!    ([`pinpoint_cache::module_keys`]) against the previous build's and
//!    re-analyses exactly the functions whose keys changed (the edited
//!    ones plus their transitive callers; keys fold callee fingerprints
//!    over the call-graph condensation, so the diff is caller-closed by
//!    construction). Clean functions' transformed bodies, points-to
//!    facts, SEGs, and hash-consed terms are spliced from the previous
//!    artefact.
//! 2. **Query layer** — each `check*` call caches every per-source
//!    search outcome keyed by `(spec fingerprint, source site)` together
//!    with a *cone fingerprint*: a hash of every artefact datum the
//!    search consulted (the keys of all functions it visited, the caller
//!    lists it ascended through, the global load lists it followed). On
//!    a warm check, a source whose recomputed cone fingerprint still
//!    matches is answered from the cache; only sources whose cone
//!    intersects the edit's dirty set re-run.
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

use crate::detect::{DetectConfig, QueryCache, Report};
use crate::driver::{Analysis, AnalysisBuilder, PipelineStats, QueryRunner, UpdateOutcome};
use crate::error::PinpointError;
use crate::spec::CheckerKind;
use pinpoint_obs::{MetricsRegistry, QueryRecord};

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
}

/// A long-lived analysis engine: owns the artefact, accepts edits, and
/// answers checks incrementally (see the [module docs](self)).
#[derive(Debug)]
pub struct Workspace {
    analysis: Analysis,
    /// The query state (counters, attribution, trace, verdicts, interface
    /// summaries); it outlives every artefact replacement.
    runner: QueryRunner,
    cache: QueryCache,
    /// Detection configuration for this workspace's queries (starts from
    /// the artefact's build-time configuration; see
    /// [`Workspace::set_detect_config`]).
    config: DetectConfig,
    counters: WorkspaceCounters,
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

    /// Wraps an already-built artefact in a workspace.
    pub fn from_analysis(analysis: Analysis) -> Self {
        Workspace {
            runner: QueryRunner::new(&analysis),
            cache: QueryCache::default(),
            config: analysis.config(),
            counters: WorkspaceCounters::default(),
            analysis,
        }
    }

    /// The current artefact (replaced in place by
    /// [`Workspace::update_source`]).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Cumulative reuse counters.
    pub fn counters(&self) -> WorkspaceCounters {
        self.counters
    }

    /// Number of per-source outcomes currently cached.
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// Replaces the program with an edited version, reusing the previous
    /// artefact for everything the edit did not dirty (layer 1 of the
    /// [module docs](self)). The query cache survives — entries are
    /// validated per source on the next check — except on a full
    /// fallback, which rebuilds the term arena and therefore clears it.
    ///
    /// # Errors
    ///
    /// Returns typed front-end errors for the new source; the workspace
    /// is unchanged when it does.
    pub fn update_source(&mut self, new_source: &str) -> Result<UpdateOutcome, PinpointError> {
        let outcome = self.analysis.update_incremental(new_source)?;
        if outcome.fell_back {
            // The artefact (term arena included) was rebuilt from
            // scratch: cached outcomes reference the dead arena lineage.
            self.cache.clear();
        }
        self.counters.funcs_dirty += outcome.reanalyzed as u64;
        self.counters.funcs_reused += outcome.reused as u64;
        Ok(outcome)
    }

    /// Replaces the detection configuration for subsequent queries.
    /// Because the per-source query cache is keyed by the spec *and*
    /// configuration fingerprint (budgets included), outcomes computed
    /// under the old configuration — truncated searches in particular —
    /// are never replayed as answers for the new one; they simply stop
    /// being found and the affected sources re-run.
    pub fn set_detect_config(&mut self, config: DetectConfig) {
        self.config = config;
    }

    /// The detection configuration current queries run under.
    pub fn detect_config(&self) -> DetectConfig {
        self.config
    }

    /// Layer 2 of the [module docs](self): one property (a built-in
    /// `kind` or a custom spec) through the runner with the per-source
    /// query cache, counting the reuse split.
    pub(crate) fn run_property(
        &mut self,
        spec: &crate::spec::Spec,
        kind: Option<CheckerKind>,
    ) -> Vec<Report> {
        let (reports, reuse) = self.runner.run(
            &self.analysis,
            self.config,
            spec,
            kind,
            Some(&mut self.cache),
        );
        self.counters.queries_reused += reuse.reused;
        self.counters.queries_rerun += reuse.rerun;
        reports
    }

    /// The memory-leak pass (the [`Query::Leaks`](crate::query::Query)
    /// arm): not query-cached, incremental through layer 1.
    pub(crate) fn run_leaks(&mut self) -> Vec<crate::leak::LeakReport> {
        self.runner.leaks(&self.analysis)
    }

    /// Combined statistics: the artefact's build stages plus the
    /// workspace's accumulated detection counters and time.
    pub fn stats(&self) -> PipelineStats {
        self.runner.stats(&self.analysis)
    }

    /// Per-query solver attribution accumulated so far. Cached sources
    /// replay their recorded events, so warm attribution is identical to
    /// a cold run's.
    pub fn queries(&self) -> &[QueryRecord] {
        &self.runner.queries
    }

    /// The attribution rows recorded after the first `n` — the slice a
    /// caller that snapshotted `queries().len()` before an operation
    /// uses to attribute exactly that operation's solver work (the
    /// server's slow-query capture). `n` past the end yields an empty
    /// slice.
    pub fn queries_since(&self, n: usize) -> &[QueryRecord] {
        let queries = self.queries();
        &queries[n.min(queries.len())..]
    }

    /// The top-`k` most expensive queries so far, rendered as a
    /// "where did the time go" profile table.
    pub fn profile(&self, k: usize) -> String {
        self.runner.profile(k)
    }

    /// The unified metrics registry: the standard five stage families
    /// plus the `workspace.*` reuse counters.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.runner.metrics(&self.analysis);
        m.counter_add("workspace.queries.reused", self.counters.queries_reused);
        m.counter_add("workspace.queries.rerun", self.counters.queries_rerun);
        m.counter_add("workspace.funcs.dirty", self.counters.funcs_dirty);
        m.counter_add("workspace.funcs.reused", self.counters.funcs_reused);
        m
    }

    /// The unified stats document (`pinpoint-stats-v1`) including the
    /// `workspace` stage family. `canonical` zeroes wall-clock values
    /// and omits run metadata.
    pub fn stats_json(&self, canonical: bool) -> String {
        self.runner.stats_json(&self.metrics(), canonical)
    }
}

impl AnalysisBuilder {
    /// Builds the artefact for `src` and wraps it in a [`Workspace`].
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisBuilder::build_source`].
    pub fn open_workspace(self, src: &str) -> Result<Workspace, PinpointError> {
        Ok(Workspace::from_analysis(self.build_source(src)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

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
        let mut ws = Workspace::open(chain).unwrap();
        let mut tight = ws.detect_config();
        tight.max_visited_per_source = 1;
        ws.set_detect_config(tight);
        let starved = ws
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
        assert!(starved.is_empty(), "budget 1 must truncate before the sink");
        assert!(ws.stats().detect.budget_exhausted > 0);
        let rerun_before = ws.counters().queries_rerun;
        // Restore the default budget: the truncated outcome is keyed to
        // the old configuration fingerprint, so the source re-runs
        // instead of replaying its truncated (empty) answer.
        ws.set_detect_config(DetectConfig::default());
        let full = ws
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
        assert_eq!(full.len(), 1, "{full:?}");
        assert!(ws.counters().queries_rerun > rerun_before);
    }

    #[test]
    fn stats_json_exports_workspace_family() {
        let mut ws = Workspace::open(UAF).unwrap();
        ws.query(&Query::All).into_reports();
        ws.query(&Query::All).into_reports();
        let json = ws.stats_json(true);
        // Families are nested by their first dot segment in the document.
        assert!(json.contains("\"workspace\":{"), "{json}");
        assert!(json.contains("\"queries.reused\""), "{json}");
        assert!(json.contains("\"queries.rerun\""), "{json}");
        assert!(json.contains("\"funcs.dirty\""), "{json}");
        assert!(json.contains("\"funcs.reused\""), "{json}");
        assert!(json.contains("\"budget_exhausted\""), "{json}");
    }
}
