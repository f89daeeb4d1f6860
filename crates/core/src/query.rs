//! The one request type: every question the analysis answers is a
//! [`Query`] value, and every answer a [`QueryResponse`], executed by
//! [`Workspace::query`] — the one method that runs a checker, for a
//! borrowed one-shot workspace and an owned, editable one alike. A
//! request can be constructed in one place (a protocol decoder, a
//! command-line flag, a traffic generator, a test table) and executed in
//! another without a per-shape dispatch at every call site.
//!
//! # Examples
//!
//! ```
//! use pinpoint_core::{Analysis, CheckerKind, Query, QueryResponse};
//!
//! let analysis = Analysis::from_source(
//!     "fn main() {
//!         let p: int* = malloc();
//!         free(p);
//!         let x: int = *p;
//!         print(x);
//!         return;
//!     }",
//! )?;
//! let response = analysis
//!     .session()
//!     .query(&Query::Check(CheckerKind::UseAfterFree));
//! assert_eq!(response.len(), 1);
//! let QueryResponse::Reports(reports) = response else {
//!     unreachable!("check queries answer with reports")
//! };
//! assert_eq!(reports[0].kind, Some(CheckerKind::UseAfterFree));
//! # Ok::<(), pinpoint_core::PinpointError>(())
//! ```

use crate::detect::Report;
use crate::driver::Analysis;
use crate::leak::LeakReport;
use crate::spec::{CheckerKind, Spec};
use crate::workspace::Workspace;
use std::borrow::Borrow;

/// One analysis request against a workspace: which property (or
/// properties) to evaluate over the current program state.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Run one built-in checker.
    Check(CheckerKind),
    /// Run every built-in checker ([`CheckerKind::ALL`], in order).
    All,
    /// Run a user-defined source–sink property specification.
    Custom(Spec),
    /// Run the whole-module memory-leak pass.
    Leaks,
}

impl Query {
    /// A short stable label for logs, traffic scripts, and bench rows.
    pub fn label(&self) -> String {
        match self {
            Query::Check(kind) => kind.to_string(),
            Query::All => "all".to_string(),
            Query::Custom(spec) => format!("custom:{}", spec.name),
            Query::Leaks => "leaks".to_string(),
        }
    }
}

/// The answer to one [`Query`]: value-flow reports for `Check`/`All`/
/// `Custom`, leak reports for `Leaks`.
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Source–sink defect reports.
    Reports(Vec<Report>),
    /// Memory-leak reports.
    Leaks(Vec<LeakReport>),
}

impl QueryResponse {
    /// Number of findings, whichever shape they have.
    pub fn len(&self) -> usize {
        match self {
            QueryResponse::Reports(r) => r.len(),
            QueryResponse::Leaks(l) => l.len(),
        }
    }

    /// `true` when the query produced no findings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value-flow reports, or an empty slice for a leak response.
    pub fn reports(&self) -> &[Report] {
        match self {
            QueryResponse::Reports(r) => r,
            QueryResponse::Leaks(_) => &[],
        }
    }

    /// Consumes the response into value-flow reports (empty for leaks).
    pub fn into_reports(self) -> Vec<Report> {
        match self {
            QueryResponse::Reports(r) => r,
            QueryResponse::Leaks(_) => Vec::new(),
        }
    }

    /// The leak reports, or an empty slice for a report response.
    pub fn leaks(&self) -> &[LeakReport] {
        match self {
            QueryResponse::Reports(_) => &[],
            QueryResponse::Leaks(l) => l,
        }
    }

    /// Consumes the response into leak reports (empty for checks).
    pub fn into_leaks(self) -> Vec<LeakReport> {
        match self {
            QueryResponse::Reports(_) => Vec::new(),
            QueryResponse::Leaks(l) => l,
        }
    }
}

impl<A: Borrow<Analysis>> Workspace<A> {
    /// Executes one [`Query`] — with the two-layer reuse of the
    /// [workspace docs](crate::workspace) when the workspace owns its
    /// artefact. This is the single entry point the serving layer, the
    /// CLI, and the tests build requests for.
    pub fn query(&mut self, query: &Query) -> QueryResponse {
        match query {
            Query::Check(k) => QueryResponse::Reports(self.run_property(&k.spec(), Some(*k))),
            Query::All => QueryResponse::Reports(
                CheckerKind::ALL
                    .into_iter()
                    .flat_map(|k| self.run_property(&k.spec(), Some(k)))
                    .collect(),
            ),
            Query::Custom(spec) => QueryResponse::Reports(self.run_property(spec, None)),
            Query::Leaks => QueryResponse::Leaks(self.run_leaks()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SinkSpec, SourceSpec};

    const UAF: &str = "fn main() {
        let p: int* = malloc();
        free(p);
        let x: int = *p;
        print(x);
        return;
    }";

    /// One use-after-free, and one freed pointer whose descent into
    /// `show` that function's summary proves harmless.
    const PRUNED: &str = "fn show(p: int*) { print(p); return; }
        fn main() {
            let p: int* = malloc();
            free(p);
            let x: int = *p;
            print(x);
            let q: int* = malloc();
            free(q);
            show(q);
            return;
        }";

    /// The canonical stats document without the `workspace` family,
    /// which only a workspace with a query cache emits.
    fn shared_stats<A: Borrow<Analysis>>(ws: &Workspace<A>) -> String {
        let json = ws.stats_json(true);
        match json.find(",\"workspace\":{") {
            Some(at) => {
                let end = at + json[at..].find('}').expect("family closes") + 1;
                format!("{}{}", &json[..at], &json[end..])
            }
            None => json,
        }
    }

    fn render(response: QueryResponse) -> Vec<String> {
        match response {
            QueryResponse::Reports(r) => r.iter().map(|x| format!("{x:?}")).collect(),
            QueryResponse::Leaks(l) => l.iter().map(|x| format!("{x:?}")).collect(),
        }
    }

    #[test]
    fn borrowed_and_owned_workspaces_answer_alike() {
        // Every query arm, asked of one artefact through a borrowed
        // workspace and of an equal one through an owned workspace, gets
        // the same reports and the same statistics: the owned kind adds
        // reuse, never different answers.
        let custom = Query::Custom(Spec {
            name: "free-to-print".into(),
            source: SourceSpec::FreeArgument,
            sink: SinkSpec::Calls(vec!["print".into()]),
            traverses_transforms: false,
        });
        let arms = [
            Query::Check(CheckerKind::UseAfterFree),
            Query::All,
            custom,
            Query::Leaks,
        ];
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let mut sources: Vec<(String, String)> = std::fs::read_dir(&corpus)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pp"))
            .map(|p| {
                (
                    p.display().to_string(),
                    std::fs::read_to_string(&p).unwrap(),
                )
            })
            .collect();
        assert!(sources.len() >= 20, "corpus found at {}", corpus.display());
        let config = pinpoint_workload::fuzzgen::FuzzGenConfig {
            seed: 27,
            ..Default::default()
        };
        sources.push((
            "fuzzgen".into(),
            pinpoint_workload::fuzzgen::generate(&config),
        ));
        sources.push(("pruned".into(), PRUNED.into()));
        let mut replayed = 0;
        for (name, src) in &sources {
            let analysis = Analysis::from_source(src).unwrap();
            for q in &arms {
                let mut borrowed = analysis.session();
                let mut owned = Workspace::open(src).unwrap();
                let what = format!("{name}: query {}", q.label());
                let answer = render(borrowed.query(q));
                assert_eq!(answer, render(owned.query(q)), "{what}");
                assert_eq!(shared_stats(&borrowed), shared_stats(&owned), "{what}");
                // Only the owned workspace kept a query cache, so only it
                // counts reuse.
                let has_family = |m: pinpoint_obs::MetricsRegistry| {
                    m.counters().any(|(k, _)| k.starts_with("workspace."))
                };
                assert!(!has_family(borrowed.metrics()), "{what}");
                assert!(has_family(owned.metrics()), "{what}");
                // Every source it searched went into the cache, and asked
                // again it answers from there alike.
                let rerun = owned.counters().queries_rerun;
                assert_eq!(owned.cached_queries() > 0, rerun > 0, "{what}");
                assert_eq!(answer, render(owned.query(q)), "{what}: replayed");
                assert_eq!(owned.counters().queries_reused, rerun, "{what}");
                replayed += rerun;
            }
        }
        assert!(replayed > 0);
        // Descent pruning answers on both: `show`'s summary proves the
        // second freed pointer's descent harmless.
        let a = Analysis::from_source(PRUNED).unwrap();
        let mut session = a.session();
        session.query(&Query::Check(CheckerKind::UseAfterFree));
        let d = session.stats().detect;
        assert!(d.skipped_descents > 0, "{d:?}");
    }

    #[test]
    fn response_accessors() {
        let mut ws = Workspace::open(UAF).unwrap();
        let r = ws.query(&Query::Check(CheckerKind::UseAfterFree));
        assert!(!r.is_empty());
        assert_eq!(r.reports().len(), r.len());
        assert!(r.leaks().is_empty());
        let l = ws.query(&Query::Leaks);
        assert!(l.reports().is_empty());
        assert_eq!(l.into_leaks().len(), 0, "everything is freed");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            Query::Check(CheckerKind::UseAfterFree).label(),
            "use-after-free"
        );
        assert_eq!(Query::All.label(), "all");
        assert_eq!(Query::Leaks.label(), "leaks");
    }
}
