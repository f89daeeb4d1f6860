//! A unified, data-driven query API over a [`Workspace`].
//!
//! Before this module, every caller of the workspace — the CLI, the
//! serving layer, the benches, the tests — built check requests by
//! picking one of four differently-shaped methods
//! (`check`/`check_custom`/`check_all`/`check_leaks`). [`Query`] folds
//! those shapes into one request value and [`QueryResponse`] into one
//! response value, so a request can be constructed in one place (a
//! protocol decoder, a traffic generator, a test table) and executed in
//! another ([`Workspace::query`]) without a per-shape dispatch at every
//! call site.
//!
//! The old per-shape `check*` methods went through one deprecation
//! release and are gone; [`Workspace::query`] is the only entry point.
//!
//! # Examples
//!
//! ```
//! use pinpoint_core::{CheckerKind, Query, QueryResponse, Workspace};
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
//! let response = ws.query(&Query::Check(CheckerKind::UseAfterFree));
//! assert_eq!(response.len(), 1);
//! let QueryResponse::Reports(reports) = response else {
//!     unreachable!("check queries answer with reports")
//! };
//! assert_eq!(reports[0].kind, Some(CheckerKind::UseAfterFree));
//! # Ok::<(), pinpoint_core::PinpointError>(())
//! ```

use crate::detect::Report;
use crate::leak::LeakReport;
use crate::spec::{CheckerKind, Spec};
use crate::workspace::Workspace;

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

impl Workspace {
    /// Executes one [`Query`] with the workspace's full two-layer reuse
    /// (see the [workspace docs](crate::workspace)). This is the single
    /// entry point the serving layer, the CLI, and the tests build
    /// requests for.
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

    /// One use-after-free, and one freed pointer the gate must read
    /// `show`'s summary to prove harmless.
    const GATED: &str = "fn show(p: int*) { print(p); return; }
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

    #[test]
    fn query_shapes_match_session_equivalents() {
        // Every query arm must agree with the session-level API run on a
        // fresh artefact of the same program — the workspace adds reuse,
        // never different answers.
        let mut q_ws = Workspace::open(UAF).unwrap();
        let reference = |q: &Query| -> Vec<String> {
            let a = crate::driver::Analysis::from_source(UAF).unwrap();
            match q {
                Query::Check(k) => a.check(*k).iter().map(ToString::to_string).collect(),
                Query::All => a.check_all().iter().map(ToString::to_string).collect(),
                Query::Custom(s) => a.check_custom(s).iter().map(ToString::to_string).collect(),
                Query::Leaks => a.check_leaks().iter().map(|l| format!("{l:?}")).collect(),
            }
        };
        let custom = Query::Custom(Spec {
            name: "free-to-print".into(),
            source: SourceSpec::FreeArgument,
            sink: SinkSpec::Calls(vec!["print".into()]),
            traverses_transforms: false,
        });
        for q in [
            Query::Check(CheckerKind::UseAfterFree),
            Query::All,
            custom,
            Query::Leaks,
        ] {
            let unified: Vec<String> = match q_ws.query(&q) {
                QueryResponse::Reports(r) => r.iter().map(ToString::to_string).collect(),
                QueryResponse::Leaks(l) => l.iter().map(|x| format!("{x:?}")).collect(),
            };
            assert_eq!(unified, reference(&q), "query {} diverges", q.label());
        }
        // One path, one answer: a single-checker query is gated exactly
        // like the session call it stands for.
        let summary =
            |d: crate::detect::DetectStats| (d.summary_built, d.summary_composed, d.summary_gated);
        let a = crate::driver::Analysis::from_source(GATED).unwrap();
        for k in CheckerKind::ALL {
            let mut ws = Workspace::open(GATED).unwrap();
            let mut session = a.session();
            assert_eq!(
                ws.query(&Query::Check(k)).len(),
                session.check(k).len(),
                "{k}"
            );
            let counters = summary(ws.stats().detect);
            assert_eq!(counters, summary(session.stats().detect), "{k}");
            if k == CheckerKind::UseAfterFree {
                assert!(counters.0 > 0 && counters.2 > 0, "{counters:?}");
            }
        }
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
