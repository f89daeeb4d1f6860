//! # Pinpoint
//!
//! A from-scratch Rust reproduction of *Pinpoint: Fast and Precise Sparse
//! Value Flow Analysis for Million Lines of Code* (Shi, Xiao, Wu, Zhou,
//! Fan, Zhang — PLDI 2018).
//!
//! Pinpoint finds source–sink defects (use-after-free, double-free, taint
//! flows) with full inter-procedural path- and context-sensitivity by a
//! *holistic* design: a cheap quasi path-sensitive local points-to
//! analysis, a connector model exposing function side effects, a compact
//! per-function Symbolic Expression Graph (SEG), and a demand-driven
//! compositional search whose path conditions are discharged by an SMT
//! solver only for bug-related paths.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`ir`] | mini-language front end, SSA CFG IR, dominators, gating |
//! | [`smt`] | hash-consed terms, linear-time contradiction solver, CDCL SAT, DPLL(T) |
//! | [`pta`] | quasi path-sensitive points-to, Mod/Ref, connector transformation, Andersen baseline |
//! | [`core`] | SEG, path conditions, summaries, demand-driven detection, checkers |
//! | [`baseline`] | layered (SVF-style) and dense (Infer/CSA-style) comparators |
//! | [`workload`] | seeded project generator, Juliet-style suite, subject registry |
//!
//! # Quick start
//!
//! The pipeline is configured by [`AnalysisBuilder`] (worker count,
//! detection configuration, cache directory) and produces an immutable
//! [`Analysis`] artefact. Every question goes to it as a [`Query`]
//! through a [`Workspace`]: [`Analysis::session`] borrows the artefact
//! for one-shot checks (so concurrent checkers are safe), and
//! [`Workspace::open`] owns one that accepts edits. The front end and
//! detection run on `threads` workers with deterministic merges, and
//! points-to and the SEG run on the calling thread in between: reports
//! are byte-identical for any thread count.
//!
//! ```
//! use pinpoint::{AnalysisBuilder, CheckerKind, Query};
//!
//! let source = "
//!     fn main() {
//!         let p: int* = malloc();
//!         free(p);
//!         let x: int = *p;
//!         print(x);
//!         return;
//!     }";
//! let analysis = AnalysisBuilder::new().threads(4).build_source(source)?;
//! let mut session = analysis.session();
//! let reports = session.query(&Query::Check(CheckerKind::UseAfterFree));
//! assert_eq!(reports.len(), 1);
//! println!("{}", reports.reports()[0]); // reports are self-describing
//! // Statistics accumulate on the workspace across queries.
//! assert_eq!(session.stats().detect.reports, 1);
//! # Ok::<(), pinpoint::PinpointError>(())
//! ```

#![warn(missing_docs)]

pub use pinpoint_baseline as baseline;
pub use pinpoint_cache as cache;
pub use pinpoint_core as core;
pub use pinpoint_fuzz as fuzz;
pub use pinpoint_ir as ir;
pub use pinpoint_obs as obs;
pub use pinpoint_pta as pta;
pub use pinpoint_smt as smt;
pub use pinpoint_workload as workload;

pub use pinpoint_core::{
    default_threads, Analysis, AnalysisBuilder, CheckerKind, DetectConfig, ErrorCode, Op,
    PinpointError, Query, QueryResponse, Reply, Report, Request, Response, Server, ServerConfig,
    ServerError, ServerStats, ServerTelemetry, TelemetryConfig, UpdateOutcome, Workspace,
    WorkspaceCounters,
};
pub use pinpoint_ir::compile;
