//! `pinpoint-core`: the primary contribution of *Pinpoint: Fast and
//! Precise Sparse Value Flow Analysis for Million Lines of Code*
//! (PLDI 2018), reproduced in Rust.
//!
//! Pinpoint checks source–sink properties (use-after-free, double-free,
//! taint flows) with full inter-procedural path- and context-sensitivity
//! while staying near-linear in practice. The "holistic" design spreads
//! the cost of a precise points-to analysis across the whole pipeline:
//!
//! 1. a cheap intra-procedural, *quasi path-sensitive* points-to analysis
//!    (in [`pinpoint_pta`]) discovers local data dependence and function
//!    side effects;
//! 2. the connector model exposes side effects on function interfaces, so
//!    inter-procedural dependence is resolved on demand;
//! 3. the per-function **Symbolic Expression Graph** ([`seg`]) memorises
//!    conditions compactly;
//! 4. the demand-driven, compositional detector ([`detect`]) stitches
//!    SEGs along bug-related paths only and discharges the resulting
//!    *efficient path conditions* ([`cond`]) with an SMT solver.
//!
//! # Examples
//!
//! Detecting the inter-procedural use-after-free of the paper's Fig. 1:
//!
//! ```
//! use pinpoint_core::{Analysis, CheckerKind, Query};
//!
//! let src = "
//!     fn main() {
//!         let p: int* = malloc();
//!         free(p);
//!         let x: int = *p;
//!         print(x);
//!         return;
//!     }";
//! let analysis = Analysis::from_source(src)?;
//! let reports = analysis.session().query(&Query::Check(CheckerKind::UseAfterFree));
//! assert_eq!(reports.len(), 1);
//! # Ok::<(), pinpoint_core::PinpointError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `clippy.toml` bans hash containers; the ban binds in the modules that
// deny it (`seg`), not crate-wide.
#![allow(clippy::disallowed_types)]

pub mod cache_io;
pub mod cond;
pub mod detect;
pub mod driver;
pub mod error;
pub mod export;
pub mod leak;
pub mod query;
pub mod seg;
pub mod server;
pub mod spec;
pub mod telemetry;
pub mod vfsummary;
pub mod workspace;

pub use detect::{DetectConfig, DetectStats, Report, Step};
pub use driver::{
    compile_source, default_threads, Analysis, AnalysisBuilder, Compiled, PipelineStats,
    UpdateOutcome,
};
pub use error::PinpointError;
pub use leak::{LeakKind, LeakReport};
pub use query::{Query, QueryResponse};
pub use seg::{EdgeKind, ModuleSeg, Seg, SegEdge};
pub use server::{
    ErrorCode, Op, Reply, Request, Response, Server, ServerConfig, ServerError, ServerStats,
};
pub use spec::{CheckerKind, SinkRole, SinkSite, SinkSpec, SourceSite, SourceSpec, Spec};
pub use telemetry::{ServerTelemetry, TelemetryConfig};
pub use vfsummary::{ModuleSummaries, SummaryCx};
pub use workspace::{Workspace, WorkspaceCounters};
