//! Observability layer for the Pinpoint reproduction.
//!
//! Dependency-free instrumentation threaded through the analysis
//! pipeline:
//!
//! * [`span::TraceBuf`] — hierarchical spans in per-thread lock-free
//!   buffers, merged deterministically at pipeline joins, exported as
//!   Chrome trace-event JSON (Perfetto-loadable);
//! * [`metrics::MetricsRegistry`] — monotonic counters and log2
//!   [`metrics::Histogram`]s under one dotted-name schema with a single
//!   JSON serializer: the export format, not the store. The per-crate
//!   `PipelineStats`, `DetectStats`, `PtaStats`, `CacheStats` and
//!   `WorkspaceCounters` remain; `Workspace::metrics` in `pinpoint-core`
//!   translates them, and the sizes it reads from the artefact, into it;
//! * [`attr`] — per-query solver attribution: each source→sink query the
//!   detector evaluates carries an id and its DPLL(T) cost, aggregated
//!   into a top-K "where did the time go" [`attr::ProfileTable`];
//! * [`flight::FlightRecorder`] — a fixed-capacity ring of structured
//!   server events (accepted/started/completed/shed, session lifecycle,
//!   worker panics, slow queries) for live "what just happened"
//!   inspection of a long-running `pinpoint serve`;
//! * [`rolling::RollingWindow`] / [`rolling::RollingSet`] — rolling-window
//!   latency histograms (per-op / per-session p50/p95/p99 over the last N
//!   seconds) built on the log2 [`metrics::Histogram`];
//! * [`prom::prometheus_text`] — Prometheus text exposition of a
//!   [`metrics::MetricsRegistry`], next to the pinpoint-stats-v1 JSON.
//!
//! None of these types holds a lock. The server keeps one ring, two
//! rolling sets and one registry behind one lock and records each event
//! into all of them in one call (`ServerTelemetry::record` in
//! `pinpoint-core`), so a request's counters, latencies and flight rows
//! can never disagree.
//!
//! Everything is behind enums/plain structs (no trait objects per
//! event): a disabled [`span::TraceBuf::Off`] recorder is a branch and a
//! return. Both the trace and the stats documents have *canonical*
//! export forms with timings zeroed and lanes/run-metadata dropped,
//! which are byte-identical across thread counts — the property the
//! parallel-determinism suite asserts.

#![warn(missing_docs)]

pub mod attr;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod rolling;
pub mod span;

pub use attr::{queries_json, ProfileTable, QueryCost, QueryOutcome, QueryRecord};
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder};
pub use metrics::{Histogram, MetricsRegistry};
pub use prom::prometheus_text;
pub use rolling::{RollingSet, RollingWindow};
pub use span::{SpanId, SpanRecord, TraceBuf};
