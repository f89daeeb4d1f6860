//! Live telemetry for the serving layer.
//!
//! [`ServerTelemetry`] bundles the observability surfaces a long-running
//! [`Server`](crate::Server) exposes while it is serving:
//!
//! * a [`FlightRecorder`] of structured scheduling events (accepted /
//!   started / completed / shed, session lifecycle, worker panics,
//!   slow queries);
//! * rolling-window latency histograms, keyed per operation kind and per
//!   session ([`RollingSet`]), for "what are latencies like right now";
//! * cumulative per-op latency histograms in a [`MetricsRegistry`],
//!   which the Prometheus exposition scrapes.
//!
//! Everything here is designed to be read *without* the worker pool:
//! the recorder and the rolling state sit behind their own short-hold
//! mutexes, so `status`/`metrics` requests are answered on the
//! transport thread even when every worker is busy and the queue is
//! saturated — an overloaded server stays inspectable.
//!
//! The **slow-query log** threads through here too: a request whose
//! wall-clock duration reaches [`TelemetryConfig::slow_query_ns`] has
//! its per-query solver attribution captured as the detail payload of a
//! [`FlightEventKind::SlowQuery`](pinpoint_obs::FlightEventKind::SlowQuery)
//! event, so "why was that slow" is answerable after the fact from the
//! flight tail.

use pinpoint_obs::json::Obj;
use pinpoint_obs::{FlightRecorder, FlightSample, MetricsRegistry, RollingSet};
use std::sync::Mutex;

/// Telemetry construction parameters.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Flight-recorder capacity in events (0 disables the recorder).
    pub flight_capacity: usize,
    /// Wall-clock threshold at which a request is logged as a slow
    /// query, in nanoseconds. `u64::MAX` disables the slow-query log;
    /// 0 logs every request (useful to force coverage in smoke tests).
    pub slow_query_ns: u64,
}

/// Width of one rolling-window slot: 1 s…
const ROLLING_SLOT_NS: u64 = 1_000_000_000;
/// …over a window of ten slots.
const ROLLING_SLOTS: usize = 10;

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            flight_capacity: 256,
            slow_query_ns: u64::MAX,
        }
    }
}

#[derive(Debug)]
struct RollingState {
    per_op: RollingSet,
    per_session: RollingSet,
    /// Cumulative latency histograms (`server.latency_ns`,
    /// `server.latency_ns.<op>`) for the Prometheus exposition.
    latency: MetricsRegistry,
}

/// The serving layer's live-telemetry hub (see the [module docs](self)).
#[derive(Debug)]
pub struct ServerTelemetry {
    flight: FlightRecorder,
    slow_query_ns: u64,
    rolling: Mutex<RollingState>,
}

impl ServerTelemetry {
    /// Builds the hub from its configuration.
    pub fn new(config: &TelemetryConfig) -> Self {
        ServerTelemetry {
            flight: FlightRecorder::new(config.flight_capacity),
            slow_query_ns: config.slow_query_ns,
            rolling: Mutex::new(RollingState {
                per_op: RollingSet::new(ROLLING_SLOT_NS, ROLLING_SLOTS),
                per_session: RollingSet::new(ROLLING_SLOT_NS, ROLLING_SLOTS),
                latency: MetricsRegistry::new(),
            }),
        }
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The slow-query threshold in nanoseconds.
    pub fn slow_query_ns(&self) -> u64 {
        self.slow_query_ns
    }

    /// Nanoseconds since the telemetry hub (and therefore the server)
    /// started — the clock the flight recorder and rolling windows use.
    pub fn now_ns(&self) -> u64 {
        self.flight.now_ns()
    }

    /// Records one flight event.
    pub fn record(&self, sample: FlightSample) {
        self.flight.record(sample);
    }

    /// Records one completed request's latency into the rolling windows
    /// (per-op and per-session) and the cumulative histograms.
    pub fn observe_latency(&self, op: &str, session: &str, duration_ns: u64) {
        let now = self.now_ns();
        let mut r = self.lock();
        r.per_op.record(op, now, duration_ns);
        r.per_session.record(session, now, duration_ns);
        r.latency.hist_record("server.latency_ns", duration_ns);
        r.latency
            .hist_record(&format!("server.latency_ns.{op}"), duration_ns);
    }

    /// The `"rolling"` JSON object:
    /// `{"window_ns":N,"per_op":{...},"per_session":{...}}`, each entry
    /// a `{count,sum,p50,p95,p99,max}` summary over the current window.
    pub fn rolling_json(&self, canonical: bool) -> String {
        let now = self.now_ns();
        let r = self.lock();
        let mut o = Obj::new();
        o.u64(
            "window_ns",
            if canonical { 0 } else { r.per_op.window_ns() },
        )
        .raw("per_op", &r.per_op.summary_json(now, canonical))
        .raw("per_session", &r.per_session.summary_json(now, canonical));
        o.finish()
    }

    /// Folds the cumulative latency histograms into `m` (the registry a
    /// Prometheus scrape renders).
    pub fn fold_latency_into(&self, m: &mut MetricsRegistry) {
        m.merge(&self.lock().latency);
    }

    /// The `"flight"` JSON object: ring totals plus the newest `tail`
    /// events, oldest first. Canonical zeroes per-event times (see
    /// [`FlightRecorder::tail_json`]).
    pub fn flight_json(&self, tail: usize, canonical: bool) -> String {
        let mut o = Obj::new();
        o.u64("capacity", self.flight.capacity() as u64)
            .u64("recorded", self.flight.recorded())
            .u64("dropped", self.flight.dropped())
            .raw("tail", &self.flight.tail_json(tail, canonical));
        o.finish()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RollingState> {
        self.rolling
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_obs::FlightEventKind;

    #[test]
    fn latency_lands_in_rolling_and_cumulative() {
        let t = ServerTelemetry::new(&TelemetryConfig::default());
        t.observe_latency("check", "alice", 1_000);
        t.observe_latency("check", "alice", 2_000);
        t.observe_latency("open", "bob", 8_000);
        let json = t.rolling_json(false);
        assert!(
            json.contains("\"per_op\":{\"check\":{\"count\":2"),
            "{json}"
        );
        assert!(json.contains("\"open\":{\"count\":1"), "{json}");
        assert!(
            json.contains("\"per_session\":{\"alice\":{\"count\":2"),
            "{json}"
        );
        let mut m = MetricsRegistry::new();
        t.fold_latency_into(&mut m);
        assert_eq!(m.histogram("server.latency_ns").unwrap().count(), 3);
        assert_eq!(m.histogram("server.latency_ns.open").unwrap().count(), 1);
    }

    #[test]
    fn flight_json_wraps_ring_totals() {
        let t = ServerTelemetry::new(&TelemetryConfig {
            flight_capacity: 2,
            ..TelemetryConfig::default()
        });
        for _ in 0..3 {
            t.record(FlightSample::of(FlightEventKind::Accepted));
        }
        let json = t.flight_json(8, true);
        assert!(json.contains("\"capacity\":2"), "{json}");
        assert!(json.contains("\"recorded\":3"), "{json}");
        assert!(json.contains("\"dropped\":1"), "{json}");
        assert!(json.contains("\"kind\":\"accepted\""), "{json}");
    }
}
