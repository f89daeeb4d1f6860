//! The serving layer's one ledger.
//!
//! [`ServerTelemetry`] is where a long-running [`Server`](crate::Server)
//! records what happens to it. Each server event — a request accepted,
//! shed, started or completed, a session opened or closed, a worker
//! panic, a slow query — is one [`FlightEvent`] handed to
//! [`ServerTelemetry::record`], which takes the ledger's one lock and,
//! under it:
//!
//! * bumps the event kind's cumulative counter in one
//!   [`MetricsRegistry`] (`Accepted` → `server.queued`, `Shed` →
//!   `server.shed`, `SessionOpen` → `server.sessions`, `Completed` and
//!   `WorkerPanic` → `server.completed`);
//! * on `Completed`, records the latency into the rolling windows keyed
//!   per operation kind and per session ([`RollingSet`], "what are
//!   latencies like right now") and into the cumulative
//!   `server.latency_ns` / `server.latency_ns.<op>` histograms the
//!   Prometheus exposition scrapes;
//! * stamps the event and pushes it into the [`FlightRecorder`] ring.
//!
//! So one event is written once, and the counters, the latencies and the
//! flight tail can never disagree. The counters count even when the ring
//! is disabled (`flight_capacity: 0`).
//!
//! The `status`/`metrics` readers copy what they need under the lock and
//! format it outside, and never touch the worker pool, so an overloaded
//! server stays inspectable. The server takes this lock while holding
//! its scheduler lock (scheduler → ledger), never the reverse.
//!
//! The **slow-query log** threads through here too: a request whose
//! wall-clock duration reaches [`TelemetryConfig::slow_query_ns`] has
//! its per-query solver attribution captured as the detail payload of a
//! [`FlightEventKind::SlowQuery`] event, so "why was that slow" is
//! answerable after the fact from the flight tail.

use pinpoint_obs::json::{Arr, Obj};
use pinpoint_obs::{
    FlightEvent, FlightEventKind, FlightRecorder, Histogram, MetricsRegistry, RollingSet,
};
use std::borrow::Cow;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

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

/// The cumulative `server.*` counter an event kind bumps, if any.
pub(crate) fn counter_name(kind: FlightEventKind) -> Option<&'static str> {
    match kind {
        FlightEventKind::Accepted => Some("server.queued"),
        FlightEventKind::Shed => Some("server.shed"),
        FlightEventKind::SessionOpen => Some("server.sessions"),
        FlightEventKind::Completed | FlightEventKind::WorkerPanic => Some("server.completed"),
        FlightEventKind::Started | FlightEventKind::SessionClose | FlightEventKind::SlowQuery => {
            None
        }
    }
}

/// Everything the ledger's lock guards.
#[derive(Debug)]
struct Ledger {
    /// The `server.*` counters and cumulative latency histograms.
    metrics: MetricsRegistry,
    per_op: RollingSet,
    per_session: RollingSet,
    flight: FlightRecorder,
}

/// The cumulative latency histogram of an op label ([`crate::Op::label`]):
/// `server.latency_ns.<op>`, a static name for every label the server
/// gives, so a completion formats nothing.
fn latency_histogram(op: &'static str) -> Cow<'static, str> {
    const NAMES: [(&str, &str); 6] = [
        ("open", "server.latency_ns.open"),
        ("update", "server.latency_ns.update"),
        ("check", "server.latency_ns.check"),
        ("leaks", "server.latency_ns.leaks"),
        ("stats", "server.latency_ns.stats"),
        ("close", "server.latency_ns.close"),
    ];
    match NAMES.iter().find(|(label, _)| *label == op) {
        Some((_, name)) => Cow::Borrowed(name),
        None => Cow::Owned(format!("server.latency_ns.{op}")),
    }
}

/// The serving layer's one ledger (see the [module docs](self)).
#[derive(Debug)]
pub struct ServerTelemetry {
    start: Instant,
    slow_query_ns: u64,
    ledger: Mutex<Ledger>,
}

impl ServerTelemetry {
    /// Builds the ledger from its configuration. Every counter exists
    /// from the start, so a scrape shows `server.shed 0` rather than
    /// nothing.
    pub fn new(config: &TelemetryConfig) -> Self {
        let mut metrics = MetricsRegistry::new();
        for kind in [
            FlightEventKind::Accepted,
            FlightEventKind::Shed,
            FlightEventKind::SessionOpen,
            FlightEventKind::Completed,
        ] {
            metrics.counter_add(counter_name(kind).expect("counted kind"), 0);
        }
        ServerTelemetry {
            start: Instant::now(),
            slow_query_ns: config.slow_query_ns,
            ledger: Mutex::new(Ledger {
                metrics,
                per_op: RollingSet::new(ROLLING_SLOT_NS, ROLLING_SLOTS),
                per_session: RollingSet::new(ROLLING_SLOT_NS, ROLLING_SLOTS),
                flight: FlightRecorder::new(config.flight_capacity),
            }),
        }
    }

    /// The slow-query threshold in nanoseconds.
    pub fn slow_query_ns(&self) -> u64 {
        self.slow_query_ns
    }

    /// Nanoseconds since the ledger (and therefore the server) started —
    /// the clock of the flight events and the rolling windows.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Records one event: its counter, its latency (completions only)
    /// and its flight row, all under one lock hold.
    pub fn record(&self, mut event: FlightEvent) {
        let now = self.now_ns();
        event.t_ns = now;
        let mut l = self.lock();
        if let Some(name) = counter_name(event.kind) {
            l.metrics.counter_add(name, 1);
        }
        if event.kind == FlightEventKind::Completed {
            let d = event.duration_ns;
            l.per_op.record(event.op, now, d);
            l.per_session.record(&event.session, now, d);
            l.metrics.hist_record("server.latency_ns", d);
            l.metrics.hist_record(&latency_histogram(event.op), d);
        }
        l.flight.record(event);
    }

    /// A copy of the ledger's registry: the `server.*` counters and the
    /// cumulative latency histograms.
    pub(crate) fn metrics(&self) -> MetricsRegistry {
        self.lock().metrics.clone()
    }

    /// The `"rolling"` JSON object:
    /// `{"window_ns":N,"per_op":{...},"per_session":{...}}`, each entry
    /// a `{count,sum,p50,p95,p99,max}` summary over the current window.
    /// With `canonical` the values are zeroed and only the keys remain.
    pub fn rolling_json(&self, canonical: bool) -> String {
        let now = self.now_ns();
        let (window_ns, per_op, per_session) = {
            let l = self.lock();
            (
                l.per_op.window_ns(),
                l.per_op.snapshots(now),
                l.per_session.snapshots(now),
            )
        };
        let summaries = |rows: &[(String, Histogram)]| {
            let mut o = Obj::new();
            for (k, h) in rows {
                o.raw(k, &h.summary_json(canonical));
            }
            o.finish()
        };
        let mut o = Obj::new();
        o.u64("window_ns", if canonical { 0 } else { window_ns })
            .raw("per_op", &summaries(&per_op))
            .raw("per_session", &summaries(&per_session));
        o.finish()
    }

    /// The `"flight"` JSON object: ring totals plus the newest `tail`
    /// events, oldest first. Canonical zeroes per-event times (see
    /// [`FlightEvent::json`]).
    pub fn flight_json(&self, tail: usize, canonical: bool) -> String {
        let (capacity, recorded, dropped, events) = {
            let l = self.lock();
            (
                l.flight.capacity(),
                l.flight.recorded(),
                l.flight.dropped(),
                l.flight.tail(tail),
            )
        };
        let mut rows = Arr::new();
        for ev in &events {
            rows.raw(&ev.json(canonical));
        }
        let mut o = Obj::new();
        o.u64("capacity", capacity as u64)
            .u64("recorded", recorded)
            .u64("dropped", dropped)
            .raw("tail", &rows.finish());
        o.finish()
    }

    fn lock(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(op: &'static str, session: &str, duration_ns: u64) -> FlightEvent {
        FlightEvent {
            session: session.into(),
            op,
            duration_ns,
            ..FlightEvent::of(FlightEventKind::Completed)
        }
    }

    #[test]
    fn latency_lands_in_rolling_and_cumulative() {
        let t = ServerTelemetry::new(&TelemetryConfig::default());
        t.record(completed("check", "alice", 1_000));
        t.record(completed("check", "alice", 2_000));
        t.record(completed("open", "bob", 8_000));
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
        let m = t.metrics();
        assert_eq!(m.histogram("server.latency_ns").unwrap().count(), 3);
        assert_eq!(m.histogram("server.latency_ns.open").unwrap().count(), 1);
        assert_eq!(m.counter("server.completed"), 3);
    }

    #[test]
    fn flight_json_wraps_ring_totals() {
        let t = ServerTelemetry::new(&TelemetryConfig {
            flight_capacity: 2,
            ..TelemetryConfig::default()
        });
        for _ in 0..3 {
            t.record(FlightEvent::of(FlightEventKind::Accepted));
        }
        let json = t.flight_json(8, true);
        assert!(json.contains("\"capacity\":2"), "{json}");
        assert!(json.contains("\"recorded\":3"), "{json}");
        assert!(json.contains("\"dropped\":1"), "{json}");
        assert!(json.contains("\"kind\":\"accepted\""), "{json}");
        assert_eq!(t.metrics().counter("server.queued"), 3);
    }
}
