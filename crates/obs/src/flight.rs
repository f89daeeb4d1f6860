//! Flight recorder: a fixed-capacity ring buffer of structured server
//! events.
//!
//! A long-lived `pinpoint serve` process needs a "what just happened"
//! view that costs almost nothing while nobody is looking: the
//! [`FlightRecorder`] keeps the last *capacity* [`FlightEvent`]s in a
//! preallocated ring — request accepted / started / completed / shed,
//! session open / close, worker panic, slow query — each tagged with
//! its session, request id, operation kind, the queue depth at the
//! instant of the event, and (for completions) the request's wall-clock
//! duration. Recording is an O(1) slot overwrite through `&mut self`;
//! the ring has no lock of its own, because the server's one ledger
//! (`ServerTelemetry` in `pinpoint-core`) owns it and records every
//! event under its own lock. Nothing allocates beyond the event's own
//! strings, and a capacity of 0 disables recording entirely (the push
//! is a single branch).
//!
//! Each event renders as one JSON row. The *canonical* form zeroes the
//! per-event timestamp and duration, so a deterministic request
//! sequence (e.g. one synchronous session) produces byte-identical
//! tails at any worker-pool size — the same invariant the stats
//! document keeps.

use crate::json::Obj;
use std::collections::VecDeque;

/// What happened. Wire names are [`FlightEventKind::label`] — stable
/// snake_case strings, never the Rust variant names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A request passed admission and entered its session's queue.
    Accepted,
    /// A request was refused because the global queue was full.
    Shed,
    /// A worker began executing a request.
    Started,
    /// A worker finished a request (`duration_ns` is meaningful).
    Completed,
    /// A session's workspace was (re)opened.
    SessionOpen,
    /// A session was closed and removed.
    SessionClose,
    /// A worker panicked mid-request; the session's workspace dropped.
    WorkerPanic,
    /// A request exceeded the slow-query threshold; `detail` carries its
    /// per-query solver attribution rows.
    SlowQuery,
}

impl FlightEventKind {
    /// The stable wire name of this event kind.
    pub fn label(self) -> &'static str {
        match self {
            FlightEventKind::Accepted => "accepted",
            FlightEventKind::Shed => "shed",
            FlightEventKind::Started => "started",
            FlightEventKind::Completed => "completed",
            FlightEventKind::SessionOpen => "session_open",
            FlightEventKind::SessionClose => "session_close",
            FlightEventKind::WorkerPanic => "worker_panic",
            FlightEventKind::SlowQuery => "slow_query",
        }
    }
}

/// One recorded event. `seq` is a global monotonically increasing
/// sequence number (events older than `capacity` are overwritten but
/// their numbers are never reused), `t_ns` is nanoseconds since the
/// server started. Callers build an event with [`FlightEvent::of`];
/// the server's ledger stamps `t_ns` and the ring stamps `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (assigned by the ring).
    pub seq: u64,
    /// Nanoseconds since the server started (assigned by the ledger).
    pub t_ns: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Session the event belongs to (empty for connection-level events).
    pub session: String,
    /// Client-chosen request id (empty for session-level events).
    pub request_id: String,
    /// Operation kind label (`open`, `update`, `check`, `stats`, …).
    pub op: &'static str,
    /// Requests waiting across all sessions at the instant of the event.
    pub queue_depth: u64,
    /// Request wall-clock duration (0 unless the kind carries one).
    pub duration_ns: u64,
    /// Free-form extra payload, already-rendered JSON (`slow_query`
    /// events carry their per-query attribution array here); empty when
    /// unused.
    pub detail: String,
}

impl FlightEvent {
    /// An event of the given kind with everything else empty/zero.
    pub fn of(kind: FlightEventKind) -> Self {
        FlightEvent {
            seq: 0,
            t_ns: 0,
            kind,
            session: String::new(),
            request_id: String::new(),
            op: "",
            queue_depth: 0,
            duration_ns: 0,
            detail: String::new(),
        }
    }

    /// JSON row. With `canonical`, `t_ns` and `duration_ns` are zeroed;
    /// everything else (including `seq` and `queue_depth`) is already
    /// deterministic for a deterministic request sequence.
    pub fn json(&self, canonical: bool) -> String {
        let mut o = Obj::new();
        o.u64("seq", self.seq)
            .u64("t_ns", if canonical { 0 } else { self.t_ns })
            .str("kind", self.kind.label())
            .str("session", &self.session)
            .str("id", &self.request_id)
            .str("op", self.op)
            .u64("queue_depth", self.queue_depth)
            .u64("duration_ns", if canonical { 0 } else { self.duration_ns });
        if !self.detail.is_empty() {
            o.raw("detail", &self.detail);
        }
        o.finish()
    }
}

/// The fixed-capacity event ring (see the [module docs](self)). It has
/// no lock of its own: the server's ledger owns it and guards it.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<FlightEvent>,
    seq: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events. Capacity 0
    /// disables recording (every [`FlightRecorder::record`] is a
    /// branch and a return).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity),
            seq: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event under the next sequence number, overwriting
    /// the oldest once full.
    pub fn record(&mut self, mut event: FlightEvent) {
        if self.capacity == 0 {
            return;
        }
        event.seq = self.seq;
        self.seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// The last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).cloned().collect()
    }

    /// Total events ever recorded (retained or overwritten).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.seq - self.events.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: FlightEventKind, id: &str) -> FlightEvent {
        FlightEvent {
            request_id: id.to_string(),
            session: "s".to_string(),
            op: "check",
            ..FlightEvent::of(kind)
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_sequence() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(event(FlightEventKind::Completed, &i.to_string()));
        }
        let tail = fr.tail(10);
        assert_eq!(tail.len(), 3);
        assert_eq!(
            tail.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest two were overwritten, seq never reused"
        );
        assert_eq!(fr.recorded(), 5);
        assert_eq!(fr.dropped(), 2);
        let short = fr.tail(2);
        assert_eq!(short.len(), 2);
        assert_eq!(short[0].seq, 3, "tail(n) keeps the newest n");
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut fr = FlightRecorder::new(0);
        fr.record(event(FlightEventKind::Accepted, "x"));
        assert_eq!(fr.recorded(), 0);
        assert!(fr.tail(8).is_empty());
    }

    #[test]
    fn canonical_json_zeroes_times_only() {
        let ev = FlightEvent {
            t_ns: 5,
            queue_depth: 2,
            duration_ns: 999,
            detail: "[{\"id\":0}]".to_string(),
            ..event(FlightEventKind::SlowQuery, "q1")
        };
        let json = ev.json(true);
        assert!(json.contains(r#""kind":"slow_query""#), "{json}");
        assert!(json.contains(r#""t_ns":0"#), "{json}");
        assert!(json.contains(r#""duration_ns":0"#), "{json}");
        assert!(json.contains(r#""queue_depth":2"#), "{json}");
        assert!(json.contains(r#""detail":[{"id":0}]"#), "{json}");
        let real = ev.json(false);
        assert!(real.contains(r#""duration_ns":999"#), "{real}");
        assert!(real.contains(r#""t_ns":5"#), "{real}");
    }
}
