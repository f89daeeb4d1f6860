//! The server ledger's record path allocates nothing once it has seen an
//! op and a session: a served request's completion costs the ledger a
//! lock and some counters, not a name. Its own test binary because it
//! installs the counting global allocator; one `#[test]` because the
//! counters are process-wide.

use pinpoint_bench::CountingAlloc;
use pinpoint_core::{ServerTelemetry, TelemetryConfig};
use pinpoint_obs::{FlightEvent, FlightEventKind};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn event(kind: FlightEventKind, op: &'static str, session: &str) -> FlightEvent {
    FlightEvent {
        session: session.to_string(),
        request_id: "7".to_string(),
        op,
        duration_ns: 1_000,
        ..FlightEvent::of(kind)
    }
}

#[test]
fn repeated_records_allocate_nothing() {
    let ledger = ServerTelemetry::new(&TelemetryConfig::default());
    let round = |session: &str| {
        [
            event(FlightEventKind::Accepted, "update", session),
            event(FlightEventKind::Started, "update", session),
            event(FlightEventKind::Completed, "update", session),
            event(FlightEventKind::Accepted, "check", session),
            event(FlightEventKind::Completed, "check", session),
        ]
    };
    // The first round names the ops, the session and the histograms.
    for e in round("c1/editor0") {
        ledger.record(e);
    }
    // Past the flight ring's capacity, so the ring is full and wraps.
    let rounds: Vec<_> = (0..100).map(|_| round("c1/editor0")).collect();
    let calls = CountingAlloc::calls();
    for e in rounds.into_iter().flatten() {
        ledger.record(e);
    }
    assert!(CountingAlloc::installed());
    assert_eq!(CountingAlloc::calls() - calls, 0, "allocations in record");
}
