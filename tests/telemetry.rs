//! Live-telemetry invariants of the serving layer.
//!
//! The flight recorder, rolling latency windows, and the `status` /
//! `metrics` documents must (a) answer from the scheduler mutex alone —
//! even while every worker is busy and the queue is full — and (b) stay
//! byte-deterministic in canonical form across worker-pool sizes, the
//! same bar `pinpoint-stats-v1` already meets.

use pinpoint::{
    AnalysisBuilder, Op, Query, Reply, Request, Response, Server, ServerConfig, TelemetryConfig,
};
use std::sync::mpsc;

const SRC: &str = "fn main() {
    let p: int* = malloc();
    free(p);
    let x: int = *p;
    print(x);
    return;
}";

/// Extracts the numeric value of the first `"key":N` occurrence.
fn field_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {json}"))
}

fn replay(server: &Server, session: &str, ops: Vec<Op>) -> Vec<Response> {
    let (tx, rx) = mpsc::channel();
    ops.into_iter()
        .enumerate()
        .map(|(k, op)| {
            server.submit(
                Request {
                    id: k.to_string(),
                    session: session.into(),
                    op,
                },
                &tx,
            );
            rx.recv().expect("one reply per request")
        })
        .collect()
}

#[test]
fn status_and_metrics_answer_while_the_pool_is_saturated() {
    // One worker, one queue slot: the big open pins the worker, the
    // extra queries fill the slot and shed. Status and metrics must
    // still answer instantly — they never touch the pool.
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        builder: AnalysisBuilder::new(),
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let big: String = (0..80)
        .map(|i| {
            format!(
                "fn f{i}(c: bool) {{
                    let p: int* = malloc();
                    if (c) {{ free(p); }}
                    let x: int = *p;
                    print(x);
                    return;
                }}\n"
            )
        })
        .collect();
    server.submit(
        Request {
            id: "open".into(),
            session: "s".into(),
            op: Op::Open { source: big },
        },
        &tx,
    );
    let mut submitted = 1u64;
    let mut shed = 0u64;
    for i in 0..16 {
        submitted += 1;
        if !server.submit(
            Request {
                id: format!("q{i}"),
                session: "s".into(),
                op: Op::Query(Query::All),
            },
            &tx,
        ) {
            shed += 1;
        }
    }
    assert!(shed > 0, "16 submissions over a 1-slot queue must shed");
    // In-band status while the worker is pinned: answers from the
    // scheduler state, reports the live queue and the shed events.
    let status = server.status_json(32, false);
    assert!(
        status.contains("\"schema\":\"pinpoint-status-v1\""),
        "{status}"
    );
    assert_eq!(field_u64(&status, "workers"), 1);
    assert_eq!(field_u64(&status, "queue_capacity"), 1);
    assert_eq!(field_u64(&status, "shed"), shed);
    assert!(status.contains("\"sessions\":[{\"name\":\"s\""), "{status}");
    assert!(status.contains("\"kind\":\"shed\""), "{status}");
    assert!(status.contains("\"kind\":\"accepted\""), "{status}");
    // Prometheus scrape works mid-load too, gauges typed as gauges.
    let prom = server.prometheus();
    assert!(
        prom.contains("# TYPE pinpoint_server_workers gauge"),
        "{prom}"
    );
    assert!(prom.contains("pinpoint_server_workers 1"), "{prom}");
    assert!(
        prom.contains(&format!("pinpoint_server_shed {shed}")),
        "{prom}"
    );
    for _ in 0..submitted {
        rx.recv().expect("every submission is answered");
    }
}

#[test]
fn forced_slow_queries_capture_solver_attribution() {
    // Threshold 0 marks every request slow (the CI forcing knob); the
    // flight tail must carry slow_query events whose detail is the
    // canonical per-query solver attribution for that request.
    let server = Server::start(ServerConfig {
        workers: 1,
        telemetry: TelemetryConfig {
            slow_query_ns: 0,
            ..TelemetryConfig::default()
        },
        ..ServerConfig::default()
    });
    replay(
        &server,
        "s",
        vec![Op::Open { source: SRC.into() }, Op::Query(Query::All)],
    );
    let flight = server.telemetry().flight_json(64, false);
    assert!(flight.contains("\"kind\":\"slow_query\""), "{flight}");
    // The check produced solver queries, so its slow event carries a
    // non-empty attribution array (checker + outcome per query).
    let slow_check = flight
        .split("\"kind\":\"slow_query\"")
        .nth(2)
        .unwrap_or_else(|| panic!("two slow events (open, check) in {flight}"));
    assert!(slow_check.contains("\"detail\":[{"), "{flight}");
    assert!(slow_check.contains("\"checker\":"), "{flight}");
}

#[test]
fn canonical_flight_and_stats_are_identical_across_worker_counts() {
    // A synchronous session must leave byte-identical canonical
    // telemetry behind no matter how many workers the pool has — the
    // same determinism bar the stats export already meets.
    let edited = SRC.replace("print(x);", "print(x);\n    print(x);");
    let run = |workers: usize| -> (String, String) {
        let server = Server::start(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let responses = replay(
            &server,
            "s",
            vec![
                Op::Open { source: SRC.into() },
                Op::Query(Query::All),
                Op::Update {
                    source: edited.clone(),
                },
                Op::Query(Query::Leaks),
                Op::Stats { canonical: true },
            ],
        );
        let Ok(Reply::Stats { json }) = &responses[4].reply else {
            panic!("expected stats reply: {:?}", responses[4].reply);
        };
        (server.telemetry().flight_json(64, true), json.clone())
    };
    let (flight1, stats1) = run(1);
    let (flight4, stats4) = run(4);
    assert_eq!(
        flight1, flight4,
        "canonical flight is worker-count independent"
    );
    assert_eq!(
        stats1, stats4,
        "canonical stats is worker-count independent"
    );
    // The canonical tail carries the full deterministic event sequence:
    // session open, then accepted/started/completed per request.
    for kind in ["session_open", "accepted", "started", "completed"] {
        assert!(
            flight1.contains(&format!("\"kind\":\"{kind}\"")),
            "{flight1}"
        );
    }
    assert!(
        !flight1.contains("\"t_ns\":1"),
        "canonical zeroes clocks: {flight1}"
    );
}

#[test]
fn repeated_snapshots_do_not_inflate_gauges() {
    // `server.workers` et al. are point-in-time gauges: asking for the
    // registry (or a scrape) twice must report the same value, not twice
    // the value — the counter-abuse bug this family of metrics had.
    let server = Server::start(ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    });
    replay(&server, "s", vec![Op::Open { source: SRC.into() }]);
    let gauge = || server.metrics_registry().gauge("server.workers");
    assert_eq!(gauge(), 3);
    assert_eq!(gauge(), 3, "second snapshot must not inflate");
    let scrape1 = server.prometheus();
    let scrape2 = server.prometheus();
    let line = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("pinpoint_server_workers "))
            .map(str::to_string)
    };
    assert_eq!(line(&scrape1), Some("pinpoint_server_workers 3".into()));
    assert_eq!(line(&scrape1), line(&scrape2));
}

#[test]
fn a_disabled_flight_ring_still_counts() {
    // The counters live in the ledger, not in the ring: at capacity 0
    // nothing is kept in the flight tail, but every surface still counts
    // every request, and they all agree.
    let server = Server::start(ServerConfig {
        workers: 2,
        telemetry: TelemetryConfig {
            flight_capacity: 0,
            ..TelemetryConfig::default()
        },
        ..ServerConfig::default()
    });
    replay(
        &server,
        "s",
        vec![
            Op::Open { source: SRC.into() },
            Op::Query(Query::All),
            Op::Close,
        ],
    );
    let completed = server.stats().completed;
    assert_eq!(completed, 3);
    let status = server.status_json(64, false);
    assert_eq!(field_u64(&status, "completed"), completed, "{status}");
    let prom = server.prometheus();
    assert!(
        prom.contains(&format!("\npinpoint_server_completed {completed}\n")),
        "{prom}"
    );
    assert!(status.contains("\"tail\":[]"), "{status}");
    assert_eq!(field_u64(&status, "recorded"), 0, "{status}");
}

#[test]
fn rolling_windows_populate_per_op_and_per_session() {
    let server = Server::start(ServerConfig::default());
    replay(
        &server,
        "alice",
        vec![Op::Open { source: SRC.into() }, Op::Query(Query::All)],
    );
    replay(&server, "bob", vec![Op::Open { source: SRC.into() }]);
    let status = server.status_json(0, false);
    assert!(
        status.contains("\"per_op\":{\"check\":{\"count\":1"),
        "{status}"
    );
    assert!(status.contains("\"open\":{\"count\":2"), "{status}");
    assert!(status.contains("\"alice\":{\"count\":2"), "{status}");
    assert!(status.contains("\"bob\":{\"count\":1"), "{status}");
    // tail 0 means no flight events in the document, but totals remain.
    assert!(status.contains("\"tail\":[]"), "{status}");
    assert!(field_u64(&status, "recorded") > 0, "{status}");
}
