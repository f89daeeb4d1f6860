//! Concurrency invariants of the serving layer.
//!
//! The [`Server`] promises that sessions are isolated and per-session
//! FIFO: a session's replies — reports, reuse counters, update
//! outcomes — must be byte-identical whether the session runs alone on
//! a dedicated server or interleaved with nine other sessions on a
//! shared worker pool, at any pool size. These tests drive the seeded
//! multi-client traffic generator against in-process servers and
//! byte-compare everything.

use pinpoint::workload::{generate_traffic, ClientScript, TrafficConfig, TrafficOp};
use pinpoint::{
    AnalysisBuilder, CheckerKind, ErrorCode, Op, Query, Reply, Request, Response, Server,
    ServerConfig,
};
use std::collections::BTreeMap;
use std::sync::mpsc;

fn op_of(op: &TrafficOp) -> Op {
    match op {
        TrafficOp::Open(src) => Op::Open {
            source: src.clone(),
        },
        TrafficOp::Update(src) => Op::Update {
            source: src.clone(),
        },
        TrafficOp::Check(None) => Op::Query(Query::All),
        TrafficOp::Check(Some(name)) => Op::Query(Query::Check(
            CheckerKind::parse(name).expect("known checker"),
        )),
        TrafficOp::Stats => Op::Stats { canonical: true },
    }
}

/// Canonical rendering of a reply: every byte a client could act on.
fn render(resp: &Response) -> String {
    match &resp.reply {
        Ok(Reply::Opened { funcs }) => format!("opened funcs={funcs}"),
        Ok(Reply::Updated {
            reanalyzed,
            reused,
            fell_back,
            lowered,
        }) => format!(
            "updated reanalyzed={reanalyzed} reused={reused} fell_back={fell_back} lowered={lowered}"
        ),
        Ok(Reply::Reports {
            json,
            reused,
            rerun,
        }) => {
            format!("reports reused={reused} rerun={rerun} {json}")
        }
        Ok(Reply::Leaks { json }) => format!("leaks {json}"),
        Ok(Reply::Stats { json }) => format!("stats {json}"),
        Ok(Reply::Status { json }) => format!("status {json}"),
        Ok(Reply::Metrics { body }) => format!("metrics {body}"),
        Ok(Reply::Closed) => "closed".to_string(),
        Err(e) => format!("error {}: {}", e.code.as_str(), e.message),
    }
}

/// Replays one session's script synchronously (submit, wait, next) and
/// returns its rendered replies in order.
fn replay(server: &Server, script: &ClientScript) -> Vec<String> {
    let (tx, rx) = mpsc::channel();
    script
        .ops
        .iter()
        .enumerate()
        .map(|(k, op)| {
            server.submit(
                Request {
                    id: k.to_string(),
                    session: script.session.clone(),
                    op: op_of(op),
                },
                &tx,
            );
            let resp = rx.recv().expect("one reply per request");
            assert_eq!(resp.id, k.to_string(), "replies arrive in request order");
            render(&resp)
        })
        .collect()
}

/// Runs all scripts concurrently (one thread per session) on a shared
/// server with the given worker-pool size.
fn run_fleet(scripts: &[ClientScript], workers: usize) -> BTreeMap<String, Vec<String>> {
    let server = Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    });
    let out = std::thread::scope(|s| {
        let server = &server;
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| s.spawn(move || (script.session.clone(), replay(server, script))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<BTreeMap<_, _>>()
    });
    let stats = server.stats();
    assert_eq!(stats.shed, 0, "synchronous clients never overrun the queue");
    assert_eq!(stats.sessions, scripts.len() as u64);
    out
}

#[test]
fn ten_concurrent_sessions_match_serial_runs() {
    let scripts = generate_traffic(&TrafficConfig {
        seed: 11,
        clients: 10,
        edits_per_client: 2,
        kloc: 0.25,
        // Every script ends in a canonical `stats` request: a session's
        // document must depend on its own requests only, not on the
        // server-wide counters other sessions move.
        stats_at_end: true,
        ..TrafficConfig::default()
    });
    // Ground truth: each session alone on its own single-worker server.
    let alone: BTreeMap<String, Vec<String>> = scripts
        .iter()
        .map(|script| {
            let server = Server::start(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            });
            (script.session.clone(), replay(&server, script))
        })
        .collect();
    // The same scripts interleaved on a shared pool must produce the
    // same bytes per session, at any pool size.
    for workers in [1usize, 4] {
        let fleet = run_fleet(&scripts, workers);
        assert_eq!(
            fleet, alone,
            "concurrent sessions (workers={workers}) must be byte-identical to serial runs"
        );
    }
}

#[test]
fn server_counters_land_in_stats_schema() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let src = "fn main() {
        let p: int* = malloc();
        free(p);
        let x: int = *p;
        print(x);
        return;
    }";
    for (id, op) in [
        ("0", Op::Open { source: src.into() }),
        ("1", Op::Query(Query::All)),
        ("2", Op::Stats { canonical: true }),
    ] {
        server.submit(
            Request {
                id: id.into(),
                session: "s".into(),
                op,
            },
            &tx,
        );
    }
    let responses: Vec<Response> = (0..3).map(|_| rx.recv().unwrap()).collect();
    let Ok(Reply::Stats { json }) = &responses[2].reply else {
        panic!("expected stats reply: {:?}", responses[2].reply);
    };
    // The session's document is its own workspace's: no server stage,
    // no server gauges.
    assert!(json.contains("\"schema\":\"pinpoint-stats-v1\""), "{json}");
    assert!(!json.contains("\"server\":{"), "{json}");
    assert!(!json.contains("server."), "{json}");
    // The server.* family lives in the server's registry, zero-valued
    // counters included (shed is 0 here but must still be visible).
    let m = server.metrics_registry();
    let counters: BTreeMap<&str, u64> = m
        .counters()
        .filter(|(name, _)| name.starts_with("server."))
        .collect();
    assert_eq!(
        counters.keys().copied().collect::<Vec<_>>(),
        [
            "server.completed",
            "server.queued",
            "server.sessions",
            "server.shed"
        ],
        "{counters:?}"
    );
    assert_eq!(counters["server.shed"], 0);
    assert_eq!(counters["server.sessions"], 1);
    assert_eq!(counters["server.queued"], 3);
    assert_eq!(counters["server.completed"], 3);
    // Point-in-time values are gauges, where repeated snapshots can
    // never inflate them.
    assert_eq!(m.gauge("server.workers"), 2);
    assert_eq!(m.gauge("server.sessions_open"), 1);
    // `status` reads the same ledger.
    let status = server.status_json(0, true);
    assert!(
        status.contains("\"counters\":{\"queued\":3,\"shed\":0,\"sessions\":1,\"completed\":3}"),
        "{status}"
    );
    assert!(status.contains("\"sessions_open\":1"), "{status}");
}

#[test]
fn overload_is_shed_with_typed_error_not_queued() {
    // One worker, capacity 1: while the worker chews on the open, at
    // most one more request may wait; the rest must be refused with the
    // typed `overloaded` error and the queued ones still complete.
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
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for i in 0..16 {
        let queued = server.submit(
            Request {
                id: format!("q{i}"),
                session: "s".into(),
                op: Op::Query(Query::All),
            },
            &tx,
        );
        if queued {
            accepted += 1;
        } else {
            shed += 1;
        }
    }
    assert!(shed > 0, "16 submissions over a 1-slot queue must shed");
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    for _ in 0..17 {
        match rx.recv().expect("every submission is answered").reply {
            Ok(_) => ok += 1,
            Err(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded, "{e}");
                overloaded += 1;
            }
        }
    }
    assert_eq!(overloaded, shed, "exactly the shed requests error");
    assert_eq!(ok, accepted + 1, "open plus every accepted query succeed");
    let stats = server.stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.queued, accepted + 1);
}

#[test]
fn per_session_fifo_under_cross_session_load() {
    // Two sessions ping-ponging on a 2-worker pool: each session's
    // replies must come back in its own submission order even though
    // the sessions' requests interleave arbitrarily at the workers.
    let src = "fn main() { let x: int = 1; print(x); return; }";
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let (tx_a, rx_a) = mpsc::channel();
    let (tx_b, rx_b) = mpsc::channel();
    for (session, tx) in [("a", &tx_a), ("b", &tx_b)] {
        server.submit(
            Request {
                id: "open".into(),
                session: session.into(),
                op: Op::Open { source: src.into() },
            },
            tx,
        );
        for i in 0..8 {
            server.submit(
                Request {
                    id: format!("q{i}"),
                    session: session.into(),
                    op: Op::Query(Query::All),
                },
                tx,
            );
        }
    }
    for rx in [rx_a, rx_b] {
        let ids: Vec<String> = (0..9).map(|_| rx.recv().unwrap().id).collect();
        let want: Vec<String> = std::iter::once("open".to_string())
            .chain((0..8).map(|i| format!("q{i}")))
            .collect();
        assert_eq!(ids, want, "per-session FIFO");
    }
}

#[test]
fn pipelined_requests_answer_as_sent_one_at_a_time() {
    // Each burst is sent pipelined (all submitted, then every reply
    // read) or one at a time; the probe after it is sent once the
    // session has drained. A session must answer alike either way: a
    // reopen behind a `close` keeps its workspace, and a failed `open`
    // or a `close` leaves nothing for a `close` to close.
    let uaf = "fn main() { let p: int* = malloc(); free(p); let x: int = *p; print(x); return; }";
    let open = |source: &str| Op::Open {
        source: source.into(),
    };
    // Opening this keeps the one worker busy while a burst queues.
    let slow: String = (0..300)
        .map(|i| format!("fn f{i}() {{ let p: int* = malloc(); free(p); let x: int = *p; print(x); return; }} "))
        .collect();
    let cases: Vec<(Vec<Op>, Op)> = vec![
        (vec![open(uaf), Op::Close, open(uaf)], Op::Query(Query::All)),
        (vec![open("fn main( {"), Op::Close], Op::Query(Query::All)),
        (vec![open(uaf), Op::Close, Op::Close], open(uaf)),
        (vec![open("fn main( {"), open(uaf)], Op::Query(Query::All)),
    ];
    for (burst, probe) in cases {
        let transcript = |pipelined: bool| {
            let server = Server::start(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            });
            let (tx, rx) = mpsc::channel();
            let (gate_tx, gate_rx) = mpsc::channel();
            let submit = |id: usize, session: &str, op: Op, tx: &mpsc::Sender<Response>| {
                let req = Request {
                    id: id.to_string(),
                    session: session.into(),
                    op,
                };
                server.submit(req, tx);
            };
            submit(0, "gate", open(&slow), &gate_tx);
            let mut replies = Vec::new();
            for (k, op) in burst.iter().enumerate() {
                submit(k, "s", op.clone(), &tx);
                if !pipelined {
                    replies.push(render(&rx.recv().expect("one reply per request")));
                }
            }
            if pipelined {
                replies.extend(burst.iter().map(|_| render(&rx.recv().unwrap())));
            }
            // One worker: once the gate answers a request sent after the
            // burst's replies, the worker has released session `s`.
            submit(1, "gate", Op::Query(Query::All), &gate_tx);
            for _ in 0..2 {
                gate_rx.recv().expect("the gate answers");
            }
            submit(burst.len(), "s", probe.clone(), &tx);
            replies.push(render(&rx.recv().expect("one reply per request")));
            replies.push(format!("sessions_open={}", server.stats().sessions_open));
            replies
        };
        assert_eq!(
            transcript(true),
            transcript(false),
            "{burst:?} then {probe:?}"
        );
    }
}
