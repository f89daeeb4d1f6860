//! A concurrent multi-session analysis server.
//!
//! [`Server`] is the serving layer over the incremental [`Workspace`]:
//! it owns many named sessions — one long-lived workspace each, the
//! "one editor per engineer" shape of the paper's production deployment
//! — and schedules their requests onto a bounded worker pool. The CLI's
//! `pinpoint serve` builds its stdio and Unix-socket transports on top
//! of this type; in-process embedders (tests, benches) drive it
//! directly.
//!
//! # Scheduling model
//!
//! * **Per-session FIFO.** Requests of one session are executed one at
//!   a time, in submission order, and each response is delivered before
//!   the session's next request starts. A session behaves exactly as if
//!   it had the server to itself; concurrency exists only *across*
//!   sessions. This is what makes a concurrent run byte-identical to a
//!   serial one per session.
//! * **Bounded global queue (backpressure).** At most
//!   [`ServerConfig::queue_capacity`] requests may be waiting across
//!   all sessions. [`Server::submit`] never blocks.
//! * **Load shedding.** A submission over capacity is answered
//!   immediately with a typed [`ErrorCode::Overloaded`] error instead
//!   of being queued — the client learns it must back off; the sessions
//!   already in the queue are unaffected.
//!
//! # Delivery
//!
//! Responses are pushed into the [`mpsc::Sender`] handed to
//! [`Server::submit`], so one transport thread can serve any number of
//! sessions: replies from different sessions interleave freely, while
//! replies within one session arrive in request order. Every submitted
//! request produces exactly one [`Response`] — errors included — and
//! every response echoes the client-chosen request `id` and session.
//!
//! # Examples
//!
//! ```
//! use pinpoint_core::{CheckerKind, Op, Query, Request, Server, ServerConfig};
//! use std::sync::mpsc;
//!
//! let server = Server::start(ServerConfig::default());
//! let (tx, rx) = mpsc::channel();
//! server.submit(
//!     Request {
//!         id: "1".into(),
//!         session: "alice".into(),
//!         op: Op::Open {
//!             source: "fn main() {
//!                 let p: int* = malloc();
//!                 free(p);
//!                 let x: int = *p;
//!                 print(x);
//!                 return;
//!             }"
//!             .into(),
//!         },
//!     },
//!     &tx,
//! );
//! server.submit(
//!     Request {
//!         id: "2".into(),
//!         session: "alice".into(),
//!         op: Op::Query(Query::Check(CheckerKind::UseAfterFree)),
//!     },
//!     &tx,
//! );
//! let opened = rx.recv().unwrap();
//! assert!(opened.reply.is_ok());
//! let reports = rx.recv().unwrap();
//! assert_eq!(reports.id, "2");
//! server.shutdown();
//! ```

use crate::driver::AnalysisBuilder;
use crate::export::{leaks_json, reports_json};
use crate::query::{Query, QueryResponse};
use crate::telemetry::{ServerTelemetry, TelemetryConfig};
use crate::workspace::Workspace;
use pinpoint_obs::json::{escape, Arr, Obj};
use pinpoint_obs::{prometheus_text, queries_json, FlightEventKind, FlightSample, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// The protocol version the serving layer speaks (negotiated by the
/// transport's `hello` handshake; the server core is transport-agnostic
/// but the constant lives here so every transport agrees).
pub const PROTOCOL: &str = "pinpoint-rpc-v2";

/// Typed error categories of the serving layer. The wire encoding is
/// [`ErrorCode::as_str`] — stable snake_case strings, never the Rust
/// variant names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request itself was malformed: unparsable frame, oversized
    /// line, unknown command or key, missing field. The stream stays
    /// usable — transports resynchronize at the next newline.
    ProtocolError,
    /// The global queue is full; the request was shed, not queued.
    Overloaded,
    /// The session has no open workspace (send `open` first).
    NoWorkspace,
    /// The front end rejected the submitted program.
    BuildError,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// A worker failed unexpectedly while processing the request; the
    /// session's workspace was dropped.
    Internal,
}

impl ErrorCode {
    /// The stable wire name of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ProtocolError => "protocol_error",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::NoWorkspace => "no_workspace",
            ErrorCode::BuildError => "build_error",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed serving-layer error: a stable machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServerError {
    /// A new typed error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServerError {
            code,
            message: message.into(),
        }
    }

    /// The canonical no-workspace error.
    pub fn no_workspace() -> Self {
        ServerError::new(
            ErrorCode::NoWorkspace,
            "no workspace open (send `open` first)",
        )
    }

    /// The wire JSON object: `{"code":"...","message":"..."}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"message\":\"{}\"}}",
            self.code.as_str(),
            escape(&self.message)
        )
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

/// One operation against a session.
#[derive(Debug, Clone)]
pub enum Op {
    /// Opens (or replaces) the session's workspace over `source`.
    Open {
        /// Program text.
        source: String,
    },
    /// Applies an edited program incrementally.
    Update {
        /// New program text.
        source: String,
    },
    /// Runs one unified [`Query`] with the workspace's two-layer reuse.
    Query(Query),
    /// Exports the session's `pinpoint-stats-v1` document, including
    /// the `server.*` counter family.
    Stats {
        /// Zero wall-clock values and omit run metadata (byte-stable).
        canonical: bool,
    },
    /// Drops the session's workspace and forgets the session.
    Close,
}

impl Op {
    /// A short stable label of the operation kind, used by the flight
    /// recorder and the per-op rolling latency windows.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Open { .. } => "open",
            Op::Update { .. } => "update",
            Op::Query(Query::Leaks) => "leaks",
            Op::Query(_) => "check",
            Op::Stats { .. } => "stats",
            Op::Close => "close",
        }
    }
}

/// One request: a client-chosen `id` echoed in the reply, the session
/// it belongs to, and the operation.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Session name; requests with the same session execute FIFO.
    pub session: String,
    /// The operation to execute.
    pub op: Op,
}

/// A successful operation's payload.
#[derive(Debug, Clone)]
pub enum Reply {
    /// The workspace was (re)built from source.
    Opened {
        /// Number of functions in the opened module.
        funcs: usize,
    },
    /// The edit was absorbed incrementally.
    Updated {
        /// Functions re-analysed (edited plus transitive callers).
        reanalyzed: usize,
        /// Functions spliced from the previous artefact.
        reused: usize,
        /// `true` when the engine fell back to a full rebuild.
        fell_back: bool,
    },
    /// Value-flow reports (for `Check`/`All`/`Custom` queries).
    Reports {
        /// The rendered JSON array (see
        /// [`reports_json`](crate::export::reports_json)).
        json: String,
        /// Source queries replayed from the workspace cache.
        reused: u64,
        /// Source queries whose search re-ran.
        rerun: u64,
    },
    /// Memory-leak reports (for `Leaks` queries).
    Leaks {
        /// The rendered JSON array (see
        /// [`leaks_json`](crate::export::leaks_json)).
        json: String,
    },
    /// The unified stats document.
    Stats {
        /// The `pinpoint-stats-v1` JSON document.
        json: String,
    },
    /// The live status document. Produced by the *transport* calling
    /// [`Server::status_json`] directly — never by a worker — so it is
    /// deliverable even when the pool is saturated.
    Status {
        /// The `pinpoint-status-v1` JSON document.
        json: String,
    },
    /// The Prometheus text exposition. Like [`Reply::Status`], produced
    /// by the transport without touching the worker pool.
    Metrics {
        /// Prometheus text-format body (multi-line).
        body: String,
    },
    /// The session was closed.
    Closed,
}

/// One response: the echoed id and session plus the typed outcome.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's `id`, verbatim.
    pub id: String,
    /// The request's session, verbatim.
    pub session: String,
    /// The payload or a typed error.
    pub reply: Result<Reply, ServerError>,
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size (clamped to ≥ 1). Each worker executes whole
    /// requests; a session never occupies more than one worker.
    pub workers: usize,
    /// Bound on requests waiting across all sessions; submissions over
    /// it are shed with [`ErrorCode::Overloaded`].
    pub queue_capacity: usize,
    /// Template for each session's workspace (analysis threads, solver
    /// toggles, persistent cache directory — every session loads the
    /// verdict table from it and persists its own back, whole, under the
    /// one key the solver configuration gives).
    pub builder: AnalysisBuilder,
    /// Live-telemetry parameters (flight-recorder capacity, slow-query
    /// threshold, rolling-window geometry).
    pub telemetry: TelemetryConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: crate::driver::default_threads(),
            queue_capacity: 1024,
            builder: AnalysisBuilder::new(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted into the queue (cumulative).
    pub queued: u64,
    /// Requests shed with `overloaded` (cumulative).
    pub shed: u64,
    /// Sessions ever created (cumulative).
    pub sessions: u64,
    /// Requests fully processed (cumulative).
    pub completed: u64,
    /// Sessions currently alive.
    pub sessions_open: u64,
}

/// One session: its workspace (None until a successful `open`) and its
/// private FIFO of waiting requests.
#[derive(Debug, Default)]
struct Session {
    ws: Option<Workspace>,
    queue: VecDeque<(Request, mpsc::Sender<Response>)>,
    /// A worker is currently executing this session's request.
    active: bool,
    /// The session sits in the ready list (invariant: `scheduled` ⇔
    /// present in `State::ready`).
    scheduled: bool,
    /// A processed `close` marked the session for removal once its
    /// queue drains.
    closing: bool,
}

/// Scheduler state under the one server mutex.
#[derive(Debug, Default)]
struct State {
    sessions: HashMap<String, Session>,
    /// Sessions with waiting work and no active worker, FIFO.
    ready: VecDeque<String>,
    /// Requests waiting across all sessions (the backpressure bound).
    pending: usize,
    shutting_down: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    builder: AnalysisBuilder,
    workers: usize,
    queue_capacity: usize,
    queued: AtomicU64,
    shed: AtomicU64,
    sessions_created: AtomicU64,
    completed: AtomicU64,
    telemetry: ServerTelemetry,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A worker that panicked mid-request poisons the mutex; the
        // state itself stays consistent (the panic is caught around
        // `process`, not while the lock is held), so keep serving.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn snapshot(&self) -> ServerStats {
        let open = self.lock().sessions.len() as u64;
        ServerStats {
            queued: self.queued.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            sessions: self.sessions_created.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            sessions_open: open,
        }
    }
}

/// The concurrent multi-session analysis server (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool and returns the handle. Workers idle on a
    /// condition variable until requests arrive.
    pub fn start(config: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            builder: config.builder,
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            queued: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            sessions_created: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            telemetry: ServerTelemetry::new(&config.telemetry),
        });
        let workers = (0..shared.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pinpoint-server-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn server worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Submits one request; never blocks. Returns `true` when the
    /// request was queued; `false` when it was answered immediately
    /// with a typed error (overload shed, unknown session, shutdown).
    /// Either way exactly one [`Response`] is delivered to `reply`.
    pub fn submit(&self, req: Request, reply: &mpsc::Sender<Response>) -> bool {
        let refuse = |req: Request, err: ServerError| {
            let _ = reply.send(Response {
                id: req.id,
                session: req.session,
                reply: Err(err),
            });
            false
        };
        let mut st = self.shared.lock();
        if st.shutting_down {
            drop(st);
            return refuse(
                req,
                ServerError::new(ErrorCode::ShuttingDown, "server is shutting down"),
            );
        }
        if st.pending >= self.shared.queue_capacity {
            let depth = st.pending as u64;
            drop(st);
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            self.shared.telemetry.record(FlightSample {
                session: req.session.clone(),
                request_id: req.id.clone(),
                op: req.op.label().to_string(),
                queue_depth: depth,
                ..FlightSample::of(FlightEventKind::Shed)
            });
            return refuse(
                req,
                ServerError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "request queue is full ({} waiting); retry later",
                        self.shared.queue_capacity
                    ),
                ),
            );
        }
        // Only `open` creates a session: an unknown session cannot hold
        // a workspace, so anything else is answerable right away — and
        // hostile traffic cannot grow the session map.
        if !st.sessions.contains_key(&req.session) {
            if matches!(req.op, Op::Open { .. }) {
                st.sessions.insert(req.session.clone(), Session::default());
                self.shared.sessions_created.fetch_add(1, Ordering::Relaxed);
                self.shared.telemetry.record(FlightSample {
                    session: req.session.clone(),
                    ..FlightSample::of(FlightEventKind::SessionOpen)
                });
            } else {
                drop(st);
                return refuse(req, ServerError::no_workspace());
            }
        }
        let key = req.session.clone();
        st.pending += 1;
        self.shared.queued.fetch_add(1, Ordering::Relaxed);
        self.shared.telemetry.record(FlightSample {
            session: req.session.clone(),
            request_id: req.id.clone(),
            op: req.op.label().to_string(),
            queue_depth: st.pending as u64,
            ..FlightSample::of(FlightEventKind::Accepted)
        });
        let sess = st.sessions.get_mut(&key).expect("session just ensured");
        sess.queue.push_back((req, reply.clone()));
        if !sess.active && !sess.scheduled {
            sess.scheduled = true;
            st.ready.push_back(key);
            self.shared.wake.notify_one();
        }
        true
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.snapshot()
    }

    /// The configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// The configured backpressure bound.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// The live-telemetry hub (flight recorder, rolling latencies).
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.shared.telemetry
    }

    /// The `pinpoint-status-v1` document: uptime, pool/queue occupancy,
    /// per-session queue depths, rolling latencies, and the newest
    /// `tail` flight events. Built from the scheduler mutex and the
    /// telemetry hub only — **never** the worker pool — so it answers
    /// even when every worker is busy and the queue is saturated.
    /// `canonical` zeroes wall-clock values for byte-stable output.
    pub fn status_json(&self, tail: usize, canonical: bool) -> String {
        let (queue_depth, shutting_down, sessions) = {
            let st = self.shared.lock();
            let mut rows = Vec::with_capacity(st.sessions.len());
            let mut names: Vec<&String> = st.sessions.keys().collect();
            names.sort();
            for name in names {
                let sess = &st.sessions[name];
                let mut o = Obj::new();
                o.str("name", name)
                    .u64("queue_depth", sess.queue.len() as u64)
                    .raw("active", if sess.active { "true" } else { "false" })
                    .raw(
                        "has_workspace",
                        if sess.ws.is_some() { "true" } else { "false" },
                    );
                rows.push(o.finish());
            }
            (st.pending as u64, st.shutting_down, rows)
        };
        let s = self.shared.snapshot();
        let t = &self.shared.telemetry;
        let mut counters = Obj::new();
        counters
            .u64("queued", s.queued)
            .u64("shed", s.shed)
            .u64("sessions", s.sessions)
            .u64("completed", s.completed);
        let mut sess_arr = Arr::new();
        for row in &sessions {
            sess_arr.raw(row);
        }
        let mut o = Obj::new();
        o.str("schema", "pinpoint-status-v1")
            .str("protocol", PROTOCOL)
            .u64("uptime_ns", if canonical { 0 } else { t.now_ns() })
            .u64("workers", self.shared.workers as u64)
            .u64("queue_capacity", self.shared.queue_capacity as u64)
            .u64("queue_depth", queue_depth)
            .u64("sessions_open", s.sessions_open)
            .raw(
                "shutting_down",
                if shutting_down { "true" } else { "false" },
            )
            .raw("counters", &counters.finish())
            .raw("sessions", &sess_arr.finish())
            .raw("rolling", &t.rolling_json(canonical))
            .raw("flight", &t.flight_json(tail, canonical));
        o.finish()
    }

    /// The server's metrics registry: `server.*` cumulative counters,
    /// point-in-time gauges, and the cumulative latency histograms the
    /// telemetry hub accumulated. Like [`Server::status_json`] this
    /// never touches the worker pool.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let (queue_depth, sessions_open) = {
            let st = self.shared.lock();
            (st.pending as u64, st.sessions.len() as u64)
        };
        let s = self.shared.snapshot();
        let mut m = MetricsRegistry::new();
        m.counter_add("server.queued", s.queued);
        m.counter_add("server.shed", s.shed);
        m.counter_add("server.sessions", s.sessions);
        m.counter_add("server.completed", s.completed);
        m.gauge_set("server.workers", self.shared.workers as u64);
        m.gauge_set("server.queue_depth", queue_depth);
        m.gauge_set("server.queue_capacity", self.shared.queue_capacity as u64);
        m.gauge_set("server.sessions_open", sessions_open);
        self.shared.telemetry.fold_latency_into(&mut m);
        m
    }

    /// The Prometheus text exposition of [`Server::metrics_registry`].
    pub fn prometheus(&self) -> String {
        prometheus_text(&self.metrics_registry())
    }

    /// Graceful shutdown: already-queued requests are drained, new
    /// submissions are refused with [`ErrorCode::ShuttingDown`], and
    /// the worker pool is joined.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutting_down = true;
        }
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Claim the next ready session's front request.
        let (key, req, reply_tx, depth) = {
            let mut st = shared.lock();
            loop {
                if let Some(key) = st.ready.pop_front() {
                    let sess = st.sessions.get_mut(&key).expect("ready session exists");
                    sess.scheduled = false;
                    sess.active = true;
                    let (req, tx) = sess.queue.pop_front().expect("scheduled session has work");
                    st.pending -= 1;
                    break (key, req, tx, st.pending as u64);
                }
                if st.shutting_down {
                    return;
                }
                st = shared
                    .wake
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Execute outside the lock: take the workspace out so other
        // sessions' workers never contend on it.
        let mut ws = {
            let mut st = shared.lock();
            st.sessions
                .get_mut(&key)
                .expect("active session exists")
                .ws
                .take()
        };
        let closing = matches!(req.op, Op::Close);
        let op_label = req.op.label();
        // Snapshot the attribution cursor so a slow request can capture
        // exactly its own solver work afterwards.
        let queries_before = ws.as_ref().map_or(0, |w| w.queries().len());
        shared.telemetry.record(FlightSample {
            session: req.session.clone(),
            request_id: req.id.clone(),
            op: op_label.to_string(),
            queue_depth: depth,
            ..FlightSample::of(FlightEventKind::Started)
        });
        let t0 = shared.telemetry.now_ns();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process(&req.op, &mut ws, shared)
        }));
        let duration_ns = shared.telemetry.now_ns().saturating_sub(t0);
        let panicked = outcome.is_err();
        let reply = match outcome {
            Ok(r) => r,
            Err(_) => {
                // The workspace may be mid-mutation: drop it rather
                // than serve from a possibly-inconsistent artefact.
                ws = None;
                Err(ServerError::new(
                    ErrorCode::Internal,
                    "worker panicked while processing the request; the session's workspace was dropped",
                ))
            }
        };
        // Count completion before delivering, so a client that has its
        // reply in hand never reads a `completed` that excludes it.
        shared.completed.fetch_add(1, Ordering::Relaxed);
        // Record telemetry before delivering too: a synchronous client
        // that acts on the reply must find its request's terminal event
        // already in the flight tail.
        let depth_now = shared.lock().pending as u64;
        let terminal = FlightSample {
            session: req.session.clone(),
            request_id: req.id.clone(),
            op: op_label.to_string(),
            queue_depth: depth_now,
            duration_ns,
            ..FlightSample::default()
        };
        if panicked {
            shared.telemetry.record(FlightSample {
                kind: Some(FlightEventKind::WorkerPanic),
                ..terminal.clone()
            });
        } else {
            if duration_ns >= shared.telemetry.slow_query_ns() {
                let detail = ws
                    .as_ref()
                    .map(|w| queries_json(w.queries_since(queries_before), true))
                    .unwrap_or_default();
                shared.telemetry.record(FlightSample {
                    kind: Some(FlightEventKind::SlowQuery),
                    detail,
                    ..terminal.clone()
                });
            }
            shared
                .telemetry
                .observe_latency(op_label, &req.session, duration_ns);
            shared.telemetry.record(FlightSample {
                kind: Some(FlightEventKind::Completed),
                ..terminal
            });
        }
        // Deliver before releasing the session: the next request of
        // this session must not produce its response first.
        let _ = reply_tx.send(Response {
            id: req.id,
            session: req.session,
            reply,
        });
        let mut st = shared.lock();
        let remove = {
            let sess = st.sessions.get_mut(&key).expect("active session exists");
            sess.ws = ws;
            sess.active = false;
            if closing {
                sess.closing = true;
            }
            if !sess.queue.is_empty() {
                sess.scheduled = true;
                false
            } else {
                sess.closing
            }
        };
        if remove {
            st.sessions.remove(&key);
            shared.telemetry.record(FlightSample {
                session: key.clone(),
                ..FlightSample::of(FlightEventKind::SessionClose)
            });
        } else if st.sessions[&key].scheduled {
            st.ready.push_back(key);
            shared.wake.notify_one();
        }
    }
}

/// Executes one operation against a session's workspace slot.
fn process(op: &Op, ws: &mut Option<Workspace>, shared: &Shared) -> Result<Reply, ServerError> {
    match op {
        Op::Open { source } => {
            let w = shared
                .builder
                .clone()
                .open_workspace(source)
                .map_err(|e| ServerError::new(ErrorCode::BuildError, e.to_string()))?;
            let funcs = w.analysis().module.funcs.len();
            *ws = Some(w);
            Ok(Reply::Opened { funcs })
        }
        Op::Update { source } => {
            let w = ws.as_mut().ok_or_else(ServerError::no_workspace)?;
            let o = w
                .update_source(source)
                .map_err(|e| ServerError::new(ErrorCode::BuildError, e.to_string()))?;
            Ok(Reply::Updated {
                reanalyzed: o.reanalyzed,
                reused: o.reused,
                fell_back: o.fell_back,
            })
        }
        Op::Query(q) => {
            let w = ws.as_mut().ok_or_else(ServerError::no_workspace)?;
            let before = w.counters();
            let response = w.query(q);
            let after = w.counters();
            match response {
                QueryResponse::Reports(r) => Ok(Reply::Reports {
                    json: reports_json(&w.analysis().module, &r),
                    reused: after.queries_reused - before.queries_reused,
                    rerun: after.queries_rerun - before.queries_rerun,
                }),
                QueryResponse::Leaks(l) => Ok(Reply::Leaks {
                    json: leaks_json(&w.analysis().module, &l),
                }),
            }
        }
        Op::Stats { canonical } => {
            let w = ws.as_ref().ok_or_else(ServerError::no_workspace)?;
            let mut m = w.metrics();
            let s = shared.snapshot();
            m.counter_add("server.queued", s.queued);
            m.counter_add("server.shed", s.shed);
            m.counter_add("server.sessions", s.sessions);
            m.counter_add("server.completed", s.completed);
            // Point-in-time values are gauges, not counters: a counter
            // would inflate on every repeated stats snapshot.
            m.gauge_set("server.workers", shared.workers as u64);
            m.gauge_set("server.sessions_open", s.sessions_open);
            let json = m.stats_json(
                &[
                    ("threads", w.analysis().threads() as u64),
                    ("workers", shared.workers as u64),
                ],
                Some(&queries_json(w.queries(), *canonical)),
                *canonical,
            );
            Ok(Reply::Stats { json })
        }
        Op::Close => {
            *ws = None;
            Ok(Reply::Closed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CheckerKind;

    const UAF: &str = "fn main() {
        let p: int* = malloc();
        free(p);
        let x: int = *p;
        print(x);
        return;
    }";

    fn req(id: &str, session: &str, op: Op) -> Request {
        Request {
            id: id.into(),
            session: session.into(),
            op,
        }
    }

    #[test]
    fn open_check_close_roundtrip() {
        let mut server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        server.submit(req("a", "s", Op::Open { source: UAF.into() }), &tx);
        server.submit(
            req("b", "s", Op::Query(Query::Check(CheckerKind::UseAfterFree))),
            &tx,
        );
        server.submit(req("c", "s", Op::Stats { canonical: true }), &tx);
        server.submit(req("d", "s", Op::Close), &tx);
        let responses: Vec<Response> = (0..4).map(|_| rx.recv().unwrap()).collect();
        // FIFO: responses arrive in submission order for one session.
        let ids: Vec<&str> = responses.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "c", "d"]);
        assert!(matches!(responses[0].reply, Ok(Reply::Opened { funcs: 1 })));
        match &responses[1].reply {
            Ok(Reply::Reports { json, rerun, .. }) => {
                assert!(json.contains("use-after-free"), "{json}");
                assert!(*rerun > 0);
            }
            other => panic!("expected reports: {other:?}"),
        }
        match &responses[2].reply {
            Ok(Reply::Stats { json }) => {
                assert!(json.contains("\"server\":{"), "{json}");
                assert!(json.contains("\"queued\""), "{json}");
                assert!(json.contains("\"shed\""), "{json}");
                assert!(json.contains("\"sessions\""), "{json}");
            }
            other => panic!("expected stats: {other:?}"),
        }
        assert!(matches!(responses[3].reply, Ok(Reply::Closed)));
        // A worker delivers its reply before it releases the session, so
        // `sessions_open` is only final once the pool has been joined.
        server.shutdown_in_place();
        let stats = server.stats();
        assert_eq!(stats.queued, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.sessions_open, 0, "close removes the session");
    }

    #[test]
    fn unknown_session_and_build_errors_are_typed() {
        let server = Server::start(ServerConfig::default());
        let (tx, rx) = mpsc::channel();
        let queued = server.submit(req("x", "ghost", Op::Query(Query::All)), &tx);
        assert!(!queued);
        let r = rx.recv().unwrap();
        assert_eq!(r.reply.unwrap_err().code, ErrorCode::NoWorkspace);
        server.submit(
            req(
                "y",
                "s",
                Op::Open {
                    source: "fn main( {".into(),
                },
            ),
            &tx,
        );
        let r = rx.recv().unwrap();
        assert_eq!(r.reply.unwrap_err().code, ErrorCode::BuildError);
        // The failed open still created the session; a later open heals it.
        server.submit(req("z", "s", Op::Open { source: UAF.into() }), &tx);
        assert!(matches!(rx.recv().unwrap().reply, Ok(Reply::Opened { .. })));
        server.shutdown();
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        // One worker, tiny queue: the first request occupies the worker
        // long enough for the rest to pile past capacity.
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let big = pinpoint_workload_stub();
        server.submit(req("open", "s", Op::Open { source: big }), &tx);
        let mut shed = 0;
        for i in 0..8 {
            if !server.submit(req(&format!("q{i}"), "s", Op::Query(Query::All)), &tx) {
                shed += 1;
            }
        }
        assert!(shed > 0, "8 submissions over a 2-slot queue must shed");
        assert_eq!(server.stats().shed, shed);
        let mut overloaded = 0;
        for _ in 0..9 {
            let r = rx.recv().unwrap();
            if let Err(e) = &r.reply {
                assert_eq!(e.code, ErrorCode::Overloaded, "{e}");
                assert!(e.message.contains("queue is full"), "{e}");
                overloaded += 1;
            }
        }
        assert_eq!(overloaded, shed);
        server.shutdown();
    }

    /// A program big enough that opening it takes a worker visibly
    /// longer than eight immediate submissions.
    fn pinpoint_workload_stub() -> String {
        let mut src = String::new();
        for i in 0..120 {
            src.push_str(&format!(
                "fn f{i}(c: bool) {{
                    let p: int* = malloc();
                    if (c) {{ free(p); }}
                    let x: int = *p;
                    print(x);
                    return;
                }}\n"
            ));
        }
        src
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for s in ["a", "b", "c"] {
            server.submit(req("open", s, Op::Open { source: UAF.into() }), &tx);
            server.submit(req("check", s, Op::Query(Query::All)), &tx);
        }
        server.shutdown();
        drop(tx);
        let responses: Vec<Response> = rx.iter().collect();
        assert_eq!(responses.len(), 6, "graceful shutdown answers everything");
        assert!(responses.iter().all(|r| r.reply.is_ok()));
    }
}
