//! `serve_edit`: two editor clients against one `pinpoint serve --listen`
//! process, closed loop — a client sends its next request only after the
//! previous reply. An operation is one round: an `update` with a
//! one-function edit, then a `check` of every checker, timed from writing
//! the `update` frame to reading the `check` reply. The server has one
//! worker, so a round includes the wait for the other client's request.
//! A run is several such sessions, each with a server of its own.

use crate::inputs::{self, EditScript, InputId};
use crate::proc::{self, Exit};
use crate::run::{io_err, ms, write_file, E2e, Window, CHILD_LIMIT};
use crate::{dir_bytes, median, oracle, Ctx, Outcome, SERVE_CLIENTS, SERVE_THREADS, SERVE_WORKERS};
use pinpoint::obs::json::escape;
use pinpoint::workload::Generated;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A run is at least this many sessions of the server, one after the
/// other. Each is set up from nothing (a set-up sample, and a first result
/// per client) and serves the same rounds over the same edits, so that a
/// round has one sample per session.
const MIN_SESSIONS: usize = 8;

/// Timed rounds per client and session: two clients' ten rounds are twenty
/// samples, enough for a session's 90th percentile.
const ROUNDS: usize = 10;

/// A running `pinpoint serve --listen` child.
pub struct Server {
    /// `None` once [`Server::shutdown`] has taken it to reap.
    child: Option<Child>,
    started: Instant,
    socket: PathBuf,
}

impl Drop for Server {
    /// A run that fails half-way must not leave the server behind.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Server {
    pub fn start(ctx: &Ctx) -> Result<Server, String> {
        let socket = ctx.work.join("serve.sock");
        let started = Instant::now();
        let child = Command::new(&ctx.pinpoint)
            .arg("serve")
            .arg("--listen")
            .arg(&socket)
            .args(["--workers", &SERVE_WORKERS.to_string()])
            .args(["--threads", &SERVE_THREADS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(io_err("run", &ctx.pinpoint))?;
        Ok(Server {
            child: Some(child),
            started,
            socket,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server is running").id()
    }

    /// Connects a client, waiting for the server to start listening.
    pub fn connect(&self, session: &str) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => break stream,
                Err(e) if Instant::now() >= deadline => {
                    return Err(io_err("connect to", &self.socket)(e));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        // A reply that never comes must fail the operation, not hang the run.
        stream
            .set_read_timeout(Some(CHILD_LIMIT))
            .map_err(io_err("configure", &self.socket))?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone().map_err(io_err("clone", &self.socket))?),
            writer: stream,
            session: session.to_string(),
            requests: 0,
            bytes: 0,
        };
        client.request("hello", ",\"proto\":\"pinpoint-rpc-v2\"", "hello")?;
        Ok(client)
    }

    /// Asks the server to stop through `client` and reaps it.
    pub fn shutdown(mut self, mut client: Client) -> Result<Exit, String> {
        client.request("shutdown", "", "bye").ok();
        drop(client);
        let child = self.child.take().expect("server is running");
        proc::reap(child, self.started, Duration::from_secs(10))
            .map_err(io_err("wait for", &self.socket))
    }
}

/// One connection with one session, speaking `pinpoint-rpc-v2`.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    session: String,
    requests: u64,
    /// Bytes written and read so far.
    pub bytes: u64,
}

impl Client {
    /// Sends one request frame (`fields` is empty or `,"key":"value"…`) and
    /// reads its reply, which must be `ok` and carry `event`.
    fn request(&mut self, cmd: &str, fields: &str, event: &str) -> Result<String, String> {
        self.requests += 1;
        let frame = format!(
            "{{\"cmd\":\"{cmd}\",\"id\":\"{}\",\"session\":\"{}\"{fields}}}\n",
            self.requests, self.session
        );
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("{cmd}: cannot write frame: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => return Err(format!("{cmd}: connection closed before the reply")),
            Ok(_) => {}
            Err(e) => return Err(format!("{cmd}: no reply: {e}")),
        }
        self.bytes += (frame.len() + reply.len()) as u64;
        if reply.starts_with("{\"ok\":true") && reply.contains(&format!("\"event\":\"{event}\"")) {
            Ok(reply)
        } else {
            let shown: String = reply.chars().take(200).collect();
            Err(format!("{cmd}: unexpected reply {shown}"))
        }
    }

    pub fn open(&mut self, path: &Path) -> Result<String, String> {
        let field = format!(",\"path\":\"{}\"", escape(&path.display().to_string()));
        self.request("open", &field, "opened")
    }

    /// Runs every checker; the reply embeds the report array.
    pub fn check(&mut self) -> Result<String, String> {
        self.request("check", "", "reports")
    }

    /// One timed round over the next edit of `script`.
    pub fn round(&mut self, script: &mut EditScript, round: usize, project: &Generated) -> Round {
        // Every fifth edit lands in a defect's driver; those rounds re-run
        // queries and set the tail.
        let source = escape(script.edit(round % 5 == 4));
        let field = format!(",\"source\":\"{source}\"");
        let start = Instant::now();
        let replies = self
            .request("update", &field, "updated")
            .and_then(|_| self.check());
        Round {
            started: start,
            wall: start.elapsed(),
            verdict: replies.and_then(|reports| oracle::check_markers(&reports, &project.bugs)),
        }
    }
}

/// One `update` + `check` of one client.
pub struct Round {
    /// The `update` frame is about to be written.
    pub started: Instant,
    /// Until the `check` reply was read.
    pub wall: Duration,
    /// Whether both replies were right.
    pub verdict: Result<(), String>,
}

/// The clients' projects, written where the server can `open` them.
pub fn write_projects(ctx: &Ctx, clients: usize) -> Result<Vec<(Generated, PathBuf)>, String> {
    (0..clients)
        .map(|c| {
            let project = inputs::project(
                inputs::derive_seed(ctx.seed, 10 + c as u64),
                ctx.sizes().serve_kloc,
            );
            let path = ctx.work.join(format!("project{c}.pp"));
            write_file(&path, &project.source)?;
            Ok((project, path))
        })
        .collect()
}

struct Ready {
    server: Server,
    clients: Vec<Client>,
    projects: Vec<(Generated, PathBuf)>,
    /// `open` frame written → first `check` reply read, per client: when
    /// and how long.
    first_result: Vec<(Instant, Duration)>,
}

/// Set-up: generate the projects, start the server, and bring each
/// client to a checked, warm session.
fn ready(ctx: &Ctx) -> Result<Ready, String> {
    let projects = write_projects(ctx, SERVE_CLIENTS)?;
    let server = Server::start(ctx)?;
    let mut clients = Vec::new();
    let mut first_result = Vec::new();
    for (c, (project, path)) in projects.iter().enumerate() {
        let mut client = server.connect(&format!("editor{c}"))?;
        let start = Instant::now();
        client.open(path)?;
        let reports = client.check()?;
        first_result.push((start, start.elapsed()));
        oracle::check_markers(&reports, &project.bugs)?;
        clients.push(client);
    }
    Ok(Ready {
        server,
        clients,
        projects,
        first_result,
    })
}

/// What one session's timed phase measured.
struct Session {
    /// Each client's rounds.
    rounds: Vec<Vec<Round>>,
    started: Instant,
    wall: Duration,
    /// The server's CPU; it cannot be split by round.
    cpu: Duration,
}

impl Ready {
    /// The timed phase of one session: every client sends [`ROUNDS`] rounds
    /// from its own thread.
    fn serve(&mut self, ctx: &Ctx) -> Result<Session, String> {
        let pid = self.server.pid();
        let server_cpu = || proc::cpu_so_far(pid).map_err(|e| format!("server cpu: {e}"));
        let cpu_before = server_cpu()?;
        let start = Instant::now();
        let rounds = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.projects)
                .enumerate()
                .map(|(c, (client, (project, _)))| {
                    scope.spawn(move || {
                        crate::speed::pin_beside_program();
                        let mut script =
                            EditScript::new(project, inputs::derive_seed(ctx.seed, 20 + c as u64));
                        (0..ROUNDS)
                            .map(|round| client.round(&mut script, round, project))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .collect()
        });
        Ok(Session {
            rounds,
            started: start,
            wall: start.elapsed(),
            cpu: server_cpu()? - cpu_before,
        })
    }

    /// Hangs up every client, stops the server through the last one and
    /// reaps it.
    fn stop(mut self) -> Result<Exit, String> {
        let last = self.clients.pop().expect("there are clients");
        drop(self.clients);
        self.server.shutdown(last)
    }
}

pub fn serve_edit(ctx: &Ctx) -> Result<Outcome, String> {
    let mut e2e = E2e::start();
    // Per round (client by client), its wall time in every session; per
    // session, the wall time and the server's CPU of the timed phase.
    let mut round_ms: Vec<Vec<f64>> = vec![Vec::new(); SERVE_CLIENTS * ROUNDS];
    let mut wall_ms = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut peak_rss_kib = Vec::new();
    let mut spent = Duration::ZERO;
    while wall_ms.len() < MIN_SESSIONS || spent.as_secs_f64() < ctx.seconds {
        let start = Instant::now();
        let mut ready = ready(ctx)?;
        let wall = start.elapsed();
        e2e.setup_s
            .push(wall.as_secs_f64() * e2e.speed.factor(start, wall));
        for (started, wall) in ready.first_result.iter().copied() {
            e2e.first_result_ms
                .push(ms(wall) * e2e.speed.factor(started, wall));
        }
        if wall_ms.is_empty() {
            let ids: Vec<InputId> = ready
                .projects
                .iter()
                .enumerate()
                .map(|(c, (project, _))| InputId::of(format!("project{c}"), &project.source))
                .collect();
            inputs::check_pins("serve_edit", &ids, ctx.pinned())?;
            e2e.disk_bytes = dir_bytes(&ctx.work);
        }
        let session = ready.serve(ctx)?;
        spent += session.wall;
        for (of_round, round) in round_ms
            .iter_mut()
            .zip(session.rounds.into_iter().flatten())
        {
            of_round.push(ms(round.wall) * e2e.speed.factor(round.started, round.wall));
            if let Err(why) = round.verdict {
                e2e.fail(why);
            }
        }
        let factor = e2e.speed.factor(session.started, session.wall);
        wall_ms.push(ms(session.wall) * factor);
        cpu_ms.push(ms(session.cpu) * factor);
        let exit = ready.stop()?;
        peak_rss_kib.push(exit.max_rss_kib as f64);
        if exit.code != Some(0) {
            e2e.wrong
                .get_or_insert(format!("server ended with {:?}", exit.code));
        }
    }
    // On some inputs one server in ten or so ends 5 MiB above the others:
    // the largest of eight would mostly be one of those, the median says
    // what a session needs.
    e2e.peak_rss_kib = median(&peak_rss_kib) as u64;
    // A session takes two seconds and a slow spell of the core can last
    // longer, so whole sessions are slow together; but every session did
    // the same work. So the samples are dealt into sessions again by rank:
    // window k is every round's k-th fastest sample, with the k-th shortest
    // timed phase and the k-th smallest CPU, and the window at the quiet
    // quartile is made of each round's quiet-quartile sample.
    for samples in round_ms.iter_mut().chain([&mut wall_ms, &mut cpu_ms]) {
        samples.sort_by(f64::total_cmp);
    }
    e2e.windows = (0..wall_ms.len())
        .map(|k| Window {
            op_ms: round_ms.iter().map(|of_round| of_round[k]).collect(),
            cpu_ms: cpu_ms[k],
            wall_ms: wall_ms[k],
        })
        .collect();
    Ok(e2e.outcome())
}
