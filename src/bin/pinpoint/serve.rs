//! The `pinpoint serve` transports.
//!
//! Both transports — newline-delimited JSON on stdio and, with
//! `--listen PATH`, a Unix-domain socket — are thin codecs over the
//! same dispatch core, [`pinpoint::Server`]: they parse request lines
//! into typed [`Request`]s, submit them, and render [`Response`]s back
//! to one line each.
//!
//! The protocol is **`pinpoint-rpc-v2`**. A connection opens with
//! `{"cmd":"hello",...}`; any other frame before it is refused. After
//! that every request carries a client-chosen `id` (echoed in its reply)
//! and a `session` name (requests of one session execute FIFO; sessions
//! run concurrently on the server's worker pool). Errors are typed
//! objects: `{"ok":false,"id":..,"session":..,"error":{"code":..,
//! "message":..}}`. When a connection ends, however it ends, the
//! sessions it opened are closed.
//!
//! Malformed and oversized (> 1 MiB) request lines never kill a
//! connection, before `hello` or after: they get a `protocol_error`
//! reply and the stream resynchronizes at the next newline.

use crate::flags::{self, Common, CommonFlags};
use crate::jsonl::{parse_json_object, read_frame, Frame, MAX_SERVE_LINE};
use pinpoint::core::server::PROTOCOL;
use pinpoint::obs::json::escape;
use pinpoint::{
    CheckerKind, ErrorCode, Op, Query, Reply, Request, Response, Server, ServerConfig, ServerError,
};
use std::collections::BTreeSet;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Capabilities advertised by the `hello` reply: the command set.
/// `status` and `metrics` are answered by the transport itself — never
/// a worker — so they work even on a saturated pool.
const CAPABILITIES: [&str; 10] = [
    "open", "update", "check", "leaks", "stats", "status", "metrics", "close", "quit", "shutdown",
];

/// `pinpoint serve [--threads N] [--no-solve] [--cache-dir DIR]
/// [--workers N] [--queue-cap N] [--listen PATH] [--slow-ms N]
/// [--flight-cap N]`.
pub fn serve(args: &[String]) -> Result<bool, String> {
    let mut rest = args.to_vec();
    let common = CommonFlags::extract(
        &mut rest,
        &[Common::Threads, Common::NoSolve, Common::CacheDir],
    )?;
    let workers = flags::take_parsed::<usize>(&mut rest, "--workers")?;
    let queue_cap = flags::take_parsed::<usize>(&mut rest, "--queue-cap")?;
    let listen = flags::take_value(&mut rest, "--listen")?;
    let slow_ms = flags::take_parsed::<u64>(&mut rest, "--slow-ms")?;
    let flight_cap = flags::take_parsed::<usize>(&mut rest, "--flight-cap")?;
    flags::reject_unknown(&rest)?;
    let mut config = ServerConfig {
        builder: common.builder(),
        ..ServerConfig::default()
    };
    if let Some(n) = workers {
        if n == 0 {
            return Err("--workers must be at least 1".to_string());
        }
        config.workers = n;
    }
    if let Some(n) = queue_cap {
        if n == 0 {
            return Err("--queue-cap must be at least 1".to_string());
        }
        config.queue_capacity = n;
    }
    if let Some(ms) = slow_ms {
        // --slow-ms 0 marks every request slow (handy to force coverage).
        config.telemetry.slow_query_ns = ms.saturating_mul(1_000_000);
    }
    if let Some(cap) = flight_cap {
        config.telemetry.flight_capacity = cap;
    }
    let server = Arc::new(Server::start(config));
    match listen {
        Some(path) => listen_unix(&server, &path)?,
        None => {
            let stdin = std::io::stdin();
            let _ = serve_connection(
                &server,
                "stdio".to_string(),
                stdin.lock(),
                std::io::stdout(),
            )?;
        }
    }
    // Dropping the last handle drains queued requests and joins the pool.
    drop(server);
    Ok(false)
}

/// How a connection ended.
#[derive(Debug, PartialEq, Eq)]
enum LoopEnd {
    /// `quit` (or end of input): only this connection ends.
    Quit,
    /// `shutdown`: the whole server should stop accepting.
    Shutdown,
}

/// Accept loop for `--listen PATH`: one thread per connection, all
/// multiplexed onto the shared server. Sessions are namespaced per
/// connection, so two clients' `"main"` sessions never collide. A
/// `shutdown` request stops the accept loop; connections still open at
/// that point are severed when the process exits.
fn listen_unix(server: &Arc<Server>, path: &str) -> Result<(), String> {
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::{UnixListener, UnixStream};
    // A previous run's socket file would make bind fail. Only that is
    // unlinked: a socket nobody answers on — never some other file, never
    // a live server's address.
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        if !meta.file_type().is_socket() {
            return Err(format!(
                "cannot listen on `{path}`: it exists and is not a socket"
            ));
        }
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(format!(
                    "cannot listen on `{path}`: a server is already listening there"
                ))
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                let _ = std::fs::remove_file(path);
            }
            Err(e) => return Err(format!("cannot listen on `{path}`: {e}")),
        }
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("cannot listen on `{path}`: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure `{path}`: {e}"))?;
    eprintln!("pinpoint serve: listening on {path} ({PROTOCOL})");
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_conn = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                next_conn += 1;
                let prefix = format!("c{next_conn}");
                let server = Arc::clone(server);
                let stop = Arc::clone(&stop);
                let handle = std::thread::spawn(move || {
                    let Ok(write_half) = stream.try_clone() else {
                        return;
                    };
                    let input = std::io::BufReader::new(stream);
                    match serve_connection(&server, prefix, input, write_half) {
                        Ok(LoopEnd::Shutdown) => stop.store(true, Ordering::Relaxed),
                        Ok(LoopEnd::Quit) | Err(_) => {}
                    }
                });
                conns.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => return Err(format!("accept on `{path}` failed: {e}")),
        }
        conns.retain(|h| !h.is_finished());
    }
    let _ = std::fs::remove_file(path);
    // Join connections that already drained; leave stuck ones behind —
    // the process is about to exit anyway.
    for h in conns {
        if h.is_finished() {
            let _ = h.join();
        }
    }
    Ok(())
}

/// Serves one connection. `prefix` namespaces this connection's sessions
/// inside the shared server. Until a `hello` arrives every other frame is
/// refused; when the connection ends — end of input, `quit`, `shutdown`,
/// a read error — every session it opened is closed.
fn serve_connection<R, W>(
    server: &Arc<Server>,
    prefix: String,
    mut input: R,
    out: W,
) -> Result<LoopEnd, String>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    // One writer thread renders every response — computed replies from
    // the server's workers and protocol errors from this reader — so
    // output lines never interleave. Before `hello` nothing is in flight
    // and the reader answers directly.
    let out = Arc::new(Mutex::new(out));
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = {
        let (out, prefix) = (Arc::clone(&out), prefix.clone());
        std::thread::spawn(move || {
            for resp in rx {
                write_line(&out, &render(&resp, &prefix));
            }
        })
    };

    let mut greeted = false;
    // Sessions this connection sent an `open` for (only `open` creates one)
    // and no accepted `close` since.
    let mut opened: BTreeSet<String> = BTreeSet::new();
    let mut bye_id = None;
    let end = loop {
        let line = match read_frame(&mut input, MAX_SERVE_LINE) {
            Err(e) => break Err(e),
            Ok(Frame::Eof) => break Ok(LoopEnd::Quit),
            Ok(Frame::Oversized) => Err(format!("request line exceeds {MAX_SERVE_LINE} bytes")),
            Ok(Frame::Line(bytes)) => {
                String::from_utf8(bytes).map_err(|_| "request is not valid UTF-8".to_string())
            }
        };
        if line.as_ref().is_ok_and(|l| l.trim().is_empty()) {
            continue;
        }
        if !greeted {
            let fields = line
                .ok()
                .and_then(|l| parse_json_object(&l).ok())
                .unwrap_or_default();
            let id = field(&fields, "id").unwrap_or_default();
            let refuse = |msg: &str| {
                let session = field(&fields, "session").unwrap_or_default();
                let refusal = protocol_error(&prefix, id, session, msg);
                write_line(&out, &render(&refusal, &prefix));
            };
            if field(&fields, "cmd") != Some("hello") {
                refuse("expected `hello` as the first request of a connection");
                continue;
            }
            if let Some(proto) = field(&fields, "proto").filter(|p| *p != PROTOCOL) {
                // Version negotiation failed: say what we speak and end
                // the connection so the client can reconnect with that.
                refuse(&format!(
                    "unsupported protocol `{proto}` (this server speaks {PROTOCOL})"
                ));
                break Ok(LoopEnd::Quit);
            }
            write_line(&out, &hello_line(server, id));
            greeted = true;
            continue;
        }
        let stop = match line {
            Ok(line) => request_line(server, &prefix, &line, &tx, &mut opened),
            Err(msg) => {
                let _ = tx.send(protocol_error(&prefix, "", "", &msg));
                None
            }
        };
        if let Some((end, id)) = stop {
            bye_id = Some(id);
            break Ok(end);
        }
    };
    // Hang up. Sessions are FIFO, so each `close` runs after the
    // connection's in-flight requests; once those drop their channel
    // clones the writer sees the channel close and exits, and `bye` is
    // the last line.
    close_sessions(server, &opened);
    drop(tx);
    let _ = writer.join();
    if let Some(id) = bye_id {
        write_line(
            &out,
            &format!(
                "{{\"ok\":true,\"id\":\"{}\",\"event\":\"bye\"}}",
                escape(&id)
            ),
        );
    }
    end
}

/// Writes one reply line. Write errors are ignored: a client that stopped
/// reading still has its requests drained and its sessions closed.
fn write_line<W: Write>(out: &Mutex<W>, line: &str) {
    let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// The reply to an accepted `hello`.
fn hello_line(server: &Server, id: &str) -> String {
    let caps: Vec<String> = CAPABILITIES.iter().map(|c| format!("\"{c}\"")).collect();
    format!(
        "{{\"ok\":true,\"id\":\"{}\",\"event\":\"hello\",\"proto\":\"{PROTOCOL}\",\"capabilities\":[{}],\"max_line_bytes\":{MAX_SERVE_LINE},\"workers\":{},\"queue_capacity\":{}}}",
        escape(id),
        caps.join(","),
        server.workers(),
        server.queue_capacity()
    )
}

/// Closes every session of an ended connection so a client that vanished
/// without `close` leaks nothing. Replies are discarded, except that a
/// `close` shed by a full queue is retried until it is accepted.
fn close_sessions(server: &Server, sessions: &BTreeSet<String>) {
    let (tx, rx) = mpsc::channel();
    for session in sessions {
        loop {
            let close = Request {
                id: String::new(),
                session: session.clone(),
                op: Op::Close,
            };
            server.submit(close, &tx);
            match rx.recv() {
                Ok(Response { reply: Err(e), .. }) if e.code == ErrorCode::Overloaded => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                _ => break,
            }
        }
    }
}

fn field<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, v)| v.as_str())
}

/// Resolves `source`/`path` into program text.
fn load_source(fields: &[(String, String)]) -> Result<String, String> {
    if let Some(s) = field(fields, "source") {
        Ok(s.to_string())
    } else if let Some(p) = field(fields, "path") {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read `{p}`: {e}"))
    } else {
        Err("open/update needs \"source\" or \"path\"".to_string())
    }
}

/// Parses the optional `checker` field into a [`Query`].
fn parse_query(fields: &[(String, String)]) -> Result<Query, String> {
    match field(fields, "checker") {
        Some(name) => CheckerKind::parse(name)
            .map(Query::Check)
            .ok_or_else(|| format!("unknown checker `{name}`")),
        None => Ok(Query::All),
    }
}

/// Keys a request may carry; anything else is rejected so a typo like
/// `sorce` errors instead of being ignored.
const KNOWN_KEYS: [&str; 8] = [
    "cmd",
    "id",
    "session",
    "path",
    "source",
    "checker",
    "canonical",
    "tail",
];

/// A typed `protocol_error` response.
fn protocol_error(prefix: &str, id: &str, session: &str, msg: &str) -> Response {
    Response {
        id: id.to_string(),
        session: format!("{prefix}/{session}"),
        reply: Err(ServerError::new(ErrorCode::ProtocolError, msg)),
    }
}

/// Handles one request line; returns `Some((end, id))` when the
/// connection should stop (`quit`/`shutdown`). Sessions it submits an
/// `open` to are added to `opened`; an accepted `close` removes its
/// session again (a shed one stays, to be retried at hang-up).
fn request_line(
    server: &Server,
    prefix: &str,
    line: &str,
    tx: &mpsc::Sender<Response>,
    opened: &mut BTreeSet<String>,
) -> Option<(LoopEnd, String)> {
    let fields = match parse_json_object(line) {
        Ok(f) => f,
        Err(msg) => {
            let _ = tx.send(protocol_error(prefix, "", "", &msg));
            return None;
        }
    };
    let id = field(&fields, "id").unwrap_or_default().to_string();
    let session = field(&fields, "session").unwrap_or_default().to_string();
    let proto_err = |msg: &str| {
        let _ = tx.send(protocol_error(prefix, &id, &session, msg));
        None
    };
    if let Some((k, _)) = fields
        .iter()
        .find(|(k, _)| !KNOWN_KEYS.contains(&k.as_str()))
    {
        return proto_err(&format!("unknown key `{k}`"));
    }
    let op = match field(&fields, "cmd") {
        None => return proto_err("missing \"cmd\" field"),
        Some("hello") => return proto_err("hello was already negotiated on this connection"),
        Some("open") => match load_source(&fields) {
            Ok(source) => Op::Open { source },
            Err(msg) => return proto_err(&msg),
        },
        Some("update") => match load_source(&fields) {
            Ok(source) => Op::Update { source },
            Err(msg) => return proto_err(&msg),
        },
        Some("check") => match parse_query(&fields) {
            Ok(q) => Op::Query(q),
            Err(msg) => return proto_err(&msg),
        },
        Some("leaks") => Op::Query(Query::Leaks),
        Some("stats") => Op::Stats {
            canonical: field(&fields, "canonical") == Some("true"),
        },
        // `status` and `metrics` are answered right here on the reader
        // thread — not submitted to the pool — so an overloaded server
        // (every worker busy, queue saturated) still answers them. The
        // reply goes through the writer channel like any other so lines
        // never interleave.
        Some("status") => {
            let tail = field(&fields, "tail")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(16);
            let canonical = field(&fields, "canonical") == Some("true");
            let json = server.status_json(tail, canonical);
            let _ = tx.send(Response {
                id,
                session: format!("{prefix}/{session}"),
                reply: Ok(Reply::Status { json }),
            });
            return None;
        }
        Some("metrics") => {
            let body = server.prometheus();
            let _ = tx.send(Response {
                id,
                session: format!("{prefix}/{session}"),
                reply: Ok(Reply::Metrics { body }),
            });
            return None;
        }
        Some("close") => Op::Close,
        Some("quit") => return Some((LoopEnd::Quit, id)),
        Some("shutdown") => return Some((LoopEnd::Shutdown, id)),
        Some(other) => return proto_err(&format!("unknown cmd `{other}`")),
    };
    let session = format!("{prefix}/{session}");
    let close = matches!(op, Op::Close);
    if matches!(op, Op::Open { .. }) {
        opened.insert(session.clone());
    }
    let req = Request {
        id,
        session: session.clone(),
        op,
    };
    if server.submit(req, tx) && close {
        opened.remove(&session);
    }
    None
}

/// Renders one response line, stripping the connection prefix off the
/// session before echoing it.
fn render(resp: &Response, prefix: &str) -> String {
    let session = resp
        .session
        .strip_prefix(prefix)
        .and_then(|s| s.strip_prefix('/'))
        .unwrap_or(&resp.session);
    let head = format!(
        "\"id\":\"{}\",\"session\":\"{}\"",
        escape(&resp.id),
        escape(session)
    );
    match &resp.reply {
        Ok(Reply::Opened { funcs }) => {
            format!("{{\"ok\":true,{head},\"event\":\"opened\",\"funcs\":{funcs}}}")
        }
        Ok(Reply::Updated {
            reanalyzed,
            reused,
            fell_back,
        }) => format!(
            "{{\"ok\":true,{head},\"event\":\"updated\",\"reanalyzed\":{reanalyzed},\"reused\":{reused},\"fell_back\":{fell_back}}}"
        ),
        Ok(Reply::Reports { json, reused, rerun }) => format!(
            "{{\"ok\":true,{head},\"event\":\"reports\",\"reports\":{json},\"queries_reused\":{reused},\"queries_rerun\":{rerun}}}"
        ),
        Ok(Reply::Leaks { json }) => {
            format!("{{\"ok\":true,{head},\"event\":\"leaks\",\"leaks\":{json}}}")
        }
        Ok(Reply::Stats { json }) => {
            format!("{{\"ok\":true,{head},\"event\":\"stats\",\"stats\":{json}}}")
        }
        Ok(Reply::Status { json }) => {
            format!("{{\"ok\":true,{head},\"event\":\"status\",\"status\":{json}}}")
        }
        Ok(Reply::Metrics { body }) => format!(
            "{{\"ok\":true,{head},\"event\":\"metrics\",\"format\":\"prometheus\",\"body\":\"{}\"}}",
            escape(body)
        ),
        Ok(Reply::Closed) => format!("{{\"ok\":true,{head},\"event\":\"closed\"}}"),
        Err(e) => format!("{{\"ok\":false,{head},\"error\":{}}}", e.to_json()),
    }
}
