//! Integration tests of the `pinpoint` command-line binary.

use std::io::Write;
use std::process::Command;

fn run(args: &[&str], source: &str) -> (String, String, i32) {
    let mut file = tempfile_path();
    {
        let mut f = std::fs::File::create(&file.0).expect("temp file");
        f.write_all(source.as_bytes()).expect("write");
    }
    let mut full: Vec<&str> = vec![args[0], &file.0];
    full.extend(&args[1..]);
    let out = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(&full)
        .output()
        .expect("binary runs");
    file.1 = true; // best-effort cleanup below
    let _ = std::fs::remove_file(&file.0);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn tempfile_path() -> (String, bool) {
    let n = std::process::id();
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    (
        std::env::temp_dir()
            .join(format!("pinpoint_cli_{n}_{t}.pp"))
            .to_string_lossy()
            .into_owned(),
        false,
    )
}

const BUGGY: &str = "
    fn main(debug: bool) {
        let p: int* = malloc();
        if (debug) { free(p); }
        if (debug) { let x: int = *p; print(x); }
        return;
    }";

const CLEAN: &str = "
    fn main() {
        let p: int* = malloc();
        let x: int = *p;
        print(x);
        free(p);
        return;
    }";

#[test]
fn check_reports_and_exit_code() {
    let (stdout, _, code) = run(&["check"], BUGGY);
    assert_eq!(code, 1, "reports found → exit 1");
    assert!(stdout.contains("use-after-free"), "{stdout}");
    assert!(stdout.contains("witness: main:debug=true"), "{stdout}");
}

#[test]
fn clean_program_exits_zero() {
    let (stdout, _, code) = run(&["check"], CLEAN);
    assert_eq!(code, 0);
    assert!(stdout.contains("no defects found"), "{stdout}");
}

#[test]
fn json_output_is_wellformed_enough() {
    let (stdout, _, code) = run(&["check", "--json", "--checker", "uaf"], BUGGY);
    assert_eq!(code, 1);
    let line = stdout.lines().next().unwrap();
    assert!(line.starts_with('[') && line.ends_with(']'), "{line}");
    assert!(line.contains("\"property\":\"use-after-free\""), "{line}");
    assert!(line.contains("\"witness\""), "{line}");
}

#[test]
fn specific_checker_selection() {
    // Only the taint checker: the UAF must not be reported.
    let (stdout, _, code) = run(&["check", "--checker", "taint-pt"], BUGGY);
    assert_eq!(code, 0, "{stdout}");
    // Several checkers run in the order given, each reporting only its
    // own property.
    let both = "fn main() {
        let p: int* = malloc();
        free(p);
        let x: int = *p;
        print(x);
        let input: int = fgetc();
        let h: int = fopen(input);
        print(h);
        return;
    }";
    let properties = |checkers: &[&str]| -> Vec<String> {
        let mut args = vec!["check", "--json"];
        for c in checkers {
            args.extend(["--checker", c]);
        }
        let (stdout, _, code) = run(&args, both);
        assert_eq!(code, 1, "{stdout}");
        stdout
            .split("\"property\":\"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect()
    };
    assert_eq!(
        properties(&["uaf", "taint-pt"]),
        ["use-after-free", "path-traversal"]
    );
    assert_eq!(
        properties(&["taint-pt", "uaf"]),
        ["path-traversal", "use-after-free"]
    );
    assert_eq!(properties(&["uaf"]), ["use-after-free"]);
}

#[test]
fn leaks_subcommand() {
    let (stdout, _, code) = run(&["leaks"], BUGGY);
    assert_eq!(code, 1);
    assert!(stdout.contains("ConditionallyFreed"), "{stdout}");
}

#[test]
fn dump_ir_prints_module() {
    let (stdout, _, code) = run(&["dump-ir"], CLEAN);
    assert_eq!(code, 0);
    assert!(stdout.contains("fn main("), "{stdout}");
    assert!(stdout.contains("malloc"), "{stdout}");
}

#[test]
fn dump_seg_prints_dot() {
    let (stdout, _, code) = run(&["dump-seg", "main"], BUGGY);
    assert_eq!(code, 0);
    assert!(stdout.contains("digraph seg_main"), "{stdout}");
}

#[test]
fn stats_subcommand() {
    let (stdout, _, code) = run(&["stats"], BUGGY);
    assert_eq!(code, 0);
    assert!(stdout.contains("SEG edges:"), "{stdout}");
    assert!(stdout.contains("candidates:"), "{stdout}");
    assert!(stdout.contains("search budget:    0"), "{stdout}");
    assert!(stdout.contains("solver budget:    0"), "{stdout}");
}

#[test]
fn trace_and_stats_outputs() {
    let out_dir = std::env::temp_dir();
    let n = std::process::id();
    let trace = out_dir.join(format!("pinpoint_cli_trace_{n}.json"));
    let stats = out_dir.join(format!("pinpoint_cli_stats_{n}.json"));
    let (stdout, stderr, code) = run(
        &[
            "check",
            "--trace-out",
            trace.to_str().unwrap(),
            "--stats-json",
            stats.to_str().unwrap(),
        ],
        BUGGY,
    );
    assert_eq!(code, 1, "{stdout}{stderr}");
    let trace_doc = std::fs::read_to_string(&trace).expect("trace written");
    let stats_doc = std::fs::read_to_string(&stats).expect("stats written");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&stats);
    assert!(trace_doc.starts_with("{\"traceEvents\":["), "{trace_doc}");
    for span in [
        "\"frontend\"",
        "\"frontend.split\"",
        "\"frontend.lower\"",
        "\"callgraph\"",
        "\"pta\"",
        "\"seg\"",
        "\"detect\"",
        "detect.source",
        "smt.query",
    ] {
        assert!(trace_doc.contains(span), "trace missing span {span}");
    }
    assert!(
        !trace_doc.contains("\"name\":\"keys\""),
        "a one-shot check derives no keys"
    );
    assert_eq!(
        trace_doc.matches("\"name\":\"callgraph\"").count(),
        1,
        "one call graph per build"
    );
    assert!(
        stats_doc.contains("\"schema\":\"pinpoint-stats-v1\""),
        "{stats_doc}"
    );
    for family in [
        "\"frontend\":{\"bytes\":",
        "\"tokens\":",
        "\"callgraph\":{\"edges\":",
        "\"max_callers\":",
        "\"sccs\":",
        "\"keys\":{\"time_ns\":0}",
        "\"pta\"",
        "\"seg\":{\"bytes\":",
        "\"cache\":{\"hits\":0,\"invalidated\":0,\"load_ns\":0,\"misses\":0,\"store_ns\":0}",
        "\"detect\"",
        "\"smt\"",
    ] {
        assert!(stats_doc.contains(family), "stats missing family {family}");
    }
    let family_keys = |family: &str| -> Vec<String> {
        let body = stats_doc
            .split_once(&format!("\"{family}\":{{"))
            .unwrap_or_else(|| panic!("{family} family"))
            .1;
        body[..body.find('}').expect("family closes")]
            .split(',')
            .filter_map(|field| Some(field.split(':').next()?.trim_matches('"').to_string()))
            .collect()
    };
    assert!(
        !stats_doc.contains("\"summary\":{"),
        "no summary family: {stats_doc}"
    );
    assert_eq!(
        family_keys("pta"),
        ["final_passes", "kept", "linear_checks", "pruned", "time_ns"]
    );
    assert_eq!(
        family_keys("smt"),
        [
            "budget_exhausted",
            "conflicts",
            "decisions",
            "incremental.reused_clauses",
            "incremental.sessions",
            "learned",
            "propagations",
            "queries",
            "solve_ns",
            "theory_checks",
            "theory_conflicts",
            "verdict.hits",
            "verdict.misses",
            "verdict.persisted",
        ]
    );
    assert!(stats_doc.contains("\"queries\":["), "{stats_doc}");
    assert!(
        stats_doc.contains("\"checker\":\"use-after-free\""),
        "{stats_doc}"
    );
}

#[test]
fn profile_subcommand() {
    let (stdout, stderr, code) = run(&["profile", "--top", "3"], BUGGY);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("checker"), "{stdout}");
    assert!(stdout.contains("use-after-free"), "{stdout}");
    assert!(stdout.contains("main"), "{stdout}");
    assert!(
        stdout.contains("solver budget exhausted: 0 of "),
        "{stdout}"
    );
}

#[test]
fn usage_error_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .arg("frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn parse_error_reported() {
    let (_, stderr, code) = run(&["check"], "fn main( {");
    assert_eq!(code, 2);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn no_solve_flag_admits_infeasible() {
    let infeasible = "
        fn main(c: bool) {
            let p: int* = malloc();
            if (c) { free(p); }
            if (!c) { let x: int = *p; print(x); }
            return;
        }";
    let (with_solve, _, code_solve) = run(&["check", "--checker", "uaf"], infeasible);
    assert_eq!(code_solve, 0, "SMT refutes: {with_solve}");
    let (without, _, code_nosolve) = run(&["check", "--checker", "uaf", "--no-solve"], infeasible);
    assert_eq!(
        code_nosolve, 1,
        "without SMT the candidate leaks: {without}"
    );
}

#[test]
fn serve_session_reuses_warm_queries() {
    // A check → open → check → check → update → check → stats → quit
    // session: the second check of the unchanged program must answer
    // every source query from the workspace cache.
    let base = BUGGY;
    let edited = BUGGY.replace(
        "let x: int = *p;",
        "let pad: int = 9; print(pad);\n            let x: int = *p;",
    );
    let mut src_file = tempfile_path();
    std::fs::write(&src_file.0, base).expect("write source");
    let requests = format!(
        concat!(
            "{{\"cmd\":\"hello\",\"id\":\"0\"}}\n",
            "{{\"cmd\":\"check\",\"id\":\"1\",\"session\":\"s\"}}\n",
            "{{\"cmd\":\"open\",\"id\":\"2\",\"session\":\"s\",\"path\":\"{file}\"}}\n",
            "{{\"cmd\":\"check\",\"id\":\"3\",\"session\":\"s\"}}\n",
            "{{\"cmd\":\"check\",\"id\":\"4\",\"session\":\"s\"}}\n",
            "{{\"cmd\":\"update\",\"id\":\"5\",\"session\":\"s\",\"source\":\"{edited}\"}}\n",
            "{{\"cmd\":\"check\",\"id\":\"6\",\"session\":\"s\",\"checker\":\"uaf\"}}\n",
            "{{\"cmd\":\"stats\",\"id\":\"7\",\"session\":\"s\"}}\n",
            "{{\"cmd\":\"quit\",\"id\":\"8\"}}\n",
        ),
        file = src_file.0,
        edited = edited
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n"),
    );
    let lines = serve_stdio(&["--threads", "2"], requests.as_bytes());
    src_file.1 = true;
    let _ = std::fs::remove_file(&src_file.0);
    // One session, so replies come back in request order.
    let lines = &lines[1..];
    assert_eq!(lines.len(), 8, "one response per request: {lines:?}");
    // check before open is a typed error, not a crash.
    assert!(lines[0].contains("\"ok\":false"), "{}", lines[0]);
    assert!(lines[1].contains("\"event\":\"opened\""), "{}", lines[1]);
    // Cold check runs every query…
    assert!(lines[2].contains("\"queries_reused\":0"), "{}", lines[2]);
    assert!(lines[2].contains("\"use-after-free\""), "{}", lines[2]);
    // …the repeat check replays all of them from the cache.
    assert!(lines[3].contains("\"queries_rerun\":0"), "{}", lines[3]);
    assert!(!lines[3].contains("\"queries_reused\":0"), "{}", lines[3]);
    assert!(lines[4].contains("\"event\":\"updated\""), "{}", lines[4]);
    assert!(lines[4].contains("\"fell_back\":false"), "{}", lines[4]);
    assert!(lines[5].contains("\"event\":\"reports\""), "{}", lines[5]);
    assert!(lines[6].contains("pinpoint-stats-v1"), "{}", lines[6]);
    assert!(lines[6].contains("\"workspace\""), "{}", lines[6]);
    assert!(lines[7].contains("\"event\":\"bye\""), "{}", lines[7]);
}

#[test]
fn serve_survives_hostile_stdin() {
    // Malformed frames — invalid UTF-8, an oversized line, unknown JSON
    // keys, nested values, bare garbage — must each get exactly one typed
    // error reply, before the `hello` handshake and after it, while the
    // session keeps answering well-formed requests.
    let mut hostile: Vec<u8> = Vec::new();
    hostile.extend_from_slice(b"\xff\xfe{\"cmd\":\"check\"}\n");
    let huge = format!(
        "{{\"cmd\":\"open\",\"source\":\"{}\"}}\n",
        "a".repeat(2 * 1024 * 1024)
    );
    hostile.extend_from_slice(huge.as_bytes());
    hostile.extend_from_slice(b"{\"cmd\":\"check\",\"sorce\":\"x\"}\n");
    hostile.extend_from_slice(b"{\"cmd\":\"check\",\"opts\":{\"x\":1}}\n");
    hostile.extend_from_slice(b"not json at all\n");
    let mut requests = hostile.clone();
    requests.extend_from_slice(b"{\"cmd\":\"hello\",\"id\":\"h\"}\n");
    requests.extend_from_slice(
        b"{\"cmd\":\"open\",\"id\":\"o\",\"session\":\"s\",\"source\":\"fn main() { return; }\"}\n",
    );
    requests.extend_from_slice(&hostile);
    requests.extend_from_slice(b"{\"cmd\":\"check\",\"id\":\"c\",\"session\":\"s\"}\n");
    requests.extend_from_slice(b"{\"cmd\":\"quit\",\"id\":\"q\"}\n");
    let lines = serve_stdio(&[], &requests);
    assert_eq!(lines.len(), 14, "one response per request: {lines:?}");
    // Nothing is in flight before `hello`: its refusals come in order.
    for l in &lines[..5] {
        assert!(l.contains("\"code\":\"protocol_error\""), "{l}");
        assert!(l.contains("expected `hello`"), "{l}");
    }
    assert!(lines[5].contains("\"event\":\"hello\""), "{}", lines[5]);
    // Afterwards the `opened` reply may land anywhere among the errors,
    // which keep their own order.
    let errors: Vec<&String> = lines[6..]
        .iter()
        .filter(|l| l.contains("\"code\":\"protocol_error\""))
        .collect();
    assert_eq!(errors.len(), 5, "each hostile frame errors once: {lines:?}");
    assert!(errors[0].contains("not valid UTF-8"), "{}", errors[0]);
    assert!(errors[1].contains("exceeds"), "{}", errors[1]);
    assert!(errors[2].contains("unknown key `sorce`"), "{}", errors[2]);
    let find = |id: &str| {
        lines
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no reply with id {id}: {lines:?}"))
    };
    assert!(find("o").contains("\"event\":\"opened\""));
    // The session is still healthy after ten hostile frames.
    assert!(find("c").contains("\"event\":\"reports\""));
    assert!(lines[13].contains("\"event\":\"bye\""), "{}", lines[13]);
}

#[test]
fn serve_refuses_requests_before_hello() {
    // A well-formed request is no handshake: it is refused with its id
    // echoed and creates no session; the connection works after `hello`.
    let open =
        "{\"cmd\":\"open\",\"id\":\"early\",\"session\":\"s\",\"source\":\"fn main() { return; }\"}\n";
    let requests = [
        open,
        "{\"cmd\":\"hello\",\"id\":\"h\"}\n",
        "{\"cmd\":\"check\",\"id\":\"c1\",\"session\":\"s\"}\n",
        &open.replace("early", "o"),
        "{\"cmd\":\"check\",\"id\":\"c2\",\"session\":\"s\"}\n",
        "{\"cmd\":\"quit\",\"id\":\"q\"}\n",
    ]
    .concat();
    let lines = serve_stdio(&[], requests.as_bytes());
    assert_eq!(lines.len(), 6, "one response per request: {lines:?}");
    assert!(
        lines[0].contains("\"code\":\"protocol_error\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("expected `hello`"), "{}", lines[0]);
    assert!(lines[0].contains("\"id\":\"early\""), "{}", lines[0]);
    assert!(lines[1].contains("\"event\":\"hello\""), "{}", lines[1]);
    assert!(
        lines[2].contains("\"code\":\"no_workspace\""),
        "{}",
        lines[2]
    );
    assert!(lines[3].contains("\"event\":\"opened\""), "{}", lines[3]);
    assert!(lines[4].contains("\"event\":\"reports\""), "{}", lines[4]);
    assert!(lines[5].contains("\"event\":\"bye\""), "{}", lines[5]);
}

/// Runs `pinpoint serve` over stdio with the given extra flags, feeds
/// it `requests`, and returns stdout's lines.
fn serve_stdio(extra: &[&str], requests: &[u8]) -> Vec<String> {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(requests)
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0), "serve exits cleanly");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn serve_v2_hello_multiplexes_sessions() {
    // A hello handshake upgrades the connection to pinpoint-rpc-v2:
    // two sessions interleave on one stdio connection, every reply
    // echoes its request's id and session, and bye comes last.
    let buggy = BUGGY
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    let requests = format!(
        concat!(
            "{{\"cmd\":\"hello\",\"id\":\"h0\",\"proto\":\"pinpoint-rpc-v2\"}}\n",
            "{{\"cmd\":\"open\",\"id\":\"a1\",\"session\":\"alpha\",\"source\":\"{buggy}\"}}\n",
            "{{\"cmd\":\"open\",\"id\":\"b1\",\"session\":\"beta\",\"source\":\"fn main() {{ return; }}\"}}\n",
            "{{\"cmd\":\"check\",\"id\":\"a2\",\"session\":\"alpha\",\"checker\":\"uaf\"}}\n",
            "{{\"cmd\":\"check\",\"id\":\"b2\",\"session\":\"beta\"}}\n",
            "{{\"cmd\":\"stats\",\"id\":\"a3\",\"session\":\"alpha\",\"canonical\":\"true\"}}\n",
            "{{\"cmd\":\"quit\",\"id\":\"z9\"}}\n",
        ),
        buggy = buggy,
    );
    let lines = serve_stdio(&["--workers", "2"], requests.as_bytes());
    assert_eq!(lines.len(), 7, "one reply per request: {lines:?}");
    assert!(
        !lines.iter().any(|l| l.contains("\"ok\":false")),
        "no errors expected: {lines:?}"
    );
    assert!(lines[0].contains("\"event\":\"hello\""), "{}", lines[0]);
    assert!(lines[0].contains("\"id\":\"h0\""), "{}", lines[0]);
    assert!(
        lines[0].contains("\"proto\":\"pinpoint-rpc-v2\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"capabilities\":["), "{}", lines[0]);
    let find = |id: &str| {
        lines
            .iter()
            .position(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no reply with id {id}: {lines:?}"))
    };
    // Replies of different sessions may interleave, but each session's
    // replies come back in its own request order.
    let (a1, a2, a3) = (find("a1"), find("a2"), find("a3"));
    let (b1, b2) = (find("b1"), find("b2"));
    assert!(a1 < a2 && a2 < a3, "alpha FIFO: {lines:?}");
    assert!(b1 < b2, "beta FIFO: {lines:?}");
    // Session names echo without the connection's internal namespace.
    assert!(lines[a2].contains("\"session\":\"alpha\""), "{}", lines[a2]);
    assert!(lines[a2].contains("\"event\":\"reports\""), "{}", lines[a2]);
    assert!(lines[a2].contains("use-after-free"), "{}", lines[a2]);
    assert!(lines[b2].contains("\"session\":\"beta\""), "{}", lines[b2]);
    assert!(lines[b2].contains("\"reports\":[]"), "{}", lines[b2]);
    assert!(lines[a3].contains("pinpoint-stats-v1"), "{}", lines[a3]);
    // A session's stats are its own workspace's document: the
    // server-wide family is in `status`/`metrics` only.
    assert!(lines[a3].contains("\"workspace\":{"), "{}", lines[a3]);
    assert!(!lines[a3].contains("\"server\":{"), "{}", lines[a3]);
    assert!(lines[6].contains("\"event\":\"bye\""), "{}", lines[6]);
    assert!(lines[6].contains("\"id\":\"z9\""), "{}", lines[6]);
}

#[test]
fn serve_v2_protocol_errors_are_typed_and_resync() {
    // Regression set distilled from fuzzing the framing layer: every
    // hostile frame — invalid UTF-8, an oversized line, unknown keys,
    // nested JSON, bare garbage, unknown/missing cmd, a second hello —
    // must get a typed `protocol_error` reply and the stream must
    // resynchronize at the next newline so the session keeps working.
    let mut requests: Vec<u8> = Vec::new();
    requests.extend_from_slice(b"{\"cmd\":\"hello\",\"id\":\"h0\"}\n");
    requests.extend_from_slice(
        b"{\"cmd\":\"open\",\"id\":\"o1\",\"session\":\"s\",\"source\":\"fn main() { return; }\"}\n",
    );
    requests.extend_from_slice(b"\xff\xfe{\"cmd\":\"check\",\"id\":\"u1\",\"session\":\"s\"}\n");
    let huge = format!(
        "{{\"cmd\":\"open\",\"id\":\"big\",\"session\":\"s\",\"source\":\"{}\"}}\n",
        "a".repeat(2 * 1024 * 1024)
    );
    requests.extend_from_slice(huge.as_bytes());
    requests.extend_from_slice(
        b"{\"cmd\":\"check\",\"id\":\"x1\",\"session\":\"s\",\"sorce\":\"x\"}\n",
    );
    requests.extend_from_slice(
        b"{\"cmd\":\"check\",\"id\":\"x2\",\"session\":\"s\",\"opts\":{\"x\":1}}\n",
    );
    requests.extend_from_slice(b"not json at all\n");
    requests.extend_from_slice(b"{\"cmd\":\"nope\",\"id\":\"x3\",\"session\":\"s\"}\n");
    requests.extend_from_slice(b"{\"id\":\"x4\",\"session\":\"s\"}\n");
    requests.extend_from_slice(b"{\"cmd\":\"hello\",\"id\":\"x5\"}\n");
    requests.extend_from_slice(b"{\"cmd\":\"check\",\"id\":\"c1\",\"session\":\"s\"}\n");
    requests.extend_from_slice(b"{\"cmd\":\"quit\",\"id\":\"q9\"}\n");
    let lines = serve_stdio(&[], &requests);
    assert_eq!(lines.len(), 12, "one reply per request: {lines:?}");
    assert!(lines[0].contains("\"event\":\"hello\""), "{}", lines[0]);
    let errors: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"code\":\"protocol_error\""))
        .collect();
    assert_eq!(errors.len(), 8, "each hostile frame errors once: {lines:?}");
    for l in &errors {
        assert!(l.contains("\"ok\":false"), "{l}");
        assert!(l.contains("\"message\":"), "{l}");
    }
    let has = |needle: &str| {
        assert!(
            lines.iter().any(|l| l.contains(needle)),
            "missing `{needle}`: {lines:?}"
        )
    };
    has("not valid UTF-8");
    has("exceeds");
    has("unknown key `sorce`");
    has("unknown cmd `nope`");
    has("missing \\\"cmd\\\" field");
    has("hello was already negotiated");
    // Parse-level errors still echo the request's id for correlation.
    has("\"id\":\"x1\"");
    has("\"id\":\"x3\"");
    // The session survived all eight hostile frames.
    let check = lines
        .iter()
        .find(|l| l.contains("\"id\":\"c1\""))
        .expect("check after the hostile frames is answered");
    assert!(check.contains("\"event\":\"reports\""), "{check}");
    assert!(lines[11].contains("\"event\":\"bye\""), "{}", lines[11]);
    assert!(lines[11].contains("\"id\":\"q9\""), "{}", lines[11]);
}

/// A fresh socket path for `--listen`, unique per test.
fn socket_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("pinpoint_{tag}_{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Starts `pinpoint serve --listen sock`.
fn listen(sock: &str) -> std::process::Child {
    use std::process::Stdio;
    Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(["serve", "--listen", sock, "--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs")
}

/// Connects to a `--listen` socket, which appears once the listener is
/// bound.
fn connect(sock: &str) -> std::os::unix::net::UnixStream {
    for _ in 0..200 {
        match std::os::unix::net::UnixStream::connect(sock) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(25)),
        }
    }
    panic!("server never bound {sock}");
}

/// Sends `requests` on a new connection, ends its input, and returns
/// every reply line.
fn exchange(sock: &str, requests: &str) -> Vec<String> {
    use std::io::{BufRead, BufReader};
    let mut stream = connect(sock);
    stream
        .write_all(requests.as_bytes())
        .expect("write requests");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read reply"))
        .collect()
}

/// Waits for a server that was told to shut down; its exit code.
fn wait_exit(mut child: std::process::Child) -> Option<i32> {
    for _ in 0..400 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code();
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let _ = child.kill();
    None
}

#[test]
fn serve_v2_listen_unix_socket() {
    let sock = socket_path("serve");
    let child = listen(&sock);
    let lines = exchange(
        &sock,
        concat!(
            "{\"cmd\":\"hello\",\"id\":\"h\"}\n",
            "{\"cmd\":\"open\",\"id\":\"1\",\"session\":\"m\",\"source\":\"fn main() { return; }\"}\n",
            "{\"cmd\":\"check\",\"id\":\"2\",\"session\":\"m\"}\n",
            "{\"cmd\":\"shutdown\",\"id\":\"3\"}\n",
        ),
    );
    assert_eq!(lines.len(), 4, "hello, opened, reports, bye: {lines:?}");
    assert!(lines[0].contains("\"event\":\"hello\""), "{}", lines[0]);
    assert!(lines[1].contains("\"event\":\"opened\""), "{}", lines[1]);
    assert!(lines[2].contains("\"event\":\"reports\""), "{}", lines[2]);
    assert!(lines[3].contains("\"event\":\"bye\""), "{}", lines[3]);
    assert!(lines[3].contains("\"id\":\"3\""), "{}", lines[3]);
    // `shutdown` stops the accept loop and the process exits cleanly.
    assert_eq!(
        wait_exit(child),
        Some(0),
        "serve exits cleanly after shutdown"
    );
    assert!(!std::path::Path::new(&sock).exists(), "socket file removed");
}

#[test]
fn serve_closes_the_sessions_of_a_dropped_connection() {
    // Sessions are namespaced per connection, so what a vanished client
    // opened is unreachable: the server must close it, not keep it until
    // the process exits.
    let sock = socket_path("drop");
    let child = listen(&sock);
    for _ in 0..3 {
        let mut stream = connect(&sock);
        stream
            .write_all(
                concat!(
                    "{\"cmd\":\"hello\",\"id\":\"h\"}\n",
                    "{\"cmd\":\"open\",\"id\":\"1\",\"session\":\"m\",\"source\":\"fn main() { return; }\"}\n",
                )
                .as_bytes(),
            )
            .expect("write requests");
    }
    let status = "{\"cmd\":\"hello\",\"id\":\"h\"}\n{\"cmd\":\"status\",\"id\":\"s\",\"tail\":0}\n";
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let lines = exchange(&sock, status);
        assert_eq!(lines.len(), 2, "hello, status: {lines:?}");
        // Every one of them opened first, then closed. The server may not
        // have read every connection yet, so wait for all three opens.
        if lines[1].contains("\"sessions_open\":0,") && lines[1].contains("\"sessions\":3,") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sessions of dropped connections still open: {}",
            lines[1]
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    exchange(
        &sock,
        "{\"cmd\":\"hello\"}\n{\"cmd\":\"shutdown\",\"id\":\"q\"}\n",
    );
    assert_eq!(wait_exit(child), Some(0));
}

#[test]
fn serve_hang_up_closes_only_the_sessions_still_open() {
    // One connection cycles sessions `a` and `b` through open and close,
    // opens `c`, and hangs up without reading a reply. Only `c` is left
    // for the hang-up to close: five requests of its own plus one close.
    // A hang-up that also re-closed `a` and `b` would queue one more
    // close for each it found still alive behind the slow opens.
    let program: String = (0..300)
        .map(|i| format!("fn f{i}() {{ let p: int* = malloc(); free(p); let x: int = *p; print(x); return; }} "))
        .collect();
    let open = |id: &str, s: &str| {
        format!(
            "{{\"cmd\":\"open\",\"id\":\"{id}\",\"session\":\"{s}\",\"source\":\"{program}\"}}\n"
        )
    };
    let close =
        |id: &str, s: &str| format!("{{\"cmd\":\"close\",\"id\":\"{id}\",\"session\":\"{s}\"}}\n");
    let requests = [
        "{\"cmd\":\"hello\",\"id\":\"h\"}\n".to_string(),
        open("1", "a"),
        close("2", "a"),
        open("3", "b"),
        close("4", "b"),
        open("5", "c"),
    ]
    .concat();
    let sock = socket_path("cycle");
    let child = listen(&sock);
    let lines = exchange(&sock, &requests);
    assert_eq!(lines.len(), 6, "hello and five replies: {lines:?}");
    assert!(lines.iter().all(|l| l.contains("\"ok\":true")), "{lines:?}");
    // The hang-up waits for its closes, so the counters are final.
    let status = exchange(
        &sock,
        "{\"cmd\":\"hello\",\"id\":\"h\"}\n{\"cmd\":\"status\",\"id\":\"s\",\"tail\":0}\n",
    );
    let status = &status[1];
    for want in [
        "\"sessions_open\":0,",
        "\"queued\":6,",
        "\"sessions\":3,",
        "\"completed\":6}",
    ] {
        assert!(status.contains(want), "{want} in {status}");
    }
    exchange(
        &sock,
        "{\"cmd\":\"hello\"}\n{\"cmd\":\"shutdown\",\"id\":\"q\"}\n",
    );
    assert_eq!(wait_exit(child), Some(0));
}

#[test]
fn serve_listen_unlinks_only_a_dead_socket() {
    // A regular file at the path is not ours to remove.
    let file = socket_path("notes");
    std::fs::write(&file, "keep me").expect("write file");
    let out = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(["serve", "--listen", &file])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&file), "{stderr}");
    assert_eq!(std::fs::read_to_string(&file).expect("survives"), "keep me");
    let _ = std::fs::remove_file(&file);

    // Nor is a live server's address: the second server fails and the
    // first keeps answering.
    let sock = socket_path("live");
    let first = listen(&sock);
    drop(connect(&sock));
    let second = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(["serve", "--listen", &sock])
        .output()
        .expect("binary runs");
    assert_eq!(second.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains(&sock), "{stderr}");
    let lines = exchange(
        &sock,
        "{\"cmd\":\"hello\",\"id\":\"h\"}\n{\"cmd\":\"shutdown\",\"id\":\"q\"}\n",
    );
    assert_eq!(lines.len(), 2, "hello, bye: {lines:?}");
    assert!(lines[0].contains("\"event\":\"hello\""), "{}", lines[0]);
    assert_eq!(wait_exit(first), Some(0));
}

#[test]
fn serve_v2_status_and_metrics_verbs() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // In-band telemetry over one v2 stdio connection. The first status
    // is sent right behind open+check and answers from the transport
    // thread with the accepted work already in its flight tail. A
    // second status after the replies drain must carry the forced
    // (`--slow-ms 0`) slow_query events with attribution.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(["serve", "--slow-ms", "0", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        line
    };
    stdin
        .write_all(
            concat!(
                "{\"cmd\":\"hello\",\"id\":\"h\"}\n",
                "{\"cmd\":\"open\",\"id\":\"1\",\"session\":\"s\",\"source\":\"fn main() { let p: int* = malloc(); free(p); let x: int = *p; print(x); return; }\"}\n",
                "{\"cmd\":\"check\",\"id\":\"2\",\"session\":\"s\"}\n",
                "{\"cmd\":\"status\",\"id\":\"3\",\"tail\":16}\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    assert!(read_line().contains("\"event\":\"hello\""));
    // The status reply is answered on the transport thread, never the
    // worker pool, so it may overtake the queued open/check replies —
    // or trail them when the tiny program finishes first. Either way
    // all three arrive, and the status tail already carries the
    // `accepted` events (recorded at submission, before the reader
    // reached the status line). The strict overtake-under-load ordering
    // is pinned in tests/telemetry.rs and the CI telemetry-smoke job.
    let batch = [read_line(), read_line(), read_line()];
    let find = |marker: &str| {
        batch
            .iter()
            .find(|l| l.contains(marker))
            .unwrap_or_else(|| panic!("no {marker} in {batch:?}"))
    };
    let early = find("\"event\":\"status\"");
    assert!(early.contains("\"id\":\"3\""), "{early}");
    assert!(
        early.contains("\"schema\":\"pinpoint-status-v1\""),
        "{early}"
    );
    assert!(early.contains("\"kind\":\"accepted\""), "{early}");
    assert!(find("\"event\":\"opened\"").contains("\"funcs\":1"));
    find("\"event\":\"reports\"");
    // Now the flight tail has the forced slow queries.
    stdin
        .write_all(
            concat!(
                "{\"cmd\":\"status\",\"id\":\"4\",\"tail\":16}\n",
                "{\"cmd\":\"metrics\",\"id\":\"5\"}\n",
                "{\"cmd\":\"quit\",\"id\":\"q\"}\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    let late = read_line();
    assert!(late.contains("\"event\":\"status\""), "{late}");
    assert!(late.contains("\"kind\":\"slow_query\""), "{late}");
    assert!(late.contains("\"per_op\":{\"check\":"), "{late}");
    let metrics = read_line();
    assert!(metrics.contains("\"event\":\"metrics\""), "{metrics}");
    assert!(metrics.contains("\"format\":\"prometheus\""), "{metrics}");
    // The multi-line scrape body rides inside one NDJSON line.
    assert!(
        metrics.contains("# TYPE pinpoint_server_workers gauge"),
        "{metrics}"
    );
    assert!(metrics.contains("\\n"), "escaped newlines: {metrics}");
    let bye = read_line();
    assert!(bye.contains("\"event\":\"bye\""), "{bye}");
    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0), "serve exits cleanly");
}

#[test]
fn top_renders_one_frame_over_child_stdio() {
    // `pinpoint top` with no --connect spawns its own `pinpoint serve`
    // child over stdio; one plain frame must carry the dashboard
    // sections and exit cleanly.
    let out = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(["top", "--frames", "1", "--plain"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("pinpoint top"), "{stdout}");
    assert!(stdout.contains("workers"), "{stdout}");
    assert!(stdout.contains("sessions open"), "{stdout}");
    // Plain mode never emits ANSI clear-screen sequences.
    assert!(!stdout.contains('\x1b'), "{stdout}");
}

#[test]
fn top_prometheus_mode_prints_scrape() {
    let out = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(["top", "--frames", "1", "--plain", "--prometheus"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("# TYPE pinpoint_server_workers gauge"),
        "{stdout}"
    );
    assert!(stdout.contains("pinpoint_server_completed"), "{stdout}");
}

#[test]
fn fuzz_subcommand_writes_stats() {
    let stats = tempfile_path();
    let out = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args([
            "fuzz",
            "--seed",
            "5",
            "--iters",
            "5",
            "--oracle",
            "verify",
            "--oracle",
            "smt",
            "--stats-json",
            &stats.0,
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "clean fuzz run: {stdout}");
    assert!(stdout.contains("iterations:     5"), "{stdout}");
    let doc = std::fs::read_to_string(&stats.0).expect("stats written");
    let _ = std::fs::remove_file(&stats.0);
    assert!(doc.contains("\"schema\":\"pinpoint-stats-v1\""), "{doc}");
    assert!(doc.contains("\"fuzz\":{"), "{doc}");
    assert!(doc.contains("\"iters\":5"), "{doc}");
    assert!(doc.contains("\"discrepancies\":0"), "{doc}");
    assert!(doc.contains("\"crashes\":0"), "{doc}");
}

#[test]
fn fuzz_rejects_unknown_oracle() {
    let out = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(["fuzz", "--oracle", "astrology"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown oracle"), "{stderr}");
}

/// One `smt.query` span per query record and one `detect.source` span per
/// source, at every thread count: detection searches every source and
/// evaluates each candidate exactly once, inside its source's span.
#[test]
fn one_span_per_evaluated_candidate_and_searched_source() {
    use pinpoint_workload::{generate, generate_fuzz, FuzzGenConfig, GenConfig};
    let sparse = generate(
        &GenConfig {
            real_bugs: 2,
            decoys: 2,
            taint: true,
            ..GenConfig::default()
        }
        .with_target_kloc(20.0),
    )
    .source;
    let dense = generate_fuzz(&FuzzGenConfig {
        seed: 15,
        functions: 110,
        max_stmts: 10,
        globals: 4,
        recursion: true,
    });
    let n = std::process::id();
    // The number after `"key":` in the first occurrence past `from`.
    let number = |doc: &str, from: &str, key: &str| -> usize {
        let rest = &doc[doc.find(from).unwrap_or_else(|| panic!("{from}"))..];
        let rest = &rest[rest.find(key).unwrap_or_else(|| panic!("{key}")) + key.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().expect("a count")
    };
    for (name, source) in [("sparse", &sparse), ("dense", &dense)] {
        for threads in ["1", "2"] {
            let trace =
                std::env::temp_dir().join(format!("pinpoint_spans_{n}_{name}_{threads}.json"));
            let stats =
                std::env::temp_dir().join(format!("pinpoint_spans_{n}_{name}_{threads}.stats"));
            let (stdout, stderr, code) = run(
                &[
                    "check",
                    "--threads",
                    threads,
                    "--trace-out",
                    trace.to_str().unwrap(),
                    "--stats-json",
                    stats.to_str().unwrap(),
                ],
                source,
            );
            assert!(code <= 1, "{name} --threads {threads}: {stdout}{stderr}");
            let trace_doc = std::fs::read_to_string(&trace).expect("trace written");
            let stats_doc = std::fs::read_to_string(&stats).expect("stats written");
            let _ = std::fs::remove_file(&trace);
            let _ = std::fs::remove_file(&stats);
            let queries = stats_doc
                .split_once("\"queries\":[")
                .expect("queries array")
                .1
                .matches("{\"id\":")
                .count();
            let sources = number(&stats_doc, "\"detect\":{", "\"sources\":");
            assert!(
                queries > 0 && sources > 0,
                "{name}: {queries} queries, {sources} sources"
            );
            let spans = |span: &str| trace_doc.matches(&format!("\"name\":\"{span}\"")).count();
            assert_eq!(spans("smt.query"), queries, "{name} --threads {threads}");
            assert_eq!(
                spans("detect.source"),
                sources,
                "{name} --threads {threads}"
            );
        }
    }
}
