//! Process-count invariance: reports, counters and fingerprints are a
//! pure function of the source text — not of the process that computed
//! them. Every `pinpoint` process draws fresh hash seeds, so anything
//! that leaks a hash container's iteration order into an output differs
//! between two runs of the same command; `tests/parallel_determinism.rs`
//! cannot see that (one process, one set of seeds).
//!
//! Each configuration — no cache, a cold cache directory, a warm one, at
//! 1 and 4 threads — runs the built binary five times over a corpus
//! program and a `gen_project --kloc 20` project and requires
//!
//! * identical `check --json` stdout and exit code, across *all*
//!   configurations;
//! * identical canonical `--stats-json` documents (wall-clock values
//!   zeroed, run metadata dropped) within a cache state — store traffic
//!   and verdict hit/miss/persisted counters legitimately differ between
//!   states;
//! * byte-identical cache directories after a cold run: one object, named
//!   by the verdict-store key, whose bytes are the verdict table keyed by
//!   condition fingerprint.
//!
//! The same harness shows what a directory from before the `pta`/`seg`/
//! `vfsum` stages were retired means to a run: nothing. And `pinpoint
//! leaks`, whose conditions go through the one-shot solver, is held to the
//! same bar on a grammar-generated module.

use pinpoint::workload::{fuzzgen, generate, GenConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const RUNS: usize = 5;
const THREADS: [usize; 2] = [1, 4];

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pinpoint-xproc-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one `pinpoint check` process produced: `(exit code, stdout,
/// canonical stats)`.
type Outcome = (i32, String, String);

/// Every object of a cache directory: name → bytes.
type Objects = BTreeMap<String, Vec<u8>>;

/// Runs one `pinpoint check` process.
fn check(input: &Path, threads: usize, cache: Option<&Path>, stats: &Path) -> Outcome {
    run("check", input, threads, cache, stats)
}

/// Runs one `pinpoint <subcommand> --json` process.
fn run(
    subcommand: &str,
    input: &Path,
    threads: usize,
    cache: Option<&Path>,
    stats: &Path,
) -> Outcome {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pinpoint"));
    cmd.arg(subcommand).arg(input).arg("--json");
    cmd.args(["--threads", &threads.to_string()]);
    cmd.arg("--stats-json").arg(stats);
    if let Some(dir) = cache {
        cmd.arg("--cache-dir").arg(dir);
    }
    let out = cmd.output().expect("pinpoint runs");
    let code = out.status.code().expect("pinpoint exits");
    assert!(code <= 1, "{}", String::from_utf8_lossy(&out.stderr));
    let doc = std::fs::read_to_string(stats).expect("stats written");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 reports");
    (code, stdout, canonical_stats(&doc))
}

/// The `--stats-json` document as `stats_json(canonical = true)` renders
/// it: every number under a key ending in `_ns` zeroed (for a histogram
/// object, every number but its `count`), and the `run` object dropped.
fn canonical_stats(doc: &str) -> String {
    let (head, rest) = doc.split_once("\"run\":{").expect("run metadata");
    let (_, tail) = rest.split_once("},").expect("run object closes");
    let doc = format!("{head}{tail}");
    let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc.as_str();
    while let Some(at) = rest.find("_ns\":") {
        let (before, after) = rest.split_at(at + "_ns\":".len());
        out.push_str(before);
        if !after.starts_with('{') {
            out.push('0');
            rest = &after[digits(after)..];
            continue;
        }
        let (mut fields, after) = after.split_at(after.find('}').expect("histogram closes"));
        while let Some(colon) = fields.find(':') {
            let (key, value) = fields.split_at(colon + 1);
            out.push_str(key);
            let n = digits(value);
            out.push_str(if key.ends_with("\"count\":") {
                &value[..n]
            } else {
                "0"
            });
            fields = &value[n..];
        }
        out.push_str(fields);
        rest = after;
    }
    out.push_str(rest);
    out
}

/// Reads every object of a cache directory.
fn snapshot(cache: &Path) -> Objects {
    std::fs::read_dir(cache.join("objects"))
        .expect("cache objects")
        .map(|e| e.expect("dir entry").path())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("object readable"))
        })
        .collect()
}

fn assert_process_invariant(tag: &str, source: &str) {
    let scratch = Scratch::new(tag);
    let input = scratch.0.join("input.pp");
    std::fs::write(&input, source).unwrap();
    let stats = scratch.0.join("stats.json");

    // No cache: the reference every other run must reproduce.
    let reference = check(&input, 1, None, &stats);
    assert!(
        reference.1.starts_with("[{"),
        "{tag}: input must produce reports"
    );
    // The front end's counters describe the source text, so every run
    // below repeats them whatever its thread count or cache state.
    let tokens = {
        let mut lexer = pinpoint::ir::lexer::Lexer::new(source);
        lexer.drain().expect("input lexes");
        lexer.tokens()
    };
    let front = format!("\"frontend\":{{\"bytes\":{},\"funcs\":", source.len());
    assert!(
        reference.2.contains(&front),
        "{tag}: {front}\n{}",
        reference.2
    );
    let front = format!("\"tokens\":{tokens}}}");
    assert!(
        reference.2.contains(&front),
        "{tag}: {front}\n{}",
        reference.2
    );
    for threads in THREADS {
        for run in 0..RUNS {
            let got = check(&input, threads, None, &stats);
            assert_eq!(
                got, reference,
                "{tag}: no cache, threads={threads}, run {run}"
            );
        }
    }

    // Cold cache: a fresh directory per process.
    let mut cold: Option<(Outcome, Objects)> = None;
    for threads in THREADS {
        for run in 0..RUNS {
            let dir = scratch.0.join(format!("cold-{threads}-{run}"));
            let got = check(&input, threads, Some(&dir), &stats);
            let what = format!("{tag}: cold cache, threads={threads}, run {run}");
            assert_eq!((got.0, &got.1), (reference.0, &reference.1), "{what}");
            let objects = snapshot(&dir);
            match &cold {
                None => cold = Some((got, objects)),
                Some((first, first_objects)) => {
                    assert_eq!(&got, first, "{what}: stats");
                    let names = |o: &Objects| o.keys().cloned().collect::<Vec<_>>();
                    assert_eq!(names(&objects), names(first_objects), "{what}: cache keys");
                    assert!(objects == *first_objects, "{what}: cache object bytes");
                }
            }
        }
    }
    let (_, objects) = cold.expect("cold runs happened");
    let names: Vec<&String> = objects.keys().collect();
    assert!(
        matches!(names.as_slice(), [name] if name.starts_with("verdicts-")),
        "{tag}: the verdict table and nothing else: {names:?}"
    );

    // Warm cache: one directory, filled once, read by every process.
    let warm_dir = scratch.0.join("warm");
    check(&input, 1, Some(&warm_dir), &stats);
    let filled = snapshot(&warm_dir);
    let mut warm: Option<Outcome> = None;
    for threads in THREADS {
        for run in 0..RUNS {
            let got = check(&input, threads, Some(&warm_dir), &stats);
            let what = format!("{tag}: warm cache, threads={threads}, run {run}");
            assert_eq!((got.0, &got.1), (reference.0, &reference.1), "{what}");
            for counters in ["\"cache\":{\"hits\":1,", "\"verdict.misses\":0,"] {
                assert!(
                    got.2.contains(counters),
                    "{what}: fully warm, {counters}\n{}",
                    got.2
                );
            }
            assert_eq!(
                &got,
                warm.get_or_insert_with(|| got.clone()),
                "{what}: stats"
            );
        }
    }
    assert!(
        snapshot(&warm_dir) == filled,
        "{tag}: a warm run rewrites nothing"
    );
}

#[test]
fn corpus_program_is_process_invariant() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/taint_through_helpers.pp");
    assert_process_invariant("corpus", &std::fs::read_to_string(path).unwrap());
}

/// The source `gen_project --kloc 20` writes.
fn kloc20_project() -> String {
    let config = GenConfig {
        real_bugs: 2,
        decoys: 2,
        taint: true,
        ..GenConfig::default()
    };
    generate(&config.with_target_kloc(20.0)).source
}

#[test]
fn generated_project_is_process_invariant() {
    assert_process_invariant("project", &kloc20_project());
}

#[test]
fn leaks_are_process_invariant() {
    // What `gen_project --kloc 3 --seed 7 --fuzz` writes: malloc/free-heavy
    // code, so the leak checker has conditions to decide.
    let source = fuzzgen::generate(&fuzzgen::FuzzGenConfig {
        seed: 7,
        functions: 166,
        max_stmts: 10,
        globals: 4,
        recursion: true,
    });
    let scratch = Scratch::new("leaks");
    let input = scratch.0.join("input.pp");
    std::fs::write(&input, source).unwrap();
    let stats = scratch.0.join("stats.json");
    let reference = run("leaks", &input, 1, None, &stats);
    assert!(
        reference.1.contains("\"kind\":\"ConditionallyFreed\""),
        "the solver must have had a say: {}",
        reference.1
    );
    for threads in THREADS {
        for run_no in 0..RUNS {
            let got = run("leaks", &input, threads, None, &stats);
            assert_eq!(got, reference, "leaks, threads={threads}, run {run_no}");
        }
    }
}

/// `pinpoint cache <action> <dir>`: exit code and stdout.
fn cache_cmd(action: &str, dir: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pinpoint"))
        .args(["cache", action])
        .arg(dir)
        .output()
        .expect("pinpoint runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    (out.status.code().expect("pinpoint exits"), stdout)
}

#[test]
fn retired_stage_objects_are_never_read_but_counted_and_cleared() {
    let scratch = Scratch::new("retired");
    let input = scratch.0.join("input.pp");
    std::fs::write(&input, kloc20_project()).unwrap();
    let stats = scratch.0.join("stats.json");

    let empty = scratch.0.join("empty");
    let from_empty = check(&input, 1, Some(&empty), &stats);
    let names: Vec<String> = snapshot(&empty).into_keys().collect();
    assert!(
        matches!(names.as_slice(), [name] if name.starts_with("verdicts-")),
        "one object, the verdict table: {names:?}"
    );

    // What an older version's run left behind, as far as a lookup could
    // tell: the right names, any bytes.
    let old = scratch.0.join("old");
    std::fs::create_dir_all(old.join("objects")).unwrap();
    let retired: Vec<PathBuf> = ["pta", "seg", "vfsum"]
        .iter()
        .flat_map(|stage| (1..=3u128).map(move |key| format!("{stage}-{key:032x}.bin")))
        .map(|name| old.join("objects").join(name))
        .collect();
    for path in &retired {
        std::fs::write(path, b"not a frame").unwrap();
    }
    assert_eq!(
        check(&input, 1, Some(&old), &stats),
        from_empty,
        "reports and every counter as on an empty directory"
    );
    for path in &retired {
        assert_eq!(
            std::fs::read(path).unwrap(),
            b"not a frame",
            "left untouched"
        );
    }
    let (code, info) = cache_cmd("info", &old);
    assert_eq!(code, 0);
    assert!(
        info.contains("entries:     10"),
        "9 retired + 1 table: {info}"
    );
    let (code, cleared) = cache_cmd("clear", &old);
    assert_eq!((code, cleared.trim()), (0, "removed 10 entries"));
    assert!(snapshot(&old).is_empty());
}

#[test]
fn canonical_stats_zeroes_timings_only() {
    let doc = "{\"schema\":\"s\",\"run\":{\"threads\":4},\"stages\":{\"pta\":{\"kept\":12,\
               \"time_ns\":345},\"seg\":{\"bytes\":77,\"time_ns\":9}},\"histograms\":{\
               \"smt.query_ns\":{\"count\":19,\"sum\":138,\"p50\":12,\"max\":45}},\
               \"queries\":[{\"id\":10,\"solver_ns\":51,\"conflicts\":3}]}";
    let expected = "{\"schema\":\"s\",\"stages\":{\"pta\":{\"kept\":12,\
               \"time_ns\":0},\"seg\":{\"bytes\":77,\"time_ns\":0}},\"histograms\":{\
               \"smt.query_ns\":{\"count\":19,\"sum\":0,\"p50\":0,\"max\":0}},\
               \"queries\":[{\"id\":10,\"solver_ns\":0,\"conflicts\":3}]}";
    assert_eq!(canonical_stats(doc), expected);
}
