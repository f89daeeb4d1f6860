//! Data-driven regression corpus.
//!
//! Every `tests/corpus/*.pp` file starts with an expectation header:
//!
//! ```text
//! // expect: uaf=1 taint-pt=0 taint-dt=0 null=0
//! ```
//!
//! Omitted checkers default to `0`. The runner analyses each file with
//! every checker and compares report counts, and additionally asserts
//! that the verdicts are invariant under IR optimisation (the cleanup
//! passes must not change what the analysis finds).
//!
//! Minimized reproducers written by `pinpoint fuzz` land in
//! `tests/corpus/fuzz-regressions/` and are picked up the same way, so
//! every fuzz-found bug stays pinned after its fix.

use pinpoint::{Analysis, CheckerKind, Query};
use std::collections::HashMap;
use std::path::PathBuf;

/// Sentinel for leak expectations in the header (`leak=N`).
const LEAK_KEY: &str = "leak";

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn parse_expectations(source: &str, file: &str) -> (HashMap<CheckerKind, usize>, usize) {
    let header = source
        .lines()
        .find(|l| l.trim_start().starts_with("// expect:"))
        .unwrap_or_else(|| panic!("{file}: missing `// expect:` header"));
    let mut out: HashMap<CheckerKind, usize> =
        CheckerKind::ALL.into_iter().map(|k| (k, 0usize)).collect();
    let mut leaks = 0usize;
    let spec = header.trim_start().trim_start_matches("// expect:");
    for part in spec.split_whitespace() {
        let (key, value) = part
            .split_once('=')
            .unwrap_or_else(|| panic!("{file}: malformed expectation `{part}`"));
        let n: usize = value
            .parse()
            .unwrap_or_else(|_| panic!("{file}: bad count `{value}`"));
        if key == LEAK_KEY {
            leaks = n;
            continue;
        }
        let kind = match key {
            "uaf" => CheckerKind::UseAfterFree,
            "taint-pt" => CheckerKind::PathTraversal,
            "taint-dt" => CheckerKind::DataTransmission,
            "null" => CheckerKind::NullDeref,
            other => panic!("{file}: unknown checker `{other}`"),
        };
        out.insert(kind, n);
    }
    (out, leaks)
}

fn check_counts(
    label: &str,
    file: &str,
    analysis: Analysis,
    expected: &HashMap<CheckerKind, usize>,
    expected_leaks: usize,
    failures: &mut Vec<String>,
) {
    for (&kind, &want) in expected {
        let got = analysis
            .session()
            .query(&Query::Check(kind))
            .into_reports()
            .len();
        if got != want {
            failures.push(format!(
                "{file} [{label}] {kind}: expected {want}, got {got}"
            ));
        }
    }
    let got_leaks = analysis.session().query(&Query::Leaks).into_leaks().len();
    if got_leaks != expected_leaks {
        failures.push(format!(
            "{file} [{label}] leaks: expected {expected_leaks}, got {got_leaks}"
        ));
    }
}

/// Lists the `.pp` programs directly inside `dir` (non-recursive).
fn pp_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pp"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn fuzz_regression_corpus_is_discovered() {
    // The shrinker writes reproducers into this directory; the corpus
    // run must see it and it must stay seeded.
    let dir = corpus_dir().join("fuzz-regressions");
    assert!(dir.is_dir(), "{} must exist", dir.display());
    assert!(
        !pp_files(&dir).is_empty(),
        "fuzz-regressions corpus must not be empty"
    );
}

#[test]
fn corpus_expectations_hold() {
    let dir = corpus_dir();
    let mut entries = pp_files(&dir);
    let fuzz_dir = dir.join("fuzz-regressions");
    if fuzz_dir.is_dir() {
        entries.extend(pp_files(&fuzz_dir));
    }
    assert!(!entries.is_empty(), "corpus must not be empty");
    let mut failures = Vec::new();
    for path in &entries {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(path).expect("readable");
        let (expected, expected_leaks) = parse_expectations(&source, &file);
        // Raw module.
        match Analysis::from_source(&source) {
            Ok(a) => check_counts("raw", &file, a, &expected, expected_leaks, &mut failures),
            Err(e) => failures.push(format!("{file}: does not compile: {e}")),
        }
        // Optimised module: verdicts must be identical.
        match pinpoint::compile(&source) {
            Ok(mut module) => {
                pinpoint::ir::optimize_module(&mut module);
                let a = Analysis::from_module(module);
                check_counts(
                    "optimised",
                    &file,
                    a,
                    &expected,
                    expected_leaks,
                    &mut failures,
                );
            }
            Err(e) => failures.push(format!("{file}: does not compile: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "corpus failures:\n{}",
        failures.join("\n")
    );
}
