//! Golden snapshot tests: the full canonical report text of every
//! `tests/corpus/*.pp` file is pinned under `tests/golden/`. Unlike the
//! count-based corpus runner, these catch silent changes to report
//! *content* — paths, witnesses, ordering, rendering.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_corpus
//! ```

use pinpoint::{Analysis, CheckerKind, Query};
use std::fmt::Write as _;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The canonical report text of one corpus program: every checker's
/// reports (with step paths and witnesses) plus leak reports (with
/// witnesses), in deterministic order.
fn render(source: &str) -> String {
    let analysis = Analysis::from_source(source).expect("corpus file compiles");
    let mut out = String::new();
    for kind in CheckerKind::ALL {
        for r in analysis.session().query(&Query::Check(kind)).into_reports() {
            let _ = writeln!(out, "{r}");
            for s in &r.path {
                let f = analysis.module.func(s.func);
                let _ = writeln!(
                    out,
                    "  step {}:{} {}",
                    f.name,
                    f.value_name(s.value),
                    s.note
                );
            }
            for (name, value) in &r.witness {
                let _ = writeln!(out, "  witness {name}={value}");
            }
        }
    }
    for l in analysis.session().query(&Query::Leaks).into_leaks() {
        let _ = writeln!(
            out,
            "[leak:{:?}] allocation at {} in `{}`",
            l.kind,
            l.alloc_site,
            analysis.module.func(l.func).name
        );
        for (name, value) in &l.witness {
            let _ = writeln!(out, "  witness {name}={value}");
        }
    }
    if out.is_empty() {
        out.push_str("no reports\n");
    }
    out
}

/// Line-level diff rendering for mismatch messages.
fn diff(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..e.len().max(a.len()) {
        match (e.get(i), a.get(i)) {
            (Some(x), Some(y)) if x == y => {
                let _ = writeln!(out, "  {x}");
            }
            (x, y) => {
                if let Some(x) = x {
                    let _ = writeln!(out, "- {x}");
                }
                if let Some(y) = y {
                    let _ = writeln!(out, "+ {y}");
                }
            }
        }
    }
    out
}

#[test]
fn golden_snapshots_match() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let mut entries: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pp"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    if update {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for path in &entries {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(path).expect("readable corpus file");
        let actual = render(&source);
        let golden_path = golden_dir().join(format!("{stem}.txt"));
        if update {
            std::fs::write(&golden_path, &actual).expect("write golden");
            continue;
        }
        match std::fs::read_to_string(&golden_path) {
            Ok(expected) => {
                if expected != actual {
                    failures.push(format!(
                        "{stem}: report text diverged from {} (run with UPDATE_GOLDEN=1 to \
                         accept):\n{}",
                        golden_path.display(),
                        diff(&expected, &actual)
                    ));
                }
            }
            Err(_) => failures.push(format!(
                "{stem}: missing golden file {} (run with UPDATE_GOLDEN=1 to create)",
                golden_path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches:\n{}",
        failures.join("\n")
    );
}

/// Every golden file corresponds to a live corpus program — stale
/// snapshots fail loudly instead of rotting.
#[test]
fn no_orphan_golden_files() {
    let Ok(dir) = std::fs::read_dir(golden_dir()) else {
        return; // not yet generated
    };
    let corpus: std::collections::HashSet<String> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pp"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let orphans: Vec<String> = dir
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .filter(|stem| !corpus.contains(stem))
        .collect();
    assert!(
        orphans.is_empty(),
        "golden files without corpus programs: {orphans:?}"
    );
}
