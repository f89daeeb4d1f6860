//! The benchmark's own checks: its metric tables agree with
//! `BENCHMARK.json`, and a `--smoke` run of every workload in both modes
//! reports every listed metric with a unit and no failed operation.

use super::*;
use crate::json::Json;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("pinbench sits in the repository root")
}

fn benchmark_json() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {item:?}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn quartiles_are_by_nearest_rank() {
    let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!((quiet(&ten), quiet_high(&ten), p90(&ten)), (3.0, 8.0, 9.0));
    assert_eq!((quiet(&ten[..5]), quiet_high(&ten[..5])), (7.0, 9.0));
    assert_eq!((quiet(&ten[..4]), quiet_high(&ten[..4])), (7.0, 10.0));
    assert_eq!(
        (quiet(&[2.5]), quiet_high(&[2.5]), p90(&[2.5])),
        (2.5, 2.5, 2.5)
    );
}

#[test]
fn tables_agree_with_benchmark_json() {
    let doc = benchmark_json();
    let listed = |key: &str| doc.get(key).expect("key present").as_arr().to_vec();

    let workloads: Vec<String> = listed("workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths").map(Json::as_arr),
        Some(&[Json::Str("pinbench".to_string())][..])
    );

    let end_to_end = listed("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (item, metric) in end_to_end.iter().zip(END_TO_END) {
        assert!(well_formed(metric.name), "{}", metric.name);
        assert_eq!(field(item, "name"), metric.name);
        assert_eq!(field(item, "unit"), metric.unit);
        let better = match metric.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(field(item, "better"), better);
        assert_eq!(item.get("bound").and_then(Json::as_f64), Some(metric.bound));
    }

    let per_layer = listed("per_layer");
    assert_eq!(per_layer.len(), layers::PER_LAYER.len());
    for (item, (name, unit)) in per_layer.iter().zip(layers::PER_LAYER) {
        assert!(well_formed(name), "{name}");
        assert_eq!(field(item, "name"), name);
        assert_eq!(field(item, "unit"), unit);
    }
}

/// Builds the release `pinpoint` binary the way `run.sh` does and returns
/// the target directory it landed in.
fn built_target_dir() -> PathBuf {
    let root = repo_root();
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "pinpoint",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .current_dir(root)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building pinpoint failed");
    root.join(std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from))
}

#[test]
fn smoke_run_reports_every_metric_of_every_workload() {
    let target_dir = built_target_dir();
    let pinpoint = locate_pinpoint(None, &target_dir).expect("release binary was just built");
    for trace in [false, true] {
        for workload in WORKLOADS {
            let ctx = Ctx {
                pinpoint: pinpoint.clone(),
                // Relative to the package root, where cargo runs tests.
                work: Path::new("target/pinbench-test-work").join(workload),
                target_dir: "target".into(),
                seed: 7,
                seconds: 1.0,
                smoke: true,
            };
            let outcome = run_one(&ctx, workload, trace)
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
            assert!(outcome.correct, "{workload} trace={trace}");
            assert!(outcome.attempted >= 1);
            let reported: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let expected: Vec<(&str, &str)> = if trace {
                layers::PER_LAYER.to_vec()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            assert_eq!(reported, expected, "{workload} trace={trace}");
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                // End-to-end metrics are never zero, on any workload.
                assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
            }
            // The result line is the contract's shape and parses back.
            let line = json::parse(&result_line(&outcome)).expect("result line parses");
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}
