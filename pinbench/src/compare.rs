//! `pinbench compare A.jsonl B.jsonl`: for every pairing of end-to-end
//! metric and workload, both medians, the relative change, the bound and
//! a verdict. Each file holds the `--out` lines of several runs of one
//! commit; A is the baseline.

use crate::json::{self, Json};
use crate::{median, Better, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;

/// Values by (workload, metric), and failed operations by workload.
#[derive(Default)]
struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, u64>,
}

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if doc.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let result = doc
            .get("result")
            .ok_or_else(|| format!("{}:{}: no result", path.display(), n + 1))?;
        *runs.failed.entry(workload.to_string()).or_default() +=
            result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        for (name, metric) in result.get("metrics").map_or(&[][..], Json::as_obj) {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                runs.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// Distance between the first and third quartile as a share of the
/// median; quartiles as Python's `statistics.quantiles(values, n=4)`.
/// Fewer than two values have no spread.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (base, new) = (load(a)?, load(b)?);
    let mut worse = 0;
    println!("workload metric unit base new change bound spread verdict");
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (base.values.get(&key), new.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            // Positive when the new side is worse.
            let change = match metric.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let noise = spread(va).max(spread(vb));
            let verdict = if noise > metric.bound {
                "unresolved"
            } else if change > metric.bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{workload} {} {} {ma} {mb} {:+.2}% {}% {:.2}% {verdict}",
                metric.name,
                metric.unit,
                change * 100.0,
                metric.bound * 100.0,
                noise * 100.0
            );
        }
        // Any additional failed operation is a regression, whatever the times say.
        let (fa, fb) = (
            base.failed.get(workload).copied().unwrap_or(0),
            new.failed.get(workload).copied().unwrap_or(0),
        );
        if base.failed.contains_key(workload) || new.failed.contains_key(workload) {
            let verdict = if fb > fa {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!("{workload} failed count {fa} {fb} - 0 - {verdict}");
        }
    }
    if worse > 0 {
        return Err(format!("{worse} pairing(s) worse than their bound"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
