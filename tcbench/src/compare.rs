//! `tcbench compare BASE NEW`: applies the `BENCHMARK.json` bounds to two
//! sets of runs.
//!
//! BASE and NEW are each a result file written by `--out`, or a directory
//! of them. For every (workload, end-to-end metric) pair the two sides'
//! medians are compared against the metric's bound; one row per workload
//! shows the worst mark among its metrics. The command fails when any
//! pair reads worse.

use crate::stats::median;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// How one metric moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mark {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// A side's own spread exceeds the bound, so no call can be made.
    Unresolved,
    /// Worse by more than the bound, or the new side failed operations.
    Worse,
}

impl Mark {
    fn name(self) -> &'static str {
        match self {
            Mark::Same => "same",
            Mark::Better => "better",
            Mark::Unresolved => "unresolved",
            Mark::Worse => "worse",
        }
    }
}

/// One end-to-end metric's rule from `BENCHMARK.json`.
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` (exclusive method) computes them; both equal the value for a
/// single sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Relative spread of a sample: interquartile distance over the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Marks one metric from the base and new samples.
pub fn judge(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> (Mark, f64) {
    let (b, n) = (median(base), median(new));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    // Positive means worse.
    let rel = if b == 0.0 {
        0.0
    } else {
        sign * (n - b) / b.abs()
    };
    let worse_of = |x: f64| sign * x;
    let every_new_better = new
        .iter()
        .all(|&x| base.iter().all(|&y| worse_of(x) < worse_of(y)));
    let mark = if spread(base).max(spread(new)) > bound && !every_new_better {
        Mark::Unresolved
    } else if rel > bound {
        Mark::Worse
    } else if rel < -bound {
        Mark::Better
    } else {
        Mark::Same
    };
    (mark, rel)
}

/// `workload → metric → values`, plus `workload → failed operations`.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, u64>,
}

fn load_side(path: &Path) -> Result<Side, String> {
    let files: Vec<_> = if path.is_dir() {
        let mut f: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        f.sort();
        f
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    let mut side = Side::default();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let run = serde_json::from_str_value(&text)
            .map_err(|e| format!("{}: not JSON: {e}", file.display()))?;
        let workloads = run
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: no \"workloads\" object", file.display()))?;
        for (w, result) in workloads {
            let failed = result.get("failed").and_then(Value::as_u64).unwrap_or(0)
                + u64::from(result.get("correct").and_then(Value::as_bool) != Some(true));
            *side.failed.entry(w.clone()).or_default() += failed;
            for (m, v) in result
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap_or(&[])
            {
                if let Some(x) = v.get("value").and_then(Value::as_f64) {
                    side.values
                        .entry(w.clone())
                        .or_default()
                        .entry(m.clone())
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(side)
}

fn load_rules(path: &Path) -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = serde_json::from_str_value(&text)
        .map_err(|e| format!("{}: not JSON: {e}", path.display()))?;
    bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no \"end_to_end\" list", path.display()))?
        .iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("an end_to_end entry has no name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("an end_to_end entry has no bound")?,
            })
        })
        .collect()
}

/// Runs the comparison; `Ok(false)` when any pair reads worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a value")?.clone();
        } else {
            paths.push(a.clone());
        }
    }
    let [base, new] = &paths[..] else {
        return Err("compare takes BASE and NEW".into());
    };
    let rules = load_rules(Path::new(&bench))?;
    let (base, new) = (load_side(Path::new(base))?, load_side(Path::new(new))?);
    let mut ok = true;
    for (w, base_metrics) in &base.values {
        let mut row_mark = Mark::Same;
        let mut cells = Vec::new();
        if new.failed.get(w).copied().unwrap_or(0) > 0 {
            row_mark = Mark::Worse;
            cells.push("failed operations".to_string());
        }
        for rule in &rules {
            let (Some(b), Some(n)) = (
                base_metrics.get(&rule.name),
                new.values.get(w).and_then(|m| m.get(&rule.name)),
            ) else {
                continue;
            };
            let (mark, rel) = judge(b, n, rule.lower_is_better, rule.bound);
            row_mark = row_mark.max(mark);
            cells.push(format!(
                "{} {:+.2}% (bound {:.1}%) {}",
                rule.name,
                rel * 100.0,
                rule.bound * 100.0,
                mark.name()
            ));
        }
        ok &= row_mark != Mark::Worse;
        println!("{w:<16} {:<10} {}", row_mark.name(), cells.join("; "));
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: +20% against a 10% bound is worse.
        assert_eq!(
            judge(&base, &[120.0, 121.0, 119.0], true, 0.10).0,
            Mark::Worse
        );
        // The same move on a higher-is-better metric is better.
        assert_eq!(
            judge(&base, &[120.0, 121.0, 119.0], false, 0.10).0,
            Mark::Better
        );
        assert_eq!(
            judge(&base, &[103.0, 102.0, 104.0], true, 0.10).0,
            Mark::Same
        );
        // A spread wider than the bound cannot be called...
        let noisy = [50.0, 100.0, 150.0, 200.0];
        assert_eq!(judge(&noisy, &[130.0], true, 0.10).0, Mark::Unresolved);
        // ...unless every new run beats every base run.
        assert_eq!(judge(&noisy, &[10.0, 12.0], true, 0.10).0, Mark::Better);
    }
}
