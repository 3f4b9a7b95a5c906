//! `benchmark compare <dirA> <dirB>`: for each (workload, metric) pair
//! found in the `--out` files of two directories, each side's median and
//! quartiles, and a verdict from the bounds in `BENCHMARK.json`.
//!
//! Verdicts, with A the base and B the candidate:
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `better`: B's median is better by more than A's own quartile spread
//!   and B wins at least nine tenths of all (A run, B run) pairs;
//! - `within bound`: neither;
//! - `unresolved`: either side's quartile spread exceeds the bound, unless
//!   every B run is better (or worse) than every A run.
//!
//! Per-layer metrics have no bound; they read `better`/`worse` only when
//! the two sides do not overlap at all, else `no bound`.

use std::collections::BTreeMap;
use std::path::Path;

use spark_util::json::Value;

use crate::stats::{median, quartiles};

/// Direction and bound of one metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the base median a regression may reach; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

/// Loads every metric's direction and bound from a `BENCHMARK.json` text.
///
/// # Errors
///
/// When the text is not JSON or a metric lacks `name` or `better`.
pub fn bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = spark_util::json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without `better`")?;
            let bound = Bound {
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            };
            out.insert(name.to_string(), bound);
        }
    }
    Ok(out)
}

/// `(workload, metric) → values` from every `*.json` run file in `dir`.
fn load(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
    {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = spark_util::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let runs = match &doc {
            Value::Array(items) => items.as_slice(),
            one => std::slice::from_ref(one),
        };
        for run in runs {
            let (Some(workload), Some(Value::Object(metrics))) = (
                run.get("workload").and_then(Value::as_str),
                run.get("metrics"),
            ) else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

fn rel(x: f64, base: f64) -> f64 {
    if base == 0.0 {
        if x == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        x / base.abs()
    }
}

/// The verdict on candidate runs `b` against base runs `a`.
///
/// # Panics
///
/// On an empty side.
pub fn verdict(a: &[f64], b: &[f64], bound: Bound) -> &'static str {
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let better = |x: f64, than: f64| sign * (than - x) > 0.0;
    let (ma, mb) = (median(a), median(b));
    let worse_by = rel(sign * (mb - ma), ma);
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        rel(q3 - q1, median(v))
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let separated = if all_better {
        Some("better")
    } else if all_worse {
        Some("worse")
    } else {
        None
    };
    let Some(limit) = bound.bound else {
        return separated.unwrap_or("no bound");
    };
    if spread(a) > limit || spread(b) > limit {
        return separated.unwrap_or("unresolved");
    }
    let wins = b
        .iter()
        .map(|&y| a.iter().filter(|&&x| better(y, x)).count())
        .sum::<usize>();
    let win_share = wins as f64 / (a.len() * b.len()) as f64;
    if worse_by > limit {
        "worse"
    } else if -worse_by > spread(a) && win_share >= 0.9 {
        "better"
    } else {
        "within bound"
    }
}

/// Runs `benchmark compare <dirA> <dirB>`.
///
/// # Errors
///
/// Bad arguments, unreadable directories or files, or no
/// `BENCHMARK.json` in the working directory.
pub fn run(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare <dirA> <dirB>".into());
    };
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = bounds(&text)?;
    let (runs_a, runs_b) = (load(Path::new(a))?, load(Path::new(b))?);
    let side = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.6} [{:.6} {:.6}] n={}", median(v), q1, q3, v.len())
    };
    println!("workload metric | A median [q1 q3] n | B median [q1 q3] n | change | verdict");
    for (key, va) in &runs_a {
        let Some(vb) = runs_b.get(key) else { continue };
        let Some(&bound) = bounds.get(&key.1) else {
            continue;
        };
        let change = rel(median(vb) - median(va), median(va)) * 100.0;
        println!(
            "{} {} | {} | {} | {change:+.2}% | {}",
            key.0,
            key.1,
            side(va),
            side(vb),
            verdict(va, vb, bound)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        lower_is_better: true,
        bound: Some(0.1),
    };
    const HIGHER: Bound = Bound {
        lower_is_better: false,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&base, &[10.02, 9.98, 10.1, 9.95, 10.0], LOWER),
            "within bound"
        );
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 11.9, 12.0, 12.2], LOWER),
            "worse"
        );
        assert_eq!(verdict(&base, &[9.0, 9.1, 8.9, 9.0, 9.05], LOWER), "better");
        assert_eq!(
            verdict(&base, &[9.0, 9.1, 8.9, 9.0, 9.05], HIGHER),
            "within bound"
        );
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 11.9, 12.0, 12.2], HIGHER),
            "better"
        );
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0];
        assert_eq!(verdict(&noisy, &[10.0, 10.0, 10.0], LOWER), "unresolved");
        assert_eq!(verdict(&noisy, &[1.0, 2.0, 1.5], LOWER), "better");
        let per_layer = Bound {
            lower_is_better: true,
            bound: None,
        };
        assert_eq!(verdict(&base, &[10.0, 10.0], per_layer), "no bound");
        assert_eq!(verdict(&base, &[20.0, 21.0], per_layer), "worse");
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let b = bounds(&text).unwrap();
        assert!(b["setup_s"].lower_is_better);
        assert!(b["setup_s"].bound.is_some());
        assert!(!b["per_cpu_s"].lower_is_better);
        assert_eq!(b["http.wait_us.p50"].bound, None);
    }
}
