//! `dae-perf --compare A.json B.json`: two result sets of the same
//! benchmark, one row per (workload, metric).
//!
//! End-to-end metrics compare medians over each set's untraced runs
//! against the metric's bound from `BENCHMARK.json`. A row reads
//! `unresolved` when either set's own run-to-run spread (quartile
//! distance over median) is wider than the bound, unless every run of B
//! is better than every run of A. Metrics with unit `count` or `ratio`
//! are simulated quantities: on the same seed they must be equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use dae_trace::json::{parse, JsonValue};

use crate::metrics::{declared, median, quartiles};

/// Metric values of one set: `(workload, metric) -> one value per run`,
/// runs in file order.
type Values = BTreeMap<(String, String), Vec<f64>>;

struct Set {
    end_to_end: Values,
    /// Traced runs keyed by seed as well: `(workload, seed, metric)`.
    exact: BTreeMap<(String, u64, String), f64>,
    failed: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{}: not a dae-perf result set", path.display()))?;
    let mut set =
        Set { end_to_end: Values::new(), exact: BTreeMap::new(), failed: BTreeMap::new() };
    for run in runs {
        let field =
            |k: &str| run.get(k).ok_or_else(|| format!("{}: run without `{k}`", path.display()));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let traced = field("trace")?.as_bool().unwrap_or_default();
        *set.failed.entry(workload.clone()).or_default() +=
            field("failed")?.as_f64().unwrap_or(1.0);
        for (name, m) in field("metrics")?.as_obj().unwrap_or_default() {
            let value = m.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or_default();
            if !traced {
                set.end_to_end.entry((workload.clone(), name.clone())).or_default().push(value);
            } else if unit == "count" || unit == "ratio" {
                set.exact.insert((workload.clone(), seed, name.clone()), value);
            }
        }
    }
    Ok(set)
}

fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Compares two result-set files. Returns the table and whether any row
/// reads `worse` or `differs`.
///
/// # Errors
///
/// A file that cannot be read or is not a result set.
pub fn compare_files(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (a, b) = (load(a)?, load(b)?);
    let d = declared();
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "iqr A", "iqr B", "bound"
    );
    for w in &d.workloads {
        for m in &d.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.end_to_end.get(&key), b.end_to_end.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(xa), median(xb));
            let bound = m.bound.unwrap_or(0.0);
            let worse_by = if m.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
            let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
            let b_always_better = xb.iter().all(|&y| xa.iter().all(|&x| better(y, x)));
            let (sa, sb) = (spread(xa), spread(xb));
            let verdict = if (sa > bound || sb > bound) && !b_always_better {
                "unresolved"
            } else if worse_by > bound {
                bad = true;
                "worse"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{w:<14} {:<14} {ma:>14.6} {mb:>14.6} {:>8.4} {:>6.2}% {:>6.2}% {:>5.1}%  {verdict}",
                m.name,
                mb / ma,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
            );
        }
        let failed =
            a.failed.get(w).copied().unwrap_or(0.0) + b.failed.get(w).copied().unwrap_or(0.0);
        bad |= failed > 0.0;
        let _ = writeln!(out, "{w:<14} {:<14} {failed:>14} failed operations in A and B", "failed");
    }
    let _ = writeln!(out, "\nsimulated quantities (must be equal on the same seed):");
    for ((w, seed, name), va) in &a.exact {
        let Some(vb) = b.exact.get(&(w.clone(), *seed, name.clone())) else { continue };
        let equal = va.to_bits() == vb.to_bits();
        bad |= !equal;
        let _ = writeln!(
            out,
            "{w:<14} {name:<28} seed {seed:<6} {va:>20} {vb:>20}  {}",
            if equal { "equal" } else { "differs" }
        );
    }
    Ok((out, bad))
}
