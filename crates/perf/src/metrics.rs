//! Metric declarations, sample statistics and the result record.
//!
//! The metric tables are not spelled out in Rust: they are read from the
//! repository's `BENCHMARK.json`, embedded at build time, so the file the
//! driver reads and the names this program emits cannot drift apart.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use dae_trace::json::{parse, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Decl {
    /// Metric name as emitted.
    pub name: String,
    /// Unit string as emitted.
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug)]
pub struct Declared {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (printed by an untraced run).
    pub end_to_end: Vec<Decl>,
    /// Per-layer metrics (printed by a traced run).
    pub per_layer: Vec<Decl>,
    /// Seconds one run measures for.
    pub run_seconds: f64,
}

fn decls(doc: &JsonValue, key: &str) -> Vec<Decl> {
    let items = doc.get(key).and_then(JsonValue::as_arr).expect("BENCHMARK.json: metric list");
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect("metric field");
            Decl {
                name: s("name").to_string(),
                unit: s("unit").to_string(),
                higher_is_better: s("better") == "higher",
                bound: m.get("bound").and_then(JsonValue::as_f64),
            }
        })
        .collect()
}

/// The declarations of the embedded `BENCHMARK.json`.
pub fn declared() -> &'static Declared {
    static D: OnceLock<Declared> = OnceLock::new();
    D.get_or_init(|| {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("workload name").to_string())
            .collect();
        Declared {
            workloads,
            end_to_end: decls(&doc, "end_to_end"),
            per_layer: decls(&doc, "per_layer"),
            run_seconds: doc.get("run_seconds").and_then(JsonValue::as_f64).expect("run_seconds"),
        }
    })
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (exclusive method); both equal the sample for one value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The exact `q`-quantile of sorted raw samples: the smallest sample with
/// at least `q · n` samples at or below it; for `q = 0.5` the median, so
/// that an even count of unlike operations does not flip between its two
/// middle samples.
pub fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    if q == 0.5 {
        let n = sorted.len();
        return (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Mean of the best tenth of `values` (at least one of them): the
/// highest when higher is better, else the lowest.
///
/// Every timing metric is reported this way from per-repetition values. On
/// a shared host the noise is one-sided and comes in spells that last
/// seconds — a neighbour only ever slows a repetition down — so the median
/// of a run's repetitions follows how much of the run the spells covered,
/// while the best tenth sits at what the code costs when left alone. The
/// median and quartiles over all repetitions are printed beside each value.
pub fn best_tenth(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let k = (v.len() / 10).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// One reported value with the spread of the repetitions behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Stat {
    /// The reported value.
    pub value: f64,
    /// Median over all repetitions.
    pub median: f64,
    /// First quartile over all repetitions.
    pub q1: f64,
    /// Third quartile over all repetitions.
    pub q3: f64,
    /// Repetitions measured.
    pub reps: usize,
}

impl Stat {
    /// A value measured once (or a count).
    pub fn once(value: f64) -> Stat {
        Stat { value, median: value, q1: value, q3: value, reps: 1 }
    }

    /// `value` as computed by the caller, with the per-repetition values
    /// it was selected from as context.
    pub fn of(value: f64, reps: &[f64]) -> Stat {
        let (q1, q3) = quartiles(reps);
        Stat { value, median: median(reps), q1, q3, reps: reps.len() }
    }

    /// The [`best_tenth`] of per-repetition values.
    pub fn best_of(reps: &[f64], higher_is_better: bool) -> Stat {
        Stat::of(best_tenth(reps, higher_is_better), reps)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed ones plus oracle checks).
    pub attempted: u64,
    /// Operations that failed, were shed or produced a wrong output.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, Stat>,
    /// Run facts that are not metrics: repetitions, window, sample counts,
    /// stream digest.
    pub facts: Vec<(String, JsonValue)>,
    /// Text to print before the result line (the layer-share table).
    pub report: String,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, stat: Stat) {
        self.metrics.insert(name.to_string(), stat);
    }

    /// Records a metric measured once.
    pub fn set_once(&mut self, name: &str, value: f64) {
        self.set(name, Stat::once(value));
    }

    /// Records a run fact.
    pub fn fact(&mut self, name: &str, value: impl Into<JsonValue>) {
        self.facts.push((name.to_string(), value.into()));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result line the driver reads: every metric of `decls`, a
    /// per-layer metric this workload does not enter reading 0.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the run did not measure, or a measured
    /// metric that is not finite.
    pub fn result_line(&self, decls: &[Decl], end_to_end: bool) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(decls.len());
        for d in decls {
            let value = match self.metrics.get(&d.name) {
                Some(s) if s.value.is_finite() => s.value,
                Some(s) => return Err(format!("metric `{}` is not finite: {}", d.name, s.value)),
                None if end_to_end => return Err(format!("metric `{}` was not measured", d.name)),
                None => 0.0,
            };
            metrics.push((
                d.name.clone(),
                JsonValue::obj([("value", value.into()), ("unit", d.unit.as_str().into())]),
            ));
        }
        Ok(JsonValue::obj([
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Obj(metrics)),
        ])
        .to_json_string())
    }
}

/// One timed repetition of a workload: a window of requests or a pass
/// over a stream. Only the repetition's own statistics are kept, so a run
/// holds no second copy of its raw samples.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Operations completed per second in the repetition.
    pub ops_per_s: f64,
    /// Exact median of the repetition's latency samples, in milliseconds.
    pub p50_ms: f64,
    /// Exact 90th percentile of the same samples.
    pub p90_ms: f64,
    /// Exact 99th percentile of the same samples.
    pub p99_ms: f64,
    /// Latency samples the quantiles were taken from.
    pub samples: usize,
}

impl Rep {
    /// A repetition from its throughput and the latency of each of its
    /// operations in milliseconds; sorts `lat_ms` in place.
    pub fn new(ops_per_s: f64, lat_ms: &mut [f64]) -> Rep {
        lat_ms.sort_by(f64::total_cmp);
        Rep {
            ops_per_s,
            p50_ms: exact_quantile(lat_ms, 0.50),
            p90_ms: exact_quantile(lat_ms, 0.90),
            p99_ms: exact_quantile(lat_ms, 0.99),
            samples: lat_ms.len(),
        }
    }
}

impl Outcome {
    /// Reports `ops_per_s`, `p50_ms` and `p90_ms` as each metric's own
    /// [`best_tenth`] over the repetitions, and records the same for the
    /// 99th percentile as a run fact: its place is among the per-layer
    /// metrics (`client.p99_ms`), because no estimate of it held a bound
    /// on a shared host.
    pub fn report_reps(&mut self, reps: &[Rep]) {
        let of = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        self.set("ops_per_s", Stat::best_of(&of(&|r| r.ops_per_s), true));
        self.set("p50_ms", Stat::best_of(&of(&|r| r.p50_ms), false));
        self.set("p90_ms", Stat::best_of(&of(&|r| r.p90_ms), false));
        self.fact("p99_ms", best_tenth(&of(&|r| r.p99_ms), false));
        self.fact("repetitions", reps.len());
        self.fact(
            "samples_in_smallest_repetition",
            reps.iter().map(|r| r.samples).min().unwrap_or(0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_tenth_averages_the_best_values() {
        let values: Vec<f64> = (0..25).map(|i| f64::from((i * 7) % 25)).collect();
        assert_eq!(best_tenth(&values, true), 23.5);
        assert_eq!(best_tenth(&values, false), 0.5);
        assert_eq!(best_tenth(&[3.0, 9.0, 1.0], true), 9.0);
        assert_eq!(best_tenth(&[3.0, 9.0, 1.0], false), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn exact_quantile_is_a_sample() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(exact_quantile(&xs, 0.5), 100.5);
        assert_eq!(exact_quantile(&xs, 0.99), 198.0);
        assert_eq!(exact_quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn declarations_are_well_formed() {
        let d = declared();
        assert!(d.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> =
            d.end_to_end.iter().chain(&d.per_layer).map(|m| m.name.as_str()).collect();
        names.extend(d.workloads.iter().map(String::as_str));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }
}
