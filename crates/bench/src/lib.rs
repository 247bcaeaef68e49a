//! # dae-bench — figure/table and EDP harnesses (model outputs)
//!
//! Shared machinery for the bench targets (`cargo bench -p dae-bench`):
//!
//! * [`run_variant`] — executes one benchmark under one
//!   variant/policy/DVFS-latency configuration and returns the runtime
//!   report,
//! * [`Row`]/[`print_table`]/[`write_csv`] — aligned text tables on stdout
//!   plus CSV files under `target/repro/`,
//! * [`write_summary_json`] — machine-readable `BENCH_<name>.json` files
//!   with the full [`RunReport`] per configuration,
//! * [`geomean`] — the paper's summary statistic.
//!
//! | Bench target | Regenerates |
//! |---|---|
//! | `table1` | Table 1 (application characteristics) |
//! | `fig3` | Figure 3 a/b/c at 500 ns and the 0 ns projection |
//! | `fig4` | Figure 4 a–f (per-frequency time/energy profiles) |
//! | `ablations` | design-choice ablations from DESIGN.md |
//! | `governor` | online governors vs. the offline policies (EDP) |
//! | `pgo` | static vs. profile-refined EDP |
//!
//! Every target reports model quantities (virtual time, energy, EDP).
//! Host wall-clock is measured by `dae-perf` (`crates/perf`), nowhere here.

#![warn(missing_docs)]

use dae_power::DvfsConfig;
use dae_runtime::{run_workload, FreqPolicy, RunReport, RuntimeConfig};
use dae_trace::json::JsonValue;
use dae_workloads::{Variant, Workload};
use std::fs;
use std::path::PathBuf;

/// Runs `workload` under the given variant, policy and DVFS latency.
///
/// # Panics
///
/// Panics on interpreter traps — benchmark programs are expected to run.
pub fn run_variant(
    w: &Workload,
    variant: Variant,
    policy: FreqPolicy,
    dvfs: DvfsConfig,
) -> RunReport {
    let cfg = RuntimeConfig::paper_default().with_policy(policy).with_dvfs(dvfs);
    run_workload(&w.module, &w.tasks(variant), &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// The output directory for CSV artefacts (`target/repro`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/repro");
    fs::create_dir_all(&dir).expect("create target/repro");
    dir
}

/// One row of an output table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (benchmark name, configuration, …).
    pub label: String,
    /// Cell values, one per column.
    pub values: Vec<f64>,
}

/// Prints an aligned table with a title and column headers.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row], precision: usize) {
    println!("\n== {title} ==");
    print!("{:<22}", "");
    for c in columns {
        print!("{c:>14}");
    }
    println!();
    for r in rows {
        print!("{:<22}", r.label);
        for v in &r.values {
            print!("{v:>14.precision$}");
        }
        println!();
    }
}

/// Writes the same table as CSV under `target/repro/<name>.csv`.
pub fn write_csv(name: &str, columns: &[&str], rows: &[Row]) {
    let mut text = String::from("label");
    for c in columns {
        text.push(',');
        text.push_str(c);
    }
    text.push('\n');
    for r in rows {
        text.push_str(&r.label);
        for v in &r.values {
            text.push_str(&format!(",{v}"));
        }
        text.push('\n');
    }
    let path = out_dir().join(format!("{name}.csv"));
    fs::write(&path, text).expect("write csv");
    println!("   -> {}", path.display());
}

/// Writes full run reports as `target/repro/BENCH_<name>.json` — one
/// labelled [`RunReport`] per entry, serialised with the hand-rolled JSON
/// writer so downstream plotting needs no CSV re-parsing.
pub fn write_summary_json(name: &str, entries: &[(String, RunReport)]) {
    let v = JsonValue::obj([
        ("schema", "dae-bench-report/1".into()),
        ("bench", name.into()),
        (
            "runs",
            JsonValue::Arr(
                entries
                    .iter()
                    .map(|(label, report)| {
                        JsonValue::obj([
                            ("label", label.as_str().into()),
                            ("report", report.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir().join(format!("BENCH_{name}.json"));
    fs::write(&path, v.to_json_string()).expect("write bench json");
    println!("   -> {}", path.display());
}

/// Geometric mean of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean needs positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn run_variant_smoke() {
        let w = dae_workloads::lu::build_sized(16, 8);
        let r = run_variant(&w, Variant::Cae, FreqPolicy::CoupledMax, DvfsConfig::latency_500ns());
        assert!(r.time_s > 0.0);
    }

    #[test]
    fn summary_json_carries_labelled_reports() {
        let w = dae_workloads::lu::build_sized(16, 8);
        let r = run_variant(&w, Variant::Cae, FreqPolicy::CoupledMax, DvfsConfig::latency_500ns());
        write_summary_json("unit_test", &[("lu/cae".to_string(), r.clone())]);
        let text = fs::read_to_string(out_dir().join("BENCH_unit_test.json")).unwrap();
        let v = dae_trace::json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("dae-bench-report/1"));
        let runs = v.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("label").unwrap().as_str(), Some("lu/cae"));
        let time = runs[0].get("report").unwrap().get("time_s").unwrap().as_f64().unwrap();
        assert_eq!(time.to_bits(), r.time_s.to_bits());
    }
}
