//! Evaluates **profile-guided refinement** against the static auto-DAE
//! compiler: per benchmark, compile statically, replay the workload once
//! through the instrumented scheduler to collect phase profiles, refine
//! with those profiles through the driver's `refine` pass, and compare
//! the EDP of the two builds under identical runtime settings.
//!
//! Writes `target/repro/BENCH_pgo_<mode>.json` recording per-benchmark
//! static/refined EDP and the ISSUE 9 acceptance facts: the geomean
//! refined EDP is no worse than static, at least one benchmark improves
//! by ≥3%, and no benchmark regresses by >1%.
//!
//! Run: `cargo bench -p dae-bench --bench pgo`
//! Smoke (CI): `DAE_BENCH_SMOKE=1 cargo bench -p dae-bench --bench pgo`
//! (or pass `--smoke`): the small-size corpus.

use dae_bench::{geomean, out_dir, print_table, write_summary_json, Row};
use dae_driver::{Driver, DriverConfig};
use dae_ir::verify_module;
use dae_pgo::{ProfileCollector, ProfileSet};
use dae_power::DvfsConfig;
use dae_runtime::{
    run_workload, run_workload_with, FreqPolicy, RunHooks, RunReport, RuntimeConfig,
};
use dae_trace::json::JsonValue;
use dae_workloads::{all_benchmarks, all_benchmarks_small, Variant, Workload};

fn runtime_cfg() -> RuntimeConfig {
    RuntimeConfig::paper_default()
        .with_policy(FreqPolicy::DaeMinMax)
        .with_dvfs(DvfsConfig::latency_500ns())
}

/// A pristine copy of benchmark `i` of the chosen corpus (compilation
/// mutates the module, so static and refined builds each start fresh).
fn fresh(i: usize, smoke: bool) -> Workload {
    let mut v = if smoke { all_benchmarks_small() } else { all_benchmarks() };
    v.remove(i)
}

/// Compiles `w` through the driver (with `profiles` when given),
/// installs and verifies the result, and returns the workload plus the
/// outcome's base task keys and refined-task count.
fn build(
    mut w: Workload,
    profiles: Option<&ProfileSet>,
) -> (Workload, std::collections::HashMap<dae_ir::FuncId, u64>, usize) {
    let mut driver = Driver::new(&DriverConfig::default());
    if let Some(set) = profiles {
        driver.set_profiles(set.clone());
    }
    let opts = w.auto_options_fn();
    let outcome = driver.compile(&mut w.module, opts);
    let (keys, refined) = (outcome.keys.clone(), outcome.refined);
    w.install_auto(outcome.map);
    verify_module(&w.module).unwrap_or_else(|e| panic!("{}: invalid: {e}", w.name));
    (w, keys, refined)
}

fn run(w: &Workload) -> RunReport {
    run_workload(&w.module, &w.tasks(Variant::AutoDae), &runtime_cfg())
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// Replays `w` once through the instrumented scheduler and returns its
/// profiles keyed by the driver's base task keys — exactly the mapping
/// `daec --profile-out` performs.
fn collect(w: &Workload, keys: &std::collections::HashMap<dae_ir::FuncId, u64>) -> ProfileSet {
    let mut col = ProfileCollector::new();
    let hooks = RunHooks { collector: Some(&mut col), ..Default::default() };
    run_workload_with(&w.module, &w.tasks(Variant::AutoDae), &runtime_cfg(), hooks)
        .unwrap_or_else(|e| panic!("{}: profiled run failed: {e}", w.name));
    let mut set = ProfileSet::default();
    for (func, profile) in col.take() {
        if let Some(&key) = keys.get(&func) {
            set.insert(key, profile);
        }
    }
    set
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("DAE_BENCH_SMOKE").is_some();
    let mode = if smoke { "smoke" } else { "full" };
    let count = if smoke { all_benchmarks_small().len() } else { all_benchmarks().len() };
    println!("Profile-guided refinement [{mode}]: {count} benchmarks, static vs refined EDP");

    let mut rows = Vec::new();
    let mut bench_json = Vec::new();
    let mut reports = Vec::new();
    let mut ratios = Vec::new();
    let mut any_improved_3pct = false;
    let mut none_regressed_1pct = true;

    for i in 0..count {
        // Static build + one profiled replay of its workload.
        let (w_static, keys, _) = build(fresh(i, smoke), None);
        let static_report = run(&w_static);
        let profiles = collect(&w_static, &keys);

        // Refined build from those profiles, same runtime settings.
        let (w_refined, _, refined_tasks) = build(fresh(i, smoke), Some(&profiles));
        let refined_report = run(&w_refined);

        let (s, r) = (static_report.edp(), refined_report.edp());
        let ratio = r / s;
        ratios.push(ratio);
        any_improved_3pct = any_improved_3pct || ratio <= 0.97;
        none_regressed_1pct = none_regressed_1pct && ratio <= 1.01;

        rows.push(Row {
            label: w_static.name.to_string(),
            values: vec![s, r, (ratio - 1.0) * 100.0, refined_tasks as f64],
        });
        bench_json.push(JsonValue::obj([
            ("name", w_static.name.into()),
            ("static_edp", s.into()),
            ("refined_edp", r.into()),
            ("refined_over_static", ratio.into()),
            ("refined_tasks", refined_tasks.into()),
            ("profile_records", profiles.len().into()),
            ("improved_3pct", (ratio <= 0.97).into()),
            ("regressed_1pct", (ratio > 1.01).into()),
        ]));
        reports.push((format!("{}/static", w_static.name), static_report));
        reports.push((format!("{}/refined", w_static.name), refined_report));
    }

    let gm = geomean(ratios.iter().copied());
    let geomean_no_worse = gm <= 1.0;
    rows.push(Row {
        label: "G.Mean".to_string(),
        values: vec![f64::NAN, f64::NAN, (gm - 1.0) * 100.0, f64::NAN],
    });

    let columns = ["static EDP", "refined EDP", "delta %", "refined tasks"];
    print_table(&format!("Static vs profile-refined auto-DAE EDP [{mode}]"), &columns, &rows, 3);
    println!(
        "\ngeomean refined/static: {gm:.4} ({:+.2}%) — no worse: {}; \
         >=1 benchmark >=3% better: {}; none >1% worse: {}",
        (gm - 1.0) * 100.0,
        if geomean_no_worse { "yes" } else { "NO" },
        if any_improved_3pct { "yes" } else { "NO" },
        if none_regressed_1pct { "yes" } else { "NO" },
    );

    let accepted = geomean_no_worse && any_improved_3pct && none_regressed_1pct;
    let v = JsonValue::obj([
        ("schema", "dae-pgo-bench/1".into()),
        ("mode", mode.into()),
        ("geomean_refined_over_static", gm.into()),
        ("geomean_no_worse", geomean_no_worse.into()),
        ("any_improved_3pct", any_improved_3pct.into()),
        ("none_regressed_1pct", none_regressed_1pct.into()),
        ("accepted", accepted.into()),
        ("benchmarks", JsonValue::Arr(bench_json)),
    ]);
    let path = out_dir().join(format!("BENCH_pgo_{mode}.json"));
    std::fs::write(&path, v.to_json_string()).expect("write pgo bench json");
    println!("   -> {}", path.display());

    write_summary_json(&format!("pgo_{mode}_reports"), &reports);
}
