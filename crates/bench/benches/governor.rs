//! Evaluates the **online DVFS governors** against the paper's static
//! policies: per benchmark, the EDP of `MissRatioHeuristic` and `BanditEdp`
//! (cold and after a warm-up of repeated runs, the governor state carried
//! across runs) normalized to the exhaustive `DaeOptimal` oracle, plus the
//! bandit's run-by-run **regret trajectory** vs the oracle.
//!
//! Writes `target/repro/BENCH_governor_<mode>.json` recording, per
//! benchmark, whether the warmed-up bandit lands within 10% of the oracle
//! and whether the heuristic beats `DaeMinMax` — the ISSUE 3 acceptance
//! facts — alongside the full run reports (including each governor's
//! learned per-class frequency table).
//!
//! Run: `cargo bench -p dae-bench --bench governor`
//! Smoke (CI): `DAE_BENCH_SMOKE=1 cargo bench -p dae-bench --bench governor`
//! (or pass `--smoke`): one small benchmark, short trajectory.

use dae_bench::{geomean, out_dir, print_table, run_variant, write_summary_json, Row};
use dae_power::DvfsConfig;
use dae_runtime::{
    run_workload_with, FreqPolicy, GovernorKind, RunHooks, RunReport, RuntimeConfig,
};
use dae_trace::json::JsonValue;
use dae_workloads::{all_benchmarks, all_benchmarks_small, Variant, Workload};

const SEED: u64 = 0xace;

/// Runs `w` `repeats` times under one governor instance, returning every
/// run's report — the governor warms up across the trajectory exactly as a
/// long-running runtime would.
fn trajectory(w: &Workload, kind: GovernorKind, repeats: usize) -> Vec<RunReport> {
    let cfg = RuntimeConfig::paper_default().with_dvfs(DvfsConfig::latency_500ns());
    let mut gov = kind.build(&cfg.table);
    (0..repeats)
        .map(|_| {
            run_workload_with(
                &w.module,
                &w.tasks(Variant::ManualDae),
                &cfg,
                RunHooks { governor: Some(gov.as_mut()), ..Default::default() },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        })
        .collect()
}

fn governor_json(runs: &[RunReport], oracle: f64, minmax: f64) -> JsonValue {
    let warm = runs.last().expect("at least one run");
    let edp_by_run: Vec<JsonValue> = runs.iter().map(|r| r.edp().into()).collect();
    let regret_by_run: Vec<JsonValue> =
        runs.iter().map(|r| (r.edp() / oracle - 1.0).into()).collect();
    JsonValue::obj([
        ("cold_edp", runs[0].edp().into()),
        ("warm_edp", warm.edp().into()),
        ("vs_oracle", (warm.edp() / oracle - 1.0).into()),
        ("vs_minmax", (warm.edp() / minmax - 1.0).into()),
        ("within_10pct_of_oracle", (warm.edp() <= oracle * 1.10).into()),
        ("beats_minmax", (warm.edp() < minmax).into()),
        ("edp_by_run", JsonValue::Arr(edp_by_run)),
        ("regret_vs_oracle_by_run", JsonValue::Arr(regret_by_run)),
    ])
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("DAE_BENCH_SMOKE").is_some();
    let (mode, repeats, benchmarks) = if smoke {
        ("smoke", 41, vec![all_benchmarks_small().remove(0)])
    } else {
        ("full", 24, all_benchmarks())
    };
    println!(
        "Governor evaluation [{mode}]: {} benchmark(s), {repeats} runs each",
        benchmarks.len()
    );

    let dvfs = DvfsConfig::latency_500ns();
    let columns = ["MinMax", "Heur cold", "Heur warm", "Bandit cold", "Bandit warm"];
    let mut edp_rows = Vec::new();
    let mut reports = Vec::new();
    let mut bench_json = Vec::new();
    let mut all_within = true;

    for w in &benchmarks {
        let oracle = run_variant(w, Variant::ManualDae, FreqPolicy::DaeOptimal, dvfs);
        let minmax = run_variant(w, Variant::ManualDae, FreqPolicy::DaeMinMax, dvfs);
        let heur = trajectory(w, GovernorKind::Heuristic, repeats);
        let bandit = trajectory(w, GovernorKind::Bandit { seed: SEED }, repeats);

        let (o, m) = (oracle.edp(), minmax.edp());
        edp_rows.push(Row {
            label: w.name.to_string(),
            values: vec![
                m / o,
                heur[0].edp() / o,
                heur.last().unwrap().edp() / o,
                bandit[0].edp() / o,
                bandit.last().unwrap().edp() / o,
            ],
        });

        all_within = all_within && bandit.last().unwrap().edp() <= o * 1.10;
        bench_json.push(JsonValue::obj([
            ("name", w.name.into()),
            ("oracle_edp", o.into()),
            ("minmax_edp", m.into()),
            ("heuristic", governor_json(&heur, o, m)),
            ("bandit", governor_json(&bandit, o, m)),
        ]));

        reports.push((format!("{}/oracle", w.name), oracle));
        reports.push((format!("{}/minmax", w.name), minmax));
        reports.push((format!("{}/heuristic warm", w.name), heur.into_iter().last().unwrap()));
        reports.push((format!("{}/bandit warm", w.name), bandit.into_iter().last().unwrap()));
    }

    let n = edp_rows[0].values.len();
    let gm: Vec<f64> = (0..n).map(|c| geomean(edp_rows.iter().map(|r| r.values[c]))).collect();
    edp_rows.push(Row { label: "G.Mean".to_string(), values: gm.clone() });

    print_table(
        &format!("Governor EDP, normalized to the DaeOptimal oracle [{mode}]"),
        &columns,
        &edp_rows,
        3,
    );
    println!(
        "\nwarmed-up bandit within 10% of oracle on every benchmark: {}",
        if all_within { "yes" } else { "NO" }
    );
    println!(
        "geomean: bandit warm {:+.1}% vs oracle, heuristic warm {:+.1}% vs oracle",
        (gm[4] - 1.0) * 100.0,
        (gm[2] - 1.0) * 100.0
    );

    let v = JsonValue::obj([
        ("schema", "dae-governor-bench/1".into()),
        ("mode", mode.into()),
        ("repeats", repeats.into()),
        ("seed", SEED.into()),
        ("bandit_within_10pct_of_oracle_everywhere", all_within.into()),
        ("benchmarks", JsonValue::Arr(bench_json)),
    ]);
    let path = out_dir().join(format!("BENCH_governor_{mode}.json"));
    std::fs::write(&path, v.to_json_string()).expect("write governor bench json");
    println!("   -> {}", path.display());

    write_summary_json(&format!("governor_{mode}_reports"), &reports);
}
