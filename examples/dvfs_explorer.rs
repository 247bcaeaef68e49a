//! Sweeps a benchmark across every operating point and execution mode,
//! printing the time/energy/EDP landscape the runtime's Optimal-f policy
//! searches — a miniature of the paper's Figure 4 methodology.
//!
//! The decoupled frequency-pair sweep runs with event tracing on and
//! drops one Chrome trace per explored pair under `target/repro/traces/`
//! (open them in <https://ui.perfetto.dev> to compare schedules).
//!
//! The final section pits the **online governors** against the oracle: each
//! governor warms up over repeated runs of the same workload and its
//! measured run lands next to the `Manual DAE optimal-EDP` row, along with
//! how many task classes it learned and how many converged.
//!
//! Run: `cargo run --release --example dvfs_explorer [lu|cholesky|fft|lbm|libq|cigar|cg]`

use dae_governor::GovernorKind;
use dae_power::{DvfsConfig, DvfsTable, FreqId};
use dae_repro::trace::{chrome, json::JsonValue, Recorder};
use dae_runtime::{run_workload, run_workload_with, FreqPolicy, RunHooks, RuntimeConfig};
use dae_workloads::{Variant, Workload};
use std::path::PathBuf;

fn pick(name: &str) -> Workload {
    match name {
        "lu" => dae_workloads::lu::build_sized(64, 16),
        "cholesky" => dae_workloads::cholesky::build_sized(64, 16),
        "fft" => dae_workloads::fft::build_sized(4096, 4),
        "lbm" => dae_workloads::lbm::build_sized(256, 128, 4, 1),
        "libq" => dae_workloads::libq::build_sized(65536, 8192),
        "cigar" => dae_workloads::cigar::build_sized(1024, 128, 64, 128),
        "cg" => dae_workloads::cg::build_sized(4096, 16, 512, 1),
        other => panic!("unknown benchmark `{other}`"),
    }
}

fn trace_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/repro/traces");
    std::fs::create_dir_all(&dir).expect("create target/repro/traces");
    dir
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "libq".to_string());
    let mut w = pick(&name);
    w.compile_auto();
    let table = DvfsTable::sandybridge();

    println!("{} — time (ms) / energy (mJ) / EDP (uJ·s), 500 ns DVFS latency\n", w.name);
    println!("{:<26} {:>10} {:>12} {:>12}", "configuration", "time", "energy", "EDP");

    let cfg_for = |policy: FreqPolicy| {
        RuntimeConfig::paper_default().with_policy(policy).with_dvfs(DvfsConfig::latency_500ns())
    };
    let print_row = |label: &str, r: &dae_runtime::RunReport| {
        println!(
            "{:<26} {:>10.3} {:>12.3} {:>12.3}",
            label,
            r.time_s * 1e3,
            r.energy_j * 1e3,
            r.edp() * 1e6
        );
    };
    let run = |label: String, variant: Variant, policy: FreqPolicy| {
        let r = run_workload(&w.module, &w.tasks(variant), &cfg_for(policy)).expect("run");
        print_row(&label, &r);
    };

    for i in 0..table.len() {
        let f = FreqId(i);
        run(
            format!("CAE @ {:.1} GHz", table.point(f).ghz),
            Variant::Cae,
            FreqPolicy::CoupledFixed(f),
        );
    }
    run("CAE optimal-EDP".into(), Variant::Cae, FreqPolicy::CoupledOptimal);

    // The decoupled pair sweep is traced: one Perfetto-loadable file per
    // (access, execute) frequency pair.
    let mut paths = Vec::new();
    for i in 0..table.len() {
        let (access, execute) = (table.min(), FreqId(i));
        let policy = FreqPolicy::DaePhases { access, execute };
        let cfg = cfg_for(policy);
        let mut rec = Recorder::new(cfg.cores);
        let hooks = RunHooks { sink: Some(&mut rec), ..Default::default() };
        let r = run_workload_with(&w.module, &w.tasks(Variant::AutoDae), &cfg, hooks).expect("run");
        let (a_ghz, e_ghz) = (table.point(access).ghz, table.point(execute).ghz);
        print_row(&format!("Auto DAE exec @ {e_ghz:.1} GHz"), &r);
        let path = trace_dir().join(format!("{}_access{:.1}_exec{:.1}.json", w.name, a_ghz, e_ghz));
        let meta = vec![
            ("benchmark".to_string(), JsonValue::from(w.name)),
            ("access_ghz".to_string(), a_ghz.into()),
            ("execute_ghz".to_string(), e_ghz.into()),
            ("report".to_string(), r.to_json()),
        ];
        std::fs::write(&path, chrome::chrome_trace_json_with(&rec, meta)).expect("write trace");
        paths.push(path);
    }
    run("Auto DAE min/max".into(), Variant::AutoDae, FreqPolicy::DaeMinMax);
    run("Auto DAE optimal-EDP".into(), Variant::AutoDae, FreqPolicy::DaeOptimal);
    run("Manual DAE optimal-EDP".into(), Variant::ManualDae, FreqPolicy::DaeOptimal);

    // Governed vs oracle: the online governors start blind and learn the
    // landscape the oracle above computed from the traces. Each is warmed
    // over repeated runs of the same workload (one persistent governor
    // instance), then the measured run is printed next to the oracle row.
    println!();
    let tasks = w.tasks(Variant::ManualDae);
    for (label, kind, warmup) in [
        ("Governed heuristic", GovernorKind::Heuristic, 3usize),
        ("Governed bandit", GovernorKind::Bandit { seed: 0xace }, 40),
    ] {
        let cfg = cfg_for(FreqPolicy::Governed(kind));
        let mut gov = kind.build(&cfg.table);
        for _ in 0..warmup {
            run_workload_with(
                &w.module,
                &tasks,
                &cfg,
                RunHooks { governor: Some(gov.as_mut()), ..Default::default() },
            )
            .expect("run");
        }
        let r = run_workload_with(
            &w.module,
            &tasks,
            &cfg,
            RunHooks { governor: Some(gov.as_mut()), ..Default::default() },
        )
        .expect("run");
        print_row(label, &r);
        if let Some(g) = &r.governor {
            let converged = g.classes.iter().filter(|c| c.converged).count();
            println!(
                "{:<26} {} warm-ups; {} classes, {} converged, {} guarded",
                "",
                warmup,
                g.classes.len(),
                converged,
                g.classes.iter().filter(|c| c.guarded).count()
            );
        }
    }

    println!("\ntraces ({}, open in ui.perfetto.dev):", paths.len());
    for p in &paths {
        println!("   -> {}", p.display());
    }
}
