//! Determinism properties of profile-guided refinement.
//!
//! Two contracts keep the PGO loop safe to deploy:
//!
//! 1. **No profile, no change** — a driver holding an *empty* profile
//!    set compiles every benchmark byte-identically to a driver with no
//!    profiles at all, at any `--jobs` count. Turning the machinery on
//!    without data is a no-op.
//! 2. **Same profile, same module** — given one fixed profile set, the
//!    refined module is byte-identical at `--jobs 1`, `2` and `8`, and
//!    across repeated compiles. Refinement is a pure function of
//!    (IR, hints, profile); parallelism cannot leak into the output.

use dae_repro::driver::{Driver, DriverConfig};
use dae_repro::ir::{print_module, verify_module};
use dae_repro::pgo::{ProfileCollector, ProfileSet};
use dae_repro::runtime::{
    run_workload, run_workload_with, FreqPolicy, RunHooks, RuntimeConfig, TaskInstance,
};
use dae_repro::workloads::{all_benchmarks_small, Variant, Workload};

/// Builds a fresh copy of benchmark `i` (compilation mutates the module,
/// so every configuration starts from pristine IR).
fn fresh(i: usize) -> Workload {
    let mut v = all_benchmarks_small();
    v.remove(i)
}

/// Compiles `w` through a fresh in-memory driver carrying `profiles`
/// (when given) and returns (printed module, report JSON, refined-task
/// count).
fn compile_and_run(
    mut w: Workload,
    jobs: usize,
    profiles: Option<&ProfileSet>,
) -> (String, String, usize) {
    let mut driver = Driver::new(&DriverConfig { jobs, ..Default::default() });
    if let Some(set) = profiles {
        driver.set_profiles(set.clone());
    }
    let opts = w.auto_options_fn();
    let outcome = driver.compile(&mut w.module, opts);
    let refined = outcome.refined;
    w.install_auto(outcome.map);
    verify_module(&w.module).unwrap_or_else(|e| panic!("{}: invalid after pgo: {e}", w.name));
    let report =
        run_workload(&w.module, &w.tasks(Variant::AutoDae), &RuntimeConfig::paper_default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (print_module(&w.module), report.to_json_string(), refined)
}

/// Collects a real profile for benchmark `i` by compiling it once and
/// replaying its DAE workload through the instrumented scheduler, keyed
/// by the driver's stable task keys.
fn collect_profile(i: usize) -> ProfileSet {
    let mut w = fresh(i);
    let mut driver = Driver::new(&DriverConfig::default());
    let opts = w.auto_options_fn();
    let outcome = driver.compile(&mut w.module, opts);
    w.install_auto(outcome.map);
    let mut col = ProfileCollector::new();
    run_workload_with(
        &w.module,
        &w.tasks(Variant::AutoDae),
        &RuntimeConfig::paper_default(),
        RunHooks { sink: Some(&mut col), ..Default::default() },
    )
    .unwrap_or_else(|e| panic!("{}: profiled run failed: {e}", w.name));
    let mut set = ProfileSet::default();
    for (func, profile) in col.take() {
        let key = *outcome
            .keys
            .get(&func)
            .unwrap_or_else(|| panic!("{}: no task key for profiled function {func:?}", w.name));
        set.insert(key, profile);
    }
    assert!(!set.is_empty(), "{}: a DAE run must yield at least one profile", w.name);
    set
}

#[test]
fn empty_profile_set_is_byte_identical_to_no_profiles() {
    let names: Vec<&str> = all_benchmarks_small().iter().map(|w| w.name).collect();
    for (i, name) in names.iter().enumerate() {
        let (ref_ir, ref_report, _) = compile_and_run(fresh(i), 1, None);
        for jobs in [1usize, 2, 8] {
            let (ir, report, refined) =
                compile_and_run(fresh(i), jobs, Some(&ProfileSet::default()));
            assert_eq!(refined, 0, "{name}: empty profiles refined a task");
            assert_eq!(ir, ref_ir, "{name}: empty-profile --jobs {jobs} module differs");
            assert_eq!(report, ref_report, "{name}: empty-profile --jobs {jobs} report differs");
        }
    }
}

#[test]
fn same_profile_refines_byte_identically_at_any_job_count() {
    let names: Vec<&str> = all_benchmarks_small().iter().map(|w| w.name).collect();
    for (i, name) in names.iter().enumerate() {
        let set = collect_profile(i);
        let (ref_ir, ref_report, ref_refined) = compile_and_run(fresh(i), 1, Some(&set));
        assert!(ref_refined > 0, "{name}: profile present but nothing marked refined");
        for jobs in [2usize, 8] {
            let (ir, report, refined) = compile_and_run(fresh(i), jobs, Some(&set));
            assert_eq!(refined, ref_refined, "{name}: --jobs {jobs} refined count differs");
            assert_eq!(ir, ref_ir, "{name}: refined --jobs {jobs} module differs");
            assert_eq!(report, ref_report, "{name}: refined --jobs {jobs} report differs");
        }
        // And compiling twice with the same profile is stable.
        let (again_ir, again_report, _) = compile_and_run(fresh(i), 1, Some(&set));
        assert_eq!(again_ir, ref_ir, "{name}: repeat refined compile differs");
        assert_eq!(again_report, ref_report, "{name}: repeat refined report differs");
    }
}

#[test]
fn profiling_collects_samples_without_changing_results() {
    // One task function with an expert access phase.
    let lbm = all_benchmarks_small().into_iter().find(|w| w.name == "LBM").unwrap();
    let (m, tasks) = (&lbm.module, lbm.tasks(Variant::ManualDae));
    let exec = tasks[0].func;
    let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeOptimal);
    let plain = run_workload(m, &tasks, &cfg).unwrap();
    let mut col = ProfileCollector::new();
    let profiled =
        run_workload_with(m, &tasks, &cfg, RunHooks { sink: Some(&mut col), ..Default::default() })
            .unwrap();
    // Strictly observational: bit-identical report.
    assert_eq!(plain.time_s.to_bits(), profiled.time_s.to_bits());
    assert_eq!(plain.energy_j.to_bits(), profiled.energy_j.to_bits());
    assert_eq!(plain.breakdown, profiled.breakdown);
    // One record per distinct task function, with both phases seen.
    assert_eq!(col.len(), 1);
    let (&func, p) = col.iter().next().unwrap();
    assert_eq!(func, exec);
    assert_eq!(p.runs as usize, tasks.len());
    assert!(p.access.prefetches > 0, "access phase issued prefetches");
    assert!(p.execute.instrs > 0);
    // The aggregate matches the run's own trace totals.
    assert_eq!(p.execute.instrs, profiled.execute_trace.instrs);
    assert_eq!(p.access.prefetches, profiled.access_trace.prefetches);

    // Coupled runs contribute no access sample.
    let coupled: Vec<TaskInstance> =
        tasks.iter().map(|t| TaskInstance::coupled(t.func, t.args.clone())).collect();
    let mut col = ProfileCollector::new();
    let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::CoupledMax);
    run_workload_with(m, &coupled, &cfg, RunHooks { sink: Some(&mut col), ..Default::default() })
        .unwrap();
    let (_, p) = col.iter().next().unwrap();
    assert_eq!(p.access.instrs, 0);
    assert!(p.execute.instrs > 0);
}
