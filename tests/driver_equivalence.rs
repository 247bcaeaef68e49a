//! Differential property test for the compilation driver: for every
//! benchmark, a module compiled through `dae_driver::Driver` — at any
//! `--jobs` count, cold or warm through the on-disk cache — verifies and
//! is **byte-identical** to the module produced by the pre-driver
//! sequential path (`transform_module` via `Workload::compile_auto`),
//! records the same strategies, refusals and Table 1 counts, and the
//! resulting runs produce byte-identical [`RunReport`] JSON.
//!
//! [`RunReport`]: dae_repro::runtime::RunReport

use dae_repro::compiler::{AccessCounts, DaeMap, RefuseReason, Strategy};
use dae_repro::driver::{Driver, DriverConfig};
use dae_repro::ir::{print_module, verify_module, FuncId};
use dae_repro::runtime::{run_workload, RuntimeConfig};
use dae_repro::workloads::{all_benchmarks_small, Variant, Workload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// A per-test scratch cache directory (`std::env::temp_dir()` based; the
/// test wipes it before and after use).
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dae-driver-equiv-{}-{tag}", std::process::id()))
}

/// Builds a fresh copy of benchmark `i` (driver compilation mutates the
/// module, so every configuration starts from pristine IR).
fn fresh(i: usize) -> Workload {
    let mut v = all_benchmarks_small();
    v.remove(i)
}

/// Compiles `w` through the driver and returns (printed module, report
/// JSON, tasks answered from cache, disk hits, the driver's decisions).
fn compile_and_run(
    mut w: Workload,
    jobs: usize,
    dir: &Path,
) -> (String, String, usize, u64, Decisions) {
    let mut driver = Driver::new(&DriverConfig {
        jobs,
        cache_dir: Some(dir.to_path_buf()),
        ..Default::default()
    });
    let opts = w.auto_options_fn();
    let outcome = driver.compile(&mut w.module, opts);
    let (from_cache, disk_hits) = (outcome.from_cache, outcome.cache.disk_hits);
    let decisions = Decisions::of(&outcome.map);
    w.install_auto(outcome.map);
    verify_module(&w.module).unwrap_or_else(|e| panic!("{}: driver module invalid: {e}", w.name));
    let report =
        run_workload(&w.module, &w.tasks(Variant::AutoDae), &RuntimeConfig::paper_default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (print_module(&w.module), report.to_json_string(), from_cache, disk_hits, decisions)
}

/// The per-task decisions of a [`DaeMap`]: strategy, refusal, Table 1
/// counts.
struct Decisions {
    strategy_of: HashMap<FuncId, Strategy>,
    refused: HashMap<FuncId, RefuseReason>,
    info_of: HashMap<FuncId, AccessCounts>,
}

impl Decisions {
    fn of(map: &DaeMap) -> Decisions {
        Decisions {
            strategy_of: map.strategy_of.clone(),
            refused: map.refused.clone(),
            info_of: map.info_of.clone(),
        }
    }

    /// Asserts equality with the sequential compiler's decisions.
    fn assert_eq_to(&self, reference: &Decisions, what: &str) {
        assert_eq!(self.strategy_of, reference.strategy_of, "{what}: strategy_of differs");
        assert_eq!(self.refused, reference.refused, "{what}: refused differs");
        assert_eq!(self.info_of, reference.info_of, "{what}: info_of differs");
    }
}

#[test]
fn driver_matches_sequential_compiler_at_any_job_count_cold_and_warm() {
    let mut references = all_benchmarks_small();
    for (i, rw) in references.iter_mut().enumerate() {
        rw.compile_auto();
        let ref_decisions = Decisions::of(rw.auto_map().expect("compiled"));
        verify_module(&rw.module).unwrap_or_else(|e| panic!("{}: invalid: {e}", rw.name));
        let ref_ir = print_module(&rw.module);
        let ref_report =
            run_workload(&rw.module, &rw.tasks(Variant::AutoDae), &RuntimeConfig::paper_default())
                .unwrap_or_else(|e| panic!("{}: {e}", rw.name))
                .to_json_string();

        let dir = scratch_dir(rw.name);
        let _ = std::fs::remove_dir_all(&dir);

        // Cold at every job count: wipe the cache before each compile.
        for jobs in [1usize, 2, 8] {
            let _ = std::fs::remove_dir_all(&dir);
            let (ir, report, from_cache, _, decisions) = compile_and_run(fresh(i), jobs, &dir);
            assert_eq!(from_cache, 0, "{}: cold compile hit the cache", rw.name);
            decisions.assert_eq_to(&ref_decisions, &format!("{}: cold --jobs {jobs}", rw.name));
            assert_eq!(ir, ref_ir, "{}: cold --jobs {jobs} module differs", rw.name);
            assert_eq!(report, ref_report, "{}: cold --jobs {jobs} report differs", rw.name);
        }

        // Warm: the last cold compile populated `dir`; a fresh driver must
        // answer every task from disk and still match byte-for-byte.
        for jobs in [1usize, 4] {
            let (ir, report, from_cache, disk_hits, decisions) =
                compile_and_run(fresh(i), jobs, &dir);
            let tasks = fresh(i).task_funcs().len();
            assert_eq!(from_cache, tasks, "{}: warm compile missed the cache", rw.name);
            decisions.assert_eq_to(&ref_decisions, &format!("{}: warm --jobs {jobs}", rw.name));
            assert!(disk_hits >= 1, "{}: warm compile had no disk hit", rw.name);
            assert_eq!(ir, ref_ir, "{}: warm --jobs {jobs} module differs", rw.name);
            assert_eq!(report, ref_report, "{}: warm --jobs {jobs} report differs", rw.name);
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
