//! # dae-workloads — the seven evaluation benchmarks
//!
//! Re-implementations of the paper's benchmark selection (§6) as IR task
//! programs: **LU**, **Cholesky**, **FFT** (SPLASH-2), **LBM**, **LibQ**
//! (SPEC CPU2006), **CIGAR** and **CG** (NAS), "ranging from compute- to
//! memory-bound". Every benchmark ships:
//!
//! * the task-decomposed kernel (the execute phases),
//! * an **expert-written manual access phase** per task type, with the
//!   paper's documented expert tricks (selective block prefetching for
//!   LU/Cholesky, simplified data-only prefetch for FFT, per-cache-line
//!   dedup for LibQ),
//! * the compiler options (parameter hints) for **automatic** access-phase
//!   generation via `dae-core`,
//! * the dynamic task-instance schedule.
//!
//! [`Variant`] selects between CAE / Manual DAE / Auto DAE when
//! materialising [`dae_runtime::TaskInstance`] lists; [`all_benchmarks`]
//! returns the full suite in the paper's presentation order.
//!
//! # Examples
//!
//! ```no_run
//! use dae_workloads::{lu, Variant};
//! use dae_runtime::{run_workload, FreqPolicy, RuntimeConfig};
//!
//! let mut w = lu::build();
//! w.compile_auto();
//! let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeOptimal);
//! let report = run_workload(&w.module, &w.tasks(Variant::AutoDae), &cfg)?;
//! println!("{}: EDP {:.3e}", w.name, report.edp());
//! # Ok::<(), dae_sim::InterpError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cg;
pub mod cholesky;
pub mod cigar;
pub mod common;
pub mod fft;
pub mod lbm;
pub mod libq;
pub mod lu;

pub use common::{Variant, Workload};

/// Builds every benchmark at its default evaluation size, in the paper's
/// presentation order (Table 1).
pub fn all_benchmarks() -> Vec<Workload> {
    vec![
        lu::build(),
        cholesky::build(),
        fft::build(),
        lbm::build(),
        libq::build(),
        cigar::build(),
        cg::build(),
    ]
}

/// Builds reduced-size versions of every benchmark (for fast tests).
pub fn all_benchmarks_small() -> Vec<Workload> {
    vec![
        lu::build_sized(32, 8),
        cholesky::build_sized(32, 8),
        fft::build_sized(512, 2),
        lbm::build_sized(32, 16, 8, 1),
        libq::build_sized(2048, 512),
        cigar::build_sized(128, 32, 16, 32),
        cg::build_sized(256, 8, 64, 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seven_benchmarks() {
        let names: Vec<&str> = all_benchmarks_small().iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["LU", "Cholesky", "FFT", "LBM", "LibQ", "Cigar", "CG"]);
    }

    #[test]
    fn every_benchmark_verifies_and_compiles() {
        for mut w in all_benchmarks_small() {
            dae_ir::verify_module(&w.module).unwrap();
            w.compile_auto();
            let map = w.auto_map().unwrap();
            assert!(map.refused.is_empty(), "{}: {:?}", w.name, map.refused);
            dae_ir::verify_module(&w.module).unwrap();
            // Every task has an access phase in every variant.
            for f in w.task_funcs() {
                assert!(w.manual_access.contains_key(&f), "{} missing manual", w.name);
                assert!(map.access(f).is_some(), "{} missing auto", w.name);
            }
        }
    }

    #[test]
    fn affinity_split_matches_table1() {
        // LU and Cholesky are fully affine; the rest have zero affine loops.
        for mut w in all_benchmarks_small() {
            w.compile_auto();
            let map = w.auto_map().unwrap();
            let affine: usize = map.info_of.values().map(|i| i.loops_affine).sum();
            let total: usize = map.info_of.values().map(|i| i.loops_total).sum();
            match w.name {
                "LU" | "Cholesky" => assert_eq!(affine, total, "{}", w.name),
                _ => assert_eq!(affine, 0, "{} should have no affine loops", w.name),
            }
            assert!(total > 0);
        }
    }
}
