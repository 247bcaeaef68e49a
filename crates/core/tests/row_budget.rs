//! The counting budget is for hostile trip counts, not for the corpus:
//! every real generator call must stay orders of magnitude below it.
//!
//! Its own test binary, so the process-wide high-water mark is this
//! test's alone.

use dae_poly::{rows_high_water, ROW_BUDGET};
use dae_workloads::{all_benchmarks, all_benchmarks_small, cholesky, lu};

#[test]
fn corpus_and_block_sweep_stay_far_below_the_row_budget() {
    let mut suite = all_benchmarks_small();
    suite.extend(all_benchmarks());
    // The LU/Cholesky sizes of the `compile-cold` benchmark stream.
    for b in [4i64, 8, 16] {
        for k in 2..=8i64 {
            suite.push(lu::build_sized(b * k, b));
            suite.push(cholesky::build_sized(b * k, b));
        }
    }
    for mut w in suite {
        w.compile_auto();
    }
    let high = rows_high_water();
    println!("rows high water: {high}");
    assert!(high > 0, "the affine generator never counted anything");
    assert!(high <= ROW_BUDGET / 256, "{high} rows in one generator call");
}
