//! An exact allocation budget for the compiler: the seven full-size
//! benchmarks and the LU/Cholesky block sweep of `compile_golden.rs`,
//! compiled on one cold jobs-1 driver, must not allocate more than the
//! budget below.
//!
//! The count is a property of the code, not of the host: the same inputs
//! take the same allocations on every run, so this pins which layer a
//! change moved where a wall-clock figure (±15–20 % on a shared host)
//! cannot. Only allocations made on the test's own thread while the
//! driver compiles are counted; building the workloads is not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dae_repro::driver::{Driver, DriverConfig};
use dae_repro::workloads::{all_benchmarks, cholesky, lu, Workload};

/// The system allocator, counting the allocations (and reallocations) of
/// the thread that switched counting on.
struct Counting;

thread_local! {
    /// `Some(n)`: counting is on for this thread, `n` so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tally() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations of `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.take()).expect("counting was on")
}

/// The 198 426 allocations this suite takes, plus 5 %. Before the
/// clean-up passes stopped allocating per edge, per merge and per affine
/// term (flat CFG, one merge sweep and one operand rewrite per pass,
/// compaction by moving, sorted-vector affine forms with id-indexed memos,
/// in-place linear expressions), the same compile took 415 099.
const BUDGET: u64 = 198_426 * 105 / 100;

#[test]
fn compiling_the_corpus_stays_inside_its_allocation_budget() {
    let mut suite: Vec<Workload> = all_benchmarks();
    for b in [4i64, 8, 16] {
        for k in 2..=8i64 {
            suite.push(lu::build_sized(b * k, b));
            suite.push(cholesky::build_sized(b * k, b));
        }
    }
    let options: Vec<_> = suite.iter().map(Workload::auto_options_fn).collect();
    let mut driver = Driver::new(&DriverConfig { jobs: 1, ..DriverConfig::default() });

    let mut tasks = 0;
    let count = allocations(|| {
        for (w, opts) in suite.iter_mut().zip(options) {
            tasks += driver.compile(&mut w.module, opts).tasks;
        }
    });
    assert_eq!(tasks, 163, "the suite's task count changed");
    assert!(count <= BUDGET, "compiling the corpus took {count} allocations, budget {BUDGET}");
}
