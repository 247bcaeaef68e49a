//! An exact allocation budget for the compiler: the seven full-size
//! benchmarks and the LU/Cholesky block sweep of `compile_golden.rs`,
//! compiled on one cold jobs-1 driver, must not allocate more than the
//! budget below, and parsing their printed texts not more than its own.
//!
//! The count is a property of the code, not of the host: the same inputs
//! take the same allocations on every run, so this pins which layer a
//! change moved where a wall-clock figure (±15–20 % on a shared host)
//! cannot. Only allocations made on the test's own thread while the
//! driver compiles are counted; building the workloads is not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dae_repro::driver::{Driver, DriverConfig};
use dae_repro::ir::parse::parse_module;
use dae_repro::ir::print_module;
use dae_repro::workloads::{all_benchmarks, cholesky, lu, Workload};

/// The system allocator, counting the allocations (and reallocations) of
/// the thread that switched counting on.
struct Counting;

thread_local! {
    /// `Some(n)`: counting is on for this thread, `n` so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
    /// The bytes those allocations asked for (a reallocation: its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
            let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations of `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    allocated(f).0
}

/// Allocations of `f` on this thread, and the bytes they asked for.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    COUNT.with(|c| c.set(Some(0)));
    BYTES.with(|b| b.set(0));
    f();
    (COUNT.with(|c| c.take()).expect("counting was on"), BYTES.with(Cell::get))
}

/// The 38 506 allocations this suite takes, plus 5 %.
///
/// Before the clean-up compacted a function once, on return, instead of
/// after every round, the skeleton path took the inlined body over instead
/// of a compacted copy of it, and §5.1's access classes compared accesses
/// in place instead of building a key per access, it took 42 038.
///
/// Before the §5.1 polyhedral path did each piece of work once — one
/// iteration domain per loop nest, shared by its accesses' images;
/// integer vertex records, enumerated once per nest and task and read by
/// every class over the nest; one projection chain per polyhedron; the
/// scan, run and vertex tables in one `dae_poly::Tables` per thread — the
/// same compile took 62 600. By step of `dae_core`'s analysis and affine generator (a scratch
/// harness counting between step boundaries over the same suite on one
/// thread; "other" is everything else: inline, optimize, the skeleton
/// path, refusals and the driver):
///
/// | step                         | before | after |
/// |------------------------------|-------:|------:|
/// | analyze (`analyze_task`)     |  4 654 | 4 122 |
/// | classes and class records    |  3 036 | 3 036 |
/// | images (domains, maps)       |  2 596 | 3 036 |
/// | `NOrig` (union count)        |  9 049 |    28 |
/// | vertices of the union        | 10 157 | 2 558 |
/// | convex hull                  |  1 342 | 1 342 |
/// | `NconvUn` and scanning nest  |  5 544 | 1 804 |
/// | nest merge                   |  1 870 | 1 870 |
/// | codegen                      |  5 654 | 5 654 |
/// | clean-up                     |  2 686 | 2 686 |
/// | other                        | 16 012 | 15 902 |
///
/// Before that, when the analyses and clean-up passes of a compile came to
/// share one `dae_analysis::Workspace` (CFG, dominators, loop forest with
/// bit-set bodies, scalar-evolution memos, compaction maps and arenas,
/// clean-up and strength-reduction tables), affine forms and polyhedral
/// expressions kept their terms in place, and the polyhedral union, vertex
/// and hull steps stopped copying points, it went from 198 426 to 62 600.
/// By stage of `dae_core::generate_access_with` (a per-task pass over the
/// same suite on one thread), and the driver's own share:
///
/// | stage    |  before |  after |
/// |----------|--------:|-------:|
/// | inline   |   4 366 |  4 362 |
/// | optimize |   9 345 |  3 748 |
/// | refine   |       0 |      0 |
/// | analyze  |  28 258 |  4 630 |
/// | generate | 148 951 | 42 250 |
/// | driver   |   7 504 |  7 608 |
///
/// Earlier still, before the clean-up passes stopped allocating per edge,
/// per merge and per affine term (flat CFG, one merge sweep and one operand
/// rewrite per pass, compaction by moving, sorted-vector affine forms with
/// id-indexed memos, in-place linear expressions), it took 415 099.
const BUDGET: u64 = 38_506 * 105 / 100;

/// The 7 664 allocations of parsing the suite's printed texts, plus 5 %:
/// per function its name, parameters and two arenas, per block its
/// instruction list, per edge and call with arguments their list, each at
/// its final size. Before the parser sized its lists and tables up front
/// and stopped building its edge lists by pushing, it took 8 480.
const PARSE_BUDGET: u64 = 7_664 * 105 / 100;

/// The suite: the full-size benchmarks and the LU/Cholesky block sweep.
fn suite() -> Vec<Workload> {
    let mut suite: Vec<Workload> = all_benchmarks();
    for b in [4i64, 8, 16] {
        for k in 2..=8i64 {
            suite.push(lu::build_sized(b * k, b));
            suite.push(cholesky::build_sized(b * k, b));
        }
    }
    suite
}

#[test]
fn parsing_the_suites_texts_stays_inside_its_allocation_budget() {
    let texts: Vec<String> = suite().iter().map(|w| print_module(&w.module)).collect();
    let (count, _) = allocated(|| {
        for text in &texts {
            std::hint::black_box(parse_module(text).expect("printed modules parse"));
        }
    });
    assert!(count <= PARSE_BUDGET, "parsing took {count} allocations, budget {PARSE_BUDGET}");
}

#[test]
fn a_huge_number_in_a_name_costs_no_more_than_its_text() {
    // Name tables are indexed by the number in a canonical name; one past
    // the body's length goes to the map instead, so four billion asks for
    // nothing it would take four billion of.
    let text = "fn f() -> i64 {\nbb0:\n  v4000000000: i64 = iadd 1, 2\n  ret v4000000000\n}\n";
    let (_, bytes) = allocated(|| {
        std::hint::black_box(parse_module(text).expect("parses"));
    });
    assert!(bytes <= 64 * text.len() as u64, "{bytes} bytes for a {}-byte text", text.len());
}

#[test]
fn compiling_the_corpus_stays_inside_its_allocation_budget() {
    let mut suite = suite();
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
