//! Cross-crate integration tests: the whole pipeline — build task IR,
//! compile access phases, run under the DVFS runtime — plus semantic
//! equivalence checks between coupled and decoupled execution.

use dae_repro::compiler::{generate_access, CompilerOptions, Strategy};
use dae_repro::ir::{FunctionBuilder, Module, Type, Value};
use dae_repro::mem::{CoreCaches, HierarchyConfig, SharedLlc};
use dae_repro::runtime::{run_workload, FreqPolicy, RuntimeConfig, TaskInstance};
use dae_repro::sim::{CachePort, Machine, PhaseTrace, Val};
use dae_repro::workloads::{self, Variant};

/// Snapshot of every global after running the given task list sequentially.
fn memory_after(module: &Module, tasks: &[TaskInstance], run_access: bool) -> Vec<u64> {
    let hc = HierarchyConfig::default();
    let mut llc = SharedLlc::new(hc.llc);
    let mut core = CoreCaches::new(&hc);
    let mut machine = Machine::new(module);
    for t in tasks {
        if run_access {
            if let Some(a) = t.access {
                let mut tr = PhaseTrace::default();
                machine
                    .run(a, &t.args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut tr)
                    .expect("access runs");
            }
        }
        let mut tr = PhaseTrace::default();
        machine
            .run(t.func, &t.args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut tr)
            .expect("execute runs");
    }
    let mut words = Vec::new();
    for (g, data) in module.globals() {
        let base = machine.memory.global_addr(g);
        for k in 0..data.len {
            words.push(machine.memory.read_u64(base + k * 8));
        }
    }
    words
}

/// The core safety property of DAE: running the access phase before the
/// execute phase never changes the program's result — the access phase is a
/// pure prefetch (§5.1: "correctness is not affected").
#[test]
fn access_phases_never_change_results() {
    for mut w in workloads::all_benchmarks_small() {
        w.compile_auto();
        let cae = memory_after(&w.module, &w.tasks(Variant::Cae), false);
        let auto = memory_after(&w.module, &w.tasks(Variant::AutoDae), true);
        let manual = memory_after(&w.module, &w.tasks(Variant::ManualDae), true);
        assert_eq!(cae, auto, "{}: Auto DAE changed results", w.name);
        assert_eq!(cae, manual, "{}: Manual DAE changed results", w.name);
    }
}

/// The headline behaviour: on a memory-bound workload, decoupled execution
/// with per-phase optimal-EDP frequencies beats coupled execution at fmax
/// on EDP without losing much time.
#[test]
fn dae_improves_edp_on_memory_bound_workload() {
    let mut w = workloads::libq::build_sized(131072, 8192);
    w.compile_auto();
    let base = RuntimeConfig::paper_default();
    let cae = run_workload(&w.module, &w.tasks(Variant::Cae), &base).unwrap();
    let dae = run_workload(
        &w.module,
        &w.tasks(Variant::AutoDae),
        &base.clone().with_policy(FreqPolicy::DaeOptimal),
    )
    .unwrap();
    assert!(dae.edp() < cae.edp(), "LibQ auto-DAE EDP {} must beat CAE {}", dae.edp(), cae.edp());
    assert!(dae.time_s < cae.time_s * 1.15, "time penalty too large");
}

/// Compute-bound code must not be hurt: LU auto-DAE stays within a few
/// percent of coupled time.
#[test]
fn dae_does_not_hurt_compute_bound_workload() {
    let mut w = workloads::lu::build_sized(64, 16);
    w.compile_auto();
    let base = RuntimeConfig::paper_default();
    let cae = run_workload(&w.module, &w.tasks(Variant::Cae), &base).unwrap();
    let dae = run_workload(
        &w.module,
        &w.tasks(Variant::AutoDae),
        &base.clone().with_policy(FreqPolicy::DaeOptimal),
    )
    .unwrap();
    assert!(dae.time_s < cae.time_s * 1.10, "dae {} vs cae {}", dae.time_s, cae.time_s);
    assert!(dae.edp() < cae.edp() * 1.05);
}

/// Strength reduction and the optimizer preserve semantics: run a
/// non-trivial task before and after `strength_reduce_and_clean` and
/// compare results bit-for-bit.
#[test]
fn optimizer_preserves_semantics() {
    let mut module = Module::new();
    let a = module.add_global("a", Type::F64, 64 * 64);
    let n = 64i64;
    let mut b = FunctionBuilder::new("kernel", vec![Type::I64], Type::Void);
    b.counted_loop(Value::i64(0), Value::i64(16), Value::i64(1), |b, i| {
        let gi = b.iadd(Value::Arg(0), i);
        b.counted_loop(Value::i64(0), Value::i64(16), Value::i64(1), |b, j| {
            let row = b.imul(gi, n);
            let idx = b.iadd(row, j);
            let p = b.elem_addr(Value::Global(a), idx, Type::F64);
            let v = b.load(Type::F64, p);
            let ij = b.imul(gi, j);
            let f = b.itof(ij);
            let w = b.fadd(v, f);
            b.store(p, w);
        });
    });
    b.ret(None);
    let original = b.finish();
    let optimized = dae_repro::analysis::transform::strength_reduce_and_clean(&original);

    let mut m1 = Module::new();
    m1.add_global("a", Type::F64, 64 * 64);
    let f1 = m1.add_function(original);
    let mut m2 = Module::new();
    m2.add_global("a", Type::F64, 64 * 64);
    let f2 = m2.add_function(optimized);

    let t1 = vec![TaskInstance::coupled(f1, vec![Val::I(3)])];
    let t2 = vec![TaskInstance::coupled(f2, vec![Val::I(3)])];
    assert_eq!(memory_after(&m1, &t1, false), memory_after(&m2, &t2, false));
}

/// The polyhedral path produces an access phase that actually covers the
/// task's reads: after the access phase alone, re-running the task's loads
/// hits the cache.
#[test]
fn polyhedral_access_covers_the_reads() {
    let mut module = Module::new();
    let a = module.add_global("a", Type::F64, 1 << 16);
    let mut b = FunctionBuilder::new("chunked", vec![Type::I64], Type::Void);
    b.set_task();
    b.counted_loop(Value::i64(0), Value::i64(2048), Value::i64(1), |b, i| {
        let idx = b.iadd(Value::Arg(0), i);
        let p = b.elem_addr(Value::Global(a), idx, Type::F64);
        let v = b.load(Type::F64, p);
        let w = b.fmul(v, 2.0f64);
        b.store(p, w);
    });
    b.ret(None);
    let task = module.add_function(b.finish());
    let opts = CompilerOptions { param_hints: vec![0], ..Default::default() };
    let g = generate_access(&module, task, &opts).expect("generated");
    assert!(matches!(g.strategy, Strategy::Polyhedral(_)));
    let access = module.add_function(g.func);

    let hc = HierarchyConfig::default();
    let mut llc = SharedLlc::new(hc.llc);
    let mut core = CoreCaches::new(&hc);
    let mut machine = Machine::new(&module);
    // Run access at a non-zero offset, then the task: all reads must hit.
    let args = [Val::I(8192)];
    let mut tr = PhaseTrace::default();
    machine.run(access, &args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut tr).unwrap();
    let mut te = PhaseTrace::default();
    machine.run(task, &args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut te).unwrap();
    assert_eq!(te.demand_hits[3], 0, "no DRAM misses after prefetch");
    assert_eq!(te.hw_prefetch_lines, 0, "not even covered misses");
}

/// Work stealing keeps four cores busy on an imbalanced task mix.
#[test]
fn runtime_balances_heterogeneous_tasks() {
    let mut module = Module::new();
    let g = module.add_global("out", Type::F64, 8);
    // spin(n): n iterations of float work.
    let mut b = FunctionBuilder::new("spin", vec![Type::I64], Type::Void);
    b.set_task();
    let out = b.counted_loop_carried(
        Value::i64(0),
        Value::Arg(0),
        Value::i64(1),
        vec![Value::f64(1.0)],
        |b, _, c| vec![b.fmul(c[0], 1.0000001f64)],
    );
    let p = b.ptr_add(Value::Global(g), 0i64);
    b.store(p, out[0]);
    b.ret(None);
    let f = module.add_function(b.finish());
    // 3 huge tasks then 24 small ones: round-robin would be lopsided.
    let mut tasks: Vec<TaskInstance> =
        (0..3).map(|_| TaskInstance::coupled(f, vec![Val::I(60_000)])).collect();
    tasks.extend((0..24).map(|_| TaskInstance::coupled(f, vec![Val::I(2_000)])));
    let cfg = RuntimeConfig::paper_default();
    let r = run_workload(&module, &tasks, &cfg).unwrap();
    let busy = r.breakdown.access_s + r.breakdown.execute_s + r.breakdown.overhead_s;
    let utilization = busy / (r.time_s * cfg.cores as f64);
    assert!(utilization > 0.7, "work stealing should keep cores busy: {utilization:.2}");
}

/// Results computed *through the runtime scheduler* (work stealing, four
/// cores, barrier epochs) match the straight sequential execution — the
/// epochs correctly encode the benchmarks' task-graph dependencies.
#[test]
fn runtime_execution_respects_dependencies() {
    for mut w in workloads::all_benchmarks_small() {
        w.compile_auto();
        // Sequential reference (instance order).
        let reference = memory_after(&w.module, &w.tasks(Variant::Cae), false);
        // Runtime execution with stealing + epochs. We cannot read runtime
        // memory back (run_workload owns its machine), so verify via a
        // deterministic re-run: build a fresh runtime machine by replaying
        // epoch groups in scheduler-visible order — the guarantee we need
        // is that any within-epoch permutation yields the same memory. Test
        // that by running each epoch's tasks in *reverse* order.
        let mut tasks = w.tasks(Variant::AutoDae);
        tasks.sort_by_key(|t| t.epoch);
        let mut permuted: Vec<dae_repro::runtime::TaskInstance> = Vec::new();
        let mut i = 0;
        while i < tasks.len() {
            let e = tasks[i].epoch;
            let mut group: Vec<_> =
                tasks[i..].iter().take_while(|t| t.epoch == e).cloned().collect();
            i += group.len();
            group.reverse();
            permuted.extend(group);
        }
        let permuted_result = memory_after(&w.module, &permuted, true);
        assert_eq!(
            reference, permuted_result,
            "{}: within-epoch permutation changed results — missing dependency",
            w.name
        );
    }
}
