//! Acceptance criteria of the online DVFS governor (ISSUE 3).
//!
//! Two end-to-end claims, asserted here and recorded by the
//! `governor` bench into `BENCH_governor_*.json`:
//!
//! 1. after a bounded warm-up, the EDP bandit is **within 10% of the
//!    exhaustive `DaeOptimal` oracle** on the paper benchmarks, and
//! 2. the miss-ratio heuristic **beats `DaeMinMax`** on workloads of mixed
//!    boundedness, where min/max's fixed execute-at-fmax choice wastes
//!    energy on memory-bound task classes.

use dae_repro::governor::GovernorKind;
use dae_repro::ir::{FunctionBuilder, Module, Type, Value};
use dae_repro::runtime::{
    run_workload, run_workload_with, FreqPolicy, RunHooks, RuntimeConfig, TaskInstance,
};
use dae_repro::sim::Val;
use dae_repro::workloads::{all_benchmarks_small, Variant};

/// Warm-up passes before the measured run. The bandit must sweep 6 arms
/// per phase per class, so convergence needs a bounded but non-trivial
/// number of observations per class.
const WARMUP_RUNS: usize = 40;

#[test]
fn bandit_reaches_within_10_percent_of_the_oracle_edp() {
    for w in all_benchmarks_small() {
        let tasks = w.tasks(Variant::ManualDae);
        let cfg = RuntimeConfig::paper_default();

        let oracle =
            run_workload(&w.module, &tasks, &cfg.clone().with_policy(FreqPolicy::DaeOptimal))
                .unwrap()
                .edp();

        // One governor instance across runs: the warm-up is explicit and
        // bounded, exactly how a long-running runtime would amortise it.
        let mut gov = GovernorKind::Bandit { seed: 0xace }.build(&cfg.table);
        for _ in 0..WARMUP_RUNS {
            run_workload_with(
                &w.module,
                &tasks,
                &cfg,
                RunHooks { governor: Some(gov.as_mut()), ..Default::default() },
            )
            .unwrap();
        }
        let governed = run_workload_with(
            &w.module,
            &tasks,
            &cfg,
            RunHooks { governor: Some(gov.as_mut()), ..Default::default() },
        )
        .unwrap()
        .edp();

        println!(
            "{}: bandit {governed:.3e} vs oracle {oracle:.3e} ({:+.1}%)",
            w.name,
            (governed / oracle - 1.0) * 100.0
        );
        assert!(
            governed <= oracle * 1.10,
            "{}: warmed-up bandit EDP {governed:.3e} not within 10% of oracle {oracle:.3e} \
             ({:+.1}%)",
            w.name,
            (governed / oracle - 1.0) * 100.0
        );
    }
}

/// Mixed-boundedness workload: decoupled compute-leaning stream tasks plus
/// *coupled* memory-bound scan tasks. `DaeMinMax` runs every execute phase
/// (and every coupled task) at fmax; the heuristic notices the scans are
/// memory-bound and clocks them down.
fn mixed_boundedness() -> (Module, Vec<TaskInstance>) {
    let mut m = Module::new();
    let a = m.add_global("a", Type::F64, 1 << 17);
    let big = m.add_global("big", Type::F64, 1 << 21);

    let mut b = FunctionBuilder::new("stream", vec![Type::I64], Type::Void);
    b.set_task();
    b.counted_loop(Value::i64(0), Value::i64(2048), Value::i64(1), |b, i| {
        let idx = b.iadd(Value::Arg(0), i);
        let p = b.elem_addr(Value::Global(a), idx, Type::F64);
        let v = b.load(Type::F64, p);
        let w = b.fmul(v, 1.0000001f64);
        let w = b.fadd(w, 0.5f64);
        b.store(p, w);
    });
    b.ret(None);
    let stream = m.add_function(b.finish());

    let mut b = FunctionBuilder::new("stream__access", vec![Type::I64], Type::Void);
    b.counted_loop(Value::i64(0), Value::i64(2048), Value::i64(8), |b, i| {
        let idx = b.iadd(Value::Arg(0), i);
        let p = b.elem_addr(Value::Global(a), idx, Type::F64);
        b.prefetch(p);
    });
    b.ret(None);
    let access = m.add_function(b.finish());

    // A strided scan over a large array: almost every load misses, and no
    // access phase hides that — the memory-bound class.
    let mut b = FunctionBuilder::new("scan", vec![Type::I64], Type::Void);
    b.set_task();
    b.counted_loop(Value::i64(0), Value::i64(2048), Value::i64(1), |b, i| {
        let stride = b.imul(i, Value::i64(128));
        let idx = b.iadd(Value::Arg(0), stride);
        let p = b.elem_addr(Value::Global(big), idx, Type::F64);
        let v = b.load(Type::F64, p);
        let w = b.fadd(v, 1.0f64);
        b.store(p, w);
    });
    b.ret(None);
    let scan = m.add_function(b.finish());

    let mut tasks = Vec::new();
    for k in 0..12i64 {
        tasks.push(TaskInstance::decoupled(stream, access, vec![Val::I(k * 2048)]));
        tasks.push(TaskInstance::coupled(scan, vec![Val::I((k % 8) * 262144)]));
    }
    (m, tasks)
}

#[test]
fn heuristic_beats_dae_minmax_on_mixed_boundedness() {
    let (m, tasks) = mixed_boundedness();
    let cfg = RuntimeConfig::paper_default();

    let minmax =
        run_workload(&m, &tasks, &cfg.clone().with_policy(FreqPolicy::DaeMinMax)).unwrap().edp();

    let mut gov = GovernorKind::Heuristic.build(&cfg.table);
    for _ in 0..3 {
        run_workload_with(
            &m,
            &tasks,
            &cfg,
            RunHooks { governor: Some(gov.as_mut()), ..Default::default() },
        )
        .unwrap();
    }
    let governed = run_workload_with(
        &m,
        &tasks,
        &cfg,
        RunHooks { governor: Some(gov.as_mut()), ..Default::default() },
    )
    .unwrap()
    .edp();

    assert!(
        governed < minmax,
        "heuristic EDP {governed:.3e} should beat DaeMinMax {minmax:.3e} \
         ({:+.1}%)",
        (governed / minmax - 1.0) * 100.0
    );
}
