//! Single-layer probes: each times calls into one layer's public
//! functions on synthetic or recorded inputs, from outside the layer.
//!
//! A probe repeats its call for a time budget and reports the median of
//! the per-call costs, so one descheduled call does not move the result.

use std::hint::black_box;
use std::time::Instant;

use dae_governor::SplitMix64;
use dae_ir::{FunctionBuilder, Module, Type, Value};
use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
use dae_power::{select_optimal_edp, DvfsTable, PowerModel};
use dae_sim::{CachePort, EngineKind, Machine, PhaseTrace, TimingConfig, Val};

use crate::metrics::median;

/// Calls `f` — which does some work and returns how many units it did —
/// at least three times and until `budget_s` is spent; returns the median
/// nanoseconds per unit.
pub fn ns_per_unit(budget_s: f64, mut f: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut costs = Vec::new();
    while costs.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        let units = f();
        costs.push(t0.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(&costs)
}

/// Simulated steps of a trace: issued instructions plus folded address
/// arithmetic — what the dispatch loop executes.
pub fn steps(t: &PhaseTrace) -> u64 {
    t.instrs + t.addr_ops
}

/// A machine pinned to the bytecode engine (never `DAE_SIM_ENGINE`).
pub fn bytecode_machine(module: &Module) -> Machine<'_> {
    let mut m = Machine::new(module);
    m.config.engine = EngineKind::Bytecode;
    m
}

/// Two microkernels built with `FunctionBuilder`: `alu` touches no memory
/// (dispatch alone), `l1load` adds one L1-resident load per iteration.
fn microkernels() -> Module {
    let mut m = Module::new();
    let g = m.add_global("buf", Type::F64, 512);
    let mut b = FunctionBuilder::new("alu", vec![Type::I64], Type::I64);
    let acc = b.counted_loop_carried(
        Value::i64(0),
        Value::Arg(0),
        Value::i64(1),
        vec![Value::i64(1)],
        |b, i, c| {
            let x = b.imul(c[0], 3i64);
            let y = b.iadd(x, i);
            let z = b.xor(y, 0x5555i64);
            vec![b.isub(z, 7i64)]
        },
    );
    b.ret(Some(acc[0]));
    m.add_function(b.finish());
    let mut b = FunctionBuilder::new("l1load", vec![Type::I64], Type::F64);
    let acc = b.counted_loop_carried(
        Value::i64(0),
        Value::Arg(0),
        Value::i64(1),
        vec![Value::f64(0.0)],
        |b, i, c| {
            let k = b.and(i, 511i64);
            let p = b.elem_addr(Value::Global(g), k, Type::F64);
            let v = b.load(Type::F64, p);
            vec![b.fadd(c[0], v)]
        },
    );
    b.ret(Some(acc[0]));
    m.add_function(b.finish());
    m
}

/// `(sim.ns_per_step.alu, sim.ns_per_step.l1load)`.
pub fn ns_per_step(budget_s: f64) -> (f64, f64) {
    let module = microkernels();
    let hc = HierarchyConfig::default();
    let mut out = [0.0; 2];
    for (slot, name) in out.iter_mut().zip(["alu", "l1load"]) {
        let f = module.func_by_name(name).expect("microkernel exists");
        let mut machine = bytecode_machine(&module);
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        *slot = ns_per_unit(budget_s / 2.0, || {
            let mut trace = PhaseTrace::default();
            let mut port = CachePort { core: &mut core, llc: &mut llc };
            black_box(machine.run(f, &[Val::I(50_000)], &mut port, &mut trace))
                .expect("microkernel runs");
            steps(&trace)
        });
    }
    (out[0], out[1])
}

/// Nanoseconds per access of the five synthetic address streams, in the
/// order `l1_hit, stream_read, stream_write, prefetch_scan, random`.
pub fn ns_per_access(budget_s: f64, seed: u64) -> [f64; 5] {
    const BATCH: u64 = 1 << 16;
    // Four times the LLC, so the streaming probes miss every level.
    const REGION: u64 = 32 << 20;
    let hc = HierarchyConfig::default();
    let mut rng = SplitMix64::new(seed);
    let mut out = [0.0; 5];
    for (kind, slot) in out.iter_mut().enumerate() {
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        let mut next = 0u64;
        *slot = ns_per_unit(budget_s / 5.0, || {
            for _ in 0..BATCH {
                match kind {
                    0 => {
                        black_box(core.access_demand(&mut llc, next % 4096));
                        next += 8;
                    }
                    1 => {
                        black_box(core.access_demand(&mut llc, next % REGION));
                        next += 8;
                    }
                    2 => {
                        black_box(core.access_write(&mut llc, next % REGION));
                        next += 8;
                    }
                    3 => {
                        black_box(core.access(&mut llc, next % REGION));
                        next += 64;
                    }
                    _ => {
                        let addr = rng.next_below(REGION / 64) * 64;
                        black_box(core.access_demand(&mut llc, addr));
                    }
                }
            }
            BATCH
        });
    }
    out
}

/// `(sim.timing.time_s_us, power.select_optimal_us)` on recorded traces:
/// microseconds per `PhaseTrace::time_s` call and per
/// `select_optimal_edp` search, as the scheduler makes them.
pub fn timing_and_power_us(budget_s: f64, traces: &[&PhaseTrace]) -> (f64, f64) {
    let timing = TimingConfig::default();
    let table = DvfsTable::sandybridge();
    let power = PowerModel::sandybridge();
    let fmax = table.point(table.max()).hz();
    let time_ns = ns_per_unit(budget_s / 2.0, || {
        for t in traces {
            black_box(t.time_s(black_box(fmax), &timing));
        }
        traces.len() as u64
    });
    let select_ns = ns_per_unit(budget_s / 2.0, || {
        for t in traces {
            black_box(select_optimal_edp(&table, &power, 1, |id| {
                let f = table.point(id).hz();
                (t.time_s(f, &timing), t.ipc(f, &timing))
            }));
        }
        traces.len() as u64
    });
    (time_ns / 1e3, select_ns / 1e3)
}
