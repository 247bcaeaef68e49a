//! Differential testing of the two execution engines: the tree-walking
//! interpreter and the pre-lowered bytecode VM must be **observationally
//! identical** — same results, same `PhaseTrace` (per-level hits/misses,
//! `DemandMiss` dependence chains, instruction counts), same `InterpError`s
//! at the same step counts, byte-identical `RunReport` JSON — on the
//! benchmark corpus, on randomly generated programs, and on every graceful
//! failure path (traps, type mismatches, step-limit boundaries, call-depth
//! exhaustion).
//!
//! Driver-level determinism across `--jobs` counts and artifact-cache
//! states is covered by `driver_equivalence.rs`; this suite adds the
//! machine-level cache states (cold vs warm simulated caches, cold vs
//! reused bytecode) on top.

use dae_repro::ir::{BinOp, CmpOp, FuncId, FunctionBuilder, Module, Type, UnOp, Value};
use dae_repro::mem::{CoreCaches, HierarchyConfig, SharedLlc};
use dae_repro::runtime::{run_workload, FreqPolicy, RuntimeConfig};
use dae_repro::sim::{CachePort, EngineKind, InterpError, Machine, PhaseTrace, Val};
use dae_repro::workloads::{self, Variant};
use proptest::prelude::*;

/// Everything observable from one interpreter run.
#[derive(Debug, PartialEq)]
struct Observation {
    result: Result<Option<Val>, InterpError>,
    trace: PhaseTrace,
    memory: Vec<u64>,
}

/// Runs `func` on a fresh machine + cache hierarchy under `engine`,
/// `runs` times back to back (later runs see warm simulated caches and,
/// on the bytecode engine, the cached lowered program).
fn observe(
    m: &Module,
    func: FuncId,
    args: &[Val],
    engine: EngineKind,
    max_steps: u64,
    max_call_depth: usize,
    runs: usize,
) -> Vec<Observation> {
    let hc = HierarchyConfig::default();
    let mut llc = SharedLlc::new(hc.llc);
    let mut core = CoreCaches::new(&hc);
    let mut machine = Machine::new(m);
    machine.config.engine = engine;
    machine.config.max_steps = max_steps;
    machine.config.max_call_depth = max_call_depth;
    (0..runs)
        .map(|_| {
            let mut trace = PhaseTrace::default();
            let result = machine.run(
                func,
                args,
                &mut CachePort { core: &mut core, llc: &mut llc },
                &mut trace,
            );
            let mut memory = Vec::new();
            for (g, data) in m.globals() {
                let base = machine.memory.global_addr(g);
                for k in 0..data.len {
                    memory.push(machine.memory.read_u64(base + k * 8));
                }
            }
            Observation { result, trace, memory }
        })
        .collect()
}

/// Asserts tree ≡ bytecode for `func` at the given limits, over `runs`
/// back-to-back executions (cold first run, warm later ones), and returns
/// the agreed observations.
fn assert_equivalent(
    m: &Module,
    func: FuncId,
    args: &[Val],
    max_steps: u64,
    max_call_depth: usize,
    runs: usize,
) -> Vec<Observation> {
    let tree = observe(m, func, args, EngineKind::Tree, max_steps, max_call_depth, runs);
    let vm = observe(m, func, args, EngineKind::Bytecode, max_steps, max_call_depth, runs);
    assert_eq!(tree, vm, "engines diverged (max_steps={max_steps})");
    vm
}

/// Dynamic steps consumed by a completed run: every instruction bumps
/// exactly one of `instrs`/`addr_ops`, terminators bump `instrs`.
fn steps_of(o: &Observation) -> u64 {
    o.trace.instrs + o.trace.addr_ops
}

fn first_func(m: &Module, name: &str) -> FuncId {
    m.func_by_name(name).expect("function exists")
}

// ---------------------------------------------------------------------------
// Corpus: the seven paper benchmarks, whole-workload report equality.
// ---------------------------------------------------------------------------

#[test]
fn corpus_run_reports_are_byte_identical() {
    for mut w in workloads::all_benchmarks_small() {
        w.compile_auto();
        for (variant, policy) in [
            (Variant::Cae, FreqPolicy::CoupledMax),
            (Variant::AutoDae, FreqPolicy::DaeOptimal),
            (Variant::ManualDae, FreqPolicy::DaeMinMax),
        ] {
            let tasks = w.tasks(variant);
            let base = RuntimeConfig::paper_default().with_policy(policy);
            let tree = run_workload(&w.module, &tasks, &base.clone().with_engine(EngineKind::Tree))
                .expect("tree run");
            let vm = run_workload(&w.module, &tasks, &base.with_engine(EngineKind::Bytecode))
                .expect("bytecode run");
            assert_eq!(
                tree.to_json().to_json_string(),
                vm.to_json().to_json_string(),
                "{} {variant:?}: RunReport JSON diverged",
                w.name
            );
        }
    }
}

#[test]
fn corpus_traces_match_cold_and_warm() {
    for mut w in workloads::all_benchmarks_small() {
        w.compile_auto();
        let tasks = w.tasks(Variant::Cae);
        let t = &tasks[0];
        // Two back-to-back runs: run 1 is cold (lowering happens, caches
        // empty), run 2 reuses the warmed caches and the cached bytecode.
        let obs = assert_equivalent(&w.module, t.func, &t.args, u64::MAX, 64, 2);
        assert!(steps_of(&obs[0]) > 0, "{} ran no instructions", w.name);
    }
}

// ---------------------------------------------------------------------------
// Step-limit boundaries and call-depth traps.
// ---------------------------------------------------------------------------

fn loop_sum_module() -> Module {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("sum", vec![Type::I64], Type::I64);
    let out = b.counted_loop_carried(
        Value::i64(0),
        Value::Arg(0),
        Value::i64(1),
        vec![Value::i64(0)],
        |b, i, c| vec![b.iadd(c[0], i)],
    );
    b.ret(Some(out[0]));
    m.add_function(b.finish());
    m
}

/// The functions of [`superop_module`]: one per fused shape of the
/// bytecode lowering and per near miss its matcher must leave alone (see
/// `crates/sim/src/vm/lower.rs`).
const SUPEROP_PROGRAMS: [&str; 10] = [
    "scale_add_prefetch",
    "scale_add_store",
    "scale_add_load_f",
    "scale_add_load_i",
    "scale_not_adjacent",
    "ptr_add_load",
    "mul_add",
    "mul_add_jump",
    "cmp_br_f64",
    "cmp_br_ptr_bool",
];

/// Small loops, each built around one instruction chain: the element
/// address `imul(i, 8) -> ptradd(g, .)` feeding a prefetch, a store or a
/// typed load; the same with an instruction in between; a `ptradd` of a
/// non-multiply feeding a load; `imul -> iadd`; and a compare feeding its
/// block's branch on every comparable type. Every counted loop adds an
/// I64 compare+branch and a counter-increment+back-edge on top.
fn superop_module() -> Module {
    let mut m = Module::new();
    let fs: Vec<f64> = (0..8).map(|k| k as f64 * 0.5 + 1.0).collect();
    let is: Vec<i64> = (0..8).map(|k| k * 3 + 1).collect();
    let data = workloads::common::init_f64_global(&mut m, "data", &fs);
    let tab = workloads::common::init_i64_global(&mut m, "tab", &is);
    let (lo, hi, one) = (Value::i64(0), Value::i64(3), Value::i64(1));

    let mut b = FunctionBuilder::new("scale_add_prefetch", vec![], Type::Void);
    b.counted_loop(lo, hi, one, |b, i| {
        let p = b.elem_addr(Value::Global(data), i, Type::F64);
        b.prefetch(p);
    });
    b.ret(None);
    m.add_function(b.finish());

    let mut b = FunctionBuilder::new("scale_add_store", vec![], Type::Void);
    b.counted_loop(lo, hi, one, |b, i| {
        let scaled = b.imul(8i64, i);
        let p = b.ptr_add(Value::Global(data), scaled);
        b.store(p, Value::f64(2.5));
    });
    b.ret(None);
    m.add_function(b.finish());

    let mut b = FunctionBuilder::new("scale_add_load_f", vec![], Type::F64);
    let acc = b.counted_loop_carried(lo, hi, one, vec![Value::f64(0.0)], |b, i, c| {
        let p = b.elem_addr(Value::Global(data), i, Type::F64);
        let v = b.load(Type::F64, p);
        vec![b.fadd(c[0], v)]
    });
    b.ret(Some(acc[0]));
    m.add_function(b.finish());

    let mut b = FunctionBuilder::new("scale_add_load_i", vec![], Type::I64);
    let acc = b.counted_loop_carried(lo, hi, one, vec![Value::i64(0)], |b, i, c| {
        let p = b.elem_addr(Value::Global(tab), i, Type::I64);
        let v = b.load(Type::I64, p);
        vec![b.xor(c[0], v)]
    });
    b.ret(Some(acc[0]));
    m.add_function(b.finish());

    // The scale multiply's consumer is not the next instruction.
    let mut b = FunctionBuilder::new("scale_not_adjacent", vec![], Type::I64);
    let acc = b.counted_loop_carried(lo, hi, one, vec![Value::i64(0)], |b, i, c| {
        let scaled = b.imul(i, 8i64);
        let mixed = b.xor(c[0], i);
        let p = b.ptr_add(Value::Global(tab), scaled);
        let v = b.load(Type::I64, p);
        vec![b.xor(mixed, v)]
    });
    b.ret(Some(acc[0]));
    m.add_function(b.finish());

    // The offset is a carried byte count, not a multiply.
    let mut b = FunctionBuilder::new("ptr_add_load", vec![], Type::I64);
    let acc = b.counted_loop_carried(lo, hi, one, vec![Value::i64(0), Value::i64(0)], |b, _, c| {
        let p = b.ptr_add(Value::Global(tab), c[1]);
        let v = b.load(Type::I64, p);
        let q = b.ptr_add(Value::Global(data), c[1]);
        let w = b.load(Type::F64, q);
        let wi = b.ftoi(w);
        let s = b.xor(v, wi);
        vec![b.xor(c[0], s), b.binary(BinOp::IAdd, c[1], 8i64)]
    });
    b.ret(Some(acc[0]));
    m.add_function(b.finish());

    let mut b = FunctionBuilder::new("mul_add", vec![], Type::I64);
    let acc = b.counted_loop_carried(lo, hi, one, vec![Value::i64(1)], |b, i, c| {
        let t = b.imul(c[0], 7i64);
        let u = b.iadd(t, i);
        let scaled = b.imul(u, 2i64);
        let both = b.iadd(scaled, scaled);
        vec![b.xor(both, 5i64)]
    });
    b.ret(Some(acc[0]));
    m.add_function(b.finish());

    // The add is the block's last instruction in front of a jump: the
    // counter-increment+back-edge shape wins over multiply+add.
    let mut b = FunctionBuilder::new("mul_add_jump", vec![], Type::I64);
    let out = b.while_loop(
        vec![Value::i64(1)],
        |b, c| b.cmp(CmpOp::Lt, c[0], 50i64),
        |b, c| {
            let t = b.imul(c[0], 3i64);
            vec![b.iadd(t, 1i64)]
        },
    );
    b.ret(Some(out[0]));
    m.add_function(b.finish());

    let mut b = FunctionBuilder::new("cmp_br_f64", vec![], Type::Void);
    b.counted_loop(lo, hi, one, |b, i| {
        let x = b.itof(i);
        let big = b.cmp(CmpOp::Ge, x, Value::f64(1.0));
        b.if_then(big, |b| b.store(Value::Global(data), x));
    });
    b.ret(None);
    m.add_function(b.finish());

    let mut b = FunctionBuilder::new("cmp_br_ptr_bool", vec![], Type::Void);
    b.counted_loop(lo, hi, one, |b, i| {
        let p = b.elem_addr(Value::Global(data), i, Type::F64);
        let past = b.cmp(CmpOp::Gt, p, Value::Global(data));
        b.if_then(past, |b| b.prefetch(p));
        let odd = b.and(i, 1i64);
        let is_odd = b.cmp(CmpOp::Ne, odd, 0i64);
        let same = b.cmp(CmpOp::Eq, is_odd, past);
        b.if_then(same, |b| b.store(p, Value::f64(0.25)));
    });
    b.ret(None);
    m.add_function(b.finish());

    dae_repro::ir::verify_module(&m).expect("super-op programs verify");
    m
}

#[test]
fn step_limit_boundaries_are_exact() {
    let m = loop_sum_module();
    let f = first_func(&m, "sum");
    let args = [Val::I(25)];
    let full = assert_equivalent(&m, f, &args, u64::MAX, 64, 1);
    assert_eq!(full[0].result, Ok(Some(Val::I(300))));
    let total = steps_of(&full[0]);
    // Sweep the budget through every interesting region, including both
    // sides of the exact boundary: identical Result AND identical partial
    // trace at every point.
    for max_steps in [0, 1, 2, total / 2, total - 1, total, total + 1] {
        let obs = assert_equivalent(&m, f, &args, max_steps, 64, 1);
        if max_steps < total {
            assert_eq!(obs[0].result, Err(InterpError::StepLimit), "budget {max_steps}");
            assert_eq!(steps_of(&obs[0]), max_steps, "a failing step is not counted");
        } else {
            assert_eq!(obs[0].result, Ok(Some(Val::I(300))), "budget {max_steps}");
        }
    }
    // One program per super-op, every budget from nothing to enough: the
    // budget runs out before, between and after the constituents of each.
    let m = superop_module();
    for name in SUPEROP_PROGRAMS {
        let f = first_func(&m, name);
        let full = assert_equivalent(&m, f, &[], u64::MAX, 64, 1);
        assert!(full[0].result.is_ok(), "{name}: {:?}", full[0].result);
        let total = steps_of(&full[0]);
        for max_steps in 0..=total {
            let obs = assert_equivalent(&m, f, &[], max_steps, 64, 1);
            if max_steps < total {
                assert_eq!(obs[0].result, Err(InterpError::StepLimit), "{name} budget {max_steps}");
                assert_eq!(steps_of(&obs[0]), max_steps, "{name}: a failing step is not counted");
            } else {
                assert_eq!(obs[0].result, full[0].result, "{name} budget {max_steps}");
            }
        }
    }
}

#[test]
fn call_depth_traps_identically() {
    // rec(n) { rec(n - 1) } — self-call by index (ids are dense, so the
    // first function added is fn0); unconditional, so only the depth
    // budget can stop it.
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("rec", vec![Type::I64], Type::I64);
    let nm1 = b.isub(Value::Arg(0), 1i64);
    let sub = b.call(FuncId(0), vec![nm1], Type::I64).expect("i64 callee");
    let inc = b.iadd(sub, 1i64);
    b.ret(Some(inc));
    let installed = m.add_function(b.finish());
    assert_eq!(installed, FuncId(0));
    let f = first_func(&m, "rec");
    for depth in [0usize, 1, 3, 7] {
        let obs = assert_equivalent(&m, f, &[Val::I(100)], u64::MAX, depth, 1);
        match &obs[0].result {
            Err(InterpError::Trap(msg)) => assert_eq!(msg, "call depth exceeded"),
            other => panic!("expected depth trap at {depth}, got {other:?}"),
        }
    }

    // A callee that itself ends in a super-op, under a caller that goes on
    // to run super-ops after the call returned (the callee's frame grew the
    // shared stack underneath the caller's):
    //   leaf(n) { tab[n] }
    //   down(n) { n == 0 ? leaf(0) : down(n - 1) * 3 + leaf(n & 7) }
    let mut m = Module::new();
    let is: Vec<i64> = (0..8).map(|k| k * 5 + 2).collect();
    let tab = workloads::common::init_i64_global(&mut m, "tab", &is);
    let mut b = FunctionBuilder::new("leaf", vec![Type::I64], Type::I64);
    let p = b.elem_addr(Value::Global(tab), Value::Arg(0), Type::I64);
    let v = b.load(Type::I64, p);
    b.ret(Some(v));
    let leaf = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("down", vec![Type::I64], Type::I64);
    let bottom = b.cmp(CmpOp::Eq, Value::Arg(0), 0i64);
    let r = b.if_then_else(
        bottom,
        vec![Type::I64],
        |b| vec![b.call(leaf, vec![Value::i64(0)], Type::I64).expect("i64 callee")],
        |b| {
            let nm1 = b.isub(Value::Arg(0), 1i64);
            let below = b.call(FuncId(1), vec![nm1], Type::I64).expect("i64 callee");
            let wrapped = b.and(Value::Arg(0), 7i64);
            let here = b.call(leaf, vec![wrapped], Type::I64).expect("i64 callee");
            let scaled = b.imul(below, 3i64);
            vec![b.iadd(scaled, here)]
        },
    );
    b.ret(Some(r[0]));
    assert_eq!(m.add_function(b.finish()), FuncId(1));
    dae_repro::ir::verify_module(&m).expect("recursive module verifies");
    let f = first_func(&m, "down");
    // down(5) reaches depth 5, its leaf depth 6.
    for depth in [0usize, 1, 3, 5, 6, 7, 64] {
        let obs = assert_equivalent(&m, f, &[Val::I(5)], u64::MAX, depth, 2);
        match &obs[0].result {
            Err(InterpError::Trap(msg)) if depth < 6 => assert_eq!(msg, "call depth exceeded"),
            Ok(Some(Val::I(_))) if depth >= 6 => {}
            other => panic!("depth {depth}: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Graceful-failure parity: every InterpError variant, same error, same
// partial trace.
// ---------------------------------------------------------------------------

#[test]
fn error_paths_are_identical() {
    // Integer division by zero.
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("div", vec![Type::I64], Type::I64);
    let q = b.idiv(7i64, Value::Arg(0));
    b.ret(Some(q));
    m.add_function(b.finish());
    let obs = assert_equivalent(&m, first_func(&m, "div"), &[Val::I(0)], u64::MAX, 64, 1);
    assert!(matches!(&obs[0].result, Err(InterpError::Trap(msg)) if msg.contains("division")));

    // Remainder by zero.
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("rem", vec![Type::I64], Type::I64);
    let q = b.binary(BinOp::IRem, 7i64, Value::Arg(0));
    b.ret(Some(q));
    m.add_function(b.finish());
    let obs = assert_equivalent(&m, first_func(&m, "rem"), &[Val::I(0)], u64::MAX, 64, 1);
    assert!(matches!(&obs[0].result, Err(InterpError::Trap(msg)) if msg.contains("remainder")));

    // Type mismatch (iadd over a float), and its operand-order dependence.
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("bad", vec![], Type::I64);
    let v = b.iadd(Value::f64(1.5), Value::i64(2));
    b.ret(Some(v));
    m.add_function(b.finish());
    let obs = assert_equivalent(&m, first_func(&m, "bad"), &[], u64::MAX, 64, 1);
    assert_eq!(obs[0].result, Err(InterpError::TypeMismatch { expected: "i64", got: "f64" }));

    // Void load.
    let mut m = Module::new();
    let g = m.add_global("a", Type::F64, 1);
    let mut b = FunctionBuilder::new("voidload", vec![], Type::Void);
    let addr = b.elem_addr(Value::Global(g), Value::i64(0), Type::F64);
    let _ = b.load(Type::Void, addr);
    b.ret(None);
    m.add_function(b.finish());
    let obs = assert_equivalent(&m, first_func(&m, "voidload"), &[], u64::MAX, 64, 1);
    assert_eq!(obs[0].result, Err(InterpError::LoadVoid));

    // Arity trap, same message.
    let m = loop_sum_module();
    let obs = observe(&m, first_func(&m, "sum"), &[], EngineKind::Tree, u64::MAX, 64, 1);
    let vm = observe(&m, first_func(&m, "sum"), &[], EngineKind::Bytecode, u64::MAX, 64, 1);
    assert_eq!(obs, vm);
    match &vm[0].result {
        Err(InterpError::Trap(msg)) => {
            assert_eq!(msg, "function `sum` expects 1 args, got 0");
        }
        other => panic!("expected arity trap, got {other:?}"),
    }

    // Out-of-range prefetches are counted then dropped by both engines.
    let mut m = Module::new();
    let _g = m.add_global("a", Type::F64, 8);
    let mut b = FunctionBuilder::new("p", vec![], Type::Void);
    let wild = b.unary(UnOp::IntToPtr, Value::i64(0x7fff_ffff));
    b.prefetch(wild);
    b.ret(None);
    m.add_function(b.finish());
    let obs = assert_equivalent(&m, first_func(&m, "p"), &[], u64::MAX, 64, 1);
    assert_eq!(obs[0].trace.prefetches, 1);
    assert_eq!(obs[0].trace.prefetch_hits.iter().sum::<u64>(), 0);
}

// ---------------------------------------------------------------------------
// Randomly generated programs (proptest): results, traces, memory images
// and exact step-limit boundaries.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum GenOp {
    /// Integer arithmetic (add/sub/mul/xor/and — never traps).
    IArith(u8, usize, usize),
    /// Float arithmetic (add/mul/div/min — div exercises extra-latency).
    FArith(u8, usize, usize),
    /// sqrt of an accumulated float.
    Sqrt(usize),
    /// Data-dependent select between two floats.
    Select(usize, usize, usize),
    /// Indirect gather: idx[x & 31] then data[that] (dependent misses).
    Gather(usize),
    /// Store the running float at out[x & 31 in the row].
    StoreAt(usize),
    /// Software prefetch of data[x & 31] (in range) or a wild address.
    Prefetch(usize, bool),
    /// Call the helper `twice(x)` (exercises frames + arg passing).
    Call(usize),
    /// Element address `imul(x & 31, scale) -> ptradd(global, .)` feeding
    /// a sink. `scale` picks 1/2/4/8 (folds into the addressing mode) or 3
    /// (does not), `scale_lhs` which side the constant sits on, `sink` one
    /// of: load f64, load i64, load ptr, load bool, prefetch, store, or
    /// nothing adjacent (the address is prefetched one instruction later).
    ScaleAddr { a: usize, scale: u8, scale_lhs: bool, sink: u8 },
    /// `imul(x, y) -> iadd` consuming it on the left, the right or both.
    MulAdd { a: usize, c: usize, d: usize, shape: u8 },
    /// A compare of two i64 / f64 / ptr / bool values feeding its own
    /// block's branch.
    CmpBranch { ty: u8, op: u8, a: usize, c: usize },
    /// A branch on a bool that is not its block's final compare, so it
    /// lowers to a plain `Branch`: a pooled bool (constant, loaded, or a
    /// compare of an earlier block) or, with `late_cmp`, a fresh compare
    /// with an integer add scheduled between it and the branch.
    BoolBranch { a: usize, late_cmp: bool },
    /// One of the fusable shapes with a wrongly-typed operand. Never
    /// produced by [`gen_op`] (the module does not verify and the run
    /// fails); see [`gen_ill_typed`].
    IllTyped { shape: u8, a: usize },
}

/// Shapes of [`GenOp::IllTyped`].
const ILL_TYPED_SHAPES: u8 = 11;

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (0u8..5, 0usize..32, 0usize..32).prop_map(|(o, a, b)| GenOp::IArith(o, a, b)),
        (0u8..4, 0usize..32, 0usize..32).prop_map(|(o, a, b)| GenOp::FArith(o, a, b)),
        (0usize..32).prop_map(GenOp::Sqrt),
        (0usize..32, 0usize..32, 0usize..32).prop_map(|(c, a, b)| GenOp::Select(c, a, b)),
        (0usize..32).prop_map(GenOp::Gather),
        (0usize..32).prop_map(GenOp::StoreAt),
        (0usize..32, any::<bool>()).prop_map(|(a, w)| GenOp::Prefetch(a, w)),
        (0usize..32).prop_map(GenOp::Call),
        (0usize..32, 0u8..5, any::<bool>(), 0u8..7)
            .prop_map(|(a, scale, scale_lhs, sink)| GenOp::ScaleAddr { a, scale, scale_lhs, sink }),
        (0usize..32, 0usize..32, 0usize..32, 0u8..3).prop_map(|(a, c, d, shape)| GenOp::MulAdd {
            a,
            c,
            d,
            shape
        }),
        (0u8..4, 0u8..6, 0usize..32, 0usize..32).prop_map(|(ty, op, a, c)| GenOp::CmpBranch {
            ty,
            op,
            a,
            c
        }),
        (0usize..32, any::<bool>()).prop_map(|(a, late_cmp)| GenOp::BoolBranch { a, late_cmp }),
    ]
}

fn gen_ill_typed() -> impl Strategy<Value = GenOp> {
    (0u8..ILL_TYPED_SHAPES, 0usize..32).prop_map(|(shape, a)| GenOp::IllTyped { shape, a })
}

/// Builds `task(base)` plus a `twice` helper: a nested loop over a 32×32
/// grid mixing every instruction family both engines implement.
fn build_random(ops: &[GenOp]) -> Module {
    let n = 32i64;
    let mut m = Module::new();
    let data_init: Vec<f64> = (0..n * n).map(|k| (k as f64) * 0.125 + 1.0).collect();
    let idx_init: Vec<i64> = (0..n).map(|k| (k * 13 + 5) % n).collect();
    let data = workloads::common::init_f64_global(&mut m, "data", &data_init);
    let idx = workloads::common::init_i64_global(&mut m, "idx", &idx_init);
    let out = m.add_global("out", Type::F64, (n * n) as u64);

    let mut hb = FunctionBuilder::new("twice", vec![Type::I64], Type::I64);
    let d = hb.iadd(Value::Arg(0), Value::Arg(0));
    hb.ret(Some(d));
    let helper = m.add_function(hb.finish());

    let mut b = FunctionBuilder::new("task", vec![Type::I64], Type::Void);
    b.counted_loop(Value::i64(0), Value::i64(6), Value::i64(1), |b, i| {
        let gi = b.iadd(Value::Arg(0), i);
        b.counted_loop(Value::i64(0), Value::i64(6), Value::i64(1), |b, j| {
            let mut ints: Vec<Value> = vec![gi, j, Value::i64(9)];
            let mut floats: Vec<Value> = vec![Value::f64(1.5)];
            let mut ptrs: Vec<Value> = vec![Value::Global(data), Value::Global(idx)];
            let mut bools: Vec<Value> = vec![Value::ConstBool(true)];
            let cmps = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let iops = [BinOp::IAdd, BinOp::ISub, BinOp::IMul, BinOp::Xor, BinOp::And];
            let fops = [BinOp::FAdd, BinOp::FMul, BinOp::FDiv, BinOp::FMin];
            for o in ops {
                match o {
                    GenOp::IArith(k, a, c) => {
                        let v = b.binary(
                            iops[*k as usize % iops.len()],
                            ints[a % ints.len()],
                            ints[c % ints.len()],
                        );
                        ints.push(v);
                    }
                    GenOp::FArith(k, a, c) => {
                        let v = b.binary(
                            fops[*k as usize % fops.len()],
                            floats[a % floats.len()],
                            floats[c % floats.len()],
                        );
                        floats.push(v);
                    }
                    GenOp::Sqrt(a) => {
                        // Squared first so the operand is never negative
                        // (NaN-free keeps FMin total-ordered).
                        let x = floats[a % floats.len()];
                        let sq = b.fmul(x, x);
                        floats.push(b.unary(UnOp::FSqrt, sq));
                    }
                    GenOp::Select(c, x, y) => {
                        let cond = b.cmp(CmpOp::Gt, ints[c % ints.len()], 3i64);
                        let v = b.select(cond, floats[x % floats.len()], floats[y % floats.len()]);
                        floats.push(v);
                    }
                    GenOp::Gather(a) => {
                        let wrapped = b.and(ints[a % ints.len()], 31i64);
                        let ia = b.elem_addr(Value::Global(idx), wrapped, Type::I64);
                        let iv = b.load(Type::I64, ia);
                        let da = b.elem_addr(Value::Global(data), iv, Type::F64);
                        floats.push(b.load(Type::F64, da));
                    }
                    GenOp::StoreAt(a) => {
                        let row = b.imul(gi, n);
                        let wrapped = b.and(ints[a % ints.len()], 31i64);
                        let cell = b.iadd(row, wrapped);
                        let oa = b.elem_addr(Value::Global(out), cell, Type::F64);
                        b.store(oa, *floats.last().expect("nonempty"));
                    }
                    GenOp::Prefetch(a, wild) => {
                        if *wild {
                            let p = b.unary(UnOp::IntToPtr, Value::i64(0x7fff_0000));
                            b.prefetch(p);
                        } else {
                            let wrapped = b.and(ints[a % ints.len()], 31i64);
                            let da = b.elem_addr(Value::Global(data), wrapped, Type::F64);
                            b.prefetch(da);
                        }
                    }
                    GenOp::Call(a) => {
                        let v = b
                            .call(helper, vec![ints[a % ints.len()]], Type::I64)
                            .expect("twice returns i64");
                        ints.push(v);
                    }
                    GenOp::ScaleAddr { a, scale, scale_lhs, sink } => {
                        let x = b.and(ints[a % ints.len()], 31i64);
                        let k = Value::i64([1i64, 2, 4, 8, 3][*scale as usize % 5]);
                        let scaled = if *scale_lhs { b.imul(k, x) } else { b.imul(x, k) };
                        // Loads stay inside the 256-byte `idx` or the
                        // larger `data`; stores go to `out`, which no
                        // generated load reads.
                        match sink % 7 {
                            0 => {
                                let p = b.ptr_add(Value::Global(data), scaled);
                                floats.push(b.load(Type::F64, p));
                            }
                            1 => {
                                let p = b.ptr_add(Value::Global(idx), scaled);
                                ints.push(b.load(Type::I64, p));
                            }
                            2 => {
                                let p = b.ptr_add(Value::Global(idx), scaled);
                                ptrs.push(b.load(Type::Ptr, p));
                            }
                            3 => {
                                let p = b.ptr_add(Value::Global(idx), scaled);
                                bools.push(b.load(Type::Bool, p));
                            }
                            4 => {
                                let p = b.ptr_add(Value::Global(data), scaled);
                                b.prefetch(p);
                            }
                            5 => {
                                let p = b.ptr_add(Value::Global(out), scaled);
                                b.store(p, *floats.last().expect("nonempty"));
                            }
                            _ => {
                                ints.push(b.xor(x, 1i64));
                                let p = b.ptr_add(Value::Global(data), scaled);
                                ints.push(b.iadd(scaled, 1i64));
                                b.prefetch(p);
                                ptrs.push(p);
                            }
                        }
                    }
                    GenOp::MulAdd { a, c, d, shape } => {
                        let t = b.imul(ints[a % ints.len()], ints[c % ints.len()]);
                        let other = ints[d % ints.len()];
                        ints.push(match shape % 3 {
                            0 => b.iadd(t, other),
                            1 => b.iadd(other, t),
                            _ => b.iadd(t, t),
                        });
                    }
                    GenOp::CmpBranch { ty, op, a, c } => {
                        let pool = match ty % 4 {
                            0 => &ints,
                            1 => &floats,
                            2 => &ptrs,
                            _ => &bools,
                        };
                        let (x, y) = (pool[a % pool.len()], pool[c % pool.len()]);
                        let cond = b.cmp(cmps[*op as usize % cmps.len()], x, y);
                        bools.push(cond);
                        b.if_then(cond, |b| b.prefetch(Value::Global(data)));
                    }
                    GenOp::BoolBranch { a, late_cmp } => {
                        let cond = if *late_cmp {
                            let x = ints[a % ints.len()];
                            let cond = b.cmp(CmpOp::Lt, x, 16i64);
                            ints.push(b.iadd(x, 1i64));
                            bools.push(cond);
                            cond
                        } else {
                            bools[a % bools.len()]
                        };
                        b.if_then(cond, |b| b.prefetch(Value::Global(data)));
                    }
                    GenOp::IllTyped { shape, a } => {
                        let x = ints[a % ints.len()];
                        let fl = floats[a % floats.len()];
                        let scaled = b.imul(x, 8i64);
                        match shape % ILL_TYPED_SHAPES {
                            // Non-pointer base under each sink.
                            0 => {
                                let p = b.ptr_add(x, scaled);
                                floats.push(b.load(Type::F64, p));
                            }
                            1 => {
                                let p = b.ptr_add(fl, scaled);
                                ints.push(b.load(Type::I64, p));
                            }
                            2 => {
                                let p = b.ptr_add(Value::ConstBool(false), scaled);
                                b.prefetch(p);
                            }
                            // Float index: the multiply itself fails.
                            3 => {
                                let bad = b.imul(fl, 8i64);
                                let p = b.ptr_add(Value::Global(data), bad);
                                floats.push(b.load(Type::F64, p));
                            }
                            4 => {
                                let bad = b.imul(4i64, fl);
                                let p = b.ptr_add(Value::Global(data), bad);
                                b.store(p, fl);
                            }
                            // The multiply as base and offset, and as base
                            // only: an integer where a pointer must be.
                            5 => {
                                let p = b.ptr_add(scaled, scaled);
                                b.prefetch(p);
                            }
                            6 => {
                                let p = b.ptr_add(scaled, x);
                                ints.push(b.load(Type::I64, p));
                            }
                            // Multiply+add with a float on either side of
                            // either constituent.
                            7 => {
                                let t = b.imul(x, x);
                                ints.push(b.iadd(t, fl));
                            }
                            8 => {
                                let t = b.imul(x, fl);
                                ints.push(b.iadd(t, x));
                            }
                            // Compares across types, feeding the branch.
                            9 => {
                                let cond = b.cmp(CmpOp::Lt, x, fl);
                                b.if_then(cond, |b| b.prefetch(Value::Global(data)));
                            }
                            // A good address under a void load.
                            _ => {
                                let p = b.ptr_add(Value::Global(data), scaled);
                                let _ = b.load(Type::Void, p);
                            }
                        }
                    }
                }
            }
            // Unconditional observable effect + a data-dependent branch.
            let row = b.imul(gi, n);
            let cell = b.iadd(row, j);
            let oa = b.elem_addr(Value::Global(out), cell, Type::F64);
            let acc = *floats.last().expect("nonempty");
            b.store(oa, acc);
            let hot = b.cmp(CmpOp::Ge, *ints.last().expect("nonempty"), 0i64);
            b.if_then(hot, |b| {
                let da = b.elem_addr(Value::Global(data), j, Type::F64);
                let _ = b.load(Type::F64, da);
            });
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    m
}

proptest! {
    // 64 cases in a plain `cargo test`; CI's release step asks for 2000
    // through `PROPTEST_CASES`, which the default configuration reads.
    #![proptest_config(ProptestConfig::default())]

    /// Random programs: identical result, trace and final memory image —
    /// cold and warm — plus the exact step-limit boundary.
    #[test]
    fn random_programs_are_engine_invariant(ops in proptest::collection::vec(gen_op(), 1..14)) {
        let m = build_random(&ops);
        dae_repro::ir::verify_module(&m).expect("generated module verifies");
        let f = first_func(&m, "task");
        let args = [Val::I(3)];
        let full = {
            let tree = observe(&m, f, &args, EngineKind::Tree, u64::MAX, 64, 2);
            let vm = observe(&m, f, &args, EngineKind::Bytecode, u64::MAX, 64, 2);
            prop_assert_eq!(&tree, &vm, "full run diverged");
            vm
        };
        prop_assert!(full[0].result.is_ok());
        let total = steps_of(&full[0]);
        // One step short of completion: both engines report StepLimit with
        // identical partial traces; at the boundary both complete.
        for (budget, completes) in [(total - 1, false), (total, true)] {
            let tree = observe(&m, f, &args, EngineKind::Tree, budget, 64, 1);
            let vm = observe(&m, f, &args, EngineKind::Bytecode, budget, 64, 1);
            prop_assert_eq!(&tree, &vm, "budget {} diverged", budget);
            if completes {
                prop_assert!(vm[0].result.is_ok());
            } else {
                prop_assert_eq!(&vm[0].result, &Err(InterpError::StepLimit));
                prop_assert_eq!(steps_of(&vm[0]), budget);
            }
        }
    }

    /// A fusable shape with one wrongly-typed operand, anywhere in a random
    /// program: both engines fail with the same error after the same steps
    /// and leave the same partial trace — also when the budget ends just
    /// short of the failing instruction.
    #[test]
    fn ill_typed_fusable_shapes_fail_identically(
        before in proptest::collection::vec(gen_op(), 0..8),
        bad in gen_ill_typed(),
        after in proptest::collection::vec(gen_op(), 0..3),
    ) {
        let ops: Vec<GenOp> = before.into_iter().chain([bad]).chain(after).collect();
        let m = build_random(&ops);
        let f = first_func(&m, "task");
        let args = [Val::I(3)];
        let tree = observe(&m, f, &args, EngineKind::Tree, u64::MAX, 64, 2);
        let vm = observe(&m, f, &args, EngineKind::Bytecode, u64::MAX, 64, 2);
        prop_assert_eq!(&tree, &vm, "full run diverged");
        prop_assert!(
            matches!(
                vm[0].result,
                Err(InterpError::TypeMismatch { .. }) | Err(InterpError::LoadVoid)
            ),
            "{:?}",
            vm[0].result
        );
        // The failing instruction's own step is charged before it fails.
        let failed_at = steps_of(&vm[0]);
        for budget in failed_at.saturating_sub(3)..=failed_at {
            let tree = observe(&m, f, &args, EngineKind::Tree, budget, 64, 1);
            let vm = observe(&m, f, &args, EngineKind::Bytecode, budget, 64, 1);
            prop_assert_eq!(&tree, &vm, "budget {} diverged", budget);
            prop_assert_eq!(vm[0].result == Err(InterpError::StepLimit), budget < failed_at);
        }
    }
}
