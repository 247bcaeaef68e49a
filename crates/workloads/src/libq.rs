//! Quantum register simulation (SPEC CPU2006 `libquantum`).
//!
//! A quantum register as a table of basis states (`basis[i]`, an `i64` bit
//! pattern) with complex amplitudes (`amp_re[i]`, `amp_im[i]`) — the
//! libquantum data layout whose "different fields of a complex data
//! structure" motivated the expert's per-line prefetch dedup (§6.2.3).
//! Gates iterate the whole table, test control bits and conditionally flip
//! target bits or rotate amplitudes: bitwise ops plus data-dependent
//! conditionals make every loop non-affine (Table 1: 0/6 affine loops).
//!
//! The expert access phase prefetches **one access per cache line** of each
//! array ("Manual DAE eliminates redundant prefetch instructions"), so it
//! completes faster than the compiler's version, which touches every
//! element.

use crate::common::{init_f64_global, init_i64_global, Workload};
use dae_ir::{CmpOp, FuncId, FunctionBuilder, GlobalId, Module, Type, Value};
use dae_sim::Val;

/// Default register table size (number of simulated basis states).
pub(crate) const DEFAULT_STATES: i64 = 262144;

struct Reg {
    basis: GlobalId,
    amp_re: GlobalId,
    amp_im: GlobalId,
}

/// `toffoli(c1_mask, c2_mask, t_mask, lo, hi)`: flip the target bit of every
/// state whose both control bits are set.
fn build_toffoli(m: &mut Module, reg: &Reg) -> FuncId {
    let mut b = FunctionBuilder::new(
        "libq_toffoli",
        vec![Type::I64, Type::I64, Type::I64, Type::I64, Type::I64],
        Type::Void,
    );
    b.set_task();
    let (c1, c2, t, lo, hi) =
        (Value::Arg(0), Value::Arg(1), Value::Arg(2), Value::Arg(3), Value::Arg(4));
    b.counted_loop(lo, hi, Value::i64(1), |b, i| {
        let addr = b.elem_addr(Value::Global(reg.basis), i, Type::I64);
        let s = b.load(Type::I64, addr);
        let b1 = b.and(s, c1);
        let b2 = b.and(s, c2);
        let t1 = b.cmp(CmpOp::Ne, b1, 0i64);
        let t2 = b.cmp(CmpOp::Ne, b2, 0i64);
        let both = b.and_bools(t1, t2);
        b.if_then(both, |b| {
            let flipped = b.xor(s, t);
            b.store(addr, flipped);
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// `cnot(c_mask, t_mask, lo, hi)`.
fn build_cnot(m: &mut Module, reg: &Reg) -> FuncId {
    let mut b = FunctionBuilder::new(
        "libq_cnot",
        vec![Type::I64, Type::I64, Type::I64, Type::I64],
        Type::Void,
    );
    b.set_task();
    let (c, t, lo, hi) = (Value::Arg(0), Value::Arg(1), Value::Arg(2), Value::Arg(3));
    b.counted_loop(lo, hi, Value::i64(1), |b, i| {
        let addr = b.elem_addr(Value::Global(reg.basis), i, Type::I64);
        let s = b.load(Type::I64, addr);
        let bit = b.and(s, c);
        let cond = b.cmp(CmpOp::Ne, bit, 0i64);
        b.if_then(cond, |b| {
            let flipped = b.xor(s, t);
            b.store(addr, flipped);
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// `phase(c_mask, cos, sin, lo, hi)`: rotate the amplitude of every state
/// whose control bit is set.
fn build_phase(m: &mut Module, reg: &Reg) -> FuncId {
    let mut b = FunctionBuilder::new(
        "libq_phase",
        vec![Type::I64, Type::F64, Type::F64, Type::I64, Type::I64],
        Type::Void,
    );
    b.set_task();
    let (c, co, si, lo, hi) =
        (Value::Arg(0), Value::Arg(1), Value::Arg(2), Value::Arg(3), Value::Arg(4));
    b.counted_loop(lo, hi, Value::i64(1), |b, i| {
        let baddr = b.elem_addr(Value::Global(reg.basis), i, Type::I64);
        let s = b.load(Type::I64, baddr);
        let bit = b.and(s, c);
        let cond = b.cmp(CmpOp::Ne, bit, 0i64);
        b.if_then(cond, |b| {
            let ra = b.elem_addr(Value::Global(reg.amp_re), i, Type::F64);
            let ia = b.elem_addr(Value::Global(reg.amp_im), i, Type::F64);
            let re = b.load(Type::F64, ra);
            let im = b.load(Type::F64, ia);
            let t1 = b.fmul(re, co);
            let t2 = b.fmul(im, si);
            let nr = b.fsub(t1, t2);
            let t3 = b.fmul(re, si);
            let t4 = b.fmul(im, co);
            let ni = b.fadd(t3, t4);
            b.store(ra, nr);
            b.store(ia, ni);
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// Expert access phases: one prefetch per cache line (8 elements).
fn build_manual_bits(m: &mut Module, reg: &Reg, name: &str, n_args: usize, lo_idx: u32) -> FuncId {
    let mut b = FunctionBuilder::new(name, vec![Type::I64; n_args], Type::Void);
    let lo = Value::Arg(lo_idx);
    let hi = Value::Arg(lo_idx + 1);
    b.counted_loop(lo, hi, Value::i64(8), |b, i| {
        let addr = b.elem_addr(Value::Global(reg.basis), i, Type::I64);
        b.prefetch(addr);
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_manual_phase(m: &mut Module, reg: &Reg) -> FuncId {
    let mut b = FunctionBuilder::new(
        "libq_phase__manual",
        vec![Type::I64, Type::F64, Type::F64, Type::I64, Type::I64],
        Type::Void,
    );
    let (lo, hi) = (Value::Arg(3), Value::Arg(4));
    b.counted_loop(lo, hi, Value::i64(8), |b, i| {
        let baddr = b.elem_addr(Value::Global(reg.basis), i, Type::I64);
        b.prefetch(baddr);
        let ra = b.elem_addr(Value::Global(reg.amp_re), i, Type::F64);
        b.prefetch(ra);
        let ia = b.elem_addr(Value::Global(reg.amp_im), i, Type::F64);
        b.prefetch(ia);
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// Builds the LibQ workload: a gate sequence over `states` basis states in
/// chunks of `chunk`.
pub fn build_sized(states: i64, chunk: i64) -> Workload {
    let mut module = Module::new();
    let basis: Vec<i64> = (0..states).map(|k| k ^ (k >> 3)).collect();
    let amp: Vec<f64> = (0..states).map(|k| 1.0 / (1.0 + k as f64)).collect();
    let reg = Reg {
        basis: init_i64_global(&mut module, "basis", &basis),
        amp_re: init_f64_global(&mut module, "amp_re", &amp),
        amp_im: init_f64_global(&mut module, "amp_im", &vec![0.0; states as usize]),
    };
    let toffoli = build_toffoli(&mut module, &reg);
    let cnot = build_cnot(&mut module, &reg);
    let phase = build_phase(&mut module, &reg);
    let m_toffoli = build_manual_bits(&mut module, &reg, "libq_toffoli__manual", 5, 3);
    let m_cnot = build_manual_bits(&mut module, &reg, "libq_cnot__manual", 4, 2);
    let m_phase = build_manual_phase(&mut module, &reg);

    let mut w = Workload::new("LibQ", module);
    w.manual_access.insert(toffoli, m_toffoli);
    w.manual_access.insert(cnot, m_cnot);
    w.manual_access.insert(phase, m_phase);
    w.hints.insert(toffoli, vec![1, 2, 4, 0, chunk]);
    w.hints.insert(cnot, vec![1, 2, 0, chunk]);
    w.hints.insert(phase, vec![1, 0.0f64.to_bits() as i64, 0, 0, chunk]);

    // A Grover-ish gate sequence, chunked.
    let (c, s) = (0.92387953251, 0.38268343236); // cos/sin π/8
                                                 // Gates apply sequentially to the register: one barrier epoch per gate.
    let push_chunks = |w: &mut Workload, f: FuncId, head: Vec<Val>, epoch: u32| {
        let mut lo = 0;
        while lo < states {
            let hi = (lo + chunk).min(states);
            let mut args = head.clone();
            args.push(Val::I(lo));
            args.push(Val::I(hi));
            w.instances.push((f, args));
            w.epochs.push(epoch);
            lo = hi;
        }
    };
    let mut epoch = 0;
    for round in 0..2 {
        let shift = round * 2;
        push_chunks(&mut w, cnot, vec![Val::I(1 << shift), Val::I(2 << shift)], epoch);
        push_chunks(
            &mut w,
            toffoli,
            vec![Val::I(1 << shift), Val::I(2 << shift), Val::I(4 << shift)],
            epoch + 1,
        );
        push_chunks(&mut w, phase, vec![Val::I(1 << shift), Val::F(c), Val::F(s)], epoch + 2);
        epoch += 3;
    }
    w
}

/// Builds the default-size LibQ workload.
pub(crate) fn build() -> Workload {
    build_sized(DEFAULT_STATES, 16384)
}

trait BoolAnd {
    fn and_bools(&mut self, a: Value, b: Value) -> Value;
}

impl BoolAnd for FunctionBuilder {
    /// Logical AND of two `bool` values via select (no `bool` bitwise op in
    /// the IR).
    fn and_bools(&mut self, a: Value, b: Value) -> Value {
        self.select(a, b, Value::ConstBool(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use dae_core::Strategy;
    use dae_runtime::{run_workload, FreqPolicy, RuntimeConfig};

    #[test]
    fn gates_permute_basis_states() {
        // CNOT twice is the identity on the basis table.
        let states = 256i64;
        let mut module = Module::new();
        let basis: Vec<i64> = (0..states).collect();
        let reg = Reg {
            basis: init_i64_global(&mut module, "basis", &basis),
            amp_re: init_f64_global(&mut module, "amp_re", &vec![1.0; states as usize]),
            amp_im: init_f64_global(&mut module, "amp_im", &vec![0.0; states as usize]),
        };
        let cnot = build_cnot(&mut module, &reg);
        use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
        use dae_sim::{CachePort, Machine, PhaseTrace};
        let hc = HierarchyConfig::default();
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        let mut machine = Machine::new(&module);
        let args = vec![Val::I(1), Val::I(2), Val::I(0), Val::I(states)];
        for _ in 0..2 {
            let mut t = PhaseTrace::default();
            machine
                .run(cnot, &args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut t)
                .unwrap();
        }
        let g = module.global_by_name("basis").unwrap();
        let base = machine.memory.global_addr(g);
        for k in 0..states {
            assert_eq!(machine.memory.read(Type::I64, base + (k as u64) * 8).as_i(), k);
        }
    }

    #[test]
    fn all_gates_take_skeleton_path() {
        let mut w = build_sized(2048, 512);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        assert!(map.refused.is_empty(), "{:?}", map.refused);
        for (task, s) in &map.strategy_of {
            assert!(matches!(s, Strategy::Skeleton), "{}: {s:?}", w.module.func(*task).name);
        }
        for info in map.info_of.values() {
            assert_eq!(info.loops_affine, 0, "Table 1: 0 affine loops");
        }
    }

    #[test]
    fn manual_dedup_makes_access_faster() {
        // §6.2.3: per-line manual prefetching → faster access phase; the
        // auto version executes more prefetches.
        let mut w = build_sized(16384, 4096);
        w.compile_auto();
        let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeMinMax);
        let manual = run_workload(&w.module, &w.tasks(Variant::ManualDae), &cfg).unwrap();
        let auto = run_workload(&w.module, &w.tasks(Variant::AutoDae), &cfg).unwrap();
        assert!(auto.access_trace.prefetches > manual.access_trace.prefetches * 4);
        assert!(manual.breakdown.access_s <= auto.breakdown.access_s);
    }

    #[test]
    fn workload_is_memory_bound() {
        let w = build_sized(32768, 4096);
        let cfg = RuntimeConfig::paper_default();
        let r = run_workload(&w.module, &w.tasks(Variant::Cae), &cfg).unwrap();
        let frac = r
            .execute_trace
            .memory_bound_fraction(cfg.table.point(cfg.table.max()).hz(), &cfg.timing);
        assert!(frac > 0.4, "LibQ should be memory-bound, got {frac}");
    }

    #[test]
    fn variants_complete() {
        let mut w = build_sized(4096, 1024);
        w.compile_auto();
        for v in Variant::ALL {
            let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeOptimal);
            let r = run_workload(&w.module, &w.tasks(v), &cfg).unwrap();
            assert_eq!(r.tasks, w.num_tasks());
        }
    }
}
