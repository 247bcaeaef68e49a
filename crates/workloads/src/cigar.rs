//! Case-Injected Genetic Algorithm (CIGAR).
//!
//! Fitness evaluation of a bit-string population against permuted weights,
//! plus case-injection similarity scans against a case library. Both task
//! types chase indirection (`weights[perm[j]]`, `cases[case_idx[c]·L+j]`),
//! so the compiler takes the skeleton path (Table 1: 0/1 affine loops) and
//! the access phase keeps the index loads alive to compute prefetch
//! addresses. The large population arrays make the workload memory-bound.

use crate::common::{init_f64_global, init_i64_global, Workload};
use dae_ir::{FuncId, FunctionBuilder, GlobalId, Module, Type, Value};
use dae_sim::Val;

/// Default population size (individuals).
pub(crate) const POP: i64 = 8192;
/// Default chromosome length (genes).
pub(crate) const LEN: i64 = 128;
/// Default case-library size.
pub(crate) const CASES: i64 = 64;

struct Arrays {
    pop: GlobalId,
    weights: GlobalId,
    perm: GlobalId,
    fitness: GlobalId,
    cases: GlobalId,
    case_idx: GlobalId,
    sim: GlobalId,
}

/// `eval_chunk(lo, hi)`: fitness of individuals `[lo, hi)` via permuted
/// weight gather.
fn build_eval(m: &mut Module, a: &Arrays, len: i64) -> FuncId {
    let mut b = FunctionBuilder::new("cigar_eval", vec![Type::I64, Type::I64], Type::Void);
    b.set_task();
    let (lo, hi) = (Value::Arg(0), Value::Arg(1));
    b.counted_loop(lo, hi, Value::i64(1), |b, p| {
        let row = b.imul(p, len);
        let acc = b.counted_loop_carried(
            Value::i64(0),
            Value::i64(len),
            Value::i64(1),
            vec![Value::f64(0.0)],
            |b, j, c| {
                let gidx = b.iadd(row, j);
                let ga = b.elem_addr(Value::Global(a.pop), gidx, Type::I64);
                let gene = b.load(Type::I64, ga);
                let pa = b.elem_addr(Value::Global(a.perm), j, Type::I64);
                let pj = b.load(Type::I64, pa);
                let wa = b.elem_addr(Value::Global(a.weights), pj, Type::F64);
                let wv = b.load(Type::F64, wa);
                let gf = b.itof(gene);
                let t = b.fmul(gf, wv);
                vec![b.fadd(c[0], t)]
            },
        );
        let fa = b.elem_addr(Value::Global(a.fitness), p, Type::F64);
        b.store(fa, acc[0]);
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// `inject_chunk(lo, hi, case_id)`: similarity of individuals `[lo, hi)`
/// against the case selected through the index table (case injection — one
/// injected case per generation, as in CIGAR proper).
fn build_inject(m: &mut Module, a: &Arrays, len: i64) -> FuncId {
    let mut b =
        FunctionBuilder::new("cigar_inject", vec![Type::I64, Type::I64, Type::I64], Type::Void);
    b.set_task();
    let (lo, hi, case_id) = (Value::Arg(0), Value::Arg(1), Value::Arg(2));
    // ci = case_idx[case_id] — one level of indirection
    let cia = b.elem_addr(Value::Global(a.case_idx), case_id, Type::I64);
    let ci = b.load(Type::I64, cia);
    let crow = b.imul(ci, len);
    b.counted_loop(lo, hi, Value::i64(1), |b, p| {
        let row = b.imul(p, len);
        let matches = b.counted_loop_carried(
            Value::i64(0),
            Value::i64(len),
            Value::i64(1),
            vec![Value::f64(0.0)],
            |b, j, inner| {
                let gidx = b.iadd(row, j);
                let ga = b.elem_addr(Value::Global(a.pop), gidx, Type::I64);
                let gene = b.load(Type::I64, ga);
                let cidx = b.iadd(crow, j);
                let ca = b.elem_addr(Value::Global(a.cases), cidx, Type::I64);
                let cv = b.load(Type::I64, ca);
                let x = b.xor(gene, cv);
                let same = b.isub(1i64, x);
                let sf = b.itof(same);
                vec![b.fadd(inner[0], sf)]
            },
        );
        let sa = b.elem_addr(Value::Global(a.sim), p, Type::F64);
        b.store(sa, matches[0]);
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// Expert access phases: prefetch the individuals' rows per line, the
/// permutation/weight tables once, and skip the gather targets the expert
/// knows mostly hit after the table warms.
fn build_manual_eval(m: &mut Module, a: &Arrays, len: i64) -> FuncId {
    let mut b = FunctionBuilder::new("cigar_eval__manual", vec![Type::I64, Type::I64], Type::Void);
    let (lo, hi) = (Value::Arg(0), Value::Arg(1));
    let lo_g = b.imul(lo, len);
    let hi_g = b.imul(hi, len);
    b.counted_loop(lo_g, hi_g, Value::i64(1), |b, g| {
        let pa = b.elem_addr(Value::Global(a.pop), g, Type::I64);
        b.prefetch(pa);
    });
    b.counted_loop(Value::i64(0), Value::i64(len), Value::i64(1), |b, j| {
        let pa = b.elem_addr(Value::Global(a.perm), j, Type::I64);
        b.prefetch(pa);
        let wa = b.elem_addr(Value::Global(a.weights), j, Type::F64);
        b.prefetch(wa);
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_manual_inject(m: &mut Module, a: &Arrays, len: i64) -> FuncId {
    let mut b = FunctionBuilder::new(
        "cigar_inject__manual",
        vec![Type::I64, Type::I64, Type::I64],
        Type::Void,
    );
    let (lo, hi, case_id) = (Value::Arg(0), Value::Arg(1), Value::Arg(2));
    let lo_g = b.imul(lo, len);
    let hi_g = b.imul(hi, len);
    b.counted_loop(lo_g, hi_g, Value::i64(1), |b, g| {
        let pa = b.elem_addr(Value::Global(a.pop), g, Type::I64);
        b.prefetch(pa);
    });
    // Chase the case index (the expert keeps this indirection).
    let cia = b.elem_addr(Value::Global(a.case_idx), case_id, Type::I64);
    let ci = b.load(Type::I64, cia);
    let crow = b.imul(ci, len);
    b.counted_loop(Value::i64(0), Value::i64(len), Value::i64(1), |b, j| {
        let cidx = b.iadd(crow, j);
        let ca = b.elem_addr(Value::Global(a.cases), cidx, Type::I64);
        b.prefetch(ca);
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// Builds the CIGAR workload.
pub fn build_sized(pop: i64, len: i64, cases: i64, chunk: i64) -> Workload {
    let mut module = Module::new();
    let mut seed = 0xA0761D6478BD642Fu64;
    let mut rand = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let pop_bits: Vec<i64> = (0..pop * len).map(|_| (rand() & 1) as i64).collect();
    let weights: Vec<f64> = (0..len).map(|_| (rand() >> 11) as f64 / (1u64 << 53) as f64).collect();
    // A permutation of 0..len via Fisher-Yates.
    let mut perm: Vec<i64> = (0..len).collect();
    for i in (1..len as usize).rev() {
        let j = (rand() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let case_bits: Vec<i64> = (0..cases * len).map(|_| (rand() & 1) as i64).collect();
    let case_idx: Vec<i64> = (0..cases).map(|_| (rand() % cases as u64) as i64).collect();

    let arrays = Arrays {
        pop: init_i64_global(&mut module, "pop", &pop_bits),
        weights: init_f64_global(&mut module, "weights", &weights),
        perm: init_i64_global(&mut module, "perm", &perm),
        fitness: module.add_global("fitness", Type::F64, pop as u64),
        cases: init_i64_global(&mut module, "cases", &case_bits),
        case_idx: init_i64_global(&mut module, "case_idx", &case_idx),
        sim: module.add_global("sim", Type::F64, pop as u64),
    };

    let eval = build_eval(&mut module, &arrays, len);
    let inject = build_inject(&mut module, &arrays, len);
    let m_eval = build_manual_eval(&mut module, &arrays, len);
    let m_inject = build_manual_inject(&mut module, &arrays, len);

    let mut w = Workload::new("Cigar", module);
    w.manual_access.insert(eval, m_eval);
    w.manual_access.insert(inject, m_inject);
    w.hints.insert(eval, vec![0, chunk]);
    w.hints.insert(inject, vec![0, chunk, 0]);

    // Two generations: evaluate everyone, then score everyone against the
    // generation's injected case (one barrier epoch per phase).
    for gen in 0..2 {
        let mut lo = 0;
        while lo < pop {
            let hi = (lo + chunk).min(pop);
            w.instances.push((eval, vec![Val::I(lo), Val::I(hi)]));
            w.epochs.push(gen as u32 * 2);
            lo = hi;
        }
        let mut lo = 0;
        while lo < pop {
            let hi = (lo + chunk).min(pop);
            w.instances.push((inject, vec![Val::I(lo), Val::I(hi), Val::I(gen % cases)]));
            w.epochs.push(gen as u32 * 2 + 1);
            lo = hi;
        }
    }
    w
}

/// Builds the default-size CIGAR workload.
pub(crate) fn build() -> Workload {
    build_sized(POP, LEN, CASES, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use dae_core::Strategy;
    use dae_runtime::{run_workload, FreqPolicy, RuntimeConfig};

    #[test]
    fn fitness_matches_reference() {
        let (pop, len) = (64i64, 32i64);
        let w = build_sized(pop, len, 16, 16);
        dae_ir::verify_module(&w.module).unwrap();
        use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
        use dae_sim::{CachePort, Machine, PhaseTrace};
        let hc = HierarchyConfig::default();
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        let mut machine = Machine::new(&w.module);
        // Read inputs before running.
        let rd_i64 = |mem: &dae_sim::Memory, g: &str, k: i64| {
            let gid = w.module.global_by_name(g).unwrap();
            mem.read(Type::I64, mem.global_addr(gid) + k as u64 * 8).as_i()
        };
        let rd_f64 = |mem: &dae_sim::Memory, g: &str, k: i64| {
            let gid = w.module.global_by_name(g).unwrap();
            mem.read(Type::F64, mem.global_addr(gid) + k as u64 * 8).as_f()
        };
        let mut expected = vec![0.0f64; pop as usize];
        for p in 0..pop {
            let mut s = 0.0;
            for j in 0..len {
                let gene = rd_i64(&machine.memory, "pop", p * len + j);
                let pj = rd_i64(&machine.memory, "perm", j);
                s += gene as f64 * rd_f64(&machine.memory, "weights", pj);
            }
            expected[p as usize] = s;
        }
        for (f, args) in &w.instances {
            let mut t = PhaseTrace::default();
            machine
                .run(*f, args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut t)
                .unwrap();
        }
        for p in 0..pop {
            let got = rd_f64(&machine.memory, "fitness", p);
            assert!((got - expected[p as usize]).abs() < 1e-9, "fitness[{p}]");
        }
    }

    #[test]
    fn tasks_take_skeleton_path() {
        let mut w = build_sized(128, 32, 16, 32);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        assert!(map.refused.is_empty(), "{:?}", map.refused);
        for s in map.strategy_of.values() {
            assert!(matches!(s, Strategy::Skeleton));
        }
    }

    #[test]
    fn access_phase_keeps_permutation_loads() {
        // The perm[j] load feeds the weights address — it must survive the
        // slice (inspector-style), while the fp accumulation dies.
        let mut w = build_sized(128, 32, 16, 32);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        let eval = w.module.func_by_name("cigar_eval").unwrap();
        let access = w.module.func(map.access(eval).unwrap());
        let mut loads = 0;
        let mut fp = 0;
        access.for_each_placed_inst(|_, i| {
            loads += matches!(access.inst(i).kind, dae_ir::InstKind::Load { .. }) as usize;
            fp += matches!(access.inst(i).kind, dae_ir::InstKind::Binary { op, .. } if op.is_float()) as usize;
        });
        assert!(loads >= 1, "index load must survive");
        assert_eq!(fp, 0, "fitness math must be sliced away");
    }

    #[test]
    fn memory_bound_and_all_variants_run() {
        let mut w = build_sized(512, 128, 32, 64);
        w.compile_auto();
        let cfg = RuntimeConfig::paper_default();
        let cae = run_workload(&w.module, &w.tasks(Variant::Cae), &cfg).unwrap();
        let frac = cae
            .execute_trace
            .memory_bound_fraction(cfg.table.point(cfg.table.max()).hz(), &cfg.timing);
        assert!(frac > 0.25, "CIGAR should lean memory-bound, got {frac}");
        for v in Variant::ALL {
            let c = cfg.clone().with_policy(FreqPolicy::DaeMinMax);
            let r = run_workload(&w.module, &w.tasks(v), &c).unwrap();
            assert_eq!(r.tasks, w.num_tasks());
        }
    }
}
