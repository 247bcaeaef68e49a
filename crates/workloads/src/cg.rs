//! Conjugate-gradient kernels (NAS Parallel Benchmarks `CG`).
//!
//! The two loop nests the paper targets (Table 1: 0/2 affine):
//!
//! * `cg_spmv(r0, r1)` — CSR sparse matrix–vector product: the inner loop's
//!   bounds come from `rowptr` (loaded), and `x[col[k]]` is a gather, so
//!   nothing is affine;
//! * `cg_gather_dot(r0, r1)` — the partition-permuted reduction
//!   `w[i] += x[map[i]] · r[i]` feeding the residual update.
//!
//! The expert access phases chase exactly one level of indirection
//! (`rowptr`/`col` then `x`).

use crate::common::{init_f64_global, init_i64_global, Workload};
use dae_ir::{FuncId, FunctionBuilder, GlobalId, Module, Type, Value};
use dae_sim::Val;

/// Default number of matrix rows.
pub(crate) const ROWS: i64 = 16384;
/// Default non-zeros per row.
pub(crate) const NNZ_PER_ROW: i64 = 16;

struct Arrays {
    a: GlobalId,
    col: GlobalId,
    rowptr: GlobalId,
    x: GlobalId,
    y: GlobalId,
    map: GlobalId,
    r: GlobalId,
    w: GlobalId,
}

fn build_spmv(m: &mut Module, ar: &Arrays) -> FuncId {
    let mut b = FunctionBuilder::new("cg_spmv", vec![Type::I64, Type::I64], Type::Void);
    b.set_task();
    let (r0, r1) = (Value::Arg(0), Value::Arg(1));
    b.counted_loop(r0, r1, Value::i64(1), |b, row| {
        let rp_a = b.elem_addr(Value::Global(ar.rowptr), row, Type::I64);
        let k_lo = b.load(Type::I64, rp_a);
        let row1 = b.iadd(row, 1i64);
        let rp_b = b.elem_addr(Value::Global(ar.rowptr), row1, Type::I64);
        let k_hi = b.load(Type::I64, rp_b);
        let acc =
            b.counted_loop_carried(k_lo, k_hi, Value::i64(1), vec![Value::f64(0.0)], |b, k, c| {
                let aa = b.elem_addr(Value::Global(ar.a), k, Type::F64);
                let av = b.load(Type::F64, aa);
                let ca = b.elem_addr(Value::Global(ar.col), k, Type::I64);
                let cj = b.load(Type::I64, ca);
                let xa = b.elem_addr(Value::Global(ar.x), cj, Type::F64);
                let xv = b.load(Type::F64, xa);
                let t = b.fmul(av, xv);
                vec![b.fadd(c[0], t)]
            });
        let ya = b.elem_addr(Value::Global(ar.y), row, Type::F64);
        b.store(ya, acc[0]);
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_gather_dot(m: &mut Module, ar: &Arrays) -> FuncId {
    let mut b = FunctionBuilder::new("cg_gather_dot", vec![Type::I64, Type::I64], Type::Void);
    b.set_task();
    let (r0, r1) = (Value::Arg(0), Value::Arg(1));
    b.counted_loop(r0, r1, Value::i64(1), |b, i| {
        let ma = b.elem_addr(Value::Global(ar.map), i, Type::I64);
        let mi = b.load(Type::I64, ma);
        let xa = b.elem_addr(Value::Global(ar.x), mi, Type::F64);
        let xv = b.load(Type::F64, xa);
        let ra = b.elem_addr(Value::Global(ar.r), i, Type::F64);
        let rv = b.load(Type::F64, ra);
        let t = b.fmul(xv, rv);
        let wa = b.elem_addr(Value::Global(ar.w), i, Type::F64);
        let wv = b.load(Type::F64, wa);
        let s = b.fadd(wv, t);
        b.store(wa, s);
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_manual_spmv(m: &mut Module, ar: &Arrays) -> FuncId {
    // Expert: prefetch a/col per line, chase col to prefetch x.
    let mut b = FunctionBuilder::new("cg_spmv__manual", vec![Type::I64, Type::I64], Type::Void);
    let (r0, r1) = (Value::Arg(0), Value::Arg(1));
    let rp_a = b.elem_addr(Value::Global(ar.rowptr), r0, Type::I64);
    let k_lo = b.load(Type::I64, rp_a);
    let rp_b = b.elem_addr(Value::Global(ar.rowptr), r1, Type::I64);
    let k_hi = b.load(Type::I64, rp_b);
    b.counted_loop(k_lo, k_hi, Value::i64(1), |b, k| {
        let aa = b.elem_addr(Value::Global(ar.a), k, Type::F64);
        b.prefetch(aa);
        let ca = b.elem_addr(Value::Global(ar.col), k, Type::I64);
        b.prefetch(ca);
    });
    // chase the gather
    b.counted_loop(k_lo, k_hi, Value::i64(1), |b, k| {
        let ca = b.elem_addr(Value::Global(ar.col), k, Type::I64);
        let cj = b.load(Type::I64, ca);
        let xa = b.elem_addr(Value::Global(ar.x), cj, Type::F64);
        b.prefetch(xa);
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_manual_gather(m: &mut Module, ar: &Arrays) -> FuncId {
    let mut b =
        FunctionBuilder::new("cg_gather_dot__manual", vec![Type::I64, Type::I64], Type::Void);
    let (r0, r1) = (Value::Arg(0), Value::Arg(1));
    b.counted_loop(r0, r1, Value::i64(1), |b, i| {
        let ra = b.elem_addr(Value::Global(ar.r), i, Type::F64);
        b.prefetch(ra);
        let wa = b.elem_addr(Value::Global(ar.w), i, Type::F64);
        b.prefetch(wa);
    });
    b.counted_loop(r0, r1, Value::i64(1), |b, i| {
        let ma = b.elem_addr(Value::Global(ar.map), i, Type::I64);
        let mi = b.load(Type::I64, ma);
        let xa = b.elem_addr(Value::Global(ar.x), mi, Type::F64);
        b.prefetch(xa);
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// Builds the CG workload: `iters` (spmv + gather-dot) sweeps over `rows`
/// rows in chunks of `chunk`.
pub fn build_sized(rows: i64, nnz_per_row: i64, chunk: i64, iters: i64) -> Workload {
    let mut module = Module::new();
    let nnz = rows * nnz_per_row;
    let mut seed = 0xE7037ED1A0B428DBu64;
    let mut rand = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let a_vals: Vec<f64> = (0..nnz).map(|_| (rand() >> 11) as f64 / (1u64 << 53) as f64).collect();
    let col: Vec<i64> = (0..nnz).map(|_| (rand() % rows as u64) as i64).collect();
    let rowptr: Vec<i64> = (0..=rows).map(|r| r * nnz_per_row).collect();
    let x: Vec<f64> = (0..rows).map(|_| (rand() >> 11) as f64 / (1u64 << 53) as f64).collect();
    let map: Vec<i64> = (0..rows).map(|_| (rand() % rows as u64) as i64).collect();
    let r: Vec<f64> = (0..rows).map(|_| (rand() >> 11) as f64 / (1u64 << 53) as f64).collect();

    let arrays = Arrays {
        a: init_f64_global(&mut module, "a", &a_vals),
        col: init_i64_global(&mut module, "col", &col),
        rowptr: init_i64_global(&mut module, "rowptr", &rowptr),
        x: init_f64_global(&mut module, "x", &x),
        y: module.add_global("y", Type::F64, rows as u64),
        map: init_i64_global(&mut module, "map", &map),
        r: init_f64_global(&mut module, "r", &r),
        w: module.add_global("w", Type::F64, rows as u64),
    };
    let spmv = build_spmv(&mut module, &arrays);
    let gather = build_gather_dot(&mut module, &arrays);
    let m_spmv = build_manual_spmv(&mut module, &arrays);
    let m_gather = build_manual_gather(&mut module, &arrays);

    let mut w = Workload::new("CG", module);
    w.manual_access.insert(spmv, m_spmv);
    w.manual_access.insert(gather, m_gather);
    w.hints.insert(spmv, vec![0, chunk]);
    w.hints.insert(gather, vec![0, chunk]);

    // spmv produces y before the gather-dot consumes x/r: one barrier
    // epoch per phase per iteration.
    for it in 0..iters {
        let mut lo = 0;
        while lo < rows {
            let hi = (lo + chunk).min(rows);
            w.instances.push((spmv, vec![Val::I(lo), Val::I(hi)]));
            w.epochs.push(it as u32 * 2);
            lo = hi;
        }
        let mut lo = 0;
        while lo < rows {
            let hi = (lo + chunk).min(rows);
            w.instances.push((gather, vec![Val::I(lo), Val::I(hi)]));
            w.epochs.push(it as u32 * 2 + 1);
            lo = hi;
        }
    }
    w
}

/// Builds the default-size CG workload.
pub(crate) fn build() -> Workload {
    build_sized(ROWS, NNZ_PER_ROW, 512, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use dae_core::Strategy;
    use dae_runtime::{run_workload, FreqPolicy, RuntimeConfig};

    #[test]
    fn spmv_matches_reference() {
        let rows = 128i64;
        let w = build_sized(rows, 8, 32, 1);
        dae_ir::verify_module(&w.module).unwrap();
        use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
        use dae_sim::{CachePort, Machine, PhaseTrace};
        let hc = HierarchyConfig::default();
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        let mut machine = Machine::new(&w.module);
        let rd_i = |mem: &dae_sim::Memory, g: &str, k: i64| {
            let gid = w.module.global_by_name(g).unwrap();
            mem.read(Type::I64, mem.global_addr(gid) + k as u64 * 8).as_i()
        };
        let rd_f = |mem: &dae_sim::Memory, g: &str, k: i64| {
            let gid = w.module.global_by_name(g).unwrap();
            mem.read(Type::F64, mem.global_addr(gid) + k as u64 * 8).as_f()
        };
        let mut expected = vec![0.0f64; rows as usize];
        for row in 0..rows {
            let (lo, hi) =
                (rd_i(&machine.memory, "rowptr", row), rd_i(&machine.memory, "rowptr", row + 1));
            let mut s = 0.0;
            for k in lo..hi {
                let c = rd_i(&machine.memory, "col", k);
                s += rd_f(&machine.memory, "a", k) * rd_f(&machine.memory, "x", c);
            }
            expected[row as usize] = s;
        }
        for (f, args) in &w.instances {
            let mut t = PhaseTrace::default();
            machine
                .run(*f, args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut t)
                .unwrap();
        }
        for row in 0..rows {
            let got = rd_f(&machine.memory, "y", row);
            assert!((got - expected[row as usize]).abs() < 1e-9, "y[{row}]");
        }
    }

    #[test]
    fn both_loops_non_affine() {
        let mut w = build_sized(256, 8, 64, 1);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        assert!(map.refused.is_empty(), "{:?}", map.refused);
        for (task, s) in &map.strategy_of {
            assert!(matches!(s, Strategy::Skeleton), "{}", w.module.func(*task).name);
        }
        for info in map.info_of.values() {
            assert_eq!(info.loops_affine, 0);
        }
    }

    #[test]
    fn cg_is_intermediate() {
        // CG sits between compute- and memory-bound (Table 1): its `col`
        // feeder loads stream through L1, so the x-gathers issue quickly and
        // overlap — plenty of DRAM misses, but mostly *independent* ones.
        let w = build_sized(16384, 16, 512, 1);
        let cfg = RuntimeConfig::paper_default();
        let r = run_workload(&w.module, &w.tasks(Variant::Cae), &cfg).unwrap();
        assert!(r.execute_trace.dram_lines() > 1000, "CG must touch DRAM a lot");
        let frac = r
            .execute_trace
            .memory_bound_fraction(cfg.table.point(cfg.table.max()).hz(), &cfg.timing);
        assert!(
            frac > 0.15 && frac < 0.95,
            "CG should be intermediate, got memory fraction {frac}"
        );
    }

    #[test]
    fn variants_run() {
        let mut w = build_sized(512, 8, 128, 1);
        w.compile_auto();
        for v in Variant::ALL {
            let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeOptimal);
            let r = run_workload(&w.module, &w.tasks(v), &cfg).unwrap();
            assert_eq!(r.tasks, w.num_tasks());
        }
    }
}
