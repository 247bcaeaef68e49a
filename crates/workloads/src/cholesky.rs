//! Blocked Cholesky factorisation (SPLASH-2 `cholesky`).
//!
//! Left-looking blocked Cholesky of a symmetric positive-definite `N×N`
//! matrix (lower triangle). Three task types, all affine (Table 1: 3/3):
//!
//! * `chol_diag(k0)` — in-block Cholesky of the diagonal block (with
//!   `fsqrt`),
//! * `chol_panel(k0, i0)` — triangular solve of a panel block against the
//!   diagonal block,
//! * `chol_update(k0, i0, j0)` — the SYRK/GEMM-like trailing update
//!   `A[i0+i][j0+j] -= Σ_p A[i0+i][k0+p] · A[j0+j][k0+p]`.
//!
//! The expert access phases prefetch selectively (input panels only, one
//! touch per line) — §6.2.1's trade-off: a shorter access phase that warms
//! less data than the compiler's.

use crate::common::{init_f64_global, Workload};
use dae_ir::{FuncId, FunctionBuilder, GlobalId, Module, Type, Value};
use dae_sim::Val;

/// Default matrix dimension.
pub(crate) const N: i64 = 128;
/// Default block size.
pub(crate) const B: i64 = 32;

fn elem2(b: &mut FunctionBuilder, a: GlobalId, row: Value, col: Value, n: i64) -> Value {
    let r = b.imul(row, n);
    let idx = b.iadd(r, col);
    b.elem_addr(Value::Global(a), idx, Type::F64)
}

fn build_diag(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> FuncId {
    // In-block Cholesky: for j: ajj = sqrt(ajj - Σ ajp²); column scale.
    let mut b = FunctionBuilder::new("chol_diag", vec![Type::I64], Type::Void);
    b.set_task();
    let k0 = Value::Arg(0);
    b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, j| {
        let gj = b.iadd(k0, j);
        let ajj = elem2(b, a, gj, gj, n);
        let vjj = b.load(Type::F64, ajj);
        let acc = b.counted_loop_carried(Value::i64(0), j, Value::i64(1), vec![vjj], |b, p, c| {
            let gp = b.iadd(k0, p);
            let ajp = elem2(b, a, gj, gp, n);
            let v = b.load(Type::F64, ajp);
            let sq = b.fmul(v, v);
            vec![b.fsub(c[0], sq)]
        });
        let d = b.fsqrt(acc[0]);
        b.store(ajj, d);
        let lo = b.iadd(j, 1i64);
        b.counted_loop(lo, Value::i64(blk), Value::i64(1), |b, i| {
            let gi = b.iadd(k0, i);
            let aij = elem2(b, a, gi, gj, n);
            let vij = b.load(Type::F64, aij);
            let acc =
                b.counted_loop_carried(Value::i64(0), j, Value::i64(1), vec![vij], |b, p, c| {
                    let gp = b.iadd(k0, p);
                    let aip = elem2(b, a, gi, gp, n);
                    let ajp = elem2(b, a, gj, gp, n);
                    let v1 = b.load(Type::F64, aip);
                    let v2 = b.load(Type::F64, ajp);
                    let t = b.fmul(v1, v2);
                    vec![b.fsub(c[0], t)]
                });
            let q = b.fdiv(acc[0], d);
            b.store(aij, q);
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_panel(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> FuncId {
    // Panel solve: A[i0+i][k0+j] = (A[i0+i][k0+j] - Σ_{p<j} A[i0+i][k0+p]·A[k0+j][k0+p]) / A[k0+j][k0+j]
    let mut b = FunctionBuilder::new("chol_panel", vec![Type::I64, Type::I64], Type::Void);
    b.set_task();
    let (k0, i0) = (Value::Arg(0), Value::Arg(1));
    b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, i| {
        b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, j| {
            let gi = b.iadd(i0, i);
            let gj = b.iadd(k0, j);
            let dst = elem2(b, a, gi, gj, n);
            let init = b.load(Type::F64, dst);
            let acc =
                b.counted_loop_carried(Value::i64(0), j, Value::i64(1), vec![init], |b, p, c| {
                    let gp = b.iadd(k0, p);
                    let aip = elem2(b, a, gi, gp, n);
                    let ajp = elem2(b, a, gj, gp, n);
                    let v1 = b.load(Type::F64, aip);
                    let v2 = b.load(Type::F64, ajp);
                    let t = b.fmul(v1, v2);
                    vec![b.fsub(c[0], t)]
                });
            let diag = elem2(b, a, gj, gj, n);
            let vd = b.load(Type::F64, diag);
            let q = b.fdiv(acc[0], vd);
            b.store(dst, q);
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_update(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> FuncId {
    // Trailing update: A[i0+i][j0+j] -= Σ_p A[i0+i][k0+p] · A[j0+j][k0+p]
    let mut b =
        FunctionBuilder::new("chol_update", vec![Type::I64, Type::I64, Type::I64], Type::Void);
    b.set_task();
    let (k0, i0, j0) = (Value::Arg(0), Value::Arg(1), Value::Arg(2));
    b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, i| {
        b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, j| {
            let gi = b.iadd(i0, i);
            let gj = b.iadd(j0, j);
            let dst = elem2(b, a, gi, gj, n);
            let init = b.load(Type::F64, dst);
            let acc = b.counted_loop_carried(
                Value::i64(0),
                Value::i64(blk),
                Value::i64(1),
                vec![init],
                |b, p, c| {
                    let gp = b.iadd(k0, p);
                    let aip = elem2(b, a, gi, gp, n);
                    let ajp = elem2(b, a, gj, gp, n);
                    let v1 = b.load(Type::F64, aip);
                    let v2 = b.load(Type::F64, ajp);
                    let t = b.fmul(v1, v2);
                    vec![b.fsub(c[0], t)]
                },
            );
            b.store(dst, acc[0]);
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn emit_block_prefetch(
    b: &mut FunctionBuilder,
    a: GlobalId,
    n: i64,
    blk: i64,
    r0: Value,
    c0: Value,
) {
    b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, i| {
        b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, j| {
            let gi = b.iadd(r0, i);
            let gj = b.iadd(c0, j);
            let addr = elem2(b, a, gi, gj, n);
            b.prefetch(addr);
        });
    });
}

fn manual_accesses(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> [FuncId; 3] {
    let mut b = FunctionBuilder::new("chol_diag__manual", vec![Type::I64], Type::Void);
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(0), Value::Arg(0));
    b.ret(None);
    let diag = m.add_function(b.finish());

    // panel: selective — only the diagonal (input) block.
    let mut b = FunctionBuilder::new("chol_panel__manual", vec![Type::I64, Type::I64], Type::Void);
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(0), Value::Arg(0));
    b.ret(None);
    let panel = m.add_function(b.finish());

    // update: selective — the two input panels, not the written block.
    let mut b = FunctionBuilder::new(
        "chol_update__manual",
        vec![Type::I64, Type::I64, Type::I64],
        Type::Void,
    );
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(1), Value::Arg(0));
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(2), Value::Arg(0));
    b.ret(None);
    let update = m.add_function(b.finish());

    [diag, panel, update]
}

/// Builds the Cholesky workload with custom sizes.
pub fn build_sized(n: i64, blk: i64) -> Workload {
    assert_eq!(n % blk, 0);
    // SPD matrix: small random symmetric + N on the diagonal.
    let mut init = vec![0.0f64; (n * n) as usize];
    let mut seed = 0x9E3779B97F4A7C15u64;
    for i in 0..n {
        for j in 0..=i {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let r = (seed >> 11) as f64 / (1u64 << 53) as f64;
            init[(i * n + j) as usize] = r;
            init[(j * n + i) as usize] = r;
        }
        init[(i * n + i) as usize] += n as f64;
    }
    let mut m = Module::new();
    let a = init_f64_global(&mut m, "A", &init);

    let diag = build_diag(&mut m, a, n, blk);
    let panel = build_panel(&mut m, a, n, blk);
    let update = build_update(&mut m, a, n, blk);
    let [md, mp, mu] = manual_accesses(&mut m, a, n, blk);

    let mut w = Workload::new("Cholesky", m);
    w.manual_access.insert(diag, md);
    w.manual_access.insert(panel, mp);
    w.manual_access.insert(update, mu);
    w.hints.insert(diag, vec![0]);
    w.hints.insert(panel, vec![0, blk]);
    w.hints.insert(update, vec![0, blk, blk]);

    // Dependencies as barrier epochs: diag(k) → panel(k) → update(k) → …
    let steps = n / blk;
    let mut epoch = 0u32;
    for ks in 0..steps {
        let k0 = ks * blk;
        w.instances.push((diag, vec![Val::I(k0)]));
        w.epochs.push(epoch);
        epoch += 1;
        for is in ks + 1..steps {
            w.instances.push((panel, vec![Val::I(k0), Val::I(is * blk)]));
            w.epochs.push(epoch);
        }
        epoch += 1;
        for is in ks + 1..steps {
            for js in ks + 1..=is {
                w.instances.push((update, vec![Val::I(k0), Val::I(is * blk), Val::I(js * blk)]));
                w.epochs.push(epoch);
            }
        }
        epoch += 1;
    }
    w
}

/// Builds the default-size Cholesky workload.
pub(crate) fn build() -> Workload {
    build_sized(N, B)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use dae_core::Strategy;
    use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
    use dae_runtime::{run_workload, RuntimeConfig};
    use dae_sim::{CachePort, Machine, PhaseTrace};

    #[test]
    fn factorisation_is_correct() {
        let n = 16i64;
        let w = build_sized(n, 8);
        dae_ir::verify_module(&w.module).unwrap();
        let hc = HierarchyConfig::default();
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        let mut machine = Machine::new(&w.module);
        let a = w.module.global_by_name("A").unwrap();
        let base = machine.memory.global_addr(a);
        let orig: Vec<f64> = (0..n * n)
            .map(|k| machine.memory.read(Type::F64, base + (k as u64) * 8).as_f())
            .collect();
        for (f, args) in &w.instances {
            let mut t = PhaseTrace::default();
            machine
                .run(*f, args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut t)
                .unwrap();
        }
        let fact: Vec<f64> = (0..n * n)
            .map(|k| machine.memory.read(Type::F64, base + (k as u64) * 8).as_f())
            .collect();
        // Check L·Lᵀ = A on the lower triangle.
        let get = |v: &Vec<f64>, i: i64, j: i64| v[(i * n + j) as usize];
        let mut max_err: f64 = 0.0;
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for p in 0..=j {
                    s += get(&fact, i, p) * get(&fact, j, p);
                }
                max_err = max_err.max((s - get(&orig, i, j)).abs());
            }
        }
        assert!(max_err < 1e-9, "Cholesky reconstruction error {max_err}");
    }

    #[test]
    fn all_tasks_compile_polyhedral() {
        let mut w = build_sized(32, 8);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        assert!(map.refused.is_empty(), "{:?}", map.refused);
        for s in map.strategy_of.values() {
            assert!(matches!(s, Strategy::Polyhedral(_)), "{s:?}");
        }
        for info in map.info_of.values() {
            assert_eq!(info.loops_affine, info.loops_total);
        }
    }

    #[test]
    fn auto_beats_manual_on_cholesky() {
        // §6.2.1's bottom line: "the automatically generated access version
        // outperforms the hand-crafted one" — the polyhedral nest (derived
        // from optimized code) warms at least as much data and wins EDP,
        // while the selective manual version leaves the written block cold.
        let mut w = build_sized(64, 16);
        w.compile_auto();
        let cfg = RuntimeConfig::paper_default().with_policy(dae_runtime::FreqPolicy::DaeMinMax);
        let manual = run_workload(&w.module, &w.tasks(Variant::ManualDae), &cfg).unwrap();
        let auto = run_workload(&w.module, &w.tasks(Variant::AutoDae), &cfg).unwrap();
        // The auto version prefetches at least as much data…
        assert!(auto.access_trace.prefetches >= manual.access_trace.prefetches);
        // …and ends up with at least as good an EDP.
        assert!(
            auto.edp() <= manual.edp() * 1.02,
            "auto {} vs manual {}",
            auto.edp(),
            manual.edp()
        );
    }

    #[test]
    fn runs_under_all_variants() {
        let mut w = build_sized(32, 8);
        w.compile_auto();
        let cfg = RuntimeConfig::paper_default();
        for v in Variant::ALL {
            let r = run_workload(&w.module, &w.tasks(v), &cfg).unwrap();
            assert_eq!(r.tasks, w.num_tasks());
        }
    }
}
