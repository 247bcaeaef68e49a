//! Blocked LU factorisation (SPLASH-2 `lu`, the paper's running example).
//!
//! Right-looking blocked LU over an `N×N` row-major matrix with `B×B`
//! blocks. Four task types, all fully affine (Table 1: 3/3 affine loops per
//! target task):
//!
//! * `lu_diag(k0)` — unblocked LU of the diagonal block (Listing 1(b)),
//! * `lu_row(k0, j0)` — triangular solve producing a U block,
//! * `lu_col(k0, i0)` — triangular solve producing an L block,
//! * `lu_inner(k0, i0, j0)` — the GEMM-like interior update (Listing 3's
//!   multi-block access pattern: three parameter classes over one array).
//!
//! The expert (manual) access phases prefetch **selectively** — only the
//! blocks read as inputs, one touch per cache line — so they finish faster
//! than the compiler's versions but warm less data (§6.2.1).

use crate::common::{init_f64_global, Workload};
use dae_ir::{FuncId, FunctionBuilder, GlobalId, Module, Type, Value};
use dae_sim::Val;

/// Default matrix dimension.
pub(crate) const N: i64 = 128;
/// Default block size.
pub(crate) const B: i64 = 32;

/// Emits `addr = &A[(row)][(col)]` given element index expressions.
fn elem2(b: &mut FunctionBuilder, a: GlobalId, row: Value, col: Value, n: i64) -> Value {
    let r = b.imul(row, n);
    let idx = b.iadd(r, col);
    b.elem_addr(Value::Global(a), idx, Type::F64)
}

fn build_diag(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> FuncId {
    // lu_diag(k0): in-block unblocked LU.
    let mut b = FunctionBuilder::new("lu_diag", vec![Type::I64], Type::Void);
    b.set_task();
    let k0 = Value::Arg(0);
    b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, i| {
        let lo = b.iadd(i, 1i64);
        b.counted_loop(lo, Value::i64(blk), Value::i64(1), |b, j| {
            let gi = b.iadd(k0, i);
            let gj = b.iadd(k0, j);
            let aji = elem2(b, a, gj, gi, n);
            let aii = elem2(b, a, gi, gi, n);
            let vji = b.load(Type::F64, aji);
            let vii = b.load(Type::F64, aii);
            let l = b.fdiv(vji, vii);
            b.store(aji, l);
            let lo2 = b.iadd(i, 1i64);
            b.counted_loop(lo2, Value::i64(blk), Value::i64(1), |b, p| {
                let gp = b.iadd(k0, p);
                let ajp = elem2(b, a, gj, gp, n);
                let aip = elem2(b, a, gi, gp, n);
                let vjp = b.load(Type::F64, ajp);
                let vip = b.load(Type::F64, aip);
                let t = b.fmul(l, vip);
                let s = b.fsub(vjp, t);
                b.store(ajp, s);
            });
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_row(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> FuncId {
    // lu_row(k0, j0): U block solve — A[k0+i][j0+j] -= Σ_{p<i} L[k0+i][k0+p]·A[k0+p][j0+j]
    let mut b = FunctionBuilder::new("lu_row", vec![Type::I64, Type::I64], Type::Void);
    b.set_task();
    let (k0, j0) = (Value::Arg(0), Value::Arg(1));
    b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, i| {
        b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, j| {
            let gi = b.iadd(k0, i);
            let gj = b.iadd(j0, j);
            let dst = elem2(b, a, gi, gj, n);
            let init = b.load(Type::F64, dst);
            let acc =
                b.counted_loop_carried(Value::i64(0), i, Value::i64(1), vec![init], |b, p, c| {
                    let gp = b.iadd(k0, p);
                    let lip = elem2(b, a, gi, gp, n);
                    let upj = elem2(b, a, gp, gj, n);
                    let vl = b.load(Type::F64, lip);
                    let vu = b.load(Type::F64, upj);
                    let t = b.fmul(vl, vu);
                    vec![b.fsub(c[0], t)]
                });
            b.store(dst, acc[0]);
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

fn build_col(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> FuncId {
    // lu_col(k0, i0): L block solve.
    let mut b = FunctionBuilder::new("lu_col", vec![Type::I64, Type::I64], Type::Void);
    b.set_task();
    let (k0, i0) = (Value::Arg(0), Value::Arg(1));
    b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, j| {
        b.counted_loop(Value::i64(0), Value::i64(blk), Value::i64(1), |b, i| {
            let gi = b.iadd(i0, i);
            let gj = b.iadd(k0, j);
            let dst = elem2(b, a, gi, gj, n);
            let init = b.load(Type::F64, dst);
            let acc =
                b.counted_loop_carried(Value::i64(0), j, Value::i64(1), vec![init], |b, p, c| {
                    let gp = b.iadd(k0, p);
                    let lip = elem2(b, a, gi, gp, n);
                    let upj = elem2(b, a, gp, gj, n);
                    let vl = b.load(Type::F64, lip);
                    let vu = b.load(Type::F64, upj);
                    let t = b.fmul(vl, vu);
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

fn build_inner(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> FuncId {
    // lu_inner(k0, i0, j0): A[i0+i][j0+j] -= Σ_p A[i0+i][k0+p]·A[k0+p][j0+j]
    let mut b = FunctionBuilder::new("lu_inner", vec![Type::I64, Type::I64, Type::I64], Type::Void);
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
                    let lip = elem2(b, a, gi, gp, n);
                    let upj = elem2(b, a, gp, gj, n);
                    let vl = b.load(Type::F64, lip);
                    let vu = b.load(Type::F64, upj);
                    let t = b.fmul(vl, vu);
                    vec![b.fsub(c[0], t)]
                },
            );
            b.store(dst, acc[0]);
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// Expert access phase: prefetch a `blk×blk` block at `(r0, c0)`
/// (selective: callers list only the *input* blocks).
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

fn manual_accesses(m: &mut Module, a: GlobalId, n: i64, blk: i64) -> [FuncId; 4] {
    // diag: the diagonal block is both input and output; prefetch it.
    let mut b = FunctionBuilder::new("lu_diag__manual", vec![Type::I64], Type::Void);
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(0), Value::Arg(0));
    b.ret(None);
    let diag = m.add_function(b.finish());

    // row: inputs are the diagonal (L) block only — selective.
    let mut b = FunctionBuilder::new("lu_row__manual", vec![Type::I64, Type::I64], Type::Void);
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(0), Value::Arg(0));
    b.ret(None);
    let row = m.add_function(b.finish());

    // col: inputs are the diagonal (U) block only — selective.
    let mut b = FunctionBuilder::new("lu_col__manual", vec![Type::I64, Type::I64], Type::Void);
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(0), Value::Arg(0));
    b.ret(None);
    let col = m.add_function(b.finish());

    // inner: inputs are L(i0, k0) and U(k0, j0) — the written block (i0, j0)
    // is intentionally not prefetched (the expert's trade-off of §6.2.1).
    let mut b =
        FunctionBuilder::new("lu_inner__manual", vec![Type::I64, Type::I64, Type::I64], Type::Void);
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(1), Value::Arg(0));
    emit_block_prefetch(&mut b, a, n, blk, Value::Arg(0), Value::Arg(2));
    b.ret(None);
    let inner = m.add_function(b.finish());

    [diag, row, col, inner]
}

/// Builds the LU workload with custom sizes.
pub fn build_sized(n: i64, blk: i64) -> Workload {
    assert_eq!(n % blk, 0, "block must divide the matrix");
    let mut m = Module::new();
    // Diagonally dominant matrix keeps the factorisation stable.
    let mut init = Vec::with_capacity((n * n) as usize);
    let mut seed = 0x2545F4914F6CDD1Du64;
    for i in 0..n {
        for j in 0..n {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let r = (seed >> 11) as f64 / (1u64 << 53) as f64;
            init.push(if i == j { n as f64 + r } else { r });
        }
    }
    let a = init_f64_global(&mut m, "A", &init);

    let diag = build_diag(&mut m, a, n, blk);
    let row = build_row(&mut m, a, n, blk);
    let col = build_col(&mut m, a, n, blk);
    let inner = build_inner(&mut m, a, n, blk);
    let [md, mr, mc, mi] = manual_accesses(&mut m, a, n, blk);

    let mut w = Workload::new("LU", m);
    w.manual_access.insert(diag, md);
    w.manual_access.insert(row, mr);
    w.manual_access.insert(col, mc);
    w.manual_access.insert(inner, mi);
    w.hints.insert(diag, vec![0]);
    w.hints.insert(row, vec![0, blk]);
    w.hints.insert(col, vec![0, blk]);
    w.hints.insert(inner, vec![0, blk, 2 * blk]);

    // Right-looking schedule with the factorisation's dependencies encoded
    // as barrier epochs: diag(k) → {row,col}(k) → inner(k) → diag(k+1) …
    let steps = n / blk;
    let mut epoch = 0u32;
    for ks in 0..steps {
        let k0 = ks * blk;
        w.instances.push((diag, vec![Val::I(k0)]));
        w.epochs.push(epoch);
        epoch += 1;
        for js in ks + 1..steps {
            w.instances.push((row, vec![Val::I(k0), Val::I(js * blk)]));
            w.epochs.push(epoch);
        }
        for is in ks + 1..steps {
            w.instances.push((col, vec![Val::I(k0), Val::I(is * blk)]));
            w.epochs.push(epoch);
        }
        epoch += 1;
        for is in ks + 1..steps {
            for js in ks + 1..steps {
                w.instances.push((inner, vec![Val::I(k0), Val::I(is * blk), Val::I(js * blk)]));
                w.epochs.push(epoch);
            }
        }
        epoch += 1;
    }
    w
}

/// Builds the default-size LU workload.
pub fn build() -> Workload {
    build_sized(N, B)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use dae_core::Strategy;
    use dae_runtime::{run_workload, RuntimeConfig};

    #[test]
    fn module_verifies_and_runs() {
        let w = build_sized(32, 8);
        dae_ir::verify_module(&w.module).unwrap();
        let cfg = RuntimeConfig::paper_default();
        let r = run_workload(&w.module, &w.tasks(Variant::Cae), &cfg).unwrap();
        assert_eq!(r.tasks, w.num_tasks());
        assert!(r.execute_trace.fp_ops > 1000);
    }

    #[test]
    fn factorisation_is_correct() {
        // LU of a small matrix, then reconstruct A = L·U and compare.
        let n = 16i64;
        let w = build_sized(n, 8);
        let mut machine_check = {
            let cfg = RuntimeConfig::paper_default();
            let r = run_workload(&w.module, &w.tasks(Variant::Cae), &cfg);
            r.unwrap()
        };
        let _ = &mut machine_check;
        // Re-run manually through a fresh machine to read back memory.
        use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
        use dae_sim::{CachePort, Machine, PhaseTrace};
        let hc = HierarchyConfig::default();
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        let mut machine = Machine::new(&w.module);
        // Original matrix snapshot.
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
        // Reconstruct L·U.
        let lu: Vec<f64> = (0..n * n)
            .map(|k| machine.memory.read(Type::F64, base + (k as u64) * 8).as_f())
            .collect();
        let get = |v: &Vec<f64>, i: i64, j: i64| v[(i * n + j) as usize];
        let mut max_err: f64 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..=i.min(j) {
                    let l = if p == i { 1.0 } else { get(&lu, i, p) };
                    let u = get(&lu, p, j);
                    s += if p == i { u } else { l * u };
                }
                max_err = max_err.max((s - get(&orig, i, j)).abs());
            }
        }
        assert!(max_err < 1e-9, "LU reconstruction error {max_err}");
    }

    #[test]
    fn all_tasks_compile_polyhedral() {
        let mut w = build_sized(32, 8);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        assert!(map.refused.is_empty(), "{:?}", map.refused);
        for f in [
            w.module.func_by_name("lu_diag").unwrap(),
            w.module.func_by_name("lu_row").unwrap(),
            w.module.func_by_name("lu_col").unwrap(),
            w.module.func_by_name("lu_inner").unwrap(),
        ] {
            assert!(
                matches!(map.strategy_of[&f], Strategy::Polyhedral(_)),
                "{} should be affine: {:?}",
                w.module.func(f).name,
                map.strategy_of[&f]
            );
        }
        // Table 1: every target loop is affine.
        for info in map.info_of.values() {
            assert_eq!(info.loops_affine, info.loops_total);
        }
    }

    #[test]
    fn inner_task_has_three_classes_in_one_nest() {
        let mut w = build_sized(32, 8);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        let inner = w.module.func_by_name("lu_inner").unwrap();
        if let Strategy::Polyhedral(stats) = &map.strategy_of[&inner] {
            assert_eq!(stats.classes, 3, "read+2 inputs = 3 parameter classes");
            assert_eq!(stats.nests, 1, "identical block bounds merge");
            assert_eq!(stats.gen_depth, 2);
            assert_eq!(stats.orig_depth, 3);
        } else {
            panic!("inner must be polyhedral");
        }
    }

    #[test]
    fn auto_dae_preserves_results() {
        let n = 16i64;
        let mut w = build_sized(n, 8);
        w.compile_auto();
        let cfg = RuntimeConfig::paper_default().with_policy(dae_runtime::FreqPolicy::DaeMinMax);
        let cae = run_workload(&w.module, &w.tasks(Variant::Cae), &RuntimeConfig::paper_default())
            .unwrap();
        let auto = run_workload(&w.module, &w.tasks(Variant::AutoDae), &cfg).unwrap();
        // Prefetch phases ran and warmed the cache substantially.
        assert!(auto.access_trace.prefetches > 0);
        assert!(
            auto.execute_trace.demand_hits[3] < cae.execute_trace.demand_hits[3] / 4,
            "warmed execute should have ≪ misses: {} vs {}",
            auto.execute_trace.demand_hits[3],
            cae.execute_trace.demand_hits[3]
        );
    }
}
