//! Lattice-Boltzmann method (SPEC CPU2006 `lbm`, simplified D2Q5).
//!
//! A two-grid (src → dst) collide-and-stream sweep over an `H×W` lattice
//! with five distributions per cell (centre, north, south, east, west) and
//! an obstacle map. The obstacle test is **data-dependent control flow**, so
//! the task is non-affine (Table 1: 0/1 affine loops) and the compiler takes
//! the skeleton path, where the §5.2.2 CFG simplification drops the obstacle
//! conditional.
//!
//! LBM is the paper's anomaly (§6.1): its stores ("write accesses are
//! coupled with computations during the execute phase") dominate the DRAM
//! traffic, so decoupling only the reads captures a smaller share of the
//! memory time than in the other benchmarks, and coupled execution at the
//! EDP-optimal frequency can beat DAE.

use crate::common::{init_f64_global, init_i64_global, Workload};
use dae_ir::{CmpOp, FuncId, FunctionBuilder, GlobalId, Module, Type, Value};
use dae_sim::Val;

/// Default lattice width.
pub(crate) const W: i64 = 512;
/// Default lattice height.
pub(crate) const H: i64 = 256;
/// Number of distributions per cell (D2Q5).
pub(crate) const Q: i64 = 5;

/// One task: collide-and-stream rows `[y0, y1)` from plane `src_off` to
/// plane `dst_off` of the distribution array `f[2][Q][H·W]`.
/// Plane pitch: cells per plane plus padding to avoid power-of-two cache
/// aliasing between the distribution streams.
fn pitch(h: i64, w: i64) -> i64 {
    h * w + 72
}

fn build_task(m: &mut Module, f: GlobalId, obst: GlobalId, w: i64, h: i64) -> FuncId {
    let plane = h * w;
    let pitch = pitch(h, w);
    let mut b = FunctionBuilder::new(
        "lbm_sweep",
        vec![Type::I64, Type::I64, Type::I64, Type::I64],
        Type::Void,
    );
    b.set_task();
    let (src_off, dst_off, y0, y1) = (Value::Arg(0), Value::Arg(1), Value::Arg(2), Value::Arg(3));
    let fg = Value::Global(f);

    b.counted_loop(y0, y1, Value::i64(1), |b, y| {
        b.counted_loop(Value::i64(0), Value::i64(w), Value::i64(1), |b, x| {
            let row = b.imul(y, w);
            let cell = b.iadd(row, x);
            // load the 5 distributions of this cell from src
            let mut dist = Vec::new();
            for q in 0..Q {
                let idx0 = b.iadd(src_off, q * pitch);
                let idx = b.iadd(idx0, cell);
                let addr = b.elem_addr(fg, idx, Type::F64);
                dist.push(b.load(Type::F64, addr));
            }
            let oaddr = b.elem_addr(Value::Global(obst), cell, Type::I64);
            let ov = b.load(Type::I64, oaddr);
            let is_obst = b.cmp(CmpOp::Ne, ov, 0i64);

            // collide: rho = Σ f_q ; relax toward rho/Q. On obstacles,
            // bounce back (swap N<->S, E<->W) without relaxation.
            let outs = b.if_then_else(
                is_obst,
                vec![Type::F64; Q as usize],
                |_| vec![dist[0], dist[2], dist[1], dist[4], dist[3]],
                |b| {
                    let s01 = b.fadd(dist[0], dist[1]);
                    let s23 = b.fadd(dist[2], dist[3]);
                    let s = b.fadd(s01, s23);
                    let rho = b.fadd(s, dist[4]);
                    let eq = b.fmul(rho, 1.0 / Q as f64);
                    let omega = 0.6f64;
                    (0..Q as usize)
                        .map(|q| {
                            let d = b.fsub(eq, dist[q]);
                            let r = b.fmul(d, omega);
                            b.fadd(dist[q], r)
                        })
                        .collect()
                },
            );

            // stream: write each distribution to the neighbour in its
            // direction (torus wrap on the flat index, branch-free via
            // selects — division-free, as real LBM codes do with ghost
            // layers).
            let offsets = [0i64, -w, w, 1, -1]; // C, N, S, E, W
            for (q, off) in offsets.iter().enumerate() {
                let t = b.iadd(cell, *off);
                let neg = b.cmp(CmpOp::Lt, t, 0i64);
                let t_up = b.iadd(t, plane);
                let t1 = b.select(neg, t_up, t);
                let ovf = b.cmp(CmpOp::Ge, t1, plane);
                let t_dn = b.isub(t1, plane);
                let wrapped = b.select(ovf, t_dn, t1);
                let idx0 = b.iadd(dst_off, (q as i64) * pitch);
                let idx = b.iadd(idx0, wrapped);
                let addr = b.elem_addr(fg, idx, Type::F64);
                b.store(addr, outs[q]);
            }
        });
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// Expert access phase: prefetch the five src rows and the obstacle row.
/// (Writes are not prefetched, per the paper.)
fn build_manual(m: &mut Module, f: GlobalId, obst: GlobalId, w: i64, h: i64) -> FuncId {
    let pitch = pitch(h, w);
    let mut b = FunctionBuilder::new(
        "lbm_sweep__manual",
        vec![Type::I64, Type::I64, Type::I64, Type::I64],
        Type::Void,
    );
    let (src_off, y0, y1) = (Value::Arg(0), Value::Arg(2), Value::Arg(3));
    let lo = b.imul(y0, w);
    let hi = b.imul(y1, w);
    b.counted_loop(lo, hi, Value::i64(1), |b, i| {
        for q in 0..Q {
            let idx0 = b.iadd(src_off, q * pitch);
            let idx = b.iadd(idx0, i);
            let addr = b.elem_addr(Value::Global(f), idx, Type::F64);
            b.prefetch(addr);
        }
        let oaddr = b.elem_addr(Value::Global(obst), i, Type::I64);
        b.prefetch(oaddr);
    });
    b.ret(None);
    m.add_function(b.finish())
}

/// Builds the LBM workload: `iters` sweeps over an `h×w` lattice in row
/// chunks of `chunk` rows.
pub fn build_sized(w: i64, h: i64, chunk: i64, iters: i64) -> Workload {
    let plane = h * w;
    let pitch = pitch(h, w);
    let mut module = Module::new();
    let mut init = vec![0.2f64; (2 * Q * pitch) as usize];
    let mut seed = 0xD1B54A32D192ED03u64;
    for v in init.iter_mut() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        *v = 0.1 + (seed >> 11) as f64 / (1u64 << 53) as f64 * 0.2;
    }
    let f = init_f64_global(&mut module, "f", &init);
    // ~6% obstacle cells, deterministic.
    let obst: Vec<i64> = (0..plane).map(|k| i64::from((k * 2654435761 + 17) % 16 == 0)).collect();
    let obst = init_i64_global(&mut module, "obst", &obst);

    let task = build_task(&mut module, f, obst, w, h);
    let manual = build_manual(&mut module, f, obst, w, h);

    let mut wl = Workload::new("LBM", module);
    wl.manual_access.insert(task, manual);
    wl.hints.insert(task, vec![0, Q * pitch, 0, chunk]);

    // One barrier epoch per sweep (src/dst planes swap between sweeps).
    for it in 0..iters {
        let (src, dst) = if it % 2 == 0 { (0, Q * pitch) } else { (Q * pitch, 0) };
        let mut y = 0;
        while y < h {
            let y1 = (y + chunk).min(h);
            wl.instances.push((task, vec![Val::I(src), Val::I(dst), Val::I(y), Val::I(y1)]));
            wl.epochs.push(it as u32);
            y = y1;
        }
    }
    wl
}

/// Builds the default-size LBM workload.
pub(crate) fn build() -> Workload {
    build_sized(W, H, 4, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use dae_core::Strategy;
    use dae_runtime::{run_workload, FreqPolicy, RuntimeConfig};

    #[test]
    fn mass_is_conserved() {
        // Collide-and-stream on a torus conserves Σ f (away from obstacles
        // it must hold exactly; bounce-back also conserves mass).
        let w = build_sized(32, 16, 8, 2);
        dae_ir::verify_module(&w.module).unwrap();
        use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
        use dae_sim::{CachePort, Machine, PhaseTrace};
        let hc = HierarchyConfig::default();
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        let mut machine = Machine::new(&w.module);
        let f = w.module.global_by_name("f").unwrap();
        let base = machine.memory.global_addr(f);
        let plane = (32 * 16) as u64;
        let pit = pitch(16, 32) as u64;
        let sum_plane = |mem: &dae_sim::Memory, off: u64| -> f64 {
            (0..Q as u64)
                .flat_map(|q| (0..plane).map(move |c| q * pit + c))
                .map(|k| mem.read(Type::F64, base + (off + k) * 8).as_f())
                .sum()
        };
        let before = sum_plane(&machine.memory, 0);
        for (func, args) in &w.instances {
            let mut t = PhaseTrace::default();
            machine
                .run(*func, args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut t)
                .unwrap();
        }
        // After 2 iterations the result lives back in plane 0.
        let after = sum_plane(&machine.memory, 0);
        assert!((before - after).abs() < 1e-9 * before.abs(), "mass drift: {before} -> {after}");
    }

    #[test]
    fn task_is_non_affine_due_to_obstacle_branch() {
        let mut w = build_sized(32, 16, 8, 1);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        let task = w.module.func_by_name("lbm_sweep").unwrap();
        assert!(matches!(map.strategy_of[&task], Strategy::Skeleton));
        assert!(map.info_of[&task].has_data_dependent_cf);
        assert_eq!(map.info_of[&task].loops_affine, 0, "Table 1: 0 affine loops");
    }

    #[test]
    fn writes_dominate_dram_traffic() {
        // The LBM anomaly's root cause: stores produce at least as much DRAM
        // traffic as the (prefetchable) loads.
        let w = build_sized(128, 64, 8, 2);
        let cfg = RuntimeConfig::paper_default();
        let r = run_workload(&w.module, &w.tasks(Variant::Cae), &cfg).unwrap();
        assert!(
            r.execute_trace.store_mem_misses * 2 >= r.execute_trace.demand_hits[3],
            "stores {} vs load misses {}",
            r.execute_trace.store_mem_misses,
            r.execute_trace.demand_hits[3]
        );
    }

    #[test]
    fn skeleton_drops_obstacle_conditional() {
        let mut w = build_sized(32, 16, 8, 1);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        let task = w.module.func_by_name("lbm_sweep").unwrap();
        let access = w.module.func(map.access(task).unwrap());
        // The access version must have no float compute (collision sliced
        // away) and prefetch the six read streams.
        let mut fp = 0;
        let mut prefetches = 0;
        access.for_each_placed_inst(|_, i| {
            fp += matches!(access.inst(i).kind, dae_ir::InstKind::Binary { op, .. } if op.is_float())
                as usize;
            prefetches +=
                matches!(access.inst(i).kind, dae_ir::InstKind::Prefetch { .. }) as usize;
        });
        assert_eq!(fp, 0, "{}", dae_ir::print_function(access, None));
        assert_eq!(prefetches, 6, "5 distributions + obstacle map");
    }

    #[test]
    fn dae_runs_all_variants() {
        let mut w = build_sized(64, 32, 8, 1);
        w.compile_auto();
        for v in Variant::ALL {
            let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeMinMax);
            let r = run_workload(&w.module, &w.tasks(v), &cfg).unwrap();
            assert_eq!(r.tasks, w.num_tasks());
        }
    }
}
