//! Iterative radix-2 FFT (SPLASH-2 `fft`).
//!
//! A complex FFT over bit-reverse-permuted input (`re`/`im` arrays plus
//! precomputed twiddle tables). Tasks are per-stage chunks of butterfly
//! groups. The group stride is a task *parameter*, so the loops are not
//! counted with a constant step — the polyhedral path rejects them and the
//! compiler takes the §5.2 skeleton route (Table 1: 0/6 affine loops).
//!
//! The butterfly body lives in a separate `butterfly` function, exercising
//! the paper's observation that FFT tasks "contain calls to other
//! functions" which the compiler inlines before slicing (§6.2.2).
//!
//! The expert access phase is "generated from the unoptimized source …
//! greatly simplified": it prefetches only the data arrays (one touch per
//! line) and skips the twiddle tables, so it completes faster but warms
//! less data than the compiler's skeleton.

use crate::common::{init_f64_global, Workload};
use dae_ir::{CmpOp, FuncId, FunctionBuilder, GlobalId, Module, Type, Value};
use dae_sim::Val;

/// Default transform size (must be a power of two).
pub(crate) const DEFAULT_N: i64 = 524288;

struct Arrays {
    re: GlobalId,
    im: GlobalId,
    tw_re: GlobalId,
    tw_im: GlobalId,
}

/// The butterfly helper: combines `x[i] ± w·x[j]` in place.
fn build_butterfly(m: &mut Module, arr: &Arrays) -> FuncId {
    // butterfly(i, j, wi /* twiddle index */)
    let mut b =
        FunctionBuilder::new("butterfly", vec![Type::I64, Type::I64, Type::I64], Type::Void);
    let (i, j, wi) = (Value::Arg(0), Value::Arg(1), Value::Arg(2));
    let re_i = b.elem_addr(Value::Global(arr.re), i, Type::F64);
    let im_i = b.elem_addr(Value::Global(arr.im), i, Type::F64);
    let re_j = b.elem_addr(Value::Global(arr.re), j, Type::F64);
    let im_j = b.elem_addr(Value::Global(arr.im), j, Type::F64);
    let wre_a = b.elem_addr(Value::Global(arr.tw_re), wi, Type::F64);
    let wim_a = b.elem_addr(Value::Global(arr.tw_im), wi, Type::F64);
    let xr = b.load(Type::F64, re_i);
    let xi = b.load(Type::F64, im_i);
    let yr = b.load(Type::F64, re_j);
    let yi = b.load(Type::F64, im_j);
    let wr = b.load(Type::F64, wre_a);
    let wim = b.load(Type::F64, wim_a);
    // t = w * y
    let t1 = b.fmul(wr, yr);
    let t2 = b.fmul(wim, yi);
    let tr = b.fsub(t1, t2);
    let t3 = b.fmul(wr, yi);
    let t4 = b.fmul(wim, yr);
    let ti = b.fadd(t3, t4);
    // x[j] = x[i] - t ; x[i] = x[i] + t
    let nr = b.fsub(xr, tr);
    let ni = b.fsub(xi, ti);
    b.store(re_j, nr);
    b.store(im_j, ni);
    let pr = b.fadd(xr, tr);
    let pi = b.fadd(xi, ti);
    b.store(re_i, pr);
    b.store(im_i, pi);
    b.ret(None);
    m.add_function(b.finish())
}

/// One task: all butterflies of one stage within `[k_lo, k_hi)`.
///
/// `fft_chunk(m_len, half, tw_stride, k_lo, k_hi)` — the group stride
/// `m_len` is a parameter, making the outer loop non-counted.
fn build_task(module: &mut Module, butterfly: FuncId) -> FuncId {
    let mut b = FunctionBuilder::new(
        "fft_chunk",
        vec![Type::I64, Type::I64, Type::I64, Type::I64, Type::I64],
        Type::Void,
    );
    b.set_task();
    let (m_len, half, tw_stride, k_lo, k_hi) =
        (Value::Arg(0), Value::Arg(1), Value::Arg(2), Value::Arg(3), Value::Arg(4));
    // for (k = k_lo; k < k_hi; k += m_len)  — parametric step
    b.while_loop(
        vec![k_lo],
        |b, c| b.cmp(CmpOp::Lt, c[0], k_hi),
        |b, c| {
            let k = c[0];
            b.counted_loop(Value::i64(0), half, Value::i64(1), |b, j| {
                let i = b.iadd(k, j);
                let jj = b.iadd(i, half);
                let wi = b.imul(j, tw_stride);
                b.call(butterfly, vec![i, jj, wi], Type::Void);
            });
            vec![b.iadd(k, m_len)]
        },
    );
    b.ret(None);
    module.add_function(b.finish())
}

/// Expert access phase: prefetch the `[k_lo, k_hi)` slice of `re`/`im`;
/// twiddles are skipped (the expert's simplification of §6.2.2).
fn build_manual(module: &mut Module, arr: &Arrays) -> FuncId {
    let mut b = FunctionBuilder::new(
        "fft_chunk__manual",
        vec![Type::I64, Type::I64, Type::I64, Type::I64, Type::I64],
        Type::Void,
    );
    let (k_lo, k_hi) = (Value::Arg(3), Value::Arg(4));
    b.counted_loop(k_lo, k_hi, Value::i64(1), |b, i| {
        let pr = b.elem_addr(Value::Global(arr.re), i, Type::F64);
        b.prefetch(pr);
        let pi = b.elem_addr(Value::Global(arr.im), i, Type::F64);
        b.prefetch(pi);
    });
    b.ret(None);
    module.add_function(b.finish())
}

/// Builds the FFT workload for a transform of `n` points split into
/// `chunks` tasks per stage.
pub fn build_sized(n: i64, chunks: i64) -> Workload {
    assert!(n > 0 && (n as u64).is_power_of_two());
    let mut module = Module::new();
    // Input: bit-reverse-permuted impulse-train-ish signal.
    let nn = n as usize;
    let mut re = vec![0.0f64; nn];
    let im = vec![0.0f64; nn];
    let bits = n.trailing_zeros();
    for (k, v) in re.iter_mut().enumerate() {
        // signal x[t] = cos-ish deterministic pattern, stored bit-reversed
        let t = (k as u64).reverse_bits() >> (64 - bits);
        *v = ((t as f64) * 0.37).sin();
    }
    let tw_len = (n / 2) as usize;
    let mut tw_re = vec![0.0f64; tw_len];
    let mut tw_im = vec![0.0f64; tw_len];
    for k in 0..tw_len {
        let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        tw_re[k] = ang.cos();
        tw_im[k] = ang.sin();
    }
    let arr = Arrays {
        re: init_f64_global(&mut module, "re", &re),
        im: init_f64_global(&mut module, "im", &im),
        tw_re: init_f64_global(&mut module, "tw_re", &tw_re),
        tw_im: init_f64_global(&mut module, "tw_im", &tw_im),
    };
    let butterfly = build_butterfly(&mut module, &arr);
    let task = build_task(&mut module, butterfly);
    let manual = build_manual(&mut module, &arr);

    let mut w = Workload::new("FFT", module);
    w.manual_access.insert(task, manual);
    w.hints.insert(task, vec![4, 2, n / 4, 0, n / 2]);

    // Stages: m = 2, 4, …, n. Chunk the k-range; chunk boundaries must be
    // multiples of m.
    // Butterfly stages depend on each other: one barrier epoch per stage.
    let stages = n.trailing_zeros() as i64;
    for s in 1..=stages {
        let m_len = 1i64 << s;
        let half = m_len / 2;
        let tw_stride = n / m_len;
        let groups = n / m_len;
        let chunks_here = chunks.min(groups).max(1);
        let groups_per_chunk = groups / chunks_here;
        for c in 0..chunks_here {
            let k_lo = c * groups_per_chunk * m_len;
            let k_hi = if c + 1 == chunks_here { n } else { (c + 1) * groups_per_chunk * m_len };
            w.instances.push((
                task,
                vec![Val::I(m_len), Val::I(half), Val::I(tw_stride), Val::I(k_lo), Val::I(k_hi)],
            ));
            w.epochs.push((s - 1) as u32);
        }
    }
    w
}

/// Builds the default-size FFT workload: four sampled stages of a
/// 512k-point transform (the full 19-stage run is shape-identical; sampling
/// keeps simulation time reasonable while the 12 MB working set stays
/// DRAM-resident like the SPLASH-2 original).
pub(crate) fn build() -> Workload {
    build_stage_sampled(DEFAULT_N, 32, &[4, 8, 12, 16])
}

/// Builds an FFT workload restricted to the given stages (1-based log2 of
/// the group length).
pub(crate) fn build_stage_sampled(n: i64, chunks: i64, stages: &[i64]) -> Workload {
    let mut w = build_sized(n, chunks);
    let mut keep_inst = Vec::new();
    let mut keep_epochs = Vec::new();
    for (k, (f, args)) in w.instances.iter().enumerate() {
        let m_len = match args[0] {
            dae_sim::Val::I(v) => v,
            _ => unreachable!(),
        };
        if stages.contains(&(m_len.trailing_zeros() as i64)) {
            keep_inst.push((*f, args.clone()));
            keep_epochs.push(w.epochs[k]);
        }
    }
    w.instances = keep_inst;
    w.epochs = keep_epochs;
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Variant;
    use dae_core::Strategy;
    use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
    use dae_runtime::{run_workload, RuntimeConfig};
    use dae_sim::{CachePort, Machine, PhaseTrace};

    /// Runs the whole FFT sequentially and returns (re, im).
    fn run_fft(w: &Workload, n: i64) -> (Vec<f64>, Vec<f64>) {
        let hc = HierarchyConfig::default();
        let mut llc = SharedLlc::new(hc.llc);
        let mut core = CoreCaches::new(&hc);
        let mut machine = Machine::new(&w.module);
        for (f, args) in &w.instances {
            let mut t = PhaseTrace::default();
            machine
                .run(*f, args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut t)
                .unwrap();
        }
        let re_g = w.module.global_by_name("re").unwrap();
        let im_g = w.module.global_by_name("im").unwrap();
        let rb = machine.memory.global_addr(re_g);
        let ib = machine.memory.global_addr(im_g);
        let re: Vec<f64> =
            (0..n).map(|k| machine.memory.read(Type::F64, rb + (k as u64) * 8).as_f()).collect();
        let im: Vec<f64> =
            (0..n).map(|k| machine.memory.read(Type::F64, ib + (k as u64) * 8).as_f()).collect();
        (re, im)
    }

    #[test]
    fn matches_naive_dft() {
        let n = 64i64;
        let w = build_sized(n, 2);
        dae_ir::verify_module(&w.module).unwrap();
        let (re, im) = run_fft(&w, n);
        // Naive DFT of the same (non-bit-reversed) input.
        let bits = n.trailing_zeros();
        let mut x = vec![0.0f64; n as usize];
        for k in 0..n as usize {
            let t = (k as u64).reverse_bits() >> (64 - bits);
            x[t as usize] = ((t as f64) * 0.37).sin();
        }
        for freq in [0usize, 1, 7, 31] {
            let mut sr = 0.0;
            let mut si = 0.0;
            for (t, xv) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * freq as f64 * t as f64 / n as f64;
                sr += xv * ang.cos();
                si += xv * ang.sin();
            }
            assert!(
                (sr - re[freq]).abs() < 1e-6 && (si - im[freq]).abs() < 1e-6,
                "freq {freq}: dft ({sr},{si}) vs fft ({},{})",
                re[freq],
                im[freq]
            );
        }
    }

    #[test]
    fn compiles_as_skeleton_with_inlined_call() {
        let mut w = build_sized(256, 2);
        w.compile_auto();
        let map = w.auto_map().unwrap();
        let task = w.module.func_by_name("fft_chunk").unwrap();
        assert!(matches!(map.strategy_of[&task], Strategy::Skeleton));
        // Table 1: no affine loops.
        assert_eq!(map.info_of[&task].loops_affine, 0);
        let access = map.access(task).unwrap();
        let af = w.module.func(access);
        let mut calls = 0;
        let mut prefetches = 0;
        af.for_each_placed_inst(|_, i| {
            calls += matches!(af.inst(i).kind, dae_ir::InstKind::Call { .. }) as usize;
            prefetches += matches!(af.inst(i).kind, dae_ir::InstKind::Prefetch { .. }) as usize;
        });
        assert_eq!(calls, 0, "butterfly must be inlined");
        assert!(prefetches >= 4, "data and twiddles prefetched, got {prefetches}");
    }

    #[test]
    fn auto_prefetches_more_than_manual() {
        // §6.2.2: the auto version (twiddles included) prefetches more data;
        // the manual one completes faster.
        let mut w = build_sized(1024, 2);
        w.compile_auto();
        let cfg = RuntimeConfig::paper_default().with_policy(dae_runtime::FreqPolicy::DaeMinMax);
        let manual = run_workload(&w.module, &w.tasks(Variant::ManualDae), &cfg).unwrap();
        let auto = run_workload(&w.module, &w.tasks(Variant::AutoDae), &cfg).unwrap();
        assert!(manual.breakdown.access_s < auto.breakdown.access_s);
        assert!(auto.access_trace.prefetches > manual.access_trace.prefetches);
    }

    #[test]
    fn variants_run_to_completion() {
        let mut w = build_sized(512, 2);
        w.compile_auto();
        let cfg = RuntimeConfig::paper_default();
        for v in Variant::ALL {
            let r = run_workload(&w.module, &w.tasks(v), &cfg).unwrap();
            assert_eq!(r.tasks, w.num_tasks());
        }
    }
}
