//! Automatic task-granularity selection — the §5.2.3 avenue
//! ("adjusting the granularity of the task automatically at compile-time
//! to optimize the amount of data prefetched by the access phase").
//!
//! §3.1 sets the target: "we size the task so that its working set just
//! fits the private cache hierarchy of a core (i.e., the L1 and the L2
//! cache)". For affine tasks the polyhedral machinery can evaluate the
//! working set exactly: the distinct cells of every access class, counted
//! at candidate values of the size parameter. [`suggest_granularity`]
//! searches for the largest candidate whose footprint still fits.

use crate::access_info::analyze_task;
use dae_ir::{FuncId, Module};
use dae_poly::{try_count_union_distinct, RowBudget};
use std::collections::HashMap;

/// Exact working-set size in bytes of a fully affine task at the given
/// parameter values; `None` when the task has non-affine accesses (use
/// profiling instead) or when the counts need missing hints.
pub fn footprint_bytes(module: &Module, task: FuncId, param_values: &[i64]) -> Option<u64> {
    let inlined = dae_analysis::transform::inline_all(module, task).ok()?;
    let inlined = dae_analysis::transform::optimize(&inlined);
    let info = analyze_task(module, &inlined);
    if !info.fully_affine() {
        return None;
    }
    if module.func(task).params.len() != param_values.len() {
        return None;
    }
    // Group by class (same array + parameter signature) and count distinct
    // cells per class; classes are disjoint by construction of the
    // parameter signature (up to aliasing between classes, which the §3.1
    // sizing rule tolerates: it only needs an upper-bound estimate).
    let mut per_class: HashMap<_, Vec<dae_poly::AffineImage>> = HashMap::new();
    let mut elem_of: HashMap<_, i64> = HashMap::new();
    for acc in &info.affine {
        let key = acc.class_key();
        elem_of.insert(key.clone(), acc.elem_bytes);
        per_class.entry(key).or_default().push(acc.image(param_values));
    }
    let mut budget = RowBudget::new();
    let mut total = 0u64;
    for (key, images) in per_class {
        let cells = try_count_union_distinct(&images, &[], &mut budget).ok()?;
        total = total.checked_add(cells.checked_mul(elem_of[&key].unsigned_abs())?)?;
    }
    Some(total)
}

/// Finds the largest candidate value of one size knob whose working set
/// still fits `budget_bytes` (e.g. the private L1+L2 capacity).
///
/// `eval` maps a candidate to the full parameter vector — tasks usually
/// have other parameters (base offsets) that stay at representative
/// values. Candidates must be sorted ascending. Returns `None` when the
/// task is not affine or no candidate fits.
pub fn suggest_granularity(
    module: &Module,
    task: FuncId,
    candidates: &[i64],
    budget_bytes: u64,
    mut eval: impl FnMut(i64) -> Vec<i64>,
) -> Option<i64> {
    let mut best = None;
    for &cand in candidates {
        let params = eval(cand);
        let fp = footprint_bytes(module, task, &params)?;
        if fp <= budget_bytes {
            best = Some(cand);
        } else {
            break; // footprints grow with the size knob
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Type, Value};

    /// chunk-sum task: touches `chunk` elements of one array plus the same
    /// `chunk` of a second (distinct classes).
    fn chunk_task(module: &mut Module, chunk: i64) -> FuncId {
        let a = module.add_global(format!("a{chunk}"), Type::F64, 1 << 20);
        let c = module.add_global(format!("c{chunk}"), Type::F64, 1 << 20);
        let mut b = FunctionBuilder::new(format!("t{chunk}"), vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::i64(chunk), Value::i64(1), |b, i| {
            let idx = b.iadd(Value::Arg(0), i);
            let pa = b.elem_addr(Value::Global(a), idx, Type::F64);
            let va = b.load(Type::F64, pa);
            let pc = b.elem_addr(Value::Global(c), idx, Type::F64);
            let vc = b.load(Type::F64, pc);
            let s = b.fadd(va, vc);
            b.store(pa, s);
        });
        b.ret(None);
        module.add_function(b.finish())
    }

    #[test]
    fn footprint_is_exact() {
        let mut m = Module::new();
        let t = chunk_task(&mut m, 512);
        // 512 elements from each of two arrays, 8 bytes each.
        assert_eq!(footprint_bytes(&m, t, &[0]), Some(2 * 512 * 8));
        // … independent of the base offset.
        assert_eq!(footprint_bytes(&m, t, &[4096]), Some(2 * 512 * 8));
    }

    #[test]
    fn suggests_largest_fitting_chunk() {
        // Candidate chunk sizes 256..8192; budget 64 KiB; footprint is
        // 16·chunk bytes, so the largest fitting chunk is 4096.
        let mut m = Module::new();
        let tasks: Vec<(i64, FuncId)> = [256, 512, 1024, 2048, 4096, 8192]
            .iter()
            .map(|&c| (c, chunk_task(&mut m, c)))
            .collect();
        let budget = 64 * 1024;
        // Emulate a size sweep: each candidate has its own task build.
        let mut best = None;
        for (chunk, t) in &tasks {
            if footprint_bytes(&m, *t, &[0]).expect("affine") <= budget {
                best = Some(*chunk);
            }
        }
        assert_eq!(best, Some(4096));
    }

    #[test]
    fn suggest_granularity_walks_candidates() {
        // A single task whose *parameter* is the chunk size cannot be
        // affine (parametric trip count), so the helper reports None —
        // the documented fallback-to-profiling case.
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 1 << 16);
        let mut b = FunctionBuilder::new("pn", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let p = b.elem_addr(Value::Global(a), i, Type::F64);
            let _ = b.load(Type::F64, p);
        });
        b.ret(None);
        b.set_task();
        let t = m.add_function(b.finish());
        let r = suggest_granularity(&m, t, &[64, 128], 4096, |c| vec![c]);
        assert_eq!(r, None);

        // The fixed-size variant works through the same API.
        let t2 = chunk_task(&mut m, 128);
        let r2 = suggest_granularity(&m, t2, &[0], 1 << 20, |c| vec![c]);
        assert_eq!(r2, Some(0), "the (only) candidate offset fits");
    }

    #[test]
    fn block_task_footprint_counts_all_classes() {
        // The LU interior task: three blk×blk classes.
        let w = crate::generate::tests_support_lu_inner();
        let (m, t, blk) = w;
        let fp = footprint_bytes(&m, t, &[0, blk, 2 * blk]).expect("affine");
        assert_eq!(fp, 3 * (blk * blk * 8) as u64);
    }
}
