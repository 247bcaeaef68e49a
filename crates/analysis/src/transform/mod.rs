//! IR-to-IR transforms: inlining, DCE, CFG simplification, constant folding.

pub(crate) mod constfold;
pub(crate) mod dce;
pub(crate) mod inline;
#[cfg(test)]
mod model;
pub(crate) mod simplify;
pub(crate) mod strength;

pub(crate) use constfold::fold_constants;
pub(crate) use dce::dce_fixpoint;
pub use inline::{inline_all, InlineError};
pub use simplify::compact;
pub(crate) use simplify::{fold_constant_branches, merge_straightline, skip_trivial_blocks};
pub use strength::{strength_reduce, strength_reduce_and_clean};

use dae_ir::{Function, Value};

/// Rewrites every operand of every placed instruction and terminator, in
/// block and instruction order.
pub(crate) fn map_all_operands(func: &mut Function, mut f: impl FnMut(Value) -> Value) {
    for bb in func.block_ids() {
        for i in 0..func.block(bb).insts.len() {
            let inst = func.block(bb).insts[i];
            func.inst_mut(inst).kind.map_operands(&mut f);
        }
        if func.block(bb).term.is_some() {
            func.terminator_mut(bb).map_operands(&mut f);
        }
    }
}

/// The clean-up pipeline run on generated access phases — the stand-in for
/// the paper's final `-O3` over the access version (§5.2.1): constant
/// folding, branch folding, dead-code elimination, block merging and
/// compaction, iterated to a fixpoint.
///
/// The result is always the output of [`compact`] (dense ids in reverse
/// postorder): a round that changed nothing returns the previous round's
/// compaction as it is instead of rebuilding it.
pub fn optimize(func: &Function) -> Function {
    optimized(func.clone())
}

/// [`optimize`] of a function the caller gives up, whose storage the
/// compactions reuse.
pub(crate) fn optimized(func: Function) -> Function {
    let mut f = compact(func);
    loop {
        let mut changed = false;
        changed |= fold_constants(&mut f);
        changed |= fold_constant_branches(&mut f);
        changed |= skip_trivial_blocks(&mut f);
        changed |= dce_fixpoint(&mut f);
        changed |= merge_straightline(&mut f);
        if !changed {
            return f;
        }
        f = compact(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{verify_function, CmpOp, FunctionBuilder, Type, Value};

    #[test]
    fn optimize_collapses_constant_diamond() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let c = b.cmp(CmpOp::Lt, 3i64, 5i64);
        let v =
            b.if_then_else(c, vec![Type::I64], |_| vec![Value::i64(1)], |_| vec![Value::i64(2)]);
        b.ret(Some(v[0]));
        let f = optimize(&b.finish());
        verify_function(&f, None).unwrap();
        assert_eq!(f.num_blocks(), 1, "{}", dae_ir::print_function(&f, None));
        assert_eq!(f.placed_inst_count(), 0);
    }

    #[test]
    fn optimize_keeps_loops_intact() {
        let mut m = dae_ir::Module::new();
        let g = m.add_global("a", Type::F64, 64);
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let addr = b.elem_addr(Value::Global(g), i, Type::F64);
            b.prefetch(addr);
        });
        b.ret(None);
        let before = b.finish();
        let f = optimize(&before);
        verify_function(&f, None).unwrap();
        let mut prefetches = 0;
        f.for_each_placed_inst(|_, i| {
            prefetches += matches!(f.inst(i).kind, dae_ir::InstKind::Prefetch { .. }) as usize;
        });
        assert_eq!(prefetches, 1);
        assert!(f.num_blocks() >= 3, "loop structure must survive");
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let x = b.iadd(Value::Arg(0), 0i64);
        let y = b.imul(x, 1i64);
        b.ret(Some(y));
        let once = optimize(&b.finish());
        let twice = optimize(&once);
        assert_eq!(dae_ir::print_function(&once, None), dae_ir::print_function(&twice, None));
    }
}
