//! IR-to-IR transforms: inlining, DCE, CFG simplification, constant folding.

pub(crate) mod constfold;
pub(crate) mod dce;
pub(crate) mod inline;
#[cfg(test)]
mod model;
pub(crate) mod simplify;
pub(crate) mod strength;

#[cfg(test)]
pub(crate) use constfold::fold_constants;
pub(crate) use constfold::fold_in_rpo;
pub(crate) use dce::dce_fixpoint;
pub use inline::{inline_all, InlineError};
pub use simplify::{compact, compact_in};
pub(crate) use simplify::{
    compact_on_cfg, drop_unreachable, fold_constant_branches, merge_straightline,
    skip_trivial_blocks,
};
pub(crate) use strength::StrengthScratch;
pub use strength::{
    strength_reduce, strength_reduce_and_clean, strength_reduce_and_clean_compacted,
};

use crate::Workspace;
use dae_ir::{BlockId, Function, InstId, Value};

/// The tables of the clean-up passes, kept by a [`Workspace`]: each pass
/// clears what it uses before filling it.
#[derive(Default)]
pub(crate) struct CleanupScratch {
    /// [`compact`]: old block id → new block id.
    block_map: Vec<Option<BlockId>>,
    /// [`compact`]: old instruction id → new instruction id.
    inst_map: Vec<Option<InstId>>,
    /// [`fold_constants`]: what each instruction folds to.
    folds: Vec<Option<Value>>,
    /// [`skip_trivial_blocks`]: the target of each forwarding block.
    forward: Vec<Option<BlockId>>,
    /// [`merge_straightline`]: where each merged block's parameter
    /// substitutions start in `subst`, and how many there are.
    subst_at: Vec<(u32, u32)>,
    subst: Vec<Value>,
    /// [`dce_fixpoint`]: parameter slots and incoming edges per block,
    /// liveness marks, the work list and the surviving slots' new indices.
    param_at: Vec<u32>,
    in_at: Vec<u32>,
    incoming: Vec<BlockId>,
    live_params: Vec<bool>,
    live_insts: Vec<bool>,
    work: Vec<Value>,
    remap: Vec<Option<u32>>,
    /// [`compact`]: the arenas of the function the last compaction
    /// emptied, which the next one fills.
    spare: Option<Function>,
}

/// `v` cleared and refilled with `n` copies of `fill`, its capacity kept.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

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
/// postorder), and the function is compacted once, on return. The passes
/// in between need no dense ids; what they do need is that no unreachable
/// block feeds them an edge, a root or a use (a predecessor would stop a
/// merge, a branch condition would keep dead code alive). So a round that
/// changed an edge empties the blocks it left unreachable — what a
/// compaction between rounds would have dropped — and the rounds see the
/// same graph, instructions and operands as over a compacted function,
/// under other ids; the one compaction at the end puts the ids in their
/// canonical order. The graph the merge pass builds at the end of a round
/// serves the emptying, the next round's constant folding (which visits
/// definitions before their uses in its reverse postorder: a merge moves a
/// block's instructions to the end of its single predecessor, which comes
/// first) and, after the last round, the compaction.
///
/// A round after one that changed no edge — only constants were folded and
/// dead code went — runs the forwarder pass alone, and is the last when
/// that finds nothing: folding runs to its own fixpoint and dead-code
/// removal is one, removing dead instructions and parameters gives no
/// instruction a constant operand, no branch a constant condition and no
/// block a single predecessor, so folding, branch folding and merging have
/// nothing new to do — only a block that lost its last instruction or
/// parameter can have become a forwarder.
pub fn optimize(func: &Function) -> Function {
    Workspace::with(|ws| optimize_in(ws, func.clone()))
}

/// [`optimize`] on the buffers of `ws`, of a function the caller gives up
/// (the compaction reuses its storage).
pub fn optimize_in(ws: &mut Workspace, mut f: Function) -> Function {
    ws.cfg.rebuild(&f);
    drop_unreachable(&ws.cfg, &mut f);
    let mut settled = false;
    loop {
        let (mut folded, mut edges) = (false, false);
        if !settled {
            folded = fold_in_rpo(ws, &mut f);
            edges = fold_constant_branches(&mut f);
        }
        let forwarded = skip_trivial_blocks(ws, &mut f);
        if settled && !forwarded {
            break;
        }
        edges |= forwarded;
        let swept = dce_fixpoint(ws, &mut f);
        // Rebuilds the graph in `ws` after this round's last edge change.
        edges |= merge_straightline(ws, &mut f);
        if !(folded || swept || edges) {
            break;
        }
        settled = !edges;
        if edges {
            drop_unreachable(&ws.cfg, &mut f);
        }
    }
    // The loop ends only after a round that changed no edge, so the graph
    // its merge pass built is still `f`'s.
    compact_on_cfg(ws, f)
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
