//! Control-flow graph queries: successors, predecessors, orderings.

use dae_ir::{BlockId, Function};

/// Predecessor/successor sets plus traversal orders for one function.
///
/// The graph is computed once from the terminators; rebuild after mutating
/// control flow. Both edge lists are stored flat, one run per block
/// delimited by an offset table, so building a graph costs a fixed handful
/// of allocations whatever the function's size.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Successors of block `b` are `succs[succ_at[b]..succ_at[b + 1]]`.
    succ_at: Vec<u32>,
    succs: Vec<BlockId>,
    /// Predecessors of block `b` are `preds[pred_at[b]..pred_at[b + 1]]`.
    pred_at: Vec<u32>,
    preds: Vec<BlockId>,
    /// Blocks reachable from the entry, in reverse postorder.
    rpo: Vec<BlockId>,
    /// `rpo_index[b] == Some(i)` iff `rpo[i] == b`.
    rpo_index: Vec<Option<u32>>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Self {
        let n = func.num_blocks();
        let mut succ_at = Vec::with_capacity(n + 1);
        let mut succs = Vec::with_capacity(2 * n);
        // In-degrees, shifted one slot up for the prefix sum below.
        let mut pred_at = vec![0u32; n + 1];
        for bb in func.block_ids() {
            succ_at.push(succs.len() as u32);
            for dest in func.terminator(bb).successors() {
                succs.push(dest.block);
                pred_at[dest.block.0 as usize + 1] += 1;
            }
        }
        succ_at.push(succs.len() as u32);
        for b in 0..n {
            pred_at[b + 1] += pred_at[b];
        }
        // Fill each run in block order (predecessors with multiplicity),
        // using `pred_at[b]` as block `b`'s cursor…
        let mut preds = vec![func.entry; succs.len()];
        for bb in 0..n {
            for &s in &succs[succ_at[bb] as usize..succ_at[bb + 1] as usize] {
                let cursor = &mut pred_at[s.0 as usize];
                preds[*cursor as usize] = BlockId(bb as u32);
                *cursor += 1;
            }
        }
        // …which leaves every cursor at its run's end: shift back.
        pred_at.copy_within(0..n, 1);
        pred_at[0] = 0;

        // Postorder DFS from the entry; `rpo_index` doubles as the visited
        // set until the order is known.
        let mut rpo: Vec<BlockId> = Vec::with_capacity(n);
        let mut rpo_index = vec![None; n];
        // Iterative DFS with an explicit state machine to avoid recursion:
        // each frame holds its block's next successor slot.
        let mut stack: Vec<(BlockId, u32)> = vec![(func.entry, succ_at[func.entry.0 as usize])];
        rpo_index[func.entry.0 as usize] = Some(u32::MAX);
        while let Some(&mut (bb, ref mut at)) = stack.last_mut() {
            if *at < succ_at[bb.0 as usize + 1] {
                let next = succs[*at as usize];
                *at += 1;
                if rpo_index[next.0 as usize].replace(u32::MAX).is_none() {
                    stack.push((next, succ_at[next.0 as usize]));
                }
            } else {
                rpo.push(bb);
                stack.pop();
            }
        }
        rpo.reverse();
        for (i, &bb) in rpo.iter().enumerate() {
            rpo_index[bb.0 as usize] = Some(i as u32);
        }
        Cfg { succ_at, succs, pred_at, preds, rpo, rpo_index }
    }

    /// Predecessors of `bb` (with multiplicity for duplicate edges), in
    /// block order.
    pub fn preds(&self, bb: BlockId) -> &[BlockId] {
        let b = bb.0 as usize;
        &self.preds[self.pred_at[b] as usize..self.pred_at[b + 1] as usize]
    }

    /// Successors of `bb`, in terminator order.
    pub fn succs(&self, bb: BlockId) -> &[BlockId] {
        let b = bb.0 as usize;
        &self.succs[self.succ_at[b] as usize..self.succ_at[b + 1] as usize]
    }

    /// Reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `bb` in the reverse postorder, if reachable.
    pub fn rpo_index(&self, bb: BlockId) -> Option<usize> {
        self.rpo_index[bb.0 as usize].map(|i| i as usize)
    }

    /// True if `bb` is reachable from the entry.
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.rpo_index(bb).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Type, Value};

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", vec![Type::I64], Type::I64);
        let c = b.cmp(dae_ir::CmpOp::Gt, Value::Arg(0), 0i64);
        let v =
            b.if_then_else(c, vec![Type::I64], |_| vec![Value::i64(1)], |_| vec![Value::i64(2)]);
        b.ret(Some(v[0]));
        b.finish()
    }

    #[test]
    fn diamond_shape() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let entry = f.entry;
        assert_eq!(cfg.succs(entry).len(), 2);
        assert_eq!(cfg.rpo()[0], entry);
        assert_eq!(cfg.rpo().len(), 4);
        // join block has two predecessors
        let join = *cfg.rpo().last().unwrap();
        assert_eq!(cfg.preds(join).len(), 2);
    }

    #[test]
    fn rpo_places_preds_before_succs_in_acyclic_graphs() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        for bb in cfg.rpo() {
            for s in cfg.succs(*bb) {
                // In an acyclic graph every edge goes forward in RPO.
                assert!(cfg.rpo_index(*bb).unwrap() < cfg.rpo_index(*s).unwrap());
            }
        }
    }

    #[test]
    fn unreachable_blocks_are_excluded() {
        let mut b = FunctionBuilder::new("u", vec![], Type::Void);
        let dead = b.create_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.rpo().len(), 1);
        assert!(!cfg.is_reachable(dead));
    }

    #[test]
    fn loop_back_edge_appears() {
        let mut b = FunctionBuilder::new("l", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |_, _| {});
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        // find the header: a reachable block with 2 preds (entry + latch)
        let header =
            cfg.rpo().iter().copied().find(|&bb| cfg.preds(bb).len() == 2).expect("loop header");
        assert_eq!(cfg.succs(header).len(), 2);
    }
}
