//! Control-flow graph queries: successors, predecessors, orderings.

use dae_ir::{BlockId, Function};

/// Predecessor/successor sets plus traversal orders for one function.
///
/// The graph is computed once from the terminators; rebuild after mutating
/// control flow.
#[derive(Clone, Debug)]
pub struct Cfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    /// Blocks reachable from the entry, in reverse postorder.
    rpo: Vec<BlockId>,
    /// `rpo_index[b] == Some(i)` iff `rpo[i] == b`.
    rpo_index: Vec<Option<u32>>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Self {
        let n = func.num_blocks();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for bb in func.block_ids() {
            for dest in func.terminator(bb).successors() {
                succs[bb.0 as usize].push(dest.block);
                preds[dest.block.0 as usize].push(bb);
            }
        }

        // Postorder DFS from the entry.
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        // Iterative DFS with an explicit state machine to avoid recursion.
        let mut stack: Vec<(BlockId, usize)> = vec![(func.entry, 0)];
        visited[func.entry.0 as usize] = true;
        while let Some(&mut (bb, ref mut idx)) = stack.last_mut() {
            let s = &succs[bb.0 as usize];
            if *idx < s.len() {
                let next = s[*idx];
                *idx += 1;
                if !std::mem::replace(&mut visited[next.0 as usize], true) {
                    stack.push((next, 0));
                }
            } else {
                post.push(bb);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![None; n];
        for (i, &bb) in rpo.iter().enumerate() {
            rpo_index[bb.0 as usize] = Some(i as u32);
        }
        Cfg { preds, succs, rpo, rpo_index }
    }

    /// Predecessors of `bb` (with multiplicity for duplicate edges).
    pub fn preds(&self, bb: BlockId) -> &[BlockId] {
        &self.preds[bb.0 as usize]
    }

    /// Successors of `bb`.
    pub fn succs(&self, bb: BlockId) -> &[BlockId] {
        &self.succs[bb.0 as usize]
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
