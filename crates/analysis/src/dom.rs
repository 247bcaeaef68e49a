//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

use crate::cfg::Cfg;
use dae_ir::{BlockId, Function};

/// Immediate-dominator table for the reachable blocks of a function.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// `idom[b]` is the immediate dominator of `b`; the entry maps to itself.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl Default for DomTree {
    fn default() -> Self {
        DomTree { idom: Vec::new(), entry: BlockId(0) }
    }
}

impl DomTree {
    /// Computes the dominator tree of `func` given its [`Cfg`].
    pub fn new(func: &Function, cfg: &Cfg) -> Self {
        let mut dom = DomTree::default();
        dom.rebuild(func, cfg);
        dom
    }

    /// Makes `self` the dominator tree of `func`, reusing its table.
    pub(crate) fn rebuild(&mut self, func: &Function, cfg: &Cfg) {
        let entry = func.entry;
        self.entry = entry;
        let idom = &mut self.idom;
        idom.clear();
        idom.resize(func.num_blocks(), None);
        idom[entry.0 as usize] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            // Walk up in RPO index space until the fingers meet.
            while a != b {
                while cfg.rpo_index(a).unwrap() > cfg.rpo_index(b).unwrap() {
                    a = idom[a.0 as usize].unwrap();
                }
                while cfg.rpo_index(b).unwrap() > cfg.rpo_index(a).unwrap() {
                    b = idom[b.0 as usize].unwrap();
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &bb in cfg.rpo().iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(bb) {
                    if !cfg.is_reachable(p) || idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[bb.0 as usize] != Some(ni) {
                        idom[bb.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
    }

    /// The immediate dominator of `bb` (`None` for the entry or unreachable
    /// blocks).
    pub(crate) fn idom(&self, bb: BlockId) -> Option<BlockId> {
        if bb == self.entry {
            None
        } else {
            self.idom[bb.0 as usize]
        }
    }

    /// True if `a` dominates `b` (reflexively).
    pub(crate) fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{CmpOp, FunctionBuilder, Type, Value};

    #[test]
    fn diamond_dominators() {
        let mut b = FunctionBuilder::new("d", vec![Type::I64], Type::I64);
        let c = b.cmp(CmpOp::Gt, Value::Arg(0), 0i64);
        let v =
            b.if_then_else(c, vec![Type::I64], |_| vec![Value::i64(1)], |_| vec![Value::i64(2)]);
        b.ret(Some(v[0]));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let entry = f.entry;
        let join = *cfg.rpo().last().unwrap();
        // Entry dominates everything; neither arm dominates the join.
        assert_eq!(dom.idom(join), Some(entry));
        for &bb in cfg.rpo() {
            assert!(dom.dominates(entry, bb));
        }
        let arms: Vec<BlockId> = cfg.succs(entry).to_vec();
        assert!(!dom.dominates(arms[0], join));
        assert!(!dom.dominates(arms[1], join));
    }

    #[test]
    fn loop_header_dominates_body() {
        let mut b = FunctionBuilder::new("l", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let _ = b.imul(i, i);
        });
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let header = cfg.rpo()[1];
        let body = cfg
            .succs(header)
            .iter()
            .copied()
            .find(|&s| cfg.succs(s).contains(&header))
            .expect("latch");
        assert!(dom.dominates(header, body));
        assert!(!dom.dominates(body, header));
        assert_eq!(dom.idom(body), Some(header));
    }

    #[test]
    fn nested_loop_dominance_chain() {
        let mut b = FunctionBuilder::new("n", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, _| {
            b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, j| {
                let _ = b.imul(j, 2i64);
            });
        });
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        // Every reachable block is dominated by the entry and the idom chain
        // terminates there.
        for &bb in cfg.rpo() {
            let mut cur = bb;
            let mut steps = 0;
            while let Some(up) = dom.idom(cur) {
                cur = up;
                steps += 1;
                assert!(steps <= f.num_blocks(), "idom chain cycle");
            }
            assert_eq!(cur, f.entry);
        }
    }
}
