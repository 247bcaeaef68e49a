//! Natural-loop detection, the loop forest, and counted-loop recognition.
//!
//! Counted-loop recognition is the entry point of the scalar-evolution
//! analysis: a recognised [`CountedLoop`] gives the induction variable, its
//! initial value, constant step and bound — exactly the ingredients the
//! polyhedral front-end of the DAE compiler turns into iteration-domain
//! constraints.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use dae_ir::{BinOp, BlockId, CmpOp, Function, InstKind, Terminator, Value};

/// Index of a loop within a [`LoopForest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

/// A set of blocks of one function, one bit per block id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockSet {
    words: Vec<u64>,
    len: usize,
}

impl BlockSet {
    /// Empties the set and sizes it for block ids below `blocks`.
    fn reset(&mut self, blocks: usize) {
        self.words.clear();
        self.words.resize(blocks.div_ceil(64), 0);
        self.len = 0;
    }

    /// Adds `bb`; `false` if it was already there.
    fn insert(&mut self, bb: BlockId) -> bool {
        let (word, bit) = (bb.0 as usize / 64, 1u64 << (bb.0 % 64));
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += fresh as usize;
        fresh
    }

    /// True if `bb` is in the set.
    pub fn contains(&self, bb: BlockId) -> bool {
        self.words.get(bb.0 as usize / 64).is_some_and(|w| w & (1u64 << (bb.0 % 64)) != 0)
    }

    /// Number of blocks in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no block.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The blocks of the set, in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64u32)
                .filter(move |b| bits & (1u64 << b) != 0)
                .map(move |b| BlockId(w as u32 * 64 + b))
        })
    }
}

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The unique header block (target of all back edges).
    pub header: BlockId,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop body (header included).
    pub blocks: BlockSet,
    /// The enclosing loop, if nested.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Nesting depth; outermost loops have depth 1.
    pub depth: u32,
}

/// The loop forest of one function.
///
/// A rebuild keeps every buffer, including those of loops past the
/// current count, so a forest reused across functions stops allocating
/// once it has seen the largest.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    /// The first `count` entries are the loops; the rest are spare.
    loops: Vec<Loop>,
    count: usize,
    innermost: Vec<Option<LoopId>>,
    /// The loop headed by each block, indexed by block id.
    header_of: Vec<Option<LoopId>>,
    /// The body search's work list; empty between builds.
    work: Vec<BlockId>,
}

impl LoopForest {
    /// Detects all natural loops of `func`.
    ///
    /// Irreducible control flow (a back edge whose target does not dominate
    /// its source) is ignored — such edges never arise from the structured
    /// builder, and the DAE compiler refuses tasks it cannot analyse anyway.
    pub fn new(func: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        let mut forest = LoopForest::default();
        forest.rebuild(func, cfg, dom);
        forest
    }

    /// Makes `self` the loop forest of `func`, reusing its buffers.
    pub(crate) fn rebuild(&mut self, func: &Function, cfg: &Cfg, dom: &DomTree) {
        let n = func.num_blocks();
        let LoopForest { loops, count, innermost, header_of, work } = self;
        *count = 0;
        header_of.clear();
        header_of.resize(n, None);
        // Back edges grouped by header, headers in order of discovery.
        for &bb in cfg.rpo() {
            for &succ in cfg.succs(bb) {
                if dom.dominates(succ, bb) {
                    let id = *header_of[succ.0 as usize].get_or_insert_with(|| {
                        if *count == loops.len() {
                            loops.push(Loop {
                                header: succ,
                                latches: Vec::new(),
                                blocks: BlockSet::default(),
                                parent: None,
                                children: Vec::new(),
                                depth: 0,
                            });
                        }
                        let l = &mut loops[*count];
                        l.header = succ;
                        l.latches.clear();
                        *count += 1;
                        LoopId(*count as u32 - 1)
                    });
                    loops[id.0 as usize].latches.push(bb);
                }
            }
        }
        let loops = &mut loops[..*count];

        // Body of each loop: header plus everything that reaches a latch
        // without passing through the header.
        for l in loops.iter_mut() {
            l.blocks.reset(n);
            l.blocks.insert(l.header);
            l.parent = None;
            l.children.clear();
            l.depth = 0;
            work.extend_from_slice(&l.latches);
            while let Some(bb) = work.pop() {
                if l.blocks.insert(bb) {
                    for &p in cfg.preds(bb) {
                        if cfg.is_reachable(p) {
                            work.push(p);
                        }
                    }
                }
            }
        }

        // Nesting: loop A is the parent of B if A contains B's header and A≠B
        // and A is the smallest such loop.
        let num = loops.len() as u32;
        let ids = move || (0..num).map(LoopId);
        for b in ids() {
            let mut best: Option<LoopId> = None;
            for a in ids() {
                if a == b {
                    continue;
                }
                if loops[a.0 as usize].blocks.contains(loops[b.0 as usize].header)
                    && loops[a.0 as usize].header != loops[b.0 as usize].header
                {
                    best = match best {
                        None => Some(a),
                        Some(cur)
                            if loops[a.0 as usize].blocks.len()
                                < loops[cur.0 as usize].blocks.len() =>
                        {
                            Some(a)
                        }
                        other => other,
                    };
                }
            }
            loops[b.0 as usize].parent = best;
        }
        for b in ids() {
            if let Some(p) = loops[b.0 as usize].parent {
                loops[p.0 as usize].children.push(b);
            }
        }
        // Depths.
        for b in ids() {
            let mut d = 1;
            let mut cur = loops[b.0 as usize].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.0 as usize].parent;
            }
            loops[b.0 as usize].depth = d;
        }

        // Innermost loop per block = the smallest loop containing it.
        innermost.clear();
        innermost.resize(n, None);
        for (slot, inner) in innermost.iter_mut().enumerate() {
            let bb = BlockId(slot as u32);
            let mut best: Option<LoopId> = None;
            for l in ids() {
                if loops[l.0 as usize].blocks.contains(bb) {
                    best = match best {
                        None => Some(l),
                        Some(cur)
                            if loops[l.0 as usize].blocks.len()
                                < loops[cur.0 as usize].blocks.len() =>
                        {
                            Some(l)
                        }
                        other => other,
                    };
                }
            }
            *inner = best;
        }
    }

    /// All loops, unordered.
    pub fn loops(&self) -> impl Iterator<Item = (LoopId, &Loop)> {
        self.loops[..self.count].iter().enumerate().map(|(i, l)| (LoopId(i as u32), l))
    }

    /// Access one loop.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[..self.count][id.0 as usize]
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the function has no loops.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Innermost loop containing `bb`, if any.
    pub fn innermost(&self, bb: BlockId) -> Option<LoopId> {
        self.innermost[bb.0 as usize]
    }

    /// The chain of loops containing `bb`, outermost first.
    pub fn nest_of(&self, bb: BlockId) -> Vec<LoopId> {
        let mut chain = Vec::new();
        let mut cur = self.innermost(bb);
        while let Some(l) = cur {
            chain.push(l);
            cur = self.get(l).parent;
        }
        chain.reverse();
        chain
    }

    /// The loop with header `header`, if one exists.
    pub fn loop_with_header(&self, header: BlockId) -> Option<LoopId> {
        self.header_of.get(header.0 as usize).copied().flatten()
    }
}

/// A recognised counted loop `for (iv = init; iv <cmp> bound; iv += step)`.
#[derive(Clone, Debug)]
pub struct CountedLoop {
    /// The induction variable (a header block parameter).
    pub iv: Value,
    /// Position of the IV among the header's parameters.
    pub iv_index: u32,
    /// Value of the IV on loop entry.
    pub init: Value,
    /// Constant per-iteration increment (may be negative).
    pub step: i64,
    /// The bound the IV is compared against.
    pub bound: Value,
    /// Predicate under which the loop *continues* (`iv cmp bound`).
    pub cmp: CmpOp,
}

/// Tries to recognise `lp` as a counted loop.
///
/// The pattern matched is the one produced by
/// [`dae_ir::FunctionBuilder::counted_loop`] and by any front-end lowering of
/// a C `for` loop: the header's terminator branches on `icmp cmp iv, bound`
/// where `iv` is a header parameter, the in-loop successor leads to latches
/// that pass `iv + step` (constant `step`) back to the header, and every
/// entry edge passes the same initial value.
pub(crate) fn recognize_counted(
    func: &Function,
    cfg: &Cfg,
    forest: &LoopForest,
    lp: LoopId,
) -> Option<CountedLoop> {
    let l = forest.get(lp);
    let header = l.header;

    // Header must branch on a comparison against a header param.
    let (cond, then_dest, else_dest) = match func.terminator(header) {
        Terminator::Branch { cond, then_dest, else_dest } => (cond, then_dest, else_dest),
        _ => return None,
    };
    let cond_inst = match cond {
        Value::Inst(i) => i,
        _ => return None,
    };
    let (op, lhs, rhs) = match &func.inst(*cond_inst).kind {
        InstKind::Cmp { op, lhs, rhs } => (*op, *lhs, *rhs),
        _ => return None,
    };

    // Which side is a header parameter?
    let header_param_index = |v: Value| -> Option<u32> {
        match v {
            Value::BlockParam { block, index } if block == header => Some(index),
            _ => None,
        }
    };
    let (iv, iv_index, bound, cmp) = if let Some(idx) = header_param_index(lhs) {
        (lhs, idx, rhs, op)
    } else if let Some(idx) = header_param_index(rhs) {
        (rhs, idx, lhs, op.swapped())
    } else {
        return None;
    };

    // The continue-edge must stay in the loop; if the `then` edge exits,
    // the continue predicate is the negation.
    let (continue_in_loop, cmp) = if l.blocks.contains(then_dest.block) {
        (then_dest.block, cmp)
    } else if l.blocks.contains(else_dest.block) {
        (else_dest.block, cmp.negated())
    } else {
        return None;
    };
    let _ = continue_in_loop;

    // Every latch must pass `iv + step` at the IV position.
    let mut step: Option<i64> = None;
    for &latch in &l.latches {
        let dest = match func.terminator(latch) {
            Terminator::Jump(d) if d.block == header => d,
            Terminator::Branch { then_dest, else_dest, .. } => {
                if then_dest.block == header {
                    then_dest
                } else if else_dest.block == header {
                    else_dest
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        let next = *dest.args.get(iv_index as usize)?;
        let next_inst = match next {
            Value::Inst(i) => i,
            _ => return None,
        };
        let this_step = match &func.inst(next_inst).kind {
            InstKind::Binary { op: BinOp::IAdd, lhs, rhs } if *lhs == iv => rhs.as_i64()?,
            InstKind::Binary { op: BinOp::IAdd, lhs, rhs } if *rhs == iv => lhs.as_i64()?,
            InstKind::Binary { op: BinOp::ISub, lhs, rhs } if *lhs == iv => {
                rhs.as_i64()?.checked_neg()?
            }
            _ => return None,
        };
        match step {
            None => step = Some(this_step),
            Some(s) if s == this_step => {}
            _ => return None,
        }
    }
    let step = step?;
    if step == 0 {
        return None;
    }

    // All non-latch predecessors of the header must pass the same init value.
    let mut init: Option<Value> = None;
    for &p in cfg.preds(header) {
        if l.latches.contains(&p) {
            continue;
        }
        for dest in func.terminator(p).successors() {
            if dest.block != header {
                continue;
            }
            let v = *dest.args.get(iv_index as usize)?;
            match init {
                None => init = Some(v),
                Some(cur) if cur == v => {}
                _ => return None,
            }
        }
    }
    let init = init?;

    Some(CountedLoop { iv, iv_index, init, step, bound, cmp })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Type};

    fn analyse(func: &Function) -> (Cfg, DomTree) {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(func, &cfg);
        (cfg, dom)
    }

    #[test]
    fn detects_single_loop() {
        let mut b = FunctionBuilder::new("l", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |_, _| {});
        b.ret(None);
        let f = b.finish();
        let (cfg, dom) = analyse(&f);
        let forest = LoopForest::new(&f, &cfg, &dom);
        assert_eq!(forest.len(), 1);
        let (id, l) = forest.loops().next().unwrap();
        assert_eq!(l.depth, 1);
        assert_eq!(l.latches.len(), 1);
        let counted = recognize_counted(&f, &cfg, &forest, id).expect("counted");
        assert_eq!(counted.step, 1);
        assert_eq!(counted.init, Value::i64(0));
        assert_eq!(counted.bound, Value::Arg(0));
        assert_eq!(counted.cmp, CmpOp::Lt);
    }

    #[test]
    fn detects_nesting_depths() {
        let mut b = FunctionBuilder::new("n", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, _| {
            b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, _| {
                b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |_, _| {});
            });
        });
        b.ret(None);
        let f = b.finish();
        let (cfg, dom) = analyse(&f);
        let forest = LoopForest::new(&f, &cfg, &dom);
        assert_eq!(forest.len(), 3);
        let mut depths: Vec<u32> = forest.loops().map(|(_, l)| l.depth).collect();
        depths.sort_unstable();
        assert_eq!(depths, vec![1, 2, 3]);
        // innermost loop's nest chain has length 3
        let inner = forest.loops().find(|(_, l)| l.depth == 3).map(|(id, _)| id).unwrap();
        let chain = forest.nest_of(forest.get(inner).header);
        assert_eq!(chain.len(), 3);
        assert_eq!(*chain.last().unwrap(), inner);
    }

    #[test]
    fn triangular_loop_bounds_recognised() {
        // for i in 0..n { for j in i+1..n { } } — the paper's LU shape.
        let mut b = FunctionBuilder::new("tri", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let lo = b.iadd(i, 1i64);
            b.counted_loop(lo, Value::Arg(0), Value::i64(1), |_, _| {});
        });
        b.ret(None);
        let f = b.finish();
        let (cfg, dom) = analyse(&f);
        let forest = LoopForest::new(&f, &cfg, &dom);
        let inner = forest.loops().find(|(_, l)| l.depth == 2).map(|(id, _)| id).unwrap();
        let c = recognize_counted(&f, &cfg, &forest, inner).expect("counted");
        // init is the computed i+1 value
        assert!(matches!(c.init, Value::Inst(_)));
        assert_eq!(c.step, 1);
    }

    #[test]
    fn while_loop_is_not_counted() {
        let mut b = FunctionBuilder::new("w", vec![Type::Ptr], Type::Void);
        // pointer chase: while (p != null) p = *p;
        b.while_loop(
            vec![Value::Arg(0)],
            |b, c| {
                let pi = b.unary(dae_ir::UnOp::PtrToInt, c[0]);
                b.cmp(CmpOp::Ne, pi, 0i64)
            },
            |b, c| vec![b.load(Type::Ptr, c[0])],
        );
        b.ret(None);
        let f = b.finish();
        let (cfg, dom) = analyse(&f);
        let forest = LoopForest::new(&f, &cfg, &dom);
        assert_eq!(forest.len(), 1);
        let (id, _) = forest.loops().next().unwrap();
        assert!(recognize_counted(&f, &cfg, &forest, id).is_none());
    }

    #[test]
    fn negative_step_recognised() {
        let mut b = FunctionBuilder::new("down", vec![Type::I64], Type::Void);
        // for (i = n; i > 0; i -= 2)
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let iv = b.block_param(header, Type::I64);
        b.jump(header, vec![Value::Arg(0)]);
        b.switch_to(header);
        let c = b.cmp(CmpOp::Gt, iv, 0i64);
        b.branch(c, body, vec![], exit, vec![]);
        b.switch_to(body);
        let next = b.isub(iv, 2i64);
        b.jump(header, vec![next]);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let (cfg, dom) = analyse(&f);
        let forest = LoopForest::new(&f, &cfg, &dom);
        let (id, _) = forest.loops().next().unwrap();
        let cl = recognize_counted(&f, &cfg, &forest, id).expect("counted");
        assert_eq!(cl.step, -2);
        assert_eq!(cl.cmp, CmpOp::Gt);
    }
}
