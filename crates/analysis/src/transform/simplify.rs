//! CFG simplification: constant-branch folding, block merging, compaction.

use crate::cfg::Cfg;
use dae_ir::{BlockId, Function, InstId, InstKind, Terminator, Value};

/// Rewrites `br true/false, a, b` into an unconditional jump.
/// Returns `true` on change.
pub fn fold_constant_branches(func: &mut Function) -> bool {
    let mut changed = false;
    for bb in func.block_ids().collect::<Vec<_>>() {
        if func.block(bb).term.is_none() {
            continue;
        }
        let new = match func.terminator(bb) {
            Terminator::Branch { cond: Value::ConstBool(true), then_dest, .. } => {
                Some(Terminator::Jump(then_dest.clone()))
            }
            Terminator::Branch { cond: Value::ConstBool(false), else_dest, .. } => {
                Some(Terminator::Jump(else_dest.clone()))
            }
            _ => None,
        };
        if let Some(t) = new {
            func.set_terminator(bb, t);
            changed = true;
        }
    }
    changed
}

/// Merges `b -> s` when `s`'s only predecessor is `b` and `b` ends in an
/// unconditional jump: `s`'s parameters are substituted by the jump
/// arguments, its instructions appended to `b`, and `b` takes `s`'s
/// terminator. Returns `true` on change.
pub fn merge_straightline(func: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let cfg = Cfg::new(func);
        let mut merged = false;
        for &bb in cfg.rpo() {
            let dest = match func.terminator(bb) {
                Terminator::Jump(d) => d.clone(),
                _ => continue,
            };
            let s = dest.block;
            if s == bb || s == func.entry {
                continue;
            }
            if cfg.preds(s).len() != 1 {
                continue;
            }
            // Substitute s's params with the edge arguments everywhere.
            if !dest.args.is_empty() {
                super::map_all_operands(func, |v| match v {
                    Value::BlockParam { block, index } if block == s => {
                        dest.args.get(index as usize).copied().unwrap_or(v)
                    }
                    other => other,
                });
            }
            let s_insts = func.block(s).insts.clone();
            let s_term = func.block_mut(s).term.take().expect("terminated");
            func.block_mut(s).insts.clear();
            func.block_mut(s).params.clear();
            // Park the emptied block on a self-loop… no: leave it
            // unreachable with a trivial terminator; compaction drops it.
            func.set_terminator(s, Terminator::Ret(None));
            func.block_mut(bb).insts.extend(s_insts);
            func.set_terminator(bb, s_term);
            merged = true;
            changed = true;
            break; // CFG changed; recompute
        }
        if !merged {
            return changed;
        }
    }
}

/// Rebuilds the function keeping only blocks reachable from the entry and
/// only placed instructions, renumbering both densely (in reverse
/// postorder). Returns the compacted function.
pub fn compact(func: &Function) -> Function {
    let cfg = Cfg::new(func);
    let mut out = Function::new(func.name.clone(), func.params.clone(), func.ret);
    out.is_task = func.is_task;

    // Old id → new id, indexed by the old id; `None` for what is dropped.
    let mut block_map: Vec<Option<BlockId>> = vec![None; func.num_blocks()];
    for (i, &bb) in cfg.rpo().iter().enumerate() {
        let nb = if i == 0 { out.entry } else { out.add_block() };
        for &ty in &func.block(bb).params {
            out.add_block_param(nb, ty);
        }
        block_map[bb.0 as usize] = Some(nb);
    }

    let mut inst_map: Vec<Option<InstId>> = vec![None; func.num_insts()];
    for &bb in cfg.rpo() {
        for &inst in &func.block(bb).insts {
            let ni = out
                .create_inst(InstKind::Prefetch { addr: Value::ConstI64(0) }, func.inst(inst).ty);
            inst_map[inst.0 as usize] = Some(ni);
        }
    }
    let new_block = |bb: BlockId| block_map[bb.0 as usize].expect("edge into a reachable block");
    let map_value = |v: Value| -> Value {
        match v {
            Value::Inst(id) => {
                Value::Inst(inst_map[id.0 as usize].expect("operand placed in a reachable block"))
            }
            Value::BlockParam { block, index } => {
                Value::BlockParam { block: new_block(block), index }
            }
            other => other,
        }
    };
    for &bb in cfg.rpo() {
        let nb = new_block(bb);
        for &inst in &func.block(bb).insts {
            let mut kind = func.inst(inst).kind.clone();
            kind.map_operands(map_value);
            let ni = inst_map[inst.0 as usize].expect("mapped above");
            out.inst_mut(ni).kind = kind;
            out.append_inst(nb, ni);
        }
        let mut term = func.terminator(bb).clone();
        term.map_operands(map_value);
        for dest in term.successors_mut() {
            dest.block = new_block(dest.block);
        }
        out.set_terminator(nb, term);
    }
    out
}

/// Redirects edges through empty forwarding blocks (no instructions, jump
/// terminator) and returns `true` on change. Parameters of the forwarder are
/// forwarded positionally.
pub fn skip_trivial_blocks(func: &mut Function) -> bool {
    // A trivial forwarder: no insts, terminator Jump(t, args) where args are
    // exactly its own params in order, and t != itself.
    let mut forward: Vec<Option<BlockId>> = vec![None; func.num_blocks()];
    let mut forwarders = 0;
    for bb in func.block_ids() {
        if bb == func.entry || !func.block(bb).insts.is_empty() {
            continue;
        }
        if let Terminator::Jump(dest) = func.terminator(bb) {
            if dest.block == bb {
                continue;
            }
            let n = func.block(bb).params.len();
            let forwards_params = dest.args.len() == n
                && dest
                    .args
                    .iter()
                    .enumerate()
                    .all(|(i, a)| *a == Value::BlockParam { block: bb, index: i as u32 })
                && func.block(dest.block).params.len() == n;
            if forwards_params {
                forward[bb.0 as usize] = Some(dest.block);
                forwarders += 1;
            }
        }
    }
    if forwarders == 0 {
        return false;
    }
    let resolve = |mut b: BlockId| -> BlockId {
        let mut hops = 0;
        while let Some(n) = forward[b.0 as usize] {
            b = n;
            hops += 1;
            if hops > forwarders {
                break; // cycle of forwarders; leave as-is
            }
        }
        b
    };
    let mut changed = false;
    for bb in func.block_ids() {
        if func.block(bb).term.is_none() {
            continue;
        }
        let term = func.terminator_mut(bb);
        for dest in term.successors_mut() {
            let target = resolve(dest.block);
            if target != dest.block {
                dest.block = target;
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{verify_function, CmpOp, FunctionBuilder, Type};

    #[test]
    fn folds_constant_branch() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let v = b.if_then_else(
            Value::ConstBool(true),
            vec![Type::I64],
            |_| vec![Value::i64(1)],
            |_| vec![Value::i64(2)],
        );
        b.ret(Some(v[0]));
        let mut f = b.finish();
        assert!(fold_constant_branches(&mut f));
        let f = compact(&f);
        verify_function(&f, None).unwrap();
        // else arm unreachable and dropped
        assert_eq!(f.num_blocks(), 3);
    }

    #[test]
    fn merges_chain_after_fold() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let v = b.if_then_else(
            Value::ConstBool(false),
            vec![Type::I64],
            |_| vec![Value::i64(1)],
            |_| vec![Value::i64(2)],
        );
        b.ret(Some(v[0]));
        let mut f = b.finish();
        fold_constant_branches(&mut f);
        let mut f = compact(&f);
        assert!(merge_straightline(&mut f));
        let f = compact(&f);
        verify_function(&f, None).unwrap();
        assert_eq!(f.num_blocks(), 1, "{}", dae_ir::print_function(&f, None));
        match f.terminator(f.entry) {
            Terminator::Ret(Some(v)) => assert_eq!(*v, Value::i64(2)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn compact_drops_unreachable() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let dead = b.create_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let f = compact(&f);
        assert_eq!(f.num_blocks(), 1);
        verify_function(&f, None).unwrap();
    }

    #[test]
    fn compact_preserves_loop_semantics() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(0)],
            |b, i, c| vec![b.iadd(c[0], i)],
        );
        b.ret(Some(out[0]));
        let f = b.finish();
        let g = compact(&f);
        verify_function(&g, None).unwrap();
        assert_eq!(g.num_blocks(), 4);
        assert_eq!(g.placed_inst_count(), f.placed_inst_count());
    }

    #[test]
    fn merge_respects_multi_pred_targets() {
        // A join block with two preds must not be merged into either.
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let c = b.cmp(CmpOp::Gt, Value::Arg(0), 0i64);
        let v =
            b.if_then_else(c, vec![Type::I64], |_| vec![Value::i64(1)], |_| vec![Value::i64(2)]);
        b.ret(Some(v[0]));
        let mut f = b.finish();
        // The arms are each single-pred, empty, and jump to the join — but the
        // join has 2 preds, so only arm→join merges are structurally blocked;
        // entry→arm merges are blocked because entry ends in a branch.
        assert!(!merge_straightline(&mut f));
        verify_function(&f, None).unwrap();
    }

    #[test]
    fn skip_trivial_blocks_reroutes() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::Void);
        // entry -> fwd -> target; fwd is empty.
        let fwd = b.create_block();
        let target = b.create_block();
        b.jump(fwd, vec![]);
        b.switch_to(fwd);
        b.jump(target, vec![]);
        b.switch_to(target);
        b.ret(None);
        let mut f = b.finish();
        assert!(skip_trivial_blocks(&mut f));
        let f = compact(&f);
        assert_eq!(f.num_blocks(), 2);
        verify_function(&f, None).unwrap();
    }
}
