//! CFG simplification: constant-branch folding, block merging, compaction.

use crate::{Cfg, Workspace};
use dae_ir::{BlockCall, BlockId, Function, InstKind, Terminator, Value};

/// Rewrites `br true/false, a, b` into an unconditional jump.
/// Returns `true` on change.
pub(crate) fn fold_constant_branches(func: &mut Function) -> bool {
    let mut changed = false;
    for bb in func.block_ids() {
        let term = &mut func.block_mut(bb).term;
        let taken = match term {
            Some(Terminator::Branch { cond: Value::ConstBool(c), then_dest, else_dest }) => {
                if *c {
                    then_dest
                } else {
                    else_dest
                }
            }
            _ => continue,
        };
        let taken = BlockCall { block: taken.block, args: std::mem::take(&mut taken.args) };
        *term = Some(Terminator::Jump(taken));
        changed = true;
    }
    changed
}

/// Merges `b -> s` when `s`'s only predecessor is `b` and `b` ends in an
/// unconditional jump: `s`'s parameters are substituted by the jump
/// arguments, its instructions appended to `b`, and `b` takes `s`'s
/// terminator. Returns `true` on change.
///
/// One graph serves the whole call. A merge swaps one predecessor for
/// another (`s`'s successors now come from `b`), so every predecessor count
/// stays exact; a chain's head precedes its links in reverse postorder, so
/// visiting that order merges each chain into its head in one sweep. The
/// parameter substitutions are recorded as they happen and applied in one
/// operand rewrite at the end, each use resolved through the chain of
/// substitutions it meets.
pub(crate) fn merge_straightline(ws: &mut Workspace, func: &mut Function) -> bool {
    let cfg = &mut ws.cfg;
    cfg.rebuild(func);
    // `subst[at..at + len]` replaces the parameters of a merged block with
    // `subst_at[s] == (at, len)`; `len == 0` for a block that keeps them.
    let (subst_at, subst) = (&mut ws.cleanup.subst_at, &mut ws.cleanup.subst);
    super::refill(subst_at, func.num_blocks(), (0u32, 0u32));
    subst.clear();
    let mut merges = 0;
    for &bb in cfg.rpo() {
        while let Terminator::Jump(dest) = func.terminator(bb) {
            let s = dest.block;
            if s == bb || s == func.entry || cfg.preds(s).len() != 1 {
                break;
            }
            subst_at[s.0 as usize] = (subst.len() as u32, dest.args.len() as u32);
            subst.extend_from_slice(&dest.args);
            // Leave `s` emptied and unreachable behind a trivial
            // terminator; compaction drops it.
            let s_data = func.block_mut(s);
            let mut s_insts = std::mem::take(&mut s_data.insts);
            let s_term = s_data.term.replace(Terminator::Ret(None)).expect("terminated");
            s_data.params.clear();
            func.block_mut(bb).insts.append(&mut s_insts);
            func.set_terminator(bb, s_term);
            merges += 1;
        }
    }
    if !subst.is_empty() {
        super::map_all_operands(func, |mut v| {
            // A chain meets each merged block at most once; the bound only
            // stops a malformed self-referencing argument from spinning.
            for _ in 0..merges {
                let Value::BlockParam { block, index } = v else { break };
                let (at, len) = subst_at[block.0 as usize];
                if index >= len {
                    break;
                }
                v = subst[(at + index) as usize];
            }
            v
        });
    }
    merges > 0
}

/// Rebuilds the function keeping only blocks reachable from the entry and
/// only placed instructions, renumbering both densely (in reverse
/// postorder). Returns the compacted function: its two arenas are
/// allocated once at their final sizes, and everything else — parameter
/// and instruction lists, instruction kinds, terminators with their edge
/// arguments — moves across from `func` instead of being copied.
///
/// Compaction is idempotent: the output of `compact` (and so of
/// [`optimize`](super::optimize)) compacts to itself.
pub fn compact(func: Function) -> Function {
    Workspace::with(|ws| compact_in(ws, func))
}

/// [`compact`] on the buffers of `ws`.
pub fn compact_in(ws: &mut Workspace, func: Function) -> Function {
    ws.cfg.rebuild(&func);
    compact_on_cfg(ws, func)
}

/// [`compact_in`] on a workspace whose CFG is already `func`'s.
pub(crate) fn compact_on_cfg(ws: &mut Workspace, mut func: Function) -> Function {
    let cfg = &ws.cfg;
    let (name, params) = (std::mem::take(&mut func.name), std::mem::take(&mut func.params));
    let mut out = match ws.cleanup.spare.take() {
        Some(mut spare) => {
            spare.reset(name, params, func.ret);
            spare
        }
        None => Function::new(name, params, func.ret),
    };
    out.is_task = func.is_task;

    // Old id → new id, indexed by the old id; `None` for what is dropped.
    let (block_map, inst_map) = (&mut ws.cleanup.block_map, &mut ws.cleanup.inst_map);
    super::refill(block_map, func.num_blocks(), None);
    let placed: usize = cfg.rpo().iter().map(|&bb| func.block(bb).insts.len()).sum();
    out.reserve(cfg.rpo().len() - 1, placed);
    for (i, &bb) in cfg.rpo().iter().enumerate() {
        let nb = if i == 0 { out.entry } else { out.add_block() };
        out.block_mut(nb).params = std::mem::take(&mut func.block_mut(bb).params);
        block_map[bb.0 as usize] = Some(nb);
    }

    // A placeholder per placed instruction first, so that an operand can
    // be mapped before its definition is moved.
    const PLACEHOLDER: InstKind = InstKind::Prefetch { addr: Value::ConstI64(0) };
    super::refill(inst_map, func.num_insts(), None);
    for &bb in cfg.rpo() {
        for &inst in &func.block(bb).insts {
            inst_map[inst.0 as usize] = Some(out.create_inst(PLACEHOLDER, func.inst(inst).ty));
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
    // Instruction kinds, instruction lists and terminators move across,
    // rewritten in place.
    for &bb in cfg.rpo() {
        let nb = new_block(bb);
        let mut insts = std::mem::take(&mut func.block_mut(bb).insts);
        for inst in &mut insts {
            let mut kind = std::mem::replace(&mut func.inst_mut(*inst).kind, PLACEHOLDER);
            kind.map_operands(map_value);
            *inst = inst_map[inst.0 as usize].expect("mapped above");
            out.inst_mut(*inst).kind = kind;
        }
        out.block_mut(nb).insts = insts;
        let mut term = func.block_mut(bb).term.take().expect("block not terminated");
        term.map_operands(map_value);
        for dest in term.successors_mut() {
            dest.block = new_block(dest.block);
        }
        out.set_terminator(nb, term);
    }
    ws.cleanup.spare = Some(func);
    out
}

/// Empties every block `cfg` does not reach from the entry: no parameters,
/// no instructions, a `ret` terminator. Such a block feeds no later pass an
/// edge, a root or a use, as if a compaction had dropped it; the ids of
/// everything else stay. A use of its values can only sit in another
/// unreachable block, since a definition dominates its uses.
pub(crate) fn drop_unreachable(cfg: &Cfg, func: &mut Function) {
    if cfg.rpo().len() == func.num_blocks() {
        return;
    }
    for bb in func.block_ids() {
        if cfg.rpo_index(bb).is_none() {
            let data = func.block_mut(bb);
            data.insts.clear();
            data.params.clear();
            data.term = Some(Terminator::Ret(None));
        }
    }
}

/// Redirects edges through empty forwarding blocks (no instructions, jump
/// terminator) and returns `true` on change. Parameters of the forwarder are
/// forwarded positionally.
pub(crate) fn skip_trivial_blocks(ws: &mut Workspace, func: &mut Function) -> bool {
    // A trivial forwarder: no insts, terminator Jump(t, args) where args are
    // exactly its own params in order, and t != itself.
    let forward = &mut ws.cleanup.forward;
    super::refill(forward, func.num_blocks(), None);
    let (mut forwarders, mut with_params) = (0, false);
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
                with_params |= n > 0;
            }
        }
    }
    if forwarders == 0 {
        return false;
    }
    // A forwarder's parameters may feed only its own jump: a use anywhere
    // else (in a block it dominates) would dangle once every edge bypasses
    // it, so such a forwarder keeps its edges.
    if with_params {
        for bb in func.block_ids() {
            let mut keep = |v: Value| {
                if let Value::BlockParam { block, .. } = v {
                    if block != bb {
                        forward[block.0 as usize] = None;
                    }
                }
            };
            for &inst in &func.block(bb).insts {
                func.inst(inst).kind.for_each_operand(&mut keep);
            }
            func.terminator(bb).for_each_operand(&mut keep);
        }
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
        let f = compact_in(&mut Workspace::new(), f);
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
        let mut f = compact_in(&mut Workspace::new(), f);
        assert!(merge_straightline(&mut Workspace::new(), &mut f));
        let f = compact_in(&mut Workspace::new(), f);
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
        let f = compact_in(&mut Workspace::new(), f);
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
        let g = compact_in(&mut Workspace::new(), f.clone());
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
        assert!(!merge_straightline(&mut Workspace::new(), &mut f));
        verify_function(&f, None).unwrap();
    }

    #[test]
    fn a_forwarder_whose_parameters_are_read_downstream_keeps_its_edges() {
        // entry -> fwd(x) -> target(y), and target reads x: bypassing fwd
        // would leave that use naming a parameter of an unreachable block.
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let fwd = b.create_block();
        let target = b.create_block();
        let x = b.block_param(fwd, Type::I64);
        let y = b.block_param(target, Type::I64);
        b.jump(fwd, vec![Value::Arg(0)]);
        b.switch_to(fwd);
        b.jump(target, vec![x]);
        b.switch_to(target);
        let sum = b.iadd(x, y);
        b.ret(Some(sum));
        let mut f = b.finish();
        assert!(!skip_trivial_blocks(&mut Workspace::new(), &mut f));
        let f = compact_in(&mut Workspace::new(), f);
        verify_function(&f, None).unwrap();
        assert_eq!(f.num_blocks(), 3);
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
        assert!(skip_trivial_blocks(&mut Workspace::new(), &mut f));
        let f = compact_in(&mut Workspace::new(), f);
        assert_eq!(f.num_blocks(), 2);
        verify_function(&f, None).unwrap();
    }
}
