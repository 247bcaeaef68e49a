//! Dead-code elimination, including dead block parameters.
//!
//! The paper's step 6 (§5.2.2): *"discard all unmarked instructions.
//! Followed by dead code elimination, this step removes unnecessary
//! computations and branches."* After the slicer drops loads/stores, large
//! chains of address arithmetic and loop-carried state become dead; this
//! pass removes them, including loop-carried block parameters whose only use
//! was feeding themselves around the back edge.

use dae_ir::{BlockId, Function, Terminator, Value};

/// Removes instructions whose results are unused and that have no side
/// effects, and block parameters nobody reads. Returns `true` if anything
/// was removed.
///
/// Liveness is the closure of the roots (side effects, branch conditions,
/// return values) under "operands of a live instruction" and "incoming
/// edge arguments of a live parameter" — edge arguments are *not* roots —
/// so a self-feeding dead cycle is never marked and one mark-and-sweep is
/// already the fixpoint: removing dead code changes neither the roots nor
/// the operands of anything live.
pub(crate) fn dce_fixpoint(func: &mut Function) -> bool {
    let n = func.num_blocks();
    // Block `b`'s parameters are slots `param_at[b]..param_at[b + 1]` of
    // `live_params`; the argument lists of the edges into it are
    // `incoming[in_at[b]..in_at[b + 1]]`.
    let mut param_at = Vec::with_capacity(n + 1);
    let mut in_at = vec![0u32; n + 1];
    let mut slots = 0u32;
    for bb in func.block_ids() {
        param_at.push(slots);
        slots += func.block(bb).params.len() as u32;
        for dest in func.terminator(bb).successors() {
            in_at[dest.block.0 as usize + 1] += 1;
        }
    }
    param_at.push(slots);
    for b in 0..n {
        in_at[b + 1] += in_at[b];
    }
    let mut live_params = vec![false; slots as usize];
    let mut live_insts = vec![false; func.num_insts()];
    let mut incoming: Vec<&[Value]> = vec![&[]; in_at[n] as usize];
    let mut work: Vec<Value> = Vec::new();

    let touch = |v: Value, work: &mut Vec<Value>| {
        if !v.is_const() {
            work.push(v);
        }
    };

    for bb in func.block_ids() {
        for &inst in &func.block(bb).insts {
            if func.inst(inst).kind.has_side_effects() {
                live_insts[inst.0 as usize] = true;
                func.inst(inst).kind.for_each_operand(|v| touch(v, &mut work));
            }
        }
        let term = func.terminator(bb);
        match term {
            Terminator::Branch { cond, .. } => touch(*cond, &mut work),
            Terminator::Ret(Some(v)) => touch(*v, &mut work),
            _ => {}
        }
        // `in_at[b]` is block `b`'s fill cursor; shifted back below.
        for dest in term.successors() {
            let cursor = &mut in_at[dest.block.0 as usize];
            incoming[*cursor as usize] = &dest.args;
            *cursor += 1;
        }
    }
    in_at.copy_within(0..n, 1);
    in_at[0] = 0;

    while let Some(v) = work.pop() {
        match v {
            Value::Inst(id) if !std::mem::replace(&mut live_insts[id.0 as usize], true) => {
                func.inst(id).kind.for_each_operand(|o| touch(o, &mut work));
            }
            Value::BlockParam { block, index } => {
                let b = block.0 as usize;
                let slot = param_at[b] + index;
                if slot >= param_at[b + 1]
                    || std::mem::replace(&mut live_params[slot as usize], true)
                {
                    continue;
                }
                // The matching argument on every incoming edge is live.
                for args in &incoming[in_at[b] as usize..in_at[b + 1] as usize] {
                    if let Some(a) = args.get(index as usize) {
                        touch(*a, &mut work);
                    }
                }
            }
            _ => {}
        }
    }

    let mut changed = false;
    for bb in func.block_ids() {
        let before = func.block(bb).insts.len();
        func.block_mut(bb).insts.retain(|i| live_insts[i.0 as usize]);
        changed |= func.block(bb).insts.len() != before;
    }
    changed |= remove_dead_params(func, &param_at, &live_params);
    changed
}

/// Drops block parameters not marked in `live` (block `b`'s slots are
/// `param_at[b]..param_at[b + 1]`), compacting indices and rewriting every
/// use and every incoming edge.
fn remove_dead_params(func: &mut Function, param_at: &[u32], live: &[bool]) -> bool {
    if live.iter().all(|&l| l) {
        return false;
    }
    // Per-slot new index within its block (`None` = dropped).
    let mut remap: Vec<Option<u32>> = Vec::with_capacity(live.len());
    for bb in func.block_ids() {
        let b = bb.0 as usize;
        let mut next = 0u32;
        for &keep in &live[param_at[b] as usize..param_at[b + 1] as usize] {
            remap.push(keep.then(|| {
                next += 1;
                next - 1
            }));
        }
    }
    let slot = |block: BlockId, index: usize| -> Option<Option<u32>> {
        let b = block.0 as usize;
        let at = param_at[b] as usize + index;
        (at < param_at[b + 1] as usize).then(|| remap[at])
    };

    // Rewrite parameter lists.
    for bb in func.block_ids() {
        let mut i = 0;
        func.block_mut(bb).params.retain(|_| {
            i += 1;
            slot(bb, i - 1).flatten().is_some()
        });
    }

    // Drop the edge arguments of dead params, then renumber the references
    // to the surviving ones. (Uses of dead params only survived inside dead
    // instructions, which are already gone.)
    for bb in func.block_ids() {
        if func.block(bb).term.is_some() {
            for dest in func.terminator_mut(bb).successors_mut() {
                let mut i = 0;
                let to = dest.block;
                dest.args.retain(|_| {
                    i += 1;
                    slot(to, i - 1).flatten().is_some()
                });
            }
        }
    }
    super::map_all_operands(func, |v| match v {
        Value::BlockParam { block, index } => {
            let index = slot(block, index as usize).flatten().unwrap_or(index);
            Value::BlockParam { block, index }
        }
        other => other,
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{verify_function, FunctionBuilder, Type};

    #[test]
    fn removes_unused_arithmetic() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let used = b.iadd(Value::Arg(0), 1i64);
        let _dead = b.imul(Value::Arg(0), 100i64);
        let _dead2 = b.imul(Value::Arg(0), 200i64);
        b.ret(Some(used));
        let mut f = b.finish();
        assert!(dce_fixpoint(&mut f));
        verify_function(&f, None).unwrap();
        assert_eq!(f.placed_inst_count(), 1);
    }

    #[test]
    fn keeps_side_effects() {
        let mut m = dae_ir::Module::new();
        let g = m.add_global("g", Type::I64, 1);
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let a = b.ptr_add(Value::Global(g), 0i64);
        b.store(a, 7i64);
        b.ret(None);
        let mut f = b.finish();
        dce_fixpoint(&mut f);
        verify_function(&f, None).unwrap();
        assert_eq!(f.placed_inst_count(), 2); // ptradd + store
    }

    #[test]
    fn removes_dead_loop_carried_param() {
        // A loop that carries an accumulator nobody reads after the loop.
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::Void);
        let _sums = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(0)],
            |b, i, c| vec![b.iadd(c[0], i)],
        );
        b.ret(None);
        let mut f = b.finish();
        assert!(dce_fixpoint(&mut f));
        verify_function(&f, None).unwrap();
        // The accumulator param and its add are gone; the IV machinery stays.
        let total_params: usize = f.block_ids().map(|bb| f.block(bb).params.len()).sum();
        assert_eq!(total_params, 1, "only the IV should remain");
        let mut adds = 0;
        f.for_each_placed_inst(|_, i| {
            adds += matches!(f.inst(i).kind, dae_ir::InstKind::Binary { .. }) as usize;
        });
        assert_eq!(adds, 1, "only the IV increment should remain");
    }

    #[test]
    fn keeps_live_loop_carried_param() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let sums = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(0)],
            |b, i, c| vec![b.iadd(c[0], i)],
        );
        b.ret(Some(sums[0]));
        let mut f = b.finish();
        dce_fixpoint(&mut f);
        verify_function(&f, None).unwrap();
        let total_params: usize = f.block_ids().map(|bb| f.block(bb).params.len()).sum();
        assert_eq!(total_params, 3, "IV + carried in header + carried in exit");
    }

    #[test]
    fn self_feeding_dead_cycle_is_removed() {
        // x' = x + 1 carried around the loop, never observed: the classic
        // case where naive use-counting fails (the param uses itself).
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::Void);
        b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(5)],
            |b, _, c| vec![b.iadd(c[0], 1i64)],
        );
        b.ret(None);
        let mut f = b.finish();
        dce_fixpoint(&mut f);
        verify_function(&f, None).unwrap();
        let total_params: usize = f.block_ids().map(|bb| f.block(bb).params.len()).sum();
        assert_eq!(total_params, 1);
    }

    #[test]
    fn one_sweep_is_the_fixpoint() {
        // Dead chains, a dead carried parameter and a self-feeding cycle:
        // everything goes in the first sweep, a second finds nothing.
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let live = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(0), Value::i64(5)],
            |b, i, c| {
                let dead = b.imul(i, 3i64);
                let _deader = b.iadd(dead, c[1]);
                vec![b.iadd(c[0], i), b.iadd(c[1], 1i64)]
            },
        );
        b.ret(Some(live[0]));
        let mut f = b.finish();
        assert!(dce_fixpoint(&mut f));
        verify_function(&f, None).unwrap();
        let swept = dae_ir::print_function(&f, None);
        assert!(!dce_fixpoint(&mut f));
        assert_eq!(dae_ir::print_function(&f, None), swept);
    }

    #[test]
    fn prefetch_is_a_root() {
        let mut m = dae_ir::Module::new();
        let g = m.add_global("g", Type::F64, 64);
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::Void);
        let addr = b.elem_addr(Value::Global(g), Value::Arg(0), Type::F64);
        b.prefetch(addr);
        b.ret(None);
        let mut f = b.finish();
        dce_fixpoint(&mut f);
        assert_eq!(f.placed_inst_count(), 3); // imul + ptradd + prefetch
    }
}
