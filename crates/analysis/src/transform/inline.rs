//! Function inlining.
//!
//! Step 1 of the paper's access-generation algorithm (§5.2.2): *"Inline
//! function calls in the task, when possible. If any function calls cannot
//! be inlined, we do not generate an access version."* In this IR the only
//! non-inlinable calls are (mutually) recursive ones.

use crate::effects::is_fully_inlinable;
use dae_ir::{
    BlockCall, BlockId, FuncId, Function, InstId, InstKind, Module, Terminator, Type, Value,
};
use std::fmt;

/// Why inlining was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InlineError {
    /// The call graph reachable from the function contains a cycle.
    Recursive(String),
}

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineError::Recursive(name) => {
                write!(f, "function `{name}` has recursive calls and cannot be fully inlined")
            }
        }
    }
}

impl std::error::Error for InlineError {}

/// Returns a copy of `module.func(func)` with **all** calls (transitively)
/// inlined.
///
/// # Errors
///
/// Returns [`InlineError::Recursive`] when the reachable call graph is
/// cyclic, mirroring the paper's refusal condition.
pub fn inline_all(module: &Module, func: FuncId) -> Result<Function, InlineError> {
    if !is_fully_inlinable(module, func) {
        return Err(InlineError::Recursive(module.func(func).name.clone()));
    }
    let mut f = module.func(func).clone();
    // Each inlining step removes one call and may introduce the callee's
    // calls; acyclicity guarantees termination.
    while let Some((bb, pos, inst)) = find_first_call(&f) {
        inline_one(module, &mut f, bb, pos, inst);
    }
    Ok(f)
}

fn find_first_call(f: &Function) -> Option<(BlockId, usize, InstId)> {
    for bb in f.block_ids() {
        for (pos, &inst) in f.block(bb).insts.iter().enumerate() {
            if matches!(f.inst(inst).kind, InstKind::Call { .. }) {
                return Some((bb, pos, inst));
            }
        }
    }
    None
}

/// A callee operand as the caller sees it: `block_map` and `inst_map` are
/// indexed by callee block and instruction id.
fn map_value(
    args: &[Value],
    block_map: &[BlockId],
    inst_map: &[Option<InstId>],
    v: Value,
) -> Value {
    match v {
        Value::Arg(i) => args[i as usize],
        Value::Inst(id) => {
            Value::Inst(inst_map[id.0 as usize].expect("operand placed in the callee"))
        }
        Value::BlockParam { block, index } => {
            Value::BlockParam { block: block_map[block.0 as usize], index }
        }
        other => other,
    }
}

fn inline_one(module: &Module, f: &mut Function, bb: BlockId, pos: usize, call: InstId) {
    let (callee, args) = match f.inst(call).kind.clone() {
        InstKind::Call { callee, args } => (callee, args),
        _ => unreachable!("inline_one called on non-call"),
    };
    let g = module.func(callee);
    assert!(g.block(g.entry).params.is_empty(), "callee entry block must not take parameters");

    // Continuation: holds everything after the call, receives the return
    // value as a block parameter.
    let cont = f.add_block();
    let ret_param = if g.ret != Type::Void { Some(f.add_block_param(cont, g.ret)) } else { None };
    let tail: Vec<InstId> = f.block(bb).insts[pos + 1..].to_vec();
    f.block_mut(bb).insts.truncate(pos); // also drops the call itself
    f.block_mut(cont).insts = tail;
    let old_term = f.block_mut(bb).term.take().expect("caller block terminated");
    f.set_terminator(cont, old_term);

    // Clone callee blocks and allocate parameter lists.
    let mut block_map: Vec<BlockId> = Vec::with_capacity(g.num_blocks());
    for gb in g.block_ids() {
        let nb = f.add_block();
        for &ty in &g.block(gb).params {
            f.add_block_param(nb, ty);
        }
        block_map.push(nb);
    }

    // Allocate instruction slots first so operands can reference forward.
    let mut inst_map: Vec<Option<InstId>> = vec![None; g.num_insts()];
    for gb in g.block_ids() {
        for &gi in &g.block(gb).insts {
            let placeholder =
                f.create_inst(InstKind::Prefetch { addr: Value::ConstI64(0) }, g.inst(gi).ty);
            inst_map[gi.0 as usize] = Some(placeholder);
        }
    }
    // Fill bodies.
    for gb in g.block_ids() {
        let nb = block_map[gb.0 as usize];
        for &gi in &g.block(gb).insts {
            let mut kind = g.inst(gi).kind.clone();
            kind.map_operands(|v| map_value(&args, &block_map, &inst_map, v));
            let ni = inst_map[gi.0 as usize].expect("allocated above");
            f.inst_mut(ni).kind = kind;
            f.append_inst(nb, ni);
        }
        let term = match g.terminator(gb) {
            Terminator::Ret(v) => {
                let mut call_args = Vec::new();
                if let Some(v) = v {
                    let mapped = map_value(&args, &block_map, &inst_map, *v);
                    if ret_param.is_some() {
                        call_args.push(mapped);
                    }
                }
                Terminator::Jump(BlockCall::with_args(cont, call_args))
            }
            other => {
                let mut t = other.clone();
                t.map_operands(|v| map_value(&args, &block_map, &inst_map, v));
                for dest in t.successors_mut() {
                    dest.block = block_map[dest.block.0 as usize];
                }
                t
            }
        };
        f.set_terminator(nb, term);
    }

    // Enter the inlined body.
    f.set_terminator(bb, Terminator::Jump(BlockCall::new(block_map[g.entry.0 as usize])));

    // Redirect uses of the call's result to the continuation parameter.
    if let Some(rp) = ret_param {
        let target = Value::Inst(call);
        super::map_all_operands(f, |v| if v == target { rp } else { v });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{verify_function, CmpOp, FunctionBuilder};

    #[test]
    fn inlines_leaf_call() {
        let mut m = Module::new();
        let mut cb = FunctionBuilder::new("twice", vec![Type::I64], Type::I64);
        let d = cb.imul(Value::Arg(0), 2i64);
        cb.ret(Some(d));
        let callee = m.add_function(cb.finish());

        let mut b = FunctionBuilder::new("top", vec![Type::I64], Type::I64);
        let c = b.call(callee, vec![Value::Arg(0)], Type::I64).unwrap();
        let r = b.iadd(c, 1i64);
        b.ret(Some(r));
        let top = m.add_function(b.finish());

        let inlined = inline_all(&m, top).unwrap();
        verify_function(&inlined, Some(&m)).unwrap();
        let mut has_call = false;
        inlined.for_each_placed_inst(|_, i| {
            has_call |= matches!(inlined.inst(i).kind, InstKind::Call { .. });
        });
        assert!(!has_call, "call should be gone:\n{}", dae_ir::print_function(&inlined, Some(&m)));
    }

    #[test]
    fn inlines_transitively() {
        let mut m = Module::new();
        let mut l = FunctionBuilder::new("leaf", vec![Type::I64], Type::I64);
        let v = l.iadd(Value::Arg(0), 10i64);
        l.ret(Some(v));
        let leaf = m.add_function(l.finish());

        let mut mid = FunctionBuilder::new("mid", vec![Type::I64], Type::I64);
        let v = mid.call(leaf, vec![Value::Arg(0)], Type::I64).unwrap();
        let v2 = mid.imul(v, 3i64);
        mid.ret(Some(v2));
        let mid = m.add_function(mid.finish());

        let mut top = FunctionBuilder::new("top", vec![Type::I64], Type::I64);
        let a = top.call(mid, vec![Value::Arg(0)], Type::I64).unwrap();
        let b = top.call(leaf, vec![a], Type::I64).unwrap();
        top.ret(Some(b));
        let top = m.add_function(top.finish());

        let inlined = inline_all(&m, top).unwrap();
        verify_function(&inlined, Some(&m)).unwrap();
        let mut calls = 0;
        inlined.for_each_placed_inst(|_, i| {
            calls += matches!(inlined.inst(i).kind, InstKind::Call { .. }) as usize;
        });
        assert_eq!(calls, 0);
    }

    #[test]
    fn inlines_callee_with_control_flow() {
        let mut m = Module::new();
        let mut cb = FunctionBuilder::new("abs", vec![Type::I64], Type::I64);
        let neg = cb.cmp(CmpOp::Lt, Value::Arg(0), 0i64);
        let v = cb.if_then_else(
            neg,
            vec![Type::I64],
            |b| vec![b.isub(0i64, Value::Arg(0))],
            |_| vec![Value::Arg(0)],
        );
        cb.ret(Some(v[0]));
        let callee = m.add_function(cb.finish());

        let mut b = FunctionBuilder::new("top", vec![Type::I64], Type::I64);
        let c = b.call(callee, vec![Value::Arg(0)], Type::I64).unwrap();
        b.ret(Some(c));
        let top = m.add_function(b.finish());

        let inlined = inline_all(&m, top).unwrap();
        verify_function(&inlined, Some(&m)).unwrap();
        // entry + cont + 4 callee blocks
        assert!(inlined.num_blocks() >= 6);
    }

    #[test]
    fn refuses_recursion() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("r", vec![], Type::Void);
        b.call(FuncId(0), vec![], Type::Void);
        b.ret(None);
        let r = m.add_function(b.finish());
        let e = inline_all(&m, r).unwrap_err();
        assert!(matches!(e, InlineError::Recursive(_)));
        assert!(e.to_string().contains("recursive"));
    }

    #[test]
    fn void_callee_with_store() {
        let mut m = Module::new();
        let g = m.add_global("out", Type::I64, 4);
        let mut cb = FunctionBuilder::new("write1", vec![Type::I64], Type::Void);
        let addr = cb.elem_addr(Value::Global(g), Value::Arg(0), Type::I64);
        cb.store(addr, 1i64);
        cb.ret(None);
        let callee = m.add_function(cb.finish());

        let mut b = FunctionBuilder::new("top", vec![], Type::Void);
        b.call(callee, vec![Value::i64(2)], Type::Void);
        b.ret(None);
        let top = m.add_function(b.finish());

        let inlined = inline_all(&m, top).unwrap();
        verify_function(&inlined, Some(&m)).unwrap();
        let mut stores = 0;
        inlined.for_each_placed_inst(|_, i| {
            stores += matches!(inlined.inst(i).kind, InstKind::Store { .. }) as usize;
        });
        assert_eq!(stores, 1);
    }
}
