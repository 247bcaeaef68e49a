//! Structural verification of functions and modules.
//!
//! The verifier checks the invariants every analysis and transform in this
//! workspace relies on: blocks are terminated, edge arguments match block
//! parameter signatures, operand types agree with instruction signatures, and
//! instruction/block references stay in bounds. (SSA *dominance* is verified
//! separately in `dae-analysis`, which owns the dominator tree.)

use crate::function::Function;
use crate::inst::{InstKind, Terminator};
use crate::module::Module;
use crate::types::Type;
use crate::value::{BlockId, Value};
use std::fmt;

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the failure occurred.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in `{}`: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err(func: &Function, message: impl Into<String>) -> VerifyError {
    VerifyError { func: func.name.clone(), message: message.into() }
}

/// Verifies one function. `module` enables call-signature checking.
///
/// # Errors
///
/// Returns the first violated invariant found.
pub fn verify_function(func: &Function, module: Option<&Module>) -> Result<(), VerifyError> {
    // Indexed by instruction id; an unallocated id is `verify_inst`'s to
    // report.
    let mut placed = vec![false; func.num_insts()];
    for bb in func.block_ids() {
        let data = func.block(bb);
        for &inst in &data.insts {
            if placed.get_mut(inst.0 as usize).is_some_and(|p| std::mem::replace(p, true)) {
                return Err(err(func, format!("instruction {inst} placed more than once")));
            }
            verify_inst(func, module, bb, inst)?;
        }
        let term = match &data.term {
            Some(t) => t,
            None => return Err(err(func, format!("block {bb} has no terminator"))),
        };
        verify_terminator(func, bb, term)?;
    }
    Ok(())
}

fn verify_value(func: &Function, bb: BlockId, v: Value) -> Result<(), VerifyError> {
    match v {
        Value::Inst(id) if id.0 as usize >= func.num_insts() => {
            return Err(err(func, format!("block {bb}: reference to unallocated inst {id}")));
        }
        Value::BlockParam { block, index } => {
            if block.0 as usize >= func.num_blocks() {
                return Err(err(func, format!("block {bb}: param of unallocated block {block}")));
            }
            if index as usize >= func.block(block).params.len() {
                return Err(err(
                    func,
                    format!("block {bb}: block param index {index} out of range for {block}"),
                ));
            }
        }
        Value::Arg(i) if i as usize >= func.params.len() => {
            return Err(err(func, format!("block {bb}: argument index {i} out of range")));
        }
        _ => {}
    }
    Ok(())
}

fn expect_type(
    func: &Function,
    bb: BlockId,
    what: &str,
    v: Value,
    expected: Type,
) -> Result<(), VerifyError> {
    let actual = func.value_type(v);
    if actual != expected {
        return Err(err(
            func,
            format!("block {bb}: {what} has type {actual}, expected {expected}"),
        ));
    }
    Ok(())
}

fn verify_inst(
    func: &Function,
    module: Option<&Module>,
    bb: BlockId,
    inst: crate::value::InstId,
) -> Result<(), VerifyError> {
    let data = func.inst(inst);
    let mut operand_err = Ok(());
    data.kind.for_each_operand(|v| {
        if operand_err.is_ok() {
            operand_err = verify_value(func, bb, v);
        }
    });
    operand_err?;

    match &data.kind {
        InstKind::Binary { op, lhs, rhs } => {
            let want = if op.is_float() { Type::F64 } else { Type::I64 };
            expect_type(func, bb, "binary lhs", *lhs, want)?;
            expect_type(func, bb, "binary rhs", *rhs, want)?;
            if data.ty != op.result_type() {
                return Err(err(func, format!("block {bb}: {inst} result type mismatch")));
            }
        }
        InstKind::Unary { op, operand } => {
            use crate::inst::UnOp::*;
            let want = match op {
                INeg | IToF | IntToPtr => Type::I64,
                FNeg | FSqrt | FToI => Type::F64,
                PtrToInt => Type::Ptr,
                Not => Type::Bool,
            };
            expect_type(func, bb, "unary operand", *operand, want)?;
        }
        InstKind::Cmp { lhs, rhs, .. } => {
            let lt = func.value_type(*lhs);
            let rt = func.value_type(*rhs);
            if lt != rt {
                return Err(err(
                    func,
                    format!("block {bb}: cmp operand types differ ({lt} vs {rt})"),
                ));
            }
            if data.ty != Type::Bool {
                return Err(err(func, format!("block {bb}: cmp result must be bool")));
            }
        }
        InstKind::Select { cond, then_value, else_value } => {
            expect_type(func, bb, "select cond", *cond, Type::Bool)?;
            let tt = func.value_type(*then_value);
            let et = func.value_type(*else_value);
            if tt != et || tt != data.ty {
                return Err(err(func, format!("block {bb}: select arm types differ")));
            }
        }
        InstKind::PtrAdd { base, offset } => {
            expect_type(func, bb, "ptradd base", *base, Type::Ptr)?;
            expect_type(func, bb, "ptradd offset", *offset, Type::I64)?;
            if data.ty != Type::Ptr {
                return Err(err(func, format!("block {bb}: ptradd must produce ptr")));
            }
        }
        InstKind::Load { addr } => {
            expect_type(func, bb, "load address", *addr, Type::Ptr)?;
            if data.ty == Type::Void {
                return Err(err(func, format!("block {bb}: load must produce a value")));
            }
        }
        InstKind::Store { addr, .. } => {
            expect_type(func, bb, "store address", *addr, Type::Ptr)?;
            if data.ty != Type::Void {
                return Err(err(func, format!("block {bb}: store produces no value")));
            }
        }
        InstKind::Prefetch { addr } => {
            expect_type(func, bb, "prefetch address", *addr, Type::Ptr)?;
        }
        InstKind::Call { callee, args } => {
            if let Some(m) = module {
                if callee.0 as usize >= m.num_funcs() {
                    return Err(err(func, format!("block {bb}: call to unallocated {callee}")));
                }
                let sig = m.func(*callee);
                if sig.params.len() != args.len() {
                    return Err(err(
                        func,
                        format!(
                            "block {bb}: call to `{}` passes {} args, expected {}",
                            sig.name,
                            args.len(),
                            sig.params.len()
                        ),
                    ));
                }
                for (i, (a, want)) in args.iter().zip(&sig.params).enumerate() {
                    expect_type(func, bb, &format!("call arg {i}"), *a, *want)?;
                }
                if data.ty != sig.ret {
                    return Err(err(func, format!("block {bb}: call result type mismatch")));
                }
            }
        }
    }
    Ok(())
}

fn verify_terminator(func: &Function, bb: BlockId, term: &Terminator) -> Result<(), VerifyError> {
    let mut operand_err = Ok(());
    term.for_each_operand(|v| {
        if operand_err.is_ok() {
            operand_err = verify_value(func, bb, v);
        }
    });
    operand_err?;

    if let Terminator::Branch { cond, .. } = term {
        expect_type(func, bb, "branch condition", *cond, Type::Bool)?;
    }
    if let Terminator::Ret(v) = term {
        match (v, func.ret) {
            (None, Type::Void) => {}
            (Some(_), Type::Void) => {
                return Err(err(func, format!("block {bb}: void function returns a value")))
            }
            (None, _) => return Err(err(func, format!("block {bb}: missing return value"))),
            (Some(v), want) => expect_type(func, bb, "return value", *v, want)?,
        }
    }
    for dest in term.successors() {
        if dest.block.0 as usize >= func.num_blocks() {
            return Err(err(func, format!("block {bb}: edge to unallocated {}", dest.block)));
        }
        let params = &func.block(dest.block).params;
        if params.len() != dest.args.len() {
            return Err(err(
                func,
                format!(
                    "block {bb}: edge to {} passes {} args, expected {}",
                    dest.block,
                    dest.args.len(),
                    params.len()
                ),
            ));
        }
        for (i, (a, want)) in dest.args.iter().zip(params).enumerate() {
            // The description is formatted only for an error.
            if func.value_type(*a) != *want {
                expect_type(func, bb, &format!("edge arg {i} to {}", dest.block), *a, *want)?;
            }
        }
    }
    Ok(())
}

/// Verifies every function in a module.
///
/// # Errors
///
/// Returns the first violated invariant found across all functions.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for (_, f) in module.funcs() {
        verify_function(f, Some(module))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;

    #[test]
    fn accepts_well_formed() {
        let mut b = FunctionBuilder::new("ok", vec![Type::I64], Type::I64);
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(0)],
            |b, i, c| vec![b.iadd(c[0], i)],
        );
        b.ret(Some(out[0]));
        let f = b.finish();
        verify_function(&f, None).unwrap();
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut f = Function::new("bad", vec![], Type::Void);
        let entry = f.entry;
        let i = f.create_inst(
            InstKind::Binary { op: BinOp::FAdd, lhs: Value::i64(1), rhs: Value::i64(2) },
            Type::F64,
        );
        f.append_inst(entry, i);
        f.set_terminator(entry, Terminator::Ret(None));
        let e = verify_function(&f, None).unwrap_err();
        assert!(e.message.contains("expected f64"), "{e}");
    }

    #[test]
    fn rejects_missing_terminator() {
        let f = Function::new("open", vec![], Type::Void);
        let e = verify_function(&f, None).unwrap_err();
        assert!(e.message.contains("no terminator"), "{e}");
    }

    #[test]
    fn rejects_edge_arity_mismatch() {
        let mut f = Function::new("edge", vec![], Type::Void);
        let entry = f.entry;
        let b2 = f.add_block();
        f.add_block_param(b2, Type::I64);
        f.set_terminator(entry, Terminator::Jump(crate::inst::BlockCall::new(b2)));
        f.set_terminator(b2, Terminator::Ret(None));
        let e = verify_function(&f, None).unwrap_err();
        assert!(e.message.contains("passes 0 args, expected 1"), "{e}");
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let mut f = Function::new("retbad", vec![], Type::I64);
        f.set_terminator(f.entry, Terminator::Ret(None));
        let e = verify_function(&f, None).unwrap_err();
        assert!(e.message.contains("missing return value"), "{e}");
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = Module::new();
        let mut cb = FunctionBuilder::new("callee", vec![Type::I64], Type::Void);
        cb.ret(None);
        let callee = m.add_function(cb.finish());
        let mut b = FunctionBuilder::new("caller", vec![], Type::Void);
        b.call(callee, vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("passes 0 args, expected 1"), "{e}");
    }

    #[test]
    fn rejects_double_placement() {
        let mut f = Function::new("dup", vec![], Type::Void);
        let entry = f.entry;
        let i = f.create_inst(
            InstKind::Prefetch { addr: Value::Global(crate::value::GlobalId(0)) },
            Type::Void,
        );
        f.append_inst(entry, i);
        f.append_inst(entry, i);
        f.set_terminator(entry, Terminator::Ret(None));
        let e = verify_function(&f, None).unwrap_err();
        assert!(e.message.contains("placed more than once"), "{e}");
    }
}
