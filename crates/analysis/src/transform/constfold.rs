//! Constant folding and algebraic simplification.

use crate::Workspace;
use dae_ir::{BinOp, CmpOp, Function, InstKind, UnOp, Value};

fn eval_ibin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::IAdd => a.wrapping_add(b),
        BinOp::ISub => a.wrapping_sub(b),
        BinOp::IMul => a.wrapping_mul(b),
        BinOp::IDiv => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::IRem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::AShr => a.wrapping_shr(b as u32),
        _ => return None,
    })
}

fn eval_fbin(op: BinOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        BinOp::FAdd => a + b,
        BinOp::FSub => a - b,
        BinOp::FMul => a * b,
        BinOp::FDiv => a / b,
        BinOp::FMin => a.min(b),
        BinOp::FMax => a.max(b),
        _ => return None,
    })
}

fn eval_cmp_i(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Computes the folded replacement of a single instruction, if any.
fn fold_inst(kind: &InstKind) -> Option<Value> {
    match kind {
        InstKind::Binary { op, lhs, rhs } => {
            if let (Some(a), Some(b)) = (lhs.as_i64(), rhs.as_i64()) {
                return eval_ibin(*op, a, b).map(Value::i64);
            }
            if let (Some(a), Some(b)) = (lhs.as_f64(), rhs.as_f64()) {
                return eval_fbin(*op, a, b).map(Value::f64);
            }
            // Algebraic identities.
            match (op, lhs.as_i64(), rhs.as_i64()) {
                (BinOp::IAdd, Some(0), _) => Some(*rhs),
                (BinOp::IAdd, _, Some(0)) | (BinOp::ISub, _, Some(0)) => Some(*lhs),
                (BinOp::IMul, Some(1), _) => Some(*rhs),
                (BinOp::IMul, _, Some(1)) => Some(*lhs),
                (BinOp::IMul, Some(0), _) | (BinOp::IMul, _, Some(0)) => Some(Value::i64(0)),
                (BinOp::Shl, _, Some(0)) => Some(*lhs),
                _ => match (op, lhs.as_f64(), rhs.as_f64()) {
                    (BinOp::FMul, _, Some(1.0)) => Some(*lhs),
                    (BinOp::FMul, Some(1.0), _) => Some(*rhs),
                    (BinOp::FAdd, _, Some(0.0)) => Some(*lhs),
                    (BinOp::FAdd, Some(0.0), _) => Some(*rhs),
                    _ => None,
                },
            }
        }
        InstKind::Unary { op, operand } => match op {
            UnOp::INeg => operand.as_i64().map(|v| Value::i64(v.wrapping_neg())),
            UnOp::FNeg => operand.as_f64().map(|v| Value::f64(-v)),
            UnOp::FSqrt => operand.as_f64().map(|v| Value::f64(v.sqrt())),
            UnOp::IToF => operand.as_i64().map(|v| Value::f64(v as f64)),
            UnOp::FToI => operand.as_f64().map(|v| Value::i64(v as i64)),
            UnOp::Not => match operand {
                Value::ConstBool(b) => Some(Value::ConstBool(!b)),
                _ => None,
            },
            _ => None,
        },
        InstKind::Cmp { op, lhs, rhs } => {
            if let (Some(a), Some(b)) = (lhs.as_i64(), rhs.as_i64()) {
                return Some(Value::ConstBool(eval_cmp_i(*op, a, b)));
            }
            if lhs == rhs && !lhs.is_const() {
                // x op x folds for pure predicates.
                return Some(Value::ConstBool(matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge)));
            }
            None
        }
        InstKind::Select { cond, then_value, else_value } => match cond {
            Value::ConstBool(true) => Some(*then_value),
            Value::ConstBool(false) => Some(*else_value),
            _ if then_value == else_value => Some(*then_value),
            _ => None,
        },
        InstKind::PtrAdd { base, offset } if offset.as_i64() == Some(0) => Some(*base),
        _ => None,
    }
}

/// Folds constant expressions to a fixpoint, rewriting uses. Does not remove
/// the dead defining instructions — run DCE afterwards. Returns `true` on
/// change.
pub(crate) fn fold_constants(ws: &mut Workspace, func: &mut Function) -> bool {
    let mut changed_any = false;
    // The folded value of each instruction, indexed by instruction id.
    let repl = &mut ws.cleanup.repl;
    super::refill(repl, func.num_insts(), None);
    loop {
        repl.fill(None);
        let mut folded = 0;
        for bb in func.block_ids() {
            for &inst in &func.block(bb).insts {
                if let Some(v) = fold_inst(&func.inst(inst).kind) {
                    repl[inst.0 as usize] = Some(v);
                    folded += 1;
                }
            }
        }
        if folded == 0 {
            return changed_any;
        }
        // Resolve chains (a → b → const).
        let resolve = |mut v: Value| -> Value {
            let mut hops = 0;
            while let Value::Inst(id) = v {
                let Some(n) = repl[id.0 as usize] else { break };
                v = n;
                hops += 1;
                if hops > folded {
                    break;
                }
            }
            v
        };
        let mut changed = false;
        super::map_all_operands(func, |v| {
            let n = resolve(v);
            changed |= n != v;
            n
        });
        changed_any |= changed;
        if !changed {
            return changed_any;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::dce::dce_fixpoint;
    use dae_ir::{FunctionBuilder, Type};

    #[test]
    fn folds_pure_constant_chain() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let a = b.iadd(2i64, 3i64);
        let c = b.imul(a, 4i64);
        b.ret(Some(c));
        let mut f = b.finish();
        assert!(fold_constants(&mut Workspace::new(), &mut f));
        dce_fixpoint(&mut Workspace::new(), &mut f);
        assert_eq!(f.placed_inst_count(), 0);
        match f.terminator(f.entry) {
            dae_ir::Terminator::Ret(Some(v)) => assert_eq!(v.as_i64(), Some(20)),
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn folds_identities() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let x0 = b.iadd(Value::Arg(0), 0i64);
        let x1 = b.imul(x0, 1i64);
        b.ret(Some(x1));
        let mut f = b.finish();
        fold_constants(&mut Workspace::new(), &mut f);
        dce_fixpoint(&mut Workspace::new(), &mut f);
        assert_eq!(f.placed_inst_count(), 0);
        match f.terminator(f.entry) {
            dae_ir::Terminator::Ret(Some(v)) => assert_eq!(*v, Value::Arg(0)),
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn division_by_zero_not_folded() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let d = b.idiv(1i64, 0i64);
        b.ret(Some(d));
        let mut f = b.finish();
        assert!(!fold_constants(&mut Workspace::new(), &mut f));
        assert_eq!(f.placed_inst_count(), 1);
    }

    #[test]
    fn folds_comparison_and_select() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let c = b.cmp(CmpOp::Lt, 1i64, 2i64);
        let s = b.select(c, 10i64, 20i64);
        b.ret(Some(s));
        let mut f = b.finish();
        fold_constants(&mut Workspace::new(), &mut f);
        dce_fixpoint(&mut Workspace::new(), &mut f);
        match f.terminator(f.entry) {
            dae_ir::Terminator::Ret(Some(v)) => assert_eq!(v.as_i64(), Some(10)),
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn x_cmp_x_folds() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::Bool);
        let c = b.cmp(CmpOp::Le, Value::Arg(0), Value::Arg(0));
        b.ret(Some(c));
        let mut f = b.finish();
        fold_constants(&mut Workspace::new(), &mut f);
        match f.terminator(f.entry) {
            dae_ir::Terminator::Ret(Some(Value::ConstBool(true))) => {}
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn float_folding() {
        let mut b = FunctionBuilder::new("f", vec![], Type::F64);
        let a = b.fadd(1.5f64, 2.5f64);
        let c = b.fmul(a, 2.0f64);
        b.ret(Some(c));
        let mut f = b.finish();
        fold_constants(&mut Workspace::new(), &mut f);
        match f.terminator(f.entry) {
            dae_ir::Terminator::Ret(Some(v)) => assert_eq!(v.as_f64(), Some(8.0)),
            t => panic!("{t:?}"),
        }
    }
}
