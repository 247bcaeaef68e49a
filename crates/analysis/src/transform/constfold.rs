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
pub(super) fn fold_inst(kind: &InstKind) -> Option<Value> {
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

/// The round of an instruction that never folds.
const NEVER: u32 = u32::MAX;

/// What [`fold_constants`] found for one instruction.
#[derive(Clone, Copy)]
pub(super) struct Fold {
    /// The round it folds in, or [`NEVER`].
    round: u32,
    /// What it folds to in that round.
    value: Value,
    /// What its uses are rewritten to: `value` after every later fold.
    last: Value,
}

const UNFOLDED: Fold =
    Fold { round: NEVER, value: Value::ConstBool(false), last: Value::ConstBool(false) };

/// `v` as the operands of round `round` see it: every instruction that
/// folded in an earlier round is replaced by its value, along the chain.
/// Following `v` to a round and the result to a later round is following
/// `v` to the later round.
fn follow(folds: &[Fold], mut v: Value, round: u32) -> Value {
    while let Value::Inst(id) = v {
        let fold = folds[id.0 as usize];
        if fold.round >= round {
            break;
        }
        v = fold.value;
    }
    v
}

/// `v` after every fold: what a use of `v` is rewritten to.
fn last(folds: &[Fold], v: Value) -> Value {
    match v {
        Value::Inst(id) if folds[id.0 as usize].round != NEVER => folds[id.0 as usize].last,
        v => v,
    }
}

/// Folds constant expressions and rewrites their uses, to the fixpoint of
/// the round-by-round fold: each round folds every instruction on the
/// operands the previous rounds left, then replaces the uses of what
/// folded. Does not remove the dead defining instructions — run DCE
/// afterwards. Returns `true` when an operand changed.
///
/// One pass in reverse postorder computes that fixpoint: a definition
/// dominates its uses, so every operand's fate is known when its user is
/// visited. An instruction's round is the first at which it folds on the
/// operands of that round; the operands only change at the rounds after
/// their definitions folded, so only those rounds are tried, each from the
/// operands of the one before. (Folding the fully rewritten operands
/// instead would not always agree: `fadd x, 0.0` is `x`, yet `-0.0 + 0.0`
/// evaluates to `0.0`.) The work is the rounds an instruction's operands
/// change in, at most the rounds the round-by-round fold runs.
///
/// Every block of `func` must be reachable from the entry or empty, as the
/// clean-up pipeline keeps it. The pipeline itself calls [`fold_in_rpo`].
#[cfg(test)]
pub(crate) fn fold_constants(ws: &mut Workspace, func: &mut Function) -> bool {
    ws.cfg.rebuild(func);
    fold_in_rpo(ws, func)
}

/// [`fold_constants`] on a workspace whose CFG already lists `func`'s
/// blocks in an order that visits every definition before its uses, as
/// [`optimize_in`](super::optimize_in) keeps it.
pub(crate) fn fold_in_rpo(ws: &mut Workspace, func: &mut Function) -> bool {
    let cfg = &ws.cfg;
    let folds = &mut ws.cleanup.folds;
    super::refill(folds, func.num_insts(), UNFOLDED);
    let mut changed = false;
    let mut rewrite = |folds: &[Fold], v: Value| {
        let n = last(folds, v);
        changed |= n != v;
        n
    };
    // Until something folds, no operand has anything to be rewritten to.
    let mut folded = false;
    for &bb in cfg.rpo() {
        for i in 0..func.block(bb).insts.len() {
            let inst = func.block(bb).insts[i];
            let kind = &mut func.inst_mut(inst).kind;
            if matches!(
                kind,
                InstKind::Binary { .. }
                    | InstKind::Unary { .. }
                    | InstKind::Cmp { .. }
                    | InstKind::Select { .. }
                    | InstKind::PtrAdd { .. }
            ) {
                // Round 1 sees the operands as they are; later rounds only
                // differ once something has folded.
                let fold = match fold_inst(kind) {
                    Some(w) => Some((1, resolve_in_round(folds, w, 1))),
                    None if folded => fold_by_round(folds, kind),
                    None => None,
                };
                if let Some((round, value)) = fold {
                    folds[inst.0 as usize] = Fold { round, value, last: last(folds, value) };
                    folded = true;
                }
            }
            if folded {
                kind.map_operands(|v| rewrite(folds, v));
            }
        }
    }
    if folded {
        for &bb in cfg.rpo() {
            func.terminator_mut(bb).map_operands(|v| rewrite(folds, v));
        }
    }
    changed
}

/// The round after round 1 that `kind` first folds in and its value then,
/// given the folds of its operands' definitions; `None` if it never folds.
fn fold_by_round(folds: &[Fold], kind: &InstKind) -> Option<(u32, Value)> {
    // The round after which the operands of `seen` change next.
    let next = |seen: &InstKind| {
        let mut next = NEVER;
        seen.for_each_operand(|v| {
            if let Value::Inst(id) = v {
                next = next.min(folds[id.0 as usize].round.saturating_add(1));
            }
        });
        next
    };
    let mut round = next(kind);
    if round == NEVER {
        return None;
    }
    let mut seen = kind.clone();
    while round != NEVER {
        seen.map_operands(|v| follow(folds, v, round));
        if let Some(w) = fold_inst(&seen) {
            return Some((round, resolve_in_round(folds, w, round)));
        }
        round = next(&seen);
    }
    None
}

/// `w` resolved as round `round` resolves it: a value that folded in the
/// same round stands for what it folded to.
fn resolve_in_round(folds: &[Fold], w: Value, round: u32) -> Value {
    match w {
        Value::Inst(id) if folds[id.0 as usize].round == round => folds[id.0 as usize].value,
        w => w,
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
