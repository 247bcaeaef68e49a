//! Instructions and terminators.

use crate::types::Type;
use crate::value::{BlockId, FuncId, Value};
use std::fmt;

/// Binary arithmetic / bitwise operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wrapping).
    IAdd,
    /// Integer subtraction (wrapping).
    ISub,
    /// Integer multiplication (wrapping).
    IMul,
    /// Integer division (signed). Division by zero traps the interpreter.
    IDiv,
    /// Integer remainder (signed).
    IRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Arithmetic (sign-preserving) right shift.
    AShr,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
    /// Float minimum.
    FMin,
    /// Float maximum.
    FMax,
}

impl BinOp {
    /// True for operators consuming and producing [`Type::F64`].
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMin | BinOp::FMax
        )
    }

    /// Result type of the operator.
    pub(crate) fn result_type(self) -> Type {
        if self.is_float() {
            Type::F64
        } else {
            Type::I64
        }
    }

    /// Mnemonic used by the printer/parser.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            BinOp::IAdd => "iadd",
            BinOp::ISub => "isub",
            BinOp::IMul => "imul",
            BinOp::IDiv => "idiv",
            BinOp::IRem => "irem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FMin => "fmin",
            BinOp::FMax => "fmax",
        }
    }
}

/// Comparison predicates (signed for integers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Mnemonic used by the printer/parser.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The predicate with operands swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logically negated predicate.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    INeg,
    /// Float negation.
    FNeg,
    /// Float square root.
    FSqrt,
    /// Convert i64 → f64.
    IToF,
    /// Convert f64 → i64 (truncating).
    FToI,
    /// Convert ptr → i64 (the raw simulated address).
    PtrToInt,
    /// Convert i64 → ptr.
    IntToPtr,
    /// Boolean not.
    Not,
}

impl UnOp {
    /// Result type of the operator.
    pub fn result_type(self) -> Type {
        match self {
            UnOp::INeg | UnOp::FToI | UnOp::PtrToInt => Type::I64,
            UnOp::FNeg | UnOp::FSqrt | UnOp::IToF => Type::F64,
            UnOp::IntToPtr => Type::Ptr,
            UnOp::Not => Type::Bool,
        }
    }

    /// Mnemonic used by the printer/parser.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            UnOp::INeg => "ineg",
            UnOp::FNeg => "fneg",
            UnOp::FSqrt => "fsqrt",
            UnOp::IToF => "itof",
            UnOp::FToI => "ftoi",
            UnOp::PtrToInt => "ptoi",
            UnOp::IntToPtr => "itop",
            UnOp::Not => "not",
        }
    }
}

/// A non-terminator instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum InstKind {
    /// `lhs op rhs`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// `op operand`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Value,
    },
    /// `lhs pred rhs`, producing a [`Type::Bool`].
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// `cond ? then_value : else_value`.
    Select {
        /// Condition.
        cond: Value,
        /// Value when true.
        then_value: Value,
        /// Value when false.
        else_value: Value,
    },
    /// `base + offset` where `base: ptr`, `offset: i64` (bytes).
    PtrAdd {
        /// Pointer base.
        base: Value,
        /// Byte offset.
        offset: Value,
    },
    /// Load a value of the instruction's result type from `addr`.
    Load {
        /// Address operand (a `ptr`).
        addr: Value,
    },
    /// Store `value` to `addr`. Produces no result.
    Store {
        /// Address operand (a `ptr`).
        addr: Value,
        /// Value stored.
        value: Value,
    },
    /// Software prefetch of the line containing `addr`.
    ///
    /// This is the x86 `prefetcht0`-style hint the paper relies on: it does
    /// not stall retirement and never faults. The timing model gives it
    /// non-blocking miss handling (MLP), and the interpreter gives it no
    /// architectural effect besides warming the cache.
    Prefetch {
        /// Address operand (a `ptr`).
        addr: Value,
    },
    /// Call a function in the same module.
    Call {
        /// Callee.
        callee: FuncId,
        /// Actual arguments.
        args: Vec<Value>,
    },
}

impl InstKind {
    /// Visits every operand of the instruction.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Binary { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::Unary { operand, .. } => f(*operand),
            InstKind::Select { cond, then_value, else_value } => {
                f(*cond);
                f(*then_value);
                f(*else_value);
            }
            InstKind::PtrAdd { base, offset } => {
                f(*base);
                f(*offset);
            }
            InstKind::Load { addr } | InstKind::Prefetch { addr } => f(*addr),
            InstKind::Store { addr, value } => {
                f(*addr);
                f(*value);
            }
            InstKind::Call { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
        }
    }

    /// Rewrites every operand through `f` in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            InstKind::Binary { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstKind::Unary { operand, .. } => *operand = f(*operand),
            InstKind::Select { cond, then_value, else_value } => {
                *cond = f(*cond);
                *then_value = f(*then_value);
                *else_value = f(*else_value);
            }
            InstKind::PtrAdd { base, offset } => {
                *base = f(*base);
                *offset = f(*offset);
            }
            InstKind::Load { addr } | InstKind::Prefetch { addr } => *addr = f(*addr),
            InstKind::Store { addr, value } => {
                *addr = f(*addr);
                *value = f(*value);
            }
            InstKind::Call { args, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
        }
    }

    /// True if removing this instruction can change observable behaviour
    /// even when its result is unused.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, InstKind::Store { .. } | InstKind::Call { .. } | InstKind::Prefetch { .. })
    }
}

/// An edge target: a block plus the SSA arguments passed to its parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockCall {
    /// Destination block.
    pub block: BlockId,
    /// Arguments bound to the destination's block parameters.
    pub args: Vec<Value>,
}

impl BlockCall {
    /// Creates an edge target with no arguments.
    pub fn new(block: BlockId) -> Self {
        BlockCall { block, args: Vec::new() }
    }

    /// Creates an edge target with arguments.
    pub fn with_args(block: BlockId, args: Vec<Value>) -> Self {
        BlockCall { block, args }
    }
}

/// The instruction that ends a block.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockCall),
    /// Two-way conditional branch.
    Branch {
        /// Branch condition (a `bool`).
        cond: Value,
        /// Taken when `cond` is true.
        then_dest: BlockCall,
        /// Taken when `cond` is false.
        else_dest: BlockCall,
    },
    /// Return from the function, with an optional value.
    Ret(Option<Value>),
}

impl Terminator {
    /// Visits every operand (condition and edge arguments).
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Terminator::Jump(dest) => {
                for a in &dest.args {
                    f(*a);
                }
            }
            Terminator::Branch { cond, then_dest, else_dest } => {
                f(*cond);
                for a in &then_dest.args {
                    f(*a);
                }
                for a in &else_dest.args {
                    f(*a);
                }
            }
            Terminator::Ret(Some(v)) => f(*v),
            Terminator::Ret(None) => {}
        }
    }

    /// Rewrites every operand through `f` in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Terminator::Jump(dest) => {
                for a in dest.args.iter_mut() {
                    *a = f(*a);
                }
            }
            Terminator::Branch { cond, then_dest, else_dest } => {
                *cond = f(*cond);
                for a in then_dest.args.iter_mut() {
                    *a = f(*a);
                }
                for a in else_dest.args.iter_mut() {
                    *a = f(*a);
                }
            }
            Terminator::Ret(Some(v)) => *v = f(*v),
            Terminator::Ret(None) => {}
        }
    }

    /// Iterates over successor edges (then before else), without
    /// allocating.
    pub fn successors(&self) -> impl Iterator<Item = &BlockCall> {
        let (first, second) = match self {
            Terminator::Jump(d) => (Some(d), None),
            Terminator::Branch { then_dest, else_dest, .. } => (Some(then_dest), Some(else_dest)),
            Terminator::Ret(_) => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Mutable access to successor edges, in [`Terminator::successors`]
    /// order.
    pub fn successors_mut(&mut self) -> impl Iterator<Item = &mut BlockCall> {
        let (first, second) = match self {
            Terminator::Jump(d) => (Some(d), None),
            Terminator::Branch { then_dest, else_dest, .. } => (Some(then_dest), Some(else_dest)),
            Terminator::Ret(_) => (None, None),
        };
        first.into_iter().chain(second)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_swap_negate() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negated(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
        assert_eq!(CmpOp::Eq.negated(), CmpOp::Ne);
        // double negation is identity
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.swapped().swapped(), op);
        }
    }

    #[test]
    fn operand_visiting() {
        let k = InstKind::Binary { op: BinOp::IAdd, lhs: Value::i64(1), rhs: Value::i64(2) };
        let mut seen = Vec::new();
        k.for_each_operand(|v| seen.push(v));
        assert_eq!(seen, vec![Value::i64(1), Value::i64(2)]);
    }

    #[test]
    fn operand_mapping() {
        let mut k = InstKind::Store { addr: Value::i64(1), value: Value::i64(2) };
        k.map_operands(|v| match v.as_i64() {
            Some(n) => Value::i64(n * 10),
            None => v,
        });
        assert_eq!(k, InstKind::Store { addr: Value::i64(10), value: Value::i64(20) });
    }

    #[test]
    fn side_effects() {
        assert!(InstKind::Store { addr: Value::i64(0), value: Value::i64(0) }.has_side_effects());
        assert!(InstKind::Prefetch { addr: Value::i64(0) }.has_side_effects());
        assert!(!InstKind::Load { addr: Value::i64(0) }.has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Value::ConstBool(true),
            then_dest: BlockCall::new(BlockId(1)),
            else_dest: BlockCall::new(BlockId(2)),
        };
        let succ: Vec<_> = t.successors().map(|d| d.block).collect();
        assert_eq!(succ, vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Ret(None).successors().count(), 0);
    }

    #[test]
    fn float_binop_types() {
        assert_eq!(BinOp::FAdd.result_type(), Type::F64);
        assert_eq!(BinOp::IAdd.result_type(), Type::I64);
        assert!(BinOp::FMin.is_float());
    }
}
