//! Values: the operands of instructions.

#[allow(unused_imports)]
use crate::entity_id;
use std::fmt;

entity_id!(pub struct InstId, "v");
entity_id!(pub struct BlockId, "bb");
entity_id!(pub struct FuncId, "fn");
entity_id!(pub struct GlobalId, "g");

/// An SSA value usable as an instruction operand.
///
/// Values are small and `Copy`; constants are inlined rather than allocated,
/// which keeps def-use bookkeeping confined to [`Value::Inst`] and
/// [`Value::BlockParam`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Result of the instruction `InstId`.
    Inst(InstId),
    /// The `index`-th parameter of block `block` (SSA block arguments; these
    /// play the role LLVM phi nodes play).
    BlockParam {
        /// Owning block.
        block: BlockId,
        /// Index into the block's parameter list.
        index: u32,
    },
    /// The `index`-th argument of the enclosing function.
    Arg(u32),
    /// Integer literal.
    ConstI64(i64),
    /// Float literal, stored as raw bits so `Value` is `Eq + Hash`.
    ConstF64(u64),
    /// Boolean literal.
    ConstBool(bool),
    /// The base address of a module global.
    Global(GlobalId),
}

impl Value {
    /// Convenience constructor for a float constant.
    pub fn f64(v: f64) -> Value {
        Value::ConstF64(v.to_bits())
    }

    /// Convenience constructor for an integer constant.
    pub fn i64(v: i64) -> Value {
        Value::ConstI64(v)
    }

    /// Returns the float payload if this is a float constant.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Value::ConstF64(bits) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// Returns the integer payload if this is an integer constant.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::ConstI64(v) => Some(v),
            _ => None,
        }
    }

    /// True if the value is a literal (needs no definition point).
    pub fn is_const(self) -> bool {
        matches!(
            self,
            Value::ConstI64(_) | Value::ConstF64(_) | Value::ConstBool(_) | Value::Global(_)
        )
    }
}

/// The spelling of the textual IR.
impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        crate::print::push_value(&mut text, *self);
        f.write_str(&text)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::ConstI64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::f64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::ConstBool(v)
    }
}

impl From<InstId> for Value {
    fn from(id: InstId) -> Value {
        Value::Inst(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_constants_round_trip() {
        let v = Value::f64(3.25);
        assert_eq!(v.as_f64(), Some(3.25));
        assert_eq!(Value::i64(7).as_i64(), Some(7));
        assert_eq!(Value::i64(7).as_f64(), None);
    }

    #[test]
    fn constness() {
        assert!(Value::i64(0).is_const());
        assert!(Value::f64(0.0).is_const());
        assert!(Value::ConstBool(true).is_const());
        assert!(Value::Global(GlobalId(0)).is_const());
        assert!(!Value::Inst(InstId(0)).is_const());
        assert!(!Value::Arg(0).is_const());
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Inst(InstId(3)).to_string(), "v3");
        assert_eq!(Value::Arg(1).to_string(), "arg1");
        assert_eq!(Value::BlockParam { block: BlockId(2), index: 0 }.to_string(), "bb2p0");
        assert_eq!(Value::i64(-4).to_string(), "-4");
        assert_eq!(Value::Global(GlobalId(5)).to_string(), "@g5");
        assert_eq!(Value::Inst(InstId(u32::MAX)).to_string(), "v4294967295");
        assert_eq!(Value::i64(i64::MIN).to_string(), "-9223372036854775808");
        assert_eq!(Value::i64(i64::MAX).to_string(), "9223372036854775807");
        assert_eq!(Value::i64(0).to_string(), "0");
        let floats = [(0.1, "0.1"), (-0.0, "-0.0"), (f64::INFINITY, "inf"), (f64::NAN, "NaN")];
        for (x, text) in floats.into_iter().chain([(5e-324, "5e-324"), (1e300, "1e300")]) {
            assert_eq!(Value::f64(x).to_string(), text);
        }
        assert_eq!(Value::ConstBool(false).to_string(), "false");
    }

    #[test]
    fn nan_constants_are_eq() {
        // Bit-level storage makes two identical NaNs compare equal, which is
        // what we need for hashing values in maps during transforms.
        let a = Value::f64(f64::NAN);
        let b = Value::f64(f64::NAN);
        assert_eq!(a, b);
    }
}
