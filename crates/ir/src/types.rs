//! The scalar type system of the IR.

use std::fmt;

/// A first-class IR type.
///
/// The IR is deliberately small: 64-bit integers, 64-bit floats, booleans
/// (comparison results) and pointers. This is sufficient to express every
/// kernel in the paper's evaluation while keeping analyses simple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE-754 float.
    F64,
    /// Boolean, the result of comparisons.
    Bool,
    /// Pointer into the simulated address space (byte-addressed).
    Ptr,
    /// Absence of a value (a function with no return value).
    Void,
}

impl Type {
    /// The type's name in the textual IR.
    pub fn name(self) -> &'static str {
        match self {
            Type::I64 => "i64",
            Type::F64 => "f64",
            Type::Bool => "bool",
            Type::Ptr => "ptr",
            Type::Void => "void",
        }
    }

    /// Size in bytes of a value of this type when stored in simulated memory.
    ///
    /// # Panics
    ///
    /// Panics for [`Type::Void`], which has no storage representation.
    pub fn size_bytes(self) -> u64 {
        match self {
            Type::I64 | Type::F64 | Type::Ptr => 8,
            Type::Bool => 1,
            Type::Void => panic!("void has no size"),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Type::I64.size_bytes(), 8);
        assert_eq!(Type::F64.size_bytes(), 8);
        assert_eq!(Type::Ptr.size_bytes(), 8);
        assert_eq!(Type::Bool.size_bytes(), 1);
    }

    #[test]
    #[should_panic(expected = "void has no size")]
    fn void_has_no_size() {
        let _ = Type::Void.size_bytes();
    }

    #[test]
    fn display_names() {
        assert_eq!(Type::I64.to_string(), "i64");
        assert_eq!(Type::Ptr.to_string(), "ptr");
    }
}
