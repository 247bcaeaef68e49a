//! Flat simulated memory and the global address layout.

use dae_ir::{GlobalId, GlobalInit, Module, Type};

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Val {
    /// 64-bit integer.
    I(i64),
    /// 64-bit float.
    F(f64),
    /// Boolean.
    B(bool),
    /// Pointer (simulated address).
    P(u64),
}

/// A runtime type violation: an operation received a [`Val`] of the wrong
/// kind, or a typed access used [`Type::Void`]. Produced by the fallible
/// `Val` accessors and [`Memory::try_read`] so a malformed module fails a
/// run gracefully instead of aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TypeError {
    /// Expected one payload kind, got another.
    Mismatch {
        /// The kind the operation required.
        expected: &'static str,
        /// The kind actually present.
        got: &'static str,
    },
    /// A typed load at [`Type::Void`].
    LoadVoid,
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::Mismatch { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            TypeError::LoadVoid => write!(f, "cannot load a void value"),
        }
    }
}

impl std::error::Error for TypeError {}

impl dae_ir::CodedError for TypeError {
    fn code(&self) -> &'static str {
        match self {
            TypeError::Mismatch { .. } => "sim.type-mismatch",
            TypeError::LoadVoid => "sim.load-void",
        }
    }
}

impl Val {
    /// The name of this value's payload kind.
    #[inline]
    pub(crate) fn kind(self) -> &'static str {
        match self {
            Val::I(_) => "i64",
            Val::F(_) => "f64",
            Val::B(_) => "bool",
            Val::P(_) => "ptr",
        }
    }

    /// The integer payload, or a [`TypeError`] for any other kind.
    #[inline]
    pub(crate) fn try_i(self) -> Result<i64, TypeError> {
        match self {
            Val::I(v) => Ok(v),
            other => Err(TypeError::Mismatch { expected: "i64", got: other.kind() }),
        }
    }

    /// The float payload, or a [`TypeError`] for any other kind.
    #[inline]
    pub(crate) fn try_f(self) -> Result<f64, TypeError> {
        match self {
            Val::F(v) => Ok(v),
            other => Err(TypeError::Mismatch { expected: "f64", got: other.kind() }),
        }
    }

    /// The boolean payload, or a [`TypeError`] for any other kind.
    #[inline]
    pub(crate) fn try_b(self) -> Result<bool, TypeError> {
        match self {
            Val::B(v) => Ok(v),
            other => Err(TypeError::Mismatch { expected: "bool", got: other.kind() }),
        }
    }

    /// The pointer payload, or a [`TypeError`] for any other kind.
    #[inline]
    pub(crate) fn try_p(self) -> Result<u64, TypeError> {
        match self {
            Val::P(v) => Ok(v),
            other => Err(TypeError::Mismatch { expected: "ptr", got: other.kind() }),
        }
    }

    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an integer (test helper; execution paths
    /// use `Val::try_i`).
    pub fn as_i(self) -> i64 {
        self.try_i().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a float (test helper; execution paths
    /// use `Val::try_f`).
    pub fn as_f(self) -> f64 {
        self.try_f().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Base address of the first global; leaves page zero unmapped so that a
/// null/garbage pointer dereference fails loudly.
const GLOBALS_BASE: u64 = 0x1000;

/// Byte-addressed flat memory holding all module globals, 64-byte aligned so
/// distinct arrays never share a cache line.
#[derive(Clone, Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    global_addrs: Vec<u64>,
}

impl Memory {
    /// Lays out and initialises the globals of `module`.
    pub(crate) fn for_module(module: &Module) -> Memory {
        let mut addr = GLOBALS_BASE;
        let mut global_addrs = Vec::with_capacity(module.num_globals());
        for (_, g) in module.globals() {
            global_addrs.push(addr);
            let size = g.size_bytes().max(1);
            addr += size.div_ceil(64) * 64;
        }
        let mut mem = Memory { bytes: vec![0u8; addr as usize], global_addrs };
        for (id, g) in module.globals() {
            if let GlobalInit::Words(words) = &g.init {
                let elem = g.elem_ty.size_bytes();
                assert_eq!(elem, 8, "word initialisers require 8-byte elements");
                let base = mem.global_addr(id);
                for (i, w) in words.iter().enumerate() {
                    mem.write_u64(base + (i as u64) * 8, *w);
                }
            }
        }
        mem
    }

    /// The base address of global `g`.
    pub fn global_addr(&self, g: GlobalId) -> u64 {
        self.global_addrs[g.0 as usize]
    }

    /// Total mapped size in bytes.
    pub(crate) fn size(&self) -> usize {
        self.bytes.len()
    }

    #[inline]
    fn check(&self, addr: u64, len: u64) {
        // `checked_add`: near `u64::MAX` the sum would wrap (release builds)
        // and a wild pointer would pass as a low address.
        assert!(
            addr >= GLOBALS_BASE
                && addr.checked_add(len).is_some_and(|end| end <= self.bytes.len() as u64),
            "memory access out of bounds: addr={addr:#x} len={len}"
        );
    }

    /// Reads a raw 64-bit word.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.check(addr, 8);
        let a = addr as usize;
        u64::from_le_bytes(self.bytes[a..a + 8].try_into().expect("8 bytes"))
    }

    /// Writes a raw 64-bit word.
    #[inline]
    pub(crate) fn write_u64(&mut self, addr: u64, v: u64) {
        self.check(addr, 8);
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a typed value; [`TypeError::LoadVoid`] for a [`Type::Void`]
    /// load (malformed IR that slipped past verification).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub(crate) fn try_read(&self, ty: Type, addr: u64) -> Result<Val, TypeError> {
        Ok(match ty {
            Type::I64 => Val::I(self.read_u64(addr) as i64),
            Type::F64 => Val::F(f64::from_bits(self.read_u64(addr))),
            Type::Ptr => Val::P(self.read_u64(addr)),
            Type::Bool => {
                self.check(addr, 1);
                Val::B(self.bytes[addr as usize] != 0)
            }
            Type::Void => return Err(TypeError::LoadVoid),
        })
    }

    /// Reads a typed value.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or a [`Type::Void`] load (test
    /// helper; execution paths use `Memory::try_read`).
    pub fn read(&self, ty: Type, addr: u64) -> Val {
        self.try_read(ty, addr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Writes a typed value.
    #[inline]
    pub(crate) fn write(&mut self, addr: u64, v: Val) {
        match v {
            Val::I(x) => self.write_u64(addr, x as u64),
            Val::F(x) => self.write_u64(addr, x.to_bits()),
            Val::P(x) => self.write_u64(addr, x),
            Val::B(x) => {
                self.check(addr, 1);
                self.bytes[addr as usize] = x as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_line_aligned_and_disjoint() {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 3); // 24 B -> padded to 64
        let b = m.add_global("b", Type::I64, 100); // 800 B -> padded to 832
        let c = m.add_global("c", Type::F64, 1);
        let mem = Memory::for_module(&m);
        let (pa, pb, pc) = (mem.global_addr(a), mem.global_addr(b), mem.global_addr(c));
        assert_eq!(pa % 64, 0);
        assert_eq!(pb % 64, 0);
        assert_eq!(pc % 64, 0);
        assert!(pb >= pa + 24);
        assert!(pc >= pb + 800);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Module::new();
        let g = m.add_global("g", Type::F64, 4);
        let mut mem = Memory::for_module(&m);
        let base = mem.global_addr(g);
        mem.write(base, Val::F(3.5));
        mem.write(base + 8, Val::I(-7));
        assert_eq!(mem.read(Type::F64, base), Val::F(3.5));
        assert_eq!(mem.read(Type::I64, base + 8), Val::I(-7));
    }

    #[test]
    fn word_initialisers_are_applied() {
        let mut m = Module::new();
        let g = m.add_global_init(dae_ir::GlobalData {
            name: "init".into(),
            elem_ty: Type::I64,
            len: 2,
            init: GlobalInit::Words(vec![42, 43]),
        });
        let mem = Memory::for_module(&m);
        let base = mem.global_addr(g);
        assert_eq!(mem.read(Type::I64, base), Val::I(42));
        assert_eq!(mem.read(Type::I64, base + 8), Val::I(43));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn null_deref_panics() {
        let m = Module::new();
        let mem = Memory::for_module(&m);
        let _ = mem.read(Type::I64, 0);
    }

    /// An address so high that `addr + len` wraps must fail the bounds
    /// check with its documented message, on every access path.
    #[test]
    fn accesses_that_wrap_the_address_space_are_out_of_bounds() {
        let mut m = Module::new();
        m.add_global("g", Type::F64, 4);
        let wild = u64::MAX - 3;
        let message = |r: std::thread::Result<()>| -> String {
            let payload = r.expect_err("a wild access panics");
            payload.downcast_ref::<String>().cloned().expect("formatted panic message")
        };
        type Access = fn(&mut Memory, u64);
        let accesses: [(&str, Access); 6] = [
            ("read_u64", |mem, a| _ = mem.read_u64(a)),
            ("write_u64", |mem, a| mem.write_u64(a, 7)),
            ("try_read f64", |mem, a| _ = mem.try_read(Type::F64, a)),
            ("write i64", |mem, a| mem.write(a, Val::I(1))),
            ("try_read bool", |mem, a| _ = mem.try_read(Type::Bool, a)),
            ("write bool", |mem, a| mem.write(a, Val::B(true))),
        ];
        for (name, access) in accesses {
            // The one-byte `Bool` paths wrap only at the very top.
            for addr in [wild, u64::MAX] {
                let mut mem = Memory::for_module(&m);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    access(&mut mem, addr)
                }));
                let msg = message(r);
                assert!(
                    msg.starts_with("memory access out of bounds"),
                    "{name} at {addr:#x}: {msg}"
                );
            }
        }
    }

    #[test]
    fn val_accessors() {
        assert_eq!(Val::I(3).as_i(), 3);
        assert_eq!(Val::F(2.5).as_f(), 2.5);
    }

    #[test]
    fn mismatched_accessors_report_kinds() {
        assert_eq!(Val::F(1.0).try_i(), Err(TypeError::Mismatch { expected: "i64", got: "f64" }));
        assert_eq!(Val::I(1).try_f(), Err(TypeError::Mismatch { expected: "f64", got: "i64" }));
        assert_eq!(Val::P(8).try_b(), Err(TypeError::Mismatch { expected: "bool", got: "ptr" }));
        assert_eq!(Val::B(true).try_p(), Err(TypeError::Mismatch { expected: "ptr", got: "bool" }));
        assert_eq!(Val::I(3).try_i(), Ok(3));
    }

    #[test]
    fn void_load_is_an_error_not_an_abort() {
        let mut m = Module::new();
        let g = m.add_global("g", Type::F64, 1);
        let mem = Memory::for_module(&m);
        let base = mem.global_addr(g);
        assert_eq!(mem.try_read(Type::Void, base), Err(TypeError::LoadVoid));
    }
}
