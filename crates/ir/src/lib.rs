//! # dae-ir — a small typed SSA intermediate representation
//!
//! This crate is the LLVM-IR stand-in for the CGO 2014 reproduction
//! *"Fix the code. Don't tweak the hardware"*. It provides exactly the IR
//! surface the decoupled access-execute (DAE) compiler transformation needs:
//!
//! * a typed SSA IR with **block parameters** instead of phi nodes (which
//!   makes the clone-and-slice transformation of the paper's §5.2 trivial),
//! * an explicit [`inst::InstKind::Prefetch`] instruction modelling the x86
//!   `prefetcht0` hint the paper lowers loads to,
//! * functions markable as **tasks** — the unit the DAE runtime schedules,
//! * a [`FunctionBuilder`] with structured-loop helpers used to express the
//!   seven evaluation benchmarks,
//! * a printer ([`print_function_into`], and its [`print_function`] and
//!   [`print_module`] wrappers), a text parser
//!   ([`parse::parse_module`]) and a structural verifier
//!   ([`verify_function`], [`verify_module`]).
//!
//! Analyses (dominators, loops, scalar evolution) live in `dae-analysis`; the
//! interpreter and timing model live in `dae-sim`.
//!
//! # Examples
//!
//! ```
//! use dae_ir::{FunctionBuilder, Module, Type, Value, verify_module};
//!
//! let mut module = Module::new();
//! let a = module.add_global("a", Type::F64, 1024);
//!
//! // task fn sum_a(n: i64) { for i in 0..n { touch a[i] } }
//! let mut b = FunctionBuilder::new("sum_a", vec![Type::I64], Type::Void);
//! b.set_task();
//! b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
//!     let addr = b.elem_addr(Value::Global(a), i, Type::F64);
//!     let _ = b.load(Type::F64, addr);
//! });
//! b.ret(None);
//! module.add_function(b.finish());
//!
//! verify_module(&module)?;
//! # Ok::<(), dae_ir::VerifyError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

#[macro_use]
pub mod entity;
pub(crate) mod builder;
pub(crate) mod error;
pub(crate) mod function;
pub(crate) mod inst;
pub(crate) mod module;
pub mod parse;
pub(crate) mod print;
pub(crate) mod types;
pub(crate) mod value;
pub(crate) mod verify;

pub use builder::FunctionBuilder;
pub use error::CodedError;
pub use function::{BlockData, Function, InstData};
pub use inst::{BinOp, BlockCall, CmpOp, InstKind, Terminator, UnOp};
pub use module::{GlobalData, GlobalInit, Module};
pub use print::{print_function, print_function_into, print_module};
pub use types::Type;
pub use value::{BlockId, FuncId, GlobalId, InstId, Value};
pub use verify::{verify_function, verify_module, VerifyError};
