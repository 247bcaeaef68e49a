//! # dae-core — automatic access-phase generation (the paper's contribution)
//!
//! Implements the compiler transformation of *"Fix the code. Don't tweak
//! the hardware: A new compiler approach to Voltage-Frequency scaling"*
//! (CGO 2014): given a task (an IR function marked `is_task`), generate a
//! lightweight, memory-bound **access phase** that prefetches the task's
//! data so the unmodified **execute phase** runs compute-bound on a warm
//! cache — letting the runtime drop frequency for the access phase and
//! raise it for the execute phase.
//!
//! Two generation strategies, selected automatically:
//!
//! * `affine::generate_affine_access` (§5.1) — for tasks whose memory
//!   accesses are affine in counted-loop IVs and task parameters: computes
//!   per-instruction access sets, their union, the convex hull, the
//!   `NconvUn <= NOrig` profitability check, parameter classes, nest
//!   merging, and emits a *minimal-depth* prefetch loop nest.
//! * `skeleton::generate_skeleton_access` (§5.2) — for everything else:
//!   clone the inlined task, simplify the CFG (drop in-loop conditionals),
//!   accompany loads with prefetches, discard stores, and let DCE slice the
//!   task down to address computation and loop control.
//!
//! [`generate_access`] is the one sequence that picks between them, in the
//! stages [`STAGES`] names: inline the task once, run the `-O3`-style
//! cleanup, `refine` (a caller's step: [`generate_access_with`] takes it,
//! and the driver fills it from a measured profile), analyze, generate.
//!
//! The paper's safety conditions are enforced: non-inlinable (recursive)
//! calls refuse generation, as does access-phase control flow that would
//! consume memory the task writes.
//!
//! # Examples
//!
//! ```
//! use dae_core::{generate_access, CompilerOptions, Strategy};
//! use dae_ir::{FunctionBuilder, Module, Type, Value};
//!
//! let mut module = Module::new();
//! let a = module.add_global("a", Type::F64, 4096);
//! // The task scales a 512-element chunk starting at its argument.
//! let mut b = FunctionBuilder::new("scale", vec![Type::I64], Type::Void);
//! b.set_task();
//! b.counted_loop(Value::i64(0), Value::i64(512), Value::i64(1), |b, i| {
//!     let idx = b.iadd(Value::Arg(0), i);
//!     let p = b.elem_addr(Value::Global(a), idx, Type::F64);
//!     let v = b.load(Type::F64, p);
//!     let w = b.fmul(v, 3.0f64);
//!     b.store(p, w);
//! });
//! b.ret(None);
//! let task = module.add_function(b.finish());
//!
//! let opts = CompilerOptions { param_hints: vec![0], ..Default::default() };
//! let access = generate_access(&module, task, &opts)?;
//! assert!(matches!(access.strategy, Strategy::Polyhedral(_)));
//! # Ok::<(), dae_core::RefuseReason>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod access_info;
pub(crate) mod affine;
pub(crate) mod dedup;
pub(crate) mod generate;
pub(crate) mod options;
pub(crate) mod skeleton;

pub use access_info::AccessCounts;
pub use generate::{
    generate_access, generate_access_with, transform_module, DaeMap, GeneratedAccess, STAGES,
};
pub use options::{AffineStats, CompilerOptions, RefuseReason, Strategy};
