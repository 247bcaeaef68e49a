//! # dae-sim — IR interpreter and out-of-order interval timing model
//!
//! The "hardware" of the CGO 2014 DAE reproduction. The paper measures on a
//! quad-core Sandybridge; this crate substitutes a deterministic simulator
//! with the one property the paper's argument rests on: **core time scales
//! with frequency, memory time does not**.
//!
//! * [`memory::Memory`] — flat byte-addressed memory holding the module's
//!   globals (64-byte aligned),
//! * [`interp::Machine`] — executes IR functions, drives a
//!   [`dae_mem::CoreCaches`]/[`dae_mem::SharedLlc`] pair, and records a
//!   [`timing::PhaseTrace`],
//! * [`timing::PhaseTrace`] — evaluates phase time/IPC at any frequency:
//!   issue-limited core cycles, dependence-aware DRAM miss overlap (MLP),
//!   and a bandwidth floor for non-blocking prefetch traffic.
//!
//! One execution yields a trace evaluable at *every* frequency — the
//! simulator's deterministic analogue of the paper's §3.1 methodology of
//! profiling each application at all available frequencies.
//!
//! # Examples
//!
//! ```
//! use dae_ir::{FunctionBuilder, Module, Type, Value};
//! use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
//! use dae_sim::{CachePort, Machine, PhaseTrace, TimingConfig, Val};
//!
//! let mut module = Module::new();
//! let a = module.add_global("a", Type::F64, 1024);
//! let mut b = FunctionBuilder::new("touch", vec![Type::I64], Type::Void);
//! b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
//!     let addr = b.elem_addr(Value::Global(a), i, Type::F64);
//!     let _ = b.load(Type::F64, addr);
//! });
//! b.ret(None);
//! module.add_function(b.finish());
//!
//! let cfg = HierarchyConfig::default();
//! let mut llc = SharedLlc::new(cfg.llc);
//! let mut core = CoreCaches::new(&cfg);
//! let mut machine = Machine::new(&module);
//! let mut trace = PhaseTrace::default();
//! let f = module.func_by_name("touch").unwrap();
//! machine.run(f, &[Val::I(1024)], &mut CachePort { core: &mut core, llc: &mut llc }, &mut trace)?;
//!
//! let t = TimingConfig::default();
//! assert!(trace.time_s(3.4e9, &t) > 0.0);
//! # Ok::<(), dae_sim::InterpError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod interp;
pub(crate) mod memory;
pub(crate) mod timing;
pub(crate) mod vm;

pub use interp::{CachePort, InterpConfig, InterpError, Machine};
pub use memory::{Memory, Val};
pub use timing::{DemandMiss, PhaseTrace, TimingConfig};
pub use vm::{EngineKind, LowerSpan};
