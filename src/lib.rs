//! # dae-repro — reproduction of *"Fix the code. Don't tweak the hardware"*
//!
//! A from-scratch Rust implementation of the CGO 2014 paper by Jimborean,
//! Koukos, Spiliopoulos, Black-Schaffer and Kaxiras: a compiler that
//! automatically splits task-based programs into a memory-bound **access
//! phase** (prefetching, run at low frequency) and a compute-bound
//! **execute phase** (the original task, run at high frequency on a warm
//! cache), maximising what DVFS can deliver.
//!
//! This crate is the workspace façade: it re-exports every layer so
//! examples and downstream users need a single dependency.
//!
//! | crate | role |
//! |---|---|
//! | [`ir`] | typed SSA IR with prefetch (LLVM-IR stand-in) |
//! | [`analysis`] | CFG/dominators/loops/SCEV + transforms (LLVM passes) |
//! | [`poly`] | exact polyhedral library (PolyLib stand-in) |
//! | [`compiler`] | §5 access-phase generation — the paper's contribution |
//! | [`driver`] | parallel, incrementally-cached compilation pipeline manager |
//! | [`mem`] | Sandybridge-like cache hierarchy |
//! | [`power`] | the §3.2 DVFS power/energy/EDP model |
//! | [`sim`] | IR interpreter + OoO interval timing model |
//! | [`runtime`] | task runtime: work stealing + per-phase DVFS |
//! | [`governor`] | online profiling-guided per-phase DVFS governor |
//! | [`pgo`] | persistent phase profiles + profile-guided refinement |
//! | [`serve`] | concurrent compile-and-simulate network service (`daed`) |
//! | [`gate`] | sharded, fault-tolerant gateway over a `daed` fleet (`daeg`) |
//! | [`trace`] | event-level tracing: Perfetto/Chrome-trace + summary JSON |
//! | [`workloads`] | the seven evaluation benchmarks |
//!
//! [`model`] regenerates the paper's evaluation (Table 1, Figs. 3–4,
//! ablations, governor and PGO studies) as one `dae-model/1` document —
//! the `dae-repro` binary.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for paper-vs-measured numbers.
//!
//! # Examples
//!
//! ```
//! use dae_repro::compiler::{generate_access, CompilerOptions, Strategy};
//! use dae_repro::ir::{FunctionBuilder, Module, Type, Value};
//!
//! let mut module = Module::new();
//! let a = module.add_global("a", Type::F64, 4096);
//! let mut b = FunctionBuilder::new("touch_chunk", vec![Type::I64], Type::Void);
//! b.set_task();
//! b.counted_loop(Value::i64(0), Value::i64(256), Value::i64(1), |b, i| {
//!     let idx = b.iadd(Value::Arg(0), i);
//!     let p = b.elem_addr(Value::Global(a), idx, Type::F64);
//!     let v = b.load(Type::F64, p);
//!     let w = b.fadd(v, 1.0f64);
//!     b.store(p, w);
//! });
//! b.ret(None);
//! let task = module.add_function(b.finish());
//!
//! let opts = CompilerOptions { param_hints: vec![0], ..Default::default() };
//! let access = generate_access(&module, task, &opts)?;
//! assert!(matches!(access.strategy, Strategy::Polyhedral(_)));
//! # Ok::<(), dae_repro::compiler::RefuseReason>(())
//! ```

#![warn(missing_docs)]

pub mod model;

pub use dae_analysis as analysis;
pub use dae_core as compiler;
pub use dae_driver as driver;
pub use dae_gate as gate;
pub use dae_governor as governor;
pub use dae_ir as ir;
pub use dae_mem as mem;
pub use dae_pgo as pgo;
pub use dae_poly as poly;
pub use dae_power as power;
pub use dae_runtime as runtime;
pub use dae_serve as serve;
pub use dae_sim as sim;
pub use dae_trace as trace;
pub use dae_workloads as workloads;
