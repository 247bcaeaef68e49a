//! # dae-runtime — task-based runtime with per-phase DVFS
//!
//! The runtime system of §3.1 of the CGO 2014 DAE paper, simulated in
//! deterministic virtual time: per-core task deques with **work stealing**,
//! the **access phase executed immediately before the execute phase on the
//! same core** (so the private caches stay warm), per-phase **DVFS**
//! (naive min/max and exhaustive optimal-EDP policies), transition-latency
//! accounting, and the O.S.I. (overhead / sequential / idle) bookkeeping
//! that Figure 4 stacks.
//!
//! One routine runs, prices and charges every phase and, when a sink or a
//! governor observes the run, builds one [`dae_trace::PhaseRecord`] of it,
//! which the trace event, the governor's feedback and (through the sink)
//! PGO samples all read; debug builds assert time and energy conservation
//! at the end of every run.
//! [`module_instances`] is the whole-module task list `daec` and `daed` run.
//!
//! Every run can stream event-level evidence — task/phase spans, DVFS
//! transitions, per-core idle gaps — into a [`dae_trace::TraceSink`]
//! passed in [`RunHooks`] to [`run_workload_with`], the one scheduler
//! entry point; [`run_workload`] is its zero-cost no-hooks shorthand.
//!
//! Frequencies can also be chosen **online**: [`FreqPolicy::Governed`]
//! routes every task through a `dae-governor` policy (miss-ratio heuristic
//! or EDP bandit) that learns per-task-class operating points from the
//! feedback the scheduler already produces, and [`RunHooks::governor`]
//! lets a caller keep the learned state across runs.
//!
//! # Examples
//!
//! ```no_run
//! use dae_runtime::{run_workload, FreqPolicy, RuntimeConfig, TaskInstance};
//! use dae_sim::Val;
//! # let module = dae_ir::Module::new();
//! # let exec = dae_ir::FuncId(0);
//! # let access = dae_ir::FuncId(1);
//!
//! let tasks: Vec<TaskInstance> =
//!     (0..64).map(|k| TaskInstance::decoupled(exec, access, vec![Val::I(k * 512)])).collect();
//! let cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeOptimal);
//! let report = run_workload(&module, &tasks, &cfg)?;
//! println!("time {:.3} ms, EDP {:.3e}", report.time_s * 1e3, report.edp());
//! # Ok::<(), dae_sim::InterpError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod config;
mod lease;
pub(crate) mod report;
pub(crate) mod sched;

pub use config::{FreqPolicy, RuntimeConfig};
pub use dae_governor::GovernorKind;
pub use dae_sim::EngineKind;
pub use report::{Breakdown, ClassReport, GovernorReport, RunReport};
pub use sched::{module_instances, run_workload, run_workload_with, RunHooks, TaskInstance};
