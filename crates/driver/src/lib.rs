//! dae-driver: the parallel, incrementally-cached compilation pipeline
//! manager.
//!
//! The crate sits between the front end (a [`dae_ir::Module`] full of
//! tasks) and the per-task generators in `dae-core`, and owns *how* the
//! module gets compiled rather than *what* is generated:
//!
//! * [`pass`] — the pass manager: a named [`Pipeline`] of [`Pass`]es
//!   with per-pass timing and analysis invalidation; the standard
//!   pipeline reproduces
//!   [`dae_core::generate_access`] stage by stage.
//! * [`hash`] — stable FNV-1a-64 structural keys over a task's IR, its
//!   transitive callees, the module's global declarations, the compiler
//!   options, and the pipeline fingerprint.
//! * [`cache`] — the content-addressed artifact cache: an in-memory LRU
//!   tier plus an optional on-disk tier storing printed IR, so warm
//!   recompiles skip the polyhedral analysis entirely.
//! * [`driver`] — the parallel executor: a `std::thread::scope` worker
//!   pool over cache misses with a deterministic task-order merge, so the
//!   output module is **bit-identical at any `--jobs` count** — and to
//!   the sequential [`dae_core::transform_module`] path — cold or warm.
//!
//! Timing is reported as [`PassSpan`]s and can be forwarded to a
//! `dae-trace` sink ([`emit_spans`]) as `CompilePass` events for the
//! Chrome-trace and summary exporters.

#![warn(missing_docs)]

pub mod cache;
pub mod driver;
pub mod hash;
pub mod pass;

pub use cache::{artifact_approx_bytes, Artifact, Cache, CacheStats, InfoSummary, ARTIFACT_SCHEMA};
pub use driver::{emit_spans, CompileOutcome, Driver, DriverConfig};
pub use hash::{refined_key, task_key};
pub use pass::{Pass, PassSpan, Pipeline, TaskState};
