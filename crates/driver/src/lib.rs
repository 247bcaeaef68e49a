//! dae-driver: the parallel, incrementally-cached compilation driver.
//!
//! The crate sits between the front end (a [`dae_ir::Module`] full of
//! tasks) and the access-phase generator in `dae-core`, and owns *how* the
//! module gets compiled rather than *what* is generated. Every task goes
//! through the one sequence [`dae_core::generate_access_with`]; the driver
//! fills its `refine` step from a measured profile and times its stages.
//!
//! * `hash` — stable FNV-1a-64 structural keys over a task's IR, its
//!   transitive callees, the module's global declarations, the compiler
//!   options, and the [`Pipeline`] fingerprint (the identity of the stage
//!   sequence and the artifact schema).
//! * `cache` — the content-addressed artifact cache: an in-memory LRU
//!   tier plus an optional on-disk tier storing printed IR, so warm
//!   recompiles skip the polyhedral analysis entirely.
//! * `driver` — the parallel executor: the calling thread plus
//!   `std::thread::scope` workers over cache misses with a deterministic
//!   task-order merge, so the output module is **bit-identical at any
//!   `--jobs` count** — and to the sequential
//!   [`dae_core::transform_module`] path — cold or warm.
//!
//! Timing is reported as one [`PassSpan`] per stage (or cache hit) and can
//! be forwarded to a `dae-trace` sink ([`emit_spans`]) as `CompilePass`
//! events for the Chrome-trace exporter.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod cache;
pub(crate) mod driver;
pub(crate) mod hash;

pub use cache::{Cache, CacheStats};
pub use driver::{emit_spans, CompileOutcome, Driver, DriverConfig, PassSpan, TaskKeys};
pub use hash::{task_key, Pipeline};
