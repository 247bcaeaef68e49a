//! # dae-trace — event-level tracing & metrics for the DAE stack
//!
//! The paper's evaluation (§6, Figs. 3–4, Table 1) rests on *per-phase*
//! timing: access vs execute duration, DVFS transition overhead and idle
//! time per core. End-of-run aggregates (`RunReport`) cannot answer "which
//! task instance blew the makespan" or "where did the O.S.I. time go" —
//! this crate can. It is the observability backbone of the repository:
//!
//! * [`TraceEvent`] — the structured event model: phase spans (access /
//!   execute) with per-phase counter snapshots, task-dispatch overhead,
//!   DVFS transitions with from/to frequency, and per-core idle gaps, all
//!   stamped in virtual seconds;
//! * [`TraceSink`] — the producer-side trait. [`NullSink`] is the
//!   zero-cost default (producers skip event construction entirely when
//!   [`TraceSink::is_enabled`] is `false`); [`Recorder`] captures events
//!   in memory for export;
//! * [`chrome::chrome_trace_json`] — Chrome Trace Event JSON, loadable in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`: one lane
//!   per simulated core plus counter tracks for per-core frequency and
//!   cumulative energy;
//! * [`summary::summary_json`] — a compact aggregate schema suitable for
//!   `BENCH_*.json` trajectory files;
//! * [`json`] — the dependency-free ordered JSON tree, writer and strict
//!   parser the exporters (and the rest of the workspace) build on.
//!
//! As the zero-dependency leaf every other crate already reaches, it also
//! owns the workspace's shared primitives, one of each: [`lru`] (the
//! byte-bounded LRU), [`fnv`] (the stable content hash), [`rng`] (the
//! seeded SplitMix64), [`sync`] (poison-tolerant locking) and [`fs`] (the
//! atomic temp-file-and-rename write).
//!
//! # Examples
//!
//! ```
//! use dae_trace::{chrome, NullSink, PhaseCounters, PhaseKind, Recorder, TraceEvent, TraceSink};
//!
//! let mut rec = Recorder::new(2);
//! assert!(rec.is_enabled());
//! rec.record(TraceEvent::Phase {
//!     core: 0,
//!     task: 0,
//!     name: "stream__access".into(),
//!     kind: PhaseKind::Access,
//!     start_s: 0.0,
//!     dur_s: 1e-6,
//!     freq_ghz: 1.6,
//!     dyn_energy_j: 2e-6,
//!     static_energy_j: 1e-6,
//!     counters: PhaseCounters { instrs: 640, prefetches: 64, ..Default::default() },
//! });
//! let json = chrome::chrome_trace_json(&rec);
//! assert!(json.contains("traceEvents"));
//!
//! // The default sink records nothing and costs nothing.
//! assert!(!NullSink.is_enabled());
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod fnv;
pub mod fs;
pub mod hist;
pub mod json;
pub mod lru;
pub mod rng;
pub mod sink;
pub mod summary;
pub mod sync;

pub use event::{PhaseCounters, PhaseKind, TraceEvent};
pub use fnv::Fnv64;
pub use fs::write_atomic;
pub use hist::LogHistogram;
pub use lru::Lru;
pub use rng::SplitMix64;
pub use sink::{NullSink, Recorder, TraceSink};
pub use sync::lock_recover;
