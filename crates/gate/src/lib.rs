//! # dae-gate — a sharded, fault-tolerant gateway over a fleet of `daed`s
//!
//! A std-only TCP front end that speaks the exact `daed` wire protocol
//! (newline-delimited JSON) and fans requests out over a fleet of `daed`
//! backends. One binary ships on top: `daeg`.
//!
//! The moving parts, one module each:
//!
//! * `ring` — consistent-hash routing on the backends' own
//!   response-cache key ([`dae_serve::request_key`]): warm requests land
//!   on the backend that memoised them, so fleet cache capacity *adds*
//!   instead of overlapping, and ejections only remap the ejected
//!   backend's keys.
//! * `backend` — one backend as the gateway sees it: an exclusive-
//!   checkout connection pool, the Up → Ejected → HalfOpen health state
//!   machine, and per-backend counters.
//! * `gateway` — the daemon: reader threads, a bounded admission queue
//!   (shed with `gate.overloaded`, drain with `gate.draining`), router
//!   threads (or a reader forwarding its own frame) doing bounded-load
//!   spill, capped-exponential-backoff retries
//!   on a *different* backend and deadline-budget propagation.
//! * `metrics` — aggregate counters/histograms behind `stats`
//!   (`dae-gate-stats/3`) and the stable `gate.*` error-code vocabulary.
//! * `fault` — a deterministic in-process fault-injection proxy
//!   (drop/delay/close/garble/truncate, seeded) for tests.
//!
//! # Contract
//!
//! Successful responses pass through from the backend **verbatim** — a
//! fleet behind `daeg` is byte-identical to one fresh engine. Failures
//! the gateway absorbs (crashed backend, garbled frame, timeout) surface
//! only as retries in `stats`; failures it cannot absorb answer
//! with a stable dotted `gate.*` code, never silence.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod backend;
pub(crate) mod fault;
pub(crate) mod gateway;
pub(crate) mod metrics;
pub(crate) mod ring;

pub use fault::{FaultPlan, FaultProxy};
pub use gateway::{GateConfig, Gateway};
pub use ring::Ring;
