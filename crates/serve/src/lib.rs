//! # dae-serve — the concurrent compile-and-simulate service
//!
//! A std-only TCP daemon that accepts untrusted DAE IR text over
//! newline-delimited JSON and serves five request types: `compile`,
//! `report`, `run` (the work ops), plus `stats` and `health` (control
//! ops), with `shutdown` starting a graceful drain. Two binaries ship on
//! top: `daed` (the daemon) and `dae-load` (a deterministic seeded load
//! generator for a running daemon).
//!
//! The moving parts, one module each:
//!
//! * [`proto`] — the wire protocol: framing, request validation, the
//!   stable `serve.*` error-code vocabulary, and the determinism contract
//!   (successful response bytes never depend on cache temperature, worker
//!   count or queue state).
//! * `queue` — the bounded admission queue: full means *shed now* with
//!   `serve.overloaded`, never buffer-and-pray; closed means *drain*.
//! * `engine` — the shared executor: one `dae-driver` (one incremental
//!   cache) behind a mutex for compiles, simulation outside any lock,
//!   input hardening (global-data cap, frame cap, panic containment).
//! * [`front`] — the NDJSON/TCP front end, shared with `dae-gate`:
//!   per-connection reader threads, admission, a worker pool, per-request
//!   deadlines, graceful drain on `shutdown`/SIGTERM.
//! * `server` — the daemon: what `daed` plugs into the front end
//!   (control-op bodies, the response-cache fast path, the work function).
//! * `metrics` — counters and log-bucketed latency histograms behind the
//!   `stats` endpoint.
//! * [`load`] — the seeded load generator.
//!
//! # Protocol at a glance
//!
//! ```text
//! $ printf '{"id":1,"op":"health"}\n' | nc 127.0.0.1 7777
//! {"id":1,"ok":true,"result":{"schema":"dae-serve-health/6","status":"ok",...}}
//! ```
//!
//! Work requests carry the IR inline and answer with either a `result`
//! (printed module, strategy report, or run report in deterministic
//! virtual time) or a structured `error` with a stable machine-readable
//! `code` — the server never drops a frame silently and never panics on
//! adversarial input.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod engine;
pub mod front;
pub mod load;
pub(crate) mod metrics;
pub mod proto;
pub(crate) mod queue;
pub(crate) mod server;

pub use dae_sim::EngineKind;
pub use dae_trace::Fnv64;
pub use engine::{request_key, Engine, EngineConfig};
pub use front::install_signal_drain;
pub use load::{run_load, LoadConfig, LoadReport, Mix};
pub use proto::{
    codes, err_response, ok_response_raw, parse_request, ErrorBody, Op, Request, MAX_FRAME_BYTES,
};
pub use server::{Server, ServerConfig};
