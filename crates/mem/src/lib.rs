//! # dae-mem — set-associative multi-level cache simulation
//!
//! The memory-hierarchy substrate of the CGO 2014 DAE reproduction: private
//! L1/L2 per core over a shared LLC, with LRU replacement and inclusive
//! fills, mirroring the quad-core Sandybridge the paper measures on.
//!
//! Data values are *not* stored here — the IR interpreter in `dae-sim` owns
//! a flat byte memory; this crate only answers "which level served this
//! address" so the timing model can charge the right latency, and so the
//! decoupled access-execute warm-up effect (prefetch in the access phase →
//! L1/L2 hits in the execute phase) emerges structurally.
//!
//! # Examples
//!
//! ```
//! use dae_mem::{CoreCaches, HierarchyConfig, HitLevel, SharedLlc};
//!
//! let cfg = HierarchyConfig::default();
//! let mut llc = SharedLlc::new(cfg.llc);
//! let mut core = CoreCaches::new(&cfg);
//!
//! assert_eq!(core.access(&mut llc, 0x1000), HitLevel::Memory);
//! assert_eq!(core.access(&mut llc, 0x1000), HitLevel::L1);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod cache;
pub(crate) mod hierarchy;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{CoreCaches, HierarchyConfig, HitLevel, SharedLlc};
