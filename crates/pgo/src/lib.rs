//! # dae-pgo — persistent profiles and profile-guided phase refinement
//!
//! The paper's compiler decides access-phase shape purely statically:
//! §5.1 gates the affine scan on a *predicted* instruction count and §5.2
//! prefetches every load the skeleton slice can reach. This crate closes
//! the loop the way production compilers do — with persistent PGO:
//!
//! * `profile` — the [`PhaseProfile`] record: per-task access/execute
//!   phase counters (miss ratios, prefetch coverage and accuracy, branch
//!   and trip-count totals, memory-level parallelism, measured
//!   memory-boundedness) assembled from the simulator's existing
//!   [`PhaseTrace`](dae_trace) counters and merged across runs with
//!   deterministic saturating aggregation.
//! * [`store`] — the corruption-tolerant, versioned on-disk store keyed
//!   by the driver's `task_key`: a malformed record is skipped and
//!   counted, never a panic; an in-memory LRU mirror bounds residency.
//! * `refine` — the pure decision function behind the `refine` stage of
//!   the driver's access-generation sequence: given a profile it prunes
//!   redundant prefetches (line-granularity dedup when measured accuracy
//!   is low), drops access phases whose measured coverage shows them
//!   useless, flips the §5.1 profitability verdict when measured
//!   boundedness contradicts the static estimate, and synthesises
//!   trip-count hints for unhinted parameters. Deterministic given the
//!   same profile.
//!
//! Everything is content-addressed: [`PhaseProfile::content_hash`] folds
//! into the driver's cache key, so a refined artifact can never go stale
//! against the profile that shaped it, and an **empty profile leaves the
//! pipeline byte-identical** to the static one.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod profile;
pub(crate) mod refine;
pub mod store;

pub use profile::{PhaseAgg, PhaseProfile, PhaseSample, ProfileCollector, ProfileSet};
pub use refine::{plan_refinement, RefinePlan};
pub use store::{ProfileStore, StoreStats};

/// Stable schema tag of every profile document this crate reads or writes.
pub(crate) const PROFILE_SCHEMA: &str = "dae-pgo-profile/1";

/// Stable machine-readable error codes of the profile layer.
pub mod codes {
    /// A profile file is not parseable JSON at all.
    pub const PARSE: &str = "pgo.parse";
    /// A profile file parsed but carries the wrong (or no) schema tag.
    pub const SCHEMA: &str = "pgo.schema";
    /// The filesystem refused a profile read or write.
    pub const IO: &str = "pgo.io";
}

/// An error from the profile layer, with a stable dotted `pgo.*` code.
#[derive(Debug)]
pub struct PgoError {
    code: &'static str,
    message: String,
}

impl PgoError {
    /// An error with the given code and human-readable message.
    pub(crate) fn new(code: &'static str, message: impl Into<String>) -> PgoError {
        PgoError { code, message: message.into() }
    }
}

impl std::fmt::Display for PgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PgoError {}

impl dae_ir::CodedError for PgoError {
    fn code(&self) -> &'static str {
        self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::CodedError as _;

    #[test]
    fn error_codes_are_dotted_and_pgo_scoped() {
        for c in [codes::PARSE, codes::SCHEMA, codes::IO] {
            assert!(c.starts_with("pgo."), "{c}");
            assert!(!c.contains(' '));
        }
        let e = PgoError::new(codes::PARSE, "bad byte");
        assert_eq!(e.code(), "pgo.parse");
        assert_eq!(e.to_string(), "bad byte");
    }
}
