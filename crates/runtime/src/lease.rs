//! The cache-model state of a run, leased from the thread that runs it.
//!
//! A Sandybridge-sized hierarchy is 1.2 MiB of slot arrays; building one per
//! run cost more than simulating a few thousand steps does. A thread that
//! has simulated therefore keeps one hierarchy parked between runs. The
//! invariant that makes this invisible: what is parked is always in the
//! state `new` gives ([`SharedLlc::reset`], [`CoreCaches::reset`] — `dae-mem`
//! checks that equivalence differentially), so a run cannot tell a leased
//! hierarchy from a fresh one.

use crate::config::RuntimeConfig;
use dae_mem::{CoreCaches, HierarchyConfig, SharedLlc};
use std::cell::Cell;

/// One shared LLC and one private hierarchy per simulated core.
pub(crate) struct Hierarchy {
    geometry: HierarchyConfig,
    pub(crate) llc: SharedLlc,
    pub(crate) cores: Vec<CoreCaches>,
}

thread_local! {
    static PARKED: Cell<Option<Hierarchy>> = const { Cell::new(None) };
}

impl Hierarchy {
    /// The thread's parked hierarchy when it has the geometry and core
    /// count `cfg` asks for, a fresh one otherwise.
    pub(crate) fn lease(cfg: &RuntimeConfig) -> Hierarchy {
        match PARKED.take() {
            Some(h) if h.geometry == cfg.hierarchy && h.cores.len() == cfg.cores => h,
            _ => Hierarchy {
                geometry: cfg.hierarchy,
                llc: SharedLlc::new(cfg.hierarchy.llc),
                cores: (0..cfg.cores).map(|_| CoreCaches::new(&cfg.hierarchy)).collect(),
            },
        }
    }

    /// Resets the hierarchy and parks it for the thread's next run. Called
    /// on every return path of a run and from no destructor: a run that
    /// unwinds drops its hierarchy, so state a panic interrupted is never
    /// leased again.
    pub(crate) fn park(mut self) {
        self.llc.reset();
        self.cores.iter_mut().for_each(CoreCaches::reset);
        PARKED.set(Some(self));
    }
}

/// Whether this thread has a hierarchy parked.
#[cfg(test)]
pub(crate) fn parked() -> bool {
    let h = PARKED.take();
    let parked = h.is_some();
    PARKED.set(h);
    parked
}
