//! The per-class decision cache shared by all learning governors.
//!
//! Tracks one [`ClassEntry`] per observed [`TaskClass`]: policy-specific
//! learning state `S`, observation counts, convergence status and the
//! **safety guard**. The guard watches the fraction of task time spent in
//! the access phase; when a class overshoots the configured budget its
//! entry is pinned to the `DaeMinMax` fallback — the paper's safe default
//! — and is never evicted, so a pathological class can never be re-learned
//! into a bad operating point after cache pressure.
//!
//! Storage is a `BTreeMap` keyed by `TaskClass` (ordered, deterministic
//! iteration) — the governor must never introduce iteration-order
//! nondeterminism into the virtual-time scheduler.

use crate::class::TaskClass;
use crate::obs::TaskObs;
use dae_power::FreqId;
use std::collections::BTreeMap;

/// Tuning knobs of the decision cache and its safety guard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of unguarded classes tracked at once; beyond it the
    /// least-recently-touched unguarded entry is evicted. Guarded entries
    /// are exempt (losing one would lose the safety fallback).
    pub capacity: usize,
    /// Guard budget: maximum acceptable mean fraction of task time spent
    /// in the access phase. §5 of the paper keeps access overhead low by
    /// construction; a class whose access phase dominates the task is not
    /// profiting from decoupling and gets pinned to min/max frequencies.
    pub access_budget: f64,
    /// Observations of a class required before the guard may trip (one
    /// noisy first sample must not pin a class forever).
    pub guard_min_obs: u64,
    /// Consecutive identical decisions after which a class counts as
    /// converged.
    pub stable_after: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 64, access_budget: 0.6, guard_min_obs: 3, stable_after: 8 }
    }
}

/// Cached learning state and statistics of one task class.
#[derive(Clone, Debug)]
pub(crate) struct ClassEntry<S> {
    /// Policy-specific learning state.
    pub state: S,
    /// Completed-task observations of this class.
    pub observations: u64,
    /// Decisions flagged as exploratory.
    pub explored: u64,
    /// True once the safety guard pinned this class to the fallback.
    pub guarded: bool,
    /// True once the policy's decisions stabilised.
    pub converged: bool,
    /// Consecutive identical (access, execute) decisions so far.
    pub stable_decisions: u32,
    /// The most recent (access, execute) frequency decision.
    pub last_decision: Option<(FreqId, FreqId)>,
    /// Running mean of the task-time fraction spent in the access phase.
    pub mean_access_frac: f64,
    /// Running mean of the per-task energy-delay product.
    pub mean_task_edp: f64,
    /// LRU stamp (cache-internal).
    last_touch: u64,
}

impl<S: Default> ClassEntry<S> {
    fn new(touch: u64) -> Self {
        ClassEntry {
            state: S::default(),
            observations: 0,
            explored: 0,
            guarded: false,
            converged: false,
            stable_decisions: 0,
            last_decision: None,
            mean_access_frac: 0.0,
            mean_task_edp: 0.0,
            last_touch: touch,
        }
    }
}

impl<S> ClassEntry<S> {
    /// Records a decision and updates the convergence tracker: after
    /// `stable_after` consecutive identical decisions the class counts as
    /// converged (a governor may use that to freeze exploration).
    pub(crate) fn note_decision(&mut self, access: FreqId, execute: FreqId, stable_after: u32) {
        let same = self.last_decision == Some((access, execute));
        self.stable_decisions = if same { self.stable_decisions + 1 } else { 0 };
        self.last_decision = Some((access, execute));
        if self.stable_decisions >= stable_after {
            self.converged = true;
        }
    }
}

/// LRU-with-pinning map from [`TaskClass`] to [`ClassEntry`].
#[derive(Clone, Debug)]
pub(crate) struct DecisionCache<S> {
    entries: BTreeMap<TaskClass, ClassEntry<S>>,
    cfg: CacheConfig,
    tick: u64,
}

impl<S: Default> DecisionCache<S> {
    /// An empty cache with the given configuration.
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        DecisionCache { entries: BTreeMap::new(), cfg, tick: 0 }
    }

    /// The entry of `class`, inserted fresh (evicting if necessary) when
    /// absent; the LRU stamp is refreshed either way.
    pub(crate) fn entry(&mut self, class: TaskClass) -> &mut ClassEntry<S> {
        self.tick += 1;
        let tick = self.tick;
        if !self.entries.contains_key(&class) && self.unguarded_len() >= self.cfg.capacity {
            self.evict_lru_unguarded();
        }
        let e = self.entries.entry(class).or_insert_with(|| ClassEntry::new(tick));
        e.last_touch = tick;
        e
    }

    /// Read-only lookup without touching LRU state.
    #[cfg(test)]
    fn get(&self, class: TaskClass) -> Option<&ClassEntry<S>> {
        self.entries.get(&class)
    }

    /// Iterates entries in deterministic (class-ordered) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&TaskClass, &ClassEntry<S>)> {
        self.entries.iter()
    }

    /// Policy-independent bookkeeping after one completed task: updates
    /// observation count and running means, then re-evaluates the safety
    /// guard. Returns the entry so the caller can update its own state.
    pub(crate) fn observe_common(&mut self, class: TaskClass, obs: &TaskObs) -> &mut ClassEntry<S> {
        let budget = self.cfg.access_budget;
        let min_obs = self.cfg.guard_min_obs;
        let e = self.entry(class);
        e.observations += 1;
        let n = e.observations as f64;
        e.mean_access_frac += (obs.access_frac() - e.mean_access_frac) / n;
        e.mean_task_edp += (obs.edp() - e.mean_task_edp) / n;
        if !e.guarded && e.observations >= min_obs && e.mean_access_frac > budget {
            e.guarded = true;
            e.converged = false;
        }
        e
    }

    fn unguarded_len(&self) -> usize {
        self.entries.values().filter(|e| !e.guarded).count()
    }

    fn evict_lru_unguarded(&mut self) {
        // Guarded entries are pinned: evicting one would forget that the
        // class must run on the safety fallback.
        if let Some(class) = self
            .entries
            .iter()
            .filter(|(_, e)| !e.guarded)
            .min_by_key(|(_, e)| e.last_touch)
            .map(|(c, _)| *c)
        {
            self.entries.remove(&class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::phase;
    use dae_ir::FuncId;

    fn class(n: u32) -> TaskClass {
        TaskClass { func: FuncId(n), sig: 0 }
    }

    fn task_obs(access_s: f64, execute_s: f64) -> TaskObs {
        TaskObs { access: Some(phase(access_s, 1.0)), execute: phase(execute_s, 1.0) }
    }

    #[test]
    fn convergence_after_n_identical_decisions() {
        let cfg = CacheConfig { stable_after: 4, ..Default::default() };
        let mut cache: DecisionCache<()> = DecisionCache::new(cfg);
        let (a, b) = (FreqId(0), FreqId(5));
        for i in 0..=4 {
            let e = cache.entry(class(0));
            e.note_decision(a, b, cfg.stable_after);
            if i < 4 {
                assert!(!e.converged, "not yet converged after {} decisions", i + 1);
            }
        }
        assert!(cache.get(class(0)).unwrap().converged);
        // A changed decision resets the streak but convergence latches.
        let e = cache.entry(class(0));
        e.note_decision(b, b, cfg.stable_after);
        assert_eq!(e.stable_decisions, 0);
        assert!(e.converged);
    }

    #[test]
    fn guard_trips_only_after_min_observations() {
        let cfg = CacheConfig { access_budget: 0.5, guard_min_obs: 3, ..Default::default() };
        let mut cache: DecisionCache<()> = DecisionCache::new(cfg);
        // Access phase is 80% of the task: over budget.
        for i in 0..3 {
            let e = cache.observe_common(class(0), &task_obs(0.8, 0.2));
            assert_eq!(e.guarded, i == 2, "guard state after {} observations", i + 1);
        }
        // A healthy class never trips.
        for _ in 0..10 {
            assert!(!cache.observe_common(class(1), &task_obs(0.1, 0.9)).guarded);
        }
    }

    #[test]
    fn eviction_never_loses_the_safety_fallback() {
        let cfg =
            CacheConfig { capacity: 4, access_budget: 0.5, guard_min_obs: 1, ..Default::default() };
        let mut cache: DecisionCache<()> = DecisionCache::new(cfg);
        // Trip the guard on class 0.
        cache.observe_common(class(0), &task_obs(0.9, 0.1));
        assert!(cache.get(class(0)).unwrap().guarded);
        // Flood the cache far beyond capacity with healthy classes.
        for n in 1..40 {
            cache.observe_common(class(n), &task_obs(0.1, 0.9));
        }
        assert!(cache.get(class(0)).is_some(), "guarded entry was evicted");
        assert!(cache.get(class(0)).unwrap().guarded);
        // Unguarded population respects the capacity bound.
        let unguarded = cache.iter().filter(|(_, e)| !e.guarded).count();
        assert!(unguarded <= cfg.capacity, "unguarded {unguarded} > capacity {}", cfg.capacity);
    }

    #[test]
    fn eviction_is_least_recently_touched() {
        let cfg = CacheConfig { capacity: 2, ..Default::default() };
        let mut cache: DecisionCache<()> = DecisionCache::new(cfg);
        cache.entry(class(0));
        cache.entry(class(1));
        cache.entry(class(0)); // refresh 0 — 1 becomes LRU
        cache.entry(class(2)); // evicts 1
        assert!(cache.get(class(0)).is_some());
        assert!(cache.get(class(1)).is_none());
        assert!(cache.get(class(2)).is_some());
    }

    #[test]
    fn running_means_track_observations() {
        let mut cache: DecisionCache<()> = DecisionCache::new(CacheConfig::default());
        cache.observe_common(class(0), &task_obs(0.0, 1.0));
        cache.observe_common(class(0), &task_obs(1.0, 1.0));
        let e = cache.get(class(0)).unwrap();
        assert_eq!(e.observations, 2);
        assert!((e.mean_access_frac - 0.25).abs() < 1e-12);
        assert!(e.mean_task_edp > 0.0);
    }
}
