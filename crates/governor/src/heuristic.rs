//! The miss-ratio heuristic: boundedness-driven frequency mapping.
//!
//! The paper's §3 observation, made operational: a memory-bound phase's
//! runtime barely changes with core frequency, so running it slowly costs
//! little time and saves a lot of energy; a compute-bound phase scales
//! ~1/f, so it should run fast. Per phase, this governor maintains an
//! exponential moving average of a **boundedness score** — the simulator's
//! frequency-insensitivity fraction blended with the DRAM miss ratio — and
//! maps it linearly onto the DVFS table: score 1 → fmin, score 0 → fmax.
//!
//! Until a class has been measured the defaults are the paper's min/max
//! assignment (access phases are prefetch slices, presumed memory-bound;
//! execute phases run on a warm cache, presumed compute-bound), so the
//! heuristic can never start worse than `DaeMinMax`.

use crate::cache::{CacheConfig, DecisionCache};
use crate::class::TaskClass;
use crate::obs::TaskObs;
use crate::{ClassSnapshot, Decision, Governor};
use dae_power::{DvfsTable, FreqId};
use dae_trace::PhaseRecord;

/// EMA smoothing factor for the boundedness score (weight of the newest
/// observation).
const EMA_ALPHA: f64 = 0.3;

/// Tuning of [`MissRatioHeuristic`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct HeuristicConfig {
    /// Decision-cache and safety-guard knobs.
    pub cache: CacheConfig,
}

/// Learned per-class state: smoothed boundedness per phase.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct HeurState {
    access_bound: Option<f64>,
    execute_bound: Option<f64>,
}

/// A [`Governor`] mapping observed phase boundedness onto the DVFS table.
#[derive(Clone, Debug)]
pub(crate) struct MissRatioHeuristic {
    table: DvfsTable,
    cfg: HeuristicConfig,
    cache: DecisionCache<HeurState>,
}

impl MissRatioHeuristic {
    /// A fresh heuristic over `table`.
    pub(crate) fn new(table: DvfsTable, cfg: HeuristicConfig) -> Self {
        MissRatioHeuristic { table, cfg, cache: DecisionCache::new(cfg.cache) }
    }

    /// Boundedness score of one measured phase, in `[0, 1]`.
    fn score(r: &PhaseRecord) -> f64 {
        // The insensitivity fraction is the primary signal; the miss ratio
        // catches latency-bound phases whose stalls overlap (high MLP) but
        // that still gain little from a faster core.
        r.mem_bound_frac.max(r.counters.miss_ratio()).clamp(0.0, 1.0)
    }

    /// Maps a boundedness score onto the table: 1 → fmin, 0 → fmax.
    fn freq_for(&self, bound: f64) -> FreqId {
        let n = self.table.len();
        let idx = ((1.0 - bound.clamp(0.0, 1.0)) * (n - 1) as f64).round() as usize;
        FreqId(idx.min(n - 1))
    }
}

impl Governor for MissRatioHeuristic {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn decide(&mut self, class: TaskClass) -> Decision {
        let stable_after = self.cfg.cache.stable_after;
        let (min, max) = (self.table.min(), self.table.max());
        let e = self.cache.entry(class);
        if e.guarded {
            return Decision { access: min, execute: max, explore: false, guarded: true };
        }
        let explore = e.observations == 0;
        if explore {
            e.explored += 1;
        }
        let (ab, eb) = (e.state.access_bound, e.state.execute_bound);
        let access = ab.map_or(min, |b| self.freq_for(b));
        let execute = eb.map_or(max, |b| self.freq_for(b));
        self.cache.entry(class).note_decision(access, execute, stable_after);
        Decision { access, execute, explore, guarded: false }
    }

    fn observe(&mut self, class: TaskClass, obs: &TaskObs) {
        let e = self.cache.observe_common(class, obs);
        let blend = |old: Option<f64>, new: f64| match old {
            None => Some(new),
            Some(o) => Some(o + EMA_ALPHA * (new - o)),
        };
        if let Some(a) = &obs.access {
            e.state.access_bound = blend(e.state.access_bound, Self::score(a));
        }
        e.state.execute_bound = blend(e.state.execute_bound, Self::score(&obs.execute));
    }

    fn snapshot(&self) -> Vec<ClassSnapshot> {
        self.cache
            .iter()
            .map(|(class, e)| {
                let (access, execute) = e.last_decision.unwrap_or_else(|| {
                    if e.guarded {
                        (self.table.min(), self.table.max())
                    } else {
                        (
                            e.state.access_bound.map_or(self.table.min(), |b| self.freq_for(b)),
                            e.state.execute_bound.map_or(self.table.max(), |b| self.freq_for(b)),
                        )
                    }
                });
                ClassSnapshot {
                    class: *class,
                    observations: e.observations,
                    explored: e.explored,
                    converged: e.converged,
                    guarded: e.guarded,
                    access,
                    execute,
                    mean_task_edp: e.mean_task_edp,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::phase;
    use dae_ir::FuncId;
    use dae_trace::PhaseCounters;

    fn class(n: u32) -> TaskClass {
        TaskClass { func: FuncId(n), sig: 0 }
    }

    fn task_obs(access_bound: Option<f64>, execute_bound: f64) -> TaskObs {
        TaskObs {
            access: access_bound.map(|b| PhaseRecord { mem_bound_frac: b, ..phase(1e-6, 1e-6) }),
            execute: PhaseRecord { mem_bound_frac: execute_bound, ..phase(4e-6, 4e-6) },
        }
    }

    #[test]
    fn defaults_match_min_max() {
        let t = DvfsTable::sandybridge();
        let mut g = MissRatioHeuristic::new(t.clone(), HeuristicConfig::default());
        let d = g.decide(class(0));
        assert_eq!((d.access, d.execute), (t.min(), t.max()));
        assert!(d.explore, "first decision is a guess");
    }

    #[test]
    fn memory_bound_execute_is_slowed_down() {
        let t = DvfsTable::sandybridge();
        let mut g = MissRatioHeuristic::new(t.clone(), HeuristicConfig::default());
        for _ in 0..10 {
            g.observe(class(0), &task_obs(None, 0.95));
        }
        let d = g.decide(class(0));
        assert!(d.execute < t.max(), "bound execute must leave fmax, got {:?}", d.execute);
        assert!(d.execute <= FreqId(1));
    }

    #[test]
    fn compute_bound_access_is_sped_up() {
        let t = DvfsTable::sandybridge();
        let mut g = MissRatioHeuristic::new(t.clone(), HeuristicConfig::default());
        for _ in 0..10 {
            g.observe(class(0), &task_obs(Some(0.05), 0.0));
        }
        let d = g.decide(class(0));
        assert!(d.access > t.min(), "compute-bound access must leave fmin");
        assert_eq!(d.execute, t.max());
    }

    #[test]
    fn miss_ratio_alone_counts_as_bound() {
        let t = DvfsTable::sandybridge();
        let mut g = MissRatioHeuristic::new(t.clone(), HeuristicConfig::default());
        let o = TaskObs {
            access: None,
            execute: PhaseRecord {
                counters: PhaseCounters {
                    loads: 1,
                    demand_hits: [0, 0, 0, 1],
                    ..Default::default()
                },
                ..phase(1e-6, 1e-6)
            },
        };
        for _ in 0..10 {
            g.observe(class(0), &o);
        }
        assert_eq!(g.decide(class(0)).execute, t.min());
    }

    #[test]
    fn guard_forces_min_max() {
        let t = DvfsTable::sandybridge();
        let cfg = HeuristicConfig {
            cache: CacheConfig { access_budget: 0.1, guard_min_obs: 1, ..Default::default() },
        };
        let mut g = MissRatioHeuristic::new(t.clone(), cfg);
        // Access dominates the task (1e-6 vs 4e-6 is 20% — push harder).
        let o = TaskObs { access: Some(phase(9e-6, 1e-6)), execute: phase(1e-6, 1e-6) };
        g.observe(class(0), &o);
        let d = g.decide(class(0));
        assert!(d.guarded);
        assert_eq!((d.access, d.execute), (t.min(), t.max()));
    }

    #[test]
    fn convergence_is_reported() {
        let t = DvfsTable::sandybridge();
        let mut g = MissRatioHeuristic::new(t, HeuristicConfig::default());
        for _ in 0..20 {
            g.decide(class(0));
            g.observe(class(0), &task_obs(Some(0.9), 0.0));
        }
        let snap = g.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].converged, "stationary feedback must converge");
        assert_eq!(snap[0].observations, 20);
    }
}
