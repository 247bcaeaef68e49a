//! The EDP bandit: per-class, per-phase ε-greedy search over the table.
//!
//! `DaeOptimal` (the oracle) minimises each phase's energy-delay product
//! by exhaustively re-timing it at every operating point. This governor
//! pursues the same objective online: per task class it runs **two
//! independent multi-armed bandits** — one over access-phase frequencies,
//! one over execute-phase frequencies — whose reward is the *measured*
//! phase EDP at the chosen point, including any DVFS transition the choice
//! triggered. On a stationary per-phase EDP landscape the marginal bandits
//! converge to the oracle's per-phase choice; where transition costs
//! dominate (short tasks), the shared transition penalty pulls both
//! bandits onto a common operating point — a pair effect the
//! transition-blind oracle never sees, which is how a warmed-up bandit can
//! *beat* `DaeOptimal` on run-level EDP.
//!
//! Exploration is deterministic: each class derives a SplitMix64 stream
//! from the configured seed and its own identity, so a fixed seed yields a
//! bit-reproducible run. Arms are first swept systematically
//! (one pull each, slowest first), then ε-greedy with a
//! decaying ε takes over; once decisions stabilise the class freezes
//! (exploration stops) until the safety guard or fresh feedback says
//! otherwise.

use crate::cache::{CacheConfig, DecisionCache};
use crate::class::TaskClass;
use crate::obs::{billed_edp, TaskObs};
use crate::{ClassSnapshot, Decision, Governor};
use dae_power::{DvfsTable, FreqId};
use dae_trace::SplitMix64;

/// Tuning of [`BanditEdp`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BanditConfig {
    /// Decision-cache and safety-guard knobs.
    pub cache: CacheConfig,
    /// Seed of the deterministic exploration stream.
    pub seed: u64,
    /// Initial exploration rate (probability of a random arm after the
    /// sweep).
    pub epsilon: f64,
    /// Observation count over which ε decays to half its initial value.
    pub epsilon_decay: f64,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            cache: CacheConfig::default(),
            seed: crate::DEFAULT_BANDIT_SEED,
            epsilon: 0.1,
            epsilon_decay: 12.0,
        }
    }
}

/// Sample count and running-mean reward of one arm.
#[derive(Clone, Copy, Debug, Default)]
struct ArmStats {
    pulls: u64,
    mean_edp: f64,
}

/// One per-phase bandit: an arm per operating point.
#[derive(Clone, Debug, Default)]
struct Role {
    arms: Vec<ArmStats>,
}

impl Role {
    fn ensure(&mut self, n: usize) {
        if self.arms.is_empty() {
            self.arms = vec![ArmStats::default(); n];
        }
    }

    /// The next arm of the systematic sweep (one pull per arm), slowest
    /// first.
    fn unswept(&self) -> Option<usize> {
        self.arms.iter().position(|a| a.pulls == 0)
    }

    /// Greedy choice: lowest mean EDP; ties go to the slower point (the
    /// lower-energy side).
    fn best(&self) -> usize {
        let mut best = 0;
        for (i, a) in self.arms.iter().enumerate() {
            if a.pulls > 0 && (self.arms[best].pulls == 0 || a.mean_edp < self.arms[best].mean_edp)
            {
                best = i;
            }
        }
        best
    }

    fn credit(&mut self, arm: usize, edp: f64) {
        let a = &mut self.arms[arm];
        a.pulls += 1;
        a.mean_edp += (edp - a.mean_edp) / a.pulls as f64;
    }
}

/// Learned per-class state: two role bandits plus the class's own
/// exploration stream.
#[derive(Clone, Debug, Default)]
pub(crate) struct BanditState {
    access: Role,
    execute: Role,
    rng: Option<SplitMix64>,
    /// Becomes true on the first observation that includes an access
    /// phase; classes that always run coupled never explore access arms.
    access_seen: bool,
}

/// A [`Governor`] minimising observed per-phase EDP by ε-greedy search.
#[derive(Clone, Debug)]
pub struct BanditEdp {
    table: DvfsTable,
    cfg: BanditConfig,
    cache: DecisionCache<BanditState>,
}

impl BanditEdp {
    /// A fresh bandit over `table`.
    pub fn new(table: DvfsTable, cfg: BanditConfig) -> Self {
        BanditEdp { table, cfg, cache: DecisionCache::new(cfg.cache) }
    }

    /// Class-specific deterministic seed: the run seed mixed with the
    /// class identity, so concurrent classes draw independent streams and
    /// cache eviction order cannot leak into another class's decisions.
    fn class_seed(&self, class: TaskClass) -> u64 {
        self.cfg.seed ^ (class.func.0 as u64).rotate_left(32) ^ class.sig
    }

    /// Warm-starts a class from a *profiled* memory-boundedness estimate
    /// (PGO): every arm receives one synthetic pull whose mean EDP is
    /// shaped as a V around the boundedness-implied operating point —
    /// fully memory-bound phases point at the slowest arm, compute-bound
    /// ones at the fastest. The synthetic pulls satisfy the systematic
    /// sweep (one pull per arm), so a profiled class skips
    /// straight to greedy exploitation of the prior and real observations
    /// immediately start correcting it (each arm's next credit halves the
    /// prior's weight). `access_mem_bound = None` leaves the access
    /// bandit dormant, exactly like a class that has only run coupled.
    pub fn seed_prior(
        &mut self,
        class: TaskClass,
        access_mem_bound: Option<f64>,
        execute_mem_bound: f64,
    ) {
        let n = self.table.len();
        let shape = |role: &mut Role, mem_bound: f64| {
            role.ensure(n);
            // Boundedness → target arm: arm 0 is the slowest point, so a
            // fully memory-bound phase (1.0) targets it and a fully
            // compute-bound phase (0.0) targets the fastest.
            let mb = mem_bound.clamp(0.0, 1.0);
            let target = ((1.0 - mb) * (n.saturating_sub(1)) as f64).round();
            for (i, arm) in role.arms.iter_mut().enumerate() {
                if arm.pulls == 0 {
                    arm.pulls = 1;
                    arm.mean_edp = 1.0 + 0.25 * (i as f64 - target).abs();
                }
            }
        };
        let e = self.cache.entry(class);
        if let Some(mb) = access_mem_bound {
            e.state.access_seen = true;
            shape(&mut e.state.access, mb);
        }
        shape(&mut e.state.execute, execute_mem_bound);
    }
}

impl Governor for BanditEdp {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn decide(&mut self, class: TaskClass) -> Decision {
        let (min, max) = (self.table.min(), self.table.max());
        let n = self.table.len();
        let cfg = self.cfg;
        let seed = self.class_seed(class);
        let e = self.cache.entry(class);
        if e.guarded {
            return Decision { access: min, execute: max, explore: false, guarded: true };
        }
        let rng = e.state.rng.get_or_insert_with(|| SplitMix64::new(seed));
        let mut rng = *rng;
        let converged = e.converged;
        let obs = e.observations;
        let eps = cfg.epsilon / (1.0 + obs as f64 / cfg.epsilon_decay);

        let mut explore = false;
        let mut pick = |role: &mut Role, default: usize, active: bool| -> usize {
            if !active {
                return default;
            }
            role.ensure(n);
            if let Some(arm) = role.unswept() {
                explore = true;
                return arm;
            }
            if !converged && rng.next_f64() < eps {
                explore = true;
                return rng.next_below(n as u64) as usize;
            }
            role.best()
        };
        // The access bandit only activates once an access phase has been
        // observed; classes that run coupled keep the safe fmin default.
        let a_active = e.state.access_seen;
        let access = FreqId(pick(&mut e.state.access, min.0, a_active));
        let execute = FreqId(pick(&mut e.state.execute, max.0, true));
        e.state.rng = Some(rng);
        if explore {
            e.explored += 1;
        }
        e.note_decision(access, execute, cfg.cache.stable_after);
        Decision { access, execute, explore, guarded: false }
    }

    fn observe(&mut self, class: TaskClass, obs: &TaskObs) {
        let n = self.table.len();
        let e = self.cache.observe_common(class, obs);
        let Some((a_freq, e_freq)) = e.last_decision else {
            // Feedback with no preceding decision (e.g. the entry was
            // evicted in between): nothing to credit.
            return;
        };
        if let Some(a) = &obs.access {
            e.state.access_seen = true;
            e.state.access.ensure(n);
            e.state.access.credit(a_freq.0, billed_edp(a));
        }
        e.state.execute.ensure(n);
        e.state.execute.credit(e_freq.0, billed_edp(&obs.execute));
    }

    fn snapshot(&self) -> Vec<ClassSnapshot> {
        self.cache
            .iter()
            .map(|(class, e)| {
                let (access, execute) =
                    e.last_decision.unwrap_or((self.table.min(), self.table.max()));
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

    fn class(n: u32) -> TaskClass {
        TaskClass { func: FuncId(n), sig: 0 }
    }

    /// A stationary synthetic environment: per-phase EDP is a fixed
    /// deterministic function of the chosen arm, minimised at `best`.
    fn phase_edp(arm: usize, best: usize) -> f64 {
        1.0 + 0.25 * (arm as f64 - best as f64).abs()
    }

    fn feed(g: &mut BanditEdp, c: TaskClass, d: &Decision, best_a: usize, best_e: usize) {
        let mk = |edp: f64| phase(1.0, edp); // time 1 s ⇒ phase EDP == energy
        g.observe(
            c,
            &TaskObs {
                access: Some(mk(phase_edp(d.access.0, best_a))),
                execute: mk(phase_edp(d.execute.0, best_e)),
            },
        );
    }

    fn run(
        g: &mut BanditEdp,
        c: TaskClass,
        rounds: usize,
        best_a: usize,
        best_e: usize,
    ) -> Vec<Decision> {
        let mut out = Vec::new();
        for _ in 0..rounds {
            let d = g.decide(c);
            feed(g, c, &d, best_a, best_e);
            out.push(d);
        }
        out
    }

    #[test]
    fn sweeps_every_arm_then_locks_onto_the_best() {
        let t = DvfsTable::sandybridge();
        let n = t.len();
        let cfg = BanditConfig { epsilon: 0.0, ..Default::default() };
        let mut g = BanditEdp::new(t, cfg);
        let c = class(0);
        // Access phase must first be *seen* before its arms are swept.
        let ds = run(&mut g, c, 3 * n + 4, 1, 3);
        let last = ds.last().unwrap();
        assert_eq!(last.execute, FreqId(3));
        assert_eq!(last.access, FreqId(1));
        // Every execute arm was pulled during the sweep.
        let mut pulled = vec![false; n];
        for d in &ds {
            pulled[d.execute.0] = true;
        }
        assert!(pulled.iter().all(|&p| p), "sweep must cover all arms: {pulled:?}");
    }

    #[test]
    fn regret_is_monotone_non_increasing_on_a_stationary_workload() {
        let t = DvfsTable::sandybridge();
        let n = t.len();
        let (best_a, best_e) = (2, 4);
        let cfg = BanditConfig { epsilon: 0.0, ..Default::default() };
        let mut g = BanditEdp::new(t, cfg);
        let c = class(0);
        let optimal = phase_edp(best_a, best_a) + phase_edp(best_e, best_e);
        // Instantaneous regret per round: chosen total phase EDP − optimal.
        let regret: Vec<f64> = run(&mut g, c, 6 * n, best_a, best_e)
            .iter()
            .map(|d| phase_edp(d.access.0, best_a) + phase_edp(d.execute.0, best_e) - optimal)
            .collect();
        // After the sweep (n rounds of execute + n of access, interleaved;
        // 2n is a safe bound) the bandit is greedy and exact: regret 0.
        let warmup = 2 * n;
        for (i, r) in regret.iter().enumerate().skip(warmup) {
            assert_eq!(*r, 0.0, "round {i}: nonzero post-warm-up regret {r}");
        }
        // Cumulative mean regret is monotone non-increasing from the end
        // of the warm-up on.
        let mut cum = 0.0;
        let means: Vec<f64> = regret
            .iter()
            .enumerate()
            .map(|(i, r)| {
                cum += r;
                cum / (i + 1) as f64
            })
            .collect();
        for w in means[warmup..].windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "mean regret increased: {w:?}");
        }
    }

    #[test]
    fn fixed_seed_reproduces_decisions_exactly() {
        let t = DvfsTable::sandybridge();
        let cfg = BanditConfig { seed: 123, epsilon: 0.3, ..Default::default() };
        let mut g1 = BanditEdp::new(t.clone(), cfg);
        let mut g2 = BanditEdp::new(t, cfg);
        let c = class(0);
        let d1 = run(&mut g1, c, 60, 1, 4);
        let d2 = run(&mut g2, c, 60, 1, 4);
        assert_eq!(d1, d2);
    }

    #[test]
    fn different_seeds_may_explore_differently() {
        let t = DvfsTable::sandybridge();
        let mk =
            |seed| BanditConfig { seed, epsilon: 0.5, epsilon_decay: 1e9, ..Default::default() };
        let mut g1 = BanditEdp::new(t.clone(), mk(1));
        let mut g2 = BanditEdp::new(t, mk(2));
        let c = class(0);
        let d1 = run(&mut g1, c, 80, 1, 4);
        let d2 = run(&mut g2, c, 80, 1, 4);
        assert_ne!(d1, d2, "distinct seeds should produce distinct exploration");
    }

    #[test]
    fn coupled_classes_keep_the_access_default() {
        let t = DvfsTable::sandybridge();
        let mut g = BanditEdp::new(t.clone(), BanditConfig { epsilon: 0.0, ..Default::default() });
        let c = class(0);
        for _ in 0..20 {
            let d = g.decide(c);
            assert_eq!(d.access, t.min(), "no access phase ⇒ access arm stays at fmin");
            let obs = TaskObs { access: None, execute: phase(1.0, phase_edp(d.execute.0, 5)) };
            g.observe(c, &obs);
        }
        assert_eq!(g.decide(c).execute, FreqId(5));
    }

    #[test]
    fn seeded_priors_skip_the_sweep_and_stay_correctable() {
        let t = DvfsTable::sandybridge();
        let n = t.len();
        let cfg = BanditConfig { epsilon: 0.0, ..Default::default() };
        let mut g = BanditEdp::new(t.clone(), cfg);
        let c = class(0);
        // A memory-bound execute phase (0.9) and a fully memory-bound
        // access phase: priors point low on the table.
        g.seed_prior(c, Some(1.0), 0.9);
        let d = g.decide(c);
        assert!(!d.explore, "priors satisfy the sweep — first decision is greedy");
        assert_eq!(d.access, t.min(), "fully bound access prior picks the slowest arm");
        let expect_e = ((1.0 - 0.9) * (n - 1) as f64).round() as usize;
        assert_eq!(d.execute, FreqId(expect_e));
        // Real feedback pointing elsewhere overrides the prior: one bad
        // observation at the seeded arm halves the prior's weight and the
        // greedy choice moves off it.
        let ds = run(&mut g, c, 4, 1, n - 1);
        assert!(
            ds.iter().any(|d| d.execute.0 > expect_e),
            "observations must pull decisions off a wrong prior: {ds:?}"
        );
        // Determinism: seeding the same prior twice yields the same run.
        let mut g2 = BanditEdp::new(t, cfg);
        g2.seed_prior(c, Some(1.0), 0.9);
        let first = g2.decide(c);
        assert_eq!((first.access, first.execute), (d.access, d.execute));
    }

    #[test]
    fn guard_overrides_learning() {
        let t = DvfsTable::sandybridge();
        let cfg = BanditConfig {
            cache: CacheConfig { access_budget: 0.2, guard_min_obs: 2, ..Default::default() },
            epsilon: 0.0,
            ..Default::default()
        };
        let mut g = BanditEdp::new(t.clone(), cfg);
        let c = class(0);
        for _ in 0..4 {
            let _ = g.decide(c);
            // Access phase dominates: 70% of task time.
            g.observe(c, &TaskObs { access: Some(phase(0.7, 1.0)), execute: phase(0.3, 1.0) });
        }
        let d = g.decide(c);
        assert!(d.guarded);
        assert_eq!((d.access, d.execute), (t.min(), t.max()));
        assert!(g.snapshot()[0].guarded);
    }
}
