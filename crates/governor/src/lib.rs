//! # dae-governor — online, profiling-guided per-phase DVFS
//!
//! The paper's evaluation (§6.1) selects frequencies with an *oracle*:
//! `DaeOptimal` re-times every phase at every operating point and keeps the
//! EDP-best one — exact, but impossible online. This crate is the realistic
//! counterpart, in the spirit of the profiling-assisted follow-up work: a
//! runtime layer that observes per-task behaviour and **converges** on good
//! per-phase frequencies on the fly.
//!
//! Decisions are made per *task class* ([`TaskClass`]: the execute function
//! plus a coarse argument signature), fed back through [`TaskObs`] — the
//! scheduler's charged [`dae_trace::PhaseRecord`]s of the task's phases —
//! after every completed task, and cached in a `DecisionCache` with per-class
//! convergence tracking and a safety guard (classes whose access phase
//! overshoots the overhead budget fall back to the paper's min/max
//! assignment and stay there).
//!
//! Two [`Governor`] implementations:
//!
//! * `MissRatioHeuristic` — classifies each phase memory- vs
//!   compute-bound from its counters (the §3 intuition made operational)
//!   and maps boundedness onto the DVFS table;
//! * [`BanditEdp`] — a per-class, per-phase ε-greedy bandit over the
//!   [`DvfsTable`] minimising observed phase EDP, with deterministic
//!   seeded exploration so virtual-time runs stay reproducible.
//!
//! The runtime integrates this via `FreqPolicy::Governed` (see
//! `dae-runtime`); [`GovernorKind`] is the plumbing-friendly value type
//! that names a governor in configs and on the `daec` command line.
//!
//! # Examples
//!
//! ```
//! use dae_governor::{Governor, GovernorKind, TaskClass, TaskObs};
//! use dae_power::DvfsTable;
//! use dae_ir::FuncId;
//! use dae_trace::PhaseRecord;
//!
//! let table = DvfsTable::sandybridge();
//! let mut gov = GovernorKind::Bandit { seed: 42 }.build(&table);
//! let class = TaskClass::of(FuncId(0), &[]);
//! let d = gov.decide(class);
//! // ... run the task at d.access / d.execute, measure, then:
//! let execute = PhaseRecord { time_s: 1e-6, model_energy_j: 2e-6, ..Default::default() };
//! gov.observe(class, &TaskObs { access: None, execute });
//! assert_eq!(gov.snapshot().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod bandit;
pub(crate) mod cache;
pub(crate) mod class;
pub(crate) mod heuristic;
pub(crate) mod obs;

pub use bandit::{BanditConfig, BanditEdp};
pub use cache::CacheConfig;
pub use class::TaskClass;
pub use dae_trace::SplitMix64;
pub(crate) use heuristic::{HeuristicConfig, MissRatioHeuristic};
pub use obs::TaskObs;

use dae_power::{DvfsTable, FreqId};

/// One per-task frequency decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Operating point for the access phase (ignored for coupled tasks).
    pub access: FreqId,
    /// Operating point for the execute phase.
    pub execute: FreqId,
    /// True when the decision was exploratory rather than greedy.
    pub explore: bool,
    /// True when the safety guard forced the min/max fallback.
    pub guarded: bool,
}

/// Point-in-time view of one learned class, for reports and JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassSnapshot {
    /// The class.
    pub class: TaskClass,
    /// Completed-task observations.
    pub observations: u64,
    /// Decisions that were exploratory.
    pub explored: u64,
    /// True once decisions stabilised.
    pub converged: bool,
    /// True when pinned to the safety fallback.
    pub guarded: bool,
    /// Current access-phase choice.
    pub access: FreqId,
    /// Current execute-phase choice.
    pub execute: FreqId,
    /// Running mean of the per-task EDP.
    pub mean_task_edp: f64,
}

/// An online per-phase frequency selector.
///
/// The runtime calls [`Governor::decide`] immediately before running a
/// task and [`Governor::observe`] immediately after it completes; both are
/// keyed by the task's [`TaskClass`]. Implementations must be
/// deterministic: the same call sequence always yields the same decisions.
pub trait Governor {
    /// Stable lowercase name ("heuristic", "bandit").
    fn name(&self) -> &'static str;

    /// Chooses the operating points for the next task of `class`.
    fn decide(&mut self, class: TaskClass) -> Decision;

    /// Feeds back the measurements of one completed task of `class`.
    fn observe(&mut self, class: TaskClass, obs: &TaskObs);

    /// Current per-class state, in deterministic (class-ordered) order.
    fn snapshot(&self) -> Vec<ClassSnapshot>;
}

/// Seed used by `bandit` when none is given explicitly.
pub(crate) const DEFAULT_BANDIT_SEED: u64 = 0xdae5_eed0;

/// Names a governor implementation in configs and CLI flags — a plain
/// `Copy` value so `FreqPolicy` stays copyable; [`GovernorKind::build`]
/// turns it into live state at the start of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GovernorKind {
    /// `MissRatioHeuristic` with default tuning.
    Heuristic,
    /// [`BanditEdp`] with default tuning and the given exploration seed.
    Bandit {
        /// Seed of the deterministic exploration stream.
        seed: u64,
    },
}

impl GovernorKind {
    /// Builds fresh governor state for a run over `table`.
    pub fn build(self, table: &DvfsTable) -> Box<dyn Governor> {
        match self {
            GovernorKind::Heuristic => {
                Box::new(MissRatioHeuristic::new(table.clone(), HeuristicConfig::default()))
            }
            GovernorKind::Bandit { seed } => {
                Box::new(BanditEdp::new(table.clone(), BanditConfig { seed, ..Default::default() }))
            }
        }
    }

    /// Parses the `daec --policy governed[:...]` suffix: empty or
    /// `heuristic` → [`GovernorKind::Heuristic`]; `bandit` or
    /// `bandit:<seed>` → [`GovernorKind::Bandit`].
    pub fn parse(spec: &str) -> Result<GovernorKind, String> {
        match spec {
            "" | "heuristic" => Ok(GovernorKind::Heuristic),
            "bandit" => Ok(GovernorKind::Bandit { seed: DEFAULT_BANDIT_SEED }),
            other => match other.strip_prefix("bandit:") {
                Some(seed) => seed
                    .parse::<u64>()
                    .map(|seed| GovernorKind::Bandit { seed })
                    .map_err(|e| format!("bad bandit seed `{seed}`: {e}")),
                None => Err(format!("unknown governor `{other}` (expected heuristic or bandit)")),
            },
        }
    }

    /// Canonical spec string; `GovernorKind::parse(&k.label())` round-trips.
    pub fn label(self) -> String {
        match self {
            GovernorKind::Heuristic => "heuristic".to_string(),
            GovernorKind::Bandit { seed } => format!("bandit:{seed}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for spec in ["heuristic", "bandit", "bandit:7"] {
            let k = GovernorKind::parse(spec).unwrap();
            assert_eq!(GovernorKind::parse(&k.label()).unwrap(), k);
        }
        assert_eq!(GovernorKind::parse("").unwrap(), GovernorKind::Heuristic);
        assert_eq!(
            GovernorKind::parse("bandit").unwrap(),
            GovernorKind::Bandit { seed: DEFAULT_BANDIT_SEED }
        );
        assert!(GovernorKind::parse("oracle").is_err());
        assert!(GovernorKind::parse("bandit:x").is_err());
    }

    #[test]
    fn build_yields_named_governors() {
        let t = DvfsTable::sandybridge();
        assert_eq!(GovernorKind::Heuristic.build(&t).name(), "heuristic");
        assert_eq!(GovernorKind::Bandit { seed: 1 }.build(&t).name(), "bandit");
    }
}
