//! Runtime configuration and frequency policies.

use dae_governor::GovernorKind;
use dae_mem::HierarchyConfig;
use dae_power::{DvfsConfig, DvfsTable, FreqId, PowerModel};
use dae_sim::{EngineKind, TimingConfig};

/// How the runtime picks frequencies for task phases (§3.1 and §6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreqPolicy {
    /// Coupled execution, everything at fmax (the normalisation baseline).
    CoupledMax,
    /// Coupled execution at a fixed frequency.
    CoupledFixed(FreqId),
    /// Coupled execution, per-task exhaustive optimal-EDP frequency
    /// ("CAE (Optimal f.)").
    CoupledOptimal,
    /// DAE: access at fmin, execute at fmax ("Min/Max f.").
    DaeMinMax,
    /// DAE: per-phase exhaustive optimal-EDP frequency ("Optimal f.").
    DaeOptimal,
    /// DAE with explicit per-phase frequencies (used by the Figure 4
    /// sweeps: access pinned, execute varied).
    DaePhases {
        /// Frequency of the access phase.
        access: FreqId,
        /// Frequency of the execute phase.
        execute: FreqId,
    },
    /// DAE with an online governor choosing per-phase frequencies from
    /// runtime feedback (`dae-governor`): the realistic counterpart of the
    /// [`FreqPolicy::DaeOptimal`] oracle.
    Governed(GovernorKind),
}

impl FreqPolicy {
    /// True for policies that run the access phase before the execute
    /// phase.
    pub(crate) fn is_decoupled(self) -> bool {
        matches!(
            self,
            FreqPolicy::DaeMinMax
                | FreqPolicy::DaeOptimal
                | FreqPolicy::DaePhases { .. }
                | FreqPolicy::Governed(_)
        )
    }

    /// Parses a policy spec as accepted by `daec --policy`. Frequencies
    /// are given in GHz and snapped to the nearest point of `table`; a
    /// non-finite frequency (`nan`, `inf`, `1e999`) is an error.
    ///
    /// Accepted forms: `coupled-max`, `coupled-fixed:<ghz>`,
    /// `coupled-optimal`, `dae-minmax`, `dae-optimal`,
    /// `dae-phases:<access_ghz>,<execute_ghz>`,
    /// `governed[:heuristic|bandit[:<seed>]]`.
    pub fn parse(spec: &str, table: &DvfsTable) -> Result<FreqPolicy, String> {
        let ghz = |s: &str| -> Result<FreqId, String> {
            match s.parse::<f64>() {
                Ok(g) if g.is_finite() => Ok(table.nearest(g)),
                Ok(_) => Err(format!("bad GHz `{s}`: not a finite number")),
                Err(e) => Err(format!("bad GHz `{s}`: {e}")),
            }
        };
        match spec {
            "coupled-max" => Ok(FreqPolicy::CoupledMax),
            "coupled-optimal" => Ok(FreqPolicy::CoupledOptimal),
            "dae-minmax" => Ok(FreqPolicy::DaeMinMax),
            "dae-optimal" => Ok(FreqPolicy::DaeOptimal),
            "governed" => Ok(FreqPolicy::Governed(GovernorKind::Heuristic)),
            other => {
                if let Some(f) = other.strip_prefix("coupled-fixed:") {
                    Ok(FreqPolicy::CoupledFixed(ghz(f)?))
                } else if let Some(fs) = other.strip_prefix("dae-phases:") {
                    let (a, e) = fs.split_once(',').ok_or_else(|| {
                        format!("dae-phases needs <access>,<execute>, got `{fs}`")
                    })?;
                    Ok(FreqPolicy::DaePhases { access: ghz(a)?, execute: ghz(e)? })
                } else if let Some(g) = other.strip_prefix("governed:") {
                    Ok(FreqPolicy::Governed(GovernorKind::parse(g)?))
                } else {
                    Err(format!("unknown policy `{other}` (try `--policy help`)"))
                }
            }
        }
    }

    /// Canonical spec string; `FreqPolicy::parse(&p.label(t), t)`
    /// round-trips for every variant.
    pub fn label(self, table: &DvfsTable) -> String {
        match self {
            FreqPolicy::CoupledMax => "coupled-max".to_string(),
            FreqPolicy::CoupledFixed(f) => format!("coupled-fixed:{}", table.point(f).ghz),
            FreqPolicy::CoupledOptimal => "coupled-optimal".to_string(),
            FreqPolicy::DaeMinMax => "dae-minmax".to_string(),
            FreqPolicy::DaeOptimal => "dae-optimal".to_string(),
            FreqPolicy::DaePhases { access, execute } => {
                format!("dae-phases:{},{}", table.point(access).ghz, table.point(execute).ghz)
            }
            FreqPolicy::Governed(kind) => format!("governed:{}", kind.label()),
        }
    }

    /// The `--policy help` listing: one line per accepted spec.
    pub fn help() -> &'static str {
        "policies (for --policy):\n\
         \x20 coupled-max                     coupled execution, everything at fmax (baseline)\n\
         \x20 coupled-fixed:<ghz>             coupled execution at a fixed frequency\n\
         \x20 coupled-optimal                 coupled, per-task exhaustive optimal-EDP frequency\n\
         \x20 dae-minmax                      DAE: access at fmin, execute at fmax\n\
         \x20 dae-optimal                     DAE: per-phase exhaustive optimal-EDP (oracle)\n\
         \x20 dae-phases:<a_ghz>,<e_ghz>      DAE with explicit per-phase frequencies\n\
         \x20 governed[:heuristic]            DAE with the online miss-ratio heuristic governor\n\
         \x20 governed:bandit[:<seed>]        DAE with the online EDP bandit governor\n\
         frequencies snap to the nearest DVFS table point"
    }
}

/// Full configuration of one simulated run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of simulated cores (the paper's machine: 4).
    pub cores: usize,
    /// Cache geometry.
    pub hierarchy: HierarchyConfig,
    /// Timing-model calibration.
    pub timing: TimingConfig,
    /// Available DVFS operating points.
    pub table: DvfsTable,
    /// Power model.
    pub power: PowerModel,
    /// DVFS transition behaviour.
    pub dvfs: DvfsConfig,
    /// Frequency policy.
    pub policy: FreqPolicy,
    /// Fixed per-task runtime overhead in seconds (queue operations,
    /// scheduling) — part of the O.S.I. accounting.
    pub task_overhead_s: f64,
    /// Dynamic-instruction budget per simulated phase, forwarded to the
    /// interpreter. The default is effectively unbounded for honest
    /// workloads; services running untrusted IR lower it so a hostile
    /// infinite loop burns virtual time, not wall-clock time.
    pub max_steps: u64,
    /// Execution engine for simulated phases (observationally identical
    /// either way; bytecode is several times faster).
    pub engine: EngineKind,
}

impl RuntimeConfig {
    /// The paper's evaluation setup: quad-core Sandybridge-like machine,
    /// 500 ns DVFS latency, coupled-at-fmax baseline policy.
    pub fn paper_default() -> Self {
        RuntimeConfig {
            cores: 4,
            hierarchy: HierarchyConfig::default(),
            timing: TimingConfig::default(),
            table: DvfsTable::sandybridge(),
            power: PowerModel::sandybridge(),
            dvfs: DvfsConfig::latency_500ns(),
            policy: FreqPolicy::CoupledMax,
            task_overhead_s: 150e-9,
            max_steps: 2_000_000_000,
            engine: EngineKind::default(),
        }
    }

    /// Same machine with a different per-phase instruction budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Same machine with a different policy.
    pub fn with_policy(mut self, policy: FreqPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same machine with a different DVFS transition latency.
    pub fn with_dvfs(mut self, dvfs: DvfsConfig) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Same machine with a different execution engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_quad_core() {
        let c = RuntimeConfig::paper_default();
        assert_eq!(c.cores, 4);
        assert_eq!(c.dvfs.transition_s, 500e-9);
        assert_eq!(c.policy, FreqPolicy::CoupledMax);
    }

    #[test]
    fn decoupled_classification() {
        assert!(FreqPolicy::DaeMinMax.is_decoupled());
        assert!(FreqPolicy::DaeOptimal.is_decoupled());
        assert!(!FreqPolicy::CoupledMax.is_decoupled());
        assert!(!FreqPolicy::CoupledOptimal.is_decoupled());
        let t = DvfsTable::sandybridge();
        assert!(FreqPolicy::DaePhases { access: t.min(), execute: t.max() }.is_decoupled());
        assert!(FreqPolicy::Governed(GovernorKind::Heuristic).is_decoupled());
    }

    #[test]
    fn every_policy_round_trips_through_parse() {
        let t = DvfsTable::sandybridge();
        let policies = [
            FreqPolicy::CoupledMax,
            FreqPolicy::CoupledFixed(FreqId(2)),
            FreqPolicy::CoupledOptimal,
            FreqPolicy::DaeMinMax,
            FreqPolicy::DaeOptimal,
            FreqPolicy::DaePhases { access: t.min(), execute: t.max() },
            FreqPolicy::Governed(GovernorKind::Heuristic),
            FreqPolicy::Governed(GovernorKind::Bandit { seed: 7 }),
        ];
        for p in policies {
            let spec = p.label(&t);
            assert_eq!(FreqPolicy::parse(&spec, &t), Ok(p), "round-trip of `{spec}`");
        }
    }

    #[test]
    fn parse_snaps_and_rejects() {
        let t = DvfsTable::sandybridge();
        // 2.1 GHz snaps to the nearest table point (2.0).
        assert_eq!(
            FreqPolicy::parse("coupled-fixed:2.1", &t),
            Ok(FreqPolicy::CoupledFixed(t.nearest(2.1)))
        );
        assert_eq!(
            FreqPolicy::parse("dae-phases:1.6,3.4", &t),
            Ok(FreqPolicy::DaePhases { access: t.min(), execute: t.max() })
        );
        assert_eq!(
            FreqPolicy::parse("governed", &t),
            Ok(FreqPolicy::Governed(GovernorKind::Heuristic))
        );
        assert_eq!(
            FreqPolicy::parse("governed:bandit:9", &t),
            Ok(FreqPolicy::Governed(GovernorKind::Bandit { seed: 9 }))
        );
        assert!(FreqPolicy::parse("warp-speed", &t).is_err());
        assert!(FreqPolicy::parse("dae-phases:1.6", &t).is_err());
        assert!(FreqPolicy::parse("coupled-fixed:fast", &t).is_err());
        assert!(FreqPolicy::parse("governed:oracle", &t).is_err());
        // Non-finite frequencies are refused, not snapped to the first point.
        for spec in ["coupled-fixed:nan", "coupled-fixed:inf", "coupled-fixed:1e999"] {
            let e = FreqPolicy::parse(spec, &t).unwrap_err();
            assert!(e.starts_with("bad GHz"), "{spec}: {e}");
        }
        assert!(FreqPolicy::parse("dae-phases:NaN,-inf", &t).is_err());
        assert!(FreqPolicy::parse("dae-phases:1.6,-inf", &t).is_err());
        // Finite but huge frequencies snap to the end of the table they lie beyond.
        assert_eq!(
            FreqPolicy::parse("coupled-fixed:1e300", &t),
            Ok(FreqPolicy::CoupledFixed(t.max()))
        );
        assert_eq!(
            FreqPolicy::parse("dae-phases:-1e300,99", &t),
            Ok(FreqPolicy::DaePhases { access: t.min(), execute: t.max() })
        );
        // The help text mentions every accepted form.
        for form in ["coupled-max", "coupled-fixed", "dae-minmax", "dae-optimal", "governed"] {
            assert!(FreqPolicy::help().contains(form), "help must list {form}");
        }
    }

    #[test]
    fn builder_methods() {
        let c = RuntimeConfig::paper_default()
            .with_policy(FreqPolicy::DaeMinMax)
            .with_dvfs(DvfsConfig::instant());
        assert_eq!(c.policy, FreqPolicy::DaeMinMax);
        assert_eq!(c.dvfs.transition_s, 0.0);
    }
}
