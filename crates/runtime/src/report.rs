//! Run reports: time, energy, EDP and the O.S.I. breakdown of Figure 4.
//!
//! Reports serialise to JSON ([`RunReport::to_json`]) independently of any
//! trace sink, so `BENCH_*.json` trajectory files and scripted consumers
//! never have to parse the aligned text tables.

use dae_sim::PhaseTrace;
use dae_trace::json::JsonValue;

/// Aggregated timing of one run, split the way Figure 4 stacks it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Total time spent in access ("Prefetch") phases, across cores.
    pub access_s: f64,
    /// Total time spent in execute ("Task") phases, across cores.
    pub execute_s: f64,
    /// Overhead: DVFS transitions plus per-task runtime cost.
    pub overhead_s: f64,
    /// Idle core-time (makespan × cores − busy time).
    pub idle_s: f64,
}

impl Breakdown {
    /// Overhead + idle, the paper's "O.S.I." bar.
    pub fn osi_s(&self) -> f64 {
        self.overhead_s + self.idle_s
    }

    /// Machine-readable form: one key per bar segment plus the derived
    /// `osi_s`.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("access_s", self.access_s.into()),
            ("execute_s", self.execute_s.into()),
            ("overhead_s", self.overhead_s.into()),
            ("idle_s", self.idle_s.into()),
            ("osi_s", self.osi_s().into()),
        ])
    }
}

/// What an online governor learned about one task class during a run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassReport {
    /// Class label: `<function name>#<signature hex>`.
    pub class: String,
    /// Completed-task observations of the class.
    pub observations: u64,
    /// Decisions that were exploratory.
    pub explored: u64,
    /// True once the class's decisions stabilised.
    pub converged: bool,
    /// True when the safety guard pinned the class to min/max.
    pub guarded: bool,
    /// The class's current access-phase frequency, in GHz.
    pub access_ghz: f64,
    /// The class's current execute-phase frequency, in GHz.
    pub execute_ghz: f64,
    /// Running mean of the class's per-task EDP.
    pub mean_task_edp: f64,
}

impl ClassReport {
    /// Machine-readable form, one key per field.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("class", self.class.as_str().into()),
            ("observations", self.observations.into()),
            ("explored", self.explored.into()),
            ("converged", self.converged.into()),
            ("guarded", self.guarded.into()),
            ("access_ghz", self.access_ghz.into()),
            ("execute_ghz", self.execute_ghz.into()),
            ("mean_task_edp", self.mean_task_edp.into()),
        ])
    }
}

/// End-of-run snapshot of an online governor: which frequencies each task
/// class converged to. Present in a [`RunReport`] only for governed runs,
/// so traces and bench JSON are self-describing.
#[derive(Clone, Debug, PartialEq)]
pub struct GovernorReport {
    /// Name of the governor ("static", "heuristic", "bandit").
    pub governor: String,
    /// Per-class outcomes, in deterministic class order.
    pub classes: Vec<ClassReport>,
}

impl GovernorReport {
    /// Machine-readable form: the governor name plus one entry per class.
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("governor", self.governor.as_str().into()),
            ("classes", JsonValue::Arr(self.classes.iter().map(ClassReport::to_json).collect())),
        ])
    }
}

/// The result of one workload run under one configuration.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Makespan in seconds (the paper's Time).
    pub time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Number of task instances executed.
    pub tasks: usize,
    /// Core-time breakdown.
    pub breakdown: Breakdown,
    /// Merged trace of all access phases.
    pub access_trace: PhaseTrace,
    /// Merged trace of all execute phases.
    pub execute_trace: PhaseTrace,
    /// The online governor's learned per-class state (governed runs only).
    pub governor: Option<GovernorReport>,
}

impl RunReport {
    /// Energy-delay product `T² · P = T · E`.
    pub fn edp(&self) -> f64 {
        self.time_s * self.energy_j
    }

    /// Average access-phase duration in microseconds (Table 1's `TA`).
    pub fn ta_us(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.breakdown.access_s / self.tasks as f64 * 1e6
        }
    }

    /// Fraction of busy time spent in the access phase, in percent
    /// (Table 1's `TA%`).
    pub fn ta_percent(&self) -> f64 {
        let busy = self.breakdown.access_s + self.breakdown.execute_s;
        if busy == 0.0 {
            0.0
        } else {
            self.breakdown.access_s / busy * 100.0
        }
    }

    /// Machine-readable form: headline metrics, the breakdown, the Table 1
    /// derivatives and both merged phase traces.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::obj([
            ("time_s", self.time_s.into()),
            ("energy_j", self.energy_j.into()),
            ("edp", self.edp().into()),
            ("tasks", self.tasks.into()),
            ("ta_us", self.ta_us().into()),
            ("ta_percent", self.ta_percent().into()),
            ("breakdown", self.breakdown.to_json()),
            ("access_trace", self.access_trace.to_json()),
            ("execute_trace", self.execute_trace.to_json()),
        ]);
        if let (JsonValue::Obj(pairs), Some(g)) = (&mut v, &self.governor) {
            pairs.push(("governor".to_string(), g.to_json()));
        }
        v
    }

    /// [`RunReport::to_json`] rendered as a compact string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            time_s: 2.0,
            energy_j: 10.0,
            tasks: 4,
            breakdown: Breakdown { access_s: 0.4, execute_s: 1.6, overhead_s: 0.1, idle_s: 0.3 },
            access_trace: PhaseTrace::default(),
            execute_trace: PhaseTrace::default(),
            governor: None,
        }
    }

    #[test]
    fn edp_is_time_times_energy() {
        assert_eq!(report().edp(), 20.0);
    }

    #[test]
    fn table1_metrics() {
        let r = report();
        assert!((r.ta_us() - 0.1e6).abs() < 1e-9);
        assert!((r.ta_percent() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn osi_combines_overhead_and_idle() {
        assert!((report().breakdown.osi_s() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn report_serialises_to_parseable_json() {
        let r = report();
        let text = r.to_json_string();
        let v = dae_trace::json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("time_s").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("edp").unwrap().as_f64(), Some(20.0));
        let b = v.get("breakdown").unwrap();
        assert_eq!(b.get("execute_s").unwrap().as_f64(), Some(1.6));
        assert!((b.get("osi_s").unwrap().as_f64().unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(v.get("execute_trace").unwrap().get("instrs").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn governor_section_appears_only_when_present() {
        let mut r = report();
        let text = r.to_json_string();
        assert!(dae_trace::json::parse(&text).unwrap().get("governor").is_none());
        r.governor = Some(GovernorReport {
            governor: "bandit".to_string(),
            classes: vec![ClassReport {
                class: "stream#00aa".to_string(),
                observations: 12,
                explored: 6,
                converged: true,
                guarded: false,
                access_ghz: 1.6,
                execute_ghz: 3.4,
                mean_task_edp: 1.5e-9,
            }],
        });
        let v = dae_trace::json::parse(&r.to_json_string()).unwrap();
        let g = v.get("governor").expect("governor section");
        assert_eq!(g.get("governor").unwrap().as_str(), Some("bandit"));
        let classes = g.get("classes").unwrap().as_arr().unwrap();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].get("class").unwrap().as_str(), Some("stream#00aa"));
        assert_eq!(classes[0].get("execute_ghz").unwrap().as_f64(), Some(3.4));
        assert_eq!(classes[0].get("converged").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn zero_task_report_is_safe() {
        let mut r = report();
        r.tasks = 0;
        r.breakdown = Breakdown::default();
        assert_eq!(r.ta_us(), 0.0);
        assert_eq!(r.ta_percent(), 0.0);
    }
}
