//! The structured event model: what the runtime, simulator and power
//! layers emit while a workload runs.
//!
//! All timestamps are in **virtual seconds** (the scheduler's deterministic
//! clock), all events are *complete* spans — producers emit them once the
//! duration is known, so sinks never pair begin/end records.

use crate::json::JsonValue;
use std::sync::Arc;

/// Which half of a decoupled task a phase span covers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PhaseKind {
    /// The compiler-generated prefetch slice (run at low frequency).
    Access,
    /// The original task body (run on a warm cache).
    #[default]
    Execute,
}

impl PhaseKind {
    /// Stable lowercase name, used as the Chrome-trace category.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            PhaseKind::Access => "access",
            PhaseKind::Execute => "execute",
        }
    }
}

/// Snapshot of a phase's execution counters (a plain-data mirror of the
/// simulator's `PhaseTrace`, without the per-miss event list).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Dynamic instructions executed.
    pub instrs: u64,
    /// Address computations folded into addressing modes.
    pub addr_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Software prefetches executed.
    pub prefetches: u64,
    /// Branch/jump terminators executed.
    pub branches: u64,
    /// Demand loads served per level `[L1, L2, LLC, Memory]`.
    pub demand_hits: [u64; 4],
    /// Prefetches served per level `[L1, L2, LLC, Memory]`.
    pub prefetch_hits: [u64; 4],
    /// Total DRAM line transfers (demand + prefetch + write traffic).
    pub dram_lines: u64,
}

impl PhaseCounters {
    /// JSON object with one key per counter.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("instrs", self.instrs.into()),
            ("addr_ops", self.addr_ops.into()),
            ("fp_ops", self.fp_ops.into()),
            ("loads", self.loads.into()),
            ("stores", self.stores.into()),
            ("prefetches", self.prefetches.into()),
            ("branches", self.branches.into()),
            ("demand_hits", level_array(&self.demand_hits)),
            ("prefetch_hits", level_array(&self.prefetch_hits)),
            ("dram_lines", self.dram_lines.into()),
        ])
    }

    /// DRAM demand misses per executed load, in `[0, 1]` — the classic
    /// miss-ratio boundedness indicator (0 when the phase executed no
    /// loads).
    pub fn miss_ratio(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.demand_hits[3] as f64 / self.loads as f64
        }
    }
}

/// One phase as the scheduler charged it: the record the trace, an online
/// governor and the profile collector all observe. Times and energies are
/// at the operating point the phase ran at; the boundedness is measured at
/// fmax, so it does not drift with whatever frequency was chosen.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseRecord {
    /// Index of the IR function the phase ran.
    pub func: u32,
    /// Access or execute.
    pub kind: PhaseKind,
    /// Operating frequency the phase ran at, in GHz.
    pub freq_ghz: f64,
    /// Duration of the phase, in seconds.
    pub time_s: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// The DVFS transition billed before the phase, in seconds (0 when the
    /// core was already at `freq_ghz`).
    pub transition_s: f64,
    /// The static energy of that transition, in joules.
    pub transition_j: f64,
    /// Dynamic (switching) energy of the phase, in joules.
    pub dyn_energy_j: f64,
    /// The core's static-energy share over the phase, in joules.
    pub static_energy_j: f64,
    /// Energy of the phase under the full power model (dynamic, per-core
    /// static and the chip-base share), in joules: the objective the
    /// *Optimal-f* search minimises.
    pub model_energy_j: f64,
    /// Execution counters of the phase.
    pub counters: PhaseCounters,
    /// Fraction of the phase's fmax runtime that is frequency-insensitive
    /// (memory-boundedness in `[0, 1]`).
    pub mem_bound_frac: f64,
    /// Serialised demand-miss clusters, one memory latency of demand stall
    /// each: memory-level parallelism is DRAM misses per cluster.
    pub miss_clusters: f64,
}

fn level_array(levels: &[u64; 4]) -> JsonValue {
    JsonValue::Arr(levels.iter().map(|&v| v.into()).collect())
}

/// One trace event. Every variant carries the core it happened on and a
/// `[start_s, start_s + dur_s]` interval in virtual seconds; intervals on
/// the same core never overlap.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// An access or execute phase of one task instance.
    Phase {
        /// Simulated core index.
        core: u32,
        /// Index of the task instance in the submitted workload.
        task: u32,
        /// Name of the IR function the phase ran, shared by every phase of
        /// that function in one run.
        name: Arc<str>,
        /// Start time in virtual seconds.
        start_s: f64,
        /// The charged phase; its duration is `record.time_s`.
        record: PhaseRecord,
    },
    /// Runtime cost of dequeuing/scheduling one task.
    Overhead {
        /// Simulated core index.
        core: u32,
        /// Index of the task instance being dispatched.
        task: u32,
        /// Start time in virtual seconds.
        start_s: f64,
        /// Duration in seconds.
        dur_s: f64,
        /// Static energy burned while dispatching, in joules.
        energy_j: f64,
    },
    /// A DVFS operating-point change (§6.1: static energy only).
    DvfsTransition {
        /// Simulated core index.
        core: u32,
        /// Start time in virtual seconds.
        start_s: f64,
        /// Transition latency in seconds (0 for ideal DVFS).
        dur_s: f64,
        /// Frequency before the transition, in GHz.
        from_ghz: f64,
        /// Frequency after the transition, in GHz.
        to_ghz: f64,
        /// Static energy burned during the transition, in joules.
        energy_j: f64,
    },
    /// A gap in which a core had no work (barrier wait / end of run).
    Idle {
        /// Simulated core index.
        core: u32,
        /// Start time in virtual seconds.
        start_s: f64,
        /// Duration in seconds.
        dur_s: f64,
    },
    /// One compiler pass executed by the compilation driver over one
    /// function. Unlike the runtime variants the interval is **host
    /// wall-clock** seconds, relative to the driver run's origin — the
    /// same exporters render compile time the way they render run time.
    CompilePass {
        /// Driver worker index (the lane the span renders on).
        core: u32,
        /// Name of the pass.
        pass: String,
        /// Name of the function being compiled.
        func: String,
        /// Start in seconds since the driver run began.
        start_s: f64,
        /// Duration in seconds.
        dur_s: f64,
        /// True when the pass result was replayed from the incremental
        /// cache instead of being recomputed.
        cached: bool,
    },
    /// One function lowered to simulator bytecode by a machine's execution
    /// engine (instantaneous on the virtual timeline: lowering is host-side
    /// work, its wall-clock cost rides along as metadata).
    BytecodeLower {
        /// Simulated core index whose machine lowered the function.
        core: u32,
        /// Name of the lowered function.
        func: String,
        /// Bytecode ops emitted.
        ops: u32,
        /// Fused super-ops among them.
        fused: u32,
        /// Time of the lowering on the virtual timeline, in seconds.
        start_s: f64,
        /// Host wall-clock spent lowering, in seconds.
        wall_s: f64,
    },
    /// One work request routed by the serving gateway to a backend. Like
    /// [`TraceEvent::CompilePass`] the interval is **host wall-clock**
    /// seconds, relative to the gateway's start; the lane is the backend's
    /// index in the gateway's pool.
    GateRoute {
        /// Index of the backend that answered (the lane the span renders on).
        core: u32,
        /// FNV route key of the request, rendered as fixed-width hex.
        key: u64,
        /// Address of the backend that answered.
        backend: String,
        /// Attempts it took (1 = first try; >1 means retries/failover).
        attempts: u32,
        /// True when bounded-load routing spilled the request off its
        /// home ring node because that backend was at its in-flight cap.
        spilled: bool,
        /// Start in seconds since the gateway started.
        start_s: f64,
        /// End-to-end forwarding duration in seconds.
        dur_s: f64,
    },
    /// The gateway ejected a backend from the routing ring (instantaneous;
    /// host wall-clock timestamp like [`TraceEvent::GateRoute`]).
    BackendEject {
        /// Index of the ejected backend (its lane).
        core: u32,
        /// Address of the ejected backend.
        backend: String,
        /// Why: `probe-failures`, `request-failures` or `draining`.
        reason: String,
        /// Consecutive failures observed at ejection time.
        failures: u32,
        /// Time of the ejection in seconds since the gateway started.
        start_s: f64,
    },
    /// An online governor's per-task frequency decision (instantaneous:
    /// the decision itself costs no virtual time or energy).
    GovernorDecision {
        /// Simulated core index.
        core: u32,
        /// Index of the task instance the decision applies to.
        task: u32,
        /// Label of the task class the decision was cached under.
        class: String,
        /// Time of the decision in virtual seconds.
        start_s: f64,
        /// Chosen access-phase frequency, in GHz.
        access_ghz: f64,
        /// Chosen execute-phase frequency, in GHz.
        execute_ghz: f64,
        /// True when the decision was exploratory rather than greedy.
        explore: bool,
        /// True when the safety guard forced the min/max fallback.
        guarded: bool,
    },
}

impl TraceEvent {
    /// The core the event happened on.
    pub fn core(&self) -> u32 {
        match self {
            TraceEvent::Phase { core, .. }
            | TraceEvent::Overhead { core, .. }
            | TraceEvent::DvfsTransition { core, .. }
            | TraceEvent::Idle { core, .. }
            | TraceEvent::CompilePass { core, .. }
            | TraceEvent::BytecodeLower { core, .. }
            | TraceEvent::GateRoute { core, .. }
            | TraceEvent::BackendEject { core, .. }
            | TraceEvent::GovernorDecision { core, .. } => *core,
        }
    }

    /// Start of the event's interval, in virtual seconds.
    pub fn start_s(&self) -> f64 {
        match self {
            TraceEvent::Phase { start_s, .. }
            | TraceEvent::Overhead { start_s, .. }
            | TraceEvent::DvfsTransition { start_s, .. }
            | TraceEvent::Idle { start_s, .. }
            | TraceEvent::CompilePass { start_s, .. }
            | TraceEvent::BytecodeLower { start_s, .. }
            | TraceEvent::GateRoute { start_s, .. }
            | TraceEvent::BackendEject { start_s, .. }
            | TraceEvent::GovernorDecision { start_s, .. } => *start_s,
        }
    }

    /// Duration of the event's interval, in seconds.
    pub fn dur_s(&self) -> f64 {
        match self {
            TraceEvent::Phase { record, .. } => record.time_s,
            TraceEvent::Overhead { dur_s, .. }
            | TraceEvent::DvfsTransition { dur_s, .. }
            | TraceEvent::Idle { dur_s, .. }
            | TraceEvent::CompilePass { dur_s, .. }
            | TraceEvent::GateRoute { dur_s, .. } => *dur_s,
            TraceEvent::BytecodeLower { .. }
            | TraceEvent::BackendEject { .. }
            | TraceEvent::GovernorDecision { .. } => 0.0,
        }
    }

    /// End of the event's interval, in virtual seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s() + self.dur_s()
    }

    /// Total energy attached to the event, in joules (0 for idle gaps —
    /// idle cores are in sleep states).
    pub fn energy_j(&self) -> f64 {
        match self {
            TraceEvent::Phase { record, .. } => record.dyn_energy_j + record.static_energy_j,
            TraceEvent::Overhead { energy_j, .. } | TraceEvent::DvfsTransition { energy_j, .. } => {
                *energy_j
            }
            TraceEvent::Idle { .. }
            | TraceEvent::CompilePass { .. }
            | TraceEvent::BytecodeLower { .. }
            | TraceEvent::GateRoute { .. }
            | TraceEvent::BackendEject { .. }
            | TraceEvent::GovernorDecision { .. } => 0.0,
        }
    }

    /// Stable category slug: `access`, `execute`, `overhead`, `dvfs`,
    /// `idle`, `compile`, `lower`, `route`, `eject` or `governor`.
    /// Exporters group and reconcile spans by this.
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::Phase { record, .. } => record.kind.as_str(),
            TraceEvent::Overhead { .. } => "overhead",
            TraceEvent::DvfsTransition { .. } => "dvfs",
            TraceEvent::Idle { .. } => "idle",
            TraceEvent::CompilePass { .. } => "compile",
            TraceEvent::BytecodeLower { .. } => "lower",
            TraceEvent::GateRoute { .. } => "route",
            TraceEvent::BackendEject { .. } => "eject",
            TraceEvent::GovernorDecision { .. } => "governor",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let events = [
            TraceEvent::Phase {
                core: 1,
                task: 7,
                name: "f".into(),
                start_s: 1.0,
                record: PhaseRecord {
                    kind: PhaseKind::Execute,
                    time_s: 0.5,
                    dyn_energy_j: 2.0,
                    static_energy_j: 1.0,
                    ..Default::default()
                },
            },
            TraceEvent::Overhead { core: 1, task: 7, start_s: 0.5, dur_s: 0.25, energy_j: 0.1 },
            TraceEvent::DvfsTransition {
                core: 1,
                start_s: 0.75,
                dur_s: 0.25,
                from_ghz: 3.4,
                to_ghz: 1.6,
                energy_j: 0.2,
            },
            TraceEvent::Idle { core: 1, start_s: 1.5, dur_s: 0.5 },
            TraceEvent::CompilePass {
                core: 1,
                pass: "generate-access".into(),
                func: "lu_inner".into(),
                start_s: 0.0,
                dur_s: 0.01,
                cached: false,
            },
            TraceEvent::BytecodeLower {
                core: 1,
                func: "lu_inner".into(),
                ops: 24,
                fused: 3,
                start_s: 0.0,
                wall_s: 2e-6,
            },
            TraceEvent::GateRoute {
                core: 1,
                key: 0xdead_beef,
                backend: "127.0.0.1:7777".into(),
                attempts: 2,
                spilled: false,
                start_s: 3.0,
                dur_s: 0.002,
            },
            TraceEvent::BackendEject {
                core: 1,
                backend: "127.0.0.1:7778".into(),
                reason: "probe-failures".into(),
                failures: 3,
                start_s: 3.5,
            },
            TraceEvent::GovernorDecision {
                core: 1,
                task: 7,
                class: "f#00aa".into(),
                start_s: 2.0,
                access_ghz: 1.6,
                execute_ghz: 3.4,
                explore: true,
                guarded: false,
            },
        ];
        let cats: Vec<&str> = events.iter().map(|e| e.category()).collect();
        assert_eq!(
            cats,
            [
                "execute", "overhead", "dvfs", "idle", "compile", "lower", "route", "eject",
                "governor"
            ]
        );
        for e in &events {
            assert_eq!(e.core(), 1);
            assert!((e.end_s() - e.start_s() - e.dur_s()).abs() < 1e-15);
        }
        assert_eq!(events[0].energy_j(), 3.0);
        assert_eq!(events[3].energy_j(), 0.0);
        // Compile passes burn wall-clock, not modelled energy.
        assert_eq!(events[4].energy_j(), 0.0);
        assert!((events[4].dur_s() - 0.01).abs() < 1e-15);
        // Routing spans carry wall-clock duration but no modelled energy.
        assert!((events[6].dur_s() - 0.002).abs() < 1e-15);
        assert_eq!(events[6].energy_j(), 0.0);
        // Lowering, ejections and decisions are instantaneous and free on
        // the virtual timeline.
        for e in [&events[5], &events[7], &events[8]] {
            assert_eq!(e.dur_s(), 0.0);
            assert_eq!(e.energy_j(), 0.0);
        }
    }

    #[test]
    fn counters_serialize() {
        let a = PhaseCounters { instrs: 15, demand_hits: [5, 5, 5, 5], ..Default::default() };
        let j = a.to_json();
        assert_eq!(j.get("instrs").unwrap().as_f64(), Some(15.0));
        assert_eq!(j.get("demand_hits").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn miss_ratio_counts_dram_misses_per_load() {
        let mut c = PhaseCounters { loads: 100, ..Default::default() };
        assert_eq!(c.miss_ratio(), 0.0);
        c.demand_hits = [80, 10, 5, 5];
        assert!((c.miss_ratio() - 0.05).abs() < 1e-12);
        assert_eq!(PhaseCounters::default().miss_ratio(), 0.0, "no loads ⇒ ratio 0");
    }
}
