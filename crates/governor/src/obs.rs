//! Feedback signals: what the runtime reports back after each task.
//!
//! The governor never sees the simulator's raw `PhaseTrace`; it reads the
//! [`PhaseRecord`] the scheduler charged for each phase — the same record
//! the trace carries. Its objective is the phase's time and full-model
//! energy at the frequency the phase ran at **plus** the transition it
//! triggered, as billed: the `DaeOptimal` oracle is blind to transitions,
//! and counting them is what lets an online governor learn that, for short
//! tasks, keeping both phases at one operating point beats per-phase
//! switching.

use dae_trace::PhaseRecord;

/// Time billed to a phase, in seconds: its own and its transition's.
fn billed_time_s(r: &PhaseRecord) -> f64 {
    r.time_s + r.transition_s
}

/// Energy billed to a phase, in joules: full-model and transition.
fn billed_energy_j(r: &PhaseRecord) -> f64 {
    r.model_energy_j + r.transition_j
}

/// Energy-delay product billed to a phase.
pub(crate) fn billed_edp(r: &PhaseRecord) -> f64 {
    billed_time_s(r) * billed_energy_j(r)
}

/// Feedback for one completed task instance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskObs {
    /// The access phase, when the task ran decoupled.
    pub access: Option<PhaseRecord>,
    /// The execute phase (or the whole task when coupled).
    pub execute: PhaseRecord,
}

impl TaskObs {
    /// Total task time in seconds.
    pub(crate) fn time_s(&self) -> f64 {
        self.access.as_ref().map_or(0.0, billed_time_s) + billed_time_s(&self.execute)
    }

    /// Total task energy in joules.
    pub(crate) fn energy_j(&self) -> f64 {
        self.access.as_ref().map_or(0.0, billed_energy_j) + billed_energy_j(&self.execute)
    }

    /// Per-task energy-delay product (the governor's objective).
    pub(crate) fn edp(&self) -> f64 {
        self.time_s() * self.energy_j()
    }

    /// Fraction of the task's time spent in the access phase, in `[0, 1]`
    /// — the overhead signal the safety guard watches.
    pub(crate) fn access_frac(&self) -> f64 {
        let t = self.time_s();
        if t <= 0.0 {
            0.0
        } else {
            self.access.as_ref().map_or(0.0, billed_time_s) / t
        }
    }
}

/// A record billed `time_s` and `energy_j`, with no transition.
#[cfg(test)]
pub(crate) fn phase(time_s: f64, energy_j: f64) -> PhaseRecord {
    PhaseRecord { time_s, model_energy_j: energy_j, ..Default::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_edp_sums_phases() {
        let t = TaskObs { access: Some(phase(1.0, 2.0)), execute: phase(3.0, 4.0) };
        assert_eq!(t.time_s(), 4.0);
        assert_eq!(t.energy_j(), 6.0);
        assert_eq!(t.edp(), 24.0);
    }

    #[test]
    fn transitions_are_billed_to_their_phase() {
        let r = PhaseRecord { transition_s: 1.0, transition_j: 0.5, ..phase(1.0, 2.0) };
        assert_eq!(billed_edp(&r), 2.0 * 2.5);
        let t = TaskObs { access: Some(r), execute: phase(2.0, 0.0) };
        assert_eq!(t.access_frac(), 0.5);
    }

    #[test]
    fn access_fraction() {
        let t = TaskObs { access: Some(phase(1.0, 0.0)), execute: phase(3.0, 0.0) };
        assert!((t.access_frac() - 0.25).abs() < 1e-12);
        let coupled = TaskObs { access: None, execute: phase(3.0, 1.0) };
        assert_eq!(coupled.access_frac(), 0.0);
        assert_eq!(TaskObs::default().access_frac(), 0.0);
    }
}
