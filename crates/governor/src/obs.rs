//! Feedback signals: what the runtime reports back after each task.
//!
//! The governor never sees the simulator's raw `PhaseTrace`; the runtime
//! condenses each phase into a [`PhaseObs`] — time, energy and the two
//! boundedness indicators the heuristic needs — evaluated at the frequency
//! the phase actually ran at (time/energy) and at fmax (boundedness, so
//! the classification is stable across whatever frequency was chosen).

/// Condensed measurement of one executed phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseObs {
    /// Wall-clock time of the phase at the chosen frequency, in seconds.
    pub time_s: f64,
    /// Energy of the phase at the chosen frequency, in joules (full power
    /// model: dynamic + per-core static + chip-base share — the same
    /// objective the `DaeOptimal` oracle minimises).
    pub energy_j: f64,
    /// Instructions per cycle at the chosen frequency.
    pub ipc: f64,
    /// Fraction of the phase's fmax runtime that is frequency-insensitive
    /// (memory-boundedness in `[0, 1]`, measured at fmax).
    pub mem_bound_frac: f64,
    /// DRAM demand misses per executed load, in `[0, 1]`.
    pub miss_ratio: f64,
}

impl PhaseObs {
    /// Energy-delay product of the phase.
    pub(crate) fn edp(&self) -> f64 {
        self.time_s * self.energy_j
    }
}

/// Feedback for one completed task instance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskObs {
    /// The access phase, when the task ran decoupled.
    pub access: Option<PhaseObs>,
    /// The execute phase (or the whole task when coupled).
    pub execute: PhaseObs,
}

impl TaskObs {
    /// Total task time in seconds.
    pub(crate) fn time_s(&self) -> f64 {
        self.access.map_or(0.0, |a| a.time_s) + self.execute.time_s
    }

    /// Total task energy in joules.
    pub(crate) fn energy_j(&self) -> f64 {
        self.access.map_or(0.0, |a| a.energy_j) + self.execute.energy_j
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
            self.access.map_or(0.0, |a| a.time_s) / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t: f64, e: f64) -> PhaseObs {
        PhaseObs { time_s: t, energy_j: e, ..Default::default() }
    }

    #[test]
    fn task_edp_sums_phases() {
        let t = TaskObs { access: Some(obs(1.0, 2.0)), execute: obs(3.0, 4.0) };
        assert_eq!(t.time_s(), 4.0);
        assert_eq!(t.energy_j(), 6.0);
        assert_eq!(t.edp(), 24.0);
    }

    #[test]
    fn access_fraction() {
        let t = TaskObs { access: Some(obs(1.0, 0.0)), execute: obs(3.0, 0.0) };
        assert!((t.access_frac() - 0.25).abs() < 1e-12);
        let coupled = TaskObs { access: None, execute: obs(3.0, 1.0) };
        assert_eq!(coupled.access_frac(), 0.0);
        assert_eq!(TaskObs::default().access_frac(), 0.0);
    }
}
