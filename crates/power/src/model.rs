//! The calibrated Sandybridge power model of Koukos et al. (ICS'13), §3.2.
//!
//! * effective capacitance `Ceff = 0.19·IPC + 1.64` (nF),
//! * dynamic power `Pdyn = Ceff · f · V²`,
//! * static power linear in `V·f` per active core plus a chip constant,
//! * `Energy = T · P`, `EDP = T² · P = T · E`.

use crate::freq::{DvfsTable, FreqId, FreqPoint};

/// The power model parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Slope of `Ceff(IPC)` in nF per IPC (paper: 0.19).
    pub ceff_slope_nf: f64,
    /// Intercept of `Ceff(IPC)` in nF (paper: 1.64).
    pub ceff_base_nf: f64,
    /// Chip-level static power constant in W.
    pub static_base_w: f64,
    /// Static power slope per `V·GHz` per active core, in W.
    pub static_vf_slope_w: f64,
    /// Static power per active core independent of V/f, in W.
    pub static_per_core_w: f64,
}

impl PowerModel {
    /// The calibrated model from the paper (Ceff terms) with static-power
    /// coefficients fitted to typical Sandybridge package measurements.
    pub fn sandybridge() -> PowerModel {
        PowerModel {
            ceff_slope_nf: 0.19,
            ceff_base_nf: 1.64,
            static_base_w: 3.0,
            static_vf_slope_w: 1.2,
            static_per_core_w: 0.8,
        }
    }

    /// Effective switched capacitance (nF) at the given IPC.
    pub(crate) fn ceff_nf(&self, ipc: f64) -> f64 {
        self.ceff_slope_nf * ipc + self.ceff_base_nf
    }

    /// Dynamic power of one core in watts: `Ceff · f · V²`
    /// (nF · GHz · V² = W).
    pub fn dynamic_power_w(&self, point: FreqPoint, ipc: f64) -> f64 {
        self.ceff_nf(ipc) * point.ghz * point.volts * point.volts
    }

    /// Static power in watts for `active_cores` cores at `point`.
    pub(crate) fn static_power_w(&self, point: FreqPoint, active_cores: usize) -> f64 {
        self.static_base_w
            + active_cores as f64
                * (self.static_per_core_w + self.static_vf_slope_w * point.volts * point.ghz)
    }

    /// One active core's share of static power in watts: everything of
    /// `PowerModel::static_power_w` except the chip-level base, which a
    /// run charges once over its makespan. It is also the whole price of a
    /// DVFS transition, per second of it: no instructions execute, so only
    /// static energy is counted (§6.1).
    pub fn core_static_w(&self, point: FreqPoint) -> f64 {
        self.static_power_w(point, 1) - self.static_base_w
    }

    /// Total power of a single core plus its share of static power.
    pub fn total_power_w(&self, point: FreqPoint, ipc: f64, active_cores: usize) -> f64 {
        self.dynamic_power_w(point, ipc) + self.static_power_w(point, active_cores)
    }
}

/// Energy in joules for running `time_s` seconds at `power_w` watts.
pub fn energy_j(time_s: f64, power_w: f64) -> f64 {
    time_s * power_w
}

/// Energy-delay product: `EDP = T² · P = T · E`.
pub fn edp(time_s: f64, energy_j: f64) -> f64 {
    time_s * energy_j
}

/// DVFS transition behaviour (§6.1: 500 ns on current hardware; 0 for the
/// ideal-future projection).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DvfsConfig {
    /// Seconds per frequency transition.
    pub transition_s: f64,
}

impl DvfsConfig {
    /// The paper's "state-of-the-art" 500 ns transition latency.
    pub fn latency_500ns() -> DvfsConfig {
        DvfsConfig { transition_s: 500e-9 }
    }

    /// The paper's ideal instant-DVFS projection.
    pub fn instant() -> DvfsConfig {
        DvfsConfig { transition_s: 0.0 }
    }
}

/// Splits one core's energy over a phase of `time_s` seconds at `point`
/// into `(dynamic_j, static_j)`.
///
/// The static share is [`PowerModel::core_static_w`]. This is the split the tracing subsystem attaches to phase events so
/// energy counter tracks can be reconstructed per phase.
pub fn phase_energy_split_j(
    model: &PowerModel,
    point: FreqPoint,
    ipc: f64,
    time_s: f64,
) -> (f64, f64) {
    let dyn_j = model.dynamic_power_w(point, ipc) * time_s;
    let static_j = model.core_static_w(point) * time_s;
    (dyn_j, static_j)
}

/// Picks the operating point minimising EDP for a phase, given a callback
/// that reports `(time_s, ipc)` of the phase at each candidate frequency.
/// This is the paper's *Optimal-f* policy (exhaustive search, §6.1).
pub fn select_optimal_edp(
    table: &DvfsTable,
    model: &PowerModel,
    active_cores: usize,
    mut eval: impl FnMut(FreqId) -> (f64, f64),
) -> FreqId {
    let mut best = table.min();
    let mut best_edp = f64::INFINITY;
    for (id, point) in table.iter() {
        let (time, ipc) = eval(id);
        let p = model.total_power_w(point, ipc, active_cores);
        let e = energy_j(time, p);
        let metric = edp(time, e);
        if metric < best_edp {
            best_edp = metric;
            best = id;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::sandybridge()
    }

    #[test]
    fn ceff_matches_paper() {
        let m = model();
        assert!((m.ceff_nf(1.0) - 1.83).abs() < 1e-12);
        assert!((m.ceff_nf(2.0) - 2.02).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_scales_superlinearly_with_f() {
        let m = model();
        let t = DvfsTable::sandybridge();
        let lo = m.dynamic_power_w(t.point(t.min()), 1.0);
        let hi = m.dynamic_power_w(t.point(t.max()), 1.0);
        // f ratio is 2.125; with V² the power ratio must exceed it clearly.
        assert!(hi / lo > 3.0, "expected superlinear growth, got {}", hi / lo);
    }

    #[test]
    fn static_power_increases_with_cores_and_vf() {
        let m = model();
        let t = DvfsTable::sandybridge();
        let p1 = m.static_power_w(t.point(t.min()), 1);
        let p4 = m.static_power_w(t.point(t.min()), 4);
        assert!(p4 > p1);
        let hi = m.static_power_w(t.point(t.max()), 4);
        assert!(hi > p4);
    }

    #[test]
    fn edp_definition() {
        // EDP = T² · P
        let t = 2.0;
        let p = 10.0;
        let e = energy_j(t, p);
        assert_eq!(edp(t, e), t * t * p);
    }

    #[test]
    fn phase_energy_split_sums_to_per_core_power() {
        let m = model();
        let t = DvfsTable::sandybridge();
        let point = t.point(t.max());
        let (dyn_j, static_j) = phase_energy_split_j(&m, point, 1.5, 0.01);
        assert!((dyn_j - m.dynamic_power_w(point, 1.5) * 0.01).abs() < 1e-15);
        let per_core_static = m.static_power_w(point, 1) - m.static_base_w;
        assert!((static_j - per_core_static * 0.01).abs() < 1e-15);
        assert!(dyn_j > 0.0 && static_j > 0.0);
    }

    #[test]
    fn optimal_edp_picks_low_f_for_memory_bound() {
        // Memory-bound phase: time nearly flat in f → lowest f wins EDP.
        let m = model();
        let t = DvfsTable::sandybridge();
        let best = select_optimal_edp(&t, &m, 1, |id| {
            let f = t.point(id).ghz;
            let time = 1.0 + 0.01 * (f - 1.6); // ~flat
            (time, 0.3)
        });
        assert_eq!(best, t.min());
    }

    #[test]
    fn optimal_edp_picks_high_f_for_compute_bound() {
        // Compute-bound: time = work/f → EDP = (w/f)²·P; with our V(f) the
        // t² drop beats the power rise across the whole range.
        let m = model();
        let t = DvfsTable::sandybridge();
        let best = select_optimal_edp(&t, &m, 1, |id| {
            let f = t.point(id).ghz;
            (3.4 / f, 2.0)
        });
        assert_eq!(best, t.max());
    }
}
