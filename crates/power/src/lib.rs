//! # dae-power — the DVFS power/energy/EDP model
//!
//! Implements the power methodology of §3.2 of the CGO 2014 DAE paper: the
//! measured Sandybridge model of Koukos et al. (ICS'13) with
//! `Ceff = 0.19·IPC + 1.64`, `Pdyn = Ceff·f·V²`, static power linear in
//! `V·f` per active core, the per-core static share
//! ([`PowerModel::core_static_w`]) that is also the whole price of a DVFS
//! transition (§6.1: static energy only, no instructions run), and the
//! exhaustive *Optimal-f* EDP search used in the evaluation.
//!
//! # Examples
//!
//! ```
//! use dae_power::{edp, energy_j, DvfsTable, PowerModel};
//!
//! let table = DvfsTable::sandybridge();
//! let model = PowerModel::sandybridge();
//! let point = table.point(table.max());
//!
//! let time = 0.010; // 10 ms phase
//! let power = model.total_power_w(point, 1.5, 4);
//! let e = energy_j(time, power);
//! assert!(edp(time, e) > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod freq;
pub(crate) mod model;

pub use freq::{DvfsTable, FreqId, FreqPoint};
pub use model::{edp, energy_j, phase_energy_split_j, select_optimal_edp, DvfsConfig, PowerModel};
