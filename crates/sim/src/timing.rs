//! The out-of-order interval timing model.
//!
//! The paper's mechanism rests on one asymmetry: **core work scales with
//! frequency, DRAM time does not**. The model computes, from an execution
//! trace:
//!
//! * `t_core(f)` — issue-limited core cycles (instructions / width, plus
//!   long-latency extra cycles and on-chip L2/LLC hit penalties), divided by
//!   the core frequency;
//! * `t_stall` — DRAM demand-miss stall time in *seconds*, with
//!   memory-level parallelism: misses whose addresses depend on a previous
//!   in-flight miss serialise (pointer chasing); independent misses within a
//!   ROB window overlap up to the MSHR count;
//! * `t_bw` — the bandwidth floor: every DRAM line transfer (demand,
//!   prefetch or write-allocate) occupies the memory channel.
//!
//! `time(f) = max(t_core(f) + t_stall, t_bw)` — software prefetches never
//! stall retirement ("does not stall instruction retirement and can
//! therefore provide us with more memory level parallelism", §3.1), so a
//! pure access phase is bandwidth-bound and nearly frequency-insensitive,
//! while a warmed-up execute phase is core-bound and scales with frequency.

use dae_mem::HitLevel;

/// Calibration constants of the timing model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingConfig {
    /// Sustained issue width (instructions per cycle upper bound).
    pub issue_width: f64,
    /// Reorder-buffer reach in instructions: independent DRAM misses closer
    /// than this overlap.
    pub rob_window: u64,
    /// Miss-status-holding registers: maximum overlapped DRAM misses.
    pub mshrs: u64,
    /// Extra core cycles charged per demand L2 hit.
    pub l2_extra_cyc: f64,
    /// Extra core cycles charged per demand LLC hit.
    pub llc_extra_cyc: f64,
    /// DRAM access latency in nanoseconds (frequency independent).
    pub mem_latency_ns: f64,
    /// Memory-channel occupancy per 64 B line transfer, in nanoseconds.
    pub line_transfer_ns: f64,
    /// Residual (post-overlap) latency of a DRAM line covered by the
    /// hardware stream prefetcher, in nanoseconds. Real prefetchers hide
    /// only part of the DRAM latency — the stream consumer still sees this
    /// much per line, independent of core frequency.
    pub hw_covered_ns: f64,
    /// Extra cycles per integer divide/remainder.
    pub idiv_cyc: f64,
    /// Extra cycles per float divide.
    pub fdiv_cyc: f64,
    /// Extra cycles per float square root.
    pub fsqrt_cyc: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            issue_width: 4.0,
            rob_window: 168,
            mshrs: 10,
            l2_extra_cyc: 6.0,
            llc_extra_cyc: 22.0,
            mem_latency_ns: 75.0,
            line_transfer_ns: 8.0,
            hw_covered_ns: 12.0,
            idiv_cyc: 12.0,
            fdiv_cyc: 14.0,
            fsqrt_cyc: 18.0,
        }
    }
}

/// One DRAM demand miss in the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DemandMiss {
    /// Dynamic instruction index at which the miss occurred.
    pub instr_idx: u64,
    /// True if the missing address was computed from the result of an
    /// earlier DRAM-missing load (pointer chasing / indirection) — such a
    /// miss cannot overlap its producer.
    pub dependent: bool,
}

/// Aggregated execution trace of one phase (or any code region).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTrace {
    /// Dynamic instructions executed (all classes) excluding folded address
    /// arithmetic.
    pub instrs: u64,
    /// Address computations folded into x86 addressing modes (`ptradd`,
    /// power-of-two scale multiplies): executed, but issue-slot free.
    pub addr_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Prefetches executed.
    pub prefetches: u64,
    /// Branch/jump terminators executed.
    pub branches: u64,
    /// Extra core cycles from long-latency ops (divides, sqrt).
    pub extra_lat_cycles: f64,
    /// Demand loads served per level `[L1, L2, LLC, Memory]`.
    pub demand_hits: [u64; 4],
    /// Prefetches served per level `[L1, L2, LLC, Memory]`.
    pub prefetch_hits: [u64; 4],
    /// Stores that missed all the way to DRAM (write-allocate traffic).
    pub store_mem_misses: u64,
    /// Demand DRAM misses covered by the hardware stream prefetcher
    /// (charged as on-chip latency plus a bandwidth line).
    pub hw_prefetch_lines: u64,
    /// Dirty lines written back to DRAM on eviction (bandwidth only —
    /// write-backs never stall the pipeline).
    pub writeback_lines: u64,
    /// Every DRAM demand miss, in program order.
    pub demand_misses: Vec<DemandMiss>,
}

/// Index of a [`HitLevel`] into the per-level counters.
pub(crate) fn level_index(l: HitLevel) -> usize {
    match l {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::Llc => 2,
        HitLevel::Memory => 3,
    }
}

impl PhaseTrace {
    /// Accumulates `other` after `self` (instruction indices in
    /// `demand_misses` are shifted).
    pub fn merge(&mut self, other: &PhaseTrace) {
        let base = self.instrs;
        self.instrs += other.instrs;
        self.addr_ops += other.addr_ops;
        self.fp_ops += other.fp_ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.prefetches += other.prefetches;
        self.branches += other.branches;
        self.extra_lat_cycles += other.extra_lat_cycles;
        for i in 0..4 {
            self.demand_hits[i] += other.demand_hits[i];
            self.prefetch_hits[i] += other.prefetch_hits[i];
        }
        self.store_mem_misses += other.store_mem_misses;
        self.hw_prefetch_lines += other.hw_prefetch_lines;
        self.writeback_lines += other.writeback_lines;
        self.demand_misses.extend(
            other
                .demand_misses
                .iter()
                .map(|m| DemandMiss { instr_idx: m.instr_idx + base, dependent: m.dependent }),
        );
    }

    /// Issue-limited core cycles (frequency-independent count; divide by `f`
    /// for seconds).
    pub(crate) fn core_cycles(&self, cfg: &TimingConfig) -> f64 {
        self.instrs as f64 / cfg.issue_width
            + self.extra_lat_cycles
            + self.demand_hits[1] as f64 * cfg.l2_extra_cyc
            + self.demand_hits[2] as f64 * cfg.llc_extra_cyc
    }

    /// DRAM demand stall time in nanoseconds (frequency independent).
    ///
    /// Dependent misses serialise; independent misses within
    /// [`TimingConfig::rob_window`] instructions overlap, bounded by
    /// [`TimingConfig::mshrs`].
    pub fn demand_stall_ns(&self, cfg: &TimingConfig) -> f64 {
        let mut serialized: u64 = 0;
        let mut i = 0usize;
        let misses = &self.demand_misses;
        while i < misses.len() {
            if misses[i].dependent {
                serialized += 1;
                i += 1;
                continue;
            }
            // Grow a cluster of independent misses within the ROB reach.
            let start_idx = misses[i].instr_idx;
            let mut j = i + 1;
            while j < misses.len()
                && !misses[j].dependent
                && misses[j].instr_idx - start_idx < cfg.rob_window
            {
                j += 1;
            }
            let cluster = (j - i) as u64;
            serialized += cluster.div_ceil(cfg.mshrs);
            i = j;
        }
        serialized as f64 * cfg.mem_latency_ns
    }

    /// Total DRAM line transfers (demand + prefetch + hardware-prefetch +
    /// write-allocate + write-back).
    pub fn dram_lines(&self) -> u64 {
        self.demand_hits[3]
            + self.prefetch_hits[3]
            + self.store_mem_misses
            + self.hw_prefetch_lines
            + self.writeback_lines
    }

    /// Bandwidth floor in nanoseconds.
    pub(crate) fn bandwidth_ns(&self, cfg: &TimingConfig) -> f64 {
        self.dram_lines() as f64 * cfg.line_transfer_ns
    }

    /// Wall-clock time of the phase at core frequency `f_hz`.
    pub fn time_s(&self, f_hz: f64, cfg: &TimingConfig) -> f64 {
        let t_core = self.core_cycles(cfg) / f_hz;
        let t_stall = self.demand_stall_ns(cfg) * 1e-9
            + self.hw_prefetch_lines as f64 * cfg.hw_covered_ns * 1e-9;
        let t_bw = self.bandwidth_ns(cfg) * 1e-9;
        (t_core + t_stall).max(t_bw)
    }

    /// Retired instructions per cycle at `f_hz` (the power model's IPC).
    pub fn ipc(&self, f_hz: f64, cfg: &TimingConfig) -> f64 {
        let t = self.time_s(f_hz, cfg);
        if t <= 0.0 {
            0.0
        } else {
            self.instrs as f64 / (t * f_hz)
        }
    }

    /// Snapshot of the counters for the tracing subsystem (everything but
    /// the per-miss event list, which stays simulator-internal).
    pub fn counters(&self) -> dae_trace::PhaseCounters {
        dae_trace::PhaseCounters {
            instrs: self.instrs,
            addr_ops: self.addr_ops,
            fp_ops: self.fp_ops,
            loads: self.loads,
            stores: self.stores,
            prefetches: self.prefetches,
            branches: self.branches,
            demand_hits: self.demand_hits,
            prefetch_hits: self.prefetch_hits,
            dram_lines: self.dram_lines(),
        }
    }

    /// Machine-readable counters as JSON (the per-miss list is summarised
    /// as `demand_miss_events`).
    pub fn to_json(&self) -> dae_trace::json::JsonValue {
        let mut v = self.counters().to_json();
        if let dae_trace::json::JsonValue::Obj(pairs) = &mut v {
            pairs.push((
                "extra_lat_cycles".to_string(),
                dae_trace::json::JsonValue::Num(self.extra_lat_cycles),
            ));
            pairs.push(("store_mem_misses".to_string(), self.store_mem_misses.into()));
            pairs.push(("hw_prefetch_lines".to_string(), self.hw_prefetch_lines.into()));
            pairs.push(("writeback_lines".to_string(), self.writeback_lines.into()));
            pairs.push(("demand_miss_events".to_string(), self.demand_misses.len().into()));
        }
        v
    }

    /// Fraction of `time_s(fmax)` that is frequency-insensitive — a
    /// memory-boundedness indicator in `[0, 1]`.
    pub fn memory_bound_fraction(&self, f_hz: f64, cfg: &TimingConfig) -> f64 {
        let t = self.time_s(f_hz, cfg);
        if t <= 0.0 {
            return 0.0;
        }
        let t_stall = self.demand_stall_ns(cfg) * 1e-9
            + self.hw_prefetch_lines as f64 * cfg.hw_covered_ns * 1e-9;
        let t_bw = self.bandwidth_ns(cfg) * 1e-9;
        (t_stall.max(t_bw) / t).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TimingConfig {
        TimingConfig::default()
    }

    fn compute_trace() -> PhaseTrace {
        PhaseTrace {
            instrs: 100_000,
            fp_ops: 40_000,
            demand_hits: [30_000, 0, 0, 0],
            ..Default::default()
        }
    }

    #[test]
    fn compute_bound_scales_with_frequency() {
        let t = compute_trace();
        let slow = t.time_s(1.6e9, &cfg());
        let fast = t.time_s(3.4e9, &cfg());
        let ratio = slow / fast;
        assert!((ratio - 3.4 / 1.6).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn dependent_misses_serialize() {
        let mut t = PhaseTrace { instrs: 1000, ..Default::default() };
        for k in 0..10 {
            t.demand_misses.push(DemandMiss { instr_idx: k * 10, dependent: true });
        }
        t.demand_hits[3] = 10;
        let stall = t.demand_stall_ns(&cfg());
        assert_eq!(stall, 10.0 * cfg().mem_latency_ns);
    }

    #[test]
    fn independent_misses_overlap() {
        let mut t = PhaseTrace { instrs: 1000, ..Default::default() };
        for k in 0..10 {
            t.demand_misses.push(DemandMiss { instr_idx: k, dependent: false });
        }
        t.demand_hits[3] = 10;
        // 10 misses within one ROB window, 10 MSHRs: one serialized latency.
        assert_eq!(t.demand_stall_ns(&cfg()), cfg().mem_latency_ns);
    }

    #[test]
    fn far_apart_misses_do_not_overlap() {
        let mut t = PhaseTrace { instrs: 100_000, ..Default::default() };
        for k in 0..10u64 {
            t.demand_misses.push(DemandMiss { instr_idx: k * 10_000, dependent: false });
        }
        assert_eq!(t.demand_stall_ns(&cfg()), 10.0 * cfg().mem_latency_ns);
    }

    #[test]
    fn prefetch_phase_is_frequency_insensitive() {
        // Pure prefetch phase: plenty of DRAM lines, few instructions.
        let t = PhaseTrace {
            instrs: 6_000,
            prefetches: 1_000,
            prefetch_hits: [0, 0, 0, 1_000],
            ..Default::default()
        };
        let c = cfg();
        let slow = t.time_s(1.6e9, &c);
        let fast = t.time_s(3.4e9, &c);
        // Bandwidth-bound at both ends: identical.
        assert_eq!(slow, fast);
        assert!(t.memory_bound_fraction(3.4e9, &c) > 0.99);
    }

    #[test]
    fn merge_shifts_indices() {
        let mut a = PhaseTrace { instrs: 100, ..Default::default() };
        a.demand_misses.push(DemandMiss { instr_idx: 50, dependent: false });
        let mut b = PhaseTrace { instrs: 200, ..Default::default() };
        b.demand_misses.push(DemandMiss { instr_idx: 10, dependent: true });
        a.merge(&b);
        assert_eq!(a.instrs, 300);
        assert_eq!(a.demand_misses[1].instr_idx, 110);
        assert!(a.demand_misses[1].dependent);
    }

    #[test]
    fn ipc_is_bounded_by_issue_width() {
        let t = compute_trace();
        let c = cfg();
        assert!(t.ipc(3.4e9, &c) <= c.issue_width + 1e-9);
        assert!(t.ipc(3.4e9, &c) > 0.0);
    }

    #[test]
    fn counters_snapshot_and_json_mirror_the_trace() {
        let mut t = compute_trace();
        t.prefetch_hits = [0, 0, 0, 7];
        t.writeback_lines = 3;
        t.demand_misses.push(DemandMiss { instr_idx: 1, dependent: false });
        let c = t.counters();
        assert_eq!(c.instrs, t.instrs);
        assert_eq!(c.demand_hits, t.demand_hits);
        assert_eq!(c.dram_lines, t.dram_lines());
        let j = t.to_json();
        assert_eq!(j.get("instrs").unwrap().as_f64(), Some(t.instrs as f64));
        assert_eq!(j.get("writeback_lines").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("demand_miss_events").unwrap().as_f64(), Some(1.0));
        // The serialised form parses back as valid JSON.
        let text = j.to_json_string();
        assert!(dae_trace::json::parse(&text).is_ok());
    }

    #[test]
    fn llc_hits_cost_core_cycles() {
        let mut t = compute_trace();
        let base = t.core_cycles(&cfg());
        t.demand_hits[2] = 1000;
        assert_eq!(t.core_cycles(&cfg()), base + 1000.0 * cfg().llc_extra_cyc);
    }
}
