//! The profile record: per-phase counter aggregates, their derived
//! signals, deterministic merging and the content hash.
//!
//! A [`PhaseProfile`] is the unit the store keys by the driver's
//! `task_key`: one record per (task IR × options × pipeline) identity,
//! accumulated over any number of runs. All aggregation is **saturating**
//! — merging is associative and commutative on the counter lattice, so
//! the merged record is independent of the order profiles arrive in, and
//! a hostile file full of `u64::MAX` cannot overflow into a panic.

use std::collections::{BTreeMap, HashMap};

use dae_ir::FuncId;
use dae_trace::fnv::{self, fnv1a};
use dae_trace::json::JsonValue;
use dae_trace::{PhaseKind, PhaseRecord, TraceEvent, TraceSink};

use crate::PROFILE_SCHEMA;

/// One phase's counters from a single run, read off the scheduler's
/// [`PhaseRecord`] by `PhaseSample::of`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSample {
    /// Dynamic instructions retired.
    pub instrs: u64,
    /// Demand loads issued.
    pub loads: u64,
    /// Demand loads served from DRAM (LLC misses).
    pub dram_misses: u64,
    /// Software prefetches issued.
    pub prefetches: u64,
    /// Software prefetches that actually fetched a line from DRAM (the
    /// rest hit a cache level — a redundant prefetch).
    pub prefetch_dram_lines: u64,
    /// Conditional branches executed (the trip-count signal).
    pub branches: u64,
    /// Memory-level parallelism ×100: DRAM misses per serialised miss
    /// cluster, as measured by the interval timing model.
    pub mlp_x100: u64,
    /// Measured memory-bound fraction of the phase at fmax, in parts per
    /// million.
    pub mem_bound_ppm: u64,
}

/// Saturating counter sums of one phase over `runs` runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Total dynamic instructions.
    pub instrs: u64,
    /// Total demand loads.
    pub loads: u64,
    /// Total demand loads served from DRAM.
    pub dram_misses: u64,
    /// Total software prefetches issued.
    pub prefetches: u64,
    /// Total prefetches that fetched a line from DRAM.
    pub prefetch_dram_lines: u64,
    /// Total conditional branches.
    pub branches: u64,
    /// Sum over runs of the per-run MLP ×100.
    pub mlp_x100_sum: u64,
    /// Sum over runs of the per-run memory-bound ppm.
    pub mem_bound_ppm_sum: u64,
}

impl PhaseSample {
    /// The sample of one charged phase. DRAM-level hits index 3 of the hit
    /// arrays; memory-level parallelism is the interval model's proxy
    /// (DRAM misses per serialised miss cluster); boundedness is the
    /// record's, measured at fmax so stored profiles do not drift with
    /// whatever frequency the run happened to pick.
    pub(crate) fn of(r: &PhaseRecord) -> PhaseSample {
        let c = &r.counters;
        let dram = c.demand_hits[3];
        let mlp = if r.miss_clusters > 0.0 { dram as f64 / r.miss_clusters } else { 0.0 };
        PhaseSample {
            instrs: c.instrs,
            loads: c.loads,
            dram_misses: dram,
            prefetches: c.prefetches,
            prefetch_dram_lines: c.prefetch_hits[3],
            branches: c.branches,
            mlp_x100: (mlp * 100.0).round() as u64,
            mem_bound_ppm: (r.mem_bound_frac * 1e6).round().clamp(0.0, 1e6) as u64,
        }
    }
}

impl PhaseAgg {
    fn absorb(&mut self, s: &PhaseSample) {
        self.instrs = self.instrs.saturating_add(s.instrs);
        self.loads = self.loads.saturating_add(s.loads);
        self.dram_misses = self.dram_misses.saturating_add(s.dram_misses);
        self.prefetches = self.prefetches.saturating_add(s.prefetches);
        self.prefetch_dram_lines = self.prefetch_dram_lines.saturating_add(s.prefetch_dram_lines);
        self.branches = self.branches.saturating_add(s.branches);
        self.mlp_x100_sum = self.mlp_x100_sum.saturating_add(s.mlp_x100);
        self.mem_bound_ppm_sum = self.mem_bound_ppm_sum.saturating_add(s.mem_bound_ppm);
    }

    fn merge(&mut self, o: &PhaseAgg) {
        self.instrs = self.instrs.saturating_add(o.instrs);
        self.loads = self.loads.saturating_add(o.loads);
        self.dram_misses = self.dram_misses.saturating_add(o.dram_misses);
        self.prefetches = self.prefetches.saturating_add(o.prefetches);
        self.prefetch_dram_lines = self.prefetch_dram_lines.saturating_add(o.prefetch_dram_lines);
        self.branches = self.branches.saturating_add(o.branches);
        self.mlp_x100_sum = self.mlp_x100_sum.saturating_add(o.mlp_x100_sum);
        self.mem_bound_ppm_sum = self.mem_bound_ppm_sum.saturating_add(o.mem_bound_ppm_sum);
    }

    fn to_json(self) -> JsonValue {
        JsonValue::obj([
            ("instrs", self.instrs.into()),
            ("loads", self.loads.into()),
            ("dram_misses", self.dram_misses.into()),
            ("prefetches", self.prefetches.into()),
            ("prefetch_dram_lines", self.prefetch_dram_lines.into()),
            ("branches", self.branches.into()),
            ("mlp_x100_sum", self.mlp_x100_sum.into()),
            ("mem_bound_ppm_sum", self.mem_bound_ppm_sum.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Option<PhaseAgg> {
        let field = |name: &str| -> Option<u64> {
            let n = v.get(name)?.as_f64()?;
            // Counters are non-negative by construction; a hostile file
            // carrying NaN, a negative or an overscaled float is clamped
            // into the representable range, never trusted into a panic.
            if n.is_nan() {
                return None;
            }
            Some(n.clamp(0.0, u64::MAX as f64) as u64)
        };
        Some(PhaseAgg {
            instrs: field("instrs")?,
            loads: field("loads")?,
            dram_misses: field("dram_misses")?,
            prefetches: field("prefetches")?,
            prefetch_dram_lines: field("prefetch_dram_lines")?,
            branches: field("branches")?,
            mlp_x100_sum: field("mlp_x100_sum")?,
            mem_bound_ppm_sum: field("mem_bound_ppm_sum")?,
        })
    }

    fn hash_into(&self, mut h: u64) -> u64 {
        for v in [
            self.instrs,
            self.loads,
            self.dram_misses,
            self.prefetches,
            self.prefetch_dram_lines,
            self.branches,
            self.mlp_x100_sum,
            self.mem_bound_ppm_sum,
        ] {
            h = fnv1a(h, &v.to_le_bytes());
        }
        h
    }
}

/// The profile of one task identity: access- and execute-phase counter
/// aggregates over `runs` decoupled runs. For tasks that ran coupled the
/// access aggregate stays zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Task executions aggregated into this record.
    pub runs: u64,
    /// Access-phase counter sums.
    pub access: PhaseAgg,
    /// Execute-phase counter sums.
    pub execute: PhaseAgg,
}

impl PhaseProfile {
    /// Absorbs one run's samples (saturating).
    pub fn absorb(&mut self, access: Option<&PhaseSample>, execute: &PhaseSample) {
        self.runs = self.runs.saturating_add(1);
        if let Some(a) = access {
            self.access.absorb(a);
        }
        self.execute.absorb(execute);
    }

    /// Merges another record into this one (saturating; commutative and
    /// associative, so aggregation order never changes the result).
    pub(crate) fn merge(&mut self, o: &PhaseProfile) {
        self.runs = self.runs.saturating_add(o.runs);
        self.access.merge(&o.access);
        self.execute.merge(&o.execute);
    }

    /// Fraction of issued prefetches that actually fetched a line from
    /// DRAM. Low accuracy means the access phase mostly re-touches lines
    /// it (or the hardware) already brought in — e.g. eight consecutive
    /// `f64` prefetches per 64-byte line score 1/8.
    pub(crate) fn prefetch_accuracy(&self) -> f64 {
        ratio(self.access.prefetch_dram_lines, self.access.prefetches)
    }

    /// Fraction of the task's DRAM line traffic fetched by the access
    /// phase ahead of execute: `pf_lines / (pf_lines + execute_misses)`.
    /// Near zero means the access phase fetched (almost) nothing execute
    /// would have missed on — a useless phase.
    pub(crate) fn prefetch_coverage(&self) -> f64 {
        let pf = self.access.prefetch_dram_lines;
        ratio(pf, pf.saturating_add(self.execute.dram_misses))
    }

    /// Mean measured memory-bound fraction of the execute phase at fmax.
    pub fn execute_mem_bound(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        (self.execute.mem_bound_ppm_sum as f64 / self.runs as f64) / 1e6
    }

    /// Mean conditional branches per run — the measured trip-count
    /// signal used to synthesise loop-bound hints for unhinted tasks.
    pub(crate) fn trip_estimate(&self) -> u64 {
        self.execute.branches.checked_div(self.runs).unwrap_or(0)
    }

    /// Stable content hash of the record (FNV-1a-64 over the schema tag
    /// and every counter). The driver folds this into the cache
    /// `task_key` of a refined compile, so an artifact can never be
    /// served against a profile other than the one that shaped it.
    pub fn content_hash(&self) -> u64 {
        let mut h = fnv1a(fnv::OFFSET, PROFILE_SCHEMA.as_bytes());
        h = fnv1a(h, &self.runs.to_le_bytes());
        h = self.access.hash_into(h);
        h = self.execute.hash_into(h);
        h
    }

    /// The record's JSON form, without its key (the store adds it).
    pub(crate) fn to_json(self) -> JsonValue {
        JsonValue::obj([
            ("runs", self.runs.into()),
            ("access", self.access.to_json()),
            ("execute", self.execute.to_json()),
        ])
    }

    /// Parses [`PhaseProfile::to_json`]'s shape; `None` on any missing or
    /// malformed field (the store skips such records).
    pub(crate) fn from_json(v: &JsonValue) -> Option<PhaseProfile> {
        let runs = v.get("runs")?.as_f64()?;
        if runs.is_nan() || runs < 0.0 {
            return None;
        }
        Some(PhaseProfile {
            runs: runs.clamp(0.0, u64::MAX as f64) as u64,
            access: PhaseAgg::from_json(v.get("access")?)?,
            execute: PhaseAgg::from_json(v.get("execute")?)?,
        })
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// An immutable, deterministic profile view keyed by the driver's base
/// `task_key` — what the driver's `refine` stage consults during a
/// compile. Cloning is cheap enough for per-compile snapshots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSet {
    map: BTreeMap<u64, PhaseProfile>,
}

impl ProfileSet {
    /// An empty set (refinement becomes a strict no-op).
    pub fn new() -> ProfileSet {
        ProfileSet::default()
    }

    /// The profile of `key`, if one was collected.
    pub fn get(&self, key: u64) -> Option<&PhaseProfile> {
        self.map.get(&key)
    }

    /// Inserts (merging with any existing record under `key`).
    pub fn insert(&mut self, key: u64, p: PhaseProfile) {
        self.map.entry(key).or_default().merge(&p);
    }

    /// True when no profile is held — the byte-identity fast path.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Records in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &PhaseProfile)> {
        self.map.iter()
    }
}

/// A trace sink that folds a run's phase events into per-task profiles,
/// keyed by the *execute* function: that is the task identity the driver's
/// base `task_key` names. An access phase waits for the execute phase of
/// its own task instance, so events of tasks on different cores may
/// interleave. The caller remaps function ids to driver `task_key`s
/// afterwards (the scheduler does not know them).
#[derive(Debug, Default)]
pub struct ProfileCollector {
    map: BTreeMap<FuncId, PhaseProfile>,
    /// Access samples whose task's execute phase has not arrived yet, by
    /// task index.
    pending: HashMap<u32, PhaseSample>,
}

impl TraceSink for ProfileCollector {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        let TraceEvent::Phase { task, record, .. } = event else { return };
        let sample = PhaseSample::of(&record);
        match record.kind {
            PhaseKind::Access => {
                self.pending.insert(task, sample);
            }
            PhaseKind::Execute => {
                let access = self.pending.remove(&task);
                self.map.entry(FuncId(record.func)).or_default().absorb(access.as_ref(), &sample);
            }
        }
    }
}

impl ProfileCollector {
    /// A fresh, empty collector.
    pub fn new() -> ProfileCollector {
        ProfileCollector::default()
    }

    /// Collected profiles in deterministic function order.
    pub fn iter(&self) -> impl Iterator<Item = (&FuncId, &PhaseProfile)> {
        self.map.iter()
    }

    /// Number of distinct tasks profiled.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drains the collected profiles.
    pub fn take(&mut self) -> BTreeMap<FuncId, PhaseProfile> {
        std::mem::take(&mut self.map)
    }

    /// Drains the collected profiles under the driver's base task keys
    /// (`key_of`), in function order; a function without a task key is
    /// dropped. This is the one mapping from a run's profiles to the keys
    /// the store and the `refine` stage look them up by.
    pub fn drain_keyed<'a>(
        &mut self,
        key_of: impl Fn(FuncId) -> Option<u64> + 'a,
    ) -> impl Iterator<Item = (u64, PhaseProfile)> + 'a {
        self.take().into_iter().filter_map(move |(func, p)| Some((key_of(func)?, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_trace::PhaseCounters;
    use PhaseKind::{Access, Execute};

    pub(crate) fn sample(scale: u64) -> PhaseSample {
        PhaseSample {
            instrs: 1000 * scale,
            loads: 100 * scale,
            dram_misses: 10 * scale,
            prefetches: 80 * scale,
            prefetch_dram_lines: 10 * scale,
            branches: 64 * scale,
            mlp_x100: 250,
            mem_bound_ppm: 600_000,
        }
    }

    #[test]
    fn merge_is_saturating_and_order_independent() {
        let mut a = PhaseProfile::default();
        a.absorb(Some(&sample(1)), &sample(2));
        let mut b = PhaseProfile::default();
        b.absorb(None, &sample(3));
        let (mut ab, mut ba) = (a, b);
        ab.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.runs, 2);
        // Saturation: a hostile near-MAX record cannot overflow.
        let mut big = PhaseProfile { runs: u64::MAX - 1, ..Default::default() };
        big.execute.instrs = u64::MAX - 5;
        let mut other = big;
        big.merge(&other);
        assert_eq!(big.runs, u64::MAX);
        assert_eq!(big.execute.instrs, u64::MAX);
        other.merge(&big);
        assert_eq!(other.execute.instrs, u64::MAX);
    }

    #[test]
    fn derived_signals_match_hand_arithmetic() {
        let mut p = PhaseProfile::default();
        p.absorb(Some(&sample(1)), &sample(1));
        // accuracy = pf_dram / prefetches = 10/80
        assert!((p.prefetch_accuracy() - 0.125).abs() < 1e-12);
        // coverage = 10 / (10 + 10)
        assert!((p.prefetch_coverage() - 0.5).abs() < 1e-12);
        assert!((p.execute_mem_bound() - 0.6).abs() < 1e-12);
        assert_eq!(p.trip_estimate(), 64);
        // Degenerate denominators never divide by zero.
        let z = PhaseProfile::default();
        assert_eq!(z.prefetch_accuracy(), 0.0);
        assert_eq!(z.prefetch_coverage(), 0.0);
        assert_eq!(z.execute_mem_bound(), 0.0);
        assert_eq!(z.trip_estimate(), 0);
    }

    #[test]
    fn json_round_trips_and_rejects_malformed_fields() {
        let mut p = PhaseProfile::default();
        p.absorb(Some(&sample(3)), &sample(7));
        let back = PhaseProfile::from_json(&p.to_json()).expect("round trip");
        assert_eq!(back, p);
        assert_eq!(back.content_hash(), p.content_hash());
        // Missing field ⇒ None.
        let v = dae_trace::json::parse(r#"{"runs":1,"access":{}}"#).unwrap();
        assert!(PhaseProfile::from_json(&v).is_none());
        // Negative / NaN-ish counters ⇒ rejected or clamped, never panic.
        let neg = dae_trace::json::parse(r#"{"runs":-3,"access":{},"execute":{}}"#).unwrap();
        assert!(PhaseProfile::from_json(&neg).is_none());
    }

    #[test]
    fn content_hash_is_sensitive_to_every_phase() {
        let mut a = PhaseProfile::default();
        a.absorb(Some(&sample(1)), &sample(1));
        let mut b = a;
        b.execute.loads += 1;
        assert_ne!(a.content_hash(), b.content_hash());
        let mut c = a;
        c.access.prefetches += 1;
        assert_ne!(a.content_hash(), c.content_hash());
        assert_eq!(a.content_hash(), a.content_hash());
    }

    /// A phase of function `func` that ran `instrs` instructions, 4 of its
    /// 8 loads from DRAM over 2 serialised miss clusters.
    fn rec(kind: PhaseKind, func: u32, instrs: u64) -> PhaseRecord {
        let counters =
            PhaseCounters { instrs, loads: 8, demand_hits: [4, 0, 0, 4], ..Default::default() };
        let (mem_bound_frac, miss_clusters) = (0.25, 2.0);
        PhaseRecord { func, kind, counters, mem_bound_frac, miss_clusters, ..Default::default() }
    }

    fn event(core: u32, task: u32, record: PhaseRecord) -> TraceEvent {
        TraceEvent::Phase { core, task, name: "".into(), start_s: 0.0, record }
    }

    #[test]
    fn a_sample_reads_the_record() {
        let s = PhaseSample::of(&rec(Execute, 3, 100));
        let read = (s.instrs, s.loads, s.dram_misses, s.mlp_x100, s.mem_bound_ppm);
        assert_eq!(read, (100, 8, 4, 200, 250_000), "MLP: 4 DRAM misses over 2 clusters");
        assert_eq!(PhaseSample::of(&PhaseRecord::default()).mlp_x100, 0, "no clusters, MLP 0");
    }

    #[test]
    fn collector_groups_by_function() {
        let mut col = ProfileCollector::new();
        for task in 0..2 {
            col.record(event(0, task, rec(Access, 4, 1)));
            col.record(event(0, task, rec(Execute, 3, 10)));
        }
        col.record(event(0, 2, rec(Execute, 9, 20)));
        col.record(TraceEvent::Idle { core: 0, start_s: 0.0, dur_s: 1.0 });
        assert_eq!(col.len(), 2);
        let profiles = col.take();
        assert_eq!((profiles[&FuncId(3)].runs, profiles[&FuncId(3)].access.instrs), (2, 2));
        assert_eq!(profiles[&FuncId(9)].runs, 1);
        assert_eq!(profiles[&FuncId(9)].access, PhaseAgg::default(), "a coupled task");
        assert!(col.is_empty());
    }

    #[test]
    fn an_access_record_pairs_with_its_own_task_when_cores_interleave() {
        // Task 0 (function 3) on core 0 and task 1 (function 5) on core 1
        // run decoupled, task 2 (function 3) coupled; their events
        // interleave, task 1's execute first.
        let mut col = ProfileCollector::new();
        for (core, task, r) in [
            (0, 0, rec(Access, 4, 1)),
            (1, 1, rec(Access, 6, 2)),
            (1, 1, rec(Execute, 5, 20)),
            (0, 2, rec(Execute, 3, 30)),
            (0, 0, rec(Execute, 3, 10)),
        ] {
            col.record(event(core, task, r));
        }
        let p = col.take();
        assert_eq!((p[&FuncId(5)].runs, p[&FuncId(5)].access.instrs), (1, 2));
        assert_eq!((p[&FuncId(3)].runs, p[&FuncId(3)].access.instrs), (2, 1));
    }

    #[test]
    fn drain_keyed_maps_functions_to_task_keys_and_drops_the_unkeyed() {
        let mut col = ProfileCollector::new();
        col.record(event(0, 0, rec(Execute, 9, 20)));
        col.record(event(0, 1, rec(Access, 4, 1)));
        col.record(event(0, 1, rec(Execute, 3, 10)));
        col.record(event(0, 2, rec(Execute, 5, 10)));
        let keys = HashMap::from([(FuncId(3), 30), (FuncId(9), 90)]);
        let drained: Vec<(u64, u64)> =
            col.drain_keyed(|f| keys.get(&f).copied()).map(|(k, p)| (k, p.runs)).collect();
        assert_eq!(drained, [(30, 1), (90, 1)], "function order; FuncId(5) has no key");
        assert!(col.is_empty());
    }
}
