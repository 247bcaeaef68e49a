//! A private L1/L2 plus shared LLC hierarchy, Sandybridge-like.
//!
//! The paper sizes tasks so their working set "just fits the private cache
//! hierarchy of a core (i.e., the L1 and the L2 cache)" (§3.1); the runtime
//! creates one [`CoreCaches`] per simulated core over one shared
//! [`SharedLlc`].

use crate::cache::{Cache, CacheConfig, Pending};

/// Where an access was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the private L1.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared last-level cache.
    Llc,
    /// Served by DRAM.
    Memory,
}

/// Default Sandybridge-like geometry: 32 KiB/8-way L1, 256 KiB/8-way L2,
/// 8 MiB/16-way LLC, 64 B lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 32 * 1024, assoc: 8, line_bytes: 64 },
            l2: CacheConfig { size_bytes: 256 * 1024, assoc: 8, line_bytes: 64 },
            llc: CacheConfig { size_bytes: 8 * 1024 * 1024, assoc: 16, line_bytes: 64 },
        }
    }
}

/// The shared last-level cache.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct SharedLlc {
    cache: Cache,
}

impl SharedLlc {
    /// Creates an empty LLC.
    pub fn new(cfg: CacheConfig) -> Self {
        SharedLlc { cache: Cache::new(cfg) }
    }

    /// Returns the LLC to the state [`SharedLlc::new`] gives.
    pub fn reset(&mut self) {
        self.cache.flush();
    }
}

/// A simple per-core stream detector modelling the L2 hardware
/// prefetcher: a demand miss whose line extends a recently-seen
/// ascending/descending miss stream is considered covered (the line was
/// fetched ahead of use).
#[derive(Clone, Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct StreamPrefetcher {
    /// Ring buffer of the last [`StreamPrefetcher::TRACKED`] miss lines
    /// (coverage only asks set membership, so order inside is irrelevant —
    /// no shifting on the per-miss hot path).
    recent_lines: [u64; Self::TRACKED],
    head: usize,
    len: usize,
}

impl StreamPrefetcher {
    const TRACKED: usize = 16;

    /// Observes a demand-miss line; returns `true` when a tracked stream
    /// covers it (i.e. the hardware prefetcher would have fetched it). Only
    /// unit-line strides train the detector — pointer chases and gathers
    /// stay uncovered.
    #[inline]
    pub(crate) fn observe(&mut self, line: u64) -> bool {
        let covered = self.recent_lines[..self.len]
            .iter()
            .any(|&l| line.wrapping_sub(l) == 1 || l.wrapping_sub(line) == 1);
        self.recent_lines[self.head] = line;
        self.head = (self.head + 1) % Self::TRACKED;
        self.len = (self.len + 1).min(Self::TRACKED);
        covered
    }
}

/// The private caches of one core, accessing a shared LLC.
///
/// Each entry point is the L1's two-way probe, inlined into its caller (the
/// VM's load, store and prefetch arms), in front of one out-of-line
/// function that runs everything below it: the L1 walk, L2 and the LLC
/// (probe, then walk), write-back sinking and the stream detector.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct CoreCaches {
    l1: Cache,
    l2: Cache,
    streams: StreamPrefetcher,
}

impl CoreCaches {
    /// Creates empty private caches.
    pub fn new(cfg: &HierarchyConfig) -> Self {
        CoreCaches {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            streams: StreamPrefetcher::default(),
        }
    }

    /// Performs one access (demand or prefetch — both fill), returning the
    /// level that served it. Misses fill every level on the way down
    /// (inclusive fill).
    #[inline(always)]
    pub fn access(&mut self, llc: &mut SharedLlc, addr: u64) -> HitLevel {
        match self.l1.front(addr, false) {
            None => HitLevel::L1,
            Some(p) => self.access_below(llc, addr, p),
        }
    }

    /// Demand access that also consults the hardware stream prefetcher:
    /// returns the serving level plus `true` when a DRAM miss was covered by
    /// a detected stream (the timing model then charges on-chip latency and
    /// memory bandwidth instead of a full DRAM stall).
    #[inline(always)]
    pub fn access_demand(&mut self, llc: &mut SharedLlc, addr: u64) -> (HitLevel, bool) {
        match self.l1.front(addr, false) {
            None => (HitLevel::L1, false),
            Some(p) => self.demand_below(llc, addr, p),
        }
    }

    /// A store: like [`CoreCaches::access`] but marks lines dirty and
    /// models write-back propagation (L1 victim's dirt sinks into L2, L2's
    /// into the LLC, and a dirty LLC victim becomes a DRAM write-back).
    /// Returns the serving level plus the number of DRAM write-back lines
    /// this access caused.
    #[inline(always)]
    pub fn access_write(&mut self, llc: &mut SharedLlc, addr: u64) -> (HitLevel, u64) {
        match self.l1.front(addr, true) {
            None => (HitLevel::L1, 0),
            Some(p) => self.write_below(llc, addr, p),
        }
    }

    /// A read below the L1 probe: the L1 walk, then L2, then the LLC.
    #[inline(always)]
    fn read_below(&mut self, llc: &mut SharedLlc, addr: u64, p: Pending) -> HitLevel {
        if self.l1.walk(p, false).hit {
            HitLevel::L1
        } else if self.l2.access(addr) {
            HitLevel::L2
        } else if llc.cache.access(addr) {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        }
    }

    #[inline(never)]
    fn access_below(&mut self, llc: &mut SharedLlc, addr: u64, p: Pending) -> HitLevel {
        self.read_below(llc, addr, p)
    }

    #[inline(never)]
    fn demand_below(&mut self, llc: &mut SharedLlc, addr: u64, p: Pending) -> (HitLevel, bool) {
        let level = self.read_below(llc, addr, p);
        (level, level == HitLevel::Memory && self.streams.observe(p.line))
    }

    #[inline(never)]
    fn write_below(&mut self, llc: &mut SharedLlc, addr: u64, p: Pending) -> (HitLevel, u64) {
        let o1 = self.l1.walk(p, true);
        if o1.hit {
            return (HitLevel::L1, 0);
        }
        let mut dram_writebacks = 0;
        if let Some(victim) = o1.evicted_dirty {
            // Write the victim into L2 (mark dirty); if L2 doesn't hold it
            // (non-inclusive corner), push the dirt to the LLC directly.
            if !self.l2.mark_dirty_line(victim) && !llc.cache.mark_dirty_line(victim) {
                dram_writebacks += 1; // nowhere on chip: straight to DRAM
            }
        }
        let o2 = self.l2.access_full(addr, true);
        if let Some(victim) = o2.evicted_dirty {
            if !llc.cache.mark_dirty_line(victim) {
                dram_writebacks += 1;
            }
        }
        if o2.hit {
            return (HitLevel::L2, dram_writebacks);
        }
        let o3 = llc.cache.access_full(addr, true);
        if o3.evicted_dirty.is_some() {
            dram_writebacks += 1;
        }
        let level = if o3.hit { HitLevel::Llc } else { HitLevel::Memory };
        (level, dram_writebacks)
    }

    /// Empties both private levels.
    pub(crate) fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// Returns the core to the state [`CoreCaches::new`] gives: both levels
    /// empty, no stream tracked.
    pub fn reset(&mut self) {
        self.flush();
        self.streams = StreamPrefetcher::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64 },
            l2: CacheConfig { size_bytes: 1024, assoc: 4, line_bytes: 64 },
            llc: CacheConfig { size_bytes: 4096, assoc: 8, line_bytes: 64 },
        }
    }

    #[test]
    fn miss_fills_all_levels() {
        let cfg = small_cfg();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        assert_eq!(core.access(&mut llc, 0), HitLevel::Memory);
        assert_eq!(core.access(&mut llc, 0), HitLevel::L1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let cfg = small_cfg();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        // L1: 2 sets × 2 ways. Lines 0,2,4 all map to set 0 (even lines).
        core.access(&mut llc, 0);
        core.access(&mut llc, 128);
        core.access(&mut llc, 256); // evicts line 0 from L1, still in L2
        assert_eq!(core.access(&mut llc, 0), HitLevel::L2);
    }

    #[test]
    fn prefetch_then_demand_hits_l1() {
        // The DAE mechanism in miniature: access phase warms the cache,
        // execute phase hits.
        let cfg = small_cfg();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        for addr in (0..256u64).step_by(64) {
            core.access(&mut llc, addr); // prefetch pass
        }
        for addr in (0..256u64).step_by(8) {
            assert_eq!(core.access(&mut llc, addr), HitLevel::L1);
        }
    }

    #[test]
    fn two_cores_share_llc() {
        let cfg = small_cfg();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut c0 = CoreCaches::new(&cfg);
        let mut c1 = CoreCaches::new(&cfg);
        c0.access(&mut llc, 0); // memory; fills LLC
                                // Other core: private miss, but LLC hit.
        assert_eq!(c1.access(&mut llc, 0), HitLevel::Llc);
    }

    #[test]
    fn default_is_sandybridge_like() {
        let cfg = HierarchyConfig::default();
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l2.size_bytes, 256 * 1024);
        assert_eq!(cfg.llc.size_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.l1.line_bytes, 64);
    }
}

#[cfg(test)]
mod writeback_tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64 },
            l2: CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 64 },
            llc: CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64 },
        }
    }

    #[test]
    fn clean_evictions_cause_no_writebacks() {
        let cfg = small_cfg();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        // Read-stream far beyond every capacity: all evictions are clean.
        for k in 0..256u64 {
            let (_, _) = core.access_demand(&mut llc, k * 64);
        }
        // No writes happened, so a final write must report zero write-backs
        // beyond its own chain.
        let (_, wb) = core.access_write(&mut llc, 999 * 64);
        assert_eq!(wb, 0);
    }

    #[test]
    fn dirty_lines_eventually_write_back() {
        let cfg = small_cfg();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        // Write a stream much larger than LLC: dirty LLC victims must be
        // written back to DRAM.
        let mut total_wb = 0;
        for k in 0..512u64 {
            let (_, wb) = core.access_write(&mut llc, k * 64);
            total_wb += wb;
        }
        assert!(
            total_wb > 400,
            "most of the 512 dirty lines must eventually write back, got {total_wb}"
        );
    }

    #[test]
    fn write_hit_in_l1_is_cheap() {
        let cfg = small_cfg();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        core.access_write(&mut llc, 0);
        let (level, wb) = core.access_write(&mut llc, 8);
        assert_eq!(level, HitLevel::L1);
        assert_eq!(wb, 0);
    }
}

/// The lease invariant: a hierarchy that ran one workload and was `reset`
/// is, to the next workload, the hierarchy `new` would have built. And the
/// access path itself: every entry point ≡ the model's (`cache::model`).
#[cfg(test)]
mod reset_tests {
    use super::*;
    use crate::cache::model;
    use proptest::prelude::*;

    /// Tiny, the default Sandybridge-like one, one whose three set counts
    /// (3, 6, 12) are not powers of two, and one with a direct-mapped L1, a
    /// 3-way L2 and a 16-way LLC (4 sets each).
    fn geometry(g: usize) -> HierarchyConfig {
        let level = |size_bytes, assoc| CacheConfig { size_bytes, assoc, line_bytes: 64 };
        match g {
            0 => HierarchyConfig { l1: level(256, 2), l2: level(1024, 4), llc: level(4096, 8) },
            1 => HierarchyConfig::default(),
            2 => HierarchyConfig { l1: level(384, 2), l2: level(1536, 4), llc: level(6144, 8) },
            _ => HierarchyConfig { l1: level(256, 1), l2: level(768, 3), llc: level(4096, 16) },
        }
    }

    /// Two cores over one LLC.
    #[derive(Clone, PartialEq)]
    struct Machine {
        llc: SharedLlc,
        cores: [CoreCaches; 2],
    }

    impl Machine {
        fn new(cfg: &HierarchyConfig) -> Machine {
            Machine {
                llc: SharedLlc::new(cfg.llc),
                cores: [CoreCaches::new(cfg), CoreCaches::new(cfg)],
            }
        }

        fn reset(&mut self) {
            self.llc.reset();
            self.cores.iter_mut().for_each(CoreCaches::reset);
        }

        fn addr_of(&self, (_, _, line, conflict, offset): Op) -> u64 {
            line * if conflict { self.cores[0].l1.config().num_sets() } else { 1 } * 64 + offset
        }

        /// Runs one access, returning the serving level, the stream
        /// detector's verdict (demand reads) and the DRAM write-backs
        /// (stores).
        fn apply(&mut self, op: Op) -> (HitLevel, bool, u64) {
            let addr = self.addr_of(op);
            let core = &mut self.cores[op.0];
            match op.1 {
                0 => {
                    let (level, covered) = core.access_demand(&mut self.llc, addr);
                    (level, covered, 0)
                }
                1 => {
                    let (level, writebacks) = core.access_write(&mut self.llc, addr);
                    (level, false, writebacks)
                }
                _ => (core.access(&mut self.llc, addr), false, 0),
            }
        }

        /// [`Machine::apply`] by the model.
        fn apply_model(&mut self, op: Op) -> (HitLevel, bool, u64) {
            let addr = self.addr_of(op);
            let CoreCaches { l1, l2, streams } = &mut self.cores[op.0];
            let llc = &mut self.llc.cache;
            match op.1 {
                0 => {
                    let (level, covered) = model::demand(l1, l2, llc, streams, addr);
                    (level, covered, 0)
                }
                1 => {
                    let (level, writebacks) = model::write(l1, l2, llc, addr);
                    (level, false, writebacks)
                }
                _ => (model::read(l1, l2, llc, addr), false, 0),
            }
        }

        fn feed(&mut self, stream: &[Op]) -> Vec<(HitLevel, bool, u64)> {
            stream.iter().map(|&op| self.apply(op)).collect()
        }

        /// Residency of every level, and whether each line a stream could
        /// have named is resident in each.
        fn observe(&self) -> (Vec<usize>, Vec<bool>) {
            let levels = [
                &self.cores[0].l1,
                &self.cores[0].l2,
                &self.cores[1].l1,
                &self.cores[1].l2,
                &self.llc.cache,
            ];
            let sets = self.cores[0].l1.config().num_sets();
            let probes = levels
                .iter()
                .flat_map(|c| {
                    (0..LINES).flat_map(move |l| [c.probe(l * 64), c.probe(l * sets * 64)])
                })
                .collect();
            (levels.iter().map(|c| c.resident_lines()).collect(), probes)
        }
    }

    const LINES: u64 = 160;

    /// `(core, kind, line, conflict, offset)`: kind 0 is a demand read, 1 a
    /// store, 2 a prefetch; a conflicting access multiplies its line by the
    /// L1 set count, so those lines collide in every level whose set count
    /// that divides. Unit-stride runs of plain lines train the detector.
    type Op = (usize, u8, u64, bool, u64);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0usize..2, 0u8..3, 0u64..LINES, any::<bool>(), 0u64..64), 0..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: ProptestConfig::default().cases.max(256) })]

        #[test]
        fn reset_then_a_stream_equals_a_fresh_hierarchy(
            g in 0usize..3, first in ops(), second in ops(),
        ) {
            let cfg = geometry(g);
            let mut leased = Machine::new(&cfg);
            leased.feed(&first);
            leased.reset();
            let mut fresh = Machine::new(&cfg);
            prop_assert!(leased == fresh, "reset state differs from new");
            prop_assert_eq!(leased.feed(&second), fresh.feed(&second));
            prop_assert!(leased.observe() == fresh.observe(), "residency differs");
            prop_assert!(leased == fresh, "state differs after the second stream");
        }

        /// Flushing some of the parts (bit 0: core 0, bit 1: core 1, bit 2:
        /// the LLC) empties them as the whole-array fill did; the other
        /// parts and the stream detectors carry over.
        #[test]
        fn a_partial_flush_equals_the_whole_array_model(
            g in 0usize..3, parts in 1u8..8, first in ops(), second in ops(),
        ) {
            let mut m = Machine::new(&geometry(g));
            m.feed(&first);
            let mut model = m.clone();
            for (i, core) in m.cores.iter_mut().enumerate() {
                if parts & (1 << i) != 0 {
                    core.flush();
                    model.cores[i].l1.flush_whole_array();
                    model.cores[i].l2.flush_whole_array();
                }
            }
            if parts & 4 != 0 {
                m.llc.reset();
                model.llc.cache.flush_whole_array();
            }
            prop_assert_eq!(m.feed(&second), model.feed(&second));
            prop_assert!(m.observe() == model.observe(), "residency differs");
            prop_assert!(m == model, "state differs from the model");
        }

        /// Two cores over one LLC, access by access: every `HitLevel`,
        /// stream-detector verdict and DRAM write-back count is the model's,
        /// and so is every level's state after it. (The Sandybridge-sized
        /// geometry is left to the `Cache` comparison: comparing 1.2 MiB of
        /// slots per access would make this the slowest test of the crate.)
        #[test]
        fn accesses_equal_the_model(g in 0usize..3, stream in ops()) {
            let mut m = Machine::new(&geometry([0, 2, 3][g]));
            let mut model = m.clone();
            for &op in &stream {
                prop_assert_eq!(m.apply(op), model.apply_model(op));
                prop_assert!(m == model, "state differs from the model");
            }
        }
    }
}
