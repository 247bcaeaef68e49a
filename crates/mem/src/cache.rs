//! A single set-associative cache with LRU replacement.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_bytes)
    }
}

/// Hit/miss counters of one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Outcome of one cache access: whether it hit, and a dirty line evicted
/// to make room (write-back traffic for the next level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The line was already resident.
    pub hit: bool,
    /// A dirty victim was evicted (its line number).
    pub evicted_dirty: Option<u64>,
}

/// Dirty flag, packed into the top bit of a slot (line numbers are
/// `addr >> line_shift`, so bit 63 is never part of a real line).
const DIRTY: u64 = 1 << 63;

/// Sentinel line number for an empty way (all 63 line bits set — a real
/// line that large would need a memory beyond any simulated address
/// space).
const INVALID_LINE: u64 = u64::MAX >> 1;

/// One set-associative LRU write-back cache. Tracks line presence and dirty
/// state only — data lives in the simulator's flat memory.
///
/// Storage is a single flat slot array (`num_sets * assoc` entries,
/// MRU-first within each set, empty ways as trailing sentinels) and the
/// line/set extraction uses precomputed shift/mask values — this sits on
/// the simulator's per-load hot path, so no divisions and no per-set
/// allocations.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `num_sets - 1` when the set count is a power of two, else 0 and
    /// [`Cache::set_mod`] is the modulus.
    set_mask: u64,
    /// Modulus for non-power-of-two set counts (0 when `set_mask` is used).
    set_mod: u64,
    /// `num_sets * assoc` slots of `line | dirty-bit`, MRU-first per set
    /// (one 64-bit word per way keeps a whole 8-way set in one cache line
    /// of the host).
    slots: Vec<u64>,
    /// First slot of every set filled since the last flush, so that a flush
    /// clears what a run touched rather than the whole array.
    filled: Vec<usize>,
    stats: CacheStats,
}

/// Out of line: a set is first filled once between flushes, and the miss
/// path is shorter without the push (stream probes: 5.9 → 4.9 ns/access).
#[cold]
#[inline(never)]
fn note_filled(filled: &mut Vec<usize>, start: usize) {
    filled.push(start);
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// sets, or line size not a power of two).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.assoc > 0, "associativity must be positive");
        assert_eq!(
            cfg.size_bytes % (cfg.assoc as u64 * cfg.line_bytes),
            0,
            "size must divide into sets"
        );
        let num_sets = cfg.num_sets();
        let (set_mask, set_mod) =
            if num_sets.is_power_of_two() { (num_sets - 1, 0) } else { (0, num_sets) };
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask,
            set_mod,
            slots: vec![INVALID_LINE; (num_sets as usize) * cfg.assoc],
            filled: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters (keeps contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache (keeps counters). Costs the sets filled since the
    /// last flush; once most sets are, one pass over the array is cheaper
    /// than visiting them one by one.
    pub fn flush(&mut self) {
        let assoc = self.cfg.assoc;
        if self.filled.len() * assoc * 2 > self.slots.len() {
            self.slots.fill(INVALID_LINE);
        } else {
            for &s in &self.filled {
                self.slots[s..s + assoc].fill(INVALID_LINE);
            }
        }
        self.filled.clear();
    }

    /// Returns the cache to the state [`Cache::new`] gives: empty, counters
    /// zero.
    pub fn reset(&mut self) {
        self.flush();
        self.reset_stats();
    }

    /// The flush [`Cache::flush`] replaced, kept as the model it is checked
    /// against.
    #[cfg(test)]
    pub(crate) fn flush_whole_array(&mut self) {
        self.slots.fill(INVALID_LINE);
        self.filled.clear();
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// First slot index of the set holding `line`.
    #[inline]
    fn set_start(&self, line: u64) -> usize {
        let set = if self.set_mod == 0 { line & self.set_mask } else { line % self.set_mod };
        set as usize * self.cfg.assoc
    }

    #[inline]
    fn set_of(&self, line: u64) -> &[u64] {
        let s = self.set_start(line);
        &self.slots[s..s + self.cfg.assoc]
    }

    #[inline]
    fn set_of_mut(&mut self, line: u64) -> &mut [u64] {
        let s = self.set_start(line);
        &mut self.slots[s..s + self.cfg.assoc]
    }

    /// `log2(line_bytes)` — for callers that need the line number of an
    /// address without a division.
    #[inline]
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Accesses `addr`; returns `true` on hit. On miss the line is filled
    /// clean (LRU eviction). Convenience wrapper over [`Cache::access_full`].
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_full(addr, false).hit
    }

    /// Accesses `addr`, marking the line dirty when `write` is set. On miss
    /// the line is filled (dirty iff `write`); the LRU victim's dirty state
    /// is reported so callers can model write-back traffic.
    #[inline]
    pub fn access_full(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let line = self.line_of(addr);
        let start = self.set_start(line);
        let set = &mut self.slots[start..start + self.cfg.assoc];
        if let Some(pos) = set.iter().position(|&s| s & !DIRTY == line) {
            // Move to MRU position, accumulating dirtiness.
            let d = set[pos] & DIRTY;
            set[..=pos].rotate_right(1);
            set[0] = line | d | ((write as u64) << 63);
            self.stats.hits += 1;
            AccessOutcome { hit: true, evicted_dirty: None }
        } else {
            // The LRU victim is the last way; empty ways are sentinels that
            // always sit at the tail, so a non-full set evicts nothing.
            let victim = set[set.len() - 1];
            // Ways fill MRU-first, so an empty MRU way is an empty set: its
            // first fill since the last flush.
            if set[0] == INVALID_LINE {
                note_filled(&mut self.filled, start);
            }
            set.rotate_right(1);
            set[0] = line | ((write as u64) << 63);
            self.stats.misses += 1;
            let evicted_dirty = if victim & !DIRTY != INVALID_LINE && victim & DIRTY != 0 {
                Some(victim & !DIRTY)
            } else {
                None
            };
            AccessOutcome { hit: false, evicted_dirty }
        }
    }

    /// Marks the line containing `addr` dirty if resident (used to sink a
    /// lower level's write-back); returns whether it was resident.
    #[inline]
    pub fn mark_dirty_line(&mut self, line: u64) -> bool {
        if let Some(entry) = self.set_of_mut(line).iter_mut().find(|s| **s & !DIRTY == line) {
            *entry |= DIRTY;
            true
        } else {
            false
        }
    }

    /// True if the line containing `addr` is resident (no state change, no
    /// stat update).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.set_of(line).iter().any(|&s| s & !DIRTY == line)
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|&&s| s & !DIRTY != INVALID_LINE).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64 })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 2);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line, other set
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Set 0 holds lines {0, 2, 4, ...} (even line numbers).
        c.access(0); // line 0 -> set 0
        c.access(128); // line 2 -> set 0
        c.access(0); // touch line 0: MRU
        c.access(256); // line 4 -> set 0, evicts line 2 (LRU)
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(64); // set 1
        c.access(192); // set 1
        c.access(320); // set 1 — evicts 64
        assert!(c.probe(0), "set 0 must be untouched");
        assert!(!c.probe(64));
    }

    #[test]
    fn flush_and_reset() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.stats().misses, 1);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 48 });
    }

    use proptest::prelude::*;

    /// 2 sets, the default L1's 64, and two set counts that are not powers
    /// of two (3 and 48).
    const GEOMETRIES: [CacheConfig; 4] = [
        CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64 },
        CacheConfig { size_bytes: 32 * 1024, assoc: 8, line_bytes: 64 },
        CacheConfig { size_bytes: 384, assoc: 2, line_bytes: 64 },
        CacheConfig { size_bytes: 12288, assoc: 4, line_bytes: 64 },
    ];

    /// `(line, conflict, offset, write)`: a conflicting access multiplies
    /// its line by the set count, so those lines share set 0 and evict one
    /// another; the others spread over the sets.
    type Op = (u64, bool, u64, bool);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u64..96, any::<bool>(), 0u64..64, any::<bool>()), 0..200)
    }

    fn addr_of(cfg: CacheConfig, (line, conflict, offset, _): Op) -> u64 {
        line * if conflict { cfg.num_sets() } else { 1 } * cfg.line_bytes + offset
    }

    fn feed(c: &mut Cache, stream: &[Op]) -> Vec<AccessOutcome> {
        stream.iter().map(|&op| c.access_full(addr_of(c.config(), op), op.3)).collect()
    }

    /// What a caller can see of a cache without changing it.
    fn observe(c: &Cache, streams: [&[Op]; 2]) -> (CacheStats, usize, Vec<bool>) {
        let probes = streams.concat().iter().map(|&op| c.probe(addr_of(c.config(), op))).collect();
        (c.stats(), c.resident_lines(), probes)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: ProptestConfig::default().cases.max(256) })]

        /// After `reset`, nothing of the first stream is left: the second
        /// stream sees what it would on a cache that never ran the first.
        #[test]
        fn reset_then_a_stream_equals_a_fresh_cache(
            g in 0usize..GEOMETRIES.len(), first in ops(), second in ops(),
        ) {
            let mut leased = Cache::new(GEOMETRIES[g]);
            feed(&mut leased, &first);
            leased.reset();
            let mut fresh = Cache::new(GEOMETRIES[g]);
            prop_assert!(leased == fresh, "reset state differs from new");
            prop_assert_eq!(feed(&mut leased, &second), feed(&mut fresh, &second));
            let streams = [&first[..], &second[..]];
            prop_assert!(
                observe(&leased, streams) == observe(&fresh, streams),
                "counters or residency differ"
            );
            prop_assert!(leased == fresh, "state differs after the second stream");
        }

        /// `flush` empties exactly what the whole-array fill did and keeps
        /// the counters, also when flushed twice or with nothing filled.
        #[test]
        fn flush_equals_the_whole_array_model(
            g in 0usize..GEOMETRIES.len(), first in ops(), second in ops(), third in ops(),
        ) {
            let mut c = Cache::new(GEOMETRIES[g]);
            feed(&mut c, &first);
            let mut model = c.clone();
            for stream in [&second, &third] {
                c.flush();
                model.flush_whole_array();
                prop_assert_eq!(c.resident_lines(), 0);
                prop_assert_eq!(feed(&mut c, stream), feed(&mut model, stream));
                let streams = [&first[..], &stream[..]];
                prop_assert!(
                    observe(&c, streams) == observe(&model, streams),
                    "counters or residency differ"
                );
                prop_assert!(c == model, "state differs from the model");
            }
        }
    }
}
