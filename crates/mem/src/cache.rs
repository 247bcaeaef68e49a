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
    pub(crate) fn num_sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_bytes)
    }
}

/// Outcome of one cache access: whether it hit, and a dirty line evicted
/// to make room (write-back traffic for the next level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccessOutcome {
    /// The line was already resident.
    pub hit: bool,
    /// A dirty victim was evicted (its line number).
    pub evicted_dirty: Option<u64>,
}

const HIT: AccessOutcome = AccessOutcome { hit: true, evicted_dirty: None };

/// Dirty flag, packed into the top bit of a slot (line numbers are
/// `addr >> line_shift`, so bit 63 is never part of a real line).
const DIRTY: u64 = 1 << 63;

/// Sentinel line number for an empty way (all 63 line bits set — a real
/// line that large would need a memory beyond any simulated address
/// space).
const INVALID_LINE: u64 = u64::MAX >> 1;

/// The dirty bit an access leaves on the line it touches.
#[inline(always)]
fn dirty_if(write: bool) -> u64 {
    (write as u64) << 63
}

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
}

/// An access [`Cache::front`] could not answer from ways 0 and 1: its line
/// and the first slot of its set, computed once for [`Cache::walk`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pending {
    pub(crate) line: u64,
    start: usize,
}

/// Out of line: a set is first filled once between flushes, and the miss
/// path is shorter without the push (stream probes: 5.9 → 4.9 ns/access).
#[cold]
#[inline(never)]
fn note_filled(filled: &mut Vec<usize>, start: usize) {
    filled.push(start);
}

#[cfg(test)]
#[path = "model.rs"]
pub(crate) mod model;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// sets, no set at all, or line size not a power of two).
    pub(crate) fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.assoc > 0, "associativity must be positive");
        assert_eq!(
            cfg.size_bytes % (cfg.assoc as u64 * cfg.line_bytes),
            0,
            "size must divide into sets"
        );
        let num_sets = cfg.num_sets();
        assert!(num_sets > 0, "size must hold at least one set");
        let (set_mask, set_mod) =
            if num_sets.is_power_of_two() { (num_sets - 1, 0) } else { (0, num_sets) };
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask,
            set_mod,
            slots: vec![INVALID_LINE; (num_sets as usize) * cfg.assoc],
            filled: Vec::new(),
        }
    }

    /// The cache geometry.
    #[cfg(test)]
    pub(crate) fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Empties the cache, returning it to the state [`Cache::new`] gives.
    /// Costs the sets filled since the last flush; once most sets are, one
    /// pass over the array is cheaper than visiting them one by one.
    pub(crate) fn flush(&mut self) {
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

    #[cfg(test)]
    fn set_of(&self, line: u64) -> &[u64] {
        let s = self.set_start(line);
        &self.slots[s..s + self.cfg.assoc]
    }

    #[inline]
    fn set_of_mut(&mut self, line: u64) -> &mut [u64] {
        let s = self.set_start(line);
        &mut self.slots[s..s + self.cfg.assoc]
    }

    /// The front of every access: computes line and set once and answers a
    /// hit in way 0 in place, or a hit in way 1 by swapping ways 0 and 1 —
    /// together three quarters of the corpus's L1 accesses (48 % and 27 %:
    /// lines 4 KiB apart share an L1 set). `None` when it answered, else
    /// the walk still to run.
    #[inline(always)]
    pub(crate) fn front(&mut self, addr: u64, write: bool) -> Option<Pending> {
        let line = self.line_of(addr);
        let start = self.set_start(line);
        let first = self.slots[start];
        if first & !DIRTY == line {
            self.slots[start] = first | dirty_if(write);
            return None;
        }
        // A direct-mapped cache has no way 1: `start + 1` is the next set,
        // or past the array after the last one.
        if self.cfg.assoc > 1 {
            let second = self.slots[start + 1];
            if second & !DIRTY == line {
                self.slots[start] = second | dirty_if(write);
                self.slots[start + 1] = first;
                return None;
            }
        }
        Some(Pending { line, start })
    }

    /// Below [`Cache::front`]: one pass that carries way *i − 1* into way
    /// *i* until it meets the line, which becomes MRU with its accumulated
    /// dirty bit, or the set ends, and the way carried out of it is the LRU
    /// victim (a fill, dirty iff `write`). Empty ways are sentinels that
    /// always sit at the tail, so a set that is not full evicts nothing.
    #[inline(always)]
    pub(crate) fn walk(&mut self, p: Pending, write: bool) -> AccessOutcome {
        let (first, rest) = self.slots[p.start..p.start + self.cfg.assoc]
            .split_first_mut()
            .expect("a set has at least one way");
        let mru = *first;
        let mut carried = mru;
        for way in rest {
            let here = std::mem::replace(way, carried);
            if here & !DIRTY == p.line {
                *first = here | dirty_if(write);
                return HIT;
            }
            carried = here;
        }
        *first = p.line | dirty_if(write);
        // Ways fill MRU-first, so an empty MRU way was an empty set: this
        // is its first fill since the last flush.
        if mru == INVALID_LINE {
            note_filled(&mut self.filled, p.start);
        }
        let evicted_dirty = if carried & DIRTY != 0 && carried & !DIRTY != INVALID_LINE {
            Some(carried & !DIRTY)
        } else {
            None
        };
        AccessOutcome { hit: false, evicted_dirty }
    }

    /// Accesses `addr`; returns `true` on hit. On miss the line is filled
    /// clean (LRU eviction). Convenience wrapper over [`Cache::access_full`].
    #[inline(always)]
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        self.access_full(addr, false).hit
    }

    /// Accesses `addr`, marking the line dirty when `write` is set. On miss
    /// the line is filled (dirty iff `write`); the LRU victim's dirty state
    /// is reported so callers can model write-back traffic.
    #[inline(always)]
    pub(crate) fn access_full(&mut self, addr: u64, write: bool) -> AccessOutcome {
        match self.front(addr, write) {
            None => HIT,
            Some(p) => self.walk(p, write),
        }
    }

    /// Marks line number `line` dirty if resident (used to sink a lower
    /// level's write-back); returns whether it was resident.
    #[inline]
    pub(crate) fn mark_dirty_line(&mut self, line: u64) -> bool {
        if let Some(entry) = self.set_of_mut(line).iter_mut().find(|s| **s & !DIRTY == line) {
            *entry |= DIRTY;
            true
        } else {
            false
        }
    }

    /// True if the line containing `addr` is resident (no state change).
    #[cfg(test)]
    pub(crate) fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.set_of(line).iter().any(|&s| s & !DIRTY == line)
    }

    /// Number of resident lines.
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> usize {
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
        assert!(c.probe(0) && c.probe(64));
        assert_eq!(c.resident_lines(), 2);
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
        assert!(c == tiny(), "a flushed cache is a new one");
        assert!(!c.access(0), "a flushed line misses again");
    }

    /// LRU over a cyclic scan of one set: the lines that fit miss once
    /// each, one line more than the set holds misses every time.
    #[test]
    fn miss_ratio() {
        let miss_ratio = |lines: u64| {
            let mut c = tiny();
            let outcomes: Vec<_> =
                (0..4 * lines).map(|i| c.access_full((i % lines) * 128, false)).collect();
            outcomes.iter().filter(|o| !o.hit).count() as f64 / outcomes.len() as f64
        };
        assert_eq!(miss_ratio(2), 0.25);
        assert_eq!(miss_ratio(3), 1.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 48 });
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_set_geometry_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 0, assoc: 2, line_bytes: 64 });
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

    /// The model comparison's geometries: direct-mapped (no way 1 to
    /// probe), the two ways the probe covers, an odd count, the L1/L2's 8
    /// and the LLC's 16 ways, over one set, three and the L1's 64.
    const ASSOCS: [usize; 5] = [1, 2, 3, 8, 16];
    const SETS: [u64; 3] = [1, 3, 64];

    /// `(line, conflict, offset, write)`: a conflicting access multiplies
    /// its line by the set count, so those lines share set 0 and evict one
    /// another; the others spread over the sets.
    type Op = (u64, bool, u64, bool);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u64..96, any::<bool>(), 0u64..64, any::<bool>()), 0..200)
    }

    /// Reads, writes and (kind 2) `mark_dirty_line` on the op's line.
    fn marked_ops() -> impl Strategy<Value = Vec<(u8, Op)>> {
        let op = (0u8..3, 0u64..96, any::<bool>(), 0u64..64);
        proptest::collection::vec(op.prop_map(|(k, l, c, o)| (k, (l, c, o, k == 1))), 0..200)
    }

    fn addr_of(cfg: CacheConfig, (line, conflict, offset, _): Op) -> u64 {
        line * if conflict { cfg.num_sets() } else { 1 } * cfg.line_bytes + offset
    }

    fn feed(c: &mut Cache, stream: &[Op]) -> Vec<AccessOutcome> {
        stream.iter().map(|&op| c.access_full(addr_of(c.config(), op), op.3)).collect()
    }

    /// What a caller can see of a cache without changing it.
    fn observe(c: &Cache, streams: [&[Op]; 2]) -> (usize, Vec<bool>) {
        let probes = streams.concat().iter().map(|&op| c.probe(addr_of(c.config(), op))).collect();
        (c.resident_lines(), probes)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: ProptestConfig::default().cases.max(256) })]

        /// After `flush`, nothing of the first stream is left: the second
        /// stream sees what it would on a cache that never ran the first.
        #[test]
        fn reset_then_a_stream_equals_a_fresh_cache(
            g in 0usize..GEOMETRIES.len(), first in ops(), second in ops(),
        ) {
            let mut leased = Cache::new(GEOMETRIES[g]);
            feed(&mut leased, &first);
            leased.flush();
            let mut fresh = Cache::new(GEOMETRIES[g]);
            prop_assert!(leased == fresh, "reset state differs from new");
            prop_assert_eq!(feed(&mut leased, &second), feed(&mut fresh, &second));
            let streams = [&first[..], &second[..]];
            prop_assert!(
                observe(&leased, streams) == observe(&fresh, streams),
                "residency differs"
            );
            prop_assert!(leased == fresh, "state differs after the second stream");
        }

        /// `flush` empties exactly what the whole-array fill did, also when
        /// flushed twice or with nothing filled.
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
                    "residency differs"
                );
                prop_assert!(c == model, "state differs from the model");
            }
        }

        /// The probe and the walk-and-shift pass ≡ the find-then-rotate
        /// model, operation by operation: the same outcome, and the same
        /// slot array and list of filled sets after it.
        #[test]
        fn accesses_equal_the_model(
            a in 0usize..ASSOCS.len(), s in 0usize..SETS.len(), stream in marked_ops(),
        ) {
            let assoc = ASSOCS[a];
            let cfg = CacheConfig { size_bytes: assoc as u64 * SETS[s] * 64, assoc, line_bytes: 64 };
            let mut c = Cache::new(cfg);
            let mut model = c.clone();
            for &(kind, op) in &stream {
                let addr = addr_of(cfg, op);
                if kind == 2 {
                    let line = addr / cfg.line_bytes;
                    prop_assert_eq!(c.mark_dirty_line(line), model.mark_dirty_line_model(line));
                } else {
                    prop_assert_eq!(c.access_full(addr, op.3), model.access_full_model(addr, op.3));
                }
                prop_assert!(c == model, "state differs from the model");
            }
        }
    }
}
