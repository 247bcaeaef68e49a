//! The access algorithm [`Cache`] runs on, as it was written before the
//! two-way probe, kept as the oracle the tests compare against: find the
//! way, then move it to MRU by rotating the ways in front of it. Sets are
//! found by division, not by the cache's precomputed mask or modulus, and a
//! flush fills the whole array. The free functions are `CoreCaches`' three
//! entry points over such levels.

use super::{AccessOutcome, Cache, DIRTY, INVALID_LINE};
use crate::hierarchy::{HitLevel, StreamPrefetcher};

impl Cache {
    fn model_set(&mut self, line: u64) -> (usize, &mut [u64]) {
        let start = (line % self.cfg.num_sets()) as usize * self.cfg.assoc;
        (start, &mut self.slots[start..start + self.cfg.assoc])
    }

    /// [`Cache::access_full`] by the model.
    pub(crate) fn access_full_model(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let line = addr / self.cfg.line_bytes;
        let (start, set) = self.model_set(line);
        let dirty = (write as u64) << 63;
        if let Some(pos) = set.iter().position(|&s| s & !DIRTY == line) {
            let d = set[pos] & DIRTY;
            set[..=pos].rotate_right(1);
            set[0] = line | d | dirty;
            return AccessOutcome { hit: true, evicted_dirty: None };
        }
        let victim = set[set.len() - 1];
        let was_empty = set[0] == INVALID_LINE;
        set.rotate_right(1);
        set[0] = line | dirty;
        if was_empty {
            self.filled.push(start);
        }
        let evicted_dirty = if victim & !DIRTY != INVALID_LINE && victim & DIRTY != 0 {
            Some(victim & !DIRTY)
        } else {
            None
        };
        AccessOutcome { hit: false, evicted_dirty }
    }

    /// [`Cache::mark_dirty_line`] by the model.
    pub(crate) fn mark_dirty_line_model(&mut self, line: u64) -> bool {
        let (_, set) = self.model_set(line);
        match set.iter().position(|&s| s & !DIRTY == line) {
            Some(pos) => {
                set[pos] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// [`Cache::flush`] by the model.
    pub(crate) fn flush_whole_array(&mut self) {
        self.slots.fill(INVALID_LINE);
        self.filled.clear();
    }
}

/// `CoreCaches::access`: L1, L2, then the LLC, filling each on the way.
pub(crate) fn read(l1: &mut Cache, l2: &mut Cache, llc: &mut Cache, addr: u64) -> HitLevel {
    if l1.access_full_model(addr, false).hit {
        HitLevel::L1
    } else if l2.access_full_model(addr, false).hit {
        HitLevel::L2
    } else if llc.access_full_model(addr, false).hit {
        HitLevel::Llc
    } else {
        HitLevel::Memory
    }
}

/// `CoreCaches::access_demand`: a read whose DRAM misses train the stream
/// detector on their L1 line.
pub(crate) fn demand(
    l1: &mut Cache,
    l2: &mut Cache,
    llc: &mut Cache,
    streams: &mut StreamPrefetcher,
    addr: u64,
) -> (HitLevel, bool) {
    let level = read(l1, l2, llc, addr);
    let covered = level == HitLevel::Memory && streams.observe(addr / l1.cfg.line_bytes);
    (level, covered)
}

/// `CoreCaches::access_write`: a dirty L1 victim sinks into L2, else the
/// LLC, else DRAM; a dirty L2 victim into the LLC, else DRAM; a dirty LLC
/// victim is a DRAM write-back.
pub(crate) fn write(l1: &mut Cache, l2: &mut Cache, llc: &mut Cache, addr: u64) -> (HitLevel, u64) {
    let mut dram_writebacks = 0;
    let o1 = l1.access_full_model(addr, true);
    if let Some(victim) = o1.evicted_dirty {
        if !l2.mark_dirty_line_model(victim) && !llc.mark_dirty_line_model(victim) {
            dram_writebacks += 1;
        }
    }
    if o1.hit {
        return (HitLevel::L1, dram_writebacks);
    }
    let o2 = l2.access_full_model(addr, true);
    if let Some(victim) = o2.evicted_dirty {
        if !llc.mark_dirty_line_model(victim) {
            dram_writebacks += 1;
        }
    }
    if o2.hit {
        return (HitLevel::L2, dram_writebacks);
    }
    let o3 = llc.access_full_model(addr, true);
    dram_writebacks += o3.evicted_dirty.is_some() as u64;
    (if o3.hit { HitLevel::Llc } else { HitLevel::Memory }, dram_writebacks)
}
