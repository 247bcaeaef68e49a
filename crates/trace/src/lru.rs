//! The workspace's one byte-bounded LRU cache.
//!
//! Keys are 64-bit content hashes; every value is charged a caller-given
//! byte cost and the least-recently-used entries are evicted once the sum
//! exceeds the budget. Each entry carries a recency stamp indexed by a
//! `BTreeMap`, so a hit re-stamps in O(log n) instead of searching a
//! recency list.
//!
//! The entry just inserted is never its own victim: a single value larger
//! than the whole budget still caches, as the only resident entry.

use std::collections::{BTreeMap, HashMap};

struct Entry<V> {
    value: V,
    bytes: usize,
    stamp: u64,
}

/// A byte-bounded least-recently-used map from `u64` keys to `V`.
pub struct Lru<V> {
    max_bytes: usize,
    used_bytes: usize,
    map: HashMap<u64, Entry<V>>,
    /// Recency stamp → key; the first entry is the coldest.
    order: BTreeMap<u64, u64>,
    clock: u64,
}

impl<V> Lru<V> {
    /// An empty cache holding at most `max_bytes` (clamped to ≥ 1) of
    /// charged cost.
    pub fn new(max_bytes: usize) -> Lru<V> {
        Lru {
            max_bytes: max_bytes.max(1),
            used_bytes: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks `key` up; a hit becomes the most recently used entry.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let stamp = self.next_stamp();
        let e = self.map.get_mut(&key)?;
        self.order.remove(&e.stamp);
        e.stamp = stamp;
        self.order.insert(stamp, key);
        Some(&e.value)
    }

    /// Inserts (or replaces) `key` as the most recently used entry,
    /// charged `bytes`, and returns the number of evictions that forced.
    pub fn insert(&mut self, key: u64, value: V, bytes: usize) -> u64 {
        let stamp = self.next_stamp();
        if let Some(old) = self.map.insert(key, Entry { value, bytes, stamp }) {
            self.used_bytes -= old.bytes;
            self.order.remove(&old.stamp);
        }
        self.used_bytes += bytes;
        self.order.insert(stamp, key);
        let mut evicted = 0;
        while self.used_bytes > self.max_bytes && self.map.len() > 1 {
            let (_, victim) = self.order.pop_first().expect("one stamp per entry");
            let e = self.map.remove(&victim).expect("stamps name resident keys");
            self.used_bytes -= e.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Charged bytes currently resident.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Entries currently resident.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The algorithm both `driver::MemCache` and serve's `ResponseCache`
    /// used before they were folded into [`Lru`]: a recency `VecDeque`
    /// searched linearly on every touch. Kept as the reference model.
    struct Model {
        max_bytes: usize,
        used_bytes: usize,
        map: HashMap<u64, (u32, usize)>,
        order: VecDeque<u64>,
    }

    impl Model {
        fn new(max_bytes: usize) -> Model {
            Model {
                max_bytes: max_bytes.max(1),
                used_bytes: 0,
                map: HashMap::new(),
                order: VecDeque::new(),
            }
        }

        fn touch(&mut self, key: u64) {
            self.order.retain(|&k| k != key);
            self.order.push_back(key);
        }

        fn get(&mut self, key: u64) -> Option<u32> {
            let hit = self.map.get(&key).map(|&(v, _)| v);
            if hit.is_some() {
                self.touch(key);
            }
            hit
        }

        fn insert(&mut self, key: u64, value: u32, bytes: usize) -> u64 {
            if let Some((_, old)) = self.map.insert(key, (value, bytes)) {
                self.used_bytes -= old;
            }
            self.used_bytes += bytes;
            self.touch(key);
            let mut evicted = 0;
            while self.used_bytes > self.max_bytes && self.order.len() > 1 {
                let victim = self.order.pop_front().expect("len > 1");
                if let Some((_, vb)) = self.map.remove(&victim) {
                    self.used_bytes -= vb;
                }
                evicted += 1;
            }
            evicted
        }
    }

    /// One step of a random stream: `(is_insert, key, bytes)`. Keys come
    /// from a small space so lookups hit and inserts replace.
    fn ops() -> impl Strategy<Value = Vec<(bool, u64, usize)>> {
        proptest::collection::vec((any::<bool>(), 0u64..12, 1usize..400), 1..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_the_linear_scan_model(budget in 1usize..1200, ops in ops()) {
            let mut lru = Lru::new(budget);
            let mut model = Model::new(budget);
            for (i, (is_insert, key, bytes)) in ops.into_iter().enumerate() {
                if is_insert {
                    let value = i as u32;
                    prop_assert_eq!(lru.insert(key, value, bytes), model.insert(key, value, bytes));
                    prop_assert_eq!(lru.get(key).copied(), Some(value), "newest never evicts itself");
                    model.get(key);
                } else {
                    prop_assert_eq!(lru.get(key).copied(), model.get(key));
                }
                prop_assert_eq!(lru.used_bytes(), model.used_bytes);
                prop_assert_eq!(lru.len(), model.map.len());
            }
            // Same survivors, in the same recency order.
            let survivors: Vec<u64> = lru.order.values().copied().collect();
            prop_assert_eq!(survivors, Vec::from(model.order));
        }
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c = Lru::new(20);
        assert_eq!(c.insert(1, "a", 10), 0);
        assert_eq!(c.insert(2, "b", 10), 0);
        assert_eq!(c.get(1), Some(&"a"), "refresh key 1");
        assert_eq!(c.insert(3, "c", 10), 1, "evicts 2, the least recently used");
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some() && c.get(3).is_some());
        assert_eq!((c.used_bytes(), c.len()), (20, 2));
        // Replacing a key re-charges it, never double-counts.
        assert_eq!(c.insert(3, "c2", 4), 0);
        assert_eq!(c.used_bytes(), 14);
    }

    #[test]
    fn oversize_single_entry_still_caches() {
        let mut c = Lru::new(1);
        assert_eq!(c.insert(1, (), 500), 0);
        assert!(c.get(1).is_some(), "sole entry is never its own victim");
        assert_eq!(c.insert(2, (), 500), 1, "the next insert evicts it");
        assert!(c.get(1).is_none() && c.get(2).is_some());
    }
}
