//! The consistent-hash routing ring.
//!
//! Each backend owns `vnodes` points on a 64-bit ring (FNV-1a over
//! `"<addr>#<replica>"`); a request's route key (the serving layer's
//! response-cache key, [`dae_serve::request_key`]) is looked up clockwise.
//! Walking onward from the owning point yields every backend exactly once
//! in a key-dependent order — the failover / bounded-load-spill order.
//!
//! Why consistent hashing instead of round-robin: the backends memoise
//! responses and compiled artifacts, so a request is cheap exactly on the
//! backend that has seen it before. The ring pins each key to one home
//! backend (aggregate cache capacity scales with the fleet), and keeps
//! the pinning stable when a backend is ejected or re-admitted — only the
//! ejected backend's keys move.

use dae_serve::Fnv64;

/// MurmurHash3's 64-bit finaliser. FNV-1a alone clusters on short,
/// near-identical inputs (`"10.0.0.1:7777#3"` vs `"…#4"`), which skews
/// ring shards by 2–3×; this mix restores avalanche so 128 vnodes land
/// within a few percent of even.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A consistent-hash ring over backend indices `0..n`.
#[derive(Debug)]
pub struct Ring {
    /// `(point, backend)` sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl Ring {
    /// Builds a ring with `vnodes` points per backend. Backend identity is
    /// its address string, so ring layout survives restarts and is shared
    /// by every gateway replica configured with the same fleet.
    pub fn new(addrs: &[String], vnodes: usize) -> Ring {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(addrs.len() * vnodes);
        for (b, addr) in addrs.iter().enumerate() {
            for replica in 0..vnodes {
                let mut h = Fnv64::new();
                h.write_str(addr);
                h.write(b"#");
                h.write_u64(replica as u64);
                points.push((fmix64(h.finish()), b));
            }
        }
        points.sort_unstable();
        Ring { points, backends: addrs.len() }
    }

    /// The ordered candidate list for `key`: the owning backend first,
    /// then each remaining backend in the order the clockwise walk first
    /// meets them. Deterministic per key; different keys interleave the
    /// tail differently, which spreads failover load across the fleet
    /// instead of dogpiling one neighbour.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.backends);
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(p, _)| p < key) % self.points.len();
        let mut seen = vec![false; self.backends];
        for i in 0..self.points.len() {
            let (_, b) = self.points[(start + i) % self.points.len()];
            if !seen[b] {
                seen[b] = true;
                order.push(b);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }

    /// The home backend of `key` (the first candidate).
    pub fn home(&self, key: u64) -> Option<usize> {
        self.candidates(key).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7777")).collect()
    }

    #[test]
    fn candidates_cover_every_backend_exactly_once() {
        let ring = Ring::new(&addrs(5), 16);
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            let mut c = ring.candidates(key);
            assert_eq!(c.len(), 5);
            c.sort_unstable();
            assert_eq!(c, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let ring = Ring::new(&addrs(3), 128);
        let mut counts = [0usize; 3];
        let mut keys = dae_trace::SplitMix64::new(3000);
        for _ in 0..3000 {
            counts[ring.home(keys.next_u64()).unwrap()] += 1;
        }
        for &c in &counts {
            // Perfect balance is 1000; 128 vnodes keeps every shard
            // within about +-25 %.
            assert!((600..1400).contains(&c), "imbalanced shard: {counts:?}");
        }
    }

    #[test]
    fn removing_a_backend_only_remaps_its_own_keys() {
        let all = addrs(4);
        let full = Ring::new(&all, 64);
        let reduced = Ring::new(&all[..3], 64);
        for key in 0..2000u64 {
            let key = key.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let before = full.home(key).unwrap();
            let after = reduced.home(key).unwrap();
            if before < 3 {
                assert_eq!(before, after, "surviving backends keep their keys");
            }
        }
    }

    #[test]
    fn same_fleet_same_ring() {
        let a = Ring::new(&addrs(3), 32);
        let b = Ring::new(&addrs(3), 32);
        for key in [7u64, 99, 12345] {
            assert_eq!(a.candidates(key), b.candidates(key));
        }
    }

    #[test]
    fn empty_fleet_routes_nowhere() {
        let ring = Ring::new(&[], 16);
        assert!(ring.candidates(42).is_empty());
        assert_eq!(ring.home(42), None);
    }
}
