//! The workspace's one deterministic PRNG.
//!
//! Governor exploration, load-generator request mixes and the gateway's
//! fault schedules must all replay exactly from a seed, so every draw
//! comes from an explicitly-seeded SplitMix64 stream — the same inputs
//! always produce the same decision sequence, and there is no dependency
//! on an external randomness crate.

/// SplitMix64 (Steele, Lea & Flood; the seeding generator of
/// `java.util.SplittableRandom`): a 64-bit state passed through a
/// bijective mixing function. Statistically solid for exploration draws
/// and trivially reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly-distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of uniformity.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `0..n` (`n > 0`).
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift range reduction; bias is negligible for the tiny
        // ranges (≤ number of DVFS points) used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the increment and mixer constants that bandit exploration,
    /// `client_rng` request streams and `FaultPlan` schedules depend on
    /// (reference outputs of SplitMix64 from seed 0).
    #[test]
    fn known_sequence() {
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 6];
        for _ in 0..200 {
            seen[r.next_below(6) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }
}
