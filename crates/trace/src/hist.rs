//! A log-bucketed duration histogram with percentile readout.
//!
//! The serving layer records one latency sample per request; a histogram
//! with geometrically-spaced buckets keeps that O(1) per sample and O(1)
//! memory while answering p50/p90/p99 with bounded relative error.
//!
//! Buckets are **log-linear** (HdrHistogram-style): one octave per power
//! of two of nanoseconds, each octave split into `SUB_BUCKETS` linear
//! sub-buckets, so any recorded duration lands in a bucket whose upper
//! bound is within `1/SUB_BUCKETS` (12.5 %) of the true value. The exact
//! maximum and the sample sum are tracked on the side, so `max` and
//! `mean` are exact.

use crate::json::JsonValue;

/// Linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 8;
/// Octaves covered: 1 ns .. ~2⁶³ ns (centuries). Values clamp at the ends.
const OCTAVES: usize = 64;

/// A log-bucketed histogram of durations in seconds.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_s: f64,
    max_s: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram { counts: vec![0; OCTAVES * SUB_BUCKETS], count: 0, sum_s: 0.0, max_s: 0.0 }
    }

    fn bucket_of_ns(ns: u64) -> usize {
        let ns = ns.max(1);
        let octave = 63 - ns.leading_zeros() as usize;
        let sub = if octave >= 3 {
            // Top 3 bits below the leading one select the linear sub-bucket.
            ((ns >> (octave - 3)) & (SUB_BUCKETS as u64 - 1)) as usize
        } else {
            0
        };
        (octave * SUB_BUCKETS + sub).min(OCTAVES * SUB_BUCKETS - 1)
    }

    /// Upper bound of bucket `i`, in nanoseconds.
    fn bucket_upper_ns(i: usize) -> u64 {
        let octave = i / SUB_BUCKETS;
        let sub = (i % SUB_BUCKETS) as u64;
        if octave >= 63 {
            return u64::MAX;
        }
        let base = 1u64 << octave;
        if octave >= 3 {
            base + (sub + 1) * (base >> 3)
        } else {
            base * 2
        }
    }

    /// Records one duration. Negative or non-finite samples count as 0.
    pub fn record(&mut self, dur_s: f64) {
        let dur_s = if dur_s.is_finite() && dur_s > 0.0 { dur_s } else { 0.0 };
        let ns = (dur_s * 1e9).min(u64::MAX as f64) as u64;
        self.counts[Self::bucket_of_ns(ns)] += 1;
        self.count += 1;
        self.sum_s += dur_s;
        if dur_s > self.max_s {
            self.max_s = dur_s;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub(crate) fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub(crate) fn max_s(&self) -> f64 {
        self.max_s
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding that rank — within 12.5 % of the true sample. 0 when empty.
    pub fn quantile_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report a quantile above the exact max.
                return (Self::bucket_upper_ns(i) as f64 * 1e-9).min(self.max_s);
            }
        }
        self.max_s
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
        if other.max_s > self.max_s {
            self.max_s = other.max_s;
        }
    }

    /// Summary JSON: count, mean and the standard percentiles, in seconds.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("count", self.count.into()),
            ("mean_s", self.mean_s().into()),
            ("p50_s", self.quantile_s(0.50).into()),
            ("p90_s", self.quantile_s(0.90).into()),
            ("p99_s", self.quantile_s(0.99).into()),
            ("max_s", self.max_s().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_s(), 0.0);
        assert_eq!(h.quantile_s(0.99), 0.0);
        assert_eq!(h.max_s(), 0.0);
    }

    #[test]
    fn quantiles_track_samples_within_bucket_error() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i as f64 * 1e-6); // 1 µs .. 1 ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_s(0.50);
        assert!((p50 / 500e-6 - 1.0).abs() < 0.15, "p50 {p50}");
        let p99 = h.quantile_s(0.99);
        assert!((p99 / 990e-6 - 1.0).abs() < 0.15, "p99 {p99}");
        assert!((h.max_s() - 1e-3).abs() < 1e-12, "max is exact");
        assert!((h.mean_s() - 500.5e-6).abs() < 1e-9, "mean is exact");
    }

    #[test]
    fn degenerate_samples_are_clamped() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY); // clamps to u64::MAX ns bucket
        assert_eq!(h.count(), 4);
        assert!(h.quantile_s(0.5) >= 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(1e-3);
        b.record(2e-3);
        b.record(4e-3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.max_s() - 4e-3).abs() < 1e-15);
        assert!((a.mean_s() - 7e-3 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_carries_percentile_keys() {
        let mut h = LogHistogram::new();
        h.record(5e-4);
        let v = h.to_json();
        assert_eq!(v.get("count").unwrap().as_f64(), Some(1.0));
        for k in ["mean_s", "p50_s", "p90_s", "p99_s", "max_s"] {
            assert!(v.get(k).is_some(), "missing {k}");
        }
    }

    #[test]
    fn buckets_are_monotone() {
        let mut last = 0u64;
        for i in 0..(OCTAVES * SUB_BUCKETS) {
            let ub = LogHistogram::bucket_upper_ns(i);
            assert!(ub >= last, "bucket {i} upper bound regressed");
            last = ub;
        }
        // A value lands in a bucket whose upper bound is >= the value.
        for ns in [1u64, 7, 8, 9, 1023, 1024, 1025, 1 << 40, u64::MAX] {
            let b = LogHistogram::bucket_of_ns(ns);
            assert!(LogHistogram::bucket_upper_ns(b) >= ns, "ns={ns} bucket={b}");
        }
    }
}
