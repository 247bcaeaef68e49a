//! Voltage–frequency operating points.

/// One DVFS operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreqPoint {
    /// Core frequency in GHz.
    pub ghz: f64,
    /// Supply voltage in volts.
    pub volts: f64,
}

impl FreqPoint {
    /// Frequency in Hz.
    pub fn hz(&self) -> f64 {
        self.ghz * 1e9
    }
}

/// Index into a [`DvfsTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FreqId(pub usize);

/// The table of available operating points, slowest first.
#[derive(Clone, Debug, PartialEq)]
pub struct DvfsTable {
    points: Vec<FreqPoint>,
}

impl DvfsTable {
    /// Builds a table from explicit points (must be sorted slowest first).
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or not sorted by frequency.
    pub(crate) fn new(points: Vec<FreqPoint>) -> Self {
        assert!(!points.is_empty(), "empty DVFS table");
        assert!(
            points.windows(2).all(|w| w[0].ghz < w[1].ghz),
            "DVFS table must be sorted by frequency"
        );
        DvfsTable { points }
    }

    /// The Sandybridge-like table used throughout the evaluation: 1.6 GHz to
    /// 3.4 GHz in 400 MHz steps (§6.2 of the paper), with a linear
    /// voltage–frequency map spanning 0.80 V – 1.25 V.
    pub fn sandybridge() -> Self {
        let fmin = 1.6;
        let fmax = 3.4;
        let vmin = 0.80;
        let vmax = 1.25;
        let mut points = Vec::new();
        let mut f = fmin;
        while f < fmax + 1e-9 {
            let v = vmin + (f - fmin) / (fmax - fmin) * (vmax - vmin);
            points.push(FreqPoint { ghz: f, volts: v });
            // the paper scans "from fmin (1.6GHz) to fmax (3.4GHz) in steps
            // of 400MHz"; the last step lands on 3.4 exactly via clamping
            f = if f + 0.4 > fmax && f < fmax { fmax } else { f + 0.4 };
        }
        DvfsTable::new(points)
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the table has no points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Slowest point.
    pub fn min(&self) -> FreqId {
        FreqId(0)
    }

    /// Fastest point.
    pub fn max(&self) -> FreqId {
        FreqId(self.points.len() - 1)
    }

    /// The operating point for `id`.
    pub fn point(&self, id: FreqId) -> FreqPoint {
        self.points[id.0]
    }

    /// Iterates over `(id, point)` slowest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (FreqId, FreqPoint)> + '_ {
        self.points.iter().enumerate().map(|(i, p)| (FreqId(i), *p))
    }

    /// The operating point closest in frequency to `ghz` (ties go to the
    /// slower point). Useful for mapping a continuous frequency target —
    /// e.g. a governor's interpolated choice — onto the discrete table.
    /// A target beyond either end of the table maps to that end.
    pub fn nearest(&self, ghz: f64) -> FreqId {
        // Clamped first: at ±1e300 every distance below rounds to the same
        // value, and the search would return the first point.
        let ghz = ghz.clamp(self.points[0].ghz, self.points[self.points.len() - 1].ghz);
        let mut best = 0;
        for (i, p) in self.points.iter().enumerate() {
            if (p.ghz - ghz).abs() < (self.points[best].ghz - ghz).abs() {
                best = i;
            }
        }
        FreqId(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandybridge_span() {
        let t = DvfsTable::sandybridge();
        assert_eq!(t.point(t.min()).ghz, 1.6);
        assert!((t.point(t.max()).ghz - 3.4).abs() < 1e-9);
        assert!(t.len() >= 5, "expected several steps, got {}", t.len());
        // voltage increases with frequency
        for w in 0..t.len() - 1 {
            assert!(t.point(FreqId(w)).volts < t.point(FreqId(w + 1)).volts);
        }
        assert!((t.point(t.min()).volts - 0.80).abs() < 1e-9);
        assert!((t.point(t.max()).volts - 1.25).abs() < 1e-9);
    }

    #[test]
    fn hz_conversion() {
        let p = FreqPoint { ghz: 2.0, volts: 1.0 };
        assert_eq!(p.hz(), 2.0e9);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_table_panics() {
        let _ = DvfsTable::new(vec![
            FreqPoint { ghz: 2.0, volts: 1.0 },
            FreqPoint { ghz: 1.6, volts: 0.9 },
        ]);
    }

    #[test]
    fn nearest_maps_onto_the_table() {
        let t = DvfsTable::sandybridge();
        assert_eq!(t.nearest(0.1), t.min());
        assert_eq!(t.nearest(99.0), t.max());
        assert_eq!(t.nearest(1e300), t.max());
        assert_eq!(t.nearest(f64::MAX), t.max());
        assert_eq!(t.nearest(f64::INFINITY), t.max());
        assert_eq!(t.nearest(-1e300), t.min());
        assert_eq!(t.nearest(f64::NEG_INFINITY), t.min());
        assert_eq!(t.nearest(2.0), FreqId(1));
        // Ties go to the slower point: 1.8 is equidistant from 1.6 and 2.0.
        assert_eq!(t.nearest(1.8), FreqId(0));
        for (id, p) in t.iter() {
            assert_eq!(t.nearest(p.ghz), id);
        }
    }

    #[test]
    fn iter_yields_all() {
        let t = DvfsTable::sandybridge();
        assert_eq!(t.iter().count(), t.len());
        assert_eq!(t.iter().next().unwrap().0, t.min());
    }
}
