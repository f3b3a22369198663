//! Fixed-bin histograms.
//!
//! Used for distributional views the summary statistics flatten: the
//! propagation-delay distribution (§V-B cites Decker–Wattenhofer's
//! measurements) and the per-node lag-duration distribution behind
//! Table V.

use std::fmt;

/// A histogram over `[lo, hi)` with uniformly sized bins plus overflow /
/// underflow counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`, both finite, and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "need lo < hi");
        assert!(bins > 0, "need at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "histogram requires finite observations");
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    /// Total observations recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Count in bin `i`.
    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `(bin lower edge, count)` pairs.
    pub fn edges_and_counts(&self) -> Vec<(f64, u64)> {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + i as f64 * width, c))
            .collect()
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The approximate `q`-quantile from the binned data (bin midpoint of
    /// the bin containing the quantile), or `None` for an empty
    /// histogram or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) || self.count() == 0 {
            return None;
        }
        // `q = 0.0` would otherwise yield `target = 0`, which every
        // prefix sum trivially satisfies — the 0-quantile must still
        // land in the first *occupied* bin, so ask for at least one
        // observation.
        let target = ((q * self.count() as f64).ceil() as u64).max(1);
        let mut acc = self.underflow;
        if acc >= target && self.underflow > 0 {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(self.lo + (i as f64 + 0.5) * width);
            }
        }
        Some(self.hi)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (edge, count) in self.edges_and_counts() {
            let bar = (count * 40 / max) as usize;
            writeln!(f, "{edge:>10.2} | {:<40} {count}", "#".repeat(bar))?;
        }
        if self.underflow > 0 || self.overflow > 0 {
            writeln!(
                f,
                "(underflow {}, overflow {})",
                self.underflow, self.overflow
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 5.5, 9.999] {
            h.add(x);
        }
        assert_eq!(h.bin(0), 2); // 0.0, 1.9
        assert_eq!(h.bin(1), 1); // 2.0
        assert_eq!(h.bin(2), 1); // 5.5
        assert_eq!(h.bin(4), 1); // 9.999
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn under_and_overflow_counted() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(1.0); // hi is exclusive
        h.add(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_approximates_median() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.add(i as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 49.5).abs() <= 1.0, "median {median}");
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(Histogram::new(0.0, 1.0, 1).quantile(0.5), None);
    }

    #[test]
    fn zero_quantile_tracks_the_occupied_bin() {
        // Regression: with all mass in a high bin, quantile(0.0) used to
        // compute `target = 0` and return the bin-0 midpoint (0.5 here)
        // even though bin 0 is empty.
        let mut h = Histogram::new(0.0, 100.0, 100);
        for _ in 0..10 {
            h.add(90.5);
        }
        assert_eq!(h.quantile(0.0), Some(90.5));
        assert_eq!(h.quantile(0.0), h.quantile(0.01));
        // With underflow mass the 0-quantile clamps to `lo`, as before.
        let mut u = Histogram::new(0.0, 1.0, 4);
        u.add(-3.0);
        u.add(0.9);
        assert_eq!(u.quantile(0.0), Some(0.0));
    }

    #[test]
    fn display_draws_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add(0.5);
        h.add(0.6);
        h.add(1.5);
        let s = h.to_string();
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn invalid_range_rejected() {
        let _ = Histogram::new(5.0, 5.0, 3);
    }
}
