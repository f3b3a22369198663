//! Summary statistics.
//!
//! The paper reports node characteristics as mean/standard-deviation pairs
//! (Table I) and works extensively with quantiles of skewed distributions
//! (link speeds have σ ≈ 10× μ). [`Summary`] is an owned, sorted sample that
//! answers all of those queries exactly.

use std::fmt;

/// An owned sample of `f64` observations with exact summary queries.
///
/// The sample is sorted at construction so that quantile queries are `O(1)`.
/// Non-finite observations are rejected at construction — statistics over
/// `NaN`/`±∞` are never meaningful for the measurement data this workspace
/// handles.
///
/// # Empty samples
///
/// Every query has a defined behavior on an empty sample, stated in its
/// docs: the moment queries ([`mean`](Self::mean), [`std_dev`](Self::std_dev),
/// [`sample_std_dev`](Self::sample_std_dev), [`sum`](Self::sum)) return
/// `0.0`, while the order statistics ([`min`](Self::min), [`max`](Self::max),
/// [`quantile`](Self::quantile), [`median`](Self::median)) panic because no
/// neutral element exists for them. Artifact renderers that may see empty
/// strata (e.g. the Tor family in a heavily down-scaled snapshot) should use
/// the `try_*` variants, which return `None` instead of panicking.
///
/// # Examples
///
/// ```
/// use bp_analysis::stats::Summary;
///
/// let s = Summary::from_iter([4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// assert_eq!(s.median(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    /// Sum of squared deviations from the mean (for population/sample std).
    m2: f64,
}

impl Summary {
    /// Builds a summary from any iterator of observations.
    ///
    /// # Panics
    ///
    /// Panics if any observation is `NaN` or infinite.
    #[allow(clippy::should_implement_trait)] // the FromIterator impl delegates here
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut sorted: Vec<f64> = iter.into_iter().collect();
        assert!(
            sorted.iter().all(|x| x.is_finite()),
            "summary statistics require finite observations"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
        // Welford's online algorithm, numerically stable for the heavy-tailed
        // link-speed samples (σ/μ ≈ 10 in Table I).
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for (i, &x) in sorted.iter().enumerate() {
            let n = (i + 1) as f64;
            let delta = x - mean;
            mean += delta / n;
            m2 += delta * (x - mean);
        }
        Self { sorted, mean, m2 }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the sample holds no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean; `0.0` for an empty sample.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (`÷ n`); `0.0` for samples of size < 1.
    pub fn std_dev(&self) -> f64 {
        match self.sorted.len() {
            0 => 0.0,
            n => (self.m2 / n as f64).sqrt(),
        }
    }

    /// Sample standard deviation (`÷ (n − 1)`); `0.0` for samples of size < 2.
    pub fn sample_std_dev(&self) -> f64 {
        match self.sorted.len() {
            0 | 1 => 0.0,
            n => (self.m2 / (n - 1) as f64).sqrt(),
        }
    }

    /// Arithmetic mean, or `None` for an empty sample.
    pub fn try_mean(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then_some(self.mean)
    }

    /// Population standard deviation, or `None` for an empty sample.
    pub fn try_std_dev(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.std_dev())
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty sample")
    }

    /// Smallest observation, or `None` for an empty sample.
    pub fn try_min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty sample")
    }

    /// Largest observation, or `None` for an empty sample.
    pub fn try_max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) with linear interpolation between
    /// order statistics (the same convention as numpy's default).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The `q`-quantile, or `None` for an empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` — an out-of-range quantile is a
    /// caller bug regardless of sample size.
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        (!self.sorted.is_empty()).then(|| self.quantile(q))
    }

    /// Median (the 0.5-quantile).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Median, or `None` for an empty sample.
    pub fn try_median(&self) -> Option<f64> {
        self.try_quantile(0.5)
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Summary::from_iter(iter)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4}",
            self.count(),
            self.mean(),
            self.std_dev()
        )
    }
}

/// A streaming mean/variance accumulator for cases where the full sample does
/// not need to be retained (e.g. per-step simulator telemetry).
///
/// # Examples
///
/// ```
/// use bp_analysis::stats::Accumulator;
///
/// let mut acc = Accumulator::new();
/// for x in [2.0, 4.0, 6.0] {
///     acc.add(x);
/// }
/// assert_eq!(acc.mean(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "accumulator requires finite observations");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations added so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` before any observation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Running population standard deviation; `0.0` before any observation.
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation so far, or `None` before any observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation so far, or `None` before any observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_safe_for_mean_and_std() {
        let s = Summary::from_iter(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn summary_rejects_nan() {
        let _ = Summary::from_iter([1.0, f64::NAN]);
    }

    #[test]
    fn quantile_interpolates() {
        let s = Summary::from_iter([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert!((s.quantile(0.5) - 25.0).abs() < 1e-12);
        assert!((s.quantile(0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_single_element() {
        let s = Summary::from_iter([42.0]);
        assert_eq!(s.quantile(0.3), 42.0);
        assert_eq!(s.median(), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let s = Summary::from_iter(std::iter::empty());
        let _ = s.quantile(0.5);
    }

    #[test]
    fn try_variants_are_none_on_empty() {
        let s = Summary::from_iter(std::iter::empty());
        assert_eq!(s.try_mean(), None);
        assert_eq!(s.try_std_dev(), None);
        assert_eq!(s.try_min(), None);
        assert_eq!(s.try_max(), None);
        assert_eq!(s.try_quantile(0.9), None);
        assert_eq!(s.try_median(), None);
    }

    #[test]
    fn try_variants_match_panicking_queries() {
        let s = Summary::from_iter([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.try_mean(), Some(s.mean()));
        assert_eq!(s.try_std_dev(), Some(s.std_dev()));
        assert_eq!(s.try_min(), Some(s.min()));
        assert_eq!(s.try_max(), Some(s.max()));
        assert_eq!(s.try_quantile(0.25), Some(s.quantile(0.25)));
        assert_eq!(s.try_median(), Some(s.median()));
    }

    #[test]
    #[should_panic(expected = "quantile must lie")]
    fn try_quantile_still_rejects_bad_q() {
        let s = Summary::from_iter([1.0]);
        let _ = s.try_quantile(1.5);
    }

    #[test]
    fn sample_std_dev_uses_bessel_correction() {
        let s = Summary::from_iter([1.0, 2.0, 3.0]);
        // population: sqrt(2/3); sample: sqrt(1.0)
        assert!((s.std_dev() - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.sample_std_dev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_matches_summary() {
        let data = [3.5, -1.0, 7.25, 0.0, 12.0, 5.5];
        let mut acc = Accumulator::new();
        for &x in &data {
            acc.add(x);
        }
        let s = Summary::from_iter(data);
        assert!((acc.mean() - s.mean()).abs() < 1e-12);
        assert!((acc.std_dev() - s.std_dev()).abs() < 1e-12);
        assert_eq!(acc.min(), Some(-1.0));
        assert_eq!(acc.max(), Some(12.0));
    }

    #[test]
    fn accumulator_merge_equals_sequential() {
        let left = [1.0, 2.0, 3.0];
        let right = [10.0, 20.0];
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        left.iter().for_each(|&x| a.add(x));
        right.iter().for_each(|&x| b.add(x));
        a.merge(&b);

        let mut whole = Accumulator::new();
        left.iter().chain(right.iter()).for_each(|&x| whole.add(x));
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-12);
    }

    #[test]
    fn accumulator_merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.add(5.0);
        let before = a;
        a.merge(&Accumulator::new());
        assert_eq!(a, before);

        let mut empty = Accumulator::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Summary::from_iter([1.0]);
        assert!(!format!("{s}").is_empty());
    }
}
