//! Seedable sampling distributions.
//!
//! The simulations in the paper lean on a small set of distributions:
//!
//! * **Exponential** — Bitcoin switched to *diffusion spreading* in 2015, in
//!   which information propagates with independent exponential delays
//!   (paper §V-B, Eq. 1); block inter-arrival times are exponential with a
//!   600 s mean.
//! * **Log-normal** — per-node link speeds are extremely heavy-tailed
//!   (Table I: μ = 25 Mbps, σ = 259 Mbps), which a log-normal reproduces.
//! * **Pareto / Zipf** — AS sizes follow a power law (8 of 84,903 ASes host
//!   30 % of nodes, Figure 3); prefix sizes inside an AS do too (Figure 4).
//! * **Discrete weighted** — choosing a miner proportionally to hash rate,
//!   or a hosting AS proportionally to its share.
//!
//! All samplers are plain structs over `rand::Rng` so every simulation in the
//! workspace is reproducible from a single `u64` seed.

use rand::Rng;

/// One exponential draw with the given mean, by inverse transform:
/// `-ln(1 − u) · mean` for `u` uniform in [0, 1).
///
/// Unlike [`Exponential::sample`], which divides by the rate, this
/// multiplies by the mean; the two round differently, and each keeps the
/// streams of the simulators that use it.
pub fn exp_with_mean<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.random();
    -(1.0 - u).ln() * mean
}

/// Exponential distribution with rate `lambda` (mean `1 / lambda`).
///
/// # Examples
///
/// ```
/// use bp_analysis::dist::Exponential;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let exp = Exponential::new(1.0 / 600.0); // mean 600 s block interval
/// let dt = exp.sample(&mut rng);
/// assert!(dt > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential sampler with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda` is finite and strictly positive.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "exponential rate must be finite and positive"
        );
        Self { lambda }
    }

    /// Creates a sampler with the given mean (`1 / lambda`).
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is finite and strictly positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be finite and positive"
        );
        Self::new(1.0 / mean)
    }

    /// The rate parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draws one sample via inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `random::<f64>()` is in [0, 1); use 1−u to avoid ln(0).
        let u: f64 = rng.random();
        -(1.0 - u).ln() / self.lambda
    }

    /// The CDF `F(t) = 1 − e^{−λt}` (paper Eq. 1), clamped at 0 for `t < 0`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            1.0 - (-self.lambda * t).exp()
        }
    }
}

/// Log-normal distribution parameterised by the *target* mean and standard
/// deviation of the resulting (not the underlying normal) distribution.
///
/// Table I reports link speeds with σ ≈ 10 μ; a log-normal matched by
/// moments reproduces that shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are finite and `sigma` is non-negative.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "log-normal parameters must be finite with sigma >= 0"
        );
        Self { mu, sigma }
    }

    /// Creates a log-normal whose *resulting* distribution has the given
    /// mean and standard deviation (moment matching).
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0` and `std_dev >= 0` and both are finite.
    pub fn from_mean_std(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0 && std_dev.is_finite() && std_dev >= 0.0,
            "log-normal target mean must be positive, std non-negative"
        );
        let cv2 = (std_dev / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self::new(mu, sigma2.sqrt())
    }

    /// Draws one sample using the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = standard_normal(rng);
        (self.mu + self.sigma * z).exp()
    }
}

/// Draws a standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random();
    let u2: f64 = rng.random();
    // Guard u1 away from zero so ln is finite.
    let u1 = u1.max(f64::MIN_POSITIVE);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Bounded Pareto (power-law) distribution on `[min, max]` with shape `alpha`.
///
/// Used for AS sizes and per-AS prefix sizes: a small `alpha` (≈ 0.6–1.1)
/// yields the "few giants, long tail" concentration the paper measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    min: f64,
    max: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto sampler.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min < max` and `alpha > 0`, all finite.
    pub fn new(min: f64, max: f64, alpha: f64) -> Self {
        assert!(
            min.is_finite() && max.is_finite() && alpha.is_finite(),
            "bounded Pareto parameters must be finite"
        );
        assert!(min > 0.0 && max > min, "require 0 < min < max");
        assert!(alpha > 0.0, "require alpha > 0");
        Self { min, max, alpha }
    }

    /// Draws one sample by inverse-transform of the truncated CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        let la = self.min.powf(-self.alpha);
        let ha = self.max.powf(-self.alpha);
        (la - u * (la - ha)).powf(-1.0 / self.alpha)
    }
}

/// Zipf-ranked weights: weight of rank `k` (1-based) proportional to
/// `1 / k^s`, normalised to sum to `total`.
///
/// This produces the deterministic "rank-size" profile used to extend the
/// paper's top-10 AS table into a full 1,660-AS tail.
///
/// # Panics
///
/// Panics unless `n > 0`, `s` is finite and non-negative, and `total` is
/// finite and positive.
pub fn zipf_weights(n: usize, s: f64, total: f64) -> Vec<f64> {
    assert!(n > 0, "zipf_weights requires n > 0");
    assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0");
    assert!(
        total.is_finite() && total > 0.0,
        "zipf total must be positive"
    );
    let raw: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w * total / sum).collect()
}

/// A discrete distribution over indices `0..n`, sampled proportionally to
/// caller-supplied non-negative weights.
///
/// Implemented with a cumulative table and binary search — `O(log n)` per
/// sample, plenty for this workspace's sizes (≤ tens of thousands).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
}

impl WeightedIndex {
    /// Builds the sampler from weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weighted index requires weights");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        Self { cumulative }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` if there are no categories (never constructible; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let x: f64 = rng.random::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB17C01)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = rng();
        let exp = Exponential::with_mean(600.0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 600.0).abs() < 15.0, "mean {mean} too far from 600");
    }

    #[test]
    fn exponential_cdf_matches_formula() {
        let exp = Exponential::new(0.5);
        assert_eq!(exp.cdf(-1.0), 0.0);
        assert!((exp.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn lognormal_moment_matching() {
        let mut rng = rng();
        let ln = LogNormal::from_mean_std(25.0, 100.0);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| ln.sample(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        // Heavy tail → generous tolerance, but mean must be in the ballpark.
        assert!((mean - 25.0).abs() < 4.0, "mean {mean} too far from 25");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut rng = rng();
        let p = BoundedPareto::new(1.0, 1000.0, 0.8);
        for _ in 0..5_000 {
            let x = p.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let mut rng = rng();
        let p = BoundedPareto::new(1.0, 10_000.0, 0.7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample(&mut rng)).collect();
        let below_ten = samples.iter().filter(|&&x| x < 10.0).count() as f64 / n as f64;
        // Most mass near the minimum, but a real tail exists.
        assert!(below_ten > 0.6, "Pareto body too light: {below_ten}");
        assert!(samples.iter().any(|&x| x > 1_000.0), "no tail samples");
    }

    #[test]
    fn zipf_weights_sum_and_order() {
        let w = zipf_weights(100, 1.0, 13_635.0);
        let sum: f64 = w.iter().sum();
        assert!((sum - 13_635.0).abs() < 1e-6);
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = rng();
        let wi = WeightedIndex::new(&[0.0, 3.0, 1.0]);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[wi.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0, "zero-weight category was sampled");
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio} too far from 3");
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn weighted_index_rejects_all_zero() {
        let _ = WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let exp = Exponential::new(1.0);
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(99);
            (0..10).map(|_| exp.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(99);
            (0..10).map(|_| exp.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
