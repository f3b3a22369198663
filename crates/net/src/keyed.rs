//! Keyed per-message randomness.
//!
//! Every random choice on a message's path — whether it is lost, how
//! long it takes, when a lazy node fetches — is a pure function of the
//! message's identity hashed with the run's seed: a counter-based
//! generator in the sense of Salmon et al., "Parallel Random Numbers: As
//! Easy as 1, 2, 3" (SC'11), whose counter is `(kind, from, to, item,
//! ms)`. No draw depends on how many draws came before it, so the
//! simulator may skip an event that cannot change any node without
//! moving the fate of any other message.
//!
//! The hash absorbs one 64-bit word per field, each through a full
//! SplitMix64 finalizer (a bijection with full avalanche), starting
//! from a per-kind key derived from the seed. Fields never share a
//! word, so two identities alias only by a 64-bit collision.

/// What a keyed draw decides. Each kind keys its own stream, so two
/// draws for the same message (its send delay and its loss at
/// delivery, say) are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Draw {
    /// Diffusion delay of an announcement, keyed at send time.
    InvDelay,
    /// Delay of the inv a peer sends a node that has just come back
    /// online, keyed at send time.
    ResyncDelay,
    /// Loss of an inv, keyed at delivery time.
    InvLoss,
    /// Loss of a getdata (each retry has its own delivery time).
    GetDataLoss,
    /// Loss of a block payload.
    BlockLoss,
    /// Diffusion delay of a relayed transaction.
    TxDelay,
    /// Loss of a relayed transaction.
    TxLoss,
    /// A node's lazy wait before it requests an announced block.
    FetchDelay,
    /// One Fisher–Yates step of a trickle announcement's peer order
    /// (`to` carries the step).
    TrickleOrder,
    /// A trickle announcement's per-peer jitter.
    TrickleJitter,
    /// The peer asked for a missing parent when no sender is known.
    PickPeer,
}

/// Number of [`Draw`] kinds.
const KINDS: usize = Draw::PickPeer as usize + 1;

/// SplitMix64's output function: a bijection on `u64` in which every
/// input bit flips each output bit with probability ~1/2.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The keyed generator of one simulation: a key per [`Draw`] kind,
/// derived from the seed.
#[derive(Debug, Clone)]
pub struct Keyed {
    keys: [u64; KINDS],
}

impl Keyed {
    /// The generator for `seed`. Its streams are unrelated to the
    /// sequential `StdRng` seeded with the same value.
    pub fn new(seed: u64) -> Self {
        let base = mix(seed ^ 0x6B65_7965_642D_7631); // "keyed-v1"
        let mut keys = [0; KINDS];
        for (kind, key) in keys.iter_mut().enumerate() {
            *key = mix(base ^ mix(kind as u64 + 1));
        }
        Self { keys }
    }

    /// 64 uniform bits for the message `(kind, from, to, item, ms)`.
    #[inline]
    pub fn bits(&self, kind: Draw, from: u32, to: u32, item: u64, ms: u64) -> u64 {
        let h = mix(self.keys[kind as usize] ^ ((from as u64) << 32 | to as u64));
        mix(mix(h ^ item) ^ ms)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit(&self, kind: Draw, from: u32, to: u32, item: u64, ms: u64) -> f64 {
        (self.bits(kind, from, to, item, ms) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `0..n` (multiply-shift; the bias is below
    /// `n / 2^64`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&self, kind: Draw, from: u32, to: u32, item: u64, ms: u64, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.bits(kind, from, to, item, ms) as u128 * n as u128) >> 64) as u64
    }

    /// An exponential draw with the given mean, by inverse transform.
    #[inline]
    pub fn exp(&self, kind: Draw, from: u32, to: u32, item: u64, ms: u64, mean: f64) -> f64 {
        -(1.0 - self.unit(kind, from, to, item, ms)).ln() * mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-sided Kolmogorov–Smirnov statistic of `sample` against `cdf`.
    fn ks(mut sample: Vec<f64>, cdf: impl Fn(f64) -> f64) -> f64 {
        sample.sort_by(f64::total_cmp);
        let n = sample.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in sample.iter().enumerate() {
            let f = cdf(x);
            d = d.max((i as f64 + 1.0) / n - f).max(f - i as f64 / n);
        }
        d
    }

    #[test]
    fn edge_delays_are_exponential() {
        // 20,000 messages on distinct edges and times; the KS critical
        // value at α = 0.001 is 1.95 / √n.
        let k = Keyed::new(20180228);
        let mean = 6_000.0;
        let sample: Vec<f64> = (0..20_000u32)
            .map(|i| {
                k.exp(
                    Draw::InvDelay,
                    i % 997,
                    i / 997,
                    42,
                    1_000 + i as u64 * 7,
                    mean,
                )
            })
            .collect();
        let d = ks(sample.clone(), |x| 1.0 - (-x / mean).exp());
        let critical = 1.95 / (sample.len() as f64).sqrt();
        assert!(d < critical, "KS D = {d:.5} >= {critical:.5}");
        let avg = sample.iter().sum::<f64>() / sample.len() as f64;
        assert!((avg / mean - 1.0).abs() < 0.03, "mean {avg:.1}");
    }

    #[test]
    fn loss_rate_matches_the_failure_rate() {
        // At p = 0.1 over n = 100,000 deliveries the 99.9 % binomial
        // interval is p ± 3.29·√(p(1−p)/n) ≈ 0.1 ± 0.00312.
        let k = Keyed::new(7);
        let (p, n) = (0.1, 100_000u64);
        let lost = (0..n)
            .filter(|&i| {
                k.unit(
                    Draw::InvLoss,
                    (i % 50) as u32,
                    (i / 50) as u32,
                    i % 13,
                    i * 31,
                ) < p
            })
            .count() as f64;
        let half = 3.29 * (p * (1.0 - p) / n as f64).sqrt();
        let rate = lost / n as f64;
        assert!(
            (rate - p).abs() < half,
            "loss rate {rate:.5} outside {p} ± {half:.5}"
        );
    }

    #[test]
    fn kinds_and_times_draw_independently() {
        // Draws of one message under two kinds, and under two delivery
        // times 30 s apart (a getdata retry), must be uncorrelated: the
        // Pearson correlation of n = 50,000 pairs of independent uniforms
        // is N(0, 1/n), so |r| < 4/√n fails one run in ~16,000.
        let k = Keyed::new(99);
        let n = 50_000u64;
        let corr = |pairs: Vec<(f64, f64)>| {
            let m = pairs.len() as f64;
            let (sx, sy) = pairs
                .iter()
                .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
            let (mx, my) = (sx / m, sy / m);
            let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
            for &(x, y) in &pairs {
                sxy += (x - mx) * (y - my);
                sxx += (x - mx) * (x - mx);
                syy += (y - my) * (y - my);
            }
            sxy / (sxx * syy).sqrt()
        };
        let bound = 4.0 / (n as f64).sqrt();
        let msg = |i: u64| ((i % 211) as u32, (i / 211) as u32, i % 5, 600_000 + i);
        let kinds: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let (f, t, b, ms) = msg(i);
                (
                    k.unit(Draw::InvDelay, f, t, b, ms),
                    k.unit(Draw::InvLoss, f, t, b, ms),
                )
            })
            .collect();
        let r = corr(kinds);
        assert!(r.abs() < bound, "delay/loss correlation {r:.5}");
        let times: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let (f, t, b, ms) = msg(i);
                (
                    k.unit(Draw::GetDataLoss, f, t, b, ms),
                    k.unit(Draw::GetDataLoss, f, t, b, ms + 30_000),
                )
            })
            .collect();
        let r = corr(times);
        assert!(r.abs() < bound, "retry correlation {r:.5}");
        // And swapping two fields changes the draw: no aliasing.
        assert_ne!(
            k.bits(Draw::InvLoss, 1, 2, 3, 4),
            k.bits(Draw::InvLoss, 2, 1, 3, 4)
        );
        assert_ne!(
            k.bits(Draw::InvLoss, 1, 2, 3, 4),
            k.bits(Draw::InvLoss, 1, 2, 4, 3)
        );
    }

    #[test]
    fn draws_are_pure_and_seeded() {
        let (a, b) = (Keyed::new(1), Keyed::new(2));
        let x = a.bits(Draw::BlockLoss, 3, 4, 5, 6);
        assert_eq!(x, Keyed::new(1).bits(Draw::BlockLoss, 3, 4, 5, 6));
        assert_ne!(x, b.bits(Draw::BlockLoss, 3, 4, 5, 6));
        for n in [1u64, 2, 7, 1 << 40] {
            assert!(a.below(Draw::PickPeer, 9, 9, 9, n, n) < n);
        }
    }
}
