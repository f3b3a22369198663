//! Property-based tests for the attack analyses: analytic-model
//! monotonicity, optimizer consistency and hijack-curve invariants.

use bp_attacks::countermeasures::{blockaware_stale, blockaware_tradeoff_one, diversify_stratum};
use bp_attacks::temporal::model::{ln_binomial, TemporalModel};
use bp_attacks::temporal::optimizer::{rows_are_consistent, table_v};
use bp_bgp::HijackIndex;
use bp_crawler::LagMatrix;
use bp_mining::PoolCensus;
use bp_topology::{Asn, Snapshot, SnapshotConfig};
use proptest::prelude::*;

proptest! {
    /// Pascal's rule: C(n, k) = C(n−1, k−1) + C(n−1, k), in log space.
    #[test]
    fn binomial_satisfies_pascal(n in 2u64..300, k_seed in any::<prop::sample::Index>()) {
        let k = 1 + k_seed.index((n - 1) as usize) as u64;
        let lhs = ln_binomial(n, k);
        let a = ln_binomial(n - 1, k - 1);
        let b = ln_binomial(n - 1, k);
        // ln(e^a + e^b) via log-sum-exp.
        let m = a.max(b);
        let rhs = m + ((a - m).exp() + (b - m).exp()).ln();
        prop_assert!((lhs - rhs).abs() < 1e-6, "n={n} k={k}: {lhs} vs {rhs}");
    }

    /// Symmetry: C(n, k) = C(n, n−k).
    #[test]
    fn binomial_symmetry(n in 1u64..500, k_seed in any::<prop::sample::Index>()) {
        let k = k_seed.index((n + 1) as usize) as u64;
        prop_assert!((ln_binomial(n, k) - ln_binomial(n, n - k)).abs() < 1e-7);
    }

    /// Eq. 4 really bounds Eq. 2: for any concrete timing assignment the
    /// exact isolation probability never exceeds the Cauchy bound at the
    /// assignment's total budget (equality iff all times are equal).
    #[test]
    fn cauchy_bound_dominates_exact_probability(
        lambda in 0.1f64..2.0,
        times in proptest::collection::vec(0.1f64..500.0, 1..20),
    ) {
        let model = TemporalModel::new(lambda);
        let exact = model.isolation_probability(&times);
        let total: f64 = times.iter().sum();
        let bound = model.cauchy_bound(times.len() as u64, total);
        prop_assert!(exact <= bound + 1e-12, "exact {exact} > bound {bound}");
        // Equality at the symmetric point.
        let equal = vec![total / times.len() as f64; times.len()];
        let sym = model.isolation_probability(&equal);
        prop_assert!((sym - bound).abs() < 1e-9);
    }

    /// The Eq. 5 bound is monotone in T, and the bisection result is a
    /// true threshold: feasible at T, infeasible at T−1.
    #[test]
    fn min_time_is_a_threshold(
        lambda in 0.2f64..1.5,
        m in 10u64..800,
    ) {
        let model = TemporalModel::new(lambda);
        if let Some(t) = model.min_time_to_isolate(m, 0.8, 200_000) {
            let target = 0.8f64.ln();
            prop_assert!(model.ln_isolation_bound(m, t) >= target);
            if t > m {
                prop_assert!(model.ln_isolation_bound(m, t - 1) < target);
            }
        }
    }

    /// Table VI monotonicity: T grows with m and shrinks with λ.
    #[test]
    fn table6_monotonicity(
        lambda_lo in 0.3f64..0.6,
        bump in 0.05f64..0.5,
        m in 50u64..600,
        dm in 10u64..300,
    ) {
        let slow = TemporalModel::new(lambda_lo);
        let fast = TemporalModel::new(lambda_lo + bump);
        let cap = 500_000;
        let t_slow = slow.min_time_to_isolate(m, 0.8, cap).unwrap();
        let t_fast = fast.min_time_to_isolate(m, 0.8, cap).unwrap();
        prop_assert!(t_fast <= t_slow, "λ up should not raise T");
        let t_more = slow.min_time_to_isolate(m + dm, 0.8, cap).unwrap();
        prop_assert!(t_more >= t_slow, "more targets should not lower T");
    }

    /// The BlockAware predicate is monotone in clock skew and threshold.
    #[test]
    fn blockaware_predicate_monotone(
        tl in 0u64..10_000,
        dt in 0u64..10_000,
        threshold in 1u64..5_000,
    ) {
        let tc = tl + dt;
        let stale = blockaware_stale(tc, tl, threshold);
        prop_assert_eq!(stale, dt > threshold);
        if stale {
            // Raising the clock further keeps it stale.
            prop_assert!(blockaware_stale(tc + 1, tl, threshold));
        }
    }

    /// BlockAware tradeoff is monotone in the threshold for a fixed
    /// arrival rate λ: a longer threshold never detects faster and never
    /// raises the false-alarm rate (`e^{-λt}` is decreasing in t).
    #[test]
    fn blockaware_tradeoff_monotone_in_threshold(
        lambda in 0.05f64..5.0,
        threshold in 0u64..100_000,
        bump in 1u64..100_000,
    ) {
        let interval = 1.0 / lambda;
        let lo = blockaware_tradeoff_one(threshold, interval);
        let hi = blockaware_tradeoff_one(threshold + bump, interval);
        prop_assert!(lo.detection_delay_secs < hi.detection_delay_secs);
        prop_assert!(
            hi.false_alarm_rate <= lo.false_alarm_rate,
            "false alarms rose with threshold: {} -> {}",
            lo.false_alarm_rate,
            hi.false_alarm_rate
        );
        prop_assert!((0.0..=1.0).contains(&lo.false_alarm_rate));
        prop_assert!((0.0..=1.0).contains(&hi.false_alarm_rate));
    }

    /// Table V outputs are internally consistent for arbitrary matrices.
    #[test]
    fn table_v_consistent_on_random_matrices(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u64..12, 8),
            10..40,
        ),
    ) {
        let mut matrix = LagMatrix::new(8);
        for row in &rows {
            matrix.push_row(row);
        }
        let table = table_v(&matrix, 60, &[1, 2, 5, 10, 20]);
        prop_assert!(rows_are_consistent(&table));
    }

    /// Stratum diversification conserves total hash share for any spread.
    #[test]
    fn diversification_conserves_hash(spread in 1usize..10) {
        let census = PoolCensus::paper_table_iv();
        let hosts: Vec<Asn> = (1..=10u32).map(|i| Asn(i * 100)).collect();
        let diversified = diversify_stratum(&census, &hosts, spread);
        prop_assert!((diversified.total_share() - census.total_share()).abs() < 1e-9);
        prop_assert_eq!(diversified.len(), census.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hijack curves are monotone and the prefix threshold is exact, for
    /// every anchor AS and arbitrary seeds.
    #[test]
    fn hijack_curves_well_formed(seed in 0u64..300) {
        let snapshot = Snapshot::generate(SnapshotConfig {
            seed,
            scale: 0.05,
            tail_as_count: 60,
            version_tail: 10,
            ..SnapshotConfig::paper()
        });
        let hijacks = HijackIndex::new(&snapshot);
        for asn in [24940u32, 16276, 37963, 16509, 14061] {
            let curve = hijacks.isolation_curve(Asn(asn));
            prop_assert!(!curve.is_empty());
            for pair in curve.windows(2) {
                prop_assert!(pair[0] <= pair[1] + 1e-12);
            }
            let last = *curve.last().unwrap();
            prop_assert!(last <= 1.0 + 1e-12);
            // Threshold consistency.
            if let Some(k) = hijacks.prefixes_for_fraction(Asn(asn), 0.5) {
                prop_assert!(curve[k - 1] + 1e-12 >= 0.5);
                if k > 1 {
                    prop_assert!(curve[k - 2] < 0.5 + 1e-12);
                }
            }
            // Hijacking k prefixes isolates exactly the curve's fraction.
            let outcome = hijacks.hijack_top_prefixes(Asn(asn), 10);
            prop_assert!((outcome.fraction_of_as - curve[9.min(curve.len() - 1)]).abs() < 1e-9);
        }
    }
}
