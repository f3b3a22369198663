//! Countermeasures (paper §VI).
//!
//! * **BlockAware** — a node-local staleness detector: if the timestamp of
//!   the node's latest block `t_l` trails the current time `t_c` by more
//!   than the 600 s block interval, the node knows it is behind and
//!   queries other nodes for the latest block. The temporal-attack driver
//!   supports running with BlockAware enabled; this module adds the
//!   detector itself and a threshold sweep.
//! * **Stratum diversification** — pools spreading stratum servers over
//!   many ASes raise the spatial attacker's cost: more ASes must be
//!   hijacked to isolate the same hash power.

use bp_mining::{MiningPool, PoolCensus, StratumServer};
use bp_topology::Asn;

/// The paper's BlockAware threshold: one expected block interval (600 s).
/// `bp-detect` recasts the predicate as a network-wide detector and uses
/// this threshold as its default and as the latency budget every detector
/// is scored against.
pub const BLOCKAWARE_THRESHOLD_SECS: u64 = 600;

/// The BlockAware staleness predicate: `t_c − t_l > threshold`.
///
/// # Examples
///
/// ```
/// use bp_attacks::countermeasures::blockaware_stale;
///
/// assert!(!blockaware_stale(1000, 500, 600));
/// assert!(blockaware_stale(1200, 500, 600));
/// ```
pub fn blockaware_stale(t_current: u64, t_latest_block: u64, threshold_secs: u64) -> bool {
    t_current.saturating_sub(t_latest_block) > threshold_secs
}

/// Expected detection delay (seconds) and false-alarm rate of BlockAware
/// for a given threshold, under exponential 600 s block arrivals.
///
/// * Detection delay: a partitioned node alarms `threshold` seconds after
///   its last block.
/// * False-alarm probability per block interval: chance an honest gap
///   exceeds the threshold, `P(X > threshold) = e^{-threshold/600}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockAwareTradeoff {
    /// Configured threshold.
    pub threshold_secs: u64,
    /// Seconds from isolation to alarm.
    pub detection_delay_secs: u64,
    /// Probability an honest inter-block gap triggers a false alarm.
    pub false_alarm_rate: f64,
}

/// One cell of the BlockAware threshold sweep: the closed-form trade-off
/// for a single threshold, as answered per query by `bp-serve`.
/// [`blockaware_tradeoff`] builds the sweep from the same cells.
///
/// # Panics
///
/// Panics if `block_interval_secs` is not positive.
pub fn blockaware_tradeoff_one(
    threshold_secs: u64,
    block_interval_secs: f64,
) -> BlockAwareTradeoff {
    assert!(block_interval_secs > 0.0, "block interval must be positive");
    BlockAwareTradeoff {
        threshold_secs,
        detection_delay_secs: threshold_secs,
        false_alarm_rate: (-(threshold_secs as f64) / block_interval_secs).exp(),
    }
}

/// Sweeps BlockAware thresholds — the ablation behind choosing 600 s.
pub fn blockaware_tradeoff(
    thresholds: &[u64],
    block_interval_secs: f64,
) -> Vec<BlockAwareTradeoff> {
    thresholds
        .iter()
        .map(|&t| blockaware_tradeoff_one(t, block_interval_secs))
        .collect()
}

/// Rebuilds a pool census with every pool's stratum servers spread evenly
/// over `hosts` (at most `spread` of them) — the paper's "mining pools
/// should spread stratum servers across various ASes".
///
/// # Panics
///
/// Panics if `spread` is zero or `hosts` is empty.
pub fn diversify_stratum(census: &PoolCensus, hosts: &[Asn], spread: usize) -> PoolCensus {
    assert!(spread > 0, "spread must be positive");
    assert!(!hosts.is_empty(), "need host ASes");
    let pools: Vec<MiningPool> = census
        .pools()
        .iter()
        .enumerate()
        .map(|(i, pool)| {
            let k = spread.min(hosts.len());
            let weight = 1.0 / k as f64;
            let stratum: Vec<StratumServer> = (0..k)
                .map(|j| StratumServer {
                    // Offset per pool so pools do not all share the same
                    // first AS.
                    asn: hosts[(i + j) % hosts.len()],
                    weight,
                })
                .collect();
            // Fix the last weight for exact normalisation.
            let mut stratum = stratum;
            let sum: f64 = stratum.iter().map(|s| s.weight).sum();
            if let Some(last) = stratum.last_mut() {
                last.weight += 1.0 - sum;
            }
            MiningPool::new(pool.name.clone(), pool.hash_share, stratum)
        })
        .collect();
    PoolCensus::from_pools(pools)
}

/// Greedy attacker cost: the minimum number of ASes to hijack to isolate
/// at least `target_share` of the hash rate.
pub fn ases_to_isolate_hash(census: &PoolCensus, target_share: f64) -> usize {
    let mut shares: Vec<(Asn, f64)> = census.hash_share_by_as().into_iter().collect();
    shares.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite shares")
            .then(a.0.cmp(&b.0))
    });
    let mut hijacked: Vec<Asn> = Vec::new();
    for (asn, _) in shares {
        if census.isolated_share(&hijacked) >= target_share {
            break;
        }
        hijacked.push(asn);
    }
    hijacked.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_predicate_boundary() {
        assert!(!blockaware_stale(600, 0, 600));
        assert!(blockaware_stale(601, 0, 600));
        assert!(!blockaware_stale(0, 600, 600)); // clock behind block time
    }

    #[test]
    fn tradeoff_sweep_shapes() {
        let sweep = blockaware_tradeoff(&[300, 600, 1200, 2400], 600.0);
        // Longer thresholds: slower detection, fewer false alarms.
        for pair in sweep.windows(2) {
            assert!(pair[0].detection_delay_secs < pair[1].detection_delay_secs);
            assert!(pair[0].false_alarm_rate > pair[1].false_alarm_rate);
        }
        // At exactly one block interval the false alarm rate is 1/e.
        assert!((sweep[1].false_alarm_rate - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn diversification_raises_attacker_cost() {
        let census = PoolCensus::paper_table_iv();
        let before = ases_to_isolate_hash(&census, 0.5);
        // Spread every pool over 8 hosting ASes.
        let hosts: Vec<Asn> = [
            24940u32, 16276, 37963, 16509, 14061, 7922, 4134, 51167, 45102, 58563,
        ]
        .into_iter()
        .map(Asn)
        .collect();
        let diversified = diversify_stratum(&census, &hosts, 8);
        let after = ases_to_isolate_hash(&diversified, 0.5);
        assert!(
            after > before,
            "diversification did not raise cost: {before} -> {after}"
        );
        // Hash shares are preserved.
        assert!((diversified.total_share() - census.total_share()).abs() < 1e-9);
    }

    #[test]
    fn concentrated_census_is_cheap_to_attack() {
        let census = PoolCensus::paper_table_iv();
        // AS45102 alone sees >50 %, so one AS suffices.
        assert_eq!(ases_to_isolate_hash(&census, 0.5), 1);
        assert_eq!(ases_to_isolate_hash(&census, 0.0), 0);
    }

    #[test]
    fn tradeoff_cells_match_the_sweep() {
        // A single-threshold cell (what bp-serve answers per query) must
        // agree with the sweep's row for that threshold bit for bit.
        let thresholds = [150u64, 300, 600, 1200];
        let sweep = blockaware_tradeoff(&thresholds, 600.0);
        for (i, &t) in thresholds.iter().enumerate() {
            assert_eq!(sweep[i], blockaware_tradeoff_one(t, 600.0));
        }
    }

    #[test]
    #[should_panic(expected = "spread must be positive")]
    fn zero_spread_rejected() {
        let census = PoolCensus::paper_table_iv();
        let _ = diversify_stratum(&census, &[Asn(1)], 0);
    }
}
