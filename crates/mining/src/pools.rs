//! Mining pools and stratum servers (paper Table IV).
//!
//! Pools coordinate miners through the Stratum protocol; each pool
//! publishes stratum server addresses, and "if the link to the stratum
//! server is compromised, the mining pool gets disconnected and its
//! aggregate hash rate decreases" (§V-A). The paper traced the top-5
//! pools' stratum servers to their hosting ASes and found 65.7 % of the
//! hash rate behind three organizations, with AliBaba seeing ≥ 60 %.

use bp_topology::{Asn, Country, Registry};
use std::collections::HashMap;

/// A stratum server endpoint: which AS hosts it and what share of the
/// pool's hash rate reports to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratumServer {
    /// Hosting AS.
    pub asn: Asn,
    /// Fraction of the pool's hash rate served here (sums to 1 per pool).
    pub weight: f64,
}

/// A mining pool.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningPool {
    /// Pool name as in Table IV.
    pub name: String,
    /// Fraction of the global hash rate.
    pub hash_share: f64,
    /// Stratum servers, with intra-pool weights.
    pub stratum: Vec<StratumServer>,
}

impl MiningPool {
    /// Creates a pool.
    ///
    /// # Panics
    ///
    /// Panics if `hash_share` is outside `[0, 1]`, `stratum` is empty, or
    /// the stratum weights do not sum to 1 (±1e-9).
    pub fn new(name: impl Into<String>, hash_share: f64, stratum: Vec<StratumServer>) -> Self {
        assert!(
            (0.0..=1.0).contains(&hash_share),
            "hash share must lie in [0, 1]"
        );
        assert!(
            !stratum.is_empty(),
            "a pool needs at least one stratum server"
        );
        let total: f64 = stratum.iter().map(|s| s.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "stratum weights must sum to 1, got {total}"
        );
        Self {
            name: name.into(),
            hash_share,
            stratum,
        }
    }
}

/// The pool census: every pool plus the long tail.
///
/// # Examples
///
/// ```
/// use bp_mining::PoolCensus;
/// use bp_topology::Asn;
///
/// let census = PoolCensus::paper_table_iv();
/// // Hijacking the single AS behind most stratum servers already
/// // isolates more than half of the hash rate.
/// assert!(census.isolated_share(&[Asn(45102)]) > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoolCensus {
    pools: Vec<MiningPool>,
}

impl PoolCensus {
    /// The Table IV census: top-5 pools with their measured hash shares
    /// and stratum AS placements, plus "12 others" (34.3 % combined)
    /// modelled as twelve small pools hosted outside the Alibaba sphere.
    pub fn paper_table_iv() -> Self {
        let half = |a: Asn, b: Asn| {
            vec![
                StratumServer {
                    asn: a,
                    weight: 0.5,
                },
                StratumServer {
                    asn: b,
                    weight: 0.5,
                },
            ]
        };
        let single = |a: Asn| {
            vec![StratumServer {
                asn: a,
                weight: 1.0,
            }]
        };
        let mut pools = vec![
            MiningPool::new("BTC.com", 0.25, half(Asn(37963), Asn(45102))),
            MiningPool::new("Antpool", 0.124, single(Asn(45102))),
            MiningPool::new("ViaBTC", 0.117, single(Asn(45102))),
            MiningPool::new("BTC.TOP", 0.103, single(Asn(45102))),
            MiningPool::new("F2Pool", 0.063, half(Asn(45102), Asn(58563))),
        ];
        // The remaining 34.3 % over 12 minor pools, hosted on the large
        // Western hosting ASes from Table II (round-robin).
        let hosts = [
            Asn(24940),
            Asn(16276),
            Asn(16509),
            Asn(14061),
            Asn(7922),
            Asn(4134),
        ];
        let minor_share = 0.343 / 12.0;
        for i in 0..12 {
            pools.push(MiningPool::new(
                format!("minor-{}", i + 1),
                minor_share,
                single(hosts[i % hosts.len()]),
            ));
        }
        Self { pools }
    }

    /// Builds a census from explicit pools.
    ///
    /// # Panics
    ///
    /// Panics if `pools` is empty.
    pub fn from_pools(pools: Vec<MiningPool>) -> Self {
        assert!(!pools.is_empty(), "census requires pools");
        Self { pools }
    }

    /// All pools, largest first.
    pub fn pools(&self) -> &[MiningPool] {
        &self.pools
    }

    /// Number of pools (17 in the paper census).
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// Whether the census has no pools.
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// The `k` largest pools by hash share.
    pub fn top(&self, k: usize) -> Vec<&MiningPool> {
        let mut sorted: Vec<&MiningPool> = self.pools.iter().collect();
        sorted.sort_by(|a, b| {
            b.hash_share
                .partial_cmp(&a.hash_share)
                .expect("finite shares")
        });
        sorted.truncate(k);
        sorted
    }

    /// Total hash share (≈1.0 for a complete census).
    pub fn total_share(&self) -> f64 {
        self.pools.iter().map(|p| p.hash_share).sum()
    }

    /// Hash share visible to each AS, via the stratum servers it hosts —
    /// the quantity an AS-level hijacker isolates.
    pub fn hash_share_by_as(&self) -> HashMap<Asn, f64> {
        let mut shares: HashMap<Asn, f64> = HashMap::new();
        for pool in &self.pools {
            for server in &pool.stratum {
                *shares.entry(server.asn).or_default() += pool.hash_share * server.weight;
            }
        }
        shares
    }

    /// Hash share per organization, resolved through the registry.
    pub fn hash_share_by_org(&self, registry: &Registry) -> HashMap<String, f64> {
        let mut shares: HashMap<String, f64> = HashMap::new();
        for (asn, share) in self.hash_share_by_as() {
            let name = registry
                .org_of(asn)
                .map(|org| registry.org_name(org).to_string())
                .unwrap_or_else(|| format!("{asn}"));
            *shares.entry(name).or_default() += share;
        }
        shares
    }

    /// Hash share per country — the paper's nation-state observation that
    /// "60 % of the mining traffic goes through China".
    pub fn hash_share_by_country(&self, registry: &Registry) -> HashMap<Country, f64> {
        let mut shares: HashMap<Country, f64> = HashMap::new();
        for (asn, share) in self.hash_share_by_as() {
            let country = registry.country_of(asn).unwrap_or(Country::Other);
            *shares.entry(country).or_default() += share;
        }
        shares
    }

    /// Hash share isolated by hijacking the given ASes (the pools whose
    /// stratum servers sit behind them lose the corresponding weight).
    ///
    /// # Examples
    ///
    /// The Table IV implication: three ASes carry most of the hash rate.
    ///
    /// ```
    /// use bp_mining::PoolCensus;
    /// use bp_topology::Asn;
    ///
    /// let census = PoolCensus::paper_table_iv();
    /// let alibaba_sphere = [Asn(45102), Asn(37963), Asn(58563)];
    /// assert!(census.isolated_share(&alibaba_sphere) > 0.60);
    /// ```
    pub fn isolated_share(&self, hijacked: &[Asn]) -> f64 {
        self.pools
            .iter()
            .map(|pool| {
                let lost: f64 = pool
                    .stratum
                    .iter()
                    .filter(|s| hijacked.contains(&s.asn))
                    .map(|s| s.weight)
                    .sum();
                pool.hash_share * lost
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_topology::{Snapshot, SnapshotConfig};

    #[test]
    fn census_totals_one() {
        let c = PoolCensus::paper_table_iv();
        assert_eq!(c.len(), 17);
        assert!((c.total_share() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top5_matches_table_iv() {
        let c = PoolCensus::paper_table_iv();
        let top = c.top(5);
        assert_eq!(top[0].name, "BTC.com");
        assert!((top[0].hash_share - 0.25).abs() < 1e-12);
        assert_eq!(top[4].name, "F2Pool");
        let top5: f64 = top.iter().map(|p| p.hash_share).sum();
        assert!((top5 - 0.657).abs() < 1e-9, "top-5 share {top5}");
    }

    #[test]
    fn three_ases_carry_657_percent() {
        let c = PoolCensus::paper_table_iv();
        let shares = c.hash_share_by_as();
        let alibaba_sphere: f64 = [Asn(45102), Asn(37963), Asn(58563)]
            .iter()
            .map(|a| shares.get(a).copied().unwrap_or(0.0))
            .sum();
        assert!(
            (alibaba_sphere - 0.657).abs() < 1e-9,
            "3-AS share {alibaba_sphere}"
        );
        // AS45102 alone sees > 50 %.
        assert!(shares[&Asn(45102)] > 0.50);
    }

    #[test]
    fn china_sees_most_mining_traffic() {
        let snap = Snapshot::generate(SnapshotConfig::test_small());
        let c = PoolCensus::paper_table_iv();
        let by_country = c.hash_share_by_country(&snap.registry);
        let china = by_country.get(&Country::China).copied().unwrap_or(0.0);
        assert!(china >= 0.60, "China hash share {china}");
    }

    #[test]
    fn alibaba_orgs_combined_see_over_60_percent() {
        let snap = Snapshot::generate(SnapshotConfig::test_small());
        let c = PoolCensus::paper_table_iv();
        let by_org = c.hash_share_by_org(&snap.registry);
        let combined = by_org.get("AliBaba (China)").copied().unwrap_or(0.0)
            + by_org.get("Hangzhou Alibaba").copied().unwrap_or(0.0);
        assert!(combined > 0.60, "AliBaba combined {combined}");
    }

    #[test]
    fn isolating_three_ases_cuts_over_60_percent() {
        let c = PoolCensus::paper_table_iv();
        let isolated = c.isolated_share(&[Asn(45102), Asn(37963), Asn(58563)]);
        assert!(isolated > 0.60, "isolated {isolated}");
        // Hijacking nothing isolates nothing.
        assert_eq!(c.isolated_share(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn stratum_weights_validated() {
        let _ = MiningPool::new(
            "bad",
            0.1,
            vec![StratumServer {
                asn: Asn(1),
                weight: 0.4,
            }],
        );
    }
}
