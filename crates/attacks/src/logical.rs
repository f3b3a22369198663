//! Logical partitioning (paper §V-D, Table VIII).
//!
//! Bitcoin's peer "democracy" runs 288 client variants; only ≈36 % of
//! nodes run the newest Bitcoin Core. The paper mapped client versions to
//! the National Vulnerability Database and found 36 reported CVEs —
//! CVE-2018-17144 (a remote DoS via duplicate inputs) "can be found in
//! all client versions, which puts the entire network at risk". This
//! module embeds the named CVEs with real metadata, fills the census to
//! the paper's count of 36 with synthetic entries (flagged as such), and
//! measures what exploiting one does to the network.

use bp_net::Simulation;
use bp_topology::{Snapshot, VersionCensus};
use std::collections::HashSet;

/// Which versions a vulnerability affects.
#[derive(Debug, Clone, PartialEq)]
pub enum Affects {
    /// Every Bitcoin Core derivative (e.g. CVE-2018-17144).
    AllCore,
    /// Core derivatives released before a day index.
    CoreBefore(u32),
    /// Non-Core (independent) clients only.
    NonCore,
    /// A fraction of the census sampled deterministically by index —
    /// used for the synthetic filler entries.
    EveryNth(u32),
}

/// One vulnerability record.
#[derive(Debug, Clone, PartialEq)]
pub struct Vulnerability {
    /// CVE identifier.
    pub id: String,
    /// CVSS base severity.
    pub cvss: f64,
    /// Short description.
    pub description: String,
    /// Affected versions.
    pub affects: Affects,
    /// `false` for the real, named CVEs from the paper; `true` for the
    /// synthetic filler that pads the census to the paper's count of 36.
    pub synthetic: bool,
}

/// The vulnerability census (NVD stand-in).
#[derive(Debug, Clone, PartialEq)]
pub struct NvdCensus {
    entries: Vec<Vulnerability>,
}

impl NvdCensus {
    /// The census the paper describes: the four named CVEs plus
    /// synthetic filler up to 36 records.
    pub fn paper() -> Self {
        let mut entries = vec![
            Vulnerability {
                id: "CVE-2018-17144".into(),
                cvss: 7.5,
                description: "remote denial of service via duplicate inputs".into(),
                affects: Affects::AllCore,
                synthetic: false,
            },
            Vulnerability {
                id: "CVE-2017-9230".into(),
                cvss: 7.5,
                description: "proof-of-work difficulty bypass claim".into(),
                affects: Affects::AllCore,
                synthetic: false,
            },
            Vulnerability {
                id: "CVE-2013-5700".into(),
                cvss: 5.0,
                description: "remote crash via bloom filter on prefilled data".into(),
                // Fixed long before the census window: affects only
                // ancient releases.
                affects: Affects::CoreBefore(1700),
                synthetic: false,
            },
            Vulnerability {
                id: "CVE-2013-4627".into(),
                cvss: 5.0,
                description: "memory exhaustion via tx message stuffing".into(),
                affects: Affects::CoreBefore(1700),
                synthetic: false,
            },
        ];
        for i in 0..32u32 {
            entries.push(Vulnerability {
                id: format!("SYN-{:04}", i + 1),
                cvss: 3.0 + (i % 5) as f64,
                description: "synthetic filler vulnerability (census padding)".into(),
                affects: Affects::EveryNth(7 + i % 11),
                synthetic: true,
            });
        }
        Self { entries }
    }

    /// All records.
    pub fn entries(&self) -> &[Vulnerability] {
        &self.entries
    }

    /// Number of records (36 for the paper census).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the census is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a CVE by id.
    pub fn get(&self, id: &str) -> Option<&Vulnerability> {
        self.entries.iter().find(|v| v.id == id)
    }
}

/// Whether `vuln` affects the census version at `version_idx`.
pub fn version_affected(census: &VersionCensus, version_idx: u32, vuln: &Vulnerability) -> bool {
    let Some(version) = census.get(version_idx) else {
        return false;
    };
    match &vuln.affects {
        Affects::AllCore => version.is_core,
        Affects::CoreBefore(day) => version.is_core && version.release_day < *day,
        Affects::NonCore => !version.is_core,
        Affects::EveryNth(n) => version_idx.is_multiple_of(*n),
    }
}

/// The share of nodes running versions affected by `vuln` — weighting by
/// census share, independent of any snapshot.
pub fn affected_share(census: &VersionCensus, vuln: &Vulnerability) -> f64 {
    let share: f64 = census
        .versions()
        .iter()
        .enumerate()
        .filter(|(i, _)| version_affected(census, *i as u32, vuln))
        .map(|(_, v)| v.share)
        .sum();
    // Clamp floating-point residue (e.g. -1e-17 from share normalisation)
    // so zero-exposure CVEs render as 0.00 %, not -0.00 %. The empty sum
    // is -0.0, and `f64::max` may return either zero when the two
    // compare equal, so the clamp is a comparison, not `max`.
    if share > 0.0 {
        share
    } else {
        0.0
    }
}

/// Result of exploiting a vulnerability against the live network.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalAttackReport {
    /// The exploited CVE.
    pub cve: String,
    /// Sim nodes crashed (running an affected version).
    pub crashed: usize,
    /// Fraction of the network crashed.
    pub crashed_fraction: f64,
    /// Mean lag of the surviving nodes after the attack window.
    pub survivor_mean_lag: f64,
}

/// Exploits `vuln` on the simulation: every node running an affected
/// version crashes (is partitioned off as dead) for `duration_secs`, and
/// the survivors' consensus health is measured.
pub fn exploit(
    sim: &mut Simulation,
    snapshot: &Snapshot,
    vuln: &Vulnerability,
    duration_secs: u64,
) -> LogicalAttackReport {
    let census = &snapshot.versions;
    let crashed: HashSet<u32> = (0..sim.node_count() as u32)
        .filter(|&i| {
            let profile = snapshot.node(sim.topology_id(i));
            version_affected(census, profile.version_idx, vuln)
        })
        .collect();
    let crashed_count = crashed.len();

    let crashed_clone = crashed.clone();
    sim.set_partition(move |i| if crashed_clone.contains(&i) { 9 } else { 0 });
    sim.run_for_secs(duration_secs);

    let lags = sim.lags();
    let survivors: Vec<u64> = (0..sim.node_count() as u32)
        .filter(|i| !crashed.contains(i))
        .map(|i| lags[i as usize])
        .collect();
    let survivor_mean_lag = if survivors.is_empty() {
        0.0
    } else {
        survivors.iter().sum::<u64>() as f64 / survivors.len() as f64
    };

    sim.clear_partition();

    LogicalAttackReport {
        cve: vuln.id.clone(),
        crashed: crashed_count,
        crashed_fraction: crashed_count as f64 / sim.node_count().max(1) as f64,
        survivor_mean_lag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_mining::PoolCensus;
    use bp_net::NetConfig;
    use bp_topology::SnapshotConfig;

    #[test]
    fn census_has_36_records_with_named_cves() {
        let nvd = NvdCensus::paper();
        assert_eq!(nvd.len(), 36);
        for id in [
            "CVE-2018-17144",
            "CVE-2017-9230",
            "CVE-2013-5700",
            "CVE-2013-4627",
        ] {
            let v = nvd.get(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(!v.synthetic);
        }
        assert_eq!(nvd.entries().iter().filter(|v| v.synthetic).count(), 32);
    }

    #[test]
    fn duplicate_inputs_cve_hits_most_of_the_network() {
        let census = VersionCensus::paper_table_viii();
        let nvd = NvdCensus::paper();
        let share = affected_share(&census, nvd.get("CVE-2018-17144").unwrap());
        // All Core derivatives: the Table VIII top-5 alone are 75.5 %.
        assert!(share > 0.70, "affected share {share}");
    }

    #[test]
    fn ancient_cve_affects_almost_nobody() {
        let census = VersionCensus::paper_table_viii();
        let nvd = NvdCensus::paper();
        let share = affected_share(&census, nvd.get("CVE-2013-5700").unwrap());
        assert!(share < 0.05, "affected share {share}");
    }

    #[test]
    fn unaffected_cves_have_a_positive_zero_share() {
        // Neither CVE matches a Table VIII version, so the share is an
        // empty sum (-0.0) and must clamp to +0.0 in every build profile.
        let census = VersionCensus::paper_table_viii();
        let nvd = NvdCensus::paper();
        for id in ["CVE-2013-5700", "CVE-2013-4627"] {
            let share = affected_share(&census, nvd.get(id).unwrap());
            assert_eq!(share, 0.0, "{id}");
            assert!(share.is_sign_positive(), "{id} share is -0.0");
        }
    }

    #[test]
    fn version_affected_dispatches_predicates() {
        let census = VersionCensus::paper_table_viii();
        let all_core = Vulnerability {
            id: "x".into(),
            cvss: 5.0,
            description: String::new(),
            affects: Affects::AllCore,
            synthetic: true,
        };
        // Index 0 is Bitcoin Core v0.16.0.
        assert!(version_affected(&census, 0, &all_core));
        let non_core = Vulnerability {
            affects: Affects::NonCore,
            ..all_core.clone()
        };
        assert!(!version_affected(&census, 0, &non_core));
        // Out-of-range indices are unaffected.
        assert!(!version_affected(&census, 9999, &all_core));
    }

    #[test]
    fn exploiting_the_universal_dos_cripples_the_network() {
        let snap = Snapshot::generate(SnapshotConfig {
            scale: 0.03,
            tail_as_count: 40,
            version_tail: 20,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        });
        let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), NetConfig::fast_test());
        sim.run_for_secs(1200);
        let nvd = NvdCensus::paper();
        let report = exploit(&mut sim, &snap, nvd.get("CVE-2018-17144").unwrap(), 2 * 600);
        assert!(
            report.crashed_fraction > 0.5,
            "crashed only {}",
            report.crashed_fraction
        );
        assert_eq!(report.cve, "CVE-2018-17144");
    }
}
