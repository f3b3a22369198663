//! Spatial partitioning (paper §V-A).
//!
//! Three layers, matching the paper's analysis:
//!
//! 1. **Centralization measurement** — how few ASes/organizations host a
//!    given share of nodes (Figure 3, Table III vs. the 2017 baseline of
//!    Apostolaki et al., the "classical attack").
//! 2. **Prefix-level hijack planning** — via [`bp_bgp::HijackIndex`]
//!    (Figure 4).
//! 3. **Executed eclipse** — imposing the hijack as a partition on the
//!    live network simulation and measuring divergence, including
//!    hash-power isolation (Table IV implications).

use bp_analysis::centralization::{centralization_change, smallest_cover};
use bp_bgp::HijackIndex;
use bp_mining::PoolCensus;
use bp_net::Simulation;
use bp_topology::{Asn, Country, Snapshot};
use std::collections::HashSet;

/// The 2017 baseline from Apostolaki et al. (the paper's Table III
/// comparison): 13 ASes hosted 30 % of nodes, 50 ASes hosted 50 %.
pub const BASELINE_2017_ASES_30: usize = 13;
/// See [`BASELINE_2017_ASES_30`].
pub const BASELINE_2017_ASES_50: usize = 50;

/// Centralization measurement of a snapshot (Figure 3 / Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentralizationReport {
    /// ASes hosting 30 % of nodes (paper 2018: 8).
    pub ases_30: usize,
    /// ASes hosting 50 % of nodes (paper 2018: 24).
    pub ases_50: usize,
    /// Organizations hosting 30 % (paper: 8).
    pub orgs_30: usize,
    /// Organizations hosting 50 % (paper: 13–21).
    pub orgs_50: usize,
    /// Table III change metric vs. the 2017 AS baseline, for the 30 %
    /// cover.
    pub change_30_pct: f64,
    /// … for the 50 % cover (paper: 52 %).
    pub change_50_pct: f64,
}

/// Measures centralization of a snapshot and compares against the 2017
/// classical-attack baseline.
///
/// # Examples
///
/// ```
/// use bp_attacks::spatial::centralization;
/// use bp_topology::{Snapshot, SnapshotConfig};
///
/// let snapshot = Snapshot::generate(SnapshotConfig::test_small());
/// let report = centralization(&snapshot);
/// assert!(report.ases_30 <= report.ases_50);
/// assert!(report.change_50_pct > 0.0); // centralized vs 2017
/// ```
pub fn centralization(snapshot: &Snapshot) -> CentralizationReport {
    let as_weights = snapshot.as_weights();
    let org_weights = snapshot.org_weights();
    let ases_30 = smallest_cover(&as_weights, 0.30);
    let ases_50 = smallest_cover(&as_weights, 0.50);
    CentralizationReport {
        ases_30,
        ases_50,
        orgs_30: smallest_cover(&org_weights, 0.30),
        orgs_50: smallest_cover(&org_weights, 0.50),
        change_30_pct: centralization_change(BASELINE_2017_ASES_30, ases_30),
        change_50_pct: centralization_change(BASELINE_2017_ASES_50, ases_50),
    }
}

/// The classical (Apostolaki) attack baseline: hijack whole ASes in
/// descending size order. Returns `(ases hijacked, fraction of nodes
/// isolated)` pairs — coarser and costlier than the paper's prefix-level
/// refinement.
pub fn classical_attack_curve(snapshot: &Snapshot, max_ases: usize) -> Vec<(usize, f64)> {
    let per_as = snapshot.nodes_per_as();
    let total: usize = per_as.iter().map(|(_, n)| n).sum();
    let mut acc = 0usize;
    per_as
        .iter()
        .take(max_ases)
        .enumerate()
        .map(|(i, (_, n))| {
            acc += n;
            (i + 1, acc as f64 / total as f64)
        })
        .collect()
}

/// Result of an executed AS eclipse on the live simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct EclipseReport {
    /// The victim AS.
    pub victim: Asn,
    /// Prefixes hijacked.
    pub prefixes_hijacked: usize,
    /// Sim nodes isolated.
    pub isolated: usize,
    /// Fraction of the whole network isolated.
    pub network_fraction: f64,
    /// Blocks the isolated side fell behind during the eclipse.
    pub victim_lag_blocks: u64,
    /// Hash share isolated along with the AS (its stratum servers).
    pub isolated_hash_share: f64,
    /// Node-level transaction reversals caused by the eclipse (victims
    /// whose confirmed transactions vanished in the heal-time reorg) —
    /// the paper's double-spend implication.
    pub reversed_tx_events: u64,
}

/// Hijacks the top `prefixes` of `victim`, as ranked by `hijacks`, and
/// imposes the cut on the simulation for `duration_secs`, measuring the
/// divergence.
pub fn eclipse_as(
    sim: &mut Simulation,
    hijacks: &HijackIndex,
    census: &PoolCensus,
    victim: Asn,
    prefixes: usize,
    duration_secs: u64,
) -> EclipseReport {
    let outcome = hijacks.hijack_top_prefixes(victim, prefixes);
    let captured: HashSet<_> = outcome.isolated_nodes.iter().copied().collect();

    // Map topology ids to sim indices.
    let victim_sims: HashSet<u32> = (0..sim.node_count() as u32)
        .filter(|&i| captured.contains(&sim.topology_id(i)))
        .collect();
    let isolated = victim_sims.len();

    // Sorted so the workload below is independent of HashSet
    // iteration order — eclipse reports must be deterministic.
    let mut victim_list: Vec<u32> = victim_sims.iter().copied().collect();
    victim_list.sort_unstable();
    let assign = move |i: u32| u32::from(victim_sims.contains(&i));
    sim.set_partition(assign);

    // A background transaction workload: users on both sides keep
    // spending — including double-spend pairs straddling the cut, the
    // scenario the paper's implications describe.
    let reversals_before = sim.node_reversals_total();
    let steps = (duration_secs / 600).max(1);
    for step in 0..steps {
        if let Some(&victim_node) = victim_list.get(step as usize % victim_list.len().max(1)) {
            let group = 1_000 + step;
            // One honest spend confirmed inside the eclipse…
            let _ = sim.submit_tx(victim_node, group);
            // …and its conflicting double on the outside.
            let outside = (0..sim.node_count() as u32)
                .find(|i| !victim_list.contains(i))
                .unwrap_or(0);
            let _ = sim.submit_tx(outside, group);
        }
        sim.run_for_secs(600);
    }

    // Victim-side lag: max over isolated nodes of blocks behind.
    let lags = sim.lags();
    let victim_lag_blocks = (0..sim.node_count() as u32)
        .filter(|&i| captured.contains(&sim.topology_id(i)))
        .map(|i| lags[i as usize])
        .max()
        .unwrap_or(0);

    sim.clear_partition();
    // Let the heal-time reorg play out so reversals are observed.
    sim.run_for_secs(2 * 600);
    let reversed_tx_events = sim.node_reversals_total() - reversals_before;

    EclipseReport {
        victim,
        prefixes_hijacked: outcome.prefixes_hijacked,
        isolated,
        network_fraction: isolated as f64 / sim.node_count().max(1) as f64,
        victim_lag_blocks,
        isolated_hash_share: census.isolated_share(&[victim]),
        reversed_tx_events,
    }
}

/// Result of a nation-state partition (paper §III: "a nation-state can
/// partition the network by blocking the flow of traffic through its
/// ASes and organizations … If China, for example, decides to ban
/// Bitcoin, it will have a significant impact").
#[derive(Debug, Clone, PartialEq)]
pub struct NationStateReport {
    /// The banning jurisdiction.
    pub country: Country,
    /// ASes whose traffic is cut.
    pub ases_cut: usize,
    /// Nodes inside the jurisdiction (cut off).
    pub nodes_cut: usize,
    /// Fraction of the whole network cut.
    pub node_fraction: f64,
    /// Hash rate whose stratum servers sit inside the jurisdiction.
    pub hash_share_cut: f64,
    /// Blocks mined by the *outside* world during the ban window.
    pub outside_blocks: u64,
    /// Maximum lag the inside nodes accumulated during the ban.
    pub inside_max_lag: u64,
}

/// Executes a national ban: every AS registered in `country` is
/// partitioned off for `duration_secs` and both sides are measured.
pub fn nation_state_ban(
    sim: &mut Simulation,
    snapshot: &Snapshot,
    census: &PoolCensus,
    country: Country,
    duration_secs: u64,
) -> NationStateReport {
    let ases = snapshot.registry.ases_in(country);
    let as_set: HashSet<Asn> = ases.iter().copied().collect();
    let inside: HashSet<u32> = (0..sim.node_count() as u32)
        .filter(|&i| as_set.contains(&snapshot.node(sim.topology_id(i)).asn))
        .collect();
    let nodes_cut = inside.len();
    let hash_share_cut = census.isolated_share(&ases);

    let blocks_before = sim.stats().blocks_mined;
    let inside_clone = inside.clone();
    sim.set_partition(move |i| u32::from(inside_clone.contains(&i)));
    sim.run_for_secs(duration_secs);

    let lags = sim.lags();
    let inside_max_lag = inside.iter().map(|&i| lags[i as usize]).max().unwrap_or(0);
    sim.clear_partition();

    NationStateReport {
        country,
        ases_cut: ases.len(),
        nodes_cut,
        node_fraction: nodes_cut as f64 / sim.node_count().max(1) as f64,
        hash_share_cut,
        outside_blocks: sim.stats().blocks_mined - blocks_before,
        inside_max_lag,
    }
}

/// The eclipse cascade of §V-A: "the attacker does not have to isolate
/// all nodes by hijacking all BGP prefixes in an AS. Isolating a major
/// subset of nodes can eclipse the entire AS."
///
/// After hijacking the victim AS's top `prefixes`, this measures how the
/// *remaining* (un-hijacked) nodes of that AS are degraded: a node whose
/// peers are mostly inside the hijacked set has effectively lost its
/// connectivity even though its own prefix was never announced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeReport {
    /// Nodes directly isolated by the prefix hijacks.
    pub directly_isolated: usize,
    /// Remaining victim-AS nodes (not directly hijacked).
    pub remainder: usize,
    /// Remainder nodes that lost at least half their peers.
    pub degraded: usize,
    /// Remainder nodes that lost *all* their peers — fully eclipsed
    /// without their prefix being touched.
    pub fully_eclipsed: usize,
    /// Mean fraction of peers lost across the remainder.
    pub mean_peer_loss: f64,
}

/// Computes the eclipse cascade for a hijack of the top `prefixes` of
/// `victim`, as ranked by `hijacks`.
pub fn eclipse_cascade(
    sim: &Simulation,
    snapshot: &Snapshot,
    hijacks: &HijackIndex,
    victim: Asn,
    prefixes: usize,
) -> CascadeReport {
    let outcome = hijacks.hijack_top_prefixes(victim, prefixes);
    let hijacked_topo: HashSet<_> = outcome.isolated_nodes.iter().copied().collect();

    // Map to sim indices.
    let hijacked_sim: HashSet<u32> = (0..sim.node_count() as u32)
        .filter(|&i| hijacked_topo.contains(&sim.topology_id(i)))
        .collect();
    let remainder_sim: Vec<u32> = (0..sim.node_count() as u32)
        .filter(|&i| !hijacked_sim.contains(&i) && snapshot.node(sim.topology_id(i)).asn == victim)
        .collect();

    let mut degraded = 0usize;
    let mut fully_eclipsed = 0usize;
    let mut loss_sum = 0.0;
    for &node in &remainder_sim {
        let peers = sim.peers_of(node);
        if peers.is_empty() {
            continue;
        }
        let lost = peers.iter().filter(|p| hijacked_sim.contains(p)).count();
        let frac = lost as f64 / peers.len() as f64;
        loss_sum += frac;
        if frac >= 0.5 {
            degraded += 1;
        }
        if lost == peers.len() {
            fully_eclipsed += 1;
        }
    }

    CascadeReport {
        directly_isolated: hijacked_sim.len(),
        remainder: remainder_sim.len(),
        degraded,
        fully_eclipsed,
        mean_peer_loss: if remainder_sim.is_empty() {
            0.0
        } else {
            loss_sum / remainder_sim.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_net::NetConfig;
    use bp_topology::SnapshotConfig;

    fn snap() -> Snapshot {
        Snapshot::generate(SnapshotConfig::test_small())
    }

    #[test]
    fn centralization_matches_paper_shape() {
        let report = centralization(&snap());
        assert!(report.ases_30 <= report.ases_50);
        assert!(report.orgs_30 <= report.ases_30 + 2);
        // The network centralized vs 2017 — positive change, ~50 % for
        // the 50 % cover (paper: 52 %).
        assert!(report.change_50_pct > 20.0, "{report:?}");
        assert!(report.change_30_pct > 0.0, "{report:?}");
    }

    #[test]
    fn classical_curve_is_monotone() {
        let curve = classical_attack_curve(&snap(), 30);
        assert_eq!(curve.len(), 30);
        for pair in curve.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        // Top-10 ASes hold well over 30 % (Table II).
        assert!(curve[9].1 > 0.3);
    }

    #[test]
    fn three_alibaba_ases_isolate_majority_hash() {
        let census = PoolCensus::paper_table_iv();
        let share = census.isolated_share(&[Asn(45102), Asn(37963), Asn(58563)]);
        assert!(share > 0.60, "isolated {share}");
    }

    #[test]
    fn china_ban_cuts_majority_hash_power() {
        let snapshot = Snapshot::generate(SnapshotConfig {
            scale: 0.05,
            tail_as_count: 60,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        });
        let census = PoolCensus::paper_table_iv();
        let mut sim = Simulation::new(&snapshot, &census, NetConfig::fast_test());
        sim.run_for_secs(1200);
        let report = nation_state_ban(&mut sim, &snapshot, &census, Country::China, 4 * 600);
        // Paper: "60% of the mining traffic goes through China".
        assert!(report.hash_share_cut >= 0.60, "{report:?}");
        assert!(report.nodes_cut > 0);
        assert!(
            report.node_fraction < 0.5,
            "China hosts a minority of nodes"
        );
        // The outside world keeps mining, leaving the inside behind.
        assert!(report.outside_blocks > 0);
        assert!(report.inside_max_lag >= 1, "{report:?}");
    }

    #[test]
    fn cascade_grows_with_hijacked_prefixes() {
        let snapshot = Snapshot::generate(SnapshotConfig {
            scale: 0.1,
            tail_as_count: 80,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        });
        let census = PoolCensus::paper_table_iv();
        let sim = Simulation::new(&snapshot, &census, NetConfig::fast_test());
        let hijacks = HijackIndex::new(&snapshot);
        let small = eclipse_cascade(&sim, &snapshot, &hijacks, Asn(24940), 5);
        let large = eclipse_cascade(&sim, &snapshot, &hijacks, Asn(24940), 30);
        assert!(large.directly_isolated > small.directly_isolated);
        // Peers are chosen uniformly across the network, so intra-AS peer
        // loss is small but must be consistent and bounded.
        assert!((0.0..=1.0).contains(&small.mean_peer_loss));
        assert!(small.degraded <= small.remainder);
        assert!(large.fully_eclipsed <= large.degraded || large.degraded == 0);
    }

    #[test]
    fn eclipse_isolates_and_lags_the_victim_as() {
        let snapshot = Snapshot::generate(SnapshotConfig {
            scale: 0.05,
            tail_as_count: 60,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        });
        let census = PoolCensus::paper_table_iv();
        let mut sim = Simulation::new(&snapshot, &census, NetConfig::fast_test());
        sim.run_for_secs(1200);
        let hijacks = HijackIndex::new(&snapshot);
        let report = eclipse_as(&mut sim, &hijacks, &census, Asn(24940), 51, 6 * 600);
        assert!(report.isolated > 10, "only {} isolated", report.isolated);
        assert!(report.network_fraction > 0.03);
        // Hetzner hosts no stratum servers of the top-5 pools but does
        // host a minor pool in our census.
        assert!(report.isolated_hash_share > 0.0);
        // The cut-off AS missed blocks mined outside.
        assert!(
            report.victim_lag_blocks >= 1,
            "victim never fell behind: {report:?}"
        );
    }
}
