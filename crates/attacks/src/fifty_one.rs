//! The 51 % attack enabled by spatial partitioning (paper §V-A,
//! Implications): "By isolating a majority of the network's hash power,
//! the attacker can launch the 51% attack on Bitcoin which will grant him
//! a permanent control over the blockchain."
//!
//! The scenario: the attacker hijacks the ASes hosting a majority of the
//! stratum servers (the AliBaba sphere of Table IV holds 65.7 %). The
//! isolated pools keep mining — for the attacker. The honest remainder
//! mines at its reduced rate; the attacker's chain outgrows it and every
//! reveal causes a reorg the honest side cannot prevent.

use bp_analysis::dist::exp_with_mean;
use bp_chain::{BlockId, Hash256};
use bp_mining::PoolCensus;
use bp_net::Simulation;
use bp_topology::Asn;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the majority-hash attack.
#[derive(Debug, Clone, PartialEq)]
pub struct FiftyOneConfig {
    /// ASes the attacker hijacks to capture their stratum traffic
    /// (default: the AliBaba sphere).
    pub hijacked_ases: Vec<Asn>,
    /// How long the attacker mines privately before revealing, seconds.
    pub withhold_secs: u64,
    /// Total scenario duration, seconds.
    pub duration_secs: u64,
    /// RNG seed for the attacker's mining process.
    pub seed: u64,
}

impl FiftyOneConfig {
    /// The Table IV scenario: hijack the 3 AliBaba-sphere ASes (65.7 % of
    /// hash), withhold for 3 block intervals, run for 10.
    pub fn paper() -> Self {
        Self {
            hijacked_ases: vec![Asn(45102), Asn(37963), Asn(58563)],
            withhold_secs: 3 * 600,
            duration_secs: 10 * 600,
            seed: 51,
        }
    }
}

impl Default for FiftyOneConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of the majority-hash attack.
#[derive(Debug, Clone, PartialEq)]
pub struct FiftyOneReport {
    /// Hash share the hijack diverted to the attacker.
    pub captured_hash: f64,
    /// Blocks the attacker mined privately + publicly.
    pub attacker_blocks: u64,
    /// Honest blocks mined over the same period.
    pub honest_blocks: u64,
    /// Fraction of nodes whose active chain includes the attacker's
    /// revealed blocks at the end.
    pub network_captured: f64,
    /// Depth of the reorg the first reveal caused (0 if the reveal never
    /// overtook the honest chain).
    pub reveal_reorg_depth: u64,
}

/// Runs the 51 % scenario against a live simulation.
///
/// The victim pools' hash is modelled as mining for the attacker: the
/// attacker's private chain advances at `captured_hash` of the global
/// rate while the honest side is slowed to the remaining share.
pub fn run_fifty_one(
    sim: &mut Simulation,
    census: &PoolCensus,
    config: FiftyOneConfig,
) -> FiftyOneReport {
    let captured_hash = census.isolated_share(&config.hijacked_ases);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // The captured pools now mine for the attacker: the honest side keeps
    // only the remainder.
    let honest_share = (1.0 - captured_hash).max(0.01);
    sim.scale_hash_rate(honest_share);

    let fork_parent: BlockId = {
        // The attacker forks from the best tip it can see.
        let best = (0..sim.node_count() as u32)
            .max_by_key(|&i| sim.height_of(i))
            .expect("non-empty network");
        sim.tip_of(best)
    };
    let honest_before = sim.stats().blocks_mined;

    let mean_interval = 600.0 / captured_hash.max(f64::MIN_POSITIVE);
    let mut attacker_tip = fork_parent;
    let mut attacker_blocks = 0u64;
    let mut next_block_in = exp_with_mean(&mut rng, mean_interval);
    let mut revealed = false;
    let mut reveal_reorg_depth = 0u64;

    let mut elapsed = 0u64;
    while elapsed < config.duration_secs {
        let step = 60u64.min(config.duration_secs - elapsed);
        sim.run_for_secs(step);
        elapsed += step;

        next_block_in -= step as f64;
        while next_block_in <= 0.0 {
            attacker_tip = sim.mine_counterfeit(attacker_tip);
            attacker_blocks += 1;
            next_block_in += exp_with_mean(&mut rng, mean_interval);
        }

        // Reveal: broadcast the private chain to everyone once the
        // withholding period ends (and on every extension after that).
        if elapsed >= config.withhold_secs && attacker_blocks > 0 {
            if !revealed {
                revealed = true;
                let attacker_height = sim
                    .index()
                    .get(&attacker_tip)
                    .map(|m| m.height.0)
                    .unwrap_or(0);
                reveal_reorg_depth = sim
                    .network_best()
                    .0
                    .saturating_sub(height_of_fork_point(sim, fork_parent));
                if attacker_height <= sim.network_best().0 {
                    reveal_reorg_depth = 0;
                }
            }
            for node in 0..sim.node_count() as u32 {
                sim.push_chain(node, attacker_tip);
            }
            sim.run_for_secs(1);
        }
    }

    // Restore the full honest rate for whatever runs after the scenario.
    sim.scale_hash_rate(1.0 / honest_share);
    let honest_blocks = sim.stats().blocks_mined - honest_before - attacker_blocks;
    // A node is captured when the attacker's revealed chain is part of
    // its active chain — after a successful 51 % rewrite honest miners
    // extend the attacker's blocks, so checking the tip flag alone would
    // under-count ("permanent control over the blockchain").
    let captured = if attacker_blocks == 0 {
        // The attacker never mined: attacker_tip is still the honest fork
        // parent, which is trivially everyone's ancestor.
        0
    } else {
        (0..sim.node_count() as u32)
            .filter(|&i| {
                sim.index().is_ancestor(&attacker_tip, &sim.tip_of(i))
                    || sim.tip_of(i) == attacker_tip
            })
            .count()
    };

    FiftyOneReport {
        captured_hash,
        attacker_blocks,
        honest_blocks,
        network_captured: captured as f64 / sim.node_count().max(1) as f64,
        reveal_reorg_depth,
    }
}

fn height_of_fork_point(sim: &Simulation, fork_parent: BlockId) -> u64 {
    if fork_parent == Hash256::ZERO {
        return 0;
    }
    sim.index()
        .get(&fork_parent)
        .map(|m| m.height.0)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_net::NetConfig;
    use bp_topology::{Snapshot, SnapshotConfig};

    fn sim() -> Simulation {
        let snap = Snapshot::generate(SnapshotConfig {
            scale: 0.03,
            tail_as_count: 40,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        });
        let mut s = Simulation::new(&snap, &PoolCensus::paper_table_iv(), NetConfig::fast_test());
        s.run_for_secs(2 * 600);
        s
    }

    #[test]
    fn majority_hash_takes_over_the_network() {
        // A 66 % attacker wins most ten-interval races, not every one: in
        // about one world in twenty the honest third finds more blocks
        // than the attacker (8 against 6 at `fast_test`'s seed). So the
        // claim is checked over eight worlds: the attacker out-mines the
        // honest side overall and captures the network in most of them.
        let snap = Snapshot::generate(SnapshotConfig {
            scale: 0.03,
            tail_as_count: 40,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        });
        let census = PoolCensus::paper_table_iv();
        let reports: Vec<FiftyOneReport> = (0..8u64)
            .map(|seed| {
                let config = NetConfig {
                    seed,
                    ..NetConfig::fast_test()
                };
                let mut s = Simulation::new(&snap, &census, config);
                s.run_for_secs(2 * 600);
                run_fifty_one(&mut s, &census, FiftyOneConfig::paper())
            })
            .collect();
        for report in &reports {
            assert!(report.captured_hash > 0.60);
            assert!(report.attacker_blocks > 0);
        }
        let attacker: u64 = reports.iter().map(|r| r.attacker_blocks).sum();
        let honest: u64 = reports.iter().map(|r| r.honest_blocks).sum();
        assert!(attacker > honest, "attacker {attacker} vs honest {honest}");
        let captured = reports.iter().filter(|r| r.network_captured > 0.8).count();
        assert!(
            captured >= 6,
            "attacker captured the network in only {captured} of 8 worlds: {:?}",
            reports
                .iter()
                .map(|r| r.network_captured)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn minority_hash_fails_to_take_over() {
        let mut s = sim();
        let census = PoolCensus::paper_table_iv();
        // Only Chinanet Hubei: ~3.2% of hash.
        let report = run_fifty_one(
            &mut s,
            &census,
            FiftyOneConfig {
                hijacked_ases: vec![Asn(58563)],
                ..FiftyOneConfig::paper()
            },
        );
        assert!(report.captured_hash < 0.1);
        assert!(
            report.network_captured < 0.2,
            "minority attacker captured {:.2}",
            report.network_captured
        );
        // The honest majority out-mines the attacker.
        assert!(report.honest_blocks > report.attacker_blocks);
    }
}
