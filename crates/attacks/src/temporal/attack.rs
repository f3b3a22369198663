//! The executed temporal attack on the event-driven network simulation
//! (paper §V-B, Figure 5).
//!
//! The attacker (a mining pool with ≈30 % of the hash rate): identifies
//! nodes that lag the main chain, connects to them directly, eclipses
//! their honest connections, and feeds them a counterfeit chain mined at
//! its own (slower) rate. "Once a portion of the network is isolated, it
//! can be sustained with successive forks, since the isolated nodes
//! naturally assume that block delays are due to network issues."
//!
//! The same driver optionally runs with the **BlockAware** countermeasure
//! (§VI) enabled: each victim compares its tip's timestamp `t_l` against
//! the current time `t_c` and, when `t_c − t_l` exceeds the threshold
//! (600 s), queries a node outside the attacker's control for the latest
//! block — escaping the partition.

use bp_analysis::dist::exp_with_mean;
use bp_chain::BlockId;
use bp_net::Simulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Temporal-attack parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalAttackConfig {
    /// Attacker's hash share (paper: 0.30).
    pub attacker_hash: f64,
    /// Minimum lag (blocks) for a node to be targeted.
    pub target_min_lag: u64,
    /// Maximum number of victims the attacker connects to.
    pub max_targets: usize,
    /// Attack duration in seconds.
    pub duration_secs: u64,
    /// Whether the attacker eclipses victims (drops their honest links).
    pub eclipse_victims: bool,
    /// BlockAware staleness threshold in seconds; `None` disables the
    /// countermeasure.
    pub blockaware_threshold_secs: Option<u64>,
    /// RNG seed for the attacker's mining process.
    pub seed: u64,
}

impl TemporalAttackConfig {
    /// The paper's scenario: 30 % hash, eclipse on, no countermeasure.
    pub fn paper() -> Self {
        Self {
            attacker_hash: 0.30,
            target_min_lag: 1,
            max_targets: 500,
            duration_secs: 4 * 600,
            eclipse_victims: true,
            blockaware_threshold_secs: None,
            seed: 31,
        }
    }
}

impl Default for TemporalAttackConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of a temporal attack run.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalAttackReport {
    /// Victim sim-node indices targeted.
    pub victims: Vec<u32>,
    /// Per-minute `(sim seconds, victims on the counterfeit chain)`.
    pub capture_timeline: Vec<(u64, usize)>,
    /// Peak simultaneous captures.
    pub captured_peak: usize,
    /// Captures at attack end.
    pub captured_final: usize,
    /// Counterfeit blocks the attacker mined.
    pub counterfeit_blocks: u64,
    /// Victims that escaped via BlockAware resyncs (0 when disabled).
    pub blockaware_escapes: u64,
    /// Seconds after attack end until fewer than 1 % of victims remained
    /// on the counterfeit chain (`None` if they never recovered within
    /// the post-attack observation window).
    pub recovery_secs: Option<u64>,
}

impl TemporalAttackReport {
    /// Peak captured fraction of the targeted set.
    pub fn peak_fraction(&self) -> f64 {
        if self.victims.is_empty() {
            0.0
        } else {
            self.captured_peak as f64 / self.victims.len() as f64
        }
    }
}

/// Runs the temporal attack against a live simulation.
///
/// The simulation should have been running long enough that lags exist
/// (several block intervals).
pub fn run_temporal_attack(
    sim: &mut Simulation,
    config: TemporalAttackConfig,
) -> TemporalAttackReport {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // 1. Target selection: the lagging nodes a crawler would reveal.
    //    Pool gateways are excluded — the temporal adversary is itself a
    //    mining pool targeting ordinary full nodes (§III); eclipsing a
    //    competitor's stratum infrastructure is the *spatial* attack.
    let lags = sim.lags();
    let mut victims: Vec<u32> = lags
        .iter()
        .enumerate()
        .filter(|(i, &lag)| {
            lag >= config.target_min_lag && !sim.is_zombie(*i as u32) && !sim.is_gateway(*i as u32)
        })
        .map(|(i, _)| i as u32)
        .take(config.max_targets)
        .collect();
    victims.sort_unstable();

    if victims.is_empty() {
        return TemporalAttackReport {
            victims,
            capture_timeline: Vec::new(),
            captured_peak: 0,
            captured_final: 0,
            counterfeit_blocks: 0,
            blockaware_escapes: 0,
            recovery_secs: None,
        };
    }

    // 2. Eclipse: victims only hear the attacker (and each other).
    if config.eclipse_victims {
        let victim_set: std::collections::HashSet<u32> = victims.iter().copied().collect();
        sim.set_partition(move |i| u32::from(victim_set.contains(&i)));
    }

    // 3. The counterfeit chain forks from the current network tip's
    //    lineage so victims accept it as a longer chain.
    let honest_peers: Vec<u32> = (0..sim.node_count() as u32)
        .filter(|i| !victims.contains(i))
        .collect();
    // Fork from the most advanced honest tip the attacker can observe —
    // a lagging fork parent would never out-height the victims.
    let best_honest = honest_peers
        .iter()
        .copied()
        .max_by_key(|&i| sim.height_of(i))
        .expect("at least one honest peer");
    let fork_parent: BlockId = sim.tip_of(best_honest);
    let mut attacker_tip = fork_parent;
    let mut counterfeit_blocks = 0u64;
    let mut blockaware_escapes = 0u64;

    let mean_interval = 600.0 / config.attacker_hash;
    // The attacker arrives with one withheld (pre-mined) block — the
    // standard block-withholding assumption, also used by the paper's
    // grid simulation — so the first counterfeit push lands immediately
    // rather than one full mining interval into the attack.
    let mut next_block_in = 30.0;

    let mut timeline = Vec::new();
    let mut peak = 0usize;
    let start = sim.now().as_secs();
    let mut elapsed = 0u64;

    while elapsed < config.duration_secs {
        let step = 60u64.min(config.duration_secs - elapsed);
        sim.run_for_secs(step);
        elapsed += step;

        // Attacker mining clock.
        next_block_in -= step as f64;
        while next_block_in <= 0.0 {
            attacker_tip = sim.mine_counterfeit(attacker_tip);
            counterfeit_blocks += 1;
            for &v in &victims {
                sim.push_chain(v, attacker_tip);
            }
            next_block_in += exp_with_mean(&mut rng, mean_interval);
        }

        // BlockAware: victims whose tip is stale "connect to other
        // nodes, and query them for the latest block" (§VI) — several
        // peers per alarm, so one stale helper does not mask the alarm.
        if let Some(threshold) = config.blockaware_threshold_secs {
            let now = sim.now().as_secs();
            for &v in &victims {
                if now.saturating_sub(sim.tip_found_secs(v)) > threshold {
                    let best_helper = (0..3)
                        .map(|_| honest_peers[rng.random_range(0..honest_peers.len())])
                        .max_by_key(|&h| sim.height_of(h))
                        .expect("three samples");
                    sim.push_chain(v, sim.tip_of(best_helper));
                    blockaware_escapes += 1;
                }
            }
        }

        sim.run_for_secs(1); // let the pushes land
        let captured = victims
            .iter()
            .filter(|&&v| sim.follows_counterfeit(v))
            .count();
        peak = peak.max(captured);
        timeline.push((sim.now().as_secs() - start, captured));
    }

    let captured_final = victims
        .iter()
        .filter(|&&v| sim.follows_counterfeit(v))
        .count();

    // 4. Attack ends: release the eclipse and watch recovery.
    if config.eclipse_victims {
        sim.clear_partition();
    }
    let recovery_start = sim.now().as_secs();
    let mut recovery_secs = None;
    for _ in 0..120 {
        sim.run_for_secs(60);
        let still = victims
            .iter()
            .filter(|&&v| sim.follows_counterfeit(v))
            .count();
        if (still as f64) < 0.01 * victims.len() as f64 {
            recovery_secs = Some(sim.now().as_secs() - recovery_start);
            break;
        }
    }

    TemporalAttackReport {
        victims,
        capture_timeline: timeline,
        captured_peak: peak,
        captured_final,
        counterfeit_blocks,
        blockaware_escapes,
        recovery_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_mining::PoolCensus;
    use bp_net::NetConfig;
    use bp_topology::{Snapshot, SnapshotConfig};

    fn lagging_sim() -> Simulation {
        let snap = Snapshot::generate(SnapshotConfig {
            scale: 0.03,
            tail_as_count: 40,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        });
        // Slow diffusion + loss so real lag exists for the attacker.
        let config = NetConfig {
            seed: 3,
            diffusion_mean_ms: 45_000.0,
            failure_rate: 0.15,
            zombie_fraction: 0.05,
            ..NetConfig::paper()
        };
        let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
        sim.run_for_secs(6 * 600);
        sim
    }

    #[test]
    fn attack_captures_lagging_nodes() {
        let mut sim = lagging_sim();
        let report = run_temporal_attack(
            &mut sim,
            TemporalAttackConfig {
                duration_secs: 3 * 600,
                max_targets: 100,
                ..TemporalAttackConfig::paper()
            },
        );
        assert!(!report.victims.is_empty(), "no victims found");
        assert!(report.counterfeit_blocks > 0, "attacker mined nothing");
        assert!(
            report.peak_fraction() > 0.5,
            "peak capture only {}",
            report.peak_fraction()
        );
    }

    #[test]
    fn network_recovers_after_attack() {
        let mut sim = lagging_sim();
        let report = run_temporal_attack(
            &mut sim,
            TemporalAttackConfig {
                duration_secs: 2 * 600,
                max_targets: 60,
                ..TemporalAttackConfig::paper()
            },
        );
        assert!(
            report.recovery_secs.is_some(),
            "victims never rejoined the honest chain"
        );
    }

    #[test]
    fn blockaware_reduces_capture() {
        let base_cfg = TemporalAttackConfig {
            duration_secs: 3 * 600,
            max_targets: 80,
            seed: 5,
            ..TemporalAttackConfig::paper()
        };
        let mut sim_a = lagging_sim();
        let unprotected = run_temporal_attack(&mut sim_a, base_cfg);

        let mut sim_b = lagging_sim();
        let protected = run_temporal_attack(
            &mut sim_b,
            TemporalAttackConfig {
                blockaware_threshold_secs: Some(600),
                ..base_cfg
            },
        );
        assert!(protected.blockaware_escapes > 0, "BlockAware never fired");
        // Compare the capture *area* (victim-minutes on the counterfeit
        // chain): with resyncs firing, the protected run must not hold
        // victims longer than the unprotected one.
        let area = |r: &super::TemporalAttackReport| -> usize {
            r.capture_timeline.iter().map(|(_, c)| c).sum()
        };
        assert!(
            area(&protected) <= area(&unprotected),
            "BlockAware did not reduce capture area ({} vs {})",
            area(&protected),
            area(&unprotected)
        );
    }

    #[test]
    fn no_lag_means_no_victims() {
        let snap = Snapshot::generate(SnapshotConfig {
            scale: 0.02,
            tail_as_count: 40,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        });
        let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), NetConfig::fast_test());
        sim.run_for_secs(1800);
        sim.run_for_secs(120);
        let report = run_temporal_attack(
            &mut sim,
            TemporalAttackConfig {
                target_min_lag: 3,
                duration_secs: 600,
                ..TemporalAttackConfig::paper()
            },
        );
        assert!(report.victims.is_empty());
        assert_eq!(report.captured_peak, 0);
    }
}
