//! Failure-injection tests: the simulator must stay internally
//! consistent (no panics, invariants intact) under hostile or degenerate
//! conditions well outside the calibrated operating point.

use btcpart::crawler::Crawler;
use btcpart::mining::PoolCensus;
use btcpart::net::{NetConfig, RelayMode, Simulation};
use btcpart::topology::{Snapshot, SnapshotConfig};
use btcpart::Scenario;

fn snapshot(seed: u64) -> Snapshot {
    Snapshot::generate(SnapshotConfig {
        seed,
        scale: 0.02,
        tail_as_count: 40,
        version_tail: 10,
        up_fraction: 1.0,
        ..SnapshotConfig::paper()
    })
}

#[test]
fn survives_extreme_message_loss() {
    let snap = snapshot(900);
    let config = NetConfig {
        seed: 900,
        failure_rate: 0.6, // 60 % of messages vanish
        ..NetConfig::paper()
    };
    let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
    sim.run_for_secs(6 * 600);
    // Mining continues and lags stay internally consistent.
    assert!(sim.stats().blocks_mined > 0);
    let best = sim.network_best().0;
    for (i, lag) in sim.lags().into_iter().enumerate() {
        assert!(lag <= best, "node {i} lag {lag} exceeds best {best}");
    }
    assert!(sim.traffic().lost > 0);
}

#[test]
fn survives_total_churn() {
    let snap = snapshot(901);
    let config = NetConfig {
        seed: 901,
        churn_off_scale: 1.0, // nodes constantly dropping
        churn_on_prob: 0.5,
        ..NetConfig::paper()
    };
    let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
    sim.run_for_secs(4 * 600);
    // Some nodes are offline at any instant, yet the clock and the chain
    // advance.
    let offline = (0..sim.node_count() as u32)
        .filter(|&i| !sim.is_online(i))
        .count();
    assert!(offline > 0, "churn never took a node down");
    assert!(sim.now().as_secs() >= 4 * 600);
}

#[test]
fn survives_counterfeit_flood() {
    let mut lab = Scenario::new().scale(0.02).seed(902).fast_network().build();
    lab.sim.run_for_secs(1200);
    // An attacker pushes a deep counterfeit chain to every node, twice.
    // Honest mining pauses for the flood, so no honest block on top of
    // the counterfeit tip can land inside it.
    let mut tip = lab.sim.tip_of(0);
    for _ in 0..50 {
        tip = lab.sim.mine_counterfeit(tip);
    }
    lab.sim.set_mining_paused(true);
    for round in 0..2 {
        for node in 0..lab.sim.node_count() as u32 {
            lab.sim.push_chain(node, tip);
        }
        lab.sim.run_for_secs(60 + round);
    }
    // Everyone ends on the (longest) counterfeit chain, consistently.
    let captured = (0..lab.sim.node_count() as u32)
        .filter(|&i| lab.sim.follows_counterfeit(i))
        .count();
    assert_eq!(captured, lab.sim.node_count());
    // Honest mining then recovers on top of it (chain keeps moving).
    lab.sim.set_mining_paused(false);
    let h_before = lab.sim.index().get(&tip).unwrap().height.0;
    lab.sim.run_for_secs(20 * 600);
    assert!(
        (0..lab.sim.node_count() as u32).any(|i| lab.sim.height_of(i).0 > h_before),
        "network froze after the flood"
    );
}

#[test]
fn degenerate_trickle_interval_still_delivers() {
    let snap = snapshot(903);
    let config = NetConfig {
        seed: 903,
        relay_mode: RelayMode::Trickle { interval_ms: 1 },
        failure_rate: 0.0,
        fetch_delay_mean_ms: 0.0,
        diffusion_mean_ms: 100.0,
        zombie_fraction: 0.0,
        churn_off_scale: 0.0,
        ..NetConfig::paper()
    };
    let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
    sim.run_for_secs(3 * 600);
    sim.run_for_secs(120);
    let lags = sim.lags();
    let synced = lags.iter().filter(|&&l| l == 0).count();
    assert!(
        synced as f64 > 0.9 * lags.len() as f64,
        "trickle-1ms failed to deliver: {synced}/{}",
        lags.len()
    );
}

#[test]
fn crawler_handles_stalled_network() {
    let snap = snapshot(904);
    let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), NetConfig::fast_test());
    sim.set_mining_paused(true); // nothing ever happens
    let crawl = Crawler::new(60).crawl(&mut sim, &snap, 1800);
    assert_eq!(crawl.series.len(), 30);
    // Everyone is trivially synced at height 0.
    assert!((crawl.series.mean_synced_fraction() - 1.0).abs() < 1e-9);
    // The vulnerability optimizer returns zero, not nonsense.
    let window = crawl.matrix.max_vulnerable(5, 1).unwrap();
    assert_eq!(window.max_nodes, 0);
}

#[test]
fn partition_of_every_node_into_own_group_is_survivable() {
    let snap = snapshot(905);
    let mut sim = Simulation::new(&snap, &PoolCensus::paper_table_iv(), NetConfig::fast_test());
    sim.run_for_secs(600);
    sim.set_partition(|i| i); // total isolation: every node alone
    sim.run_for_secs(3 * 600);
    // Gateways keep mining on their own islands; no cross-delivery.
    assert!(sim.stats().blocks_mined > 0);
    sim.clear_partition();
    sim.run_for_secs(6 * 600);
    sim.run_for_secs(300);
    let lags = sim.lags();
    let badly_behind = lags.iter().filter(|&&l| l > 2).count();
    assert!(
        (badly_behind as f64) < 0.1 * lags.len() as f64,
        "network failed to heal from total isolation: {badly_behind} stuck"
    );
}
