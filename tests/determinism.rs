//! Seed sensitivity: different seeds must give different results, so a
//! seed that silently stops reaching a layer fails here. The other half
//! of determinism — the same seed gives the same bytes — is pinned
//! end to end by `GOLDEN.digests` (see `tests/golden.rs`).

use btcpart::mining::PoolCensus;
use btcpart::net::{NetConfig, Simulation};
use btcpart::topology::{Snapshot, SnapshotConfig};

fn config(seed: u64) -> SnapshotConfig {
    SnapshotConfig {
        seed,
        scale: 0.02,
        tail_as_count: 40,
        version_tail: 10,
        ..SnapshotConfig::paper()
    }
}

#[test]
fn snapshots_differ_across_seeds() {
    let a = Snapshot::generate(config(1));
    let b = Snapshot::generate(config(2));
    assert_ne!(a.nodes, b.nodes);
}

#[test]
fn simulations_differ_across_seeds() {
    let snap = Snapshot::generate(config(3));
    let census = PoolCensus::paper_table_iv();
    let run = |net_seed: u64| {
        let mut sim = Simulation::new(
            &snap,
            &census,
            NetConfig {
                seed: net_seed,
                ..NetConfig::paper()
            },
        );
        sim.run_for_secs(3 * 600);
        sim.lags()
    };
    assert_ne!(run(10), run(11));
}
