//! Microbenchmarks of the substrates the attacks run on: hashing,
//! routing, hijack planning and the event-driven simulator.

use bp_bench::ReproConfig;
use btcpart::bgp::{origin_hijack, AsGraph, HijackEngine, RouteMap};
use btcpart::chain::Hash256;
use btcpart::mining::PoolCensus;
use btcpart::net::{NetConfig, Simulation};
use btcpart::topology::{Asn, Snapshot};
use btcpart::Scenario;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 65_536] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("digest_{size}B"), |b| {
            b.iter(|| black_box(Hash256::digest(&data)))
        });
    }
    group.finish();
}

/// The same quick-scale snapshot the artifact pipeline builds as its
/// static shared input, so substrate numbers track the pipeline's.
fn quick_snapshot() -> Snapshot {
    let cfg = ReproConfig::quick();
    Scenario::new()
        .scale(cfg.scale)
        .seed(cfg.seed)
        .build_static()
        .0
}

fn topology_and_bgp(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    group.sample_size(20);
    group.bench_function("snapshot_generate_5pct", |b| {
        b.iter(|| black_box(quick_snapshot()))
    });
    group.finish();

    let snapshot = quick_snapshot();
    let graph = AsGraph::synthetic(&snapshot.registry, 7);
    let mut group = c.benchmark_group("bgp");
    group.sample_size(20);
    group.bench_function("route_map_compute", |b| {
        b.iter(|| black_box(RouteMap::compute(&graph, Asn(24940))))
    });
    group.bench_function("origin_hijack", |b| {
        b.iter(|| black_box(origin_hijack(&graph, Asn(24940), Asn(16509))))
    });
    group.bench_function("isolation_curve", |b| {
        let engine = HijackEngine::new(&snapshot);
        b.iter(|| black_box(engine.isolation_curve(Asn(16509))))
    });
    group.finish();
}

fn simulation(c: &mut Criterion) {
    let snapshot = quick_snapshot();
    let census = PoolCensus::paper_table_iv();
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("one_hour_5pct_paper_profile", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(&snapshot, &census, NetConfig::paper());
            sim.run_for_secs(3600);
            black_box(sim.network_best())
        })
    });
    group.bench_function("tx_flood_100", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(&snapshot, &census, NetConfig::fast_test());
            sim.run_for_secs(60);
            for g in 0..100u64 {
                sim.submit_tx((g % 50) as u32, g);
            }
            sim.run_for_secs(300);
            black_box(sim.traffic().txs)
        })
    });
    group.bench_function("fifty_one_scenario", |b| {
        use btcpart::attacks::fifty_one::{run_fifty_one, FiftyOneConfig};
        b.iter(|| {
            let mut sim = Simulation::new(&snapshot, &census, NetConfig::fast_test());
            sim.run_for_secs(1200);
            black_box(run_fifty_one(
                &mut sim,
                &census,
                FiftyOneConfig {
                    duration_secs: 4 * 600,
                    ..FiftyOneConfig::paper()
                },
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, sha256, topology_and_bgp, simulation);
criterion_main!(benches);
