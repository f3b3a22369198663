//! `gossip-100k`: one serial simulated hour over a 100k-node snapshot.
//!
//! The `bp_bench::scale::run_profile` shape at a tenth of the ROADMAP's
//! million nodes: `SnapshotConfig::paper()` scaled to 100,000 nodes, all
//! up, and `NetConfig::paper()` with the partial-shuffle samplers and
//! default shards and threads, stepped in 10-simulated-minute
//! `run_for_secs` slices. Its working set (~300–400 MiB) is far past any
//! cache, so the event queue and the per-node arrays run at memory
//! speed. Each op sets up afresh; the DAG and `bp-serve` are bypassed.
//!
//! This workload is runnable but not listed in `BENCHMARK.json`: its
//! run-to-run spread on a shared host is larger than any bound the
//! benchmark may set (see `perfbench/NOTES.md`). It is kept for the
//! one-off measurements the notes record.

use crate::layers::Layers;
use crate::replay::{amdahl, replay_queue, Load};
use crate::spans::Recorder;
use crate::stats::{median, percentile, rss_mb, Digest};
use crate::{Args, EndToEnd, Outcome};
use bp_mining::PoolCensus;
use bp_net::{NetConfig, SamplingMode, Simulation};
use bp_topology::{Snapshot, SnapshotConfig};
use std::time::Instant;

/// Nodes in the snapshot.
const NODES: f64 = 100_000.0;
/// Simulated seconds per slice, and slices per hour.
const SLICE_SECS: u64 = 600;
const SLICES: usize = 6;
/// Set-ups made before the first op, on top of each op's own; `setup_s`
/// is the median of all of them.
const EXTRA_SETUPS: usize = 3;
/// Ops a run makes even when the window is shorter, so every run
/// compares at least two outputs.
const MIN_OPS: u64 = 2;

fn snapshot_config(seed: u64) -> SnapshotConfig {
    let paper = SnapshotConfig::paper();
    SnapshotConfig {
        scale: NODES / paper.total_nodes as f64,
        up_fraction: 1.0,
        ..paper
    }
    .with_seed(seed)
}

fn net_config(seed: u64) -> NetConfig {
    NetConfig {
        seed: seed.wrapping_add(1),
        sampling: SamplingMode::PartialShuffle,
        ..NetConfig::paper()
    }
}

/// A freshly built simulation and what building it cost.
struct Setup {
    _snapshot: Snapshot,
    sim: Simulation,
    generate_s: f64,
    sim_new_s: f64,
}

fn set_up(seed: u64, rec: &mut Recorder, op: u64) -> Setup {
    let t = Instant::now();
    rec.enter("bp_topology::Snapshot::generate", op);
    let snapshot = Snapshot::generate(snapshot_config(seed));
    rec.exit();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    rec.enter("bp_net::Simulation::new", op);
    let sim = Simulation::new(&snapshot, &PoolCensus::paper_table_iv(), net_config(seed));
    rec.exit();
    Setup {
        _snapshot: snapshot,
        sim,
        generate_s,
        sim_new_s: t.elapsed().as_secs_f64(),
    }
}

/// Everything one op (one simulated hour) measured and produced.
struct Hour {
    generate_s: f64,
    sim_new_s: f64,
    slices_s: [f64; SLICES],
    hour_s: f64,
    rss_peak_mb: f64,
    digest: Digest,
    blocks: u64,
    kinds: [u64; 5],
    queue: bp_net::QueueStats,
    depth_hwm: u64,
}

fn hour(seed: u64, rec: &mut Recorder, op: u64) -> Hour {
    crate::stats::reset_peak_rss();
    let Setup {
        _snapshot,
        mut sim,
        generate_s,
        sim_new_s,
    } = set_up(seed, rec, op);
    let mut slices_s = [0.0; SLICES];
    rec.enter("perfbench::gossip_hour", op);
    for slice in &mut slices_s {
        let t = Instant::now();
        rec.enter("bp_net::Simulation::run_for_secs", op);
        sim.run_for_secs(SLICE_SECS);
        rec.exit();
        *slice = t.elapsed().as_secs_f64();
    }
    rec.exit();

    // The per-hour row of `scale_gossip.csv`, the queue counters and the
    // handler counts: everything deterministic the hour produced.
    let stats = sim.stats();
    let queue = sim.queue_stats();
    let traffic = sim.traffic();
    let m = sim.metrics();
    let kinds = [
        m.events_inv,
        m.events_getdata,
        m.events_block,
        m.events_mine,
        m.events_churn,
    ];
    let mut digest = Digest::default();
    for v in [
        sim.network_best().0,
        stats.blocks_mined,
        stats.stale_forks,
        stats.reorgs,
        stats.max_depth,
        queue.scheduled,
        queue.wheel,
        queue.late,
        queue.overflow,
        queue.cascaded,
        m.events_tx,
        m.queue_depth_hwm as u64,
        m.announce_calls,
        m.invs_scheduled,
        traffic.invs,
        traffic.getdatas,
        traffic.blocks,
        traffic.lost,
    ]
    .into_iter()
    .chain(kinds)
    {
        digest.u64(v);
    }
    Hour {
        generate_s,
        sim_new_s,
        hour_s: slices_s.iter().sum(),
        slices_s,
        rss_peak_mb: crate::stats::peak_rss_mb(),
        digest,
        blocks: stats.blocks_mined,
        kinds,
        queue,
        depth_hwm: m.queue_depth_hwm as u64,
    }
}

pub fn run(args: &Args) -> Outcome {
    let origin = Instant::now();
    let mut rec = Recorder::new(args.trace, origin, 0);
    let mut quiet = Recorder::new(false, origin, 0);
    let mut generates = Vec::new();
    let mut sim_news = Vec::new();
    for op in 0..EXTRA_SETUPS as u64 {
        let s = set_up(args.seed, &mut quiet, op);
        generates.push(s.generate_s);
        sim_news.push(s.sim_new_s);
    }
    let rss_after_setup = rss_mb();

    let mut out = Outcome::default();
    let mut expected: Option<Digest> = None;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let min_ops = if args.trace { 2 * MIN_OPS } else { MIN_OPS };
    let start = Instant::now();
    while out.attempted < min_ops || start.elapsed() < args.window {
        let op = out.attempted;
        // The traced run alternates plain and recorded hours, so it can
        // report the recorder's own overhead.
        let recorded = args.trace && op % 2 == 1;
        let h = hour(args.seed, if recorded { &mut rec } else { &mut quiet }, op);
        let ok = h.queue.scheduled > 0 && *expected.get_or_insert(h.digest) == h.digest;
        out.attempted += 1;
        out.failed += u64::from(!ok);
        println!(
            "# op {op}: hour {:.1} ms, {} events, {} blocks mined, {:.0} events/s, set-up {:.1} ms, digest {:016x}{}{}",
            h.hour_s * 1e3,
            h.queue.scheduled,
            h.blocks,
            h.queue.scheduled as f64 / h.hour_s,
            (h.generate_s + h.sim_new_s) * 1e3,
            h.digest.value(),
            if recorded { ", traced" } else { "" },
            if ok { "" } else { ", MISMATCH" }
        );
        generates.push(h.generate_s);
        sim_news.push(h.sim_new_s);
        if recorded {
            traced.push(h);
        } else {
            plain.push(h);
        }
    }
    out.correct = out.failed == 0;

    let hour_s: Vec<f64> = plain.iter().map(|h| h.hour_s).collect();
    let events = plain[0].queue.scheduled as f64;
    let eps: Vec<f64> = hour_s.iter().map(|s| events / s).collect();
    let setups: Vec<f64> = generates
        .iter()
        .zip(&sim_news)
        .map(|(g, n)| g + n)
        .collect();
    let setup_s = median(&setups);
    let rss_peak_mb = median(&plain.iter().map(|h| h.rss_peak_mb).collect::<Vec<_>>());
    println!(
        "# hour_s = {} s (median of {} hours; {events} events, {} blocks mined)",
        median(&hour_s),
        hour_s.len(),
        plain[0].blocks
    );
    println!("# events_per_s = {} 1/s", median(&eps));
    println!(
        "# setup_s = {setup_s} s (median of {} set-ups)",
        setups.len()
    );
    println!("# rss_peak_mb = {rss_peak_mb} MiB");
    if !args.trace {
        // Host milliseconds per million events: the unit of work whose
        // cost depends least on how many blocks the seed happens to mine.
        let ms_per_mevent: Vec<f64> = eps.iter().map(|e| 1e9 / e).collect();
        out.end_to_end(EndToEnd {
            latency_p50_ms: median(&ms_per_mevent),
            latency_p95_ms: percentile(&ms_per_mevent, 95.0),
            throughput_per_s: median(&eps),
            cold_per_s: median(&eps),
            setup_s,
            rss_peak_mb,
        });
        return out;
    }

    print!("{}", rec.render_summary());
    rec.write_out(&format!("spans-gossip-100k-seed{}.jsonl", args.seed));
    let h = &traced[0];
    let traced_hour = median(&traced.iter().map(|h| h.hour_s).collect::<Vec<_>>());
    let replay_s = replay_queue(
        Load {
            events: h.queue.scheduled,
            depth: h.depth_hwm,
            inv: h.kinds[0],
            getdata: h.kinds[1],
            block: h.kinds[2],
        },
        args.seed,
    );
    let share = replay_s / median(&hour_s);
    let slice_ms: Vec<f64> = traced
        .iter()
        .flat_map(|h| h.slices_s.iter().map(|s| s * 1e3))
        .collect();
    println!("# net.sim_new_s = {} s", median(&sim_news));
    println!(
        "# net.slice_ms: median {} ms, max {} ms",
        median(&slice_ms),
        percentile(&slice_ms, 100.0)
    );
    let mut layers = Layers::default();
    layers.set("topology.generate_s", median(&generates));
    layers.set("net.ns_per_event", traced_hour * 1e9 / events);
    layers.set("net.events", events);
    for (name, v) in [
        "net.events.inv",
        "net.events.getdata",
        "net.events.block",
        "net.events.mine",
        "net.events.churn",
    ]
    .into_iter()
    .zip(h.kinds)
    {
        layers.set(name, v as f64);
    }
    layers.set("net.queue.scheduled", h.queue.scheduled as f64);
    layers.set("net.queue.late", h.queue.late as f64);
    layers.set("net.queue.overflow", h.queue.overflow as f64);
    layers.set("net.queue.cascaded", h.queue.cascaded as f64);
    layers.set("net.queue.depth_hwm", h.depth_hwm as f64);
    layers.set("net.blocks_mined", h.blocks as f64);
    layers.set("net.queue.replay_ns_per_event", replay_s * 1e9 / events);
    layers.set("net.queue.share", share);
    layers.set("net.amdahl_p2", amdahl(share, 2.0));
    layers.set("net.amdahl_p8", amdahl(share, 8.0));
    layers.set("rss.after_setup_mb", rss_after_setup);
    layers.set(
        "trace.overhead_pct",
        (traced_hour / median(&hour_s) - 1.0) * 100.0,
    );
    layers.report(&mut out);
    out
}
