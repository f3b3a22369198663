//! `pipeline-quick`: the full quick reproduction, in process.
//!
//! One op is `bp_bench::generate_with_report(quick config with the seed,
//! ["all"], jobs = nproc)`: every paper artifact, computed through the
//! task DAG with artifacts kept in memory. This is what a researcher
//! reproducing the paper runs, minus the disk writes (which the notes
//! measure separately). It bypasses `bp-serve`.
//!
//! A reproduction's time and memory depend on its seed (peak RSS ranges
//! 55–72 MiB across seeds), so a run cycles through [`INPUTS`]
//! reproductions seeded `seed * INPUTS + k`: each run's medians then
//! span several inputs, and each input is checked against itself.

use crate::layers::Layers;
use crate::replay::{amdahl, replay_queue, Load};
use crate::spans::Recorder;
use crate::stats::{median, peak_rss_mb, percentile, reset_peak_rss, rss_mb, Digest};
use crate::{Args, EndToEnd, Outcome};
use bp_bench::pipeline::{default_jobs, RunReport};
use bp_bench::{ReproConfig, ARTIFACT_IDS};
use btcpart::Artifact;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reproduction inputs a run cycles through.
const INPUTS: u64 = 8;
/// Set-up samples; `setup_s` is their median. A set-up takes well under
/// a microsecond, so each sample is the mean of a batch of set-ups
/// rather than one clock-granular reading.
const SETUP_REPEATS: usize = 101;
const SETUP_BATCH: u32 = 1000;
/// Ops a run makes even when the window is shorter, so every input's
/// output is compared at least once with a second op's.
const MIN_OPS: u64 = 2 * INPUTS;
/// Jobs whose wall the traced run reports (the largest five).
const TASKS: [(&str, &str); 5] = [
    ("ablations", "task.ablations_ms"),
    ("countermeasures", "task.countermeasures_ms"),
    ("fifty_one", "task.fifty_one_ms"),
    ("propagation", "task.propagation_ms"),
    ("fig7", "task.fig7_ms"),
];

/// One input's configuration and artifact selection, fixed at set-up.
struct Reference {
    config: ReproConfig,
    selection: Vec<String>,
}

fn set_up(seed: u64) -> Reference {
    Reference {
        config: ReproConfig {
            seed,
            ..ReproConfig::quick()
        },
        selection: vec!["all".to_string()],
    }
}

fn digest(artifacts: &[Artifact]) -> Digest {
    let mut d = Digest::default();
    for a in artifacts {
        d.field(a.id.as_bytes());
        d.field(a.title.as_bytes());
        d.field(a.body.as_bytes());
        for (name, csv) in &a.csv {
            d.field(name.as_bytes());
            d.field(csv.as_bytes());
        }
    }
    d
}

/// Every job produced output: at least as many artifacts as artifact
/// ids, no two artifacts sharing an id, and no empty body.
fn complete(artifacts: &[Artifact]) -> bool {
    let ids: std::collections::HashSet<&str> = artifacts.iter().map(|a| a.id.as_str()).collect();
    artifacts.len() >= ARTIFACT_IDS.len()
        && ids.len() == artifacts.len()
        && artifacts.iter().all(|a| !a.body.is_empty())
}

/// Per-layer figures of one traced op.
struct TracedOp {
    report: RunReport,
    net: bp_obs::Snapshot,
}

impl TracedOp {
    /// Sum of the `net.<sim>.<suffix>` counters over the metered
    /// simulations (the day and general crawls).
    fn net_sum(&self, suffix: &str) -> u64 {
        self.net
            .counters()
            .filter(|(name, _)| name.starts_with("net.") && name.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Largest `net.<sim>.<suffix>` gauge over the metered simulations.
    fn net_max(&self, suffix: &str) -> f64 {
        self.net
            .gauges()
            .filter(|(name, _)| name.starts_with("net.") && name.ends_with(suffix))
            .map(|(_, v)| v)
            .fold(0.0, f64::max)
    }
}

pub fn run(args: &Args) -> Outcome {
    let jobs = default_jobs();
    let seeds: Vec<u64> = (0..INPUTS)
        .map(|k| args.seed.wrapping_mul(INPUTS).wrapping_add(k))
        .collect();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut references: Vec<Reference> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            references = black_box(seeds.iter().map(|&s| set_up(black_box(s))).collect());
        }
        setup.push(t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH));
    }
    let rss_after_setup = rss_mb();

    let origin = Instant::now();
    let mut rec = Recorder::new(args.trace, origin, 0);
    let mut out = Outcome::default();
    let mut expected: Vec<Option<Digest>> = vec![None; INPUTS as usize];
    let mut walls = Vec::new();
    let mut rss_peaks = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_ops = Vec::new();
    let mut artifacts_per_op = 0;
    while out.attempted < MIN_OPS || origin.elapsed() < args.window {
        let op = out.attempted;
        let input = (op % INPUTS) as usize;
        let reference = &references[input];
        // The traced run alternates passes of plain and instrumented ops
        // over the inputs, so it can report the instrumentation's own
        // overhead; both kinds must produce the same artifacts.
        let traced = args.trace && (op / INPUTS) % 2 == 1;
        reset_peak_rss();
        let t = Instant::now();
        let (artifacts, report, reg) = if traced {
            let reg = bp_obs::Registry::new();
            rec.enter("bp_bench::generate_with_metrics", op);
            let (artifacts, report) = bp_bench::generate_with_metrics(
                &reference.config,
                &reference.selection,
                jobs,
                &reg,
            );
            rec.exit();
            (artifacts, report, Some(reg))
        } else {
            let (artifacts, report) =
                bp_bench::generate_with_report(&reference.config, &reference.selection, jobs);
            (artifacts, report, None)
        };
        let wall = t.elapsed();
        let rss_peak = peak_rss_mb();

        rec.enter("perfbench::check", op);
        let d = digest(&artifacts);
        let ok = complete(&artifacts) && *expected[input].get_or_insert(d) == d;
        rec.exit();
        out.attempted += 1;
        out.failed += u64::from(!ok);
        artifacts_per_op = artifacts.len();
        println!(
            "# op {op}: seed {}, {:.1} ms, {:.1} MiB peak, {} artifacts, {} tasks, {} threads, digest {:016x}{}{}",
            reference.config.seed,
            wall.as_secs_f64() * 1e3,
            rss_peak,
            artifacts.len(),
            report.tasks.len(),
            report.threads,
            d.value(),
            if traced { ", traced" } else { "" },
            if ok { "" } else { ", MISMATCH" }
        );
        match reg {
            Some(reg) => {
                traced_walls.push(wall.as_secs_f64());
                traced_ops.push(TracedOp {
                    report,
                    net: reg.snapshot(),
                });
            }
            None => {
                walls.push(wall.as_secs_f64());
                rss_peaks.push(rss_peak);
            }
        }
    }
    out.correct = out.failed == 0;

    let pipeline_s = median(&walls);
    let setup_s = median(&setup);
    // Each op's own peak (the mark is reset before it), so the figure
    // does not creep up with the number of ops a window holds.
    let rss_peak_mb = median(&rss_peaks);
    println!(
        "# pipeline_s = {pipeline_s} s (median of {} ops, p95 {} s)",
        walls.len(),
        percentile(&walls, 95.0)
    );
    println!(
        "# setup_s = {setup_s} s (median of {SETUP_REPEATS} batches of {SETUP_BATCH} set-ups)"
    );
    println!("# rss_peak_mb = {rss_peak_mb} MiB (median of per-op peaks)");
    if !args.trace {
        out.end_to_end(EndToEnd {
            latency_p50_ms: pipeline_s * 1e3,
            latency_p95_ms: percentile(&walls, 95.0) * 1e3,
            throughput_per_s: artifacts_per_op as f64 / pipeline_s,
            cold_per_s: artifacts_per_op as f64 / pipeline_s,
            setup_s,
            rss_peak_mb,
        });
        return out;
    }

    print!("{}", rec.render_summary());
    rec.write_out(&format!("spans-pipeline-quick-seed{}.jsonl", args.seed));
    let mut layers = Layers::default();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per_op = |f: &dyn Fn(&TracedOp) -> f64| -> f64 {
        median(&traced_ops.iter().map(f).collect::<Vec<_>>())
    };
    let busy = |op: &TracedOp| op.report.tasks.iter().map(|t| ms(t.wall)).sum::<f64>();
    let stage = |stages: &[bp_bench::pipeline::StageTiming], id: &str| {
        stages
            .iter()
            .find(|s| s.id == id)
            .map_or(0.0, |s| ms(s.wall))
    };
    let crawls = |op: &TracedOp| {
        stage(&op.report.shared, "day_crawl") + stage(&op.report.shared, "general_crawl")
    };
    layers.set("dag.busy_ms", per_op(&busy));
    layers.set(
        "dag.parallel_eff",
        per_op(&|op| busy(op) / (op.report.threads as f64 * ms(op.report.total))),
    );
    layers.set(
        "dag.critical_path_ms",
        per_op(&|op| ms(op.report.critical_path)),
    );
    for (job, name) in TASKS {
        layers.set(name, per_op(&|op| stage(&op.report.jobs, job)));
    }
    layers.set(
        "crawl.day_ms",
        per_op(&|op| stage(&op.report.shared, "day_crawl")),
    );
    layers.set(
        "crawl.general_ms",
        per_op(&|op| stage(&op.report.shared, "general_crawl")),
    );
    // bp-net counters of the metered crawls: deterministic, identical in
    // every traced op.
    let first = &traced_ops[0];
    let events = first.net_sum(".queue.scheduled");
    layers.set("net.events", events as f64);
    layers.set(
        "net.ns_per_event",
        per_op(&|op| crawls(op) * 1e6 / op.net_sum(".queue.scheduled").max(1) as f64),
    );
    for (name, suffix) in [
        ("net.events.inv", ".events.inv"),
        ("net.events.getdata", ".events.getdata"),
        ("net.events.block", ".events.block"),
        ("net.events.mine", ".events.mine"),
        ("net.events.churn", ".events.churn"),
        ("net.queue.late", ".queue.late"),
        ("net.queue.overflow", ".queue.overflow"),
        ("net.queue.cascaded", ".queue.cascaded"),
        ("net.blocks_mined", ".forks.blocks_mined"),
    ] {
        layers.set(name, first.net_sum(suffix) as f64);
    }
    layers.set("net.queue.scheduled", events as f64);
    let depth = first.net_max(".queue.depth_hwm");
    layers.set("net.queue.depth_hwm", depth);
    // Queue share of the crawls' wall: their own event count replayed
    // through a bare queue held at their depth high-water mark.
    let replay_s = replay_queue(
        Load {
            events,
            depth: depth as u64,
            inv: first.net_sum(".events.inv"),
            getdata: first.net_sum(".events.getdata"),
            block: first.net_sum(".events.block"),
        },
        args.seed,
    );
    let share = replay_s * 1e3 / per_op(&crawls);
    layers.set(
        "net.queue.replay_ns_per_event",
        replay_s * 1e9 / events.max(1) as f64,
    );
    layers.set("net.queue.share", share);
    layers.set("net.amdahl_p2", amdahl(share, 2.0));
    layers.set("net.amdahl_p8", amdahl(share, 8.0));
    layers.set(
        "topology.generate_s",
        per_op(&|op| stage(&op.report.shared, "static")) / 1e3,
    );
    layers.set("rss.after_setup_mb", rss_after_setup);
    layers.set(
        "trace.overhead_pct",
        (median(&traced_walls) / pipeline_s - 1.0) * 100.0,
    );
    layers.report(&mut out);
    out
}
