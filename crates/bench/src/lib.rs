//! Shared helpers for the benchmark harness and the `repro` binary.
//!
//! Every paper artifact is regenerated through [`generate`] (a thin
//! wrapper over the deterministic parallel [`pipeline`]). Its per-task
//! wall times come from `repro --timings` and `repro --metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod dag;
pub mod detect;
pub mod pipeline;
pub mod scale;
pub mod serve;
pub mod trace_cli;

use btcpart::crawler::CrawlResult;
use btcpart::experiments::{temporal, Artifact};
use btcpart::net::Simulation;
use btcpart::topology::Snapshot;
use btcpart::{Lab, Scenario};
use pipeline::RunReport;

/// Reproduction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproConfig {
    /// Population scale (1.0 = the paper's 13,635 nodes).
    pub scale: f64,
    /// Snapshot seed.
    pub seed: u64,
    /// Simulated hours behind the one-day crawls (Figure 6(b), Figure 8,
    /// Tables V and VII).
    pub day_hours: u64,
}

impl ReproConfig {
    /// Paper-scale reproduction (minutes of wall time).
    pub fn paper() -> Self {
        Self {
            scale: 1.0,
            seed: 20_180_228,
            day_hours: 24,
        }
    }

    /// A fast configuration for CI and perfbench (seconds of wall time).
    pub fn quick() -> Self {
        Self {
            scale: 0.05,
            seed: 20_180_228,
            day_hours: 2,
        }
    }

    /// Simulated hours behind the Figure 6(a) "general trend" crawl:
    /// twice the day crawl, which it continues.
    pub fn general_hours(&self) -> u64 {
        2 * self.day_hours
    }
}

/// Simulated seconds the measurement network runs before its first
/// crawl sample.
const WARMUP_SECS: u64 = 2 * 600;
/// Sampling period of the day crawl (seconds), which Table V reads.
pub const DAY_PERIOD_SECS: u64 = 60;
/// Sampling period of the general crawl.
const GENERAL_PERIOD_SECS: u64 = 600;

/// Builds a lab with the measurement network profile (the lossy "paper"
/// network, seeded from the snapshot seed).
pub fn measurement_lab(config: &ReproConfig) -> Lab {
    Scenario::new()
        .scale(config.scale)
        .seed(config.seed)
        .build()
}

/// Runs the one-day, 1-minute-sampled crawl shared by Figure 6(b,c),
/// Table V, Table VII and Figure 8. The returned lab's simulation is
/// where the crawl left it, ready for [`general_crawl`] to continue.
///
/// Crawler sampling cost is recorded into `reg` when given. With `trace`
/// set, a flight recorder is installed into the simulation before it
/// runs (`repro --trace`); it stays inside the returned lab's
/// simulation — callers lift it out with `lab.sim.take_tracer()`. It is
/// installed before the warmup so the trace carries every block accept,
/// which is what lets `trace timeline` rebuild the crawler's lag series
/// from the trace alone. The crawl result is identical with or without
/// instrumentation.
pub fn day_crawl(
    config: &ReproConfig,
    reg: Option<&bp_obs::Registry>,
    trace: bool,
) -> (CrawlResult, Lab) {
    let mut lab = measurement_lab(config);
    if trace {
        lab.sim.set_tracer(bp_obs::Tracer::new());
        seed_node_as(&mut lab);
    }
    let crawl = temporal::run_crawl(
        &mut lab.sim,
        &lab.snapshot,
        WARMUP_SECS,
        config.day_hours * 3600,
        DAY_PERIOD_SECS,
        reg,
    );
    (crawl, lab)
}

/// Seeds one `node_as` record per node into a freshly traced
/// simulation, carrying the crawler's node→AS slot join (first-seen
/// slot numbering — see `bp_crawler::AsSlotIndex`). Emitted at the head
/// of the stream, before any simulated event, so the trace alone is
/// enough for per-AS consumers: `trace timeline --by-as` and the
/// `bp-detect` AS-skew detector need no out-of-band sidecar.
pub fn seed_node_as(lab: &mut Lab) {
    let index = btcpart::crawler::AsSlotIndex::build(&lab.sim, &lab.snapshot);
    for (node, &slot) in index.node_slots().iter().enumerate() {
        let asn = index.asn_of_slot(slot).0 as u64;
        lab.sim.trace_node_as(node as u32, asn, slot as u64);
    }
}

/// The long, 10-minute-sampled crawl of Figure 6(a), continuing the
/// [`day_crawl`] that produced `day` and left `sim` behind (`snapshot`
/// is the day lab's). Its first `day_hours` are every 10th day sample;
/// the rest is crawled on from where the day crawl stopped. Sampling
/// draws nothing from the simulation's RNG, and the event queue pops the
/// same stream however a run is split into sampling periods, so the
/// result equals a `general_hours` crawl of a fresh lab sampled every
/// 600 s. Crawler sampling cost of the continuation is recorded into
/// `reg` when given.
pub fn general_crawl(
    config: &ReproConfig,
    day: &CrawlResult,
    sim: &mut Simulation,
    snapshot: &Snapshot,
    reg: Option<&bp_obs::Registry>,
) -> CrawlResult {
    let mut crawl = day.thin((GENERAL_PERIOD_SECS / DAY_PERIOD_SECS) as usize);
    crawl.append(temporal::run_crawl(
        sim,
        snapshot,
        0,
        (config.general_hours() - config.day_hours) * 3600,
        GENERAL_PERIOD_SECS,
        reg,
    ));
    crawl
}

/// All artifact ids, in presentation order — the ids of
/// [`pipeline::JOBS`], in table order.
pub const ARTIFACT_IDS: [&str; 21] = {
    let mut ids = [""; 21];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = pipeline::JOBS[i].id;
        i += 1;
    }
    ids
};

/// Generates the artifacts selected by `ids` (every known id if the
/// selection contains `"all"`), in [`ARTIFACT_IDS`] presentation order.
/// Shared inputs (static snapshot, crawls) are computed once; the
/// independent artifact jobs fan out across all available cores. The
/// output is byte-identical for any worker count.
pub fn generate(config: &ReproConfig, ids: &[String]) -> Vec<Artifact> {
    generate_with_report(config, ids, pipeline::default_jobs()).0
}

/// [`generate`] with an explicit worker count, also returning the
/// [`RunReport`] with per-job wall times and output sizes.
pub fn generate_with_report(
    config: &ReproConfig,
    ids: &[String],
    jobs: usize,
) -> (Vec<Artifact>, RunReport) {
    pipeline::run_pipeline(config, ids, jobs, None, None, None)
}

/// [`generate_with_report`], recording run metrics into `reg`
/// (`repro --metrics`). Artifacts are byte-identical with or without a
/// registry — see [`pipeline::run_pipeline`].
pub fn generate_with_metrics(
    config: &ReproConfig,
    ids: &[String],
    jobs: usize,
    reg: &bp_obs::Registry,
) -> (Vec<Artifact>, RunReport) {
    pipeline::run_pipeline(config, ids, jobs, Some(reg), None, None)
}

/// Renders the `BENCH_pipeline.json` benchmark record: the run profile,
/// per-stage wall times from the [`RunReport`], and the key simulation
/// counters from the metrics snapshot. Wall times vary run to run; the
/// `counters` section is deterministic for a given config.
///
/// pipeline-v5: the numeric population factor moved from `scale` to
/// `scale_factor`; `scale` now holds the huge-bench throughput section
/// (see [`scale::ScaleReport`]), or null for pipeline runs. `report` is
/// null-able for the same reason — the huge bench bypasses the task
/// DAG, so it has no stage or task rows.
///
/// pipeline-v6: adds the `serve` section (see [`serve::ServeReport`]),
/// null for every run but `repro --serve-bench` — which in turn has no
/// task DAG, so its `report` and `scale` are null.
///
/// pipeline-v7: added a top-level simulation worker count next to the
/// shard count, and per-thread fields inside the `scale` section.
///
/// pipeline-v8: drops the shard and worker counts again, top level and
/// in the `scale` section (the simulator runs one serial event queue),
/// and adds `nproc`, the host's available parallelism, so every record
/// names its core count.
///
/// pipeline-v9: the `serve` section drops `mode` and `mix` (the serve
/// bench always runs closed 64-query batches over the zipf mix).
pub fn bench_json(
    profile: &str,
    config: &ReproConfig,
    report: Option<&RunReport>,
    snapshot: &bp_obs::Snapshot,
    scale: Option<&scale::ScaleReport>,
    serve: Option<&serve::ServeReport>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"schema\": \"bp-bench/pipeline-v9\",\n");
    let _ = writeln!(out, "  \"profile\": \"{profile}\",");
    let _ = writeln!(out, "  \"scale_factor\": {},", config.scale);
    let _ = writeln!(out, "  \"seed\": {},", config.seed);
    let _ = writeln!(out, "  \"nproc\": {},", pipeline::default_jobs());
    match scale {
        None => out.push_str("  \"scale\": null,\n"),
        Some(s) => {
            let _ = writeln!(out, "  \"scale\": {},", s.json_section());
        }
    }
    match serve {
        None => out.push_str("  \"serve\": null,\n"),
        Some(s) => {
            let _ = writeln!(out, "  \"serve\": {},", s.json_section());
        }
    }
    if let Some(report) = report {
        let _ = writeln!(out, "  \"threads\": {},", report.threads);
        let _ = writeln!(
            out,
            "  \"total_wall_ms\": {:.3},",
            report.total.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            out,
            "  \"serial_estimate_ms\": {:.3},",
            report.serial_estimate().as_secs_f64() * 1e3
        );
        let _ = writeln!(
            out,
            "  \"critical_path_ms\": {:.3},",
            report.critical_path.as_secs_f64() * 1e3
        );
        let _ = writeln!(out, "  \"tasks_spawned\": {},", report.tasks_spawned);
        let _ = writeln!(out, "  \"tasks_claimed\": {},", report.tasks_claimed);
        let _ = writeln!(out, "  \"max_ready\": {},", report.max_ready);
    } else {
        out.push_str("  \"threads\": null,\n");
        out.push_str("  \"total_wall_ms\": null,\n");
        out.push_str("  \"serial_estimate_ms\": null,\n");
        out.push_str("  \"critical_path_ms\": null,\n");
        out.push_str("  \"tasks_spawned\": null,\n");
        out.push_str("  \"tasks_claimed\": null,\n");
        out.push_str("  \"max_ready\": null,\n");
    }
    // Cache totals (null when the run had no store).
    match report.and_then(|r| r.cache.as_ref()) {
        None => out.push_str("  \"cache\": null,\n"),
        Some(c) => {
            let _ = writeln!(
                out,
                "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"skipped\": {}, \
                 \"bytes_read\": {}, \"bytes_written\": {}}},",
                c.hits, c.misses, c.skipped, c.bytes_read, c.bytes_written
            );
        }
    }
    out.push_str("  \"stages\": [\n");
    let stages: Vec<_> = report
        .map(|report| {
            report
                .shared
                .iter()
                .map(|s| ("shared", s))
                .chain(report.jobs.iter().map(|s| ("job", s)))
                .collect()
        })
        .unwrap_or_default();
    for (i, (kind, stage)) in stages.iter().enumerate() {
        let sep = if i + 1 == stages.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"kind\": \"{}\", \"wall_ms\": {:.3}, \"artifacts\": {}, \"body_bytes\": {}, \"csv_bytes\": {}}}{}",
            stage.id, kind, stage.wall.as_secs_f64() * 1e3, stage.artifacts, stage.body_bytes, stage.csv_bytes, sep
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"tasks\": [\n");
    let tasks = report.map(|r| r.tasks.as_slice()).unwrap_or_default();
    for (i, task) in tasks.iter().enumerate() {
        let sep = if i + 1 == tasks.len() { "" } else { "," };
        let job = match &task.job {
            Some(id) => format!("\"{id}\""),
            None => "null".to_string(),
        };
        let cache = match task.cache {
            Some(status) => format!("\"{status}\""),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"job\": {}, \"wall_ms\": {:.3}, \"cache\": {}}}{}",
            task.label,
            job,
            task.wall.as_secs_f64() * 1e3,
            cache,
            sep
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"counters\": {");
    let counters: Vec<_> = snapshot.counters().collect();
    for (i, (name, value)) in counters.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {value}", bp_obs::json_escape(name));
    }
    out.push_str(if counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"gauges\": {");
    let gauges: Vec<_> = snapshot.gauges().collect();
    for (i, (name, value)) in gauges.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {value}", bp_obs::json_escape(name));
    }
    out.push_str(if gauges.is_empty() { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_static_artifacts_generate() {
        let config = ReproConfig::quick();
        let artifacts = generate(
            &config,
            [
                "table1", "table2", "fig3", "fig4", "table6", "fig7", "table8",
            ]
            .map(String::from)
            .as_ref(),
        );
        // table8 adds cve_exposure.
        assert_eq!(artifacts.len(), 8);
        for a in &artifacts {
            assert!(!a.body.is_empty(), "{} is empty", a.id);
        }
    }

    #[test]
    fn crawl_backed_artifacts_share_one_crawl() {
        let config = ReproConfig {
            scale: 0.02,
            day_hours: 1,
            ..ReproConfig::quick()
        };
        let artifacts = generate(
            &config,
            ["fig6_day", "table5", "table7", "fig8"]
                .map(String::from)
                .as_ref(),
        );
        assert_eq!(artifacts.len(), 4);
    }

    /// The general crawl continued from the day crawl equals a
    /// from-scratch crawl of a fresh lab: the same samples, per-AS
    /// counts and per-node lag histories, and a simulation that ends in
    /// the same state by every exported counter, gauge and histogram.
    #[test]
    fn general_crawl_continuation_matches_a_fresh_crawl() {
        let config = ReproConfig {
            scale: 0.02,
            day_hours: 1,
            ..ReproConfig::quick()
        };
        assert_eq!(config.general_hours(), 2);
        let (day, mut lab) = day_crawl(&config, None, false);
        let continued = general_crawl(&config, &day, &mut lab.sim, &lab.snapshot, None);

        let mut fresh_lab = measurement_lab(&config);
        let fresh = temporal::run_crawl(
            &mut fresh_lab.sim,
            &fresh_lab.snapshot,
            1200,
            config.general_hours() * 3600,
            600,
            None,
        );

        assert_eq!(continued.series.len(), 12);
        assert_eq!(continued.series, fresh.series);
        assert_eq!(continued.synced_by_as, fresh.synced_by_as);
        assert_eq!(continued.matrix.nodes(), fresh.matrix.nodes());
        for node in 0..fresh.matrix.nodes() {
            assert_eq!(
                continued.matrix.node_history(node),
                fresh.matrix.node_history(node),
                "node {node}'s lag history"
            );
        }
        let exported = |sim: &btcpart::net::Simulation| {
            let reg = bp_obs::Registry::new();
            sim.export_metrics(&reg, "net");
            reg.snapshot()
        };
        let (continued_net, fresh_net) = (exported(&lab.sim), exported(&fresh_lab.sim));
        assert!(continued_net.counter("net.queue.scheduled") > 0);
        assert_eq!(continued_net, fresh_net);
    }

    #[test]
    fn artifact_id_list_is_unique() {
        let mut ids = ARTIFACT_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ARTIFACT_IDS.len());
    }
}
