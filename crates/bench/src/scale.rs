//! The `--scale huge` throughput bench: a day of gossip over the
//! million-node [`SnapshotConfig::huge`] population.
//!
//! Unlike the artifact pipeline, this path builds one simulation and
//! drives it straight through `hours` of simulated gossip, reporting
//! wall-clock throughput (events/sec), the peak resident set, and a
//! deterministic per-hour progress artifact (`scale_gossip.csv`). Every
//! simulation-derived number is seed-deterministic — only the wall-time
//! and RSS figures vary run to run.

use crate::ReproConfig;
use btcpart::mining::PoolCensus;
use btcpart::net::{NetConfig, Simulation};
use btcpart::topology::{ScaleProfile, Snapshot, SnapshotConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Result of one scale-bench run: the simulation-derived figures (all
/// seed-deterministic) plus the measured wall time and peak RSS (which
/// are not).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Nodes in the generated snapshot.
    pub nodes: usize,
    /// Participating (up) nodes in the simulation.
    pub participants: usize,
    /// Simulated hours of gossip.
    pub hours: u64,
    /// Events scheduled by the simulation (gossip volume).
    pub events: u64,
    /// Wall time of the gossip loop, in milliseconds.
    pub wall_ms: f64,
    /// Throughput: events scheduled per wall-clock second.
    pub events_per_sec: f64,
    /// Peak resident set (`VmHWM`) in MiB; 0 where unavailable.
    pub rss_peak_mb: u64,
    /// Peak RSS sampled after each simulated hour — the growth trend
    /// that distinguishes a plateauing working set from a leak. Not
    /// part of the deterministic CSV.
    pub rss_hourly_mb: Vec<u64>,
    /// The profile's documented budget the CI smoke job enforces.
    pub memory_budget_mb: u64,
    /// Deterministic per-hour progress rows (`scale_gossip.csv`).
    pub csv: String,
}

impl ScaleReport {
    /// Renders the BENCH `scale` section object (one line, no trailing
    /// newline) — spliced into `BENCH_pipeline.json` by
    /// [`bench_json`](crate::bench_json).
    pub fn json_section(&self) -> String {
        format!(
            "{{\"nodes\": {}, \"participants\": {}, \"hours\": {}, \"events\": {}, \
             \"wall_ms\": {:.3}, \"events_per_sec\": {:.1}, \
             \"rss_peak_mb\": {}, \"memory_budget_mb\": {}}}",
            self.nodes,
            self.participants,
            self.hours,
            self.events,
            self.wall_ms,
            self.events_per_sec,
            self.rss_peak_mb,
            self.memory_budget_mb
        )
    }
}

/// Runs the million-node bench with the repro seed and day-hours. `reg`
/// (from `repro --metrics`) receives the simulation's counters under
/// `net.scale`.
pub fn run_huge(config: &ReproConfig, reg: Option<&bp_obs::Registry>) -> ScaleReport {
    run_profile(
        SnapshotConfig::huge().with_seed(config.seed),
        ScaleProfile::Huge,
        config,
        reg,
    )
}

/// Runs the gossip loop over an arbitrary snapshot configuration —
/// [`run_huge`] at full scale, tests at a reduced one. The network is
/// built as for every other run: the measurement profile of
/// [`NetConfig::paper`], seeded one past the snapshot seed.
pub fn run_profile(
    snap_config: SnapshotConfig,
    profile: ScaleProfile,
    config: &ReproConfig,
    reg: Option<&bp_obs::Registry>,
) -> ScaleReport {
    let snapshot = Snapshot::generate(snap_config);
    let net = NetConfig {
        seed: config.seed.wrapping_add(1),
        ..NetConfig::paper()
    };
    let census = PoolCensus::paper_table_iv();
    let mut sim = Simulation::new(&snapshot, &census, net);
    let participants = sim.node_count();

    let mut csv = String::from("hour,network_best,blocks_mined,stale_forks,events\n");
    let mut rss_hourly_mb = Vec::with_capacity(config.day_hours as usize);
    let start = Instant::now();
    for hour in 1..=config.day_hours {
        sim.run_for_secs(3600);
        let stats = sim.stats();
        let _ = writeln!(
            csv,
            "{hour},{},{},{},{}",
            sim.network_best().0,
            stats.blocks_mined,
            stats.stale_forks,
            sim.queue_stats().scheduled,
        );
        rss_hourly_mb.push(peak_rss_mb());
    }
    let wall = start.elapsed();
    if let Some(reg) = reg {
        sim.export_metrics(reg, "net.scale");
    }

    let events = sim.queue_stats().scheduled;
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events_per_sec = events as f64 / wall.as_secs_f64().max(1e-9);
    ScaleReport {
        nodes: snapshot.node_count(),
        participants,
        hours: config.day_hours,
        events,
        wall_ms,
        events_per_sec,
        rss_peak_mb: peak_rss_mb(),
        rss_hourly_mb,
        memory_budget_mb: profile.memory_budget_mb(),
        csv,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, read from
/// `/proc/self/status`; 0 where the proc filesystem is unavailable.
pub fn peak_rss_mb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb: u64 = line
                    .strip_prefix("VmHWM:")?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()?;
                Some(kb / 1024)
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleReport {
        let snap = SnapshotConfig {
            scale: 0.015,
            tail_as_count: 30,
            version_tail: 8,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        };
        let config = ReproConfig {
            day_hours: 1,
            ..ReproConfig::quick()
        };
        run_profile(snap, ScaleProfile::Quick, &config, None)
    }

    #[test]
    fn csv_has_one_row_per_hour_plus_header() {
        let r = tiny();
        assert_eq!(r.csv.lines().count(), 1 + r.hours as usize);
        assert!(r.csv.starts_with("hour,network_best,"));
        assert!(r.events > 0);
        assert!(r.events_per_sec > 0.0);
    }

    #[test]
    fn json_section_carries_the_budget_and_throughput() {
        let r = tiny();
        let json = r.json_section();
        assert!(json.contains("\"events_per_sec\": "));
        assert!(json.contains(&format!(
            "\"memory_budget_mb\": {}",
            ScaleProfile::Quick.memory_budget_mb()
        )));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0);
        }
    }
}
