//! Behavioural ablations for the design choices DESIGN.md calls out.
//!
//! Each sweep measures the *output* of the system across the parameter,
//! producing the numbers EXPERIMENTS.md reports; the sweeps' wall times
//! come from `repro --timings` and perfbench. All ablations run at
//! reduced scale — they compare configurations against each other, not
//! against the paper.
//!
//! Every sweep is decomposed into independently-seeded **units** (one
//! `(case, seed)` simulation each) plus a pure **merge** that averages
//! and renders ([`relay_mode_from_units`], [`out_degree_from_units`],
//! [`span_ratio_from_units`]). The relay and out-degree sweeps share a
//! cell (the paper configuration), so [`NetSweep`] lists their distinct
//! simulations and maps every cell back to one for the merge. The
//! `bp-bench` task DAG is the only driver: it fans the units out across
//! worker threads and merges them into a byte-identical artifact for any
//! worker count, because units own all the randomness and merges only
//! fold unit outputs in the fixed case-major / seed-minor order
//! (floating-point accumulation order included).

use super::Artifact;
use bp_analysis::table::{num, pct, Align, TextTable};
use bp_attacks::temporal::grid::{GridConfig, GridSim};
use bp_crawler::{Crawler, LagClass};
use bp_mining::PoolCensus;
use bp_net::{NetConfig, RelayMode, Simulation};
use bp_topology::{Snapshot, SnapshotConfig};

/// The network seeds every sweep cell is averaged over — block-arrival
/// luck dominates any single 2-hour run, so single-seed sweeps are
/// noise.
pub const AVERAGING_SEEDS: [u64; 3] = [101, 202, 303];

/// Simulated hours behind each relay / out-degree unit run.
pub const UNIT_HOURS: u64 = 2;

/// One relay-discipline case of the relay-mode sweep.
#[derive(Debug, Clone, Copy)]
pub struct RelayCase {
    /// Row label in the rendered table.
    pub label: &'static str,
    /// The relay discipline under test.
    pub mode: RelayMode,
}

/// The relay-discipline cases, in presentation order.
pub const RELAY_CASES: [RelayCase; 3] = [
    RelayCase {
        label: "diffusion (post-2015)",
        mode: RelayMode::Diffusion,
    },
    RelayCase {
        label: "trickle 2s",
        mode: RelayMode::Trickle { interval_ms: 2_000 },
    },
    RelayCase {
        label: "trickle 10s",
        mode: RelayMode::Trickle {
            interval_ms: 10_000,
        },
    },
];

/// The peer out-degrees swept by the out-degree ablation, in presentation
/// order.
pub const OUT_DEGREES: [usize; 4] = [4, 8, 16, 24];

/// The span ratios swept by the span-ratio ablation, in presentation order.
pub const SPAN_RATIOS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Raw measures of one independently-seeded network unit run:
/// `(mean synced, peak ≥2-behind, stale forks, invs delivered)`.
pub type NetUnit = (f64, f64, u64, u64);

/// Raw samples of one independently-seeded grid unit run: per-sample
/// `(dominant-chain share, distinct forks)` pairs, in sampling order.
/// The merge re-accumulates them sequentially so the folded sums are
/// bit-identical to the historical serial sweep.
pub type SpanUnit = Vec<(f64, f64)>;

fn ablation_snapshot(seed: u64) -> Snapshot {
    Snapshot::generate(SnapshotConfig {
        seed,
        scale: 0.05,
        tail_as_count: 80,
        version_tail: 15,
        ..SnapshotConfig::paper()
    })
}

fn run_and_measure(snapshot: &Snapshot, config: NetConfig, hours: u64) -> NetUnit {
    let census = PoolCensus::paper_table_iv();
    let mut sim = Simulation::new(snapshot, &census, config);
    sim.run_for_secs(1200); // warmup
    let crawl = Crawler::new(60).crawl(&mut sim, snapshot, hours * 3600);
    (
        crawl.series.mean_synced_fraction(),
        crawl.series.peak_fraction_at_least(LagClass::TwoToFour),
        sim.stats().stale_forks,
        sim.traffic().invs,
    )
}

/// Averages the units of one case in [`AVERAGING_SEEDS`] order.
fn average_units(units: &[NetUnit]) -> (f64, f64, f64, f64) {
    let mut acc = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &(synced, peak, forks, invs) in units {
        acc.0 += synced;
        acc.1 += peak;
        acc.2 += forks as f64;
        acc.3 += invs as f64;
    }
    let n = units.len() as f64;
    (acc.0 / n, acc.1 / n, acc.2 / n, acc.3 / n)
}

/// One seed's unit of a relay or out-degree sweep cell whose base
/// configuration is `base`: a run under `base` with the network seed
/// `AVERAGING_SEEDS[seed_index]`. Rebuilds the (deterministic) ablation
/// snapshot itself, so units are fully independent tasks.
pub fn net_unit(snapshot_seed: u64, base: &NetConfig, seed_index: usize) -> NetUnit {
    let snapshot = ablation_snapshot(snapshot_seed);
    let config = NetConfig {
        seed: AVERAGING_SEEDS[seed_index],
        ..base.clone()
    };
    run_and_measure(&snapshot, config, UNIT_HOURS)
}

/// Base configuration of the relay-discipline sweep's case `case_index`.
fn relay_config(case_index: usize) -> NetConfig {
    NetConfig {
        relay_mode: RELAY_CASES[case_index].mode,
        ..NetConfig::paper()
    }
}

/// Base configuration of the out-degree sweep's row `degree_index`.
fn degree_config(degree_index: usize) -> NetConfig {
    NetConfig {
        out_degree: OUT_DEGREES[degree_index],
        ..NetConfig::paper()
    }
}

/// A distinct simulation of the relay and out-degree sweeps, named by
/// the first cell that runs it.
#[derive(Debug, Clone)]
pub struct NetCell {
    /// `"relay"` or `"degree"`.
    pub sweep: &'static str,
    /// Index into [`RELAY_CASES`] or [`OUT_DEGREES`].
    pub index: usize,
    /// The base configuration (before the per-unit seed).
    pub config: NetConfig,
}

/// The relay-discipline and out-degree sweeps as the distinct
/// simulations behind their cells. Cells with equal base
/// configurations share one simulation per seed: the diffusion case
/// and out-degree 8 are both [`NetConfig::paper`], so 7 cells need 6
/// simulations.
#[derive(Debug, Clone)]
pub struct NetSweep {
    /// The distinct simulations, in first-use order (relay cases, then
    /// out-degrees).
    pub cells: Vec<NetCell>,
    /// For each sweep cell (relay cases, then out-degrees), its index
    /// into `cells`.
    of_cell: Vec<usize>,
}

impl NetSweep {
    /// Dedupes the sweeps' cells by comparing their base configurations.
    pub fn new() -> Self {
        let all = (0..RELAY_CASES.len())
            .map(|i| ("relay", i, relay_config(i)))
            .chain((0..OUT_DEGREES.len()).map(|i| ("degree", i, degree_config(i))));
        let mut cells: Vec<NetCell> = Vec::new();
        let of_cell = all
            .map(|(sweep, index, config)| {
                cells
                    .iter()
                    .position(|c| c.config == config)
                    .unwrap_or_else(|| {
                        cells.push(NetCell {
                            sweep,
                            index,
                            config,
                        });
                        cells.len() - 1
                    })
            })
            .collect();
        Self { cells, of_cell }
    }

    /// Renders the relay-discipline and out-degree artifacts from the
    /// distinct simulations' units, in `cells`-major, seed-minor order
    /// (`cells.len() * AVERAGING_SEEDS.len()` entries).
    ///
    /// # Panics
    ///
    /// Panics if `units` has the wrong length.
    pub fn render(&self, units: &[NetUnit]) -> [Artifact; 2] {
        let n = AVERAGING_SEEDS.len();
        assert_eq!(units.len(), self.cells.len() * n);
        let per_cell: Vec<NetUnit> = self
            .of_cell
            .iter()
            .flat_map(|&c| units[c * n..(c + 1) * n].iter().copied())
            .collect();
        let (relay, degree) = per_cell.split_at(RELAY_CASES.len() * n);
        [relay_mode_from_units(relay), out_degree_from_units(degree)]
    }
}

impl Default for NetSweep {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders the relay-discipline artifact from its units, which must be
/// in case-major, seed-minor order
/// (`RELAY_CASES.len() * AVERAGING_SEEDS.len()` entries).
///
/// # Panics
///
/// Panics if `units` has the wrong length.
pub fn relay_mode_from_units(units: &[NetUnit]) -> Artifact {
    assert_eq!(units.len(), RELAY_CASES.len() * AVERAGING_SEEDS.len());
    let mut t = TextTable::new(
        [
            "Relay",
            "Mean synced",
            "Peak >=2-behind",
            "Stale forks",
            "Invs delivered",
        ]
        .map(String::from)
        .to_vec(),
    );
    for col in 1..5 {
        t.align(col, Align::Right);
    }
    for (i, case) in RELAY_CASES.iter().enumerate() {
        let n = AVERAGING_SEEDS.len();
        let (synced, peak_behind, forks, invs) = average_units(&units[i * n..(i + 1) * n]);
        t.row(vec![
            case.label.to_string(),
            pct(synced),
            pct(peak_behind),
            num(forks, 1),
            num(invs, 0),
        ]);
    }
    Artifact::new(
        "ablation_relay",
        "Relay-discipline ablation: diffusion vs trickle (paper §V-B)",
        t.render(),
    )
}

/// Renders the out-degree artifact from its units (degree-major,
/// seed-minor order).
///
/// # Panics
///
/// Panics if `units` has the wrong length.
pub fn out_degree_from_units(units: &[NetUnit]) -> Artifact {
    assert_eq!(units.len(), OUT_DEGREES.len() * AVERAGING_SEEDS.len());
    let mut t = TextTable::new(
        [
            "Out-degree",
            "Mean synced",
            "Peak >=2-behind",
            "Stale forks",
        ]
        .map(String::from)
        .to_vec(),
    );
    for col in 0..4 {
        t.align(col, Align::Right);
    }
    for (i, degree) in OUT_DEGREES.iter().enumerate() {
        let n = AVERAGING_SEEDS.len();
        let (synced, peak_behind, forks, _) = average_units(&units[i * n..(i + 1) * n]);
        t.row(vec![
            degree.to_string(),
            pct(synced),
            pct(peak_behind),
            num(forks, 1),
        ]);
    }
    Artifact::new(
        "ablation_degree",
        "Peer out-degree ablation (paper §V-B peer-clustering trade-off)",
        t.render(),
    )
}

/// One `(ratio, seed)` unit of the span-ratio sweep: runs the grid
/// simulator under `SPAN_RATIOS[ratio_index]` with seed
/// `seed + seed_index` and returns the per-sample measures in sampling
/// order.
pub fn span_unit(seed: u64, ratio_index: usize, seed_index: usize) -> SpanUnit {
    let r = SPAN_RATIOS[ratio_index];
    let mut sim = GridSim::new(GridConfig {
        span_ratio: r,
        attack_start_step: u64::MAX, // no attacker: natural forks
        seed: seed + seed_index as u64,
        ..GridConfig::figure7()
    });
    // ~20 blocks per run: steps scale with R_span so every ratio
    // sees the same number of blocks.
    let per_block = 25.0 * r; // steps per block at this ratio
    let total_steps = (per_block * 20.0).max(200.0) as u64;
    let stride = (per_block as u64).max(5);
    let mut samples = Vec::new();
    let mut step = 0;
    while step < total_steps {
        step += stride;
        sim.run_to(step);
        let fracs = sim.snapshot().fork_fractions();
        samples.push((
            fracs.values().cloned().fold(0.0f64, f64::max),
            fracs.len() as f64,
        ));
    }
    samples
}

/// Renders the span-ratio artifact from its units (ratio-major,
/// seed-minor order). The per-ratio sums are re-accumulated sample by
/// sample in the original sequential order, so the rendered averages
/// are bit-identical to a serial sweep.
///
/// # Panics
///
/// Panics if `units` has the wrong length.
pub fn span_ratio_from_units(units: &[SpanUnit]) -> Artifact {
    assert_eq!(units.len(), SPAN_RATIOS.len() * AVERAGING_SEEDS.len());
    let mut t = TextTable::new(
        ["R_span", "Mean dominant-chain share", "Mean distinct forks"]
            .map(String::from)
            .to_vec(),
    );
    for col in 0..3 {
        t.align(col, Align::Right);
    }
    for (i, r) in SPAN_RATIOS.iter().enumerate() {
        // Average the dominant-chain share over time and over seeds; a
        // single final snapshot is dominated by where in the fork cycle
        // it lands.
        let mut dom_sum = 0.0;
        let mut fork_sum = 0.0;
        let mut samples = 0u32;
        let n = AVERAGING_SEEDS.len();
        for unit in &units[i * n..(i + 1) * n] {
            for &(dom, forks) in unit {
                dom_sum += dom;
                fork_sum += forks;
                samples += 1;
            }
        }
        t.row(vec![
            num(*r, 1),
            pct(dom_sum / samples as f64),
            num(fork_sum / samples as f64, 2),
        ]);
    }
    Artifact::new(
        "ablation_span",
        "Span-ratio ablation on the grid simulator (paper §V-B)",
        t.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `unit(case, seed)` for every case and seed in case-major,
    /// seed-minor order — the order the merges expect.
    fn units<T>(cases: usize, unit: impl Fn(usize, usize) -> T) -> Vec<T> {
        (0..cases)
            .flat_map(|case| (0..AVERAGING_SEEDS.len()).map(move |s| (case, s)))
            .map(|(case, s)| unit(case, s))
            .collect()
    }

    #[test]
    fn span_ratio_ablation_shows_sync_threshold() {
        let a = span_ratio_from_units(&units(SPAN_RATIOS.len(), |r, s| span_unit(5, r, s)));
        assert!(a.body.contains("R_span"));
        assert_eq!(a.body.lines().count(), 6);
    }

    #[test]
    fn relay_mode_ablation_renders() {
        let a = relay_mode_from_units(&units(RELAY_CASES.len(), |c, s| {
            net_unit(5, &relay_config(c), s)
        }));
        assert!(a.body.contains("diffusion"));
        assert!(a.body.contains("trickle"));
    }

    #[test]
    fn out_degree_ablation_renders() {
        let a = out_degree_from_units(&units(OUT_DEGREES.len(), |d, s| {
            net_unit(5, &degree_config(d), s)
        }));
        assert!(a.body.contains("Out-degree"));
        assert_eq!(a.body.lines().count(), 6);
    }

    /// Running each distinct simulation once renders the same bytes as
    /// running every cell of both sweeps, and the one shared cell is
    /// the diffusion case at out-degree 8.
    #[test]
    fn net_sweeps_run_each_distinct_simulation_once() {
        let seed = 5;
        let relay = relay_mode_from_units(&units(RELAY_CASES.len(), |c, s| {
            net_unit(seed, &relay_config(c), s)
        }));
        let degree = out_degree_from_units(&units(OUT_DEGREES.len(), |d, s| {
            net_unit(seed, &degree_config(d), s)
        }));
        assert!(relay.body.contains("diffusion"));
        assert!(relay.body.contains("trickle"));
        assert!(degree.body.contains("Out-degree"));
        assert_eq!(degree.body.lines().count(), 6);

        let sweep = NetSweep::new();
        let labels: Vec<(&str, usize)> = sweep.cells.iter().map(|c| (c.sweep, c.index)).collect();
        assert_eq!(
            labels,
            [
                ("relay", 0),
                ("relay", 1),
                ("relay", 2),
                ("degree", 0),
                ("degree", 2),
                ("degree", 3)
            ]
        );
        let deduped = units(sweep.cells.len(), |c, s| {
            net_unit(seed, &sweep.cells[c].config, s)
        });
        let [relay_deduped, degree_deduped] = sweep.render(&deduped);
        assert_eq!(relay_deduped.body, relay.body);
        assert_eq!(degree_deduped.body, degree.body);
    }

    #[test]
    fn units_recompose_to_the_serial_artifact() {
        // The DAG merge path (units computed out of order, folded in
        // case-major order) must reproduce the in-order sweep byte for
        // byte. Compute the units in a scrambled order to prove order
        // independence.
        let seed = 5;
        let mut span_units = vec![Vec::new(); SPAN_RATIOS.len() * AVERAGING_SEEDS.len()];
        let mut order: Vec<usize> = (0..span_units.len()).collect();
        order.reverse();
        for k in order {
            let (r, s) = (k / AVERAGING_SEEDS.len(), k % AVERAGING_SEEDS.len());
            span_units[k] = span_unit(seed, r, s);
        }
        let in_order = units(SPAN_RATIOS.len(), |r, s| span_unit(seed, r, s));
        assert_eq!(
            span_ratio_from_units(&span_units).body,
            span_ratio_from_units(&in_order).body
        );
    }
}
