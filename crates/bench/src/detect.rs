//! The detection scoring harness (`repro --detect-matrix`).
//!
//! Runs the `bp-detect` suite across a small scenario matrix — a benign
//! day crawl plus three partition shapes drawn from the paper's attack
//! taxonomy — and grades every detector against the ground-truth
//! `partition_apply` / `partition_heal` trace records the scenarios
//! emit. The output is `detection_roc.csv`: per (scenario, detector),
//! the detection latency and the benign-tick false-positive rate, the
//! measured counterpart of the paper's closed-form BlockAware
//! latency/false-alarm analysis (§VI).
//!
//! Every scenario is one seeded simulation driven on the day-crawl
//! cadence (60 s sample ticks after the standard 1,200 s warmup), with
//! the cut applied at ¼ of the run and healed at ¾. The whole harness
//! is deterministic: same config → byte-identical CSV and per-scenario
//! `trace_<name>.bin` files.

use crate::{measurement_lab, ReproConfig};
use bp_detect::score::{roc_rows, ROC_HEADER};
use bp_detect::{score_detectors, DetectConfig, DetectEngine, DetectorScore};
use bp_obs::trace::{encode_records, TraceRecord};
use bp_obs::Tracer;
use btcpart::crawler::AsSlotIndex;
use btcpart::net::Simulation;

/// The scenario matrix, in run (and CSV) order.
pub const SCENARIOS: [&str; 4] = ["benign", "cut_half", "as_eclipse", "miner_cut"];

/// Grace period appended to each attack window when scoring: alerts
/// raised while the network is still reconverging after the heal are
/// true positives, not noise. Two full propagation times — healing a
/// cut that split mining power triggers deep reorgs plus a full
/// re-propagation, which keeps the staleness census elevated well past
/// the heal itself.
pub const GRACE_MS: u64 = 1_800_000;

/// Everything one `--detect-matrix` run produces.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// The assembled `detection_roc.csv` body (header included).
    pub csv: String,
    /// Per-scenario encoded traces (`trace_<name>.bin`), alerts
    /// appended — replaying one through the engine reproduces its own
    /// alert stream byte-for-byte (the engine skips detect records).
    pub traces: Vec<(String, Vec<u8>)>,
    /// Per-scenario detector scores, in [`SCENARIOS`] order.
    pub scores: Vec<(String, Vec<DetectorScore>)>,
}

/// Runs one named scenario and returns its raw trace records (without
/// alerts). The simulation mirrors the pipeline's day crawl — same lab,
/// same warmup, same 60 s sample cadence over `config.day_hours` — so
/// benign detector behaviour here transfers to `repro --detect` runs.
pub fn run_scenario(config: &ReproConfig, name: &str) -> Vec<TraceRecord> {
    let mut lab = measurement_lab(config);
    lab.sim.set_tracer(Tracer::new());
    crate::seed_node_as(&mut lab);
    let index = AsSlotIndex::build(&lab.sim, &lab.snapshot);
    lab.sim.run_for_secs(2 * 600);

    let ticks = config.day_hours * 60;
    let apply_tick = ticks / 4;
    let heal_tick = ticks * 3 / 4;
    let mut lags: Vec<u64> = Vec::new();
    for t in 0..ticks {
        if name != "benign" {
            if t == apply_tick {
                apply_cut(&mut lab.sim, &index, name);
            }
            if t == heal_tick {
                lab.sim.clear_partition();
            }
        }
        lab.sim.run_for_secs(60);
        lab.sim.lags_into(&mut lags);
        let synced = lags.iter().filter(|&&l| l == 0).count() as u64;
        lab.sim.trace_crawl_sample(synced);
    }
    lab.sim
        .take_tracer()
        .expect("tracer installed above")
        .into_records()
}

/// Applies the named cut. Group assignments are pure functions of the
/// node→AS join and the simulation's own gateway flags, so the
/// partition shape is deterministic.
fn apply_cut(sim: &mut Simulation, index: &AsSlotIndex, name: &str) {
    match name {
        // A half split along AS-slot parity — the paper's wide
        // BGP-level space partition (§V-B).
        "cut_half" => {
            let slots = index.node_slots().to_vec();
            sim.set_partition(move |n| slots[n as usize] % 2);
        }
        // Silence the smallest set of whole ASes covering ~10% of the
        // population — a targeted spatial eclipse.
        "as_eclipse" => {
            let node_slot = index.node_slots().to_vec();
            let mut per_slot = vec![0usize; index.slot_count()];
            for &s in &node_slot {
                per_slot[s as usize] += 1;
            }
            let target = node_slot.len() / 10;
            let mut cut = vec![false; index.slot_count()];
            let mut acc = 0usize;
            for (slot, &count) in per_slot.iter().enumerate() {
                if acc >= target {
                    break;
                }
                cut[slot] = true;
                acc += count;
            }
            sim.set_partition(move |n| u32::from(cut[node_slot[n as usize] as usize]));
        }
        // Isolate every mining-pool gateway from the rest of the
        // network — the paper's "partitioning all mining pools"
        // logic/space collision: blocks keep being mined but stop
        // reaching anyone.
        "miner_cut" => {
            let flags: Vec<bool> = (0..sim.node_count() as u32)
                .map(|n| sim.is_gateway(n))
                .collect();
            sim.set_partition(move |n| u32::from(flags[n as usize]));
        }
        other => panic!("unknown detect scenario: {other}"),
    }
}

/// Runs the whole matrix: every scenario through the standard detector
/// suite, scored against its own ground truth.
pub fn run_detect_matrix(config: &ReproConfig) -> MatrixResult {
    let mut csv = String::from(ROC_HEADER);
    let mut traces = Vec::new();
    let mut scores = Vec::new();
    for name in SCENARIOS {
        let records = run_scenario(config, name);
        let mut engine = DetectEngine::new(DetectConfig::default());
        engine.feed_all(&records);
        let report = engine.finish();
        let graded = score_detectors(&records, &report, GRACE_MS);
        csv.push_str(&roc_rows(name, &graded));
        let mut full = records;
        full.extend_from_slice(&report.alerts);
        traces.push((format!("trace_{name}.bin"), encode_records(&full)));
        scores.push((name.to_string(), graded));
    }
    MatrixResult {
        csv,
        traces,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproConfig {
        ReproConfig {
            scale: 0.02,
            day_hours: 1,
            ..ReproConfig::quick()
        }
    }

    #[test]
    fn scenarios_carry_their_ground_truth() {
        let config = tiny();
        let benign = run_scenario(&config, "benign");
        assert!(bp_detect::attack_windows(&benign).is_empty());
        let cut = run_scenario(&config, "cut_half");
        let windows = bp_detect::attack_windows(&cut);
        assert_eq!(windows.len(), 1);
        // Apply at tick 15 of 60, heal at tick 45 (after 1,200 s warmup).
        assert_eq!(windows[0].apply_ms, (1_200 + 15 * 60) * 1_000);
        assert_eq!(windows[0].heal_ms, (1_200 + 45 * 60) * 1_000);
    }

    #[test]
    #[ignore = "diagnostic dump"]
    fn dump_observables() {
        use bp_detect::StreamState;
        use bp_obs::trace::TraceCategory;
        let config = ReproConfig::quick();
        for name in SCENARIOS {
            let records = run_scenario(&config, name);
            let mut state = StreamState::new();
            println!("== {name} ==");
            for r in &records {
                if matches!(
                    r.kind.category(),
                    TraceCategory::Attack | TraceCategory::Detect
                ) {
                    println!("t={} {:?}", r.time / 1000, r.kind);
                    continue;
                }
                if let Some(tick) = state.consume(r) {
                    let (stale, tracked) = state.stale_nodes(tick.t_ms, 600);
                    let bands = state.lag_counts();
                    let synced_total: u64 = state.as_synced().iter().sum();
                    let mut shares: Vec<(usize, u64)> = state
                        .as_synced()
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(s, &c)| (s, c * 1000 / synced_total.max(1)))
                        .collect();
                    shares.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
                    shares.truncate(3);
                    println!(
                        "t={:>5} synced={:>3} bands={:?} stale600={:>3}/{} ({}‰) inv={:>4} mine={} top_as={:?}",
                        tick.t_ms / 1000,
                        tick.synced,
                        bands,
                        stale,
                        tracked,
                        stale * 1000 / tracked.max(1),
                        tick.inv_count,
                        tick.mine_count,
                        shares
                    );
                }
            }
        }
    }

    #[test]
    #[ignore = "diagnostic dump"]
    fn dump_trains() {
        use bp_detect::StreamState;
        let config = ReproConfig::quick();
        for name in SCENARIOS {
            let records = run_scenario(&config, name);
            let mut state = StreamState::new();
            for r in &records {
                state.consume(r);
            }
            println!("== {name} ==");
            for (dense, &(mtick, invs)) in state.inv_trains() {
                println!("dense={dense} mine_tick={mtick} invs={invs}");
            }
        }
    }

    #[test]
    #[ignore = "diagnostic dump"]
    fn probe_tiny_matrix() {
        println!("{}", run_detect_matrix(&tiny()).csv);
    }
}
