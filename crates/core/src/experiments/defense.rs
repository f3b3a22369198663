//! Countermeasure experiments (paper §VI): BlockAware and stratum
//! diversification.

use super::Artifact;
use bp_analysis::table::{num, pct, Align, TextTable};
use bp_attacks::countermeasures::{ases_to_isolate_hash, blockaware_tradeoff, diversify_stratum};
use bp_attacks::temporal::attack::{TemporalAttackConfig, TemporalAttackReport};
use bp_bgp::{origin_hijack, origin_hijack_with_defense, AsGraph};
use bp_mining::PoolCensus;
use bp_topology::{Asn, Snapshot};
use std::collections::HashSet;

/// The thresholds [`blockaware_sweep`] evaluates, in presentation
/// order.
const BLOCKAWARE_SWEEP_THRESHOLDS: [u64; 6] = [150, 300, 600, 1200, 2400, 4800];

/// The BlockAware threshold sweep (detection delay vs. false alarms) at
/// the paper's 600 s block interval.
pub fn blockaware_sweep() -> Artifact {
    let mut t = TextTable::new(
        ["Threshold (s)", "Detection delay (s)", "False-alarm rate"]
            .map(String::from)
            .to_vec(),
    );
    for col in 0..3 {
        t.align(col, Align::Right);
    }
    for row in blockaware_tradeoff(&BLOCKAWARE_SWEEP_THRESHOLDS, 600.0) {
        t.row(vec![
            row.threshold_secs.to_string(),
            row.detection_delay_secs.to_string(),
            num(row.false_alarm_rate, 4),
        ]);
    }
    Artifact::new(
        "blockaware_sweep",
        "BlockAware threshold trade-off (paper §VI)",
        t.render(),
    )
}

/// The "with BlockAware" arm of the BlockAware comparison: the same
/// attack with the 600 s detector enabled. The two arms run on
/// independently-prepared simulations, so the task DAG executes them
/// concurrently and merges with [`blockaware_defense_from_reports`].
pub fn blockaware_protected_config(attack: TemporalAttackConfig) -> TemporalAttackConfig {
    TemporalAttackConfig {
        blockaware_threshold_secs: Some(600),
        ..attack
    }
}

/// Renders the BlockAware comparison from the two attack reports: the
/// temporal attack without and with BlockAware, each run on its own
/// identically-prepared simulation.
pub fn blockaware_defense_from_reports(
    unprotected: &TemporalAttackReport,
    protected: &TemporalAttackReport,
) -> Artifact {
    let mut t = TextTable::new(
        ["", "Without BlockAware", "With BlockAware"]
            .map(String::from)
            .to_vec(),
    );
    t.align(1, Align::Right);
    t.align(2, Align::Right);
    t.row(vec![
        "victims targeted".into(),
        unprotected.victims.len().to_string(),
        protected.victims.len().to_string(),
    ]);
    t.row(vec![
        "peak captured".into(),
        unprotected.captured_peak.to_string(),
        protected.captured_peak.to_string(),
    ]);
    t.row(vec![
        "captured at attack end".into(),
        unprotected.captured_final.to_string(),
        protected.captured_final.to_string(),
    ]);
    t.row(vec![
        "BlockAware escapes".into(),
        "—".into(),
        protected.blockaware_escapes.to_string(),
    ]);
    Artifact::new(
        "blockaware_defense",
        "BlockAware vs the temporal attack (paper §VI)",
        t.render(),
    )
}

/// Stratum diversification: attacker cost to isolate 50 % of the hash
/// rate, before and after pools spread their stratum servers.
pub fn stratum_diversification() -> Artifact {
    let census = PoolCensus::paper_table_iv();
    let hosts: Vec<Asn> = [
        24940u32, 16276, 37963, 16509, 14061, 7922, 4134, 51167, 45102, 58563,
    ]
    .into_iter()
    .map(Asn)
    .collect();

    let mut t = TextTable::new(
        [
            "Stratum spread (ASes/pool)",
            "ASes to isolate 50% hash",
            "AliBaba-sphere share",
        ]
        .map(String::from)
        .to_vec(),
    );
    for col in 0..3 {
        t.align(col, Align::Right);
    }
    let alibaba = [Asn(45102), Asn(37963), Asn(58563)];
    for spread in [1usize, 2, 4, 8] {
        let c = if spread == 1 {
            census.clone()
        } else {
            diversify_stratum(&census, &hosts, spread)
        };
        t.row(vec![
            if spread == 1 {
                "1 (paper status quo)".into()
            } else {
                spread.to_string()
            },
            ases_to_isolate_hash(&c, 0.5).to_string(),
            pct(c.isolated_share(&alibaba)),
        ]);
    }
    Artifact::new(
        "stratum_diversification",
        "Stratum-server diversification raises hijack cost (paper §VI)",
        t.render(),
    )
}

/// Route purging (Zhang et al., §VI) against a same-prefix origin
/// hijack. Models the *reactive* scheme: once the hijack is detected,
/// affected ASes purge the bogus route in adoption waves (largest
/// captured ASes first); each purging AS also stops re-exporting the
/// bogus announcement, shielding its downstream cone.
pub fn route_purging(snapshot: &Snapshot) -> Artifact {
    let graph = AsGraph::synthetic(&snapshot.registry, 11);
    let victim = Asn(24940);
    let attacker = Asn(16509);
    let baseline = origin_hijack(&graph, victim, attacker);

    // Reactive adopters: the ASes the hijack actually captured, in a
    // deterministic order.
    let mut adopters: Vec<Asn> = baseline.captured_ases.clone();
    adopters.sort_unstable();

    let mut t = TextTable::new(
        [
            "Adoption among captured ASes",
            "Captured fraction",
            "Reduction",
        ]
        .map(String::from)
        .to_vec(),
    );
    for col in 0..3 {
        t.align(col, Align::Right);
    }
    t.row(vec![
        "0% (undefended)".into(),
        pct(baseline.captured_fraction),
        "—".into(),
    ]);
    for share in [25usize, 50, 75, 100] {
        let k = adopters.len() * share / 100;
        let defenders: HashSet<Asn> = adopters.iter().take(k).copied().collect();
        let defended = origin_hijack_with_defense(&graph, victim, attacker, &defenders);
        let reduction =
            1.0 - defended.captured_fraction / baseline.captured_fraction.max(f64::MIN_POSITIVE);
        t.row(vec![
            format!("{share}%"),
            pct(defended.captured_fraction),
            pct(reduction),
        ]);
    }
    Artifact::new(
        "route_purging",
        "Reactive bogus-route purging vs a same-prefix hijack (paper §VI)",
        t.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use bp_attacks::temporal::attack::run_temporal_attack;
    use bp_net::NetConfig;

    #[test]
    fn route_purging_reduces_capture() {
        let snapshot = Scenario::new().scale(0.05).build_static().0;
        let a = route_purging(&snapshot);
        assert!(a.body.contains("undefended"));
        assert!(a.body.lines().count() >= 6);
    }

    #[test]
    fn sweep_has_600s_row() {
        let a = blockaware_sweep();
        assert!(a.body.contains("600"));
    }

    #[test]
    fn diversification_table_shows_rising_cost() {
        let a = stratum_diversification();
        assert!(a.body.contains("status quo"));
        // First row costs 1 AS; the 8-way spread costs several.
        let rows: Vec<&str> = a.body.lines().skip(2).collect();
        assert!(rows.len() >= 4);
    }

    #[test]
    fn blockaware_defense_renders_comparison() {
        let make = || {
            let mut lab = Scenario::new()
                .scale(0.02)
                .net_config(NetConfig {
                    seed: 3,
                    diffusion_mean_ms: 45_000.0,
                    failure_rate: 0.15,
                    ..NetConfig::paper()
                })
                .build();
            lab.sim.run_for_secs(4 * 600);
            lab
        };
        let attack = TemporalAttackConfig {
            duration_secs: 1200,
            max_targets: 50,
            ..TemporalAttackConfig::paper()
        };
        let unprotected = run_temporal_attack(&mut make().sim, attack);
        let protected = run_temporal_attack(&mut make().sim, blockaware_protected_config(attack));
        let artifact = blockaware_defense_from_reports(&unprotected, &protected);
        assert!(artifact.body.contains("BlockAware escapes"));
        assert!(artifact.body.contains("peak captured"));
    }
}
