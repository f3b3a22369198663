//! Spatio-temporal experiments: Table VII and Figure 8, plus the
//! implications roll-up (§V-A/§V-C).

use super::Artifact;
use bp_analysis::chart::{LineChart, Series};
use bp_analysis::csv;
use bp_analysis::table::{num, pct, Align, TextTable};
use bp_attacks::fifty_one::{run_fifty_one, FiftyOneConfig};
use bp_attacks::spatial::eclipse_cascade;
use bp_attacks::spatiotemporal::plan;
use bp_bgp::HijackIndex;
use bp_crawler::{CrawlResult, LagClass};
use bp_mining::PoolCensus;
use bp_net::Simulation;
use bp_topology::{Asn, Snapshot};

/// Table VII — top-5 ASes hosting the synchronized nodes over the crawl.
pub fn table7(crawl: &CrawlResult, snapshot: &Snapshot) -> Artifact {
    let top = crawl.top_synced_ases(5);
    let mut t = TextTable::new(
        ["AS", "Organization", "Avg synced nodes", "Share of synced"]
            .map(String::from)
            .to_vec(),
    );
    t.align(2, Align::Right);
    t.align(3, Align::Right);
    let mean_synced: f64 = crawl
        .series
        .samples()
        .iter()
        .map(|s| s.count(LagClass::Synced) as f64)
        .sum::<f64>()
        / crawl.series.len().max(1) as f64;
    for (asn, avg) in &top {
        let org = snapshot
            .registry
            .org_of(*asn)
            .map(|o| snapshot.registry.org_name(o).to_string())
            .unwrap_or_else(|| "?".into());
        t.row(vec![
            asn.to_string(),
            org,
            num(*avg, 1),
            pct(if mean_synced > 0.0 {
                avg / mean_synced
            } else {
                0.0
            }),
        ]);
    }
    let coverage: f64 =
        top.iter().map(|(_, avg)| avg).sum::<f64>() / mean_synced.max(f64::MIN_POSITIVE);
    let notes = format!(
        "top-5 ASes cover {:.1}% of synced nodes (paper: ~28%)\n",
        coverage * 100.0
    );
    Artifact::new(
        "table7",
        "Top 5 ASes hosting the synchronized nodes (paper Table VII)",
        format!("{}{}", t.render(), notes),
    )
}

/// Figure 8 — one-day class series (a) and the per-AS synced series of
/// the top ASes (b, c).
pub fn fig8(crawl: &CrawlResult, snapshot: &Snapshot) -> Artifact {
    // Panel (a): synced / 1-behind / 2–4-behind counts over time.
    let mut panel_a = LineChart::new("Synced vs behind nodes over one day", 70, 14);
    panel_a.series(Series::new(
        "Synced",
        crawl.series.class_series(LagClass::Synced),
    ));
    panel_a.series(Series::new(
        "1 block behind",
        crawl.series.class_series(LagClass::OneBehind),
    ));
    panel_a.series(Series::new(
        "2-4 blocks behind",
        crawl.series.class_series(LagClass::TwoToFour),
    ));

    // Panels (b, c): per-AS synced-node series for the top-5 hosts.
    let top = crawl.top_synced_ases(5);
    let mut panel_bc = LineChart::new("Synced nodes per top AS", 70, 14);
    let mut exports = Vec::new();
    for (asn, _) in &top {
        let series = crawl.as_synced_series(*asn);
        let org = snapshot
            .registry
            .org_of(*asn)
            .map(|o| snapshot.registry.org_name(o).to_string())
            .unwrap_or_default();
        panel_bc.series(Series::new(format!("{asn} {org}"), series.clone()));
        exports.push((
            format!("fig8_{}", asn.0),
            csv::write_xy("t_secs", "synced_nodes", &series),
        ));
    }

    let attack_plan = plan(crawl, 5);
    let notes = format!(
        "weakest instant: sample {} with {} synced / {} behind nodes\n",
        attack_plan.attack_sample, attack_plan.synced_count, attack_plan.behind_count
    );
    let mut artifact = Artifact::new(
        "fig8",
        "Spatial and temporal distribution over one day (paper Figure 8)",
        format!("{}\n{}{}", panel_a.render(), panel_bc.render(), notes),
    );
    artifact = artifact.with_csv(
        "fig8_classes",
        csv::write_xy(
            "t_secs",
            "synced",
            &crawl.series.class_series(LagClass::Synced),
        ),
    );
    for (name, contents) in exports {
        artifact = artifact.with_csv(name, contents);
    }
    artifact
}

/// The implications roll-up: hash-power isolation via 3 ASes and the
/// AS24940 15-prefix cut (§V-A "Implications").
pub fn implications(snapshot: &Snapshot, census: &PoolCensus) -> Artifact {
    let alibaba = [Asn(45102), Asn(37963), Asn(58563)];
    let hash_isolated = census.isolated_share(&alibaba);
    let hetzner = HijackIndex::new(snapshot).hijack_top_prefixes(Asn(24940), 15);

    let mut t = TextTable::new(
        ["Implication", "Measured", "Paper"]
            .map(String::from)
            .to_vec(),
    );
    t.row(vec![
        "hash power behind 3 ASes".into(),
        pct(hash_isolated),
        ">60%".into(),
    ]);
    t.row(vec![
        "AS24940 nodes cut by 15 prefix hijacks".into(),
        pct(hetzner.fraction_of_as),
        "~95% (<=40 prefixes)".into(),
    ]);
    t.row(vec![
        "prefixes per isolated AS24940 node".into(),
        num(hetzner.cost_per_node(), 3),
        "≪1 (cheap)".into(),
    ]);
    Artifact::new(
        "implications",
        "Spatial-attack implications (paper §V-A)",
        t.render(),
    )
}

/// The eclipse cascade table (§V-A): degradation of the un-hijacked
/// remainder of an AS as the number of hijacked prefixes grows.
pub fn cascade(sim: &Simulation, snapshot: &Snapshot) -> Artifact {
    let victim = Asn(24940);
    let hijacks = HijackIndex::new(snapshot);
    let mut t = TextTable::new(
        [
            "Prefixes hijacked",
            "Directly isolated",
            "Remainder",
            "Degraded (>=50% peers lost)",
            "Mean peer loss",
        ]
        .map(String::from)
        .to_vec(),
    );
    for col in 0..5 {
        t.align(col, Align::Right);
    }
    for prefixes in [5usize, 10, 15, 25, 40] {
        let report = eclipse_cascade(sim, snapshot, &hijacks, victim, prefixes);
        t.row(vec![
            prefixes.to_string(),
            report.directly_isolated.to_string(),
            report.remainder.to_string(),
            report.degraded.to_string(),
            pct(report.mean_peer_loss),
        ]);
    }
    Artifact::new(
        "cascade",
        "Eclipse cascade on the un-hijacked remainder of AS24940 (paper §V-A)",
        t.render(),
    )
}

/// The 51 % scenario (§V-A implications): hijack the AliBaba-sphere ASes
/// and let their hash power mine a private majority chain.
pub fn fifty_one(sim: &mut Simulation, census: &PoolCensus) -> Artifact {
    let report = run_fifty_one(sim, census, FiftyOneConfig::paper());
    let mut t = TextTable::new(["Quantity", "Value"].map(String::from).to_vec());
    t.align(1, Align::Right);
    t.row(vec![
        "hash power captured".into(),
        pct(report.captured_hash),
    ]);
    t.row(vec![
        "attacker blocks (10 intervals)".into(),
        report.attacker_blocks.to_string(),
    ]);
    t.row(vec![
        "honest blocks (same period)".into(),
        report.honest_blocks.to_string(),
    ]);
    t.row(vec![
        "network on the attacker's chain".into(),
        pct(report.network_captured),
    ]);
    t.row(vec![
        "reorg depth at first reveal".into(),
        report.reveal_reorg_depth.to_string(),
    ]);
    Artifact::new(
        "fifty_one",
        "51% attack via AliBaba-sphere hijack (paper §V-A implications)",
        t.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::temporal::run_crawl;
    use crate::scenario::Scenario;

    fn crawl_env() -> (CrawlResult, Snapshot) {
        let mut lab = Scenario::new().scale(0.02).fast_network().build();
        let crawl = run_crawl(&mut lab.sim, &lab.snapshot, 600, 2400, 60, None);
        (crawl, lab.snapshot)
    }

    #[test]
    fn table7_lists_five_ases_with_orgs() {
        let (crawl, snapshot) = crawl_env();
        let a = table7(&crawl, &snapshot);
        assert!(a.body.lines().count() >= 7);
        assert!(a.body.contains("top-5 ASes cover"));
    }

    #[test]
    fn fig8_exports_class_and_per_as_series() {
        let (crawl, snapshot) = crawl_env();
        let a = fig8(&crawl, &snapshot);
        assert!(a.csv.len() >= 6);
        assert!(a.body.contains("Synced"));
        assert!(a.body.contains("weakest instant"));
    }

    #[test]
    fn cascade_artifact_renders() {
        let lab = Scenario::new().scale(0.05).fast_network().build();
        let a = cascade(&lab.sim, &lab.snapshot);
        assert!(a.body.contains("Prefixes hijacked"));
        assert_eq!(a.body.lines().count(), 7);
    }

    #[test]
    fn fifty_one_artifact_shows_takeover() {
        let mut lab = Scenario::new().scale(0.03).fast_network().build();
        lab.sim.run_for_secs(1200);
        let a = fifty_one(&mut lab.sim, &lab.census);
        assert!(a.body.contains("hash power captured"));
        assert!(a.body.contains("65.70%"));
    }

    #[test]
    fn implications_report_majority_hash() {
        let (_, snapshot) = crawl_env();
        let a = implications(&snapshot, &PoolCensus::paper_table_iv());
        assert!(a.body.contains("hash power behind 3 ASes"));
        assert!(a.body.contains("65.") || a.body.contains("66."));
    }
}
