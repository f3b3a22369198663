//! Spatial experiments: Tables I–IV, Figure 3 and Figure 4.

use super::Artifact;
use bp_analysis::chart::{LineChart, Series};
use bp_analysis::csv;
use bp_analysis::ecdf::cumulative_share;
use bp_analysis::table::{num, pct, thousands, Align, TextTable};
use bp_attacks::spatial::{centralization, BASELINE_2017_ASES_30, BASELINE_2017_ASES_50};
use bp_bgp::HijackIndex;
use bp_mining::PoolCensus;
use bp_topology::{Asn, Snapshot};

/// Table I — overview node characteristics per connectivity family.
pub fn table1(snapshot: &Snapshot) -> Artifact {
    let mut t = TextTable::new(
        [
            "Type", "Count", "Link μ", "Link σ", "Lat μ", "Lat σ", "Up μ", "Up σ",
        ]
        .map(String::from)
        .to_vec(),
    );
    for col in 1..8 {
        t.align(col, Align::Right);
    }
    // A heavily down-scaled snapshot can leave a family empty; render
    // "—" instead of a misleading 0.00 (try_* is None on empty samples).
    let stat = |v: Option<f64>| v.map(|x| num(x, 2)).unwrap_or_else(|| "—".into());
    for (conn, count, link, lat, up) in snapshot.conn_stats() {
        t.row(vec![
            conn.to_string(),
            thousands(count as u64),
            stat(link.try_mean()),
            stat(link.try_std_dev()),
            stat(lat.try_mean()),
            stat(lat.try_std_dev()),
            stat(up.try_mean()),
            stat(up.try_std_dev()),
        ]);
    }
    let up = snapshot.up_count();
    let total = snapshot.node_count();
    let summary = format!(
        "total nodes: {}  up: {} ({:.2}%)  down: {} ({:.2}%)\n",
        thousands(total as u64),
        thousands(up as u64),
        up as f64 * 100.0 / total as f64,
        thousands((total - up) as u64),
        (total - up) as f64 * 100.0 / total as f64,
    );
    Artifact::new(
        "table1",
        "Node characteristics by connectivity (paper Table I)",
        format!("{}{}", t.render(), summary),
    )
}

/// Table II — top-10 ASes and organizations by node share.
pub fn table2(snapshot: &Snapshot) -> Artifact {
    let total = snapshot.node_count() as f64;
    let per_as = snapshot.nodes_per_as();
    let per_org = snapshot.nodes_per_org();

    let mut t = TextTable::new(
        ["ASes", "# Nodes", "%", "Organizations", "# Nodes", "%"]
            .map(String::from)
            .to_vec(),
    );
    for col in [1, 2, 4, 5] {
        t.align(col, Align::Right);
    }
    // A tiny-scale snapshot may populate fewer than 10 ASes or
    // organizations; render the rows that exist instead of indexing
    // out of bounds.
    for i in 0..10usize.min(per_as.len().max(per_org.len())) {
        let (as_label, n_as) = match per_as.get(i) {
            Some(&(asn, n)) => {
                let label = if asn == bp_topology::TOR_ASN {
                    "TOR".to_string()
                } else {
                    asn.to_string()
                };
                (label, Some(n))
            }
            None => ("—".to_string(), None),
        };
        let (org_label, n_org) = match per_org.get(i) {
            Some(&(org, n)) => (snapshot.registry.org_name(org).to_string(), Some(n)),
            None => ("—".to_string(), None),
        };
        let count_cell = |n: Option<usize>| match n {
            Some(n) => thousands(n as u64),
            None => "—".into(),
        };
        let pct_cell = |n: Option<usize>| match n {
            Some(n) => pct(n as f64 / total),
            None => "—".into(),
        };
        t.row(vec![
            as_label,
            count_cell(n_as),
            pct_cell(n_as),
            org_label,
            count_cell(n_org),
            pct_cell(n_org),
        ]);
    }
    Artifact::new(
        "table2",
        "Top 10 ASes and organizations (paper Table II)",
        t.render(),
    )
}

/// Table III — centralization change 2017 → 2018.
pub fn table3(snapshot: &Snapshot) -> Artifact {
    let report = centralization(snapshot);
    let mut t = TextTable::new(
        ["", "2017", "2018 (measured)", "Change %"]
            .map(String::from)
            .to_vec(),
    );
    for col in 1..4 {
        t.align(col, Align::Right);
    }
    t.row(vec![
        "ASes with 50% nodes".into(),
        BASELINE_2017_ASES_50.to_string(),
        report.ases_50.to_string(),
        num(report.change_50_pct, 0),
    ]);
    t.row(vec![
        "ASes with 30% nodes".into(),
        BASELINE_2017_ASES_30.to_string(),
        report.ases_30.to_string(),
        num(report.change_30_pct, 0),
    ]);
    let extra = format!(
        "organizations hosting 30%: {}   50%: {}\n",
        report.orgs_30, report.orgs_50
    );
    Artifact::new(
        "table3",
        "Centralization of full nodes over time (paper Table III)",
        format!("{}{}", t.render(), extra),
    )
}

/// Table IV — top-5 mining pools, their stratum ASes and organizations.
pub fn table4(snapshot: &Snapshot, census: &PoolCensus) -> Artifact {
    let mut t = TextTable::new(
        ["Mining Pool", "H. Rate %", "ASes", "Organizations"]
            .map(String::from)
            .to_vec(),
    );
    t.align(1, Align::Right);
    for pool in census.top(5) {
        let ases: Vec<String> = pool.stratum.iter().map(|s| s.asn.to_string()).collect();
        let orgs: Vec<String> = pool
            .stratum
            .iter()
            .map(|s| {
                snapshot
                    .registry
                    .org_of(s.asn)
                    .map(|o| snapshot.registry.org_name(o).to_string())
                    .unwrap_or_else(|| "?".into())
            })
            .collect();
        t.row(vec![
            pool.name.clone(),
            num(pool.hash_share * 100.0, 1),
            ases.join(", "),
            orgs.join(", "),
        ]);
    }
    let minor_share: f64 = census
        .pools()
        .iter()
        .filter(|p| p.name.starts_with("minor"))
        .map(|p| p.hash_share)
        .sum();
    t.row(vec![
        "12 others".into(),
        num(minor_share * 100.0, 1),
        "—".into(),
        "—".into(),
    ]);

    let by_country = census.hash_share_by_country(&snapshot.registry);
    let china = by_country
        .get(&bp_topology::Country::China)
        .copied()
        .unwrap_or(0.0);
    let alibaba_sphere = census.isolated_share(&[Asn(45102), Asn(37963), Asn(58563)]);
    let notes = format!(
        "3-AS (AliBaba sphere) hash share: {:.1}%   China country share: {:.1}%\n",
        alibaba_sphere * 100.0,
        china * 100.0
    );
    Artifact::new(
        "table4",
        "Top 5 mining pools per hash rate (paper Table IV)",
        format!("{}{}", t.render(), notes),
    )
}

/// Figure 3 — CDF of full nodes over ASes and organizations.
pub fn fig3(snapshot: &Snapshot) -> Artifact {
    let as_curve = cumulative_share(&snapshot.as_weights());
    let org_curve = cumulative_share(&snapshot.org_weights());
    let to_points = |curve: &[f64]| -> Vec<(f64, f64)> {
        curve
            .iter()
            .enumerate()
            .map(|(i, &f)| ((i + 1) as f64, f))
            .collect()
    };
    let as_points = to_points(&as_curve);
    let org_points = to_points(&org_curve);

    let mut chart = LineChart::new(
        "CDF of Bitcoin full nodes in ASes and organizations",
        70,
        16,
    );
    chart.series(Series::new("Organizations", org_points.clone()));
    chart.series(Series::new("ASes", as_points.clone()));

    Artifact::new(
        "fig3",
        "CDF of nodes over ASes/organizations (paper Figure 3)",
        chart.render(),
    )
    .with_csv(
        "fig3_ases",
        csv::write_xy("rank", "cumulative_share", &as_points),
    )
    .with_csv(
        "fig3_orgs",
        csv::write_xy("rank", "cumulative_share", &org_points),
    )
}

/// The five ASes of Figure 4.
pub const FIGURE4_ASES: [Asn; 5] = [Asn(24940), Asn(16276), Asn(37963), Asn(16509), Asn(14061)];

/// Figure 4 — fraction of an AS's nodes hijacked vs. number of BGP
/// prefixes hijacked, for the top-5 ASes.
pub fn fig4(snapshot: &Snapshot) -> Artifact {
    let hijacks = HijackIndex::new(snapshot);
    let mut chart = LineChart::new(
        "Fraction of nodes hijacked vs. number of BGP prefix hijacks",
        70,
        16,
    );
    let mut artifact_csv = Vec::new();
    for asn in FIGURE4_ASES {
        let total_prefixes = snapshot
            .registry
            .as_record(asn)
            .map(|r| r.prefixes.len())
            .unwrap_or(0);
        let curve = hijacks.isolation_curve(asn);
        let points: Vec<(f64, f64)> = curve
            .iter()
            .take(160)
            .enumerate()
            .map(|(i, &f)| ((i + 1) as f64, f))
            .collect();
        chart.series(Series::new(
            format!("{asn} ({total_prefixes} prefixes)"),
            points.clone(),
        ));
        artifact_csv.push((
            format!("fig4_{}", asn.0),
            csv::write_xy("hijacked_prefixes", "fraction_isolated", &points),
        ));
    }

    // The headline numbers from the paper's narrative.
    let p95_hetzner = hijacks.prefixes_for_fraction(Asn(24940), 0.95);
    let p95_amazon = hijacks.prefixes_for_fraction(Asn(16509), 0.95);
    let notes = format!(
        "prefixes for 95% isolation — AS24940: {:?} (paper: ~15–40), AS16509: {:?} (paper: >140)\n",
        p95_hetzner, p95_amazon
    );
    let mut artifact = Artifact::new(
        "fig4",
        "BGP-hijack isolation curves for top-5 ASes (paper Figure 4)",
        format!("{}{}", chart.render(), notes),
    );
    for (name, contents) in artifact_csv {
        artifact = artifact.with_csv(name, contents);
    }
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn snapshot() -> Snapshot {
        Scenario::new().scale(0.1).build_static().0
    }

    #[test]
    fn table1_reports_three_families() {
        let a = table1(&snapshot());
        assert!(a.body.contains("IPv4"));
        assert!(a.body.contains("IPv6"));
        assert!(a.body.contains("TOR"));
        assert!(a.body.contains("total nodes"));
    }

    #[test]
    fn table2_leads_with_hetzner() {
        let a = table2(&snapshot());
        let first_row = a.body.lines().nth(2).unwrap();
        assert!(first_row.contains("AS24940"));
        assert!(first_row.contains("Hetzner"));
    }

    #[test]
    fn tables_survive_tiny_scale() {
        // A near-minimal population can leave connectivity families empty
        // and fewer than 10 ASes/organizations populated; the renderers
        // must degrade to "—" cells instead of panicking.
        let (snap, _) = Scenario::new().scale(0.003).seed(1).build_static();
        let t1 = table1(&snap);
        assert!(t1.body.contains("total nodes"));
        let t2 = table2(&snap);
        assert!(!t2.body.is_empty());
    }

    #[test]
    fn table3_shows_positive_centralization() {
        let a = table3(&snapshot());
        assert!(a.body.contains("ASes with 50% nodes"));
        assert!(a.body.contains("2017"));
    }

    #[test]
    fn table4_lists_btc_com_first() {
        let snap = snapshot();
        let a = table4(&snap, &PoolCensus::paper_table_iv());
        let first_row = a.body.lines().nth(2).unwrap();
        assert!(first_row.contains("BTC.com"));
        assert!(a.body.contains("12 others"));
        assert!(a.body.contains("China"));
    }

    #[test]
    fn fig3_exports_both_curves() {
        let a = fig3(&snapshot());
        assert_eq!(a.csv.len(), 2);
        assert!(a.body.contains("Organizations"));
    }

    #[test]
    fn fig4_has_five_series_and_csvs() {
        let a = fig4(&snapshot());
        assert_eq!(a.csv.len(), 5);
        assert!(a.body.contains("AS24940"));
        assert!(a.body.contains("AS16509"));
    }

    #[test]
    fn conn_type_used_in_table1_is_exhaustive() {
        use bp_topology::ConnType;
        // Guard: if a new ConnType is added, table1 must be revisited.
        let all = [ConnType::IPv4, ConnType::IPv6, ConnType::Tor];
        assert_eq!(all.len(), 3);
    }
}
