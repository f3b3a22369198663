//! Temporal experiments: Figure 6, Table V, Table VI and Figure 7.

use super::Artifact;
use bp_analysis::chart::StackedAreaChart;
use bp_analysis::csv;
use bp_analysis::table::{num, thousands, Align, TextTable};
use bp_attacks::temporal::grid::{GridConfig, GridSim};
use bp_attacks::temporal::model::TemporalModel;
use bp_attacks::temporal::optimizer::{table_v, PAPER_TIMING_CONSTRAINTS};
use bp_crawler::{CrawlResult, Crawler, LagClass};
use bp_net::Simulation;
use bp_topology::Snapshot;

/// Drives the simulation with a crawler and returns the crawl used by the
/// Figure 6 / Table V / Figure 8 artifacts.
///
/// `warmup_secs` lets the network reach steady state before sampling.
/// Crawler sampling cost is recorded into `reg` when given; the crawl
/// result is identical with or without a registry.
pub fn run_crawl(
    sim: &mut Simulation,
    snapshot: &Snapshot,
    warmup_secs: u64,
    duration_secs: u64,
    sample_period_secs: u64,
    reg: Option<&bp_obs::Registry>,
) -> CrawlResult {
    sim.run_for_secs(warmup_secs);
    Crawler::new(sample_period_secs).crawl_with_metrics(sim, snapshot, duration_secs, reg)
}

/// Figure 6 — the stacked consensus series (one panel; the paper's three
/// panels differ only in duration and sampling period). `window` limits
/// the panel, chart and CSV alike, to a slice of the crawl (`None` =
/// everything) — the paper's Figure 6(c) zooms into the minutes between
/// two successive blocks.
pub fn fig6(crawl: &CrawlResult, panel: &str, window: Option<std::ops::Range<usize>>) -> Artifact {
    let labels: Vec<String> = LagClass::ALL
        .iter()
        .map(|c| c.label().to_string())
        .collect();
    let mut chart = StackedAreaChart::new(format!("Temporal consensus — {panel}"), labels, 16);
    let columns = crawl.series.stacked_columns();
    let len = columns.len();
    let range = window.map_or(0..len, |w| w.start.min(len)..w.end.min(len));
    for column in &columns[range.clone()] {
        chart.push_column(column.clone());
    }

    let peak_behind = crawl.series.peak_fraction_at_least(LagClass::OneBehind);
    let mean_synced = crawl.series.mean_synced_fraction();
    let notes = format!(
        "mean synced fraction: {:.1}% (paper: ~50%)   peak >=1-behind fraction: {:.1}% (paper: spikes to ~90%)\n",
        mean_synced * 100.0,
        peak_behind * 100.0
    );

    let mut rows = vec![vec![
        "t_secs".to_string(),
        "synced".to_string(),
        "one_behind".to_string(),
        "two_to_four".to_string(),
        "five_to_ten".to_string(),
        "ten_plus".to_string(),
    ]];
    for sample in &crawl.series.samples()[range] {
        let mut row = vec![sample.at.as_secs().to_string()];
        row.extend(sample.counts.iter().map(|c| c.to_string()));
        rows.push(row);
    }

    Artifact::new(
        format!("fig6_{panel}"),
        format!("Temporal consensus stack, {panel} (paper Figure 6)"),
        format!("{}{}", chart.render(), notes),
    )
    .with_csv(format!("fig6_{panel}"), csv::write(&rows))
}

/// Table V — maximum vulnerable nodes per timing constraint.
pub fn table5(crawl: &CrawlResult, sample_period_secs: u64) -> Artifact {
    let rows = table_v(&crawl.matrix, sample_period_secs, &PAPER_TIMING_CONSTRAINTS);
    let mut t = TextTable::new(
        ["T (minutes)", ">=1 block", ">=2 blocks", ">=5 blocks"]
            .map(String::from)
            .to_vec(),
    );
    for col in 0..4 {
        t.align(col, Align::Right);
    }
    let cell = |w: &Option<bp_crawler::VulnerabilityWindow>| -> String {
        match w {
            Some(v) => format!(
                "{} ({:.2}%)",
                thousands(v.max_nodes as u64),
                v.fraction * 100.0
            ),
            None => "—".to_string(),
        }
    };
    for row in &rows {
        t.row(vec![
            row.t_minutes.to_string(),
            cell(&row.ge1),
            cell(&row.ge2),
            cell(&row.ge5),
        ]);
    }
    Artifact::new(
        "table5",
        "Maximum number of vulnerable nodes (paper Table V)",
        t.render(),
    )
}

/// The λ and m grids of Table VI.
pub const TABLE6_LAMBDAS: [f64; 6] = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
/// See [`TABLE6_LAMBDAS`].
pub const TABLE6_TARGETS: [u64; 7] = [100, 300, 500, 800, 1000, 1200, 1500];

/// Table VI — the minimum timing constraint `T` to isolate each of
/// [`TABLE6_TARGETS`] nodes with probability ≥ 0.8, for every rate in
/// [`TABLE6_LAMBDAS`] (Eq. 5 bisection). Model evaluation counts
/// (`temporal.model.cells`, `temporal.model.bisection_steps`) land in
/// `reg` and one `model_bisect` record per cell in `tracer`; the table
/// is identical with or without instrumentation.
pub fn table6(reg: Option<&bp_obs::Registry>, tracer: Option<&mut bp_obs::Tracer>) -> Artifact {
    let grid = TemporalModel::table_vi(&TABLE6_LAMBDAS, &TABLE6_TARGETS, 0.8, reg, tracer);
    let mut headers = vec!["λ \\ m".to_string()];
    headers.extend(TABLE6_TARGETS.iter().map(|m| m.to_string()));
    let mut t = TextTable::new(headers);
    for col in 0..=TABLE6_TARGETS.len() {
        t.align(col, Align::Right);
    }
    for (lambda, row) in &grid {
        let mut cells = vec![num(*lambda, 1)];
        cells.extend(row.iter().map(|v| match v {
            Some(t) => t.to_string(),
            None => "—".to_string(),
        }));
        t.row(cells);
    }
    Artifact::new(
        "table6",
        "Minimum timing constraint T (seconds) to isolate m nodes (paper Table VI)",
        t.render(),
    )
}

/// Propagation / sync-recovery measurement (the Decker–Wattenhofer
/// delay analysis the paper builds on, §V-B/§VII): samples the network
/// every 10 seconds for `hours` and summarises how long the synced
/// population takes to recover after each block.
pub fn propagation(sim: &mut Simulation, snapshot: &Snapshot, hours: u64) -> Artifact {
    use bp_analysis::histogram::Histogram;
    use bp_crawler::propagation::{adaptive_thresholds, recovery_episodes, recovery_summary};

    let crawl = Crawler::new(10).crawl(sim, snapshot, hours * 3600);
    let (collapse, recovered) = adaptive_thresholds(&crawl.series);
    let episodes = recovery_episodes(&crawl.series, collapse, recovered);
    let mut hist = Histogram::new(0.0, 900.0, 18);
    for e in &episodes {
        hist.add(e.recovery_secs);
    }

    let body = if episodes.is_empty() {
        "no recovery episodes observed (network too fast or too slow for the thresholds)
"
        .to_string()
    } else {
        let summary = recovery_summary(&episodes);
        format!(
            "{} episodes; recovery to 50% synced: median {:.0} s, p90 {:.0} s, max {:.0} s

{}",
            episodes.len(),
            summary.median(),
            summary.quantile(0.9),
            summary.max(),
            hist
        )
    };
    Artifact::new(
        "propagation",
        "Block propagation / sync recovery after each block (§V-B)",
        body,
    )
}

/// Figure 7 — the grid fork simulation panels at steps 151, 201, 251.
///
/// Grid-sim counters are exported under `temporal.grid.*` when `reg` is
/// given, and the run's mine / release / snapshot events are appended to
/// `tracer` when given. The rendered panels are identical with or
/// without instrumentation.
pub fn fig7(reg: Option<&bp_obs::Registry>, tracer: Option<&mut bp_obs::Tracer>) -> Artifact {
    let mut grid_sim = GridSim::new(GridConfig::figure7());
    if tracer.is_some() {
        grid_sim.set_tracer(bp_obs::Tracer::new());
    }
    let snapshots = grid_sim.figure7_run();
    if let Some(reg) = reg {
        grid_sim.export_metrics(reg, "temporal.grid");
    }
    if let (Some(out), Some(recorded)) = (tracer, grid_sim.take_tracer()) {
        out.append(recorded);
    }
    let mut body = String::new();
    for snap in &snapshots {
        body.push_str(&snap.render());
        body.push_str(&format!(
            "counterfeit share: {:.1}%\n\n",
            snap.counterfeit_fraction() * 100.0
        ));
    }
    body.push_str(
        "(lowercase cells follow a counterfeit chain; 'A' is the main chain,\n 'B'/'C'/… are successive forks)\n",
    );
    Artifact::new(
        "fig7",
        "Grid simulation of the temporal attack (paper Figure 7)",
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn quick_crawl() -> (CrawlResult, u64) {
        let mut lab = Scenario::new().scale(0.02).fast_network().build();
        let crawl = run_crawl(&mut lab.sim, &lab.snapshot, 600, 3000, 60, None);
        (crawl, 60)
    }

    #[test]
    fn fig6_renders_all_bands() {
        let (crawl, _) = quick_crawl();
        let a = fig6(&crawl, "test", None);
        assert!(a.body.contains("up-to-date"));
        assert!(a.body.contains("mean synced"));
        assert_eq!(a.csv.len(), 1);
        // CSV has header + one row per sample.
        let rows = a.csv[0].1.lines().count();
        assert_eq!(rows, crawl.series.len() + 1);
    }

    #[test]
    fn table5_has_all_paper_constraints() {
        let (crawl, period) = quick_crawl();
        let a = table5(&crawl, period);
        for t in PAPER_TIMING_CONSTRAINTS {
            assert!(
                a.body.contains(&format!("\n{t} ")) || a.body.contains(&format!(" {t} ")),
                "constraint {t} missing from table5"
            );
        }
    }

    #[test]
    fn table6_matches_paper_grid_shape() {
        let a = table6(None, None);
        // Headline cell: λ=0.8, m=500 → ~589 s.
        assert!(
            a.body.contains("589") || a.body.contains("588") || a.body.contains("590"),
            "table6 headline cell missing:\n{}",
            a.body
        );
        assert!(a.body.lines().count() >= 8);
    }

    #[test]
    fn propagation_artifact_summarises_recoveries() {
        let mut lab = Scenario::new().scale(0.02).fast_network().build();
        lab.sim.run_for_secs(600);
        let a = propagation(&mut lab.sim, &lab.snapshot, 2);
        assert!(
            a.body.contains("episodes") || a.body.contains("no recovery"),
            "unexpected body: {}",
            a.body
        );
    }

    #[test]
    fn fig7_renders_three_panels() {
        let a = fig7(None, None);
        assert_eq!(a.body.matches("grid at step").count(), 3);
        assert!(a.body.contains("counterfeit share"));
    }

    #[test]
    fn instrumented_variants_match_plain_artifacts() {
        let mut tracer = bp_obs::Tracer::new();
        let fig7_traced = fig7(None, Some(&mut tracer));
        assert_eq!(fig7_traced.body, fig7(None, None).body);
        let grid_records = tracer.len();
        assert!(grid_records > 0, "grid run emitted no trace records");

        let table6_traced = table6(None, Some(&mut tracer));
        assert_eq!(table6_traced.body, table6(None, None).body);
        let model_records = tracer.len() - grid_records;
        // One bisect record per sweep cell.
        assert_eq!(model_records, TABLE6_LAMBDAS.len() * TABLE6_TARGETS.len());
    }

    #[test]
    fn table6_cells_are_the_least_feasible_t() {
        // Paper §V-B, Eq. 5: each cell is the least T whose union bound
        // b(m, T) reaches p = 0.8, so the bound holds at T and fails at
        // T − 1.
        let ln_p = 0.8f64.ln();
        let grid = TemporalModel::table_vi(&TABLE6_LAMBDAS, &TABLE6_TARGETS, 0.8, None, None);
        for (lambda, row) in &grid {
            let model = TemporalModel::new(*lambda);
            for (&m, cell) in TABLE6_TARGETS.iter().zip(row) {
                let t = cell.unwrap_or_else(|| panic!("λ={lambda}, m={m} has no T"));
                assert!(
                    model.ln_isolation_bound(m, t) >= ln_p,
                    "λ={lambda}, m={m}: b(m, {t}) < 0.8"
                );
                assert!(
                    model.ln_isolation_bound(m, t - 1) < ln_p,
                    "λ={lambda}, m={m}: T={t} is not the least feasible value"
                );
            }
        }
        // The λ = 0.8 and λ = 0.9 rows as printed in the paper.
        let row = |lambda: f64| -> Vec<u64> {
            let (_, cells) = grid.iter().find(|(l, _)| *l == lambda).unwrap();
            cells.iter().map(|c| c.unwrap()).collect()
        };
        assert_eq!(row(0.8), [119, 354, 589, 942, 1177, 1412, 1765]);
        assert_eq!(row(0.9), [116, 346, 575, 920, 1149, 1379, 1723]);
    }
}
