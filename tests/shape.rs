//! Paper-scale shape gate for the temporal artifacts: Figure 6 (day),
//! Table V and Figure 7 at 13,635 nodes and seed 20180228.
//!
//! The gate asserts only the DESIGN.md §3 shape expectations that the
//! model meets today, each with its tolerance stated next to it, and
//! prints the measured Figure 6 and Table V values so a change to the
//! gossip network can be compared against the numbers in EXPERIMENTS.md.
//! A 24-hour paper-scale crawl is too slow for a debug build, so the test
//! is ignored by default; run it with
//!
//! ```sh
//! cargo test --release --test shape -- --ignored --nocapture
//! ```

use bp_bench::{day_crawl, ReproConfig, DAY_PERIOD_SECS};
use btcpart::attacks::temporal::grid::{GridConfig, GridSim};
use btcpart::attacks::temporal::optimizer::{table_v, PAPER_TIMING_CONSTRAINTS};
use btcpart::crawler::{LagClass, VulnerabilityWindow};
use btcpart::experiments::temporal;
use btcpart::net::NetConfig;

#[test]
#[ignore = "paper scale; run with: cargo test --release --test shape -- --ignored --nocapture"]
fn temporal_artifacts_keep_the_paper_shape() {
    let config = ReproConfig::paper();
    let (crawl, _lab) = day_crawl(&config, None, false);
    let zombie_fraction = NetConfig::paper().zombie_fraction;

    // Figure 6: the measured values, then the forever-behind band.
    let samples = crawl.series.samples();
    let ten_plus: Vec<f64> = samples
        .iter()
        .map(|s| s.count(LagClass::TenPlus) as f64 / s.total() as f64)
        .collect();
    let late = &ten_plus[ten_plus.len() / 2..];
    let late_min = late.iter().copied().fold(f64::INFINITY, f64::min);
    let late_mean = late.iter().sum::<f64>() / late.len() as f64;
    println!(
        "shape gate: scale {}, seed {}, {} h day crawl sampled every {DAY_PERIOD_SECS} s ({} samples)",
        config.scale,
        config.seed,
        config.day_hours,
        samples.len()
    );
    println!(
        "Figure 6 (day): mean synced {:.1} %, peak >=1-behind {:.1} %, \
         >10-behind band over the last 12 h: min {:.2} %, mean {:.2} %",
        crawl.series.mean_synced_fraction() * 100.0,
        crawl.series.peak_fraction_at_least(LagClass::OneBehind) * 100.0,
        late_min * 100.0,
        late_mean * 100.0
    );

    // Table V, printed as `repro table5` renders it.
    println!("{}", temporal::table5(&crawl, DAY_PERIOD_SECS).body);
    let rows = table_v(&crawl.matrix, DAY_PERIOD_SECS, &PAPER_TIMING_CONSTRAINTS);

    // Figure 7: the counterfeit share of each panel.
    let panels = GridSim::new(GridConfig::figure7()).figure7_run();
    for panel in &panels {
        println!(
            "Figure 7: step {}: counterfeit share {:.1} %",
            panel.step,
            panel.counterfeit_fraction() * 100.0
        );
    }

    // Every Table V cell is defined: a 24 h crawl covers the 200-min window.
    let count =
        |w: &Option<VulnerabilityWindow>| w.expect("crawl shorter than the window").max_nodes;
    let fraction =
        |w: &Option<VulnerabilityWindow>| w.expect("crawl shorter than the window").fraction;

    // Each column does not increase as T grows. Exact: a node behind for
    // a longer window is behind for every shorter one inside it.
    for pair in rows.windows(2) {
        let (short, long) = (&pair[0], &pair[1]);
        for (name, a, b) in [
            (">=1", &short.ge1, &long.ge1),
            (">=2", &short.ge2, &long.ge2),
            (">=5", &short.ge5, &long.ge5),
        ] {
            assert!(
                count(b) <= count(a),
                "{name} column grows from T = {} ({}) to T = {} ({})",
                short.t_minutes,
                count(a),
                long.t_minutes,
                count(b)
            );
        }
    }

    // At each T the columns nest: >=1 >= >=2 >= >=5. Exact, for the same
    // reason along the lag axis.
    for row in &rows {
        let (ge1, ge2, ge5) = (count(&row.ge1), count(&row.ge2), count(&row.ge5));
        assert!(
            ge1 >= ge2 && ge2 >= ge5,
            "T = {}: >=1 {ge1}, >=2 {ge2}, >=5 {ge5} do not nest",
            row.t_minutes
        );
    }

    // The >=5 column sits on the zombie floor: no cell below the zombie
    // fraction minus 0.5 pp, and its long-T limit within 0.5 pp of it.
    // The paper's column runs 9.68 % to 8.16 %.
    for row in &rows {
        let ge5 = fraction(&row.ge5);
        assert!(
            ge5 >= zombie_fraction - 0.005,
            "T = {}: >=5 column {:.2} % is below the {:.0} % zombie floor",
            row.t_minutes,
            ge5 * 100.0,
            zombie_fraction * 100.0
        );
    }
    let limit = fraction(&rows.last().unwrap().ge5);
    assert!(
        (limit - zombie_fraction).abs() <= 0.005,
        ">=5 column at T = 200 is {:.2} %, not within 0.5 pp of {:.0} %",
        limit * 100.0,
        zombie_fraction * 100.0
    );

    // The forever-behind band: once the chain is well past ten blocks,
    // every sample holds at least the zombie fraction minus 0.5 pp more
    // than ten blocks behind, and the band's mean stays within 3 pp above
    // it (churned nodes resyncing add a little).
    assert!(
        late_min >= zombie_fraction - 0.005,
        ">10-behind band dips to {:.2} % in the last 12 h",
        late_min * 100.0
    );
    assert!(
        late_mean <= zombie_fraction + 0.03,
        ">10-behind band averages {:.2} % in the last 12 h",
        late_mean * 100.0
    );

    // Figure 7: panels at the paper's steps, with the counterfeit fork
    // holding cells at step 151 and 201 (any share above zero).
    let steps: Vec<u64> = panels.iter().map(|p| p.step).collect();
    assert_eq!(steps, [151, 201, 251], "Figure 7 panels moved");
    for panel in &panels[..2] {
        assert!(
            panel.counterfeit_fraction() > 0.0,
            "no counterfeit fork at step {}",
            panel.step
        );
    }
}
