//! End-to-end attack pipelines across all crates: recon → plan → execute
//! → measure → recover, for each of the paper's four attacks.

use btcpart::attacks::logical::{exploit, NvdCensus};
use btcpart::attacks::spatial::eclipse_as;
use btcpart::attacks::spatiotemporal::{execute, plan};
use btcpart::attacks::temporal::{run_temporal_attack, TemporalAttackConfig};
use btcpart::bgp::HijackIndex;
use btcpart::crawler::{Crawler, LagClass};
use btcpart::net::NetConfig;
use btcpart::topology::Asn;
use btcpart::{Lab, Scenario};

fn measurement_lab(seed: u64) -> Lab {
    Scenario::new()
        .scale(0.08)
        .seed(seed)
        .net_config(NetConfig {
            seed: seed + 1,
            diffusion_mean_ms: 40_000.0,
            failure_rate: 0.12,
            zombie_fraction: 0.08,
            ..NetConfig::paper()
        })
        .build()
}

#[test]
fn spatial_pipeline_isolates_and_recovers() {
    let mut lab = measurement_lab(100);
    lab.sim.run_for_secs(3 * 600);

    let before_best = lab.sim.network_best();
    let report = eclipse_as(
        &mut lab.sim,
        &HijackIndex::new(&lab.snapshot),
        &lab.census,
        Asn(24940),
        20,
        6 * 600,
    );
    assert!(report.isolated > 20, "only {} isolated", report.isolated);
    assert!(report.victim_lag_blocks >= 1);
    assert!(lab.sim.network_best() > before_best, "mining stalled");

    // After the hijack is lifted the victims rejoin the main chain.
    lab.sim.run_for_secs(4 * 600);
    let lags = lab.sim.lags();
    let still_far_behind = lags.iter().filter(|&&l| l > 6).count();
    assert!(
        (still_far_behind as f64) < 0.25 * lags.len() as f64,
        "{still_far_behind}/{} nodes never recovered",
        lags.len()
    );
}

#[test]
fn temporal_pipeline_crawl_optimize_attack() {
    let mut lab = measurement_lab(200);
    lab.sim.run_for_secs(4 * 600);

    // Recon: the crawler's matrix feeds the paper's optimization.
    let crawl = Crawler::new(60).crawl(&mut lab.sim, &lab.snapshot, 2400);
    let window = crawl
        .matrix
        .max_vulnerable(5, 1)
        .expect("crawl long enough for a 5-sample window");
    assert!(
        window.fraction > 0.05,
        "lossy network shows no vulnerability: {window:?}"
    );

    // Execute against the live network.
    let report = run_temporal_attack(
        &mut lab.sim,
        TemporalAttackConfig {
            duration_secs: 2 * 600,
            max_targets: 150,
            ..TemporalAttackConfig::paper()
        },
    );
    assert!(!report.victims.is_empty());
    assert!(report.peak_fraction() > 0.4, "{}", report.peak_fraction());
    // The capture timeline is recorded minute by minute.
    assert!(report.capture_timeline.len() >= 10);
}

#[test]
fn spatiotemporal_pipeline_plans_from_crawl() {
    let mut lab = measurement_lab(300);
    lab.sim.run_for_secs(2 * 600);
    let crawl = Crawler::new(120).crawl(&mut lab.sim, &lab.snapshot, 3600);

    let attack_plan = plan(&crawl, 5);
    assert_eq!(attack_plan.spatial_targets.len(), 5);
    assert!(attack_plan.behind_count > 0);

    let targets: Vec<Asn> = attack_plan
        .spatial_targets
        .iter()
        .map(|(asn, _)| *asn)
        .collect();
    let report = execute(
        &mut lab.sim,
        &lab.snapshot,
        &lab.census,
        &targets,
        TemporalAttackConfig {
            duration_secs: 600,
            max_targets: 100,
            ..TemporalAttackConfig::paper()
        },
    );
    assert!(report.spatially_isolated > 0);
    assert!(report.disrupted_fraction > 0.05, "{report:?}");
}

#[test]
fn logical_pipeline_crashes_affected_versions() {
    let mut lab = measurement_lab(400);
    lab.sim.run_for_secs(2 * 600);
    let nvd = NvdCensus::paper();

    let universal = nvd.get("CVE-2018-17144").unwrap();
    let report = exploit(&mut lab.sim, &lab.snapshot, universal, 600);
    assert!(report.crashed_fraction > 0.5, "{report:?}");

    let ancient = nvd.get("CVE-2013-5700").unwrap();
    let report2 = exploit(&mut lab.sim, &lab.snapshot, ancient, 600);
    assert!(
        report2.crashed_fraction < report.crashed_fraction / 5.0,
        "ancient CVE too strong: {report2:?}"
    );
}

#[test]
fn blockaware_countermeasure_shrinks_capture() {
    let attack = TemporalAttackConfig {
        duration_secs: 3 * 600,
        max_targets: 120,
        seed: 77,
        ..TemporalAttackConfig::paper()
    };
    let mut lab_a = measurement_lab(500);
    lab_a.sim.run_for_secs(4 * 600);
    let unprotected = run_temporal_attack(&mut lab_a.sim, attack);

    let mut lab_b = measurement_lab(500);
    lab_b.sim.run_for_secs(4 * 600);
    let protected = run_temporal_attack(
        &mut lab_b.sim,
        TemporalAttackConfig {
            blockaware_threshold_secs: Some(600),
            ..attack
        },
    );
    assert!(protected.blockaware_escapes > 0);
    assert!(
        protected.captured_final <= unprotected.captured_final,
        "protected {} vs unprotected {}",
        protected.captured_final,
        unprotected.captured_final
    );
}

#[test]
fn crawler_series_covers_whole_population() {
    let mut lab = measurement_lab(600);
    let crawl = Crawler::new(60).crawl(&mut lab.sim, &lab.snapshot, 1800);
    for sample in crawl.series.samples() {
        assert_eq!(sample.total(), lab.sim.node_count());
    }
    // Zombies guarantee a persistent ≥10-behind band eventually; at
    // minimum the class partition is internally consistent.
    let last = crawl.series.samples().last().unwrap();
    let sum: usize = LagClass::ALL.iter().map(|c| last.count(*c)).sum();
    assert_eq!(sum, last.total());
}
