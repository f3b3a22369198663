//! End-to-end contract for the detection layer (`repro --detect`,
//! `repro --detect-matrix`):
//!
//! * a benign traced pipeline run raises zero alerts — online (tapped
//!   off the `TraceHub` as streams land) and offline (replaying the
//!   merged trace) — and the two alert streams are byte-identical;
//! * the tapped record stream, and therefore the alert stream, is
//!   byte-identical across worker counts;
//! * replaying a matrix trace through the engine reproduces the alert
//!   stream embedded in it, byte for byte;
//! * the scored matrix meets the headline gates at test scale: zero
//!   false alerts for every detector in every scenario, and the wide
//!   partitions are detected inside their attack windows.

use bp_bench::detect::{run_detect_matrix, SCENARIOS};
use bp_bench::pipeline::{run_pipeline_traced, TraceHub};
use bp_bench::ReproConfig;
use bp_detect::{DetectConfig, DetectEngine, OnlineTap};
use btcpart::obs::trace::{decode_trace, encode_records, TraceCategory};
use std::sync::Arc;

fn test_config() -> ReproConfig {
    ReproConfig {
        scale: 0.02,
        day_hours: 1,
        general_hours: 1,
        ..ReproConfig::quick()
    }
}

/// The day crawl is the stream detection listens to; a second artifact
/// keeps the scheduler honest.
fn traced_ids() -> Vec<String> {
    ["table1", "fig6_day"].map(String::from).to_vec()
}

fn tapped_hub() -> (TraceHub, Arc<OnlineTap>) {
    let hub = TraceHub::new();
    let tap = Arc::new(OnlineTap::new());
    let sink = Arc::clone(&tap);
    hub.set_tap(move |rank, name, tracer| sink.absorb(rank, name, &tracer.records()));
    (hub, tap)
}

fn alerts_of(records: &[btcpart::obs::trace::TraceRecord]) -> Vec<u8> {
    let mut engine = DetectEngine::new(DetectConfig::default());
    engine.feed_all(records);
    encode_records(&engine.finish().alerts)
}

#[test]
fn benign_pipeline_is_quiet_online_and_offline() {
    let config = test_config();
    let (hub, tap) = tapped_hub();
    run_pipeline_traced(&config, &traced_ids(), 2, None, Some(&hub));

    // The tap saw exactly what the hub retained: the online stream IS
    // the offline trace.
    let online = tap.merged();
    let offline = hub.merged().into_records();
    assert!(!online.is_empty(), "tap absorbed nothing");
    assert_eq!(encode_records(&online), encode_records(&offline));

    // Benign run: zero alerts, and (trivially but byte-checked) the
    // online and offline alert streams agree.
    let online_alerts = alerts_of(&online);
    let offline_alerts = alerts_of(&offline);
    assert_eq!(online_alerts, encode_records(&[]), "benign run alerted");
    assert_eq!(online_alerts, offline_alerts);
}

#[test]
fn tapped_stream_is_byte_identical_across_worker_counts() {
    let config = test_config();
    let (hub1, tap1) = tapped_hub();
    run_pipeline_traced(&config, &traced_ids(), 1, None, Some(&hub1));
    let (hub8, tap8) = tapped_hub();
    run_pipeline_traced(&config, &traced_ids(), 8, None, Some(&hub8));

    let records1 = tap1.merged();
    let records8 = tap8.merged();
    assert_eq!(encode_records(&records1), encode_records(&records8));
    assert_eq!(alerts_of(&records1), alerts_of(&records8));
}

#[test]
fn matrix_traces_replay_to_their_embedded_alerts() {
    let result = run_detect_matrix(&test_config());
    for (file, bytes) in &result.traces {
        let (records, dropped) = decode_trace(bytes).expect("matrix trace decodes");
        assert_eq!(dropped, 0);
        let embedded: Vec<_> = records
            .iter()
            .filter(|r| r.kind.category() == TraceCategory::Detect)
            .cloned()
            .collect();
        // The engine skips detect-category records, so replaying a
        // trace with alerts appended regenerates exactly those alerts.
        assert_eq!(
            alerts_of(&records),
            encode_records(&embedded),
            "{file} does not reproduce its own alert stream"
        );
        // The wide partition reliably alerts at this scale, which keeps
        // the replay identity non-vacuous.
        if file == "trace_cut_half.bin" {
            assert!(!embedded.is_empty(), "{file} carries no alerts");
        }
    }
}

#[test]
fn matrix_meets_the_headline_gates() {
    let result = run_detect_matrix(&test_config());
    assert_eq!(result.scores.len(), SCENARIOS.len());
    for (scenario, scores) in &result.scores {
        assert_eq!(scores.len(), 4, "{scenario} is missing detector rows");
        for s in scores {
            assert_eq!(
                s.false_alerts, 0,
                "{scenario}/{} raised false alerts",
                s.detector
            );
            if scenario == "benign" {
                assert_eq!(s.alerts, 0, "benign/{} alerted", s.detector);
            }
        }
    }
    // The wide partitions are caught inside their windows even at this
    // tiny scale (the full latency/coverage gates run on the quick
    // profile in CI's detect-smoke job).
    for scenario in ["cut_half", "miner_cut"] {
        let (_, scores) = result
            .scores
            .iter()
            .find(|(name, _)| name == scenario)
            .expect("scenario scored");
        assert!(
            scores.iter().any(|s| s.latency_ms.is_some()),
            "{scenario} went undetected"
        );
    }
}
