//! End-to-end contract for the detection layer (`repro --detect`,
//! `repro --detect-matrix`), on rows B, C and G of the golden matrix
//! (`tests/common/mod.rs`):
//!
//! * a benign traced pipeline run raises zero alerts, and replaying its
//!   exported trace offline reproduces the online tap's report and
//!   alert stream;
//! * the tapped record stream, and therefore the alert stream, matches
//!   its golden line at `--jobs 8` and `--jobs 2`;
//! * replaying a matrix trace through the engine reproduces the alert
//!   stream embedded in it, byte for byte;
//! * the scored matrix meets the headline gates at test scale: zero
//!   false alerts for every detector in every scenario, and the wide
//!   partitions are detected inside their attack windows.

mod common;

use bp_detect::{DetectConfig, DetectEngine, DetectReport};
use btcpart::obs::trace::{decode_records, encode_records, TraceCategory, TraceRecord};
use common::{assert_rows_golden, assert_rows_golden_where, read, row};

/// Replays records through the detection suite, as `trace detect` does.
fn replay(records: &[TraceRecord]) -> DetectReport {
    let mut engine = DetectEngine::new(DetectConfig::default());
    engine.feed_all(records);
    engine.finish()
}

#[test]
fn benign_pipeline_is_quiet_online_and_offline() {
    let dir = row("B");
    let alerts = read(&dir.join("detect/alerts.bin"));
    assert_eq!(alerts, encode_records(&[]), "benign run alerted");
    let records = decode_records(&read(&dir.join("trace/trace.bin"))).unwrap();
    assert!(!records.is_empty(), "traced run recorded nothing");
    // The offline replay reproduces the online tap's report (record and
    // tick counts included) and alert stream.
    let offline = replay(&records);
    assert_eq!(
        offline.render().into_bytes(),
        read(&dir.join("detect/detect_report.txt")),
        "offline replay differs from the online tap"
    );
    assert_eq!(encode_records(&offline.alerts), alerts);
}

#[test]
fn tapped_stream_is_byte_identical_across_worker_counts() {
    assert_rows_golden_where(&["B", "C"], |stream| {
        stream == "alerts.bin" || stream == "trace.bin"
    });
}

#[test]
fn matrix_traces_replay_to_their_embedded_alerts() {
    assert_rows_golden(&["G"]);
    let dir = row("G").join("matrix");
    for scenario in bp_bench::detect::SCENARIOS {
        let file = format!("trace_{scenario}.bin");
        let records = decode_records(&read(&dir.join(&file))).unwrap();
        let embedded: Vec<_> = records
            .iter()
            .filter(|r| r.kind.category() == TraceCategory::Detect)
            .cloned()
            .collect();
        // The engine skips detect-category records, so replaying a
        // trace with alerts appended regenerates exactly those alerts.
        assert_eq!(
            encode_records(&replay(&records).alerts),
            encode_records(&embedded),
            "{file} does not reproduce its own alert stream"
        );
        // The wide partition reliably alerts at this scale, which keeps
        // the replay identity non-vacuous.
        if scenario == "cut_half" {
            assert!(!embedded.is_empty(), "{file} carries no alerts");
        }
    }
}

#[test]
fn matrix_meets_the_headline_gates() {
    let roc = String::from_utf8(read(&row("G").join("matrix/detection_roc.csv"))).unwrap();
    let rows: Vec<Vec<&str>> = roc
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    assert_eq!(
        rows.len(),
        bp_bench::detect::SCENARIOS.len() * 4,
        "missing detector rows"
    );
    for r in &rows {
        let (scenario, detector, alerts, false_alerts) = (r[0], r[1], r[2], r[4]);
        assert_eq!(
            false_alerts, "0",
            "{scenario}/{detector} raised false alerts"
        );
        if scenario == "benign" {
            assert_eq!(alerts, "0", "benign/{detector} alerted");
        }
    }
    // The wide partitions are caught inside their windows even at this
    // tiny scale (the full latency/coverage gates run on the quick
    // profile in CI's detect-smoke job).
    for scenario in ["cut_half", "miner_cut"] {
        assert!(
            rows.iter().any(|r| r[0] == scenario && r[5] != "-1"),
            "{scenario} went undetected"
        );
    }
}
