//! The flight recorder's end-to-end contract (`repro --trace`), on rows
//! A–E of the golden matrix (`tests/common/mod.rs`) plus one in-process
//! traced run of the subset rows' selection at a fourth worker count:
//!
//! * tracing a run changes no artifact byte, and the pipeline's metrics
//!   stay byte-identical with tracing on;
//! * the merged trace matches its golden line for any worker count;
//! * `trace timeline` rebuilds the crawler's published block-lag series
//!   (`fig6_day.csv`) from the trace alone, byte for byte.

mod common;

use bp_bench::cli::parse_args;
use bp_bench::pipeline::{run_pipeline, TraceHub};
use bp_bench::trace_cli::timeline_csv;
use btcpart::obs::trace::{decode_records, TraceCategory, TraceKind};
use btcpart::obs::Registry;
use common::{assert_golden, assert_rows_golden_where, read, row, PIPELINE, SUBSET};
use std::sync::OnceLock;

/// The subset rows' selection, traced and metered in process at
/// `--jobs 4`: its `metrics.json`, `metrics.csv` and `trace.bin` bytes.
fn traced_subset() -> &'static [common::Stream; 3] {
    static RUN: OnceLock<[common::Stream; 3]> = OnceLock::new();
    RUN.get_or_init(|| {
        let args: Vec<String> = PIPELINE
            .iter()
            .chain(&SUBSET)
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&args).unwrap();
        let reg = Registry::new();
        let hub = TraceHub::new();
        run_pipeline(&opts.config, &opts.ids, 4, Some(&reg), Some(&hub), None);
        let snap = reg.snapshot();
        [
            ("subset/metrics.json".into(), snap.to_json().into_bytes()),
            ("subset/metrics.csv".into(), snap.to_csv().into_bytes()),
            ("subset/trace.bin".into(), hub.merged().encode()),
        ]
    })
}

#[test]
fn trace_is_byte_identical_across_worker_counts() {
    // `all` at --jobs 8 and 2; the subset at --jobs 1 (E) and 4.
    assert_rows_golden_where(&["B", "C"], |stream| stream == "trace.bin");
    assert_rows_golden_where(&["E"], |stream| stream == "subset/trace.bin");
    assert_golden("in-process subset at --jobs 4", &traced_subset()[2..]);
}

#[test]
fn tracing_changes_no_artifact_or_metric_byte() {
    // Untraced A and traced B, C and E share every artifact line.
    assert_rows_golden_where(&["A", "B", "C"], |stream| {
        stream == "stdout" || stream.starts_with("csv/")
    });
    assert_rows_golden_where(&["E"], |stream| stream.starts_with("csv/"));
    // The pipeline itself exports no trace counters (the repro binary
    // adds them explicitly), so a traced run's metrics match the golden
    // lines of untraced row D.
    assert_golden("in-process subset at --jobs 4", &traced_subset()[..2]);
}

#[test]
fn timeline_reconstructs_the_day_crawl_series() {
    let dir = row("E");
    let records = decode_records(&read(&dir.join("trace/trace.bin"))).unwrap();
    let published = String::from_utf8(read(&dir.join("out/fig6_day.csv"))).unwrap();
    let rebuilt = timeline_csv(&records);
    for (i, (ours, theirs)) in rebuilt.lines().zip(published.lines()).enumerate() {
        assert_eq!(ours, theirs, "timeline diverges at line {}", i + 1);
    }
    assert_eq!(rebuilt.lines().count(), published.lines().count());

    // The trace carries all three component streams in fixed order:
    // net/crawler records first (day sim), then attack records.
    for kind in [
        TraceKind::Mine,
        TraceKind::CrawlSample,
        TraceKind::GridMine,
        TraceKind::ModelBisect,
    ] {
        assert!(records.iter().any(|r| r.kind == kind), "no {kind:?} record");
    }
    let first_attack = records
        .iter()
        .position(|r| r.kind.category() == TraceCategory::Attack)
        .unwrap();
    assert!(
        records[first_attack..]
            .iter()
            .all(|r| r.kind.category() == TraceCategory::Attack),
        "attack streams must come after the day stream"
    );
}
