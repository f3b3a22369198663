//! The observability layer must be invisible in the output and itself
//! deterministic, on rows A–D of the golden matrix
//! (`tests/common/mod.rs`): metering a run changes no artifact byte,
//! two metered runs (`--jobs 8` cold, `--jobs 2` warm) render the golden
//! `metrics.json` / `metrics.csv` and scheduler rows (span wall times
//! are excluded by design), and the metrics cover every metered
//! subsystem.

mod common;

use bp_bench::ARTIFACT_IDS;
use common::{assert_rows_golden_where, read, row};

#[test]
fn metered_run_has_byte_identical_artifacts() {
    // Unmetered A and metered B, C and D share every artifact line.
    assert_rows_golden_where(&["A", "B", "C"], |stream| {
        stream == "stdout" || stream.starts_with("csv/")
    });
    assert_rows_golden_where(&["D"], |stream| stream.starts_with("csv/"));
}

#[test]
fn two_metered_runs_render_identical_metrics() {
    assert_rows_golden_where(&["B", "C"], |stream| {
        stream.starts_with("metrics.") || stream == "tasks"
    });
}

#[test]
fn metrics_cover_all_metered_subsystems() {
    let csv = String::from_utf8(read(&row("B").join("metrics/metrics.csv"))).unwrap();
    let metric = |kind: &str, name: &str, field: &str| -> f64 {
        let prefix = format!("{kind},{name},{field},");
        csv.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("metrics.csv has no {prefix}"))
            .parse()
            .unwrap()
    };
    // Net simulation counters from both crawls, crawler sampling
    // counters, and the temporal model and grid sim counters.
    for counter in [
        "net.day.events.block",
        "net.general.events.block",
        "crawler.samples",
        "crawler.lag_cells",
        "temporal.model.cells",
        "temporal.model.bisection_steps",
        "temporal.grid.steps",
    ] {
        assert!(
            metric("counter", counter, "value") > 0.0,
            "{counter} is zero"
        );
    }
    assert!(metric("gauge", "net.day.queue.depth_hwm", "value") > 0.0);
    // Pipeline-level stage spans and totals.
    assert_eq!(metric("span", "pipeline.job.table6", "count"), 1.0);
    assert!(metric("span", "pipeline.shared.day_crawl", "count") > 0.0);
    assert_eq!(
        metric("counter", "pipeline.jobs", "value"),
        ARTIFACT_IDS.len() as f64
    );
    assert!(metric("counter", "pipeline.artifacts", "value") >= ARTIFACT_IDS.len() as f64);
}
