//! The parallel artifact pipeline must be invisible in the output:
//! `repro --quick all` produces the golden artifacts whether it runs on
//! one worker (row A of the golden matrix, `tests/common/mod.rs`) or
//! many (row B), in presentation order, and a subset selection (row D)
//! produces exactly the full run's CSVs while building only the shared
//! inputs it needs. A job that reads a shared input prints the full
//! run's text when selected alone, too.

mod common;

use bp_bench::cli::parse_args;
use bp_bench::pipeline::run_pipeline;
use bp_bench::ARTIFACT_IDS;
use common::{assert_golden, assert_rows_golden_where, json_str, read, row, PIPELINE};
use std::path::Path;

/// The shared stages a pipeline run in `dir` built, in build order.
fn shared_stages(dir: &Path) -> Vec<String> {
    let bench = String::from_utf8(read(&dir.join("metrics/BENCH_pipeline.json"))).unwrap();
    bench
        .lines()
        .filter(|l| l.contains("\"kind\": \"shared\""))
        .map(|l| json_str(l, "id").to_string())
        .collect()
}

fn artifact_stream(stream: &str) -> bool {
    stream == "stdout" || stream.starts_with("csv/")
}

#[test]
fn all_artifacts_identical_serial_vs_parallel() {
    // `--jobs 1` and `--jobs 8` both match the one golden line of every
    // artifact stream, so they match each other byte for byte.
    assert_rows_golden_where(&["A", "B"], artifact_stream);
}

/// Jobs finish in any order, but results are reassembled in
/// `ARTIFACT_IDS` order.
#[test]
fn artifacts_come_out_in_presentation_order() {
    let stdout = String::from_utf8(read(&row("A").join("stdout"))).unwrap();
    let job_pos = |artifact_id: &str| -> usize {
        // Some jobs emit artifacts whose ids differ from the job id.
        let owning_job = match artifact_id {
            "cve_exposure" => "table8",
            "blockaware_sweep"
            | "stratum_diversification"
            | "route_purging"
            | "blockaware_defense" => "countermeasures",
            "ablation_relay" | "ablation_degree" | "ablation_span" => "ablations",
            other => other,
        };
        ARTIFACT_IDS
            .iter()
            .position(|&id| id == owning_job)
            .unwrap_or_else(|| panic!("artifact {artifact_id} maps to no job"))
    };
    let positions: Vec<usize> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("=== "))
        .map(|l| job_pos(l.split(' ').next().unwrap()))
        .collect();
    assert!(positions.len() >= ARTIFACT_IDS.len(), "too few artifacts");
    assert!(
        positions.windows(2).all(|w| w[0] <= w[1]),
        "artifacts are out of presentation order"
    );
}

#[test]
fn subset_selection_matches_full_run_artifacts() {
    // The subset's CSVs share their golden lines with the full run's.
    assert_rows_golden_where(&["D"], |stream| stream.starts_with("csv/"));
    // It computes only the shared inputs its jobs consume.
    assert_eq!(shared_stages(&row("D")), ["static", "day_crawl"]);
}

/// The general crawl continues the day crawl's simulation, so selecting
/// Figure 6(a) alone runs the day crawl too — and still renders the
/// full run's CSV.
#[test]
fn general_only_selection_runs_the_day_crawl_first() {
    let dir = common::scratch("general_only");
    common::run_pipeline_row(&dir, None, &["metrics"], &["fig6_general"]);
    assert_eq!(shared_stages(&dir), ["day_crawl", "general_crawl"]);
    let csv = read(&dir.join("out/fig6_general.csv"));
    assert_golden(
        "fig6_general alone",
        &[("csv/fig6_general.csv".to_string(), csv)],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A static render, a day render and the one fan-out that reads a
/// shared input, each selected alone and run in process, print exactly
/// the text the full run (row A) prints for them. None of the three
/// exports a CSV, so their printed bodies are what pins them.
#[test]
fn shared_input_readers_alone_match_the_full_run() {
    let full = String::from_utf8(read(&row("A").join("stdout"))).unwrap();
    for id in ["table8", "table7", "countermeasures"] {
        let args: Vec<String> = PIPELINE
            .iter()
            .chain(&[id])
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&args).unwrap();
        let (artifacts, _) = run_pipeline(&opts.config, &opts.ids, 2, None, None, None);
        let printed: String = artifacts.iter().map(|a| format!("{a}\n")).collect();
        assert!(!artifacts.is_empty(), "{id} alone renders nothing");
        assert!(
            full.contains(&printed),
            "{id} alone prints text the full run does not:\n{printed}"
        );
    }
}
