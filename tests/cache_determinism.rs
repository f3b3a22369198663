//! The content-addressed artifact cache must be invisible in every
//! output stream while doing less work, with one store entry per job
//! and per shared build. A warm run replays every stream
//! of the cold run's golden lines at another worker count while
//! skipping at least 90 % of the task graph (rows B and C of the golden
//! matrix, `tests/common/mod.rs`); key changes (config fields, seed)
//! invalidate exactly the dependent subgraph; corrupted or truncated
//! store entries are detected, evicted and recomputed rather than
//! served or panicked on; and any config and selection round-trips
//! through the store.

mod common;

use bp_bench::cache::ArtifactStore;
use bp_bench::pipeline::{run_pipeline, RunReport, TraceHub};
use bp_bench::ReproConfig;
use btcpart::experiments::Artifact;
use btcpart::obs::trace::{first_divergence, TraceRecord};
use btcpart::obs::Registry;
use proptest::prelude::*;
use std::path::Path;

fn test_config() -> ReproConfig {
    // The quick-profile shape at a slightly smaller scale: every job
    // runs, including the fan-out ones (ablations, countermeasures,
    // table6, propagation, fifty_one).
    ReproConfig {
        scale: 0.03,
        day_hours: 1,
        ..ReproConfig::quick()
    }
}

struct Run {
    artifacts: Vec<Artifact>,
    metrics_json: String,
    metrics_csv: String,
    trace: Vec<TraceRecord>,
    report: RunReport,
}

/// One instrumented in-process pipeline run over (and flushing) the
/// store in `dir`.
fn run(config: &ReproConfig, ids: &[&str], jobs: usize, dir: &Path) -> Run {
    let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    let reg = Registry::new();
    let hub = TraceHub::new();
    let mut store = ArtifactStore::open(dir).unwrap();
    let (artifacts, report) =
        run_pipeline(config, &ids, jobs, Some(&reg), Some(&hub), Some(&mut store));
    store.flush().unwrap();
    let snap = reg.snapshot();
    Run {
        artifacts,
        metrics_json: snap.to_json(),
        metrics_csv: snap.to_csv(),
        trace: hub.merged().into_records(),
        report,
    }
}

fn cache_counts(run: &Run) -> (u64, u64, u64) {
    let summary = run.report.cache.as_ref().expect("cached run has a summary");
    (summary.hits, summary.misses, summary.skipped)
}

#[test]
fn config_changes_invalidate_only_the_dependent_subgraph() {
    let config = test_config();
    let dir = common::scratch("invalidate");
    run(&config, &["all"], 2, &dir);

    // Flipping `day_hours` re-keys both crawls (the general crawl runs
    // twice the day's hours, continuing it) and every job that reads
    // them, like table5 and fig6_general; jobs that only consume the
    // static snapshot still hit.
    let flipped = ReproConfig {
        day_hours: 2,
        ..config
    };
    let warm = run(&flipped, &["all"], 2, &dir);
    let (hits, misses, _) = cache_counts(&warm);
    assert!(misses > 0, "day_hours flip must miss its subgraph");
    assert!(hits > 0, "unrelated tasks must still hit");
    let row = |label: &str| -> &str {
        warm.report
            .tasks
            .iter()
            .find(|t| t.label == label)
            .unwrap_or_else(|| panic!("no task labelled {label}"))
            .cache
            .expect("cached run labels every task")
    };
    assert_eq!(
        row("table1"),
        "hit",
        "table1 only needs the static snapshot"
    );
    assert_eq!(row("table5"), "miss", "table5 consumes the day crawl");
    assert_eq!(
        row("fig6_general"),
        "miss",
        "fig6_general consumes the general crawl"
    );

    // A seed flip re-keys everything derived from the crawls and
    // simulations; the closed-form jobs that read no config field
    // (table6, fig7) still hit, every one of their tasks included.
    let reseeded = ReproConfig {
        seed: config.seed + 1,
        ..config
    };
    let warm = run(&reseeded, &["all"], 2, &dir);
    let (_, misses, _) = cache_counts(&warm);
    assert!(misses > 0, "seed flip must invalidate");
    let mut checked = 0;
    for task in &warm.report.tasks {
        let expected = match task.job.as_deref() {
            Some("table6" | "fig7") => "hit",
            Some("countermeasures") => "miss",
            _ => continue,
        };
        assert_eq!(task.cache, Some(expected), "{}", task.label);
        checked += 1;
    }
    assert!(checked > 2, "the fan-out jobs' tasks are all checked");

    // The original config still hits 100% — new keys appended, old
    // entries untouched.
    let warm = run(&config, &["all"], 2, &dir);
    let (hits, misses, _) = cache_counts(&warm);
    assert_eq!(misses, 0);
    assert!(hits > 0);
}

#[test]
fn the_store_holds_one_entry_per_job_and_shared_build() {
    // A job's entry holds its artifacts and the effects of all its
    // tasks; each shared build (static, day_crawl, general_crawl) holds
    // effects only. Inner fan-out tasks get no entry of their own.
    let config = test_config();
    let all = common::scratch("granularity_all");
    run(&config, &["all"], 2, &all);
    let entries = ArtifactStore::open(&all).unwrap().len();
    assert_eq!(entries, bp_bench::ARTIFACT_IDS.len() + 3);

    let table5 = common::scratch("granularity_table5");
    run(&config, &["table5"], 2, &table5);
    let entries = ArtifactStore::open(&table5).unwrap().len();
    assert_eq!(entries, 2, "table5 and the day crawl it reads");
    for dir in [all, table5] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn warm_runs_replay_byte_identically_at_any_worker_count() {
    // Cold B at --jobs 8 and warm C at --jobs 2 over B's store both
    // match the golden line of every stream, scheduler rows included.
    common::assert_rows_golden(&["B", "C"]);
    // The warm run recomputes nothing and skips at least 90 % of the
    // graph.
    let bench = common::read(&common::row("C").join("metrics/BENCH_pipeline.json"));
    let bench = String::from_utf8(bench).unwrap();
    assert_eq!(
        common::json_u64(&bench, "misses"),
        0,
        "warm run recomputed something"
    );
    assert!(common::json_u64(&bench, "hits") > 0);
    let (skipped, total) = (
        common::json_u64(&bench, "skipped"),
        common::json_u64(&bench, "tasks_spawned"),
    );
    assert!(
        skipped * 10 >= total * 9,
        "warm run skipped only {skipped} of {total} tasks"
    );
}

#[test]
fn corrupted_and_truncated_entries_are_evicted_and_recomputed() {
    // Runs of the golden matrix's row B flags over a copy of B's store,
    // so every healed run can be checked against GOLDEN.digests.
    let root = common::scratch("cache_heal");
    let store = root.join("store");
    let warm_store = common::row("B").parent().unwrap().join("store_S");
    std::fs::create_dir_all(&store).unwrap();
    for entry in std::fs::read_dir(&warm_store).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, store.join(path.file_name().unwrap())).unwrap();
    }
    let run_repro = |name: &str| -> (Vec<common::Stream>, u64, u64) {
        let dir = root.join(name);
        let observed = ["metrics", "trace", "detect"];
        common::run_pipeline_row(&dir, Some(&store), &observed, &["--jobs", "2", "all"]);
        let bench = String::from_utf8(common::read(&dir.join("metrics/BENCH_pipeline.json")));
        let bench = bench.unwrap();
        let (hits, misses) = (
            common::json_u64(&bench, "hits"),
            common::json_u64(&bench, "misses"),
        );
        (common::pipeline_streams(&dir, ""), hits, misses)
    };

    // Flip a byte in the middle of the blob file: the affected entries
    // fail their stored-hash check, get evicted, and recompute — the
    // outputs stay golden and nothing panics.
    let blob_path = store.join("blobs.bin");
    let mut blobs = std::fs::read(&blob_path).unwrap();
    let mid = blobs.len() / 2;
    blobs[mid] ^= 0xFF;
    std::fs::write(&blob_path, &blobs).unwrap();
    let (streams, _, misses) = run_repro("corrupted");
    assert!(misses > 0, "corruption must force recomputation");
    common::assert_golden("run over a corrupted store", &streams);

    // The recomputed entries were re-staged and flushed: the next run
    // is fully warm again.
    let (_, hits, misses) = run_repro("warm");
    assert_eq!(misses, 0, "healed store must be fully warm");
    assert!(hits > 0);

    // Truncating the blob file (index intact, payloads gone) degrades
    // to recomputation, never a panic or a wrong answer.
    let blobs = std::fs::read(&blob_path).unwrap();
    std::fs::write(&blob_path, &blobs[..blobs.len() / 3]).unwrap();
    let (streams, _, misses) = run_repro("truncated");
    assert!(misses > 0, "truncation must force recomputation");
    common::assert_golden("run over a truncated store", &streams);
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Round trip at the pipeline level: for any (seed, selection), a
    /// warm run over the store written by the cold run hits 100% — no
    /// misses, no live recomputation — and replays byte-identically.
    #[test]
    fn any_config_and_selection_round_trips_through_the_store(
        seed in 1u64..1_000,
        which in 0usize..4,
    ) {
        const SELECTIONS: [&[&str]; 4] =
            [&["all"], &["table5"], &["fig7"], &["table6", "fig4"]];
        let selection = SELECTIONS[which];
        let config = ReproConfig { seed, ..test_config() };
        let dir = common::scratch(&format!("prop_{seed}_{which}"));
        let cold = run(&config, selection, 2, &dir);
        let warm = run(&config, selection, 2, &dir);
        let (hits, misses, skipped) = cache_counts(&warm);
        prop_assert_eq!(misses, 0, "same config+selection must be all hits");
        prop_assert!(hits > 0);
        prop_assert!(skipped * 10 >= warm.report.tasks_spawned * 9);
        prop_assert_eq!(cold.artifacts.len(), warm.artifacts.len());
        for (a, b) in cold.artifacts.iter().zip(warm.artifacts.iter()) {
            prop_assert_eq!(&a.id, &b.id);
            prop_assert_eq!(&a.body, &b.body);
            prop_assert_eq!(&a.csv, &b.csv);
        }
        prop_assert_eq!(&cold.metrics_json, &warm.metrics_json);
        prop_assert_eq!(&cold.metrics_csv, &warm.metrics_csv);
        prop_assert_eq!(first_divergence(&cold.trace, &warm.trace), None);
    }
}
