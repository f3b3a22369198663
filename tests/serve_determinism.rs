//! The query service's response stream is deterministic and survives
//! restarts. `repro --serve-bench` at `--jobs 1`, at `--jobs 8`, over a
//! cold `--cache` and over the same cache warm gives the golden
//! response stream, and the warm run evaluates nothing (row F of the
//! golden matrix, `tests/common/mod.rs`). A restarted service answers
//! from a warm persistent store without recomputing.

mod common;

use bp_bench::serve::{build_substrate, run_bench, serve_key_fn, StoreBackend};
use bp_bench::ReproConfig;
use bp_serve::{EngineOptions, QueryEngine};
use std::sync::Arc;

/// The golden matrix's serve config (`--quick --scale 0.02 --hours 1`).
fn small() -> ReproConfig {
    ReproConfig {
        scale: 0.02,
        day_hours: 1,
        ..ReproConfig::quick()
    }
}

fn engine(
    substrate: &Arc<bp_serve::Substrate>,
    config: &ReproConfig,
    workers: usize,
    backend: StoreBackend,
) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(substrate),
        EngineOptions {
            workers,
            memo_shards: 16,
        },
    )
    .with_key_fn(serve_key_fn(config))
    .with_backend(Box::new(backend))
}

/// Runs the bench script `repro --serve-bench` runs and returns the
/// response stream with the run's cold-evaluation count.
fn responses(engine: &QueryEngine, config: &ReproConfig, workers: usize) -> (Vec<u8>, u64) {
    let mut sink = Vec::new();
    let report = run_bench(
        engine,
        config,
        workers,
        &bp_obs::Registry::new(),
        Some(&mut sink),
    );
    (sink, report.load.cold_evals)
}

#[test]
fn response_stream_is_byte_identical_across_worker_counts() {
    common::assert_rows_golden(&["F"]);
    let serve = |run: &str| -> String {
        let path = common::row("F")
            .join(run)
            .join("metrics/BENCH_pipeline.json");
        let bench = String::from_utf8(common::read(&path)).unwrap();
        bench[bench.find("\"serve\": {").expect("serve section")..].to_string()
    };
    let cold = serve("cold");
    assert!(common::json_u64(&cold, "distinct") > 0);
    assert!(common::json_u64(&cold, "queries") > common::json_u64(&cold, "distinct"));
    assert!(common::json_u64(&cold, "cold_evals") > 0);
    assert_eq!(
        common::json_u64(&cold, "backend_hits"),
        0,
        "store was not empty"
    );
    let warm = serve("warm");
    assert_eq!(
        common::json_u64(&warm, "cold_evals"),
        0,
        "warm run recomputed answers"
    );
    assert_eq!(
        common::json_u64(&warm, "backend_hits"),
        common::json_u64(&warm, "distinct"),
        "not every distinct query replayed from the store"
    );
}

#[test]
fn warm_store_replays_across_a_restart_without_recomputing() {
    let config = small();
    let dir = common::scratch("serve_restart");
    let dir = dir.to_str().unwrap();
    let substrate = build_substrate(&config);

    // Cold process: compute everything, persist the memo store.
    let cold = engine(&substrate, &config, 4, StoreBackend::open(dir).unwrap());
    let (cold_stream, cold_evals) = responses(&cold, &config, 4);
    assert!(cold_evals > 0);
    cold.flush_backend().unwrap();
    drop(cold);

    // Restarted process: a fresh engine (empty memo) over the reopened
    // store answers every query from disk.
    let warm = engine(&substrate, &config, 1, StoreBackend::open(dir).unwrap());
    let (warm_stream, warm_evals) = responses(&warm, &config, 1);
    assert_eq!(warm_evals, 0, "reopened store missed");
    common::assert_golden(
        "serve restart",
        &[
            ("serve_responses.bin".to_string(), cold_stream),
            ("serve_responses.bin".to_string(), warm_stream),
        ],
    );
    let _ = std::fs::remove_dir_all(dir);
}
