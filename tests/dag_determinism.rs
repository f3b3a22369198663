//! The fine-grained task DAG must be invisible in every output stream:
//! for a quick-profile run the artifacts, the deterministic metrics
//! exports (`metrics.json` / `metrics.csv`), the flight-recorder trace
//! and the scheduler's own counters and task labels (the `tasks`
//! stream) match `GOLDEN.digests` at `--jobs 1`, `--jobs 8` and
//! `--jobs 2` (rows A, B and C of the golden matrix,
//! `tests/common/mod.rs`), so they match each other byte for byte.

mod common;

#[test]
fn quick_run_is_byte_identical_across_worker_counts() {
    common::assert_rows_golden(&["A", "B", "C"]);
}
