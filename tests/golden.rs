//! The golden-digest matrix: every output stream `repro` writes, under
//! the small matrix of settings in `tests/common/mod.rs`, must hash to
//! its line in the committed `GOLDEN.digests` (FNV-1a-128, see
//! `bp_bench::cache::fnv128`), and every golden line must be produced
//! by some row. A change that shifts output fails here even when it
//! shifts it the same way under every setting, which no comparison
//! between two settings of the same build can see.
//!
//! The rows' own assertions (presentation order, warm-cache counters,
//! metrics coverage, detection gates, ...) live in the suites named
//! after what they check; they read the same row outputs.
//!
//! On a mismatch the test lists every differing stream and prints the
//! regenerated file; after an intended output change, paste that output
//! over `GOLDEN.digests`.

mod common;

use common::{digest, golden, golden_path, mismatches, row, row_streams, Stream, ROWS};
use std::collections::BTreeMap;

/// The rows, in two lanes that run on their own threads. The two full
/// computations (A, B) start first; C runs after B, whose store it
/// reads.
const LANES: [&[&str]; 2] = [&["A", "D", "E", "G"], &["B", "F"]];

#[test]
fn outputs_match_golden_digests() {
    std::thread::scope(|scope| {
        for lane in LANES {
            scope.spawn(move || lane.iter().for_each(|name| drop(row(name))));
        }
    });
    let results: Vec<(&str, Vec<Stream>)> =
        ROWS.iter().map(|&name| (name, row_streams(name))).collect();

    let golden = golden();
    let mut diffs = Vec::new();
    let mut regenerated: BTreeMap<&str, String> = BTreeMap::new();
    for (row, streams) in &results {
        diffs.extend(mismatches(&golden, row, streams));
        for (stream, bytes) in streams {
            regenerated.entry(stream).or_insert_with(|| digest(bytes));
        }
    }
    for stream in golden.keys() {
        if !regenerated.contains_key(stream.as_str()) {
            diffs.push(format!("{stream}: golden line, but no row produced it"));
        }
    }
    if !diffs.is_empty() {
        let text = std::fs::read_to_string(golden_path()).unwrap();
        let mut file: String = text
            .lines()
            .take_while(|l| l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        for (stream, d) in &regenerated {
            file.push_str(&format!("{d}  {stream}\n"));
        }
        println!("{file}");
        panic!(
            "{} stream(s) differ from GOLDEN.digests (regenerated file printed above):\n{}",
            diffs.len(),
            diffs.join("\n")
        );
    }
}
