//! Helpers for the suites that check `repro` output against the
//! committed `GOLDEN.digests` file: run the real binary over the golden
//! matrix's rows, hash what it writes into named streams, and compare
//! those with the golden lines.
//!
//! | row | run |
//! |-----|-----|
//! | A | `all --jobs 1` |
//! | B | `all --jobs 8 --cache S --metrics --trace --detect` |
//! | C | B's flags at `--jobs 2` over warm `S` |
//! | D | `table1 fig6_day table6 fig7 --jobs 2 --metrics` |
//! | E | D's selection at `--jobs 1 --trace` |
//! | F | `--serve-bench` at `--jobs 1`, `8`, cold `--cache V --jobs 4`, warm `--cache V --jobs 1` |
//! | G | `--detect-matrix` |
//!
//! Rows A–E run [`PIPELINE`], F and G [`SMALL`]. Cache keys fold in the
//! observability flags, so C reuses B's flags to hit B's entries.
//!
//! Each row runs once per `cargo test` invocation, however many suites
//! check it: [`row`] keeps its outputs under the target directory,
//! keyed by the `repro` build and the invoking process, and later test
//! binaries of the same invocation read them from there.

#![allow(dead_code)] // each suite uses a different subset

use bp_bench::cache::fnv128;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// Flags of the pipeline rows: the quick profile, shrunk.
pub const PIPELINE: [&str; 5] = ["--quick", "--scale", "0.03", "--hours", "1"];
/// Flags of the serve and detect rows.
pub const SMALL: [&str; 5] = ["--quick", "--scale", "0.02", "--hours", "1"];
/// The subset rows' selection: one job per traced stream (day crawl,
/// model sweep, grid sim) plus a static job.
pub const SUBSET: [&str; 4] = ["table1", "fig6_day", "table6", "fig7"];
/// Observability flags of rows B and C.
const OBSERVED: [&str; 3] = ["metrics", "trace", "detect"];

/// One named output stream and its bytes.
pub type Stream = (String, Vec<u8>);

/// A unit of work: its name and the function that writes its rows'
/// directories under the directory it is given.
type Unit = (&'static str, fn(&Path));

/// The matrix's units. B and C share one because C warms over the store
/// B wrote.
const UNITS: [Unit; 6] = [
    ("A", unit_a),
    ("BC", unit_bc),
    ("D", unit_d),
    ("E", unit_e),
    ("F", unit_f),
    ("G", unit_g),
];

/// Every row of the matrix.
pub const ROWS: [&str; 7] = ["A", "B", "C", "D", "E", "F", "G"];

/// The directory holding row `name`'s outputs, running the row's unit
/// first unless this process or an earlier test binary of the same
/// `cargo test` invocation already did.
pub fn row(name: &str) -> PathBuf {
    static DONE: [OnceLock<PathBuf>; UNITS.len()] = [const { OnceLock::new() }; UNITS.len()];
    let unit = match name {
        "B" | "C" => "BC",
        other => other,
    };
    let i = UNITS
        .iter()
        .position(|(u, _)| *u == unit)
        .unwrap_or_else(|| panic!("no matrix row {name}"));
    let dir = DONE[i].get_or_init(|| {
        let dir = shared_root().join(unit);
        if !dir.exists() {
            // Run into a private directory and rename it into place, so a
            // unit directory that exists is always complete.
            let tmp = shared_root().join(format!("{unit}.{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&tmp);
            std::fs::create_dir_all(&tmp).unwrap();
            (UNITS[i].1)(&tmp);
            if std::fs::rename(&tmp, &dir).is_err() {
                assert!(dir.exists(), "cannot move {} into place", tmp.display());
                let _ = std::fs::remove_dir_all(&tmp);
            }
        }
        dir
    });
    dir.join(name)
}

/// The golden streams row `name` wrote (see [`row`]).
pub fn row_streams(name: &str) -> Vec<Stream> {
    let dir = row(name);
    match name {
        "A" | "B" | "C" => pipeline_streams(&dir, ""),
        "D" | "E" => pipeline_streams(&dir, "subset/"),
        "F" => SERVE_RUNS
            .iter()
            .map(|(run, _)| {
                let path = dir.join(run).join("out/serve_responses.bin");
                ("serve_responses.bin".to_string(), read(&path))
            })
            .collect(),
        _ => {
            let mut files: Vec<_> = std::fs::read_dir(dir.join("matrix"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
                .iter()
                .map(|path| {
                    let name = path.file_name().unwrap().to_str().unwrap();
                    (format!("detect_matrix/{name}"), read(path))
                })
                .collect()
        }
    }
}

/// Panics listing every stream of `rows` that differs from
/// `GOLDEN.digests`.
pub fn assert_rows_golden(rows: &[&str]) {
    for name in rows {
        assert_golden(&format!("row {name}"), &row_streams(name));
    }
}

/// Like [`assert_rows_golden`], for the streams of `rows` that `keep`
/// selects.
pub fn assert_rows_golden_where(rows: &[&str], keep: fn(&str) -> bool) {
    for name in rows {
        let streams: Vec<Stream> = row_streams(name)
            .into_iter()
            .filter(|(stream, _)| keep(stream))
            .collect();
        assert!(!streams.is_empty(), "row {name} has no such stream");
        assert_golden(&format!("row {name}"), &streams);
    }
}

/// Where this invocation's rows live: a directory under the target
/// directory named after the `repro` build (size and modification time)
/// and the parent process, so a rebuilt binary or a new `cargo test`
/// run starts afresh. Directories of other keys are removed.
fn shared_root() -> PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let exe = std::fs::metadata(env!("CARGO_BIN_EXE_repro")).expect("repro binary");
        let built = exe
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos());
        let key = format!("{}-{}-{built}", parent_id(), exe.len());
        let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_rows");
        let root = base.join(key);
        if !root.exists() {
            if let Ok(stale) = std::fs::read_dir(&base) {
                for entry in stale.flatten() {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
            std::fs::create_dir_all(&root).unwrap();
        }
        root
    })
    .clone()
}

#[cfg(unix)]
use std::os::unix::process::parent_id;
#[cfg(not(unix))]
fn parent_id() -> u32 {
    std::process::id()
}

fn unit_a(dir: &Path) {
    run_pipeline_row(&dir.join("A"), None, &[], &["--jobs", "1", "all"]);
}

fn unit_bc(dir: &Path) {
    let store = dir.join("store_S");
    for (name, jobs) in [("B", "8"), ("C", "2")] {
        let rest = ["--jobs", jobs, "all"];
        run_pipeline_row(&dir.join(name), Some(&store), &OBSERVED, &rest);
    }
}

fn unit_d(dir: &Path) {
    let rest: Vec<&str> = ["--jobs", "2"].into_iter().chain(SUBSET).collect();
    run_pipeline_row(&dir.join("D"), None, &["metrics"], &rest);
}

fn unit_e(dir: &Path) {
    let rest: Vec<&str> = ["--jobs", "1"].into_iter().chain(SUBSET).collect();
    run_pipeline_row(&dir.join("E"), None, &["trace"], &rest);
}

/// The four serve-bench runs of row F: (subdirectory, flags).
pub const SERVE_RUNS: [(&str, &[&str]); 4] = [
    ("jobs1", &["--jobs", "1"]),
    ("jobs8", &["--jobs", "8"]),
    ("cold", &["--cache", "V", "--jobs", "4"]),
    ("warm", &["--cache", "V", "--jobs", "1"]),
];

fn unit_f(dir: &Path) {
    let dir = dir.join("F");
    for (name, flags) in SERVE_RUNS {
        let run = dir.join(name);
        let mut args: Vec<String> = SMALL.iter().map(|s| s.to_string()).collect();
        args.extend([
            "--serve-bench".into(),
            "--serve-out".into(),
            arg(&run, "out"),
        ]);
        args.extend(["--metrics".into(), arg(&run, "metrics")]);
        for flag in flags {
            args.push(if *flag == "V" {
                arg(&dir, "store_V")
            } else {
                flag.to_string()
            });
        }
        repro(&args);
    }
}

fn unit_g(dir: &Path) {
    let mut args: Vec<String> = SMALL.iter().map(|s| s.to_string()).collect();
    args.extend([
        "--detect-matrix".into(),
        "--detect".into(),
        arg(&dir.join("G"), "matrix"),
    ]);
    repro(&args);
}

/// The committed golden file.
pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../GOLDEN.digests")
}

/// `stream -> digest` from `GOLDEN.digests` (`#` lines are comments).
pub fn golden() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(golden_path()).expect("read GOLDEN.digests");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (digest, stream) = l.split_once("  ").expect("`<digest>  <stream>` line");
            (stream.to_string(), digest.to_string())
        })
        .collect()
}

/// The 32-hex FNV-1a-128 digest the golden file records.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:032x}", fnv128(bytes))
}

/// A fresh, empty directory under the system temp dir.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bp_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `dir/name` as a string argument.
pub fn arg(dir: &Path, name: &str) -> String {
    dir.join(name)
        .to_str()
        .expect("UTF-8 temp path")
        .to_string()
}

/// Runs `repro` with `args` and returns its stdout; panics with its
/// stderr when it fails.
pub fn repro(args: &[String]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro {args:?} failed:\n{stderr}");
    out.stdout
}

/// Runs a pipeline row: `repro PIPELINE --out dir/out`, one
/// `--metrics` / `--trace` / `--detect` directory `dir/<flag>` per flag
/// named in `obs`, `--cache` when given, then `rest`. Saves stdout to
/// `dir/stdout`.
pub fn run_pipeline_row(dir: &Path, cache: Option<&Path>, obs: &[&str], rest: &[&str]) {
    let mut args: Vec<String> = PIPELINE.iter().map(|s| s.to_string()).collect();
    args.extend(["--out".to_string(), arg(dir, "out")]);
    for flag in obs {
        args.extend([format!("--{flag}"), arg(dir, flag)]);
    }
    if let Some(store) = cache {
        args.extend(["--cache".to_string(), store.to_str().unwrap().to_string()]);
    }
    args.extend(rest.iter().map(|s| s.to_string()));
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("stdout"), repro(&args)).unwrap();
}

/// Every golden stream a pipeline row left in `dir` (see
/// [`run_pipeline_row`]): `stdout`, one `csv/<file>` per `--out` CSV,
/// `metrics.json`, `metrics.csv`, the deterministic `tasks` rows of
/// `BENCH_pipeline.json`, `trace.bin` and `alerts.bin`. All but the CSVs
/// carry `prefix`, because a subset run's stdout, metrics and trace
/// differ from a full run's while its CSVs do not.
pub fn pipeline_streams(dir: &Path, prefix: &str) -> Vec<Stream> {
    let mut streams = vec![(format!("{prefix}stdout"), read(&dir.join("stdout")))];
    let mut csvs: Vec<PathBuf> = std::fs::read_dir(dir.join("out"))
        .expect("--out directory")
        .map(|e| e.unwrap().path())
        .collect();
    csvs.sort();
    for path in csvs {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        streams.push((format!("csv/{name}"), read(&path)));
    }
    let optional = [
        ("metrics/metrics.json", "metrics.json"),
        ("metrics/metrics.csv", "metrics.csv"),
        ("trace/trace.bin", "trace.bin"),
        ("detect/alerts.bin", "alerts.bin"),
    ];
    for (file, stream) in optional {
        if let Ok(bytes) = std::fs::read(dir.join(file)) {
            streams.push((format!("{prefix}{stream}"), bytes));
        }
    }
    if let Ok(bench) = std::fs::read_to_string(dir.join("metrics/BENCH_pipeline.json")) {
        streams.push((format!("{prefix}tasks"), task_rows(&bench).into_bytes()));
    }
    streams
}

/// The deterministic part of a `BENCH_pipeline.json` record: scheduler
/// counters and the ordered task labels, without wall times.
pub fn task_rows(bench: &str) -> String {
    let mut out = String::new();
    for field in ["tasks_spawned", "tasks_claimed", "max_ready"] {
        out.push_str(&format!("{field} {}\n", json_u64(bench, field)));
    }
    let tasks = &bench[bench.find("\"tasks\": [").expect("tasks section")..];
    for line in tasks
        .lines()
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
    {
        out.push_str(json_str(line, "id"));
        out.push('\n');
    }
    out
}

/// The text after the first `"field": ` in a JSON text.
fn json_value<'a>(json: &'a str, field: &str) -> &'a str {
    let key = format!("\"{field}\": ");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {field} in {json}"));
    &json[at + key.len()..]
}

/// The first `"field": <u64>` in a JSON text.
pub fn json_u64(json: &str, field: &str) -> u64 {
    let value = json_value(json, field);
    let end = value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end].parse().expect("a u64 value")
}

/// The first `"field": "<string>"` in a JSON text.
pub fn json_str<'a>(json: &'a str, field: &str) -> &'a str {
    let value = json_value(json, field)
        .strip_prefix('"')
        .expect("a string value");
    &value[..value.find('"').expect("closing quote")]
}

/// Reads a file the run must have written.
pub fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every stream whose digest differs from its golden line (or has none),
/// as `stream: expected <digest>, got <digest> (row)` lines.
pub fn mismatches(golden: &BTreeMap<String, String>, row: &str, streams: &[Stream]) -> Vec<String> {
    streams
        .iter()
        .filter_map(|(stream, bytes)| {
            let got = digest(bytes);
            let expected = golden
                .get(stream)
                .map_or("<no golden line>", String::as_str);
            (expected != got).then(|| format!("{stream}: expected {expected}, got {got} ({row})"))
        })
        .collect()
}

/// Panics listing every stream that differs from `GOLDEN.digests`.
pub fn assert_golden(row: &str, streams: &[Stream]) {
    let diffs = mismatches(&golden(), row, streams);
    assert!(
        diffs.is_empty(),
        "{row}: output differs from GOLDEN.digests:\n{}",
        diffs.join("\n")
    );
}
