//! End-to-end and per-layer benchmark of the partitioning reproduction.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline-quick|serve-tcp|gossip-100k> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the program through its public Rust API in this
//! one process, derives every input from `--seed`, measures for about
//! `--seconds`, checks its outputs, and prints a human-readable summary
//! followed, as the last line of standard output, by one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones from an instrumented run. No timed region writes to
//! disk; the traced run writes its spans under `perfbench/out/` after
//! the measurement ends. See `perfbench/NOTES.md` for the design.

mod gossip;
mod layers;
mod pipeline;
mod replay;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Instrumented (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// Runnable workloads. `BENCHMARK.json` lists the first two; the third
/// is kept for one-off measurements (see `gossip.rs`).
const WORKLOADS: [&str; 3] = ["pipeline-quick", "serve-tcp", "gossip-100k"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end figures of one run. What a "unit of work" is differs
/// per workload; `perfbench/NOTES.md` maps each field to the workload's
/// own metric names.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median latency of one unit of work.
    pub latency_p50_ms: f64,
    /// Nearest-rank 95th percentile of the same samples.
    pub latency_p95_ms: f64,
    /// Units of steady-state work per second.
    pub throughput_per_s: f64,
    /// Units of work per second on inputs nothing earlier has computed.
    pub cold_per_s: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak resident memory.
    pub rss_peak_mb: f64,
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed and no op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output mismatched or that hit an I/O error.
    pub failed: u64,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends the end-to-end metrics every workload reports, in the
    /// order of `BENCHMARK.json`.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        self.push("latency_p50_ms", e.latency_p50_ms, "ms");
        self.push("latency_p95_ms", e.latency_p95_ms, "ms");
        self.push("throughput_per_s", e.throughput_per_s, "1/s");
        self.push("cold_per_s", e.cold_per_s, "1/s");
        self.push("setup_s", e.setup_s, "s");
        self.push("rss_peak_mb", e.rss_peak_mb, "MiB");
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is a
/// benchmark bug, reported as 0 with a warning rather than as invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("warning: non-finite metric value {v}");
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {}  seed {}  seconds {}  trace {}  nproc {}",
        args.workload,
        args.seed,
        args.window.as_secs_f64(),
        u8::from(args.trace),
        bp_bench::pipeline::default_jobs()
    );
    // The process runs exactly one workload; resetting the high-water
    // mark also drops whatever argument parsing and start-up touched.
    stats::reset_peak_rss();
    let outcome = match args.workload.as_str() {
        "pipeline-quick" => pipeline::run(&args),
        "gossip-100k" => gossip::run(&args),
        "serve-tcp" => serve::run(&args),
        _ => unreachable!("workload validated at parse time"),
    };
    println!(
        "# ops attempted {}  failed {}  output check {}",
        outcome.attempted,
        outcome.failed,
        if outcome.correct { "passed" } else { "FAILED" }
    );
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
