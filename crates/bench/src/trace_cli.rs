//! The `trace` binary's command logic, in library form so tests can
//! drive it without spawning a process.
//!
//! Subcommands (all read the binary `trace.bin` format written by
//! `repro --trace`):
//!
//! * `summary FILE` — record counts by category/kind and busiest nodes.
//! * `filter FILE [--from T] [--to T] [--node N] [--category C] [--kind K]`
//!   — matching records as JSONL, keeping original sequence numbers.
//! * `diff LEFT RIGHT` — first divergence between two traces (exit 1
//!   when they differ, with seq, timestamps and both decoded records).
//! * `timeline FILE [--check CSV]` — reconstruct the per-node
//!   tip-height / block-lag series from the trace; `--check` compares
//!   the reconstruction against a published `fig6_day.csv` (exit 1 on
//!   mismatch); `--by-as` instead emits the per-AS sync breakdown
//!   (which ASes went dark, the spatial-partition hunting view).
//! * `detect FILE [--report]` — replay the trace through the standard
//!   `bp-detect` suite and print the alert stream as JSONL; `--report`
//!   prints the engine report instead, plus detector scores when the
//!   trace carries ground-truth partition markers.

use bp_detect::score::{roc_rows, ROC_HEADER};
use bp_detect::{attack_windows, score_detectors, DetectConfig, DetectEngine, StreamState};
use bp_obs::trace::{
    decode_records, filter_records, first_divergence, summary, TraceCategory, TraceFilter,
    TraceKind, TraceRecord,
};

/// Result of one `trace` invocation: what to print and the process exit
/// code (0 = success, 1 = the compared inputs differ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Text for stdout.
    pub output: String,
    /// Process exit code.
    pub code: i32,
}

impl Outcome {
    fn ok(output: String) -> Self {
        Outcome { output, code: 0 }
    }

    fn differs(output: String) -> Self {
        Outcome { output, code: 1 }
    }
}

/// The `trace --help` text.
pub fn usage() -> String {
    "trace — inspect flight-recorder traces written by `repro --trace`\n\n\
     usage: trace summary FILE\n\
     \x20      trace filter FILE [--from T] [--to T] [--node N] [--category C] [--kind K]\n\
     \x20      trace diff LEFT RIGHT\n\
     \x20      trace timeline FILE [--check CSV | --by-as]\n\
     \x20      trace detect FILE [--report]\n\n\
     summary    record counts by category and kind, busiest nodes\n\
     filter     matching records as JSONL (original sequence numbers kept)\n\
     diff       first divergence between two traces (exit 1 when they differ)\n\
     timeline   rebuild the crawler's block-lag series from the trace;\n\
     \x20          --check compares it against a published fig6_day.csv;\n\
     \x20          --by-as emits the per-AS sync breakdown instead\n\
     detect     replay the trace through the partition-detection suite;\n\
     \x20          alerts as JSONL, or --report for the engine report\n\
     \x20          (with detector scores when ground truth is present)"
        .to_string()
}

/// Loads a trace file's records.
fn load(path: &str) -> Result<Vec<TraceRecord>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    decode_records(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn parse_flag_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid value for {flag}: {raw}"))
}

/// Runs one `trace` command (arguments without the program name).
pub fn run(args: &[String]) -> Result<Outcome, String> {
    let mut iter = args.iter();
    let cmd = match iter.next() {
        None => return Ok(Outcome::ok(usage())),
        Some(c) => c.as_str(),
    };
    match cmd {
        "--help" | "-h" | "help" => Ok(Outcome::ok(usage())),
        "summary" => {
            let path = iter.next().ok_or("summary requires a trace file")?;
            Ok(Outcome::ok(summary(&load(path)?)))
        }
        "filter" => {
            let path = iter.next().ok_or("filter requires a trace file")?;
            let mut filter = TraceFilter::default();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--from" => filter.from = Some(parse_flag_value(arg, iter.next())?),
                    "--to" => filter.to = Some(parse_flag_value(arg, iter.next())?),
                    "--node" => filter.node = Some(parse_flag_value(arg, iter.next())?),
                    "--category" => {
                        let raw: String = parse_flag_value(arg, iter.next())?;
                        filter.category = Some(
                            TraceCategory::parse(&raw)
                                .ok_or_else(|| format!("unknown category: {raw}"))?,
                        );
                    }
                    "--kind" => {
                        let raw: String = parse_flag_value(arg, iter.next())?;
                        filter.kind = Some(
                            TraceKind::parse(&raw).ok_or_else(|| format!("unknown kind: {raw}"))?,
                        );
                    }
                    other => return Err(format!("unknown filter flag: {other}")),
                }
            }
            let records = load(path)?;
            let mut out = String::new();
            for (seq, r) in filter_records(&records, &filter) {
                out.push_str(&r.to_json_line(seq));
                out.push('\n');
            }
            Ok(Outcome::ok(out))
        }
        "diff" => {
            let left_path = iter.next().ok_or("diff requires two trace files")?;
            let right_path = iter.next().ok_or("diff requires two trace files")?;
            let left = load(left_path)?;
            let right = load(right_path)?;
            match first_divergence(&left, &right) {
                None => Ok(Outcome::ok(format!(
                    "traces identical ({} records)",
                    left.len()
                ))),
                Some(d) => Ok(Outcome::differs(d.render())),
            }
        }
        "timeline" => {
            let path = iter.next().ok_or("timeline requires a trace file")?;
            let mut check: Option<String> = None;
            let mut by_as = false;
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--check" => check = Some(parse_flag_value(arg, iter.next())?),
                    "--by-as" => by_as = true,
                    other => return Err(format!("unknown timeline flag: {other}")),
                }
            }
            if by_as && check.is_some() {
                return Err("--by-as and --check are mutually exclusive".to_string());
            }
            let records = load(path)?;
            if by_as {
                return Ok(Outcome::ok(by_as_csv(&records)));
            }
            let csv = timeline_csv(&records);
            match check {
                None => Ok(Outcome::ok(csv)),
                Some(reference_path) => {
                    let reference = std::fs::read_to_string(&reference_path)
                        .map_err(|e| format!("cannot read {reference_path}: {e}"))?;
                    if csv == reference {
                        Ok(Outcome::ok(format!(
                            "timeline matches {reference_path} ({} rows)",
                            csv.lines().count().saturating_sub(1)
                        )))
                    } else {
                        Ok(Outcome::differs(render_csv_mismatch(
                            &csv,
                            &reference,
                            &reference_path,
                        )))
                    }
                }
            }
        }
        "detect" => {
            let path = iter.next().ok_or("detect requires a trace file")?;
            let mut report_mode = false;
            for arg in iter.by_ref() {
                match arg.as_str() {
                    "--report" => report_mode = true,
                    other => return Err(format!("unknown detect flag: {other}")),
                }
            }
            let records = load(path)?;
            let mut engine = DetectEngine::new(DetectConfig::default());
            engine.feed_all(&records);
            let report = engine.finish();
            if report_mode {
                let mut out = report.render();
                // A trace carrying ground-truth partition markers can be
                // scored outright: same grading as `--detect-matrix`.
                if !attack_windows(&records).is_empty() {
                    let scores = score_detectors(&records, &report, crate::detect::GRACE_MS);
                    if !out.ends_with('\n') {
                        out.push('\n');
                    }
                    out.push('\n');
                    out.push_str(ROC_HEADER);
                    out.push_str(&roc_rows("trace", &scores));
                }
                Ok(Outcome::ok(out))
            } else {
                let mut out = String::new();
                for (seq, alert) in report.alerts.iter().enumerate() {
                    out.push_str(&alert.to_json_line(seq as u64));
                    out.push('\n');
                }
                Ok(Outcome::ok(out))
            }
        }
        other => Err(format!("unknown command: {other} (try `trace --help`)")),
    }
}

/// The crawler's block-lag series rebuilt from a trace: one row per
/// `crawl_sample` record with the lag-band counts [`StreamState`] holds
/// at that tick, in the header and row shape of the published `fig6_*`
/// series.
pub fn timeline_csv(records: &[TraceRecord]) -> String {
    let mut state = StreamState::new();
    let mut out = String::from("t_secs,synced,one_behind,two_to_four,five_to_ten,ten_plus\n");
    for r in records {
        if let Some(tick) = state.consume(r) {
            let [synced, one, two_to_four, five_to_ten, ten_plus] = state.lag_counts();
            out.push_str(&format!(
                "{},{synced},{one},{two_to_four},{five_to_ten},{ten_plus}\n",
                tick.t_ms / 1000
            ));
        }
    }
    out
}

/// The per-AS sync breakdown: one row per (tick, populated AS slot),
/// with the slot's synced count against the tick's global total. Dark
/// slots — populated ASes contributing zero synced nodes — keep their
/// rows, which is exactly what an operator greps for when hunting a
/// spatial partition.
fn by_as_csv(records: &[TraceRecord]) -> String {
    let mut state = StreamState::new();
    let mut out = String::from("t_secs,asn,synced,total_synced,share_permille\n");
    for r in records {
        if let Some(tick) = state.consume(r) {
            let total: u64 = state.as_synced().iter().sum();
            for (slot, &synced) in state.as_synced().iter().enumerate() {
                if state.slot_population()[slot] == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{},{},{},{},{}\n",
                    tick.t_ms / 1000,
                    state.slot_asn()[slot],
                    synced,
                    total,
                    synced * 1000 / total.max(1)
                ));
            }
        }
    }
    out
}

/// First differing line between the reconstructed timeline and the
/// reference CSV, with both sides shown.
fn render_csv_mismatch(ours: &str, reference: &str, reference_path: &str) -> String {
    let ours_lines: Vec<&str> = ours.lines().collect();
    let reference_lines: Vec<&str> = reference.lines().collect();
    let shared = ours_lines.len().min(reference_lines.len());
    for i in 0..shared {
        if ours_lines[i] != reference_lines[i] {
            return format!(
                "timeline differs from {reference_path} at line {}\ntimeline:  {}\nreference: {}",
                i + 1,
                ours_lines[i],
                reference_lines[i]
            );
        }
    }
    format!(
        "timeline differs from {reference_path} in length: {} vs {} lines",
        ours_lines.len(),
        reference_lines.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_obs::Tracer;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A small synthetic trace: two mines, two accepts, one sample.
    fn sample_tracer() -> Tracer {
        let mut t = Tracer::new();
        t.record(TraceKind::Mine, 1_000, 0, 1, 1);
        t.record(TraceKind::BlockAccept, 1_050, 0, 1, 1);
        t.record(TraceKind::BlockAccept, 1_200, 1, 1, 1);
        t.record(TraceKind::Mine, 60_000, 1, 2, 2);
        t.record(TraceKind::CrawlSample, 61_000, 3, 2, 2);
        t
    }

    fn write_trace(name: &str, tracer: &Tracer) -> String {
        let path =
            std::env::temp_dir().join(format!("bp_trace_cli_{name}_{}.bin", std::process::id()));
        std::fs::write(&path, tracer.encode()).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn summary_counts_kinds() {
        let path = write_trace("summary", &sample_tracer());
        let out = run(&argv(&["summary", &path])).unwrap();
        assert_eq!(out.code, 0);
        assert!(out.output.contains("records: 5"));
        assert!(out.output.contains("mine"));
        assert!(out.output.contains("crawl_sample"));
    }

    #[test]
    fn filter_keeps_original_seq() {
        let path = write_trace("filter", &sample_tracer());
        let out = run(&argv(&["filter", &path, "--kind", "block_accept"])).unwrap();
        assert_eq!(out.code, 0);
        let lines: Vec<&str> = out.output.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":1"));
        assert!(lines[1].contains("\"seq\":2"));
        // Node filter composes.
        let out = run(&argv(&[
            "filter",
            &path,
            "--kind",
            "block_accept",
            "--node",
            "1",
        ]))
        .unwrap();
        assert_eq!(out.output.lines().count(), 1);
        // Unknown kind names are an error, not an empty result.
        assert!(run(&argv(&["filter", &path, "--kind", "nope"])).is_err());
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = write_trace("diff_a", &sample_tracer());
        let mut other = sample_tracer();
        other.record(TraceKind::Mine, 120_000, 2, 3, 3);
        let b = write_trace("diff_b", &other);

        let same = run(&argv(&["diff", &a, &a])).unwrap();
        assert_eq!(same.code, 0);
        assert!(same.output.contains("identical"));

        let differs = run(&argv(&["diff", &a, &b])).unwrap();
        assert_eq!(differs.code, 1);
        assert!(differs.output.contains("divergence at seq 5"));
        assert!(differs.output.contains("<end of trace>"));
    }

    #[test]
    fn timeline_reconstructs_and_checks() {
        let path = write_trace("timeline", &sample_tracer());
        let out = run(&argv(&["timeline", &path])).unwrap();
        assert_eq!(out.code, 0);
        // One sample at t=61s: node 0 and 1 accepted height 1 (one
        // behind height-2 best), node 2 never accepted (two+ behind).
        assert!(out.output.starts_with("t_secs,synced,"));
        assert!(out.output.contains("61,0,2,1,0,0"), "{}", out.output);

        let check =
            std::env::temp_dir().join(format!("bp_trace_cli_check_{}.csv", std::process::id()));
        std::fs::write(&check, &out.output).unwrap();
        let ok = run(&argv(&[
            "timeline",
            &path,
            "--check",
            &check.to_string_lossy(),
        ]))
        .unwrap();
        assert_eq!(ok.code, 0, "{}", ok.output);
        assert!(ok.output.contains("matches"));

        std::fs::write(&check, out.output.replace("61,", "62,")).unwrap();
        let bad = run(&argv(&[
            "timeline",
            &path,
            "--check",
            &check.to_string_lossy(),
        ]))
        .unwrap();
        assert_eq!(bad.code, 1);
        assert!(bad.output.contains("line 2"));
    }

    /// A trace whose node 1 goes dark while the tip keeps advancing —
    /// enough to trip the BlockAware detector — with ground-truth
    /// partition markers around the dark stretch.
    fn partitioned_tracer() -> Tracer {
        let mut t = Tracer::new();
        for i in 0..45u64 {
            let ms = (i + 1) * 60_000;
            let height = i + 1;
            if i == 10 {
                t.record(TraceKind::PartitionApply, ms - 600, u32::MAX, 2, 1);
            }
            t.record(TraceKind::Mine, ms - 500, 0, height, height);
            t.record(TraceKind::BlockAccept, ms - 400, 0, height, height);
            if i < 10 {
                t.record(TraceKind::BlockAccept, ms - 400, 1, height, height);
            }
            let synced = if i < 10 { 2 } else { 1 };
            t.record(TraceKind::CrawlSample, ms, 2, synced, height);
        }
        t.record(TraceKind::PartitionHeal, 46 * 60_000, u32::MAX, 0, 0);
        t
    }

    #[test]
    fn detect_replays_the_suite_offline() {
        let path = write_trace("detect", &partitioned_tracer());
        let out = run(&argv(&["detect", &path])).unwrap();
        assert_eq!(out.code, 0);
        assert!(out.output.contains("detect_blockaware"), "{}", out.output);
        // Every line is alert JSONL.
        for line in out.output.lines() {
            assert!(line.contains("\"cat\":\"detect\""), "{line}");
        }
        // --report renders the engine report plus scores (the trace
        // carries ground-truth markers).
        let report = run(&argv(&["detect", &path, "--report"])).unwrap();
        assert!(report.output.contains("blockaware"), "{}", report.output);
        assert!(
            report.output.contains("scenario,detector"),
            "{}",
            report.output
        );
        // A benign trace yields no alerts and no score block.
        let benign = write_trace("detect_benign", &sample_tracer());
        let quiet = run(&argv(&["detect", &benign])).unwrap();
        assert_eq!(quiet.output, "");
        let quiet_report = run(&argv(&["detect", &benign, "--report"])).unwrap();
        assert!(
            !quiet_report.output.contains("scenario,detector"),
            "{}",
            quiet_report.output
        );
        assert!(run(&argv(&["detect", &path, "--nope"])).is_err());
    }

    #[test]
    fn timeline_by_as_breaks_out_slots() {
        let mut t = Tracer::new();
        t.record(TraceKind::NodeAs, 0, 0, 100, 0);
        t.record(TraceKind::NodeAs, 0, 1, 200, 1);
        t.record(TraceKind::Mine, 1_000, 0, 1, 1);
        t.record(TraceKind::BlockAccept, 1_050, 0, 1, 1);
        t.record(TraceKind::CrawlSample, 60_000, 2, 1, 1);
        let path = write_trace("by_as", &t);
        let out = run(&argv(&["timeline", &path, "--by-as"])).unwrap();
        assert_eq!(out.code, 0);
        let lines: Vec<&str> = out.output.lines().collect();
        assert_eq!(lines[0], "t_secs,asn,synced,total_synced,share_permille");
        // AS 100 holds the only synced node; AS 200 is dark but keeps
        // its row.
        assert_eq!(lines[1], "60,100,1,1,1000");
        assert_eq!(lines[2], "60,200,0,1,0");
        assert!(run(&argv(&["timeline", &path, "--by-as", "--check", "x.csv"])).is_err());
    }

    #[test]
    fn bad_invocations_error_cleanly() {
        assert!(run(&argv(&["summary"])).is_err());
        assert!(run(&argv(&["diff", "only_one"])).is_err());
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&["summary", "/nonexistent/trace.bin"])).is_err());
        assert!(run(&argv(&["detect"])).is_err());
        let help = run(&argv(&["--help"])).unwrap();
        assert!(help.output.contains("trace diff"));
        assert!(help.output.contains("trace detect"));
        assert!(help.output.contains("--by-as"));
        assert_eq!(run(&[]).unwrap().output, help.output);
    }
}
