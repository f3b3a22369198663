//! Argument parsing for the `repro` binary.
//!
//! Parsing is two-phase so flags are order-insensitive: presets
//! (`--quick`) are applied first, then per-field overrides
//! (`--scale`, `--seed`, `--hours`, `--jobs`, …) in the order given.
//! `repro --scale 0.1 --quick all` and `repro --quick --scale 0.1 all`
//! therefore produce the same configuration — previously `--quick`
//! replaced the whole config and silently discarded earlier overrides.

use crate::ReproConfig;

/// Parsed command line for `repro`.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// The resolved reproduction parameters.
    pub config: ReproConfig,
    /// Directory CSV artifacts are written to.
    pub out_dir: String,
    /// Requested artifact ids (may contain `"all"`).
    pub ids: Vec<String>,
    /// Worker threads; `None` means one per available core.
    pub jobs: Option<usize>,
    /// Print the per-job timing table and export `timings.csv`.
    pub timings: bool,
    /// Directory for `metrics.json` / `metrics.csv` /
    /// `BENCH_pipeline.json`; `None` disables metrics collection.
    pub metrics: Option<String>,
    /// Directory for the flight-recorder exports `trace.bin` /
    /// `trace.jsonl`; `None` disables trace recording.
    pub trace: Option<String>,
    /// Directory of the content-addressed artifact cache; `None`
    /// disables caching.
    pub cache: Option<String>,
    /// Directory for the detection exports `alerts.bin` /
    /// `alerts.jsonl` / `detect_report.txt`; `None` disables detection.
    pub detect: Option<String>,
    /// `--detect-matrix` was given: run the detection scoring harness
    /// (scenario matrix → `detection_roc.csv`) instead of the artifact
    /// pipeline.
    pub detect_matrix: bool,
    /// `--scale huge` was given: run the million-node gossip throughput
    /// bench instead of the artifact pipeline.
    pub huge: bool,
    /// `--serve PORT`: run the query service on this TCP port instead
    /// of the artifact pipeline; `None` otherwise.
    pub serve: Option<u16>,
    /// `--serve-bench` was given: run the synthetic query-load bench
    /// instead of the artifact pipeline.
    pub serve_bench: bool,
    /// Maximum concurrent connections the query service accepts
    /// (`--serve-conns`, default 64).
    pub serve_conns: usize,
    /// Directory `--serve-bench` artifacts (`serve_responses.bin`) are
    /// written to.
    pub serve_out: String,
    /// `--help` was requested.
    pub help: bool,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = value.ok_or_else(|| format!("{flag} requires a value"))?;
    // Surface the FromStr error itself — "invalid digit found in
    // string" tells the user more than the bare input echo did.
    raw.parse()
        .map_err(|e| format!("invalid value for {flag}: {raw} ({e})"))
}

/// Upper bound of `--hours`: one simulated year.
const MAX_HOURS: u64 = 8760;

/// Lower bound of a numeric `--scale`: about 14 nodes. Under ~5e-5 the
/// snapshot's anchor ASes outnumber the total, and at 1e-4 fewer than
/// the two live nodes a gossip simulation needs remain; the floor keeps
/// a wide margin above both.
const MIN_SCALE: f64 = 1e-3;

/// Parses `repro` arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    // Phase 1: presets. `--quick` selects the base config no matter
    // where it appears on the line.
    let mut config = if args.iter().any(|a| a == "--quick") {
        ReproConfig::quick()
    } else {
        ReproConfig::paper()
    };

    let mut out_dir = "repro_out".to_string();
    let mut ids = Vec::new();
    let mut jobs = None;
    let mut timings = false;
    let mut metrics = None;
    let mut trace = None;
    let mut cache = None;
    let mut detect = None;
    let mut detect_matrix = false;
    let mut huge = false;
    let mut serve = None;
    let mut serve_bench = false;
    let mut serve_conns = 64usize;
    let mut serve_out = "serve_out".to_string();
    let mut help = false;

    // Phase 2: per-field overrides, applied in the order given.
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {}
            "--scale" => {
                let raw = iter.next();
                // The named profile spelling: `--scale huge` switches to
                // the million-node throughput bench. Duplicate --scale
                // keeps last-wins semantics: a later numeric value
                // returns to the pipeline.
                if raw.map(String::as_str) == Some("huge") {
                    huge = true;
                    continue;
                }
                let scale: f64 = parse_value(arg, raw)?;
                if !(MIN_SCALE..=1.0).contains(&scale) {
                    return Err(format!(
                        "--scale must be in [{MIN_SCALE}, 1] or 'huge', got {scale}"
                    ));
                }
                huge = false;
                config.scale = scale;
            }
            "--seed" => config.seed = parse_value(arg, iter.next())?,
            "--hours" => {
                let hours: u64 = parse_value(arg, iter.next())?;
                // At most one simulated year: the pipeline multiplies
                // hours into seconds and minutes, so an unbounded value
                // would overflow there instead of failing here.
                if !(1..=MAX_HOURS).contains(&hours) {
                    return Err(format!("--hours must be in 1..={MAX_HOURS}, got {hours}"));
                }
                config.day_hours = hours;
            }
            "--jobs" => {
                let n: usize = parse_value(arg, iter.next())?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                jobs = Some(n);
            }
            "--timings" => timings = true,
            "--metrics" => metrics = Some(parse_value(arg, iter.next())?),
            "--trace" => trace = Some(parse_value(arg, iter.next())?),
            "--cache" => cache = Some(parse_value(arg, iter.next())?),
            "--detect" => detect = Some(parse_value(arg, iter.next())?),
            "--detect-matrix" => detect_matrix = true,
            "--serve" => {
                // u16 already rejects > 65535 in parse_value; port 0
                // (kernel-assigned) is refused so scripts always know
                // the address they asked for.
                let port: u16 = parse_value(arg, iter.next())?;
                if port == 0 {
                    return Err("--serve port must be in 1..=65535, got 0".to_string());
                }
                serve = Some(port);
            }
            "--serve-bench" => serve_bench = true,
            "--serve-conns" => {
                let n: usize = parse_value(arg, iter.next())?;
                if n == 0 || n > 1024 {
                    return Err(format!("--serve-conns must be in 1..=1024, got {n}"));
                }
                serve_conns = n;
            }
            "--serve-out" => serve_out = parse_value(arg, iter.next())?,
            "--out" => out_dir = parse_value(arg, iter.next())?,
            "--help" | "-h" => help = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            id => ids.push(id.to_string()),
        }
    }

    Ok(CliOptions {
        config,
        out_dir,
        ids,
        jobs,
        timings,
        metrics,
        trace,
        cache,
        detect,
        detect_matrix,
        huge,
        serve,
        serve_bench,
        serve_conns,
        serve_out,
        help,
    })
}

/// Every flag `repro` understands, in display order. [`usage`] lists all
/// of them; a test pins the two in sync with the parser.
pub const FLAGS: [&str; 17] = [
    "--quick",
    "--scale",
    "--seed",
    "--hours",
    "--jobs",
    "--timings",
    "--metrics",
    "--trace",
    "--cache",
    "--detect",
    "--detect-matrix",
    "--serve",
    "--serve-bench",
    "--serve-conns",
    "--serve-out",
    "--out",
    "--help",
];

/// The `repro --help` text.
pub fn usage() -> String {
    format!(
        "repro — regenerate the paper's tables and figures\n\n\
         usage: repro [--quick] [--scale F|huge] [--seed S] [--hours H] [--jobs N]\n\
         \x20             [--timings] [--metrics DIR] [--trace DIR]\n\
         \x20             [--cache DIR] [--detect DIR] [--detect-matrix]\n\
         \x20             [--serve PORT | --serve-bench]\n\
         \x20             [--serve-conns N] [--serve-out DIR]\n\
         \x20             [--out DIR] [IDS…]\n\n\
         --quick        5% scale preset; later or earlier per-field flags override it\n\
         --scale F      population scale in [{MIN_SCALE}, 1] (1.0 = the paper's 13,635 nodes),\n\
         \x20              or 'huge' for the million-node gossip throughput bench\n\
         \x20              (writes scale_gossip.csv; BENCH gains a `scale` section)\n\
         --seed S       snapshot / simulation seed\n\
         --hours H      one-day crawl hours in 1..={MAX_HOURS} (the general crawl gets 2×H)\n\
         --jobs N       worker threads (default: one per core; output is identical)\n\
         --timings      print per-job wall times and write timings.csv to --out\n\
         --metrics DIR  write metrics.json, metrics.csv and BENCH_pipeline.json\n\
         \x20              to DIR (artifact output is unchanged)\n\
         --trace DIR    write the deterministic flight-recorder trace.bin and\n\
         \x20              trace.jsonl to DIR (artifact output is unchanged;\n\
         \x20              inspect with the `trace` binary)\n\
         --cache DIR    content-addressed artifact cache: store task results in\n\
         \x20              DIR and replay them on later runs with the same\n\
         \x20              config (byte-identical output, most work skipped);\n\
         \x20              with --serve / --serve-bench it persists memoized\n\
         \x20              query responses across restarts instead\n\
         --detect DIR   replay the run's trace through the partition-\n\
         \x20              detection suite once the pipeline finishes and\n\
         \x20              write alerts.bin, alerts.jsonl and detect_report.txt\n\
         \x20              to DIR (artifact output is unchanged; inspect with\n\
         \x20              `trace detect`)\n\
         --detect-matrix  run the detection scoring harness instead of the\n\
         \x20              pipeline: every detector against the benign /\n\
         \x20              cut_half / as_eclipse / miner_cut scenarios;\n\
         \x20              writes detection_roc.csv and per-scenario traces\n\
         \x20              to --detect DIR (required)\n\
         --serve PORT   load the substrate once and answer what-if queries\n\
         \x20              over TCP on 127.0.0.1:PORT (no artifact pipeline)\n\
         --serve-bench  drive the synthetic query load against an in-process\n\
         \x20              engine; writes serve_responses.bin to --serve-out\n\
         \x20              and, with --metrics, a BENCH `serve` section\n\
         --serve-conns N  concurrent connections --serve accepts (1..=1024,\n\
         \x20              default 64)\n\
         --serve-out DIR  serve-bench artifact directory (default serve_out/)\n\
         --out DIR      CSV export directory (default repro_out/)\n\
         --help         this text\n\n\
         artifacts: {}",
        crate::ARTIFACT_IDS.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn quick_then_override() {
        let opts = parse_args(&argv(&["--quick", "--scale", "0.1", "all"])).unwrap();
        assert_eq!(opts.config.scale, 0.1);
        assert_eq!(opts.config.day_hours, ReproConfig::quick().day_hours);
        assert_eq!(opts.ids, vec!["all"]);
    }

    #[test]
    fn override_then_quick_is_equivalent() {
        let a = parse_args(&argv(&["--scale", "0.1", "--quick", "all"])).unwrap();
        let b = parse_args(&argv(&["--quick", "--scale", "0.1", "all"])).unwrap();
        assert_eq!(a, b);
        // The override survives: --quick no longer resets earlier flags.
        assert_eq!(a.config.scale, 0.1);
    }

    #[test]
    fn seed_and_hours_survive_late_quick() {
        let opts =
            parse_args(&argv(&["--seed", "7", "--hours", "3", "--quick", "table1"])).unwrap();
        assert_eq!(opts.config.seed, 7);
        assert_eq!(opts.config.day_hours, 3);
        assert_eq!(opts.config.general_hours(), 6);
        assert_eq!(opts.config.scale, ReproConfig::quick().scale);
    }

    #[test]
    fn defaults_are_paper_scale() {
        let opts = parse_args(&argv(&["all"])).unwrap();
        assert_eq!(opts.config, ReproConfig::paper());
        assert_eq!(opts.out_dir, "repro_out");
        assert_eq!(opts.jobs, None);
        assert!(!opts.timings);
    }

    #[test]
    fn jobs_and_timings() {
        let opts = parse_args(&argv(&["--jobs", "4", "--timings", "all"])).unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.timings);
        // Zero workers is rejected with a message that names the flag
        // and the minimum, not a panic or a silent clamp.
        let err = parse_args(&argv(&["--jobs", "0"])).unwrap_err();
        assert!(
            err.contains("--jobs") && err.contains("at least 1"),
            "unclear --jobs 0 error: {err}"
        );
        assert!(parse_args(&argv(&["--jobs"])).is_err());
    }

    #[test]
    fn metrics_flag_takes_a_directory() {
        let opts = parse_args(&argv(&["--quick", "--metrics", "mdir", "all"])).unwrap();
        assert_eq!(opts.metrics.as_deref(), Some("mdir"));
        assert!(parse_args(&argv(&["--metrics"])).is_err());
        // Default: off.
        assert_eq!(parse_args(&argv(&["all"])).unwrap().metrics, None);
    }

    #[test]
    fn trace_flag_mirrors_metrics() {
        let opts = parse_args(&argv(&["--quick", "--trace", "tdir", "all"])).unwrap();
        assert_eq!(opts.trace.as_deref(), Some("tdir"));
        // A bare --trace is an error, exactly like a bare --metrics.
        assert!(parse_args(&argv(&["--trace"])).is_err());
        // Default: off.
        assert_eq!(parse_args(&argv(&["all"])).unwrap().trace, None);
        // Order-insensitive with the preset, like every other flag.
        let a = parse_args(&argv(&["--trace", "tdir", "--quick", "all"])).unwrap();
        let b = parse_args(&argv(&["--quick", "--trace", "tdir", "all"])).unwrap();
        assert_eq!(a, b);
        // --trace and --metrics compose.
        let both = parse_args(&argv(&["--metrics", "m", "--trace", "t", "all"])).unwrap();
        assert_eq!(both.metrics.as_deref(), Some("m"));
        assert_eq!(both.trace.as_deref(), Some("t"));
    }

    #[test]
    fn usage_lists_every_flag() {
        let text = usage();
        for flag in FLAGS {
            assert!(text.contains(flag), "usage text is missing {flag}");
        }
        // And every flag the usage advertises actually parses (with a
        // dummy value where one is required).
        for flag in FLAGS {
            let args = match flag {
                "--scale" => argv(&[flag, "0.5"]),
                "--seed" | "--hours" | "--jobs" => argv(&[flag, "1"]),
                "--metrics" | "--trace" | "--cache" | "--detect" | "--out" | "--serve-out" => {
                    argv(&[flag, "dir"])
                }
                "--serve" => argv(&[flag, "8080"]),
                "--serve-conns" => argv(&[flag, "8"]),
                _ => argv(&[flag]),
            };
            assert!(
                parse_args(&args).is_ok(),
                "usage advertises {flag} but it fails to parse"
            );
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv(&["--scale", "2.0"])).is_err());
        assert!(parse_args(&argv(&["--scale", "0"])).is_err());
        assert!(parse_args(&argv(&["--scale", "NaN"])).is_err());
        assert!(parse_args(&argv(&["--scale", "abc"])).is_err());
        assert!(parse_args(&argv(&["--hours", "0"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn hours_are_bounded_at_parse_time() {
        let opts = parse_args(&argv(&["--hours", "8760", "all"])).unwrap();
        assert_eq!(opts.config.day_hours, MAX_HOURS);
        assert_eq!(opts.config.general_hours(), 2 * MAX_HOURS);
        // Values the pipeline would overflow on fail here instead,
        // naming the flag and the range.
        for bad in ["0", "8761", "18446744073709551615"] {
            let err = parse_args(&argv(&["--hours", bad, "all"])).unwrap_err();
            assert!(err.contains("--hours") && err.contains("1..=8760"), "{err}");
        }
    }

    #[test]
    fn scale_has_a_floor_the_simulators_can_build() {
        // Too few nodes to build: parsing fails instead of a panic.
        for bad in ["1e-9", "5e-4"] {
            let err = parse_args(&argv(&["--scale", bad, "all"])).unwrap_err();
            assert!(err.contains("--scale must be in [0.001, 1]"), "{err}");
        }
        let opts = parse_args(&argv(&["--scale", "1e-3", "all"])).unwrap();
        assert_eq!(opts.config.scale, MIN_SCALE);
    }

    #[test]
    fn scale_huge_selects_the_throughput_bench() {
        let opts = parse_args(&argv(&["--scale", "huge", "--hours", "1"])).unwrap();
        assert!(opts.huge);
        assert_eq!(opts.config.day_hours, 1);
        // Default: off, at any numeric scale.
        assert!(!parse_args(&argv(&["--quick", "all"])).unwrap().huge);
        // Last-wins, like every duplicated flag: a later numeric scale
        // returns to the pipeline, a later 'huge' leaves it.
        let opts = parse_args(&argv(&["--scale", "huge", "--scale", "0.5"])).unwrap();
        assert!(!opts.huge);
        assert_eq!(opts.config.scale, 0.5);
        let opts = parse_args(&argv(&["--scale", "0.5", "--scale", "huge"])).unwrap();
        assert!(opts.huge);
    }

    #[test]
    fn cache_flag_takes_a_directory() {
        let opts = parse_args(&argv(&["--quick", "--cache", "cdir", "all"])).unwrap();
        assert_eq!(opts.cache.as_deref(), Some("cdir"));
        assert!(parse_args(&argv(&["--cache"])).is_err());
        // Default: off.
        assert_eq!(parse_args(&argv(&["all"])).unwrap().cache, None);
        // Composes with the other export flags.
        let all = parse_args(&argv(&["--metrics", "m", "--trace", "t", "--cache", "c"])).unwrap();
        assert_eq!(all.cache.as_deref(), Some("c"));
    }

    #[test]
    fn detect_flags_mirror_the_other_exports() {
        let opts = parse_args(&argv(&["--quick", "--detect", "ddir", "all"])).unwrap();
        assert_eq!(opts.detect.as_deref(), Some("ddir"));
        assert!(!opts.detect_matrix);
        // A bare --detect is an error, exactly like a bare --trace.
        assert!(parse_args(&argv(&["--detect"])).is_err());
        // Defaults: both off.
        let opts = parse_args(&argv(&["all"])).unwrap();
        assert_eq!(opts.detect, None);
        assert!(!opts.detect_matrix);
        // Order-insensitive with the preset, like every other flag.
        let a = parse_args(&argv(&["--detect", "d", "--quick", "all"])).unwrap();
        let b = parse_args(&argv(&["--quick", "--detect", "d", "all"])).unwrap();
        assert_eq!(a, b);
        // --detect composes with the other export flags.
        let all = parse_args(&argv(&["--metrics", "m", "--trace", "t", "--detect", "d"])).unwrap();
        assert_eq!(all.detect.as_deref(), Some("d"));
        // --detect-matrix composes with --detect and the preset.
        let opts = parse_args(&argv(&["--quick", "--detect-matrix", "--detect", "ddir"])).unwrap();
        assert!(opts.detect_matrix);
        assert_eq!(opts.detect.as_deref(), Some("ddir"));
    }

    #[test]
    fn serve_flag_takes_a_bounded_port() {
        let opts = parse_args(&argv(&["--quick", "--serve", "7070"])).unwrap();
        assert_eq!(opts.serve, Some(7070));
        // Defaults: the pipeline, not the service.
        let opts = parse_args(&argv(&["all"])).unwrap();
        assert_eq!(opts.serve, None);
        assert!(!opts.serve_bench);
        assert_eq!(opts.serve_conns, 64);
        assert_eq!(opts.serve_out, "serve_out");
        // The port bound surfaces at parse time, naming the range.
        let err = parse_args(&argv(&["--serve", "0"])).unwrap_err();
        assert!(
            err.contains("--serve") && err.contains("1..=65535"),
            "{err}"
        );
        // Out-of-range ports fail in the u16 parser, naming the flag.
        let err = parse_args(&argv(&["--serve", "65536"])).unwrap_err();
        assert!(err.contains("--serve"), "{err}");
        assert!(parse_args(&argv(&["--serve"])).is_err());
    }

    #[test]
    fn serve_conns_bounds_are_parse_time() {
        let opts = parse_args(&argv(&["--serve", "7070", "--serve-conns", "1024"])).unwrap();
        assert_eq!(opts.serve_conns, 1024);
        for bad in ["0", "1025"] {
            let err = parse_args(&argv(&["--serve-conns", bad])).unwrap_err();
            assert!(
                err.contains("--serve-conns") && err.contains("1..=1024"),
                "{err}"
            );
        }
        assert!(parse_args(&argv(&["--serve-conns"])).is_err());
    }

    #[test]
    fn serve_flags_are_last_wins_and_order_insensitive() {
        let opts = parse_args(&argv(&["--serve", "7070", "--serve", "9090"])).unwrap();
        assert_eq!(opts.serve, Some(9090));
        let opts = parse_args(&argv(&["--serve-conns", "8", "--serve-conns", "16"])).unwrap();
        assert_eq!(opts.serve_conns, 16);
        // Still validated per occurrence.
        assert!(parse_args(&argv(&["--serve-conns", "8", "--serve-conns", "0"])).is_err());
        // Order-insensitive with the preset, like every other flag.
        let a = parse_args(&argv(&["--serve-bench", "--quick"])).unwrap();
        let b = parse_args(&argv(&["--quick", "--serve-bench"])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_flags_last_wins() {
        // Repeating a flag is not an error; the later value applies —
        // pinned so scripts can append overrides to a base command.
        let opts = parse_args(&argv(&["--seed", "1", "--seed", "2", "all"])).unwrap();
        assert_eq!(opts.config.seed, 2);
        let opts = parse_args(&argv(&["--jobs", "3", "--jobs", "8", "all"])).unwrap();
        assert_eq!(opts.jobs, Some(8));
        // Still validated per occurrence: a later invalid value fails
        // even when an earlier one was fine.
        assert!(parse_args(&argv(&["--jobs", "3", "--jobs", "0"])).is_err());
    }

    #[test]
    fn parse_errors_carry_the_source_error() {
        // The FromStr error text is surfaced, not swallowed: the user
        // sees *why* the value was rejected, not just an echo of it.
        let err = parse_args(&argv(&["--seed", "12x"])).unwrap_err();
        assert!(err.contains("--seed") && err.contains("12x"), "{err}");
        assert!(
            err.contains("invalid digit"),
            "error should carry the integer parser's reason: {err}"
        );
        let err = parse_args(&argv(&["--scale", "half"])).unwrap_err();
        assert!(
            err.contains("invalid float literal"),
            "error should carry the float parser's reason: {err}"
        );
    }
}
