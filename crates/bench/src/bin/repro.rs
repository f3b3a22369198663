//! `repro` — regenerates every table and figure of the paper.
//!
//! ```sh
//! repro                # everything at paper scale
//! repro --quick        # everything at 5% scale (seconds)
//! repro table5 fig4    # selected artifacts
//! repro --scale 0.25 --out out/ all
//! repro --quick --jobs 1 --timings all   # serial run with timing table
//! repro --quick --cache cache/ all       # warm runs replay cached tasks
//! ```
//!
//! Flags are order-insensitive: `--quick` selects the preset and the
//! per-field flags (`--scale`, `--seed`, `--hours`) override it no
//! matter where they appear. CSV exports land in the `--out` directory
//! (default `repro_out/`); `--timings` also writes `timings.csv` there.
//! `--metrics DIR` writes the deterministic `metrics.json` /
//! `metrics.csv` plus the wall-time `BENCH_pipeline.json` to `DIR`
//! without changing any artifact output (see `EXPERIMENTS.md`).
//! `--trace DIR` additionally records the deterministic flight-recorder
//! trace (`trace.bin` / `trace.jsonl`) — byte-identical for any
//! `--jobs N`, inspectable with the `trace` binary.
//! `--cache DIR` keeps a content-addressed store of task results: a
//! rerun with the same config replays cached tasks (byte-identical
//! artifacts, metrics and traces) instead of recomputing them.

use bp_bench::cache::ArtifactStore;
use bp_bench::cli::{parse_args, usage};
use bp_bench::pipeline::{default_jobs, run_pipeline, TraceHub, STREAM_RANK_DETECT};
use bp_bench::{bench_json, ARTIFACT_IDS};
use bp_detect::{DetectConfig, DetectEngine};
use std::path::{Path, PathBuf};

/// Validates the output directories up front: every `--out` /
/// `--metrics` / `--trace` / `--cache` target must be creatable as a
/// directory, two value-distinct flags must not collide on the same
/// path, and a target that already exists as a *file* is rejected with
/// an error naming the flag — previously these surfaced as a panic from
/// the first `fs::write` deep into the run, after minutes of work.
fn check_out_dirs(dirs: &[(&str, Option<&str>)]) {
    let canon = |raw: &str| -> PathBuf {
        // Resolve what exists; keep non-existent paths lexical so two
        // spellings of the same new directory still compare equal.
        Path::new(raw)
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from(raw))
    };
    let mut seen: Vec<(&str, String, PathBuf)> = Vec::new();
    for &(flag, dir) in dirs {
        let Some(dir) = dir else { continue };
        if dir.is_empty() {
            die(&format!("{flag} requires a non-empty directory path"));
        }
        let path = Path::new(dir);
        if path.is_file() {
            die(&format!(
                "{flag} {dir}: exists and is a file, not a directory"
            ));
        }
        std::fs::create_dir_all(path)
            .unwrap_or_else(|e| die(&format!("{flag} {dir}: cannot create directory: {e}")));
        let resolved = canon(dir);
        // The cache must not share a directory with an export target:
        // exports are wholesale-overwritten per run, the store is
        // incremental state — and both sides name files like *.bin.
        for (other_flag, other_dir, other_resolved) in &seen {
            let clash = *other_resolved == resolved;
            let cache_pair = flag == "--cache" || *other_flag == "--cache";
            if clash && cache_pair {
                die(&format!(
                    "{other_flag} {other_dir} and {flag} {dir} point at the same \
                     directory; the cache store needs its own directory"
                ));
            }
        }
        seen.push((flag, dir.to_string(), resolved));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = parse_args(&args).unwrap_or_else(|msg| die(&msg));
    if opts.help {
        print_help();
        return;
    }
    if opts.serve.is_some() && opts.serve_bench {
        die("--serve and --serve-bench are mutually exclusive");
    }
    if opts.huge && (opts.serve.is_some() || opts.serve_bench) {
        die("--scale huge cannot be combined with --serve / --serve-bench");
    }
    if opts.detect_matrix && (opts.huge || opts.serve.is_some() || opts.serve_bench) {
        die("--detect-matrix cannot be combined with --scale huge / --serve / --serve-bench");
    }
    if opts.huge {
        run_huge_bench(&opts);
        return;
    }
    if opts.serve_bench {
        run_serve_bench(&opts);
        return;
    }
    if opts.serve.is_some() {
        run_serve(&opts);
        return;
    }
    if opts.detect_matrix {
        run_detect_matrix(&opts);
        return;
    }
    if opts.ids.is_empty() {
        opts.ids.push("all".to_string());
    }
    for id in &opts.ids {
        if id != "all" && !ARTIFACT_IDS.contains(&id.as_str()) {
            die(&format!(
                "unknown artifact '{id}'; known: {}",
                ARTIFACT_IDS.join(", ")
            ));
        }
    }
    check_out_dirs(&[
        ("--out", Some(opts.out_dir.as_str())),
        ("--metrics", opts.metrics.as_deref()),
        ("--trace", opts.trace.as_deref()),
        ("--cache", opts.cache.as_deref()),
        ("--detect", opts.detect.as_deref()),
    ]);

    let jobs = opts.jobs.unwrap_or_else(default_jobs);
    let config = opts.config;
    eprintln!(
        "# generating {:?} at scale {} (day crawl: {} h, jobs: {jobs})",
        opts.ids, config.scale, config.day_hours
    );
    let registry = opts.metrics.as_ref().map(|_| btcpart::obs::Registry::new());
    // --detect needs the flight recorder running even without --trace:
    // once the pipeline finishes, the detection suite replays the hub's
    // merged trace, the same record stream the trace exports carry.
    let hub = (opts.trace.is_some() || opts.detect.is_some()).then(TraceHub::new);
    let mut store = opts.cache.as_ref().map(|dir| {
        ArtifactStore::open(dir).unwrap_or_else(|e| die(&format!("--cache {dir}: {e}")))
    });
    let (artifacts, report) = run_pipeline(
        &config,
        &opts.ids,
        jobs,
        registry.as_ref(),
        hub.as_ref(),
        store.as_mut(),
    );

    let out_dir = PathBuf::from(&opts.out_dir);
    for artifact in &artifacts {
        println!("{artifact}");
        for (name, contents) in &artifact.csv {
            let path = out_dir.join(format!("{name}.csv"));
            std::fs::write(&path, contents).expect("write CSV export");
            eprintln!("# wrote {}", path.display());
        }
    }
    if opts.timings {
        eprint!("{}", report.render());
        let path = out_dir.join("timings.csv");
        std::fs::write(&path, report.timings_csv()).expect("write timings.csv");
        eprintln!("# wrote {}", path.display());
    }
    if let (Some(dir), Some(hub)) = (&opts.detect, &hub) {
        // Replay the merged trace through the detection suite before
        // the alerts join it, so `trace detect` on trace.bin reproduces
        // this alert stream byte-for-byte.
        let detect_dir = PathBuf::from(dir);
        let mut engine = DetectEngine::new(DetectConfig::default());
        engine.feed_all(hub.merged().records());
        let detect_report = engine.finish();
        if let Some(reg) = &registry {
            detect_report.export_metrics(reg);
        }
        let alerts = detect_report.alerts.clone();
        // Publish the alert stream as the hub's rank-3 stream before
        // the trace export below, so trace.bin carries the alerts too.
        hub.set_stream(
            STREAM_RANK_DETECT,
            "detect",
            btcpart::obs::Tracer::from_records(alerts.clone()),
        );
        for (name, contents) in [
            ("alerts.bin", btcpart::obs::trace::encode_records(&alerts)),
            (
                "alerts.jsonl",
                btcpart::obs::trace::render_jsonl(&alerts).into_bytes(),
            ),
            ("detect_report.txt", detect_report.render().into_bytes()),
        ] {
            let path = detect_dir.join(name);
            std::fs::write(&path, contents).expect("write detect export");
            eprintln!("# wrote {}", path.display());
        }
        eprintln!(
            "# detect: {} alerts over {} ticks ({} records)",
            alerts.len(),
            detect_report.ticks,
            detect_report.records
        );
    }
    if let (Some(dir), Some(hub)) = (&opts.trace, &hub) {
        let trace_dir = PathBuf::from(dir);
        let merged = hub.merged();
        let records = merged.records();
        let bin = merged.encode();
        // Trace counters land in the registry before the metrics
        // snapshot below, so `repro --metrics M --trace T` exports them.
        if let Some(reg) = &registry {
            hub.export_metrics(reg);
            reg.add("trace.events_recorded", records.len() as u64);
            reg.add("trace.bytes_written", bin.len() as u64);
        }
        for (name, contents) in [
            ("trace.bin", bin),
            (
                "trace.jsonl",
                btcpart::obs::trace::render_jsonl(records).into_bytes(),
            ),
        ] {
            let path = trace_dir.join(name);
            std::fs::write(&path, contents).expect("write trace export");
            eprintln!("# wrote {}", path.display());
        }
    }
    if let (Some(dir), Some(reg)) = (&opts.metrics, &registry) {
        let metrics_dir = PathBuf::from(dir);
        let snapshot = reg.snapshot();
        let profile = if config == bp_bench::ReproConfig::quick() {
            "quick"
        } else if config == bp_bench::ReproConfig::paper() {
            "paper"
        } else {
            "custom"
        };
        for (name, contents) in [
            ("metrics.json", snapshot.to_json()),
            ("metrics.csv", snapshot.to_csv()),
            (
                "BENCH_pipeline.json",
                bench_json(profile, &config, Some(&report), &snapshot, None, None),
            ),
        ] {
            let path = metrics_dir.join(name);
            std::fs::write(&path, contents).expect("write metrics export");
            eprintln!("# wrote {}", path.display());
        }
    }
    if let Some(store) = store.as_mut() {
        store
            .flush()
            .unwrap_or_else(|e| die(&format!("cache flush failed: {e}")));
        if let Some(summary) = &report.cache {
            eprintln!(
                "# cache: {} hits, {} misses, {} tasks skipped, {} B read, {} B written ({} entries)",
                summary.hits,
                summary.misses,
                summary.skipped,
                summary.bytes_read,
                summary.bytes_written,
                store.len()
            );
        }
    }
    eprintln!("# {} artifacts generated", artifacts.len());
}

/// `repro --scale huge`: the million-node gossip throughput bench. No
/// artifact pipeline — one simulation driven straight through
/// `--hours` of gossip. Writes the deterministic `scale_gossip.csv` to
/// `--out`, and with `--metrics` the BENCH record whose `scale` section
/// the CI smoke job reads.
fn run_huge_bench(opts: &bp_bench::cli::CliOptions) {
    if !opts.ids.is_empty() {
        die("artifact ids cannot be combined with --scale huge");
    }
    if opts.cache.is_some() {
        die("--cache is not supported with --scale huge (nothing is cached)");
    }
    if opts.trace.is_some() {
        die("--trace is not supported with --scale huge");
    }
    if opts.detect.is_some() {
        die("--detect is not supported with --scale huge");
    }
    check_out_dirs(&[
        ("--out", Some(opts.out_dir.as_str())),
        ("--metrics", opts.metrics.as_deref()),
    ]);
    let config = opts.config;
    eprintln!(
        "# huge gossip bench: 1,000,000 nodes, {} h, seed {}",
        config.day_hours, config.seed
    );
    let registry = opts.metrics.as_ref().map(|_| btcpart::obs::Registry::new());
    let report = bp_bench::scale::run_huge(&config, registry.as_ref());
    let path = PathBuf::from(&opts.out_dir).join("scale_gossip.csv");
    std::fs::write(&path, &report.csv).expect("write scale_gossip.csv");
    eprintln!("# wrote {}", path.display());
    if let (Some(dir), Some(reg)) = (&opts.metrics, &registry) {
        let metrics_dir = PathBuf::from(dir);
        let snapshot = reg.snapshot();
        for (name, contents) in [
            ("metrics.json", snapshot.to_json()),
            ("metrics.csv", snapshot.to_csv()),
            (
                "BENCH_pipeline.json",
                bench_json("huge", &config, None, &snapshot, Some(&report), None),
            ),
        ] {
            let path = metrics_dir.join(name);
            std::fs::write(&path, contents).expect("write metrics export");
            eprintln!("# wrote {}", path.display());
        }
    }
    let trend = report
        .rss_hourly_mb
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(" ");
    eprintln!("# peak RSS by hour (MiB): {trend}");
    eprintln!(
        "# {} events over {} participants in {:.1} s ({:.0} events/s), \
         peak RSS {} MiB (budget {} MiB)",
        report.events,
        report.participants,
        report.wall_ms / 1e3,
        report.events_per_sec,
        report.rss_peak_mb,
        report.memory_budget_mb
    );
}

/// `repro --detect-matrix`: the detection scoring harness. No artifact
/// pipeline — each scenario in the matrix is one seeded simulation on
/// the day-crawl cadence, replayed through the detector suite and
/// graded against its own ground-truth partition records. Writes
/// `detection_roc.csv` plus a per-scenario `trace_<name>.bin` (records
/// with the alert stream appended) to the `--detect` directory.
fn run_detect_matrix(opts: &bp_bench::cli::CliOptions) {
    if !opts.ids.is_empty() {
        die("artifact ids cannot be combined with --detect-matrix");
    }
    if opts.trace.is_some() || opts.metrics.is_some() || opts.cache.is_some() || opts.timings {
        die(
            "--detect-matrix writes only to --detect DIR; drop --trace/--metrics/--cache/--timings",
        );
    }
    let Some(dir) = opts.detect.as_deref() else {
        die("--detect-matrix requires --detect DIR for its outputs");
    };
    check_out_dirs(&[("--detect", Some(dir))]);
    let config = opts.config;
    eprintln!(
        "# detect matrix: scenarios {:?} at scale {} ({} h each, seed {})",
        bp_bench::detect::SCENARIOS,
        config.scale,
        config.day_hours,
        config.seed
    );
    let result = bp_bench::detect::run_detect_matrix(&config);
    let detect_dir = PathBuf::from(dir);
    let path = detect_dir.join("detection_roc.csv");
    std::fs::write(&path, &result.csv).expect("write detection_roc.csv");
    eprintln!("# wrote {}", path.display());
    for (name, bytes) in &result.traces {
        let path = detect_dir.join(name);
        std::fs::write(&path, bytes).expect("write scenario trace");
        eprintln!("# wrote {}", path.display());
    }
    for (scenario, scores) in &result.scores {
        for s in scores {
            let latency = s
                .latency_ms
                .map(|ms| format!("{} s", ms / 1_000))
                .unwrap_or_else(|| "-".to_string());
            eprintln!(
                "# {scenario:>10} {:<12} alerts {:>3} (true {:>3} / false {:>3}) \
                 latency {latency:>7}  fpr {}.{:01}%",
                s.detector,
                s.alerts,
                s.true_alerts,
                s.false_alerts,
                s.fpr_permille / 10,
                s.fpr_permille % 10
            );
        }
    }
}

/// Shared guard for the two serve modes: no artifact ids, no pipeline
/// trace (the service has no task DAG to record).
fn check_serve_opts(opts: &bp_bench::cli::CliOptions, mode: &str) {
    if !opts.ids.is_empty() {
        die(&format!("artifact ids cannot be combined with {mode}"));
    }
    if opts.trace.is_some() {
        die(&format!("--trace is not supported with {mode}"));
    }
    if opts.detect.is_some() {
        die(&format!("--detect is not supported with {mode}"));
    }
    if opts.timings {
        die(&format!("--timings is not supported with {mode}"));
    }
}

/// `repro --serve PORT`: load the substrate once, answer batched
/// what-if queries over TCP until killed. `--cache DIR` attaches the
/// artifact store as a persistent memo backend — responses survive
/// restarts — and is flushed in the background as queries land.
fn run_serve(opts: &bp_bench::cli::CliOptions) {
    check_serve_opts(opts, "--serve");
    if opts.metrics.is_some() {
        die("--metrics is not supported with --serve (use --serve-bench)");
    }
    check_out_dirs(&[("--cache", opts.cache.as_deref())]);
    let port = opts.serve.expect("dispatched on --serve");
    let config = opts.config;
    let workers = opts.jobs.unwrap_or_else(default_jobs);
    eprintln!(
        "# loading substrate at scale {} (day crawl: {} h, workers: {workers})",
        config.scale, config.day_hours
    );
    let engine = bp_bench::serve::build_engine(&config, workers, opts.cache.as_deref())
        .unwrap_or_else(|e| die(&e));
    let handle = bp_serve::serve(
        std::sync::Arc::clone(&engine),
        &format!("127.0.0.1:{port}"),
        opts.serve_conns,
    )
    .unwrap_or_else(|e| die(&format!("--serve {port}: {e}")));
    eprintln!(
        "# serving on {} ({} connections max)",
        handle.addr(),
        opts.serve_conns
    );
    // Park the main thread; a background loop persists freshly memoized
    // responses so a kill loses at most one flush interval of work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        engine
            .flush_backend()
            .unwrap_or_else(|e| die(&format!("cache flush failed: {e}")));
    }
}

/// `repro --serve-bench`: the synthetic query-load bench against an
/// in-process engine. Writes the deterministic response stream
/// `serve_responses.bin` to `--serve-out` (the byte-identity artifact
/// CI compares across worker counts and restarts) and, with
/// `--metrics`, the BENCH record with a `serve` section.
fn run_serve_bench(opts: &bp_bench::cli::CliOptions) {
    check_serve_opts(opts, "--serve-bench");
    check_out_dirs(&[
        ("--serve-out", Some(opts.serve_out.as_str())),
        ("--metrics", opts.metrics.as_deref()),
        ("--cache", opts.cache.as_deref()),
    ]);
    let config = opts.config;
    let workers = opts.jobs.unwrap_or_else(default_jobs);
    eprintln!(
        "# serve bench: scale {}, {} queries, workers: {workers}",
        config.scale,
        bp_bench::serve::BENCH_QUERIES,
    );
    let engine = bp_bench::serve::build_engine(&config, workers, opts.cache.as_deref())
        .unwrap_or_else(|e| die(&e));
    let registry = btcpart::obs::Registry::new();
    let mut sink = Vec::new();
    let report = bp_bench::serve::run_bench(&engine, &config, workers, &registry, Some(&mut sink));
    let path = PathBuf::from(&opts.serve_out).join("serve_responses.bin");
    std::fs::write(&path, &sink).expect("write serve_responses.bin");
    eprintln!("# wrote {}", path.display());
    engine
        .flush_backend()
        .unwrap_or_else(|e| die(&format!("cache flush failed: {e}")));
    if let Some(dir) = &opts.metrics {
        let metrics_dir = PathBuf::from(dir);
        let snapshot = registry.snapshot();
        let profile = if config == bp_bench::ReproConfig::quick() {
            "quick"
        } else if config == bp_bench::ReproConfig::paper() {
            "paper"
        } else {
            "custom"
        };
        for (name, contents) in [
            ("metrics.json", snapshot.to_json()),
            ("metrics.csv", snapshot.to_csv()),
            (
                "BENCH_pipeline.json",
                bench_json(profile, &config, None, &snapshot, None, Some(&report)),
            ),
        ] {
            let path = metrics_dir.join(name);
            std::fs::write(&path, contents).expect("write metrics export");
            eprintln!("# wrote {}", path.display());
        }
    }
    let l = &report.load;
    eprintln!(
        "# {} queries ({} distinct) over {} ASes: {:.0} qps warm, \
         p50 {} µs, p99 {} µs, p99.9 {} µs",
        l.warm_queries, l.cold_queries, report.universe, l.qps, l.p50_us, l.p99_us, l.p999_us
    );
    eprintln!(
        "# memo: {} hits / {} misses, {} cold evals, {} backend hits",
        l.memo_hits, l.memo_misses, l.cold_evals, l.backend_hits
    );
}

fn print_help() {
    println!("{}", usage());
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
