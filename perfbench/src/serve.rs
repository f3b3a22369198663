//! `serve-tcp`: the query service over real loopback TCP.
//!
//! `bp_serve::serve` on `127.0.0.1:0` over
//! `bp_bench::serve::build_engine(ReproConfig::quick(), nproc workers)`,
//! driven in a closed loop by `bp_serve::Client`s (each scripted caller
//! waits for its reply before sending the next frame). The seed drives
//! the traffic — both query streams below — while the served substrate
//! is the quick profile's, as a deployed service loads one dataset:
//!
//! - **cold phase**: one connection sends 64-query frames from a deck of
//!   distinct queries in the load generator's family mix. The memo is
//!   invalidated (an O(1) generation bump) before every pass over the
//!   deck, so every query is a memo miss: micro-DAG evaluations plus
//!   memo inserts, at a per-query cost that does not drift with the
//!   number of passes a window holds.
//! - **warm phase**: two connections replay the seeded zipf
//!   `bp_serve::script` in 64-query frames against a memo that holds
//!   every answer: memo reads plus codec plus transport.
//!
//! Each phase runs for a fixed share of the wall window, not a fixed
//! frame count. Every TCP response must equal the in-process
//! `execute_batch` answer for the same frame. The simulator is bypassed
//! after set-up.

use crate::layers::Layers;
use crate::spans::Recorder;
use crate::stats::{median, percentile, rss_mb, Digest};
use crate::{Args, EndToEnd, Outcome};
use bp_bench::ReproConfig;
use bp_serve::wire::{decode_request, decode_response, encode_request, encode_response};
use bp_serve::{script, Client, Query, QueryEngine, ScriptConfig, ServerHandle, TargetMix};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per frame.
const FRAME: usize = 64;
/// Client connections in the warm phase (the cold phase uses the first).
const CONNS: usize = 2;
/// Queries in the warm script (the `repro --serve-bench` size).
const WARM_QUERIES: usize = bp_bench::serve::BENCH_QUERIES;
/// Length of the uniform script whose distinct queries form the cold
/// deck, and the deck's cap (a whole number of frames).
const DECK_SCRIPT: usize = 4096;
const DECK_MAX: usize = 16 * FRAME;
/// Salt separating the deck's script seed from the warm script's.
const DECK_SALT: u64 = 0xC01D_DECC;
/// Share of the window given to the cold phase.
const COLD_SHARE: f64 = 0.4;
/// Set-ups per run; `setup_s` is their median and the last one serves.
const SETUP_REPEATS: usize = 7;

/// A running service and its connected clients.
struct Service {
    engine: Arc<QueryEngine>,
    server: ServerHandle,
    clients: Vec<Client>,
}

impl Service {
    fn start(config: &ReproConfig) -> (Self, f64) {
        let t = Instant::now();
        let engine =
            bp_bench::serve::build_engine(config, bp_bench::pipeline::default_jobs(), None)
                .expect("an engine without a store cannot fail to open");
        let server =
            bp_serve::serve(Arc::clone(&engine), "127.0.0.1:0", CONNS).expect("bind loopback");
        let clients = (0..CONNS)
            .map(|_| Client::connect(server.addr()).expect("connect to loopback"))
            .collect();
        let took = t.elapsed().as_secs_f64();
        (
            Self {
                engine,
                server,
                clients,
            },
            took,
        )
    }

    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Positional answers of one frame, as `execute_batch` returns them.
type Answers = Vec<Arc<Vec<u8>>>;

fn same(over_wire: &[Vec<u8>], expected: &Answers) -> bool {
    over_wire.len() == expected.len() && over_wire.iter().zip(expected).all(|(a, b)| a[..] == b[..])
}

/// Distinct queries in first-appearance order.
fn distinct(queries: &[Query]) -> Vec<Query> {
    let mut seen = HashSet::new();
    queries
        .iter()
        .filter(|q| seen.insert(q.encode()))
        .cloned()
        .collect()
}

/// Per-family label for the cold-cost breakdown.
fn family(q: &Query) -> &'static str {
    match q {
        Query::Eclipse { cascade: true, .. } => "eclipse_cascade",
        other => other.family(),
    }
}

/// What one connection measured in one phase.
#[derive(Default)]
struct Leg {
    rtts: Vec<f64>,
    queries: usize,
    attempted: u64,
    failed: u64,
}

/// Closed-loop frames on one connection until `deadline`, starting at
/// frame `first` and cycling; `before_pass` runs (untimed) whenever the
/// cycle returns to frame 0.
fn drive(
    client: &mut Client,
    frames: &[&[Query]],
    expected: &[Answers],
    first: usize,
    deadline: Instant,
    rec: &mut Recorder,
    before_pass: &dyn Fn(),
) -> Leg {
    let mut leg = Leg::default();
    let mut at = first;
    while leg.attempted == 0 || Instant::now() < deadline {
        if at == 0 {
            before_pass();
        }
        let op = leg.attempted;
        let t = Instant::now();
        rec.enter("bp_serve::Client::roundtrip", op);
        let reply = client.roundtrip(frames[at]);
        rec.exit();
        let rtt = t.elapsed().as_secs_f64();
        leg.attempted += 1;
        match reply {
            Ok(answers) => {
                leg.rtts.push(rtt);
                leg.queries += frames[at].len();
                if !same(&answers, &expected[at]) {
                    leg.failed += 1;
                    eprintln!("frame {at}: TCP answers differ from execute_batch");
                }
            }
            Err(e) => {
                leg.failed += 1;
                eprintln!("frame {at}: {e}");
                break;
            }
        }
        at = (at + 1) % frames.len();
    }
    leg
}

/// The warm phase: every connection replays the script from its own
/// offset until the window closes. Returns the legs and the phase wall.
fn warm_phase(
    clients: &mut [Client],
    frames: &[&[Query]],
    expected: &[Answers],
    window: Duration,
    rec: &mut Recorder,
    record: bool,
) -> (Vec<Leg>, f64) {
    let start = Instant::now();
    let deadline = start + window;
    let conns = clients.len();
    let results: Vec<(Leg, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut thread_rec = Recorder::new(record, rec.origin(), c as u32 + 1);
                scope.spawn(move || {
                    let first = c * frames.len() / conns;
                    let leg = drive(
                        client,
                        frames,
                        expected,
                        first,
                        deadline,
                        &mut thread_rec,
                        &|| {},
                    );
                    (leg, thread_rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm connection thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut legs = Vec::new();
    for (leg, thread_rec) in results {
        rec.absorb(thread_rec);
        legs.push(leg);
    }
    (legs, wall)
}

pub fn run(args: &Args) -> Outcome {
    let config = ReproConfig::quick();
    let origin = Instant::now();
    let mut rec = Recorder::new(args.trace, origin, 0);
    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = service.take() {
            Service::stop(previous);
        }
        let (s, took) = Service::start(&config);
        setups.push(took);
        service = Some(s);
    }
    let Service {
        engine,
        server,
        mut clients,
    } = service.expect("at least one set-up");
    let rss_after_setup = rss_mb();
    let substrate_build_s = if args.trace {
        let t = Instant::now();
        rec.enter("bp_bench::serve::build_substrate", 0);
        drop(black_box(bp_bench::serve::build_substrate(&config)));
        rec.exit();
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };

    // Inputs, all from the seed.
    let universe = engine.hijacks().populated_ases();
    let warm_script = script(
        &universe,
        &ScriptConfig {
            seed: args.seed,
            queries: WARM_QUERIES,
            mix: TargetMix::Zipf,
        },
    );
    let mut deck = distinct(&script(
        &universe,
        &ScriptConfig {
            seed: args.seed ^ DECK_SALT,
            queries: DECK_SCRIPT,
            mix: TargetMix::Uniform,
        },
    ));
    deck.truncate((deck.len() / FRAME * FRAME).clamp(FRAME.min(deck.len()), DECK_MAX));
    let deck_frames: Vec<&[Query]> = deck.chunks(FRAME).collect();
    let warm_frames: Vec<&[Query]> = warm_script.chunks(FRAME).collect();

    // In-process reference answers. The traced run first times each deck
    // query alone, cold, for the per-family breakdown.
    let mut cold_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    if args.trace {
        engine.invalidate_memo();
        for q in &deck {
            let t = Instant::now();
            rec.enter("bp_serve::QueryEngine::execute", 0);
            black_box(engine.execute(q));
            rec.exit();
            cold_us
                .entry(family(q))
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let cold_expected: Vec<Answers> = deck_frames
        .iter()
        .map(|f| engine.execute_batch(f))
        .collect();
    let mut reference = Digest::default();
    for answers in &cold_expected {
        for a in answers {
            reference.field(a);
        }
    }

    // Cold phase.
    let cold_window = args.window.mul_f64(COLD_SHARE);
    let evals_before_cold = engine.cold_evals();
    let invalidate = || engine.invalidate_memo();
    let cold = drive(
        &mut clients[0],
        &deck_frames,
        &cold_expected,
        0,
        Instant::now() + cold_window,
        &mut rec,
        &invalidate,
    );
    let cold_evals = engine.cold_evals() - evals_before_cold;
    let cold_qps = cold.queries as f64 / cold.rtts.iter().sum::<f64>();

    // Warm phase: answers computed (and memoized) in process first.
    let warm_expected: Vec<Answers> = warm_frames
        .iter()
        .map(|f| engine.execute_batch(f))
        .collect();
    for answers in &warm_expected {
        for a in answers {
            reference.field(a);
        }
    }
    let evals_before_warm = engine.cold_evals();
    let warm_window = args.window.mul_f64(1.0 - COLD_SHARE);
    // The traced run splits the warm window into a plain half and a
    // recorded half, so it can report the recorder's own overhead.
    let (plain_window, recorded_window) = if args.trace {
        (warm_window / 2, Some(warm_window / 2))
    } else {
        (warm_window, None)
    };
    let (warm, warm_wall) = warm_phase(
        &mut clients,
        &warm_frames,
        &warm_expected,
        plain_window,
        &mut rec,
        false,
    );
    let recorded = recorded_window.map(|w| {
        warm_phase(
            &mut clients,
            &warm_frames,
            &warm_expected,
            w,
            &mut rec,
            true,
        )
        .0
    });
    let warm_evals = engine.cold_evals() - evals_before_warm;
    drop(clients);
    server.shutdown();

    let mut out = Outcome::default();
    for leg in std::iter::once(&cold)
        .chain(&warm)
        .chain(recorded.iter().flatten())
    {
        out.attempted += leg.attempted;
        out.failed += leg.failed;
    }
    let all_cold = cold_evals == cold.queries as u64;
    let all_warm = warm_evals == 0;
    if !all_cold {
        eprintln!(
            "cold phase: {cold_evals} evaluations for {} queries",
            cold.queries
        );
    }
    if !all_warm {
        eprintln!("warm phase: {warm_evals} evaluations, expected none");
    }
    out.correct = out.failed == 0 && all_cold && all_warm;

    let rtts_ms: Vec<f64> = warm
        .iter()
        .flat_map(|l| l.rtts.iter().map(|r| r * 1e3))
        .collect();
    let warm_queries: usize = warm.iter().map(|l| l.queries).sum();
    let warm_qps = warm_queries as f64 / warm_wall;
    let (p50, p95) = (median(&rtts_ms), percentile(&rtts_ms, 95.0));
    let setup_s = median(&setups);
    let rss_peak_mb = crate::stats::peak_rss_mb();
    let warm_distinct = distinct(&warm_script).len();
    println!(
        "# work: warm script {WARM_QUERIES} queries ({warm_distinct} distinct, {} frames); cold deck {} queries ({} frames); answers digest {:016x}",
        warm_frames.len(),
        deck.len(),
        deck_frames.len(),
        reference.value()
    );
    println!(
        "# cold: {} frames, {} queries, {} passes, {cold_evals} evaluations on 1 connection",
        cold.attempted,
        cold.queries,
        cold.queries.div_ceil(deck.len().max(1)),
    );
    let per_conn: Vec<String> = warm.iter().map(|l| l.attempted.to_string()).collect();
    println!(
        "# warm: {warm_queries} queries, frames per connection [{}], {warm_evals} evaluations",
        per_conn.join(", ")
    );
    println!("# warm_qps = {warm_qps} 1/s");
    println!(
        "# warm_p50_ms = {p50} ms, warm_p95_ms = {p95} ms ({} frames)",
        rtts_ms.len()
    );
    println!("# cold_qps = {cold_qps} 1/s");
    println!(
        "# setup_s = {setup_s} s (median of {SETUP_REPEATS} set-ups: {})",
        setups
            .iter()
            .map(|s| format!("{:.1} ms", s * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("# rss_peak_mb = {rss_peak_mb} MiB");

    if !args.trace {
        out.end_to_end(EndToEnd {
            latency_p50_ms: p50,
            latency_p95_ms: p95,
            throughput_per_s: warm_qps,
            cold_per_s: cold_qps,
            setup_s,
            rss_peak_mb,
        });
        return out;
    }

    // In-process splits of the warm frame round trip.
    let engine_us: Vec<f64> = warm_frames
        .iter()
        .map(|f| {
            let t = Instant::now();
            black_box(engine.execute_batch(f));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let codec_us: Vec<f64> = warm_frames
        .iter()
        .zip(&warm_expected)
        .map(|(f, answers)| {
            let t = Instant::now();
            let request = encode_request(f);
            black_box(decode_request(&request).expect("own request decodes"));
            let response = encode_response(answers);
            black_box(decode_response(&response).expect("own response decodes"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let recorded_ms: Vec<f64> = recorded
        .iter()
        .flatten()
        .flat_map(|l| l.rtts.iter().map(|r| r * 1e3))
        .collect();
    print!("{}", rec.render_summary());
    rec.write_out(&format!("spans-serve-tcp-seed{}.jsonl", args.seed));

    let mut layers = Layers::default();
    let roundtrip_us = p50 * 1e3;
    let (engine_p50, codec_p50) = (median(&engine_us), median(&codec_us));
    layers.set("serve.substrate_build_s", substrate_build_s);
    layers.set("serve.roundtrip_us", roundtrip_us);
    layers.set("serve.engine.warm_frame_us", engine_p50);
    layers.set("serve.wire.codec_us", codec_p50);
    layers.set("serve.transport_us", roundtrip_us - engine_p50 - codec_p50);
    for (fam, samples) in &cold_us {
        layers.set(&format!("serve.engine.cold_us.{fam}"), median(samples));
    }
    let (hits, misses) = (engine.memo_hits(), engine.memo_misses());
    layers.set(
        "serve.memo.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("serve.cold_evals", engine.cold_evals() as f64);
    let entries: HashSet<u128> = deck
        .iter()
        .chain(&warm_script)
        .map(|q| engine.key_of(q))
        .collect();
    layers.set("serve.memo.entries", entries.len() as f64);
    layers.set("serve.warm_frames", rtts_ms.len() as f64);
    layers.set("serve.queries.distinct", warm_distinct as f64);
    layers.set("rss.after_setup_mb", rss_after_setup);
    layers.set(
        "trace.overhead_pct",
        (median(&recorded_ms) / p50 - 1.0) * 100.0,
    );
    layers.report(&mut out);
    out
}
