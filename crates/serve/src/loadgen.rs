//! Deterministic synthetic load for the query engine.
//!
//! A load *script* — the query sequence — is a pure function of its
//! seed, the target-AS universe, and the mix knobs, so two runs (or two
//! worker counts, or a run against a restarted server) replay the exact
//! same questions and must produce the exact same response stream.
//! Timing is the only nondeterministic output, and it flows into
//! `bp-obs` histograms (volatile observability), never into response
//! bytes.

use crate::engine::QueryEngine;
use crate::query::Query;
use bp_obs::Registry;
use bp_topology::Asn;
use std::time::Instant;

/// Microsecond latency buckets: 1 µs … ~4.2 s in powers of two.
pub const LATENCY_BOUNDS_US: [u64; 23] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576, 2097152, 4194304,
];

/// Histogram name for cold-phase per-query latency.
pub const COLD_LATENCY_METRIC: &str = "serve.cold.latency_us";
/// Histogram name for warm-phase per-query latency.
pub const WARM_LATENCY_METRIC: &str = "serve.warm.latency_us";

/// How targets are drawn from the AS universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetMix {
    /// Zipfian (rank-weighted, popular ASes dominate) — the realistic
    /// "everyone asks about the same big ASes" shape.
    Zipf,
    /// Uniform over the universe.
    Uniform,
}

/// Script generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScriptConfig {
    /// PRNG seed; the script is a pure function of it.
    pub seed: u64,
    /// Total queries in the script.
    pub queries: usize,
    /// Target-AS draw distribution.
    pub mix: TargetMix,
}

/// Deterministic xorshift64* generator (no `rand` dependency; the
/// script must be reproducible from the seed alone).
#[derive(Debug, Clone)]
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point.
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Draws target ASes from the universe under the configured mix.
#[derive(Debug, Clone)]
struct TargetSampler {
    universe: Vec<Asn>,
    /// Cumulative zipf weights (empty for uniform).
    cumulative: Vec<f64>,
}

impl TargetSampler {
    fn new(universe: &[Asn], mix: TargetMix) -> Self {
        let mut universe: Vec<Asn> = universe.to_vec();
        universe.sort_unstable();
        let cumulative = match mix {
            TargetMix::Uniform => Vec::new(),
            TargetMix::Zipf => {
                let mut acc = 0.0;
                (0..universe.len())
                    .map(|rank| {
                        acc += 1.0 / (rank + 1) as f64;
                        acc
                    })
                    .collect()
            }
        };
        Self {
            universe,
            cumulative,
        }
    }

    fn draw(&self, rng: &mut Prng) -> Asn {
        if self.universe.is_empty() {
            return Asn(0);
        }
        if self.cumulative.is_empty() {
            return self.universe[rng.below(self.universe.len() as u64) as usize];
        }
        let total = *self.cumulative.last().expect("nonempty");
        let needle = rng.unit_f64() * total;
        let at = self
            .cumulative
            .partition_point(|&c| c < needle)
            .min(self.universe.len() - 1);
        self.universe[at]
    }
}

/// Generates the deterministic query script.
///
/// Family mix: 40 % `partition_cost`, 25 % `eclipse` (half with
/// cascade), 20 % `blockaware_tradeoff`, 15 % `min_timing`.
pub fn script(universe: &[Asn], config: &ScriptConfig) -> Vec<Query> {
    let sampler = TargetSampler::new(universe, config.mix);
    let mut rng = Prng::new(config.seed);
    (0..config.queries)
        .map(|_| match rng.below(100) {
            0..=39 => Query::PartitionCost {
                target_as: sampler.draw(&mut rng).0,
            },
            40..=64 => Query::Eclipse {
                target_as: sampler.draw(&mut rng).0,
                prefixes: 1 + rng.below(40) as u32,
                cascade: rng.below(2) == 1,
            },
            65..=84 => Query::BlockawareTradeoff {
                threshold_secs: 60 * (1 + rng.below(40)),
                lambda: 0.5 + rng.below(16) as f64 * 0.1,
            },
            _ => Query::MinTiming {
                min_blocks: 1 + rng.below(3) as u8,
                window_samples: 1 + rng.below(5) as u16,
                lambda: 0.5 + rng.below(16) as f64 * 0.1,
            },
        })
        .collect()
}

/// Measured outcome of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Queries in the warm phase (the full script).
    pub warm_queries: usize,
    /// Distinct queries evaluated in the cold phase.
    pub cold_queries: usize,
    /// Cold-phase wall time (ms).
    pub cold_wall_ms: u64,
    /// Warm-phase wall time (ms).
    pub warm_wall_ms: u64,
    /// Warm-phase sustained throughput (queries per second).
    pub qps: f64,
    /// Warm-phase latency quantiles (µs, histogram bucket bounds).
    pub p50_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
    /// 99.9th percentile (µs).
    pub p999_us: u64,
    /// Cold-phase mean per-query latency (µs).
    pub cold_mean_us: f64,
    /// Warm-phase mean per-query latency (µs).
    pub warm_mean_us: f64,
    /// Engine memo hits at the end of the run.
    pub memo_hits: u64,
    /// Engine memo misses at the end of the run.
    pub memo_misses: u64,
    /// Micro-DAG evaluations the run triggered.
    pub cold_evals: u64,
    /// Queries answered from the persistent backend.
    pub backend_hits: u64,
}

/// Queries per batch in both phases. The load is closed-loop: the next
/// batch is issued when the previous one completes, so the warm phase
/// measures peak sustainable throughput.
const BATCH: usize = 64;

/// Drives a script against the engine: a **cold phase** touching every
/// distinct query once, then a **warm phase** replaying the full script,
/// both in closed-loop batches of 64. Response bytes (cold then warm,
/// each length-prefixed) are appended to `sink` in script order — the
/// determinism artifact a caller byte-compares across worker counts and
/// restarts.
pub fn drive(
    engine: &QueryEngine,
    script: &[Query],
    registry: &Registry,
    mut sink: Option<&mut Vec<u8>>,
) -> LoadReport {
    // Cold phase: distinct queries in first-appearance order.
    let mut seen: Vec<Vec<u8>> = Vec::new();
    let mut distinct: Vec<Query> = Vec::new();
    for query in script {
        let encoding = query.encode();
        if !seen.contains(&encoding) {
            seen.push(encoding);
            distinct.push(query.clone());
        }
    }
    let cold_start = Instant::now();
    let cold_us_total = run_batches(engine, &distinct, COLD_LATENCY_METRIC, registry, &mut sink);
    let cold_wall_ms = cold_start.elapsed().as_millis() as u64;

    // Warm phase: the full script.
    let warm_start = Instant::now();
    let warm_us_total = run_batches(engine, script, WARM_LATENCY_METRIC, registry, &mut sink);
    let warm_wall = warm_start.elapsed();
    let warm_wall_ms = warm_wall.as_millis() as u64;
    let qps = if warm_wall.as_secs_f64() > 0.0 {
        script.len() as f64 / warm_wall.as_secs_f64()
    } else {
        0.0
    };

    let snapshot = registry.snapshot();
    let warm_hist = snapshot.histogram(WARM_LATENCY_METRIC);
    let quantile = |q: f64| warm_hist.map_or(0, |h| h.quantile(q));
    LoadReport {
        warm_queries: script.len(),
        cold_queries: distinct.len(),
        cold_wall_ms,
        warm_wall_ms,
        qps,
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        p999_us: quantile(0.999),
        cold_mean_us: if distinct.is_empty() {
            0.0
        } else {
            cold_us_total / distinct.len() as f64
        },
        warm_mean_us: if script.is_empty() {
            0.0
        } else {
            warm_us_total / script.len() as f64
        },
        memo_hits: engine.memo_hits(),
        memo_misses: engine.memo_misses(),
        cold_evals: engine.cold_evals(),
        backend_hits: engine.backend_hits(),
    }
}

/// Executes `queries` in closed-loop batches of [`BATCH`], observing
/// each batch's per-query latency into the `metric` histogram and
/// appending each response, length-prefixed, to `sink`. Returns the
/// summed per-query latency in µs.
fn run_batches(
    engine: &QueryEngine,
    queries: &[Query],
    metric: &str,
    registry: &Registry,
    sink: &mut Option<&mut Vec<u8>>,
) -> f64 {
    let mut us_total = 0.0f64;
    for chunk in queries.chunks(BATCH) {
        let t0 = Instant::now();
        let responses = engine.execute_batch(chunk);
        let per_query_us = t0.elapsed().as_micros() as f64 / chunk.len() as f64;
        us_total += per_query_us * chunk.len() as f64;
        for response in &responses {
            registry.observe(metric, &LATENCY_BOUNDS_US, per_query_us as u64);
            if let Some(sink) = sink.as_deref_mut() {
                sink.extend_from_slice(&(response.len() as u32).to_le_bytes());
                sink.extend_from_slice(response);
            }
        }
    }
    us_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::substrate::Substrate;
    use btcpart::Scenario;
    use std::sync::Arc;

    fn universe() -> Vec<Asn> {
        vec![Asn(24940), Asn(16276), Asn(37963), Asn(16509), Asn(14061)]
    }

    #[test]
    fn scripts_are_pure_functions_of_the_seed() {
        let cfg = ScriptConfig {
            seed: 7,
            queries: 500,
            mix: TargetMix::Zipf,
        };
        assert_eq!(script(&universe(), &cfg), script(&universe(), &cfg));
        let other = script(&universe(), &ScriptConfig { seed: 8, ..cfg });
        assert_ne!(script(&universe(), &cfg), other);
    }

    #[test]
    fn script_mixes_all_families() {
        let cfg = ScriptConfig {
            seed: 11,
            queries: 400,
            mix: TargetMix::Uniform,
        };
        let script = script(&universe(), &cfg);
        for family in [
            "partition_cost",
            "eclipse",
            "blockaware_tradeoff",
            "min_timing",
        ] {
            assert!(
                script.iter().any(|q| q.family() == family),
                "missing {family}"
            );
        }
    }

    #[test]
    fn zipf_prefers_low_ranked_ases() {
        let cfg = ScriptConfig {
            seed: 3,
            queries: 2000,
            mix: TargetMix::Zipf,
        };
        let universe = universe();
        let mut sorted = universe.clone();
        sorted.sort_unstable();
        let head = sorted[0];
        let tail = sorted[sorted.len() - 1];
        let count_of = |asn: Asn, qs: &[Query]| {
            qs.iter()
                .filter(|q| matches!(q, Query::PartitionCost { target_as } if *target_as == asn.0))
                .count()
        };
        let qs = script(&universe, &cfg);
        assert!(
            count_of(head, &qs) > count_of(tail, &qs),
            "zipf head not preferred"
        );
    }

    #[test]
    fn drive_replays_byte_identically() {
        let substrate = Substrate::new(
            Scenario::new().scale(0.05).seed(20_180_228).build_static(),
            None,
        );
        let substrate = Arc::new(substrate);
        let cfg = ScriptConfig {
            seed: 5,
            queries: 200,
            mix: TargetMix::Zipf,
        };
        // Cascade queries need the day sim; restrict to a static-only
        // universe by filtering them out of the script.
        let qs: Vec<Query> = script(&universe(), &cfg)
            .into_iter()
            .filter(|q| {
                !matches!(q, Query::Eclipse { cascade: true, .. })
                    && !matches!(q, Query::MinTiming { .. })
            })
            .collect();

        let mut streams: Vec<Vec<u8>> = Vec::new();
        for workers in [1usize, 4] {
            let engine = QueryEngine::new(Arc::clone(&substrate), EngineOptions { workers });
            let registry = Registry::new();
            let mut sink = Vec::new();
            let report = drive(&engine, &qs, &registry, Some(&mut sink));
            assert_eq!(report.warm_queries, qs.len());
            assert!(report.cold_queries > 0);
            assert!(report.qps > 0.0);
            streams.push(sink);
        }
        assert_eq!(streams[0], streams[1], "response stream diverged");
    }
}
