//! Serving glue: the `repro --serve` / `--serve-bench` back end.
//!
//! `bp-serve` is substrate-agnostic — it answers queries over whatever
//! [`bp_serve::Substrate`] it is handed, derives cache keys with a
//! caller-injected function, and persists memoized responses through a
//! caller-injected [`bp_serve::MemoBackend`]. This module supplies all
//! three from the repro harness: the substrate is built from a
//! [`ReproConfig`] through the exact shared-input constructors the
//! artifact pipeline uses, keys run through the artifact-cache
//! [`KeyBuilder`] so they incorporate the substrate configuration (a
//! store populated at one scale can never answer for another), and the
//! persistent backend is the content-addressed [`ArtifactStore`] —
//! giving `repro --serve --cache DIR` warm restarts for free.

use crate::cache::{ArtifactStore, Key, KeyBuilder};
use crate::ReproConfig;
use bp_obs::Registry;
use bp_serve::{
    drive, script, EngineOptions, LoadReport, MemoBackend, Query, QueryEngine, ScriptConfig,
    Substrate, TargetMix,
};
use std::sync::Arc;

/// Key-schema tag for serve-query cache keys. Bump when the answer
/// encoding or the key recipe changes; distinct from the task-cache
/// [`crate::cache::KEY_SCHEMA`] so the two key spaces cannot collide
/// even inside a shared store.
pub const SERVE_KEY_SCHEMA: &str = "bp-serve/k1";

/// Queries in the synthetic load script (`repro --serve-bench`).
pub const BENCH_QUERIES: usize = 10_000;

/// Builds the serving substrate for `config`: the day crawl's lab
/// supplies the snapshot, census and simulation, so each is computed
/// exactly once, through the same constructors the artifact pipeline
/// uses — a served answer and a pipeline artifact for the same question
/// come from identical inputs. No query reads the general crawl, so it
/// is not built.
pub fn build_substrate(config: &ReproConfig) -> Arc<Substrate> {
    let (crawl, lab) = crate::day_crawl(config, None, false);
    Arc::new(Substrate::new(
        (lab.snapshot, lab.census),
        Some((crawl, lab.sim)),
    ))
}

/// The serve-query cache-key function for `config`: the artifact-cache
/// [`KeyBuilder`] over the schema tag, crate version, the substrate
/// configuration, and the canonical query encoding. The worker count
/// is deliberately absent — responses are byte-identical at any value,
/// so a warm store hits across worker counts, exactly like the task
/// cache.
pub fn serve_key_fn(config: &ReproConfig) -> impl Fn(&Query) -> u128 + Send + Sync + 'static {
    let config = *config;
    move |query: &Query| {
        let mut key = KeyBuilder::new();
        key.push_str(SERVE_KEY_SCHEMA);
        key.push_str(env!("CARGO_PKG_VERSION"));
        key.push_f64(config.scale);
        key.push_u64(config.seed);
        key.push_u64(config.day_hours);
        key.push_u64(config.general_hours());
        key.push_bytes(&query.encode());
        key.finish().0
    }
}

/// [`ArtifactStore`] adapter implementing the engine's persistent memo
/// backend: response bytes are stored verbatim under the 128-bit serve
/// key (no envelope — answers carry no observable effects to replay).
pub struct StoreBackend(ArtifactStore);

impl std::fmt::Debug for StoreBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreBackend")
            .field("entries", &self.0.len())
            .finish()
    }
}

impl StoreBackend {
    /// Opens (or creates) a writable store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the store's open error (unreadable directory, corrupt
    /// index).
    pub fn open(dir: &str) -> Result<Self, String> {
        ArtifactStore::open(dir).map(Self)
    }

    /// Entries resident in the underlying store.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the underlying store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl MemoBackend for StoreBackend {
    fn lookup(&mut self, key: u128) -> Option<Vec<u8>> {
        self.0.lookup(Key(key))
    }

    fn insert(&mut self, key: u128, bytes: &[u8]) {
        self.0.insert(Key(key), bytes.to_vec());
    }

    fn flush(&mut self) -> Result<(), String> {
        self.0.flush()
    }
}

/// Builds a ready-to-serve engine: substrate loaded once, serve keys
/// wired through the artifact-cache machinery, and — when `cache_dir`
/// is given — the [`ArtifactStore`] attached as the persistent memo
/// backend.
///
/// # Errors
///
/// Returns the store's open error when `cache_dir` cannot be opened.
pub fn build_engine(
    config: &ReproConfig,
    workers: usize,
    cache_dir: Option<&str>,
) -> Result<Arc<QueryEngine>, String> {
    let substrate = build_substrate(config);
    let mut engine =
        QueryEngine::new(substrate, EngineOptions { workers }).with_key_fn(serve_key_fn(config));
    if let Some(dir) = cache_dir {
        engine = engine.with_backend(Box::new(StoreBackend::open(dir)?));
    }
    Ok(Arc::new(engine))
}

/// Measured outcome of one `--serve-bench` run: the load-generator
/// report plus the engine shape, rendered into the BENCH `serve`
/// section.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Engine worker threads.
    pub workers: usize,
    /// Populated ASes the script drew targets from.
    pub universe: usize,
    /// The load generator's measurements.
    pub load: LoadReport,
}

impl ServeReport {
    /// Renders the BENCH `serve` section object (one line, no trailing
    /// newline) — spliced into `BENCH_pipeline.json` by
    /// [`bench_json`](crate::bench_json).
    pub fn json_section(&self) -> String {
        let l = &self.load;
        format!(
            "{{\"workers\": {}, \"universe\": {}, \
             \"queries\": {}, \"distinct\": {}, \"qps\": {:.1}, \
             \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
             \"cold_wall_ms\": {}, \"warm_wall_ms\": {}, \
             \"cold_mean_us\": {:.1}, \"warm_mean_us\": {:.1}, \
             \"memo_hits\": {}, \"memo_misses\": {}, \"cold_evals\": {}, \
             \"backend_hits\": {}}}",
            self.workers,
            self.universe,
            l.warm_queries,
            l.cold_queries,
            l.qps,
            l.p50_us,
            l.p99_us,
            l.p999_us,
            l.cold_wall_ms,
            l.warm_wall_ms,
            l.cold_mean_us,
            l.warm_mean_us,
            l.memo_hits,
            l.memo_misses,
            l.cold_evals,
            l.backend_hits
        )
    }
}

/// Runs the synthetic load bench against `engine`: the deterministic
/// script (seeded by the config, zipf-targeted at the engine's
/// populated-AS universe) is driven cold-then-warm, latencies land in
/// `reg`'s histograms, and response bytes are appended to `sink` — the
/// determinism artifact callers byte-compare across worker counts and
/// restarts.
pub fn run_bench(
    engine: &QueryEngine,
    config: &ReproConfig,
    workers: usize,
    reg: &Registry,
    sink: Option<&mut Vec<u8>>,
) -> ServeReport {
    let universe = engine.hijacks().populated_ases();
    let queries = script(
        &universe,
        &ScriptConfig {
            seed: config.seed,
            queries: BENCH_QUERIES,
            mix: TargetMix::Zipf,
        },
    );
    let load = drive(engine, &queries, reg, sink);
    ServeReport {
        workers,
        universe: universe.len(),
        load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproConfig {
        ReproConfig {
            scale: 0.02,
            day_hours: 1,
            ..ReproConfig::quick()
        }
    }

    #[test]
    fn serve_keys_distinguish_configs() {
        let q = Query::PartitionCost { target_as: 24940 };
        let base = tiny();
        let key = serve_key_fn(&base)(&q);
        let rescaled = ReproConfig {
            scale: 0.03,
            ..base
        };
        assert_ne!(key, serve_key_fn(&rescaled)(&q), "scale ignored by the key");
        let reseeded = ReproConfig { seed: 1, ..base };
        assert_ne!(key, serve_key_fn(&reseeded)(&q), "seed ignored by the key");
        assert_ne!(
            key,
            serve_key_fn(&base)(&Query::PartitionCost { target_as: 16276 }),
            "query ignored by the key"
        );
    }

    #[test]
    fn store_backend_round_trips_through_the_artifact_store() {
        let dir = std::env::temp_dir().join(format!(
            "bp-serve-backend-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);

        let mut backend = StoreBackend::open(&dir).unwrap();
        assert!(backend.lookup(7).is_none());
        // Inserts stage until flush (the engine's in-memory memo table
        // answers for that window); the flush commits them.
        backend.insert(7, b"answer");
        backend.flush().unwrap();
        assert_eq!(backend.lookup(7).unwrap(), b"answer");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_section_is_one_json_object() {
        let report = ServeReport {
            workers: 4,
            universe: 11,
            load: LoadReport {
                warm_queries: 100,
                cold_queries: 40,
                cold_wall_ms: 12,
                warm_wall_ms: 3,
                qps: 31_000.0,
                p50_us: 2,
                p99_us: 16,
                p999_us: 64,
                cold_mean_us: 301.5,
                warm_mean_us: 2.25,
                memo_hits: 160,
                memo_misses: 40,
                cold_evals: 40,
                backend_hits: 0,
            },
        };
        let json = report.json_section();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"qps\": 31000.0"));
        assert!(json.contains("\"p99_us\": 16"));
        assert!(json.contains("\"workers\": 4"));
        assert!(!json.contains('\n'));
    }
}
