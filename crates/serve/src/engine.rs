//! The query engine: memo-table hot path, micro-DAG cold path.
//!
//! A batch of queries is answered in three phases:
//!
//! 1. **Memo probe** — every query's cache key (injected `key_fn`, by
//!    default an FNV-1a-128 over the canonical query encoding) is looked
//!    up in the sharded [`MemoTable`], then in the optional persistent
//!    [`MemoBackend`].
//! 2. **Cold fan-out** — distinct missing keys expand into per-query
//!    micro-DAGs (a short dependency chain of named steps, e.g. `rank →
//!    hash_share → serialize` for `partition_cost`) claimed by scoped
//!    worker threads off a shared counter. Every step is a pure function
//!    of the substrate, so any claim order produces the same bytes.
//! 3. **Publish** — fresh responses enter the memo table and backend in
//!    ascending batch order (so a persistent store's bytes are identical
//!    at any worker count), and the batch is assembled positionally.
//!
//! Responses for a fixed query sequence are therefore byte-identical at
//! any worker count and across restarts against a warm backend.

use crate::memo::MemoTable;
use crate::query::{
    Answer, BlockawareAnswer, EclipseAnswer, MinTimingAnswer, PartitionCostAnswer, Query,
};
use crate::substrate::Substrate;
use bp_attacks::countermeasures::blockaware_tradeoff_one;
use bp_attacks::spatial::eclipse_cascade;
use bp_attacks::temporal::model::TemporalModel;
use bp_bgp::{HijackIndex, HijackOutcome};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Isolation probability target for `min_timing` (the paper's 80 %).
const MIN_TIMING_TARGET_P: f64 = 0.8;
/// Search cap (seconds) for the `min_timing` bisection.
const MIN_TIMING_CAP_SECS: u64 = 500_000;

/// Pluggable persistent memo store (e.g. the bench artifact cache).
pub trait MemoBackend: Send {
    /// Returns the stored response bytes for `key`, if present.
    fn lookup(&mut self, key: u128) -> Option<Vec<u8>>;
    /// Stores response bytes under `key`.
    fn insert(&mut self, key: u128, bytes: &[u8]);
    /// Persists staged inserts.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    fn flush(&mut self) -> Result<(), String>;
}

/// Engine construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Worker threads for cold-query fan-out (1 = inline).
    pub workers: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self { workers: 1 }
    }
}

type KeyFn = Box<dyn Fn(&Query) -> u128 + Send + Sync>;

/// The long-running query engine. See the module docs for the phase
/// breakdown; construct with [`QueryEngine::new`] and drive with
/// [`execute_batch`](QueryEngine::execute_batch) (in-process) or the
/// TCP front end in [`crate::wire`].
pub struct QueryEngine {
    substrate: Arc<Substrate>,
    hijacks: HijackIndex,
    memo: MemoTable,
    key_fn: KeyFn,
    backend: Option<Mutex<Box<dyn MemoBackend>>>,
    workers: usize,
    cold_evals: AtomicU64,
    backend_hits: AtomicU64,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("workers", &self.workers)
            .field("memo", &self.memo)
            .field("has_backend", &self.backend.is_some())
            .finish()
    }
}

impl QueryEngine {
    /// Builds an engine over a loaded substrate, ranking the hijack
    /// index once up front.
    ///
    /// # Panics
    ///
    /// Panics if the substrate's static environment is not loaded.
    pub fn new(substrate: Arc<Substrate>, options: EngineOptions) -> Self {
        let hijacks = HijackIndex::new(substrate.snapshot());
        Self {
            substrate,
            hijacks,
            memo: MemoTable::new(),
            key_fn: Box::new(default_key),
            backend: None,
            workers: options.workers.max(1),
            cold_evals: AtomicU64::new(0),
            backend_hits: AtomicU64::new(0),
        }
    }

    /// Replaces the cache-key derivation (the bench harness injects the
    /// artifact-cache `KeyBuilder` machinery here so keys incorporate
    /// the substrate configuration).
    #[must_use]
    pub fn with_key_fn(mut self, key_fn: impl Fn(&Query) -> u128 + Send + Sync + 'static) -> Self {
        self.key_fn = Box::new(key_fn);
        self
    }

    /// Attaches a persistent memo backend.
    #[must_use]
    pub fn with_backend(mut self, backend: Box<dyn MemoBackend>) -> Self {
        self.backend = Some(Mutex::new(backend));
        self
    }

    /// The substrate this engine serves from.
    pub fn substrate(&self) -> &Substrate {
        &self.substrate
    }

    /// The prebuilt hijack ranking (target universe for load scripts).
    pub fn hijacks(&self) -> &HijackIndex {
        &self.hijacks
    }

    /// The cache key for a query under the engine's key function.
    pub fn key_of(&self, query: &Query) -> u128 {
        (self.key_fn)(query)
    }

    /// In-memory memo hits so far (volatile observability).
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits()
    }

    /// In-memory memo misses so far (volatile observability).
    pub fn memo_misses(&self) -> u64 {
        self.memo.misses()
    }

    /// Queries answered by the persistent backend (volatile).
    pub fn backend_hits(&self) -> u64 {
        self.backend_hits.load(Ordering::Relaxed)
    }

    /// Micro-DAG evaluations performed (volatile).
    pub fn cold_evals(&self) -> u64 {
        self.cold_evals.load(Ordering::Relaxed)
    }

    /// Drops every memoized response, so the next lookup of any query
    /// is a cold evaluation.
    pub fn invalidate_memo(&self) {
        self.memo.clear();
    }

    /// Persists the backend's staged inserts, if a backend is attached.
    ///
    /// # Errors
    ///
    /// Returns the backend's flush error.
    pub fn flush_backend(&self) -> Result<(), String> {
        match &self.backend {
            Some(backend) => backend.lock().expect("backend poisoned").flush(),
            None => Ok(()),
        }
    }

    /// Answers one query (a batch of one).
    pub fn execute(&self, query: &Query) -> Arc<Vec<u8>> {
        self.execute_batch(std::slice::from_ref(query))
            .pop()
            .expect("one response per query")
    }

    /// Answers a batch. Responses are positional: `out[i]` answers
    /// `queries[i]`. Byte-identical for a fixed query sequence at any
    /// worker count.
    pub fn execute_batch(&self, queries: &[Query]) -> Vec<Arc<Vec<u8>>> {
        let keys: Vec<u128> = queries.iter().map(|q| (self.key_fn)(q)).collect();
        let mut out: Vec<Option<Arc<Vec<u8>>>> = vec![None; queries.len()];

        // Phase 1: memo + backend probes, in batch order.
        let mut cold: Vec<usize> = Vec::new();
        let mut cold_keys: Vec<u128> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            if let Some(bytes) = self.memo.lookup(key) {
                out[i] = Some(bytes);
                continue;
            }
            if !cold_keys.contains(&key) {
                if let Some(bytes) = self.backend_lookup(key) {
                    let bytes = Arc::new(bytes);
                    self.memo.insert(key, Arc::clone(&bytes));
                    self.backend_hits.fetch_add(1, Ordering::Relaxed);
                    out[i] = Some(bytes);
                    continue;
                }
                cold_keys.push(key);
            }
            cold.push(i);
        }

        // Phase 2: distinct cold queries fan out over the calling thread
        // and scoped helpers.
        let unique: Vec<(u128, &Query)> = cold_keys
            .iter()
            .map(|&key| {
                let i = cold
                    .iter()
                    .find(|&&i| keys[i] == key)
                    .expect("cold key has an owner");
                (key, &queries[*i])
            })
            .collect();
        let slots: Vec<OnceLock<Arc<Vec<u8>>>> =
            (0..unique.len()).map(|_| OnceLock::new()).collect();
        let claim = AtomicUsize::new(0);
        let claim_loop = || loop {
            let at = claim.fetch_add(1, Ordering::Relaxed);
            let Some((_, query)) = unique.get(at) else {
                break;
            };
            slots[at]
                .set(Arc::new(self.eval(query)))
                .expect("slot set once");
        };
        // The calling thread claims too, so one worker spawns no thread,
        // and neither does a batch with no cold keys.
        let helpers = self.workers.min(unique.len()).saturating_sub(1);
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(claim_loop);
            }
            claim_loop();
        });

        // Phase 3: publish in ascending key-discovery order (fixed for a
        // given batch, independent of which worker computed what).
        for ((key, _), slot) in unique.iter().zip(&slots) {
            let bytes = slot.get().expect("cold slot computed");
            self.memo.insert(*key, Arc::clone(bytes));
            self.backend_insert(*key, bytes);
        }
        for i in cold {
            let key = keys[i];
            let at = cold_keys
                .iter()
                .position(|&k| k == key)
                .expect("cold key indexed");
            out[i] = Some(Arc::clone(slots[at].get().expect("cold slot computed")));
        }

        out.into_iter()
            .map(|slot| slot.expect("every query answered"))
            .collect()
    }

    fn backend_lookup(&self, key: u128) -> Option<Vec<u8>> {
        let backend = self.backend.as_ref()?;
        backend.lock().expect("backend poisoned").lookup(key)
    }

    fn backend_insert(&self, key: u128, bytes: &[u8]) {
        if let Some(backend) = &self.backend {
            backend.lock().expect("backend poisoned").insert(key, bytes);
        }
    }

    /// Runs one cold query's micro-DAG and serializes the answer.
    fn eval(&self, query: &Query) -> Vec<u8> {
        self.cold_evals.fetch_add(1, Ordering::Relaxed);
        let answer = match *query {
            Query::PartitionCost { target_as } => {
                // rank → thresholds → hash_share
                let victim = bp_topology::Asn(target_as);
                let curve = self.hijacks.isolation_curve(victim);
                let clamp = |k: Option<usize>| k.map(|k| k as u32);
                Answer::PartitionCost(PartitionCostAnswer {
                    members: self.hijacks.members(victim) as u32,
                    prefixes_total: curve.len() as u32,
                    prefixes_50: clamp(self.hijacks.prefixes_for_fraction(victim, 0.5)),
                    prefixes_90: clamp(self.hijacks.prefixes_for_fraction(victim, 0.9)),
                    hash_share: self.substrate.census().isolated_share(&[victim]),
                })
            }
            Query::BlockawareTradeoff {
                threshold_secs,
                lambda,
            } => {
                // closed_form
                let tradeoff = blockaware_tradeoff_one(threshold_secs, 600.0 / lambda);
                Answer::Blockaware(BlockawareAnswer {
                    threshold_secs: tradeoff.threshold_secs,
                    detection_delay_secs: tradeoff.detection_delay_secs,
                    false_alarm_rate: tradeoff.false_alarm_rate,
                })
            }
            Query::Eclipse {
                target_as,
                prefixes,
                cascade,
            } => {
                // rank → outcome → hash_share [→ cascade]
                let victim = bp_topology::Asn(target_as);
                let outcome: HijackOutcome =
                    self.hijacks.hijack_top_prefixes(victim, prefixes as usize);
                let cascade = cascade.then(|| {
                    eclipse_cascade(
                        self.substrate.day_sim(),
                        self.substrate.snapshot(),
                        &self.hijacks,
                        victim,
                        prefixes as usize,
                    )
                });
                Answer::Eclipse(EclipseAnswer {
                    prefixes_hijacked: outcome.prefixes_hijacked as u32,
                    isolated: outcome.isolated_nodes.len() as u32,
                    fraction_of_as: outcome.fraction_of_as,
                    hash_share: self.substrate.census().isolated_share(&[victim]),
                    cascade,
                })
            }
            Query::MinTiming {
                min_blocks,
                window_samples,
                lambda,
            } => {
                // select → model
                let matrix = &self.substrate.day_crawl().matrix;
                let m = matrix
                    .max_vulnerable(window_samples as usize, min_blocks)
                    .map_or(0, |w| w.max_nodes as u64);
                let t_secs = (m > 0)
                    .then(|| {
                        TemporalModel::new(lambda).min_time_to_isolate(
                            m,
                            MIN_TIMING_TARGET_P,
                            MIN_TIMING_CAP_SECS,
                        )
                    })
                    .flatten();
                Answer::MinTiming(MinTimingAnswer { m, t_secs })
            }
        };
        answer.encode()
    }
}

/// The default key: FNV-1a-128 over a schema tag and the canonical query
/// encoding. Suitable for a single-substrate process; attach a richer
/// `key_fn` when keys must distinguish substrate configurations (e.g.
/// a persistent store shared across profiles).
fn default_key(query: &Query) -> u128 {
    const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut state = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            state ^= b as u128;
            state = state.wrapping_mul(FNV_PRIME);
        }
    };
    mix(b"bp-serve/q1");
    mix(&query.encode());
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcpart::experiments::temporal::run_crawl;
    use btcpart::Scenario;
    use std::collections::HashMap;

    fn test_substrate() -> Arc<Substrate> {
        let substrate = Substrate::new(
            Scenario::new().scale(0.05).seed(20_180_228).build_static(),
            None,
        );
        Arc::new(substrate)
    }

    fn static_queries() -> Vec<Query> {
        vec![
            Query::PartitionCost { target_as: 24940 },
            Query::BlockawareTradeoff {
                threshold_secs: 600,
                lambda: 1.0,
            },
            Query::Eclipse {
                target_as: 24940,
                prefixes: 15,
                cascade: false,
            },
            Query::PartitionCost { target_as: 24940 }, // duplicate
            Query::PartitionCost { target_as: 16276 },
        ]
    }

    #[test]
    fn batches_are_byte_identical_across_worker_counts() {
        let substrate = test_substrate();
        let queries = static_queries();
        let mut baseline: Option<Vec<Vec<u8>>> = None;
        for workers in [1usize, 2, 8] {
            let engine = QueryEngine::new(Arc::clone(&substrate), EngineOptions { workers });
            let responses: Vec<Vec<u8>> = engine
                .execute_batch(&queries)
                .into_iter()
                .map(|r| r.as_ref().clone())
                .collect();
            match &baseline {
                None => baseline = Some(responses),
                Some(b) => assert_eq!(b, &responses, "workers={workers}"),
            }
        }
    }

    #[test]
    fn memo_collapses_repeats_and_in_batch_duplicates() {
        let engine = QueryEngine::new(test_substrate(), EngineOptions::default());
        let queries = static_queries();
        let first = engine.execute_batch(&queries);
        // 5 queries, one in-batch duplicate: 4 cold evaluations.
        assert_eq!(engine.cold_evals(), 4);
        let second = engine.execute_batch(&queries);
        assert_eq!(engine.cold_evals(), 4, "warm batch re-evaluated");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a, b);
        }
        // Invalidation forces recomputation to the same bytes.
        engine.invalidate_memo();
        let third = engine.execute_batch(&queries);
        assert_eq!(engine.cold_evals(), 8);
        for (a, b) in first.iter().zip(&third) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn partition_cost_matches_the_hijack_index() {
        let substrate = test_substrate();
        let engine = QueryEngine::new(Arc::clone(&substrate), EngineOptions::default());
        let victim = bp_topology::Asn(24940);
        let response = engine.execute(&Query::PartitionCost { target_as: 24940 });
        let Answer::PartitionCost(a) = Answer::decode(&response).unwrap() else {
            panic!("wrong family");
        };
        assert_eq!(a.members as usize, engine.hijacks().members(victim));
        assert_eq!(
            a.prefixes_50.map(|k| k as usize),
            engine.hijacks().prefixes_for_fraction(victim, 0.5)
        );
        assert_eq!(
            a.hash_share.to_bits(),
            substrate.census().isolated_share(&[victim]).to_bits()
        );
    }

    #[test]
    fn eclipse_matches_the_hijack_index_and_the_cascade() {
        // A day-backed substrate (scale 0.02, one hour), so the cascade
        // reads the peer graph the day crawl left behind.
        let mut lab = Scenario::new().scale(0.02).build();
        let crawl = run_crawl(&mut lab.sim, &lab.snapshot, 600, 3600, 60, None);
        let substrate = Arc::new(Substrate::new(
            (lab.snapshot, lab.census),
            Some((crawl, lab.sim)),
        ));
        let engine = QueryEngine::new(Arc::clone(&substrate), EngineOptions::default());
        let hijacks = HijackIndex::new(substrate.snapshot());
        let victim = bp_topology::Asn(24940);
        for prefixes in [0u32, 5, 15, 10_000] {
            for cascade in [false, true] {
                let response = engine.execute(&Query::Eclipse {
                    target_as: victim.0,
                    prefixes,
                    cascade,
                });
                let Answer::Eclipse(a) = Answer::decode(&response).unwrap() else {
                    panic!("wrong family");
                };
                let outcome = hijacks.hijack_top_prefixes(victim, prefixes as usize);
                assert_eq!(a.prefixes_hijacked as usize, outcome.prefixes_hijacked);
                assert_eq!(a.isolated as usize, outcome.isolated_nodes.len());
                assert_eq!(a.fraction_of_as.to_bits(), outcome.fraction_of_as.to_bits());
                assert_eq!(
                    a.hash_share.to_bits(),
                    substrate.census().isolated_share(&[victim]).to_bits()
                );
                let expected = cascade.then(|| {
                    eclipse_cascade(
                        substrate.day_sim(),
                        substrate.snapshot(),
                        &hijacks,
                        victim,
                        prefixes as usize,
                    )
                });
                assert_eq!(a.cascade, expected, "prefixes={prefixes}");
            }
        }
    }

    #[test]
    fn unknown_as_answers_empty_not_error() {
        let engine = QueryEngine::new(test_substrate(), EngineOptions::default());
        let response = engine.execute(&Query::PartitionCost { target_as: 1 });
        let Answer::PartitionCost(a) = Answer::decode(&response).unwrap() else {
            panic!("wrong family");
        };
        assert_eq!(a.members, 0);
        assert_eq!(a.prefixes_50, None);
    }

    #[test]
    fn in_memory_backend_replays_across_engines() {
        let substrate = test_substrate();
        let shared: Arc<Mutex<HashMap<u128, Vec<u8>>>> = Arc::default();

        struct SharedBackend(Arc<Mutex<HashMap<u128, Vec<u8>>>>);
        impl MemoBackend for SharedBackend {
            fn lookup(&mut self, key: u128) -> Option<Vec<u8>> {
                self.0.lock().unwrap().get(&key).cloned()
            }
            fn insert(&mut self, key: u128, bytes: &[u8]) {
                self.0.lock().unwrap().insert(key, bytes.to_vec());
            }
            fn flush(&mut self) -> Result<(), String> {
                Ok(())
            }
        }

        let queries = static_queries();
        let first = QueryEngine::new(Arc::clone(&substrate), EngineOptions::default())
            .with_backend(Box::new(SharedBackend(Arc::clone(&shared))));
        let cold = first.execute_batch(&queries);
        assert_eq!(first.cold_evals(), 4);
        first.flush_backend().unwrap();

        // A fresh engine (cold memo) replays everything from the store.
        let second = QueryEngine::new(Arc::clone(&substrate), EngineOptions::default())
            .with_backend(Box::new(SharedBackend(shared)));
        let warm = second.execute_batch(&queries);
        assert_eq!(second.cold_evals(), 0, "restart recomputed");
        assert_eq!(second.backend_hits(), 4);
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a, b);
        }
    }
}
