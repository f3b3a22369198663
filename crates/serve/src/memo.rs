//! The sharded, generation-stamped in-memory memo table.
//!
//! Hot-path lookups take one shard lock (shard = low bits of the 128-bit
//! cache key) and clone an `Arc` to the response bytes. Entries carry
//! the generation they were inserted under; [`MemoTable::invalidate`]
//! bumps the generation, turning every existing entry stale in O(1)
//! without touching the shards — stale entries are dropped lazily on
//! their next lookup or overwrite. Hit/miss counters are volatile
//! observability: they never influence response bytes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Entry {
    generation: u64,
    bytes: Arc<Vec<u8>>,
}

/// Sharded memo table keyed by 128-bit cache keys.
pub struct MemoTable {
    shards: Vec<Mutex<HashMap<u128, Entry>>>,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for MemoTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoTable")
            .field("shards", &self.shards.len())
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for MemoTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoTable {
    /// Lock shards per table; a power of two, so the shard is a mask of
    /// the key's low bits.
    pub const SHARDS: usize = 16;

    /// Creates an empty table of [`SHARDS`](Self::SHARDS) lock shards.
    pub fn new() -> Self {
        Self {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, Entry>> {
        &self.shards[(key as usize) & (self.shards.len() - 1)]
    }

    /// Returns the memoized response for `key`, if fresh.
    pub fn lookup(&self, key: u128) -> Option<Arc<Vec<u8>>> {
        let generation = self.generation.load(Ordering::Acquire);
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        match shard.get(&key) {
            Some(entry) if entry.generation == generation => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.bytes))
            }
            Some(_) => {
                // Stale generation: drop lazily.
                shard.remove(&key);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes `bytes` under `key` at the current generation.
    pub fn insert(&self, key: u128, bytes: Arc<Vec<u8>>) {
        let generation = self.generation.load(Ordering::Acquire);
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        shard.insert(key, Entry { generation, bytes });
    }

    /// Invalidates every entry by bumping the generation stamp.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Entries currently resident (stale entries included until their
    /// lazy drop).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count (volatile, observability only).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count (volatile, observability only).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let memo = MemoTable::new();
        assert!(memo.lookup(42).is_none());
        memo.insert(42, Arc::new(vec![1, 2, 3]));
        assert_eq!(memo.lookup(42).unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn invalidate_stales_everything() {
        let memo = MemoTable::new();
        memo.insert(1, Arc::new(vec![9]));
        memo.insert(2, Arc::new(vec![8]));
        assert_eq!(memo.len(), 2);
        memo.invalidate();
        assert!(memo.lookup(1).is_none());
        // Stale entry was dropped lazily by the failed lookup.
        assert_eq!(memo.len(), 1);
        // Reinsertion at the new generation is fresh again.
        memo.insert(1, Arc::new(vec![7]));
        assert_eq!(memo.lookup(1).unwrap().as_slice(), &[7]);
    }

    #[test]
    fn shard_count_is_a_power_of_two() {
        assert!(MemoTable::SHARDS.is_power_of_two());
        assert_eq!(MemoTable::new().shards.len(), MemoTable::SHARDS);
    }

    #[test]
    fn concurrent_readers_share_one_arc() {
        let memo = Arc::new(MemoTable::new());
        memo.insert(7, Arc::new(vec![0xAA; 128]));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let memo = Arc::clone(&memo);
                scope.spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(memo.lookup(7).unwrap().len(), 128);
                    }
                });
            }
        });
        assert_eq!(memo.hits(), 400);
    }
}
