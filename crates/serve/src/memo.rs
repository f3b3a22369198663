//! The sharded in-memory memo table.
//!
//! Hot-path lookups take one shard lock (shard = low bits of the 128-bit
//! cache key) and clone an `Arc` to the response bytes. Each shard is a
//! plain map from key to bytes; [`MemoTable::clear`] empties them all.
//! Hit/miss counters are volatile observability: they never influence
//! response bytes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sharded memo table keyed by 128-bit cache keys.
pub struct MemoTable {
    shards: Vec<Mutex<HashMap<u128, Arc<Vec<u8>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for MemoTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoTable")
            .field("shards", &self.shards.len())
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
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, Arc<Vec<u8>>>> {
        &self.shards[(key as usize) & (self.shards.len() - 1)]
    }

    /// Returns the memoized response for `key`, if any.
    pub fn lookup(&self, key: u128) -> Option<Arc<Vec<u8>>> {
        let shard = self.shard(key).lock().expect("memo shard poisoned");
        let found = shard.get(&key).map(Arc::clone);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Memoizes `bytes` under `key`.
    pub fn insert(&self, key: u128, bytes: Arc<Vec<u8>>) {
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        shard.insert(key, bytes);
    }

    /// Drops every entry, shard by shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("memo shard poisoned").clear();
        }
    }

    /// Entries currently resident.
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
    fn clear_drops_every_entry() {
        let memo = MemoTable::new();
        memo.insert(1, Arc::new(vec![9]));
        memo.insert(2, Arc::new(vec![8]));
        assert_eq!(memo.len(), 2);
        memo.clear();
        assert!(memo.is_empty());
        assert!(memo.lookup(1).is_none());
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
