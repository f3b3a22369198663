//! Generation-stamped dense sets over small integer keys.
//!
//! The simulator's per-node relay state (`seen_invs`, `requested`) is a
//! set of block indices that is queried tens of millions of times per
//! day-scale run and cleared wholesale on churn. A `HashSet<BlockId>`
//! pays a 32-byte SipHash per probe; a [`DenseSetPool`] row is one
//! bounds check and one `u32` compare, and clearing a row is a single
//! generation bump instead of a walk over the backing store.

/// A pool of sets of `u32` keys, one row per node, backed by a single
/// generation-stamped matrix.
///
/// `stamps[node × stride + k] == gens[node]` means `k` is in the node's
/// set, so clearing a row bumps its generation and invalidates every
/// stamp in O(1). A million-node simulation needs a `requested` and a
/// `seen_invs` set per node; a `Vec` each would mean two million
/// separate allocations plus per-set growth bookkeeping. The pool stores
/// every node's stamps in one flat `nodes × stride` matrix (stride grows
/// to the largest key seen, rounded to a power of two), with per-node
/// generations and lengths, so the allocation count stays O(1).
#[derive(Debug, Clone)]
pub struct DenseSetPool {
    stamps: Vec<u32>,
    gens: Vec<u32>,
    lens: Vec<u32>,
    stride: usize,
    total: usize,
}

impl DenseSetPool {
    /// Creates a pool of `nodes` empty sets.
    pub fn new(nodes: usize) -> Self {
        Self {
            stamps: Vec::new(),
            gens: vec![1; nodes],
            lens: vec![0; nodes],
            stride: 0,
            total: 0,
        }
    }

    /// Number of rows (nodes) in the pool.
    pub fn nodes(&self) -> usize {
        self.gens.len()
    }

    /// Number of keys in node's set.
    #[inline]
    pub fn len_of(&self, node: u32) -> usize {
        self.lens[node as usize] as usize
    }

    /// Total keys across every node's set — the pool's live footprint.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Grows the stride so `key` fits, re-striding existing rows.
    #[cold]
    fn grow(&mut self, key: u32) {
        let new_stride = (key as usize + 1).next_power_of_two().max(64);
        let nodes = self.gens.len();
        let mut stamps = vec![0u32; nodes * new_stride];
        for node in 0..nodes {
            let src = node * self.stride;
            let dst = node * new_stride;
            stamps[dst..dst + self.stride].copy_from_slice(&self.stamps[src..src + self.stride]);
        }
        self.stamps = stamps;
        self.stride = new_stride;
    }

    /// Whether `key` is in node's set.
    #[inline]
    pub fn contains(&self, node: u32, key: u32) -> bool {
        let node = node as usize;
        (key as usize) < self.stride
            && self.stamps[node * self.stride + key as usize] == self.gens[node]
    }

    /// Inserts `key` into node's set; `true` if it was not present.
    #[inline]
    pub fn insert(&mut self, node: u32, key: u32) -> bool {
        if key as usize >= self.stride {
            self.grow(key);
        }
        let node = node as usize;
        let idx = node * self.stride + key as usize;
        if self.stamps[idx] == self.gens[node] {
            return false;
        }
        self.stamps[idx] = self.gens[node];
        self.lens[node] += 1;
        self.total += 1;
        true
    }

    /// Removes `key` from node's set; `true` if it was present.
    #[inline]
    pub fn remove(&mut self, node: u32, key: u32) -> bool {
        if key as usize >= self.stride {
            return false;
        }
        let node = node as usize;
        let idx = node * self.stride + key as usize;
        if self.stamps[idx] != self.gens[node] {
            return false;
        }
        self.stamps[idx] = 0;
        self.lens[node] -= 1;
        self.total -= 1;
        true
    }

    /// Clears node's set in O(1) by bumping its generation.
    pub fn clear(&mut self, node: u32) {
        let n = node as usize;
        self.total -= self.lens[n] as usize;
        self.lens[n] = 0;
        if self.gens[n] == u32::MAX {
            // Generation wrap: wipe this row so stale first-generation
            // stamps cannot alias. Amortized over 2^32 clears per node.
            self.stamps[n * self.stride..(n + 1) * self.stride].fill(0);
            self.gens[n] = 1;
        } else {
            self.gens[n] += 1;
        }
    }

    /// Removes every key in node's set for which `keep` returns `false`,
    /// returning the number removed. O(stride); cold-path only.
    pub fn retain(&mut self, node: u32, mut keep: impl FnMut(u32) -> bool) -> usize {
        let n = node as usize;
        let gen = self.gens[n];
        let mut removed = 0u32;
        for (i, stamp) in self.stamps[n * self.stride..(n + 1) * self.stride]
            .iter_mut()
            .enumerate()
        {
            if *stamp == gen && !keep(i as u32) {
                *stamp = 0;
                removed += 1;
            }
        }
        self.lens[n] -= removed;
        self.total -= removed as usize;
        removed as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut pool = DenseSetPool::new(2);
        assert_eq!(pool.len_of(0), 0);
        assert!(pool.insert(0, 5));
        assert!(!pool.insert(0, 5));
        assert!(pool.contains(0, 5));
        assert!(!pool.contains(0, 4));
        assert!(!pool.contains(1, 5), "rows must not share keys");
        assert_eq!(pool.len_of(0), 1);
        assert!(pool.remove(0, 5));
        assert!(!pool.remove(0, 5));
        assert!(!pool.remove(1, 9_999), "key beyond the stride");
        assert_eq!(pool.total_len(), 0);
    }

    #[test]
    fn clear_is_generation_bump() {
        let mut pool = DenseSetPool::new(2);
        for k in 0..100 {
            pool.insert(0, k);
            pool.insert(1, k);
        }
        pool.clear(0);
        assert_eq!(pool.len_of(0), 0);
        for k in 0..100 {
            assert!(!pool.contains(0, k), "{k} leaked across clear");
            assert!(pool.contains(1, k), "{k} cleared in the other row");
        }
        assert!(pool.insert(0, 3));
        assert_eq!(pool.len_of(0), 1);
        assert_eq!(pool.total_len(), 101);
    }

    #[test]
    fn retain_counts_exactly_once_per_removed_key() {
        let mut pool = DenseSetPool::new(1);
        // Empty row: nothing to remove, len stays consistent.
        assert_eq!(pool.retain(0, |_| false), 0);
        assert_eq!(pool.len_of(0), 0);
        // Keys removed via `remove` must not be counted again by retain.
        for k in [1, 3, 5, 7] {
            pool.insert(0, k);
        }
        assert!(pool.remove(0, 3));
        assert_eq!(pool.retain(0, |_| false), 3, "3 was already removed");
        assert_eq!(pool.len_of(0), 0);
        // Keep-all retain removes nothing.
        for k in [2, 4] {
            pool.insert(0, k);
        }
        assert_eq!(pool.retain(0, |_| true), 0);
        assert_eq!(pool.len_of(0), 2);
        // Stale stamps from earlier generations are not retain candidates.
        pool.clear(0);
        pool.insert(0, 9);
        assert_eq!(pool.retain(0, |_| false), 1, "only the live key counts");
        assert_eq!(pool.total_len(), 0);
        // Insert still works after a destructive retain.
        assert!(pool.insert(0, 4));
        assert!(pool.contains(0, 4));
        assert_eq!(pool.len_of(0), 1);
    }

    #[test]
    fn pool_rows_match_independent_dense_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let nodes = 17u32;
        let mut rng = StdRng::seed_from_u64(11);
        let mut pool = DenseSetPool::new(nodes as usize);
        // One independent set per row: any stamp leaking between rows
        // or surviving a clear shows up as a disagreement.
        let mut reference: Vec<HashSet<u32>> = vec![HashSet::new(); nodes as usize];
        for _ in 0..40_000 {
            let node = rng.random_range(0..nodes);
            let key = rng.random_range(0..700u32);
            let r = &mut reference[node as usize];
            match rng.random_range(0..12u32) {
                0..=4 => assert_eq!(pool.insert(node, key), r.insert(key)),
                5..=7 => assert_eq!(pool.remove(node, key), r.remove(&key)),
                8..=9 => assert_eq!(pool.contains(node, key), r.contains(&key)),
                10 => {
                    let kept = key % 3;
                    let before = r.len();
                    r.retain(|k| k % 3 == kept);
                    assert_eq!(pool.retain(node, |k| k % 3 == kept), before - r.len());
                }
                _ => {
                    pool.clear(node);
                    r.clear();
                }
            }
            assert_eq!(pool.len_of(node), r.len());
        }
        let total: usize = reference.iter().map(HashSet::len).sum();
        assert_eq!(pool.total_len(), total);
    }

    #[test]
    fn pool_generation_wrap_stays_isolated_per_node() {
        let mut pool = DenseSetPool::new(3);
        pool.insert(0, 5);
        pool.insert(1, 5);
        pool.clear(0);
        // Force node 0 to the last generation and wrap it.
        pool.gens[0] = u32::MAX;
        pool.insert(0, 9);
        pool.clear(0);
        assert_eq!(pool.gens[0], 1, "generation must wrap to 1");
        assert!(!pool.contains(0, 5), "pre-wrap stamp aliased after wrap");
        assert!(!pool.contains(0, 9));
        // The neighbouring row is untouched by the wrap wipe.
        assert!(pool.contains(1, 5));
        assert!(pool.insert(0, 5));
        assert!(pool.contains(0, 5));
        assert_eq!(pool.total_len(), 2);
    }

    #[test]
    fn pool_grow_preserves_rows() {
        let mut pool = DenseSetPool::new(4);
        pool.insert(2, 3);
        pool.insert(3, 60);
        pool.clear(3);
        pool.insert(3, 7);
        // Key beyond the current stride forces a re-stride.
        pool.insert(1, 5_000);
        assert!(pool.contains(2, 3));
        assert!(pool.contains(3, 7));
        assert!(!pool.contains(3, 60), "cleared key revived by grow");
        assert!(pool.contains(1, 5_000));
        assert_eq!(pool.total_len(), 3);
    }

    #[test]
    fn matches_hashset_under_random_ops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let mut rng = StdRng::seed_from_u64(7);
        let mut pool = DenseSetPool::new(1);
        let mut reference: HashSet<u32> = HashSet::new();
        for _ in 0..20_000 {
            let key = rng.random_range(0..512u32);
            match rng.random_range(0..10u32) {
                0..=4 => assert_eq!(pool.insert(0, key), reference.insert(key)),
                5..=7 => assert_eq!(pool.remove(0, key), reference.remove(&key)),
                8 => assert_eq!(pool.contains(0, key), reference.contains(&key)),
                _ => {
                    if rng.random_bool(0.05) {
                        pool.clear(0);
                        reference.clear();
                    }
                }
            }
            assert_eq!(pool.len_of(0), reference.len());
        }
    }
}
