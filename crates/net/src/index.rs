//! The shared block index.
//!
//! At network scale (13,635 nodes) giving every simulated node its own
//! block store would duplicate every block thousands of times. Instead
//! the simulation keeps one global [`BlockIndex`] of block *metadata*
//! (id, parent, height, timestamp, producer) and gives each node a
//! lightweight chain view over it (see [`crate::view`]). Transactions
//! ride beside the index: the simulator records which transactions each
//! block confirms and counts the ones a reorg reverses.
//!
//! Blocks are append-only, so each one also gets a small *dense index*
//! (`0` = genesis, then insertion order). The simulator keys its hot
//! per-node relay state by dense index — a `u32` probe into a
//! [`crate::dense::DenseSetPool`] row — instead of hashing 32-byte ids,
//! and the per-height buckets make finalization pruning a range walk
//! instead of a full-map scan.

use crate::engine::SimTime;
use crate::fxhash::FxHashMap;
use bp_chain::{BlockId, Hash256, Height};

/// Sentinel dense index meaning "no such block" (genesis's parent).
pub const NO_BLOCK: u32 = u32::MAX;

/// Metadata of one simulated block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Block identifier.
    pub id: BlockId,
    /// Parent identifier ([`Hash256::ZERO`] for genesis).
    pub prev: BlockId,
    /// Chain height.
    pub height: Height,
    /// Simulation time at which the block was found.
    pub found_at: SimTime,
    /// Index of the producing mining entity (pool index, or a synthetic
    /// attacker id).
    pub producer: u32,
    /// Whether the block was produced by an adversary (counterfeit chain).
    pub counterfeit: bool,
    /// This block's dense index (position in insertion order; genesis
    /// is 0).
    pub dense: u32,
    /// The parent's dense index ([`NO_BLOCK`] for genesis).
    pub prev_dense: u32,
}

/// The global append-only block index.
#[derive(Debug, Clone)]
pub struct BlockIndex {
    /// All blocks in insertion order; `metas[m.dense] == m`.
    metas: Vec<BlockMeta>,
    by_id: FxHashMap<BlockId, u32>,
    /// Dense indices per height (`by_height[h]` holds every block at
    /// height `h`, in insertion order).
    by_height: Vec<Vec<u32>>,
    genesis: BlockId,
}

impl BlockIndex {
    /// Creates an index containing only a genesis block found at time 0.
    pub fn new() -> Self {
        let genesis_id = Hash256::digest(b"btcpart-genesis");
        let genesis = BlockMeta {
            id: genesis_id,
            prev: Hash256::ZERO,
            height: Height::GENESIS,
            found_at: SimTime::ZERO,
            producer: u32::MAX,
            counterfeit: false,
            dense: 0,
            prev_dense: NO_BLOCK,
        };
        let mut by_id = FxHashMap::default();
        by_id.insert(genesis_id, 0);
        Self {
            metas: vec![genesis],
            by_id,
            by_height: vec![vec![0]],
            genesis: genesis_id,
        }
    }

    /// The genesis id.
    pub fn genesis(&self) -> BlockId {
        self.genesis
    }

    /// Number of blocks ever mined (including genesis).
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether only genesis exists. Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Looks up block metadata.
    pub fn get(&self, id: &BlockId) -> Option<&BlockMeta> {
        self.by_id.get(id).map(|&d| &self.metas[d as usize])
    }

    /// The dense index of `id`, if known.
    pub fn dense_of(&self, id: &BlockId) -> Option<u32> {
        self.by_id.get(id).copied()
    }

    /// Metadata by dense index.
    ///
    /// # Panics
    ///
    /// Panics if `dense` was never issued by this index.
    pub fn meta_at(&self, dense: u32) -> &BlockMeta {
        &self.metas[dense as usize]
    }

    /// Dense indices of every block at `height` (empty above the tip).
    pub fn at_height(&self, height: Height) -> &[u32] {
        self.by_height
            .get(height.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Mines a new block on `parent`, returning its metadata.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is unknown.
    pub fn mine(
        &mut self,
        parent: BlockId,
        found_at: SimTime,
        producer: u32,
        counterfeit: bool,
    ) -> BlockMeta {
        let prev_dense = *self
            .by_id
            .get(&parent)
            .expect("parent block must exist in the index");
        let parent_meta = self.metas[prev_dense as usize];
        let height = parent_meta.height.next();
        // Derive a unique id from the block's identity tuple.
        let mut buf = Vec::with_capacity(64);
        buf.extend(parent.as_ref());
        buf.extend(height.0.to_le_bytes());
        buf.extend(found_at.as_millis().to_le_bytes());
        buf.extend(producer.to_le_bytes());
        buf.push(counterfeit as u8);
        let id = Hash256::digest(&buf);
        let dense = self.metas.len() as u32;
        let meta = BlockMeta {
            id,
            prev: parent,
            height,
            found_at,
            producer,
            counterfeit,
            dense,
            prev_dense,
        };
        self.metas.push(meta);
        self.by_id.insert(id, dense);
        let h = height.0 as usize;
        if h >= self.by_height.len() {
            self.by_height.resize_with(h + 1, Vec::new);
        }
        self.by_height[h].push(dense);
        meta
    }

    /// Walks from `id` back to genesis, returning the path (`id` first).
    ///
    /// Returns `None` if `id` is unknown.
    pub fn ancestry(&self, id: &BlockId) -> Option<Vec<BlockMeta>> {
        let mut cur = *self.get(id)?;
        let mut path = Vec::with_capacity(cur.height.0 as usize + 1);
        loop {
            path.push(cur);
            if cur.prev_dense == NO_BLOCK {
                return Some(path);
            }
            cur = self.metas[cur.prev_dense as usize];
        }
    }

    /// Whether `ancestor` lies on the chain ending at `tip`.
    pub fn is_ancestor(&self, ancestor: &BlockId, tip: &BlockId) -> bool {
        let (Some(anc), Some(tip)) = (self.get(ancestor), self.get(tip)) else {
            return false;
        };
        self.is_ancestor_dense(anc.dense, tip.dense)
    }

    /// [`Self::is_ancestor`] over dense indices.
    pub fn is_ancestor_dense(&self, ancestor: u32, tip: u32) -> bool {
        let anc_height = self.metas[ancestor as usize].height;
        let mut cur = self.metas[tip as usize];
        loop {
            if cur.dense == ancestor {
                return true;
            }
            if cur.height <= anc_height || cur.prev_dense == NO_BLOCK {
                return false;
            }
            cur = self.metas[cur.prev_dense as usize];
        }
    }
}

impl Default for BlockIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_exists() {
        let idx = BlockIndex::new();
        let g = idx.get(&idx.genesis()).unwrap();
        assert_eq!(g.height, Height::GENESIS);
        assert_eq!(g.dense, 0);
        assert_eq!(g.prev_dense, NO_BLOCK);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn mining_extends_height() {
        let mut idx = BlockIndex::new();
        let b1 = idx.mine(idx.genesis(), SimTime::from_secs(600), 0, false);
        let b2 = idx.mine(b1.id, SimTime::from_secs(1200), 1, false);
        assert_eq!(b1.height, Height(1));
        assert_eq!(b2.height, Height(2));
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn dense_indices_follow_insertion_order() {
        let mut idx = BlockIndex::new();
        let b1 = idx.mine(idx.genesis(), SimTime(1), 0, false);
        let b2 = idx.mine(b1.id, SimTime(2), 0, false);
        assert_eq!(b1.dense, 1);
        assert_eq!(b2.dense, 2);
        assert_eq!(b2.prev_dense, b1.dense);
        assert_eq!(idx.dense_of(&b2.id), Some(2));
        assert_eq!(idx.meta_at(1), &b1);
        assert_eq!(idx.at_height(Height(1)), &[1]);
        assert_eq!(idx.at_height(Height(99)), &[] as &[u32]);
    }

    #[test]
    fn ids_are_unique_across_forks() {
        let mut idx = BlockIndex::new();
        let a = idx.mine(idx.genesis(), SimTime(1), 0, false);
        let b = idx.mine(idx.genesis(), SimTime(1), 1, false);
        let c = idx.mine(idx.genesis(), SimTime(2), 0, false);
        assert_ne!(a.id, b.id);
        assert_ne!(a.id, c.id);
        assert_eq!(idx.at_height(Height(1)), &[1, 2, 3]);
    }

    #[test]
    fn counterfeit_flag_distinguishes_ids() {
        let mut idx = BlockIndex::new();
        let honest = idx.mine(idx.genesis(), SimTime(5), 0, false);
        let fake = idx.mine(idx.genesis(), SimTime(5), 0, true);
        assert_ne!(honest.id, fake.id);
        assert!(fake.counterfeit);
    }

    #[test]
    fn ancestry_walks_to_genesis() {
        let mut idx = BlockIndex::new();
        let mut tip = idx.genesis();
        for i in 0..5 {
            tip = idx.mine(tip, SimTime(i), 0, false).id;
        }
        let path = idx.ancestry(&tip).unwrap();
        assert_eq!(path.len(), 6);
        assert_eq!(path.last().unwrap().id, idx.genesis());
        assert_eq!(path[0].id, tip);
    }

    #[test]
    fn is_ancestor_respects_forks() {
        let mut idx = BlockIndex::new();
        let a = idx.mine(idx.genesis(), SimTime(1), 0, false);
        let a2 = idx.mine(a.id, SimTime(2), 0, false);
        let b = idx.mine(idx.genesis(), SimTime(1), 1, false);
        assert!(idx.is_ancestor(&a.id, &a2.id));
        assert!(idx.is_ancestor(&idx.genesis(), &a2.id));
        assert!(!idx.is_ancestor(&b.id, &a2.id));
        assert!(!idx.is_ancestor(&a2.id, &a.id));
    }

    #[test]
    #[should_panic(expected = "parent block")]
    fn mining_on_unknown_parent_panics() {
        let mut idx = BlockIndex::new();
        idx.mine(Hash256::digest(b"nope"), SimTime(1), 0, false);
    }
}
