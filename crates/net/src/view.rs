//! Per-node chain views.
//!
//! Each simulated node tracks which blocks it knows and which tip it
//! follows, using the shared [`crate::index::BlockIndex`] for metadata.
//! Fork choice is longest-chain (uniform difficulty), first-seen on ties —
//! Bitcoin's rule when every block carries the same work.
//!
//! Views key their state by *dense* block index (see
//! [`crate::index::BlockIndex`]): the known-set is a bit-per-block
//! vector and a membership probe is one bounds-checked load, which
//! matters because block relay consults it on every inv/getdata across
//! ~65 M deliveries in a day-scale simulation.

use crate::fxhash::FxHashMap;
use crate::index::{BlockIndex, BlockMeta, NO_BLOCK};
use bp_chain::{BlockId, Height};

/// The outcome of offering a block to a node's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewOutcome {
    /// Became the new tip (extension or reorg).
    NewTip {
        /// Blocks abandoned from the previous best chain (0 = extension).
        reorg_depth: u64,
    },
    /// Accepted on a side branch.
    SideBranch,
    /// Already known.
    Duplicate,
    /// Parent unknown — parked; caller should fetch the parent.
    MissingParent(BlockId),
}

/// One node's view of the block tree.
#[derive(Debug, Clone)]
pub struct NodeView {
    /// Known-block bitvec: bit `dense` set — the node has accepted the
    /// block. Word-packed so a million views over a few hundred blocks
    /// cost ~5 words each instead of a byte per block.
    known: Vec<u64>,
    known_count: usize,
    /// Orphans waiting on a parent, by parent dense index.
    orphans: FxHashMap<u32, Vec<u32>>,
    best_tip: BlockId,
    best_dense: u32,
    best_height: Height,
    /// Timestamp (sim seconds) of the best block — BlockAware compares
    /// this with the wall clock.
    best_found_secs: u64,
}

impl NodeView {
    /// Creates a view that knows only genesis.
    pub fn new(index: &BlockIndex) -> Self {
        Self {
            known: vec![1], // genesis bit
            known_count: 1,
            orphans: FxHashMap::default(),
            best_tip: index.genesis(),
            best_dense: 0,
            best_height: Height::GENESIS,
            best_found_secs: 0,
        }
    }

    /// The tip this node follows.
    pub fn best_tip(&self) -> BlockId {
        self.best_tip
    }

    /// Dense index of the followed tip.
    pub fn best_dense(&self) -> u32 {
        self.best_dense
    }

    /// Height of the followed tip.
    pub fn best_height(&self) -> Height {
        self.best_height
    }

    /// Sim-seconds timestamp of the followed tip (for BlockAware).
    pub fn best_found_secs(&self) -> u64 {
        self.best_found_secs
    }

    /// Whether the node knows the block with dense index `dense`.
    #[inline]
    pub fn knows_dense(&self, dense: u32) -> bool {
        let word = self.known.get((dense / 64) as usize).copied().unwrap_or(0);
        word >> (dense % 64) & 1 == 1
    }

    /// Whether the node knows a block by id.
    pub fn knows(&self, index: &BlockIndex, id: &BlockId) -> bool {
        index.dense_of(id).is_some_and(|d| self.knows_dense(d))
    }

    /// Number of known blocks.
    pub fn known_count(&self) -> usize {
        self.known_count
    }

    /// How many blocks this view lags behind `network_best`.
    pub fn lag(&self, network_best: Height) -> u64 {
        self.best_height.behind(network_best)
    }

    /// Offers a block to the view. Orphans are parked and connected
    /// automatically when the parent arrives.
    pub fn offer(&mut self, index: &BlockIndex, id: BlockId) -> ViewOutcome {
        let Some(dense) = index.dense_of(&id) else {
            // Unknown to the global index — cannot happen in a well-formed
            // simulation; treat as missing parent of itself.
            return ViewOutcome::MissingParent(id);
        };
        self.offer_dense(index, dense)
    }

    /// [`Self::offer`] by dense index (the simulator's hot path).
    pub fn offer_dense(&mut self, index: &BlockIndex, dense: u32) -> ViewOutcome {
        if self.knows_dense(dense) {
            return ViewOutcome::Duplicate;
        }
        let meta = *index.meta_at(dense);
        if !self.knows_dense(meta.prev_dense) {
            self.orphans.entry(meta.prev_dense).or_default().push(dense);
            return ViewOutcome::MissingParent(meta.prev);
        }
        let outcome = self.accept(index, meta);
        self.adopt_orphans(index, dense);
        outcome
    }

    fn mark_known(&mut self, dense: u32) {
        let word = (dense / 64) as usize;
        if word >= self.known.len() {
            self.known.resize(word + 1, 0);
        }
        let bit = 1u64 << (dense % 64);
        if self.known[word] & bit == 0 {
            self.known[word] |= bit;
            self.known_count += 1;
        }
    }

    fn accept(&mut self, index: &BlockIndex, meta: BlockMeta) -> ViewOutcome {
        self.mark_known(meta.dense);
        if meta.height > self.best_height {
            let reorg_depth = if meta.prev_dense == self.best_dense {
                0
            } else {
                self.reorg_depth(index, meta.dense)
            };
            self.best_tip = meta.id;
            self.best_dense = meta.dense;
            self.best_height = meta.height;
            self.best_found_secs = meta.found_at.as_secs();
            ViewOutcome::NewTip { reorg_depth }
        } else {
            ViewOutcome::SideBranch
        }
    }

    /// Depth of the reorg switching from the current tip to `new_tip`:
    /// the number of blocks on the old chain above the common ancestor.
    fn reorg_depth(&self, index: &BlockIndex, new_tip: u32) -> u64 {
        // Walk the new chain down to the first block on the old chain.
        let old_tip = self.best_dense;
        let mut cur = *index.meta_at(new_tip);
        loop {
            if index.is_ancestor_dense(cur.dense, old_tip) {
                return self.best_height.0.saturating_sub(cur.height.0);
            }
            if cur.prev_dense == NO_BLOCK {
                return 0;
            }
            cur = *index.meta_at(cur.prev_dense);
        }
    }

    fn adopt_orphans(&mut self, index: &BlockIndex, parent: u32) {
        let mut stack = vec![parent];
        while let Some(p) = stack.pop() {
            if let Some(children) = self.orphans.remove(&p) {
                for child in children {
                    if !self.knows_dense(child) {
                        self.accept(index, *index.meta_at(child));
                        stack.push(child);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimTime;

    fn setup() -> (BlockIndex, NodeView) {
        let idx = BlockIndex::new();
        let view = NodeView::new(&idx);
        (idx, view)
    }

    #[test]
    fn extension_is_new_tip_without_reorg() {
        let (mut idx, mut view) = setup();
        let b1 = idx.mine(idx.genesis(), SimTime::from_secs(600), 0, false);
        assert_eq!(
            view.offer(&idx, b1.id),
            ViewOutcome::NewTip { reorg_depth: 0 }
        );
        assert_eq!(view.best_height(), Height(1));
        assert_eq!(view.best_found_secs(), 600);
        assert!(view.knows(&idx, &b1.id));
        assert!(view.knows_dense(b1.dense));
    }

    #[test]
    fn duplicate_detected() {
        let (mut idx, mut view) = setup();
        let b1 = idx.mine(idx.genesis(), SimTime(1), 0, false);
        view.offer(&idx, b1.id);
        assert_eq!(view.offer(&idx, b1.id), ViewOutcome::Duplicate);
    }

    #[test]
    fn side_branch_then_reorg_depth_counted() {
        let (mut idx, mut view) = setup();
        let a1 = idx.mine(idx.genesis(), SimTime(1), 0, false);
        let a2 = idx.mine(a1.id, SimTime(2), 0, false);
        let b1 = idx.mine(idx.genesis(), SimTime(3), 1, false);
        let b2 = idx.mine(b1.id, SimTime(4), 1, false);
        let b3 = idx.mine(b2.id, SimTime(5), 1, false);
        view.offer(&idx, a1.id);
        view.offer(&idx, a2.id);
        assert_eq!(view.offer(&idx, b1.id), ViewOutcome::SideBranch);
        assert_eq!(view.offer(&idx, b2.id), ViewOutcome::SideBranch);
        assert_eq!(
            view.offer(&idx, b3.id),
            ViewOutcome::NewTip { reorg_depth: 2 }
        );
        assert_eq!(view.best_tip(), b3.id);
        assert_eq!(view.best_dense(), b3.dense);
    }

    #[test]
    fn orphans_connect_when_parent_arrives() {
        let (mut idx, mut view) = setup();
        let b1 = idx.mine(idx.genesis(), SimTime(1), 0, false);
        let b2 = idx.mine(b1.id, SimTime(2), 0, false);
        let b3 = idx.mine(b2.id, SimTime(3), 0, false);
        assert_eq!(view.offer(&idx, b3.id), ViewOutcome::MissingParent(b2.id));
        assert_eq!(view.offer(&idx, b2.id), ViewOutcome::MissingParent(b1.id));
        assert_eq!(
            view.offer(&idx, b1.id),
            ViewOutcome::NewTip { reorg_depth: 0 }
        );
        // Orphans were adopted transitively.
        assert_eq!(view.best_height(), Height(3));
        assert_eq!(view.best_tip(), b3.id);
    }

    #[test]
    fn lag_measures_blocks_behind() {
        let (mut idx, mut view) = setup();
        let b1 = idx.mine(idx.genesis(), SimTime(1), 0, false);
        view.offer(&idx, b1.id);
        assert_eq!(view.lag(Height(4)), 3);
        assert_eq!(view.lag(Height(1)), 0);
    }

    #[test]
    fn counterfeit_chain_overtakes_when_longer() {
        // The temporal attack in miniature: a node one block behind
        // accepts a counterfeit chain of greater height.
        let (mut idx, mut view) = setup();
        let honest1 = idx.mine(idx.genesis(), SimTime(1), 0, false);
        view.offer(&idx, honest1.id);
        let fake1 = idx.mine(idx.genesis(), SimTime(2), 99, true);
        let fake2 = idx.mine(fake1.id, SimTime(3), 99, true);
        view.offer(&idx, fake1.id);
        let outcome = view.offer(&idx, fake2.id);
        assert_eq!(outcome, ViewOutcome::NewTip { reorg_depth: 1 });
        assert!(idx.get(&view.best_tip()).unwrap().counterfeit);
    }
}
