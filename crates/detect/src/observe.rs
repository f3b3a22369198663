//! Rolling-window observables reconstructed from the record stream.
//!
//! [`StreamState`] replays net/crawler records into per-node tip
//! heights and the network best from `Mine` records — the crawler's
//! block-lag bands at each tick, which `trace timeline` prints. It also
//! keeps per-node last-accept times, the node→AS slot join from
//! `node_as` records, and window accumulators (invs, getdatas, mines,
//! reorg depth) that are cut on every `crawl_sample` record. Detectors
//! are evaluated once per such [`Tick`], the crawler's own cadence, and
//! never see raw `partition_apply` / `partition_heal` ground truth:
//! those records are deliberately not part of the state, so detectors
//! can only infer a partition from its symptoms.
//!
//! Attack-category records live in a different time domain, and
//! detect-category records are a detection run's own output; the state
//! skips both, so replaying a trace that already carries alerts
//! observes exactly what the first pass did.

use bp_attacks::countermeasures::blockaware_stale;
use bp_obs::trace::{TraceCategory, TraceKind, TraceRecord};
use std::collections::BTreeMap;

/// Marks "never" in per-node last-accept times.
const NEVER: u64 = u64::MAX;

/// Per-block announcement trains retained for the inv-collapse
/// detector, bounded to the most recent blocks.
const MAX_TRAINS: usize = 256;

/// One evaluation point: the observables cut at a `crawl_sample` record.
/// Window fields cover everything since the previous tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// Sample time (simulated milliseconds).
    pub t_ms: u64,
    /// 0-based tick ordinal.
    pub seq: u64,
    /// Total node count at the sample.
    pub total: u64,
    /// Synced (lag-0) node count reported by the crawler.
    pub synced: u64,
    /// Network best height at the sample.
    pub best: u64,
    /// Inv announcements in the window.
    pub inv_count: u64,
    /// Sum of peers notified across those announcements.
    pub inv_peers: u64,
    /// Getdata requests served in the window.
    pub getdata_count: u64,
    /// Blocks mined in the window.
    pub mine_count: u64,
    /// Deepest reorg begun in the window (0 when none).
    pub max_reorg_depth: u64,
}

/// Replayed per-node / per-AS state shared by all detectors.
#[derive(Debug, Clone, Default)]
pub struct StreamState {
    heights: Vec<u64>,
    last_accept_ms: Vec<u64>,
    node_slot: Vec<u32>,
    slot_asn: Vec<u64>,
    slot_pop: Vec<u64>,
    trains: BTreeMap<u64, (u64, u64)>,
    network_best: u64,
    total_nodes: u64,
    // Window accumulators, reset at every tick.
    inv_count: u64,
    inv_peers: u64,
    getdata_count: u64,
    mine_count: u64,
    max_reorg_depth: u64,
    // Running totals for the report.
    records: u64,
    inv_total: u64,
    getdata_total: u64,
    ticks: u64,
    // Derived at each tick.
    lag_counts: [u64; 5],
    as_synced: Vec<u64>,
}

impl StreamState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one record; returns the cut observables when the record
    /// is a sample tick. Attack- and detect-category records are skipped
    /// and not counted.
    pub fn consume(&mut self, r: &TraceRecord) -> Option<Tick> {
        if matches!(
            r.kind.category(),
            TraceCategory::Attack | TraceCategory::Detect
        ) {
            return None;
        }
        self.records += 1;
        match r.kind {
            TraceKind::Mine => {
                self.network_best = self.network_best.max(r.b);
                self.mine_count += 1;
                self.trains.insert(r.a, (self.ticks, 0));
                while self.trains.len() > MAX_TRAINS {
                    self.trains.pop_first();
                }
            }
            TraceKind::BlockAccept => {
                let idx = r.node as usize;
                if idx >= self.heights.len() {
                    self.heights.resize(idx + 1, 0);
                    self.last_accept_ms.resize(idx + 1, NEVER);
                }
                self.heights[idx] = r.b;
                self.last_accept_ms[idx] = r.time;
            }
            TraceKind::InvRelay => {
                self.inv_count += 1;
                self.inv_peers += r.b;
                self.inv_total += 1;
                // Attribute the announcement to its block's train;
                // blocks mined before the stream began are unknown and
                // simply not scored.
                if let Some(train) = self.trains.get_mut(&r.a) {
                    train.1 += 1;
                }
            }
            TraceKind::GetData => {
                self.getdata_count += 1;
                self.getdata_total += 1;
            }
            TraceKind::ReorgBegin => {
                self.max_reorg_depth = self.max_reorg_depth.max(r.a);
            }
            TraceKind::NodeAs => {
                let node = r.node as usize;
                if node >= self.node_slot.len() {
                    self.node_slot.resize(node + 1, u32::MAX);
                }
                let slot = r.b as usize;
                if slot >= self.slot_asn.len() {
                    self.slot_asn.resize(slot + 1, 0);
                    self.slot_pop.resize(slot + 1, 0);
                }
                // Re-announcing a node (replays concatenate streams)
                // moves it rather than double-counting it.
                let old = self.node_slot[node];
                if old != u32::MAX {
                    self.slot_pop[old as usize] -= 1;
                }
                self.node_slot[node] = r.b as u32;
                self.slot_asn[slot] = r.a;
                self.slot_pop[slot] += 1;
            }
            TraceKind::CrawlSample => {
                self.network_best = self.network_best.max(r.b);
                self.total_nodes = r.node as u64;
                let total = r.node as usize;
                if total > self.heights.len() {
                    self.heights.resize(total, 0);
                    self.last_accept_ms.resize(total, NEVER);
                }
                self.cut_tick_derived(total);
                let tick = Tick {
                    t_ms: r.time,
                    seq: self.ticks,
                    total: r.node as u64,
                    synced: r.a,
                    best: self.network_best,
                    inv_count: self.inv_count,
                    inv_peers: self.inv_peers,
                    getdata_count: self.getdata_count,
                    mine_count: self.mine_count,
                    max_reorg_depth: self.max_reorg_depth,
                };
                self.ticks += 1;
                self.inv_count = 0;
                self.inv_peers = 0;
                self.getdata_count = 0;
                self.mine_count = 0;
                self.max_reorg_depth = 0;
                return Some(tick);
            }
            _ => {}
        }
        None
    }

    /// Classifies every node's lag into the crawler's five bands and
    /// tallies synced nodes per AS slot.
    fn cut_tick_derived(&mut self, total: usize) {
        self.lag_counts = [0; 5];
        self.as_synced.clear();
        self.as_synced.resize(self.slot_asn.len(), 0);
        for (i, &h) in self.heights.iter().take(total).enumerate() {
            let lag = self.network_best.saturating_sub(h);
            let class = match lag {
                0 => 0,
                1 => 1,
                2..=4 => 2,
                5..=10 => 3,
                _ => 4,
            };
            self.lag_counts[class] += 1;
            if lag == 0 {
                if let Some(&slot) = self.node_slot.get(i) {
                    if slot != u32::MAX {
                        self.as_synced[slot as usize] += 1;
                    }
                }
            }
        }
    }

    /// Lag-band counts at the last tick:
    /// `[synced, one_behind, two_to_four, five_to_ten, ten_plus]`.
    pub fn lag_counts(&self) -> [u64; 5] {
        self.lag_counts
    }

    /// Synced-node counts per AS slot at the last tick (empty when the
    /// trace carries no `node_as` join).
    pub fn as_synced(&self) -> &[u64] {
        &self.as_synced
    }

    /// AS numbers per slot, as carried by `node_as` records.
    pub fn slot_asn(&self) -> &[u64] {
        &self.slot_asn
    }

    /// Node population per AS slot, from the `node_as` join.
    pub fn slot_population(&self) -> &[u64] {
        &self.slot_pop
    }

    /// Per-block announcement trains: dense block id → `(mine_tick,
    /// invs attributed so far)`, bounded to the most recent blocks.
    /// `inv_relay` records carry their block's dense id in `a`, and so
    /// do `mine` records, which is what makes exact attribution
    /// possible — no windowing, no tail leakage.
    pub fn inv_trains(&self) -> &BTreeMap<u64, (u64, u64)> {
        &self.trains
    }

    /// Counts nodes that are behind an *advancing* tip and have not
    /// accepted a block for more than `threshold_secs` — the BlockAware
    /// staleness predicate applied per node, gated on `height <
    /// network_best` so quiet-but-synced gaps (no blocks mined anywhere)
    /// do not count. Returns `(stale, tracked)` where `tracked` is the
    /// number of nodes that ever accepted a block.
    pub fn stale_nodes(&self, t_ms: u64, threshold_secs: u64) -> (u64, u64) {
        let total = (self.total_nodes as usize).min(self.heights.len());
        let mut stale = 0;
        let mut tracked = 0;
        for i in 0..total {
            if self.last_accept_ms[i] == NEVER {
                continue;
            }
            tracked += 1;
            if self.heights[i] < self.network_best
                && blockaware_stale(t_ms / 1000, self.last_accept_ms[i] / 1000, threshold_secs)
            {
                stale += 1;
            }
        }
        (stale, tracked)
    }

    /// Records consumed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Ticks cut so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total inv announcements seen.
    pub fn inv_total(&self) -> u64 {
        self.inv_total
    }

    /// Total getdata requests seen.
    pub fn getdata_total(&self) -> u64 {
        self.getdata_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(time: u64, node: u32, kind: TraceKind, a: u64, b: u64) -> TraceRecord {
        TraceRecord {
            time,
            node,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn ticks_cut_window_accumulators() {
        let mut s = StreamState::new();
        assert!(s.consume(&rec(10, 0, TraceKind::Mine, 0, 1)).is_none());
        assert!(s.consume(&rec(11, 0, TraceKind::InvRelay, 0, 8)).is_none());
        assert!(s.consume(&rec(12, 1, TraceKind::GetData, 0, 0)).is_none());
        assert!(s
            .consume(&rec(13, 1, TraceKind::BlockAccept, 0, 1))
            .is_none());
        let tick = s
            .consume(&rec(60_000, 2, TraceKind::CrawlSample, 1, 1))
            .unwrap();
        assert_eq!(tick.seq, 0);
        assert_eq!(tick.mine_count, 1);
        assert_eq!(tick.inv_count, 1);
        assert_eq!(tick.inv_peers, 8);
        assert_eq!(tick.getdata_count, 1);
        assert_eq!(tick.best, 1);
        // Node 1 accepted height 1 (synced); node 0 never accepted.
        assert_eq!(s.lag_counts(), [1, 1, 0, 0, 0]);
        // Window resets.
        let tick = s
            .consume(&rec(120_000, 2, TraceKind::CrawlSample, 1, 1))
            .unwrap();
        assert_eq!(tick.seq, 1);
        assert_eq!(tick.mine_count, 0);
        assert_eq!(tick.inv_count, 0);
    }

    #[test]
    fn timeline_reconstructs_lag_classes() {
        // Two nodes; node 0 accepts height 1, node 1 stays at 0 while the
        // network advances to height 3 → node 0 lags 2 (class 2), node 1
        // lags 3 (class 2).
        let mut s = StreamState::new();
        s.consume(&rec(100, 0, TraceKind::Mine, 1, 1));
        s.consume(&rec(150, 0, TraceKind::BlockAccept, 1, 1));
        s.consume(&rec(200, 0, TraceKind::Mine, 2, 3));
        let tick = s
            .consume(&rec(60_000, 2, TraceKind::CrawlSample, 0, 3))
            .unwrap();
        assert_eq!(tick.t_ms, 60_000);
        assert_eq!(tick.best, 3);
        assert_eq!(s.lag_counts(), [0, 0, 2, 0, 0]);
    }

    #[test]
    fn timeline_ignores_attack_records() {
        let mut s = StreamState::new();
        assert!(s.consume(&rec(5, 1, TraceKind::GridMine, 40, 5)).is_none());
        let tick = s
            .consume(&rec(1000, 1, TraceKind::CrawlSample, 1, 0))
            .unwrap();
        assert_eq!(tick.best, 0);
        assert_eq!(s.lag_counts(), [1, 0, 0, 0, 0]);
        assert_eq!(s.records(), 1);
    }

    #[test]
    fn staleness_requires_an_advancing_tip() {
        let mut s = StreamState::new();
        s.consume(&rec(1000, 0, TraceKind::BlockAccept, 0, 1));
        s.consume(&rec(1000, 1, TraceKind::BlockAccept, 0, 1));
        s.consume(&rec(60_000, 2, TraceKind::CrawlSample, 2, 1));
        // A long quiet gap with no new blocks: nobody is stale, the tip
        // is not advancing.
        assert_eq!(s.stale_nodes(2_000_000, 600), (0, 2));
        // The network advances but node 1 never hears of it.
        s.consume(&rec(2_000_000, 0, TraceKind::Mine, 1, 2));
        s.consume(&rec(2_000_100, 0, TraceKind::BlockAccept, 1, 2));
        s.consume(&rec(2_040_000, 2, TraceKind::CrawlSample, 1, 2));
        assert_eq!(s.stale_nodes(2_000_000 + 601_000, 600), (1, 2));
    }

    #[test]
    fn node_as_join_feeds_per_slot_synced_counts() {
        let mut s = StreamState::new();
        s.consume(&rec(0, 0, TraceKind::NodeAs, 100, 0));
        s.consume(&rec(0, 1, TraceKind::NodeAs, 200, 1));
        s.consume(&rec(0, 2, TraceKind::NodeAs, 100, 0));
        s.consume(&rec(10, 0, TraceKind::BlockAccept, 0, 1));
        s.consume(&rec(10, 2, TraceKind::BlockAccept, 0, 1));
        s.consume(&rec(20, 0, TraceKind::Mine, 0, 1));
        s.consume(&rec(60_000, 3, TraceKind::CrawlSample, 2, 1));
        assert_eq!(s.as_synced(), &[2, 0]);
        assert_eq!(s.slot_asn(), &[100, 200]);
    }
}
