//! The event-driven Bitcoin P2P network simulation.
//!
//! Models what the paper measures and attacks:
//!
//! * every up node from a [`bp_topology::Snapshot`] becomes a peer with 8
//!   outbound connections ("the default number of Bitcoin peers is 8,
//!   which is used in our simulation", §V-B), chosen uniformly across
//!   ASes;
//! * blocks propagate by *diffusion spreading*: `inv` announcements with
//!   independent exponential per-edge delays (§V-B, Eq. 1), followed by
//!   `getdata`/`block` exchanges subject to link quality and a ~10 %
//!   message-failure rate ("peer communication failure rate is … typically
//!   around 10 percent"). Each message's delay and loss are keyed by the
//!   message itself ([`crate::keyed`]), so an inv whose delivery cannot
//!   change any node is never scheduled (see `Simulation::send_inv`);
//! * mining pools find blocks as a Poisson process split by hash share and
//!   inject them at gateway nodes inside their stratum ASes — a pool that
//!   is behind mines on its stale tip, creating natural forks;
//! * a fraction of nodes are *zombies* that never fetch blocks (the
//!   paper's "10 % of nodes are forever behind the main blockchain");
//! * churn: nodes with poor uptime indices drop offline and resync later,
//!   producing the wavering 30–40 % the paper observes;
//! * hooks for attacks: group partitions (spatial hijack in effect),
//!   counterfeit block injection (temporal attack), and direct adversary
//!   connections.

use crate::dense::DenseSetPool;
use crate::engine::{EventQueue, SimTime};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::index::{BlockIndex, NO_BLOCK};
use crate::keyed::{Draw, Keyed};
use crate::view::{NodeView, ViewOutcome};
use bp_chain::{BlockId, Height};
use bp_mining::{ArrivalProcess, PoolCensus};
use bp_obs::{TraceKind, Tracer};
use bp_topology::{NodeId, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic producer id for adversary-mined blocks.
pub const ADVERSARY_PRODUCER: u32 = u32::MAX - 1;

/// Block-announcement relay discipline.
///
/// Bitcoin switched from *trickle spreading* to *diffusion spreading* in
/// 2015 (paper §V-B); the simulator supports both so the ablation sweeps
/// can compare partition windows under each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelayMode {
    /// Post-2015 diffusion: each edge gets an independent exponential
    /// delay (mean = `diffusion_mean_ms` / link quality).
    Diffusion,
    /// Pre-2015 trickle: announcements go out in staggered rounds — the
    /// k-th peer hears after `k × interval_ms` (plus jitter), so the
    /// fan-out is deterministic and slower.
    Trickle {
        /// Milliseconds between successive per-peer announcements.
        interval_ms: u64,
    },
}

/// The one network construction [`Simulation::new`] runs: zombies from
/// a partial Fisher–Yates shuffle, peers from
/// `adjacency_by_partial_shuffle`.
///
/// Kept only so the benchmark builds; delete with the next benchmark
/// change. Nothing reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// The only construction.
    PartialShuffle,
}

/// Network-simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// RNG seed.
    pub seed: u64,
    /// Kept only so the benchmark builds; delete with the next benchmark
    /// change. Nothing reads it.
    pub sampling: SamplingMode,
    /// Outbound peer connections per node (Bitcoin default: 8).
    pub out_degree: usize,
    /// Announcement relay discipline (diffusion vs. trickle).
    pub relay_mode: RelayMode,
    /// Mean of the exponential per-edge announcement delay, in
    /// milliseconds (diffusion spreading).
    pub diffusion_mean_ms: f64,
    /// Floor latency for any message.
    pub min_latency_ms: u64,
    /// Base time to transfer + validate a block.
    pub block_transfer_ms: u64,
    /// Mean of the per-node lazy-fetch delay: how long a node waits after
    /// first hearing of a block before requesting it (models slow
    /// validation, low-powered hosts, and the crawler-visible staleness
    /// the paper measures). Scaled per node by `2 − relay_quality`;
    /// `0.0` disables laziness.
    pub fetch_delay_mean_ms: f64,
    /// Probability that any message is lost.
    pub failure_rate: f64,
    /// Target seconds between blocks at full hash rate.
    pub block_interval_secs: f64,
    /// Fraction of nodes that never update ("forever behind").
    pub zombie_fraction: f64,
    /// Seconds between churn ticks.
    pub churn_period_secs: u64,
    /// Per-tick probability scale for a node to drop offline (multiplied
    /// by `1 − uptime_index`).
    pub churn_off_scale: f64,
    /// Per-tick probability for an offline node to come back.
    pub churn_on_prob: f64,
    /// Blocks below `network_best − finalization_depth` are considered
    /// final: their relay bookkeeping (per-node `seen_invs`, the global
    /// block→tx map) is pruned on churn ticks so long simulations run in
    /// bounded memory. Must exceed any reorg depth the scenario can
    /// produce; `0` disables pruning.
    pub finalization_depth: u64,
}

impl NetConfig {
    /// The measurement network behind Figure 6 and Table V. Which of the
    /// paper's temporal shape these defaults meet, and the values they
    /// give at paper scale, is checked and printed by the shape gate
    /// (`cargo test --release --test shape -- --ignored --nocapture`).
    pub fn paper() -> Self {
        Self {
            seed: 0xB17C017,
            sampling: SamplingMode::PartialShuffle,
            out_degree: 8,
            relay_mode: RelayMode::Diffusion,
            diffusion_mean_ms: 6_000.0,
            min_latency_ms: 30,
            block_transfer_ms: 400,
            fetch_delay_mean_ms: 150_000.0,
            failure_rate: 0.10,
            block_interval_secs: 600.0,
            zombie_fraction: 0.10,
            churn_period_secs: 60,
            churn_off_scale: 0.03,
            churn_on_prob: 0.25,
            finalization_depth: 100,
        }
    }

    /// Fast propagation, no loss — for unit tests that need determinism.
    pub fn fast_test() -> Self {
        Self {
            seed: 7,
            sampling: SamplingMode::PartialShuffle,
            out_degree: 8,
            relay_mode: RelayMode::Diffusion,
            diffusion_mean_ms: 200.0,
            min_latency_ms: 5,
            block_transfer_ms: 20,
            fetch_delay_mean_ms: 0.0,
            failure_rate: 0.0,
            block_interval_secs: 600.0,
            zombie_fraction: 0.0,
            churn_period_secs: 60,
            churn_off_scale: 0.0,
            churn_on_prob: 1.0,
            finalization_depth: 100,
        }
    }

    /// Checks every parameter for the ranges the simulation assumes.
    ///
    /// Out-of-range values used to misbehave silently — most nastily,
    /// `zombie_fraction > 1` made zombie sampling loop forever, and a
    /// probability outside `[0, 1]` skewed the loss/churn models without
    /// any error. [`Simulation::new`] calls this and panics on `Err`.
    pub fn validate(&self) -> Result<(), String> {
        fn probability(name: &str, v: f64) -> Result<(), String> {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability in [0, 1], got {v}"));
            }
            Ok(())
        }
        probability("failure_rate", self.failure_rate)?;
        probability("zombie_fraction", self.zombie_fraction)?;
        probability("churn_on_prob", self.churn_on_prob)?;
        if !self.churn_off_scale.is_finite() || self.churn_off_scale < 0.0 {
            return Err(format!(
                "churn_off_scale must be finite and >= 0, got {}",
                self.churn_off_scale
            ));
        }
        if self.out_degree == 0 {
            return Err("out_degree must be >= 1".to_string());
        }
        if !self.diffusion_mean_ms.is_finite() || self.diffusion_mean_ms <= 0.0 {
            return Err(format!(
                "diffusion_mean_ms must be finite and > 0, got {}",
                self.diffusion_mean_ms
            ));
        }
        if !self.fetch_delay_mean_ms.is_finite() || self.fetch_delay_mean_ms < 0.0 {
            return Err(format!(
                "fetch_delay_mean_ms must be finite and >= 0, got {}",
                self.fetch_delay_mean_ms
            ));
        }
        if !self.block_interval_secs.is_finite() || self.block_interval_secs <= 0.0 {
            return Err(format!(
                "block_interval_secs must be finite and > 0, got {}",
                self.block_interval_secs
            ));
        }
        if self.churn_period_secs == 0 {
            return Err("churn_period_secs must be >= 1".to_string());
        }
        Ok(())
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Events carry blocks by *dense* index (see [`BlockIndex`]): a `u32`
/// instead of a 32-byte hash, so the queue moves less memory and every
/// receiver-side membership check is a vector probe.
#[derive(Debug, Clone)]
enum NetEvent {
    Inv {
        from: u32,
        to: u32,
        block: u32,
    },
    GetData {
        from: u32,
        to: u32,
        block: u32,
        retries: u8,
    },
    Block {
        from: u32,
        to: u32,
        block: u32,
        forced: bool,
    },
    /// A relayed transaction (transactions are small; inv/getdata is
    /// collapsed into a single delivery).
    Tx {
        from: u32,
        to: u32,
        tx: u64,
    },
    Mine,
    Churn,
}

/// Per-node simulation state as a struct of arrays.
///
/// The former `Vec<SimNode>` interleaved every node's hot scalars with
/// its cold collections (hash maps, peer vectors), so a million-node
/// population meant a million scattered allocations and a cache line of
/// padding per field touched. Here each field is one flat vector indexed
/// by sim node id, the adjacency is a CSR (`peer_start`/`peer_edges`)
/// over one shared edge array, and the two per-node block sets share
/// generation-stamped [`DenseSetPool`] matrices instead of a heap
/// allocation per node.
#[derive(Debug)]
struct NodeArena {
    /// CSR offsets: peers of node `i` are
    /// `peer_edges[peer_start[i] .. peer_start[i + 1]]`, sorted.
    peer_start: Vec<u32>,
    /// Flattened union of in- and out-edges for all nodes.
    peer_edges: Vec<u32>,
    views: Vec<NodeView>,
    online: Vec<bool>,
    zombie: Vec<bool>,
    relay_quality: Vec<f64>,
    link_factor: Vec<f64>,
    /// Mean lazy-fetch delay per node (ms).
    fetch_mean_ms: Vec<f64>,
    /// Blocks (by dense index) with an outstanding fetch, per node.
    requested: DenseSetPool,
    /// Blocks (by dense index) whose announcements each node has already
    /// forwarded.
    seen_invs: DenseSetPool,
    /// Unconfirmed transactions each node holds.
    mempool: Vec<FxHashSet<u64>>,
    /// First-seen conflict rule: which tx claims each conflict group.
    claimed_groups: Vec<FxHashMap<u64, u64>>,
}

impl NodeArena {
    fn len(&self) -> usize {
        self.online.len()
    }

    #[inline]
    fn peers(&self, node: u32) -> &[u32] {
        &self.peer_edges[self.row(node)]
    }

    /// The range of `peer_edges` holding `node`'s peers.
    #[inline]
    fn row(&self, node: u32) -> std::ops::Range<usize> {
        self.peer_start[node as usize] as usize..self.peer_start[node as usize + 1] as usize
    }
}

/// Peer selection: `out_degree` outbound per node, uniform over the
/// population; the adjacency used for relay is the union of in- and
/// out-edges, as in Bitcoin. Each node's picks reject self and
/// duplicates by linear scan over its ≤ `out_degree` already-chosen
/// slots (no hashing, no per-node allocation), and the in/out union is a
/// counting-sort CSR build plus one per-row sort/dedup compaction pass.
/// Returns sorted CSR rows.
fn adjacency_by_partial_shuffle(
    n: usize,
    out_degree: usize,
    rng: &mut StdRng,
) -> (Vec<u32>, Vec<u32>) {
    let deg = out_degree.min(n - 1);
    let mut out_edges = vec![0u32; n * deg];
    for i in 0..n {
        let row = &mut out_edges[i * deg..(i + 1) * deg];
        let mut filled = 0;
        while filled < deg {
            let peer = rng.random_range(0..n) as u32;
            if peer as usize == i || row[..filled].contains(&peer) {
                continue;
            }
            row[filled] = peer;
            filled += 1;
        }
    }
    // Raw row sizes: the node's own picks plus every pick that chose it.
    let mut row_len = vec![deg as u32; n];
    for &p in &out_edges {
        row_len[p as usize] += 1;
    }
    let mut start = vec![0u32; n + 1];
    for i in 0..n {
        start[i + 1] = start[i]
            .checked_add(row_len[i])
            .expect("edge count fits u32");
    }
    let mut raw = vec![0u32; start[n] as usize];
    let mut cursor: Vec<u32> = start[..n].to_vec();
    for i in 0..n {
        for k in 0..deg {
            let p = out_edges[i * deg + k];
            raw[cursor[i] as usize] = p;
            cursor[i] += 1;
            raw[cursor[p as usize] as usize] = i as u32;
            cursor[p as usize] += 1;
        }
    }
    // Sort each row and compact duplicates in place (`write` never
    // overtakes the read cursor — dedup only shrinks).
    let mut peer_start = vec![0u32; n + 1];
    let mut write = 0usize;
    for i in 0..n {
        let (lo, hi) = (start[i] as usize, start[i + 1] as usize);
        raw[lo..hi].sort_unstable();
        let mut prev = u32::MAX;
        for k in lo..hi {
            let v = raw[k];
            if v != prev {
                raw[write] = v;
                write += 1;
                prev = v;
            }
        }
        peer_start[i + 1] = write as u32;
    }
    raw.truncate(write);
    raw.shrink_to_fit();
    (peer_start, raw)
}

/// Aggregate fork statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkStats {
    /// Total node-level reorg events.
    pub reorgs: u64,
    /// Deepest node-level reorg observed.
    pub max_depth: u64,
    /// Blocks mined in total (honest + counterfeit).
    pub blocks_mined: u64,
    /// Blocks that were mined on a stale parent (visible forks).
    pub stale_forks: u64,
}

/// Aggregate message-traffic statistics — the bandwidth side of the
/// relay-discipline trade-off (trickle saves announcements, diffusion
/// saves latency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Block announcements delivered.
    pub invs: u64,
    /// Block requests delivered.
    pub getdatas: u64,
    /// Block payloads delivered.
    pub blocks: u64,
    /// Transactions delivered.
    pub txs: u64,
    /// Messages lost to the failure model.
    pub lost: u64,
    /// Messages dropped at a partition boundary.
    pub blocked: u64,
}

impl TrafficStats {
    /// Total messages delivered (excluding lost/blocked).
    pub fn delivered(&self) -> u64 {
        self.invs + self.getdatas + self.blocks + self.txs
    }

    /// A crude bandwidth proxy in bytes, using typical Bitcoin message
    /// sizes (inv ≈ 61 B, getdata ≈ 61 B, block ≈ 1 MB, tx ≈ 400 B).
    pub fn bytes_proxy(&self) -> u64 {
        self.invs * 61 + self.getdatas * 61 + self.blocks * 1_000_000 + self.txs * 400
    }
}

/// Bucket bounds for the reorg-depth histogram (blocks).
pub const REORG_DEPTH_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32];

/// Names of the inv-elision rules, in [`SimMetrics::invs_elided`] order:
/// the recipient is a zombie; it already knows the block; it has already
/// forwarded and requested the block, and the delivery lands before the
/// next churn tick.
pub const ELISION_RULES: [&str; 3] = ["zombie", "known", "requested"];

/// Hot-path observability counters, kept as plain integers so recording
/// costs one add and never touches the RNG stream — simulation results
/// are bit-identical whether or not anyone exports these.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// `Inv` events popped from the queue.
    pub events_inv: u64,
    /// `GetData` events popped from the queue.
    pub events_getdata: u64,
    /// `Block` events popped from the queue.
    pub events_block: u64,
    /// `Tx` events popped from the queue.
    pub events_tx: u64,
    /// `Mine` events popped from the queue.
    pub events_mine: u64,
    /// `Churn` events popped from the queue.
    pub events_churn: u64,
    /// High-water mark of the event-queue depth.
    pub queue_depth_hwm: usize,
    /// Calls to the announcement fan-out.
    pub announce_calls: u64,
    /// `inv` messages put in the queue (announcement fan-out and churn
    /// resync).
    pub invs_scheduled: u64,
    /// `inv` messages not put in the queue because their delivery could
    /// not change any node, by rule (see [`ELISION_RULES`]).
    pub invs_elided: [u64; 3],
    /// Distribution of node-level reorg depths.
    pub reorg_depth: bp_obs::Histogram,
    /// `seen_invs` entries retired when their node accepted the block
    /// (the entry is dead from that point — relay dedup only consults
    /// `seen_invs` for unknown blocks) plus entries dropped by the
    /// finalization sweep. Zero when `finalization_depth = 0`.
    pub pruned_seen_invs: u64,
    /// Outstanding `requested` entries (in-flight or lost getdatas)
    /// abandoned at churn ticks or dropped by the finalization sweep.
    pub pruned_requested: u64,
    /// Block→tx map entries dropped by finalization pruning.
    pub pruned_block_txs: u64,
}

impl Default for SimMetrics {
    fn default() -> Self {
        Self {
            events_inv: 0,
            events_getdata: 0,
            events_block: 0,
            events_tx: 0,
            events_mine: 0,
            events_churn: 0,
            queue_depth_hwm: 0,
            announce_calls: 0,
            invs_scheduled: 0,
            invs_elided: [0; 3],
            reorg_depth: bp_obs::Histogram::with_bounds(REORG_DEPTH_BOUNDS),
            pruned_seen_invs: 0,
            pruned_requested: 0,
            pruned_block_txs: 0,
        }
    }
}

/// The network simulation.
///
/// # Examples
///
/// ```
/// use bp_mining::PoolCensus;
/// use bp_net::{NetConfig, Simulation};
/// use bp_topology::{Snapshot, SnapshotConfig};
///
/// let snapshot = Snapshot::generate(SnapshotConfig::test_small());
/// let mut sim = Simulation::new(
///     &snapshot, &PoolCensus::paper_table_iv(), NetConfig::fast_test(),
/// );
/// sim.run_for_secs(1800);
/// assert_eq!(sim.now().as_secs(), 1800);
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: NetConfig,
    queue: EventQueue<NetEvent>,
    /// Setup, mining arrivals and churn draw from this stream in order.
    rng: StdRng,
    /// Every draw on a message's path is keyed by the message instead.
    keyed: Keyed,
    /// Time (ms) of the pending churn tick: the only event besides a
    /// block's acceptance that clears `requested` or `seen_invs`.
    next_churn_ms: u64,
    index: BlockIndex,
    arena: NodeArena,
    /// Pool gateway node per mining entity.
    gateways: Vec<u32>,
    /// Per-node gateway bit (`gateway_flags[i]` ⇔ `gateways` contains `i`),
    /// so the per-victim `is_gateway` check is O(1) instead of O(pools).
    gateway_flags: Vec<bool>,
    arrivals: ArrivalProcess,
    /// Partition group per node; messages across groups are dropped.
    groups: Vec<u32>,
    partitioned: bool,
    /// Highest honestly-mined height.
    network_best: Height,
    stats: ForkStats,
    traffic: TrafficStats,
    mining_paused: bool,
    /// Topology node id of each sim participant (sim index → NodeId).
    participant_ids: Vec<NodeId>,
    /// Transaction registry: txid → conflict group.
    tx_groups: FxHashMap<u64, u64>,
    /// Transactions included per mined block, keyed by dense index.
    block_txs: FxHashMap<u32, Vec<u64>>,
    /// Transactions on the canonical chain, maintained incrementally as
    /// the canonical tip advances or reorganises (survives pruning of
    /// `block_txs`, and makes `tx_confirmed` O(1) instead of a chain walk).
    confirmed_txs: FxHashSet<u64>,
    /// Canonical (honest best) tip for reversal accounting.
    canonical_tip: BlockId,
    /// Dense index of `canonical_tip`.
    canonical_dense: u32,
    /// Heights strictly below this watermark have already been swept by
    /// finalization pruning (the sweep is skipped until the horizon
    /// advances past it).
    pruned_below: u64,
    /// Reused buffer for a trickle announcement's shuffled peer order.
    announce_scratch: Vec<u32>,
    /// User transactions reversed by canonical-chain reorgs.
    reversed_txs: u64,
    /// Node-level reversal events: a (node, transaction) pair where the
    /// node had the transaction confirmed and a reorg removed it.
    node_reversals: u64,
    /// Double-spend relays rejected by the first-seen rule.
    conflicts_rejected: u64,
    /// Next transaction id.
    next_txid: u64,
    /// Hot-path observability counters (always on; exported on demand).
    metrics: SimMetrics,
    /// Optional flight recorder (see [`bp_obs::trace`]). `None` by
    /// default; installing one never perturbs simulation results — every
    /// record derives from values the simulation already computed.
    tracer: Option<Box<Tracer>>,
    /// Schedules every inv, so tests can check that elision is
    /// unobservable.
    #[cfg(test)]
    elision_off: bool,
}

impl Simulation {
    /// Builds a simulation over a snapshot and pool census.
    ///
    /// Only nodes that are up in the snapshot participate; the paper's
    /// 16.5 % down nodes are invisible to the network.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`NetConfig::validate`] or fewer than
    /// two nodes are up. With `out_degree` or fewer up, each node picks
    /// every other node as a peer.
    pub fn new(snapshot: &Snapshot, census: &PoolCensus, config: NetConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid NetConfig: {e}"));
        let mut rng = StdRng::seed_from_u64(config.seed);
        let index = BlockIndex::new();

        let participants: Vec<&bp_topology::NodeProfile> =
            snapshot.nodes.iter().filter(|n| n.is_up).collect();
        let participant_ids: Vec<NodeId> = participants.iter().map(|p| p.id).collect();
        assert!(participants.len() > 1, "need at least two live nodes");
        let n = participants.len();

        // Profile-derived scalars — no RNG, straight into flat arrays.
        let relay_quality: Vec<f64> = participants.iter().map(|p| p.relay_quality()).collect();
        let link_factor: Vec<f64> = participants
            .iter()
            .map(|p| (p.link_speed_mbps / 25.0).clamp(0.2, 5.0))
            .collect();
        let mut fetch_mean_ms: Vec<f64> = relay_quality
            .iter()
            .map(|&q| config.fetch_delay_mean_ms * (2.0 - q))
            .collect();

        // Zombies: sampled uniformly; they receive but never fetch. One
        // draw per zombie: shuffle a prefix of the identity permutation
        // and mark it.
        let zombie_count = (n as f64 * config.zombie_fraction).round() as usize;
        let mut zombie = vec![false; n];
        let mut order: Vec<u32> = (0..n as u32).collect();
        for k in 0..zombie_count.min(n) {
            let j = rng.random_range(k..n);
            order.swap(k, j);
            zombie[order[k] as usize] = true;
        }
        let (peer_start, peer_edges) = adjacency_by_partial_shuffle(n, config.out_degree, &mut rng);

        // Map each pool to a gateway node inside its primary stratum AS.
        // `participants[i]` corresponds to sim node `i`. Zombies are
        // excluded: a zombie never fetches blocks, so a zombie gateway
        // mined on a view frozen at genesis forever — the contradiction
        // of a node that "never fetches" yet enjoys the pools'
        // zero-delay fetch infrastructure.
        let arrivals = ArrivalProcess::from_census(census);
        let all_zombies = zombie_count >= n;
        let gateways: Vec<u32> = census
            .pools()
            .iter()
            .map(|pool| {
                let asn = pool.stratum[0].asn;
                (0..n)
                    .find(|&i| participants[i].asn == asn && (all_zombies || !zombie[i]))
                    .unwrap_or_else(|| loop {
                        let g = rng.random_range(0..n);
                        if all_zombies || !zombie[g] {
                            break g;
                        }
                    }) as u32
            })
            .collect();

        let mut gateway_flags = vec![false; n];
        for &g in &gateways {
            gateway_flags[g as usize] = true;
        }

        let genesis_tip = index.genesis();
        // Mining pools run dedicated relay infrastructure (the paper's
        // §V-D Falcon discussion): their gateway nodes fetch and process
        // blocks without the lazy delay ordinary nodes exhibit, so the
        // honest chain grows at the full hash rate rather than being
        // dragged by stale-parent mining.
        for &g in &gateways {
            fetch_mean_ms[g as usize] = 0.0;
        }

        let arena = NodeArena {
            peer_start,
            peer_edges,
            views: (0..n).map(|_| NodeView::new(&index)).collect(),
            online: vec![true; n],
            zombie,
            relay_quality,
            link_factor,
            fetch_mean_ms,
            requested: DenseSetPool::new(n),
            seen_invs: DenseSetPool::new(n),
            mempool: vec![FxHashSet::default(); n],
            claimed_groups: vec![FxHashMap::default(); n],
        };

        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, NetEvent::Churn);
        let groups = vec![0u32; n];
        let keyed = Keyed::new(config.seed);
        let mut sim = Self {
            config,
            queue,
            rng,
            keyed,
            next_churn_ms: 0,
            index,
            arena,
            gateways,
            gateway_flags,
            arrivals,
            groups,
            partitioned: false,
            network_best: Height::GENESIS,
            stats: ForkStats::default(),
            traffic: TrafficStats::default(),
            mining_paused: false,
            participant_ids,
            tx_groups: FxHashMap::default(),
            block_txs: FxHashMap::default(),
            confirmed_txs: FxHashSet::default(),
            canonical_tip: genesis_tip,
            canonical_dense: 0,
            pruned_below: 0,
            announce_scratch: Vec::new(),
            reversed_txs: 0,
            node_reversals: 0,
            conflicts_rejected: 0,
            next_txid: 1,
            metrics: SimMetrics::default(),
            tracer: None,
            #[cfg(test)]
            elision_off: false,
        };
        sim.schedule_next_mine();
        sim
    }

    /// Number of participating (up) nodes.
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// The topology [`NodeId`] behind sim participant `node` — use this to
    /// join simulation state with snapshot attributes (AS, organization).
    pub fn topology_id(&self, node: u32) -> NodeId {
        self.participant_ids[node as usize]
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The shared block index.
    pub fn index(&self) -> &BlockIndex {
        &self.index
    }

    /// Highest honestly-mined height (the "main chain" the crawler
    /// compares against).
    pub fn network_best(&self) -> Height {
        self.network_best
    }

    /// Fork statistics so far.
    pub fn stats(&self) -> ForkStats {
        self.stats
    }

    /// Message-traffic statistics so far.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Per-node lag behind the network best, in blocks.
    pub fn lags(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.lags_into(&mut out);
        out
    }

    /// Writes per-node lags into `out` (cleared first) — the
    /// allocation-free form of [`Simulation::lags`] for samplers that
    /// poll in a tight loop (the crawler reuses one buffer across
    /// thousands of samples).
    pub fn lags_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.arena.views.iter().map(|v| v.lag(self.network_best)));
    }

    /// A node's current tip.
    pub fn tip_of(&self, node: u32) -> BlockId {
        self.arena.views[node as usize].best_tip()
    }

    /// A node's current height.
    pub fn height_of(&self, node: u32) -> Height {
        self.arena.views[node as usize].best_height()
    }

    /// Sim-seconds timestamp of a node's tip (BlockAware input).
    pub fn tip_found_secs(&self, node: u32) -> u64 {
        self.arena.views[node as usize].best_found_secs()
    }

    /// Whether a node currently follows a counterfeit (adversary) chain.
    pub fn follows_counterfeit(&self, node: u32) -> bool {
        self.index
            .meta_at(self.arena.views[node as usize].best_dense())
            .counterfeit
    }

    /// Whether a node is online right now.
    pub fn is_online(&self, node: u32) -> bool {
        self.arena.online[node as usize]
    }

    /// Whether a node is a zombie (never fetches blocks).
    pub fn is_zombie(&self, node: u32) -> bool {
        self.arena.zombie[node as usize]
    }

    /// Whether a node is a mining-pool gateway (the stratum-side node a
    /// pool mines through).
    pub fn is_gateway(&self, node: u32) -> bool {
        self.gateway_flags[node as usize]
    }

    /// Peers of a node.
    pub fn peers_of(&self, node: u32) -> &[u32] {
        self.arena.peers(node)
    }

    /// Submits a transaction at `origin`, tagged with a conflict group:
    /// two transactions sharing a group spend the same coin, so
    /// first-seen-wins relay rejects the later one (the double-spend
    /// protection the paper's partitions subvert). Returns the txid, or
    /// `None` if the origin has already pooled or confirmed a spend of
    /// that coin.
    pub fn submit_tx(&mut self, origin: u32, conflict_group: u64) -> Option<u64> {
        if self.arena.claimed_groups[origin as usize].contains_key(&conflict_group) {
            return None;
        }
        let txid = self.next_txid;
        self.next_txid += 1;
        self.tx_groups.insert(txid, conflict_group);
        self.arena.mempool[origin as usize].insert(txid);
        self.arena.claimed_groups[origin as usize].insert(conflict_group, txid);
        self.relay_tx(origin, txid);
        Some(txid)
    }

    /// Whether a node's mempool holds the transaction.
    pub fn tx_in_mempool(&self, node: u32, txid: u64) -> bool {
        self.arena.mempool[node as usize].contains(&txid)
    }

    /// Whether a transaction is confirmed on the canonical chain.
    pub fn tx_confirmed(&self, txid: u64) -> bool {
        self.confirmed_txs.contains(&txid)
    }

    /// Reference implementation of [`Simulation::tx_confirmed`]: walks the
    /// whole canonical chain scanning each block's transaction list. Kept
    /// to validate the incremental confirmed-set bookkeeping (tests assert
    /// the two agree); only meaningful while `block_txs` is unpruned, i.e.
    /// with `finalization_depth = 0` or chains shorter than the depth.
    pub fn tx_confirmed_by_walk(&self, txid: u64) -> bool {
        let mut cur = *self.index.meta_at(self.canonical_dense);
        loop {
            if let Some(txs) = self.block_txs.get(&cur.dense) {
                if txs.contains(&txid) {
                    return true;
                }
            }
            if cur.prev_dense == NO_BLOCK {
                return false;
            }
            cur = *self.index.meta_at(cur.prev_dense);
        }
    }

    /// Relay-bookkeeping footprint, for memory-bound assertions:
    /// `(total seen_invs entries across nodes, block→tx map entries)`.
    pub fn relay_state_footprint(&self) -> (usize, usize) {
        (self.arena.seen_invs.total_len(), self.block_txs.len())
    }

    /// Hot-path observability counters collected so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Event-queue counters so far (the throughput bench reads
    /// `scheduled` as its events figure).
    pub fn queue_stats(&self) -> crate::engine::QueueStats {
        self.queue.stats()
    }

    /// Exports counters, traffic and fork statistics into a metrics
    /// registry under `prefix` (e.g. `net.day`). Read-only: recording
    /// into the registry cannot perturb the simulation.
    pub fn export_metrics(&self, reg: &bp_obs::Registry, prefix: &str) {
        let m = &self.metrics;
        reg.add(&format!("{prefix}.events.inv"), m.events_inv);
        reg.add(&format!("{prefix}.events.getdata"), m.events_getdata);
        reg.add(&format!("{prefix}.events.block"), m.events_block);
        reg.add(&format!("{prefix}.events.tx"), m.events_tx);
        reg.add(&format!("{prefix}.events.mine"), m.events_mine);
        reg.add(&format!("{prefix}.events.churn"), m.events_churn);
        reg.max_gauge(
            &format!("{prefix}.queue.depth_hwm"),
            m.queue_depth_hwm as f64,
        );
        let q = self.queue.stats();
        reg.add(&format!("{prefix}.queue.scheduled"), q.scheduled);
        reg.add(&format!("{prefix}.queue.wheel"), q.wheel);
        reg.add(&format!("{prefix}.queue.late"), q.late);
        reg.add(&format!("{prefix}.queue.overflow"), q.overflow);
        reg.add(&format!("{prefix}.queue.cascaded"), q.cascaded);
        reg.add(&format!("{prefix}.relay.announce_calls"), m.announce_calls);
        reg.add(&format!("{prefix}.relay.invs_scheduled"), m.invs_scheduled);
        for (rule, n) in ELISION_RULES.iter().zip(m.invs_elided) {
            reg.add(&format!("{prefix}.relay.invs_elided.{rule}"), n);
        }
        reg.merge_histogram(&format!("{prefix}.reorg.depth"), &m.reorg_depth);
        reg.add(&format!("{prefix}.prune.seen_invs"), m.pruned_seen_invs);
        reg.add(&format!("{prefix}.prune.requested"), m.pruned_requested);
        reg.add(&format!("{prefix}.prune.block_txs"), m.pruned_block_txs);
        let t = &self.traffic;
        reg.add(&format!("{prefix}.traffic.invs"), t.invs);
        reg.add(&format!("{prefix}.traffic.getdatas"), t.getdatas);
        reg.add(&format!("{prefix}.traffic.blocks"), t.blocks);
        reg.add(&format!("{prefix}.traffic.txs"), t.txs);
        reg.add(&format!("{prefix}.traffic.lost"), t.lost);
        reg.add(&format!("{prefix}.traffic.blocked"), t.blocked);
        let s = &self.stats;
        reg.add(&format!("{prefix}.forks.reorgs"), s.reorgs);
        reg.add(&format!("{prefix}.forks.blocks_mined"), s.blocks_mined);
        reg.add(&format!("{prefix}.forks.stale"), s.stale_forks);
        reg.max_gauge(&format!("{prefix}.forks.max_depth"), s.max_depth as f64);
        reg.add(
            &format!("{prefix}.tx.confirmed"),
            self.confirmed_txs.len() as u64,
        );
        reg.add(&format!("{prefix}.tx.reversed"), self.reversed_txs);
        reg.add(&format!("{prefix}.tx.node_reversals"), self.node_reversals);
        reg.add(
            &format!("{prefix}.tx.conflicts_rejected"),
            self.conflicts_rejected,
        );
    }

    /// Installs a flight recorder. Like the metrics registry, the
    /// recorder is write-only from the simulation's point of view:
    /// emission never touches the RNG or the event queue, so traced and
    /// untraced runs produce bit-identical results.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Removes and returns the installed flight recorder, if any.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take().map(|b| *b)
    }

    /// The installed flight recorder, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Records one trace event at the current simulation time. No-op
    /// without an installed tracer.
    #[inline]
    fn trace(&mut self, kind: TraceKind, node: u32, a: u64, b: u64) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(kind, self.queue.now().0, node, a, b);
        }
    }

    /// Records a crawler sample tick into the flight recorder: total node
    /// count, how many are synced to the network best, and the network
    /// best height. Called by `bp-crawler` on every sample so the trace
    /// alone can reconstruct the published lag series.
    pub fn trace_crawl_sample(&mut self, synced: u64) {
        let nodes = self.arena.len() as u32;
        let best = self.network_best.0;
        self.trace(TraceKind::CrawlSample, nodes, synced, best);
    }

    /// Records one node→AS join into the flight recorder (no-op without
    /// a tracer). Emitted once per node right after a tracer is
    /// installed, so the trace alone carries the crawler's AS slot index
    /// and per-AS consumers (`trace timeline --by-as`, `bp-detect`) need
    /// no out-of-band sidecar.
    pub fn trace_node_as(&mut self, node: u32, asn: u64, slot: u64) {
        self.trace(TraceKind::NodeAs, node, asn, slot);
    }

    /// User transactions reversed by canonical-chain reorgs so far —
    /// the paper's "all transactions belonging to legitimate users in
    /// those blocks will also be reversed".
    pub fn reversed_tx_total(&self) -> u64 {
        self.reversed_txs
    }

    /// Double-spend relays rejected by the first-seen rule so far.
    pub fn conflicts_rejected_total(&self) -> u64 {
        self.conflicts_rejected
    }

    /// Node-level reversal events: how many times some node saw a
    /// transaction it had confirmed disappear in a reorg — each event is
    /// a potential double-spend victim (the merchant of Figure 5).
    pub fn node_reversals_total(&self) -> u64 {
        self.node_reversals
    }

    /// Transactions confirmed on the old branch that are absent from the
    /// new branch, for a reorg from `old_tip` to `new_tip` (dense
    /// indices).
    fn count_reversed(&self, old_tip: u32, new_tip: u32) -> u64 {
        let Some(new_branch) = self.index.ancestry(&self.index.meta_at(new_tip).id) else {
            return 0;
        };
        let new_ids: FxHashSet<u32> = new_branch.iter().map(|m| m.dense).collect();
        let new_txs: FxHashSet<u64> = new_branch
            .iter()
            .filter_map(|m| self.block_txs.get(&m.dense))
            .flatten()
            .copied()
            .collect();
        let mut reversed = 0u64;
        let mut cur = *self.index.meta_at(old_tip);
        while !new_ids.contains(&cur.dense) {
            if let Some(txs) = self.block_txs.get(&cur.dense) {
                reversed += txs.iter().filter(|t| !new_txs.contains(t)).count() as u64;
            }
            if cur.prev_dense == NO_BLOCK {
                break;
            }
            cur = *self.index.meta_at(cur.prev_dense);
        }
        reversed
    }

    /// Imposes a partition: nodes mapped to different groups can no longer
    /// exchange messages (models a BGP-level cut).
    pub fn set_partition<F: Fn(u32) -> u32>(&mut self, assign: F) {
        for (i, g) in self.groups.iter_mut().enumerate() {
            *g = assign(i as u32);
        }
        self.partitioned = true;
        if self.tracer.is_some() {
            // `a` = distinct groups, `b` = largest group size — enough
            // for a trace consumer to judge how lopsided the cut is.
            let mut sizes: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
            for &g in &self.groups {
                *sizes.entry(g).or_insert(0) += 1;
            }
            let distinct = sizes.len() as u64;
            let largest = sizes.values().copied().max().unwrap_or(0);
            self.trace(TraceKind::PartitionApply, u32::MAX, distinct, largest);
        }
    }

    /// Lifts the partition.
    pub fn clear_partition(&mut self) {
        for g in &mut self.groups {
            *g = 0;
        }
        self.partitioned = false;
        self.trace(TraceKind::PartitionHeal, u32::MAX, 0, 0);
    }

    /// Pauses/resumes honest mining (used by attack scenarios that drive
    /// block production manually).
    pub fn set_mining_paused(&mut self, paused: bool) {
        self.mining_paused = paused;
    }

    /// Scales the honest mining rate by `factor` — models hash power
    /// diverted by a hijack (the captured share mines for the attacker
    /// instead).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and strictly positive.
    pub fn scale_hash_rate(&mut self, factor: f64) {
        self.arrivals = self.arrivals.scaled(factor);
    }

    /// Mines a counterfeit block on `parent` (the temporal attacker's
    /// block factory). Returns the new block id. The block is *not*
    /// announced; use [`Simulation::push_chain`] to feed it to victims.
    pub fn mine_counterfeit(&mut self, parent: BlockId) -> BlockId {
        let meta = self
            .index
            .mine(parent, self.queue.now(), ADVERSARY_PRODUCER, true);
        self.stats.blocks_mined += 1;
        meta.id
    }

    /// Pushes a whole chain ending at `tip` to a node, oldest block first,
    /// so the victim can connect every block without fetching parents.
    ///
    /// # Panics
    ///
    /// Panics if `tip` is unknown to the index.
    pub fn push_chain(&mut self, to: u32, tip: BlockId) {
        let ancestry = self
            .index
            .ancestry(&tip)
            .expect("tip must exist in the index");
        for (i, meta) in ancestry.iter().rev().enumerate() {
            let delay = self.config.min_latency_ms + 20 + i as u64;
            self.queue.schedule_in(
                delay,
                NetEvent::Block {
                    from: u32::MAX,
                    to,
                    block: meta.dense,
                    forced: true,
                },
            );
        }
    }

    /// Runs the simulation until `deadline` (inclusive). The clock ends
    /// exactly at `deadline` even when no event lands on it.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            self.metrics.queue_depth_hwm = self.metrics.queue_depth_hwm.max(self.queue.len());
            let (_, event) = self.queue.pop().expect("peeked event exists");
            self.handle(event);
        }
        self.queue.advance_to(deadline);
    }

    /// Runs for `secs` simulated seconds.
    ///
    /// # Panics
    ///
    /// Panics if the deadline would overflow the `u64` millisecond clock
    /// (`now + secs × 1000`) — failing fast instead of silently wrapping
    /// the deadline into the past and running nothing.
    pub fn run_for_secs(&mut self, secs: u64) {
        let deadline = secs
            .checked_mul(1000)
            .and_then(|ms| self.queue.now().0.checked_add(ms))
            .unwrap_or_else(|| panic!("run_for_secs({secs}) overflows the u64 millisecond clock"));
        self.run_until(SimTime(deadline));
    }

    // ---- internals --------------------------------------------------------

    fn schedule_next_mine(&mut self) {
        let (dt_secs, _) = self.arrivals.next_block(&mut self.rng);
        // Round, don't truncate: truncation shaved up to 1 ms off every
        // inter-block gap, biasing the mining process slightly fast.
        self.queue
            .schedule_in((dt_secs * 1000.0).round() as u64, NetEvent::Mine);
    }

    fn handle(&mut self, event: NetEvent) {
        match &event {
            NetEvent::Inv { .. } => self.metrics.events_inv += 1,
            NetEvent::GetData { .. } => self.metrics.events_getdata += 1,
            NetEvent::Block { .. } => self.metrics.events_block += 1,
            NetEvent::Tx { .. } => self.metrics.events_tx += 1,
            NetEvent::Mine => self.metrics.events_mine += 1,
            NetEvent::Churn => self.metrics.events_churn += 1,
        }
        match event {
            NetEvent::Tx { from, to, tx } => self.handle_tx(from, to, tx),
            NetEvent::Mine => self.handle_mine(),
            NetEvent::Churn => self.handle_churn(),
            NetEvent::Inv { from, to, block } => self.handle_inv(from, to, block),
            NetEvent::GetData {
                from,
                to,
                block,
                retries,
            } => self.handle_getdata(from, to, block, retries),
            NetEvent::Block {
                from,
                to,
                block,
                forced,
            } => self.handle_block(from, to, block, forced),
        }
    }

    fn blocked(&self, from: u32, to: u32) -> bool {
        if !self.partitioned || from == u32::MAX {
            return false;
        }
        self.groups[from as usize] != self.groups[to as usize]
    }

    fn handle_mine(&mut self) {
        if !self.mining_paused {
            let (_, pool_idx) = self.arrivals.next_block(&mut self.rng);
            let gateway = self.gateways[pool_idx];
            let parent = self.arena.views[gateway as usize].best_tip();
            let meta = self
                .index
                .mine(parent, self.queue.now(), pool_idx as u32, false);
            self.stats.blocks_mined += 1;
            if meta.height.0 <= self.network_best.0 {
                self.stats.stale_forks += 1;
            }
            self.network_best = self.network_best.max(meta.height);
            // The mining gateway confirms its mempool into the block.
            let included: Vec<u64> = {
                let mempool = &mut self.arena.mempool[gateway as usize];
                let txs: Vec<u64> = mempool.iter().copied().take(2_000).collect();
                for tx in &txs {
                    mempool.remove(tx);
                }
                txs
            };
            if !included.is_empty() {
                self.block_txs.insert(meta.dense, included);
            }
            self.trace(TraceKind::Mine, gateway, meta.dense as u64, meta.height.0);
            self.update_canonical(meta);
            self.accept_block(gateway, meta.dense, None);
        }
        self.schedule_next_mine();
    }

    /// Tracks the canonical chain, counts transactions reversed when it
    /// reorganises, and keeps the incremental confirmed-transaction set
    /// in sync (only blocks between the old and new tip are touched, so
    /// the cost is proportional to the tip movement, not chain length).
    fn update_canonical(&mut self, cand: crate::index::BlockMeta) {
        let cur_meta = *self.index.meta_at(self.canonical_dense);
        if cand.height <= cur_meta.height {
            return;
        }
        if self
            .index
            .is_ancestor_dense(self.canonical_dense, cand.dense)
        {
            // Pure advance: confirm everything from the new tip down to
            // (excluding) the old tip.
            let mut cur = cand;
            while cur.dense != self.canonical_dense {
                if let Some(txs) = self.block_txs.get(&cur.dense) {
                    self.confirmed_txs.extend(txs.iter().copied());
                }
                if cur.prev_dense == NO_BLOCK {
                    break;
                }
                cur = *self.index.meta_at(cur.prev_dense);
            }
        } else {
            // Reorg: transactions confirmed on the abandoned branch but
            // absent from the new one are reversed.
            let old_branch = self.index.ancestry(&self.canonical_tip).unwrap_or_default();
            let new_branch = self.index.ancestry(&cand.id).unwrap_or_default();
            let old_ids: FxHashSet<u32> = old_branch.iter().map(|m| m.dense).collect();
            let new_ids: FxHashSet<u32> = new_branch.iter().map(|m| m.dense).collect();
            let new_txs: FxHashSet<u64> = new_branch
                .iter()
                .filter_map(|m| self.block_txs.get(&m.dense))
                .flatten()
                .copied()
                .collect();
            for meta in &old_branch {
                if new_ids.contains(&meta.dense) {
                    break; // common ancestor reached
                }
                if let Some(txs) = self.block_txs.get(&meta.dense) {
                    for t in txs {
                        if !new_txs.contains(t) {
                            self.reversed_txs += 1;
                            self.confirmed_txs.remove(t);
                        }
                    }
                }
            }
            // Confirm the new branch above the common ancestor (ancestry
            // is tip-first).
            for meta in &new_branch {
                if old_ids.contains(&meta.dense) {
                    break;
                }
                if let Some(txs) = self.block_txs.get(&meta.dense) {
                    self.confirmed_txs.extend(txs.iter().copied());
                }
            }
        }
        self.canonical_tip = cand.id;
        self.canonical_dense = cand.dense;
    }

    fn relay_tx(&mut self, from: u32, tx: u64) {
        for &to in self.arena.peers(from) {
            let delay = self.edge_delay(Draw::TxDelay, from, to, tx);
            self.queue.schedule_in(delay, NetEvent::Tx { from, to, tx });
        }
    }

    fn handle_tx(&mut self, from: u32, to: u32, tx: u64) {
        if self.blocked(from, to) {
            self.traffic.blocked += 1;
            return;
        }
        if self.lost(Draw::TxLoss, from, to, tx, self.now().0) {
            self.traffic.lost += 1;
            return;
        }
        self.traffic.txs += 1;
        let group = match self.tx_groups.get(&tx) {
            Some(g) => *g,
            None => return,
        };
        if !self.arena.online[to as usize] || self.arena.zombie[to as usize] {
            return;
        }
        // A claimed coin has been seen: pooled, or confirmed in a block
        // this node accepted. Either way the relay stops here.
        if let Some(&existing) = self.arena.claimed_groups[to as usize].get(&group) {
            if existing != tx {
                // First-seen wins: the double spend is rejected here.
                self.conflicts_rejected += 1;
            }
            return;
        }
        self.arena.mempool[to as usize].insert(tx);
        self.arena.claimed_groups[to as usize].insert(group, tx);
        self.relay_tx(to, tx);
    }

    fn handle_churn(&mut self) {
        let mut went_offline = 0u64;
        let mut came_online = 0u64;
        for i in 0..self.arena.len() {
            // Outstanding fetches are abandoned at each churn tick (the
            // retry budget resets); these are the dropped `requested`
            // entries the prune counters report.
            self.metrics.pruned_requested += self.arena.requested.len_of(i as u32) as u64;
            self.arena.requested.clear(i as u32);
            if self.arena.online[i] {
                let p_off = self.config.churn_off_scale
                    * (1.0 - self.arena.relay_quality[i]).clamp(0.0, 1.0);
                if self.rng.random::<f64>() < p_off {
                    self.arena.online[i] = false;
                    went_offline += 1;
                }
            } else if self.rng.random::<f64>() < self.config.churn_on_prob {
                self.arena.online[i] = true;
                came_online += 1;
                // Resync: a random peer announces its tip to us.
                if let Some(peer) = self.pick_peer(i as u32) {
                    let tip = self.arena.views[peer as usize].best_dense();
                    let at = self.now().0
                        + self.edge_delay(Draw::ResyncDelay, peer, i as u32, tip as u64);
                    self.send_inv(peer, i as u32, tip, at);
                }
            }
        }
        self.trace(TraceKind::Churn, u32::MAX, went_offline, came_online);
        self.prune_finalized();
        self.next_churn_ms = self.now().0 + self.config.churn_period_secs * 1000;
        self.queue
            .schedule(SimTime(self.next_churn_ms), NetEvent::Churn);
    }

    /// Drops relay bookkeeping for blocks buried deeper than the
    /// finalization depth. Entries for blocks a node has *accepted* are
    /// already retired at accept time (see [`Simulation::accept_block`]);
    /// this sweep catches what remains — announcements to nodes that
    /// never fetched (zombies, lost getdatas) — so long simulations run
    /// in bounded state. Nothing below the horizon can be re-announced
    /// or reorged away (assuming `finalization_depth` exceeds the
    /// deepest possible reorg), so dropping the entries cannot change
    /// behaviour. The sweep is skipped until the horizon actually
    /// advances, keeping churn ticks cheap.
    fn prune_finalized(&mut self) {
        let depth = self.config.finalization_depth;
        if depth == 0 || self.network_best.0 <= depth {
            return;
        }
        let horizon = self.network_best.0 - depth;
        if horizon <= self.pruned_below {
            return;
        }
        self.pruned_below = horizon;
        let index = &self.index;
        let metrics = &mut self.metrics;
        let keep = |d: u32| index.meta_at(d).height.0 >= horizon;
        let mut swept = 0u64;
        for i in 0..self.arena.online.len() {
            let node = i as u32;
            if self.arena.seen_invs.len_of(node) > 0 {
                let removed = self.arena.seen_invs.retain(node, keep) as u64;
                metrics.pruned_seen_invs += removed;
                swept += removed;
            }
            if self.arena.requested.len_of(node) > 0 {
                let removed = self.arena.requested.retain(node, keep) as u64;
                metrics.pruned_requested += removed;
                swept += removed;
            }
        }
        let before = self.block_txs.len();
        self.block_txs.retain(|&d, _| keep(d));
        let removed = (before - self.block_txs.len()) as u64;
        metrics.pruned_block_txs += removed;
        swept += removed;
        self.trace(TraceKind::PruneSweep, u32::MAX, horizon, swept);
    }

    /// A peer of `node` drawn from the churn tick's sequential stream.
    fn pick_peer(&mut self, node: u32) -> Option<u32> {
        let peers = self.arena.peers(node);
        if peers.is_empty() {
            None
        } else {
            let k = self.rng.random_range(0..peers.len());
            Some(peers[k])
        }
    }

    /// The peer `node` asks for the missing parent of the orphan `block`
    /// when no sender is known, keyed by the orphan.
    fn orphan_peer(&self, node: u32, block: u32) -> Option<u32> {
        let peers = self.arena.peers(node);
        let n = peers.len() as u64;
        let now = self.now().0;
        (n > 0).then(|| {
            peers[self
                .keyed
                .below(Draw::PickPeer, node, u32::MAX, block as u64, now, n)
                as usize]
        })
    }

    /// Whether the message `(kind, from, to, item)` delivered at `at` ms
    /// is lost.
    #[inline]
    fn lost(&self, kind: Draw, from: u32, to: u32, item: u64, at: u64) -> bool {
        self.config.failure_rate > 0.0
            && self.keyed.unit(kind, from, to, item, at) < self.config.failure_rate
    }

    /// Exponential diffusion delay for message `item` sent now on edge
    /// a→b.
    #[inline]
    fn edge_delay(&self, kind: Draw, a: u32, b: u32, item: u64) -> u64 {
        let qa = self.arena.relay_quality[a as usize];
        let qb = self.arena.relay_quality[b as usize];
        let quality = ((qa + qb) / 2.0).clamp(0.05, 1.0);
        let mean = self.config.diffusion_mean_ms / quality;
        let now = self.now().0;
        self.config.min_latency_ms + self.keyed.exp(kind, a, b, item, now, mean) as u64
    }

    /// Block transfer time on edge a→b, scaled by the receiver's link.
    fn transfer_delay(&self, to: u32) -> u64 {
        let factor = self.arena.link_factor[to as usize];
        self.config.min_latency_ms + (self.config.block_transfer_ms as f64 / factor) as u64
    }

    /// A node accepted a block locally (mined it or validated it):
    /// update its view and announce to peers on success. `source` is the
    /// peer that sent the block, if any — missing ancestors are fetched
    /// from it, since a relaying peer always holds the full ancestry of
    /// what it relays.
    fn accept_block(&mut self, node: u32, block: u32, source: Option<u32>) {
        let old_tip = self.arena.views[node as usize].best_dense();
        let old_height = self.arena.views[node as usize].best_height().0;
        let outcome = self.arena.views[node as usize].offer_dense(&self.index, block);
        // A block parked as an orphan stays requested: fetching it again
        // would only park it again. (This also keeps `send_inv`'s
        // already-requested rule exact.)
        if !matches!(outcome, ViewOutcome::MissingParent(_)) {
            self.arena.requested.remove(node, block);
        }
        // Confirmed transactions leave the mempool, and each now claims
        // its coin here: a pooled spend of the same coin is evicted, so
        // a gateway never mines it on top of the confirmed one.
        if let Some(txs) = self.block_txs.get(&block) {
            let mempool = &mut self.arena.mempool[node as usize];
            let claims = &mut self.arena.claimed_groups[node as usize];
            for &tx in txs {
                mempool.remove(&tx);
                if let Some(loser) = claims.insert(self.tx_groups[&tx], tx) {
                    mempool.remove(&loser);
                }
            }
        }
        // Unless the parent is still missing, the node now holds the
        // block and its relay-dedup entry is dead — `handle_inv` only
        // consults `seen_invs` for unknown blocks — so retire it here
        // instead of carrying it to the finalization sweep. Gated like
        // the sweep so `finalization_depth = 0` keeps the bookkeeping
        // complete for reference runs.
        if self.config.finalization_depth > 0
            && !matches!(outcome, ViewOutcome::MissingParent(_))
            && self.arena.seen_invs.remove(node, block)
        {
            self.metrics.pruned_seen_invs += 1;
        }
        match outcome {
            ViewOutcome::NewTip { reorg_depth } => {
                let new_height = self.arena.views[node as usize].best_height().0;
                if reorg_depth > 0 {
                    self.stats.reorgs += 1;
                    self.stats.max_depth = self.stats.max_depth.max(reorg_depth);
                    self.metrics.reorg_depth.record(reorg_depth);
                    self.trace(TraceKind::ReorgBegin, node, reorg_depth, new_height);
                    // Any transactions this node had confirmed on the
                    // abandoned branch are reversed from its view.
                    let new_tip = self.arena.views[node as usize].best_dense();
                    self.node_reversals += self.count_reversed(old_tip, new_tip);
                }
                self.trace(TraceKind::BlockAccept, node, block as u64, new_height);
                self.announce(node, block);
            }
            ViewOutcome::MissingParent(_) => {
                let parent = self.index.meta_at(block).prev_dense;
                let target = source.or_else(|| self.orphan_peer(node, block));
                if let Some(peer) = target {
                    self.request(node, peer, parent, false);
                }
            }
            ViewOutcome::SideBranch | ViewOutcome::Duplicate => {
                // A side-branch parent can connect parked orphans that
                // silently advance the tip (`NodeView::offer_dense` runs
                // orphan adoption after classifying the offered block).
                // The relay correctly stays quiet — but the flight
                // recorder must still see the height change, or trace
                // timeline reconstruction drifts from the crawler.
                let new_height = self.arena.views[node as usize].best_height().0;
                if new_height != old_height {
                    self.trace(TraceKind::BlockAccept, node, block as u64, new_height);
                }
            }
        }
    }

    fn announce(&mut self, from: u32, block: u32) {
        let now = self.now().0;
        let row = self.arena.row(from);
        self.metrics.announce_calls += 1;
        self.trace(TraceKind::InvRelay, from, block as u64, row.len() as u64);
        match self.config.relay_mode {
            RelayMode::Diffusion => {
                for e in row {
                    let to = self.arena.peer_edges[e];
                    let at = now + self.edge_delay(Draw::InvDelay, from, to, block as u64);
                    self.send_inv(from, to, block, at);
                }
            }
            RelayMode::Trickle { interval_ms } => {
                // Staggered rounds in a random per-block peer order,
                // shuffled in a scratch copy of the node's sorted row.
                let mut order = std::mem::take(&mut self.announce_scratch);
                order.clear();
                order.extend_from_slice(&self.arena.peer_edges[row]);
                for i in (1..order.len()).rev() {
                    let j = self.keyed.below(
                        Draw::TrickleOrder,
                        from,
                        i as u32,
                        block as u64,
                        now,
                        i as u64 + 1,
                    );
                    order.swap(i, j as usize);
                }
                for (k, &to) in order.iter().enumerate() {
                    let jitter = self.keyed.below(
                        Draw::TrickleJitter,
                        from,
                        to,
                        block as u64,
                        now,
                        interval_ms.max(1),
                    );
                    let delay = self.config.min_latency_ms + (k as u64 + 1) * interval_ms + jitter;
                    self.send_inv(from, to, block, now + delay);
                }
                self.announce_scratch = order;
            }
        }
    }

    /// Schedules an inv for delivery at `at` ms, unless that delivery
    /// provably cannot change any node:
    ///
    /// * the recipient is a zombie (zombies never fetch);
    /// * it already knows the block (known sets only grow);
    /// * it has already forwarded and requested the block, and the inv
    ///   lands before the next churn tick. Only a churn tick, or the
    ///   block's acceptance (after which the block is known), removes
    ///   either entry.
    ///
    /// An elided inv is counted in `traffic` at send time the way its
    /// delivery would have counted it: `blocked` if the partition cuts
    /// the edge now, `lost` if its keyed loss draw at `at` says so,
    /// `invs` otherwise. Because every message draw is keyed, skipping
    /// the event moves no other draw.
    fn send_inv(&mut self, from: u32, to: u32, block: u32, at: u64) {
        let Some(rule) = self.elision_rule(to, block, at) else {
            self.metrics.invs_scheduled += 1;
            self.queue
                .schedule(SimTime(at), NetEvent::Inv { from, to, block });
            return;
        };
        self.metrics.invs_elided[rule] += 1;
        if self.blocked(from, to) {
            self.traffic.blocked += 1;
        } else if self.lost(Draw::InvLoss, from, to, block as u64, at) {
            self.traffic.lost += 1;
        } else {
            self.traffic.invs += 1;
        }
    }

    /// Which [`ELISION_RULES`] entry, if any, makes delivering `block`
    /// to `to` at `at` ms a no-op.
    #[inline]
    fn elision_rule(&self, to: u32, block: u32, at: u64) -> Option<usize> {
        #[cfg(test)]
        if self.elision_off {
            return None;
        }
        if self.arena.zombie[to as usize] {
            Some(0)
        } else if self.arena.views[to as usize].knows_dense(block) {
            Some(1)
        } else if at < self.next_churn_ms
            && self.arena.seen_invs.contains(to, block)
            && self.arena.requested.contains(to, block)
        {
            Some(2)
        } else {
            None
        }
    }

    /// Requests a block from a peer. `lazy` requests model the node's own
    /// processing/poll delay (first-fetch of an announced tip); backfill
    /// requests during catch-up are immediate.
    fn request(&mut self, node: u32, peer: u32, block: u32, lazy: bool) {
        if self.arena.zombie[node as usize] {
            return;
        }
        if !self.arena.requested.insert(node, block) {
            return;
        }
        let mut delay = self.config.min_latency_ms;
        if lazy {
            let mean = self.arena.fetch_mean_ms[node as usize];
            if mean > 0.0 {
                // Uniform on [0, 2·mean]: the bounded tail means a node's
                // behind-runs end within 2·mean of a block, producing the
                // sharp Table V drop between the 5- and 15-minute
                // windows that the paper measures.
                let u = self
                    .keyed
                    .unit(Draw::FetchDelay, node, peer, block as u64, self.now().0);
                delay += (u * 2.0 * mean) as u64;
            }
        }
        self.queue.schedule_in(
            delay,
            NetEvent::GetData {
                from: node,
                to: peer,
                block,
                retries: 0,
            },
        );
    }

    fn handle_inv(&mut self, from: u32, to: u32, block: u32) {
        if self.blocked(from, to) {
            self.traffic.blocked += 1;
            return;
        }
        if self.lost(Draw::InvLoss, from, to, block as u64, self.now().0) {
            self.traffic.lost += 1;
            return;
        }
        self.traffic.invs += 1;
        if !self.arena.online[to as usize]
            || self.arena.zombie[to as usize]
            || self.arena.views[to as usize].knows_dense(block)
        {
            return;
        }
        // Headers-first relay: announcements are forwarded immediately,
        // even before the node has fetched the block itself — this keeps
        // the announcement epidemic fast while each node's *chain view*
        // updates on its own (lazy) schedule, which is exactly the
        // staleness distribution Bitnodes measures.
        if self.arena.seen_invs.insert(to, block) {
            self.announce(to, block);
        }
        self.request(to, from, block, true);
    }

    fn handle_getdata(&mut self, from: u32, to: u32, block: u32, retries: u8) {
        if self.blocked(from, to) {
            self.traffic.blocked += 1;
            return;
        }
        if self.lost(Draw::GetDataLoss, from, to, block as u64, self.now().0) {
            self.traffic.lost += 1;
            return;
        }
        self.traffic.getdatas += 1;
        if !self.arena.online[to as usize] {
            return;
        }
        if !self.arena.views[to as usize].knows_dense(block) {
            // The holder announced the block (headers-first) but has not
            // fetched it yet; retry shortly, bounded so requests to
            // permanently blockless peers eventually give up.
            if retries < 40 {
                self.queue.schedule_in(
                    30_000,
                    NetEvent::GetData {
                        from,
                        to,
                        block,
                        retries: retries + 1,
                    },
                );
            }
            return;
        }
        self.trace(TraceKind::GetData, from, block as u64, to as u64);
        let delay = self.transfer_delay(from);
        self.queue.schedule_in(
            delay,
            NetEvent::Block {
                from: to,
                to: from,
                block,
                forced: false,
            },
        );
    }

    fn handle_block(&mut self, from: u32, to: u32, block: u32, forced: bool) {
        if !forced {
            if self.blocked(from, to) {
                self.traffic.blocked += 1;
                return;
            }
            if self.lost(Draw::BlockLoss, from, to, block as u64, self.now().0) {
                self.traffic.lost += 1;
                return;
            }
        }
        self.traffic.blocks += 1;
        if !self.arena.online[to as usize] && !forced {
            return;
        }
        let source = (from != u32::MAX).then_some(from);
        self.accept_block(to, block, source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_topology::SnapshotConfig;

    fn tiny_snapshot() -> Snapshot {
        let config = SnapshotConfig {
            scale: 0.02,
            tail_as_count: 40,
            version_tail: 10,
            up_fraction: 1.0,
            ..SnapshotConfig::paper()
        };
        Snapshot::generate(config)
    }

    fn sim() -> Simulation {
        let snap = tiny_snapshot();
        Simulation::new(&snap, &PoolCensus::paper_table_iv(), NetConfig::fast_test())
    }

    #[test]
    fn blocks_propagate_to_all_nodes() {
        let mut s = sim();
        // Run for 3 block intervals; with fast propagation and no loss
        // everyone should be synced between blocks.
        s.run_for_secs(3 * 600);
        assert!(s.network_best().0 >= 1, "no blocks mined");
        // Give stragglers a moment after the last block.
        s.run_for_secs(120);
        let lags = s.lags();
        let synced = lags.iter().filter(|&&l| l == 0).count();
        assert!(
            synced as f64 / lags.len() as f64 > 0.95,
            "only {synced}/{} synced",
            lags.len()
        );
    }

    /// The calendar wheel's buckets hold memory only while they hold
    /// events, so after a long run the ring's capacity stays within
    /// the queue's own high-water mark rather than each bucket's
    /// largest wave.
    #[test]
    fn wheel_capacity_follows_pending_events() {
        let mut s = sim();
        s.run_for_secs(2 * 3600);
        let hwm = s.metrics().queue_depth_hwm;
        assert!(hwm > 0);
        let capacity = s.queue.wheel_capacity();
        assert!(
            capacity <= 2 * hwm,
            "wheel capacity {capacity} events exceeds twice the high-water mark {hwm}"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        let mut a = Simulation::new(&snap, &census, NetConfig::fast_test());
        let mut b = Simulation::new(&snap, &census, NetConfig::fast_test());
        a.run_for_secs(1800);
        b.run_for_secs(1800);
        assert_eq!(a.network_best(), b.network_best());
        assert_eq!(a.lags(), b.lags());
    }

    #[test]
    fn tracing_records_events_without_perturbing_results() {
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        let mut plain = Simulation::new(&snap, &census, NetConfig::fast_test());
        let mut traced = Simulation::new(&snap, &census, NetConfig::fast_test());
        traced.set_tracer(Tracer::new());
        plain.run_for_secs(1800);
        traced.run_for_secs(1800);
        // Identical results with the recorder on.
        assert_eq!(plain.network_best(), traced.network_best());
        assert_eq!(plain.lags(), traced.lags());
        // And twice-traced runs produce byte-identical streams.
        let mut traced2 = Simulation::new(&snap, &census, NetConfig::fast_test());
        traced2.set_tracer(Tracer::new());
        traced2.run_for_secs(1800);
        let records = traced.take_tracer().unwrap().into_records();
        let records2 = traced2.take_tracer().unwrap().into_records();
        assert_eq!(
            bp_obs::trace::first_divergence(&records, &records2),
            None,
            "same-seed traces diverged"
        );
        // The stream holds the expected net-category kinds.
        let mines = records.iter().filter(|r| r.kind == TraceKind::Mine).count() as u64;
        assert_eq!(mines, traced.stats().blocks_mined);
        assert!(records.iter().any(|r| r.kind == TraceKind::BlockAccept));
        assert!(records.iter().any(|r| r.kind == TraceKind::InvRelay));
        assert!(records.iter().any(|r| r.kind == TraceKind::GetData));
        // Mine records carry heights; the max equals the network best.
        let max_height = records
            .iter()
            .filter(|r| r.kind == TraceKind::Mine)
            .map(|r| r.b)
            .max()
            .unwrap();
        assert_eq!(max_height, traced.network_best().0);
    }

    #[test]
    fn partition_events_reach_the_trace() {
        let mut s = sim();
        s.set_tracer(Tracer::new());
        let n = s.node_count() as u32;
        s.set_partition(move |i| if i < n / 2 { 0 } else { 1 });
        s.run_for_secs(600);
        s.clear_partition();
        let records = s.take_tracer().unwrap().into_records();
        let apply = records
            .iter()
            .find(|r| r.kind == TraceKind::PartitionApply)
            .expect("partition apply not traced");
        assert_eq!(apply.node, u32::MAX);
        assert_eq!(apply.a, 2, "expected two partition groups");
        assert!(records
            .iter()
            .any(|r| r.kind == TraceKind::PartitionHeal && r.node == u32::MAX));
    }

    #[test]
    fn partition_stops_cross_group_propagation() {
        let mut s = sim();
        let n = s.node_count() as u32;
        // Split in half and run long enough for several blocks.
        s.set_partition(move |i| if i < n / 2 { 0 } else { 1 });
        s.run_for_secs(4 * 600);
        // The two halves must have diverged: forks appear because pools'
        // gateways sit in both halves.
        let tips: FxHashSet<BlockId> = (0..n).map(|i| s.tip_of(i)).collect();
        assert!(tips.len() >= 2, "partition produced no divergence");
        // Lifting the partition reconverges the network.
        s.clear_partition();
        s.run_for_secs(4 * 600);
        s.run_for_secs(120);
        let lags = s.lags();
        let synced = lags.iter().filter(|&&l| l <= 1).count();
        assert!(
            synced as f64 / lags.len() as f64 > 0.9,
            "network failed to reconverge"
        );
    }

    #[test]
    fn zombies_stay_behind() {
        let snap = tiny_snapshot();
        let config = NetConfig {
            zombie_fraction: 0.2,
            ..NetConfig::fast_test()
        };
        let mut s = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
        s.run_for_secs(5 * 600);
        let zombie_lags: Vec<u64> = (0..s.node_count() as u32)
            .filter(|&i| s.is_zombie(i))
            .map(|i| s.lags()[i as usize])
            .collect();
        assert!(!zombie_lags.is_empty());
        // Zombies never fetched anything: they sit at genesis.
        assert!(zombie_lags.iter().all(|&l| l == s.network_best().0));
    }

    #[test]
    fn counterfeit_injection_captures_lagging_node() {
        let mut s = sim();
        s.run_for_secs(1200);
        s.run_for_secs(60);
        let victim = 0u32;
        // Build a counterfeit chain 2 blocks longer than the victim's tip.
        let mut parent = s.tip_of(victim);
        for _ in 0..2 {
            parent = s.mine_counterfeit(parent);
        }
        s.push_chain(victim, parent);
        // Process only a short horizon so honest mining cannot outpace it.
        s.run_for_secs(5);
        assert!(
            s.follows_counterfeit(victim),
            "victim did not adopt the counterfeit chain"
        );
    }

    #[test]
    fn fork_stats_accumulate() {
        let snap = tiny_snapshot();
        // Slow diffusion + losses → some forks over many blocks.
        let config = NetConfig {
            seed: 42,
            diffusion_mean_ms: 60_000.0,
            failure_rate: 0.2,
            ..NetConfig::fast_test()
        };
        let mut s = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
        s.run_for_secs(40 * 600);
        let stats = s.stats();
        assert!(stats.blocks_mined >= 20);
        assert!(
            stats.stale_forks > 0 || stats.reorgs > 0,
            "slow network produced no forks at all: {stats:?}"
        );
    }

    #[test]
    fn transactions_gossip_to_most_mempools() {
        let mut s = sim();
        s.run_for_secs(60);
        let txid = s.submit_tx(0, 1).unwrap();
        s.run_for_secs(120);
        let holders = (0..s.node_count() as u32)
            .filter(|&i| s.tx_in_mempool(i, txid))
            .count();
        assert!(
            holders as f64 > 0.9 * s.node_count() as f64,
            "tx reached only {holders}/{}",
            s.node_count()
        );
    }

    #[test]
    fn double_spend_rejected_by_first_seen() {
        let mut s = sim();
        s.run_for_secs(60);
        let n = s.node_count() as u32;
        // Two conflicting spends broadcast simultaneously from opposite
        // corners of the network.
        let a = s.submit_tx(0, 7).unwrap();
        let b = s.submit_tx(n - 1, 7).unwrap();
        s.run_for_secs(120);
        assert_ne!(a, b);
        // The floods collided somewhere: rejections were recorded and no
        // node holds both versions.
        assert!(s.conflicts_rejected_total() > 0, "no conflicts detected");
        for i in 0..n {
            assert!(
                !(s.tx_in_mempool(i, a) && s.tx_in_mempool(i, b)),
                "node {i} holds both sides of a double spend"
            );
        }
        // A node that saw one version first refuses the other even when
        // offered directly.
        let holder = (0..n).find(|&i| s.tx_in_mempool(i, a)).unwrap();
        assert!(s.submit_tx(holder, 7).is_none());
    }

    /// Whether `tx` is in a block on `node`'s best chain.
    fn confirmed_at(s: &Simulation, node: u32, tx: u64) -> bool {
        let mut d = s.arena.views[node as usize].best_dense();
        while d != NO_BLOCK {
            if s.block_txs.get(&d).is_some_and(|txs| txs.contains(&tx)) {
                return true;
            }
            d = s.index.meta_at(d).prev_dense;
        }
        false
    }

    #[test]
    fn partition_enables_double_spend_and_reversal() {
        let mut s = sim();
        let n = s.node_count() as u32;
        s.run_for_secs(60);
        // Partition by parity so each side keeps some pool gateways
        // (gateway nodes cluster in the low indices), then spend the
        // same coin on both sides.
        s.set_partition(move |i| i % 2);
        let left = s.submit_tx(0, 99).unwrap();
        let right = s.submit_tx(1, 99).unwrap();
        // Hold the cut until each side has confirmed its own version.
        let side_confirmed =
            |s: &Simulation, side: u32, tx| (side..n).step_by(2).any(|i| confirmed_at(s, i, tx));
        for _ in 0..48 {
            if side_confirmed(&s, 0, left) && side_confirmed(&s, 1, right) {
                break;
            }
            s.run_for_secs(600);
        }
        assert!(
            side_confirmed(&s, 0, left) && side_confirmed(&s, 1, right),
            "a side confirmed nothing in 8 simulated hours"
        );
        let held = |s: &Simulation, tx| -> Vec<u32> {
            (0..n).filter(|&i| confirmed_at(s, i, tx)).collect()
        };
        let (held_left, held_right) = (held(&s, left), held(&s, right));
        s.clear_partition();
        s.run_for_secs(6 * 600);
        // Exactly one version survives on the canonical chain.
        let left_ok = s.tx_confirmed(left);
        let right_ok = s.tx_confirmed(right);
        assert!(
            left_ok ^ right_ok,
            "double spend not resolved: left={left_ok} right={right_ok}"
        );
        // The losing side's nodes saw their version confirmed before the
        // heal-time reorg removed it from their chains: node-level
        // reversals, read off each node's chain.
        let (loser, held_loser) = if left_ok {
            (right, held_right)
        } else {
            (left, held_left)
        };
        let reversed = held_loser
            .iter()
            .filter(|&&i| !confirmed_at(&s, i, loser))
            .count();
        assert!(reversed >= 1, "no node lost its confirmed spend");
        // `node_reversals_total` does not see these (0 at this seed, with
        // 137 nodes reversed): the heal reorg arrives by orphan adoption,
        // which `accept_block` takes for a side branch (ROADMAP item 3).
    }

    /// Gateways of `s` in index order.
    fn gateways(s: &Simulation) -> Vec<u32> {
        (0..s.node_count() as u32)
            .filter(|&i| s.is_gateway(i))
            .collect()
    }

    #[test]
    fn losing_spend_leaves_mempools_when_the_winner_confirms() {
        // One pool gateway is cut off on its own holding spend `a`; the
        // rest of the network confirms the conflicting spend `b`. After
        // the heal the isolated gateway must drop `a` rather than mine
        // it on top of `b`: one coin, one confirmed spend.
        let mut s = sim();
        s.run_for_secs(60);
        let gateways = gateways(&s);
        let (cut, other) = (gateways[1], gateways[0]);
        s.set_partition(move |i| u32::from(i == cut));
        let a = s.submit_tx(cut, 99).unwrap();
        let b = s.submit_tx(other, 99).unwrap();
        s.run_for_secs(12 * 600);
        s.clear_partition();
        s.run_for_secs(36 * 600);
        let (a_ok, b_ok) = (s.tx_confirmed(a), s.tx_confirmed(b));
        assert!(a_ok ^ b_ok, "group 99 confirmed a={a_ok} b={b_ok}");
        assert!(!s.tx_in_mempool(cut, a) && !s.tx_in_mempool(cut, b));
    }

    #[test]
    fn confirmed_spend_refuses_a_resubmitted_conflict() {
        // Once a spend is confirmed, offering a conflicting spend of the
        // same coin at any gateway is refused, so it can never be mined.
        let mut s = sim();
        s.run_for_secs(60);
        let txid = s.submit_tx(0, 5).unwrap();
        s.run_for_secs(4 * 600);
        assert!(s.tx_confirmed(txid), "tx never confirmed");
        for g in gateways(&s) {
            assert_eq!(s.submit_tx(g, 5), None, "gateway {g} took a double spend");
        }
    }

    #[test]
    fn confirmed_tx_is_never_mined_twice() {
        // A relay that arrives after the block must not put a confirmed
        // transaction back in the mempool for a gateway to mine again.
        let snap = tiny_snapshot();
        let config = NetConfig {
            seed: 0,
            finalization_depth: 0, // keep block_txs complete for the walk
            ..NetConfig::fast_test()
        };
        let mut s = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
        s.run_for_secs(60);
        let n = s.node_count() as u64;
        let txids: Vec<u64> = (0..30u64)
            .filter_map(|g| s.submit_tx((g * 7 % n) as u32, g))
            .collect();
        s.run_for_secs(10 * 600);
        let mut inclusions: FxHashMap<u64, u32> = FxHashMap::default();
        let mut cur = *s.index.meta_at(s.canonical_dense);
        loop {
            for &tx in s.block_txs.get(&cur.dense).into_iter().flatten() {
                *inclusions.entry(tx).or_default() += 1;
            }
            if cur.prev_dense == NO_BLOCK {
                break;
            }
            cur = *s.index.meta_at(cur.prev_dense);
        }
        assert!(txids.iter().all(|t| inclusions.contains_key(t)));
        for (tx, count) in inclusions {
            assert_eq!(count, 1, "tx {tx} is on the canonical chain {count} times");
        }
    }

    #[test]
    fn confirmed_tx_leaves_mempools() {
        let mut s = sim();
        s.run_for_secs(60);
        let txid = s.submit_tx(0, 5).unwrap();
        s.run_for_secs(4 * 600);
        s.run_for_secs(120);
        assert!(s.tx_confirmed(txid), "tx never confirmed");
        let holders = (0..s.node_count() as u32)
            .filter(|&i| s.tx_in_mempool(i, txid))
            .count();
        assert!(
            (holders as f64) < 0.2 * s.node_count() as f64,
            "{holders} mempools still hold a confirmed tx"
        );
    }

    #[test]
    fn trickle_relay_propagates_but_slower() {
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        let trickle = NetConfig {
            relay_mode: RelayMode::Trickle { interval_ms: 5_000 },
            ..NetConfig::fast_test()
        };
        let mut slow = Simulation::new(&snap, &census, trickle);
        let mut fast = Simulation::new(&snap, &census, NetConfig::fast_test());
        slow.run_for_secs(4 * 600);
        fast.run_for_secs(4 * 600);
        // Both deliver blocks eventually…
        assert!(slow.network_best().0 >= 1);
        let synced = |s: &Simulation| {
            let lags = s.lags();
            lags.iter().filter(|&&l| l == 0).count() as f64 / lags.len() as f64
        };
        // …but trickle leaves no larger a synced population than
        // diffusion at the same instant.
        assert!(
            synced(&slow) <= synced(&fast) + 0.05,
            "trickle {} vs diffusion {}",
            synced(&slow),
            synced(&fast)
        );
    }

    #[test]
    fn run_for_secs_advances_wall_clock_exactly() {
        // Regression: the clock must advance by the requested amount even
        // when the event stream is sparse (tiny network, long quiet
        // stretches) — otherwise crawls sample far less simulated time
        // than intended.
        let mut s = sim();
        for _ in 0..100 {
            s.run_for_secs(10);
        }
        assert_eq!(s.now().as_secs(), 1000);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn run_for_secs_rejects_overflowing_deadlines() {
        // Regression: `secs * 1000` used to wrap, turning an absurd
        // horizon into a deadline in the past that silently ran nothing.
        let mut s = sim();
        s.run_for_secs(u64::MAX / 500);
    }

    #[test]
    fn queue_counters_are_exported() {
        let mut s = sim();
        s.run_for_secs(1800);
        let reg = bp_obs::Registry::new();
        s.export_metrics(&reg, "net");
        let snap = reg.snapshot();
        let scheduled = snap.counter("net.queue.scheduled");
        assert!(scheduled > 0);
        // Every scheduled event took exactly one of the three paths.
        assert_eq!(
            scheduled,
            snap.counter("net.queue.wheel")
                + snap.counter("net.queue.late")
                + snap.counter("net.queue.overflow")
        );
        // Mining gaps (~600 s) exceed the wheel horizon only rarely; the
        // bulk of diffusion traffic must take the O(1) wheel path.
        assert!(snap.counter("net.queue.wheel") > snap.counter("net.queue.overflow"));
    }

    #[test]
    fn queue_counters_are_pinned() {
        // Literal counters of a half-hour run: the queue classifies every
        // schedule deterministically, so any drift in the wheel (or in
        // what the simulator schedules) shows up here. Seed 2019 covers
        // the overflow-cascade path.
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        // (seed, scheduled, wheel, late, overflow, cascaded, depth_hwm)
        let expected = [
            (7u64, 18_620u64, 14_969u64, 3_651u64, 0u64, 0u64, 2_071usize),
            (11, 12_090, 9_797, 2_293, 0, 0, 2_059),
            (2019, 9_298, 7_326, 1_971, 1, 1, 2_749),
        ];
        for (seed, scheduled, wheel, late, overflow, cascaded, hwm) in expected {
            let config = NetConfig {
                seed,
                ..NetConfig::fast_test()
            };
            let mut s = Simulation::new(&snap, &census, config);
            s.run_for_secs(1800);
            let q = s.queue_stats();
            assert_eq!(
                (q.scheduled, q.wheel, q.late, q.overflow, q.cascaded),
                (scheduled, wheel, late, overflow, cascaded),
                "seed {seed}"
            );
            assert_eq!(s.metrics().queue_depth_hwm, hwm, "seed {seed}");
        }
    }

    #[test]
    fn validate_rejects_out_of_range_configs() {
        assert!(NetConfig::paper().validate().is_ok());
        assert!(NetConfig::fast_test().validate().is_ok());
        let bad = [
            NetConfig {
                zombie_fraction: 1.5,
                ..NetConfig::fast_test()
            },
            NetConfig {
                failure_rate: -0.1,
                ..NetConfig::fast_test()
            },
            NetConfig {
                churn_on_prob: f64::NAN,
                ..NetConfig::fast_test()
            },
            NetConfig {
                churn_off_scale: -1.0,
                ..NetConfig::fast_test()
            },
            NetConfig {
                out_degree: 0,
                ..NetConfig::fast_test()
            },
            NetConfig {
                diffusion_mean_ms: 0.0,
                ..NetConfig::fast_test()
            },
            NetConfig {
                fetch_delay_mean_ms: f64::INFINITY,
                ..NetConfig::fast_test()
            },
            NetConfig {
                block_interval_secs: -600.0,
                ..NetConfig::fast_test()
            },
            NetConfig {
                churn_period_secs: 0,
                ..NetConfig::fast_test()
            },
        ];
        for config in bad {
            assert!(config.validate().is_err(), "accepted {config:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid NetConfig")]
    fn simulation_rejects_invalid_config() {
        // Pre-validation, zombie_fraction > 1 made the zombie sampler
        // loop forever; now construction fails fast.
        let snap = tiny_snapshot();
        let config = NetConfig {
            zombie_fraction: 1.5,
            ..NetConfig::fast_test()
        };
        let _ = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
    }

    #[test]
    fn population_below_out_degree_is_a_full_mesh() {
        // `repro --scale 0.001 --seed 16` leaves no more than
        // `out_degree` live nodes: each then peers with all the others.
        let snap = tiny_snapshot();
        let n = snap.up_count();
        let config = NetConfig {
            out_degree: n + 4,
            ..NetConfig::fast_test()
        };
        let mut s = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
        assert!((0..n as u32).all(|v| s.arena.peers(v).len() == n - 1));
        s.run_for_secs(3 * 600);
        assert!(s.network_best().0 >= 1, "no blocks mined");
    }

    #[test]
    fn gateways_are_never_zombies() {
        // Regression: gateway selection used to take the first
        // participant in the pool's stratum AS even when the zombie
        // sampler had hit it, producing a node that "never fetches"
        // blocks yet carries the pools' zero-delay fetch
        // infrastructure — a pool mining on a genesis-frozen view
        // forever. With a 30 % zombie fraction some seed in this range
        // collides with near-certainty.
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        for seed in 0..10u64 {
            let config = NetConfig {
                seed,
                zombie_fraction: 0.3,
                ..NetConfig::fast_test()
            };
            let s = Simulation::new(&snap, &census, config);
            for &g in &s.gateways {
                assert!(!s.is_zombie(g), "seed {seed}: gateway {g} is a zombie");
            }
        }
    }

    #[test]
    fn partial_shuffle_builder_matches_invariants() {
        // The network builder must give a valid network under both the
        // unit-test and the measurement config: exact zombie count,
        // per-node degree >= out_degree, sorted rows, no self-loops, no
        // duplicates, symmetric edges — and be deterministic for a seed.
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        let fast = NetConfig {
            zombie_fraction: 0.1,
            ..NetConfig::fast_test()
        };
        for config in [fast, NetConfig::paper()] {
            let s = Simulation::new(&snap, &census, config.clone());
            let n = s.node_count() as u32;
            let zombies = (0..n).filter(|&i| s.is_zombie(i)).count();
            assert_eq!(zombies, (n as f64 * 0.1).round() as usize);
            for i in 0..n {
                let peers = s.peers_of(i);
                assert!(peers.len() >= 8, "node {i} degree {}", peers.len());
                assert!(
                    peers.windows(2).all(|w| w[0] < w[1]),
                    "row {i} unsorted/dup"
                );
                assert!(!peers.contains(&i), "node {i} self-loop");
                for &p in peers {
                    assert!(s.peers_of(p).contains(&i), "edge {i}<->{p} not symmetric");
                }
            }
            let t = Simulation::new(&snap, &census, config);
            for i in 0..n {
                assert_eq!(s.peers_of(i), t.peers_of(i), "non-deterministic row {i}");
            }
            // And the network it builds actually works.
            let mut s = s;
            s.run_for_secs(1800);
            assert!(s.network_best().0 >= 1);
        }
    }

    #[test]
    fn gateway_flags_match_gateway_list() {
        let s = sim();
        let mut flagged = 0;
        for i in 0..s.node_count() as u32 {
            assert_eq!(s.is_gateway(i), s.gateways.contains(&i), "node {i}");
            flagged += s.is_gateway(i) as usize;
        }
        assert!(flagged > 0, "no gateway nodes at all");
    }

    #[test]
    fn confirmed_set_agrees_with_chain_walk() {
        // Drive a partition + heal so the canonical chain advances AND
        // reorganises, then check the incremental set against the
        // reference walk for every transaction ever submitted.
        let snap = tiny_snapshot();
        let config = NetConfig {
            finalization_depth: 0, // keep block_txs complete for the walk
            ..NetConfig::fast_test()
        };
        let mut s = Simulation::new(&snap, &PoolCensus::paper_table_iv(), config);
        s.run_for_secs(60);
        let mut txids = Vec::new();
        for g in 0..20u64 {
            if let Some(t) = s.submit_tx((g % 7) as u32, g) {
                txids.push(t);
            }
        }
        s.set_partition(|i| i % 2);
        for g in 100..104u64 {
            txids.extend(s.submit_tx(0, g));
            txids.extend(s.submit_tx(1, g));
        }
        s.run_for_secs(8 * 600);
        s.clear_partition();
        s.run_for_secs(6 * 600);
        assert!(
            txids.iter().any(|&t| s.tx_confirmed(t)),
            "nothing confirmed"
        );
        for &t in &txids {
            assert_eq!(
                s.tx_confirmed(t),
                s.tx_confirmed_by_walk(t),
                "confirmed-set bookkeeping diverged for tx {t}"
            );
        }
    }

    #[test]
    fn pruning_bounds_relay_state_without_changing_results() {
        // A long run so the chain passes the finalization depth many
        // times over (~6 blocks/hour from the census hash rate).
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        let pruned_cfg = NetConfig {
            finalization_depth: 6,
            ..NetConfig::fast_test()
        };
        let unpruned_cfg = NetConfig {
            finalization_depth: 0,
            ..NetConfig::fast_test()
        };
        let mut pruned = Simulation::new(&snap, &census, pruned_cfg);
        let mut unpruned = Simulation::new(&snap, &census, unpruned_cfg);
        let secs = 8 * 3600;
        pruned.run_for_secs(secs);
        unpruned.run_for_secs(secs);

        // Pruning must not perturb the simulation itself.
        assert_eq!(pruned.network_best(), unpruned.network_best());
        assert_eq!(pruned.lags(), unpruned.lags());
        assert_eq!(pruned.stats(), unpruned.stats());

        // …but it must bound the relay bookkeeping.
        let (seen_p, txs_p) = pruned.relay_state_footprint();
        let (seen_u, txs_u) = unpruned.relay_state_footprint();
        assert!(pruned.metrics().pruned_seen_invs > 0, "nothing pruned");
        assert!(
            seen_p < seen_u,
            "seen_invs not reduced: {seen_p} vs {seen_u}"
        );
        assert!(txs_p <= txs_u);
        let blocks = pruned.stats().blocks_mined;
        let n = pruned.node_count();
        assert!(
            blocks > 20,
            "too few blocks mined ({blocks}) to exercise pruning"
        );
        // Bounded: per-node seen_invs stays near the finalization window
        // (depth 6 plus the blocks mined since the last churn tick), far
        // below the total number of blocks ever relayed.
        assert!(
            seen_p <= n * 20,
            "seen_invs {seen_p} not bounded (n={n}, blocks={blocks})"
        );
    }

    #[test]
    fn metrics_count_events_without_perturbing_results() {
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        let mut a = Simulation::new(&snap, &census, NetConfig::fast_test());
        let mut b = Simulation::new(&snap, &census, NetConfig::fast_test());
        a.run_for_secs(1800);
        b.run_for_secs(1800);
        // Metrics are as deterministic as the simulation itself…
        assert_eq!(a.metrics(), b.metrics());
        // …and exporting them twice (or not at all) changes nothing.
        let reg = bp_obs::Registry::new();
        a.export_metrics(&reg, "net");
        a.run_for_secs(600);
        b.run_for_secs(600);
        assert_eq!(a.lags(), b.lags());
        assert_eq!(a.metrics(), b.metrics());
        let m = a.metrics();
        assert!(m.events_mine > 0);
        assert!(m.events_inv > 0);
        assert!(m.queue_depth_hwm > 0);
        assert_eq!(
            m.events_churn,
            1 + a.now().as_secs() / a.config.churn_period_secs
        );
        let snap2 = reg.snapshot();
        assert!(snap2.counter("net.events.inv") > 0);
        assert!(snap2.counter("net.traffic.invs") > 0);
    }

    #[test]
    fn elision_is_unobservable() {
        // Zombies, loss, lazy fetches and churn, so every elision rule
        // fires. The same seeded run with every inv scheduled must leave
        // every node on the same tip, with the same fork and traffic
        // counts, once nothing is in flight.
        let snap = tiny_snapshot();
        let census = PoolCensus::paper_table_iv();
        let config = NetConfig {
            seed: 3,
            zombie_fraction: 0.1,
            failure_rate: 0.1,
            fetch_delay_mean_ms: 20_000.0,
            churn_off_scale: 0.3,
            churn_on_prob: 0.3,
            ..NetConfig::fast_test()
        };
        let run = |elision_off: bool| {
            let mut s = Simulation::new(&snap, &census, config.clone());
            s.elision_off = elision_off;
            s.run_for_secs(4 * 3600);
            // Drain: no more blocks and no node changes state, so nothing
            // new is sent; getdata retries end within 40 × 30 s.
            s.set_mining_paused(true);
            s.config.churn_off_scale = 0.0;
            s.config.churn_on_prob = 0.0;
            s.run_for_secs(3600);
            assert_eq!(s.queue.len(), 2, "only the mine and churn ticks remain");
            s
        };
        let (on, off) = (run(false), run(true));
        assert!(
            on.metrics().invs_elided.iter().all(|&n| n > 0),
            "a rule never fired: {:?}",
            on.metrics().invs_elided
        );
        assert_eq!(off.metrics().invs_elided, [0; 3]);
        assert!(on.metrics().events_inv < off.metrics().events_inv);
        assert!(on.stats().blocks_mined > 10);
        for i in 0..on.node_count() as u32 {
            assert_eq!(on.tip_of(i), off.tip_of(i), "node {i} tip");
            assert_eq!(on.height_of(i), off.height_of(i), "node {i} height");
        }
        assert_eq!(on.stats(), off.stats());
        assert_eq!(on.traffic(), off.traffic());
    }

    #[test]
    fn out_degree_respected() {
        let s = sim();
        for i in 0..s.node_count() as u32 {
            // Union of in/out edges: at least out_degree, bounded above by
            // a small multiple.
            let d = s.peers_of(i).len();
            assert!(d >= 8, "node {i} has degree {d}");
        }
    }
}
