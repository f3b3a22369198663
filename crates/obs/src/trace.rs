//! Deterministic event-trace flight recorder.
//!
//! While the [`Registry`] answers "how many", the flight
//! recorder answers "in what order": it captures a compact, fixed-width
//! stream of simulation events (mining, relay, reorgs, partitions, crawler
//! samples, attack-grid steps) that can be dumped, filtered, and diffed
//! for the first divergence between two runs; `bp_detect::StreamState`
//! replays it into per-node state (the `trace timeline` series).
//!
//! The recorder obeys the same determinism contract as the metrics layer:
//!
//! * recording never touches an RNG, never schedules events and never
//!   branches simulation logic — a traced run produces bit-identical
//!   simulation results to an untraced one;
//! * every record derives only from values the simulation already
//!   computed, so a seeded run emits a byte-identical `trace.bin` /
//!   `trace.jsonl` regardless of worker count (each traced component is
//!   single-threaded and streams are concatenated in a fixed order).
//!
//! ## Record format
//!
//! A trace file is a 16-byte header (`b"BPTRACE1"` magic + record count as
//! little-endian `u64`) followed by fixed [`RECORD_BYTES`]-wide records:
//!
//! | bytes | field | encoding |
//! |-------|-------|----------|
//! | 0..8  | `time` | LE `u64` — milliseconds (net/crawler) or step/cell index (attack) |
//! | 8..12 | `node` | LE `u32` — node id, grid cell, or `u32::MAX` for network-wide events |
//! | 12    | kind | [`TraceKind`] discriminant |
//! | 13    | category | [`TraceCategory`] discriminant (redundant with kind; validated on decode) |
//! | 14    | severity | [`Severity`] discriminant (redundant with kind; validated on decode) |
//! | 15    | reserved | must be zero |
//! | 16..24 | `a` | LE `u64` — kind-specific payload |
//! | 24..32 | `b` | LE `u64` — kind-specific payload |
//!
//! The sequence number of a record is its ordinal position in the file; it
//! is not stored, which keeps records compact and makes "first divergence"
//! well-defined as the first differing ordinal.
//!
//! `BPTRACE1` is the only format: the recorder is unbounded, so a file
//! always holds every record its run emitted, and [`decode_records`]
//! rejects any other magic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{json_escape, Registry};

/// Width of one encoded trace record in bytes.
pub const RECORD_BYTES: usize = 32;

/// Magic bytes opening every binary trace file.
pub const MAGIC: &[u8; 8] = b"BPTRACE1";

/// Width of the binary file header (magic + record count).
pub const HEADER_BYTES: usize = 16;

/// Event category: which subsystem emitted the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceCategory {
    /// `bp-net` simulation events (time domain: simulated milliseconds).
    Net = 0,
    /// `bp-attacks` temporal-attack events (time domain: grid step or
    /// sweep-cell index).
    Attack = 1,
    /// `bp-crawler` sampling events (time domain: simulated milliseconds).
    Crawler = 2,
    /// `bp-detect` detector alerts (time domain: simulated milliseconds —
    /// alerts fire on crawler sample ticks).
    Detect = 3,
}

impl TraceCategory {
    /// Stable lowercase name used in JSONL output and CLI filters.
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Net => "net",
            TraceCategory::Attack => "attack",
            TraceCategory::Crawler => "crawler",
            TraceCategory::Detect => "detect",
        }
    }

    /// Parses a category from its [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "net" => Some(TraceCategory::Net),
            "attack" => Some(TraceCategory::Attack),
            "crawler" => Some(TraceCategory::Crawler),
            "detect" => Some(TraceCategory::Detect),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(TraceCategory::Net),
            1 => Some(TraceCategory::Attack),
            2 => Some(TraceCategory::Crawler),
            3 => Some(TraceCategory::Detect),
            _ => None,
        }
    }
}

/// Record severity tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Severity {
    /// High-volume routine events (relay chatter).
    Debug = 0,
    /// Normal state progression (mining, block accepts, samples).
    Info = 1,
    /// Consensus- or topology-affecting events (reorgs, partitions).
    Warn = 2,
    /// A detector fired: the trace evidence is consistent with an
    /// ongoing partition.
    Alert = 3,
}

impl Severity {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Alert => "alert",
        }
    }

    /// All severities, in discriminant order (used by summaries).
    pub const ALL: [Severity; 4] = [
        Severity::Debug,
        Severity::Info,
        Severity::Warn,
        Severity::Alert,
    ];

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Severity::Debug),
            1 => Some(Severity::Info),
            2 => Some(Severity::Warn),
            3 => Some(Severity::Alert),
            _ => None,
        }
    }
}

/// The concrete event a record describes. Discriminants are part of the
/// on-disk format and must never be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A pool mined a block. `node` = gateway node, `a` = dense block id,
    /// `b` = block height.
    Mine = 1,
    /// A node announced a block to its peers. `node` = announcer,
    /// `a` = dense block id, `b` = number of peers notified.
    InvRelay = 2,
    /// A getdata was served and the block transfer scheduled.
    /// `node` = requester, `a` = dense block id, `b` = holder node.
    GetData = 3,
    /// A node adopted a new best tip. `node` = accepting node,
    /// `a` = dense id of the block whose arrival advanced the tip (for
    /// an orphan cascade this is the connecting parent, not the new
    /// tip itself), `b` = new best height.
    BlockAccept = 4,
    /// A block accept triggered a reorg. `node` = reorging node,
    /// `a` = reorg depth (blocks reversed), `b` = new best height.
    ReorgBegin = 5,
    /// A partition was applied. `node` = `u32::MAX`, `a` = number of
    /// distinct groups, `b` = size of the largest group.
    PartitionApply = 6,
    /// The partition was healed. `node` = `u32::MAX`.
    PartitionHeal = 7,
    /// A churn tick ran. `node` = `u32::MAX`, `a` = nodes that went
    /// offline this tick, `b` = nodes that came online.
    Churn = 8,
    /// A finalized-state prune sweep ran. `node` = `u32::MAX`,
    /// `a` = dense-block horizon, `b` = entries pruned this sweep.
    PruneSweep = 9,
    /// Temporal grid: the honest network mined a block. `node` = mining
    /// cell, `a` = mined block height, `b` = grid step.
    GridMine = 16,
    /// Temporal grid: the attacker released a counterfeit block.
    /// `node` = attacker cell, `a` = counterfeit height, `b` = grid step.
    GridRelease = 17,
    /// Temporal grid: a figure-7 panel snapshot was selected. `node` =
    /// `u32::MAX`, `a` = counterfeit-following cell count, `b` = panel
    /// step.
    GridSnapshot = 18,
    /// Temporal model: one bisection sweep cell finished. `node` = lambda
    /// row index, `a` = node-count column value, `b` = bisection steps.
    ModelBisect = 19,
    /// Crawler sample tick. `node` = total node count, `a` = synced node
    /// count (lag 0), `b` = network best height.
    CrawlSample = 32,
    /// Node→AS join, emitted once per node when a trace starts so the
    /// trace alone carries the crawler's AS slot index. `node` = sim
    /// node, `a` = AS number, `b` = AS slot (first-seen order).
    NodeAs = 33,
    /// BlockAware detector alert: nodes stale relative to an advancing
    /// network tip. `node` = `u32::MAX`, `a` = stale fraction in
    /// per-mille, `b` = stale node count.
    DetectBlockAware = 48,
    /// Staleness-band EWMA detector alert: the synced fraction collapsed
    /// below its running baseline. `node` = `u32::MAX`, `a` = current
    /// synced per-mille, `b` = EWMA baseline per-mille.
    DetectStaleEwma = 49,
    /// Inv-fan-out-collapse detector alert: mean peers notified per inv
    /// dropped against baseline. `node` = `u32::MAX`, `a` = current mean
    /// fan-out (milli-peers), `b` = EWMA baseline (milli-peers).
    DetectInvCollapse = 50,
    /// AS-skew detector alert: the per-AS synced-share distribution
    /// drifted from baseline. `node` = most-deviating AS slot, `a` =
    /// total-variation distance in per-mille, `b` = that slot's AS
    /// number.
    DetectAsSkew = 51,
}

impl TraceKind {
    /// All kinds, in discriminant order (used by summaries and tests).
    pub const ALL: [TraceKind; 19] = [
        TraceKind::Mine,
        TraceKind::InvRelay,
        TraceKind::GetData,
        TraceKind::BlockAccept,
        TraceKind::ReorgBegin,
        TraceKind::PartitionApply,
        TraceKind::PartitionHeal,
        TraceKind::Churn,
        TraceKind::PruneSweep,
        TraceKind::GridMine,
        TraceKind::GridRelease,
        TraceKind::GridSnapshot,
        TraceKind::ModelBisect,
        TraceKind::CrawlSample,
        TraceKind::NodeAs,
        TraceKind::DetectBlockAware,
        TraceKind::DetectStaleEwma,
        TraceKind::DetectInvCollapse,
        TraceKind::DetectAsSkew,
    ];

    /// The alert kinds a detector may emit, in discriminant order.
    pub const DETECT: [TraceKind; 4] = [
        TraceKind::DetectBlockAware,
        TraceKind::DetectStaleEwma,
        TraceKind::DetectInvCollapse,
        TraceKind::DetectAsSkew,
    ];

    /// Stable lowercase name used in JSONL output and CLI filters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Mine => "mine",
            TraceKind::InvRelay => "inv_relay",
            TraceKind::GetData => "getdata",
            TraceKind::BlockAccept => "block_accept",
            TraceKind::ReorgBegin => "reorg_begin",
            TraceKind::PartitionApply => "partition_apply",
            TraceKind::PartitionHeal => "partition_heal",
            TraceKind::Churn => "churn",
            TraceKind::PruneSweep => "prune_sweep",
            TraceKind::GridMine => "grid_mine",
            TraceKind::GridRelease => "grid_release",
            TraceKind::GridSnapshot => "grid_snapshot",
            TraceKind::ModelBisect => "model_bisect",
            TraceKind::CrawlSample => "crawl_sample",
            TraceKind::NodeAs => "node_as",
            TraceKind::DetectBlockAware => "detect_blockaware",
            TraceKind::DetectStaleEwma => "detect_stale_ewma",
            TraceKind::DetectInvCollapse => "detect_inv_collapse",
            TraceKind::DetectAsSkew => "detect_as_skew",
        }
    }

    /// Parses a kind from its [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        TraceKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The subsystem that emits this kind.
    pub fn category(self) -> TraceCategory {
        match self {
            TraceKind::Mine
            | TraceKind::InvRelay
            | TraceKind::GetData
            | TraceKind::BlockAccept
            | TraceKind::ReorgBegin
            | TraceKind::PartitionApply
            | TraceKind::PartitionHeal
            | TraceKind::Churn
            | TraceKind::PruneSweep => TraceCategory::Net,
            TraceKind::GridMine
            | TraceKind::GridRelease
            | TraceKind::GridSnapshot
            | TraceKind::ModelBisect => TraceCategory::Attack,
            TraceKind::CrawlSample | TraceKind::NodeAs => TraceCategory::Crawler,
            TraceKind::DetectBlockAware
            | TraceKind::DetectStaleEwma
            | TraceKind::DetectInvCollapse
            | TraceKind::DetectAsSkew => TraceCategory::Detect,
        }
    }

    /// The severity tag attached to this kind.
    pub fn severity(self) -> Severity {
        match self {
            TraceKind::InvRelay | TraceKind::GetData | TraceKind::NodeAs => Severity::Debug,
            TraceKind::ReorgBegin
            | TraceKind::PartitionApply
            | TraceKind::PartitionHeal
            | TraceKind::GridRelease => Severity::Warn,
            TraceKind::DetectBlockAware
            | TraceKind::DetectStaleEwma
            | TraceKind::DetectInvCollapse
            | TraceKind::DetectAsSkew => Severity::Alert,
            _ => Severity::Info,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        TraceKind::ALL.into_iter().find(|k| *k as u8 == v)
    }
}

/// One decoded trace record. See [`TraceKind`] for per-kind payload
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Event time: simulated milliseconds for net/crawler records, grid
    /// step or sweep-cell index for attack records.
    pub time: u64,
    /// Emitting node / cell, or `u32::MAX` for network-wide events.
    pub node: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

impl TraceRecord {
    /// Appends the fixed-width encoding of this record to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.time.to_le_bytes());
        out.extend_from_slice(&self.node.to_le_bytes());
        out.push(self.kind as u8);
        out.push(self.kind.category() as u8);
        out.push(self.kind.severity() as u8);
        out.push(0);
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
    }

    /// Decodes one record from a [`RECORD_BYTES`]-wide chunk.
    ///
    /// # Errors
    ///
    /// Returns a message when the kind byte is unknown, the category or
    /// severity byte disagrees with the kind, or the reserved byte is
    /// non-zero.
    pub fn decode(chunk: &[u8]) -> Result<TraceRecord, String> {
        if chunk.len() != RECORD_BYTES {
            return Err(format!(
                "record chunk is {} bytes, expected {RECORD_BYTES}",
                chunk.len()
            ));
        }
        let time = u64::from_le_bytes(chunk[0..8].try_into().expect("8-byte slice"));
        let node = u32::from_le_bytes(chunk[8..12].try_into().expect("4-byte slice"));
        let kind =
            TraceKind::from_u8(chunk[12]).ok_or_else(|| format!("unknown kind {}", chunk[12]))?;
        let category = TraceCategory::from_u8(chunk[13])
            .ok_or_else(|| format!("unknown category {}", chunk[13]))?;
        let severity = Severity::from_u8(chunk[14])
            .ok_or_else(|| format!("unknown severity {}", chunk[14]))?;
        if category != kind.category() {
            return Err(format!(
                "category {} does not match kind {}",
                category.name(),
                kind.name()
            ));
        }
        if severity != kind.severity() {
            return Err(format!(
                "severity {} does not match kind {}",
                severity.name(),
                kind.name()
            ));
        }
        if chunk[15] != 0 {
            return Err(format!("reserved byte is {}, expected 0", chunk[15]));
        }
        let a = u64::from_le_bytes(chunk[16..24].try_into().expect("8-byte slice"));
        let b = u64::from_le_bytes(chunk[24..32].try_into().expect("8-byte slice"));
        Ok(TraceRecord {
            time,
            node,
            kind,
            a,
            b,
        })
    }

    /// Renders this record as one JSON object (used for `trace.jsonl`).
    pub fn to_json_line(&self, seq: u64) -> String {
        format!(
            "{{\"seq\":{seq},\"t\":{},\"cat\":\"{}\",\"kind\":\"{}\",\"sev\":\"{}\",\"node\":{},\"a\":{},\"b\":{}}}",
            self.time,
            json_escape(self.kind.category().name()),
            json_escape(self.kind.name()),
            json_escape(self.kind.severity().name()),
            self.node,
            self.a,
            self.b,
        )
    }
}

/// The in-memory flight recorder: an unbounded stream of
/// [`TraceRecord`]s in recording order.
///
/// Recording is infallible and side-effect free with respect to the
/// simulation: no RNG, no event scheduling, no branching on recorder
/// state leaks back into the caller.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tracer {
    records: Vec<TraceRecord>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Rebuilds a recorder from previously captured records (e.g. a
    /// cache replay).
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Tracer { records }
    }

    /// Records one event.
    #[inline]
    pub fn record(&mut self, kind: TraceKind, time: u64, node: u32, a: u64, b: u64) {
        self.records.push(TraceRecord {
            time,
            node,
            kind,
            a,
            b,
        });
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drains this recorder into a plain record vector.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// The held records, in recording order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Appends another recorder's records (stream concatenation).
    pub fn append(&mut self, mut other: Tracer) {
        self.records.append(&mut other.records);
    }

    /// Exports `{prefix}.events_recorded` and `{prefix}.bytes_written`
    /// counters into `reg`: the record count, and the record payload an
    /// [`encode_records`] call would emit.
    pub fn export_metrics(&self, reg: &Registry, prefix: &str) {
        reg.add(
            &format!("{prefix}.events_recorded"),
            self.records.len() as u64,
        );
        reg.add(
            &format!("{prefix}.bytes_written"),
            (self.records.len() * RECORD_BYTES) as u64,
        );
    }

    /// Encodes the records into the binary trace-file format.
    pub fn encode(&self) -> Vec<u8> {
        encode_records(&self.records)
    }
}

/// Encodes records into the binary trace-file format (header + records).
pub fn encode_records(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + records.len() * RECORD_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        r.encode_into(&mut out);
    }
    out
}

/// Decodes a binary trace file produced by [`encode_records`].
///
/// # Errors
///
/// Returns a message on a bad magic, a truncated file, a record-count
/// mismatch, or any malformed record (with its sequence number).
pub fn decode_records(bytes: &[u8]) -> Result<Vec<TraceRecord>, String> {
    if bytes.len() < 8 {
        return Err(format!(
            "file is {} bytes, smaller than the 8-byte magic",
            bytes.len()
        ));
    }
    if &bytes[..8] != MAGIC {
        return Err("bad magic: not a bp-obs trace file".to_string());
    }
    if bytes.len() < HEADER_BYTES {
        return Err(format!(
            "file is {} bytes, smaller than the {HEADER_BYTES}-byte header",
            bytes.len()
        ));
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let body = &bytes[HEADER_BYTES..];
    // The count comes from disk: a product that overflows cannot match
    // any real body, and must not wrap around to one that does.
    let promised = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(RECORD_BYTES));
    if promised != Some(body.len()) {
        return Err(format!(
            "header promises {count} records but body is {} bytes",
            body.len()
        ));
    }
    let mut records = Vec::with_capacity(body.len() / RECORD_BYTES);
    for (seq, chunk) in body.chunks(RECORD_BYTES).enumerate() {
        records.push(TraceRecord::decode(chunk).map_err(|e| format!("record {seq}: {e}"))?);
    }
    Ok(records)
}

/// Renders records as line-delimited JSON, one object per record, with
/// explicit sequence numbers.
pub fn render_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for (seq, r) in records.iter().enumerate() {
        out.push_str(&r.to_json_line(seq as u64));
        out.push('\n');
    }
    out
}

/// A first divergence between two traces, as found by [`first_divergence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Ordinal of the first record that differs (or the length of the
    /// shorter trace when one is a strict prefix of the other).
    pub seq: u64,
    /// The left trace's record at `seq`, if it has one.
    pub left: Option<TraceRecord>,
    /// The right trace's record at `seq`, if it has one.
    pub right: Option<TraceRecord>,
}

impl Divergence {
    /// Human-readable divergence report: seq, timestamps and both decoded
    /// records.
    pub fn render(&self) -> String {
        fn side(label: &str, r: &Option<TraceRecord>) -> String {
            match r {
                Some(r) => format!(
                    "{label}: t={} cat={} kind={} sev={} node={} a={} b={}",
                    r.time,
                    r.kind.category().name(),
                    r.kind.name(),
                    r.kind.severity().name(),
                    r.node,
                    r.a,
                    r.b
                ),
                None => format!("{label}: <end of trace>"),
            }
        }
        format!(
            "divergence at seq {}\n{}\n{}",
            self.seq,
            side("left ", &self.left),
            side("right", &self.right)
        )
    }
}

/// Finds the first ordinal at which two traces differ, or `None` when they
/// are identical.
pub fn first_divergence(left: &[TraceRecord], right: &[TraceRecord]) -> Option<Divergence> {
    let shared = left.len().min(right.len());
    for seq in 0..shared {
        if left[seq] != right[seq] {
            return Some(Divergence {
                seq: seq as u64,
                left: Some(left[seq]),
                right: Some(right[seq]),
            });
        }
    }
    if left.len() != right.len() {
        return Some(Divergence {
            seq: shared as u64,
            left: left.get(shared).copied(),
            right: right.get(shared).copied(),
        });
    }
    None
}

/// Filter predicate for [`filter_records`] / the `trace filter` CLI.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceFilter {
    /// Keep records with `time >= from` (inclusive).
    pub from: Option<u64>,
    /// Keep records with `time <= to` (inclusive).
    pub to: Option<u64>,
    /// Keep records for this node only.
    pub node: Option<u32>,
    /// Keep records of this category only.
    pub category: Option<TraceCategory>,
    /// Keep records of this kind only.
    pub kind: Option<TraceKind>,
}

impl TraceFilter {
    /// Whether a record passes the filter.
    pub fn matches(&self, r: &TraceRecord) -> bool {
        if let Some(from) = self.from {
            if r.time < from {
                return false;
            }
        }
        if let Some(to) = self.to {
            if r.time > to {
                return false;
            }
        }
        if let Some(node) = self.node {
            if r.node != node {
                return false;
            }
        }
        if let Some(cat) = self.category {
            if r.kind.category() != cat {
                return false;
            }
        }
        if let Some(kind) = self.kind {
            if r.kind != kind {
                return false;
            }
        }
        true
    }
}

/// Applies a filter, preserving each surviving record's original sequence
/// number.
pub fn filter_records(records: &[TraceRecord], filter: &TraceFilter) -> Vec<(u64, TraceRecord)> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| filter.matches(r))
        .map(|(seq, r)| (seq as u64, *r))
        .collect()
}

/// Renders a deterministic plain-text summary: totals, per-category,
/// per-severity and per-kind counts, and the busiest nodes. Each kind
/// line carries its severity tag, so the rollup reads per kind too.
pub fn summary(records: &[TraceRecord]) -> String {
    let mut by_kind: BTreeMap<TraceKind, u64> = BTreeMap::new();
    let mut by_cat: BTreeMap<TraceCategory, u64> = BTreeMap::new();
    let mut by_sev: BTreeMap<Severity, u64> = BTreeMap::new();
    let mut by_node: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut t_min, mut t_max) = (u64::MAX, 0u64);
    for r in records {
        *by_kind.entry(r.kind).or_insert(0) += 1;
        *by_cat.entry(r.kind.category()).or_insert(0) += 1;
        *by_sev.entry(r.kind.severity()).or_insert(0) += 1;
        *by_node.entry(r.node).or_insert(0) += 1;
        t_min = t_min.min(r.time);
        t_max = t_max.max(r.time);
    }
    let mut out = String::new();
    let _ = writeln!(out, "records: {}", records.len());
    if !records.is_empty() {
        let _ = writeln!(out, "time span: {t_min}..{t_max}");
    }
    let _ = writeln!(out, "by category:");
    for (cat, n) in &by_cat {
        let _ = writeln!(out, "  {:<10} {n}", cat.name());
    }
    let _ = writeln!(out, "by severity:");
    for (sev, n) in &by_sev {
        let _ = writeln!(out, "  {:<10} {n}", sev.name());
    }
    let _ = writeln!(out, "by kind:");
    for (kind, n) in &by_kind {
        let _ = writeln!(
            out,
            "  {:<20} {:<6} {n}",
            kind.name(),
            kind.severity().name()
        );
    }
    // Busiest nodes: count descending, node id ascending on ties, top 10.
    let mut nodes: Vec<(u32, u64)> = by_node.into_iter().collect();
    nodes.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    let _ = writeln!(out, "busiest nodes (top {}):", nodes.len().min(10));
    for (node, n) in nodes.iter().take(10) {
        if *node == u32::MAX {
            let _ = writeln!(out, "  <network>  {n}");
        } else {
            let _ = writeln!(out, "  node {node:<6} {n}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                time: 1000,
                node: 3,
                kind: TraceKind::Mine,
                a: 1,
                b: 1,
            },
            TraceRecord {
                time: 1200,
                node: 3,
                kind: TraceKind::InvRelay,
                a: 1,
                b: 8,
            },
            TraceRecord {
                time: 1400,
                node: 5,
                kind: TraceKind::BlockAccept,
                a: 1,
                b: 1,
            },
            TraceRecord {
                time: 2000,
                node: 2,
                kind: TraceKind::CrawlSample,
                a: 1,
                b: 1,
            },
        ]
    }

    #[test]
    fn roundtrip_bin_is_lossless() {
        let records = sample_records();
        let bin = encode_records(&records);
        assert_eq!(bin.len(), HEADER_BYTES + records.len() * RECORD_BYTES);
        assert_eq!(decode_records(&bin).unwrap(), records);
    }

    #[test]
    fn decode_rejects_corruption() {
        let records = sample_records();
        let mut bin = encode_records(&records);
        assert!(decode_records(&bin[..7]).is_err(), "truncated header");
        bin[0] = b'X';
        assert!(decode_records(&bin).unwrap_err().contains("bad magic"));
        let mut bin = encode_records(&records);
        bin[HEADER_BYTES + 12] = 250; // unknown kind byte on record 0
        assert!(decode_records(&bin).unwrap_err().contains("record 0"));
        let mut bin = encode_records(&records);
        bin[HEADER_BYTES + 13] = TraceCategory::Attack as u8; // mismatched category
        assert!(decode_records(&bin)
            .unwrap_err()
            .contains("does not match kind"));
        let mut bin = encode_records(&records);
        bin.truncate(bin.len() - 1);
        assert!(decode_records(&bin).unwrap_err().contains("body"));
    }

    #[test]
    fn record_count_that_overflows_the_body_size_is_rejected() {
        // 2^59 records * 32 bytes wraps to 0 in 64-bit arithmetic, which
        // used to pass the body check and then overflow Vec::with_capacity.
        let mut bin = MAGIC.to_vec();
        bin.extend_from_slice(&(1u64 << 59).to_le_bytes());
        assert_eq!(bin, b"BPTRACE1\0\0\0\0\0\0\0\x08");
        assert!(decode_records(&bin).unwrap_err().contains("body"));
    }

    #[test]
    fn every_kind_roundtrips_and_parses() {
        for kind in TraceKind::ALL {
            let r = TraceRecord {
                time: 7,
                node: 9,
                kind,
                a: 11,
                b: 13,
            };
            let mut buf = Vec::new();
            r.encode_into(&mut buf);
            assert_eq!(TraceRecord::decode(&buf).unwrap(), r);
            assert_eq!(TraceKind::parse(kind.name()), Some(kind));
            assert_eq!(
                TraceCategory::parse(kind.category().name()),
                Some(kind.category())
            );
        }
    }

    #[test]
    fn unwrapped_encode_matches_classic_format() {
        let mut t = Tracer::new();
        for r in sample_records() {
            t.record(r.kind, r.time, r.node, r.a, r.b);
        }
        assert_eq!(t.records(), sample_records());
        assert_eq!(t.encode(), encode_records(t.records()));
        assert_eq!(decode_records(&t.encode()).unwrap(), t.records());
    }

    #[test]
    fn append_concatenates_streams() {
        let mut a = Tracer::new();
        a.record(TraceKind::Mine, 1, 0, 0, 0);
        let mut b = Tracer::new();
        b.record(TraceKind::Churn, 2, u32::MAX, 1, 1);
        a.append(b);
        let records = a.into_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].kind, TraceKind::Churn);
    }

    #[test]
    fn export_metrics_accounts_for_recorder() {
        let mut t = Tracer::new();
        for i in 0..3u64 {
            t.record(TraceKind::Mine, i, 0, 0, 0);
        }
        let reg = Registry::new();
        t.export_metrics(&reg, "trace.test");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("trace.test.events_recorded"), 3);
        assert_eq!(snap.counter("trace.test.bytes_written"), 3 * 32);
    }

    #[test]
    fn first_divergence_finds_mismatch_and_prefix() {
        let a = sample_records();
        assert_eq!(first_divergence(&a, &a), None);

        let mut b = a.clone();
        b[2].b = 99;
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.seq, 2);
        assert_eq!(d.left.unwrap().b, 1);
        assert_eq!(d.right.unwrap().b, 99);
        assert!(d.render().contains("seq 2"));

        let d = first_divergence(&a, &a[..3]).unwrap();
        assert_eq!(d.seq, 3);
        assert!(d.left.is_some());
        assert!(d.right.is_none());
        assert!(d.render().contains("<end of trace>"));
    }

    #[test]
    fn filter_keeps_original_seqs() {
        let records = sample_records();
        let kept = filter_records(
            &records,
            &TraceFilter {
                node: Some(3),
                ..TraceFilter::default()
            },
        );
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].0, 0);
        assert_eq!(kept[1].0, 1);

        let kept = filter_records(
            &records,
            &TraceFilter {
                from: Some(1300),
                to: Some(1500),
                ..TraceFilter::default()
            },
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].1.kind, TraceKind::BlockAccept);

        let kept = filter_records(
            &records,
            &TraceFilter {
                category: Some(TraceCategory::Crawler),
                ..TraceFilter::default()
            },
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].0, 3);
    }

    #[test]
    fn summary_counts_categories_and_kinds() {
        let s = summary(&sample_records());
        assert!(s.contains("records: 4"));
        assert!(s.contains("net"));
        assert!(s.contains("crawl_sample"));
        assert!(s.contains("mine"));
        assert!(s.contains("time span: 1000..2000"));
    }

    #[test]
    fn summary_rolls_up_severities() {
        let mut records = sample_records();
        records.push(TraceRecord {
            time: 2500,
            node: u32::MAX,
            kind: TraceKind::DetectStaleEwma,
            a: 400,
            b: 900,
        });
        let s = summary(&records);
        // One debug (inv_relay), three info (mine, accept, sample), one
        // alert (the detector record); each kind line carries its tag.
        assert!(s.contains("by severity:"));
        assert!(s.contains("  debug      1"));
        assert!(s.contains("  info       3"));
        assert!(s.contains("  alert      1"));
        assert!(s.contains("detect_stale_ewma"));
        let kind_line = s
            .lines()
            .find(|l| l.trim_start().starts_with("inv_relay"))
            .unwrap();
        assert!(kind_line.contains("debug"));
    }

    #[test]
    fn jsonl_lines_are_valid_shape() {
        let text = render_jsonl(&sample_records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"seq\":0,\"t\":1000,\"cat\":\"net\",\"kind\":\"mine\""));
        assert!(lines[3].contains("\"cat\":\"crawler\""));
    }
}
