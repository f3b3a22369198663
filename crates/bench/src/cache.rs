//! Content-addressed incremental recomputation for the artifact
//! pipeline (`repro --cache DIR`).
//!
//! # Keys
//!
//! Every DAG task gets a 128-bit key derived — Merkle style — from
//! everything that can change its output:
//!
//! * the key-schema tag [`KEY_SCHEMA`] and the crate version, so a new
//!   build or a format change silently invalidates old stores;
//! * the observability flags (`--metrics` / `--trace` on or off),
//!   because a traced task's stored effects differ from an untraced
//!   one's;
//! * the task label and a per-task logic version (bumped when the
//!   task's code changes behaviour);
//! * a canonical encoding of exactly the [`ReproConfig`](crate::ReproConfig)
//!   fields the task reads (`f64` values normalized via
//!   [`canonical_f64_bits`], so `-0.0` and every NaN hash alike); and
//! * the keys of its dependencies, recursively — flipping `--seed`
//!   invalidates the crawls and everything downstream of them, while
//!   the closed-form tasks that read no seed still hit.
//!
//! Keys are derived from *inputs*, not from hashed outputs: the planner
//! can therefore decide hits before running anything and skip a hit
//! task's whole upstream subgraph. The store separately hashes each
//! blob's bytes, so corruption is detected on read (the entry is
//! evicted and the task recomputed — never a panic).
//!
//! # Envelopes
//!
//! A cached task stores an [`Envelope`]: an optional canonical payload
//! (the task's output, via the [`Stable`] codecs) plus the task's
//! *observable effects* — the metric counters, gauges, histograms, span
//! counts and trace streams the task recorded while running. Replaying
//! a hit injects those effects, so a warm run's `metrics.json` and
//! `trace.bin` are byte-identical to a cold run's. Tasks whose output
//! cannot be serialized (live simulations handed across a side channel)
//! are *volatile*: their envelope carries effects only, and any
//! downstream task that needs their value forces them to run live.
//!
//! # Store layout
//!
//! `DIR/blobs.bin` — a 16-byte header (`BPCBLOB1`, schema, reserved)
//! followed by `u64`-length-prefixed envelope blobs, append-only.
//! `DIR/index.bin` — `BPCIDX01`, schema, entry count, then fixed-width
//! rows `(key u128, offset u64, len u64, blob-hash u128)`, rewritten
//! atomically (temp file + rename) on flush.

use crate::dag::TaskOutput;
use crate::pipeline::TraceHub;
use bp_obs::{Histogram, Registry, Tracer};
use btcpart::experiments::codec::{canonical_f64_bits, Dec, Enc, Stable};
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Key-derivation schema tag; folded into every key so a change to the
/// derivation rules orphans (rather than misreads) old entries.
pub const KEY_SCHEMA: &str = "bp-cache/k1";
/// On-disk store schema, written into both file headers.
pub const STORE_SCHEMA: u32 = 1;
/// Envelope format version (first byte of every blob). Bump it whenever
/// the encoding of a payload or of the effects changes, so an older
/// store's entries miss instead of misparsing.
pub const ENVELOPE_VERSION: u8 = 2;

const BLOB_MAGIC: &[u8; 8] = b"BPCBLOB1";
const INDEX_MAGIC: &[u8; 8] = b"BPCIDX01";
const BLOB_HEADER_BYTES: u64 = 16;

/// A 128-bit content-address for one task's cached result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u128);

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// FNV-1a 128 over a byte slice (blob integrity hashing).
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut state = FNV_OFFSET;
    for &b in bytes {
        state ^= b as u128;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Incremental FNV-1a 128 hasher with length-delimited field framing —
/// every pushed field is prefixed by its byte length, so `("ab", "c")`
/// and `("a", "bc")` never collide.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    state: u128,
}

impl KeyBuilder {
    /// A fresh hasher seeded with the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a length-prefixed byte field.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.mix(&(bytes.len() as u64).to_le_bytes());
        self.mix(bytes);
    }

    /// Hashes a string field.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Hashes a `u64` field.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Hashes an `f64` field through its *canonical* bits (NaNs
    /// collapse, `-0.0 == +0.0`) — key position only; payloads keep raw
    /// bits.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(canonical_f64_bits(v));
    }

    /// Hashes a dependency's key.
    pub fn push_key(&mut self, key: Key) {
        self.push_bytes(&key.0.to_le_bytes());
    }

    /// The finished key.
    pub fn finish(&self) -> Key {
        Key(self.state)
    }
}

impl Default for KeyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The observable effects one task recorded while running: everything a
/// replay must inject so a warm run's metrics and trace exports are
/// byte-identical to a cold run's. Span wall times are deliberately
/// reduced to counts — the deterministic metric renderers export span
/// counts only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsEffects {
    streams: Vec<(u32, String, Tracer)>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
    span_counts: Vec<(String, u64)>,
}

impl ObsEffects {
    /// Captures everything recorded into a task's scoped registry and
    /// trace hub. Volatile counters are excluded by design — they are
    /// run metadata (cache hit rates themselves), not task effects.
    pub fn capture(reg: &Registry, hub: &TraceHub) -> Self {
        let snap = reg.snapshot();
        ObsEffects {
            streams: hub.streams(),
            counters: snap.counters().map(|(n, v)| (n.to_string(), v)).collect(),
            gauges: snap.gauges().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: snap
                .histograms()
                .map(|(n, h)| (n.to_string(), h.clone()))
                .collect(),
            span_counts: snap
                .spans()
                .map(|(n, s)| (n.to_string(), s.count))
                .collect(),
        }
    }

    /// True when the task recorded nothing observable.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.span_counts.is_empty()
    }

    /// Injects the stored effects into the run's registry and trace
    /// hub — the replay half of [`capture`](Self::capture). Counters
    /// add, gauges take the maximum, histograms merge bucket-wise, and
    /// spans replay count-only (zero wall), exactly mirroring how a
    /// live task's scoped registry is merged.
    pub fn replay(&self, reg: Option<&Registry>, hub: Option<&TraceHub>) {
        if let Some(reg) = reg {
            for (name, v) in &self.counters {
                reg.add(name, *v);
            }
            for (name, v) in &self.gauges {
                reg.max_gauge(name, *v);
            }
            for (name, h) in &self.histograms {
                reg.merge_histogram(name, h);
            }
            for (name, count) in &self.span_counts {
                for _ in 0..*count {
                    reg.record_span(name, Duration::ZERO);
                }
            }
        }
        if let Some(hub) = hub {
            for (rank, name, tracer) in &self.streams {
                hub.set_stream(*rank, name, tracer.clone());
            }
        }
    }
}

impl Stable for ObsEffects {
    fn encode(&self, e: &mut Enc) {
        self.streams.encode(e);
        self.counters.encode(e);
        self.gauges.encode(e);
        self.histograms.encode(e);
        self.span_counts.encode(e);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        Ok(ObsEffects {
            streams: Vec::decode(d)?,
            counters: Vec::decode(d)?,
            gauges: Vec::decode(d)?,
            histograms: Vec::decode(d)?,
            span_counts: Vec::decode(d)?,
        })
    }
}

/// One cached task result: the optional canonical payload plus the
/// task's observable effects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Envelope {
    /// Canonically encoded task output ([`Stable`]); `None` for
    /// volatile tasks whose value cannot be persisted.
    pub payload: Option<Vec<u8>>,
    /// The effects to replay when the task is skipped.
    pub effects: ObsEffects,
}

impl Envelope {
    /// Serializes the envelope to the store's blob format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u8(ENVELOPE_VERSION);
        match &self.payload {
            None => e.put_u8(0),
            Some(bytes) => {
                e.put_u8(1);
                e.put_bytes(bytes);
            }
        }
        self.effects.encode(&mut e);
        e.into_bytes()
    }

    /// Parses an envelope blob, validating structure end to end (a
    /// failure means the entry is corrupt and must be evicted).
    ///
    /// # Errors
    ///
    /// Returns a message on any truncation, version mismatch, or
    /// malformed content.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(bytes);
        let version = d.take_u8()?;
        if version != ENVELOPE_VERSION {
            return Err(format!(
                "envelope version {version}, expected {ENVELOPE_VERSION}"
            ));
        }
        let payload = match d.take_u8()? {
            0 => None,
            1 => Some(d.take_bytes()?),
            v => Err(format!("invalid payload tag {v}"))?,
        };
        let effects = ObsEffects::decode(&mut d)?;
        d.finish()?;
        Ok(Envelope { payload, effects })
    }
}

/// How a task's output relates to the cache.
pub enum CacheClass {
    /// The output has a canonical codec: a hit replays the value (and
    /// the effects) without running the task or its ancestors.
    Payload {
        /// Encodes the task's output; `None` only on a type mismatch
        /// (a construction bug).
        encode: fn(&TaskOutput) -> Option<Vec<u8>>,
        /// Decodes a stored payload back into a task output.
        decode: fn(&[u8]) -> Result<TaskOutput, String>,
    },
    /// The output cannot be persisted (live simulation state moved
    /// through a side channel). A hit can only skip the task when no
    /// dependent needs its value.
    Volatile,
}

/// The planner's per-task cache description, built alongside the DAG.
pub struct CacheMeta {
    /// Bumped when the task's logic changes behaviour without a config
    /// or dependency change.
    pub logic_version: u32,
    /// Canonical encoding of exactly the config fields the task reads
    /// (dependency keys carry everything upstream).
    pub config_bytes: Vec<u8>,
    /// Whether the task records metrics or trace streams when run —
    /// a missing envelope for an observable task forces a live run (to
    /// regenerate its effects) even when no dependent needs its value.
    pub observable: bool,
    /// Payload or volatile.
    pub class: CacheClass,
}

impl CacheMeta {
    /// A payload-cached task producing a `T`.
    pub fn payload<T: Stable + Send + Sync + 'static>(
        logic_version: u32,
        config_bytes: Vec<u8>,
        observable: bool,
    ) -> Self {
        CacheMeta {
            logic_version,
            config_bytes,
            observable,
            class: CacheClass::Payload {
                encode: |out| {
                    out.downcast_ref::<T>()
                        .map(btcpart::experiments::codec::encode_value)
                },
                decode: |bytes| {
                    btcpart::experiments::codec::decode_value::<T>(bytes)
                        .map(|v| Box::new(v) as TaskOutput)
                },
            },
        }
    }

    /// A volatile (effects-only) task.
    pub fn volatile(logic_version: u32, config_bytes: Vec<u8>, observable: bool) -> Self {
        CacheMeta {
            logic_version,
            config_bytes,
            observable,
            class: CacheClass::Volatile,
        }
    }
}

struct IndexEntry {
    offset: u64,
    len: u64,
    hash: u128,
}

/// The on-disk artifact store: an append-only blob file plus an
/// atomically-rewritten index. All reads verify the blob's length and
/// content hash; a mismatch evicts the entry instead of surfacing bad
/// bytes.
pub struct ArtifactStore {
    dir: PathBuf,
    index: BTreeMap<u128, IndexEntry>,
    staged: Vec<(u128, Vec<u8>)>,
    dirty: bool,
    reset_blobs: bool,
    bytes_read: u64,
    bytes_written: u64,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store under `dir`. A corrupt or
    /// version-mismatched index is discarded — the store degrades to
    /// empty and every task recomputes — never an error for the caller
    /// beyond real I/O failures (unwritable directory).
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created or read.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache directory {}: {e}", dir.display()))?;
        let mut store = ArtifactStore {
            dir,
            index: BTreeMap::new(),
            staged: Vec::new(),
            dirty: false,
            reset_blobs: false,
            bytes_read: 0,
            bytes_written: 0,
        };
        let blobs_ok = match fs::read(store.blobs_path()) {
            Err(_) => false, // absent: fine, empty store
            Ok(bytes) => {
                bytes.len() >= BLOB_HEADER_BYTES as usize
                    && &bytes[..8] == BLOB_MAGIC
                    && u32::from_le_bytes(bytes[8..12].try_into().expect("4")) == STORE_SCHEMA
            }
        };
        if store.blobs_path().exists() && !blobs_ok {
            // Unreadable blob file: start over (rewritten on flush).
            store.reset_blobs = true;
            store.dirty = true;
            return Ok(store);
        }
        match fs::read(store.index_path()) {
            Err(_) => {} // absent: empty store
            Ok(bytes) => match parse_index(&bytes) {
                Ok(index) if blobs_ok => store.index = index,
                _ => {
                    // Corrupt index (or index without blobs): discard.
                    store.dirty = true;
                }
            },
        }
        Ok(store)
    }

    fn blobs_path(&self) -> PathBuf {
        self.dir.join("blobs.bin")
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join("index.bin")
    }

    /// Number of committed entries (staged inserts excluded).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the committed index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Blob bytes read (and verified) so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Blob bytes staged for writing (committed on
    /// [`flush`](Self::flush)).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Reads and verifies the blob for `key`. Any inconsistency —
    /// missing blob file, short read, length or hash mismatch — evicts
    /// the entry and returns `None`, so corruption degrades to a cache
    /// miss.
    pub fn lookup(&mut self, key: Key) -> Option<Vec<u8>> {
        let entry = self.index.get(&key.0)?;
        match read_blob(&self.blobs_path(), entry) {
            Ok(bytes) => {
                self.bytes_read += bytes.len() as u64;
                Some(bytes)
            }
            Err(_) => {
                self.evict(key);
                None
            }
        }
    }

    /// Removes a key (used on corruption detected after
    /// [`lookup`](Self::lookup), e.g. an envelope that fails to parse).
    pub fn evict(&mut self, key: Key) {
        if self.index.remove(&key.0).is_some() {
            self.dirty = true;
        }
    }

    /// Stages an envelope blob for `key`; committed on
    /// [`flush`](Self::flush). Staging the same key twice, or a key the
    /// index already holds, is a no-op.
    pub fn insert(&mut self, key: Key, bytes: Vec<u8>) {
        if self.index.contains_key(&key.0) || self.staged.iter().any(|(k, _)| *k == key.0) {
            return;
        }
        self.bytes_written += bytes.len() as u64;
        self.staged.push((key.0, bytes));
    }

    /// Appends staged blobs to `blobs.bin` and atomically rewrites the
    /// index. A clean store (nothing staged, nothing evicted) writes
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure; the store keeps its in-memory
    /// state so a retry is safe.
    pub fn flush(&mut self) -> Result<(), String> {
        if self.staged.is_empty() && !self.dirty {
            return Ok(());
        }
        let blobs_path = self.blobs_path();
        let fresh = self.reset_blobs || !blobs_path.exists();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(fresh)
            .append(!fresh)
            .open(&blobs_path)
            .map_err(|e| format!("cannot open {}: {e}", blobs_path.display()))?;
        let io = |e: std::io::Error| format!("cannot write {}: {e}", blobs_path.display());
        let mut offset = if fresh {
            let mut header = Vec::with_capacity(BLOB_HEADER_BYTES as usize);
            header.extend_from_slice(BLOB_MAGIC);
            header.extend_from_slice(&STORE_SCHEMA.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            file.write_all(&header).map_err(io)?;
            BLOB_HEADER_BYTES
        } else {
            file.seek(SeekFrom::End(0)).map_err(io)?
        };
        for (key, bytes) in self.staged.drain(..) {
            file.write_all(&(bytes.len() as u64).to_le_bytes())
                .map_err(io)?;
            file.write_all(&bytes).map_err(io)?;
            self.index.insert(
                key,
                IndexEntry {
                    offset,
                    len: bytes.len() as u64,
                    hash: fnv128(&bytes),
                },
            );
            offset += 8 + bytes.len() as u64;
        }
        drop(file);

        let mut out = Vec::with_capacity(16 + self.index.len() * 48);
        out.extend_from_slice(INDEX_MAGIC);
        out.extend_from_slice(&STORE_SCHEMA.to_le_bytes());
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for (key, e) in &self.index {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.hash.to_le_bytes());
        }
        let tmp = self.dir.join("index.bin.tmp");
        fs::write(&tmp, &out).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, self.index_path())
            .map_err(|e| format!("cannot commit cache index: {e}"))?;
        self.dirty = false;
        self.reset_blobs = false;
        Ok(())
    }
}

fn read_blob(path: &std::path::Path, entry: &IndexEntry) -> Result<Vec<u8>, String> {
    let mut file = fs::File::open(path).map_err(|e| e.to_string())?;
    // Offset and length both come from disk: check the entry fits in the
    // blob file before allocating its length.
    let file_len = file.metadata().map_err(|e| e.to_string())?.len();
    let end = entry
        .offset
        .checked_add(8)
        .and_then(|start| start.checked_add(entry.len));
    if end.is_none_or(|end| end > file_len) {
        return Err("blob entry runs past the end of the blob file".to_string());
    }
    file.seek(SeekFrom::Start(entry.offset))
        .map_err(|e| e.to_string())?;
    let mut prefix = [0u8; 8];
    file.read_exact(&mut prefix).map_err(|e| e.to_string())?;
    if u64::from_le_bytes(prefix) != entry.len {
        return Err("blob length prefix disagrees with index".to_string());
    }
    let mut bytes = vec![0u8; entry.len as usize];
    file.read_exact(&mut bytes).map_err(|e| e.to_string())?;
    if fnv128(&bytes) != entry.hash {
        return Err("blob content hash mismatch".to_string());
    }
    Ok(bytes)
}

fn parse_index(bytes: &[u8]) -> Result<BTreeMap<u128, IndexEntry>, String> {
    if bytes.len() < 16 || &bytes[..8] != INDEX_MAGIC {
        return Err("bad index header".to_string());
    }
    if u32::from_le_bytes(bytes[8..12].try_into().expect("4")) != STORE_SCHEMA {
        return Err("index schema mismatch".to_string());
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4")) as usize;
    let body = &bytes[16..];
    if body.len() != count * 48 {
        return Err("index row area truncated".to_string());
    }
    let mut index = BTreeMap::new();
    for row in body.chunks_exact(48) {
        index.insert(
            u128::from_le_bytes(row[..16].try_into().expect("16")),
            IndexEntry {
                offset: u64::from_le_bytes(row[16..24].try_into().expect("8")),
                len: u64::from_le_bytes(row[24..32].try_into().expect("8")),
                hash: u128::from_le_bytes(row[32..48].try_into().expect("16")),
            },
        );
    }
    Ok(index)
}

/// How the planner disposed of one task.
pub enum Decision {
    /// Execute the task's real closure.
    Run,
    /// Skip the task; its decoded output is handed to dependents and
    /// its stored effects are injected.
    Replay {
        /// The decoded output, taken exactly once by the substitute
        /// closure.
        value: Mutex<Option<TaskOutput>>,
        /// Effects to inject at merge time.
        effects: ObsEffects,
    },
    /// Skip the task; only its stored effects are injected (no
    /// dependent needs the value).
    ReplayEffects {
        /// Effects to inject at merge time.
        effects: ObsEffects,
    },
    /// Skip the task entirely (no value needed, nothing observable).
    SkipSilent,
}

/// Cache outcome of one task, as reported in BENCH rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskCacheStatus {
    /// Key found; the stored result was used (task skipped).
    Hit,
    /// Key not found (or entry corrupt): the result was computed.
    Miss,
    /// Key found but the task ran anyway — a volatile task whose value
    /// a dependent (cache miss downstream) needed live.
    Live,
}

impl TaskCacheStatus {
    /// The BENCH-row string for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskCacheStatus::Hit => "hit",
            TaskCacheStatus::Miss => "miss",
            TaskCacheStatus::Live => "live",
        }
    }
}

/// One task's plan entry.
pub struct TaskPlan {
    /// The task's derived cache key.
    pub key: Key,
    /// Hit / miss / live, for reporting.
    pub status: TaskCacheStatus,
    /// What the executor should do.
    pub decision: Decision,
}

/// Cache totals of one pipeline run, surfaced in the
/// [`RunReport`](crate::pipeline::RunReport) and `BENCH_pipeline.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Tasks satisfied from the store.
    pub hits: u64,
    /// Tasks with no usable stored entry.
    pub misses: u64,
    /// Tasks whose real closure never ran (replayed or skipped).
    pub skipped: u64,
    /// Blob bytes read and verified.
    pub bytes_read: u64,
    /// Blob bytes staged/written.
    pub bytes_written: u64,
}

/// The full plan for a run: one entry per task, plus summary counts.
pub struct CachePlan {
    /// Per-task entries, in DAG construction order.
    pub tasks: Vec<TaskPlan>,
    /// Tasks whose stored result was used.
    pub hits: u64,
    /// Tasks computed (or skipped silently) because no entry resolved.
    pub misses: u64,
}

/// The planner's read-only view of one DAG task.
pub struct TaskInfo<'t> {
    /// The task's display label (part of its key).
    pub label: &'t str,
    /// Dependency indices (always lower than the task's own index).
    pub deps: &'t [usize],
}

/// Derives every task's key, resolves envelopes from the store, and
/// decides per task whether to run, replay, or skip. `required` lists
/// the task indices whose outputs the caller reads after the run (the
/// per-job artifact tasks); `metrics_on` / `trace_on` are the run's
/// observability flags (folded into the keys, and deciding whether a
/// missing envelope for an observable task forces a live run).
pub fn plan_run(
    store: &mut ArtifactStore,
    infos: &[TaskInfo],
    metas: &[CacheMeta],
    required: &[usize],
    metrics_on: bool,
    trace_on: bool,
) -> CachePlan {
    assert_eq!(infos.len(), metas.len(), "one CacheMeta per task");
    let n = infos.len();
    let obs_on = metrics_on || trace_on;

    // Forward pass: Merkle keys, then eager envelope reads. Structural
    // corruption surfaces here and evicts the entry.
    let mut keys: Vec<Key> = Vec::with_capacity(n);
    let mut envelopes: Vec<Option<Envelope>> = Vec::with_capacity(n);
    for (info, meta) in infos.iter().zip(metas) {
        let mut kb = KeyBuilder::new();
        kb.push_str(KEY_SCHEMA);
        kb.push_str(env!("CARGO_PKG_VERSION"));
        kb.push_u64(metrics_on as u64);
        kb.push_u64(trace_on as u64);
        kb.push_str(info.label);
        kb.push_u64(meta.logic_version as u64);
        kb.push_bytes(&meta.config_bytes);
        for &d in info.deps {
            kb.push_key(keys[d]);
        }
        let key = kb.finish();
        let envelope = store
            .lookup(key)
            .and_then(|blob| match Envelope::decode(&blob) {
                Ok(env) => Some(env),
                Err(_) => {
                    store.evict(key);
                    None
                }
            });
        keys.push(key);
        envelopes.push(envelope);
    }

    // Reverse pass: dependencies always have lower indices, so walking
    // back-to-front sees every dependent's verdict before the task's
    // own. `need_value` marks tasks whose output (or side-channel
    // effect — the DAG edges cover both) some running dependent reads.
    let mut need_value = vec![false; n];
    for &r in required {
        need_value[r] = true;
    }
    let mut decisions: Vec<Option<Decision>> = (0..n).map(|_| None).collect();
    let mut statuses: Vec<TaskCacheStatus> = vec![TaskCacheStatus::Miss; n];
    for i in (0..n).rev() {
        let env = envelopes[i].take();
        let hit = env.is_some();
        let run = |decisions: &mut Vec<Option<Decision>>, need_value: &mut Vec<bool>| {
            for &d in infos[i].deps {
                need_value[d] = true;
            }
            decisions[i] = Some(Decision::Run);
        };
        if need_value[i] {
            let replayed = match (&metas[i].class, env) {
                (CacheClass::Payload { decode, .. }, Some(env)) if env.payload.is_some() => {
                    let payload = env.payload.as_deref().expect("checked is_some");
                    match decode(payload) {
                        Ok(value) => {
                            decisions[i] = Some(Decision::Replay {
                                value: Mutex::new(Some(value)),
                                effects: env.effects,
                            });
                            statuses[i] = TaskCacheStatus::Hit;
                            true
                        }
                        Err(_) => {
                            // Payload corrupt despite a valid blob hash
                            // (e.g. a codec change without a version
                            // bump): evict and recompute.
                            store.evict(keys[i]);
                            false
                        }
                    }
                }
                _ => false,
            };
            if !replayed {
                run(&mut decisions, &mut need_value);
                if hit {
                    statuses[i] = TaskCacheStatus::Live;
                }
            }
        } else {
            match env {
                Some(env) => {
                    statuses[i] = TaskCacheStatus::Hit;
                    decisions[i] = Some(if env.effects.is_empty() {
                        Decision::SkipSilent
                    } else {
                        Decision::ReplayEffects {
                            effects: env.effects,
                        }
                    });
                }
                None => {
                    // No stored entry and no dependent needs the value.
                    // An observable task must still run so the warm
                    // run's metrics/trace match a cold run's; anything
                    // else is skipped and left uncached.
                    if obs_on && metas[i].observable {
                        run(&mut decisions, &mut need_value);
                    } else {
                        decisions[i] = Some(Decision::SkipSilent);
                    }
                }
            }
        }
    }

    let tasks: Vec<TaskPlan> = keys
        .into_iter()
        .zip(decisions)
        .zip(statuses)
        .map(|((key, decision), status)| TaskPlan {
            key,
            status,
            decision: decision.expect("every task decided"),
        })
        .collect();
    let hits = tasks
        .iter()
        .filter(|t| t.status == TaskCacheStatus::Hit)
        .count() as u64;
    CachePlan {
        hits,
        misses: tasks.len() as u64 - hits,
        tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bp-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_round_trips_across_reopen() {
        let dir = tmpdir("roundtrip");
        let (k1, k2) = (Key(1), Key(2));
        let mut store = ArtifactStore::open(&dir).unwrap();
        assert!(store.lookup(k1).is_none());
        store.insert(k1, b"alpha".to_vec());
        store.insert(k2, b"beta-blob".to_vec());
        assert_eq!(store.bytes_written(), 14);
        store.flush().unwrap();

        let mut reopened = ArtifactStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.lookup(k1).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(reopened.lookup(k2).as_deref(), Some(&b"beta-blob"[..]));
        assert_eq!(reopened.bytes_read(), 14);
        // A clean flush writes nothing (mtimes aside, state unchanged).
        reopened.flush().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_blob_is_evicted_not_returned() {
        let dir = tmpdir("corrupt");
        let key = Key(7);
        let mut store = ArtifactStore::open(&dir).unwrap();
        store.insert(key, vec![0xAB; 64]);
        store.flush().unwrap();
        // Flip one payload byte on disk.
        let path = dir.join("blobs.bin");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, bytes).unwrap();

        let mut store = ArtifactStore::open(&dir).unwrap();
        assert!(store.lookup(key).is_none(), "corrupt blob must not load");
        assert!(store.is_empty(), "corrupt entry evicted");
        store.flush().unwrap();
        let mut reopened = ArtifactStore::open(&dir).unwrap();
        assert!(reopened.lookup(key).is_none(), "eviction persisted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_store_degrades_to_empty() {
        let dir = tmpdir("truncate");
        let mut store = ArtifactStore::open(&dir).unwrap();
        store.insert(Key(9), vec![1, 2, 3, 4]);
        store.flush().unwrap();
        // Truncate the blob file mid-entry.
        let path = dir.join("blobs.bin");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let mut store = ArtifactStore::open(&dir).unwrap();
        assert!(store.lookup(Key(9)).is_none());
        // And a clobbered header degrades to a full reset.
        fs::write(&path, b"garbage").unwrap();
        let mut store = ArtifactStore::open(&dir).unwrap();
        assert!(store.lookup(Key(9)).is_none());
        store.insert(Key(9), vec![5, 6]);
        store.flush().unwrap();
        let mut store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.lookup(Key(9)).as_deref(), Some(&[5u8, 6][..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_longer_than_the_blob_file_is_a_miss() {
        // An 88-byte store whose index row and blob prefix agree on a
        // 2^40-byte blob: the lookup must miss, not allocate a terabyte.
        let dir = tmpdir("oversized");
        let huge = 1u64 << 40;
        let mut blobs = BLOB_MAGIC.to_vec();
        blobs.extend_from_slice(&STORE_SCHEMA.to_le_bytes());
        blobs.extend_from_slice(&0u32.to_le_bytes());
        blobs.extend_from_slice(&huge.to_le_bytes());
        let mut index = INDEX_MAGIC.to_vec();
        index.extend_from_slice(&STORE_SCHEMA.to_le_bytes());
        index.extend_from_slice(&1u32.to_le_bytes());
        index.extend_from_slice(&7u128.to_le_bytes());
        index.extend_from_slice(&BLOB_HEADER_BYTES.to_le_bytes());
        index.extend_from_slice(&huge.to_le_bytes());
        index.extend_from_slice(&0u128.to_le_bytes());
        assert_eq!(blobs.len() + index.len(), 88);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("blobs.bin"), &blobs).unwrap();
        fs::write(dir.join("index.bin"), &index).unwrap();

        let mut store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.lookup(Key(7)).is_none());
        assert!(store.is_empty(), "oversized entry evicted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_round_trips_payload_and_effects() {
        let reg = Registry::new();
        reg.add("net.day.samples", 42);
        reg.max_gauge("net.day.peak", 1.5);
        reg.observe("net.day.lag", &[10, 100], 55);
        reg.record_span("pipeline.shared.day_crawl", Duration::from_millis(3));
        let hub = TraceHub::new();
        let mut t = Tracer::new();
        for i in 0..5 {
            t.record(bp_obs::TraceKind::Mine, i, 0, i, i + 1);
        }
        hub.set_day(t);

        let env = Envelope {
            payload: Some(b"payload-bytes".to_vec()),
            effects: ObsEffects::capture(&reg, &hub),
        };
        let back = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
        assert!(!back.effects.is_empty());

        // Replaying into a fresh registry reproduces the counters.
        let fresh = Registry::new();
        let fresh_hub = TraceHub::new();
        back.effects.replay(Some(&fresh), Some(&fresh_hub));
        let snap = fresh.snapshot();
        assert_eq!(snap.counter("net.day.samples"), 42);
        assert_eq!(snap.gauge("net.day.peak"), Some(1.5));
        assert_eq!(snap.histogram("net.day.lag").unwrap().total(), 1);
        assert_eq!(
            snap.span_stats("pipeline.shared.day_crawl").unwrap().count,
            1
        );
        let merged = fresh_hub.merged();
        assert_eq!(merged.len(), 5);

        // Corrupt envelope bytes are an error, not a panic.
        assert!(Envelope::decode(&env.encode()[..5]).is_err());
        assert!(Envelope::decode(b"").is_err());
    }

    /// A blob written under an older envelope version is corrupt to this
    /// build: decoding it errors, and the planner evicts it and reports
    /// a miss instead of misparsing it.
    #[test]
    fn older_envelope_version_is_evicted_as_a_miss() {
        let dir = tmpdir("old-envelope");
        let mut store = ArtifactStore::open(&dir).unwrap();
        let info = [TaskInfo {
            label: "a",
            deps: &[],
        }];
        let metas = [CacheMeta::payload::<u64>(1, vec![], false)];
        let cold = plan_run(&mut store, &info, &metas, &[0], false, false);

        let hub = TraceHub::new();
        let mut t = Tracer::new();
        t.record(bp_obs::TraceKind::Mine, 1, 0, 1, 1);
        hub.set_day(t);
        let mut blob = Envelope {
            payload: Some(btcpart::experiments::codec::encode_value(&5u64)),
            effects: ObsEffects::capture(&Registry::new(), &hub),
        }
        .encode();
        blob[0] = ENVELOPE_VERSION - 1;
        assert!(Envelope::decode(&blob)
            .unwrap_err()
            .contains("envelope version 1"));
        store.insert(cold.tasks[0].key, blob);
        store.flush().unwrap();
        assert_eq!(store.len(), 1);

        let warm = plan_run(&mut store, &info, &metas, &[0], false, false);
        assert_eq!((warm.hits, warm.misses), (0, 1));
        assert_eq!(warm.tasks[0].status, TaskCacheStatus::Miss);
        assert!(matches!(warm.tasks[0].decision, Decision::Run));
        assert!(store.is_empty(), "the stale entry is evicted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_derivation_is_canonical_and_merkle() {
        let key = |label: &str, cfg: &[f64], deps: &[Key]| {
            let mut kb = KeyBuilder::new();
            kb.push_str(label);
            for &v in cfg {
                kb.push_f64(v);
            }
            for &d in deps {
                kb.push_key(d);
            }
            kb.finish()
        };
        // f64 normalization in key position.
        assert_eq!(key("a", &[0.0], &[]), key("a", &[-0.0], &[]));
        assert_eq!(
            key("a", &[f64::NAN], &[]),
            key("a", &[f64::from_bits(0x7ff8_0000_dead_beef)], &[])
        );
        assert_ne!(key("a", &[1.0], &[]), key("a", &[2.0], &[]));
        // Dependency keys propagate (Merkle).
        let d1 = key("dep", &[1.0], &[]);
        let d2 = key("dep", &[2.0], &[]);
        assert_ne!(key("b", &[], &[d1]), key("b", &[], &[d2]));
        // Field framing: ("ab","c") != ("a","bc").
        let mut x = KeyBuilder::new();
        x.push_str("ab");
        x.push_str("c");
        let mut y = KeyBuilder::new();
        y.push_str("a");
        y.push_str("bc");
        assert_ne!(x.finish(), y.finish());
    }

    /// A 3-task chain `a -> b -> c` with `c` required: cold runs all,
    /// warm replays `c` and skips its whole upstream subgraph; flipping
    /// `a`'s config invalidates everything downstream.
    #[test]
    fn planner_skips_upstream_subgraph_and_invalidates_on_config_change() {
        let dir = tmpdir("planner");
        let mut store = ArtifactStore::open(&dir).unwrap();
        let deps: [&[usize]; 3] = [&[], &[0], &[1]];
        let infos = |labels: [&'static str; 3]| {
            labels
                .into_iter()
                .zip(deps)
                .map(|(label, deps)| TaskInfo { label, deps })
                .collect::<Vec<_>>()
        };
        let metas = |seed: u64| {
            (0..3)
                .map(|_| {
                    let mut e = Enc::new();
                    e.put_u64(seed);
                    CacheMeta::payload::<u64>(1, e.into_bytes(), false)
                })
                .collect::<Vec<_>>()
        };
        let info = infos(["a", "b", "c"]);

        let cold = plan_run(&mut store, &info, &metas(7), &[2], false, false);
        assert_eq!(cold.hits, 0);
        assert!(cold
            .tasks
            .iter()
            .all(|t| matches!(t.decision, Decision::Run)));
        // Simulate the post-run store step.
        for (t, v) in cold.tasks.iter().zip([10u64, 20, 30]) {
            let env = Envelope {
                payload: Some(btcpart::experiments::codec::encode_value(&v)),
                effects: ObsEffects::default(),
            };
            store.insert(t.key, env.encode());
        }
        store.flush().unwrap();

        let warm = plan_run(&mut store, &info, &metas(7), &[2], false, false);
        assert_eq!(warm.hits, 3);
        assert!(matches!(warm.tasks[0].decision, Decision::SkipSilent));
        assert!(matches!(warm.tasks[1].decision, Decision::SkipSilent));
        match &warm.tasks[2].decision {
            Decision::Replay { value, .. } => {
                let out = value.lock().unwrap().take().unwrap();
                assert_eq!(*out.downcast_ref::<u64>().unwrap(), 30);
            }
            _ => panic!("required task with a stored payload must replay"),
        }

        // A config flip (new seed) misses everything downstream.
        let flipped = plan_run(&mut store, &info, &metas(8), &[2], false, false);
        assert_eq!(flipped.hits, 0);

        // Corrupting one payload (wrong type bytes) evicts and reruns
        // that subgraph; the unaffected dependency keys still resolve.
        let key_c = warm.tasks[2].key;
        store.evict(key_c);
        let partial = plan_run(&mut store, &info, &metas(7), &[2], false, false);
        assert!(matches!(partial.tasks[2].decision, Decision::Run));
        assert_eq!(
            partial.tasks[2].status,
            TaskCacheStatus::Miss,
            "evicted required task recomputes"
        );
        // c now needs b's value: b replays from its stored payload.
        assert!(matches!(partial.tasks[1].decision, Decision::Replay { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn planner_runs_observable_misses_and_replays_volatile_effects() {
        let dir = tmpdir("volatile");
        let mut store = ArtifactStore::open(&dir).unwrap();
        // day_crawl (volatile, observable) -> fig6 (payload, required).
        let info = vec![
            TaskInfo {
                label: "day_crawl",
                deps: &[],
            },
            TaskInfo {
                label: "fig6",
                deps: &[0],
            },
        ];
        let metas = vec![
            CacheMeta::volatile(1, vec![], true),
            CacheMeta::payload::<u64>(1, vec![], false),
        ];

        let cold = plan_run(&mut store, &info, &metas, &[1], true, false);
        assert!(cold
            .tasks
            .iter()
            .all(|t| matches!(t.decision, Decision::Run)));
        // Store both: the crawl's envelope is effects-only.
        let reg = Registry::new();
        reg.add("net.day.samples", 5);
        let crawl_env = Envelope {
            payload: None,
            effects: ObsEffects::capture(&reg, &TraceHub::new()),
        };
        store.insert(cold.tasks[0].key, crawl_env.encode());
        let fig_env = Envelope {
            payload: Some(btcpart::experiments::codec::encode_value(&9u64)),
            effects: ObsEffects::default(),
        };
        store.insert(cold.tasks[1].key, fig_env.encode());
        store.flush().unwrap();

        // Warm: fig6 replays, the crawl's effects replay without a run.
        let warm = plan_run(&mut store, &info, &metas, &[1], true, false);
        assert_eq!(warm.hits, 2);
        match &warm.tasks[0].decision {
            Decision::ReplayEffects { effects } => {
                let fresh = Registry::new();
                effects.replay(Some(&fresh), None);
                assert_eq!(fresh.snapshot().counter("net.day.samples"), 5);
            }
            _ => panic!("volatile hit with effects must replay them"),
        }

        // Evict fig6: it must run live, which forces the volatile crawl
        // to run too (its value is needed) even though its key hits.
        store.evict(warm.tasks[1].key);
        let partial = plan_run(&mut store, &info, &metas, &[1], true, false);
        assert!(matches!(partial.tasks[1].decision, Decision::Run));
        assert!(matches!(partial.tasks[0].decision, Decision::Run));
        assert_eq!(partial.tasks[0].status, TaskCacheStatus::Live);

        // Evict the observable crawl instead (fig6 still cached): with
        // metrics on it must run live to regenerate its effects.
        let mut store2 = ArtifactStore::open(&dir).unwrap();
        store2.evict(warm.tasks[0].key);
        let regen = plan_run(&mut store2, &info, &metas, &[1], true, false);
        assert!(matches!(regen.tasks[0].decision, Decision::Run));
        assert!(matches!(regen.tasks[1].decision, Decision::Replay { .. }));
        // With observability off the same miss is skipped silently
        // (nothing to regenerate) — but the keys differ, so re-plan
        // against a fresh store with obs off.
        let dir2 = tmpdir("volatile-off");
        let mut store3 = ArtifactStore::open(&dir2).unwrap();
        let off = plan_run(&mut store3, &info, &metas, &[1], false, false);
        assert!(matches!(off.tasks[1].decision, Decision::Run));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }
}
