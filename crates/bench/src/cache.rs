//! Content-addressed incremental recomputation for the artifact
//! pipeline (`repro --cache DIR`).
//!
//! # Units
//!
//! The cache stores one entry per *unit*: an artifact job (all of its
//! DAG tasks together) or a shared build (`static`, `day_crawl`,
//! `general_crawl`). A hit skips every task of the unit.
//!
//! # Keys
//!
//! Every unit gets a 128-bit key derived — Merkle style — from
//! everything that can change its output:
//!
//! * the key-schema tag [`KEY_SCHEMA`] and the crate version, so a new
//!   build or a format change silently invalidates old stores;
//! * the observability flags (`--metrics` / `--trace` on or off),
//!   because a traced unit's stored effects differ from an untraced
//!   one's;
//! * the unit id and a per-family logic version (bumped when the
//!   code changes behaviour);
//! * a canonical encoding of exactly the [`ReproConfig`](crate::ReproConfig)
//!   fields the unit's tasks read (`f64` values normalized via
//!   [`canonical_f64_bits`], so `-0.0` and every NaN hash alike); and
//! * the key of the shared build it reads — flipping `--seed`
//!   invalidates the crawls and every job that reads them, while the
//!   closed-form jobs that read no seed still hit.
//!
//! Keys are derived from *inputs*, not from hashed outputs: the planner
//! can therefore decide hits before running anything and skip a hit
//! job's shared build. The store separately hashes each blob's bytes,
//! so corruption is detected on read (the entry is evicted and the unit
//! recomputed — never a panic).
//!
//! # Envelopes
//!
//! A cached unit stores an [`Envelope`]: a job's artifacts (via the
//! [`Stable`] codecs) plus the *observable effects* of all its tasks —
//! the metric counters, gauges, histograms, span counts and trace
//! streams they recorded while running. Replaying a hit injects those
//! effects, so a warm run's `metrics.json` and `trace.bin` are
//! byte-identical to a cold run's. A shared build's value (live
//! simulation state, the snapshot and the crawls) is not persisted: its
//! envelope carries effects only, and a job that misses forces the
//! build it reads to run live.
//!
//! # Store layout
//!
//! `DIR/blobs.bin` — a 16-byte header (`BPCBLOB1`, schema, reserved)
//! followed by `u64`-length-prefixed envelope blobs, append-only.
//! `DIR/index.bin` — `BPCIDX01`, schema, entry count, then fixed-width
//! rows `(key u128, offset u64, len u64, blob-hash u128)`, rewritten
//! atomically (temp file + rename) on flush.

use crate::pipeline::TraceHub;
use bp_obs::{Histogram, Registry, Tracer};
use btcpart::experiments::codec::{canonical_f64_bits, decode_value, Dec, Enc, Stable};
use btcpart::experiments::Artifact;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;
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

/// A 128-bit content-address for one unit's cached result.
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

/// The observable effects one unit's tasks recorded while running:
/// everything a replay must inject so a warm run's metrics and trace
/// exports are byte-identical to a cold run's. Span wall times are deliberately
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
    /// Captures everything recorded into a unit's scoped registry and
    /// trace hub. Volatile counters are excluded by design — they are
    /// run metadata (cache hit rates themselves), not unit effects.
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

    /// Injects the stored effects into the run's registry and trace
    /// hub — the replay half of [`capture`](Self::capture). Counters
    /// add, gauges take the maximum, histograms merge bucket-wise, and
    /// spans replay count-only (zero wall), exactly mirroring how a
    /// live unit's scoped registry is merged.
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

/// One cached unit: the optional canonical payload plus the unit's
/// observable effects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Envelope {
    /// A job's canonically encoded artifacts ([`Stable`]); `None` for a
    /// shared build, whose value cannot be persisted.
    pub payload: Option<Vec<u8>>,
    /// The effects to replay when the unit is skipped.
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
    /// empty and every unit recomputes — never an error for the caller
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

/// How the planner disposed of one unit.
pub(crate) enum Decision {
    /// Run the unit's tasks.
    Run,
    /// Skip the unit's tasks and inject its stored effects (empty when
    /// nothing was stored).
    Replay {
        /// A hit job's stored artifacts; `None` for a shared build.
        artifacts: Option<Vec<Artifact>>,
        /// Effects to inject at merge time.
        effects: ObsEffects,
    },
}

/// Cache outcome of one unit, reported on each of its tasks' BENCH rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskCacheStatus {
    /// Key found; the stored result was used (tasks skipped).
    Hit,
    /// Key not found (or entry corrupt): the result was computed.
    Miss,
    /// Key found but the unit ran anyway — a shared build whose value a
    /// missing job needed live.
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

/// Cache totals of one pipeline run, surfaced in the
/// [`RunReport`](crate::pipeline::RunReport) and `BENCH_pipeline.json`.
/// Task counts: every task reports its unit's outcome.
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

/// One cache unit as the planner sees it: a job, whose entry holds its
/// artifacts plus the effects of all its tasks, or a shared build,
/// whose entry holds effects only (its value is live simulation state).
pub(crate) struct Unit {
    /// Job id, or `static` / `day_crawl` / `general_crawl`.
    pub id: &'static str,
    /// Bumped when the unit's code changes behaviour without a config
    /// or input change.
    pub logic_version: u32,
    /// Canonical encoding of exactly the config fields the unit's tasks
    /// read (the input's key carries everything upstream).
    pub config_bytes: Vec<u8>,
    /// The shared-build unit this unit reads; always a lower index.
    pub input: Option<usize>,
    /// A job rather than a shared build.
    pub job: bool,
}

/// One unit's plan entry.
pub(crate) struct UnitPlan {
    /// The unit's derived cache key.
    pub key: Key,
    /// Hit / miss / live, for reporting.
    pub status: TaskCacheStatus,
    /// What the executor should do.
    pub decision: Decision,
}

/// A stored entry's decoded parts: a job's artifacts and the effects.
fn decode_entry(blob: &[u8], job: bool) -> Result<(Option<Vec<Artifact>>, ObsEffects), String> {
    let env = Envelope::decode(blob)?;
    let artifacts = match (job, env.payload) {
        (false, _) => None,
        (true, Some(bytes)) => Some(decode_value(&bytes)?),
        (true, None) => return Err("job entry without artifacts".to_string()),
    };
    Ok((artifacts, env.effects))
}

/// Derives every unit's key, resolves entries from the store, and
/// decides per unit whether to run or replay it. Units are ordered so
/// an input precedes its readers; `metrics_on` / `trace_on` are the
/// run's observability flags (folded into the keys, and deciding
/// whether a shared build with no entry runs to regenerate its effects).
pub(crate) fn plan_run(
    store: &mut ArtifactStore,
    units: &[Unit],
    metrics_on: bool,
    trace_on: bool,
) -> Vec<UnitPlan> {
    // Forward pass: Merkle keys, then eager entry reads. A corrupt entry
    // — bad envelope, or a job whose artifacts do not decode — is
    // evicted and counts as missing.
    let mut keys: Vec<Key> = Vec::with_capacity(units.len());
    let mut entries = Vec::with_capacity(units.len());
    for unit in units {
        let mut kb = KeyBuilder::new();
        kb.push_str(KEY_SCHEMA);
        kb.push_str(env!("CARGO_PKG_VERSION"));
        kb.push_u64(metrics_on as u64);
        kb.push_u64(trace_on as u64);
        kb.push_str(unit.id);
        kb.push_u64(unit.logic_version as u64);
        kb.push_bytes(&unit.config_bytes);
        if let Some(input) = unit.input {
            kb.push_key(keys[input]);
        }
        let key = kb.finish();
        let entry = store
            .lookup(key)
            .and_then(|blob| match decode_entry(&blob, unit.job) {
                Ok(entry) => Some(entry),
                Err(_) => {
                    store.evict(key);
                    None
                }
            });
        keys.push(key);
        entries.push(entry);
    }

    // Reverse pass: every reader is decided before its input. A job
    // runs when its entry is missing; a shared build runs when a running
    // unit reads its value or, with metrics or trace on, to regenerate
    // effects it has no entry for.
    let obs_on = metrics_on || trace_on;
    let mut needed = vec![false; units.len()];
    let mut plans = Vec::with_capacity(units.len());
    for (i, unit) in units.iter().enumerate().rev() {
        let entry = entries[i].take();
        let stored = entry.is_some();
        let run = if unit.job {
            !stored
        } else {
            needed[i] || (!stored && obs_on)
        };
        let (status, decision) = match entry {
            _ if run => {
                if let Some(input) = unit.input {
                    needed[input] = true;
                }
                let status = if stored {
                    TaskCacheStatus::Live
                } else {
                    TaskCacheStatus::Miss
                };
                (status, Decision::Run)
            }
            Some((artifacts, effects)) => (
                TaskCacheStatus::Hit,
                Decision::Replay { artifacts, effects },
            ),
            None => (
                TaskCacheStatus::Miss,
                Decision::Replay {
                    artifacts: None,
                    effects: ObsEffects::default(),
                },
            ),
        };
        plans.push(UnitPlan {
            key: keys[i],
            status,
            decision,
        });
    }
    plans.reverse();
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcpart::experiments::codec::encode_value;

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
        hub.set_stream(crate::pipeline::STREAM_RANK_DAY, "day", t);

        let env = Envelope {
            payload: Some(b"payload-bytes".to_vec()),
            effects: ObsEffects::capture(&reg, &hub),
        };
        let back = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
        assert_ne!(back.effects, ObsEffects::default());

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
        let units = [job("a", None)];
        let cold = plan_run(&mut store, &units, false, false);

        let hub = TraceHub::new();
        let mut t = Tracer::new();
        t.record(bp_obs::TraceKind::Mine, 1, 0, 1, 1);
        hub.set_stream(crate::pipeline::STREAM_RANK_DAY, "day", t);
        let mut blob = Envelope {
            payload: Some(encode_value(&artifacts("a"))),
            effects: ObsEffects::capture(&Registry::new(), &hub),
        }
        .encode();
        blob[0] = ENVELOPE_VERSION - 1;
        assert!(Envelope::decode(&blob)
            .unwrap_err()
            .contains("envelope version 1"));
        store.insert(cold[0].key, blob);
        store.flush().unwrap();
        assert_eq!(store.len(), 1);

        let warm = plan_run(&mut store, &units, false, false);
        assert_eq!(warm[0].status, TaskCacheStatus::Miss);
        assert!(matches!(warm[0].decision, Decision::Run));
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

    /// A job unit `id` reading shared unit `input`, keyed on nothing else.
    fn job(id: &'static str, input: Option<usize>) -> Unit {
        Unit {
            id,
            logic_version: 1,
            config_bytes: Vec::new(),
            input,
            job: true,
        }
    }

    /// A shared-build unit `id` whose key folds in `seed`.
    fn shared(id: &'static str, seed: u64, input: Option<usize>) -> Unit {
        let mut e = Enc::new();
        e.put_u64(seed);
        Unit {
            id,
            logic_version: 1,
            config_bytes: e.into_bytes(),
            input,
            job: false,
        }
    }

    fn artifacts(id: &str) -> Vec<Artifact> {
        vec![Artifact::new(id, "title", format!("{id} body"))]
    }

    /// Stages the entry a finished run stores for a unit that ran and
    /// recorded nothing.
    fn store_entry(store: &mut ArtifactStore, key: Key, job: Option<&str>) {
        let payload = job.map(|id| encode_value(&artifacts(id)));
        let effects = ObsEffects::default();
        store.insert(key, Envelope { payload, effects }.encode());
    }

    fn ran(plan: &[UnitPlan]) -> Vec<bool> {
        plan.iter()
            .map(|u| matches!(u.decision, Decision::Run))
            .collect()
    }

    fn statuses(plan: &[UnitPlan]) -> Vec<&'static str> {
        plan.iter().map(|u| u.status.as_str()).collect()
    }

    /// A shared build `a` read by a job `c`: cold runs both, warm
    /// replays `c`'s stored artifacts and skips `a`; flipping `a`'s
    /// config invalidates both; evicting `c` reruns it and runs `a`
    /// live for its value.
    #[test]
    fn planner_skips_upstream_subgraph_and_invalidates_on_config_change() {
        let dir = tmpdir("planner");
        let mut store = ArtifactStore::open(&dir).unwrap();
        let units = |seed| [shared("a", seed, None), job("c", Some(0))];

        let cold = plan_run(&mut store, &units(7), false, false);
        assert_eq!(ran(&cold), [true, true]);
        assert_eq!(statuses(&cold), ["miss", "miss"]);
        // Simulate the post-run store step.
        store_entry(&mut store, cold[0].key, None);
        store_entry(&mut store, cold[1].key, Some("c"));
        store.flush().unwrap();

        let warm = plan_run(&mut store, &units(7), false, false);
        assert_eq!(statuses(&warm), ["hit", "hit"]);
        assert!(matches!(
            &warm[0].decision,
            Decision::Replay { artifacts: None, effects } if *effects == ObsEffects::default()
        ));
        match &warm[1].decision {
            Decision::Replay {
                artifacts: Some(replayed),
                ..
            } => assert_eq!(*replayed, artifacts("c")),
            _ => panic!("a job with a stored entry must replay its artifacts"),
        }

        // A config flip (new seed) misses the build and its reader.
        let flipped = plan_run(&mut store, &units(8), false, false);
        assert_eq!(ran(&flipped), [true, true]);
        assert_eq!(statuses(&flipped), ["miss", "miss"]);

        // Evicting the job reruns it, and the build it reads runs live
        // even though its own key still hits.
        store.evict(warm[1].key);
        let partial = plan_run(&mut store, &units(7), false, false);
        assert_eq!(ran(&partial), [true, true]);
        assert_eq!(statuses(&partial), ["live", "miss"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn planner_runs_observable_misses_and_replays_volatile_effects() {
        let dir = tmpdir("volatile");
        let mut store = ArtifactStore::open(&dir).unwrap();
        // day_crawl -> general_crawl -> fig6_general, the shared builds
        // effects-only and observable.
        let units = [
            shared("day_crawl", 1, None),
            shared("general_crawl", 1, Some(0)),
            job("fig6_general", Some(1)),
        ];

        let cold = plan_run(&mut store, &units, true, false);
        assert_eq!(ran(&cold), [true, true, true]);
        let reg = Registry::new();
        reg.add("net.day.samples", 5);
        let effects = ObsEffects::capture(&reg, &TraceHub::new());
        let crawl = Envelope {
            payload: None,
            effects,
        };
        store.insert(cold[0].key, crawl.encode());
        store_entry(&mut store, cold[1].key, None);
        store_entry(&mut store, cold[2].key, Some("fig6_general"));
        store.flush().unwrap();

        // Warm: the job replays, the crawls' effects replay without a run.
        let warm = plan_run(&mut store, &units, true, false);
        assert_eq!(ran(&warm), [false, false, false]);
        assert_eq!(statuses(&warm), ["hit", "hit", "hit"]);
        match &warm[0].decision {
            Decision::Replay {
                artifacts: None,
                effects,
            } => {
                let fresh = Registry::new();
                effects.replay(Some(&fresh), None);
                assert_eq!(fresh.snapshot().counter("net.day.samples"), 5);
            }
            _ => panic!("a shared build with stored effects must replay them"),
        }

        // Evict the job: it reruns, which runs both crawls live.
        store.evict(warm[2].key);
        let partial = plan_run(&mut store, &units, true, false);
        assert_eq!(ran(&partial), [true, true, true]);
        assert_eq!(statuses(&partial), ["live", "live", "miss"]);

        // Evict the general crawl instead (the job still cached): with
        // metrics on it runs to regenerate its effects, and the day crawl
        // runs live because the general crawl continues its simulation.
        let mut store = ArtifactStore::open(&dir).unwrap();
        store.evict(warm[1].key);
        let regen = plan_run(&mut store, &units, true, false);
        assert_eq!(ran(&regen), [true, true, false]);
        assert_eq!(statuses(&regen), ["live", "miss", "hit"]);

        // With observability off the same miss has nothing to
        // regenerate: the crawls are skipped and the job replays. The
        // keys differ, so this plans over a store of obs-off entries.
        let dir2 = tmpdir("volatile-off");
        let mut store = ArtifactStore::open(&dir2).unwrap();
        let off = plan_run(&mut store, &units, false, false);
        assert_eq!(ran(&off), [true, true, true]);
        store_entry(&mut store, off[2].key, Some("fig6_general"));
        store.flush().unwrap();
        let off = plan_run(&mut store, &units, false, false);
        assert_eq!(ran(&off), [false, false, false]);
        assert_eq!(statuses(&off), ["miss", "miss", "hit"]);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }
}
