//! No decoder panics on hostile bytes. Every reader of bytes that come
//! from disk or the wire — trace files, the artifact store, cache
//! envelopes and the payloads inside them, the query protocol — returns
//! `Ok` or `Err` for any input:
//! fully arbitrary bytes, and structured inputs that pass the magic and
//! schema checks and then carry arbitrary counts, offsets and lengths.
//! A panic, or an allocation abort, fails the test.

use bp_bench::cache::{fnv128, ArtifactStore, Envelope, Key, ObsEffects, STORE_SCHEMA};
use bp_bench::pipeline::{TraceHub, STREAM_RANK_DAY};
use bp_serve::wire::{decode_request, decode_response, encode_request, encode_response};
use bp_serve::Query;
use btcpart::experiments::codec::{decode_value, encode_value, Enc, Stable};
use btcpart::experiments::Artifact;
use btcpart::obs::trace::{decode_records, TraceKind, MAGIC};
use btcpart::obs::{Histogram, Registry, Tracer};
use proptest::prelude::*;
use std::sync::Arc;

/// Arbitrary bytes, up to 256 of them.
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(any::<u8>(), 0..256)
}

/// A count, offset or length field: small values, the values that
/// overflow a size computation, and arbitrary 64-bit values.
fn field() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        Just(1u64 << 40),
        Just(1u64 << 59),
        Just(u64::MAX),
        any::<u64>()
    ]
}

/// `valid` with the 8 bytes at `at` (modulo its length, clipped at the
/// end) overwritten by `value`: a well-formed encoding with one
/// corrupted count, offset or length.
fn patch(mut valid: Vec<u8>, at: usize, value: u64) -> Vec<u8> {
    if !valid.is_empty() {
        let at = at % valid.len();
        let end = (at + 8).min(valid.len());
        valid[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
    }
    valid
}

/// Opens the store in `dir` and looks up `keys` (decoding every blob
/// that comes back as an envelope).
fn open_and_lookup(dir: &std::path::Path, keys: &[u128]) {
    let mut store = ArtifactStore::open(dir).unwrap();
    for &key in keys {
        if let Some(blob) = store.lookup(Key(key)) {
            let _ = Envelope::decode(&blob);
        }
    }
}

/// A well-formed envelope carrying a payload, counters, a gauge, a
/// histogram, a span count and a trace stream.
fn sample_envelope() -> Vec<u8> {
    let reg = Registry::new();
    reg.add("net.day.samples", 42);
    reg.max_gauge("net.day.peak", 1.5);
    reg.observe("net.day.lag", &[10, 100], 55);
    reg.record_span(
        "pipeline.shared.day_crawl",
        std::time::Duration::from_millis(3),
    );
    let hub = TraceHub::new();
    let mut tracer = Tracer::new();
    for i in 0..3 {
        tracer.record(TraceKind::Mine, i, 0, i, i + 1);
    }
    hub.set_stream(STREAM_RANK_DAY, "day", tracer);
    Envelope {
        payload: Some(b"payload".to_vec()),
        effects: ObsEffects::capture(&reg, &hub),
    }
    .encode()
}

/// Valid encodings of every `experiments::codec` payload type: a job's
/// artifacts and the parts of its stored effects.
fn sample_payloads() -> Vec<Vec<u8>> {
    let artifact = Artifact::new("fig6", "Lagging nodes", "body".to_string())
        .with_csv("fig6.csv", "t,lag\n0,1\n".to_string());
    let mut histogram = Histogram::with_bounds(&[10, 100]);
    for value in [5, 50, 500] {
        histogram.record(value);
    }
    let mut tracer = Tracer::new();
    for i in 0..3 {
        tracer.record(TraceKind::Mine, i, 0, i, i + 1);
    }
    vec![
        encode_value(&vec![artifact.clone(), artifact.clone()]),
        encode_value(&artifact),
        encode_value(&histogram),
        encode_value(&tracer),
    ]
}

/// Decodes `bytes` as every payload type; the results are irrelevant.
fn decode_as_every_payload(bytes: &[u8]) {
    let _ = decode_value::<Vec<Artifact>>(bytes);
    let _ = decode_value::<Artifact>(bytes);
    let _ = decode_value::<Histogram>(bytes);
    let _ = decode_value::<Tracer>(bytes);
}

#[test]
fn histogram_counts_that_overflow_are_rejected() {
    // Two buckets holding `u64::MAX` and 2 sum to 1 once wrapped, so a
    // wrapping sum would accept this histogram with `total` 1.
    let mut e = Enc::new();
    vec![10u64, 100].encode(&mut e);
    vec![u64::MAX, 2].encode(&mut e);
    for field in [0u64, 1, 0, 0] {
        e.put_u64(field); // overflow, total, sum, max
    }
    assert!(decode_value::<Histogram>(&e.into_bytes()).is_err());
}

fn sample_queries() -> Vec<Query> {
    vec![
        Query::PartitionCost { target_as: 24940 },
        Query::BlockawareTradeoff {
            threshold_secs: 600,
            lambda: 1.0,
        },
        Query::Eclipse {
            target_as: 16276,
            prefixes: 3,
            cascade: true,
        },
        Query::MinTiming {
            min_blocks: 2,
            window_samples: 5,
            lambda: 0.5,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, and a valid `BPTRACE1` header with an arbitrary
    /// record count over a body of whole but arbitrary records whose
    /// number may or may not match. The same input under the retired
    /// `BPTRACE2` magic is not a trace file.
    #[test]
    fn trace_decoders_never_panic(
        raw in bytes(),
        count in field(),
        exact in any::<bool>(),
        records in 0usize..6,
        fill in collection::vec(any::<u8>(), 1..64),
    ) {
        let mut hostile = MAGIC.to_vec();
        let count = if exact { records as u64 } else { count };
        hostile.extend_from_slice(&count.to_le_bytes());
        hostile.extend(fill.iter().cycle().take(records * 32));
        let _ = decode_records(&raw);
        let _ = decode_records(&hostile);
        hostile[..8].copy_from_slice(b"BPTRACE2");
        prop_assert!(decode_records(&hostile).unwrap_err().contains("bad magic"));
    }

    /// Arbitrary files, and a well-formed store of up to four entries
    /// with one row's index offset, length or hash, its blob length
    /// prefix, or its length in both places replaced by an arbitrary
    /// value, and the blob file optionally cut.
    #[test]
    fn store_never_panics(
        raw_blobs in bytes(),
        raw_index in bytes(),
        payloads in collection::vec(bytes(), 1..5),
        target in 0usize..5,
        row in any::<usize>(),
        value in field(),
        cut in prop_oneof![Just(None), any::<usize>().prop_map(Some)],
    ) {
        let mut blobs = b"BPCBLOB1".to_vec();
        blobs.extend_from_slice(&STORE_SCHEMA.to_le_bytes());
        blobs.extend_from_slice(&0u32.to_le_bytes());
        let mut rows = Vec::new();
        for payload in &payloads {
            rows.push((blobs.len() as u64, payload.len() as u64, fnv128(payload)));
            blobs.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            blobs.extend_from_slice(payload);
        }
        let row = row % rows.len();
        let prefix_at = rows[row].0 as usize;
        match target {
            0 => rows[row].0 = value,
            1 => rows[row].1 = value,
            2 => rows[row].2 = value as u128,
            3 => blobs[prefix_at..prefix_at + 8].copy_from_slice(&value.to_le_bytes()),
            _ => {
                // Index and blob prefix agree on a length the file lacks.
                rows[row].1 = value;
                blobs[prefix_at..prefix_at + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
        if let Some(cut) = cut {
            blobs.truncate(cut % (blobs.len() + 1));
        }
        let mut index = b"BPCIDX01".to_vec();
        index.extend_from_slice(&STORE_SCHEMA.to_le_bytes());
        index.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for (key, (offset, len, hash)) in rows.iter().enumerate() {
            index.extend_from_slice(&(key as u128).to_le_bytes());
            index.extend_from_slice(&offset.to_le_bytes());
            index.extend_from_slice(&len.to_le_bytes());
            index.extend_from_slice(&hash.to_le_bytes());
        }
        let dir = std::env::temp_dir().join(format!("bp_hostile_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let keys: Vec<u128> = (0..rows.len() as u128).collect();
        for (blobs, index) in [(raw_blobs, raw_index), (blobs, index)] {
            std::fs::write(dir.join("blobs.bin"), &blobs).unwrap();
            std::fs::write(dir.join("index.bin"), &index).unwrap();
            open_and_lookup(&dir, &keys);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_decode_never_panics(
        raw in bytes(),
        at in any::<usize>(),
        value in field(),
        cut in any::<usize>(),
    ) {
        let _ = Envelope::decode(&raw);
        let valid = sample_envelope();
        let _ = Envelope::decode(&patch(valid.clone(), at, value));
        let _ = Envelope::decode(&valid[..cut % (valid.len() + 1)]);
    }

    /// Arbitrary bytes, and a valid encoding of each payload type with
    /// one 8-byte field overwritten or the buffer cut, decoded as every
    /// payload type.
    #[test]
    fn codec_payloads_never_panic(
        raw in bytes(),
        at in any::<usize>(),
        value in field(),
        cut in any::<usize>(),
    ) {
        decode_as_every_payload(&raw);
        for valid in sample_payloads() {
            decode_as_every_payload(&patch(valid.clone(), at, value));
            decode_as_every_payload(&valid[..cut % (valid.len() + 1)]);
        }
    }

    #[test]
    fn wire_decoders_never_panic(
        raw in bytes(),
        tag in 0u8..6,
        at in any::<usize>(),
        value in field(),
        payloads in collection::vec(bytes(), 0..4),
    ) {
        let _ = decode_request(&raw);
        let _ = decode_response(&raw);
        let _ = Query::decode(&raw);
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&raw);
        let _ = Query::decode(&tagged);

        let request = encode_request(&sample_queries());
        let _ = decode_request(&patch(request, at, value));
        let payloads: Vec<Arc<Vec<u8>>> = payloads.into_iter().map(Arc::new).collect();
        let _ = decode_response(&patch(encode_response(&payloads), at, value));
    }
}
