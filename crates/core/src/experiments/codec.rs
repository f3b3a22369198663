//! Canonical byte encodings for cacheable job outputs.
//!
//! The bench pipeline's content-addressed cache persists each job's
//! artifacts and the metric and trace effects of its tasks, and replays
//! them bit-identically on later runs, which needs an
//! encoding with no room for drift:
//!
//! * fixed field order — every [`Stable`] impl writes its fields in
//!   declaration order, always;
//! * explicit little-endian integers, lengths prefixed as LE `u64`;
//! * `f64` payload values round-trip through their raw IEEE-754 bits
//!   ([`f64::to_bits`]/[`f64::from_bits`]), so a replayed value is the
//!   *same bits* the live computation produced — including negative
//!   zero and NaN payloads;
//! * cache *keys*, in contrast, hash [`canonical_f64_bits`], which
//!   normalizes every NaN to one quiet bit pattern and `-0.0` to
//!   `+0.0`, so semantically equal configs always produce equal keys.
//!
//! The format is internal to the cache (the key scheme folds in a
//! schema version, so format changes simply invalidate old stores),
//! but decoding is still defensive: a corrupted or truncated buffer
//! yields an error, never a panic or an over-allocation.

use bp_obs::trace::{TraceRecord, Tracer, RECORD_BYTES};
use bp_obs::Histogram;

use super::Artifact;

/// The canonical bit pattern for an `f64` in *key* position: every NaN
/// collapses to the standard quiet NaN and `-0.0` to `+0.0`. Do not use
/// this for payload values — payloads must round-trip exactly.
pub fn canonical_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else if v == 0.0 {
        0 // collapses -0.0
    } else {
        v.to_bits()
    }
}

/// Canonical byte writer: explicit little-endian, fixed field order.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a LE `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a LE `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its raw LE bit pattern (exact round-trip; see
    /// the module docs for why payloads are *not* normalized).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

/// Canonical byte reader over an [`Enc`]-produced buffer. Every `take_*`
/// checks bounds and returns an error instead of panicking, so corrupt
/// cache entries surface as misses, not crashes.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a LE `u32`.
    pub fn take_u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a LE `u64`.
    pub fn take_u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a length written as a LE `u64`, rejecting values wider than
    /// the platform's `usize`.
    pub fn take_usize(&mut self) -> Result<usize, String> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| format!("usize value {v} exceeds platform width"))
    }

    /// Reads an `f64` from its raw LE bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, String> {
        let len = self.take_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8: {e}"))
    }

    /// Reads a length-prefixed byte blob.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, String> {
        let len = self.take_usize()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length prefix for `count` items of at least
    /// `min_item_bytes` each, rejecting counts the remaining buffer
    /// cannot possibly hold (keeps corrupt lengths from over-allocating).
    fn take_count(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let count = self.take_usize()?;
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(format!(
                "corrupt length: {count} items cannot fit in {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(count)
    }

    /// Asserts the buffer was fully consumed.
    pub fn finish(self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes after decode", self.remaining()));
        }
        Ok(())
    }
}

/// A type with a canonical, exactly-round-tripping byte encoding.
///
/// Implementations must write fields in a fixed order and read them
/// back in the same order; `decode(encode(x)) == x` bit-for-bit is the
/// contract the cache's byte-identity guarantee rests on.
pub trait Stable: Sized {
    /// Appends the canonical encoding of `self`.
    fn encode(&self, e: &mut Enc);
    /// Decodes one value, consuming exactly what [`encode`](Self::encode)
    /// wrote.
    ///
    /// # Errors
    ///
    /// Returns a message on truncation or malformed content.
    fn decode(d: &mut Dec) -> Result<Self, String>;
}

/// Encodes a value to a standalone byte buffer.
pub fn encode_value<T: Stable>(value: &T) -> Vec<u8> {
    let mut e = Enc::new();
    value.encode(&mut e);
    e.into_bytes()
}

/// Decodes a standalone byte buffer produced by [`encode_value`],
/// requiring full consumption.
///
/// # Errors
///
/// Returns a message on truncation, malformed content, or trailing bytes.
pub fn decode_value<T: Stable>(bytes: &[u8]) -> Result<T, String> {
    let mut d = Dec::new(bytes);
    let value = T::decode(&mut d)?;
    d.finish()?;
    Ok(value)
}

impl Stable for u32 {
    fn encode(&self, e: &mut Enc) {
        e.put_u32(*self);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        d.take_u32()
    }
}

impl Stable for u64 {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(*self);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        d.take_u64()
    }
}

impl Stable for f64 {
    fn encode(&self, e: &mut Enc) {
        e.put_f64(*self);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        d.take_f64()
    }
}

impl Stable for String {
    fn encode(&self, e: &mut Enc) {
        e.put_str(self);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        d.take_str()
    }
}

impl<T: Stable> Stable for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.len() as u64);
        for item in self {
            item.encode(e);
        }
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let count = d.take_count(1)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

macro_rules! stable_tuple {
    ($(($($t:ident/$i:tt),+))*) => {$(
        impl<$($t: Stable),+> Stable for ($($t,)+) {
            fn encode(&self, e: &mut Enc) {
                $(self.$i.encode(e);)+
            }
            fn decode(d: &mut Dec) -> Result<Self, String> {
                Ok(($($t::decode(d)?,)+))
            }
        }
    )*};
}
stable_tuple! {
    (A/0, B/1)
    (A/0, B/1, C/2)
}

impl Stable for Artifact {
    fn encode(&self, e: &mut Enc) {
        e.put_str(&self.id);
        e.put_str(&self.title);
        e.put_str(&self.body);
        self.csv.encode(e);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        Ok(Artifact {
            id: d.take_str()?,
            title: d.take_str()?,
            body: d.take_str()?,
            csv: Vec::decode(d)?,
        })
    }
}

impl Stable for Histogram {
    fn encode(&self, e: &mut Enc) {
        self.bounds().to_vec().encode(e);
        self.counts().to_vec().encode(e);
        e.put_u64(self.overflow());
        e.put_u64(self.total());
        e.put_u64(self.sum());
        e.put_u64(self.max());
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let bounds = Vec::decode(d)?;
        let counts = Vec::decode(d)?;
        let overflow = d.take_u64()?;
        let total = d.take_u64()?;
        let sum = d.take_u64()?;
        let max = d.take_u64()?;
        Histogram::from_parts(bounds, counts, overflow, total, sum, max)
    }
}

impl Stable for Tracer {
    fn encode(&self, e: &mut Enc) {
        let records = self.records();
        e.put_u64(records.len() as u64);
        for r in records {
            let start = e.buf.len();
            r.encode_into(&mut e.buf);
            debug_assert_eq!(e.buf.len() - start, RECORD_BYTES);
        }
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let count = d.take_count(RECORD_BYTES)?;
        let mut records = Vec::with_capacity(count);
        for seq in 0..count {
            let chunk = d.take(RECORD_BYTES)?;
            records.push(TraceRecord::decode(chunk).map_err(|e| format!("record {seq}: {e}"))?);
        }
        Ok(Tracer::from_records(records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_exactly() {
        for v in [
            0.0f64,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
        ] {
            let back: f64 = decode_value(&encode_value(&v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "payload bits must survive");
        }
        let s = "naïve — ünïcode".to_string();
        assert_eq!(decode_value::<String>(&encode_value(&s)).unwrap(), s);
    }

    #[test]
    fn key_bits_normalize_payload_bits_do_not() {
        assert_eq!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
        assert_eq!(
            canonical_f64_bits(f64::from_bits(0x7ff8_0000_dead_beef)),
            canonical_f64_bits(f64::NAN)
        );
        assert_ne!((-0.0f64).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn artifact_round_trips() {
        let a = Artifact::new("table1", "Churn", "body\nrows".to_string())
            .with_csv("series", "x,y\n1,2\n".to_string());
        assert_eq!(decode_value::<Artifact>(&encode_value(&a)).unwrap(), a);
        let v = vec![a.clone(), Artifact::new("fig4", "t", String::new())];
        assert_eq!(decode_value::<Vec<Artifact>>(&encode_value(&v)).unwrap(), v);
    }

    #[test]
    fn corrupt_buffers_error_instead_of_panicking() {
        let bytes = encode_value(&vec![1u64, 2, 3]);
        // Truncation mid-element.
        assert!(decode_value::<Vec<u64>>(&bytes[..bytes.len() - 3]).is_err());
        // Absurd length prefix.
        let mut evil = bytes.clone();
        evil[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_value::<Vec<u64>>(&evil).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_value::<Vec<u64>>(&long).is_err());
    }
}
