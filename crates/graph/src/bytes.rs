//! Bounds-checked little-endian byte codec for binary artifacts.
//!
//! The persistent oracle snapshot (`spsep-oracle/v2`, see
//! `spsep_core::iov2`) and the daemon wire protocol (`spsep_serve`) are
//! hand-rolled binary formats — the workspace vendors no serde — so
//! they share the same two primitives:
//!
//! * [`ByteWriter`] — appends fixed-width little-endian fields to a
//!   growable buffer (writes are infallible);
//! * [`ByteReader`] — a cursor whose **every** read is bounds-checked
//!   and reports truncation as a typed [`SpsepError::Parse`] carrying
//!   the byte offset and the field being read. Snapshot loading must
//!   never panic on hostile bytes (the robustness contract of the
//!   workspace, DESIGN.md §6), and this cursor is where that guarantee
//!   bottoms out.
//!
//! Also home of the two hashes: [`WordHasher`] / [`fnv1a64_words`],
//! the checksum each snapshot section is guarded by, and the byte-wise
//! [`fnv1a64`] that answer digests and tests use.

use crate::error::SpsepError;

/// Seed of the FNV-1a 64-bit hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Multiplier of the FNV-1a 64-bit hash.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`, one byte at a time — the digest the
/// pinned-answer tests use (earlier snapshot builds also used it as the
/// section checksum). Not cryptographic; it guards against bit rot and
/// truncation, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Streaming FNV-1a over little-endian `u64` words — the per-section
/// checksum of the snapshot format.
///
/// The payload is cut into 8-byte little-endian words, the last one
/// zero-padded; each word is folded in as `h ← (h ⊕ word) · p` from the
/// FNV-1a 64 offset basis with the FNV-1a 64 prime `p`, and the payload's
/// byte length is folded in last the same way. Since multiplying by the
/// odd prime is a bijection, a change confined to any one word always
/// changes the sum. It costs one multiply per 8 bytes, where
/// [`fnv1a64`] costs one per byte.
///
/// [`WordHasher::update`] may be called with pieces of any length (a
/// section streamed from several slices): the sum depends only on the
/// concatenated bytes.
#[derive(Clone, Debug)]
pub struct WordHasher {
    h: u64,
    /// Bytes of the current, incomplete word.
    pending: [u8; 8],
    pending_len: usize,
    len: u64,
}

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher {
            h: FNV_OFFSET,
            pending: [0; 8],
            pending_len: 0,
            len: 0,
        }
    }
}

impl WordHasher {
    /// A hasher over the empty payload.
    pub fn new() -> WordHasher {
        WordHasher::default()
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Append `bytes` to the hashed payload.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(w);
            self.word(u64::from_le_bytes(raw));
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The checksum of everything appended so far.
    pub fn finish(&self) -> u64 {
        let mut tail = self.clone();
        if tail.pending_len > 0 {
            tail.pending[tail.pending_len..].fill(0);
            tail.word(u64::from_le_bytes(tail.pending));
        }
        tail.word(self.len);
        tail.h
    }
}

/// [`WordHasher`] checksum of one contiguous payload.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut h = WordHasher::new();
    h.update(bytes);
    h.finish()
}

/// Infallible little-endian serializer: appends fixed-width fields to a
/// growable `Vec<u8>`.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh, empty buffer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern, little-endian —
    /// weights round-trip **bit-exactly** (the differential suite
    /// compares via `to_bits`).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append raw bytes verbatim.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Consume the writer, yielding the buffer.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian cursor over untrusted bytes.
///
/// Every accessor returns [`SpsepError::Parse`] instead of panicking
/// when the buffer is too short — a truncated snapshot file surfaces as
/// a typed error naming the field and byte offset where the data ran
/// out.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Cursor over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the cursor has consumed the whole buffer.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn truncated(&self, what: &str) -> SpsepError {
        SpsepError::parse(format!(
            "truncated at byte {} of {} while reading {what}",
            self.pos,
            self.buf.len()
        ))
    }

    /// Take `len` raw bytes, naming `what` in the truncation error.
    pub fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], SpsepError> {
        if self.remaining() < len {
            return Err(self.truncated(what));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, SpsepError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, SpsepError> {
        let b = self.take(4, what)?;
        // take() returned exactly 4 bytes.
        let Ok(arr) = <[u8; 4]>::try_from(b) else {
            unreachable!("take(4) returned a non-4-byte slice")
        };
        Ok(u32::from_le_bytes(arr))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, SpsepError> {
        let b = self.take(8, what)?;
        // take() returned exactly 8 bytes.
        let Ok(arr) = <[u8; 8]>::try_from(b) else {
            unreachable!("take(8) returned a non-8-byte slice")
        };
        Ok(u64::from_le_bytes(arr))
    }

    /// Read a `u64` that will be used as an in-memory count: rejects
    /// values that do not fit `usize` *or* that are so large the
    /// declared payload could not possibly contain them (`min_bytes`
    /// per element) — the classic length-overrun attack on binary
    /// parsers, turned into a typed error instead of an OOM.
    pub fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, SpsepError> {
        let raw = self.u64(what)?;
        let n = usize::try_from(raw)
            .map_err(|_| SpsepError::parse(format!("{what} {raw} overflows usize")))?;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(SpsepError::parse(format!(
                "{what} declares {n} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, SpsepError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Assert the cursor consumed the whole buffer (payload framing
    /// check: a section with trailing garbage is corrupt).
    pub fn expect_exhausted(&self, what: &str) -> Result<(), SpsepError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(SpsepError::parse(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(1.5e300);
        w.bytes(b"tail");
        let buf = w.into_inner();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        // -0.0 must round-trip bit-exactly, not compare-equal to 0.0.
        assert_eq!(r.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("e").unwrap(), 1.5e300);
        assert_eq!(r.take(4, "f").unwrap(), b"tail");
        assert!(r.is_exhausted());
        r.expect_exhausted("frame").unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error_with_offset() {
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        let err = r.u32("field").unwrap_err();
        let s = err.to_string();
        assert!(matches!(err, SpsepError::Parse { .. }), "{s}");
        assert!(s.contains("byte 0"), "{s}");
        assert!(s.contains("field"), "{s}");
    }

    #[test]
    fn count_rejects_overrun_declarations() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // an absurd element count
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        assert!(r.count("edge count", 16).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut r = ByteReader::new(&[0u8; 5]);
        r.u8("x").unwrap();
        assert!(r.expect_exhausted("payload").is_err());
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        // Reference vectors of the FNV-1a 64 specification.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a64(b"snapshot"), fnv1a64(b"snapshos"));
    }

    #[test]
    fn word_hash_matches_its_definition() {
        // Values computed independently from the definition in the
        // `WordHasher` docs.
        assert_eq!(fnv1a64_words(b""), 0xaf63_bd4c_8601_b7df);
        assert_eq!(fnv1a64_words(b"a"), 0x089b_e307_b544_f397);
        assert_eq!(fnv1a64_words(b"snapshot"), 0x6231_1e74_6706_b25e);
        assert_eq!(
            fnv1a64_words(b"spsep-oracle snapshot v3"),
            0x9381_7bb4_50fa_3da9
        );
        // The length is folded in, so a zero tail is not invisible.
        assert_ne!(fnv1a64_words(b"a"), fnv1a64_words(b"a\0"));
    }

    #[test]
    fn word_hash_is_independent_of_how_the_payload_is_split() {
        let payload: Vec<u8> = (0..61u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = fnv1a64_words(&payload);
        for a in 0..=payload.len() {
            for b in a..=payload.len() {
                let mut h = WordHasher::new();
                h.update(&payload[..a]);
                h.update(&payload[a..b]);
                h.update(&payload[b..]);
                assert_eq!(h.finish(), whole, "split at {a}, {b}");
            }
        }
    }

    #[test]
    fn word_hash_sees_every_single_bit_flip() {
        let payload: Vec<u8> = (0..29u32).map(|i| (i * 91 + 5) as u8).collect();
        let whole = fnv1a64_words(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut bad = payload.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(fnv1a64_words(&bad), whole, "byte {byte} bit {bit}");
            }
        }
    }
}
