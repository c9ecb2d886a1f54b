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
//! Also home of [`fnv1a64`], the checksum each snapshot section is
//! guarded by.

use crate::error::SpsepError;

/// Seed of the FNV-1a 64-bit hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Multiplier of the FNV-1a 64-bit hash.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — the per-section checksum of the
/// snapshot format. Not cryptographic; it guards against bit rot and
/// truncation, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
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
}
