//! Byte-exact snapshot/restore of a live [`crate::TsanRuntime`].
//!
//! The serve path needs to evict *unfinished* sessions under memory
//! pressure and transparently resume them later — possibly in a freshly
//! restarted server process. That only preserves the detector's verdict
//! if the restored runtime is observationally identical to the one that
//! was spilled: same future race set, same counters, same fiber
//! numbering, same eviction victims. This module provides the codec
//! ([`SnapshotWriter`] / [`SnapshotReader`]) and the per-subsystem
//! serialization rules that make that guarantee hold:
//!
//! * **Vector clocks** are stored component-for-component (capacity is
//!   not observable — only `heap_bytes`, which no summary includes).
//! * **The fiber table** keeps its free list verbatim, so LIFO slot
//!   reuse — and with it replayed fiber numbering — continues exactly
//!   where it left off.
//! * **Shadow pages** are stored sorted by page key; unfolded pages
//!   record their exact [`crate::shadow`] block handle so the restored
//!   arena re-carves and recycles in the same order as a never-spilled
//!   run (the arena counters are part of the summary surface).
//! * **Hash-ordered state** (sync vars, report-dedup keys) is sorted
//!   before writing; map iteration order is not observable downstream,
//!   so sorted re-insertion is safe.
//!
//! Everything is little-endian, length-prefixed, and versioned. The
//! format is a *process-lifetime* interchange format for spill files,
//! not a long-term archival format: [`SNAPSHOT_VERSION`] may move
//! without migration support.

use std::fmt;

/// Magic prefix of a [`crate::TsanRuntime::snapshot_bytes`] blob.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"cusansnp";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob ended before the decoder was done.
    Truncated,
    /// The magic prefix did not match [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The version field is one this build cannot read.
    UnsupportedVersion(u32),
    /// A structurally invalid value (bad index, non-UTF-8 string, ...).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a cusan snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian append-only encoder for snapshot blobs.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Empty writer.
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

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a collection length as u64.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append raw bytes without a length prefix (magic prefixes).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append length-prefixed bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor-based decoder over a snapshot blob.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool, rejecting anything but 0/1.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bad bool byte {b:#x}"))),
        }
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a collection length, bounding it by the bytes actually left
    /// (each element costs ≥ 1 byte) so a corrupt length can never
    /// drive a pre-allocation of gigabytes.
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        let v = usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("length {v}")))?;
        if v > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }

    /// Read `n` raw bytes (magic prefixes).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Read length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| SnapshotError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }

    /// Error unless every byte was consumed — a trailing-garbage guard
    /// for top-level blobs.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after snapshot",
                self.remaining()
            )));
        }
        Ok(())
    }
}

pub(crate) fn write_clock(w: &mut SnapshotWriter, clock: &crate::clock::VectorClock) {
    let c = clock.components();
    w.put_len(c.len());
    for &v in c {
        w.put_u32(v);
    }
}

pub(crate) fn read_clock(
    r: &mut SnapshotReader<'_>,
) -> Result<crate::clock::VectorClock, SnapshotError> {
    let n = r.get_len()?;
    let mut c = Vec::with_capacity(n);
    for _ in 0..n {
        c.push(r.get_u32()?);
    }
    Ok(crate::clock::VectorClock::from_components(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_primitives() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_bytes(b"abc");
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_reports_truncation() {
        let mut w = SnapshotWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..3]);
        assert_eq!(r.get_u64(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn reader_rejects_bad_bool_and_oversized_len() {
        let mut r = SnapshotReader::new(&[2]);
        assert!(matches!(r.get_bool(), Err(SnapshotError::Corrupt(_))));
        // A length claiming more elements than bytes remain is truncation,
        // caught before any allocation happens.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.get_len().is_err());
    }

    #[test]
    fn expect_end_flags_trailing_bytes() {
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(SnapshotError::Corrupt(_))));
        r.get_u8().unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn clock_roundtrip() {
        use crate::clock::VectorClock;
        use crate::fiber::FiberId;
        let mut c = VectorClock::new();
        c.set(FiberId::from_index(0), 3);
        c.set(FiberId::from_index(5), 9);
        let mut w = SnapshotWriter::new();
        write_clock(&mut w, &c);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = read_clock(&mut r).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.len(), c.len());
    }
}
