//! The one byte codec for everything the tool writes and reads back: the
//! binary trace (`cusan::binio`) and every snapshot layer — this crate's
//! runtime, fiber table and shadow, `cusan`'s session and trace parser,
//! `cusan-serve`'s ingest and spill file. Writers append to a `Vec<u8>`;
//! readers use one bounds-checked cursor, [`Scanner`], whose every
//! failure is a [`DecodeError`] naming its byte offset, never a panic.
//!
//! * Counts, ids, counters, keys and clock components are minimal-length
//!   unsigned LEB128 varints, so decode → re-encode is the identity.
//! * A varint read into a narrower field is range-checked
//!   ([`Scanner::varint_as`]), never truncated with `as`.
//! * Only packed shadow slot words stay fixed 8-byte little-endian: bit
//!   63 is their write flag, so a varint would cost 10 bytes.
//! * Sorted keys (sync keys, page keys, slot indices) are written as
//!   gaps ([`put_ascending`]), so they stay small and cannot repeat.
//! * A count is refused unless `count × minimum element encoding` fits in
//!   the bytes left ([`Scanner::count`]), so a corrupt count cannot
//!   reserve memory its blob could not fill.
//!
//! ## Snapshot layers
//!
//! A spilled *unfinished* session resumes with the same verdict only if
//! its restored detector is observationally identical to the spilled one:
//! same future races, counters, fiber numbering and eviction victims.
//!
//! * **Vector clocks** are stored component-for-component (capacity is
//!   not observable).
//! * **Labels** are written once, in id order, ahead of everything that
//!   names them: a fiber's name is its label id, and shadow slots carry
//!   context ids already.
//! * **The fiber table** keeps its free list verbatim, so LIFO slot reuse
//!   — and with it replayed fiber numbering — continues where it left off.
//! * **Shadow pages** are sorted by page key, one record per page; an
//!   unfolded page records no block handle, and the restore carves its
//!   blocks in page order — the arena's shape, and with it its slab
//!   counter, depends only on how many pages are unfolded.
//! * **Hash-ordered state** (sync vars, report-dedup keys) is sorted
//!   before writing; map iteration order is not observable downstream.
//!
//! The layers nest in a fixed order with no section tags: one
//! [`LAYOUT_VERSION`] after a blob's magic ([`put_header`] /
//! [`Scanner::header`]) pins the whole layout. It is a process-lifetime
//! interchange format, not an archive: a blob of another version is
//! refused with [`DecodeError::UnsupportedVersion`].

use std::fmt;

/// Layout version of every snapshot blob and spill file. v9: a session
/// stores 7 marker counters (the fiber, clock and range counts are the
/// runtime's alone); v8: no suppression section, and the runtime stores
/// 10 counters (the fiber counts live in the fiber table alone); v7: no
/// page budget, arena section, block handles or report cap in the
/// shadow and runtime sections; v6: one varint codec for every layer
/// (v5 and below: three fixed-width layouts).
pub const LAYOUT_VERSION: u64 = 9;

/// Why bytes could not be decoded. Offsets are relative to the slice the
/// [`Scanner`] was built on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the decoder was done; `at` is the offset of the
    /// first missing byte. While streaming a trace this means "feed more
    /// bytes"; anywhere else the input is cut short.
    Truncated {
        /// Offset of the first missing byte.
        at: usize,
    },
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow {
        /// Offset where the varint started.
        at: usize,
    },
    /// A declared count needs more bytes than are left, even at its
    /// elements' minimum encoding.
    CountTooLarge {
        /// Offset where the count started.
        at: usize,
        /// The declared count.
        count: u64,
    },
    /// A value does not fit the field it is read into (a varint wider
    /// than its id, a bool byte other than 0/1).
    OutOfRange {
        /// Offset where the value started.
        at: usize,
        /// The value read.
        value: u64,
    },
    /// The blob does not start with the expected magic.
    BadMagic,
    /// The blob was written under another [`LAYOUT_VERSION`].
    UnsupportedVersion {
        /// The version found.
        got: u64,
    },
    /// Bytes were left over after the last field.
    Trailing {
        /// Offset of the first unconsumed byte.
        at: usize,
        /// Unconsumed bytes.
        left: usize,
    },
    /// A structurally invalid value (an id out of range, a state that
    /// cannot exist, a string that is not UTF-8, an unknown opcode).
    Corrupt {
        /// Offset just past the field that gave it away.
        at: usize,
        /// What was wrong.
        what: String,
    },
}

impl DecodeError {
    /// The byte offset the error names; a blob's magic and version sit
    /// where their format puts them.
    pub fn at(&self) -> Option<usize> {
        match *self {
            DecodeError::Truncated { at }
            | DecodeError::VarintOverflow { at }
            | DecodeError::CountTooLarge { at, .. }
            | DecodeError::OutOfRange { at, .. }
            | DecodeError::Trailing { at, .. }
            | DecodeError::Corrupt { at, .. } => Some(at),
            DecodeError::BadMagic | DecodeError::UnsupportedVersion { .. } => None,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at } => write!(f, "truncated at byte {at}"),
            DecodeError::VarintOverflow { at } => write!(f, "varint overflow at byte {at}"),
            DecodeError::CountTooLarge { at, count } => {
                write!(f, "count {count} at byte {at} exceeds the bytes left")
            }
            DecodeError::OutOfRange { at, value } => {
                write!(f, "value {value} at byte {at} is out of range")
            }
            DecodeError::BadMagic => f.write_str("bad magic"),
            DecodeError::UnsupportedVersion { got } => {
                write!(f, "layout version {got}, this build reads {LAYOUT_VERSION}")
            }
            DecodeError::Trailing { at, left } => write!(f, "{left} trailing bytes at byte {at}"),
            DecodeError::Corrupt { at, what } => write!(f, "corrupt at byte {at}: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append `v` as an unsigned LEB128 varint (always minimal-length).
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append `v` zigzag-mapped as a varint (small magnitudes of either sign
/// stay small).
#[inline]
pub fn put_svarint(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append `v`, the next member of a strictly ascending sequence whose
/// last member was `*last`, as its gap past that member (the first as
/// itself): sorted keys stay small and cannot repeat.
#[inline]
pub fn put_ascending(buf: &mut Vec<u8>, last: &mut Option<u64>, v: u64) {
    put_varint(buf, last.map_or(v, |l| v - l - 1));
    *last = Some(v);
}

/// Append varint-length-prefixed bytes (strings are their UTF-8 bytes).
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Start a blob: its magic, then [`LAYOUT_VERSION`].
pub fn put_header(buf: &mut Vec<u8>, magic: &[u8; 8]) {
    buf.extend_from_slice(magic);
    put_varint(buf, LAYOUT_VERSION);
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bounds-checked cursor over a byte slice; every read is a positioned
/// [`DecodeError`] on failure, never a panic.
#[derive(Debug, Clone)]
pub struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Scan `bytes` from the front.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Scanner { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to consume.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// One raw byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(DecodeError::Truncated { at: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                at: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::VarintOverflow { at: start });
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::VarintOverflow { at: start });
            }
        }
    }

    /// One zigzag-mapped signed varint.
    #[inline]
    pub fn svarint(&mut self) -> Result<i64, DecodeError> {
        Ok(unzigzag(self.varint()?))
    }

    /// One varint into a narrower field, refused if it does not fit.
    #[inline]
    pub fn varint_as<T: TryFrom<u64>>(&mut self) -> Result<T, DecodeError> {
        let at = self.pos;
        let value = self.varint()?;
        T::try_from(value).map_err(|_| DecodeError::OutOfRange { at, value })
    }

    /// The next member of a [`put_ascending`] sequence.
    pub fn ascending(&mut self, last: &mut Option<u64>) -> Result<u64, DecodeError> {
        let at = self.pos;
        let gap = self.varint()?;
        let v = match *last {
            None => Some(gap),
            Some(l) => l.checked_add(gap).and_then(|v| v.checked_add(1)),
        };
        *last = v;
        v.ok_or(DecodeError::OutOfRange { at, value: gap })
    }

    /// One fixed 8-byte little-endian word (packed shadow slots).
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A bool byte, refusing anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::OutOfRange {
                at,
                value: u64::from(b),
            }),
        }
    }

    /// A collection count whose elements each encode in at least
    /// `min_bytes` bytes, refused when the bytes left could not hold that
    /// many — so a caller may reserve `count` elements without letting a
    /// corrupt count reserve more than the blob could fill.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let at = self.pos;
        let count = self.varint()?;
        match usize::try_from(count) {
            Ok(n) if n.saturating_mul(min_bytes) <= self.remaining() => Ok(n),
            _ => Err(DecodeError::CountTooLarge { at, count }),
        }
    }

    /// Varint-length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let at = self.pos;
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::Corrupt {
            at,
            what: "string is not valid UTF-8".to_string(),
        })
    }

    /// A [`put_header`] header: `magic`, then [`LAYOUT_VERSION`].
    pub fn header(&mut self, magic: &[u8; 8]) -> Result<(), DecodeError> {
        if self.take(magic.len())? != magic {
            return Err(DecodeError::BadMagic);
        }
        match self.varint()? {
            LAYOUT_VERSION => Ok(()),
            got => Err(DecodeError::UnsupportedVersion { got }),
        }
    }

    /// A [`DecodeError::Corrupt`] at the current offset.
    pub fn corrupt(&self, what: impl Into<String>) -> DecodeError {
        DecodeError::Corrupt {
            at: self.pos,
            what: what.into(),
        }
    }

    /// Error unless every byte was consumed — the trailing-garbage guard
    /// for top-level blobs.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(DecodeError::Trailing { at: self.pos, left }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut buf = Vec::new();
        buf.push(7);
        buf.push(1);
        buf.push(0);
        put_varint(&mut buf, 0xDEAD_BEEF);
        put_svarint(&mut buf, -3);
        buf.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        put_bytes(&mut buf, b"abc");
        put_bytes(&mut buf, "héllo".as_bytes());
        let mut s = Scanner::new(&buf);
        assert_eq!(s.u8().unwrap(), 7);
        assert!(s.bool().unwrap());
        assert!(!s.bool().unwrap());
        assert_eq!(s.varint_as::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(s.svarint().unwrap(), -3);
        assert_eq!(s.u64_le().unwrap(), u64::MAX - 1);
        assert_eq!(s.bytes().unwrap(), b"abc");
        assert_eq!(s.str().unwrap(), "héllo");
        s.expect_end().unwrap();
    }

    #[test]
    fn reports_truncation_with_its_offset() {
        let buf = 5u64.to_le_bytes();
        assert_eq!(
            Scanner::new(&buf[..3]).u64_le(),
            Err(DecodeError::Truncated { at: 3 })
        );
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"abcd");
        assert_eq!(
            Scanner::new(&buf[..3]).bytes(),
            Err(DecodeError::CountTooLarge { at: 0, count: 4 })
        );
    }

    #[test]
    fn rejects_bad_bool_narrow_overflow_and_oversized_count() {
        assert_eq!(
            Scanner::new(&[2]).bool(),
            Err(DecodeError::OutOfRange { at: 0, value: 2 })
        );
        let mut buf = vec![0];
        put_varint(&mut buf, u64::from(u32::MAX) + 1);
        let mut s = Scanner::new(&buf);
        s.u8().unwrap();
        assert_eq!(
            s.varint_as::<u32>(),
            Err(DecodeError::OutOfRange {
                at: 1,
                value: u64::from(u32::MAX) + 1
            })
        );
        // A count claiming more elements than bytes remain is refused
        // before any allocation happens — and an element's minimum size
        // scales the bound.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(
            Scanner::new(&buf).count(1),
            Err(DecodeError::CountTooLarge {
                at: 0,
                count: u64::MAX
            })
        );
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        buf.extend_from_slice(&[0; 6]);
        assert_eq!(Scanner::new(&buf).count(2), Ok(3));
        assert_eq!(
            Scanner::new(&buf).count(3),
            Err(DecodeError::CountTooLarge { at: 0, count: 3 })
        );
    }

    #[test]
    fn expect_end_flags_trailing_bytes() {
        let buf = [1u8, 2];
        let mut s = Scanner::new(&buf);
        s.u8().unwrap();
        assert_eq!(
            s.expect_end(),
            Err(DecodeError::Trailing { at: 1, left: 1 })
        );
        s.u8().unwrap();
        s.expect_end().unwrap();
    }

    #[test]
    fn header_gates_magic_and_version() {
        let mut buf = Vec::new();
        put_header(&mut buf, b"cusantst");
        Scanner::new(&buf).header(b"cusantst").unwrap();
        assert_eq!(
            Scanner::new(&buf).header(b"cusanxxx"),
            Err(DecodeError::BadMagic)
        );
        assert_eq!(
            Scanner::new(&buf[..5]).header(b"cusantst"),
            Err(DecodeError::Truncated { at: 5 })
        );
        // A fixed-width little-endian version of an older layout reads as
        // its own (older) number.
        let mut old = b"cusantst".to_vec();
        old.extend_from_slice(&5u32.to_le_bytes());
        assert_eq!(
            Scanner::new(&old).header(b"cusantst"),
            Err(DecodeError::UnsupportedVersion { got: 5 })
        );
    }
}
