//! The v3 binary trace codec.
//!
//! The compact twin of the v2 text trace format (see [`crate::trace`]):
//! the same header fields and the same record stream — string-table
//! entries interleaved with events, emitted before first use — encoded
//! as length-delimited binary records instead of lines. One trace is
//!
//! ```text
//! magic   := "cusanbt3"                       (8 bytes; version in the magic)
//! header  := varint(rank) u8(tiered) varint(budget+1 | 0 = none)
//! body    := record*
//! record  := varint(payload_len) payload      (length-delimited framing)
//! payload := opcode u8, fields…               (see the opcode table)
//! ```
//!
//! All multi-byte integers are unsigned LEB128 varints (7 bits per byte,
//! high bit = continuation, at most 10 bytes for a `u64`). Values that
//! cluster — addresses, fiber ids, sync keys — are **delta-encoded**
//! against the previous value of their kind and zigzag-mapped so small
//! negative deltas stay small ([`Encoder`]/[`Decoder`] carry that state,
//! and it is part of the serve spill snapshot so a restored session keeps
//! decoding mid-stream). The encoder always emits minimal-length varints,
//! so decode → re-encode reproduces the input byte-for-byte (asserted by
//! the codec proptest).
//!
//! Opcode table (payload fields after the opcode byte):
//!
//! | op | record | fields |
//! |---|---|---|
//! | 0 | string-table entry | varint id, varint len, `len` UTF-8 bytes |
//! | 1 | fiber create | svarint Δfiber, varint name |
//! | 2 | fiber switch (sync) | svarint Δfiber |
//! | 3 | fiber switch (no-sync) | svarint Δfiber |
//! | 4 | fiber destroy | svarint Δfiber |
//! | 5 | happens-before | svarint Δkey |
//! | 6 | happens-after | svarint Δkey |
//! | 7 | read range | svarint Δaddr, varint len, varint ctx |
//! | 8 | write range | svarint Δaddr, varint len, varint ctx |
//! | 9 | alloc | svarint Δaddr, varint bytes, varint kind |
//! | 10 | free | svarint Δaddr, varint bytes |
//! | 11 | request begin | varint serial |
//! | 12 | request complete | varint serial |
//! | 13 | counter bump | varint counter, varint delta |
//! | 14 | api fault | varint call, varint site |
//! | 15 | end of trace | (no fields) |
//! | 16 | schedule choice | varint kind, varint arity, varint chosen |
//!
//! The end-of-trace marker (written when a recording or a transcode
//! finishes) is what makes truncation *always* detectable:
//! without it, a stream cut exactly at a record boundary would read as a
//! complete, shorter trace. Readers reject bytes after the marker and
//! treat end-of-input without it as truncation.
//!
//! The varint primitives, the [`Scanner`] cursor and the error type are
//! the tool's one byte codec, [`tsan_rt::codec`], which every snapshot
//! layer uses too. Every decode failure is a positioned [`DecodeError`] —
//! truncated input
//! (including *every* strict prefix of a valid trace), varint overflow,
//! unknown opcodes, bad UTF-8, oversized or trailing-garbage records —
//! never a panic. Framing errors are recoverable by feeding more bytes
//! (the push parser in [`crate::trace`] maps mid-frame
//! [`DecodeError::Truncated`] to "wait for the next chunk"); payload errors
//! inside a complete frame are corruption and poison the stream.

use crate::event::{CusanEvent, StrId};
use tsan_rt::codec::{put_svarint, put_varint, DecodeError, Scanner};
use tsan_rt::{FiberId, SyncKey};

/// Magic prefix of a binary (v3) trace. The trailing digit is the
/// version: readers reject any other version loudly, exactly like the
/// text format's `cusan-trace v2` magic.
pub const BIN_MAGIC: &[u8; 8] = b"cusanbt3";

/// Version-independent prefix, used to tell "other binary version" apart
/// from "not a binary trace at all" while sniffing.
pub const BIN_FAMILY: &[u8; 7] = b"cusanbt";

/// Hard cap on one record's payload length. Real records are tens of
/// bytes (the longest are string-table labels); a length field beyond
/// this is corruption, not a record we should wait for more bytes on.
/// Text traces cap a line (header included) at the same length.
pub const MAX_RECORD: u64 = 1 << 20;

/// Opcodes, one byte per record.
mod op {
    pub const STR: u8 = 0;
    pub const FIBER_CREATE: u8 = 1;
    pub const FIBER_SWITCH_SYNC: u8 = 2;
    pub const FIBER_SWITCH_NOSYNC: u8 = 3;
    pub const FIBER_DESTROY: u8 = 4;
    pub const HAPPENS_BEFORE: u8 = 5;
    pub const HAPPENS_AFTER: u8 = 6;
    pub const READ_RANGE: u8 = 7;
    pub const WRITE_RANGE: u8 = 8;
    pub const ALLOC: u8 = 9;
    pub const FREE: u8 = 10;
    pub const REQUEST_BEGIN: u8 = 11;
    pub const REQUEST_COMPLETE: u8 = 12;
    pub const COUNTER_BUMP: u8 = 13;
    pub const API_FAULT: u8 = 14;
    pub const END: u8 = 15;
    pub const SCHEDULE_CHOICE: u8 = 16;
}

/// The delta-coding context shared by encoder and decoder: last address,
/// fiber id, and sync key seen. Both sides update it identically per
/// record, so the stream can be cut anywhere the frames align (the serve
/// spill snapshot serializes these three words).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaState {
    /// Last address (read/write/alloc/free ops).
    pub addr: u64,
    /// Last fiber id (create/switch/destroy ops).
    pub fiber: u64,
    /// Last sync key (happens-before/after ops).
    pub key: u64,
}

impl DeltaState {
    fn delta(last: &mut u64, v: u64) -> i64 {
        let d = v.wrapping_sub(*last) as i64;
        *last = v;
        d
    }

    fn apply(last: &mut u64, d: i64) -> u64 {
        *last = last.wrapping_add(d as u64);
        *last
    }
}

/// Encode header + records into a byte buffer. Owns the delta state; one
/// encoder per trace, fed records in stream order.
#[derive(Debug, Default)]
pub struct Encoder {
    deltas: DeltaState,
    scratch: Vec<u8>,
}

impl Encoder {
    /// Fresh encoder (deltas all zero, like a fresh decoder).
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Write the magic and header fields. The last two bytes are always
    /// `tiered` 1 and budget none (varint 0); the trace readers refuse a
    /// header with any other value of either (see [`crate::trace`]).
    pub fn encode_header(buf: &mut Vec<u8>, rank: usize) {
        buf.extend_from_slice(BIN_MAGIC);
        put_varint(buf, rank as u64);
        buf.push(1);
        put_varint(buf, 0);
    }

    /// Frame `scratch` (the payload built by the caller) into `buf`.
    fn frame(buf: &mut Vec<u8>, scratch: &[u8]) {
        put_varint(buf, scratch.len() as u64);
        buf.extend_from_slice(scratch);
    }

    /// Append the end-of-trace marker. Must be the stream's last record;
    /// readers treat its absence at end-of-input as truncation.
    pub fn encode_end(&mut self, buf: &mut Vec<u8>) {
        self.scratch.clear();
        self.scratch.push(op::END);
        Self::frame(buf, &self.scratch);
    }

    /// Append one string-table record.
    pub fn encode_str(&mut self, buf: &mut Vec<u8>, id: u32, label: &str) {
        self.scratch.clear();
        self.scratch.push(op::STR);
        put_varint(&mut self.scratch, u64::from(id));
        put_varint(&mut self.scratch, label.len() as u64);
        self.scratch.extend_from_slice(label.as_bytes());
        Self::frame(buf, &self.scratch);
    }

    /// Append one event record, advancing the delta state.
    pub fn encode_event(&mut self, buf: &mut Vec<u8>, ev: &CusanEvent) {
        let d = &mut self.deltas;
        let s = &mut self.scratch;
        s.clear();
        match *ev {
            CusanEvent::FiberCreate { fiber, name } => {
                s.push(op::FIBER_CREATE);
                put_svarint(s, DeltaState::delta(&mut d.fiber, fiber.index() as u64));
                put_varint(s, u64::from(name.0));
            }
            CusanEvent::FiberSwitch { fiber, sync } => {
                s.push(if sync {
                    op::FIBER_SWITCH_SYNC
                } else {
                    op::FIBER_SWITCH_NOSYNC
                });
                put_svarint(s, DeltaState::delta(&mut d.fiber, fiber.index() as u64));
            }
            CusanEvent::FiberDestroy { fiber } => {
                s.push(op::FIBER_DESTROY);
                put_svarint(s, DeltaState::delta(&mut d.fiber, fiber.index() as u64));
            }
            CusanEvent::HappensBefore { key } => {
                s.push(op::HAPPENS_BEFORE);
                put_svarint(s, DeltaState::delta(&mut d.key, key.0));
            }
            CusanEvent::HappensAfter { key } => {
                s.push(op::HAPPENS_AFTER);
                put_svarint(s, DeltaState::delta(&mut d.key, key.0));
            }
            CusanEvent::ReadRange { addr, len, ctx } => {
                s.push(op::READ_RANGE);
                put_svarint(s, DeltaState::delta(&mut d.addr, addr));
                put_varint(s, len);
                put_varint(s, u64::from(ctx.0));
            }
            CusanEvent::WriteRange { addr, len, ctx } => {
                s.push(op::WRITE_RANGE);
                put_svarint(s, DeltaState::delta(&mut d.addr, addr));
                put_varint(s, len);
                put_varint(s, u64::from(ctx.0));
            }
            CusanEvent::Alloc { addr, bytes, kind } => {
                s.push(op::ALLOC);
                put_svarint(s, DeltaState::delta(&mut d.addr, addr));
                put_varint(s, bytes);
                put_varint(s, u64::from(kind.0));
            }
            CusanEvent::Free { addr, bytes } => {
                s.push(op::FREE);
                put_svarint(s, DeltaState::delta(&mut d.addr, addr));
                put_varint(s, bytes);
            }
            CusanEvent::RequestBegin { serial } => {
                s.push(op::REQUEST_BEGIN);
                put_varint(s, serial);
            }
            CusanEvent::RequestComplete { serial } => {
                s.push(op::REQUEST_COMPLETE);
                put_varint(s, serial);
            }
            CusanEvent::CounterBump { counter, delta } => {
                s.push(op::COUNTER_BUMP);
                put_varint(s, u64::from(counter.0));
                put_varint(s, delta);
            }
            CusanEvent::ApiFault { call, site } => {
                s.push(op::API_FAULT);
                put_varint(s, u64::from(call.0));
                put_varint(s, site);
            }
            CusanEvent::ScheduleChoice {
                kind,
                arity,
                chosen,
            } => {
                s.push(op::SCHEDULE_CHOICE);
                put_varint(s, u64::from(kind.0));
                put_varint(s, arity);
                put_varint(s, chosen);
            }
        }
        Self::frame(buf, &self.scratch);
    }
}

/// One decoded record, before string-table validation. The text line
/// parser yields it too, and the push parser in [`crate::trace`]
/// validates both encodings' records alike.
#[derive(Debug, Clone, PartialEq)]
pub enum BinRecord {
    /// A string-table entry.
    Str {
        /// The entry's declared dense id.
        id: u32,
        /// The label bytes, already UTF-8-validated.
        label: String,
    },
    /// An event record.
    Event(CusanEvent),
    /// The end-of-trace marker — nothing may follow it.
    End,
}

/// Decode the header fields after a verified [`BIN_MAGIC`]. Returns
/// `Ok(None)` when `bytes` ends before the header is complete (feed more
/// bytes), `Ok(Some((consumed, rank, tiered, budget)))` on success.
#[allow(clippy::type_complexity)]
pub fn decode_header(
    bytes: &[u8],
) -> Result<Option<(usize, usize, bool, Option<usize>)>, DecodeError> {
    let mut s = Scanner::new(bytes);
    let mut header = || {
        let magic = s.take(BIN_MAGIC.len())?;
        if magic[..BIN_FAMILY.len()] != BIN_FAMILY[..] {
            return Err(DecodeError::BadMagic);
        }
        let version = magic[BIN_FAMILY.len()];
        if version != BIN_MAGIC[BIN_FAMILY.len()] {
            return Err(DecodeError::Corrupt {
                at: BIN_FAMILY.len(),
                what: format!(
                    "unsupported binary trace version {:?}, this reader only understands \
                     `cusanbt3` (re-record or transcode the trace)",
                    char::from(version)
                ),
            });
        }
        let rank = s.varint_as()?;
        let tiered = s.bool()?;
        let budget = s.varint_as::<usize>()?.checked_sub(1);
        Ok((s.pos(), rank, tiered, budget))
    };
    match header() {
        Ok(h) => Ok(Some(h)),
        Err(DecodeError::Truncated { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Decode length-delimited records, mirroring [`Encoder`]'s delta state.
#[derive(Debug, Default)]
pub struct Decoder {
    deltas: DeltaState,
}

impl Decoder {
    /// Fresh decoder (deltas all zero).
    pub fn new() -> Self {
        Decoder::default()
    }

    /// The current delta state (for the serve spill snapshot).
    pub fn state(&self) -> DeltaState {
        self.deltas
    }

    /// Rebuild a decoder mid-stream from snapshotted delta state.
    pub fn from_state(deltas: DeltaState) -> Self {
        Decoder { deltas }
    }

    /// Try to decode one record from the front of `bytes`.
    ///
    /// `Ok(None)` means the frame is incomplete — feed more bytes and
    /// retry (the delta state is untouched). `Ok(Some((consumed, rec)))`
    /// consumed `consumed` bytes. `Err` means the stream is corrupt: a
    /// complete frame failed to decode, or the length field itself is
    /// invalid.
    pub fn decode_record(
        &mut self,
        bytes: &[u8],
    ) -> Result<Option<(usize, BinRecord)>, DecodeError> {
        let mut s = Scanner::new(bytes);
        let len = match s.varint() {
            Ok(l) => l,
            Err(DecodeError::Truncated { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        if len == 0 || len > MAX_RECORD {
            return Err(DecodeError::Corrupt {
                at: 0,
                what: format!("record length {len} is not in 1..={MAX_RECORD}"),
            });
        }
        if (s.remaining() as u64) < len {
            return Ok(None);
        }
        let payload = s.take(len as usize).expect("length just checked");
        let rec = self.decode_payload(payload)?;
        Ok(Some((s.pos(), rec)))
    }

    /// Decode one complete payload. Any error here — including running
    /// out of payload bytes — is corruption: the frame was complete.
    fn decode_payload(&mut self, payload: &[u8]) -> Result<BinRecord, DecodeError> {
        let d = &mut self.deltas;
        let mut s = Scanner::new(payload);
        let opcode = s.u8()?;
        let rec = match opcode {
            op::STR => BinRecord::Str {
                id: s.varint_as()?,
                label: s.str()?.to_string(),
            },
            op::FIBER_CREATE => {
                let fiber = fiber_id(&mut s, &mut d.fiber)?;
                let name = StrId(s.varint_as()?);
                BinRecord::Event(CusanEvent::FiberCreate { fiber, name })
            }
            op::FIBER_SWITCH_SYNC | op::FIBER_SWITCH_NOSYNC => {
                BinRecord::Event(CusanEvent::FiberSwitch {
                    fiber: fiber_id(&mut s, &mut d.fiber)?,
                    sync: opcode == op::FIBER_SWITCH_SYNC,
                })
            }
            op::FIBER_DESTROY => BinRecord::Event(CusanEvent::FiberDestroy {
                fiber: fiber_id(&mut s, &mut d.fiber)?,
            }),
            op::HAPPENS_BEFORE | op::HAPPENS_AFTER => {
                let key = SyncKey(DeltaState::apply(&mut d.key, s.svarint()?));
                BinRecord::Event(if opcode == op::HAPPENS_BEFORE {
                    CusanEvent::HappensBefore { key }
                } else {
                    CusanEvent::HappensAfter { key }
                })
            }
            op::READ_RANGE | op::WRITE_RANGE => {
                let addr = DeltaState::apply(&mut d.addr, s.svarint()?);
                let len = s.varint()?;
                let ctx = StrId(s.varint_as()?);
                BinRecord::Event(if opcode == op::READ_RANGE {
                    CusanEvent::ReadRange { addr, len, ctx }
                } else {
                    CusanEvent::WriteRange { addr, len, ctx }
                })
            }
            op::ALLOC => {
                let addr = DeltaState::apply(&mut d.addr, s.svarint()?);
                let bytes = s.varint()?;
                let kind = StrId(s.varint_as()?);
                BinRecord::Event(CusanEvent::Alloc { addr, bytes, kind })
            }
            op::FREE => {
                let addr = DeltaState::apply(&mut d.addr, s.svarint()?);
                let bytes = s.varint()?;
                BinRecord::Event(CusanEvent::Free { addr, bytes })
            }
            op::REQUEST_BEGIN => BinRecord::Event(CusanEvent::RequestBegin {
                serial: s.varint()?,
            }),
            op::REQUEST_COMPLETE => BinRecord::Event(CusanEvent::RequestComplete {
                serial: s.varint()?,
            }),
            op::COUNTER_BUMP => {
                let counter = StrId(s.varint_as()?);
                let delta = s.varint()?;
                BinRecord::Event(CusanEvent::CounterBump { counter, delta })
            }
            op::API_FAULT => {
                let call = StrId(s.varint_as()?);
                let site = s.varint()?;
                BinRecord::Event(CusanEvent::ApiFault { call, site })
            }
            op::SCHEDULE_CHOICE => {
                let kind = StrId(s.varint_as()?);
                let arity = s.varint()?;
                let chosen = s.varint()?;
                BinRecord::Event(CusanEvent::ScheduleChoice {
                    kind,
                    arity,
                    chosen,
                })
            }
            op::END => BinRecord::End,
            op => return Err(s.corrupt(format!("unknown opcode {op}"))),
        };
        if s.remaining() != 0 {
            return Err(DecodeError::Trailing {
                at: s.pos(),
                left: s.remaining(),
            });
        }
        Ok(rec)
    }
}

/// A delta-coded fiber id, refused if it does not fit a fiber's `u32`.
fn fiber_id(s: &mut Scanner<'_>, last: &mut u64) -> Result<FiberId, DecodeError> {
    let at = s.pos();
    let value = DeltaState::apply(last, s.svarint()?);
    let index = u32::try_from(value).map_err(|_| DecodeError::OutOfRange { at, value })?;
    Ok(FiberId::from_index(index as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_and_minimality() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = Scanner::new(&buf);
            assert_eq!(s.varint().unwrap(), v);
            assert_eq!(s.remaining(), 0);
            // Minimal length: re-encoding the decoded value is identical.
            let mut again = Vec::new();
            put_varint(&mut again, v);
            assert_eq!(buf, again);
        }
    }

    #[test]
    fn svarint_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_svarint(&mut buf, v);
            assert_eq!(Scanner::new(&buf).svarint().unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_is_typed() {
        // 11 continuation bytes: more than any u64 needs.
        let buf = [0x80u8; 11];
        assert_eq!(
            Scanner::new(&buf).varint(),
            Err(DecodeError::VarintOverflow { at: 0 })
        );
        // 10 bytes but with bits past 2^64.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(
            Scanner::new(&buf).varint(),
            Err(DecodeError::VarintOverflow { at: 0 })
        );
        // u64::MAX itself decodes fine.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(Scanner::new(&buf).varint().unwrap(), u64::MAX);
    }

    #[test]
    fn truncated_varint_is_typed() {
        let buf = [0x80u8, 0x80];
        assert_eq!(
            Scanner::new(&buf).varint(),
            Err(DecodeError::Truncated { at: 2 })
        );
    }

    #[test]
    fn event_roundtrip_with_deltas() {
        let events = [
            CusanEvent::ReadRange {
                addr: 0x7f00_0000_1000,
                len: 4096,
                ctx: StrId(3),
            },
            CusanEvent::WriteRange {
                addr: 0x7f00_0000_0800, // negative delta
                len: 64,
                ctx: StrId(4),
            },
            CusanEvent::HappensBefore {
                key: SyncKey(0x0100_0000_0000),
            },
            CusanEvent::HappensAfter {
                key: SyncKey(0x0100_0000_0000), // delta 0 → 1 byte
            },
        ];
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        for ev in &events {
            enc.encode_event(&mut buf, ev);
        }
        let mut dec = Decoder::new();
        let mut rest = &buf[..];
        for ev in &events {
            let (n, rec) = dec.decode_record(rest).unwrap().expect("complete frame");
            assert_eq!(rec, BinRecord::Event(*ev));
            rest = &rest[n..];
        }
        assert!(rest.is_empty());
        // A same-key happens-after is a 3-byte record: len, op, delta 0.
        let mut probe = Vec::new();
        let mut enc2 = Encoder::new();
        enc2.encode_event(&mut probe, &CusanEvent::HappensBefore { key: SyncKey(500) });
        let before = probe.len();
        enc2.encode_event(&mut probe, &CusanEvent::HappensAfter { key: SyncKey(500) });
        assert_eq!(probe.len() - before, 3);
    }

    #[test]
    fn incomplete_frames_ask_for_more_without_state_damage() {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        enc.encode_event(
            &mut buf,
            &CusanEvent::ReadRange {
                addr: 0xdead_beef,
                len: 17,
                ctx: StrId(0),
            },
        );
        let mut dec = Decoder::new();
        for cut in 0..buf.len() {
            assert_eq!(
                dec.decode_record(&buf[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete, not an error"
            );
            assert_eq!(
                dec.state(),
                DeltaState::default(),
                "no state change on retry"
            );
        }
        let (n, rec) = dec.decode_record(&buf).unwrap().unwrap();
        assert_eq!(n, buf.len());
        assert!(matches!(
            rec,
            BinRecord::Event(CusanEvent::ReadRange {
                addr: 0xdead_beef,
                ..
            })
        ));
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        // Unknown opcode in a complete frame.
        let buf = [1u8, 99];
        assert_eq!(
            Decoder::new().decode_record(&buf),
            Err(DecodeError::Corrupt {
                at: 1,
                what: "unknown opcode 99".to_string()
            })
        );
        // Zero-length record.
        let buf = [0u8];
        assert_eq!(
            Decoder::new().decode_record(&buf),
            Err(DecodeError::Corrupt {
                at: 0,
                what: format!("record length 0 is not in 1..={MAX_RECORD}")
            })
        );
        // Oversized length field.
        let mut buf = Vec::new();
        put_varint(&mut buf, MAX_RECORD + 1);
        assert_eq!(
            Decoder::new().decode_record(&buf),
            Err(DecodeError::Corrupt {
                at: 0,
                what: format!(
                    "record length {} is not in 1..={MAX_RECORD}",
                    MAX_RECORD + 1
                )
            })
        );
        // Trailing garbage inside a complete frame.
        let buf = [3u8, op::REQUEST_BEGIN, 0, 0xaa];
        assert_eq!(
            Decoder::new().decode_record(&buf),
            Err(DecodeError::Trailing { at: 2, left: 1 })
        );
        // Payload shorter than its fields claim (complete frame, inner
        // truncation = corruption).
        let buf = [1u8, op::REQUEST_BEGIN];
        assert!(matches!(
            Decoder::new().decode_record(&buf),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn header_roundtrip_and_version_gate() {
        let mut buf = Vec::new();
        Encoder::encode_header(&mut buf, 7);
        let (n, rank, tiered, budget) = decode_header(&buf).unwrap().unwrap();
        assert_eq!((n, rank, tiered, budget), (buf.len(), 7, true, None));
        // Old recorders' `tiered 0` and a budget of 42 (varint 43) still
        // decode; refusing them is the trace readers' job.
        let mut buf = Vec::new();
        Encoder::encode_header(&mut buf, 0);
        let n = buf.len();
        buf[n - 2..].copy_from_slice(&[0, 43]);
        let (_, rank, tiered, budget) = decode_header(&buf).unwrap().unwrap();
        assert_eq!((rank, tiered, budget), (0, false, Some(42)));
        // Every header prefix asks for more bytes instead of erroring.
        for cut in 0..buf.len() {
            assert_eq!(decode_header(&buf[..cut]).unwrap(), None);
        }
        // A future version fails loudly.
        let mut v4 = buf.clone();
        v4[7] = b'4';
        let what = "unsupported binary trace version '4', this reader only understands \
                    `cusanbt3` (re-record or transcode the trace)";
        assert_eq!(
            decode_header(&v4),
            Err(DecodeError::Corrupt {
                at: 7,
                what: what.to_string()
            })
        );
    }
}
