//! Deterministic trace record/replay for the event pipeline.
//!
//! [`TraceSink`] serializes one rank's event stream; [`TraceReader`]
//! reads it back record by record; and [`replay_stream`] drives those
//! records through a fresh [`CheckSession`] via the same apply path used
//! live — no apps, no simulators, and no trace held in memory. A replayed
//! trace therefore reproduces the live run's race reports and event
//! counters exactly (asserted by `crates/apps/tests/trace_replay.rs`
//! across the whole testsuite).
//!
//! # Formats
//!
//! Two on-disk/on-wire encodings carry the identical record stream —
//! string-table entries interleaved with events, strings always emitted
//! before first use — and readers sniff which one a byte source holds
//! from its magic, so mixed corpora (old text fixtures next to fresh
//! binary recordings) all parse through the same entry points:
//!
//! * **v2 text** (the default, human-greppable): line-oriented UTF-8,
//!   described below.
//! * **v3 binary** (`ToolConfig::record`, or [`transcode`] a text
//!   recording; ~3× fewer bytes per event): LEB128 varints, delta-coded
//!   addresses/fiber ids/sync keys, one-byte opcodes, length-delimited
//!   records, and an end-of-trace marker that makes any truncation —
//!   even at a record boundary — a typed error. See [`crate::binio`] for
//!   the full layout.
//!
//! Unknown versions of either family fail parsing loudly instead of
//! silently misreading old recordings. [`transcode`] converts between
//! the formats record-for-record; because both writers are canonical,
//! text → binary → text reproduces the original bytes exactly.
//!
//! # The v2 text format
//!
//! The first line is the header:
//!
//! ```text
//! cusan-trace v2 rank <rank> tiered 1 budget <pages|none>
//! ```
//!
//! `tiered` and `budget` are the recording run's shadow mode and shadow
//! page budget; writers always emit `tiered 1 budget none`. A header
//! naming either removed mode — `tiered 0`, a recording made on the flat
//! shadow, or a page budget, under which the shadow dropped annotations
//! past its cap — is refused by the readers in both formats rather than
//! replayed under a shadow it never ran with. Every
//! other line is either a string-table entry — `s <id> <label>` with `\`
//! and newline escaped, ids dense and ascending — or an event:
//!
//! | line | event |
//! |---|---|
//! | `fc <fiber> <name>` | fiber create |
//! | `fy <fiber>` / `fs <fiber>` | fiber switch (sync / no-sync) |
//! | `fd <fiber>` | fiber destroy |
//! | `hb <key>` / `ha <key>` | happens-before / happens-after (key hex) |
//! | `rr <addr> <len> <ctx>` / `wr …` | read / write range (addr hex) |
//! | `al <addr> <bytes> <kind>` | alloc marker (addr hex) |
//! | `fr <addr> <bytes>` | free marker (addr hex) |
//! | `qb <serial>` / `qc <serial>` | MPI request begin / complete |
//! | `cb <counter> <delta>` | named counter bump |
//! | `af <call> <site>` | injected API fault |
//! | `sc <kind> <arity> <chosen>` | resolved schedule choice point |
//!
//! A line, header included, holds at most [`binio::MAX_RECORD`] bytes;
//! readers refuse a longer one as soon as that much of it has arrived.
//!
//! All writers format identically, so two recordings of the same
//! deterministic run are byte-identical (see the Jacobi determinism
//! test) — in either format.

use crate::binio::{self, BinRecord};
use crate::event::{CtxInterner, CusanEvent, FiberEventError, StrId};
use crate::session::{CheckSession, SessionSummary};
use std::fmt;
use std::io::{BufRead, Write};
use std::sync::Arc;
use tsan_rt::codec::{put_bytes, put_varint, DecodeError, Scanner};
use tsan_rt::{FiberId, SyncKey};

/// Magic prefix of a text trace header line. The version is part of the
/// magic: readers reject any other version with a clear message.
pub const TRACE_MAGIC: &str = "cusan-trace v2";

/// Version-independent prefix, used to tell "old/new version" apart from
/// "not a trace at all" in error messages.
const TRACE_FAMILY: &str = "cusan-trace v";

/// Which encoding a trace writer produces. Readers never need this —
/// they sniff the magic — so it appears on the producer side
/// ([`crate::ToolConfig::record`], [`transcode`]) and where a caller
/// picks a transcoding target ([`TraceFormat::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// v2 line-oriented UTF-8 (the default; human-greppable).
    Text,
    /// v3 length-delimited varint records (see [`crate::binio`]).
    Binary,
}

impl TraceFormat {
    /// The encoding recorded `bytes` hold, from the binary magic (a
    /// buffer without it reads as text).
    pub fn of(bytes: &[u8]) -> TraceFormat {
        if bytes.starts_with(binio::BIN_FAMILY) {
            TraceFormat::Binary
        } else {
            TraceFormat::Text
        }
    }

    /// The other encoding ([`transcode`]'s target for a twin).
    pub fn other(self) -> TraceFormat {
        match self {
            TraceFormat::Text => TraceFormat::Binary,
            TraceFormat::Binary => TraceFormat::Text,
        }
    }

    /// The format's name (`"text"` / `"binary"`).
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Text => "text",
            TraceFormat::Binary => "binary",
        }
    }
}

/// Append `label` with `\` and newline escaped — one pass, no
/// intermediate allocations (both escapes are single-byte, so the byte
/// loop is also correct for multi-byte UTF-8 sequences).
fn write_escaped(out: &mut Vec<u8>, label: &str) {
    for &b in label.as_bytes() {
        match b {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            _ => out.push(b),
        }
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Validation every event passes before the push parser hands it out:
/// a string id it names must be defined, and a byte range must end
/// inside the address space — `addr + len` is what the shadow's range
/// arithmetic computes.
fn check_event(ev: &CusanEvent, strings: &CtxInterner) -> Result<(), Box<str>> {
    use CusanEvent as E;
    let (label, range) = match *ev {
        E::FiberCreate { name, .. } => (Some(name), None),
        E::ReadRange { addr, len, ctx } | E::WriteRange { addr, len, ctx } => {
            (Some(ctx), Some((addr, len)))
        }
        E::Alloc { addr, bytes, kind } => (Some(kind), Some((addr, bytes))),
        E::Free { addr, bytes } => (None, Some((addr, bytes))),
        E::CounterBump { counter: id, .. }
        | E::ApiFault { call: id, .. }
        | E::ScheduleChoice { kind: id, .. } => (Some(id), None),
        _ => (None, None),
    };
    if let Some(id) = label.filter(|id| id.0 as usize >= strings.len()) {
        return Err(format!("undefined string id {}", id.0).into());
    }
    match range {
        Some((addr, len)) if addr.checked_add(len).is_none() => {
            Err(format!("range {addr:x}+{len} runs past the end of the address space").into())
        }
        _ => Ok(()),
    }
}

/// Format-dispatched record writer — the single producer-side encoder
/// shared by [`TraceSink`] (live recording) and [`transcode`]. Both
/// formats' string-table paths go through it, and both are canonical:
/// re-encoding a decoded stream reproduces the input bytes.
enum RecordWriter {
    Text,
    Binary(binio::Encoder),
}

impl RecordWriter {
    fn new(format: TraceFormat) -> RecordWriter {
        match format {
            TraceFormat::Text => RecordWriter::Text,
            TraceFormat::Binary => RecordWriter::Binary(binio::Encoder::new()),
        }
    }

    fn header(&mut self, out: &mut Vec<u8>, rank: usize) {
        match self {
            RecordWriter::Text => writeln!(out, "{TRACE_MAGIC} rank {rank} tiered 1 budget none")
                .expect("writes to Vec are infallible"),
            RecordWriter::Binary(_) => binio::Encoder::encode_header(out, rank),
        }
    }

    fn str_record(&mut self, out: &mut Vec<u8>, id: u32, label: &str) {
        match self {
            RecordWriter::Text => {
                write!(out, "s {id} ").expect("writes to Vec are infallible");
                write_escaped(out, label);
                out.push(b'\n');
            }
            RecordWriter::Binary(enc) => enc.encode_str(out, id, label),
        }
    }

    fn event(&mut self, out: &mut Vec<u8>, ev: &CusanEvent) {
        let enc = match self {
            RecordWriter::Text => {
                match *ev {
                    CusanEvent::FiberCreate { fiber, name } => {
                        writeln!(out, "fc {} {}", fiber.index(), name.0)
                    }
                    CusanEvent::FiberSwitch { fiber, sync: true } => {
                        writeln!(out, "fy {}", fiber.index())
                    }
                    CusanEvent::FiberSwitch { fiber, sync: false } => {
                        writeln!(out, "fs {}", fiber.index())
                    }
                    CusanEvent::FiberDestroy { fiber } => writeln!(out, "fd {}", fiber.index()),
                    CusanEvent::HappensBefore { key } => writeln!(out, "hb {:x}", key.0),
                    CusanEvent::HappensAfter { key } => writeln!(out, "ha {:x}", key.0),
                    CusanEvent::ReadRange { addr, len, ctx } => {
                        writeln!(out, "rr {addr:x} {len} {}", ctx.0)
                    }
                    CusanEvent::WriteRange { addr, len, ctx } => {
                        writeln!(out, "wr {addr:x} {len} {}", ctx.0)
                    }
                    CusanEvent::Alloc { addr, bytes, kind } => {
                        writeln!(out, "al {addr:x} {bytes} {}", kind.0)
                    }
                    CusanEvent::Free { addr, bytes } => writeln!(out, "fr {addr:x} {bytes}"),
                    CusanEvent::RequestBegin { serial } => writeln!(out, "qb {serial}"),
                    CusanEvent::RequestComplete { serial } => writeln!(out, "qc {serial}"),
                    CusanEvent::CounterBump { counter, delta } => {
                        writeln!(out, "cb {} {delta}", counter.0)
                    }
                    CusanEvent::ApiFault { call, site } => writeln!(out, "af {} {site}", call.0),
                    CusanEvent::ScheduleChoice {
                        kind,
                        arity,
                        chosen,
                    } => writeln!(out, "sc {} {arity} {chosen}", kind.0),
                }
                .expect("writes to Vec are infallible");
                return;
            }
            RecordWriter::Binary(enc) => enc,
        };
        enc.encode_event(out, ev);
    }

    /// Terminate the stream. Binary traces get the end-of-trace marker
    /// (which is what makes every truncation detectable); text traces
    /// need nothing.
    fn end(&mut self, out: &mut Vec<u8>) {
        if let RecordWriter::Binary(enc) = self {
            enc.encode_end(out);
        }
    }
}

/// A recorder that serializes one rank's event stream into the bytes it
/// owns.
///
/// String-table entries are flushed lazily: before writing an event
/// record, every interner entry not yet written is emitted, so any id an
/// event references is defined earlier in the stream. [`TraceSink::finish`]
/// ends the recording and hands the trace over; binary traces get their
/// end-of-trace marker there.
pub struct TraceSink {
    out: Vec<u8>,
    written: usize,
    writer: RecordWriter,
}

impl TraceSink {
    /// Start a recording in the given format whose header records `rank`.
    pub fn new(format: TraceFormat, rank: usize) -> TraceSink {
        let mut writer = RecordWriter::new(format);
        let mut out = Vec::new();
        writer.header(&mut out, rank);
        TraceSink {
            out,
            written: 0,
            writer,
        }
    }

    /// Write one event, preceded by every string-table entry not yet
    /// written; `strings` resolves interned ids.
    pub fn on_event(&mut self, ev: &CusanEvent, strings: &CtxInterner) {
        while self.written < strings.len() {
            let id = StrId(self.written as u32);
            self.writer
                .str_record(&mut self.out, id.0, strings.label(id));
            self.written += 1;
        }
        self.writer.event(&mut self.out, ev);
    }

    /// End the recording: the complete trace, a binary one closed by its
    /// end-of-trace marker.
    pub fn finish(mut self) -> Vec<u8> {
        self.writer.end(&mut self.out);
        // A finished trace is kept (an outcome, a corpus): without its
        // growth slack, which can be as large as the trace itself.
        self.out.shrink_to_fit();
        self.out
    }
}

/// Where in a trace a [`TraceError`] sits, over the push parser's one
/// record counter: the header is record 0 in both encodings, and a text
/// stream's records are its lines (empty ones included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePos {
    /// Text record `n`, printed `trace line {n + 1}`.
    Line(u64),
    /// Binary record `n`, printed `trace record {n}`.
    Record(u64),
}

/// Where a binary trace was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truncation {
    /// Inside the magic or the header fields.
    Header,
    /// At a record boundary: only the end-of-trace marker is missing.
    Boundary,
    /// Inside a record.
    MidRecord,
}

/// What is wrong with a trace, or with the stream carrying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The stream ended before its first byte.
    Empty,
    /// A binary stream ended early.
    Truncated(Truncation),
    /// A text line, header included, longer than [`binio::MAX_RECORD`].
    LineTooLong,
    /// What the format does not allow, in words: header and line syntax,
    /// an undefined string id, a non-dense string table, a range past the
    /// end of the address space, data after the end-of-trace marker.
    Syntax(Box<str>),
    /// A binary header or record the codec cannot decode.
    Decode(DecodeError),
    /// A record that decodes, refused by the session applying it.
    Refused(FiberEventError),
    /// The byte source failed (the I/O error's text).
    Read(Box<str>),
    /// The ingest was already finished, spilled or failed.
    Closed,
    /// The ingest's serve engine is gone.
    EngineGone,
    /// The ingest was finished before any byte of a header arrived.
    NoHeader,
}

/// A trace failure: its kind and, for a body record, its position.
/// Header-level failures have none (except a text header past the line
/// cap: `trace line 1`), and neither does a refusal from a served
/// session's checker pool, which applies events behind the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    position: Option<TracePos>,
    // Boxed: a poll result stays as small as a `String` error made it.
    kind: Box<TraceErrorKind>,
}

const _: () = assert!(std::mem::size_of::<Result<Option<TraceItem>, TraceError>>() <= 40);

impl TraceError {
    fn new(position: Option<TracePos>, kind: TraceErrorKind) -> TraceError {
        let kind = Box::new(kind);
        TraceError { position, kind }
    }

    /// What is wrong.
    pub fn kind(&self) -> &TraceErrorKind {
        &self.kind
    }

    /// The record it is wrong at, if any.
    pub fn position(&self) -> Option<TracePos> {
        self.position
    }
}

impl From<TraceErrorKind> for TraceError {
    fn from(kind: TraceErrorKind) -> TraceError {
        TraceError::new(None, kind)
    }
}

impl From<FiberEventError> for TraceError {
    fn from(refusal: FiberEventError) -> TraceError {
        TraceErrorKind::Refused(refusal).into()
    }
}

impl From<TraceError> for String {
    fn from(e: TraceError) -> String {
        e.to_string()
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceErrorKind as K;
        match self.position {
            Some(TracePos::Line(n)) => write!(f, "trace line {}: ", n + 1)?,
            Some(TracePos::Record(n)) => write!(f, "trace record {n}: ")?,
            None => {}
        }
        match &*self.kind {
            K::Empty => f.write_str("empty trace"),
            K::Truncated(Truncation::Header) => {
                f.write_str("binary trace truncated inside the header")
            }
            K::Truncated(Truncation::Boundary) => f.write_str(
                "binary trace truncated: missing end-of-trace marker \
                 (stream cut at a record boundary)",
            ),
            K::Truncated(Truncation::MidRecord) => f.write_str("binary trace truncated mid-record"),
            K::LineTooLong => write!(f, "line exceeds the {}-byte cap", binio::MAX_RECORD),
            K::Syntax(detail) => f.write_str(detail),
            // Without a position, a decode failure is in the binary header.
            K::Decode(e) if self.position.is_none() => write!(f, "trace header: {e}"),
            K::Decode(e) => write!(f, "{e}"),
            K::Refused(refusal) => write!(f, "{refusal}"),
            K::Read(e) => write!(f, "trace read error: {e}"),
            K::Closed => f.write_str("session already closed"),
            K::EngineGone => f.write_str("serve engine dropped"),
            K::NoHeader => f.write_str("empty session: no trace header received"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The parsed header of a trace (common to both formats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Rank the trace was recorded on.
    pub rank: usize,
    /// The recording run's shadow mode. Always `true` in a header a
    /// reader yields: `tiered 0` named the removed flat shadow and is
    /// refused while parsing.
    pub tiered: bool,
    /// Shadow page budget of the recording run. Always `None` in a header
    /// a reader yields: the page budget was removed and a header naming
    /// one is refused while parsing.
    pub budget: Option<usize>,
}

impl TraceHeader {
    /// Parse the text header line (without its trailing newline).
    fn parse(header: &str) -> Result<TraceHeader, Box<str>> {
        let Some(rest) = header.strip_prefix(TRACE_MAGIC) else {
            if !header.starts_with(TRACE_FAMILY) {
                return Err(format!("bad header {header:?} (expected `{TRACE_MAGIC} …`)").into());
            }
            let got = header.split_whitespace().take(2).collect::<Vec<_>>();
            return Err(format!(
                "unsupported trace format version: got {:?}, this reader only understands \
                 `{TRACE_MAGIC}` (re-record the trace)",
                got.join(" ")
            )
            .into());
        };
        let ["rank", r, "tiered", t, "budget", b] = rest.split_whitespace().collect::<Vec<_>>()[..]
        else {
            return Err(format!("bad header fields {rest:?}").into());
        };
        let rank = r.parse().map_err(|e| format!("bad rank: {e}"))?;
        let tiered = match t {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad tiered flag {other:?}").into()),
        };
        let budget = match b {
            "none" => None,
            pages => Some(pages.parse().map_err(|e| format!("bad budget: {e}"))?),
        };
        Ok(TraceHeader {
            rank,
            tiered,
            budget,
        })
    }

    /// Refuse a recording made on a removed shadow mode: on the flat
    /// shadow (`tiered 0`), replaying it on the tiered shadow would report
    /// tier counters (`page_summaries_stored`, `page_unfolds`) the
    /// recording run never had; under a page budget, the unbudgeted
    /// shadow would check the accesses the recording run dropped.
    fn refuse_removed_modes(self) -> Result<TraceHeader, Box<str>> {
        if !self.tiered {
            return Err(
                "trace header: recorded with `tiered 0` (the flat shadow walk), which was \
                 removed; this reader only replays tiered-shadow traces (re-record the trace)"
                    .into(),
            );
        }
        if let Some(pages) = self.budget {
            return Err(format!(
                "trace header: recorded under a shadow page budget of {pages} pages, which \
                 was removed; this reader only replays unbudgeted traces (re-record the trace)"
            )
            .into());
        }
        Ok(self)
    }
}

/// One parsed body record of a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A string-table entry, already interned into the parser's table
    /// (the `Arc` handle lets consumers share the label bytes instead of
    /// re-copying them — the serve path's cross-session dedup).
    Str {
        /// The entry's dense id.
        id: StrId,
        /// The unescaped label.
        label: Arc<str>,
    },
    /// An event record.
    Event(CusanEvent),
}

/// The syntax of one text body line (without its trailing newline):
/// the record it spells, not yet checked against the string table, or
/// `Ok(None)` for an empty line.
///
/// Kept out of line: inlined into [`TracePushParser::poll`] it decodes
/// faster, and the ledger's `replay-events/overhead_x` — replay ÷
/// decode-only — reads a faster decoder as a +13 % regression (ROADMAP
/// item 0).
#[inline(never)]
fn parse_line(line: &str) -> Result<Option<BinRecord>, Box<str>> {
    if line.is_empty() {
        return Ok(None);
    }
    let (kind, body) = line
        .split_once(' ')
        .ok_or_else(|| format!("malformed line {line:?}"))?;
    let fields: Vec<&str> = body.split(' ').collect();
    let field = |i: usize| fields.get(i).copied().ok_or("missing field");
    let dec = |i: usize| -> Result<u64, Box<str>> {
        Ok(field(i)?
            .parse::<u64>()
            .map_err(|e| format!("bad number: {e}"))?)
    };
    let hex = |i: usize| -> Result<u64, Box<str>> {
        Ok(u64::from_str_radix(field(i)?, 16).map_err(|e| format!("bad hex number: {e}"))?)
    };
    let fib = |i: usize| -> Result<FiberId, Box<str>> { Ok(FiberId::from_index(dec(i)? as usize)) };
    let sid = |i: usize| -> Result<StrId, Box<str>> { Ok(StrId(dec(i)? as u32)) };
    let ev = match kind {
        "s" => {
            // `s <id> <label>`: the label is everything after the id,
            // spaces included.
            let (id, label) = body.split_once(' ').ok_or("string entry without label")?;
            let id = id.parse().map_err(|e| format!("bad string id: {e}"))?;
            let label = unescape(label);
            return Ok(Some(BinRecord::Str { id, label }));
        }
        "fc" => CusanEvent::FiberCreate {
            fiber: fib(0)?,
            name: sid(1)?,
        },
        "fy" => CusanEvent::FiberSwitch {
            fiber: fib(0)?,
            sync: true,
        },
        "fs" => CusanEvent::FiberSwitch {
            fiber: fib(0)?,
            sync: false,
        },
        "fd" => CusanEvent::FiberDestroy { fiber: fib(0)? },
        "hb" => CusanEvent::HappensBefore {
            key: SyncKey(hex(0)?),
        },
        "ha" => CusanEvent::HappensAfter {
            key: SyncKey(hex(0)?),
        },
        "rr" => CusanEvent::ReadRange {
            addr: hex(0)?,
            len: dec(1)?,
            ctx: sid(2)?,
        },
        "wr" => CusanEvent::WriteRange {
            addr: hex(0)?,
            len: dec(1)?,
            ctx: sid(2)?,
        },
        "al" => CusanEvent::Alloc {
            addr: hex(0)?,
            bytes: dec(1)?,
            kind: sid(2)?,
        },
        "fr" => CusanEvent::Free {
            addr: hex(0)?,
            bytes: dec(1)?,
        },
        "qb" => CusanEvent::RequestBegin { serial: dec(0)? },
        "qc" => CusanEvent::RequestComplete { serial: dec(0)? },
        "cb" => CusanEvent::CounterBump {
            counter: sid(0)?,
            delta: dec(1)?,
        },
        "af" => CusanEvent::ApiFault {
            call: sid(0)?,
            site: dec(1)?,
        },
        "sc" => CusanEvent::ScheduleChoice {
            kind: sid(0)?,
            arity: dec(1)?,
            chosen: dec(2)?,
        },
        other => return Err(format!("unknown event kind {other:?}").into()),
    };
    Ok(Some(BinRecord::Event(ev)))
}

/// One item a [`TracePushParser`] yields.
#[derive(Debug)]
pub enum TraceItem {
    /// The trace header — always the first item.
    Header(TraceHeader),
    /// A body record.
    Record(TraceRecord),
}

#[derive(Debug, Default)]
enum PushState {
    /// Deciding text vs binary from the first bytes.
    #[default]
    Sniff,
    /// Text decided; waiting for the complete header line.
    TextHeader,
    /// Text header accepted; body lines stream through [`parse_line`].
    TextBody,
    /// Binary magic matched; waiting for the complete header fields.
    BinHeader,
    /// Binary header accepted; body records stream through the decoder.
    BinBody {
        dec: binio::Decoder,
        /// The end-of-trace marker has been read: nothing may follow.
        saw_end: bool,
    },
    /// The stream failed; every poll returns this, its first error.
    Failed(TraceError),
}

/// Format-sniffing push parser: feed it byte chunks with arbitrary
/// boundaries — mid-line, mid-varint, mid-code-point — and poll items
/// out. This is the one trace-decoding engine: [`TraceReader`] wraps it
/// for pull iteration, and `cusan-serve`'s ingest drives it directly
/// from reassembled socket frames.
///
/// The first bytes decide the format: streams beginning with the binary
/// family magic (`cusanbt`) decode as v3 records (wrong versions fail
/// loudly), everything else parses as text lines (where a non-`v2`
/// header fails loudly too). Either way, body records pass one
/// validation against one string table and one counter numbers them.
/// The parser buffers only the unconsumed tail, and its mid-stream state
/// snapshots into the serve spill format ([`TracePushParser::spill_to`]).
#[derive(Debug, Default)]
pub struct TracePushParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted on the next feed).
    start: usize,
    /// Bytes after `start` already searched for the end of a text line,
    /// so a line that arrives in many chunks is scanned once.
    scanned: usize,
    eof: bool,
    /// Body records consumed so far, which is also the number of the one
    /// yielded last (the header is record 0).
    records: u64,
    strings: CtxInterner,
    state: PushState,
}

impl TracePushParser {
    /// Fresh parser, format undecided until the first bytes arrive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one chunk of the stream.
    pub fn feed(&mut self, chunk: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Declare end-of-stream: a final text line without a trailing
    /// newline becomes parseable, and incomplete binary records (or a
    /// missing end-of-trace marker) become typed truncation errors on
    /// the next [`TracePushParser::poll`].
    pub fn close(&mut self) {
        self.eof = true;
    }

    /// Record `n` in the body's encoding (`None` before the header).
    fn position(&self, n: u64) -> Option<TracePos> {
        match self.state {
            PushState::TextHeader | PushState::TextBody => Some(TracePos::Line(n)),
            PushState::BinBody { .. } => Some(TracePos::Record(n)),
            _ => None,
        }
    }

    /// Poison the stream with its first error, at record `at` of the
    /// body (`None`: no position).
    #[cold]
    #[inline(never)]
    fn fail(&mut self, at: Option<u64>, kind: TraceErrorKind) -> TraceError {
        let e = TraceError::new(at.and_then(|n| self.position(n)), kind);
        self.state = PushState::Failed(e.clone());
        e
    }

    /// Produce the next item, or `Ok(None)` when more bytes are needed
    /// (before [`Self::close`]) / the stream is fully drained (after).
    /// Errors are not consumed: a poisoned stream keeps returning its
    /// first error, and callers are expected to stop there.
    pub fn poll(&mut self) -> Result<Option<TraceItem>, TraceError> {
        use TraceErrorKind::{Decode, Syntax, Truncated};
        loop {
            let next = Some(self.records + 1);
            let p = &self.buf[self.start..];
            match self.state {
                PushState::Sniff => {
                    let probe = p.len().min(binio::BIN_FAMILY.len());
                    if p[..probe] != binio::BIN_FAMILY[..probe] {
                        self.state = PushState::TextHeader;
                    } else if p.len() >= binio::BIN_MAGIC.len() {
                        self.state = PushState::BinHeader;
                    } else if !self.eof {
                        return Ok(None);
                    } else if p.is_empty() {
                        return Err(self.fail(None, TraceErrorKind::Empty));
                    } else {
                        // A ≤7-byte stream that is a prefix of the binary
                        // magic can only be a cut-off trace (text headers
                        // diverge from the family within 6 bytes).
                        return Err(self.fail(None, Truncated(Truncation::Header)));
                    }
                }
                PushState::TextHeader | PushState::TextBody => {
                    let body = matches!(self.state, PushState::TextBody);
                    // The header line is record 0.
                    let at = if body { next } else { Some(0) };
                    let (len, consumed) = match text_line(p, &mut self.scanned, self.eof) {
                        Ok(Some(line)) => line,
                        Ok(None) => return Ok(None),
                        Err(kind) => return Err(self.fail(at, kind)),
                    };
                    let line = std::str::from_utf8(&p[..len]);
                    self.start += consumed;
                    if !body {
                        let header = line
                            .map_err(|_| "trace header is not valid UTF-8".into())
                            .and_then(TraceHeader::parse);
                        return self.enter_body(header, PushState::TextBody);
                    }
                    self.records += 1;
                    let rec = line.map_err(|_| "line is not valid UTF-8".into());
                    match rec.and_then(parse_line) {
                        Ok(Some(rec)) => return self.admit(rec),
                        Ok(None) => {}
                        Err(detail) => return Err(self.fail(at, Syntax(detail))),
                    }
                }
                PushState::BinHeader => match binio::decode_header(p) {
                    Ok(Some((n, rank, tiered, budget))) => {
                        self.start += n;
                        let header = TraceHeader {
                            rank,
                            tiered,
                            budget,
                        };
                        let body = PushState::BinBody {
                            dec: binio::Decoder::default(),
                            saw_end: false,
                        };
                        return self.enter_body(Ok(header), body);
                    }
                    Ok(None) if self.eof => {
                        return Err(self.fail(None, Truncated(Truncation::Header)))
                    }
                    Ok(None) => return Ok(None),
                    Err(e) => return Err(self.fail(None, Decode(e))),
                },
                PushState::BinBody { saw_end: true, .. } if p.is_empty() => return Ok(None),
                PushState::BinBody { .. } if p.is_empty() && self.eof => {
                    return Err(self.fail(None, Truncated(Truncation::Boundary)))
                }
                PushState::BinBody { saw_end: true, .. } => {
                    let detail = "data after the end-of-trace marker".into();
                    return Err(self.fail(next, Syntax(detail)));
                }
                PushState::BinBody {
                    ref mut dec,
                    ref mut saw_end,
                } => match dec.decode_record(p) {
                    Ok(Some((n, rec))) => {
                        self.start += n;
                        self.records += 1;
                        if !matches!(rec, BinRecord::End) {
                            return self.admit(rec);
                        }
                        *saw_end = true;
                    }
                    Ok(None) if self.eof => {
                        return Err(self.fail(next, Truncated(Truncation::MidRecord)))
                    }
                    Ok(None) => return Ok(None),
                    Err(e) => return Err(self.fail(next, Decode(e))),
                },
                PushState::Failed(ref e) => return Err(e.clone()),
            }
        }
    }

    /// Yield `header` and stream the body in the `body` state, unless
    /// the header is malformed or refused.
    fn enter_body(
        &mut self,
        header: Result<TraceHeader, Box<str>>,
        body: PushState,
    ) -> Result<Option<TraceItem>, TraceError> {
        match header.and_then(TraceHeader::refuse_removed_modes) {
            Ok(header) => {
                self.state = body;
                Ok(Some(TraceItem::Header(header)))
            }
            Err(detail) => Err(self.fail(None, TraceErrorKind::Syntax(detail))),
        }
    }

    /// The one validation both encodings' body records pass, at the
    /// record just consumed: a string entry must take the next dense id,
    /// and an event must pass [`check_event`].
    fn admit(&mut self, rec: BinRecord) -> Result<Option<TraceItem>, TraceError> {
        let checked = match rec {
            BinRecord::Str { id, label } => match self.strings.intern(&label) {
                StrId(expected) if expected != id => {
                    Err(format!("string table not dense: got id {id}, expected {expected}").into())
                }
                interned => Ok(TraceRecord::Str {
                    id: interned,
                    label: self.strings.shared_label(interned).expect("just interned"),
                }),
            },
            BinRecord::Event(ev) => {
                check_event(&ev, &self.strings).map(|()| TraceRecord::Event(ev))
            }
            BinRecord::End => unreachable!("the body loop consumes the end marker"),
        };
        match checked {
            Ok(rec) => Ok(Some(TraceItem::Record(rec))),
            Err(detail) => Err(self.fail(Some(self.records), TraceErrorKind::Syntax(detail))),
        }
    }

    /// Serialize the mid-stream state — pending bytes, format decision,
    /// record counter, binary delta state — into `buf` (the serve spill
    /// layout's parser section). The string table is not written: it is,
    /// label for label, the table of the session that consumed every
    /// record this parser yielded, and that session's snapshot carries
    /// it. [`TracePushParser::restore_from`] rebuilds a parser that
    /// continues byte-for-byte identically. A failed parser panics: its
    /// stream is dropped, not spilled.
    pub fn spill_to(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, &self.buf[self.start..]);
        match &self.state {
            // Pre-header states re-sniff their pending bytes on restore.
            PushState::Sniff | PushState::TextHeader | PushState::BinHeader => buf.push(0),
            PushState::TextBody => {
                buf.push(1);
                put_varint(buf, self.records);
            }
            PushState::BinBody { dec, saw_end } => {
                buf.push(2);
                put_varint(buf, self.records);
                buf.push(u8::from(*saw_end));
                let ds = dec.state();
                for v in [ds.addr, ds.fiber, ds.key] {
                    put_varint(buf, v);
                }
            }
            PushState::Failed(e) => unreachable!("spilling a failed trace stream ({e})"),
        }
    }

    /// Rebuild a parser from [`TracePushParser::spill_to`] output and
    /// `strings`, the string table of the session that consumed its
    /// records (empty before a header).
    pub fn restore_from(
        s: &mut Scanner<'_>,
        strings: CtxInterner,
    ) -> Result<TracePushParser, DecodeError> {
        let buf = s.bytes()?.to_vec();
        let (state, records) = match s.u8()? {
            0 => (PushState::Sniff, 0),
            1 => (PushState::TextBody, s.varint()?),
            2 => {
                let records = s.varint()?;
                let saw_end = s.bool()?;
                let dec = binio::Decoder::from_state(binio::DeltaState {
                    addr: s.varint()?,
                    fiber: s.varint()?,
                    key: s.varint()?,
                });
                (PushState::BinBody { dec, saw_end }, records)
            }
            t => return Err(s.corrupt(format!("unknown parser state tag {t}"))),
        };
        Ok(TracePushParser {
            buf,
            records,
            strings,
            state,
            ..TracePushParser::default()
        })
    }
}

/// The text line at the front of `p`: `(length, bytes it consumes)`, or
/// `None` while its newline is still to come. `scanned` is how much of
/// `p` earlier polls have searched already. A line longer than
/// [`binio::MAX_RECORD`] is refused as soon as that much of it is
/// buffered, newline or not, so the outcome does not depend on how the
/// stream was chunked and a stream without newlines holds at most the
/// cap plus one chunk.
#[inline]
fn text_line(
    p: &[u8],
    scanned: &mut usize,
    eof: bool,
) -> Result<Option<(usize, usize)>, TraceErrorKind> {
    let (len, consumed) = match p[*scanned..].iter().position(|&b| b == b'\n') {
        Some(i) => (*scanned + i, *scanned + i + 1),
        None if eof && !p.is_empty() => (p.len(), p.len()),
        None => {
            *scanned = p.len();
            (p.len(), 0)
        }
    };
    if len as u64 > binio::MAX_RECORD {
        return Err(TraceErrorKind::LineTooLong);
    }
    if consumed == 0 {
        return Ok(None);
    }
    *scanned = 0;
    Ok(Some((len, consumed)))
}

/// The next item of `parser`, refilled from `input` as needed; `None`
/// once the stream is drained.
fn pull<R: BufRead>(
    input: &mut R,
    parser: &mut TracePushParser,
) -> Result<Option<TraceItem>, TraceError> {
    loop {
        if let Some(item) = parser.poll()? {
            return Ok(Some(item));
        }
        if parser.eof {
            return Ok(None);
        }
        let chunk = input
            .fill_buf()
            .map_err(|e| TraceError::from(TraceErrorKind::Read(e.to_string().into())))?;
        let n = chunk.len();
        parser.feed(chunk);
        input.consume(n);
        if n == 0 {
            parser.close();
        }
    }
}

/// Pull-mode streaming reader: iterates [`TraceRecord`]s straight off a
/// [`BufRead`] source without materializing the trace, sniffing the
/// format from the magic. The unconsumed tail of one chunk is the only
/// per-trace buffer. Like its parser, a failed reader keeps returning
/// its first error.
pub struct TraceReader<R> {
    input: R,
    parser: TracePushParser,
    header: TraceHeader,
}

impl<R: BufRead> TraceReader<R> {
    /// Read and parse the header (text or binary); subsequent records
    /// come from [`Iterator::next`].
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut parser = TracePushParser::new();
        let Some(TraceItem::Header(header)) = pull(&mut input, &mut parser)? else {
            unreachable!("a stream yields its header first, or fails");
        };
        Ok(TraceReader {
            input,
            parser,
            header,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match pull(&mut self.input, &mut self.parser) {
            Ok(Some(TraceItem::Record(rec))) => Some(Ok(rec)),
            Ok(Some(TraceItem::Header(_))) => unreachable!("second header"),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Re-encode a trace stream into `format`, record-for-record — the
/// interleaving of string-table entries and events is preserved, so a
/// transcoded trace replays identically and a round trip (text → binary
/// → text) reproduces the original bytes exactly (both writers are
/// canonical).
pub fn transcode<R: BufRead>(input: R, format: TraceFormat) -> Result<Vec<u8>, TraceError> {
    let mut reader = TraceReader::new(input)?;
    let h = *reader.header();
    let mut writer = RecordWriter::new(format);
    let mut out = Vec::new();
    writer.header(&mut out, h.rank);
    for rec in &mut reader {
        match rec? {
            TraceRecord::Str { id, label } => writer.str_record(&mut out, id.0, &label),
            TraceRecord::Event(ev) => writer.event(&mut out, &ev),
        }
    }
    writer.end(&mut out);
    Ok(out)
}

/// Replay a recorded trace: drive its records from a [`BufRead`] source
/// (either format) straight into a fresh [`CheckSession`] built from its
/// header, in O(1) memory in the trace length.
///
/// Uses the same apply path as the live run ([`CheckSession::try_apply`]),
/// with the recorded rank's host-fiber name, so
/// reports (fiber and context labels included), detector stats and event
/// counters all reproduce exactly. A record that does not decode, or a
/// fiber event the session refuses, is an error naming its position.
pub fn replay_stream<R: BufRead>(input: R) -> Result<SessionSummary, TraceError> {
    let mut reader = TraceReader::new(input)?;
    let mut session = CheckSession::for_header(reader.header());
    while let Some(rec) = reader.next() {
        if let Err(refusal) = session.feed(&rec?) {
            let at = reader.parser.position(reader.parser.records);
            return Err(TraceError::new(at, TraceErrorKind::Refused(refusal)));
        }
    }
    Ok(session.into_summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_as(format: TraceFormat, events: &[(CusanEvent, &CtxInterner)]) -> Vec<u8> {
        let mut sink = TraceSink::new(format, 3);
        for (ev, strings) in events {
            sink.on_event(ev, strings);
        }
        sink.finish()
    }

    fn record(events: &[(CusanEvent, &CtxInterner)]) -> String {
        String::from_utf8(record_as(TraceFormat::Text, events)).expect("text traces are UTF-8")
    }

    /// A trace off the streaming reader: header, labels in id order (ids
    /// are dense) and events.
    type WholeTrace = (TraceHeader, Vec<Arc<str>>, Vec<CusanEvent>);

    fn read_all(bytes: &[u8]) -> Result<WholeTrace, TraceError> {
        let mut reader = TraceReader::new(bytes)?;
        let header = *reader.header();
        let (mut labels, mut events) = (Vec::new(), Vec::new());
        for rec in &mut reader {
            match rec? {
                TraceRecord::Str { label, .. } => labels.push(label),
                TraceRecord::Event(ev) => events.push(ev),
            }
        }
        Ok((header, labels, events))
    }

    /// [`read_all`] through a [`TracePushParser`] fed `chunk` bytes at a
    /// time, then closed.
    fn push_all(bytes: &[u8], chunk: usize) -> Result<WholeTrace, TraceError> {
        let mut parser = TracePushParser::new();
        let (mut header, mut labels, mut events) = (None, Vec::new(), Vec::new());
        let mut drain = |parser: &mut TracePushParser| -> Result<(), TraceError> {
            while let Some(item) = parser.poll()? {
                match item {
                    TraceItem::Header(h) => header = Some(h),
                    TraceItem::Record(TraceRecord::Str { label, .. }) => labels.push(label),
                    TraceItem::Record(TraceRecord::Event(ev)) => events.push(ev),
                }
            }
            Ok(())
        };
        for piece in bytes.chunks(chunk) {
            parser.feed(piece);
            drain(&mut parser)?;
        }
        parser.close();
        drain(&mut parser)?;
        Ok((
            header.expect("a drained stream has its header"),
            labels,
            events,
        ))
    }

    fn syntax(position: Option<TracePos>, detail: &str) -> TraceError {
        TraceError::new(position, TraceErrorKind::Syntax(detail.into()))
    }

    fn sample_events(strings: &mut CtxInterner) -> Vec<CusanEvent> {
        let name = strings.intern("cuda stream 0 (default)");
        let ctx = strings.intern("kernel k arg#0 (p) [write]");
        let f = FiberId::from_index(1);
        vec![
            CusanEvent::FiberCreate { fiber: f, name },
            CusanEvent::FiberSwitch {
                fiber: f,
                sync: true,
            },
            CusanEvent::WriteRange {
                addr: 0x4000,
                len: 8192,
                ctx,
            },
            CusanEvent::HappensBefore {
                key: SyncKey(0x0100_0000_0000),
            },
            CusanEvent::FiberSwitch {
                fiber: FiberId::HOST,
                sync: false,
            },
            CusanEvent::HappensAfter {
                key: SyncKey(0x0100_0000_0000),
            },
            CusanEvent::Alloc {
                addr: 0x4000,
                bytes: 8192,
                kind: name,
            },
            CusanEvent::Free {
                addr: 0x4000,
                bytes: 8192,
            },
            CusanEvent::RequestBegin { serial: 0 },
            CusanEvent::RequestComplete { serial: 0 },
            CusanEvent::CounterBump {
                counter: ctx,
                delta: 2,
            },
            CusanEvent::ApiFault {
                call: name,
                site: 7,
            },
            CusanEvent::ScheduleChoice {
                kind: ctx,
                arity: 3,
                chosen: 1,
            },
            CusanEvent::FiberDestroy { fiber: f },
        ]
    }

    #[test]
    fn roundtrip_preserves_events_and_strings() {
        let mut strings = CtxInterner::new();
        let events = sample_events(&mut strings);
        let text = record(&events.iter().map(|e| (*e, &strings)).collect::<Vec<_>>());
        let (header, labels, read) = read_all(text.as_bytes()).unwrap();
        assert_eq!(header.rank, 3);
        assert!(header.tiered);
        assert_eq!(header.budget, None);
        assert_eq!(read, events);
        assert_eq!(&*labels[0], "cuda stream 0 (default)");
        assert_eq!(&*labels[1], "kernel k arg#0 (p) [write]");
    }

    #[test]
    fn binary_roundtrip_matches_text_twin() {
        let mut strings = CtxInterner::new();
        let events = sample_events(&mut strings);
        let pairs: Vec<_> = events.iter().map(|e| (*e, &strings)).collect();
        let text = record_as(TraceFormat::Text, &pairs);
        let bin = record_as(TraceFormat::Binary, &pairs);
        // String labels cost the same raw bytes in both formats and
        // dominate this tiny sample; the ≥2.5× bytes-per-event gate
        // lives in `crates/apps/tests/trace_replay.rs` and
        // `tests/trace_fixture.rs`, where events dominate.
        assert!(
            bin.len() < text.len(),
            "binary ({}) should be smaller than text ({})",
            bin.len(),
            text.len()
        );
        // Header, string table and events all agree.
        assert_eq!(read_all(&bin).unwrap(), read_all(&text).unwrap());
        // Replay is format-blind.
        let rt = replay_stream(&text[..]).unwrap();
        let rb = replay_stream(&bin[..]).unwrap();
        assert_eq!(rb.reports, rt.reports);
        assert_eq!(rb.stats, rt.stats);
        assert_eq!(rb.counters, rt.counters);
    }

    #[test]
    fn transcode_round_trips_byte_identically() {
        let mut strings = CtxInterner::new();
        let events = sample_events(&mut strings);
        let pairs: Vec<_> = events.iter().map(|e| (*e, &strings)).collect();
        let text = record_as(TraceFormat::Text, &pairs);
        let bin = record_as(TraceFormat::Binary, &pairs);
        // Transcoding the text twin reproduces the direct binary
        // recording (both writers are canonical, and the lazy string
        // flush keeps the record interleaving identical)…
        assert_eq!(transcode(&text[..], TraceFormat::Binary).unwrap(), bin);
        // …and the full round trip gives the original text back.
        let back = transcode(&bin[..], TraceFormat::Text).unwrap();
        assert_eq!(back, text);
        // Idempotent transcodes.
        assert_eq!(transcode(&text[..], TraceFormat::Text).unwrap(), text);
        assert_eq!(transcode(&bin[..], TraceFormat::Binary).unwrap(), bin);
    }

    #[test]
    fn binary_truncation_always_fails_typed() {
        let mut strings = CtxInterner::new();
        let events = sample_events(&mut strings);
        let pairs: Vec<_> = events.iter().map(|e| (*e, &strings)).collect();
        let bin = record_as(TraceFormat::Binary, &pairs);
        for cut in 0..bin.len() {
            // Whole or byte by byte, a prefix fails alike.
            let err = read_all(&bin[..cut])
                .expect_err(&format!("prefix of {cut}/{} bytes must fail", bin.len()));
            assert_eq!(push_all(&bin[..cut], 1), Err(err.clone()), "prefix {cut}");
            assert!(
                matches!(
                    err.kind(),
                    TraceErrorKind::Empty | TraceErrorKind::Truncated(_)
                ),
                "prefix {cut}: unexpected error {err:?}"
            );
        }
        // Trailing garbage after the end marker fails too, at the record
        // after the marker: two labels and the events are records 1..=16,
        // the marker 17.
        let mut extra = bin.clone();
        extra.extend_from_slice(&[3, 11, 0]);
        let after_end = Some(TracePos::Record(
            strings.len() as u64 + events.len() as u64 + 2,
        ));
        let want = syntax(after_end, "data after the end-of-trace marker");
        assert_eq!(read_all(&extra), Err(want.clone()));
        assert_eq!(push_all(&extra, 1), Err(want));
    }

    #[test]
    fn text_prefixes_parse_alike_whole_and_bytewise() {
        let mut strings = CtxInterner::new();
        let events = sample_events(&mut strings);
        let pairs: Vec<_> = events.iter().map(|e| (*e, &strings)).collect();
        let text = record_as(TraceFormat::Text, &pairs);
        for cut in 0..=text.len() {
            let prefix = &text[..cut];
            let whole = read_all(prefix);
            assert_eq!(push_all(prefix, 1), whole, "prefix {cut}");
            // A text stream has no end marker: one cut at a line
            // boundary is a shorter trace, not a broken one.
            match cut {
                0 => assert_eq!(whole.unwrap_err().kind(), &TraceErrorKind::Empty),
                _ if text[cut - 1] == b'\n' => assert!(whole.is_ok(), "prefix {cut}: {whole:?}"),
                _ => {}
            }
        }
    }

    #[test]
    fn labels_with_specials_survive() {
        for label in ["a b\tc", "back\\slash", "new\nline", "trailing ", "é✓"] {
            let mut out = Vec::new();
            write_escaped(&mut out, label);
            let escaped = String::from_utf8(out).expect("escaping preserves UTF-8");
            assert!(!escaped.contains('\n'));
            assert_eq!(unescape(&escaped), label);
        }
        let mut strings = CtxInterner::new();
        let id = strings.intern("weird \\ label\nwith newline");
        for format in [TraceFormat::Text, TraceFormat::Binary] {
            let bytes = record_as(
                format,
                &[(
                    CusanEvent::FiberCreate {
                        fiber: FiberId::from_index(1),
                        name: id,
                    },
                    &strings,
                )],
            );
            let (_, labels, _) = read_all(&bytes).unwrap();
            assert_eq!(&*labels[id.0 as usize], "weird \\ label\nwith newline");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        let parse = |text: &str| read_all(text.as_bytes());
        assert!(parse("").is_err());
        assert!(parse("not-a-trace\n").is_err());
        assert!(parse(&format!("{TRACE_MAGIC} rank x tiered 1 budget none\n")).is_err());
        assert!(parse(&format!("{TRACE_MAGIC} rank 0 tiered 1 budget zz\n")).is_err());
        let ok_header = format!("{TRACE_MAGIC} rank 0 tiered 1 budget none\n");
        assert!(parse(&format!("{ok_header}zz 1 2\n")).is_err());
        assert!(parse(&format!("{ok_header}rr zz 8 0\n")).is_err());
        // Event referencing an undefined string id — `af` included.
        assert!(parse(&format!("{ok_header}fc 1 0\n")).is_err());
        assert!(parse(&format!("{ok_header}af 0 1\n")).is_err());
        assert!(parse(&format!("{ok_header}sc 0 2 1\n")).is_err());
        // Non-dense string table.
        assert!(parse(&format!("{ok_header}s 5 label\n")).is_err());
        // Well-formed minimal trace parses.
        let (_, _, events) = parse(&format!("{ok_header}s 0 f\nfc 1 0\nfd 1\n")).unwrap();
        assert_eq!(events.len(), 2);
    }

    /// Both entry points refuse `bytes` at the header, with no position,
    /// naming the removed shadow mode `header` records.
    fn assert_header_refused(bytes: &[u8], header: TraceHeader) {
        let refusal = TraceError::new(
            None,
            TraceErrorKind::Syntax(header.refuse_removed_modes().unwrap_err()),
        );
        assert_eq!(TraceReader::new(bytes).err(), Some(refusal.clone()));
        let mut push = TracePushParser::new();
        push.feed(bytes);
        push.close();
        assert_eq!(push.poll().err(), Some(refusal));
    }

    /// A header recorded on the flat shadow, and one recorded under a
    /// page budget of 2.
    const REMOVED_MODES: [TraceHeader; 2] = [
        TraceHeader {
            rank: 0,
            tiered: false,
            budget: None,
        },
        TraceHeader {
            rank: 0,
            tiered: true,
            budget: Some(2),
        },
    ];

    #[test]
    fn text_header_recorded_on_the_flat_shadow_is_refused() {
        for header in REMOVED_MODES {
            let tiered = u8::from(header.tiered);
            let budget = header.budget.map_or("none".to_string(), |b| b.to_string());
            let text =
                format!("{TRACE_MAGIC} rank 0 tiered {tiered} budget {budget}\ns 0 f\nfc 1 0\n");
            assert_header_refused(text.as_bytes(), header);
        }
    }

    #[test]
    fn binary_header_recorded_on_the_flat_shadow_is_refused() {
        for header in REMOVED_MODES {
            let mut bytes = Vec::new();
            binio::Encoder::encode_header(&mut bytes, 0);
            // The header ends in `tiered` and the budget (varint budget + 1).
            let n = bytes.len();
            bytes[n - 2] = u8::from(header.tiered);
            bytes[n - 1] = header.budget.map_or(0, |b| b as u8 + 1);
            binio::Encoder::new().encode_end(&mut bytes);
            assert_header_refused(&bytes, header);
        }
    }

    #[test]
    fn binary_parser_enforces_string_table_rules() {
        // Build records by hand: an event referencing an undefined id.
        let mut bytes = Vec::new();
        binio::Encoder::encode_header(&mut bytes, 0);
        let mut enc = binio::Encoder::new();
        enc.encode_event(
            &mut bytes,
            &CusanEvent::FiberCreate {
                fiber: FiberId::from_index(1),
                name: StrId(0),
            },
        );
        enc.encode_end(&mut bytes);
        let err = read_all(&bytes).unwrap_err();
        assert_eq!(
            err,
            syntax(Some(TracePos::Record(1)), "undefined string id 0")
        );
        // Non-dense string table.
        let mut bytes = Vec::new();
        binio::Encoder::encode_header(&mut bytes, 0);
        let mut enc = binio::Encoder::new();
        enc.encode_str(&mut bytes, 5, "label");
        enc.encode_end(&mut bytes);
        let err = read_all(&bytes).unwrap_err();
        let not_dense = "string table not dense: got id 5, expected 0";
        assert_eq!(err, syntax(Some(TracePos::Record(1)), not_dense));
    }

    #[test]
    fn ranges_past_the_address_space_are_refused_in_both_encodings() {
        let mut strings = CtxInterner::new();
        let ctx = strings.intern("hostile");
        let (addr, len) = (u64::MAX, 16);
        let hostile = [
            CusanEvent::ReadRange { addr, len, ctx },
            CusanEvent::WriteRange { addr, len, ctx },
            CusanEvent::Alloc {
                addr,
                bytes: len,
                kind: ctx,
            },
            CusanEvent::Free { addr, bytes: len },
        ];
        let past_the_end = "range ffffffffffffffff+16 runs past the end of the address space";
        for (format, at) in [
            // The label is record 1, the event record 2.
            (TraceFormat::Text, TracePos::Line(2)),
            (TraceFormat::Binary, TracePos::Record(2)),
        ] {
            for ev in &hostile {
                let bytes = record_as(format, &[(*ev, &strings)]);
                let want = syntax(Some(at), past_the_end);
                assert_eq!(replay_stream(&bytes[..]).unwrap_err(), want, "{ev:?}");
                assert_eq!(read_all(&bytes).unwrap_err(), want, "{ev:?}");
            }
            // The last representable range is fine, and the shadow walks
            // it without overflowing.
            let top = CusanEvent::WriteRange {
                addr: u64::MAX - 15,
                len: 15,
                ctx,
            };
            let bytes = record_as(format, &[(top, &strings)]);
            let summary = replay_stream(&bytes[..]).unwrap();
            assert_eq!(summary.stats.write_bytes, 15);
        }
    }

    #[test]
    fn inconsistent_fiber_events_are_refused_in_both_encodings() {
        // Every record decodes; what is wrong is what the stream says
        // happened. (body, its last record's number, the refusal)
        let cases = [
            ("fs 7\n", 1, "switch to fiber 7, which is not alive"),
            ("fd 0\n", 1, "destroy of the host fiber"),
            (
                "s 0 f\nfc 5 0\n",
                2,
                "create of fiber 5, but the fiber table assigns 1 next",
            ),
            (
                "s 0 f\nfc 1 0\nfd 1\nfd 1\n",
                4,
                "destroy of fiber 1, which is not alive",
            ),
            (
                "s 0 f\nfc 1 0\nfy 1\nfd 1\n",
                4,
                "destroy of fiber 1, the current fiber",
            ),
        ];
        for (body, recno, why) in cases {
            let text = format!("{TRACE_MAGIC} rank 0 tiered 1 budget none\n{body}");
            let binary = transcode(text.as_bytes(), TraceFormat::Binary).unwrap();
            for (bytes, at) in [
                (text.as_bytes(), format!("trace line {}", recno + 1)),
                (&binary[..], format!("trace record {recno}")),
            ] {
                let want = format!("{at}: inconsistent fiber event: {why}");
                assert_eq!(replay_stream(bytes).unwrap_err().to_string(), want);
                // Refusing is the checker's job: every record decodes.
                assert!(read_all(bytes).is_ok());
            }
            // Without its last record the stream is fine, in both
            // encodings alike.
            let cut = text.trim_end().rfind('\n').unwrap() + 1;
            let text = &text.as_bytes()[..cut];
            let binary = transcode(text, TraceFormat::Binary).unwrap();
            assert_eq!(
                replay_stream(text).unwrap(),
                replay_stream(&binary[..]).unwrap()
            );
        }
    }

    #[test]
    fn parse_rejects_old_version_loudly() {
        // A v1 recording (no budget field, no `af` events) must fail with a
        // version message, not a generic header error.
        let err = read_all(b"cusan-trace v1 rank 0 tiered 1\n").unwrap_err();
        let v1 = "unsupported trace format version: got \"cusan-trace v1\", this reader only \
                  understands `cusan-trace v2` (re-record the trace)";
        assert_eq!(err, syntax(None, v1));
        // Same loudness for an unknown *binary* version: the header's
        // version byte is offset 7.
        let mut v4 = Vec::new();
        binio::Encoder::encode_header(&mut v4, 0);
        v4[7] = b'4';
        let err = read_all(&v4).unwrap_err();
        assert_eq!(err.position(), None);
        assert!(
            matches!(
                err.kind(),
                TraceErrorKind::Decode(DecodeError::Corrupt { at: 7, .. })
            ),
            "got: {err:?}"
        );
    }

    #[test]
    fn streaming_reader_matches_whole_file_parse() {
        let mut strings = CtxInterner::new();
        let name = strings.intern("cuda stream 0");
        let ctx = strings.intern("kernel write");
        let f = FiberId::from_index(1);
        let events = [
            CusanEvent::FiberCreate { fiber: f, name },
            CusanEvent::FiberSwitch {
                fiber: f,
                sync: true,
            },
            CusanEvent::WriteRange {
                addr: 0x1000,
                len: 64,
                ctx,
            },
        ];
        let text = record(&events.iter().map(|e| (*e, &strings)).collect::<Vec<_>>());

        // Pull iteration sees string entries then events, in file order.
        let mut reader = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(
            *reader.header(),
            TraceHeader {
                rank: 3,
                tiered: true,
                budget: None
            }
        );
        let recs: Vec<TraceRecord> = reader.by_ref().map(Result::unwrap).collect();
        assert_eq!(recs.len(), 5);
        match &recs[0] {
            TraceRecord::Str { id, label } => {
                assert_eq!(*id, name);
                assert_eq!(&**label, "cuda stream 0");
            }
            other => panic!("expected string entry, got {other:?}"),
        }
        assert_eq!(recs[2], TraceRecord::Event(events[0]));

        // The binary twin yields the identical record stream.
        let bin = transcode(text.as_bytes(), TraceFormat::Binary).unwrap();
        let mut breader = TraceReader::new(&bin[..]).unwrap();
        let brecs: Vec<TraceRecord> = breader.by_ref().map(Result::unwrap).collect();
        assert_eq!(brecs, recs);
    }

    #[test]
    fn push_parser_survives_arbitrary_chunking_and_spill() {
        let mut strings = CtxInterner::new();
        let events = sample_events(&mut strings);
        let pairs: Vec<_> = events.iter().map(|e| (*e, &strings)).collect();
        for format in [TraceFormat::Text, TraceFormat::Binary] {
            let bytes = record_as(format, &pairs);
            let (whole, _, whole_events) = read_all(&bytes).unwrap();
            for chunk in [1usize, 2, 3, 7, 16] {
                let mut parser = TracePushParser::new();
                let mut items = Vec::new();
                // The consumer's copy of the string table, as a session
                // holds it: a restore takes the parser's from here.
                let mut consumer = CtxInterner::new();
                let mut fed = 0;
                for c in bytes.chunks(chunk) {
                    parser.feed(c);
                    fed += c.len();
                    // Spill/restore mid-stream at every chunk boundary:
                    // the restored parser must continue identically.
                    if fed <= bytes.len() / 2 {
                        let mut blob = Vec::new();
                        parser.spill_to(&mut blob);
                        let mut s = Scanner::new(&blob);
                        parser = TracePushParser::restore_from(&mut s, consumer.clone()).unwrap();
                        s.expect_end().unwrap();
                    }
                    while let Some(item) = parser.poll().unwrap() {
                        if let TraceItem::Record(TraceRecord::Str { label, .. }) = &item {
                            consumer.intern_shared(label);
                        }
                        items.push(item);
                    }
                }
                parser.close();
                while let Some(item) = parser.poll().unwrap() {
                    items.push(item);
                }
                let mut got_events = Vec::new();
                let mut header = None;
                for item in items {
                    match item {
                        TraceItem::Header(h) => header = Some(h),
                        TraceItem::Record(TraceRecord::Event(ev)) => got_events.push(ev),
                        TraceItem::Record(TraceRecord::Str { .. }) => {}
                    }
                }
                assert_eq!(header.unwrap().rank, whole.rank, "{format:?} chunk {chunk}");
                assert_eq!(got_events, whole_events, "{format:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn a_text_line_past_the_record_cap_is_refused_however_it_is_chunked() {
        fn first_error(parser: &mut TracePushParser) -> Option<String> {
            loop {
                match parser.poll() {
                    Ok(Some(_)) => {}
                    Ok(None) => return None,
                    Err(e) => return Some(e.to_string()),
                }
            }
        }
        let cap = binio::MAX_RECORD as usize;
        let header = format!("{TRACE_MAGIC} rank 0 tiered 1 budget none\n");
        let too_long = "x".repeat(cap + 1);
        let refusal = "line exceeds the 1048576-byte cap";
        for (text, line) in [
            (too_long.clone(), 1),
            (format!("{header}s 0 f\n{too_long}"), 3),
        ] {
            let refusal = format!("trace line {line}: {refusal}");
            // The newline arrives with the line …
            let mut whole = TracePushParser::new();
            whole.feed(format!("{text}\n").as_bytes());
            assert_eq!(first_error(&mut whole), Some(refusal.clone()));
            // … or never: refused once the cap is exceeded.
            let mut chunked = TracePushParser::new();
            let error = text.as_bytes().chunks(4096).find_map(|chunk| {
                chunked.feed(chunk);
                first_error(&mut chunked)
            });
            assert_eq!(error, Some(refusal));
        }
        // A line of exactly the cap is a line like any other.
        let mut at_cap = TracePushParser::new();
        at_cap.feed(format!("{header}s 0 {}\n", "y".repeat(cap - 4)).as_bytes());
        at_cap.close();
        assert_eq!(first_error(&mut at_cap), None);
    }

    #[test]
    fn incremental_parser_keeps_line_numbers() {
        let mut p = TracePushParser::new();
        p.feed(format!("{TRACE_MAGIC} rank 0 tiered 1 budget none\ns 0 f\n\n").as_bytes());
        assert!(matches!(p.poll(), Ok(Some(TraceItem::Header(_)))));
        assert!(matches!(p.poll(), Ok(Some(TraceItem::Record(_)))));
        assert!(matches!(p.poll(), Ok(None)));
        p.feed(b"rr zz 8 0\n");
        // Header is record 0 and the empty line counts, so the third
        // body line is record 3: file line 4.
        let err = p.poll().unwrap_err();
        let bad_hex = "bad hex number: invalid digit found in string";
        assert_eq!(err, syntax(Some(TracePos::Line(3)), bad_hex));
        assert_eq!(err.to_string(), format!("trace line 4: {bad_hex}"));
    }

    #[test]
    fn a_poisoned_parser_repeats_its_first_error() {
        let header = format!("{TRACE_MAGIC} rank 0 tiered 1 budget none\n");
        // `record_as` does not validate: an event naming a string id the
        // table never defined records as such in either encoding.
        let undefined = CusanEvent::ReadRange {
            addr: 0x10,
            len: 8,
            ctx: StrId(3),
        };
        let no_strings = CtxInterner::new();
        let traces = [
            format!("{header}s 0 f\nzz 1 2\nfd 1\n").into_bytes(),
            format!("{header}rr 10 8 3\nfd 1\n").into_bytes(),
            record_as(TraceFormat::Text, &[(undefined, &no_strings)]),
            record_as(TraceFormat::Binary, &[(undefined, &no_strings)]),
        ];
        for bytes in traces {
            let mut parser = TracePushParser::new();
            parser.feed(&bytes);
            parser.close();
            let first = loop {
                match parser.poll() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("{bytes:?} parsed"),
                    Err(e) => break e,
                }
            };
            for _ in 0..3 {
                assert_eq!(parser.poll().unwrap_err(), first);
            }
            assert_eq!(read_all(&bytes).unwrap_err(), first);
        }
    }

    #[test]
    fn replay_reproduces_race() {
        let mut strings = CtxInterner::new();
        let name = strings.intern("cuda stream 0");
        let cw = strings.intern("kernel write");
        let cr = strings.intern("host read");
        let f = FiberId::from_index(1);
        let events = [
            CusanEvent::FiberCreate { fiber: f, name },
            CusanEvent::FiberSwitch {
                fiber: f,
                sync: true,
            },
            CusanEvent::WriteRange {
                addr: 0x1000,
                len: 64,
                ctx: cw,
            },
            CusanEvent::FiberSwitch {
                fiber: FiberId::HOST,
                sync: false,
            },
            CusanEvent::ReadRange {
                addr: 0x1000,
                len: 64,
                ctx: cr,
            },
        ];
        let text = record(&events.iter().map(|e| (*e, &strings)).collect::<Vec<_>>());
        let out = replay_stream(text.as_bytes()).unwrap();
        assert_eq!(out.reports.len(), 1);
        assert_eq!(out.reports[0].previous.fiber, "cuda stream 0");
        assert_eq!(out.stats.read_range_calls, 1);
        assert_eq!(out.counters.read_range_calls, 1);
        assert_eq!(out.counters.fiber_switches, 2);
    }
}
