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
//! `budget` records the shadow page budget so replay reproduces any
//! best-effort degradation (`dropped_annotations`) of a budget-capped
//! run. `tiered` is the recording run's shadow mode; writers always emit
//! `1`, and a `tiered 0` header — a recording made on the flat shadow,
//! which no longer exists — is refused by the readers in both formats
//! rather than replayed under tiers it never ran with. Every
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
use crate::event::{CtxInterner, CusanEvent, StrId};
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
/// they sniff the magic — so it only appears on the producer side
/// ([`crate::ToolConfig::record`], [`transcode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// v2 line-oriented UTF-8 (the default; human-greppable).
    Text,
    /// v3 length-delimited varint records (see [`crate::binio`]).
    Binary,
}

impl TraceFormat {
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

/// Validation both body decoders run on an event before handing it out
/// (the message gets the caller's line/record position): string ids must
/// be defined, and a byte range must end inside the address space —
/// `addr + len` is what the shadow's range arithmetic computes.
fn check_event(ev: &CusanEvent, strings: &CtxInterner) -> Result<(), String> {
    if let Some(id) = event_used_str(ev) {
        if id.0 as usize >= strings.len() {
            return Err(format!("undefined string id {}", id.0));
        }
    }
    match *ev {
        CusanEvent::ReadRange { addr, len, .. }
        | CusanEvent::WriteRange { addr, len, .. }
        | CusanEvent::Alloc {
            addr, bytes: len, ..
        }
        | CusanEvent::Free { addr, bytes: len }
            if addr.checked_add(len).is_none() =>
        {
            Err(format!(
                "range {addr:x}+{len} runs past the end of the address space"
            ))
        }
        _ => Ok(()),
    }
}

/// String id an event references, if any — both parsers enforce that it
/// is already defined by the string table.
fn event_used_str(ev: &CusanEvent) -> Option<StrId> {
    match *ev {
        CusanEvent::FiberCreate { name, .. } => Some(name),
        CusanEvent::ReadRange { ctx, .. } | CusanEvent::WriteRange { ctx, .. } => Some(ctx),
        CusanEvent::Alloc { kind, .. } => Some(kind),
        CusanEvent::CounterBump { counter, .. } => Some(counter),
        CusanEvent::ApiFault { call, .. } => Some(call),
        CusanEvent::ScheduleChoice { kind, .. } => Some(kind),
        _ => None,
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

    fn header(&mut self, out: &mut Vec<u8>, rank: usize, budget: Option<usize>) {
        match self {
            RecordWriter::Text => {
                let budget = budget.map_or_else(|| "none".to_string(), |b| b.to_string());
                writeln!(out, "{TRACE_MAGIC} rank {rank} tiered 1 budget {budget}")
                    .expect("writes to Vec are infallible");
            }
            RecordWriter::Binary(_) => binio::Encoder::encode_header(out, rank, true, budget),
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
    /// Start a recording in the given format whose header records `rank`
    /// and the shadow page budget.
    pub fn new(format: TraceFormat, rank: usize, budget: Option<usize>) -> TraceSink {
        let mut writer = RecordWriter::new(format);
        let mut out = Vec::new();
        writer.header(&mut out, rank, budget);
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

fn parse_err(lineno: usize, msg: impl Into<String>) -> String {
    format!("trace line {}: {}", lineno + 1, msg.into())
}

fn rec_err(recno: u64, msg: impl Into<String>) -> String {
    format!("trace record {}: {}", recno, msg.into())
}

/// The parsed header of a trace (common to both formats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Rank the trace was recorded on.
    pub rank: usize,
    /// The recording run's shadow mode. Always `true` in a header a
    /// reader yields: `tiered 0` named the removed flat shadow and is
    /// refused while parsing.
    pub tiered: bool,
    /// Shadow page budget of the recording run (`None` = unlimited).
    pub budget: Option<usize>,
}

impl TraceHeader {
    /// Parse the text header line (without its trailing newline).
    pub fn parse(header: &str) -> Result<TraceHeader, String> {
        let rest = header.strip_prefix(TRACE_MAGIC).ok_or_else(|| {
            if header.starts_with(TRACE_FAMILY) {
                format!(
                    "unsupported trace format version: got {:?}, this reader only \
                     understands `{TRACE_MAGIC}` (re-record the trace)",
                    header
                        .split_whitespace()
                        .take(2)
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            } else {
                format!("bad header {header:?} (expected `{TRACE_MAGIC} …`)")
            }
        })?;
        let hf: Vec<&str> = rest.split_whitespace().collect();
        match hf.as_slice() {
            ["rank", r, "tiered", t, "budget", b] => Ok(TraceHeader {
                rank: r.parse::<usize>().map_err(|e| format!("bad rank: {e}"))?,
                tiered: match *t {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad tiered flag {other:?}")),
                },
                budget: match *b {
                    "none" => None,
                    pages => Some(
                        pages
                            .parse::<usize>()
                            .map_err(|e| format!("bad budget: {e}"))?,
                    ),
                },
            }),
            _ => Err(format!("bad header fields {rest:?}")),
        }
    }

    /// Refuse a recording made on the removed flat shadow (`tiered 0`):
    /// replaying it on the tiered shadow would report tier counters
    /// (`page_summaries_stored`, `page_unfolds`) the
    /// recording run never had.
    fn reject_flat_shadow(self) -> Result<TraceHeader, String> {
        if self.tiered {
            Ok(self)
        } else {
            Err(
                "trace header: recorded with `tiered 0` (the flat shadow walk), which was \
                 removed; this reader only replays tiered-shadow traces (re-record the trace)"
                    .to_string(),
            )
        }
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

/// Incremental parser for *text* trace body lines: fed complete lines
/// one at a time, it maintains the string table, the density/defined-id
/// validation, and line numbers for error messages. [`TracePushParser`]
/// wraps it (next to its binary counterpart) behind format sniffing.
#[derive(Debug, Default)]
struct TraceLineParser {
    strings: CtxInterner,
    /// Body lines consumed so far (the header is line 0, so the first
    /// body line is 1 — matching the file's numbering). The serve spill
    /// format records it so a restored parser numbers errors alike.
    lineno: usize,
}

impl TraceLineParser {
    /// Parse one body line (without its trailing newline). Returns
    /// `Ok(None)` for empty lines.
    ///
    /// Kept out of line: inlined into [`TracePushParser::poll`] it
    /// decodes faster, and the ledger's `replay-events/overhead_x` —
    /// replay ÷ decode-only — reads a faster decoder as a +13 %
    /// regression (ROADMAP item 0).
    #[inline(never)]
    fn parse_line(&mut self, line: &str) -> Result<Option<TraceRecord>, String> {
        self.lineno += 1;
        let lineno = self.lineno;
        if line.is_empty() {
            return Ok(None);
        }
        let (kind, body) = line
            .split_once(' ')
            .ok_or_else(|| parse_err(lineno, format!("malformed line {line:?}")))?;
        let fields: Vec<&str> = body.split(' ').collect();
        let dec = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .ok_or_else(|| parse_err(lineno, "missing field"))?
                .parse::<u64>()
                .map_err(|e| parse_err(lineno, format!("bad number: {e}")))
        };
        let hex = |i: usize| -> Result<u64, String> {
            u64::from_str_radix(
                fields
                    .get(i)
                    .ok_or_else(|| parse_err(lineno, "missing field"))?,
                16,
            )
            .map_err(|e| parse_err(lineno, format!("bad hex number: {e}")))
        };
        let fib =
            |i: usize| -> Result<FiberId, String> { Ok(FiberId::from_index(dec(i)? as usize)) };
        let sid = |i: usize| -> Result<StrId, String> { Ok(StrId(dec(i)? as u32)) };
        let ev = match kind {
            "s" => {
                // `s <id> <label>`: the label is everything after the id,
                // spaces included.
                let (id, label) = body
                    .split_once(' ')
                    .ok_or_else(|| parse_err(lineno, "string entry without label"))?;
                let id: u32 = id
                    .parse()
                    .map_err(|e| parse_err(lineno, format!("bad string id: {e}")))?;
                let interned = self.strings.intern(&unescape(label));
                if interned.0 != id {
                    return Err(parse_err(
                        lineno,
                        format!(
                            "string table not dense: got id {id}, expected {}",
                            interned.0
                        ),
                    ));
                }
                return Ok(Some(TraceRecord::Str {
                    id: interned,
                    label: self.strings.shared_label(interned).expect("just interned"),
                }));
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
            other => return Err(parse_err(lineno, format!("unknown event kind {other:?}"))),
        };
        check_event(&ev, &self.strings).map_err(|msg| parse_err(lineno, msg))?;
        Ok(Some(TraceRecord::Event(ev)))
    }
}

/// Outcome of one binary-record decode step (internal).
enum BinStep {
    /// The frame at the front of the input is incomplete.
    NeedMore,
    /// The end-of-trace marker, consuming this many bytes.
    End(usize),
    /// One validated record, consuming this many bytes.
    Record(usize, TraceRecord),
}

/// Incremental parser for *binary* trace body records — the v3
/// counterpart of [`TraceLineParser`], enforcing the same string-table
/// density and defined-id rules with record numbers in place of line
/// numbers.
#[derive(Debug, Default)]
struct BinRecordParser {
    strings: CtxInterner,
    dec: binio::Decoder,
    /// Records consumed so far (the header is record 0).
    recno: u64,
    saw_end: bool,
}

impl BinRecordParser {
    fn next_record(&mut self, bytes: &[u8]) -> Result<BinStep, String> {
        if self.saw_end {
            return Err(rec_err(
                self.recno + 1,
                "data after the end-of-trace marker",
            ));
        }
        match self.dec.decode_record(bytes) {
            Ok(None) => Ok(BinStep::NeedMore),
            Err(e) => Err(rec_err(self.recno + 1, e.to_string())),
            Ok(Some((n, rec))) => {
                self.recno += 1;
                match rec {
                    BinRecord::End => {
                        self.saw_end = true;
                        Ok(BinStep::End(n))
                    }
                    BinRecord::Str { id, label } => {
                        let interned = self.strings.intern(&label);
                        if interned.0 != id {
                            return Err(rec_err(
                                self.recno,
                                format!(
                                    "string table not dense: got id {id}, expected {}",
                                    interned.0
                                ),
                            ));
                        }
                        Ok(BinStep::Record(
                            n,
                            TraceRecord::Str {
                                id: interned,
                                label: self.strings.shared_label(interned).expect("just interned"),
                            },
                        ))
                    }
                    BinRecord::Event(ev) => {
                        check_event(&ev, &self.strings).map_err(|msg| rec_err(self.recno, msg))?;
                        Ok(BinStep::Record(n, TraceRecord::Event(ev)))
                    }
                }
            }
        }
    }
}

/// One item a [`TracePushParser`] yields.
#[derive(Debug)]
pub enum TraceItem {
    /// The trace header — always the first item.
    Header(TraceHeader),
    /// A body record.
    Record(TraceRecord),
}

#[derive(Debug)]
enum PushState {
    /// Deciding text vs binary from the first bytes.
    Sniff,
    /// Text decided; waiting for the complete header line.
    TextHeader,
    /// Text header accepted; body lines stream through the line parser.
    TextBody(TraceLineParser),
    /// Binary magic matched; waiting for the complete header fields.
    BinHeader,
    /// Binary header accepted; body records stream through the decoder.
    BinBody(BinRecordParser),
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
/// header fails loudly too). The parser buffers only the unconsumed
/// tail, and its mid-stream state — pending bytes, position counters,
/// binary delta state — snapshots into the serve spill format via
/// [`TracePushParser::spill_to`]; its string table travels as the
/// consuming session's.
#[derive(Debug)]
pub struct TracePushParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted on the next feed).
    start: usize,
    /// Bytes after `start` already searched for the end of a text line,
    /// so a line that arrives in many chunks is scanned once.
    scanned: usize,
    eof: bool,
    state: PushState,
}

impl Default for TracePushParser {
    fn default() -> Self {
        Self::new()
    }
}

impl TracePushParser {
    /// Fresh parser, format undecided until the first bytes arrive.
    pub fn new() -> Self {
        TracePushParser {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            eof: false,
            state: PushState::Sniff,
        }
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

    /// `msg` with the position of the record [`Self::poll`] yielded last,
    /// in the decoders' own style (`trace line N: …` / `trace record N:
    /// …`).
    fn locate(&self, msg: impl fmt::Display) -> String {
        match &self.state {
            PushState::TextBody(p) => parse_err(p.lineno, msg.to_string()),
            PushState::BinBody(p) => rec_err(p.recno, msg.to_string()),
            _ => msg.to_string(),
        }
    }

    /// Produce the next item, or `Ok(None)` when more bytes are needed
    /// (before [`Self::close`]) / the stream is fully drained (after).
    /// Errors are not consumed: a poisoned stream keeps returning the
    /// same error, and callers are expected to stop at the first one.
    pub fn poll(&mut self) -> Result<Option<TraceItem>, String> {
        loop {
            match self.state {
                PushState::Sniff => {
                    let p = &self.buf[self.start..];
                    let probe = p.len().min(binio::BIN_FAMILY.len());
                    if p[..probe] == binio::BIN_FAMILY[..probe] {
                        if p.len() < binio::BIN_MAGIC.len() {
                            if !self.eof {
                                return Ok(None);
                            }
                            if p.is_empty() {
                                return Err("empty trace".to_string());
                            }
                            // A ≤7-byte stream that is a prefix of the
                            // binary magic can only be a cut-off trace
                            // (text headers diverge from the family
                            // within 6 bytes).
                            return Err("binary trace truncated inside the header".to_string());
                        }
                        self.state = PushState::BinHeader;
                    } else {
                        self.state = PushState::TextHeader;
                    }
                }
                PushState::TextHeader => {
                    let p = &self.buf[self.start..];
                    let Some((line_len, consumed)) =
                        text_line(p, &mut self.scanned, self.eof).map_err(|e| parse_err(0, e))?
                    else {
                        return Ok(None);
                    };
                    let line = std::str::from_utf8(&p[..line_len])
                        .map_err(|_| "trace header is not valid UTF-8".to_string())?;
                    let header = TraceHeader::parse(line)?.reject_flat_shadow()?;
                    self.start += consumed;
                    self.state = PushState::TextBody(TraceLineParser::default());
                    return Ok(Some(TraceItem::Header(header)));
                }
                PushState::TextBody(ref mut parser) => {
                    let p = &self.buf[self.start..];
                    let Some((line_len, consumed)) = text_line(p, &mut self.scanned, self.eof)
                        .map_err(|e| parse_err(parser.lineno + 1, e))?
                    else {
                        return Ok(None);
                    };
                    let line = std::str::from_utf8(&p[..line_len])
                        .map_err(|_| parse_err(parser.lineno + 1, "line is not valid UTF-8"))?;
                    let rec = parser.parse_line(line)?;
                    self.start += consumed;
                    if let Some(rec) = rec {
                        return Ok(Some(TraceItem::Record(rec)));
                    }
                }
                PushState::BinHeader => {
                    let p = &self.buf[self.start..];
                    match binio::decode_header(p) {
                        Ok(Some((n, rank, tiered, budget))) => {
                            let header = TraceHeader {
                                rank,
                                tiered,
                                budget,
                            }
                            .reject_flat_shadow()?;
                            self.start += n;
                            self.state = PushState::BinBody(BinRecordParser::default());
                            return Ok(Some(TraceItem::Header(header)));
                        }
                        Ok(None) if self.eof => {
                            return Err("binary trace truncated inside the header".to_string())
                        }
                        Ok(None) => return Ok(None),
                        Err(e) => return Err(format!("trace header: {e}")),
                    }
                }
                PushState::BinBody(ref mut parser) => {
                    let p = &self.buf[self.start..];
                    if p.is_empty() {
                        if self.eof && !parser.saw_end {
                            return Err("binary trace truncated: missing end-of-trace marker \
                                 (stream cut at a record boundary)"
                                .to_string());
                        }
                        return Ok(None);
                    }
                    match parser.next_record(p)? {
                        BinStep::Record(n, rec) => {
                            self.start += n;
                            return Ok(Some(TraceItem::Record(rec)));
                        }
                        BinStep::End(n) => {
                            self.start += n;
                        }
                        BinStep::NeedMore if self.eof => {
                            return Err(rec_err(
                                parser.recno + 1,
                                "binary trace truncated mid-record",
                            ));
                        }
                        BinStep::NeedMore => return Ok(None),
                    }
                }
            }
        }
    }

    /// Serialize the mid-stream state — pending bytes, format decision,
    /// position counters, binary delta state — into `buf` (the serve
    /// spill layout's parser section). The string table is not written:
    /// it is, label for label, the table of the session that consumed
    /// every record this parser yielded, and that session's snapshot
    /// carries it. [`TracePushParser::restore_from`] rebuilds a parser
    /// that continues byte-for-byte identically.
    pub fn spill_to(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, &self.buf[self.start..]);
        match &self.state {
            // Pre-header states re-sniff their pending bytes on restore.
            PushState::Sniff | PushState::TextHeader | PushState::BinHeader => buf.push(0),
            PushState::TextBody(p) => {
                buf.push(1);
                put_varint(buf, p.lineno as u64);
            }
            PushState::BinBody(p) => {
                buf.push(2);
                put_varint(buf, p.recno);
                buf.push(u8::from(p.saw_end));
                let ds = p.dec.state();
                for v in [ds.addr, ds.fiber, ds.key] {
                    put_varint(buf, v);
                }
            }
        }
    }

    /// Rebuild a parser from [`TracePushParser::spill_to`] output and
    /// `strings`, the string table of the session that consumed its
    /// records (empty before a header).
    pub fn restore_from(
        s: &mut Scanner<'_>,
        strings: CtxInterner,
    ) -> Result<TracePushParser, DecodeError> {
        let pending = s.bytes()?.to_vec();
        let state = match s.u8()? {
            0 => PushState::Sniff,
            1 => PushState::TextBody(TraceLineParser {
                strings,
                lineno: s.varint_as()?,
            }),
            2 => PushState::BinBody(BinRecordParser {
                strings,
                recno: s.varint()?,
                saw_end: s.bool()?,
                dec: binio::Decoder::from_state(binio::DeltaState {
                    addr: s.varint()?,
                    fiber: s.varint()?,
                    key: s.varint()?,
                }),
            }),
            t => return Err(s.corrupt(format!("unknown parser state tag {t}"))),
        };
        Ok(TracePushParser {
            buf: pending,
            start: 0,
            scanned: 0,
            eof: false,
            state,
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
fn text_line(p: &[u8], scanned: &mut usize, eof: bool) -> Result<Option<(usize, usize)>, String> {
    let (len, consumed) = match p[*scanned..].iter().position(|&b| b == b'\n') {
        Some(i) => (*scanned + i, *scanned + i + 1),
        None if eof && !p.is_empty() => (p.len(), p.len()),
        None => {
            *scanned = p.len();
            (p.len(), 0)
        }
    };
    if len as u64 > binio::MAX_RECORD {
        return Err(line_too_long());
    }
    if consumed == 0 {
        return Ok(None);
    }
    *scanned = 0;
    Ok(Some((len, consumed)))
}

#[cold]
#[inline(never)]
fn line_too_long() -> String {
    format!("line exceeds the {}-byte cap", binio::MAX_RECORD)
}

fn refill<R: BufRead>(input: &mut R, parser: &mut TracePushParser) -> Result<bool, String> {
    let chunk = input
        .fill_buf()
        .map_err(|e| format!("trace read error: {e}"))?;
    if chunk.is_empty() {
        return Ok(false);
    }
    let n = chunk.len();
    parser.feed(chunk);
    input.consume(n);
    Ok(true)
}

/// Pull-mode streaming reader: iterates [`TraceRecord`]s straight off a
/// [`BufRead`] source without materializing the trace, sniffing the
/// format from the magic. The unconsumed tail of one chunk is the only
/// per-trace buffer.
pub struct TraceReader<R> {
    input: R,
    parser: TracePushParser,
    header: TraceHeader,
    closed: bool,
    done: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Read and parse the header (text or binary); subsequent records
    /// come from [`Iterator::next`].
    pub fn new(mut input: R) -> Result<Self, String> {
        let mut parser = TracePushParser::new();
        let mut closed = false;
        let header = loop {
            match parser.poll()? {
                Some(TraceItem::Header(h)) => break h,
                Some(TraceItem::Record(_)) => unreachable!("record before header"),
                None if closed => return Err("empty trace".to_string()),
                None => {
                    if !refill(&mut input, &mut parser)? {
                        parser.close();
                        closed = true;
                    }
                }
            }
        };
        Ok(TraceReader {
            input,
            parser,
            header,
            closed,
            done: false,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// `msg` with the position of the record yielded last, in the
    /// decoders' own style (`trace line N: …` / `trace record N: …`) —
    /// for what only applying a record can find wrong with it.
    fn locate(&self, msg: impl fmt::Display) -> String {
        self.parser.locate(msg)
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match self.parser.poll() {
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Ok(Some(TraceItem::Record(rec))) => return Some(Ok(rec)),
                Ok(Some(TraceItem::Header(_))) => unreachable!("second header"),
                Ok(None) => {
                    if self.closed {
                        self.done = true;
                        return None;
                    }
                    match refill(&mut self.input, &mut self.parser) {
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e));
                        }
                        Ok(true) => {}
                        Ok(false) => {
                            self.parser.close();
                            self.closed = true;
                        }
                    }
                }
            }
        }
    }
}

/// Re-encode a trace stream into `format`, record-for-record — the
/// interleaving of string-table entries and events is preserved, so a
/// transcoded trace replays identically and a round trip (text → binary
/// → text) reproduces the original bytes exactly (both writers are
/// canonical).
pub fn transcode<R: BufRead>(input: R, format: TraceFormat) -> Result<Vec<u8>, String> {
    let mut reader = TraceReader::new(input)?;
    let h = *reader.header();
    let mut writer = RecordWriter::new(format);
    let mut out = Vec::new();
    writer.header(&mut out, h.rank, h.budget);
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
/// with the recorded rank's host-fiber name and shadow budget, so
/// reports (fiber and context labels included), detector stats and event
/// counters all reproduce exactly. A record that does not decode, or a
/// fiber event the session refuses, is an error naming its position.
pub fn replay_stream<R: BufRead>(input: R) -> Result<SessionSummary, String> {
    let mut reader = TraceReader::new(input)?;
    let mut session = CheckSession::for_header(reader.header());
    while let Some(rec) = reader.next() {
        session.feed(&rec?).map_err(|e| reader.locate(e))?;
    }
    Ok(session.into_summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_as(format: TraceFormat, events: &[(CusanEvent, &CtxInterner)]) -> Vec<u8> {
        let mut sink = TraceSink::new(format, 3, None);
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

    fn read_all(bytes: &[u8]) -> Result<WholeTrace, String> {
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
            let err = read_all(&bin[..cut])
                .expect_err(&format!("prefix of {cut}/{} bytes must fail", bin.len()));
            assert!(
                err.contains("truncated") || err.contains("empty trace"),
                "prefix {cut}: unexpected error {err:?}"
            );
        }
        // Trailing garbage after the end marker fails too.
        let mut extra = bin.clone();
        extra.extend_from_slice(&[3, 11, 0]);
        let err = read_all(&extra).unwrap_err();
        assert!(err.contains("after the end-of-trace marker"), "got: {err}");
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

    /// Both entry points refuse `bytes` at the header, naming the removed
    /// flat shadow.
    fn assert_flat_shadow_refused(bytes: &[u8]) {
        let err = TraceReader::new(bytes).err().expect("reader accepted");
        assert!(err.contains("flat shadow"), "got: {err}");
        let mut push = TracePushParser::new();
        push.feed(bytes);
        push.close();
        assert_eq!(push.poll().err(), Some(err));
    }

    #[test]
    fn text_header_recorded_on_the_flat_shadow_is_refused() {
        let text = format!("{TRACE_MAGIC} rank 0 tiered 0 budget none\ns 0 f\nfc 1 0\n");
        assert_flat_shadow_refused(text.as_bytes());
    }

    #[test]
    fn binary_header_recorded_on_the_flat_shadow_is_refused() {
        let mut bytes = Vec::new();
        binio::Encoder::encode_header(&mut bytes, 0, false, None);
        binio::Encoder::new().encode_end(&mut bytes);
        assert_flat_shadow_refused(&bytes);
    }

    #[test]
    fn binary_parser_enforces_string_table_rules() {
        // Build records by hand: an event referencing an undefined id.
        let mut bytes = Vec::new();
        binio::Encoder::encode_header(&mut bytes, 0, true, None);
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
        assert!(err.contains("undefined string id 0"), "got: {err}");
        // Non-dense string table.
        let mut bytes = Vec::new();
        binio::Encoder::encode_header(&mut bytes, 0, true, None);
        let mut enc = binio::Encoder::new();
        enc.encode_str(&mut bytes, 5, "label");
        enc.encode_end(&mut bytes);
        let err = read_all(&bytes).unwrap_err();
        assert!(err.contains("string table not dense"), "got: {err}");
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
        for format in [TraceFormat::Text, TraceFormat::Binary] {
            for ev in &hostile {
                let bytes = record_as(format, &[(*ev, &strings)]);
                let err = replay_stream(&bytes[..]).unwrap_err();
                assert!(
                    err.contains("ffffffffffffffff+16 runs past the end"),
                    "{format:?} {ev:?}: {err}"
                );
                assert!(read_all(&bytes).is_err());
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
                assert_eq!(replay_stream(bytes).unwrap_err(), want);
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
        assert!(
            err.contains("unsupported trace format version"),
            "got: {err}"
        );
        assert!(err.contains("v1"), "got: {err}");
        // Same loudness for an unknown *binary* version.
        let mut v4 = Vec::new();
        binio::Encoder::encode_header(&mut v4, 0, true, None);
        v4[7] = b'4';
        let err = read_all(&v4).unwrap_err();
        assert!(
            err.contains("unsupported binary trace version"),
            "got: {err}"
        );
    }

    #[test]
    fn budget_survives_roundtrip_and_shapes_replay() {
        let mut strings = CtxInterner::new();
        let name = strings.intern("cuda stream 0");
        let ctx = strings.intern("big write");
        let f = FiberId::from_index(1);
        let events = [
            CusanEvent::FiberCreate { fiber: f, name },
            CusanEvent::FiberSwitch {
                fiber: f,
                sync: true,
            },
            CusanEvent::WriteRange {
                addr: 0x10000,
                len: 8 << 12,
                ctx,
            },
        ];
        for format in [TraceFormat::Text, TraceFormat::Binary] {
            let mut sink = TraceSink::new(format, 0, Some(2));
            for ev in &events {
                sink.on_event(ev, &strings);
            }
            let bytes = sink.finish();
            if format == TraceFormat::Text {
                let text = std::str::from_utf8(&bytes).unwrap();
                assert!(text.starts_with(&format!("{TRACE_MAGIC} rank 0 tiered 1 budget 2\n")));
            }
            let (header, _, _) = read_all(&bytes).unwrap();
            assert_eq!(header.budget, Some(2));
            // Replay applies the recorded budget, reproducing the
            // degradation counters of the capped live run.
            let out = replay_stream(&bytes[..]).unwrap();
            assert_eq!(out.stats.dropped_annotations, 6);
        }
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
                    Err(e) => return Some(e),
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
        let mut p = TraceLineParser::default();
        assert!(p.parse_line("s 0 f").unwrap().is_some());
        assert!(p.parse_line("").unwrap().is_none());
        let err = p.parse_line("rr zz 8 0").unwrap_err();
        // Header is line 1, so the third body line is file line 4.
        assert!(err.starts_with("trace line 4:"), "got: {err}");
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
