//! The serve wire protocol and connection loop.
//!
//! Length-prefixed frames over any ordered byte stream (TCP, a pipe,
//! stdin): `[u32 BE payload length][payload]`. The payload's first byte
//! is the opcode; session-scoped opcodes follow with the client-chosen
//! session id as a u64 BE. One connection multiplexes any number of
//! concurrent sessions by interleaving their `DATA` frames.
//!
//! | opcode | payload | direction | meaning |
//! |---|---|---|---|
//! | `O` | id | → | open session `id` (must be new) |
//! | `R` | id | → | resume session `id` (attach; created if unknown) |
//! | `D` | id + offset + chunk | → | trace bytes at byte `offset` |
//! | `H` | id | → | heartbeat: keep the idle session alive |
//! | `C` | id | → | close session `id`, requesting its summary |
//! | `Q` | — | → | finish the connection |
//! | `A` | id + acked | ← | ack: bytes accepted so far (reply to `R`/`H`) |
//! | `S` | id + JSON | ← | summary reply for a closed session |
//! | `E` | id + message | ← | per-session error |
//!
//! Chunk boundaries are arbitrary (mid-line splits are fine); frames of
//! one session are ordered, frames of different sessions interleave
//! freely. Checking runs concurrently with ingestion — the reply to `C`
//! is only assembled after the session's event stream has fully drained
//! through the checker pool.
//!
//! ## Failure model
//!
//! `D` frames carry the session-stream byte offset of their first byte,
//! and the server acks (via `A` replies to `R`/`H`) the total bytes it
//! has accepted. A client that loses its connection reconnects, sends
//! `R`, learns the server's `acked` offset, and replays from there —
//! bytes the server already holds are dropped (or prefix-trimmed) by the
//! offset check, so at-least-once delivery over the socket becomes
//! exactly-once delivery into the detector. A session outlives its
//! connection: disconnects *detach* it (the engine keeps or spills it),
//! only `C` or idle expiry ends it. See `DESIGN.md`, "Failure model &
//! resumption".

use crate::engine::{FeedError, ServeEngine};
use crate::json::summary_to_json;
use std::collections::HashSet;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Open a session (client → server).
pub const OP_OPEN: u8 = b'O';
/// Resume (attach to) a session, creating it if unknown (client → server).
pub const OP_RESUME: u8 = b'R';
/// Trace bytes for a session at an explicit stream offset (client → server).
pub const OP_DATA: u8 = b'D';
/// Heartbeat: touch an idle session (client → server).
pub const OP_HEARTBEAT: u8 = b'H';
/// Close a session and request its summary (client → server).
pub const OP_CLOSE: u8 = b'C';
/// End the connection (client → server).
pub const OP_QUIT: u8 = b'Q';
/// Acked-offset reply to `R`/`H` (server → client).
pub const OP_ACK: u8 = b'A';
/// Summary reply (server → client).
pub const OP_SUMMARY: u8 = b'S';
/// Per-session error reply (server → client).
pub const OP_ERROR: u8 = b'E';

/// Upper bound on a frame payload; anything larger is a protocol error
/// (the codec must not let a corrupt length prefix allocate gigabytes).
pub const MAX_FRAME: usize = 16 << 20;

/// A typed frame-codec error. Earlier versions folded all of these into
/// raw `io::Error`s (and silently returned `None` for a torn length
/// prefix, indistinguishable from a clean EOF); the chaos harness needs
/// to tell "the peer closed between frames" from "the peer died
/// mid-frame", so the codec names each failure.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix claims more than [`MAX_FRAME`] bytes.
    Oversized {
        /// The claimed payload length.
        len: usize,
    },
    /// EOF after 1–3 bytes of the 4-byte length prefix — a frame was
    /// torn mid-header. (Zero bytes is a clean EOF, not an error.)
    TruncatedLength {
        /// Prefix bytes received before EOF.
        got: usize,
    },
    /// EOF before the announced payload arrived in full.
    TruncatedPayload {
        /// Payload bytes received before EOF.
        got: usize,
        /// Payload bytes the length prefix announced.
        want: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::TruncatedLength { got } => {
                write!(f, "stream ended after {got} of 4 length-prefix bytes")
            }
            FrameError::TruncatedPayload { got, want } => {
                write!(f, "stream ended after {got} of {want} payload bytes")
            }
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Write one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Read exactly `buf.len()` bytes, reporting how many arrived if the
/// stream ends early (`read_exact` erases that count, and the torn-frame
/// diagnosis needs it).
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, io::Error> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Payload bytes [`read_frame`] reserves before any arrive: a length
/// prefix alone must not make a connection hold memory, so the buffer
/// grows with the bytes received past this.
const FRAME_RESERVE: usize = 8 << 10;

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary. A
/// partial length prefix, a partial payload, and an oversized length
/// are each distinct typed errors — never conflated with clean EOF.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len = [0u8; 4];
    match read_full(r, &mut len)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(FrameError::TruncatedLength { got }),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = Vec::with_capacity(len.min(FRAME_RESERVE));
    let got = r.take(len as u64).read_to_end(&mut payload)?;
    if got < len {
        return Err(FrameError::TruncatedPayload { got, want: len });
    }
    Ok(Some(payload))
}

fn frame_with_id(op: u8, id: u64, body: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(9 + body.len());
    f.push(op);
    f.extend_from_slice(&id.to_be_bytes());
    f.extend_from_slice(body);
    f
}

/// An `O` frame.
pub fn open_frame(id: u64) -> Vec<u8> {
    frame_with_id(OP_OPEN, id, &[])
}

/// An `R` frame.
pub fn resume_frame(id: u64) -> Vec<u8> {
    frame_with_id(OP_RESUME, id, &[])
}

/// A `D` frame: `chunk` starts at session-stream byte `offset`.
pub fn data_frame(id: u64, offset: u64, chunk: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(17 + chunk.len());
    f.push(OP_DATA);
    f.extend_from_slice(&id.to_be_bytes());
    f.extend_from_slice(&offset.to_be_bytes());
    f.extend_from_slice(chunk);
    f
}

/// An `H` frame.
pub fn heartbeat_frame(id: u64) -> Vec<u8> {
    frame_with_id(OP_HEARTBEAT, id, &[])
}

/// A `C` frame.
pub fn close_frame(id: u64) -> Vec<u8> {
    frame_with_id(OP_CLOSE, id, &[])
}

/// A `Q` frame.
pub fn quit_frame() -> Vec<u8> {
    vec![OP_QUIT]
}

fn parse_id(payload: &[u8]) -> io::Result<(u64, &[u8])> {
    if payload.len() < 9 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too short for a session id",
        ));
    }
    let id = u64::from_be_bytes(payload[1..9].try_into().expect("9-byte prefix"));
    Ok((id, &payload[9..]))
}

fn parse_data(payload: &[u8]) -> io::Result<(u64, u64, &[u8])> {
    let (id, rest) = parse_id(payload)?;
    if rest.len() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "data frame too short for a stream offset",
        ));
    }
    let offset = u64::from_be_bytes(rest[..8].try_into().expect("8-byte offset"));
    Ok((id, offset, &rest[8..]))
}

/// A reply frame read back on the client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `A`: bytes accepted so far for a resumed/heartbeated session.
    Ack {
        /// The client-chosen session id.
        id: u64,
        /// Session-stream bytes the server has accepted.
        acked: u64,
    },
    /// `S`: the session's summary JSON.
    Summary {
        /// The client-chosen session id.
        id: u64,
        /// Single-line summary JSON.
        json: String,
    },
    /// `E`: the session failed server-side.
    Error {
        /// The client-chosen session id.
        id: u64,
        /// Human-readable cause.
        message: String,
    },
}

/// Parse a server reply frame (client side).
pub fn parse_reply(payload: &[u8]) -> io::Result<Reply> {
    let (id, body) = parse_id(payload)?;
    match payload[0] {
        OP_ACK => {
            let acked = body
                .try_into()
                .map(u64::from_be_bytes)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "malformed ack body"))?;
            Ok(Reply::Ack { id, acked })
        }
        OP_SUMMARY => Ok(Reply::Summary {
            id,
            json: String::from_utf8_lossy(body).into_owned(),
        }),
        OP_ERROR => Ok(Reply::Error {
            id,
            message: String::from_utf8_lossy(body).into_owned(),
        }),
        op => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply opcode {op:#x}"),
        )),
    }
}

fn ack_frame(id: u64, acked: u64) -> Vec<u8> {
    frame_with_id(OP_ACK, id, &acked.to_be_bytes())
}

fn error_frame(id: u64, message: &str) -> Vec<u8> {
    frame_with_id(OP_ERROR, id, message.as_bytes())
}

/// The `A` reply to `R`/`H` — or the `E`, in which case the session is
/// gone (never attached, or dropped because its journal could not be
/// brought up to the offset) and no longer this connection's to detach.
fn ack_or_error(id: u64, acked: Result<u64, String>, mine: &mut HashSet<u64>) -> Vec<u8> {
    match acked {
        Ok(acked) => ack_frame(id, acked),
        Err(e) => {
            mine.remove(&id);
            error_frame(id, &e)
        }
    }
}

/// The sessions one connection has attached, detached when it goes out
/// of scope — on `Q`, on EOF, on an I/O error and on a panic unwinding
/// through the connection thread alike. A session left attached is never
/// swept or spilled and holds a `max_sessions` slot for good.
struct Attached<'e> {
    engine: &'e ServeEngine,
    ids: HashSet<u64>,
}

impl Drop for Attached<'_> {
    fn drop(&mut self) {
        for id in self.ids.drain() {
            self.engine.detach(id);
        }
    }
}

/// Serve one connection until `Q` or EOF. Sessions are owned by the
/// engine, not the connection: when the connection ends (cleanly or
/// not), every session it attached is *detached* — kept alive for a
/// later resume — rather than dropped. `C` is the only frame that ends
/// a session. Each reply is flushed as soon as it is written, so hand
/// this a buffered `writer` over a socket: the frame then leaves in one
/// write instead of a length prefix followed by a payload.
pub fn serve_connection<R: Read, W: Write>(
    engine: &Arc<ServeEngine>,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<()> {
    let mut mine = Attached {
        engine,
        ids: HashSet::new(),
    };
    serve_frames(engine, reader, writer, &mut mine.ids)
}

fn serve_frames<R: Read, W: Write>(
    engine: &Arc<ServeEngine>,
    reader: &mut R,
    writer: &mut W,
    mine: &mut HashSet<u64>,
) -> io::Result<()> {
    while let Some(payload) = read_frame(reader).map_err(io::Error::from)? {
        let Some(&op) = payload.first() else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame"));
        };
        let reply = match op {
            OP_QUIT => break,
            OP_OPEN => {
                let (id, _) = parse_id(&payload)?;
                match engine.open_new(id) {
                    Ok(()) => {
                        mine.insert(id);
                        None
                    }
                    Err(e) => Some(error_frame(id, &e.to_string())),
                }
            }
            OP_RESUME => {
                let (id, _) = parse_id(&payload)?;
                // A duplicate resume on the same connection (a client
                // retransmit racing its own ack) is a touch, not a
                // second attach.
                let r = if mine.contains(&id) {
                    engine.touch(id)
                } else {
                    engine.resume(id).map_err(|e| e.to_string()).inspect(|_| {
                        mine.insert(id);
                    })
                };
                Some(ack_or_error(id, r, mine))
            }
            OP_HEARTBEAT => {
                let (id, _) = parse_id(&payload)?;
                Some(ack_or_error(id, engine.touch(id), mine))
            }
            OP_DATA => {
                let (id, offset, chunk) = parse_data(&payload)?;
                match engine.feed(id, offset, chunk) {
                    Ok(_) => None,
                    // The session is intact — the client can learn
                    // `expected` from an `R`/`H` and replay.
                    Err(e @ FeedError::Gap { .. }) => Some(error_frame(id, &e.to_string())),
                    Err(FeedError::Fatal(e)) => {
                        mine.remove(&id);
                        Some(error_frame(id, &e))
                    }
                }
            }
            OP_CLOSE => {
                let (id, _) = parse_id(&payload)?;
                mine.remove(&id);
                Some(match engine.close(id) {
                    Ok(summary) => {
                        frame_with_id(OP_SUMMARY, id, summary_to_json(id, &summary).as_bytes())
                    }
                    Err(e) => error_frame(id, &e),
                })
            }
            op => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown opcode {op:#x}"),
                ));
            }
        };
        // Every reply is flushed as it is written: behind a buffered
        // writer the length prefix and the payload leave in one write,
        // and a client that waits for this reply before it sends more
        // is never left waiting on a buffer.
        if let Some(frame) = reply {
            write_frame(writer, &frame)?;
            writer.flush()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_eof_is_none_not_an_error() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(None)));
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &data_frame(7, 42, b"hello")).unwrap();
        write_frame(&mut buf, &quit_frame()).unwrap();
        let mut r: &[u8] = &buf;
        let first = read_frame(&mut r).unwrap().unwrap();
        let (id, offset, chunk) = parse_data(&first).unwrap();
        assert_eq!((id, offset, chunk), (7, 42, &b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![OP_QUIT]);
        assert!(matches!(read_frame(&mut r), Ok(None)));
    }

    #[test]
    fn truncated_length_prefix_is_a_typed_error() {
        // 1–3 bytes of length prefix then EOF: a torn frame header, not
        // a clean EOF (the old codec silently returned Ok(None) here).
        for got in 1..4usize {
            let mut r: &[u8] = &[0u8; 4][..got];
            match read_frame(&mut r) {
                Err(FrameError::TruncatedLength { got: g }) => assert_eq!(g, got),
                other => panic!("prefix of {got}: expected TruncatedLength, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        buf.truncate(buf.len() - 4);
        let mut r: &[u8] = &buf;
        match read_frame(&mut r) {
            Err(FrameError::TruncatedPayload { got, want }) => {
                assert_eq!((got, want), (7, 11));
            }
            other => panic!("expected TruncatedPayload, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"junk");
        let mut r: &[u8] = &buf;
        match read_frame(&mut r) {
            Err(FrameError::Oversized { len }) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Exactly at the cap is fine (the payload just isn't there).
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        let mut r: &[u8] = &buf;
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TruncatedPayload { got: 0, .. })
        ));
    }

    /// Every prefix of a 3-frame stream reads back the frames it holds
    /// whole, then ends in `Ok(None)` exactly at a frame boundary and in
    /// the typed error naming how far the torn frame got anywhere else.
    #[test]
    fn every_prefix_of_a_stream_is_a_clean_eof_or_a_typed_error() {
        let frames = [open_frame(3), data_frame(3, 0, b"0123456789"), quit_frame()];
        let mut wire = Vec::new();
        let mut starts = Vec::new();
        for f in &frames {
            starts.push(wire.len());
            write_frame(&mut wire, f).unwrap();
        }
        starts.push(wire.len());
        for cut in 0..=wire.len() {
            let mut r: &[u8] = &wire[..cut];
            let whole = starts.iter().rposition(|&s| s <= cut).unwrap();
            for f in &frames[..whole] {
                assert_eq!(&read_frame(&mut r).unwrap().unwrap(), f, "cut {cut}");
            }
            let into = cut - starts[whole];
            match read_frame(&mut r) {
                Ok(None) => assert_eq!(into, 0, "cut {cut}"),
                Err(FrameError::TruncatedLength { got }) => {
                    assert!(into < 4, "cut {cut}");
                    assert_eq!(got, into, "cut {cut}");
                }
                Err(FrameError::TruncatedPayload { got, want }) => {
                    assert_eq!((got + 4, want), (into, frames[whole].len()), "cut {cut}");
                }
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn frame_errors_convert_to_io_invalid_data() {
        let e: io::Error = FrameError::Oversized { len: 1 << 30 }.into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let inner = io::Error::new(io::ErrorKind::ConnectionReset, "reset");
        let e: io::Error = FrameError::Io(inner).into();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn ack_replies_parse() {
        let f = ack_frame(9, 1234);
        match parse_reply(&f).unwrap() {
            Reply::Ack { id, acked } => assert_eq!((id, acked), (9, 1234)),
            other => panic!("{other:?}"),
        }
        // Malformed ack body (wrong length) is an error.
        assert!(parse_reply(&frame_with_id(OP_ACK, 9, b"xyz")).is_err());
    }

    /// Records every `write` call it receives as one entry.
    #[derive(Debug)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_reply_reaches_a_buffered_transport_as_one_write() {
        // What `serve_listener` sets up: replies go through a
        // `BufWriter`, so a reply costs the socket one write (length
        // prefix and payload together) provided every reply path
        // flushes — an unflushed one would share a later reply's write.
        let engine = ServeEngine::new(crate::EngineConfig::default());
        let trace = b"cusan-trace v2 rank 0 tiered 1 budget none\ns 0 f\nfc 1 0\n";
        let mut request = Vec::new();
        for frame in [
            resume_frame(1),                    // A
            data_frame(1, 0, trace),            // accepted: no reply
            heartbeat_frame(1),                 // A
            open_frame(1),                      // E: already open
            data_frame(1, 9_999, b"x"),         // E: offset gap
            heartbeat_frame(2),                 // E: not open
            close_frame(1),                     // S
            close_frame(1),                     // E: not open
            open_frame(3),                      // accepted: no reply
            data_frame(3, 0, b"not a trace\n"), // E: fatal
            quit_frame(),
        ] {
            write_frame(&mut request, &frame).unwrap();
        }
        let mut replies = io::BufWriter::new(WriteLog(Vec::new()));
        serve_connection(&engine, &mut request.as_slice(), &mut replies).unwrap();
        let writes = replies.into_inner().unwrap().0;
        let ops: Vec<u8> = writes
            .iter()
            .map(|w| {
                let mut r: &[u8] = w;
                let payload = read_frame(&mut r).unwrap().expect("a whole frame");
                assert!(
                    r.is_empty(),
                    "one frame per write, got {} more bytes",
                    r.len()
                );
                payload[0]
            })
            .collect();
        assert_eq!(ops, *b"AAEEESEE");
    }

    /// Hands out its bytes, then panics instead of reporting EOF.
    struct PanicsAtEof<'a>(&'a [u8]);

    impl Read for PanicsAtEof<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(!self.0.is_empty(), "injected connection bug");
            self.0.read(buf)
        }
    }

    #[test]
    fn an_unwinding_connection_still_detaches_its_sessions() {
        // A session left attached is never swept: with a zero idle
        // timeout the sweeper takes exactly the detached ones.
        let engine = ServeEngine::new(crate::EngineConfig {
            idle_timeout: Some(std::time::Duration::ZERO),
            ..crate::EngineConfig::default()
        });
        let trace = b"cusan-trace v2 rank 0 tiered 1 budget none\ns 0 f\nfc 1 0\n";
        let mut request = Vec::new();
        for frame in [open_frame(1), resume_frame(2), data_frame(1, 0, trace)] {
            write_frame(&mut request, &frame).unwrap();
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_connection(&engine, &mut PanicsAtEof(&request), &mut io::sink())
        }));
        assert!(unwound.is_err(), "the reader panics after the last frame");
        assert_eq!(engine.live_sessions(), 2, "sessions outlive connections");
        assert_eq!(engine.sweep_idle(), 2, "and both were detached");
    }
}
