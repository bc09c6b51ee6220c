//! The disconnect-surviving client: resume, replay, retry.
//!
//! [`check_traces_resilient`] streams a batch of traces over one
//! connection, interleaving their `D` frames round-robin, and collects
//! one terminal reply per trace. It survives the connection dying at any
//! point: it reconnects (with capped exponential backoff), sends `R` for
//! every unfinished session, learns each session's server-side acked
//! offset from the `A` replies, rewinds its cursors to those offsets,
//! and replays from there. The server's offset check drops whatever it
//! already accepted, so no byte is ever double-counted and no byte is
//! ever lost — each completed session's summary is byte-identical to an
//! uninterrupted run. The crate's chaos test asserts this under seeded
//! fault schedules by handing the client a stream that tears, drops,
//! stalls or duplicates its frames.

use crate::proto::{
    close_frame, data_frame, parse_reply, quit_frame, read_frame, resume_frame, write_frame, Reply,
};
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::time::Duration;

/// Reconnect behavior of [`check_traces_resilient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Connection attempts before giving up (including the first).
    pub max_attempts: u64,
    /// Backoff before reconnect attempt `n` is `base * 2^(n-1)`…
    pub backoff_base: Duration,
    /// …capped here.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 16,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, attempt: u64) -> Duration {
        let factor = 1u32 << attempt.min(16) as u32;
        (self.backoff_base * factor).min(self.backoff_cap)
    }
}

/// One session's client-side progress.
struct Cursor<'t> {
    id: u64,
    trace: &'t [u8],
    /// Next byte to send (rewound to the server's acked offset at every
    /// resume handshake).
    sent: u64,
}

/// Stream `traces` to a server, surviving disconnects and restarts.
///
/// `connect` is called for every connection attempt (with the attempt
/// index) and returns a fresh stream — any `Read + Write`, so a test can
/// restart the server between attempts or wrap the socket in one that
/// injects faults. Returns one terminal reply ([`Reply::Summary`] or
/// [`Reply::Error`]) per trace, in input order.
pub fn check_traces_resilient<S: Read + Write>(
    mut connect: impl FnMut(u64) -> io::Result<S>,
    traces: &[(u64, Vec<u8>)],
    chunk: usize,
    policy: &RetryPolicy,
) -> io::Result<Vec<Reply>> {
    let chunk = chunk.max(1);
    let mut cursors: Vec<Cursor> = traces
        .iter()
        .map(|(id, t)| Cursor {
            id: *id,
            trace: t.as_slice(),
            sent: 0,
        })
        .collect();
    let mut terminal: HashMap<u64, Reply> = HashMap::new();
    let mut attempt = 0u64;
    loop {
        let stream = match connect(attempt) {
            Ok(s) => s,
            Err(e) => {
                attempt += 1;
                if attempt >= policy.max_attempts {
                    return Err(e);
                }
                std::thread::sleep(policy.backoff(attempt));
                continue;
            }
        };
        match run_episode(stream, &mut cursors, &mut terminal, chunk) {
            Ok(()) => {
                return Ok(traces
                    .iter()
                    .map(|(id, _)| terminal.remove(id).expect("episode left a session behind"))
                    .collect());
            }
            Err(e) => {
                attempt += 1;
                if attempt >= policy.max_attempts {
                    return Err(e);
                }
                std::thread::sleep(policy.backoff(attempt));
            }
        }
    }
}

/// One connection's worth of progress. `Ok(())` means every session has
/// a terminal reply; `Err` means the connection died and the caller
/// should reconnect and call again.
///
/// Reads and writes never overlap (`R` frames, then their acks; `D`
/// frames; `C`/`Q` frames, then their replies), so one buffered reader
/// serves both directions: writes go through `get_mut` to the stream.
fn run_episode<S: Read + Write>(
    stream: S,
    cursors: &mut [Cursor],
    terminal: &mut HashMap<u64, Reply>,
    chunk: usize,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    // Resume handshake: attach every unfinished session, rewind its
    // cursor to what the server actually holds. A session the server
    // expired (or never saw, or lost to a restart with an empty journal)
    // acks 0 and is resent in full — same summary either way.
    let open: Vec<u64> = cursors
        .iter()
        .filter(|c| !terminal.contains_key(&c.id))
        .map(|c| c.id)
        .collect();
    if open.is_empty() {
        return Ok(());
    }
    for id in &open {
        write_frame(reader.get_mut(), &resume_frame(*id))?;
    }
    reader.get_mut().flush()?;
    let mut awaiting = open.len();
    while awaiting > 0 {
        match read_reply(&mut reader)? {
            Reply::Ack { id, acked } => {
                if let Some(c) = cursors.iter_mut().find(|c| c.id == id) {
                    c.sent = acked.min(c.trace.len() as u64);
                }
                awaiting -= 1;
            }
            reply => {
                record_terminal(terminal, reply);
                awaiting -= 1;
            }
        }
    }
    // Data phase: round-robin D frames.
    loop {
        let mut progressed = false;
        for c in cursors.iter_mut() {
            if terminal.contains_key(&c.id) || c.sent >= c.trace.len() as u64 {
                continue;
            }
            let rest = c.trace.len() as u64 - c.sent;
            let (sent, take) = (c.sent, chunk.min(rest as usize));
            let frame = data_frame(c.id, sent, &c.trace[sent as usize..sent as usize + take]);
            write_frame(reader.get_mut(), &frame)?;
            c.sent = sent + take as u64;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    // Close phase: request a summary for every fully-sent session, then
    // read until each has its terminal reply (absorbing stray acks from
    // duplicate resumes along the way).
    let mut want = 0usize;
    for c in cursors.iter() {
        if !terminal.contains_key(&c.id) {
            write_frame(reader.get_mut(), &close_frame(c.id))?;
            want += 1;
        }
    }
    write_frame(reader.get_mut(), &quit_frame())?;
    reader.get_mut().flush()?;
    while want > 0 {
        match read_reply(&mut reader)? {
            Reply::Ack { .. } => {}
            reply => {
                if record_terminal(terminal, reply) {
                    want -= 1;
                }
            }
        }
    }
    Ok(())
}

fn read_reply<R: Read>(reader: &mut R) -> io::Result<Reply> {
    match read_frame(reader).map_err(io::Error::from)? {
        Some(payload) => parse_reply(&payload),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed mid-conversation",
        )),
    }
}

/// Record a terminal reply; the first one a session gets wins (a fatal
/// feed error's `E` beats the later close's "session not open"). Returns
/// whether this reply was newly recorded.
fn record_terminal(terminal: &mut HashMap<u64, Reply>, reply: Reply) -> bool {
    let id = match &reply {
        Reply::Summary { id, .. } | Reply::Error { id, .. } => *id,
        Reply::Ack { .. } => unreachable!("acks are filtered by the callers"),
    };
    use std::collections::hash_map::Entry;
    match terminal.entry(id) {
        Entry::Occupied(_) => false,
        Entry::Vacant(v) => {
            v.insert(reply);
            true
        }
    }
}
