//! Per-stream trace ingestion.
//!
//! A [`SessionIngest`] turns an incrementally delivered byte stream (a
//! socket's `DATA` frames, a file read in chunks — any framing) into a
//! checked session: it frames *records* — text lines or binary
//! length-delimited frames, sniffed from the magic — with
//! [`cusan::TracePushParser`] and feeds them to an
//! [`cusan::AsyncChecker`] registered with the engine's shared pool.
//! The checker is the session's one owner: `finish` and `spill` take
//! the session back ([`cusan::AsyncChecker::finish`]), so nothing of it
//! outlives either call. Chunk boundaries are arbitrary (mid-line,
//! mid-varint, mid-code-point splits are all fine). String-table entries
//! are canonicalized through the engine's [`crate::SharedLabels`] before
//! mirroring, so concurrent sessions share label allocations instead of
//! copying them.
//!
//! The apply path is [`cusan::CheckSession::try_apply`] — the same one
//! live instrumentation and offline replay use — which is what makes a
//! served session's summary bit-for-bit identical to a solo sync replay
//! of the same trace, at any worker count and in either trace format. A
//! trace that decodes but whose fiber events no runtime could have
//! produced fails the way a malformed one does: the session's first
//! refusal comes back from the `feed` or `finish` that meets it, as a
//! [`cusan::TraceError`] of kind `Refused` — without a position, since
//! the pool applies behind the parser — and the ingest is dead from
//! there.

use crate::engine::ServeEngine;
use cusan::{
    AsyncChecker, CheckSession, SessionSummary, TraceError, TraceErrorKind, TraceItem,
    TracePushParser, TraceRecord,
};
use std::sync::{Arc, Weak};
use tsan_rt::codec::{DecodeError, Scanner};

enum IngestState {
    /// Nothing decoded yet: the parser is still sniffing/expecting the
    /// header record.
    AwaitHeader,
    /// Header accepted; body records stream into the checker.
    Body { checker: AsyncChecker },
    /// `finish` consumed the checker (or a feed failed fatally).
    Done,
}

/// One client trace stream being checked (see the module docs).
pub struct SessionIngest {
    /// Weak: the engine's registry owns its resident ingests, so a
    /// strong reference back would keep a dropped engine — and the pool
    /// workers its unfinished sessions are registered with — alive for
    /// good. Whoever feeds an ingest holds the engine.
    engine: Weak<ServeEngine>,
    /// Record framing + validation + string table; buffers the
    /// unconsumed tail of the stream (never grows past one record plus
    /// one chunk).
    parser: TracePushParser,
    state: IngestState,
}

impl SessionIngest {
    /// Fresh ingest; the session itself is created lazily when the
    /// header record arrives. The caller keeps `engine` alive for as
    /// long as it feeds the ingest (feeding a dropped engine's ingest
    /// is an error).
    pub fn new(engine: Arc<ServeEngine>) -> Self {
        SessionIngest {
            engine: Arc::downgrade(&engine),
            parser: TracePushParser::new(),
            state: IngestState::AwaitHeader,
        }
    }

    /// Feed one chunk. Chunk boundaries are arbitrary — mid-record
    /// splits of either format are fine (only complete records are
    /// decoded). The first error poisons the ingest.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), TraceError> {
        if matches!(self.state, IngestState::Done) {
            return Err(TraceErrorKind::Closed.into());
        }
        let engine = self.engine()?;
        self.parser.feed(chunk);
        self.pump(&engine)
    }

    fn engine(&self) -> Result<Arc<ServeEngine>, TraceError> {
        self.engine
            .upgrade()
            .ok_or_else(|| TraceErrorKind::EngineGone.into())
    }

    /// Drain every complete record the parser holds into the checker.
    fn pump(&mut self, engine: &ServeEngine) -> Result<(), TraceError> {
        let pumped = self.pump_records(engine);
        if pumped.is_err() {
            self.state = IngestState::Done;
        }
        pumped
    }

    fn pump_records(&mut self, engine: &ServeEngine) -> Result<(), TraceError> {
        loop {
            let Some(item) = self.parser.poll()? else {
                return Ok(());
            };
            match item {
                TraceItem::Header(header) => {
                    debug_assert!(matches!(self.state, IngestState::AwaitHeader));
                    let checker = AsyncChecker::with_pool(
                        Arc::clone(engine.pool()),
                        CheckSession::for_header(&header),
                    );
                    engine.note_open();
                    self.state = IngestState::Body { checker };
                }
                TraceItem::Record(rec) => {
                    let IngestState::Body { checker } = &self.state else {
                        unreachable!("parser yields records only after the header");
                    };
                    match rec {
                        TraceRecord::Str { label, .. } => {
                            // Mirror the canonical allocation, not the
                            // parser's private one: concurrent sessions
                            // of the same app share label bytes.
                            checker.send_intern_shared(engine.labels().canon(&label))
                        }
                        TraceRecord::Event(ev) => checker.send_event(ev),
                    }?;
                }
            }
        }
    }

    /// Resident shadow pages of the session under check (0 before the
    /// header arrives). Drains the checker first so the answer reflects
    /// every byte fed — budget decisions made on it are deterministic. A
    /// session that refused an event counts 0, which is right: its next
    /// frame or close fails with that refusal and drops it, so spilling
    /// it would gain the budget nothing.
    pub fn resident_pages(&self) -> usize {
        match &self.state {
            IngestState::Body { checker } => {
                checker.with_session(|s| s.shadow_pages()).unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// A label the session under check holds, for tests that watch the
    /// session die.
    #[cfg(test)]
    pub(crate) fn session_label(&self) -> Option<Arc<str>> {
        match &self.state {
            IngestState::Body { checker } => checker
                .with_session(|s| s.strings().shared_label(cusan::StrId(0)))
                .ok()
                .flatten(),
            _ => None,
        }
    }

    /// Spill this *unfinished* ingest into `buf`: whether a session has
    /// begun, the drained session's sections
    /// ([`CheckSession::write_snapshot`]), then the parser's mid-stream
    /// state, whose string table is the session's. [`SessionIngest::restore`]
    /// rebuilds an ingest that continues bit-for-bit identically.
    /// Consuming the ingest releases its pool registration: spilling
    /// frees the session's entire memory footprint.
    pub fn spill_to(mut self, buf: &mut Vec<u8>) -> Result<(), TraceError> {
        let checker = match std::mem::replace(&mut self.state, IngestState::Done) {
            IngestState::Done => return Err(TraceErrorKind::Closed.into()),
            IngestState::AwaitHeader => None,
            IngestState::Body { checker } => Some(checker),
        };
        buf.push(u8::from(checker.is_some()));
        if let Some(checker) = checker {
            checker.finish()?.write_snapshot(buf);
        }
        self.parser.spill_to(buf);
        Ok(())
    }

    /// Rebuild an ingest from [`SessionIngest::spill_to`] output,
    /// re-registering with `engine`'s pool. The restored ingest accepts
    /// the byte stream exactly where the spilled one left off.
    pub fn restore(engine: Arc<ServeEngine>, s: &mut Scanner<'_>) -> Result<Self, DecodeError> {
        let session = if s.bool()? {
            Some(CheckSession::read_snapshot(s)?)
        } else {
            None
        };
        let strings = session.as_ref().map(|s| s.strings().clone());
        let parser = TracePushParser::restore_from(s, strings.unwrap_or_default())?;
        let state = match session {
            Some(session) => IngestState::Body {
                checker: AsyncChecker::with_pool(Arc::clone(engine.pool()), session),
            },
            None => IngestState::AwaitHeader,
        };
        Ok(SessionIngest {
            engine: Arc::downgrade(&engine),
            parser,
            state,
        })
    }

    /// Close the stream: drain the checker and consume the session into
    /// its summary, the way a solo replay ends — nothing of the session
    /// outlives this call (see the [`crate::engine`] docs, "Lifetime").
    /// A trailing text line without a final newline is accepted; a
    /// binary stream must end exactly at its end-of-trace marker or this
    /// reports the truncation.
    pub fn finish(mut self) -> Result<SessionSummary, TraceError> {
        if matches!(self.state, IngestState::Done) {
            return Err(TraceErrorKind::Closed.into());
        }
        let engine = self.engine()?;
        self.parser.close();
        self.pump(&engine).map_err(|e| match e.kind() {
            TraceErrorKind::Empty => TraceErrorKind::NoHeader.into(),
            _ => e,
        })?;
        let IngestState::Body { checker } = std::mem::replace(&mut self.state, IngestState::Done)
        else {
            unreachable!("a closed stream yields its header or fails");
        };
        // The barrier applies what is still queued — and is where a
        // refusal in the stream's tail surfaces.
        let session = checker.finish()?;
        engine.finish_session(session.shadow_pages());
        Ok(session.into_summary())
    }
}
