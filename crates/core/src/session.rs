//! Check sessions: the per-run detector state as a first-class object.
//!
//! A [`CheckSession`] bundles everything one checked execution needs on
//! the *consumer* side of the event pipeline — the [`TsanRuntime`], the
//! [`CtxInterner`] that resolves event string ids, the one match that
//! translates an event into detector calls, and the per-session
//! [`EventCounters`] — independent of any particular event producer.
//! The runtime counts the fiber, clock and range events it applies
//! ([`TsanStats`]); the session counts only the markers it does not.
//!
//! The interner is the session's only label table: every label it takes
//! is defined in the runtime under the same id, so a range event's
//! [`StrId`] *is* its [`CtxId`] and a fiber's name is its label's id.
//! Three producers drive sessions today:
//!
//! - **Live instrumentation** — [`crate::ToolCtx`] builds one session per
//!   rank and applies the events its CUDA/MPI layers emit to it inline.
//! - **Offline replay** — [`crate::trace::replay_stream`] builds a
//!   session from a trace header ([`CheckSession::for_header`]) and
//!   streams the recorded records through it ([`CheckSession::feed`]).
//! - **The serve path** — `cusan-serve` multiplexes thousands of
//!   sessions over one [`crate::CheckerPool`], one per uploaded trace
//!   shard stream.
//!
//! All three share one apply path — [`CheckSession::try_apply`], which
//! [`CheckSession::apply`] wraps for the live producer — and that is what
//! makes replayed and served results bit-for-bit identical to live runs:
//! it reproduces fiber numbering, context interning order, report dedup
//! and counters exactly.

use std::sync::Arc;

use crate::event::{CtxInterner, CusanEvent, EventCounters, FiberEventError, StrId};
use crate::trace::{TraceHeader, TraceRecord};
use tsan_rt::codec::{put_bytes, put_header, put_varint, DecodeError, Scanner};
use tsan_rt::fiber::MAX_FIBERS;
use tsan_rt::report::MAX_CTXS;
use tsan_rt::{CtxId, FiberId, RaceReport, TsanRuntime, TsanStats};

/// Magic prefix of a [`CheckSession::snapshot_bytes`] blob; the
/// [`tsan_rt::codec::LAYOUT_VERSION`] follows it.
pub const SESSION_MAGIC: &[u8; 8] = b"cusanses";

/// Construction parameters for a [`CheckSession`]: the trace-header
/// field that shapes detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOptions {
    /// MPI rank (or client-chosen id) the session checks; only used for
    /// naming the host fiber, so reports match live runs.
    pub rank: usize,
}

impl SessionOptions {
    /// The options of a session checking `rank`.
    pub fn new(rank: usize) -> Self {
        SessionOptions { rank }
    }

    /// Options recorded in a trace header. `_tiered` and `_budget` take
    /// the header's shadow-mode flag and page budget and are not
    /// consulted: they are always `true` and `None`, because the tiered,
    /// unbudgeted shadow is the only one and the trace readers refuse a
    /// header that names another (`tiered 0`, a budget) before a caller
    /// can get here.
    pub fn for_trace(rank: usize, _tiered: bool, _budget: Option<usize>) -> Self {
        Self::new(rank)
    }
}

/// A self-contained snapshot of everything a session detected, taken
/// out of the runtime so it survives the session (in the serve path it
/// is all that does: a finished session is freed with its summary).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Rank the session checked.
    pub rank: usize,
    /// Deduplicated race reports, in detection order.
    pub reports: Vec<RaceReport>,
    /// Races counted pre-dedup ([`TsanRuntime::race_count`]).
    pub race_count: u64,
    /// Detector-side Table-I counters: every fiber, clock and range
    /// event the session applied.
    pub stats: TsanStats,
    /// The session's marker counts and named CUDA rows; the fiber, clock
    /// and range counts are [`Self::stats`]' alone.
    pub counters: EventCounters,
}

/// Detector runtime + label table + apply path + per-session counters,
/// as one ownable unit (see the module docs).
pub struct CheckSession {
    rank: usize,
    strings: CtxInterner,
    counters: EventCounters,
    rt: TsanRuntime,
}

impl CheckSession {
    /// Fresh session with its own runtime built from `opts`.
    pub fn new(opts: &SessionOptions) -> Self {
        let rt = TsanRuntime::new(&format!("host (rank {})", opts.rank));
        Self::from_runtime(opts.rank, rt)
    }

    /// Fresh session shaped by a trace's header: the recorded rank names
    /// the host fiber, so a replayed or served session detects exactly
    /// what the live run did.
    pub fn for_header(header: &TraceHeader) -> Self {
        Self::new(&SessionOptions::new(header.rank))
    }

    /// Wrap an already-configured runtime that has no labels defined:
    /// from here on the session defines them.
    pub fn from_runtime(rank: usize, rt: TsanRuntime) -> Self {
        debug_assert!(rt.labels().is_empty(), "the session owns label ids");
        CheckSession {
            rank,
            strings: CtxInterner::new(),
            counters: EventCounters::default(),
            rt,
        }
    }

    /// Rank (or serve-client id) this session checks.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Intern a label into the session's table. Producers must forward
    /// every fresh label *before* the first event referencing it, in
    /// interning order — ids are dense, so order is identity.
    pub fn intern(&mut self, label: &str) -> StrId {
        let id = self.strings.intern(label);
        self.define_if_new(id)
    }

    /// [`CheckSession::intern`] for a label whose bytes are already
    /// shared (serve's cross-session label table).
    pub fn intern_shared(&mut self, label: &Arc<str>) -> StrId {
        let id = self.strings.intern_shared(label);
        self.define_if_new(id)
    }

    /// Define a label the interner has just added in the runtime, under
    /// the same id and sharing its bytes.
    fn define_if_new(&mut self, id: StrId) -> StrId {
        if id.0 as usize == self.rt.labels().len() {
            let label = self.strings.shared_label(id).expect("interned above");
            self.rt.define_ctx(label);
        }
        id
    }

    /// Apply one event: detector first, then the session's marker
    /// counts. This is the one apply path shared by live checking, trace
    /// replay and serve's checker pool. A fiber event this session's
    /// fiber table cannot accept is refused and leaves the session as it
    /// was; every producer of events it did not make itself — a trace, a
    /// socket — calls this.
    pub fn try_apply(&mut self, ev: &CusanEvent) -> Result<(), FiberEventError> {
        self.detect(ev)?;
        self.counters.observe(ev, &self.strings);
        Ok(())
    }

    /// Translate one event into detector calls. A fiber event is first
    /// checked against the runtime's fiber table — one bounds-and-liveness
    /// test — and refused, with the runtime untouched, if the table cannot
    /// accept it.
    fn detect(&mut self, ev: &CusanEvent) -> Result<(), FiberEventError> {
        match *ev {
            CusanEvent::FiberCreate { fiber, name } => {
                let next = self.rt.peek_next_fiber();
                if fiber != next {
                    return Err(FiberEventError::CreateNotNext { fiber, next });
                }
                if next.index() >= MAX_FIBERS {
                    return Err(FiberEventError::TableFull);
                }
                self.rt.create_fiber(CtxId(name.0));
            }
            CusanEvent::FiberSwitch { fiber, sync } => {
                if !self.rt.is_fiber_alive(fiber) {
                    return Err(FiberEventError::SwitchToDead(fiber));
                }
                if sync {
                    self.rt.switch_to_fiber_sync(fiber);
                } else {
                    self.rt.switch_to_fiber(fiber);
                }
            }
            CusanEvent::FiberDestroy { fiber } => {
                if fiber == FiberId::HOST {
                    return Err(FiberEventError::DestroyHost);
                }
                if !self.rt.is_fiber_alive(fiber) {
                    return Err(FiberEventError::DestroyDead(fiber));
                }
                if fiber == self.rt.current_fiber() {
                    return Err(FiberEventError::DestroyCurrent(fiber));
                }
                self.rt.destroy_fiber(fiber);
            }
            CusanEvent::HappensBefore { key } => self.rt.annotate_happens_before(key),
            CusanEvent::HappensAfter { key } => {
                self.rt.annotate_happens_after(key);
            }
            CusanEvent::ReadRange { addr, len, ctx } => {
                self.rt.read_range(addr, len, range_ctx(ctx)?);
            }
            CusanEvent::WriteRange { addr, len, ctx } => {
                self.rt.write_range(addr, len, range_ctx(ctx)?);
            }
            // Markers: no detection semantics. In particular `ApiFault`
            // must leave the detector untouched — a failed call changes
            // no happens-before state (the consistency-on-failure
            // invariant).
            CusanEvent::Alloc { .. }
            | CusanEvent::Free { .. }
            | CusanEvent::RequestBegin { .. }
            | CusanEvent::RequestComplete { .. }
            | CusanEvent::CounterBump { .. }
            | CusanEvent::ApiFault { .. }
            | CusanEvent::ScheduleChoice { .. } => {}
        }
        Ok(())
    }

    /// [`CheckSession::try_apply`] for a producer that stamps its fiber
    /// events from this session's own runtime (live instrumentation): a
    /// refusal there is a bug, so it panics.
    pub fn apply(&mut self, ev: &CusanEvent) {
        if let Err(e) = self.try_apply(ev) {
            panic!("{e}");
        }
    }

    /// Feed one decoded trace record: a string-table entry is mirrored
    /// (sharing the parser's label bytes), an event is applied.
    pub fn feed(&mut self, rec: &TraceRecord) -> Result<(), FiberEventError> {
        match rec {
            TraceRecord::Str { label, .. } => {
                self.intern_shared(label);
                Ok(())
            }
            TraceRecord::Event(ev) => self.try_apply(ev),
        }
    }

    /// The session's label table.
    pub fn strings(&self) -> &CtxInterner {
        &self.strings
    }

    /// Event-stream counters folded so far.
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }

    /// The detector runtime.
    pub fn runtime(&self) -> &TsanRuntime {
        &self.rt
    }

    /// Resident shadow pages (the serve path's live-budget unit).
    pub fn shadow_pages(&self) -> usize {
        self.rt.shadow_pages()
    }

    /// Snapshot reports/stats/counters (see [`SessionSummary`]).
    pub fn summary(&self) -> SessionSummary {
        SessionSummary {
            rank: self.rank,
            reports: self.rt.reports().to_vec(),
            race_count: self.rt.race_count(),
            stats: self.rt.stats(),
            counters: self.counters.clone(),
        }
    }

    /// Serialize the complete session — event counters and the full
    /// detector runtime, whose label section is the interner's content —
    /// into a blob framed by [`SESSION_MAGIC`] and the layout version.
    /// The encoding is *canonical*: two sessions with identical
    /// observable state produce identical bytes, and `snapshot_bytes ∘
    /// restore_bytes` is the identity on blobs. This is what lets the
    /// serve path spill an **unfinished** session to disk under memory
    /// pressure and later resume feeding it events with bit-for-bit
    /// identical results.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_header(&mut buf, SESSION_MAGIC);
        self.write_snapshot(&mut buf);
        buf
    }

    /// [`CheckSession::snapshot_bytes`] without the framing: the sections
    /// a session store's snapshot record embeds inline.
    pub fn write_snapshot(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.rank as u64);
        // Marker counters: the scalar fields, then the named rows
        // (BTreeMap iteration is already sorted).
        for v in scalar_values(&self.counters) {
            put_varint(buf, v);
        }
        put_varint(buf, self.counters.named.len() as u64);
        for (name, total) in &self.counters.named {
            put_bytes(buf, name.as_bytes());
            put_varint(buf, *total);
        }
        // The detector runtime, inline (its own sections are canonical);
        // it carries the labels.
        self.rt.write_snapshot(buf);
    }

    /// Rebuild a session from [`CheckSession::snapshot_bytes`] output.
    pub fn restore_bytes(bytes: &[u8]) -> Result<CheckSession, DecodeError> {
        let mut s = Scanner::new(bytes);
        s.header(SESSION_MAGIC)?;
        let session = Self::read_snapshot(&mut s)?;
        s.expect_end()?;
        Ok(session)
    }

    /// Rebuild a session from [`CheckSession::write_snapshot`] output.
    pub fn read_snapshot(s: &mut Scanner<'_>) -> Result<CheckSession, DecodeError> {
        let rank = s.varint_as()?;
        let mut counters = EventCounters::default();
        for v in scalar_counters(&mut counters) {
            *v = s.varint()?;
        }
        let n_named = s.count(2)?;
        for _ in 0..n_named {
            let name = s.str()?;
            if counters
                .named
                .keys()
                .next_back()
                .is_some_and(|last| **last >= *name)
            {
                return Err(s.corrupt("named counters out of order"));
            }
            let total = s.varint()?;
            counters.named.insert(name.to_string(), total);
        }
        let rt = TsanRuntime::read_snapshot(s)?;
        // The interner, rebuilt from the runtime's labels: ids are dense,
        // so a label seen twice would break the id ↔ context identity.
        let mut strings = CtxInterner::new();
        for (i, label) in rt.labels().iter().enumerate() {
            if strings.intern_shared(label).0 as usize != i {
                return Err(s.corrupt(format!("duplicate context label {label:?}")));
            }
        }
        Ok(CheckSession {
            rank,
            strings,
            counters,
            rt,
        })
    }

    /// Consume the session into its summary (moves the reports out
    /// instead of cloning).
    pub fn into_summary(mut self) -> SessionSummary {
        SessionSummary {
            rank: self.rank,
            race_count: self.rt.race_count(),
            stats: self.rt.stats(),
            reports: self.rt.take_reports(),
            counters: self.counters,
        }
    }
}

/// The event counters a session snapshot stores ahead of the named rows,
/// in layout order, by value (the snapshot writer borrows the session);
/// [`scalar_counters`] is the same list, writable.
fn scalar_values(c: &EventCounters) -> [u64; 7] {
    [
        c.sync_switches,
        c.allocs,
        c.frees,
        c.requests_begun,
        c.requests_completed,
        c.api_faults,
        c.schedule_choices,
    ]
}

/// [`scalar_values`], writable: what the snapshot reader fills in.
fn scalar_counters(c: &mut EventCounters) -> [&mut u64; 7] {
    [
        &mut c.sync_switches,
        &mut c.allocs,
        &mut c.frees,
        &mut c.requests_begun,
        &mut c.requests_completed,
        &mut c.api_faults,
        &mut c.schedule_choices,
    ]
}

/// The detector context of a range event's label: the label's own id,
/// refused once it is past what a shadow slot can name.
fn range_ctx(id: StrId) -> Result<CtxId, FiberEventError> {
    if id.0 as usize >= MAX_CTXS {
        return Err(FiberEventError::ContextTableFull);
    }
    Ok(CtxId(id.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsan_rt::FiberId;

    #[test]
    fn the_scalar_counter_lists_line_up() {
        let mut c = EventCounters::default();
        for (i, v) in scalar_counters(&mut c).into_iter().enumerate() {
            *v = i as u64 + 1;
        }
        assert_eq!(scalar_values(&c), [1, 2, 3, 4, 5, 6, 7]);
    }

    fn race_session() -> CheckSession {
        // The Fig. 6B pattern through the session apply path.
        let mut s = CheckSession::new(&SessionOptions::new(0));
        let name = s.intern("cuda stream 0");
        let cw = s.intern("kernel write");
        let cr = s.intern("host read");
        let fiber = s.runtime().peek_next_fiber();
        for ev in [
            CusanEvent::FiberCreate { fiber, name },
            CusanEvent::FiberSwitch { fiber, sync: true },
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
        ] {
            s.apply(&ev);
        }
        s
    }

    #[test]
    fn session_detects_and_summarizes() {
        let s = race_session();
        let sum = s.summary();
        assert_eq!(sum.rank, 0);
        assert_eq!(sum.race_count, 1);
        assert_eq!(sum.reports.len(), 1);
        assert_eq!(sum.reports[0].previous.ctx, "kernel write");
        assert_eq!(sum.stats.fiber_switches, 2);
        assert_eq!(sum.stats.write_bytes, 64);
        assert_eq!(sum.counters.sync_switches, 1);
        // into_summary agrees with the cloning snapshot.
        assert_eq!(s.into_summary(), sum);
    }

    #[test]
    fn host_fiber_is_named_after_the_rank() {
        let s = CheckSession::new(&SessionOptions::new(3));
        assert_eq!(s.runtime().fiber_name(FiberId::HOST), "host (rank 3)");
    }
}
