//! Check sessions: the per-run detector state as a first-class object.
//!
//! A [`CheckSession`] bundles everything one checked execution needs on
//! the *consumer* side of the event pipeline — the [`TsanRuntime`], the
//! mirror [`CtxInterner`] that resolves event string ids, the one match
//! that translates an event into detector calls, and the per-session
//! [`EventCounters`] — independent of any particular event producer.
//! Three producers drive sessions today:
//!
//! - **Live instrumentation** — [`crate::ToolCtx`] builds one session per
//!   rank from its config's page budget and applies the events its
//!   CUDA/MPI layers emit to it inline.
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
use tsan_rt::fiber::MAX_FIBERS;
use tsan_rt::{
    CtxId, FiberId, RaceReport, SnapshotError, SnapshotReader, SnapshotWriter, TsanRuntime,
    TsanStats,
};

/// Magic prefix of a serialized [`CheckSession`] (distinct from the
/// runtime-level `cusansnp` so the two blob kinds cannot be confused).
pub const SESSION_SNAPSHOT_MAGIC: &[u8; 8] = b"cusanses";

/// Version of the session snapshot layout.
pub const SESSION_SNAPSHOT_VERSION: u32 = 3;

/// Construction parameters for a [`CheckSession`]: the two trace-header
/// fields that shape detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOptions {
    /// MPI rank (or client-chosen id) the session checks; only used for
    /// naming the host fiber, so reports match live runs.
    pub rank: usize,
    /// Per-session shadow page budget (best-effort drops beyond it).
    pub shadow_page_budget: Option<usize>,
}

impl SessionOptions {
    /// Defaults matching a live `ToolCtx` run with a vanilla config: no
    /// budget.
    pub fn new(rank: usize) -> Self {
        Self::for_trace(rank, true, None)
    }

    /// Options recorded in a trace header. `_tiered` takes the header's
    /// shadow-mode flag and is not consulted: it is always `true`,
    /// because the tiered shadow is the only one and the trace readers
    /// refuse a `tiered 0` header (the removed flat shadow) before a
    /// caller can get here.
    pub fn for_trace(rank: usize, _tiered: bool, budget: Option<usize>) -> Self {
        SessionOptions {
            rank,
            shadow_page_budget: budget,
        }
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
    /// Detector-side Table-I counters.
    pub stats: TsanStats,
    /// Event-stream-side counters.
    pub counters: EventCounters,
}

/// Detector runtime + mirror interner + apply path + per-session
/// counters, as one ownable unit (see the module docs).
pub struct CheckSession {
    rank: usize,
    strings: CtxInterner,
    /// Pipeline [`StrId`] → runtime [`CtxId`], filled lazily in first-use
    /// order (identical live and on replay).
    ctx_map: Vec<Option<CtxId>>,
    counters: EventCounters,
    rt: TsanRuntime,
}

impl CheckSession {
    /// Fresh session with its own runtime built from `opts`.
    pub fn new(opts: &SessionOptions) -> Self {
        let mut rt = TsanRuntime::new(&format!("host (rank {})", opts.rank));
        rt.set_shadow_page_budget(opts.shadow_page_budget);
        Self::from_runtime(opts.rank, rt)
    }

    /// Fresh session shaped by a trace's header: the recorded rank names
    /// the host fiber and the recorded budget bounds the shadow, so a
    /// replayed or served session detects exactly what the live run did.
    pub fn for_header(header: &TraceHeader) -> Self {
        Self::new(&SessionOptions::for_trace(
            header.rank,
            header.tiered,
            header.budget,
        ))
    }

    /// Wrap an already-configured runtime.
    pub fn from_runtime(rank: usize, rt: TsanRuntime) -> Self {
        CheckSession {
            rank,
            strings: CtxInterner::new(),
            ctx_map: Vec::new(),
            counters: EventCounters::default(),
            rt,
        }
    }

    /// Rank (or serve-client id) this session checks.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Intern a label into the session's mirror table. Producers must
    /// forward every fresh label *before* the first event referencing
    /// it, in interning order — ids are dense, so order is identity.
    pub fn intern(&mut self, label: &str) -> StrId {
        self.strings.intern(label)
    }

    /// [`CheckSession::intern`] for a label whose bytes are already
    /// shared (serve's cross-session label table).
    pub fn intern_shared(&mut self, label: &Arc<str>) -> StrId {
        self.strings.intern_shared(label)
    }

    /// Apply one event: detector first, then the session counters. This
    /// is the one apply path shared by live checking, trace replay and
    /// serve's checker pool. A fiber event this session's fiber table
    /// cannot accept is refused and leaves the session as it was; every
    /// producer of events it did not make itself — a trace, a socket —
    /// calls this.
    pub fn try_apply(&mut self, ev: &CusanEvent) -> Result<(), FiberEventError> {
        self.detect(ev)?;
        self.counters.observe(ev, &self.strings);
        Ok(())
    }

    /// The runtime context of label `id`, interned on first use.
    fn runtime_ctx(&mut self, id: StrId) -> Result<CtxId, FiberEventError> {
        let idx = id.0 as usize;
        if let Some(&Some(ctx)) = self.ctx_map.get(idx) {
            return Ok(ctx);
        }
        let ctx = self
            .rt
            .try_intern_ctx(self.strings.label(id))
            .ok_or(FiberEventError::ContextTableFull)?;
        if idx >= self.ctx_map.len() {
            self.ctx_map.resize(idx + 1, None);
        }
        self.ctx_map[idx] = Some(ctx);
        Ok(ctx)
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
                self.rt.create_fiber(self.strings.label(name));
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
                let ctx = self.runtime_ctx(ctx)?;
                self.rt.read_range(addr, len, ctx);
            }
            CusanEvent::WriteRange { addr, len, ctx } => {
                let ctx = self.runtime_ctx(ctx)?;
                self.rt.write_range(addr, len, ctx);
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

    /// The session's mirror string table.
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

    /// Serialize the complete session — interner, context map,
    /// event counters, and the full detector runtime — into a
    /// self-describing blob. The encoding is *canonical*: two sessions
    /// with identical observable state produce identical bytes, and
    /// `snapshot_bytes ∘ restore_bytes` is the identity on blobs. This
    /// is what lets the serve path spill an **unfinished** session to
    /// disk under memory pressure and later resume feeding it events
    /// with bit-for-bit identical results.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_raw(SESSION_SNAPSHOT_MAGIC);
        w.put_u32(SESSION_SNAPSHOT_VERSION);
        w.put_u64(self.rank as u64);
        // Mirror interner, in id order (ids are dense: order is identity).
        w.put_len(self.strings.len());
        for i in 0..self.strings.len() {
            w.put_str(self.strings.label(StrId(i as u32)));
        }
        // StrId → CtxId map.
        w.put_len(self.ctx_map.len());
        for entry in &self.ctx_map {
            match entry {
                Some(ctx) => {
                    w.put_bool(true);
                    w.put_u32(ctx.0);
                }
                None => w.put_bool(false),
            }
        }
        // Event-stream counters: the 15 scalar fields in declared order,
        // then the named rows (BTreeMap iteration is already sorted).
        let c = &self.counters;
        for v in [
            c.fiber_creates,
            c.fiber_destroys,
            c.fiber_switches,
            c.sync_switches,
            c.happens_before,
            c.happens_after,
            c.read_range_calls,
            c.write_range_calls,
            c.read_bytes,
            c.write_bytes,
            c.allocs,
            c.frees,
            c.requests_begun,
            c.requests_completed,
            c.api_faults,
        ] {
            w.put_u64(v);
        }
        w.put_len(c.named.len());
        for (name, total) in &c.named {
            w.put_str(name);
            w.put_u64(*total);
        }
        // The detector runtime, inline (its own sections are canonical).
        self.rt.write_snapshot(&mut w);
        w.into_bytes()
    }

    /// Rebuild a session from [`CheckSession::snapshot_bytes`] output.
    pub fn restore_bytes(bytes: &[u8]) -> Result<CheckSession, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        if r.get_raw(SESSION_SNAPSHOT_MAGIC.len())? != SESSION_SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != SESSION_SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let rank = r.get_u64()? as usize;
        let n_labels = r.get_len()?;
        let mut strings = CtxInterner::new();
        for i in 0..n_labels {
            let label = r.get_str()?;
            let id = strings.intern(&label);
            if id != StrId(i as u32) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate interner label {label:?}"
                )));
            }
        }
        let n_map = r.get_len()?;
        if n_map > n_labels {
            return Err(SnapshotError::Corrupt(format!(
                "ctx map covers {n_map} ids but only {n_labels} labels exist"
            )));
        }
        let mut ctx_map = Vec::with_capacity(n_map);
        for _ in 0..n_map {
            ctx_map.push(if r.get_bool()? {
                Some(CtxId(r.get_u32()?))
            } else {
                None
            });
        }
        let mut counters = EventCounters::default();
        {
            let c = &mut counters;
            for field in [
                &mut c.fiber_creates,
                &mut c.fiber_destroys,
                &mut c.fiber_switches,
                &mut c.sync_switches,
                &mut c.happens_before,
                &mut c.happens_after,
                &mut c.read_range_calls,
                &mut c.write_range_calls,
                &mut c.read_bytes,
                &mut c.write_bytes,
                &mut c.allocs,
                &mut c.frees,
                &mut c.requests_begun,
                &mut c.requests_completed,
                &mut c.api_faults,
            ] {
                *field = r.get_u64()?;
            }
            let n_named = r.get_len()?;
            let mut last: Option<String> = None;
            for _ in 0..n_named {
                let name = r.get_str()?;
                if last.as_deref() >= Some(name.as_str()) {
                    return Err(SnapshotError::Corrupt("named counters out of order".into()));
                }
                let total = r.get_u64()?;
                c.named.insert(name.clone(), total);
                last = Some(name);
            }
        }
        let rt = TsanRuntime::read_snapshot(&mut r)?;
        r.expect_end()?;
        for entry in ctx_map.iter().flatten() {
            if rt.ctx_label(*entry) == "<invalid>" {
                return Err(SnapshotError::Corrupt(format!(
                    "ctx map references unknown runtime ctx {}",
                    entry.0
                )));
            }
        }
        Ok(CheckSession {
            rank,
            strings,
            ctx_map,
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

#[cfg(test)]
mod tests {
    use super::*;
    use tsan_rt::FiberId;

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
        assert_eq!(sum.counters.fiber_switches, 2);
        assert_eq!(sum.counters.write_bytes, 64);
        // into_summary agrees with the cloning snapshot.
        assert_eq!(s.into_summary(), sum);
    }

    #[test]
    fn host_fiber_is_named_after_the_rank() {
        let s = CheckSession::new(&SessionOptions::new(3));
        assert_eq!(s.runtime().fiber_name(FiberId::HOST), "host (rank 3)");
    }
}
