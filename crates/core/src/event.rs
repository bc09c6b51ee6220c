//! The typed instrumentation-event pipeline.
//!
//! The paper's architecture is a *callback* layer: the compiler pass
//! inserts CuSan callbacks before each CUDA/MPI call (Fig. 9), and the
//! callbacks translate runtime semantics into TSan annotations. Here that
//! translation is reified: every callback the CUDA layer
//! ([`crate::CusanCuda`]) and the MUST layer emit is a [`CusanEvent`]
//! value flowing through an ordered pipeline owned by
//! [`crate::ToolCtx`]:
//!
//! 1. **Checker** ([`crate::CheckSession::try_apply`]) — always first.
//!    Applies the event to the rank's detector runtime, producing race
//!    reports and Table-I TSan counters. The same apply path drives live
//!    detection, offline trace replay ([`crate::trace::replay_stream`])
//!    and `cusan-serve`, which is what makes replay reproduce live
//!    results exactly.
//! 2. **Counters** ([`EventCounters`]) — the session's counts of what the
//!    detector does not count: the markers (allocations, requests,
//!    faults, schedule choices), synchronizing switches, and the named
//!    CUDA Table-I rows carried by [`CusanEvent::CounterBump`].
//! 3. **The trace recorder** ([`crate::trace::TraceSink`]), when a run
//!    records.
//!
//! Each count has one owner: the detector counts fiber, clock and range
//! events ([`tsan_rt::TsanStats`]), the session counts markers, and the
//! simulated device counts CUDA calls ([`cuda_sim::CudaCounters`], which
//! the `CounterBump` rows mirror so a trace carries them).
//!
//! The recorder sees an event *after* the checker has applied it, and
//! events of one rank are totally ordered (each rank owns its pipeline,
//! matching the one-TSan-per-process model).
//!
//! String payloads (context labels, fiber names, counter names) are
//! interned once per rank in a [`CtxInterner`] — the single source of
//! context naming shared by the CUDA layer's kernel-argument cache, the
//! MUST layer, and the trace string table.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use tsan_rt::fiber::MAX_FIBERS;
use tsan_rt::report::MAX_CTXS;
use tsan_rt::{FiberId, SyncKey};

/// Id of a string interned in a [`CtxInterner`]. Ids are dense and
/// allocated in first-use order, which makes them stable across a
/// record/replay round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrId(pub u32);

/// Per-session string interner: context labels, fiber names, counter
/// names.
///
/// One instance per [`crate::CheckSession`]; every instrumentation layer
/// interns through it, so a label has exactly one id per session and the
/// trace string table is the single source of context naming.
///
/// Labels are stored as `Arc<str>` so their bytes can be shared — the
/// serve path dedups label storage across thousands of concurrent
/// sessions through [`CtxInterner::intern_shared`], while ids stay dense
/// and per-session (id density is what makes them stable across a
/// record/replay round trip).
#[derive(Debug, Default, Clone)]
pub struct CtxInterner {
    labels: Vec<Arc<str>>,
    by_label: HashMap<Arc<str>, StrId>,
}

impl CtxInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a label, returning its stable id.
    pub fn intern(&mut self, label: &str) -> StrId {
        if let Some(&id) = self.by_label.get(label) {
            return id;
        }
        self.insert(Arc::from(label))
    }

    /// Intern an already-shared label without copying its bytes; the
    /// interner keeps a reference to the same allocation.
    pub fn intern_shared(&mut self, label: &Arc<str>) -> StrId {
        if let Some(&id) = self.by_label.get(&**label) {
            return id;
        }
        self.insert(Arc::clone(label))
    }

    fn insert(&mut self, label: Arc<str>) -> StrId {
        let id = StrId(self.labels.len() as u32);
        self.labels.push(Arc::clone(&label));
        self.by_label.insert(label, id);
        id
    }

    /// Label of an interned id.
    pub fn label(&self, id: StrId) -> &str {
        self.labels
            .get(id.0 as usize)
            .map(|l| &**l)
            .unwrap_or("<invalid>")
    }

    /// Shared handle to an interned label (None for out-of-range ids).
    pub fn shared_label(&self, id: StrId) -> Option<Arc<str>> {
        self.labels.get(id.0 as usize).map(Arc::clone)
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// One instrumentation callback, reified.
///
/// The vocabulary is exactly the TSan-annotation surface of the paper's
/// callback layer plus marker events (alloc/free, MPI request lifecycle,
/// counter bumps) that carry no detection semantics but make the stream
/// self-contained for observability and offline replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CusanEvent {
    /// A fiber was created (CUDA stream or MPI request). `fiber` is the id
    /// the runtime assigned; the checker refuses a replay that would
    /// assign another ([`FiberEventError`]).
    FiberCreate { fiber: FiberId, name: StrId },
    /// Active-fiber switch; `sync` carries happens-before from the
    /// previous fiber (`__tsan_switch_to_fiber` flag).
    FiberSwitch { fiber: FiberId, sync: bool },
    /// A fiber was destroyed (MPI request completion).
    FiberDestroy { fiber: FiberId },
    /// `AnnotateHappensBefore` on a sync object's key.
    HappensBefore { key: SyncKey },
    /// `AnnotateHappensAfter` on a sync object's key.
    HappensAfter { key: SyncKey },
    /// `tsan_read_range` on the current fiber.
    ReadRange { addr: u64, len: u64, ctx: StrId },
    /// `tsan_write_range` on the current fiber.
    WriteRange { addr: u64, len: u64, ctx: StrId },
    /// Marker: an allocation became tracked (`kind` names the memory
    /// kind). No detection semantics.
    Alloc { addr: u64, bytes: u64, kind: StrId },
    /// Marker: an allocation was released. The free-as-write annotation
    /// is a separate [`CusanEvent::WriteRange`].
    Free { addr: u64, bytes: u64 },
    /// Marker: a non-blocking MPI request began (serial from
    /// [`crate::ToolCtx::next_request_serial`]).
    RequestBegin { serial: u64 },
    /// Marker: the request completed (wait/test success).
    RequestComplete { serial: u64 },
    /// Marker: a named Table-I counter advanced (CUDA rows).
    CounterBump { counter: StrId, delta: u64 },
    /// Marker: an intercepted CUDA/MPI call returned an injected fault
    /// (see [`crate::ToolCtx::should_fault`]). `call` names the API call,
    /// `site` is the rank's interception-site index. Recording these makes a faulty
    /// run's trace self-contained: replay observes the schedule instead
    /// of re-deciding it.
    ApiFault { call: StrId, site: u64 },
    /// Marker: the schedule controller resolved a commutable choice point
    /// (wildcard-receive match, stream drain order, collective fold
    /// order). `kind` names the choice point (`sched.*` labels from the
    /// `explore` crate), `arity` is how many candidates were offered and
    /// `chosen` which one fired. Recording these makes an explored run's
    /// trace self-contained: the decisions that produced the execution
    /// are in the trace, so the schedule replays bit-for-bit.
    ScheduleChoice {
        kind: StrId,
        arity: u64,
        chosen: u64,
    },
}

/// An event the runtime it is applied to cannot accept. The three fiber
/// events are the only ones whose meaning depends on earlier events, so
/// a trace can decode record by record and still describe an execution
/// no runtime produced; [`crate::CheckSession::try_apply`] checks each
/// against the runtime's own fiber table before touching it and returns
/// this instead of tripping the runtime's assertions — as it does for a
/// range event that would overflow the context table. The refused event
/// is not applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FiberEventError {
    /// `FiberCreate` stamped with an id other than the one the table
    /// assigns next.
    CreateNotNext {
        /// The id the event carries.
        fiber: FiberId,
        /// The id the table would assign.
        next: FiberId,
    },
    /// `FiberCreate` with every slot the shadow encoding can name live.
    TableFull,
    /// `FiberSwitch` to a fiber that does not exist or was destroyed.
    SwitchToDead(FiberId),
    /// `FiberDestroy` of a fiber that does not exist or was destroyed.
    DestroyDead(FiberId),
    /// `FiberDestroy` of the host fiber.
    DestroyHost,
    /// `FiberDestroy` of the fiber the stream is running on.
    DestroyCurrent(FiberId),
    /// Not a fiber event, but refused on the same path: a range event
    /// whose label id is past the [`MAX_CTXS`] context ids a shadow slot
    /// can name (the session's label ids are its context ids).
    ContextTableFull,
}

impl fmt::Display for FiberEventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self != FiberEventError::ContextTableFull {
            f.write_str("inconsistent fiber event: ")?;
        }
        match *self {
            FiberEventError::CreateNotNext { fiber, next } => write!(
                f,
                "create of fiber {}, but the fiber table assigns {} next",
                fiber.index(),
                next.index()
            ),
            FiberEventError::TableFull => {
                write!(f, "create with all {MAX_FIBERS} fiber slots live")
            }
            FiberEventError::SwitchToDead(fiber) => {
                write!(f, "switch to fiber {}, which is not alive", fiber.index())
            }
            FiberEventError::DestroyDead(fiber) => {
                write!(f, "destroy of fiber {}, which is not alive", fiber.index())
            }
            FiberEventError::DestroyHost => f.write_str("destroy of the host fiber"),
            FiberEventError::DestroyCurrent(fiber) => {
                write!(f, "destroy of fiber {}, the current fiber", fiber.index())
            }
            FiberEventError::ContextTableFull => write!(
                f,
                "context table exhausted: a new context label with all {MAX_CTXS} ids taken"
            ),
        }
    }
}

impl std::error::Error for FiberEventError {}

/// The session's counts of what the detector does not count: marker
/// events and synchronizing switches (Table I's fiber, clock and range
/// rows are the detector's own: [`tsan_rt::TsanStats`]). The `named` map
/// carries [`CusanEvent::CounterBump`] rows — the CUDA section of Table
/// I — keyed by counter name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// `FiberSwitch` events with `sync = true`.
    pub sync_switches: u64,
    /// `Alloc` markers.
    pub allocs: u64,
    /// `Free` markers.
    pub frees: u64,
    /// `RequestBegin` markers.
    pub requests_begun: u64,
    /// `RequestComplete` markers.
    pub requests_completed: u64,
    /// `ApiFault` markers (injected call failures).
    pub api_faults: u64,
    /// `ScheduleChoice` markers (resolved commutable choice points).
    pub schedule_choices: u64,
    /// Named counter totals from `CounterBump` events (e.g.
    /// `cuda.kernel_calls`).
    pub named: BTreeMap<String, u64>,
}

impl EventCounters {
    /// Fold one event into the counters.
    pub fn observe(&mut self, ev: &CusanEvent, strings: &CtxInterner) {
        match *ev {
            CusanEvent::FiberSwitch { sync: true, .. } => self.sync_switches += 1,
            CusanEvent::Alloc { .. } => self.allocs += 1,
            CusanEvent::Free { .. } => self.frees += 1,
            CusanEvent::RequestBegin { .. } => self.requests_begun += 1,
            CusanEvent::RequestComplete { .. } => self.requests_completed += 1,
            CusanEvent::ApiFault { .. } => self.api_faults += 1,
            CusanEvent::ScheduleChoice { .. } => self.schedule_choices += 1,
            CusanEvent::CounterBump { counter, delta } => {
                // Only a counter's first bump allocates its name.
                let name = strings.label(counter);
                match self.named.get_mut(name) {
                    Some(total) => *total += delta,
                    None => {
                        self.named.insert(name.to_string(), delta);
                    }
                }
            }
            _ => {}
        }
    }

    /// A named counter's total (0 if never bumped).
    pub fn named(&self, name: &str) -> u64 {
        self.named.get(name).copied().unwrap_or(0)
    }
}

/// Names of the CUDA Table-I rows emitted as [`CusanEvent::CounterBump`]
/// by [`crate::CusanCuda`], mirroring [`cuda_sim::CudaCounters`].
pub mod counter_names {
    /// Streams in use (default stream included).
    pub const CUDA_STREAMS: &str = "cuda.streams";
    /// `cudaMemset(+Async)` calls.
    pub const CUDA_MEMSET: &str = "cuda.memset_calls";
    /// `cudaMemcpy(2D)(+Async)` calls.
    pub const CUDA_MEMCPY: &str = "cuda.memcpy_calls";
    /// Explicit synchronization calls.
    pub const CUDA_SYNC: &str = "cuda.sync_calls";
    /// Kernel launches.
    pub const CUDA_KERNEL: &str = "cuda.kernel_calls";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CheckSession;
    use tsan_rt::TsanRuntime;

    #[test]
    fn interner_dedupes_and_resolves() {
        let mut i = CtxInterner::new();
        let a = i.intern("kernel foo arg#0 [write]");
        let b = i.intern("kernel foo arg#0 [write]");
        let c = i.intern("kernel foo arg#1 [read]");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.label(a), "kernel foo arg#0 [write]");
        assert_eq!(i.len(), 2);
        assert_eq!(i.label(StrId(99)), "<invalid>");
    }

    #[test]
    fn intern_shared_reuses_the_allocation() {
        let mut i = CtxInterner::new();
        let shared: Arc<str> = Arc::from("kernel foo arg#0 [write]");
        let a = i.intern_shared(&shared);
        // The interner holds the same allocation, not a copy.
        assert!(Arc::ptr_eq(&shared, &i.shared_label(a).unwrap()));
        // Byte-equal plain interns resolve to the same id.
        assert_eq!(i.intern("kernel foo arg#0 [write]"), a);
        assert_eq!(i.len(), 1);
        assert!(i.shared_label(StrId(99)).is_none());
    }

    /// A session on a runtime whose host fiber is plain `host`.
    fn session() -> CheckSession {
        CheckSession::from_runtime(0, TsanRuntime::new("host"))
    }

    #[test]
    fn checker_applies_detection_semantics() {
        // The Fig. 6B pattern, driven entirely through events.
        let mut s = session();
        let name = s.intern("cuda stream 0");
        let cw = s.intern("kernel write");
        let cr = s.intern("host read");
        let fiber = s.runtime().peek_next_fiber();
        let evs = [
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
        ];
        for ev in &evs {
            s.try_apply(ev).unwrap();
        }
        let rt = s.runtime();
        assert_eq!(rt.race_count(), 1);
        let r = &rt.reports()[0];
        assert_eq!(r.previous.fiber, "cuda stream 0");
        assert_eq!(r.previous.ctx, "kernel write");
        assert_eq!(r.current.ctx, "host read");
    }

    #[test]
    fn checker_rejects_diverging_fiber_ids() {
        let mut s = session();
        let name = s.intern("f");
        let fresh = s.runtime().stats();
        let mut step = |ev: CusanEvent| s.try_apply(&ev);
        let f = FiberId::from_index;
        let create = |fiber| CusanEvent::FiberCreate { fiber, name };
        let switch = |fiber, sync| CusanEvent::FiberSwitch { fiber, sync };
        let destroy = |fiber| CusanEvent::FiberDestroy { fiber };

        let (fiber, next) = (f(7), f(1));
        assert_eq!(
            step(create(fiber)),
            Err(FiberEventError::CreateNotNext { fiber, next })
        );
        for sync in [false, true] {
            assert_eq!(
                step(switch(f(7), sync)),
                Err(FiberEventError::SwitchToDead(f(7)))
            );
        }
        assert_eq!(step(destroy(f(0))), Err(FiberEventError::DestroyHost));
        assert_eq!(step(destroy(f(1))), Err(FiberEventError::DestroyDead(f(1))));

        step(create(f(1))).unwrap();
        step(switch(f(1), false)).unwrap();
        assert_eq!(
            step(destroy(f(1))),
            Err(FiberEventError::DestroyCurrent(f(1)))
        );
        step(switch(FiberId::HOST, false)).unwrap();
        step(destroy(f(1))).unwrap();
        assert_eq!(step(destroy(f(1))), Err(FiberEventError::DestroyDead(f(1))));
        assert_eq!(
            step(switch(f(1), true)),
            Err(FiberEventError::SwitchToDead(f(1)))
        );
        // A refusal leaves the detector as it was: only the four accepted
        // events are counted, and the freed slot is still next.
        let stats = s.runtime().stats();
        assert_eq!(stats.fibers_created, fresh.fibers_created + 1);
        assert_eq!(stats.fibers_destroyed, fresh.fibers_destroyed + 1);
        assert_eq!(stats.fiber_switches, fresh.fiber_switches + 2);
        assert_eq!(s.runtime().peek_next_fiber(), f(1));
    }

    #[test]
    fn fiber_create_beyond_the_table_is_refused_not_asserted() {
        let mut s = session();
        let name = s.intern("f");
        for i in 1..MAX_FIBERS {
            let fiber = FiberId::from_index(i);
            s.try_apply(&CusanEvent::FiberCreate { fiber, name })
                .unwrap();
        }
        let fiber = FiberId::from_index(MAX_FIBERS);
        assert_eq!(
            s.try_apply(&CusanEvent::FiberCreate { fiber, name }),
            Err(FiberEventError::TableFull)
        );
        // A destroyed slot is handed out again.
        let reused = FiberId::from_index(9);
        for ev in [
            CusanEvent::FiberDestroy { fiber: reused },
            CusanEvent::FiberCreate {
                fiber: reused,
                name,
            },
        ] {
            s.try_apply(&ev).unwrap();
        }
    }

    #[test]
    fn counters_fold_events() {
        let mut strings = CtxInterner::new();
        let ctx = strings.intern("x");
        let k = strings.intern(counter_names::CUDA_KERNEL);
        let mut c = EventCounters::default();
        let f = FiberId::from_index(1);
        for ev in [
            CusanEvent::FiberCreate {
                fiber: f,
                name: ctx,
            },
            CusanEvent::FiberSwitch {
                fiber: f,
                sync: true,
            },
            CusanEvent::FiberSwitch {
                fiber: FiberId::HOST,
                sync: false,
            },
            CusanEvent::ReadRange {
                addr: 0,
                len: 100,
                ctx,
            },
            CusanEvent::WriteRange {
                addr: 0,
                len: 50,
                ctx,
            },
            CusanEvent::CounterBump {
                counter: k,
                delta: 1,
            },
            CusanEvent::CounterBump {
                counter: k,
                delta: 2,
            },
            CusanEvent::RequestBegin { serial: 0 },
            CusanEvent::RequestComplete { serial: 0 },
            CusanEvent::ApiFault { call: k, site: 17 },
        ] {
            c.observe(&ev, &strings);
        }
        assert_eq!(c.api_faults, 1);
        assert_eq!(c.sync_switches, 1);
        assert_eq!(c.named(counter_names::CUDA_KERNEL), 3);
        assert_eq!(c.named("cuda.nope"), 0);
        assert_eq!(c.requests_begun, 1);
    }

    #[test]
    fn api_fault_is_a_detector_noop() {
        // The consistency-on-failure invariant at the event level: an
        // ApiFault marker must not move any detector state.
        let mut s = session();
        let call = s.intern("cudaMalloc");
        let before = s.runtime().stats();
        s.try_apply(&CusanEvent::ApiFault { call, site: 3 })
            .unwrap();
        assert_eq!(s.runtime().stats(), before);
        assert_eq!(s.runtime().race_count(), 0);
    }
}
