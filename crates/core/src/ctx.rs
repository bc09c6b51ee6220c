//! Per-rank tool context: configuration + detector + type runtime + the
//! event pipeline.
//!
//! One [`ToolCtx`] exists per simulated MPI rank (matching the paper's
//! one-TSan-per-process model) and is shared by the checked CUDA API
//! ([`crate::CusanCuda`]) and the MUST layer via `Rc`.
//!
//! All instrumentation flows through [`ToolCtx::emit`] as typed
//! [`CusanEvent`]s (see [`crate::event`]): the owned [`CheckSession`]
//! applies each event to the detector first, inline on the thread that
//! made the call (the paper's model, §IV), and folds it into its
//! counters; then the trace recorder, if one is installed, writes it.
//! `ToolCtx` is the live-instrumentation *front end* over a session —
//! trace replay and `cusan-serve` drive the same [`CheckSession`]
//! without one.
//!
//! It also carries the **host-access instrumentation**: the real TSan
//! compiler pass instruments every host load/store of user code; in
//! `cusan-rs` applications perform host accesses to simulated memory
//! through the `host_*` helpers here, which emit read/write range events
//! exactly when the `tsan` flag is active.
//!
//! [`ToolConfig`] is the only way to configure a run: nothing here reads
//! the environment, except to warn once per process about `CUSAN_*`
//! variables earlier versions read. Faults are not configuration: the
//! harness hands a fault controller's decision to [`ToolCtx::decide_faults`].

use crate::config::ToolConfig;
use crate::event::{CusanEvent, EventCounters, StrId};
use crate::session::{CheckSession, SessionOptions};
use crate::trace::TraceSink;
use sim_mem::{AddressSpace, MemError, Pod, Ptr};
use std::cell::{Cell, RefCell};
use std::sync::Once;
use tsan_rt::{FiberId, RaceReport, TsanRuntime, TsanStats};
use typeart_rt::TypeartRuntime;

/// What replaced the evaluation binaries' size knobs.
const REPRODUCE_SIZES: &str = "`reproduce` has one size table: pass `--small` or `--full`";

/// Variables earlier versions read, each with what replaced it.
const REMOVED_KNOBS: [(&str, &str); 20] = [
    (
        "CUSAN_ASYNC_CHECK",
        "live checking is inline; `cusan-serve --check-threads` sizes the pool",
    ),
    (
        "CUSAN_CHECK_THREADS",
        "live checking is inline; `cusan-serve --check-threads` sizes the pool",
    ),
    (
        "CUSAN_FAULTS",
        "faults are schedule choices: run under an `explore::FaultSchedule`",
    ),
    (
        "CUSAN_BARRIER_TIMEOUT_MS",
        "deadlocks are detected when every rank is blocked; there is no timeout",
    ),
    (
        "CUSAN_TRACE_FORMAT",
        "set `ToolConfig::record` or run `replay_trace transcode`",
    ),
    ("CUSAN_BENCH_RUNS", REPRODUCE_SIZES),
    ("CUSAN_BENCH_JACOBI_NX", REPRODUCE_SIZES),
    ("CUSAN_BENCH_JACOBI_NY", REPRODUCE_SIZES),
    ("CUSAN_BENCH_JACOBI_ITERS", REPRODUCE_SIZES),
    ("CUSAN_BENCH_TEALEAF_NX", REPRODUCE_SIZES),
    ("CUSAN_BENCH_TEALEAF_NY", REPRODUCE_SIZES),
    ("CUSAN_BENCH_TEALEAF_STEPS", REPRODUCE_SIZES),
    ("CUSAN_BENCH_RANKS", REPRODUCE_SIZES),
    ("CUSAN_BENCH_FULL", REPRODUCE_SIZES),
    ("CUSAN_BENCH_FIELD_ELEMS", REPRODUCE_SIZES),
    ("CUSAN_BENCH_ROW_ELEMS", REPRODUCE_SIZES),
    ("CUSAN_BENCH_PACK_ITERS", REPRODUCE_SIZES),
    ("CUSAN_BENCH_JACOBI2D_N", REPRODUCE_SIZES),
    ("CUSAN_BENCH_JACOBI2D_ITERS", REPRODUCE_SIZES),
    (
        "CUSAN_BENCH_RSS_BASELINE_MB",
        "`reproduce fig11` prints measured bytes, not a modeled RSS",
    ),
];

/// One warning per removed knob among the names of set variables, so a
/// stale setting says it has no effect instead of silently not having
/// one.
fn removed_knob_warnings<'a>(set: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    set.into_iter()
        .filter_map(|name| {
            let (_, instead) = REMOVED_KNOBS.iter().find(|(knob, _)| *knob == name)?;
            Some(format!(
                "warning: ignoring {name}: no longer read: {instead}"
            ))
        })
        .collect()
}

/// Shared per-rank tool state. Not `Send`: each rank thread owns its own.
pub struct ToolCtx {
    /// Active instrumentation configuration.
    pub config: ToolConfig,
    /// The race detector: every event is applied to it inline.
    session: RefCell<CheckSession>,
    /// Allocation-type tracking.
    pub typeart: RefCell<TypeartRuntime>,
    recorder: RefCell<Option<TraceSink>>,
    /// Decides each checked CUDA/MPI entry: `true` fails it.
    fault_decider: Option<Box<dyn Fn() -> bool>>,
    /// Entries asked so far: the next one is site `fault_sites`.
    fault_sites: Cell<u64>,
    diagnostics: RefCell<Vec<String>>,
    rank: usize,
    request_serial: Cell<u64>,
}

impl ToolCtx {
    /// Create the context for one rank, configured by `config` alone;
    /// with `config.record` set it records from its first event on.
    /// The first call in a process warns about any set variable earlier
    /// versions read (`REMOVED_KNOBS`).
    pub fn new(rank: usize, config: ToolConfig) -> Self {
        static WARN_REMOVED_KNOBS: Once = Once::new();
        WARN_REMOVED_KNOBS.call_once(|| {
            let set = REMOVED_KNOBS
                .iter()
                .map(|(name, _)| *name)
                .filter(|name| std::env::var_os(name).is_some());
            for line in removed_knob_warnings(set) {
                eprintln!("{line}");
            }
        });
        let session = CheckSession::new(&SessionOptions::new(rank));
        ToolCtx {
            config,
            session: RefCell::new(session),
            typeart: RefCell::new(TypeartRuntime::new()),
            recorder: RefCell::new(config.record.map(|format| TraceSink::new(format, rank))),
            fault_decider: None,
            fault_sites: Cell::new(0),
            diagnostics: RefCell::new(Vec::new()),
            rank,
            request_serial: Cell::new(0),
        }
    }

    /// Run `f` with shared access to the detector.
    fn with_tsan<R>(&self, f: impl FnOnce(&TsanRuntime) -> R) -> R {
        f(self.session.borrow().runtime())
    }

    /// The rank this context belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Allocate a fresh serial for a non-blocking MPI request fiber.
    pub fn next_request_serial(&self) -> u64 {
        let s = self.request_serial.get();
        self.request_serial.set(s + 1);
        s
    }

    // ---- the event pipeline -------------------------------------------------

    /// Intern a label (context, fiber name, counter name) in the rank's
    /// string table — the owned session's, so an id is assigned before
    /// any event references it.
    pub fn intern_label(&self, label: &str) -> StrId {
        self.session.borrow_mut().intern(label)
    }

    /// Push one event through the pipeline: the session first (detection,
    /// then its counters), then the trace recorder if one is installed.
    pub fn emit(&self, ev: CusanEvent) {
        let mut session = self.session.borrow_mut();
        session.apply(&ev);
        if let Some(recorder) = self.recorder.borrow_mut().as_mut() {
            recorder.on_event(&ev, session.strings());
        }
    }

    /// Emit a [`CusanEvent::FiberCreate`] for a fresh fiber and return its
    /// id: the one the session's runtime will assign next (the checker
    /// asserts the two match when the event is applied).
    pub fn emit_fiber_create(&self, name: &str) -> FiberId {
        let fiber = self.with_tsan(|t| t.peek_next_fiber());
        let name = self.intern_label(name);
        self.emit(CusanEvent::FiberCreate { fiber, name });
        fiber
    }

    /// End the recording `config.record` started and hand over the
    /// trace (a binary one closed by its end-of-trace marker); `None` if
    /// nothing is being recorded. Later events are not recorded.
    pub fn take_trace(&self) -> Option<Vec<u8>> {
        self.recorder.borrow_mut().take().map(TraceSink::finish)
    }

    // ---- fault injection ----------------------------------------------------

    /// Let `decide` choose, at every checked CUDA and MPI entry of this
    /// rank, whether the call fails (`true`) instead of running. The
    /// harness installs a fault controller's `ApiFault` choice here; a
    /// context without one never faults.
    pub fn decide_faults(&mut self, decide: impl Fn() -> bool + 'static) {
        self.fault_decider = Some(Box::new(decide));
    }

    /// The fault gate of one interception site. Without a decider it is
    /// a no-op; with one, every checked API entry asks exactly once,
    /// before doing anything else, so the `k`-th ask is site `k`.
    /// Returns `true` if the call must fail, in which case a
    /// [`CusanEvent::ApiFault`] was emitted: the trace carries the fault,
    /// and replay never re-decides it.
    pub fn should_fault(&self, call: &'static str) -> bool {
        let Some(decide) = &self.fault_decider else {
            return false;
        };
        let site = self.fault_sites.get();
        self.fault_sites.set(site + 1);
        if !decide() {
            return false;
        }
        let call = self.intern_label(call);
        self.emit(CusanEvent::ApiFault { call, site });
        true
    }

    // ---- diagnostics --------------------------------------------------------

    /// Report a non-fatal tool-internal problem (e.g. a teardown flush
    /// failure) instead of panicking the rank thread. The message is
    /// retained for the harness outcome and mirrored into the event
    /// pipeline as a named counter bump so traces and counters record
    /// that the run degraded.
    pub fn report_diagnostic(&self, msg: impl Into<String>) {
        let msg = msg.into();
        let counter = self.intern_label("tool.diagnostics");
        self.emit(CusanEvent::CounterBump { counter, delta: 1 });
        self.diagnostics.borrow_mut().push(msg);
    }

    /// Diagnostics reported so far.
    pub fn diagnostics(&self) -> Vec<String> {
        self.diagnostics.borrow().clone()
    }

    /// Snapshot of the session's event counters (Table-I view derived
    /// purely from the event stream).
    pub fn event_counters(&self) -> EventCounters {
        self.session.borrow().counters().clone()
    }

    // ---- host-access instrumentation ---------------------------------------

    /// Annotate a host-side read (no data movement).
    pub fn annotate_host_read(&self, ptr: Ptr, bytes: u64, label: &str) {
        if self.config.tsan {
            let ctx = self.intern_label(label);
            self.emit(CusanEvent::ReadRange {
                addr: ptr.addr(),
                len: bytes,
                ctx,
            });
        }
    }

    /// Annotate a host-side write (no data movement).
    pub fn annotate_host_write(&self, ptr: Ptr, bytes: u64, label: &str) {
        if self.config.tsan {
            let ctx = self.intern_label(label);
            self.emit(CusanEvent::WriteRange {
                addr: ptr.addr(),
                len: bytes,
                ctx,
            });
        }
    }

    /// Instrumented host read of `n` elements.
    pub fn host_read_slice<T: Pod>(
        &self,
        space: &AddressSpace,
        ptr: Ptr,
        n: u64,
        label: &str,
    ) -> Result<Vec<T>, MemError> {
        self.annotate_host_read(ptr, n * T::SIZE as u64, label);
        space.read_vec::<T>(ptr, n)
    }

    /// Instrumented host write of a slice.
    pub fn host_write_slice<T: Pod>(
        &self,
        space: &AddressSpace,
        ptr: Ptr,
        data: &[T],
        label: &str,
    ) -> Result<(), MemError> {
        self.annotate_host_write(ptr, (data.len() * T::SIZE) as u64, label);
        space.write_slice_data::<T>(ptr, data)
    }

    /// Instrumented host read of one element.
    pub fn host_read_at<T: Pod>(
        &self,
        space: &AddressSpace,
        ptr: Ptr,
        label: &str,
    ) -> Result<T, MemError> {
        self.annotate_host_read(ptr, T::SIZE as u64, label);
        space.read_at::<T>(ptr)
    }

    /// Instrumented host write of one element.
    pub fn host_write_at<T: Pod>(
        &self,
        space: &AddressSpace,
        ptr: Ptr,
        value: T,
        label: &str,
    ) -> Result<(), MemError> {
        self.annotate_host_write(ptr, T::SIZE as u64, label);
        space.write_at::<T>(ptr, value)
    }

    // ---- results ------------------------------------------------------------

    /// Race reports collected so far.
    pub fn race_reports(&self) -> Vec<RaceReport> {
        self.with_tsan(|t| t.reports().to_vec())
    }

    /// Number of races reported.
    pub fn race_count(&self) -> u64 {
        self.with_tsan(|t| t.race_count())
    }

    /// Detector counters (Table I TSan rows).
    pub fn tsan_stats(&self) -> TsanStats {
        self.with_tsan(|t| t.stats())
    }

    /// Approximate tool heap usage: detector shadow/clocks + TypeART
    /// tables. Feeds the Fig. 11 reproduction.
    pub fn tool_memory_bytes(&self) -> u64 {
        self.with_tsan(|t| t.memory_bytes()) + self.typeart.borrow().memory_bytes()
    }

    /// Name of a fiber (for diagnostics and tests).
    pub fn fiber_name(&self, f: FiberId) -> String {
        self.with_tsan(|t| t.fiber_name(f).to_string())
    }

    /// Shadow pages currently owned by the detector.
    pub fn shadow_pages(&self) -> usize {
        self.with_tsan(|t| t.shadow_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Flavor;
    use sim_mem::MemKind;

    #[test]
    fn host_access_annotates_only_when_tsan_on() {
        let space = AddressSpace::new();
        let p = space.alloc(MemKind::HostPageable, 64).unwrap();

        let off = ToolCtx::new(0, Flavor::Vanilla.config());
        off.host_write_at::<f64>(&space, p, 1.0, "w").unwrap();
        assert_eq!(off.tsan_stats().write_range_calls, 0);
        assert_eq!(off.event_counters().write_range_calls, 0);

        let on = ToolCtx::new(0, Flavor::Tsan.config());
        on.host_write_at::<f64>(&space, p, 2.0, "w").unwrap();
        let v: f64 = on.host_read_at(&space, p, "r").unwrap();
        assert_eq!(v, 2.0);
        let s = on.tsan_stats();
        assert_eq!(s.write_range_calls, 1);
        assert_eq!(s.read_range_calls, 1);
        assert_eq!(s.write_bytes, 8);
        // The event counters fold the same stream the checker applied.
        let c = on.event_counters();
        assert_eq!(c.write_range_calls, 1);
        assert_eq!(c.read_range_calls, 1);
        assert_eq!(c.write_bytes, 8);
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let space = AddressSpace::new();
        let p = space.alloc(MemKind::Managed, 64).unwrap();
        let ctx = ToolCtx::new(1, Flavor::Tsan.config());
        ctx.host_write_slice::<f64>(&space, p, &[1.0, 2.0, 3.0], "init")
            .unwrap();
        let v = ctx.host_read_slice::<f64>(&space, p, 3, "check").unwrap();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert_eq!(ctx.rank(), 1);
    }

    #[test]
    fn request_serials_are_unique() {
        let ctx = ToolCtx::new(0, Flavor::MustCusan.config());
        assert_eq!(ctx.next_request_serial(), 0);
        assert_eq!(ctx.next_request_serial(), 1);
        assert_eq!(ctx.next_request_serial(), 2);
    }

    #[test]
    fn tool_memory_nonzero_after_tracking() {
        let ctx = ToolCtx::new(0, Flavor::Cusan.config());
        ctx.annotate_host_write(Ptr(0x4000), 4096, "w");
        assert!(ctx.tool_memory_bytes() > 0);
    }

    #[test]
    fn emitted_fiber_events_drive_the_detector() {
        let ctx = ToolCtx::new(0, Flavor::Cusan.config());
        let f = ctx.emit_fiber_create("cuda stream 1");
        ctx.emit(CusanEvent::FiberSwitch {
            fiber: f,
            sync: true,
        });
        ctx.emit(CusanEvent::FiberSwitch {
            fiber: FiberId::HOST,
            sync: false,
        });
        assert_eq!(ctx.fiber_name(f), "cuda stream 1");
        assert_eq!(ctx.tsan_stats().fiber_switches, 2);
        let c = ctx.event_counters();
        assert_eq!(c.fiber_creates, 1);
        assert_eq!(c.fiber_switches, 2);
        assert_eq!(c.sync_switches, 1);
    }

    #[test]
    fn should_fault_is_silent_when_disabled() {
        let ctx = ToolCtx::new(0, Flavor::MustCusan.config());
        let before = ctx.tsan_stats();
        for _ in 0..1000 {
            assert!(!ctx.should_fault("cudaMalloc"));
        }
        assert_eq!(ctx.event_counters().api_faults, 0);
        assert_eq!(ctx.tsan_stats(), before);
    }

    #[test]
    fn should_fault_fires_deterministically_and_emits_events() {
        // Every third site fails: the decider is asked once per site, and
        // each fired site is one `ApiFault` numbered by its site.
        let run = || {
            let mut ctx = ToolCtx::new(0, Flavor::MustCusan.config());
            let asked = std::rc::Rc::new(Cell::new(0u64));
            let count = std::rc::Rc::clone(&asked);
            ctx.decide_faults(move || {
                count.set(count.get() + 1);
                count.get().is_multiple_of(3)
            });
            let fired: Vec<bool> = (0..500).map(|_| ctx.should_fault("cudaMemcpy")).collect();
            (fired, ctx.event_counters().api_faults, asked.get())
        };
        let (a, fa, asked) = run();
        let (b, fb, _) = run();
        assert_eq!((&a, fa), (&b, fb), "same decider, same faults");
        assert_eq!(asked, 500, "one ask per site");
        assert_eq!(fa, 166);
        assert_eq!(fa, a.iter().filter(|f| **f).count() as u64);
    }

    #[test]
    fn fault_events_leave_detector_untouched() {
        // The consistency-on-failure invariant at the ToolCtx level.
        let mut ctx = ToolCtx::new(0, Flavor::MustCusan.config());
        ctx.decide_faults(|| true); // every site fires
        let before = ctx.tsan_stats();
        let races = ctx.race_count();
        assert!(ctx.should_fault("MPI_Isend"));
        assert!(ctx.should_fault("cudaMalloc"));
        assert_eq!(ctx.tsan_stats(), before);
        assert_eq!(ctx.race_count(), races);
        assert_eq!(ctx.event_counters().api_faults, 2);
    }

    #[test]
    fn report_diagnostic_is_collected_and_counted() {
        let ctx = ToolCtx::new(0, Flavor::Vanilla.config());
        assert!(ctx.diagnostics().is_empty());
        ctx.report_diagnostic("device flush at teardown failed: boom");
        ctx.report_diagnostic(String::from("second"));
        assert_eq!(ctx.diagnostics().len(), 2);
        assert!(ctx.diagnostics()[0].contains("flush"));
        assert_eq!(ctx.event_counters().named("tool.diagnostics"), 2);
        // Diagnostics never touch detection state.
        assert_eq!(ctx.race_count(), 0);
    }

    #[test]
    fn fiber_create_ids_are_the_sessions_across_destroy_and_reuse() {
        // `emit_fiber_create` stamps the id the session's runtime will
        // assign; `CheckSession::apply` refuses — panics, for a live
        // producer — any FiberCreate where the two differ. Ids are dense
        // and a destroyed fiber's slot is reused LIFO.
        let ctx = ToolCtx::new(0, Flavor::Cusan.config());
        let a = ctx.emit_fiber_create("a");
        let b = ctx.emit_fiber_create("b");
        let c = ctx.emit_fiber_create("c");
        assert_eq!(
            [a, b, c].map(|f| f.index()),
            [1, 2, 3],
            "dense after the host fiber"
        );
        ctx.emit(CusanEvent::FiberDestroy { fiber: a });
        ctx.emit(CusanEvent::FiberDestroy { fiber: c });
        assert_eq!(ctx.emit_fiber_create("c2"), c, "last freed, first reused");
        assert_eq!(ctx.emit_fiber_create("a2"), a);
        assert_eq!(ctx.emit_fiber_create("d").index(), 4, "then fresh again");
        assert_eq!(ctx.fiber_name(a), "a2");
        assert_eq!(ctx.fiber_name(c), "c2");
        assert_eq!(ctx.event_counters().fiber_creates, 6);
    }

    #[test]
    fn a_removed_knob_warns_by_name() {
        let set = [
            "PATH",
            "CUSAN_CHECK_THREADS",
            "CUSAN_FAULTS",
            "CUSAN_BENCH_RUNS",
            "CUSAN_ASYNC_CHECK",
            "CUSAN_BARRIER_TIMEOUT_MS",
            "CUSAN_TRACE_FORMAT",
            "CUSAN_BENCH_RSS_BASELINE_MB",
        ];
        let lines = removed_knob_warnings(set);
        let names = &set[1..];
        assert_eq!(lines.len(), names.len(), "{lines:?}");
        for (line, name) in lines.iter().zip(names) {
            assert!(
                line.starts_with(&format!("warning: ignoring {name}: no longer read: ")),
                "{line:?}"
            );
            assert!(!line.contains('\n') && !line.contains("  "), "{line:?}");
        }
        assert!(lines[0].ends_with("`cusan-serve --check-threads` sizes the pool"));
        assert!(lines[1].ends_with("run under an `explore::FaultSchedule`"));
        assert!(lines[2].ends_with("pass `--small` or `--full`"));
        assert!(lines[4].ends_with("detected when every rank is blocked; there is no timeout"));
        assert!(lines[5].contains("`ToolConfig::record`"));
        assert!(lines[6].contains("measured bytes"));
        assert!(removed_knob_warnings(["CUSAN_BENCH", "CUSAN_NOT_A_KNOB", "PATH"]).is_empty());
        assert!(removed_knob_warnings([]).is_empty());
        for (name, _) in REMOVED_KNOBS {
            assert_eq!(removed_knob_warnings([name]).len(), 1, "{name}");
        }
    }
}
