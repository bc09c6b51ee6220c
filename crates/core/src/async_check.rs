//! The checker pool: `cusan-serve`'s hand-off from connection threads
//! to a shared, work-stealing set of checker workers, behind per-session
//! bounded SPSC rings.
//!
//! **One client.** Live instrumentation checks inline on the thread that
//! made the call, as the paper does (§IV: CuSan's callbacks annotate TSan
//! in-process) — [`crate::ToolCtx`] owns its [`CheckSession`] and applies
//! every event itself. The pool exists for the serve path only: a
//! connection thread decodes trace records, pushes each into its
//! session's bounded lock-free ring ([`rtrb`]), and the shared
//! [`CheckerPool`] drains the rings in batches, applying the events to
//! the session's [`CheckSession`] exactly as a solo replay would.
//!
//! **Sessions, not ranks.** The pool's unit of registration is a
//! [`CheckSession`], one per uploaded trace stream, so thousands of
//! independent replay sessions multiplex over the same workers. Nothing
//! in the pool assumes its sessions belong to one MPI world.
//!
//! **Pool, not thread-per-session.** Detection work is proportional to
//! the event backlog, not to the session count, so the pool sizes itself
//! from hardware: `min(active sessions, hardware threads − 1)` worker
//! threads by default (at least one), or the count the pool was built
//! with (`cusan-serve --check-threads`). Workers scan the registered
//! sessions round-robin and *steal whole batches* from whichever ring has
//! backlog.
//! Two invariants make stealing safe:
//!
//! 1. **Claim token** — each session's ring endpoint and batch buffer
//!    ([`Ingress`]) live behind a per-session mutex; a worker that wants
//!    the session's batch must take the claim, so at most one consumer
//!    exists at every instant and the SPSC contract holds across
//!    handoffs (see `compat/rtrb` on consumer handoff).
//! 2. **Apply-before-release** — a claimed batch is applied to its own
//!    session, under that session's lock, before the claim is released.
//!    Combined with FIFO pops this means every session's event stream is
//!    applied in exactly the order it was produced, no matter which
//!    workers end up carrying the batches.
//!
//! **Determinism is an invariant, not a best effort.** Per session, the
//! pool applies the same totally-ordered event stream an inline replay
//! would, through the same [`CheckSession::apply`], to an
//! identically-initialized session, and mirrors the producer's string
//! table via in-order `Msg::Intern` messages (dense ids are
//! allocation-order, so replaying the interns reproduces them). Hence
//! stats, race reports and counters are bit-for-bit identical to a solo
//! replay — for any worker count and any number of concurrent
//! sessions — and only wall-clock timing (plus the [`AsyncCheckStats`]
//! observability counters) may differ.
//!
//! Protocol details (the constants and counters carry the numbers):
//! * **The ring is two batches** ([`RING_CAPACITY`]): one being applied,
//!   one being filled. A producer that finds it full claims its own ring
//!   and applies a batch inline, like any worker would; only when the
//!   claim is held elsewhere — a worker is already applying this
//!   session's batch — does it wait. So a small ring cannot stall a
//!   connection thread, it only decides *who* applies, and the fixed
//!   hand-off per attached session is 12 KiB (`listen` admits 1024).
//! * **Batched doorbell** ([`DOORBELL_EVERY`]) — `send` wakes the pool
//!   once per chunk, not per message. A shorter tail is found by the
//!   workers' timed park or drained inline by `flush`, backpressure and
//!   `Drop`, which wake the pool unconditionally — ordering and the
//!   bit-for-bit contract never depend on the doorbell, it only moves
//!   *when* a batch is applied.
//! * **Workers linger** ([`LINGER_PARKS`]) so one served connection
//!   after another reuses its threads; the hardware-thread count behind
//!   [`effective_workers`] is read once per process.
//! * **Batches** — a drain pops whatever the ring holds, up to
//!   [`BATCH_MAX`] messages; `max_queue_depth` is ring occupancy at send
//!   time, never `sent − applied`.
//! * **Flush barrier** — [`AsyncChecker::flush`] returns only once every
//!   message sent so far has been applied; [`AsyncChecker::with_session`]
//!   and [`AsyncChecker::stats`] go through it.
//! * **Graceful shutdown** — dropping the checker drains the ring
//!   (helping inline if the pool is busy), unregisters the session, and
//!   re-raises the worker's panic, if any, on the dropping thread.
//! * **Poison, don't hang** — a panic while applying a session's batch
//!   is caught on the worker, the session is poisoned and its producer's
//!   `flush`/`send` fail fast; *other* sessions keep draining.
//! * **Refuse, don't panic** — an event the session's fiber table cannot
//!   accept ([`FiberEventError`]: the trace decodes but is inconsistent)
//!   is input, not a bug. The first one stops the session's drain through
//!   the same poison flag, is kept on the slot, and comes back as `Err`
//!   from every later `send_*`, `flush` and `with_session`; dropping the
//!   checker afterwards is quiet.
//! * All waits use short condvar timeouts (`PARK`): a missed wakeup
//!   costs one timeout period, never a deadlock.

use crate::event::{CusanEvent, FiberEventError};
use crate::session::CheckSession;
use parking_lot::{Condvar, Mutex};
use rtrb::{Consumer, Producer, PushError, RingBuffer};
use std::any::Any;
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest messages applied per session lock acquisition (bounds the
/// latency a flusher can see behind one claim).
pub const BATCH_MAX: usize = 256;

/// Ring capacity in messages: one batch being applied plus one being
/// filled. A connection thread that finds the ring full applies a batch
/// itself, so a larger ring buys no throughput (`serve-fanin`
/// `op_ms_p50` reads the same at 4096 slots), only resident memory per
/// attached session.
pub const RING_CAPACITY: usize = 2 * BATCH_MAX;
const _: () = assert!(RING_CAPACITY == 512);
// 12 KiB per attached session; `listen` admits 1024 of them by default.
const _: () = assert!(RING_CAPACITY * std::mem::size_of::<Msg>() <= 16 << 10);

/// Condvar timeout for all parks: bounds the cost of a lost wakeup, and
/// the latency of a tail shorter than [`DOORBELL_EVERY`].
const PARK: Duration = Duration::from_millis(1);

/// `send` wakes the pool once per this many messages: large enough that
/// the wake (a syscall plus, on a busy host, a context
/// switch) is amortised over a batch worth applying, small enough that a
/// woken worker finds the ring at an eighth of [`RING_CAPACITY`].
pub const DOORBELL_EVERY: u64 = 64;

/// Consecutive empty parks (≈ this many milliseconds) a worker the pool
/// no longer needs waits before exiting. Long enough to bridge the gap
/// between one served connection's last session and the next one's
/// first; short enough that an idle process holds no threads.
pub const LINGER_PARKS: u32 = 64;

/// Hardware threads available to this process, read once: the standard
/// library re-parses `/proc/self/cgroup` and the mount table on every
/// call, and [`effective_workers`] runs under the pool lock on every
/// worker scan.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count the pool converges to for a given number of active
/// sessions: an explicit count wins, otherwise one worker per session up
/// to hardware threads − 1 (always at least one so a 1-CPU host still
/// drains).
pub fn effective_workers(active_sessions: usize, explicit: Option<usize>) -> usize {
    if active_sessions == 0 {
        return 0;
    }
    if let Some(n) = explicit {
        return n.max(1);
    }
    active_sessions
        .min(hardware_threads().saturating_sub(1))
        .max(1)
}

/// Observability counters for one session's async checker.
/// Timing-dependent (stalls, depth, batch count) — deliberately
/// **not** part of the determinism contract, and surfaced separately
/// from [`tsan_rt::TsanStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncCheckStats {
    /// `CusanEvent`s pushed into the ring (excludes intern messages).
    pub events_enqueued: u64,
    /// Batches applied to this session (lock acquisitions), by any
    /// worker or by the producer helping inline.
    pub batches_applied: u64,
    /// Largest ring occupancy observed by the producer at send time, in
    /// messages. Bounded by [`RING_CAPACITY`] by construction.
    pub max_queue_depth: u64,
    /// Sends that found the ring full and had to drain it inline or wait
    /// for the worker holding the claim.
    pub stalls: u64,
    /// Wakes `send` issued to a parked worker: at most one per
    /// [`DOORBELL_EVERY`] messages.
    pub doorbells: u64,
}

/// One ring message. Intern messages replicate the producer's string
/// table in the session's mirror in id-allocation order, *before* any
/// event that references the new id. Labels travel as `Arc<str>` so the
/// serve path's shared cross-session table costs one refcount bump per
/// session, not one byte copy.
enum Msg {
    Intern(Arc<str>),
    Event(CusanEvent),
    /// A bug in the detector, on demand: the tests of the poison path
    /// need a batch that panics, and no input produces one.
    #[cfg(test)]
    Bug,
}

/// Ring-consumer state of one session, handed between workers under the
/// claim lock ([`SessionSlot::work`]). Exactly one thread touches this
/// at any instant. The session itself lives behind its own mutex on the
/// slot — the claim orders *who pops*, the session lock orders *who
/// applies*, and apply-before-release keeps the two aligned.
struct Ingress {
    rx: Consumer<Msg>,
    /// Reusable batch buffer.
    scratch: Vec<Msg>,
}

/// Everything the pool needs to check one registered session.
struct SessionSlot {
    /// Unique registration id (ranks collide across concurrent worlds —
    /// and serve clients choose their own — so this never does).
    id: u64,
    rank: usize,
    /// The session under check: detector runtime, mirror interner,
    /// apply path, counters.
    session: Arc<Mutex<CheckSession>>,
    /// The claim token: whoever holds this *is* the session's consumer.
    work: Mutex<Ingress>,
    /// Messages fully applied (published after the session lock is
    /// released, so a flusher that observes the count can immediately
    /// take the lock).
    applied: AtomicU64,
    /// The session no longer drains — a batch panicked, or met an event
    /// the session refused (`refused`); producer-side `flush`/`send` must
    /// fail fast instead of waiting forever.
    poisoned: AtomicBool,
    /// The event refusal that stopped the drain, if that is what did.
    /// Written before `poisoned` is set, read only after it is seen set.
    refused: Mutex<Option<FiberEventError>>,
    /// The first caught panic payload, re-raised when the session's
    /// [`AsyncChecker`] is dropped.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Consumer → producer progress signaling (ring space freed / batch
    /// applied / poison).
    progress: Mutex<()>,
    drain_cv: Condvar,
    /// Batches applied (Relaxed: a monotonic counter).
    batches: AtomicU64,
}

impl SessionSlot {
    /// Claim-holder only: apply whatever sits in `ing.scratch` to this
    /// slot's session, then publish progress. Progress (`applied`, the
    /// batch counters, the wakeup) is published only after the session
    /// lock is released, so a flush-then-lock reader never contends with
    /// the batch it just observed as applied. An event the session
    /// refuses ends the batch there — the rest of it is dropped and
    /// nothing is published, so `applied` stays short of `sent` for good.
    fn apply_scratch(&self, ing: &mut Ingress) -> Result<usize, FiberEventError> {
        let n = ing.scratch.len();
        if n == 0 {
            return Ok(0);
        }
        {
            let mut session = self.session.lock();
            for msg in ing.scratch.drain(..) {
                match msg {
                    Msg::Intern(label) => {
                        session.intern_shared(&label);
                    }
                    Msg::Event(ev) => session.try_apply(&ev)?,
                    #[cfg(test)]
                    Msg::Bug => panic!("injected detector bug"),
                }
            }
        }
        let n64 = n as u64;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.applied.fetch_add(n64, Ordering::Release);
        self.drain_cv.notify_all();
        Ok(n)
    }

    /// Claim-holder only: steal one batch — up to [`BATCH_MAX`] messages
    /// — off the ring and apply it. A panic inside the detector poisons
    /// the slot (storing the payload for the owner's drop) instead of
    /// killing the worker, and so does a refused event (storing the
    /// refusal for the owner's next call); `Err` means poisoned.
    fn drain_guarded(&self, ing: &mut Ingress) -> Result<usize, ()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(());
        }
        if ing.rx.pop_batch(&mut ing.scratch, BATCH_MAX) == 0 {
            return Ok(0);
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| self.apply_scratch(ing))) {
            Ok(Ok(n)) => return Ok(n),
            Ok(Err(refusal)) => *self.refused.lock() = Some(refusal),
            Err(payload) => {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        self.poisoned.store(true, Ordering::Release);
        self.drain_cv.notify_all();
        Err(())
    }
}

struct PoolState {
    slots: Vec<Arc<SessionSlot>>,
    /// Worker liveness by index. The pool grows by spawning the lowest
    /// dead index and shrinks from the top: a worker whose index is `>=`
    /// the desired count exits once it has also found nothing to do for
    /// [`LINGER_PARKS`] parks in a row.
    alive: Vec<bool>,
    handles: Vec<Option<JoinHandle<()>>>,
}

/// The shared detector-thread pool. There is no process-wide instance:
/// a serve engine (or a test) owns the pool its sessions register with,
/// which is also what isolates tenants.
pub struct CheckerPool {
    state: Mutex<PoolState>,
    /// Explicit worker count (`cusan-serve --check-threads`); `None`
    /// sizes the pool from hardware.
    check_threads: Option<usize>,
    /// Producers → workers: new work exists somewhere.
    work_cv: Condvar,
    /// Workers currently parked on `work_cv`; producers skip the notify
    /// syscall otherwise.
    idle: AtomicUsize,
    next_id: AtomicU64,
    /// Worker threads ever spawned (observability/tests).
    spawned: AtomicU64,
}

impl CheckerPool {
    /// A fresh, empty pool of `check_threads` workers (`None`: sized
    /// from hardware, see [`effective_workers`]). Workers are spawned
    /// lazily as sessions register and exit on their own once no session
    /// needs them.
    pub fn new(check_threads: Option<usize>) -> Arc<CheckerPool> {
        Arc::new(CheckerPool {
            state: Mutex::new(PoolState {
                slots: Vec::new(),
                alive: Vec::new(),
                handles: Vec::new(),
            }),
            check_threads,
            work_cv: Condvar::new(),
            idle: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            spawned: AtomicU64::new(0),
        })
    }

    /// Live worker threads right now (observability/tests).
    pub fn worker_count(&self) -> usize {
        self.state.lock().alive.iter().filter(|a| **a).count()
    }

    /// Registered sessions right now (observability/tests).
    pub fn session_count(&self) -> usize {
        self.state.lock().slots.len()
    }

    /// Worker threads spawned over the pool's life (observability/tests):
    /// stays flat while lingering workers are reused.
    pub fn workers_spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// The single notify helper every producer-side path funnels
    /// through (send's doorbell, backpressure, flush, drop): skip the
    /// syscall unless a worker is actually parked, and say whether one
    /// was woken. A raced `idle` read at worst delays a worker by one
    /// `PARK` timeout.
    fn kick(&self) -> bool {
        let parked = self.idle.load(Ordering::SeqCst) > 0;
        if parked {
            self.work_cv.notify_one();
        }
        parked
    }

    /// Worker count this pool wants for the current registration set.
    fn desired_locked(&self, st: &PoolState) -> usize {
        effective_workers(st.slots.len(), self.check_threads)
    }

    fn register(self: &Arc<Self>, slot: Arc<SessionSlot>) {
        let mut st = self.state.lock();
        st.slots.push(slot);
        let desired = self.desired_locked(&st);
        for index in 0..desired {
            if index >= st.alive.len() {
                st.alive.push(false);
                st.handles.push(None);
            }
            if !st.alive[index] {
                st.alive[index] = true;
                // Reap the previous incarnation's handle, if any, so
                // exited threads don't accumulate.
                if let Some(old) = st.handles[index].take() {
                    let _ = old.join();
                }
                let pool = Arc::clone(self);
                let handle = std::thread::Builder::new()
                    .name(format!("cusan-checker-{index}"))
                    .spawn(move || worker_loop(pool, index))
                    .expect("failed to spawn checker pool worker");
                st.handles[index] = Some(handle);
                self.spawned.fetch_add(1, Ordering::Relaxed);
            }
        }
        // No wake: the new session's ring is empty. A parked (lingering)
        // worker meets it at its next timed park or at the first
        // doorbell, whichever comes first.
    }

    fn unregister(&self, slot: &Arc<SessionSlot>) {
        // No wake: a worker this makes surplus notices at its next
        // timed park, and lingers anyway (see `LINGER_PARKS`).
        self.state.lock().slots.retain(|s| s.id != slot.id);
    }
}

fn worker_loop(pool: Arc<CheckerPool>, index: usize) {
    let mut rot = index;
    let mut empty_parks = 0u32;
    loop {
        // Exit check and slot snapshot under one lock: a worker decides
        // to die and clears its alive flag atomically with respect to
        // the spawn logic, so the pool never double-spawns an index.
        let slots = {
            let mut st = pool.state.lock();
            let desired = pool.desired_locked(&st);
            if index >= desired && empty_parks >= LINGER_PARKS {
                st.alive[index] = false;
                return;
            }
            st.slots.clone()
        };
        let mut applied = 0usize;
        let n = slots.len();
        for k in 0..n {
            let slot = &slots[(rot + k) % n];
            if slot.poisoned.load(Ordering::Acquire) {
                continue;
            }
            // Claim or skip: a session being drained by someone else (a
            // sibling worker or its own producer helping) needs no help.
            if let Some(mut ing) = slot.work.try_lock() {
                applied += slot.drain_guarded(&mut ing).unwrap_or(0);
            }
        }
        // Rotate the scan start so one chatty session can't starve
        // others.
        rot = rot.wrapping_add(1);
        // A parked worker must not pin the sessions it last scanned: one
        // that unregisters meanwhile is its owner's alone to free.
        drop(slots);
        if applied == 0 {
            let mut st = pool.state.lock();
            pool.idle.fetch_add(1, Ordering::SeqCst);
            pool.work_cv.wait_for(&mut st, PARK);
            pool.idle.fetch_sub(1, Ordering::SeqCst);
            empty_parks += 1;
        } else {
            empty_parks = 0;
        }
    }
}

struct ProducerSide {
    tx: Producer<Msg>,
    sent: u64,
    events_enqueued: u64,
    max_queue_depth: u64,
    stalls: u64,
    doorbells: u64,
}

/// Handle owned by the producing thread: the producer half of the ring
/// plus the session's registration in the shared pool. Not `Sync`; one
/// per session.
pub struct AsyncChecker {
    pool: Arc<CheckerPool>,
    slot: Arc<SessionSlot>,
    prod: RefCell<ProducerSide>,
}

impl AsyncChecker {
    /// Move `session` behind `pool`.
    pub fn with_pool(pool: Arc<CheckerPool>, session: CheckSession) -> Self {
        let (tx, rx) = RingBuffer::new(RING_CAPACITY);
        let rank = session.rank();
        let slot = Arc::new(SessionSlot {
            id: pool.next_id.fetch_add(1, Ordering::Relaxed),
            rank,
            session: Arc::new(Mutex::new(session)),
            work: Mutex::new(Ingress {
                rx,
                scratch: Vec::with_capacity(BATCH_MAX),
            }),
            applied: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            refused: Mutex::new(None),
            panic: Mutex::new(None),
            progress: Mutex::new(()),
            drain_cv: Condvar::new(),
            batches: AtomicU64::new(0),
        });
        pool.register(Arc::clone(&slot));
        AsyncChecker {
            pool,
            slot,
            prod: RefCell::new(ProducerSide {
                tx,
                sent: 0,
                events_enqueued: 0,
                max_queue_depth: 0,
                stalls: 0,
                doorbells: 0,
            }),
        }
    }

    /// Enqueue an event for the checker pool. `Err` once the session has
    /// refused an earlier event (see the module docs): nothing sent after
    /// the refused event is applied.
    pub fn send_event(&self, ev: CusanEvent) -> Result<(), FiberEventError> {
        self.send(Msg::Event(ev))
    }

    /// Mirror a freshly-interned label to the session's string table.
    /// Must be called in intern order, before any event using the new
    /// id. The bytes are shared — the serve path's cross-session table
    /// hands the same `Arc<str>` to every session, so mirroring costs a
    /// refcount bump instead of a copy. Fails like
    /// [`AsyncChecker::send_event`].
    pub fn send_intern_shared(&self, label: Arc<str>) -> Result<(), FiberEventError> {
        self.send(Msg::Intern(label))
    }

    /// `Ok` while the session drains. Once it has stopped: the refusal
    /// that stopped it, or — a batch panicked, which is a bug — a panic.
    fn still_draining(&self, what: &str) -> Result<(), FiberEventError> {
        if !self.slot.poisoned.load(Ordering::Acquire) {
            return Ok(());
        }
        if let Some(refusal) = *self.slot.refused.lock() {
            return Err(refusal);
        }
        panic!(
            "async checker pool: session for rank {} is poisoned by a worker panic; {what}",
            self.slot.rank
        );
    }

    /// Claim our own ring if it is free and apply one batch inline: the
    /// producer is allowed to become its session's consumer under
    /// backlog (same claim token as the workers, so the stealing safety
    /// argument is unchanged). Returns messages applied; 0 also when the
    /// claim is currently held elsewhere.
    fn try_help_drain(&self) -> usize {
        match self.slot.work.try_lock() {
            Some(mut ing) => self.slot.drain_guarded(&mut ing).unwrap_or(0),
            None => 0,
        }
    }

    fn send(&self, msg: Msg) -> Result<(), FiberEventError> {
        self.still_draining("cannot enqueue more events")?;
        let mut p = self.prod.borrow_mut();
        let is_event = matches!(msg, Msg::Event(_));
        let mut msg = msg;
        let mut stalled = false;
        loop {
            match p.tx.push(msg) {
                Ok(()) => break,
                Err(PushError::Full(back)) => {
                    msg = back;
                    if !stalled {
                        stalled = true;
                        p.stalls += 1;
                    }
                    self.still_draining("cannot enqueue more events")?;
                    // Prefer doing the work to waiting for it: on an
                    // oversubscribed host the backlogged producer is
                    // often the only runnable thread.
                    if self.try_help_drain() > 0 {
                        continue;
                    }
                    self.pool.kick();
                    let mut g = self.slot.progress.lock();
                    if p.tx.is_full() && !self.slot.poisoned.load(Ordering::Acquire) {
                        self.slot.drain_cv.wait_for(&mut g, PARK);
                    }
                }
            }
        }
        p.sent += 1;
        if is_event {
            p.events_enqueued += 1;
        }
        // Depth is ring occupancy, never `sent − applied`: occupancy is
        // physically capped at RING_CAPACITY, while `applied` lags popped
        // messages by up to a batch. The `max(1)` covers a consumer that
        // already popped our message between the push and this load — it
        // was in the ring for an instant either way.
        let depth = (p.tx.slots_used() as u64).max(1);
        if depth > p.max_queue_depth {
            p.max_queue_depth = depth;
        }
        // The doorbell: one wake per DOORBELL_EVERY messages. Whatever
        // is left behind it reaches a worker at its next timed park, or
        // is drained by `flush`/`Drop`, which kick unconditionally.
        if p.sent.is_multiple_of(DOORBELL_EVERY) && self.pool.kick() {
            p.doorbells += 1;
        }
        Ok(())
    }

    /// Barrier: returns once every message sent so far has been applied,
    /// helping to drain inline when the pool is busy elsewhere. `Err` if
    /// the session refused one of them. Panics (fails fast) if the
    /// session was poisoned by a worker panic — the original payload is
    /// re-raised when the `AsyncChecker` is dropped.
    pub fn flush(&self) -> Result<(), FiberEventError> {
        let sent = self.prod.borrow().sent;
        loop {
            if self.slot.applied.load(Ordering::Acquire) >= sent {
                return Ok(());
            }
            self.still_draining("events are lost, not merely late")?;
            if self.try_help_drain() > 0 {
                continue;
            }
            self.pool.kick();
            let mut g = self.slot.progress.lock();
            if self.slot.applied.load(Ordering::Acquire) < sent
                && !self.slot.poisoned.load(Ordering::Acquire)
            {
                self.slot.drain_cv.wait_for(&mut g, PARK);
            }
        }
    }

    /// Flush, then run `f` on the (drained) session.
    pub fn with_session<R>(
        &self,
        f: impl FnOnce(&mut CheckSession) -> R,
    ) -> Result<R, FiberEventError> {
        self.flush()?;
        let mut session = self.slot.session.lock();
        Ok(f(&mut session))
    }

    /// The shared handle to the session under check. The serve path
    /// keeps it across the checker's drop — which drains the ring and
    /// leaves the pool — to take the finished session out of it and
    /// consume it into its summary. Lock discipline: the pool's workers
    /// take this lock only while holding the claim, so briefly locking
    /// it from outside never reorders events — but holding it starves
    /// the drain, so don't.
    pub fn session_handle(&self) -> Arc<Mutex<CheckSession>> {
        Arc::clone(&self.slot.session)
    }

    /// Snapshot of the observability counters. Flushes first, like every
    /// stat/report accessor, so the batch counters cover the final
    /// partial batch too. (An earlier version skipped the barrier here
    /// and could undercount `batches_applied` at outcome collection.) A
    /// session that refused an event reports the batches before it.
    pub fn stats(&self) -> AsyncCheckStats {
        let _ = self.flush();
        let p = self.prod.borrow();
        AsyncCheckStats {
            events_enqueued: p.events_enqueued,
            batches_applied: self.slot.batches.load(Ordering::Relaxed),
            max_queue_depth: p.max_queue_depth,
            stalls: p.stalls,
            doorbells: p.doorbells,
        }
    }
}

impl Drop for AsyncChecker {
    fn drop(&mut self) {
        // Drain everything still queued (graceful shutdown), helping
        // inline so the drop cannot outwait a busy pool. A poisoned
        // session stops draining — its remaining events are acknowledged
        // lost and the panic payload, if a panic is what poisoned it, is
        // re-raised below.
        let sent = self.prod.get_mut().sent;
        while !self.slot.poisoned.load(Ordering::Acquire)
            && self.slot.applied.load(Ordering::Acquire) < sent
        {
            if self.try_help_drain() == 0 {
                self.pool.kick();
                let mut g = self.slot.progress.lock();
                if self.slot.applied.load(Ordering::Acquire) < sent
                    && !self.slot.poisoned.load(Ordering::Acquire)
                {
                    self.slot.drain_cv.wait_for(&mut g, PARK);
                }
            }
        }
        self.pool.unregister(&self.slot);
        if let Some(payload) = self.slot.panic.lock().take() {
            // Re-raise the checker's panic on the producing thread —
            // unless we are already unwinding (double panic would
            // abort).
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CtxInterner, StrId};
    use tsan_rt::{FiberId, TsanRuntime};

    fn session() -> CheckSession {
        CheckSession::from_runtime(0, TsanRuntime::new("host"))
    }

    fn event_stream(n: u64) -> (CtxInterner, Vec<CusanEvent>) {
        let mut strings = CtxInterner::new();
        let name = strings.intern("stream 1");
        let ctx = strings.intern("kernel write");
        let mut evs = vec![CusanEvent::FiberCreate {
            fiber: FiberId::from_index(1),
            name,
        }];
        for i in 0..n {
            evs.push(CusanEvent::FiberSwitch {
                fiber: FiberId::from_index(1),
                sync: true,
            });
            evs.push(CusanEvent::WriteRange {
                addr: 0x1000 + i * 8,
                len: 8,
                ctx,
            });
            evs.push(CusanEvent::FiberSwitch {
                fiber: FiberId::HOST,
                sync: false,
            });
        }
        (strings, evs)
    }

    fn run_sync(strings: &CtxInterner, evs: &[CusanEvent]) -> tsan_rt::TsanStats {
        let mut s = session();
        for i in 0..strings.len() {
            s.intern(strings.label(StrId(i as u32)));
        }
        for ev in evs {
            s.try_apply(ev).unwrap();
        }
        s.runtime().stats()
    }

    /// A session on a private pool, the way the serve engine builds one.
    fn pooled(check_threads: Option<usize>) -> AsyncChecker {
        AsyncChecker::with_pool(CheckerPool::new(check_threads), session())
    }

    fn send_intern(ac: &AsyncChecker, label: &str) {
        ac.send_intern_shared(Arc::from(label)).unwrap();
    }

    fn feed(ac: &AsyncChecker, strings: &CtxInterner, evs: &[CusanEvent]) {
        for i in 0..strings.len() {
            send_intern(ac, strings.label(StrId(i as u32)));
        }
        for ev in evs {
            ac.send_event(*ev).unwrap();
        }
    }

    fn tsan_stats(ac: &AsyncChecker) -> tsan_rt::TsanStats {
        ac.with_session(|s| s.runtime().stats()).unwrap()
    }

    fn run_async(
        strings: &CtxInterner,
        evs: &[CusanEvent],
    ) -> (tsan_rt::TsanStats, AsyncCheckStats) {
        let ac = pooled(None);
        feed(&ac, strings, evs);
        (tsan_stats(&ac), ac.stats())
    }

    #[test]
    fn async_matches_sync_bit_for_bit() {
        let (strings, evs) = event_stream(500);
        let sync_stats = run_sync(&strings, &evs);
        let (async_stats, ac) = run_async(&strings, &evs);
        assert_eq!(sync_stats, async_stats);
        assert_eq!(ac.events_enqueued, evs.len() as u64);
        assert!(ac.batches_applied >= 1);
        assert!(ac.max_queue_depth >= 1);
    }

    #[test]
    fn flush_is_a_barrier() {
        let (strings, evs) = event_stream(2000);
        let ac = pooled(None);
        feed(&ac, &strings, &evs);
        ac.flush().unwrap();
        // After flush, the applied count covers everything sent; the
        // runtime must already reflect the full stream without further
        // waiting.
        assert_eq!(tsan_stats(&ac).fiber_switches, 4000);
    }

    #[test]
    fn session_folds_counters_and_mirrors_strings() {
        // The pool drives CheckSession::apply, so the session-side
        // counters and mirror interner match what the producer fed —
        // the serve path reads summaries from exactly this state.
        let (strings, evs) = event_stream(100);
        let ac = pooled(None);
        feed(&ac, &strings, &evs);
        let (counters, mirrored, shared) = ac
            .with_session(|s| {
                (
                    s.counters().clone(),
                    s.strings().len(),
                    s.strings().shared_label(StrId(0)),
                )
            })
            .unwrap();
        assert_eq!(counters.write_range_calls, 100);
        assert_eq!(counters.fiber_switches, 200);
        assert_eq!(mirrored, strings.len());
        assert_eq!(shared.as_deref(), Some("stream 1"));
    }

    #[test]
    fn send_intern_shared_reuses_the_allocation() {
        let ac = pooled(None);
        let label: Arc<str> = Arc::from("kernel write");
        ac.send_intern_shared(Arc::clone(&label)).unwrap();
        let mirrored = ac
            .with_session(|s| s.strings().shared_label(StrId(0)).unwrap())
            .unwrap();
        assert!(
            Arc::ptr_eq(&label, &mirrored),
            "the mirror must share the sender's allocation"
        );
    }

    #[test]
    fn backpressure_bounds_queue_depth() {
        // More messages than the ring holds: the producer must block (not
        // fail, not drop) and depth — measured as ring occupancy — can
        // never exceed capacity.
        let (strings, evs) = event_stream(4 * RING_CAPACITY as u64);
        let (stats, ac) = run_async(&strings, &evs);
        assert_eq!(stats.write_range_calls, 4 * RING_CAPACITY as u64);
        assert!(ac.max_queue_depth <= RING_CAPACITY as u64);
        assert_eq!(ac.events_enqueued, evs.len() as u64);
    }

    #[test]
    fn producer_outrunning_a_parked_pool_applies_its_own_batches() {
        // The case a two-batch ring makes common: the only worker is not
        // running (held at the pool lock, which every scan and park
        // re-takes) while the producer sends 20 rings' worth. A full
        // ring turns the producer into the applier; the result is sync's.
        let (strings, evs) = event_stream(20 * RING_CAPACITY as u64 / 3 + 1);
        assert!(evs.len() >= 20 * RING_CAPACITY);
        let pool = CheckerPool::new(Some(1));
        let ac = AsyncChecker::with_pool(Arc::clone(&pool), session());
        {
            let _parked = pool.state.lock();
            feed(&ac, &strings, &evs);
            // The worker got at most the scan it was in when the lock
            // was taken: one batch of this session.
            let inline = ac.slot.batches.load(Ordering::Relaxed).saturating_sub(1);
            assert!(inline >= 1, "the producer did not help");
            let applied = ac.slot.applied.load(Ordering::Acquire) as usize;
            assert!(applied + RING_CAPACITY + BATCH_MAX >= strings.len() + evs.len());
        }
        assert_eq!(tsan_stats(&ac), run_sync(&strings, &evs));
        let stats = ac.stats();
        assert!(stats.stalls >= 1, "the ring must have filled");
        assert!(stats.max_queue_depth <= RING_CAPACITY as u64);
        assert_eq!(stats.events_enqueued, evs.len() as u64);
    }

    #[test]
    fn queue_depth_counts_ring_occupancy_not_applied_lag() {
        // Regression for the depth accounting bug: the consumer pops
        // messages off the ring (freeing slots for the producer) before
        // bumping `applied`, so the old `sent − applied` depth could
        // transiently exceed RING_CAPACITY by up to a batch. This test
        // manufactures that exact window deterministically: park 64
        // popped-but-unapplied messages, refill the ring to the brim,
        // and check the reported high-water mark. Occupancy-based depth
        // reads RING_CAPACITY; `sent − applied` would read
        // RING_CAPACITY + 64 and fail the assert.
        let ac = pooled(Some(1));
        let mut strings = CtxInterner::new();
        let ctx = strings.intern("w");
        send_intern(&ac, "w");
        ac.flush().unwrap();
        {
            // Hold the claim: no worker can drain while we simulate the
            // in-flight window.
            let mut ing = ac.slot.work.lock();
            for i in 0..64u64 {
                ac.send_event(CusanEvent::WriteRange {
                    addr: 0x1000 + i * 8,
                    len: 8,
                    ctx,
                })
                .unwrap();
            }
            let mut parked = Vec::new();
            assert_eq!(ing.rx.pop_batch(&mut parked, 64), 64);
            ing.scratch.append(&mut parked);
            for i in 0..RING_CAPACITY as u64 {
                ac.send_event(CusanEvent::WriteRange {
                    addr: 0x20_0000 + i * 8,
                    len: 8,
                    ctx,
                })
                .unwrap();
            }
            assert_eq!(
                ac.prod.borrow().max_queue_depth,
                RING_CAPACITY as u64,
                "depth must be ring occupancy, not sent − applied"
            );
            // Apply the parked prefix in order so the stream stays
            // complete, then let the pool finish the rest.
            let mut ing2 = ing;
            ac.slot.apply_scratch(&mut ing2).unwrap();
        }
        let stats = ac.stats();
        assert_eq!(stats.events_enqueued, 64 + RING_CAPACITY as u64);
        assert!(stats.max_queue_depth <= RING_CAPACITY as u64);
        assert_eq!(tsan_stats(&ac).write_range_calls, 64 + RING_CAPACITY as u64);
    }

    #[test]
    fn stats_flushes_before_reporting() {
        // Regression for the stats accounting bug: `stats()` read
        // `batches_applied` without the flush barrier, so outcome
        // collection could undercount the final partial batch. The
        // documented contract is that *every* stat/report accessor goes
        // through the barrier.
        let ac = pooled(Some(1));
        let (strings, evs) = event_stream(3);
        feed(&ac, &strings, &evs);
        let s = ac.stats(); // no explicit flush() before this
        assert_eq!(
            ac.slot.applied.load(Ordering::Acquire),
            ac.prod.borrow().sent,
            "stats() must flush before reading the batch counters"
        );
        assert!(s.batches_applied >= 1, "the partial batch must be counted");
    }

    #[test]
    fn adaptive_batches_stay_within_bounds() {
        let (strings, evs) = event_stream(2000);
        let (_, ac) = run_async(&strings, &evs);
        // No batch exceeds BATCH_MAX messages, so 2000 events (plus their
        // interns) cannot fit in fewer batches than this.
        assert!(ac.batches_applied * BATCH_MAX as u64 >= ac.events_enqueued);
    }

    #[test]
    fn stealing_two_sessions_one_worker_is_deterministic() {
        // One worker serves two rings: every batch of the second ring is
        // work that a per-session-thread design would have pinned to a
        // dedicated thread. Both sessions must still match the sync
        // result bit for bit.
        let (strings, evs) = event_stream(800);
        let expected = run_sync(&strings, &evs);
        let pool = CheckerPool::new(Some(1));
        let a = AsyncChecker::with_pool(Arc::clone(&pool), session());
        let b = AsyncChecker::with_pool(
            Arc::clone(&pool),
            CheckSession::from_runtime(1, TsanRuntime::new("host")),
        );
        assert_eq!(pool.worker_count(), 1);
        // Interleave the producers so both rings hold work at once.
        for i in 0..strings.len() {
            send_intern(&a, strings.label(StrId(i as u32)));
            send_intern(&b, strings.label(StrId(i as u32)));
        }
        for ev in &evs {
            a.send_event(*ev).unwrap();
            b.send_event(*ev).unwrap();
        }
        assert_eq!(tsan_stats(&a), expected);
        assert_eq!(tsan_stats(&b), expected);
    }

    #[test]
    fn stealing_four_sessions_two_workers_is_deterministic() {
        let (strings, evs) = event_stream(400);
        let expected = run_sync(&strings, &evs);
        let pool = CheckerPool::new(Some(2));
        let acs: Vec<AsyncChecker> = (0..4)
            .map(|r| {
                AsyncChecker::with_pool(
                    Arc::clone(&pool),
                    CheckSession::from_runtime(r, TsanRuntime::new("host")),
                )
            })
            .collect();
        assert_eq!(pool.worker_count(), 2);
        assert_eq!(pool.session_count(), 4);
        for i in 0..strings.len() {
            for ac in &acs {
                send_intern(ac, strings.label(StrId(i as u32)));
            }
        }
        for ev in &evs {
            for ac in &acs {
                ac.send_event(*ev).unwrap();
            }
        }
        for ac in &acs {
            assert_eq!(tsan_stats(ac), expected);
            let s = ac.stats();
            assert!(s.batches_applied >= 1);
        }
    }

    #[test]
    fn worker_panic_poisons_only_its_session() {
        // A detector bug while applying session 0's batch must (a) fail
        // session 0's flush fast instead of hanging it, (b) leave the
        // worker alive to keep draining session 1, and (c) re-raise the
        // original payload when session 0's handle is dropped.
        let pool = CheckerPool::new(Some(1));
        let bad = AsyncChecker::with_pool(Arc::clone(&pool), session());
        let good = AsyncChecker::with_pool(
            Arc::clone(&pool),
            CheckSession::from_runtime(1, TsanRuntime::new("host")),
        );
        bad.send(Msg::Bug).unwrap();
        let flushed = std::panic::catch_unwind(AssertUnwindSafe(|| bad.flush()));
        let payload = flushed.expect_err("poisoned flush must fail fast");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("poisoned"), "fail-fast message, got: {msg}");

        // The surviving session drains normally on the shared worker.
        let (strings, evs) = event_stream(50);
        feed(&good, &strings, &evs);
        assert_eq!(tsan_stats(&good).write_range_calls, 50);

        // Dropping the poisoned session re-raises the original panic.
        let dropped = std::panic::catch_unwind(AssertUnwindSafe(move || drop(bad)));
        let payload = dropped.expect_err("drop must re-raise the worker panic");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            text.contains("injected detector bug"),
            "original payload, got: {text}"
        );
        drop(good); // clean shutdown for the healthy session
        assert_eq!(pool.session_count(), 0);
    }

    #[test]
    fn drop_drains_outstanding_events() {
        let writes = {
            let ac = pooled(None);
            let (strings, evs) = event_stream(100);
            feed(&ac, &strings, &evs);
            // No flush: drop must still apply everything (graceful
            // shutdown drains the ring before unregistering). The
            // session handle outlives the checker — the serve path
            // relies on exactly this to summarize finished sessions.
            let handle = ac.session_handle();
            drop(ac);
            let n = handle.lock().runtime().stats().write_range_calls;
            n
        };
        assert_eq!(writes, 100);
    }

    #[test]
    fn pool_workers_exit_when_no_sessions_remain() {
        let pool = CheckerPool::new(Some(2));
        {
            let ac = AsyncChecker::with_pool(Arc::clone(&pool), session());
            let (strings, evs) = event_stream(10);
            feed(&ac, &strings, &evs);
            ac.flush().unwrap();
            assert_eq!(pool.worker_count(), 2);
        }
        assert_eq!(pool.session_count(), 0);
        // Workers notice the empty registration set and exit once the
        // linger (LINGER_PARKS parks) runs out.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.worker_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(PARK);
        }
        assert_eq!(pool.worker_count(), 0, "idle workers must exit");
    }

    #[test]
    fn doorbell_rings_once_per_chunk_not_per_message() {
        // A count, not a timing: however the worker and the producer
        // interleave, `send` may wake the pool at most once per
        // DOORBELL_EVERY messages — and the result is still sync's.
        let (strings, evs) = event_stream(3333);
        let sends = (strings.len() + evs.len()) as u64;
        assert_eq!(sends, 10_002);
        let ac = pooled(Some(1));
        feed(&ac, &strings, &evs);
        assert_eq!(tsan_stats(&ac), run_sync(&strings, &evs));
        let stats = ac.stats();
        assert_eq!(stats.events_enqueued, evs.len() as u64);
        assert!(
            stats.doorbells <= sends / DOORBELL_EVERY + 1,
            "{} wakes for {sends} sends",
            stats.doorbells
        );
    }

    #[test]
    fn tail_below_the_doorbell_is_applied_by_the_timed_park() {
        // Ten sends never reach the doorbell, and nothing here flushes:
        // the worker's timed park alone must find them. Observed through
        // the session handle, because every accessor on the checker is a
        // flush barrier (and would drain the ring itself). The deadline
        // bounds liveness, not latency — a park is 1 ms.
        let ac = pooled(Some(1));
        let mut strings = CtxInterner::new();
        let ctx = strings.intern("w");
        send_intern(&ac, "w");
        for i in 0..9u64 {
            ac.send_event(CusanEvent::WriteRange {
                addr: 0x1000 + i * 8,
                len: 8,
                ctx,
            })
            .unwrap();
        }
        assert_eq!(ac.prod.borrow().doorbells, 0);
        let handle = ac.session_handle();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.lock().runtime().stats().write_range_calls < 9
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(PARK);
        }
        assert_eq!(handle.lock().runtime().stats().write_range_calls, 9);
    }

    #[test]
    fn back_to_back_sessions_reuse_the_lingering_worker() {
        // The served pattern: one session after another on a pool that
        // drains to zero in between. The worker outlives the gaps, and
        // still exits once the pool stays empty.
        let pool = CheckerPool::new(Some(1));
        let (strings, evs) = event_stream(10);
        let expected = run_sync(&strings, &evs);
        for _ in 0..32 {
            let ac = AsyncChecker::with_pool(Arc::clone(&pool), session());
            feed(&ac, &strings, &evs);
            assert_eq!(tsan_stats(&ac), expected);
        }
        assert_eq!(pool.session_count(), 0);
        assert!(
            pool.workers_spawned() <= 2,
            "{} spawns for 32 back-to-back sessions",
            pool.workers_spawned()
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.worker_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(PARK);
        }
        assert_eq!(pool.worker_count(), 0, "the linger is bounded");
    }

    #[test]
    #[should_panic(expected = "injected detector bug")]
    fn consumer_panic_propagates_on_drop() {
        let ac = pooled(None);
        ac.send(Msg::Bug).unwrap();
        drop(ac); // re-raises the pool worker's panic on this thread
    }

    #[test]
    fn a_refused_event_comes_back_as_err_not_as_a_panic() {
        // Input, not a bug: the session's fiber table cannot accept
        // `fs 7`. The refusal stops this session's drain, is reported by
        // every later call, and leaves the worker and its neighbour
        // alone; the drop is quiet.
        let pool = CheckerPool::new(Some(1));
        let bad = AsyncChecker::with_pool(Arc::clone(&pool), session());
        let good = AsyncChecker::with_pool(
            Arc::clone(&pool),
            CheckSession::from_runtime(1, TsanRuntime::new("host")),
        );
        let (strings, evs) = event_stream(50);
        feed(&bad, &strings, &evs);
        let dead = FiberId::from_index(7);
        // The send itself may or may not see it yet; the barrier must.
        let _ = bad.send_event(CusanEvent::FiberSwitch {
            fiber: dead,
            sync: false,
        });
        let refusal = FiberEventError::SwitchToDead(dead);
        assert_eq!(bad.flush(), Err(refusal));
        assert_eq!(bad.send_event(evs[1]), Err(refusal));
        assert_eq!(bad.send_intern_shared(Arc::from("late")), Err(refusal));
        assert_eq!(bad.with_session(|_| ()), Err(refusal));
        // Everything before the refused event was applied, nothing after.
        let handle = bad.session_handle();
        assert_eq!(handle.lock().runtime().stats(), run_sync(&strings, &evs));
        assert_eq!(bad.stats().events_enqueued, evs.len() as u64 + 1);

        feed(&good, &strings, &evs);
        assert_eq!(tsan_stats(&good), run_sync(&strings, &evs));
        drop(bad);
        drop(good);
        assert_eq!(pool.session_count(), 0);
    }

    #[test]
    fn effective_workers_formula() {
        assert_eq!(effective_workers(0, None), 0);
        assert_eq!(effective_workers(0, Some(8)), 0);
        assert_eq!(effective_workers(3, Some(2)), 2);
        assert_eq!(effective_workers(1, Some(0)), 1, "explicit 0 clamps to 1");
        let par = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let auto = effective_workers(4, None);
        assert!(auto >= 1 && auto <= 4.min(par.saturating_sub(1)).max(1));
    }
}
