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
//!
//! **One invariant makes stealing safe: the session lock.** Each
//! session's ring consumer, batch buffer and [`CheckSession`] live
//! behind one per-session mutex, and whoever holds it pops a batch and
//! applies it before releasing. So at most one consumer exists at every
//! instant — the SPSC contract holds across handoffs (see `compat/rtrb`
//! on consumer handoff) — and, with FIFO pops, every session's event
//! stream is applied in exactly the order it was produced, no matter
//! which workers end up carrying the batches.
//!
//! **Determinism is an invariant, not a best effort.** Per session, the
//! pool applies the same totally-ordered event stream an inline replay
//! would, through the same [`CheckSession::try_apply`], to an
//! identically-initialized session, and mirrors the producer's string
//! table via in-order `Msg::Intern` messages (dense ids are
//! allocation-order, so replaying the interns reproduces them). Hence
//! stats, race reports and counters are bit-for-bit identical to a solo
//! replay — for any worker count and any number of concurrent
//! sessions — and only wall-clock timing may differ.
//!
//! **One owner.** The session is the [`AsyncChecker`]'s: the pool
//! applies batches to it in place, and [`AsyncChecker::finish`] (or the
//! checker's drop) takes it out of the slot once the ring is drained. A
//! worker that is mid-scan over a slot list taken before the checker
//! left keeps only the slot's ring, never the detector state.
//!
//! Protocol details (the constants carry the numbers):
//! * **The ring is two batches** (`RING_CAPACITY`): one being applied,
//!   one being filled. A producer that finds it full takes its own
//!   session lock and applies a batch inline, like any worker would;
//!   only when the lock is held elsewhere — a worker is already applying
//!   this session's batch — does it wait. So a small ring cannot stall a
//!   connection thread, it only decides *who* applies, and the fixed
//!   hand-off per attached session is 12 KiB (`listen` admits 1024).
//! * **Batched doorbell** (`DOORBELL_EVERY`) — `send` wakes the pool
//!   once per chunk, not per message. A shorter tail is found by the
//!   workers' timed park or drained inline by the flush barrier,
//!   backpressure and `Drop`, which wake the pool unconditionally —
//!   ordering and the bit-for-bit contract never depend on the doorbell,
//!   it only moves *when* a batch is applied.
//! * **Workers linger** (`LINGER_PARKS`) so one served connection
//!   after another reuses its threads; the hardware-thread count behind
//!   the sizing formula is read once per process.
//! * **Batches** — a drain pops whatever the ring holds, up to
//!   `BATCH_MAX` messages.
//! * **Flush barrier** — [`AsyncChecker::with_session`] and
//!   [`AsyncChecker::finish`] return only once every message sent so far
//!   has been applied.
//! * **Graceful shutdown** — dropping the checker drains the ring
//!   (helping inline if the pool is busy), frees the session, unregisters
//!   it, and re-raises the worker's panic, if any, on the dropping thread.
//! * **Poison, don't hang** — a panic while applying a session's batch
//!   is caught on the worker, the session is poisoned and its producer's
//!   barrier/`send` fail fast; *other* sessions keep draining.
//! * **Refuse, don't panic** — an event the session's fiber table cannot
//!   accept ([`FiberEventError`]: the trace decodes but is inconsistent)
//!   is input, not a bug. The first one stops the session's drain through
//!   the same poison flag, is kept on the slot, and comes back as `Err`
//!   from every later `send_*`, `with_session` and `finish`; dropping the
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
/// latency a flusher can see behind one batch).
const BATCH_MAX: usize = 256;

/// Ring capacity in messages: one batch being applied plus one being
/// filled. A connection thread that finds the ring full applies a batch
/// itself, so a larger ring buys no throughput (`serve-fanin`
/// `op_ms_p50` reads the same at 4096 slots), only resident memory per
/// attached session.
const RING_CAPACITY: usize = 2 * BATCH_MAX;
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
const DOORBELL_EVERY: u64 = 64;

/// Consecutive empty parks (≈ this many milliseconds) a worker the pool
/// no longer needs waits before exiting. Long enough to bridge the gap
/// between one served connection's last session and the next one's
/// first; short enough that an idle process holds no threads.
const LINGER_PARKS: u32 = 64;

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
fn effective_workers(active_sessions: usize, explicit: Option<usize>) -> usize {
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

/// Everything behind one session's lock ([`SessionSlot::consumer`]):
/// exactly one thread touches it at any instant.
struct Drain {
    rx: Consumer<Msg>,
    /// Reusable batch buffer.
    scratch: Vec<Msg>,
    /// The session under check: detector runtime, mirror interner,
    /// apply path, counters. `None` once its checker took it out.
    session: Option<CheckSession>,
}

impl Drain {
    /// Apply whatever sits in `scratch` to the session. An event the
    /// session refuses ends the batch there — the rest of it is dropped.
    fn apply_scratch(&mut self) -> Result<usize, FiberEventError> {
        let n = self.scratch.len();
        let session = self
            .session
            .as_mut()
            .expect("a session with queued messages is still in its slot");
        for msg in self.scratch.drain(..) {
            match msg {
                Msg::Intern(label) => {
                    session.intern_shared(&label);
                }
                Msg::Event(ev) => session.try_apply(&ev)?,
                #[cfg(test)]
                Msg::Bug => panic!("injected detector bug"),
            }
        }
        Ok(n)
    }
}

/// Everything the pool needs to check one registered session.
struct SessionSlot {
    /// Unique registration id (ranks collide across concurrent worlds —
    /// and serve clients choose their own — so this never does).
    id: u64,
    /// The session lock: whoever holds it *is* the session's consumer,
    /// and applies what it pops before releasing.
    consumer: Mutex<Drain>,
    /// Messages fully applied (published after the session lock is
    /// released, so a flusher that observes the count can immediately
    /// take the lock).
    applied: AtomicU64,
    /// The session no longer drains — a batch panicked, or met an event
    /// the session refused (`refused`); the producer's barrier and `send`
    /// must fail fast instead of waiting forever. Set under the session
    /// lock, so the next holder sees it before popping.
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
}

impl SessionSlot {
    /// Take the session lock if it is free, pop one batch — up to
    /// [`BATCH_MAX`] messages — and apply it before releasing. Returns
    /// the messages applied: 0 also when the lock is held elsewhere (that
    /// holder is draining), the ring is empty or the session is poisoned.
    /// A panic inside the detector poisons the slot (storing the payload
    /// for the owner's drop) instead of killing the caller, and so does a
    /// refused event (storing the refusal for the owner's next call).
    fn try_drain(&self) -> usize {
        let Some(mut consumer) = self.consumer.try_lock() else {
            return 0;
        };
        if self.poisoned.load(Ordering::Acquire) {
            return 0;
        }
        let c = &mut *consumer;
        if c.rx.pop_batch(&mut c.scratch, BATCH_MAX) == 0 {
            return 0;
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| c.apply_scratch())) {
            Ok(Ok(n)) => {
                drop(consumer);
                self.applied.fetch_add(n as u64, Ordering::Release);
                self.drain_cv.notify_all();
                return n;
            }
            Ok(Err(refusal)) => *self.refused.lock() = Some(refusal),
            Err(payload) => {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        self.poisoned.store(true, Ordering::Release);
        drop(consumer);
        self.drain_cv.notify_all();
        0
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
    /// Worker threads ever spawned: what the worker-reuse test counts.
    #[cfg(test)]
    spawned: AtomicU64,
}

impl CheckerPool {
    /// A fresh, empty pool of `check_threads` workers (`None`: one per
    /// registered session up to hardware threads − 1, at least one).
    /// Workers are spawned lazily as sessions register and exit on their
    /// own once no session needs them.
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
            #[cfg(test)]
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

    /// Worker threads spawned over the pool's life: stays flat while
    /// lingering workers are reused.
    #[cfg(test)]
    fn workers_spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// The single notify helper every producer-side path funnels
    /// through (send's doorbell, backpressure, the barrier, drop): skip
    /// the syscall unless a worker is actually parked, and say whether one
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
                #[cfg(test)]
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
        // A session being drained by someone else (a sibling worker or
        // its own producer helping) needs no help: `try_drain` skips it.
        let n = slots.len();
        let applied: usize = (0..n).map(|k| slots[(rot + k) % n].try_drain()).sum();
        // Rotate the scan start so one chatty session can't starve
        // others.
        rot = rot.wrapping_add(1);
        // A parked worker must not pin the rings it last scanned.
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
    /// Wakes `send` issued to a parked worker: at most one per
    /// [`DOORBELL_EVERY`] messages.
    #[cfg(test)]
    doorbells: u64,
}

/// Handle owned by the producing thread: the producer half of the ring,
/// the session's registration in the shared pool, and — through the
/// slot — the session itself. Not `Sync`; one per session.
pub struct AsyncChecker {
    pool: Arc<CheckerPool>,
    slot: Arc<SessionSlot>,
    prod: RefCell<ProducerSide>,
}

impl AsyncChecker {
    /// Move `session` behind `pool`.
    pub fn with_pool(pool: Arc<CheckerPool>, session: CheckSession) -> Self {
        let (tx, rx) = RingBuffer::new(RING_CAPACITY);
        let slot = Arc::new(SessionSlot {
            id: pool.next_id.fetch_add(1, Ordering::Relaxed),
            consumer: Mutex::new(Drain {
                rx,
                scratch: Vec::with_capacity(BATCH_MAX),
                session: Some(session),
            }),
            applied: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            refused: Mutex::new(None),
            panic: Mutex::new(None),
            progress: Mutex::new(()),
            drain_cv: Condvar::new(),
        });
        pool.register(Arc::clone(&slot));
        AsyncChecker {
            pool,
            slot,
            prod: RefCell::new(ProducerSide {
                tx,
                sent: 0,
                #[cfg(test)]
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
            "async checker pool: session {} is poisoned by a worker panic; {what}",
            self.slot.id
        );
    }

    fn send(&self, msg: Msg) -> Result<(), FiberEventError> {
        self.still_draining("cannot enqueue more events")?;
        let mut p = self.prod.borrow_mut();
        let mut msg = msg;
        while let Err(PushError::Full(back)) = p.tx.push(msg) {
            msg = back;
            self.still_draining("cannot enqueue more events")?;
            // Prefer doing the work to waiting for it: on an
            // oversubscribed host the backlogged producer is often the
            // only runnable thread.
            if self.slot.try_drain() > 0 {
                continue;
            }
            self.pool.kick();
            let mut g = self.slot.progress.lock();
            if p.tx.is_full() && !self.slot.poisoned.load(Ordering::Acquire) {
                self.slot.drain_cv.wait_for(&mut g, PARK);
            }
        }
        p.sent += 1;
        // The doorbell: one wake per DOORBELL_EVERY messages. Whatever
        // is left behind it reaches a worker at its next timed park, or
        // is drained by the barrier or `Drop`, which kick unconditionally.
        if p.sent.is_multiple_of(DOORBELL_EVERY) && self.pool.kick() {
            #[cfg(test)]
            {
                p.doorbells += 1;
            }
        }
        Ok(())
    }

    /// Wait until every message sent so far has been applied or the
    /// session stopped draining, helping to drain inline when the pool
    /// is busy elsewhere.
    fn wait_drained(&self, sent: u64) {
        while !self.slot.poisoned.load(Ordering::Acquire)
            && self.slot.applied.load(Ordering::Acquire) < sent
        {
            if self.slot.try_drain() == 0 {
                self.pool.kick();
                let mut g = self.slot.progress.lock();
                if self.slot.applied.load(Ordering::Acquire) < sent
                    && !self.slot.poisoned.load(Ordering::Acquire)
                {
                    self.slot.drain_cv.wait_for(&mut g, PARK);
                }
            }
        }
    }

    /// The barrier: returns once every message sent so far has been
    /// applied. `Err` if the session refused one of them. Panics (fails
    /// fast) if the session was poisoned by a worker panic — the original
    /// payload is re-raised when the `AsyncChecker` is dropped.
    fn flush(&self) -> Result<(), FiberEventError> {
        self.wait_drained(self.prod.borrow().sent);
        self.still_draining("events are lost, not merely late")
    }

    /// Flush, then run `f` on the drained session.
    pub fn with_session<R>(
        &self,
        f: impl FnOnce(&mut CheckSession) -> R,
    ) -> Result<R, FiberEventError> {
        self.flush()?;
        let mut consumer = self.slot.consumer.lock();
        let session = consumer
            .session
            .as_mut()
            .expect("only finish or drop take the session");
        Ok(f(session))
    }

    /// Flush, leave the pool and hand the session back: the checker's
    /// end, with the session's detector state owned by the caller alone.
    /// Fails like [`AsyncChecker::with_session`].
    pub fn finish(self) -> Result<CheckSession, FiberEventError> {
        self.flush()?;
        // Leaving the pool is `Drop`'s, which finds nothing to drain.
        let session = self.slot.consumer.lock().session.take();
        Ok(session.expect("only finish or drop take the session"))
    }
}

impl Drop for AsyncChecker {
    fn drop(&mut self) {
        // Drain everything still queued (graceful shutdown), helping
        // inline so the drop cannot outwait a busy pool. A poisoned
        // session stops draining — its remaining events are acknowledged
        // lost and the panic payload, if a panic is what poisoned it, is
        // re-raised below. The session dies here, not with the last
        // worker scan that still lists its slot.
        let sent = self.prod.get_mut().sent;
        self.wait_drained(sent);
        self.slot.consumer.lock().session = None;
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

    /// The session in `slot`, read without the barrier.
    fn slot_stats(slot: &SessionSlot) -> tsan_rt::TsanStats {
        let consumer = slot.consumer.lock();
        consumer
            .session
            .as_ref()
            .expect("in its slot")
            .runtime()
            .stats()
    }

    #[test]
    fn async_matches_sync_bit_for_bit() {
        let (strings, evs) = event_stream(500);
        let ac = pooled(None);
        feed(&ac, &strings, &evs);
        assert_eq!(tsan_stats(&ac), run_sync(&strings, &evs));
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
        assert_eq!(
            ac.slot.applied.load(Ordering::Acquire),
            (strings.len() + evs.len()) as u64
        );
        assert_eq!(slot_stats(&ac.slot).fiber_switches, 4000);
    }

    #[test]
    fn session_folds_counters_and_mirrors_strings() {
        // The pool drives CheckSession::try_apply, so the session-side
        // counters and mirror interner match what the producer fed —
        // the serve path reads summaries from exactly this state.
        let (strings, evs) = event_stream(100);
        let ac = pooled(None);
        feed(&ac, &strings, &evs);
        let (stats, counters, mirrored, shared) = ac
            .with_session(|s| {
                (
                    s.runtime().stats(),
                    s.counters().clone(),
                    s.strings().len(),
                    s.strings().shared_label(StrId(0)),
                )
            })
            .unwrap();
        assert_eq!(stats.write_range_calls, 100);
        assert_eq!(stats.fiber_switches, 200);
        assert_eq!(counters.sync_switches, 100);
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
        // fail, not drop) — the ring itself caps what is in flight.
        let (strings, evs) = event_stream(4 * RING_CAPACITY as u64);
        let ac = pooled(None);
        feed(&ac, &strings, &evs);
        assert_eq!(tsan_stats(&ac).write_range_calls, 4 * RING_CAPACITY as u64);
        assert_eq!(tsan_stats(&ac), run_sync(&strings, &evs));
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
            // was taken — one batch of this session — and the ring holds
            // at most a ring's worth: the producer applied the rest.
            let applied = ac.slot.applied.load(Ordering::Acquire) as usize;
            assert!(applied + RING_CAPACITY + BATCH_MAX >= strings.len() + evs.len());
        }
        assert_eq!(tsan_stats(&ac), run_sync(&strings, &evs));
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
        let ac = pooled(None);
        let (strings, evs) = event_stream(100);
        feed(&ac, &strings, &evs);
        // No flush: drop must still apply everything (graceful shutdown
        // drains the ring before unregistering).
        let slot = Arc::clone(&ac.slot);
        drop(ac);
        assert_eq!(
            slot.applied.load(Ordering::Acquire),
            (strings.len() + evs.len()) as u64
        );
    }

    #[test]
    fn the_session_leaves_with_its_checker_not_with_a_worker_scan() {
        // A worker mid-scan holds a clone of the slot `Arc` until its scan
        // ends. The session must not wait for it: `finish` hands it over
        // drained, and a dropped checker frees it on the spot.
        let (strings, evs) = event_stream(100);
        let ac = pooled(Some(1));
        feed(&ac, &strings, &evs);
        let scan = Arc::clone(&ac.slot);
        let session = ac.finish().unwrap();
        assert_eq!(session.runtime().stats(), run_sync(&strings, &evs));
        assert!(
            scan.consumer.lock().session.is_none(),
            "finish moved it out"
        );

        // The label the session mirrored is the probe: nothing but the
        // session holds it once this test lets go of it.
        let ac = pooled(Some(1));
        feed(&ac, &strings, &evs);
        let label: Arc<str> = Arc::from("held by the session alone");
        let probe = Arc::downgrade(&label);
        ac.send_intern_shared(label).unwrap();
        let scan = Arc::clone(&ac.slot);
        drop(ac);
        assert!(
            probe.upgrade().is_none(),
            "the dropped checker's session lives on"
        );
        assert!(scan.consumer.lock().session.is_none());
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
        let doorbells = ac.prod.borrow().doorbells;
        assert!(
            doorbells <= sends / DOORBELL_EVERY + 1,
            "{doorbells} wakes for {sends} sends"
        );
    }

    #[test]
    fn tail_below_the_doorbell_is_applied_by_the_timed_park() {
        // Ten sends never reach the doorbell, and nothing here flushes:
        // the worker's timed park alone must find them. Observed through
        // the slot's applied count, because every accessor on the checker
        // is a flush barrier (and would drain the ring itself). The
        // deadline bounds liveness, not latency — a park is 1 ms.
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
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ac.slot.applied.load(Ordering::Acquire) < 10 && std::time::Instant::now() < deadline {
            std::thread::sleep(PARK);
        }
        assert_eq!(ac.slot.applied.load(Ordering::Acquire), 10);
        assert_eq!(slot_stats(&ac.slot).write_range_calls, 9);
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
        assert_eq!(slot_stats(&bad.slot), run_sync(&strings, &evs));
        assert_eq!(bad.finish().map(|_| ()), Err(refusal));

        feed(&good, &strings, &evs);
        assert_eq!(tsan_stats(&good), run_sync(&strings, &evs));
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
