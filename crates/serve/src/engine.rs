//! The serve engine: one checker pool, many sessions.
//!
//! [`ServeEngine`] owns the process-wide pieces every served session
//! shares — a private [`CheckerPool`], the [`SharedLabels`]
//! canonicalization table, and (since the crash-safety work) the
//! **live-session registry**: sessions belong to the engine, not to the
//! connection that opened them. A connection *attaches* to a session
//! (`O`/`R` frames) and *detaches* when it ends; the session itself
//! survives until it is closed (`C`), swept as idle, or the process
//! dies — and with a spill directory configured, even process death is
//! survivable.
//!
//! ## Lifetime: a session's memory leaves with its summary
//!
//! A served session ends the way a solo replay does. `C` takes it out of
//! the registry and [`crate::SessionIngest::finish`] consumes it into
//! its [`SessionSummary`]: shadow arena, clocks, interner and ring are
//! freed before the `S` reply is written. The engine keeps nothing of a
//! finished session but counters, so its footprint is its *live*
//! sessions plus the label table.
//!
//! ## The live budget (unfinished sessions): spill
//!
//! An *unfinished* session's shadow pages encode access history the
//! detector still needs, so they can never be dropped. They can,
//! however, be **spilled**: `live_page_budget` bounds the shadow pages
//! held by *detached* (idle) unfinished sessions, and when the total
//! exceeds it the least-recently-touched ones are dropped from memory.
//! A session whose journal (below) holds at most [`JOURNAL_ONLY_SPILL`]
//! bytes — every testsuite-sized one — keeps nothing else: replaying
//! that journal costs less than a snapshot's round trip through the
//! store. A larger one is first written to the spill directory's
//! session store ([`crate::store`]) as a snapshot record: the one
//! [`tsan_rt::codec::LAYOUT_VERSION`], the acked offset and the ingest's
//! sections inline ([`crate::SessionIngest::spill_to`]), checksummed
//! with the offset — a restore replays the journal from it. The next
//! frame for a spilled session transparently restores it from its
//! newest snapshot plus the journal past it, or from the journal alone;
//! both are exact (the snapshot codec takes canonical snapshots of the
//! full detector state, and replay is deterministic), so a
//! spilled-and-restored session finishes with bit-for-bit the same
//! summary as one that stayed resident — asserted by the differential
//! tests and the chaos soak.
//!
//! ## Journals and restart recovery
//!
//! With `spill_dir` set, every accepted session byte is also appended to
//! the store as a journal record **before any ack, detach or spill**:
//! accepted bytes collect in a per-session write-behind buffer that is
//! written out before every point at which an offset leaves the process
//! (an `A` reply — [`ServeEngine::resume`], [`ServeEngine::touch`]) or
//! the session leaves its connection ([`ServeEngine::detach`],
//! [`ServeEngine::spill_session`]), and whenever it reaches
//! [`JOURNAL_WRITE_BEHIND`]. So no byte is ever acked unless a restarted
//! server can re-derive it from disk, and a crash costs an uploader
//! that never asked for an ack at most that many bytes of re-send. A
//! session that opens, streams and closes on one connection without
//! asking writes nothing, and a process whose sessions all do never
//! creates the store. Ending a session (close, expiry, a fatal error)
//! retires its records, if it has any: an `end` record makes them dead
//! bytes for the store's compaction, and when no other session has
//! records the file is cut back to its magic instead. A restarted server
//! ([`ServeEngine::recover`]) walks the store once, skips a damaged
//! record (costing only its session), cuts off a torn final one, and
//! re-registers every unfinished session as spilled, its acked offset
//! the length of its journal; the first frame restores it from its
//! newest snapshot plus the journal tail — or
//! replays the whole journal when it spilled as its journal, when the
//! process died before ever spilling, or while writing the snapshot: the
//! journal holds `[0, acked)` before any snapshot is written, so a
//! snapshot record of another layout version, one whose checksum does
//! not match or one that does not decode (a positioned
//! [`tsan_rt::DecodeError`]) is logged, forgotten and rebuilt from
//! journal byte 0. Per-session files an older binary left in the
//! directory are logged and left in place, not recovered. Clients learn
//! the recovered acked offset from the `R` handshake and replay the rest.

use crate::ingest::SessionIngest;
use crate::labels::SharedLabels;
use crate::store::{self, SnapshotRecord, Store};
use cusan::{CheckerPool, SessionSummary};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Accepted bytes a session may hold back from the store between acks.
/// It bounds both the re-send a crash costs a client that never asked
/// for an ack and the memory an attached session adds. The write it
/// saves is now an append to the open store (ext4 on a 2-thread VM:
/// ≈ 2.6 µs for 4 KiB, ≈ 15 µs for 64 KiB, against ≈ 13 µs to create,
/// append to and close a per-session file and ≈ 8 µs to unlink it, as
/// the journal cost before the store), so at the clients' 4 KiB
/// frames it turns sixteen ≈ 2.6 µs appends into one ≈ 15 µs one; the
/// bound on re-send and memory, not the write, sets the value, which
/// stays.
pub const JOURNAL_WRITE_BEHIND: usize = 64 << 10;

/// Journal bytes up to which a spilled session writes no snapshot: its
/// in-memory state is dropped and the next frame replays the journal
/// through a fresh ingest. That replay grows with the journal, while a
/// snapshot costs a round trip (encode, append, `pread`, decode) that is
/// mostly fixed. With the store the file-system part of that round trip
/// fell from ≈ 50–80 µs (create, write, read, unlink per session) to a
/// few µs, and the ledger's `serve.engine.spill_us` / `restore_us` from
/// ≈ 49 / 25 µs to ≈ 30 / 17 µs (medians of four same-seed traced
/// `serve-spill` runs per side); what is left is the codec, which still
/// costs a small session more than replaying its journal. Measured on
/// `serve-spill` with the store (80 corpus sessions spilled three
/// quarters in, one pinned thread, ext4, four alternating 8 s pairs):
/// writing a snapshot for every spill (this constant at 0) read
/// `overhead_x` 1.22–1.24 against 1.16–1.19 at 2 KiB, so the value
/// stays. (The earlier
/// per-session measurement: a 0.3 KB journal finished ≈ 23 µs sooner
/// spilled as its journal, the saving shrinking by ≈ 10 µs per KiB.)
pub const JOURNAL_ONLY_SPILL: usize = 2 << 10;

/// Engine-wide configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Explicit checker-pool worker count, `--check-threads` (`None`:
    /// size from hardware — one worker per registered session up to
    /// hardware threads − 1, at least one; see [`cusan::async_check`]).
    pub check_threads: Option<usize>,
    /// Cap on shadow pages held by *detached unfinished* sessions;
    /// beyond it the least-recently-touched are spilled to `spill_dir`
    /// (`None`, or no `spill_dir`: never spill under pressure).
    pub live_page_budget: Option<usize>,
    /// Cap on concurrently open (unfinished) sessions; opens beyond it
    /// get a typed capacity error (`None`: unlimited).
    pub max_sessions: Option<usize>,
    /// Directory of the session store, which holds every session's
    /// journal and spill snapshots (`None`: spilling and restart
    /// recovery disabled).
    pub spill_dir: Option<PathBuf>,
    /// Detached sessions idle longer than this are expired by
    /// [`ServeEngine::sweep_idle`] (`None`: never expire).
    pub idle_timeout: Option<Duration>,
}

/// Engine observability counters (a snapshot; see [`ServeEngine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions opened (fresh `O`/`R` accepted).
    pub sessions_opened: u64,
    /// Sessions finished (closed, consumed into their summary).
    pub sessions_finished: u64,
    /// Most shadow pages any one session held when it finished.
    pub peak_resident_pages: u64,
    /// Distinct labels in the shared table.
    pub labels_unique: u64,
    /// Label interns served from the shared table (avoided copies).
    pub labels_shared: u64,
    /// `R` attaches to an already-existing session (reconnects).
    pub sessions_resumed: u64,
    /// Unfinished sessions spilled under the live budget (as a snapshot
    /// record, or as their journal alone).
    pub sessions_spilled: u64,
    /// Spilled/journaled sessions transparently restored on a frame.
    pub sessions_restored: u64,
    /// Detached sessions expired by the idle sweeper.
    pub sessions_expired: u64,
    /// Already-accepted bytes re-delivered by clients and dropped by
    /// the offset check (exactly-once enforcement).
    pub duplicate_bytes_dropped: u64,
}

/// Feeding a session can fail recoverably (the client is ahead of the
/// acked offset — it should resync via `R`/`H` and replay) or fatally
/// (the trace itself is malformed — the session is dead).
#[derive(Debug)]
pub enum FeedError {
    /// The frame starts beyond the accepted prefix: bytes are missing.
    Gap {
        /// Bytes accepted so far (the offset the next frame must start at).
        expected: u64,
        /// Offset the rejected frame started at.
        got: u64,
    },
    /// Parse/protocol failure; the session has been dropped.
    Fatal(String),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Gap { expected, got } => {
                write!(f, "offset gap: expected {expected}, frame starts at {got}")
            }
            FeedError::Fatal(e) => f.write_str(e),
        }
    }
}

/// Opening or attaching to a session can fail in typed,
/// client-distinguishable ways (the protocol layer maps these onto `E`
/// frames verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// `O` with an id that is already registered.
    AlreadyOpen,
    /// The server is at `max_sessions` capacity.
    AtCapacity,
    /// The session's accepted bytes could not be journaled, so its
    /// offset cannot be acked; the session has been dropped.
    Journal(String),
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::AlreadyOpen => f.write_str("session id already open"),
            AttachError::AtCapacity => f.write_str("server at session capacity"),
            AttachError::Journal(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for AttachError {}

/// Where a live session's state currently is.
enum LiveState {
    /// In memory, registered with the checker pool.
    Resident(Box<SessionIngest>),
    /// On disk (spilled under pressure, or journaled by a previous
    /// process); the next frame restores it.
    Spilled,
    /// Out of the registry, its records retired: a connection that
    /// looked it up before it ended finds it gone and writes nothing.
    Ended,
}

/// One unfinished session in the registry.
struct LiveSession {
    state: LiveState,
    /// Session-stream bytes accepted so far (the resume offset).
    acked: u64,
    /// Connections currently attached (sweep/spill only touch 0).
    attach_count: usize,
    /// Last frame/attach/detach, for idle expiry and spill ordering.
    last_touch: Instant,
    /// Write-behind journal buffer: the accepted bytes
    /// `[acked - journal_tail.len(), acked)` the store does not hold
    /// yet. Empty whenever the session is spilled.
    journal_tail: Vec<u8>,
}

impl LiveSession {
    fn new(state: LiveState, acked: u64, attach_count: usize) -> LiveSession {
        LiveSession {
            state,
            acked,
            attach_count,
            last_touch: Instant::now(),
            journal_tail: Vec::new(),
        }
    }
}

#[derive(Default)]
struct EngineState {
    peak_resident_pages: usize,
    sessions_opened: u64,
    sessions_finished: u64,
    sessions_resumed: u64,
    sessions_spilled: u64,
    sessions_restored: u64,
    sessions_expired: u64,
    duplicate_bytes_dropped: u64,
}

/// Shared state of one `cusan-serve` process (see the module docs).
pub struct ServeEngine {
    pool: Arc<CheckerPool>,
    config: EngineConfig,
    labels: SharedLabels,
    state: Mutex<EngineState>,
    /// The live-session registry. Per-session mutexes keep one slow
    /// session's feed from serializing every other connection; the
    /// outer lock covers only map shape changes and lookups.
    live: Mutex<HashMap<u64, Arc<Mutex<LiveSession>>>>,
    /// The session store of `spill_dir` (`None` without one). Taken
    /// inside a session's lock, never the other way round.
    store: Option<Mutex<Store>>,
    /// Self-reference so `&self` methods can hand fresh ingests the
    /// `Arc` their constructors take (engines only exist inside an
    /// `Arc`). Ingests keep it weak too, so the registry below holding
    /// them is not a cycle: dropping the last outside `Arc` frees the
    /// engine with every resident session.
    me: Weak<ServeEngine>,
}

impl ServeEngine {
    /// Engine with a private checker pool (never the global one: a serve
    /// process pins its own worker policy). With a `spill_dir`, the first
    /// write replaces any store a previous process left there;
    /// [`ServeEngine::recover`] keeps it.
    pub fn new(config: EngineConfig) -> Arc<ServeEngine> {
        if let Some(dir) = &config.spill_dir {
            // Best-effort: feed/spill report real errors with context.
            let _ = fs::create_dir_all(dir);
        }
        let store = config.spill_dir.clone().map(|d| Mutex::new(Store::new(d)));
        Arc::new_cyclic(|me| ServeEngine {
            pool: CheckerPool::new(config.check_threads),
            store,
            config,
            labels: SharedLabels::new(),
            state: Mutex::new(EngineState::default()),
            live: Mutex::new(HashMap::new()),
            me: me.clone(),
        })
    }

    /// [`ServeEngine::new`], then re-register every unfinished session
    /// the store in `spill_dir` holds — the restarted-server path. The
    /// store is walked once; a damaged record is skipped, and a torn
    /// final one cut off (see [`crate::store`]). Recovered sessions sit
    /// on disk until their first frame (restore is lazy); their acked
    /// offset is their journal's length, so a resuming client replays
    /// exactly the lost tail.
    pub fn recover(config: EngineConfig) -> std::io::Result<Arc<ServeEngine>> {
        let engine = ServeEngine::new(config);
        let Some(dir) = engine.config.spill_dir.clone() else {
            return Ok(engine);
        };
        let (store, sessions) = Store::recover(dir)?;
        *engine
            .store
            .as_ref()
            .expect("a spill dir has a store")
            .lock() = store;
        let mut live = engine.live.lock();
        for (id, acked) in sessions {
            let session = LiveSession::new(LiveState::Spilled, acked, 0);
            live.insert(id, Arc::new(Mutex::new(session)));
        }
        drop(live);
        Ok(engine)
    }

    /// The shared checker pool sessions register with.
    pub fn pool(&self) -> &Arc<CheckerPool> {
        &self.pool
    }

    /// The cross-session label table.
    pub fn labels(&self) -> &SharedLabels {
        &self.labels
    }

    /// Unfinished sessions currently registered (resident or spilled).
    pub fn live_sessions(&self) -> usize {
        self.live.lock().len()
    }

    /// End session `id`, already out of the registry, under its lock:
    /// retire its records, if it has any, and drop its unwritten bytes,
    /// so a connection still holding it writes nothing more. Returns the
    /// state it had, to be dropped once the lock is released (a resident
    /// ingest drains its ring when dropped).
    fn retire(&self, id: u64, s: &mut LiveSession) -> LiveState {
        s.journal_tail = Vec::new();
        if let Some(store) = &self.store {
            store.lock().end(id);
        }
        std::mem::replace(&mut s.state, LiveState::Ended)
    }

    /// Open a brand-new session attached to the calling connection.
    pub fn open_new(&self, id: u64) -> Result<(), AttachError> {
        let mut live = self.live.lock();
        if live.contains_key(&id) {
            return Err(AttachError::AlreadyOpen);
        }
        self.insert_fresh_locked(&mut live, id)?;
        drop(live);
        self.state.lock().sessions_opened += 1;
        Ok(())
    }

    /// Insert a fresh attached session under the held registry lock.
    fn insert_fresh_locked(
        &self,
        live: &mut HashMap<u64, Arc<Mutex<LiveSession>>>,
        id: u64,
    ) -> Result<(), AttachError> {
        if self
            .config
            .max_sessions
            .is_some_and(|max| live.len() >= max)
        {
            return Err(AttachError::AtCapacity);
        }
        let ingest = SessionIngest::new(self.self_arc());
        let state = LiveState::Resident(Box::new(ingest));
        let session = LiveSession::new(state, 0, 1);
        live.insert(id, Arc::new(Mutex::new(session)));
        Ok(())
    }

    /// Attach to session `id`, creating it if unknown (the `R` frame).
    /// Returns the acked byte offset the client must resume from.
    ///
    /// The attach bump happens *under the registry lock*: [`sweep_idle`]
    /// removes entries only while holding that lock, so a session
    /// observed here cannot expire before the bump lands — a resume
    /// either fully attaches (and the sweeper then spares it) or finds
    /// no session at all and opens fresh at offset 0. The previous
    /// lookup-then-bump shape lost this race: the sweeper's idle
    /// re-check could not see the late bump, and the client ended up
    /// attached to a ghost whose registry entry and disk state were
    /// already gone.
    ///
    /// The returned offset is about to leave the process, so the
    /// session's journal is brought up to it first (off the registry
    /// lock); a session whose journal cannot be written is dropped.
    ///
    /// [`sweep_idle`]: ServeEngine::sweep_idle
    pub fn resume(&self, id: u64) -> Result<u64, AttachError> {
        let mut live = self.live.lock();
        if let Some(sess) = live.get(&id).map(Arc::clone) {
            let mut s = sess.lock();
            s.attach_count += 1;
            s.last_touch = Instant::now();
            drop(live);
            if let Err(e) = self.flush_journal(id, &mut s) {
                drop(s);
                self.drop_session(id);
                return Err(AttachError::Journal(e));
            }
            let acked = s.acked;
            drop(s);
            self.state.lock().sessions_resumed += 1;
            return Ok(acked);
        }
        // Unknown (or just-expired) id: open fresh without releasing the
        // registry lock, so no concurrent open/sweep can interleave.
        self.insert_fresh_locked(&mut live, id)?;
        drop(live);
        self.state.lock().sessions_opened += 1;
        Ok(0)
    }

    /// Touch session `id` (the `H` frame, and duplicate `R`s): refresh
    /// its idle clock, journal what it has accepted, report the acked
    /// offset. A session whose journal cannot be written is dropped.
    pub fn touch(&self, id: u64) -> Result<u64, String> {
        let sess = self.lookup(id).ok_or("session not open")?;
        let mut s = sess.lock();
        if matches!(s.state, LiveState::Ended) {
            return Err("session not open".to_string());
        }
        s.last_touch = Instant::now();
        if let Err(e) = self.flush_journal(id, &mut s) {
            drop(s);
            self.drop_session(id);
            return Err(e);
        }
        Ok(s.acked)
    }

    /// Append session `id`'s write-behind buffer to the store as a
    /// journal record. Every path that lets an offset out of the
    /// process, or the session off its connection, calls this first (see
    /// the module docs). A failed write leaves the store at its previous
    /// length and the buffer intact, so a retry cannot duplicate bytes.
    fn flush_journal(&self, id: u64, s: &mut LiveSession) -> Result<(), String> {
        if s.journal_tail.is_empty() {
            return Ok(());
        }
        let store = self
            .store
            .as_ref()
            .expect("bytes are only buffered with a spill dir");
        let held = s.acked - s.journal_tail.len() as u64;
        store.lock().append_journal(id, held, &s.journal_tail)?;
        // Released, not cleared: idle sessions outnumber streaming ones.
        s.journal_tail = Vec::new();
        Ok(())
    }

    fn lookup(&self, id: u64) -> Option<Arc<Mutex<LiveSession>>> {
        self.live.lock().get(&id).map(Arc::clone)
    }

    /// The engine's own `Arc` (ingest constructors take one). Always
    /// upgradable: engines only exist inside the `Arc` built by
    /// [`ServeEngine::new`], and `&self` proves at least one strong
    /// reference is live.
    fn self_arc(&self) -> Arc<ServeEngine> {
        self.me.upgrade().expect("engine outlived its own Arc")
    }

    /// Feed `chunk` at stream `offset` into session `id`, restoring it
    /// from disk first if it was spilled. Returns the new acked offset.
    ///
    /// The offset check turns at-least-once socket delivery into
    /// exactly-once detector delivery: duplicates (whole or partial) are
    /// dropped or prefix-trimmed, gaps are recoverable errors.
    pub fn feed(&self, id: u64, offset: u64, chunk: &[u8]) -> Result<u64, FeedError> {
        let sess = self
            .lookup(id)
            .ok_or_else(|| FeedError::Fatal("session not open".to_string()))?;
        let mut s = sess.lock();
        if matches!(s.state, LiveState::Ended) {
            return Err(FeedError::Fatal("session not open".to_string()));
        }
        s.last_touch = Instant::now();
        let acked = s.acked;
        // Offset reconciliation before any expensive work.
        let chunk = if offset == acked {
            chunk
        } else if offset.saturating_add(chunk.len() as u64) <= acked {
            // Entirely already accepted: a retransmit racing its ack.
            self.state.lock().duplicate_bytes_dropped += chunk.len() as u64;
            return Ok(acked);
        } else if offset < acked {
            // Overlapping prefix already accepted: trim it.
            let dup = (acked - offset) as usize;
            self.state.lock().duplicate_bytes_dropped += dup as u64;
            &chunk[dup..]
        } else {
            return Err(FeedError::Gap {
                expected: acked,
                got: offset,
            });
        };
        let mut fed = self.ensure_resident(id, &mut s);
        if fed.is_ok() {
            let LiveState::Resident(ingest) = &mut s.state else {
                unreachable!("ensure_resident restored the session");
            };
            fed = ingest.feed(chunk).map_err(String::from);
        }
        if fed.is_ok() {
            s.acked += chunk.len() as u64;
            // Write-behind: the offset returned here stays in this
            // process. Whatever hands it on — an `A` reply, a detach, a
            // spill — writes the journal first, so a byte is never acked
            // (and thus skipped by a resuming client) unless a restarted
            // server can re-derive it from disk.
            if self.store.is_some() {
                s.journal_tail.extend_from_slice(chunk);
                if s.journal_tail.len() >= JOURNAL_WRITE_BEHIND {
                    fed = self.flush_journal(id, &mut s);
                }
            }
        }
        match fed {
            Ok(()) => Ok(s.acked),
            Err(e) => {
                drop(s);
                self.drop_session(id);
                Err(FeedError::Fatal(e))
            }
        }
    }

    /// Close session `id`: restore it if spilled, retire its records,
    /// and consume it into its summary.
    pub fn close(&self, id: u64) -> Result<SessionSummary, String> {
        let sess = {
            let mut live = self.live.lock();
            live.remove(&id).ok_or("session not open")?
        };
        let mut s = sess.lock();
        // A session that cannot be restored is gone either way; its
        // records must not outlive it for `recover` to re-register.
        // Bytes still in the write-behind buffer die with the session: a
        // closed session has nothing left to recover.
        let restored = self.ensure_resident(id, &mut s);
        let state = self.retire(id, &mut s);
        drop(s);
        restored?;
        let LiveState::Resident(ingest) = state else {
            unreachable!("ensure_resident restored the session");
        };
        Ok(ingest.finish()?)
    }

    /// Detach one connection from session `id` (connection end, clean or
    /// not). The session stays registered and its journal is brought up
    /// to date — the next process to see it may be a restarted one; if
    /// the live budget is now exceeded, idle sessions are spilled.
    pub fn detach(&self, id: u64) {
        if let Some(sess) = self.lookup(id) {
            let mut s = sess.lock();
            s.attach_count = s.attach_count.saturating_sub(1);
            s.last_touch = Instant::now();
            // Nobody to report to: the session keeps its buffer, and the
            // next ack attempt retries the write and fails typed.
            if let Err(e) = self.flush_journal(id, &mut s) {
                eprintln!("cusan-serve: detaching session {id}: {e}");
            }
        }
        self.enforce_live_budget();
    }

    /// Restore a spilled session in place (no-op when resident).
    fn ensure_resident(&self, id: u64, s: &mut LiveSession) -> Result<(), String> {
        match s.state {
            LiveState::Resident(_) => return Ok(()),
            LiveState::Ended => return Err("session not open".to_string()),
            LiveState::Spilled => {}
        }
        let store = self.store.as_ref().ok_or("spilled without a spill dir")?;
        let engine = self.self_arc();
        // No snapshot (a journal-only spill, or a crash before any
        // spill): the journal alone rebuilds the session from byte zero.
        let (mut ingest, restored_to) = match self.restore_snapshot(store, &engine, id, s.acked) {
            Some(restored) => restored,
            None => (SessionIngest::new(engine), 0),
        };
        // Replay the journal past the snapshot (all of it without one).
        if restored_to < s.acked {
            let journal = store.lock().read_journal(id, restored_to, s.acked)?;
            ingest.feed(&journal)?;
        }
        s.state = LiveState::Resident(Box::new(ingest));
        self.state.lock().sessions_restored += 1;
        Ok(())
    }

    /// The ingest in session `id`'s newest snapshot and the offset it was
    /// taken at, or `None` when there is none to restore from: none
    /// written, or one that cannot be read or does not decode. A snapshot
    /// cut short (killed mid-write, disk full) or damaged is logged and
    /// forgotten, since the journal held `[0, acked)` before it was
    /// written. Decoding holds no lock but the session's.
    fn restore_snapshot(
        &self,
        store: &Mutex<Store>,
        engine: &Arc<ServeEngine>,
        id: u64,
        acked: u64,
    ) -> Option<(SessionIngest, u64)> {
        let record = store.lock().snapshot(id)?;
        let restored = record.map_err(|e| e.to_string()).and_then(|record| {
            store::decode_snapshot(&record, acked, |s| {
                SessionIngest::restore(Arc::clone(engine), s)
            })
            .map_err(|e| e.to_string())
        });
        match restored {
            Ok(restored) => Some(restored),
            Err(e) => {
                eprintln!(
                    "cusan-serve: session {id}: snapshot record: {e}; rebuilding from the journal"
                );
                store.lock().drop_snapshot(id);
                None
            }
        }
    }

    /// Spill session `id` if it is registered, resident, and detached.
    /// Returns whether it was spilled. A session whose journal holds at
    /// most [`JOURNAL_ONLY_SPILL`] bytes is spilled by dropping its
    /// in-memory state: the journal is its spill. A larger one writes a
    /// snapshot record. Public for tests and operational tooling; budget
    /// pressure calls it internally.
    pub fn spill_session(&self, id: u64) -> Result<bool, String> {
        let Some(store) = &self.store else {
            return Ok(false);
        };
        let Some(sess) = self.lookup(id) else {
            return Ok(false);
        };
        let mut s = sess.lock();
        if s.attach_count > 0 || !matches!(s.state, LiveState::Resident(_)) {
            return Ok(false);
        }
        // The snapshot records `acked`; the journal must reach it first,
        // because recovery takes the journal's length for it.
        self.flush_journal(id, &mut s)?;
        let LiveState::Resident(ingest) = std::mem::replace(&mut s.state, LiveState::Spilled)
        else {
            unreachable!("checked resident above");
        };
        let acked = s.acked;
        if acked <= JOURNAL_ONLY_SPILL as u64 {
            drop(ingest);
        } else {
            let record = SnapshotRecord::build(id, acked, |buf| ingest.spill_to(buf))?;
            store.lock().append_snapshot(record)?;
        }
        drop(s);
        self.state.lock().sessions_spilled += 1;
        Ok(true)
    }

    /// Spill least-recently-touched detached sessions until their total
    /// shadow-page residency fits `live_page_budget`.
    fn enforce_live_budget(&self) {
        let Some(budget) = self.config.live_page_budget else {
            return;
        };
        if self.store.is_none() {
            return;
        }
        // Snapshot candidates without holding the registry lock across
        // session locks.
        let entries: Vec<(u64, Arc<Mutex<LiveSession>>)> = self
            .live
            .lock()
            .iter()
            .map(|(id, s)| (*id, Arc::clone(s)))
            .collect();
        let mut idle: Vec<(Instant, u64, usize)> = Vec::new();
        let mut total = 0usize;
        for (id, sess) in &entries {
            let s = sess.lock();
            if let LiveState::Resident(ingest) = &s.state {
                if s.attach_count == 0 {
                    let pages = ingest.resident_pages();
                    total += pages;
                    idle.push((s.last_touch, *id, pages));
                }
            }
        }
        if total <= budget {
            return;
        }
        idle.sort_by_key(|(touch, id, _)| (*touch, *id));
        for (_, id, pages) in idle {
            if total <= budget {
                break;
            }
            match self.spill_session(id) {
                Ok(true) => total -= pages,
                Ok(false) => {}
                Err(e) => eprintln!("cusan-serve: spilling session {id}: {e}"),
            }
        }
    }

    /// Expire detached sessions idle longer than the configured timeout
    /// (their records are retired too — an expired session is gone).
    /// Returns how many were expired. No-op without an `idle_timeout`.
    pub fn sweep_idle(&self) -> usize {
        let Some(timeout) = self.config.idle_timeout else {
            return 0;
        };
        let now = Instant::now();
        let expired: Vec<u64> = {
            let live = self.live.lock();
            live.iter()
                .filter(|(_, sess)| {
                    let s = sess.lock();
                    s.attach_count == 0 && now.duration_since(s.last_touch) >= timeout
                })
                .map(|(id, _)| *id)
                .collect()
        };
        let mut n = 0;
        for id in expired {
            // Re-check under the registry lock — the same lock `resume`
            // holds across its attach bump, so this check and the
            // removal below are atomic against attaches: a session that
            // re-attached (or was merely touched) since the scan is
            // spared. The clock is re-read so a touch after the scan
            // resets idleness instead of being compared against a stale
            // `now`.
            let removed = {
                let mut live = self.live.lock();
                let now = Instant::now();
                let still_idle = live.get(&id).is_some_and(|sess| {
                    let s = sess.lock();
                    s.attach_count == 0 && now.duration_since(s.last_touch) >= timeout
                });
                if still_idle {
                    live.remove(&id)
                } else {
                    None
                }
            };
            if let Some(sess) = removed {
                // Under the session's lock: a frame that got hold of it
                // before the removal journals before the end record, and
                // one that gets it after finds it ended.
                let state = self.retire(id, &mut sess.lock());
                drop(state);
                self.state.lock().sessions_expired += 1;
                n += 1;
            }
        }
        n
    }

    /// Drop a session without finishing it (fatal feed errors).
    fn drop_session(&self, id: u64) {
        let removed = self.live.lock().remove(&id);
        if let Some(sess) = removed {
            let state = self.retire(id, &mut sess.lock());
            drop(state);
        }
    }

    /// Record a session open (header accepted). Retained for the ingest
    /// paths that bypass the registry (`check` offline mode, tests).
    pub(crate) fn note_open(&self) {
        self.state.lock().sessions_opened += 1;
    }

    /// Record a finished session that held `pages` shadow pages.
    pub(crate) fn finish_session(&self, pages: usize) {
        let mut st = self.state.lock();
        st.sessions_finished += 1;
        st.peak_resident_pages = st.peak_resident_pages.max(pages);
    }

    /// Snapshot of the engine counters.
    pub fn stats(&self) -> ServeStats {
        let st = self.state.lock();
        ServeStats {
            sessions_opened: st.sessions_opened,
            sessions_finished: st.sessions_finished,
            peak_resident_pages: st.peak_resident_pages as u64,
            labels_unique: self.labels.unique(),
            labels_shared: self.labels.shared(),
            sessions_resumed: st.sessions_resumed,
            sessions_spilled: st.sessions_spilled,
            sessions_restored: st.sessions_restored,
            sessions_expired: st.sessions_expired,
            duplicate_bytes_dropped: st.duplicate_bytes_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &[u8] = include_bytes!("../../../tests/data/tealeaf_small.trace");

    /// A scratch directory path (not created) private to this test
    /// process and `tag`.
    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cusan-{tag}-{}", std::process::id()))
    }

    /// A label the checked session behind resident session `id` holds.
    fn session_label(engine: &ServeEngine, id: u64) -> Arc<str> {
        let sess = engine.lookup(id).expect("session is registered");
        let s = sess.lock();
        let LiveState::Resident(ingest) = &s.state else {
            panic!("session {id} is not resident");
        };
        ingest.session_label().expect("header was fed")
    }

    /// `close` (or a spill) has returned: the session must be gone, so
    /// nothing but `label` itself and — if it is the canonical
    /// allocation — the engine's label table still holds it.
    fn assert_freed(engine: &ServeEngine, label: Arc<str>, what: &str) {
        let canonical = Arc::ptr_eq(&engine.labels().canon(&label), &label);
        assert_eq!(
            Arc::strong_count(&label),
            1 + usize::from(canonical),
            "{what} outlived its summary"
        );
    }

    #[test]
    fn a_closed_session_is_freed_with_its_summary() {
        let solo = crate::solo_summary(GOLDEN).unwrap();
        let half = GOLDEN.len() / 2;

        // Resident from open to close.
        let engine = ServeEngine::new(EngineConfig::default());
        engine.open_new(1).unwrap();
        engine.feed(1, 0, GOLDEN).unwrap();
        let label = session_label(&engine, 1);
        assert_eq!(engine.close(1).unwrap(), solo);
        assert_freed(&engine, label, "a resident session");
        // The peak is one session's pages, not a running total.
        let pages = engine.stats().peak_resident_pages;
        assert!(pages > 0);
        engine.open_new(3).unwrap();
        engine.feed(3, 0, GOLDEN).unwrap();
        engine.close(3).unwrap();
        assert_eq!(engine.stats().peak_resident_pages, pages);

        // Spilled mid-trace: the spill frees the first incarnation, the
        // close the restored one.
        let dir = scratch_dir("test-freed-at-close");
        let engine = ServeEngine::new(EngineConfig {
            spill_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        engine.open_new(2).unwrap();
        engine.feed(2, 0, &GOLDEN[..half]).unwrap();
        let spilled = session_label(&engine, 2);
        engine.detach(2);
        assert!(engine.spill_session(2).unwrap());
        assert_freed(&engine, spilled, "a spilled session");
        engine.feed(2, half as u64, &GOLDEN[half..]).unwrap();
        let restored = session_label(&engine, 2);
        assert_eq!(engine.close(2).unwrap(), solo);
        assert_freed(&engine, restored, "a restored session");
        let stats = engine.stats();
        assert_eq!((stats.sessions_spilled, stats.sessions_restored), (1, 1));
        assert_eq!(stats.peak_resident_pages, pages);

        // Spilled as its journal alone: nothing of it stays in memory.
        engine.open_new(4).unwrap();
        engine.feed(4, 0, &GOLDEN[..JOURNAL_ONLY_SPILL]).unwrap();
        let spilled = session_label(&engine, 4);
        engine.detach(4);
        assert!(engine.spill_session(4).unwrap());
        assert_freed(&engine, spilled, "a session spilled as its journal");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_snapshot_record_is_refused_before_it_is_believed() {
        const RACY: &[u8] = include_bytes!("../../../tests/data/tealeaf_small_racy.trace");
        let dir = scratch_dir("test-hostile-snapshot");
        let engine = ServeEngine::new(EngineConfig {
            spill_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let half = RACY.len() / 2;
        engine.open_new(1).unwrap();
        engine.feed(1, 0, &RACY[..half]).unwrap();
        engine.detach(1);
        assert!(engine.spill_session(1).unwrap());
        let store = engine.store.as_ref().unwrap();
        let record = store.lock().snapshot(1).unwrap().unwrap();
        let acked = half as u64;
        let restore = |bytes: &[u8]| {
            store::decode_snapshot(bytes, acked, |s| {
                SessionIngest::restore(Arc::clone(&engine), s)
            })
        };
        let (ingest, at) = restore(&record).unwrap();
        assert_eq!(at, acked);
        drop(ingest);
        // Every proper prefix is refused at an offset inside it.
        for cut in 0..record.len() {
            let e = restore(&record[..cut])
                .err()
                .expect("a proper prefix restored");
            assert!(
                e.at().is_some_and(|at| at <= cut),
                "prefix of {cut} bytes: {e}"
            );
        }
        // A flipped byte anywhere is refused: the layout version by its
        // gate, every other byte by the checksum.
        let mut seed = 0x5EED_u64;
        for _ in 0..256 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = seed >> 11;
            let mut damaged = record.clone();
            damaged[(r % record.len() as u64) as usize] ^= 1 + ((r >> 32) % 255) as u8;
            assert!(restore(&damaged).is_err());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_connection_holding_an_ended_session_writes_nothing() {
        // A connection that looked a session up just before it was closed
        // or dropped takes its lock afterwards: it must find the session
        // ended, with no buffered bytes left to journal after the `end`.
        let dir = scratch_dir("test-late-holder");
        let engine = ServeEngine::new(EngineConfig {
            spill_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let path = dir.join(store::STORE_FILE);
        engine.open_new(9).unwrap();
        engine.feed(9, 0, &GOLDEN[..100]).unwrap();
        engine.touch(9).unwrap();
        type End = fn(&ServeEngine, u64);
        let end: [(&str, End); 2] = [
            ("closed", |e, id| drop(e.close(id))),
            ("dropped", |e, id| e.drop_session(id)),
        ];
        for (id, (what, end)) in (1..).zip(end) {
            engine.open_new(id).unwrap();
            engine.feed(id, 0, &GOLDEN[..200]).unwrap();
            engine.touch(id).unwrap();
            engine.feed(id, 200, &GOLDEN[200..300]).unwrap();
            let held = engine.lookup(id).unwrap();
            end(&engine, id);
            let mut s = held.lock();
            assert!(s.journal_tail.is_empty(), "{what}");
            assert!(matches!(s.state, LiveState::Ended), "{what}");
            engine.flush_journal(id, &mut s).unwrap();
            assert!(engine.ensure_resident(id, &mut s).is_err(), "{what}");
            let kinds: Vec<store::RecordKind> = store::records(&path)
                .unwrap()
                .iter()
                .filter(|r| r.id == id)
                .map(|r| r.kind)
                .collect();
            assert_eq!(
                kinds,
                [store::RecordKind::Journal, store::RecordKind::End],
                "{what}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
