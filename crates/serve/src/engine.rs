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
//! that journal costs less than a snapshot's round trip through a file.
//! A larger one is first serialized to `spill_dir`
//! ([`crate::SessionIngest::spill`]) as `session-<id>.spill`, whose
//! ingest blob carries a checksum. The next frame for a spilled session
//! transparently restores it from the spill file plus the journal past
//! it, or from the journal alone; both are exact (the spill codec takes
//! canonical snapshots of the full detector state, and replay is
//! deterministic), so a spilled-and-restored session finishes with
//! bit-for-bit the same summary as one that stayed resident — asserted
//! by the differential tests and the chaos soak.
//!
//! ## Journals and restart recovery
//!
//! With `spill_dir` set, every accepted session byte is also appended to
//! an on-disk journal **before any ack, detach or spill**: accepted
//! bytes collect in a per-session write-behind buffer that is written
//! out before every point at which an offset leaves the process (an `A`
//! reply — [`ServeEngine::resume`], [`ServeEngine::touch`]) or the
//! session leaves its connection ([`ServeEngine::detach`],
//! [`ServeEngine::spill_session`]), and whenever it reaches
//! [`JOURNAL_WRITE_BEHIND`]. So no byte is ever acked unless a restarted
//! server can re-derive it from disk, and a crash costs an uploader
//! that never asked for an ack at most that many bytes of re-send. A
//! session that opens, streams and closes on one connection without
//! asking touches no file at all. The engine records which of its two
//! files each session has, so ending a session unlinks only those and a
//! restore reads a spill file only where one was written. A restarted
//! server ([`ServeEngine::recover`]) re-registers every journaled
//! session as spilled, its acked offset the journal's length, and —
//! not knowing which spilled with a file — tries both; the first frame
//! restores it from the latest spill (if any) plus the journal tail — or
//! replays the whole journal when it spilled as its journal, when the
//! process died before ever spilling, or while writing the spill: the
//! journal holds `[0, acked)` before any spill starts, so a spill file
//! that does not decode, or whose checksum does not match, is logged,
//! discarded and rebuilt from journal byte 0. A directory entry that
//! cannot be read is logged and skipped. Clients learn the recovered
//! acked offset from the `R` handshake and replay the rest.

use crate::ingest::SessionIngest;
use crate::labels::SharedLabels;
use cusan::{CheckerPool, SessionSummary};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use tsan_rt::{SnapshotReader, SnapshotWriter};

/// Magic prefix of an on-disk session spill file.
const SPILL_MAGIC: &[u8; 8] = b"cusanspl";
/// Version of the spill-file layout. v2: the ingest blob's parser
/// section is the format-sniffing [`cusan::TracePushParser`] snapshot
/// (pending bytes + state tag + table + binary delta state) instead of
/// the text-only line-parser layout. v3: the detector snapshot inside
/// it carries no clock stamps and no same-state cache. v4: a 64-bit
/// [`spill_checksum`] of the ingest blob follows it. v5: the session
/// snapshot inside carries each label once (session layout v4). A file
/// of another version is discarded and the session rebuilt from its
/// journal.
const SPILL_VERSION: u32 = 5;

/// Accepted bytes a session may hold back from its journal file between
/// acks. It bounds both the re-send a crash costs a client that never
/// asked for an ack and the memory an attached session adds; at the
/// clients' 4 KiB frames it turns sixteen open/write/close rounds into
/// one.
pub const JOURNAL_WRITE_BEHIND: usize = 64 << 10;

/// Journal bytes up to which a spilled session keeps no spill file: its
/// in-memory state is dropped and the next frame replays the journal
/// through a fresh ingest. That replay grows with the journal, while a
/// spill file costs a round trip (encode, write, read, decode, one more
/// unlink) that is mostly fixed. The value is the break-even, measured
/// per session on the ledger's corpus spilled three quarters in (two
/// hardware threads, ext4): a testsuite session with a 0.3 KB journal
/// finishes ≈ 23 µs sooner spilled as its journal (≈ 43 against 66 µs),
/// one with 1.4 KB ≈ 11 µs sooner; the saving shrinks by ≈ 10 µs per KiB
/// and reaches zero near 2.4 KB. The smallest app session (Jacobi
/// 256×128, 4.7 KB at the detach point, large ranges) would finish
/// ≈ 120 µs later.
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
    /// Directory for session spill files and byte journals (`None`:
    /// spilling and restart recovery disabled).
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
    /// Unfinished sessions spilled under the live budget (to a spill
    /// file, or as their journal alone).
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
    /// `[acked - journal_tail.len(), acked)` the journal file does not
    /// hold yet. Empty whenever the session is spilled.
    journal_tail: Vec<u8>,
    /// Which of its files the session may have on disk.
    files: DiskFiles,
}

/// Which of a session's two files may exist: ending the session unlinks
/// only these, and a restore reads a spill file only if one may exist.
/// A session found by [`ServeEngine::recover`] may have either.
#[derive(Clone, Copy, Default)]
struct DiskFiles {
    journal: bool,
    spill: bool,
}

impl LiveSession {
    fn new(state: LiveState, acked: u64, attach_count: usize, files: DiskFiles) -> LiveSession {
        LiveSession {
            state,
            acked,
            attach_count,
            last_touch: Instant::now(),
            journal_tail: Vec::new(),
            files,
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
    /// Self-reference so `&self` methods can hand fresh ingests the
    /// `Arc` their constructors take (engines only exist inside an
    /// `Arc`). Ingests keep it weak too, so the registry below holding
    /// them is not a cycle: dropping the last outside `Arc` frees the
    /// engine with every resident session.
    me: Weak<ServeEngine>,
}

impl ServeEngine {
    /// Engine with a private checker pool (never the global one: a serve
    /// process pins its own worker policy).
    pub fn new(config: EngineConfig) -> Arc<ServeEngine> {
        if let Some(dir) = &config.spill_dir {
            // Best-effort: feed/spill report real errors with context.
            let _ = fs::create_dir_all(dir);
        }
        Arc::new_cyclic(|me| ServeEngine {
            pool: CheckerPool::new(config.check_threads),
            config,
            labels: SharedLabels::new(),
            state: Mutex::new(EngineState::default()),
            live: Mutex::new(HashMap::new()),
            me: me.clone(),
        })
    }

    /// [`ServeEngine::new`], then re-register every session whose
    /// journal survives in `spill_dir` — the restarted-server path.
    /// Recovered sessions sit on disk until their first frame (restore
    /// is lazy); their acked offset is the journal length, so a resuming
    /// client replays exactly the lost tail. A directory entry that
    /// cannot be read (a dangling symlink, say) is logged and skipped:
    /// it costs its own session, not the restart.
    pub fn recover(config: EngineConfig) -> std::io::Result<Arc<ServeEngine>> {
        let engine = ServeEngine::new(config);
        let Some(dir) = engine.config.spill_dir.clone() else {
            return Ok(engine);
        };
        let mut live = engine.live.lock();
        for entry in fs::read_dir(&dir)? {
            let path = match entry {
                Ok(entry) => entry.path(),
                Err(e) => {
                    eprintln!("cusan-serve: recovering {}: {e}; skipped", dir.display());
                    continue;
                }
            };
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let Some(id) = name
                .strip_prefix("session-")
                .and_then(|n| n.strip_suffix(".journal"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            let acked = match fs::metadata(&path) {
                Ok(meta) => meta.len(),
                Err(e) => {
                    eprintln!("cusan-serve: recovering {}: {e}; skipped", path.display());
                    continue;
                }
            };
            // Whether the previous process left a spill file is unknown:
            // the restore tries it.
            let files = DiskFiles {
                journal: true,
                spill: true,
            };
            let session = LiveSession::new(LiveState::Spilled, acked, 0, files);
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

    fn spill_path(&self, id: u64) -> Option<PathBuf> {
        self.config
            .spill_dir
            .as_ref()
            .map(|d| d.join(format!("session-{id}.spill")))
    }

    fn journal_path(&self, id: u64) -> Option<PathBuf> {
        self.config
            .spill_dir
            .as_ref()
            .map(|d| d.join(format!("session-{id}.journal")))
    }

    fn remove_disk_state(&self, id: u64, files: DiskFiles) {
        if files.spill {
            if let Some(p) = self.spill_path(id) {
                let _ = fs::remove_file(p);
            }
        }
        if files.journal {
            if let Some(p) = self.journal_path(id) {
                let _ = fs::remove_file(p);
            }
        }
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
        let session = LiveSession::new(state, 0, 1, DiskFiles::default());
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
        s.last_touch = Instant::now();
        if let Err(e) = self.flush_journal(id, &mut s) {
            drop(s);
            self.drop_session(id);
            return Err(e);
        }
        Ok(s.acked)
    }

    /// Write session `id`'s write-behind buffer to its journal file.
    /// Every path that lets an offset out of the process, or the session
    /// off its connection, calls this first (see the module docs). A
    /// failed write leaves the file at its previous length and the
    /// buffer intact, so a retry cannot duplicate bytes.
    fn flush_journal(&self, id: u64, s: &mut LiveSession) -> Result<(), String> {
        if s.journal_tail.is_empty() {
            return Ok(());
        }
        let path = self
            .journal_path(id)
            .expect("bytes are only buffered with a spill dir");
        let held = s.acked - s.journal_tail.len() as u64;
        // Set first: a failed write may still have created the file.
        s.files.journal = true;
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                f.write_all(&s.journal_tail).inspect_err(|_| {
                    let _ = f.set_len(held);
                })
            })
            .map_err(|e| format!("journal {}: {e}", path.display()))?;
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
            fed = ingest.feed(chunk);
        }
        if fed.is_ok() {
            s.acked += chunk.len() as u64;
            // Write-behind: the offset returned here stays in this
            // process. Whatever hands it on — an `A` reply, a detach, a
            // spill — writes the journal first, so a byte is never acked
            // (and thus skipped by a resuming client) unless a restarted
            // server can re-derive it from disk.
            if self.config.spill_dir.is_some() {
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

    /// Close session `id`: restore it if spilled, clear its disk state,
    /// and consume it into its summary.
    pub fn close(&self, id: u64) -> Result<SessionSummary, String> {
        let sess = {
            let mut live = self.live.lock();
            live.remove(&id).ok_or("session not open")?
        };
        let mut s = sess.lock();
        // A session that cannot be restored is gone either way; its files
        // must not outlive it for `recover` to re-register.
        if let Err(e) = self.ensure_resident(id, &mut s) {
            self.remove_disk_state(id, s.files);
            return Err(e);
        }
        let state = std::mem::replace(&mut s.state, LiveState::Spilled);
        // Bytes still in the write-behind buffer die with the session: a
        // closed session has nothing left to recover.
        let files = s.files;
        drop(s);
        self.remove_disk_state(id, files);
        let LiveState::Resident(ingest) = state else {
            unreachable!("ensure_resident restored the session");
        };
        ingest.finish()
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
        if matches!(s.state, LiveState::Resident(_)) {
            return Ok(());
        }
        let engine = self.self_arc();
        // No spill file (a journal-only spill, or a crash before any
        // spill): the journal alone rebuilds the session from byte zero.
        let (mut ingest, restored_to) = match self.read_spill_file(&engine, id, s)? {
            Some(restored) => restored,
            None => (SessionIngest::new(engine), 0),
        };
        // Replay the journal past the spill (all of it without one).
        if restored_to < s.acked {
            let journal_path = self.journal_path(id).ok_or("journaling disabled")?;
            let journal =
                fs::read(&journal_path).map_err(|e| format!("{}: {e}", journal_path.display()))?;
            if (journal.len() as u64) < s.acked {
                return Err(format!(
                    "journal holds {} of {} acked bytes",
                    journal.len(),
                    s.acked
                ));
            }
            ingest.feed(&journal[restored_to as usize..s.acked as usize])?;
        }
        s.state = LiveState::Resident(Box::new(ingest));
        self.state.lock().sessions_restored += 1;
        Ok(())
    }

    /// The ingest in session `id`'s spill file and the offset it was
    /// taken at, or `None` when there is no file to restore from: none
    /// written, none on disk, or one that does not decode. A spill cut
    /// short (killed mid-write, disk full) or damaged is logged and
    /// deleted, since the journal held `[0, acked)` before it began.
    fn read_spill_file(
        &self,
        engine: &Arc<ServeEngine>,
        id: u64,
        s: &mut LiveSession,
    ) -> Result<Option<(SessionIngest, u64)>, String> {
        if !s.files.spill {
            return Ok(None);
        }
        let spill_path = self.spill_path(id).ok_or("spilled without a spill dir")?;
        let blob = match fs::read(&spill_path) {
            Ok(blob) => blob,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                s.files.spill = false;
                return Ok(None);
            }
            Err(e) => return Err(format!("{}: {e}", spill_path.display())),
        };
        match restore_spill_file(engine, &blob, s.acked) {
            Ok(restored) => Ok(Some(restored)),
            Err(e) => {
                eprintln!(
                    "cusan-serve: session {id}: {}: {e}; rebuilding from the journal",
                    spill_path.display()
                );
                let _ = fs::remove_file(&spill_path);
                s.files.spill = false;
                Ok(None)
            }
        }
    }

    /// Spill session `id` if it is registered, resident, and detached.
    /// Returns whether it was spilled. A session whose journal holds at
    /// most [`JOURNAL_ONLY_SPILL`] bytes is spilled by dropping its
    /// in-memory state: the journal is its spill. A larger one writes a
    /// spill file. Public for tests and operational tooling; budget
    /// pressure calls it internally.
    pub fn spill_session(&self, id: u64) -> Result<bool, String> {
        let spill_path = match self.spill_path(id) {
            Some(p) => p,
            None => return Ok(false),
        };
        let Some(sess) = self.lookup(id) else {
            return Ok(false);
        };
        let mut s = sess.lock();
        if s.attach_count > 0 || matches!(s.state, LiveState::Spilled) {
            return Ok(false);
        }
        // The spill file records `acked`; the journal must reach it
        // first, because recovery takes the journal's length for it.
        self.flush_journal(id, &mut s)?;
        let LiveState::Resident(ingest) = std::mem::replace(&mut s.state, LiveState::Spilled)
        else {
            unreachable!("checked resident above");
        };
        let acked = s.acked;
        if acked <= JOURNAL_ONLY_SPILL as u64 {
            drop(ingest);
        } else {
            let file = encode_spill_file(acked, &ingest.spill()?);
            // Set first: a failed write may still have created the file.
            s.files.spill = true;
            fs::write(&spill_path, file).map_err(|e| format!("{}: {e}", spill_path.display()))?;
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
        if self.config.spill_dir.is_none() {
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
    /// (their disk state is removed too — an expired session is gone).
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
                let files = sess.lock().files;
                self.remove_disk_state(id, files);
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
            let files = sess.lock().files;
            self.remove_disk_state(id, files);
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

fn encode_spill_file(acked: u64, ingest_blob: &[u8]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_raw(SPILL_MAGIC);
    w.put_u32(SPILL_VERSION);
    w.put_u64(acked);
    w.put_bytes(ingest_blob);
    w.put_u64(spill_checksum(ingest_blob));
    w.into_bytes()
}

/// 64-bit checksum of a spill file's ingest blob, a word at a time: four
/// lanes each fold every fourth little-endian word with
/// xor-multiply-rotate, then the lanes are folded into the length. Each
/// step is a bijection of the running value for a fixed word, so damage
/// confined to one word always changes the sum; the four lanes keep the
/// multiplies independent (≈ 0.06 ns/byte, 7 µs for a 110 KiB TeaLeaf
/// spill). It catches damage, not an adversary who rewrites the file.
fn spill_checksum(bytes: &[u8]) -> u64 {
    fn mix(h: u64, word: &[u8]) -> u64 {
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word"));
        (h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
    }
    let mut lanes = [1u64, 2, 3, 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word);
        }
    }
    let mut tail = [0u8; 32];
    tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    for (lane, word) in lanes.iter_mut().zip(tail.chunks_exact(8)) {
        *lane = mix(*lane, word);
    }
    lanes
        .iter()
        .fold(bytes.len() as u64, |h, lane| mix(h, &lane.to_le_bytes()))
}

/// Decode a spill file into the ingest it holds and the stream offset it
/// was taken at. A spill never runs ahead of the journal, so an offset
/// beyond `acked` is corruption like any other.
fn restore_spill_file(
    engine: &Arc<ServeEngine>,
    bytes: &[u8],
    acked: u64,
) -> Result<(SessionIngest, u64), String> {
    let mut r = SnapshotReader::new(bytes);
    let err = |e: tsan_rt::SnapshotError| format!("corrupt spill file: {e}");
    if r.get_raw(SPILL_MAGIC.len()).map_err(err)? != SPILL_MAGIC {
        return Err("corrupt spill file: bad magic".to_string());
    }
    let version = r.get_u32().map_err(err)?;
    if version != SPILL_VERSION {
        return Err(format!("unsupported spill version {version}"));
    }
    let acked_at_spill = r.get_u64().map_err(err)?;
    let blob = r.get_bytes().map_err(err)?;
    let checksum = r.get_u64().map_err(err)?;
    r.expect_end().map_err(err)?;
    if checksum != spill_checksum(blob) {
        return Err("corrupt spill file: checksum mismatch".to_string());
    }
    if acked_at_spill > acked {
        return Err(format!(
            "corrupt spill file: taken at offset {acked_at_spill}, journal ends at {acked}"
        ));
    }
    let ingest = SessionIngest::restore(Arc::clone(engine), blob)?;
    Ok((ingest, acked_at_spill))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &[u8] = include_bytes!("../../../tests/data/tealeaf_small.trace");

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
        let dir = crate::unique_scratch_dir("test-freed-at-close");
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
    fn the_spill_checksum_sees_every_flipped_byte() {
        // Lengths around the 32-byte block, so the zero-padded tail is
        // covered; each byte flipped in its low bit, its high bit and
        // whole.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 1, 7, 8, 31, 32, 33, 64, 100] {
            let data = &bytes[..len];
            let sum = spill_checksum(data);
            for at in 0..len {
                for flip in [0x01, 0x80, 0xff] {
                    let mut damaged = data.to_vec();
                    damaged[at] ^= flip;
                    assert_ne!(spill_checksum(&damaged), sum, "len {len}, byte {at}");
                }
            }
            // Zero padding does not hide a shorter or longer blob.
            let mut longer = data.to_vec();
            longer.push(0);
            assert_ne!(spill_checksum(&longer), sum, "len {len} + a zero byte");
        }
    }
}
