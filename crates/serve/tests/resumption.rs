//! The crash-safety contracts of the serve path, piece by piece:
//! offset-checked exactly-once delivery, typed capacity errors, idle
//! expiry, spill/restore of unfinished sessions (the A/B differential,
//! and the small sessions whose journal is their spill), restart
//! recovery from the journal (also past a torn, corrupt or checksum-
//! failing spill file, and past a directory entry it cannot read), the
//! write-behind journal's invariant (on disk before any ack,
//! detach or spill), socket-level
//! resumption, and canonical-label stability under session churn. The whole-system
//! version of these properties — everything at once under seeded
//! failure schedules — lives in `chaos_serve.rs`.

use cusan_serve::engine::JOURNAL_ONLY_SPILL;
use cusan_serve::proto::{
    close_frame, data_frame, heartbeat_frame, open_frame, parse_reply, quit_frame, read_frame,
    resume_frame, write_frame,
};
use cusan_serve::{
    serve_connection, serve_listener, solo_summary, summary_to_json, AttachError, EngineConfig,
    FeedError, Reply, ServeEngine,
};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

const GOLDEN: &str = include_str!("../../../tests/data/tealeaf_small.trace");

/// A private scratch dir per test (no tempfile crate in this workspace).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let p = cusan_serve::unique_scratch_dir(&format!("test-{name}"));
        std::fs::create_dir_all(&p).expect("create scratch dir");
        ScratchDir(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spilling_config(dir: &ScratchDir) -> EngineConfig {
    EngineConfig {
        check_threads: Some(2),
        spill_dir: Some(dir.0.clone()),
        ..EngineConfig::default()
    }
}

#[test]
fn offset_check_makes_delivery_exactly_once() {
    let engine = ServeEngine::new(EngineConfig::default());
    let bytes = GOLDEN.as_bytes();
    engine.open_new(1).unwrap();

    // In-order bytes append.
    assert_eq!(engine.feed(1, 0, &bytes[..100]).unwrap(), 100);
    // A full duplicate is dropped, not re-fed.
    assert_eq!(engine.feed(1, 0, &bytes[..100]).unwrap(), 100);
    // An overlapping retransmit is prefix-trimmed.
    assert_eq!(engine.feed(1, 50, &bytes[50..150]).unwrap(), 150);
    assert_eq!(engine.stats().duplicate_bytes_dropped, 150);
    // A frame from the future is a recoverable gap, session intact.
    match engine.feed(1, 300, &bytes[300..400]) {
        Err(FeedError::Gap { expected, got }) => assert_eq!((expected, got), (150, 300)),
        other => panic!("expected Gap, got {other:?}"),
    }
    assert_eq!(
        engine.feed(1, 150, &bytes[150..]).unwrap(),
        bytes.len() as u64
    );

    // Despite duplicates, trims, and a gapped frame, the detector saw
    // the stream exactly once.
    let summary = engine.close(1).unwrap();
    assert_eq!(summary, solo_summary(GOLDEN).unwrap());
}

#[test]
fn session_capacity_is_a_graceful_typed_error() {
    let engine = ServeEngine::new(EngineConfig {
        max_sessions: Some(2),
        ..EngineConfig::default()
    });
    engine.open_new(1).unwrap();
    engine.open_new(2).unwrap();
    assert_eq!(engine.open_new(3).unwrap_err(), AttachError::AtCapacity);
    assert_eq!(engine.open_new(1).unwrap_err(), AttachError::AlreadyOpen);
    // Resuming an *unknown* session is an open and hits the cap too;
    // resuming a live one does not.
    assert_eq!(engine.resume(3).unwrap_err(), AttachError::AtCapacity);
    assert_eq!(engine.resume(1).unwrap(), 0);
    // Closing frees a slot.
    let _ = engine.close(1);
    engine.open_new(3).unwrap();

    // Over the wire the cap is an `E` reply on that session — the
    // connection (and its other sessions) keep working.
    let engine = ServeEngine::new(EngineConfig {
        max_sessions: Some(1),
        ..EngineConfig::default()
    });
    let mut request = Vec::new();
    write_frame(&mut request, &resume_frame(10)).unwrap();
    write_frame(&mut request, &resume_frame(11)).unwrap();
    write_frame(&mut request, &quit_frame()).unwrap();
    let mut reply_bytes = Vec::new();
    serve_connection(&engine, &mut request.as_slice(), &mut reply_bytes).unwrap();
    let mut replies = Vec::new();
    let mut r = reply_bytes.as_slice();
    while let Some(payload) = read_frame(&mut r).unwrap() {
        replies.push(parse_reply(&payload).unwrap());
    }
    assert_eq!(replies[0], Reply::Ack { id: 10, acked: 0 });
    assert_eq!(
        replies[1],
        Reply::Error {
            id: 11,
            message: "server at session capacity".to_string()
        }
    );
}

#[test]
fn detached_idle_sessions_expire() {
    let engine = ServeEngine::new(EngineConfig {
        idle_timeout: Some(Duration::from_millis(30)),
        ..EngineConfig::default()
    });
    engine.open_new(1).unwrap();
    engine.feed(1, 0, &GOLDEN.as_bytes()[..200]).unwrap();
    engine.open_new(2).unwrap();

    // Attached sessions never expire, however stale.
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(engine.sweep_idle(), 0);

    // Detached ones do.
    engine.detach(1);
    engine.detach(2);
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(engine.sweep_idle(), 2);
    assert_eq!(engine.stats().sessions_expired, 2);
    assert_eq!(engine.live_sessions(), 0);

    // An expired id resumes as a brand-new session from offset 0.
    assert_eq!(engine.resume(1).unwrap(), 0);
}

#[test]
fn resume_at_idle_expiry_fully_attaches() {
    // A zero idle timeout makes every detached session instantly
    // expirable — the tightest possible race between `resume` and
    // `sweep_idle`. The contract: once `resume` returns Ok, the session
    // is fully attached, so the sweeper must spare it and the very next
    // frame must find it.
    let engine = ServeEngine::new(EngineConfig {
        idle_timeout: Some(Duration::ZERO),
        ..EngineConfig::default()
    });
    engine.open_new(1).unwrap();
    engine.detach(1);
    // Expirable right now — but a resume wins deterministically.
    assert_eq!(engine.resume(1).unwrap(), 0);
    assert_eq!(engine.sweep_idle(), 0, "attached session must not expire");
    assert!(
        engine.touch(1).is_ok(),
        "resume handed back a ghost session"
    );
    engine.detach(1);
    assert_eq!(engine.sweep_idle(), 1);
}

#[test]
fn resume_never_observes_a_half_expired_session() {
    // Regression for the sweep/resume race: `resume` used to look the
    // session up lock-free and bump `attach_count` afterwards, so the
    // sweeper's idle re-check could remove the entry (and its disk
    // state) in between — the client got Ok(acked) for a session that
    // no longer existed, and its next frame failed with "session not
    // open". Hammer the window: a sweeper thread expires non-stop while
    // this thread cycles resume → touch → detach. Every Ok resume must
    // be followed by a successful touch.
    let engine = ServeEngine::new(EngineConfig {
        idle_timeout: Some(Duration::ZERO),
        ..EngineConfig::default()
    });
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sweeper = {
            let engine = Arc::clone(&engine);
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    engine.sweep_idle();
                }
            })
        };
        for i in 0..2000 {
            let acked = engine.resume(1).expect("resume is total up to capacity");
            assert_eq!(acked, 0, "expired sessions restart at offset 0");
            assert!(
                engine.touch(1).is_ok(),
                "iteration {i}: resume returned Ok for a swept session"
            );
            engine.detach(1);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        sweeper.join().unwrap();
    });
}

#[test]
fn spill_restore_roundtrip_is_invisible() {
    // A/B differential: a session spilled to disk mid-trace and
    // transparently restored must finish byte-identically to one that
    // stayed resident the whole time.
    let bytes = GOLDEN.as_bytes();
    let split = bytes.len() / 2;

    let dir = ScratchDir::new("spill-ab");
    let spilled = ServeEngine::new(spilling_config(&dir));
    spilled.open_new(1).unwrap();
    spilled.feed(1, 0, &bytes[..split]).unwrap();
    spilled.detach(1);
    assert!(spilled.spill_session(1).unwrap(), "idle session must spill");
    assert_eq!(spilled.stats().sessions_spilled, 1);
    assert!(
        dir.0.join("session-1.spill").exists(),
        "spill file on disk while spilled"
    );
    // The next frame restores transparently.
    spilled.feed(1, split as u64, &bytes[split..]).unwrap();
    assert_eq!(spilled.stats().sessions_restored, 1);
    let a = spilled.close(1).unwrap();
    assert!(
        !dir.0.join("session-1.spill").exists() && !dir.0.join("session-1.journal").exists(),
        "close clears the session's disk state"
    );

    let resident = ServeEngine::new(EngineConfig {
        check_threads: Some(2),
        ..EngineConfig::default()
    });
    resident.open_new(1).unwrap();
    resident.feed(1, 0, bytes).unwrap();
    let b = resident.close(1).unwrap();

    assert_eq!(a, b, "spill/restore changed the summary");
    assert_eq!(summary_to_json(1, &a), summary_to_json(1, &b));
    assert_eq!(b, solo_summary(GOLDEN).unwrap());
}

#[test]
fn live_budget_spills_idle_sessions_on_detach() {
    let dir = ScratchDir::new("live-budget");
    let engine = ServeEngine::new(EngineConfig {
        check_threads: Some(2),
        spill_dir: Some(dir.0.clone()),
        live_page_budget: Some(0),
        ..EngineConfig::default()
    });
    let bytes = GOLDEN.as_bytes();
    engine.open_new(1).unwrap();
    engine.feed(1, 0, &bytes[..bytes.len() / 2]).unwrap();
    // Attached: budget pressure must not touch it.
    engine.detach(9999); // any detach triggers enforcement
    assert_eq!(engine.stats().sessions_spilled, 0);
    // Detached: a zero budget forces it out.
    engine.detach(1);
    assert_eq!(engine.stats().sessions_spilled, 1);
    // And it still finishes correctly.
    engine
        .feed(1, (bytes.len() / 2) as u64, &bytes[bytes.len() / 2..])
        .unwrap();
    assert_eq!(engine.close(1).unwrap(), solo_summary(GOLDEN).unwrap());
}

#[test]
fn restarted_server_recovers_sessions_from_disk() {
    let bytes = GOLDEN.as_bytes();
    let split = bytes.len() / 3;
    let dir = ScratchDir::new("restart");
    let config = spilling_config(&dir);

    // Generation 1 accepts a third of the trace (journaling as it goes),
    // spills nothing, and "crashes" (dropped mid-session).
    {
        let engine = ServeEngine::new(config.clone());
        engine.open_new(7).unwrap();
        engine.feed(7, 0, &bytes[..split]).unwrap();
        engine.detach(7);
    }

    // Generation 2 recovers from the journal alone.
    let engine = ServeEngine::recover(config.clone()).unwrap();
    assert_eq!(engine.live_sessions(), 1, "journaled session re-registered");
    assert_eq!(engine.resume(7).unwrap(), split as u64);
    engine
        .feed(7, split as u64, &bytes[split..split * 2])
        .unwrap();
    // Spill before the next crash: generation 3 restores spill + journal
    // tail. (The tail is empty here — the spill is the newest state —
    // but the acked offset must still come from the journal.)
    engine.detach(7);
    assert!(engine.spill_session(7).unwrap());
    drop(engine);

    let engine = ServeEngine::recover(config).unwrap();
    assert_eq!(engine.resume(7).unwrap(), (split * 2) as u64);
    engine
        .feed(7, (split * 2) as u64, &bytes[split * 2..])
        .unwrap();
    assert_eq!(engine.close(7).unwrap(), solo_summary(GOLDEN).unwrap());
}

#[test]
fn a_torn_or_corrupt_spill_file_is_rebuilt_from_the_journal() {
    // A server killed inside `fs::write` (or out of disk) leaves a spill
    // file that stops anywhere; a bad sector leaves one that does not
    // decode; an upgrade leaves one in the previous version's layout.
    // None costs the session anything: its journal held every accepted
    // byte before the spill began.
    let bytes = GOLDEN.as_bytes();
    let split = bytes.len() / 2;
    let solo = solo_summary(GOLDEN).unwrap();
    type Damage = fn(&mut Vec<u8>);
    let damages: [(&str, Damage); 8] = [
        ("emptied", |f| f.clear()),
        ("cut inside the magic", |f| f.truncate(5)),
        ("cut inside the header", |f| f.truncate(17)),
        ("cut in half", |f| f.truncate(f.len() / 2)),
        ("one byte short", |f| f.truncate(f.len() - 1)),
        ("magic flipped", |f| f[0] ^= 0xff),
        // Byte 28 is the ingest blob's state tag: 8 magic, 4 version,
        // 8 offset, 8 length.
        ("state tag flipped", |f| f[28] ^= 0xff),
        // Bytes 8..12 are the version (little-endian).
        ("written by layout v4", |f| {
            f[8..12].copy_from_slice(&4u32.to_le_bytes())
        }),
    ];
    // Session 4, spilled half-way through the trace.
    let spilled_half_way = |dir: &ScratchDir| {
        let engine = ServeEngine::new(spilling_config(dir));
        engine.open_new(4).unwrap();
        engine.feed(4, 0, &bytes[..split]).unwrap();
        engine.detach(4);
        assert!(engine.spill_session(4).unwrap());
        engine
    };
    let damage_spill = |dir: &ScratchDir, damage: Damage| {
        let spill = dir.0.join("session-4.spill");
        let mut file = std::fs::read(&spill).unwrap();
        damage(&mut file);
        std::fs::write(&spill, file).unwrap();
        spill
    };
    for (what, damage) in damages {
        let dir = ScratchDir::new("torn-spill");
        let engine = spilled_half_way(&dir);
        let spill = damage_spill(&dir, damage);

        // The same process meets the damage on the next frame …
        engine.feed(4, split as u64, &bytes[split..]).unwrap();
        assert_eq!(engine.stats().sessions_restored, 1, "{what}");
        assert!(!spill.exists(), "{what}: the bad file is discarded");
        assert_eq!(journal(&dir.0, 4), &bytes[..split], "{what}");
        assert_eq!(engine.close(4).unwrap(), solo, "{what}");
    }

    // … and so does a restarted one, whose only copy of the offset is
    // the journal's length: after a crash, and after an upgrade that
    // moved the spill layout under a session spilled by the old binary.
    let restarts: [(&str, Damage); 2] = [
        ("cut inside the version", |f| f.truncate(9)),
        ("written by layout v4", |f| {
            f[8..12].copy_from_slice(&4u32.to_le_bytes())
        }),
    ];
    for (what, damage) in restarts {
        let dir = ScratchDir::new("torn-spill-restart");
        drop(spilled_half_way(&dir));
        damage_spill(&dir, damage);
        let engine = ServeEngine::recover(spilling_config(&dir)).unwrap();
        assert_eq!(engine.resume(4).unwrap(), split as u64, "{what}");
        engine.feed(4, split as u64, &bytes[split..]).unwrap();
        assert_eq!(engine.stats().sessions_restored, 1, "{what}");
        assert_eq!(engine.close(4).unwrap(), solo, "{what}");
        assert_eq!(dir_entries(&dir.0), Vec::<String>::new(), "{what}");
    }

    // Damage the decoder cannot see: one byte of a shadow slot's clock.
    // The blob still restores — into a detector that finishes with
    // another summary — so only the checksum can tell.
    let dir = ScratchDir::new("flipped-slot");
    let engine = spilled_half_way(&dir);
    let spill = dir.0.join("session-4.spill");
    let file = std::fs::read(&spill).unwrap();
    let flipped = slot_value_offsets(&file)
        .into_iter()
        .map(|at| {
            let mut file = file.clone();
            file[at + CLOCK_BYTE] ^= 0xff;
            file
        })
        .find(|file| finishes_otherwise(file, &bytes[split..], &solo))
        .expect("a slot whose clock decides the summary");
    std::fs::write(&spill, flipped).unwrap();
    engine.feed(4, split as u64, &bytes[split..]).unwrap();
    assert_eq!(engine.stats().sessions_restored, 1);
    assert!(!spill.exists(), "the bad file is discarded");
    assert_eq!(engine.close(4).unwrap(), solo);
}

/// Byte of a little-endian shadow slot inside its clock field (bits
/// 20–51): flipping it moves the access far into its fiber's future.
const CLOCK_BYTE: usize = 5;

/// Offsets in a spill file that look like shadow slot values: the
/// detector snapshot writes an unfolded page as tag 2, its block id
/// (two `u32`s), a `u64` count and that many (`u32` slot index, `u64`
/// value) pairs, indices ascending below 2048 and values nonzero.
/// A match need not be one; [`finishes_otherwise`] confirms.
fn slot_value_offsets(file: &[u8]) -> Vec<usize> {
    let u32_at = |at: usize| {
        file.get(at..at + 4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    };
    let u64_at = |at: usize| {
        file.get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    };
    let mut offsets = Vec::new();
    for page in (0..file.len()).filter(|&at| file[at] == 2) {
        let Some(count) = u64_at(page + 9).filter(|n| (1..=2048).contains(n)) else {
            continue;
        };
        let pairs: Option<Vec<(u32, u64)>> = (0..count as usize)
            .map(|k| {
                let at = page + 17 + 12 * k;
                Some((u32_at(at)?, u64_at(at + 4)?))
            })
            .collect();
        let Some(pairs) = pairs else { continue };
        let ascending = pairs.windows(2).all(|w| w[0].0 < w[1].0);
        if ascending && pairs.iter().all(|&(i, v)| i < 2048 && v != 0) {
            offsets.extend((0..pairs.len()).map(|k| page + 17 + 12 * k + 4));
        }
    }
    offsets
}

/// Whether the ingest in spill file `file`, restored past any integrity
/// check, decodes and finishes `rest` with a summary other than `solo`.
fn finishes_otherwise(file: &[u8], rest: &[u8], solo: &cusan::SessionSummary) -> bool {
    // 8 magic, 4 version, 8 offset, then the blob's 8-byte length.
    let len = u64::from_le_bytes(file[20..28].try_into().unwrap()) as usize;
    let engine = ServeEngine::new(EngineConfig::default());
    let Ok(mut ingest) = cusan_serve::SessionIngest::restore(engine.clone(), &file[28..28 + len])
    else {
        return false;
    };
    ingest.feed(rest).is_ok() && ingest.finish().is_ok_and(|s| s != *solo)
}

#[test]
fn a_testsuite_sized_session_spills_as_its_journal_alone() {
    let trace = testsuite_trace("cuda-to-host/memcpy_sync_read");
    let solo = solo_summary(&trace).unwrap();
    let head = trace.len() * 3 / 4;
    assert!(
        head <= JOURNAL_ONLY_SPILL,
        "{head} bytes at the detach point"
    );
    let dir = ScratchDir::new("journal-only-spill");
    let config = EngineConfig {
        live_page_budget: Some(0),
        ..spilling_config(&dir)
    };
    // Fed up to the detach point and detached: the budget spills it.
    let detached = |engine: &ServeEngine, id: u64, bytes: &[u8], at: usize| {
        let spilled = engine.stats().sessions_spilled;
        engine.open_new(id).unwrap();
        engine.feed(id, 0, &bytes[..at]).unwrap();
        engine.detach(id);
        assert_eq!(engine.stats().sessions_spilled, spilled + 1);
    };
    let finish = |engine: &ServeEngine, id: u64, bytes: &[u8], at: usize| {
        assert_eq!(engine.resume(id).unwrap(), at as u64);
        engine.feed(id, at as u64, &bytes[at..]).unwrap();
        engine.close(id)
    };

    // Its journal is its spill.
    let engine = ServeEngine::new(config.clone());
    detached(&engine, 1, &trace, head);
    assert_eq!(dir_entries(&dir.0), ["session-1.journal"]);
    assert_eq!(journal(&dir.0, 1), &trace[..head]);
    assert_eq!(finish(&engine, 1, &trace, head).unwrap(), solo);
    assert_eq!(engine.stats().sessions_restored, 1);
    assert_eq!(dir_entries(&dir.0), Vec::<String>::new());

    // And after a restart.
    detached(&engine, 2, &trace, head);
    drop(engine);
    let engine = ServeEngine::recover(config).unwrap();
    assert_eq!(finish(&engine, 2, &trace, head).unwrap(), solo);
    assert_eq!(dir_entries(&dir.0), Vec::<String>::new());

    // Past the threshold a session still writes a spill file — which
    // alone restores it: the journal is not read.
    let golden = GOLDEN.as_bytes();
    let split = golden.len() / 2;
    assert!(split > JOURNAL_ONLY_SPILL);
    detached(&engine, 3, golden, split);
    let mut files = dir_entries(&dir.0);
    files.sort();
    assert_eq!(files, ["session-3.journal", "session-3.spill"]);
    std::fs::remove_file(dir.0.join("session-3.journal")).unwrap();
    assert_eq!(
        finish(&engine, 3, golden, split).unwrap(),
        solo_summary(GOLDEN).unwrap()
    );
    assert_eq!(dir_entries(&dir.0), Vec::<String>::new());
}

/// Rank 0's trace of testsuite program `name` under the default schedule.
fn testsuite_trace(name: &str) -> Vec<u8> {
    let case = cusan_apps::testsuite::cases()
        .into_iter()
        .find(|c| c.name == name)
        .expect("a testsuite program");
    let out = cusan_apps::testsuite::run_case_scheduled(&case, explore::SchedulePlan::defaults(2));
    let rank = out.ranks.into_iter().next().expect("rank 0");
    rank.trace.expect("scheduled runs are traced")
}

#[cfg(unix)]
#[test]
fn an_unreadable_journal_entry_does_not_block_recovery() {
    let bytes = GOLDEN.as_bytes();
    let split = bytes.len() / 3;
    let dir = ScratchDir::new("recover-dangling");
    {
        let engine = ServeEngine::new(spilling_config(&dir));
        engine.open_new(7).unwrap();
        engine.feed(7, 0, &bytes[..split]).unwrap();
        engine.detach(7);
    }
    std::os::unix::fs::symlink(dir.0.join("gone"), dir.0.join("session-9.journal")).unwrap();
    let engine = ServeEngine::recover(spilling_config(&dir)).expect("recovery skips the entry");
    assert_eq!(engine.live_sessions(), 1);
    assert_eq!(engine.resume(7).unwrap(), split as u64);
    engine.feed(7, split as u64, &bytes[split..]).unwrap();
    assert_eq!(engine.close(7).unwrap(), solo_summary(GOLDEN).unwrap());
}

#[test]
fn closing_an_unrestorable_session_leaves_nothing_to_recover() {
    // Spill gone and the journal shorter than what was acknowledged:
    // nothing can rebuild session 6. `close` fails, and it must take the
    // session's files with it — the id is already out of the registry, so
    // nobody else will, and a restart would re-register a session that
    // can never finish.
    let bytes = GOLDEN.as_bytes();
    let split = bytes.len() / 2;
    let dir = ScratchDir::new("close-unrestorable");
    let engine = ServeEngine::new(spilling_config(&dir));
    engine.open_new(6).unwrap();
    engine.feed(6, 0, &bytes[..split]).unwrap();
    engine.detach(6);
    assert!(engine.spill_session(6).unwrap());
    std::fs::remove_file(dir.0.join("session-6.spill")).unwrap();
    let journal_path = dir.0.join("session-6.journal");
    let journal_file = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal_path)
        .unwrap();
    journal_file.set_len(split as u64 / 2).unwrap();
    drop(journal_file);

    let err = engine.close(6).unwrap_err();
    assert!(err.contains("acked bytes"), "{err}");
    assert_eq!(engine.live_sessions(), 0);
    assert_eq!(dir_entries(&dir.0), Vec::<String>::new());
    drop(engine);
    let engine = ServeEngine::recover(spilling_config(&dir)).unwrap();
    assert_eq!(engine.live_sessions(), 0, "nothing to resurrect");
}

/// The client half of a connection as a script: hands `serve_connection`
/// one frame at a time and calls `between(k)` each time the server comes
/// back for frame `k` — that is, once it has handled, and replied to,
/// every frame before it (`k == frames.len()` is the EOF that ends the
/// connection).
struct Script<F: FnMut(usize)> {
    frames: Vec<Vec<u8>>,
    next: usize,
    pos: usize,
    between: F,
}

impl<F: FnMut(usize)> Script<F> {
    fn new(payloads: &[Vec<u8>], between: F) -> Script<F> {
        let frames = payloads
            .iter()
            .map(|p| {
                let mut wire = Vec::new();
                write_frame(&mut wire, p).unwrap();
                wire
            })
            .collect();
        Script {
            frames,
            next: 0,
            pos: 0,
            between,
        }
    }
}

impl<F: FnMut(usize)> Read for Script<F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == 0 {
            (self.between)(self.next);
        }
        let Some(frame) = self.frames.get(self.next) else {
            return Ok(0);
        };
        let n = buf.len().min(frame.len() - self.pos);
        buf[..n].copy_from_slice(&frame[self.pos..self.pos + n]);
        self.pos += n;
        if self.pos == frame.len() {
            self.next += 1;
            self.pos = 0;
        }
        Ok(n)
    }
}

/// The server half's writer, readable from the script's callback.
#[derive(Clone, Default)]
struct Replies(Rc<RefCell<Vec<u8>>>);

impl Write for Replies {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Replies {
    fn parsed(&self) -> Vec<Reply> {
        let bytes = self.0.borrow();
        let mut r = bytes.as_slice();
        let mut out = Vec::new();
        while let Some(payload) = read_frame(&mut r).unwrap() {
            out.push(parse_reply(&payload).unwrap());
        }
        out
    }
}

fn dir_entries(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// Bytes of session `id`'s journal file (absent: none).
fn journal(dir: &Path, id: u64) -> Vec<u8> {
    match std::fs::read(dir.join(format!("session-{id}.journal"))) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("reading journal {id}: {e}"),
    }
}

fn data_frames(id: u64, bytes: &[u8], from: usize, chunk: usize) -> Vec<Vec<u8>> {
    bytes[from..]
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| data_frame(id, (from + i * chunk) as u64, c))
        .collect()
}

#[test]
fn a_session_that_never_asks_for_an_ack_touches_no_file() {
    // Open, stream, close on one connection — what every `check_traces`
    // client does. No offset ever leaves the process and the session
    // never leaves its connection, so there is nothing a restarted
    // server could be asked to re-derive: the spill dir stays empty
    // after every single frame.
    let dir = ScratchDir::new("no-ack-no-file");
    let engine = ServeEngine::new(spilling_config(&dir));
    let mut frames = vec![open_frame(3)];
    frames.extend(data_frames(3, GOLDEN.as_bytes(), 0, 4096));
    assert!(frames.len() > 5, "several data frames");
    frames.push(close_frame(3));
    let replies = Replies::default();
    let mut script = Script::new(&frames, |k| {
        assert_eq!(
            dir_entries(&dir.0),
            Vec::<String>::new(),
            "disk touched before frame {k}"
        );
    });
    serve_connection(&engine, &mut script, &mut replies.clone()).unwrap();
    assert_eq!(
        replies.parsed(),
        vec![Reply::Summary {
            id: 3,
            json: summary_to_json(3, &solo_summary(GOLDEN).unwrap())
        }]
    );
}

#[test]
fn every_acked_offset_is_already_in_the_journal() {
    // The invariant as the wire shows it: whenever an `A` reply is out,
    // the journal file holds exactly the acked prefix of the stream —
    // so `recover`, which takes the file's length for the offset, can
    // never hand a resuming client an offset it has to skip bytes for.
    let dir = ScratchDir::new("ack-means-journaled");
    let engine = ServeEngine::new(spilling_config(&dir));
    let bytes = GOLDEN.as_bytes();
    let (a, b) = (bytes.len() / 3, bytes.len() * 2 / 3);
    let mut frames = vec![resume_frame(5)];
    frames.extend(data_frames(5, &bytes[..a], 0, 1000));
    frames.push(heartbeat_frame(5));
    frames.extend(data_frames(5, &bytes[..b], a, 1000));
    frames.push(resume_frame(5)); // a duplicate resume is a touch
    frames.extend(data_frames(5, bytes, b, 1000));
    let ack_frames: Vec<usize> = (0..frames.len())
        .filter(|&k| matches!(frames[k][0], b'R' | b'H'))
        .collect();
    let replies = Replies::default();
    let mut acks_checked = 0;
    let mut script = Script::new(&frames, |k| {
        // Frame k-1 has just been handled; if it was acked, its reply is
        // the last one out.
        if k == 0 || !ack_frames.contains(&(k - 1)) {
            return;
        }
        let Some(Reply::Ack { id: 5, acked }) = replies.parsed().pop() else {
            panic!("frame {} must be answered with an ack", k - 1);
        };
        assert_eq!(journal(&dir.0, 5), &bytes[..acked as usize]);
        acks_checked += 1;
    });
    serve_connection(&engine, &mut script, &mut replies.clone()).unwrap();
    assert_eq!(acks_checked, 3);
    let acked: Vec<u64> = replies
        .parsed()
        .iter()
        .map(|r| match r {
            Reply::Ack { id: 5, acked } => *acked,
            other => panic!("expected acks only, got {other:?}"),
        })
        .collect();
    assert_eq!(acked, vec![0, a as u64, b as u64]);
    // The connection ended without a close: the detach wrote the rest,
    // and a restarted server resumes at the full length.
    assert_eq!(journal(&dir.0, 5), bytes);
    drop(engine);
    let engine = ServeEngine::recover(spilling_config(&dir)).unwrap();
    assert_eq!(engine.resume(5).unwrap(), bytes.len() as u64);
    assert_eq!(engine.close(5).unwrap(), solo_summary(GOLDEN).unwrap());
    assert_eq!(dir_entries(&dir.0), Vec::<String>::new());
}

#[test]
fn unacked_bytes_trail_the_journal_by_at_most_the_write_behind_bound() {
    // An attached uploader that never asks for an ack: what a crash can
    // cost it is bounded, and what the journal does hold is a prefix of
    // its stream. The golden trace padded with counter bumps to 200 KiB.
    const BOUND: u64 = cusan_serve::engine::JOURNAL_WRITE_BEHIND as u64;
    let mut trace = GOLDEN.as_bytes().to_vec();
    while trace.len() < 200 << 10 {
        trace.extend_from_slice(b"cb 4 1\n");
    }
    let dir = ScratchDir::new("write-behind-bound");
    let engine = ServeEngine::new(spilling_config(&dir));
    engine.open_new(1).unwrap();
    let mut acked = 0;
    for chunk in trace.chunks(4096) {
        acked = engine.feed(1, acked, chunk).unwrap();
        let held = journal(&dir.0, 1);
        assert!(
            held.len() as u64 + BOUND > acked && held.len() as u64 <= acked,
            "journal holds {} of {acked} accepted bytes",
            held.len()
        );
        assert_eq!(held, &trace[..held.len()]);
    }
    assert_eq!(acked, trace.len() as u64);
    assert!(!journal(&dir.0, 1).is_empty(), "the bound forced writes");
    // Asking closes the gap.
    assert_eq!(engine.touch(1).unwrap(), acked);
    assert_eq!(journal(&dir.0, 1), trace);
    assert_eq!(engine.close(1).unwrap(), solo_summary(&trace).unwrap());
    assert_eq!(dir_entries(&dir.0), Vec::<String>::new());
}

#[test]
fn a_journal_write_failure_drops_the_session() {
    // A spill dir that is a regular file: every journal write fails.
    // The failure surfaces where the journal is first needed (the `H`'s
    // ack), as one `E`; the session is dropped like one whose trace
    // failed to parse — not left attached to a connection that has
    // forgotten it, immune to the idle sweep and failing every frame.
    let dir = ScratchDir::new("journal-failure");
    let not_a_dir = dir.0.join("plain-file");
    std::fs::write(&not_a_dir, b"").unwrap();
    let engine = ServeEngine::new(EngineConfig {
        spill_dir: Some(not_a_dir),
        ..EngineConfig::default()
    });
    let mut request = Vec::new();
    write_frame(&mut request, &open_frame(1)).unwrap();
    write_frame(&mut request, &data_frame(1, 0, &GOLDEN.as_bytes()[..500])).unwrap();
    write_frame(&mut request, &heartbeat_frame(1)).unwrap();
    write_frame(&mut request, &quit_frame()).unwrap();
    let replies = Replies::default();
    serve_connection(&engine, &mut request.as_slice(), &mut replies.clone()).unwrap();
    match replies.parsed().as_slice() {
        [Reply::Error { id: 1, message }] => {
            assert!(message.starts_with("journal "), "got: {message}")
        }
        other => panic!("expected exactly one error, got {other:?}"),
    }
    assert_eq!(engine.live_sessions(), 0);
    // The id is free again (not `AlreadyOpen`), and resuming it starts
    // from nothing.
    engine.open_new(1).unwrap();
    engine.detach(1);
    assert_eq!(engine.resume(1).unwrap(), 0);
}

#[test]
fn dropping_the_engine_frees_its_resident_sessions() {
    // A server generation that dies with sessions mid-trace (what the
    // test above calls a crash) must not outlive its last handle: the
    // registry owns the session and the session must not own the engine
    // back, or the engine, the session and the pool workers polling for
    // it all leak.
    let engine = ServeEngine::new(EngineConfig {
        check_threads: Some(2),
        ..EngineConfig::default()
    });
    let bytes = GOLDEN.as_bytes();
    engine.open_new(1).unwrap();
    engine.feed(1, 0, &bytes[..bytes.len() / 2]).unwrap();
    let pool = Arc::clone(engine.pool());
    assert_eq!(pool.session_count(), 1, "half-fed session is registered");
    assert_eq!(pool.worker_count(), 2);

    let weak = Arc::downgrade(&engine);
    drop(engine);
    assert!(weak.upgrade().is_none(), "resident session kept the engine");
    assert_eq!(pool.session_count(), 0, "session left the pool");
    // Workers notice the empty registration set within a few parks.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pool.worker_count() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pool.worker_count(), 0, "idle workers must exit");
}

#[test]
fn socket_resumption_survives_a_mid_trace_disconnect() {
    let engine = ServeEngine::new(EngineConfig {
        check_threads: Some(2),
        ..EngineConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_listener(engine, listener, Some(2)))
    };
    let bytes = GOLDEN.as_bytes();
    let split = bytes.len() * 2 / 3;

    // Connection 1: attach, stream two thirds, vanish without closing.
    {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_frame(&mut writer, &resume_frame(5)).unwrap();
        let ack = parse_reply(&read_frame(&mut reader).unwrap().unwrap()).unwrap();
        assert_eq!(ack, Reply::Ack { id: 5, acked: 0 });
        for (i, chunk) in bytes[..split].chunks(512).enumerate() {
            write_frame(&mut writer, &data_frame(5, (i * 512) as u64, chunk)).unwrap();
        }
        // Heartbeat-sync before vanishing: the ack proves the server
        // consumed every data frame, so connection 2's resume below must
        // observe the full offset (without it, connection 2 can race the
        // server's drain of this connection's buffered frames and learn a
        // smaller — still correct, just earlier — offset).
        write_frame(&mut writer, &heartbeat_frame(5)).unwrap();
        let ack = parse_reply(&read_frame(&mut reader).unwrap().unwrap()).unwrap();
        assert_eq!(
            ack,
            Reply::Ack {
                id: 5,
                acked: split as u64
            }
        );
        // Drop both halves: the server sees EOF mid-session and detaches.
    }

    // Connection 2: resume, learn the acked offset, finish the trace.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_frame(&mut writer, &resume_frame(5)).unwrap();
    let acked = match parse_reply(&read_frame(&mut reader).unwrap().unwrap()).unwrap() {
        Reply::Ack { id: 5, acked } => acked,
        other => panic!("expected ack, got {other:?}"),
    };
    assert_eq!(acked, split as u64, "server acked what connection 1 sent");
    write_frame(&mut writer, &data_frame(5, acked, &bytes[split..])).unwrap();
    write_frame(&mut writer, &close_frame(5)).unwrap();
    write_frame(&mut writer, &quit_frame()).unwrap();
    match parse_reply(&read_frame(&mut reader).unwrap().unwrap()).unwrap() {
        Reply::Summary { id: 5, json } => {
            assert_eq!(json, summary_to_json(5, &solo_summary(GOLDEN).unwrap()));
        }
        other => panic!("expected summary, got {other:?}"),
    }
    server.join().unwrap().unwrap();
    assert_eq!(engine.stats().sessions_resumed, 1);
}

#[test]
fn canonical_labels_never_alias_across_session_churn() {
    use cusan_serve::SessionIngest;
    use std::collections::HashMap;

    // Open and finish sessions from several threads while recording
    // which canonical Arc each label resolves to; a label must map to
    // exactly one allocation for as long as anyone holds it (a finished
    // session's teardown must never free or rebind a canonical label
    // under a holder), and distinct labels must never share one.
    let engine = ServeEngine::new(EngineConfig {
        check_threads: Some(2),
        ..EngineConfig::default()
    });
    let witnessed: Vec<HashMap<String, Vec<Arc<str>>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let mut seen: HashMap<String, Vec<Arc<str>>> = HashMap::new();
                    for _ in 0..8 {
                        let mut ingest = SessionIngest::new(Arc::clone(&engine));
                        for chunk in GOLDEN.as_bytes().chunks(4096) {
                            ingest.feed(chunk).unwrap();
                        }
                        ingest.finish().unwrap();
                        for label in ["cuda.kernel_calls", "host", "stream 1"] {
                            let arc = engine.labels().canon(&Arc::from(label));
                            seen.entry(label.to_string()).or_default().push(arc);
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.stats().sessions_finished, 32);
    let mut canonical: HashMap<String, Arc<str>> = HashMap::new();
    for seen in &witnessed {
        for (label, arcs) in seen {
            for arc in arcs {
                assert_eq!(&**arc, label.as_str(), "canonical arc content mutated");
                let first = canonical
                    .entry(label.clone())
                    .or_insert_with(|| arc.clone());
                assert!(
                    Arc::ptr_eq(first, arc),
                    "label {label:?} rebound to a second allocation across generations"
                );
            }
        }
    }
    let ptrs: Vec<*const u8> = canonical.values().map(|a| a.as_ptr()).collect();
    let distinct: std::collections::HashSet<_> = ptrs.iter().collect();
    assert_eq!(ptrs.len(), distinct.len(), "distinct labels share an arc");
}
