//! Recovery over hostile store bytes. A store file holding three
//! sessions — one journaled only, one with a snapshot and a journal tail
//! past it, one ended — is cut at every length and has every byte
//! flipped; `ServeEngine::recover` must take each variant without a
//! panic and without allocating by what the bytes claim, must never
//! re-register the ended session while its `end` record survives, and
//! every session it does re-register must either finish bit-identical to
//! solo replay or fail typed. A damaged record that is still framed
//! costs its own session alone.
//!
//! This binary installs a counting global allocator; the count is per
//! thread, so a test elsewhere in it cannot disturb the measurement.

mod common;

use cusan_serve::store::{self, RecordKind, STORE_FILE};
use cusan_serve::{solo_summary, EngineConfig, ServeEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const GOLDEN: &[u8] = include_bytes!("../../../tests/data/tealeaf_small.trace");

/// Counts the bytes `alloc` and `alloc_zeroed` hand out on a thread that
/// asked for it. Growth by `realloc` is not counted: the test harness's
/// capture of the line that logs a cut is a buffer that doubles, and an
/// allocation sized by what a length field claims is a fresh one.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs, and its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATED.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATED.load(Ordering::Relaxed), out)
}

/// What one recovery may allocate beyond what an engine over an empty
/// directory does: the scan's one 64 KiB buffer and the index. A length
/// field claiming up to 4 GiB must not move it.
const SCAN_ALLOCATION: usize = 128 << 10;

/// A private directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let p = common::unique_scratch_dir(&format!("test-{name}"));
        std::fs::create_dir_all(&p).expect("create scratch dir");
        ScratchDir(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(dir: &Path) -> EngineConfig {
    EngineConfig {
        spill_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    }
}

/// The three sessions' store, each session a prefix of the golden trace:
/// 1 journaled only, 2 snapshotted with a journal tail past it, 3 ended.
fn three_session_store(dir: &Path) -> Vec<u8> {
    let engine = ServeEngine::new(config(dir));
    engine.open_new(1).unwrap();
    engine.feed(1, 0, &GOLDEN[..600]).unwrap();
    engine.detach(1);

    engine.open_new(2).unwrap();
    engine.feed(2, 0, &GOLDEN[..3000]).unwrap();
    engine.detach(2);
    assert!(engine.spill_session(2).unwrap());
    engine.resume(2).unwrap();
    engine.feed(2, 3000, &GOLDEN[3000..3600]).unwrap();
    engine.detach(2);

    engine.open_new(3).unwrap();
    engine.feed(3, 0, &GOLDEN[..800]).unwrap();
    engine.touch(3).unwrap();
    engine.feed(3, 800, &GOLDEN[800..]).unwrap();
    engine.close(3).unwrap();
    drop(engine);
    std::fs::read(dir.join(STORE_FILE)).unwrap()
}

#[test]
fn a_damaged_record_costs_only_its_own_session() {
    // A flipped byte inside session 1's journal record, the store's
    // first: recovery skips that record and keeps every record after it,
    // so session 2 comes back at its full acked length, session 3 stays
    // ended, and nothing is cut.
    let dir = ScratchDir::new("store-one-damaged");
    let mut file = three_session_store(&dir.0);
    let path = dir.0.join(STORE_FILE);
    let first = store::records(&path).unwrap()[0];
    assert_eq!((first.id, first.kind), (1, RecordKind::Journal));
    file[(first.at + first.len / 2) as usize] ^= 0x01;
    std::fs::write(&path, &file).unwrap();
    let engine = ServeEngine::recover(config(&dir.0)).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), file.len() as u64);
    assert_eq!(engine.live_sessions(), 1);
    assert!(engine.touch(1).is_err() && engine.touch(3).is_err());
    assert_eq!(engine.resume(2).unwrap(), 3600);
    engine.feed(2, 3600, &GOLDEN[3600..]).unwrap();
    assert_eq!(engine.close(2).unwrap(), solo_summary(GOLDEN).unwrap());
}

/// How a recovered session was left: its id, acked offset, the kinds of
/// its surviving records and whether its newest snapshot record is the
/// one written (recovery verifies journal and `end` records, while a
/// snapshot record's checksum is checked by the restore, which rebuilds
/// the session from its journal records in place of any damaged one).
/// Equal keys finish alike, so each is finished once.
type Key = (u64, u64, Vec<RecordKind>, bool);

#[test]
fn recovery_survives_every_cut_and_every_flipped_byte() {
    let built = ScratchDir::new("store-hostile-build");
    let file = three_session_store(&built.0);
    let records = store::records(&built.0.join(STORE_FILE)).unwrap();
    let kinds: Vec<(u64, RecordKind)> = records.iter().map(|r| (r.id, r.kind)).collect();
    assert_eq!(
        kinds,
        [
            (1, RecordKind::Journal),
            (2, RecordKind::Journal),
            (2, RecordKind::Snapshot),
            (2, RecordKind::Journal),
            (3, RecordKind::Journal),
            (3, RecordKind::End),
        ]
    );
    let end = records.last().unwrap();
    let end_of_end = end.at + end.len;
    assert_eq!(end_of_end, file.len() as u64);

    let solo = solo_summary(GOLDEN).unwrap();
    let mut finished: HashMap<Key, bool> = HashMap::new();
    let mut variants: Vec<(String, Vec<u8>)> = (0..=file.len())
        .map(|cut| (format!("cut at {cut}"), file[..cut].to_vec()))
        .collect();
    for at in 0..file.len() {
        for flip in [0x01u8, 0xff] {
            let mut damaged = file.clone();
            damaged[at] ^= flip;
            variants.push((format!("byte {at} ^ {flip:#04x}"), damaged));
        }
    }
    let dir = ScratchDir::new("store-hostile");
    let (engine_alone, engine) = allocated_by(|| ServeEngine::recover(config(&dir.0)));
    drop(engine);
    let (mut identical, mut refused) = (0, 0);
    for (what, bytes) in &variants {
        std::fs::write(dir.0.join(STORE_FILE), bytes).unwrap();
        let (allocated, engine) = allocated_by(|| ServeEngine::recover(config(&dir.0)));
        let engine = engine.unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
        assert!(
            allocated < engine_alone + SCAN_ALLOCATION,
            "{what}: recovery allocated {allocated} bytes, an empty one {engine_alone}"
        );
        // The records recovery indexed: the framed prefix it kept, less
        // the damaged records it skipped.
        let intact = store::records(&dir.0.join(STORE_FILE)).unwrap();
        let kept = intact.last().map_or(0, |r| r.at + r.len);
        let ended = intact
            .iter()
            .any(|r| r.id == 3 && r.kind == RecordKind::End);
        let registered: Vec<u64> = (1..=3).filter(|&id| engine.touch(id).is_ok()).collect();
        assert!(
            !(ended && registered.contains(&3)),
            "{what}: the ended session was re-registered"
        );
        if kept >= end_of_end {
            assert!(!registered.contains(&3), "{what}: re-registered session 3");
        }
        for id in registered {
            let acked = engine.resume(id).unwrap();
            let ours: Vec<&store::Record> = intact.iter().filter(|r| r.id == id).collect();
            let as_written = ours
                .iter()
                .rfind(|r| r.kind == RecordKind::Snapshot)
                .is_none_or(|r| {
                    let (at, end) = (r.at as usize, (r.at + r.len) as usize);
                    file.get(at..end) == Some(&bytes[at..end])
                });
            let key: Key = (id, acked, ours.iter().map(|r| r.kind).collect(), as_written);
            if let Some(&ok) = finished.get(&key) {
                identical += usize::from(ok);
                refused += usize::from(!ok);
                continue;
            }
            assert!(
                acked <= GOLDEN.len() as u64,
                "{what}: session {id} at {acked}"
            );
            let outcome = engine
                .feed(id, acked, &GOLDEN[acked as usize..])
                .map_err(|e| e.to_string())
                .and_then(|_| engine.close(id));
            let ok = match outcome {
                Ok(summary) => {
                    assert_eq!(summary, solo, "{what}: session {id} finished otherwise");
                    true
                }
                Err(e) => {
                    assert!(!e.is_empty(), "{what}: an untyped failure");
                    false
                }
            };
            identical += usize::from(ok);
            refused += usize::from(!ok);
            finished.insert(key, ok);
        }
    }
    // Every variant was taken; most sessions survive their damage.
    assert!(identical > 0, "no session finished ({refused} refused)");
}
