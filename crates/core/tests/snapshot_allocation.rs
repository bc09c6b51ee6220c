//! A declared count cannot make a restore reserve memory its blob could
//! not fill. The codec refuses a count unless `count × minimum element
//! encoding` fits in the bytes left, and every section reserves at most
//! 16 bytes per element byte up front (maps and report lists grow as
//! their entries decode). So a session blob of L bytes whose count
//! fields claim the most elements the codec accepts allocates at most
//! 16·L bytes — outside the shadow arena's slabs, whose own guard is
//! `restore_rejects_slabs_the_blob_cannot_back` in the shadow tests.
//!
//! This binary installs a counting global allocator, so it holds this
//! one test alone.

use cusan::{CheckSession, TraceReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use tsan_rt::codec::put_varint;

/// Counts the bytes `alloc` and growing `realloc` hand out on a thread
/// that asked for it. `alloc_zeroed` is not counted: on the restore path
/// the arena's slabs are the only zeroed allocations.
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
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by(f: impl FnOnce()) -> usize {
    ALLOCATED.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATED.load(Ordering::Relaxed)
}

const RACY: &[u8] = include_bytes!("../../../tests/data/tealeaf_small_racy.trace");

#[test]
fn a_declared_count_reserves_at_most_sixteen_bytes_per_blob_byte() {
    // The first tenth of the racy TeaLeaf fixture: every section of the
    // layout, in a blob small enough to cut at every byte.
    let reader = TraceReader::new(RACY).unwrap();
    let mut session = CheckSession::for_header(reader.header());
    let records: Vec<_> = reader.map(Result::unwrap).collect();
    for rec in &records[..records.len() / 10] {
        session.feed(rec).unwrap();
    }
    let blob = session.snapshot_bytes();
    // At every offset past the header a count of `FILLER / min` — the
    // most a section whose elements encode in `min` bytes accepts —
    // followed by bytes that fail the first element's decode.
    const FILLER: usize = 1 << 16;
    let mut hostile = Vec::with_capacity(blob.len() + 10 + FILLER);
    for at in 9..blob.len() {
        for min in 1..=9 {
            hostile.clear();
            hostile.extend_from_slice(&blob[..at]);
            put_varint(&mut hostile, (FILLER / min) as u64);
            hostile.resize(hostile.len() + FILLER, 0xFF);
            let bytes = allocated_by(|| {
                let _ = CheckSession::restore_bytes(&hostile);
            });
            assert!(
                bytes <= 16 * hostile.len(),
                "a count of {} at byte {at} of a {}-byte blob allocated {bytes} bytes",
                FILLER / min,
                hostile.len()
            );
        }
    }
}
