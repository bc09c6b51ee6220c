//! A length prefix cannot make `read_frame` reserve memory its payload
//! has not delivered. The codec accepts any length up to `MAX_FRAME`
//! (16 MiB), and `listen` admits 1024 connections, so a reader that
//! reserved the declared length up front would let 4-byte prefixes pin
//! 16 GiB. The payload buffer starts at a small constant and grows with
//! the bytes that arrive.
//!
//! This binary installs a counting global allocator; the count is per
//! thread, so a test elsewhere in it cannot disturb the measurement.

use cusan_serve::proto::{read_frame, FrameError, MAX_FRAME};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the bytes `alloc`, `alloc_zeroed` and growing `realloc` hand
/// out on a thread that asked for it.
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
        note(new_size.saturating_sub(layout.size()));
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

#[test]
fn a_frame_claiming_the_cap_allocates_only_what_arrived() {
    let mut wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(&[7u8; 10]);
    let mut r: &[u8] = &wire;
    let (bytes, result) = allocated_by(|| read_frame(&mut r));
    match result {
        Err(FrameError::TruncatedPayload { got, want }) => {
            assert_eq!((got, want), (10, MAX_FRAME));
        }
        other => panic!("expected TruncatedPayload, got {other:?}"),
    }
    assert!(
        bytes < 64 << 10,
        "a 10-byte payload claiming {MAX_FRAME} bytes allocated {bytes} bytes"
    );
}
