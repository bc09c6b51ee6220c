//! Helpers shared by the serve integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory path (not created) that no other call is handed:
/// `temp_dir()/cusan-<tag>-<pid>-<n>`, `n` from a process-wide counter.
/// The pid separates processes; the counter separates callers inside
/// one, which may pass the same tag at the same time (two tests running
/// one chaos seed on two threads).
pub fn unique_scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cusan-{tag}-{}-{n}", std::process::id()))
}
