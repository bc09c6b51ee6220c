//! Hermetic scratch directories: every spill/journal directory the
//! benchmark hands to the product comes from here.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `benchmark/out`, next to this package's manifest: inside the
/// checkout wherever it was built, and ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

static NEXT: AtomicU64 = AtomicU64::new(0);

/// `benchmark/out/tmp-<pid>-<counter>/`, unique within and across
/// processes, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new() -> std::io::Result<ScratchDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new().unwrap();
        let b = ScratchDir::new().unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().starts_with(out_dir()));
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
