//! Cross-session label sharing.
//!
//! Every session keeps its own dense mirror string table (ids are
//! per-trace), but the label *bytes* repeat massively across sessions:
//! all TeaLeaf ranks intern the same `"kernel dot arg#0 … [read]"`
//! strings. [`SharedLabels`] is the process-wide canonicalization map:
//! the first session to present a label donates its `Arc<str>`, every
//! later session gets a clone of that same allocation, and
//! [`cusan::CheckSession::intern_shared`] turns the clone into a table
//! entry with a refcount bump instead of a byte copy.
//!
//! The table holds a label only while someone else does: once it has
//! doubled since the last sweep (never below `SWEEP_FLOOR`, 4096
//! entries), entries whose only reference is the table's own are
//! dropped, so a server fed session-unique labels for a week stays
//! bounded by its live sessions.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Table size below which no sweep runs. Far above what one application
/// interns (the whole test corpus stays under it), so sharing between
/// back-to-back sessions of the same app is never given up.
const SWEEP_FLOOR: usize = 4096;

#[derive(Default)]
struct Table {
    map: HashMap<Arc<str>, ()>,
    /// Entries the last sweep left behind.
    kept: usize,
}

/// Process-wide canonical label table (see the module docs).
#[derive(Default)]
pub struct SharedLabels {
    table: RwLock<Table>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedLabels {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical `Arc` for `label`: the existing entry's allocation if
    /// one exists, otherwise `label` itself becomes the canonical entry
    /// (no copy either way).
    pub fn canon(&self, label: &Arc<str>) -> Arc<str> {
        if let Some((k, ())) = self.table.read().map.get_key_value(&**label) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(k);
        }
        let mut w = self.table.write();
        // Double-checked: another session may have inserted it between
        // the read unlock and the write lock.
        if let Some((k, ())) = w.map.get_key_value(&**label) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(k);
        }
        w.map.insert(Arc::clone(label), ());
        self.misses.fetch_add(1, Ordering::Relaxed);
        if w.map.len() >= (2 * w.kept).max(SWEEP_FLOOR) {
            // Clones are only handed out under this lock, so a count of
            // one means nobody can still be using the entry (the label
            // just inserted is also held by the caller and stays).
            w.map.retain(|k, ()| Arc::strong_count(k) > 1);
            w.kept = w.map.len();
        }
        Arc::clone(label)
    }

    /// Distinct labels the table holds now.
    pub fn unique(&self) -> u64 {
        self.table.read().map.len() as u64
    }

    /// Lookups satisfied by an existing entry (each hit is one avoided
    /// label copy).
    pub fn shared(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_returns_the_same_allocation() {
        let t = SharedLabels::new();
        let a: Arc<str> = Arc::from("kernel dot arg#0 [read]");
        let b: Arc<str> = Arc::from("kernel dot arg#0 [read]");
        assert!(!Arc::ptr_eq(&a, &b));
        let ca = t.canon(&a);
        let cb = t.canon(&b);
        assert!(Arc::ptr_eq(&ca, &cb), "both resolve to one allocation");
        assert!(Arc::ptr_eq(&ca, &a), "first presenter donates its arc");
        assert_eq!(t.unique(), 1);
        assert_eq!(t.shared(), 1);
    }

    #[test]
    fn distinct_labels_stay_distinct() {
        let t = SharedLabels::new();
        let a = t.canon(&Arc::from("a"));
        let b = t.canon(&Arc::from("b"));
        assert_ne!(&*a, &*b);
        assert_eq!(t.unique(), 2);
        assert_eq!(t.shared(), 0);
    }

    #[test]
    fn labels_nobody_holds_are_swept() {
        // What a week of sessions with session-unique labels does to the
        // table: each session gets its canonical arcs and drops them
        // when it finishes. One label stays held throughout.
        let t = SharedLabels::new();
        let live = t.canon(&Arc::from("held by a live session"));
        for i in 0..10_000 {
            let finished = t.canon(&Arc::from(format!("session-unique label {i}")));
            assert_eq!(Arc::strong_count(&finished), 2, "caller + table");
            assert!(t.unique() <= SWEEP_FLOOR as u64, "at label {i}");
        }
        assert_eq!(t.misses.load(Ordering::Relaxed), 10_001, "all were new");
        let again = t.canon(&Arc::from("held by a live session"));
        assert!(Arc::ptr_eq(&again, &live), "a held label keeps its arc");
        assert_eq!(t.shared(), 1);
    }
}
