//! The TSan-style runtime: fibers + shadow + sync vars + reporting.

use crate::clock::VectorClock;
use crate::fiber::{FiberId, FiberTable};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::report::{label, CtxId, RaceReport, RaceSide, Suppressions};
use crate::shadow::ShadowMemory;
use crate::snapshot::{
    read_clock, write_clock, SnapshotError, SnapshotReader, SnapshotWriter, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use crate::stats::TsanStats;
use std::sync::Arc;

/// Key identifying a synchronization variable — the analogue of the memory
/// address passed to `AnnotateHappensBefore/After`. CuSan derives keys from
/// stream/event identities; MUST derives them from MPI request identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SyncKey(pub u64);

/// Default cap on retained race reports (detection continues counting
/// after the cap; only report storage stops growing).
pub const DEFAULT_MAX_REPORTS: usize = 256;

/// A per-rank ThreadSanitizer-style runtime. See crate docs.
///
/// Not `Sync` on purpose: one runtime per simulated MPI process, used from
/// that rank's thread only.
pub struct TsanRuntime {
    fibers: FiberTable,
    current: FiberId,
    shadow: ShadowMemory,
    /// The released clock of each synchronization variable.
    sync_vars: FxHashMap<u64, VectorClock>,
    /// The label of every defined context id, in id order: report text
    /// and fiber names.
    labels: Vec<Arc<str>>,
    reports: Vec<RaceReport>,
    report_keys: FxHashSet<(u32, u32)>,
    suppressions: Suppressions,
    stats: TsanStats,
    max_reports: usize,
}

impl TsanRuntime {
    /// New runtime; the calling context becomes the host fiber.
    pub fn new(host_name: &str) -> Self {
        let mut rt = TsanRuntime {
            fibers: FiberTable::new(host_name),
            current: FiberId::HOST,
            shadow: ShadowMemory::new(),
            sync_vars: FxHashMap::default(),
            labels: Vec::new(),
            reports: Vec::new(),
            report_keys: FxHashSet::default(),
            suppressions: Suppressions::default(),
            stats: TsanStats::default(),
            max_reports: DEFAULT_MAX_REPORTS,
        };
        rt.stats.fibers_created = 1;
        rt
    }

    // ---- fibers -----------------------------------------------------------

    /// The currently active fiber.
    pub fn current_fiber(&self) -> FiberId {
        self.current
    }

    /// Create a fiber named by the defined label `name`; its clock
    /// inherits the *current* fiber's clock (creation synchronizes
    /// creator → new fiber, as in TSan).
    pub fn create_fiber(&mut self, name: CtxId) -> FiberId {
        self.stats.fibers_created += 1;
        // Creation is a release: accesses the creator performs *after* the
        // creation must not appear ordered before the new fiber's work.
        // `create_child` snapshots the creator's pre-bump clock in place,
        // avoiding the per-creation temporary clone this op used to make.
        self.fibers.create_child(name, self.current)
    }

    /// Sink-facing apply API: the id the next [`Self::create_fiber`] call
    /// will return. Event pipelines use this to stamp a `FiberCreate`
    /// event with its id *before* the creating sink applies it, so a
    /// recorded trace replayed against a fresh runtime reproduces the
    /// exact same fiber numbering (checked by the checker sink).
    pub fn peek_next_fiber(&self) -> FiberId {
        self.fibers.peek_next()
    }

    /// Whether `f` names a fiber that exists and has not been destroyed —
    /// the precondition of switching to it or destroying it. Callers
    /// applying fiber operations they did not produce themselves (a
    /// recorded trace) check it first; the operations assert it.
    pub fn is_fiber_alive(&self, f: FiberId) -> bool {
        self.fibers.is_alive(f)
    }

    /// Destroy a fiber. Must not be the current fiber or the host fiber.
    pub fn destroy_fiber(&mut self, f: FiberId) {
        assert!(f != self.current, "cannot destroy the active fiber");
        self.stats.fibers_destroyed += 1;
        self.fibers.destroy(f);
    }

    /// Switch the active fiber. **No synchronization implied** (paper
    /// §II-A: "Such fiber switches do not imply a synchronization") — the
    /// analogue of `__tsan_switch_to_fiber(f, TSAN_SWITCH_FIBER_NO_SYNC)`.
    pub fn switch_to_fiber(&mut self, f: FiberId) {
        assert!(self.fibers.is_alive(f), "switch to dead fiber {f:?}");
        self.stats.fiber_switches += 1;
        self.current = f;
    }

    /// Switch the active fiber, establishing happens-before from the
    /// current fiber to the target — `__tsan_switch_to_fiber(f, 0)`.
    /// CuSan uses this when entering a stream fiber for a device
    /// operation: the operation is ordered after everything the host did
    /// before submitting it, while nothing flows back on the return
    /// switch.
    pub fn switch_to_fiber_sync(&mut self, f: FiberId) {
        assert!(self.fibers.is_alive(f), "switch to dead fiber {f:?}");
        self.stats.fiber_switches += 1;
        if f != self.current {
            self.stats.full_clock_joins += 1;
            let (to, from) = self.fibers.pair_mut(f, self.current);
            to.clock.join(&from.clock);
        }
        self.current = f;
    }

    /// Name of a fiber (for diagnostics).
    pub fn fiber_name(&self, f: FiberId) -> &str {
        self.fibers.name(f, &self.labels)
    }

    // ---- synchronization annotations -------------------------------------

    /// `AnnotateHappensBefore(key)`: release the current fiber's clock into
    /// the sync variable, then advance the fiber's own epoch.
    pub fn annotate_happens_before(&mut self, key: SyncKey) {
        self.stats.happens_before += 1;
        let cur = self.current;
        // Split borrows: `sync_vars` and `fibers` are disjoint fields, so
        // the release can join by reference; the steady-state path (the
        // sync var already exists) performs no clock allocation at all.
        let clock = &self.fibers.get(cur).clock;
        match self.sync_vars.entry(key.0) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(clock.clone());
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                self.stats.full_clock_joins += 1;
                o.get_mut().join(clock);
            }
        }
        self.fibers.get_mut(cur).clock.bump(cur);
    }

    /// `AnnotateHappensAfter(key)`: acquire the sync variable into the
    /// current fiber's clock. Returns `false` if no release was ever issued
    /// on `key` (the annotation is then a no-op, as in TSan).
    pub fn annotate_happens_after(&mut self, key: SyncKey) -> bool {
        self.stats.happens_after += 1;
        let Some(released) = self.sync_vars.get(&key.0) else {
            return false;
        };
        self.stats.full_clock_joins += 1;
        self.fibers.get_mut(self.current).clock.join(released);
        true
    }

    // ---- memory access annotations ----------------------------------------

    /// Define the next label id — the name of an access context or a
    /// fiber. The table is append-only and does not dedup: its owner
    /// defines each label once, in its own id order, so ids mean the same
    /// on both sides. Range annotations may use ids below
    /// [`crate::report::MAX_CTXS`] only.
    pub fn define_ctx(&mut self, label: Arc<str>) -> CtxId {
        let id = CtxId(self.labels.len() as u32);
        self.labels.push(label);
        id
    }

    /// Every defined label, in id order.
    pub fn labels(&self) -> &[Arc<str>] {
        &self.labels
    }

    /// `tsan_read_range(addr, len)` with an access context.
    pub fn read_range(&mut self, addr: u64, len: u64, ctx: CtxId) {
        self.stats.read_range_calls += 1;
        self.stats.read_bytes += len;
        self.access(addr, len, false, ctx);
    }

    /// `tsan_write_range(addr, len)` with an access context.
    pub fn write_range(&mut self, addr: u64, len: u64, ctx: CtxId) {
        self.stats.write_range_calls += 1;
        self.stats.write_bytes += len;
        self.access(addr, len, true, ctx);
    }

    fn access(&mut self, addr: u64, len: u64, write: bool, ctx: CtxId) {
        let cur = self.current;
        let clock_val = self.fibers.get(cur).clock.get(cur);
        let Self {
            fibers,
            shadow,
            labels,
            reports,
            report_keys,
            suppressions,
            stats,
            max_reports,
            ..
        } = self;
        let fibers: &FiberTable = fibers;
        let fiber_clock = &fibers.get(cur).clock;
        shadow.access_range(addr, len, write, cur, clock_val, ctx, fiber_clock, |c| {
            // A run of `c.words` identically-conflicting words folds in
            // one step: word-by-word, the first word's insert decides
            // and every later word of the run is a duplicate.
            let key = (ctx.0, c.prev.ctx.0);
            let new_key = report_keys.insert(key);
            stats.races_deduped += c.words - u64::from(new_key);
            if !new_key {
                return;
            }
            let report = RaceReport {
                addr: c.word_addr,
                current: RaceSide {
                    write,
                    fiber: fibers.name(cur, labels).to_string(),
                    ctx: label(labels, ctx).to_string(),
                },
                previous: RaceSide {
                    write: c.prev.write,
                    fiber: fibers.name(c.prev.fiber, labels).to_string(),
                    ctx: label(labels, c.prev.ctx).to_string(),
                },
            };
            if suppressions.matches(&report) {
                stats.races_suppressed += 1;
            } else {
                stats.races_reported += 1;
                if reports.len() < *max_reports {
                    reports.push(report);
                }
            }
        });
    }

    // ---- reporting ---------------------------------------------------------

    /// Retained race reports.
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Drain retained reports.
    pub fn take_reports(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports)
    }

    /// Total races reported (post-dedup, pre-cap).
    pub fn race_count(&self) -> u64 {
        self.stats.races_reported
    }

    /// Install a suppression pattern.
    pub fn add_suppression(&mut self, pattern: &str) {
        self.suppressions.add(pattern);
    }

    // ---- accounting --------------------------------------------------------

    /// Counter snapshot.
    pub fn stats(&self) -> TsanStats {
        let mut s = self.stats;
        s.fibers_created = self.fibers.created;
        s.fibers_destroyed = self.fibers.destroyed;
        let c = self.shadow.counters();
        s.page_summaries_stored = c.page_summaries_stored;
        s.page_unfolds = c.page_unfolds;
        s.dropped_annotations = c.dropped_annotations;
        s.arena_pages_reused = c.arena_pages_reused;
        s.arena_slabs_allocated = c.arena_slabs_allocated;
        s.arena_pages_evicted = c.arena_pages_evicted;
        s
    }

    /// Cap the shadow's page count; past the budget the detector runs in
    /// counted best-effort mode (see
    /// [`crate::shadow::ShadowMemory::set_page_budget`]). `None` =
    /// unlimited (the default).
    pub fn set_shadow_page_budget(&mut self, budget: Option<usize>) {
        self.shadow.set_page_budget(budget);
    }

    /// The configured shadow page budget.
    pub fn shadow_page_budget(&self) -> Option<usize> {
        self.shadow.page_budget()
    }

    /// Drop the shadow page covering `addr`, recycling its slot block
    /// into the arena free list (see
    /// [`crate::shadow::ShadowMemory::discard_page`]). Returns whether a
    /// page was discarded.
    pub fn discard_shadow_page(&mut self, addr: u64) -> bool {
        self.shadow.discard_page(addr)
    }

    /// Approximate heap bytes owned by the detector: shadow pages, vector
    /// clocks, sync variables, label handles. Drives Fig. 11.
    pub fn memory_bytes(&self) -> u64 {
        let sync: u64 = self
            .sync_vars
            .values()
            .map(|clock| clock.heap_bytes() + std::mem::size_of::<VectorClock>() as u64 + 16)
            .sum();
        let labels = self.labels.capacity() * std::mem::size_of::<Arc<str>>();
        self.shadow.heap_bytes() + self.fibers.heap_bytes() + sync + labels as u64
    }

    /// Shadow pages allocated (diagnostics / benches).
    pub fn shadow_pages(&self) -> usize {
        self.shadow.page_count()
    }

    /// Number of currently-live fibers (host + streams + in-flight
    /// requests).
    pub fn live_fibers(&self) -> usize {
        self.fibers.live_count()
    }

    // ---- snapshot/restore --------------------------------------------------

    /// Serialize the complete runtime state into `w` (no magic/version
    /// framing — [`Self::snapshot_bytes`] adds it; embedders like the
    /// session spill format frame the stream themselves).
    ///
    /// The encoding is *canonical*: hash-ordered state (sync variables,
    /// report-dedup keys, shadow pages) is sorted before writing, so two
    /// runtimes in the same observable state produce byte-identical
    /// snapshots, and `snapshot(restore(snapshot(x))) == snapshot(x)`.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.current.index() as u32);
        w.put_u64(self.max_reports as u64);
        w.put_len(self.labels.len());
        for label in &self.labels {
            w.put_str(label);
        }
        self.fibers.write_snapshot(w);
        self.shadow.write_snapshot(w);
        let mut keys: Vec<u64> = self.sync_vars.keys().copied().collect();
        keys.sort_unstable();
        w.put_len(keys.len());
        for key in keys {
            w.put_u64(key);
            write_clock(w, &self.sync_vars[&key]);
        }
        w.put_len(self.reports.len());
        for rep in &self.reports {
            w.put_u64(rep.addr);
            for side in [&rep.current, &rep.previous] {
                w.put_bool(side.write);
                w.put_str(&side.fiber);
                w.put_str(&side.ctx);
            }
        }
        let mut dedup: Vec<(u32, u32)> = self.report_keys.iter().copied().collect();
        dedup.sort_unstable();
        w.put_len(dedup.len());
        for (a, b) in dedup {
            w.put_u32(a);
            w.put_u32(b);
        }
        self.suppressions.write_snapshot(w);
        // The raw (unmerged) counter struct: the derived fields are
        // recomputed from the fiber/shadow sections on every `stats()`
        // call, so serializing them here too would double state.
        for v in [
            self.stats.fiber_switches,
            self.stats.fibers_created,
            self.stats.fibers_destroyed,
            self.stats.happens_before,
            self.stats.happens_after,
            self.stats.read_range_calls,
            self.stats.write_range_calls,
            self.stats.read_bytes,
            self.stats.write_bytes,
            self.stats.races_reported,
            self.stats.races_suppressed,
            self.stats.races_deduped,
            self.stats.page_summaries_stored,
            self.stats.page_unfolds,
            self.stats.dropped_annotations,
            self.stats.full_clock_joins,
            self.stats.arena_pages_reused,
            self.stats.arena_slabs_allocated,
            self.stats.arena_pages_evicted,
        ] {
            w.put_u64(v);
        }
    }

    /// Rebuild a runtime from [`Self::write_snapshot`] output. The
    /// restored runtime is observationally identical to the snapshotted
    /// one: applying any event suffix to both yields bit-for-bit equal
    /// reports, stats, and shadow evolution.
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let current = FiberId::from_index(r.get_u32()? as usize);
        let max_reports = r.get_u64()? as usize;
        let n_labels = r.get_len()?;
        let mut labels = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            labels.push(Arc::from(r.get_str()?));
        }
        let fibers = FiberTable::read_snapshot(r, n_labels)?;
        if current.index() >= fibers.slot_count() {
            return Err(SnapshotError::Corrupt(format!(
                "current fiber {} out of range",
                current.index()
            )));
        }
        let shadow = ShadowMemory::read_snapshot(r)?;
        let n_sync = r.get_len()?;
        let mut sync_vars = FxHashMap::default();
        sync_vars.reserve(n_sync);
        let mut prev_key: Option<u64> = None;
        for _ in 0..n_sync {
            let key = r.get_u64()?;
            if prev_key.is_some_and(|p| key <= p) {
                return Err(SnapshotError::Corrupt(format!(
                    "sync keys not strictly ascending at {key:#x}"
                )));
            }
            prev_key = Some(key);
            sync_vars.insert(key, read_clock(r)?);
        }
        let n_reports = r.get_len()?;
        let mut reports = Vec::with_capacity(n_reports);
        for _ in 0..n_reports {
            let addr = r.get_u64()?;
            let mut sides = Vec::with_capacity(2);
            for _ in 0..2 {
                sides.push(RaceSide {
                    write: r.get_bool()?,
                    fiber: r.get_str()?,
                    ctx: r.get_str()?,
                });
            }
            let previous = sides.pop().expect("two sides");
            let current = sides.pop().expect("two sides");
            reports.push(RaceReport {
                addr,
                current,
                previous,
            });
        }
        let n_dedup = r.get_len()?;
        let mut report_keys = FxHashSet::default();
        report_keys.reserve(n_dedup);
        for _ in 0..n_dedup {
            report_keys.insert((r.get_u32()?, r.get_u32()?));
        }
        let suppressions = Suppressions::read_snapshot(r)?;
        let mut raw = [0u64; 19];
        for v in &mut raw {
            *v = r.get_u64()?;
        }
        let stats = TsanStats {
            fiber_switches: raw[0],
            fibers_created: raw[1],
            fibers_destroyed: raw[2],
            happens_before: raw[3],
            happens_after: raw[4],
            read_range_calls: raw[5],
            write_range_calls: raw[6],
            read_bytes: raw[7],
            write_bytes: raw[8],
            races_reported: raw[9],
            races_suppressed: raw[10],
            races_deduped: raw[11],
            page_summaries_stored: raw[12],
            page_unfolds: raw[13],
            dropped_annotations: raw[14],
            full_clock_joins: raw[15],
            arena_pages_reused: raw[16],
            arena_slabs_allocated: raw[17],
            arena_pages_evicted: raw[18],
            ..TsanStats::default()
        };
        Ok(TsanRuntime {
            fibers,
            current,
            shadow,
            sync_vars,
            labels,
            reports,
            report_keys,
            suppressions,
            stats,
            max_reports,
        })
    }

    /// [`Self::write_snapshot`] framed with [`SNAPSHOT_MAGIC`] and
    /// [`SNAPSHOT_VERSION`] — the standalone blob format.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_raw(SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        self.write_snapshot(&mut w);
        w.into_bytes()
    }

    /// Decode a [`Self::snapshot_bytes`] blob.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        if r.get_raw(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let rt = Self::read_snapshot(&mut r)?;
        r.expect_end()?;
        Ok(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = 0x1_0000;

    fn rt() -> TsanRuntime {
        TsanRuntime::new("host")
    }

    /// Create a fiber named by a freshly defined label.
    fn fiber(t: &mut TsanRuntime, name: &str) -> FiberId {
        let name = t.define_ctx(name.into());
        t.create_fiber(name)
    }

    #[test]
    fn defined_labels_take_ids_in_order_and_name_fibers() {
        let mut t = rt();
        let a = t.define_ctx("cuda stream 1".into());
        let b = t.define_ctx("cuda stream 1".into());
        assert_eq!((a, b), (CtxId(0), CtxId(1)), "append-only, no dedup");
        let f = t.create_fiber(b);
        assert_eq!(t.fiber_name(f), "cuda stream 1");
        assert_eq!(t.fiber_name(FiberId::HOST), "host");
        assert_eq!(t.labels().len(), 2);
    }

    #[test]
    fn unsynchronized_fiber_write_host_read_races() {
        // Abstract Fig. 6B: kernel writes on a stream fiber, host reads
        // without synchronization.
        let mut t = rt();
        let stream = fiber(&mut t, "cuda stream 0");
        let ctx_k = t.define_ctx("kernel write".into());
        let ctx_h = t.define_ctx("host read".into());
        t.switch_to_fiber(stream);
        t.write_range(A, 64, ctx_k);
        t.switch_to_fiber(FiberId::HOST);
        t.read_range(A, 64, ctx_h);
        assert_eq!(t.race_count(), 1, "deduped to one report for the range");
        let r = &t.reports()[0];
        assert!(r.previous.write);
        assert!(!r.current.write);
        assert_eq!(r.previous.fiber, "cuda stream 0");
    }

    #[test]
    fn release_acquire_orders_accesses() {
        // Abstract Fig. 6B with a cudaDeviceSynchronize: no race.
        let mut t = rt();
        let stream = fiber(&mut t, "cuda stream 0");
        let key = SyncKey(7);
        let ctx = t.define_ctx("x".into());
        t.switch_to_fiber(stream);
        t.write_range(A, 64, ctx);
        t.annotate_happens_before(key);
        t.switch_to_fiber(FiberId::HOST);
        assert!(t.annotate_happens_after(key));
        t.read_range(A, 64, ctx);
        assert_eq!(t.race_count(), 0);
    }

    #[test]
    fn acquire_without_release_is_noop() {
        let mut t = rt();
        assert!(!t.annotate_happens_after(SyncKey(99)));
    }

    #[test]
    fn fiber_switch_does_not_synchronize() {
        let mut t = rt();
        let f = fiber(&mut t, "f");
        let ctx = t.define_ctx("x".into());
        // Host writes BEFORE creating... note: creation syncs creator->fiber,
        // so write after creation is needed to get concurrency.
        t.write_range(A, 8, ctx);
        // f was created before the write? No - created above, then host wrote.
        // f's clock does not include the host write; and switching is not
        // an acquire, so accessing from f must race.
        t.switch_to_fiber(f);
        t.write_range(A, 8, ctx);
        assert_eq!(t.race_count(), 1);
    }

    #[test]
    fn creation_synchronizes_creator_to_fiber() {
        let mut t = rt();
        let ctx = t.define_ctx("x".into());
        t.write_range(A, 8, ctx);
        let f = fiber(&mut t, "f"); // inherits host clock incl. the write
        t.switch_to_fiber(f);
        t.write_range(A, 8, ctx);
        assert_eq!(t.race_count(), 0);
    }

    #[test]
    fn transitive_synchronization_via_two_keys() {
        // stream1 -> (k1) -> stream2 -> (k2) -> host; host may then access
        // data written by stream1 without a direct arc (Fig. 3 semantics).
        let mut t = rt();
        let s1 = fiber(&mut t, "s1");
        let s2 = fiber(&mut t, "s2");
        let ctx = t.define_ctx("x".into());
        t.switch_to_fiber(s1);
        t.write_range(A, 8, ctx);
        t.annotate_happens_before(SyncKey(1));
        t.switch_to_fiber(s2);
        t.annotate_happens_after(SyncKey(1));
        t.annotate_happens_before(SyncKey(2));
        t.switch_to_fiber(FiberId::HOST);
        t.annotate_happens_after(SyncKey(2));
        t.write_range(A, 8, ctx);
        assert_eq!(t.race_count(), 0);
    }

    #[test]
    fn release_before_access_does_not_cover_it() {
        // An access AFTER the fiber's release is not ordered by that arc.
        let mut t = rt();
        let f = fiber(&mut t, "f");
        let ctx = t.define_ctx("x".into());
        t.switch_to_fiber(f);
        t.annotate_happens_before(SyncKey(1));
        t.write_range(A, 8, ctx); // after the release: epoch advanced
        t.switch_to_fiber(FiberId::HOST);
        t.annotate_happens_after(SyncKey(1));
        t.read_range(A, 8, ctx);
        assert_eq!(t.race_count(), 1);
    }

    #[test]
    fn non_blocking_mpi_pattern_fig1() {
        // Fig. 1: Irecv(buf) ... compute reads buf ... Wait. The concurrent
        // region between Irecv and Wait is modeled by an MPI fiber writing
        // the buffer.
        let mut t = rt();
        let ctx_mpi = t.define_ctx("MPI_Irecv buffer [write]".into());
        let ctx_cmp = t.define_ctx("compute read".into());
        let req = fiber(&mut t, "mpi req#1 (Irecv)");
        let key = SyncKey(0x100);
        t.switch_to_fiber(req);
        t.write_range(A, 1024, ctx_mpi);
        t.annotate_happens_before(key);
        t.switch_to_fiber(FiberId::HOST);
        // compute(buf) before MPI_Wait -> race
        t.read_range(A, 1024, ctx_cmp);
        assert_eq!(t.race_count(), 1);
        // After Wait (HA) further accesses are fine.
        t.annotate_happens_after(key);
        t.read_range(A, 1024, ctx_cmp);
        assert_eq!(t.race_count(), 1, "no new race after wait");
    }

    #[test]
    fn dedupe_by_context_pair() {
        // One page, then eight: each racy summary page arrives as one
        // 512-word run and must count like 512 single-word conflicts.
        for pages in [1u64, 8] {
            let mut t = rt();
            let f = fiber(&mut t, "f");
            let cw = t.define_ctx("w".into());
            let cr = t.define_ctx("r".into());
            t.switch_to_fiber(f);
            t.write_range(A, pages * 4096, cw);
            t.switch_to_fiber(FiberId::HOST);
            t.read_range(A, pages * 4096, cr);
            // 512 conflicting words per page but a single (r,w) report,
            // addressed at the first conflicting word.
            assert_eq!(t.race_count(), 1);
            assert_eq!(t.stats().races_deduped, pages * 512 - 1);
            assert_eq!(t.reports().len(), 1);
            assert_eq!(t.reports()[0].addr, A);
        }
    }

    #[test]
    fn two_prior_conflicts_report_in_slot_order() {
        // Two unordered readers sit in summary slots 0 and 1; a third
        // fiber's write conflicts with both on every word of two pages.
        // Per word that is (r1, r2), (r1, r2), ...: r1 is reported first,
        // and each page contributes 512 emissions per prior access.
        let mut t = rt();
        let f1 = fiber(&mut t, "f1");
        let f2 = fiber(&mut t, "f2");
        let cr1 = t.define_ctx("r1".into());
        let cr2 = t.define_ctx("r2".into());
        let cw = t.define_ctx("w".into());
        t.switch_to_fiber(f1);
        t.read_range(A, 2 * 4096, cr1);
        t.switch_to_fiber(f2);
        t.read_range(A, 2 * 4096, cr2);
        t.switch_to_fiber(FiberId::HOST);
        t.write_range(A, 2 * 4096, cw);
        let prev: Vec<&str> = t
            .reports()
            .iter()
            .map(|r| r.previous.ctx.as_str())
            .collect();
        assert_eq!(prev, ["r1", "r2"]);
        assert!(t.reports().iter().all(|r| r.addr == A));
        let s = t.stats();
        assert_eq!(s.races_reported, 2);
        assert_eq!(s.races_deduped, 2 * 2 * 512 - 2);
    }

    #[test]
    fn distinct_context_pairs_reported_separately() {
        let mut t = rt();
        let f = fiber(&mut t, "f");
        let cw = t.define_ctx("w".into());
        let cr1 = t.define_ctx("r1".into());
        let cr2 = t.define_ctx("r2".into());
        t.switch_to_fiber(f);
        t.write_range(A, 8, cw);
        t.switch_to_fiber(FiberId::HOST);
        t.read_range(A, 8, cr1);
        t.read_range(A + 8, 8, cr2); // different word, no conflict
        t.read_range(A, 8, cr2); // same word, different ctx
        assert_eq!(t.race_count(), 2);
    }

    #[test]
    fn suppression_suppresses() {
        let mut t = rt();
        t.add_suppression("openmpi-internal");
        let f = fiber(&mut t, "f");
        let cw = t.define_ctx("openmpi-internal progress thread".into());
        let cr = t.define_ctx("host".into());
        t.switch_to_fiber(f);
        t.write_range(A, 8, cw);
        t.switch_to_fiber(FiberId::HOST);
        t.read_range(A, 8, cr);
        assert_eq!(t.race_count(), 0);
        assert_eq!(t.stats().races_suppressed, 1);
    }

    #[test]
    fn stats_count_events() {
        let mut t = rt();
        let f = fiber(&mut t, "f");
        let c = t.define_ctx("x".into());
        t.switch_to_fiber(f);
        t.switch_to_fiber(FiberId::HOST);
        t.annotate_happens_before(SyncKey(1));
        t.annotate_happens_after(SyncKey(1));
        t.read_range(A, 100, c);
        t.write_range(A, 50, c);
        assert_eq!(t.live_fibers(), 2);
        let s = t.stats();
        assert_eq!(s.fiber_switches, 2);
        assert_eq!(s.happens_before, 1);
        assert_eq!(s.happens_after, 1);
        assert_eq!(s.read_range_calls, 1);
        assert_eq!(s.read_bytes, 100);
        assert_eq!(s.write_range_calls, 1);
        assert_eq!(s.write_bytes, 50);
        assert_eq!(s.fibers_created, 2);
        assert_eq!(f, FiberId::from_index(1));
    }

    #[test]
    fn report_cap_limits_storage_not_counting() {
        let mut t = rt();
        t.max_reports = 2;
        let f = fiber(&mut t, "f");
        t.switch_to_fiber(f);
        for i in 0..5 {
            let c = t.define_ctx(format!("w{i}").into());
            t.write_range(A, 8, c);
        }
        t.switch_to_fiber(FiberId::HOST);
        for i in 0..5 {
            let c = t.define_ctx(format!("r{i}").into());
            t.write_range(A, 8, c);
        }
        assert!(t.race_count() > 2);
        assert_eq!(t.reports().len(), 2);
    }

    #[test]
    fn memory_accounting_nonzero_after_accesses() {
        // A whole-buffer write is stored as page summaries, so the shadow
        // costs a few words per 4 KiB instead of 4x the tracked size.
        let mut t = rt();
        let c = t.define_ctx("x".into());
        t.write_range(0, 1 << 16, c);
        assert!(t.memory_bytes() > 0);
        assert!(t.memory_bytes() < (1 << 16), "summaries stay compact");
        assert!(t.shadow_pages() >= 16);
    }

    #[test]
    fn stats_surface_shadow_tier_counters() {
        let mut t = rt();
        let c = t.define_ctx("x".into());
        t.write_range(0, 4096, c);
        t.write_range(0, 4096, c); // identical re-annotation: walked again
        t.write_range(64, 128, c); // partial overlap: unfold
        let s = t.stats();
        assert_eq!(s.page_summaries_stored, 2);
        assert_eq!(s.page_unfolds, 1);
    }

    #[test]
    fn shadow_budget_degrades_and_surfaces_in_stats() {
        let mut t = rt();
        assert_eq!(t.shadow_page_budget(), None);
        t.set_shadow_page_budget(Some(2));
        assert_eq!(t.shadow_page_budget(), Some(2));
        let c = t.define_ctx("big write".into());
        t.write_range(0, 8 << 12, c); // 8 pages, budget 2
        assert_eq!(t.shadow_pages(), 2);
        let s = t.stats();
        assert_eq!(s.dropped_annotations, 6);
        assert_eq!(s.write_range_calls, 1, "call still counted");
        // No budget → the counter stays zero.
        let mut u = rt();
        let c = u.define_ctx("w".into());
        u.write_range(0, 8 << 12, c);
        assert_eq!(u.stats().dropped_annotations, 0);
    }

    #[test]
    fn destroyed_request_fiber_pattern() {
        // MUST pattern: fiber per request, destroyed after wait; a second
        // request reuses the slot without false positives.
        let mut t = rt();
        let c = t.define_ctx("isend read".into());
        let cw = t.define_ctx("host write after wait".into());
        for i in 0..3 {
            let req = fiber(&mut t, &format!("req#{i}"));
            let key = SyncKey(0x200 + i);
            t.switch_to_fiber(req);
            t.read_range(A, 256, c);
            t.annotate_happens_before(key);
            t.switch_to_fiber(FiberId::HOST);
            t.annotate_happens_after(key);
            t.destroy_fiber(req);
            // Host writes the buffer after wait — must never race.
            t.write_range(A, 256, cw);
        }
        assert_eq!(t.race_count(), 0);
    }
}
