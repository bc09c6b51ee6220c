//! The TSan-style runtime: fibers + shadow + sync vars + reporting.

use crate::clock::VectorClock;
use crate::codec::{put_ascending, put_bytes, put_varint, DecodeError, Scanner};
use crate::fiber::{FiberId, FiberTable};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::report::{label, CtxId, RaceReport, RaceSide};
use crate::shadow::ShadowMemory;
use crate::stats::TsanStats;
use std::sync::Arc;

/// Key identifying a synchronization variable — the analogue of the memory
/// address passed to `AnnotateHappensBefore/After`. CuSan derives keys from
/// stream/event identities; MUST derives them from MPI request identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SyncKey(pub u64);

/// Cap on retained race reports (detection continues counting after the
/// cap; only report storage stops growing).
pub const MAX_REPORTS: usize = 256;

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
    /// The counters the runtime keeps itself; [`Self::stats`] adds the
    /// ones the fiber table and the shadow keep.
    stats: TsanStats,
}

impl TsanRuntime {
    /// New runtime; the calling context becomes the host fiber.
    pub fn new(host_name: &str) -> Self {
        TsanRuntime {
            fibers: FiberTable::new(host_name),
            current: FiberId::HOST,
            shadow: ShadowMemory::new(),
            sync_vars: FxHashMap::default(),
            labels: Vec::new(),
            reports: Vec::new(),
            report_keys: FxHashSet::default(),
            stats: TsanStats::default(),
        }
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
            stats,
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
            stats.races_reported += 1;
            if reports.len() < MAX_REPORTS {
                reports.push(report);
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

    // ---- accounting --------------------------------------------------------

    /// Counter snapshot.
    pub fn stats(&self) -> TsanStats {
        let mut s = self.stats;
        s.fibers_created = self.fibers.created;
        s.fibers_destroyed = self.fibers.destroyed;
        let c = self.shadow.counters();
        s.page_summaries_stored = c.page_summaries_stored;
        s.page_unfolds = c.page_unfolds;
        s.arena_slabs_allocated = c.arena_slabs_allocated;
        s
    }

    /// Approximate heap bytes owned by the detector: shadow pages, vector
    /// clocks, sync variables, label handles. Drives Fig. 11. A function
    /// of the runtime's state (lengths, never capacities), so a restored
    /// runtime reports what the snapshotted one did.
    pub fn memory_bytes(&self) -> u64 {
        let sync: u64 = self
            .sync_vars
            .values()
            .map(|clock| clock.heap_bytes() + std::mem::size_of::<VectorClock>() as u64 + 16)
            .sum();
        let labels = self.labels.len() * std::mem::size_of::<Arc<str>>();
        self.shadow.heap_bytes() + self.fibers.heap_bytes() + sync + labels as u64
    }

    /// Shadow pages allocated (diagnostics / benches).
    pub fn shadow_pages(&self) -> usize {
        self.shadow.page_count()
    }

    // ---- snapshot/restore --------------------------------------------------

    /// Serialize the complete runtime state into `buf`, unframed:
    /// embedders (the session snapshot, the spill file) put the one
    /// magic and [`crate::codec::LAYOUT_VERSION`] in front of their own
    /// sections.
    ///
    /// The encoding is *canonical*: hash-ordered state (sync variables,
    /// report-dedup keys, shadow pages) is sorted before writing, so two
    /// runtimes in the same observable state produce byte-identical
    /// snapshots, and `snapshot(restore(snapshot(x))) == snapshot(x)`.
    pub fn write_snapshot(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.current.index() as u64);
        put_varint(buf, self.labels.len() as u64);
        for label in &self.labels {
            put_bytes(buf, label.as_bytes());
        }
        self.fibers.write_snapshot(buf);
        self.shadow.write_snapshot(buf);
        let mut keys: Vec<u64> = self.sync_vars.keys().copied().collect();
        keys.sort_unstable();
        put_varint(buf, keys.len() as u64);
        let mut last = None;
        for key in keys {
            put_ascending(buf, &mut last, key);
            self.sync_vars[&key].write_to(buf);
        }
        put_varint(buf, self.reports.len() as u64);
        for rep in &self.reports {
            put_varint(buf, rep.addr);
            for side in [&rep.current, &rep.previous] {
                buf.push(u8::from(side.write));
                put_bytes(buf, side.fiber.as_bytes());
                put_bytes(buf, side.ctx.as_bytes());
            }
        }
        let mut dedup: Vec<(u32, u32)> = self.report_keys.iter().copied().collect();
        dedup.sort_unstable();
        put_varint(buf, dedup.len() as u64);
        for (a, b) in dedup {
            put_varint(buf, u64::from(a));
            put_varint(buf, u64::from(b));
        }
        // The counters the runtime keeps itself: the fiber and shadow
        // counters are read from their sections on every `stats()` call,
        // so serializing them here too would double state.
        let mut stats = self.stats;
        for v in raw_counters(&mut stats) {
            put_varint(buf, *v);
        }
    }

    /// Rebuild a runtime from [`Self::write_snapshot`] output. The
    /// restored runtime is observationally identical to the snapshotted
    /// one: applying any event suffix to both yields bit-for-bit equal
    /// reports, stats, and shadow evolution.
    pub fn read_snapshot(s: &mut Scanner<'_>) -> Result<Self, DecodeError> {
        let current = FiberId::from_index(s.varint_as::<u32>()? as usize);
        let n_labels = s.count(1)?;
        let labels = (0..n_labels)
            .map(|_| s.str().map(Arc::from))
            .collect::<Result<Vec<Arc<str>>, _>>()?;
        let fibers = FiberTable::read_snapshot(s, n_labels)?;
        if !fibers.is_alive(current) {
            return Err(s.corrupt(format!("current fiber {} is not alive", current.index())));
        }
        let shadow = ShadowMemory::read_snapshot(s, fibers.slot_count())?;
        // Maps and report lists grow as their entries decode: an entry
        // costs more memory than its minimum encoding, so reserving a
        // declared count up front would let a short blob reserve a lot.
        let n_sync = s.count(2)?;
        let mut sync_vars = FxHashMap::default();
        let mut last = None;
        for _ in 0..n_sync {
            let key = s.ascending(&mut last)?;
            sync_vars.insert(key, VectorClock::read_from(s)?);
        }
        let n_reports = s.count(7)?;
        let mut reports = Vec::new();
        for _ in 0..n_reports {
            let addr = s.varint()?;
            let mut side = || -> Result<RaceSide, DecodeError> {
                Ok(RaceSide {
                    write: s.bool()?,
                    fiber: s.str()?.to_string(),
                    ctx: s.str()?.to_string(),
                })
            };
            let current = side()?;
            let previous = side()?;
            reports.push(RaceReport {
                addr,
                current,
                previous,
            });
        }
        let n_dedup = s.count(2)?;
        let report_keys = (0..n_dedup)
            .map(|_| Ok((s.varint_as()?, s.varint_as()?)))
            .collect::<Result<FxHashSet<_>, DecodeError>>()?;
        let mut rt = TsanRuntime {
            fibers,
            current,
            shadow,
            sync_vars,
            labels,
            reports,
            report_keys,
            stats: TsanStats::default(),
        };
        for v in raw_counters(&mut rt.stats) {
            *v = s.varint()?;
        }
        Ok(rt)
    }
}

/// The counters a runtime snapshot stores, in layout order.
fn raw_counters(s: &mut TsanStats) -> [&mut u64; 10] {
    [
        &mut s.fiber_switches,
        &mut s.happens_before,
        &mut s.happens_after,
        &mut s.read_range_calls,
        &mut s.write_range_calls,
        &mut s.read_bytes,
        &mut s.write_bytes,
        &mut s.races_reported,
        &mut s.races_deduped,
        &mut s.full_clock_joins,
    ]
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
        // One page, then eight: the racy summary extent arrives as one
        // run of 512 words per page and must count like that many
        // single-word conflicts.
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
        // MAX_REPORTS + 1 distinct context pairs race on one word: every
        // one is counted, the first MAX_REPORTS are kept.
        let mut t = rt();
        let f = fiber(&mut t, "f");
        let cw = t.define_ctx("w".into());
        t.switch_to_fiber(f);
        t.write_range(A, 8, cw);
        t.switch_to_fiber(FiberId::HOST);
        for i in 0..=MAX_REPORTS {
            let c = t.define_ctx(format!("r{i}").into());
            t.read_range(A, 8, c);
        }
        assert_eq!(t.race_count(), MAX_REPORTS as u64 + 1);
        assert_eq!(t.reports().len(), MAX_REPORTS);
        assert_eq!(
            t.reports()[MAX_REPORTS - 1].current.ctx,
            format!("r{}", MAX_REPORTS - 1)
        );
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
