//! Fibers: user-defined execution contexts (TSan's fiber API).
//!
//! MUST models each non-blocking MPI operation as a fiber; CuSan models
//! each CUDA stream as a fiber (paper §IV-A). The host thread itself is
//! fiber 0. Switching fibers changes which vector clock subsequent accesses
//! are attributed to and implies **no** synchronization.

use crate::clock::VectorClock;
use crate::report::CtxId;
use crate::snapshot::{read_clock, write_clock, SnapshotError, SnapshotReader, SnapshotWriter};
use std::sync::Arc;

/// Identifier of a fiber. Ids index densely into the runtime's fiber table;
/// slots of destroyed fibers are reused (with a monotonically growing clock,
/// so stale shadow epochs can only cause conservative results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiberId(u32);

impl FiberId {
    /// The host thread's fiber (always present).
    pub const HOST: FiberId = FiberId(0);

    /// Construct from a raw index (used by tests and the shadow codec).
    pub fn from_index(i: usize) -> FiberId {
        FiberId(i as u32)
    }

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Maximum number of simultaneously-live fibers; bounded by the 11-bit
/// fiber field in the packed shadow epoch (see [`crate::shadow`]).
pub const MAX_FIBERS: usize = 1 << 11;

#[derive(Debug)]
pub(crate) struct Fiber {
    pub clock: VectorClock,
    /// The label naming the fiber, by id into the runtime's label table
    /// (unused for the host, which keeps its own name).
    pub name: CtxId,
    pub alive: bool,
}

/// The fiber table: creation, destruction with slot reuse, lookup.
#[derive(Debug)]
pub(crate) struct FiberTable {
    host_name: Box<str>,
    fibers: Vec<Fiber>,
    free: Vec<u32>,
    pub created: u64,
    pub destroyed: u64,
}

impl FiberTable {
    pub fn new(host_name: &str) -> Self {
        let mut host_clock = VectorClock::new();
        host_clock.set(FiberId::HOST, 1);
        FiberTable {
            host_name: host_name.into(),
            fibers: vec![Fiber {
                clock: host_clock,
                name: CtxId(0),
                alive: true,
            }],
            free: Vec::new(),
            created: 1,
            destroyed: 0,
        }
    }

    /// Create a fiber whose clock inherits `creator_clock` (fiber creation
    /// synchronizes with the creator, like thread creation in TSan).
    /// Reference implementation for [`Self::create_child`], which is the
    /// clone-free path the runtime uses; tests assert their equivalence.
    #[cfg(test)]
    pub fn create(&mut self, name: CtxId, creator_clock: &VectorClock) -> FiberId {
        self.created += 1;
        if let Some(idx) = self.free.pop() {
            let id = FiberId(idx);
            let old_time = self.fibers[id.index()].clock.get(id);
            let fiber = &mut self.fibers[id.index()];
            fiber.clock = creator_clock.clone();
            // Keep own time strictly monotonic across reuse so stale shadow
            // epochs from a previous incarnation never look concurrent with
            // themselves.
            fiber.clock.set(id, old_time.max(creator_clock.get(id)) + 1);
            fiber.name = name;
            fiber.alive = true;
            id
        } else {
            assert!(self.fibers.len() < MAX_FIBERS, "fiber table exhausted");
            let id = FiberId(self.fibers.len() as u32);
            let mut clock = creator_clock.clone();
            clock.set(id, 1);
            self.fibers.push(Fiber {
                clock,
                name,
                alive: true,
            });
            id
        }
    }

    /// Create a fiber as a child of live fiber `creator`: bumps the
    /// creator's own component (the release edge of fiber creation), then
    /// gives the child the creator's *pre-bump* clock — equivalent to
    /// snapshotting the creator, bumping it, and calling [`Self::create`]
    /// with the snapshot, but without the temporary clone. Slot-reuse
    /// copies into the retired fiber's existing clock allocation.
    pub fn create_child(&mut self, name: CtxId, creator: FiberId) -> FiberId {
        self.created += 1;
        if let Some(idx) = self.free.pop() {
            let id = FiberId(idx);
            debug_assert_ne!(id, creator, "creator fiber cannot be on the free list");
            let (child, parent) = self.pair_mut(id, creator);
            let old_time = child.clock.get(id);
            child.clock.copy_from(&parent.clock);
            // Keep own time strictly monotonic across reuse so stale shadow
            // epochs from a previous incarnation never look concurrent with
            // themselves.
            child.clock.set(id, old_time.max(parent.clock.get(id)) + 1);
            child.name = name;
            child.alive = true;
            parent.clock.bump(creator);
            id
        } else {
            assert!(self.fibers.len() < MAX_FIBERS, "fiber table exhausted");
            let id = FiberId(self.fibers.len() as u32);
            let parent = &mut self.fibers[creator.index()];
            let mut clock = parent.clock.clone();
            clock.set(id, 1);
            parent.clock.bump(creator);
            self.fibers.push(Fiber {
                clock,
                name,
                alive: true,
            });
            id
        }
    }

    /// Mutable references to two *distinct* fibers at once.
    pub fn pair_mut(&mut self, a: FiberId, b: FiberId) -> (&mut Fiber, &mut Fiber) {
        let (ai, bi) = (a.index(), b.index());
        assert_ne!(ai, bi, "pair_mut requires distinct fibers");
        if ai < bi {
            let (lo, hi) = self.fibers.split_at_mut(bi);
            (&mut lo[ai], &mut hi[0])
        } else {
            let (lo, hi) = self.fibers.split_at_mut(ai);
            (&mut hi[0], &mut lo[bi])
        }
    }

    /// The id the next [`Self::create`] call will return (slots of
    /// destroyed fibers are reused LIFO). Lets callers that reify fiber
    /// creation as an event know the id before applying the event.
    pub fn peek_next(&self) -> FiberId {
        match self.free.last() {
            Some(&idx) => FiberId(idx),
            None => FiberId(self.fibers.len() as u32),
        }
    }

    pub fn destroy(&mut self, id: FiberId) {
        assert!(id != FiberId::HOST, "cannot destroy the host fiber");
        let f = &mut self.fibers[id.index()];
        assert!(f.alive, "double destroy of fiber {id:?}");
        f.alive = false;
        self.destroyed += 1;
        self.free.push(id.0);
    }

    #[inline]
    pub fn get(&self, id: FiberId) -> &Fiber {
        &self.fibers[id.index()]
    }

    #[inline]
    pub fn get_mut(&mut self, id: FiberId) -> &mut Fiber {
        &mut self.fibers[id.index()]
    }

    /// Name of fiber `id`: the host's own, or the label `labels` holds
    /// for the fiber's name id.
    pub fn name<'a>(&'a self, id: FiberId, labels: &'a [Arc<str>]) -> &'a str {
        if id == FiberId::HOST {
            return &self.host_name;
        }
        crate::report::label(labels, self.fibers[id.index()].name)
    }

    pub fn is_alive(&self, id: FiberId) -> bool {
        self.fibers
            .get(id.index())
            .map(|f| f.alive)
            .unwrap_or(false)
    }

    pub fn live_count(&self) -> usize {
        self.fibers.len() - self.free.len()
    }

    pub fn heap_bytes(&self) -> u64 {
        self.fibers
            .iter()
            .map(|f| f.clock.heap_bytes())
            .sum::<u64>()
            + (self.fibers.capacity() * std::mem::size_of::<Fiber>() + self.host_name.len()) as u64
    }

    /// Total slots (live + retired) in the table — bounds-checks ids
    /// decoded from snapshots.
    pub(crate) fn slot_count(&self) -> usize {
        self.fibers.len()
    }

    /// Serialize the whole table, free list verbatim: LIFO slot reuse —
    /// and with it replayed fiber numbering — must continue exactly
    /// where the snapshotted table left off. Fiber names are written as
    /// label ids; only the host's own name is a string.
    pub(crate) fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.host_name);
        w.put_u64(self.created);
        w.put_u64(self.destroyed);
        w.put_len(self.free.len());
        for &idx in &self.free {
            w.put_u32(idx);
        }
        w.put_len(self.fibers.len());
        for f in &self.fibers {
            write_clock(w, &f.clock);
            w.put_u32(f.name.0);
            w.put_bool(f.alive);
        }
    }

    /// Rebuild a table from [`Self::write_snapshot`] output, whose fiber
    /// names must be ids below `n_labels`.
    pub(crate) fn read_snapshot(
        r: &mut SnapshotReader<'_>,
        n_labels: usize,
    ) -> Result<Self, SnapshotError> {
        let host_name = r.get_str()?.into_boxed_str();
        let created = r.get_u64()?;
        let destroyed = r.get_u64()?;
        let n_free = r.get_len()?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(r.get_u32()?);
        }
        let n_fibers = r.get_len()?;
        if n_fibers == 0 || n_fibers > MAX_FIBERS {
            return Err(SnapshotError::Corrupt(format!(
                "fiber table of {n_fibers} slots"
            )));
        }
        if let Some(&idx) = free.iter().find(|&&idx| idx as usize >= n_fibers) {
            return Err(SnapshotError::Corrupt(format!(
                "free-list slot {idx} out of range"
            )));
        }
        let mut fibers = Vec::with_capacity(n_fibers);
        for i in 0..n_fibers {
            let clock = read_clock(r)?;
            let name = CtxId(r.get_u32()?);
            if i != FiberId::HOST.index() && name.0 as usize >= n_labels {
                return Err(SnapshotError::Corrupt(format!(
                    "fiber {i} named by label {} of {n_labels}",
                    name.0
                )));
            }
            let alive = r.get_bool()?;
            fibers.push(Fiber { clock, name, alive });
        }
        Ok(FiberTable {
            host_name,
            fibers,
            free,
            created,
            destroyed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_fiber_exists() {
        let t = FiberTable::new("host");
        assert!(t.is_alive(FiberId::HOST));
        assert_eq!(t.name(FiberId::HOST, &[]), "host");
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn create_inherits_creator_clock() {
        let mut t = FiberTable::new("host");
        let mut creator = VectorClock::new();
        creator.set(FiberId::HOST, 5);
        let f = t.create(CtxId(0), &creator);
        assert_eq!(t.get(f).clock.get(FiberId::HOST), 5);
        assert!(t.get(f).clock.get(f) >= 1);
    }

    #[test]
    fn destroy_and_reuse_keeps_time_monotonic() {
        let mut t = FiberTable::new("host");
        let creator = VectorClock::new();
        let labels: [Arc<str>; 2] = ["req1".into(), "req2".into()];
        let f1 = t.create(CtxId(0), &creator);
        let time1 = t.get(f1).clock.get(f1);
        t.destroy(f1);
        let f2 = t.create(CtxId(1), &creator);
        assert_eq!(f1, f2, "slot should be reused");
        assert!(t.get(f2).clock.get(f2) > time1);
        assert_eq!(t.name(f2, &labels), "req2");
        assert_eq!(t.created, 3);
        assert_eq!(t.destroyed, 1);
    }

    #[test]
    fn peek_next_predicts_creation() {
        let mut t = FiberTable::new("host");
        let creator = VectorClock::new();
        assert_eq!(t.peek_next(), FiberId(1));
        let f1 = t.create(CtxId(0), &creator);
        assert_eq!(f1, FiberId(1));
        let _f2 = t.create(CtxId(1), &creator);
        t.destroy(f1);
        // Freed slots are reused LIFO, and peek must predict that too.
        assert_eq!(t.peek_next(), f1);
        assert_eq!(t.create(CtxId(2), &creator), f1);
        assert_eq!(t.peek_next(), FiberId(3));
    }

    #[test]
    fn create_child_matches_snapshot_create() {
        // create_child must behave exactly like: snapshot creator clock,
        // bump creator, create(snapshot) — including across slot reuse.
        let drive = |child_path: bool| {
            let mut t = FiberTable::new("host");
            let mk = |t: &mut FiberTable, name: CtxId| {
                if child_path {
                    t.create_child(name, FiberId::HOST)
                } else {
                    let snap = t.get(FiberId::HOST).clock.clone();
                    t.get_mut(FiberId::HOST).clock.bump(FiberId::HOST);
                    t.create(name, &snap)
                }
            };
            let a = mk(&mut t, CtxId(0));
            let b = mk(&mut t, CtxId(1));
            t.destroy(a);
            let c = mk(&mut t, CtxId(2)); // reuses a's slot
            assert_eq!(a, c);
            let ids = [FiberId::HOST, a, b];
            let clocks: Vec<Vec<u32>> = [FiberId::HOST, c, b]
                .iter()
                .map(|&f| ids.iter().map(|&g| t.get(f).clock.get(g)).collect())
                .collect();
            (clocks, t.created, t.destroyed, t.get(c).name)
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn pair_mut_returns_distinct_fibers_in_order() {
        let mut t = FiberTable::new("host");
        let f = t.create_child(CtxId(7), FiberId::HOST);
        let (a, b) = t.pair_mut(FiberId::HOST, f);
        a.clock.set(FiberId::HOST, 41);
        b.clock.set(f, 17);
        assert_eq!(t.get(FiberId::HOST).clock.get(FiberId::HOST), 41);
        assert_eq!(t.get(f).clock.get(f), 17);
        // Order of arguments maps to order of returns in both directions.
        let (b2, a2) = t.pair_mut(f, FiberId::HOST);
        assert_eq!(b2.name, CtxId(7));
        assert_eq!(a2.clock.get(FiberId::HOST), 41);
    }

    #[test]
    #[should_panic(expected = "double destroy")]
    fn double_destroy_panics() {
        let mut t = FiberTable::new("host");
        let f = t.create(CtxId(0), &VectorClock::new());
        t.destroy(f);
        t.destroy(f);
    }

    #[test]
    #[should_panic(expected = "host fiber")]
    fn destroy_host_panics() {
        let mut t = FiberTable::new("host");
        t.destroy(FiberId::HOST);
    }
}
