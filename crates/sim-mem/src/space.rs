//! The simulated address space: allocator, allocation table, data access.
//!
//! All memory of the simulated program — host buffers, pinned buffers,
//! managed memory, and per-device memory — lives here as real byte storage,
//! addressed through simulated [`Ptr`] values. Rank threads share one
//! `Arc<AddressSpace>`; per-allocation `RwLock`s serialize byte access so a
//! receiving rank can copy directly out of a sender's (device) memory.
//!
//! Note the locking is *storage* consistency only: it deliberately does
//! **not** impose the synchronization the CUDA/MPI programming model
//! requires. A racy simulated program still observes stale data (because
//! device operations execute deferred), which is what the race detector is
//! for.

use crate::error::MemError;
use crate::pod::{self, Pod};
use crate::ptr::{layout, MemKind, PointerAttr, Ptr};
use parking_lot::{
    MappedRwLockReadGuard, MappedRwLockWriteGuard, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Alignment of every allocation, in bytes. 16 covers all [`Pod`] types.
pub const ALLOC_ALIGN: u64 = 16;

/// How long a guard acquisition waits out *cross-thread* contention before
/// declaring a conflict. Rank threads legitimately touch each other's
/// allocations for short, bounded copies (CUDA-aware sends deliver straight
/// into the receiver's buffer), so contention from another thread resolves
/// in microseconds; only a guard the *same* thread already holds can outlast
/// this.
const GUARD_WAIT: std::time::Duration = std::time::Duration::from_millis(200);

/// One live allocation: metadata plus backing bytes.
#[derive(Debug)]
pub struct Allocation {
    base: Ptr,
    len: u64,
    kind: MemKind,
    id: u64,
    data: RwLock<Box<[u8]>>,
}

impl Allocation {
    /// Base pointer of the allocation.
    pub fn base(&self) -> Ptr {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the allocation is zero-length (never constructed).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory kind.
    pub fn kind(&self) -> MemKind {
        self.kind
    }

    /// Unique allocation id (monotonically increasing per space).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Shared read guard over the backing bytes.
    pub fn read_guard(&self) -> RwLockReadGuard<'_, Box<[u8]>> {
        self.data.read()
    }

    /// Exclusive write guard over the backing bytes. Waits out transient
    /// contention from other rank threads (bounded by `GUARD_WAIT`, 200 ms).
    ///
    /// # Panics
    ///
    /// Panics (rather than deadlocking) if the calling thread already holds
    /// a guard on this allocation — the simulated analogue of a kernel
    /// taking the same buffer as two conflicting arguments.
    pub fn write_guard(&self) -> RwLockWriteGuard<'_, Box<[u8]>> {
        self.data.try_write_for(GUARD_WAIT).unwrap_or_else(|| {
            panic!(
                "conflicting simultaneous access to allocation {} (base {}): \
                 a guard is already held on this thread or another thread",
                self.id, self.base
            )
        })
    }

    /// Typed read view over a sub-range (offsets in elements of `T`).
    pub fn read_slice<T: Pod>(&self, byte_off: u64, n: u64) -> MappedRwLockReadGuard<'_, [T]> {
        let g = self.data.read();
        RwLockReadGuard::map(g, |b| {
            let start = byte_off as usize;
            let end = start + (n as usize) * T::SIZE;
            pod::cast_slice::<T>(&b[start..end])
        })
    }

    /// Typed write view over a sub-range (offsets in bytes, length in elements).
    pub fn write_slice<T: Pod>(&self, byte_off: u64, n: u64) -> MappedRwLockWriteGuard<'_, [T]> {
        let g = self.data.try_write_for(GUARD_WAIT).unwrap_or_else(|| {
            panic!(
                "conflicting simultaneous access to allocation {} (base {})",
                self.id, self.base
            )
        });
        RwLockWriteGuard::map(g, |b| {
            let start = byte_off as usize;
            let end = start + (n as usize) * T::SIZE;
            pod::cast_slice_mut::<T>(&mut b[start..end])
        })
    }
}

/// Lightweight metadata snapshot of an allocation (returned by `free`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationInfo {
    /// Base pointer.
    pub base: Ptr,
    /// Length in bytes.
    pub len: u64,
    /// Memory kind.
    pub kind: MemKind,
    /// Unique allocation id.
    pub id: u64,
}

/// Aggregate accounting for the space (drives the Fig. 11 reproduction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Currently-live bytes across all kinds.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
    /// Currently-live allocation count ([`AddressSpace::live_allocs`]).
    pub live_allocs: u64,
}

#[derive(Debug, Default)]
struct BumpState {
    next: BTreeMap<u64, u64>, // window base -> next offset
}

/// The simulated UVA address space. See module docs.
#[derive(Debug)]
pub struct AddressSpace {
    table: RwLock<BTreeMap<u64, Arc<Allocation>>>,
    bump: Mutex<BumpState>,
    next_id: AtomicU64,
    stats: Mutex<SpaceStats>,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Create an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            table: RwLock::new(BTreeMap::new()),
            bump: Mutex::new(BumpState::default()),
            next_id: AtomicU64::new(1),
            stats: Mutex::new(SpaceStats::default()),
        }
    }

    /// Allocate `len` bytes of `kind` memory, zero-initialized.
    pub fn alloc(&self, kind: MemKind, len: u64) -> Result<Ptr, MemError> {
        self.alloc_in_shard(kind, 0, len)
    }

    /// Allocate inside a per-`shard` sub-window of `kind`'s window, each
    /// shard with its own bump cursor. Concurrent allocators (e.g. one
    /// simulated device per rank thread) that use distinct shards get
    /// addresses independent of thread interleaving, which keeps recorded
    /// event traces byte-deterministic across runs.
    pub fn alloc_in_shard(&self, kind: MemKind, shard: u32, len: u64) -> Result<Ptr, MemError> {
        if len == 0 {
            return Err(MemError::ZeroSized);
        }
        let window = layout::window_base(kind) + (u64::from(shard) << layout::SHARD_BITS);
        let base = {
            let mut bump = self.bump.lock();
            let next = bump.next.entry(window).or_insert(ALLOC_ALIGN);
            let base = window + *next;
            // Round the next cursor up to alignment, leaving a one-align
            // guard gap so adjacent allocations are never contiguous and
            // off-by-one overruns are caught as Unmapped.
            let advance = len.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN + ALLOC_ALIGN;
            *next += advance;
            base
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let alloc = Arc::new(Allocation {
            base: Ptr(base),
            len,
            kind,
            id,
            data: RwLock::new(vec![0u8; len as usize].into_boxed_slice()),
        });
        self.table.write().insert(base, alloc);
        let mut st = self.stats.lock();
        st.live_bytes += len;
        st.peak_bytes = st.peak_bytes.max(st.live_bytes);
        Ok(Ptr(base))
    }

    /// Allocate room for `n` elements of `T`.
    pub fn alloc_array<T: Pod>(&self, kind: MemKind, n: u64) -> Result<Ptr, MemError> {
        self.alloc(kind, n * T::SIZE as u64)
    }

    /// Free the allocation starting exactly at `ptr`.
    pub fn free(&self, ptr: Ptr) -> Result<AllocationInfo, MemError> {
        let removed = self.table.write().remove(&ptr.0);
        match removed {
            Some(a) => {
                self.stats.lock().live_bytes -= a.len;
                Ok(AllocationInfo {
                    base: a.base,
                    len: a.len,
                    kind: a.kind,
                    id: a.id,
                })
            }
            None => {
                // Distinguish interior pointer from unmapped for diagnostics.
                if self.find(ptr).is_ok() {
                    Err(MemError::NotABase(ptr))
                } else {
                    Err(MemError::Unmapped(ptr))
                }
            }
        }
    }

    /// Check that `ptr` is a valid `free` target (the base of a live
    /// allocation) without freeing anything. Checker-side precondition: a
    /// free that will fail must not run its synchronize-and-annotate
    /// protocol first.
    pub fn free_validate(&self, ptr: Ptr) -> Result<(), MemError> {
        match self.find(ptr) {
            Ok(a) if a.base() == ptr => Ok(()),
            Ok(_) => Err(MemError::NotABase(ptr)),
            Err(e) => Err(e),
        }
    }

    /// Find the live allocation containing `ptr`.
    pub fn find(&self, ptr: Ptr) -> Result<Arc<Allocation>, MemError> {
        let table = self.table.read();
        let (_, alloc) = table
            .range(..=ptr.0)
            .next_back()
            .ok_or(MemError::Unmapped(ptr))?;
        if ptr.0 < alloc.base.0 + alloc.len {
            Ok(Arc::clone(alloc))
        } else {
            Err(MemError::Unmapped(ptr))
        }
    }

    /// Find the allocation containing the whole range `[ptr, ptr+len)`.
    pub fn find_range(&self, ptr: Ptr, len: u64) -> Result<Arc<Allocation>, MemError> {
        let alloc = self.find(ptr)?;
        let end = ptr.0 + len;
        if end > alloc.base.0 + alloc.len {
            Err(MemError::OutOfBounds {
                ptr,
                len,
                base: alloc.base,
                alloc_len: alloc.len,
            })
        } else {
            Ok(alloc)
        }
    }

    /// Pointer attribute query (the `cuPointerGetAttribute` analogue).
    pub fn attributes(&self, ptr: Ptr) -> Result<PointerAttr, MemError> {
        let a = self.find(ptr)?;
        Ok(PointerAttr {
            kind: a.kind,
            base: a.base,
            len: a.len,
            offset: ptr.0 - a.base.0,
            alloc_id: a.id,
        })
    }

    /// Copy `out.len()` bytes starting at `ptr` into `out`.
    pub fn read_bytes(&self, ptr: Ptr, out: &mut [u8]) -> Result<(), MemError> {
        let a = self.find_range(ptr, out.len() as u64)?;
        let off = (ptr.0 - a.base.0) as usize;
        let g = a.read_guard();
        out.copy_from_slice(&g[off..off + out.len()]);
        Ok(())
    }

    /// Write `data` into memory starting at `ptr`.
    pub fn write_bytes(&self, ptr: Ptr, data: &[u8]) -> Result<(), MemError> {
        let a = self.find_range(ptr, data.len() as u64)?;
        let off = (ptr.0 - a.base.0) as usize;
        let mut g = a.write_guard();
        g[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Set `len` bytes starting at `ptr` to `value` (the `cudaMemset` data
    /// effect).
    pub fn fill(&self, ptr: Ptr, len: u64, value: u8) -> Result<(), MemError> {
        let a = self.find_range(ptr, len)?;
        let off = (ptr.0 - a.base.0) as usize;
        let mut g = a.write_guard();
        g[off..off + len as usize].fill(value);
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` (the data effect of `cudaMemcpy`
    /// and of message transfer). Handles same-allocation overlap like
    /// `memmove`.
    pub fn copy(&self, dst: Ptr, src: Ptr, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let da = self.find_range(dst, len)?;
        let sa = self.find_range(src, len)?;
        let doff = (dst.0 - da.base.0) as usize;
        let soff = (src.0 - sa.base.0) as usize;
        let n = len as usize;
        if da.id == sa.id {
            let mut g = da.write_guard();
            g.copy_within(soff..soff + n, doff);
        } else {
            // Acquire the two guards in global allocation-id order. Two
            // rank threads running symmetric exchanges (each copying into
            // the other's buffer, as in a halo sendrecv) would otherwise
            // take src-then-dst in opposite orders and form an ABBA cycle.
            let (sg, mut dg) = if sa.id < da.id {
                let sg = sa.read_guard();
                (sg, da.write_guard())
            } else {
                let dg = da.write_guard();
                (sa.read_guard(), dg)
            };
            dg[doff..doff + n].copy_from_slice(&sg[soff..soff + n]);
        }
        Ok(())
    }

    /// Read `n` elements of `T` starting at `ptr` into a fresh `Vec`.
    pub fn read_vec<T: Pod>(&self, ptr: Ptr, n: u64) -> Result<Vec<T>, MemError> {
        let a = self.find_range(ptr, n * T::SIZE as u64)?;
        let off = ptr.0 - a.base.0;
        let g = a.read_slice::<T>(off, n);
        Ok(g.to_vec())
    }

    /// Write a slice of `T` starting at `ptr`.
    pub fn write_slice_data<T: Pod>(&self, ptr: Ptr, data: &[T]) -> Result<(), MemError> {
        let a = self.find_range(ptr, (data.len() * T::SIZE) as u64)?;
        let off = ptr.0 - a.base.0;
        let mut g = a.write_slice::<T>(off, data.len() as u64);
        g.copy_from_slice(data);
        Ok(())
    }

    /// Read a single element of `T` at `ptr`.
    pub fn read_at<T: Pod>(&self, ptr: Ptr) -> Result<T, MemError> {
        let mut buf = [0u8; 16];
        self.read_bytes(ptr, &mut buf[..T::SIZE])?;
        Ok(pod::read_scalar::<T>(&buf[..T::SIZE]))
    }

    /// Write a single element of `T` at `ptr`.
    pub fn write_at<T: Pod>(&self, ptr: Ptr, value: T) -> Result<(), MemError> {
        let mut buf = [0u8; 16];
        pod::write_scalar::<T>(&mut buf[..T::SIZE], value);
        self.write_bytes(ptr, &buf[..T::SIZE])
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            live_allocs: self.live_allocs(),
            ..*self.stats.lock()
        }
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> u64 {
        self.table.read().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptr::DeviceId;

    fn space() -> AddressSpace {
        AddressSpace::new()
    }

    #[test]
    fn alloc_assigns_window_by_kind() {
        let s = space();
        let h = s.alloc(MemKind::HostPageable, 64).unwrap();
        let p = s.alloc(MemKind::HostPinned, 64).unwrap();
        let m = s.alloc(MemKind::Managed, 64).unwrap();
        let d = s.alloc(MemKind::Device(DeviceId(2)), 64).unwrap();
        assert_eq!(h.kind(), Some(MemKind::HostPageable));
        assert_eq!(p.kind(), Some(MemKind::HostPinned));
        assert_eq!(m.kind(), Some(MemKind::Managed));
        assert_eq!(d.kind(), Some(MemKind::Device(DeviceId(2))));
    }

    #[test]
    fn alloc_is_aligned_and_zeroed() {
        let s = space();
        let p = s.alloc(MemKind::HostPageable, 100).unwrap();
        assert_eq!(p.addr() % ALLOC_ALIGN, 0);
        let v = s.read_vec::<u8>(p, 100).unwrap();
        assert!(v.iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_sized_alloc_rejected() {
        assert_eq!(space().alloc(MemKind::Managed, 0), Err(MemError::ZeroSized));
    }

    #[test]
    fn read_write_roundtrip() {
        let s = space();
        let p = s.alloc(MemKind::Device(DeviceId(0)), 64).unwrap();
        s.write_slice_data::<f64>(p, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.read_vec::<f64>(p, 3).unwrap(), vec![1.0, 2.0, 3.0]);
        // Offset access.
        let p1 = p.offset(8);
        assert_eq!(s.read_at::<f64>(p1).unwrap(), 2.0);
        s.write_at::<f64>(p1, 9.5).unwrap();
        assert_eq!(s.read_vec::<f64>(p, 3).unwrap(), vec![1.0, 9.5, 3.0]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let s = space();
        let p = s.alloc(MemKind::HostPageable, 16).unwrap();
        let mut buf = [0u8; 32];
        let err = s.read_bytes(p, &mut buf).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }), "{err:?}");
    }

    #[test]
    fn unmapped_pointer_detected() {
        let s = space();
        let err = s
            .read_at::<f64>(Ptr(layout::HOST_PAGEABLE_BASE + 0x100))
            .unwrap_err();
        assert!(matches!(err, MemError::Unmapped(_)));
    }

    #[test]
    fn guard_gap_between_allocations() {
        let s = space();
        let a = s.alloc(MemKind::HostPageable, 16).unwrap();
        let _b = s.alloc(MemKind::HostPageable, 16).unwrap();
        // One past the end of `a` must be unmapped (guard gap), not silently
        // part of `b`.
        let err = s.read_at::<u8>(a.offset(16)).unwrap_err();
        assert!(matches!(err, MemError::Unmapped(_)));
    }

    #[test]
    fn free_then_use_detected() {
        let s = space();
        let p = s.alloc(MemKind::Device(DeviceId(0)), 32).unwrap();
        let info = s.free(p).unwrap();
        assert_eq!(info.len, 32);
        assert!(matches!(s.read_at::<f64>(p), Err(MemError::Unmapped(_))));
        assert!(matches!(s.free(p), Err(MemError::Unmapped(_))));
    }

    #[test]
    fn free_interior_pointer_rejected() {
        let s = space();
        let p = s.alloc(MemKind::HostPageable, 32).unwrap();
        assert_eq!(s.free(p.offset(8)), Err(MemError::NotABase(p.offset(8))));
    }

    #[test]
    fn attributes_reports_offset_and_remaining() {
        let s = space();
        let p = s.alloc(MemKind::Managed, 128).unwrap();
        let attr = s.attributes(p.offset(40)).unwrap();
        assert_eq!(attr.kind, MemKind::Managed);
        assert_eq!(attr.base, p);
        assert_eq!(attr.offset, 40);
        assert_eq!(attr.remaining(), 88);
    }

    #[test]
    fn copy_between_allocations() {
        let s = space();
        let a = s.alloc(MemKind::Device(DeviceId(0)), 64).unwrap();
        let b = s.alloc(MemKind::HostPageable, 64).unwrap();
        s.write_slice_data::<f64>(a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        s.copy(b, a, 32).unwrap();
        assert_eq!(s.read_vec::<f64>(b, 4).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn copy_within_allocation_overlapping() {
        let s = space();
        let a = s.alloc(MemKind::HostPageable, 40).unwrap();
        s.write_slice_data::<f64>(a, &[1.0, 2.0, 3.0, 4.0, 5.0])
            .unwrap();
        // Overlapping shift by one element (memmove semantics).
        s.copy(a.offset(8), a, 32).unwrap();
        assert_eq!(
            s.read_vec::<f64>(a, 5).unwrap(),
            vec![1.0, 1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn fill_sets_bytes() {
        let s = space();
        let p = s.alloc(MemKind::Device(DeviceId(1)), 16).unwrap();
        s.fill(p, 16, 0xAB).unwrap();
        assert!(s.read_vec::<u8>(p, 16).unwrap().iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn stats_track_live_and_peak() {
        let s = space();
        let a = s.alloc(MemKind::HostPageable, 100).unwrap();
        let b = s.alloc(MemKind::Device(DeviceId(0)), 200).unwrap();
        assert_eq!(s.stats().live_bytes, 300);
        assert_eq!(s.stats().peak_bytes, 300);
        s.free(a).unwrap();
        assert_eq!(s.stats().live_bytes, 200);
        assert_eq!(s.stats().peak_bytes, 300);
        s.free(b).unwrap();
        assert_eq!(s.live_allocs(), 0);
        assert_eq!(s.stats().live_allocs, 0);
    }

    #[test]
    fn cross_thread_visibility() {
        let s = Arc::new(space());
        let p = s.alloc(MemKind::Device(DeviceId(0)), 8).unwrap();
        let s2 = Arc::clone(&s);
        std::thread::spawn(move || s2.write_at::<f64>(p, 42.0).unwrap())
            .join()
            .unwrap();
        assert_eq!(s.read_at::<f64>(p).unwrap(), 42.0);
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;
    use crate::ptr::DeviceId;

    #[test]
    #[should_panic(expected = "conflicting simultaneous access")]
    fn conflicting_guards_panic_instead_of_deadlocking() {
        let s = AddressSpace::new();
        let p = s.alloc(MemKind::Device(DeviceId(0)), 64).unwrap();
        let a = s.find(p).unwrap();
        let _w = a.write_slice::<f64>(0, 4);
        // A second exclusive view of the same allocation on the same
        // thread must panic with a diagnostic, not hang.
        let _w2 = a.write_slice::<f64>(32, 4);
    }

    #[test]
    fn symmetric_cross_allocation_copies_do_not_conflict() {
        // Two threads running a symmetric exchange — each copying out of
        // the other's allocation into its own, like a halo sendrecv —
        // must never trip the conflicting-access panic: guards are taken
        // in allocation-id order, so the opposing copies only ever
        // contend transiently.
        let s = Arc::new(AddressSpace::new());
        let a = s.alloc(MemKind::Device(DeviceId(0)), 8192).unwrap();
        let b = s.alloc(MemKind::Device(DeviceId(1)), 8192).unwrap();
        let mk = |dst: Ptr, src: Ptr| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for _ in 0..2000 {
                    s.copy(dst, src, 4096).unwrap();
                }
            })
        };
        let t1 = mk(a, b);
        let t2 = mk(b, a);
        t1.join().unwrap();
        t2.join().unwrap();
    }

    #[test]
    fn two_read_guards_coexist() {
        let s = AddressSpace::new();
        let p = s.alloc(MemKind::Device(DeviceId(0)), 64).unwrap();
        let a = s.find(p).unwrap();
        let r1 = a.read_slice::<f64>(0, 4);
        let r2 = a.read_slice::<f64>(32, 4);
        assert_eq!(r1.len(), 4);
        assert_eq!(r2.len(), 4);
    }
}
