//! The TypeART runtime: allocation tracking and pointer queries (Fig. 2).
//!
//! One runtime per simulated MPI rank. The checked CUDA API and the host
//! allocation helpers invoke [`TypeartRuntime::on_alloc`] /
//! [`TypeartRuntime::on_free`]; MUST queries datatype compatibility and
//! CuSan queries allocation extents.

use crate::registry::{TypeId, TypeRegistry};
use sim_mem::{MemKind, Ptr};
use std::collections::BTreeMap;
use std::fmt;

/// A tracked allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRecord {
    /// Base pointer.
    pub base: Ptr,
    /// Element type.
    pub type_id: TypeId,
    /// Number of elements ("runtime allocation extent").
    pub count: u64,
    /// Total length in bytes.
    pub bytes: u64,
    /// Memory kind (host/pinned/managed/device) — the CUDA extension of
    /// TypeART (paper §IV-C) tracks this to distinguish pointer classes.
    pub kind: MemKind,
}

/// Result of a pointer query: which allocation contains the pointer and
/// where inside it the pointer lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeQuery {
    /// The containing allocation.
    pub record: AllocRecord,
    /// Byte offset of the queried pointer from the base.
    pub offset_bytes: u64,
    /// Element index of the queried pointer (offset / element size).
    pub elem_index: u64,
    /// True if the pointer is element-aligned within the allocation.
    pub element_aligned: bool,
}

impl TypeQuery {
    /// Bytes from the queried pointer to the end of the allocation — the
    /// extent CuSan passes to `tsan_read/write_range`.
    pub fn remaining_bytes(&self) -> u64 {
        self.record.bytes - self.offset_bytes
    }
}

/// Errors from allocation bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeartError {
    /// Free of a pointer that is not a tracked base.
    UntrackedFree(Ptr),
    /// New allocation overlaps an existing tracked allocation.
    Overlap(Ptr),
}

impl fmt::Display for TypeartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeartError::UntrackedFree(p) => write!(f, "free of untracked pointer {p}"),
            TypeartError::Overlap(p) => {
                write!(f, "allocation at {p} overlaps a tracked allocation")
            }
        }
    }
}

impl std::error::Error for TypeartError {}

/// The per-rank TypeART runtime.
#[derive(Debug)]
pub struct TypeartRuntime {
    registry: TypeRegistry,
    table: BTreeMap<u64, AllocRecord>,
}

impl Default for TypeartRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeartRuntime {
    /// Runtime with a fresh registry (built-ins registered).
    pub fn new() -> Self {
        TypeartRuntime {
            registry: TypeRegistry::new(),
            table: BTreeMap::new(),
        }
    }

    /// The compile-time type registry.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// Mutable registry access (registering app-specific types).
    pub fn registry_mut(&mut self) -> &mut TypeRegistry {
        &mut self.registry
    }

    /// Record an allocation callback: `(address, count, type)` (Fig. 2
    /// step 2). `kind` records where the memory lives.
    pub fn on_alloc(
        &mut self,
        base: Ptr,
        type_id: TypeId,
        count: u64,
        kind: MemKind,
    ) -> Result<(), TypeartError> {
        let bytes = count * self.registry.size_of(type_id);
        // Overlap check against neighbours (the simulated allocator never
        // overlaps, but the runtime must not rely on that).
        if let Some((_, prev)) = self.table.range(..=base.0).next_back() {
            if base.0 < prev.base.0 + prev.bytes {
                return Err(TypeartError::Overlap(base));
            }
        }
        if let Some((&next_base, _)) = self.table.range(base.0..).next() {
            if next_base < base.0 + bytes {
                return Err(TypeartError::Overlap(base));
            }
        }
        self.table.insert(
            base.0,
            AllocRecord {
                base,
                type_id,
                count,
                bytes,
                kind,
            },
        );
        Ok(())
    }

    /// Record a de-allocation callback.
    pub fn on_free(&mut self, base: Ptr) -> Result<AllocRecord, TypeartError> {
        self.table
            .remove(&base.0)
            .ok_or(TypeartError::UntrackedFree(base))
    }

    /// Query the allocation containing `ptr` (Fig. 2 step 4).
    pub fn query(&self, ptr: Ptr) -> Option<TypeQuery> {
        let (_, record) = self.table.range(..=ptr.0).next_back()?;
        if ptr.0 >= record.base.0 + record.bytes {
            return None;
        }
        let offset_bytes = ptr.0 - record.base.0;
        let elem_size = self.registry.size_of(record.type_id).max(1);
        Some(TypeQuery {
            record: *record,
            offset_bytes,
            elem_index: offset_bytes / elem_size,
            element_aligned: offset_bytes.is_multiple_of(elem_size),
        })
    }

    /// Extent in bytes from `ptr` to the end of its allocation — CuSan's
    /// "allocation size query" used for kernel-argument range annotations.
    pub fn extent_of(&self, ptr: Ptr) -> Option<u64> {
        self.query(ptr).map(|q| q.remaining_bytes())
    }

    /// Approximate heap bytes of the lookup table (Fig. 11 contribution).
    pub fn memory_bytes(&self) -> u64 {
        // BTreeMap node overhead approximation: key + record + ~32B/entry.
        self.table.len() as u64 * (std::mem::size_of::<AllocRecord>() as u64 + 40)
    }

    /// Number of live tracked allocations.
    pub fn live_allocs(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::{AddressSpace, DeviceId};

    fn dev() -> MemKind {
        MemKind::Device(DeviceId(0))
    }

    #[test]
    fn alloc_query_free_roundtrip() {
        let space = AddressSpace::new();
        let mut ta = TypeartRuntime::new();
        let p = space.alloc_array::<f64>(dev(), 100).unwrap();
        ta.on_alloc(p, TypeId::F64, 100, dev()).unwrap();
        let q = ta.query(p.offset(16)).unwrap();
        assert_eq!(q.record.type_id, TypeId::F64);
        assert_eq!(q.record.count, 100);
        assert_eq!(q.elem_index, 2);
        assert!(q.element_aligned);
        assert_eq!(q.remaining_bytes(), 800 - 16);
        let r = ta.on_free(p).unwrap();
        assert_eq!(r.count, 100);
        assert!(ta.query(p).is_none());
    }

    #[test]
    fn extent_of_interior_pointer() {
        let mut ta = TypeartRuntime::new();
        let base = Ptr(0x1000_0000);
        ta.on_alloc(base, TypeId::I32, 10, MemKind::HostPageable)
            .unwrap();
        assert_eq!(ta.extent_of(base), Some(40));
        assert_eq!(ta.extent_of(base.offset(12)), Some(28));
        assert_eq!(ta.extent_of(base.offset(40)), None, "one past the end");
    }

    #[test]
    fn misaligned_interior_pointer_flagged() {
        let mut ta = TypeartRuntime::new();
        let base = Ptr(0x1000);
        ta.on_alloc(base, TypeId::F64, 4, dev()).unwrap();
        let q = ta.query(base.offset(3)).unwrap();
        assert!(!q.element_aligned);
        assert_eq!(q.elem_index, 0);
    }

    #[test]
    fn untracked_free_is_error() {
        let mut ta = TypeartRuntime::new();
        assert_eq!(
            ta.on_free(Ptr(0x2000)),
            Err(TypeartError::UntrackedFree(Ptr(0x2000)))
        );
    }

    #[test]
    fn overlap_rejected() {
        let mut ta = TypeartRuntime::new();
        ta.on_alloc(Ptr(0x1000), TypeId::F64, 8, dev()).unwrap(); // [0x1000,0x1040)
        assert_eq!(
            ta.on_alloc(Ptr(0x1020), TypeId::F64, 8, dev()),
            Err(TypeartError::Overlap(Ptr(0x1020)))
        );
        assert_eq!(
            ta.on_alloc(Ptr(0x0fe0), TypeId::F64, 8, dev()),
            Err(TypeartError::Overlap(Ptr(0x0fe0))),
            "new allocation running into an existing one"
        );
        // Adjacent is fine.
        ta.on_alloc(Ptr(0x1040), TypeId::F64, 2, dev()).unwrap();
    }

    #[test]
    fn kind_is_recorded() {
        let mut ta = TypeartRuntime::new();
        ta.on_alloc(Ptr(0x1000), TypeId::U8, 16, MemKind::Managed)
            .unwrap();
        assert_eq!(ta.query(Ptr(0x1008)).unwrap().record.kind, MemKind::Managed);
    }

    #[test]
    fn stats_track_lifecycle() {
        let mut ta = TypeartRuntime::new();
        ta.on_alloc(Ptr(0x1000), TypeId::F64, 1, dev()).unwrap();
        ta.on_alloc(Ptr(0x2000), TypeId::F64, 1, dev()).unwrap();
        ta.on_free(Ptr(0x1000)).unwrap();
        assert_eq!(ta.live_allocs(), 1);
        assert!(ta.memory_bytes() > 0);
    }

    #[test]
    fn custom_type_registration() {
        let mut ta = TypeartRuntime::new();
        let cell = ta.registry_mut().register("struct cell", 24);
        ta.on_alloc(Ptr(0x1000), cell, 10, dev()).unwrap();
        let q = ta.query(Ptr(0x1000 + 48)).unwrap();
        assert_eq!(q.elem_index, 2);
        assert_eq!(q.record.bytes, 240);
    }
}
