//! Pointer newtype, memory kinds, and pointer attributes.
//!
//! The simulated address space mimics CUDA's unified virtual addressing:
//! disjoint address windows are reserved per memory kind (and per device),
//! so the kind of memory a pointer refers to can be recovered from the
//! address alone — the analogue of `cuPointerGetAttribute`.

use std::fmt;

/// Identifier of a simulated CUDA device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cuda:{}", self.0)
    }
}

/// The kind of memory an allocation lives in.
///
/// The kind determines implicit synchronization behaviour of CUDA memory
/// operations (paper §III-C): e.g. `cudaMemset` on pinned memory
/// synchronizes with the host while on pageable memory it does not, and
/// managed memory requires explicit synchronization around host accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Ordinary host memory (`malloc`). Pageable: DMA engines must stage
    /// transfers through a pinned bounce buffer, which makes the
    /// corresponding copy calls host-synchronous.
    HostPageable,
    /// Page-locked host memory (`cudaHostAlloc`). Directly DMA-able.
    HostPinned,
    /// CUDA managed memory (`cudaMallocManaged`): migrates between host and
    /// device; host accesses require explicit synchronization.
    Managed,
    /// Device-resident memory (`cudaMalloc`) on a specific device.
    Device(DeviceId),
}

impl MemKind {
    /// True if the pointer is usable on a device (device, managed, pinned).
    pub fn device_accessible(self) -> bool {
        !matches!(self, MemKind::HostPageable)
    }

    /// True for device-resident memory.
    pub fn is_device(self) -> bool {
        matches!(self, MemKind::Device(_))
    }
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemKind::HostPageable => write!(f, "host-pageable"),
            MemKind::HostPinned => write!(f, "host-pinned"),
            MemKind::Managed => write!(f, "managed"),
            MemKind::Device(d) => write!(f, "device({})", d.0),
        }
    }
}

/// Address-window layout of the simulated UVA space.
///
/// | window                     | base                  |
/// |----------------------------|-----------------------|
/// | host pageable              | `0x0000_1000_0000_0000` |
/// | host pinned                | `0x0000_2000_0000_0000` |
/// | managed                    | `0x0000_3000_0000_0000` |
/// | device *d*                 | `0x0001_0000_0000_0000 + (d << 40)` |
///
/// Each window is 2^40 bytes, far more than any simulation will allocate.
pub mod layout {
    use super::{DeviceId, MemKind};

    /// Base address of the host-pageable window.
    pub const HOST_PAGEABLE_BASE: u64 = 0x0000_1000_0000_0000;
    /// Base address of the host-pinned window.
    pub const HOST_PINNED_BASE: u64 = 0x0000_2000_0000_0000;
    /// Base address of the managed-memory window.
    pub const MANAGED_BASE: u64 = 0x0000_3000_0000_0000;
    /// Base address of the first device window.
    pub const DEVICE_BASE: u64 = 0x0001_0000_0000_0000;
    /// Size of each per-kind (and per-device) window.
    pub const WINDOW: u64 = 1 << 40;
    /// log2 of the span of one allocation shard inside a window (see
    /// [`crate::AddressSpace::alloc_in_shard`]): 4 GiB per shard, 256
    /// shards per window.
    pub const SHARD_BITS: u32 = 32;

    /// The base address of the window for a memory kind.
    pub fn window_base(kind: MemKind) -> u64 {
        match kind {
            MemKind::HostPageable => HOST_PAGEABLE_BASE,
            MemKind::HostPinned => HOST_PINNED_BASE,
            MemKind::Managed => MANAGED_BASE,
            MemKind::Device(DeviceId(d)) => DEVICE_BASE + (u64::from(d) << 40),
        }
    }

    /// Recover the memory kind from a raw address, if it falls in a window.
    pub fn kind_of(addr: u64) -> Option<MemKind> {
        if (HOST_PAGEABLE_BASE..HOST_PAGEABLE_BASE + WINDOW).contains(&addr) {
            Some(MemKind::HostPageable)
        } else if (HOST_PINNED_BASE..HOST_PINNED_BASE + WINDOW).contains(&addr) {
            Some(MemKind::HostPinned)
        } else if (MANAGED_BASE..MANAGED_BASE + WINDOW).contains(&addr) {
            Some(MemKind::Managed)
        } else if addr >= DEVICE_BASE {
            let d = (addr - DEVICE_BASE) >> 40;
            if d <= u64::from(u32::MAX) {
                Some(MemKind::Device(DeviceId(d as u32)))
            } else {
                None
            }
        } else {
            None
        }
    }
}

/// A pointer into the simulated UVA space.
///
/// `Ptr` is `Copy`, comparable, and supports byte-offset arithmetic; it is
/// deliberately *untyped* — exactly like the `void*` buffers handed to MPI —
/// so that the TypeART analogue has a real job recovering type and extent.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ptr(pub u64);

impl Ptr {
    /// The null pointer.
    pub const NULL: Ptr = Ptr(0);

    /// Raw address value.
    pub fn addr(self) -> u64 {
        self.0
    }

    /// Pointer advanced by `bytes` bytes.
    #[must_use]
    pub fn offset(self, bytes: u64) -> Ptr {
        Ptr(self.0 + bytes)
    }

    /// Memory kind derived from the address window, if any.
    pub fn kind(self) -> Option<MemKind> {
        layout::kind_of(self.0)
    }
}

impl fmt::Debug for Ptr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ptr({:#x})", self.0)
    }
}

impl fmt::Display for Ptr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Result of a pointer-attribute query (`cuPointerGetAttribute` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerAttr {
    /// Memory kind of the containing allocation.
    pub kind: MemKind,
    /// Base pointer of the containing allocation.
    pub base: Ptr,
    /// Total length of the containing allocation in bytes.
    pub len: u64,
    /// Offset of the queried pointer within the allocation.
    pub offset: u64,
    /// Unique id of the allocation.
    pub alloc_id: u64,
}

impl PointerAttr {
    /// Bytes remaining from the queried pointer to the end of the
    /// allocation — the extent CuSan asks TypeART for.
    pub fn remaining(&self) -> u64 {
        self.len - self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_roundtrip_host_kinds() {
        for kind in [MemKind::HostPageable, MemKind::HostPinned, MemKind::Managed] {
            let base = layout::window_base(kind);
            assert_eq!(layout::kind_of(base), Some(kind));
            assert_eq!(layout::kind_of(base + 12345), Some(kind));
        }
    }

    #[test]
    fn window_roundtrip_devices() {
        for d in [0u32, 1, 2, 7, 255] {
            let kind = MemKind::Device(DeviceId(d));
            let base = layout::window_base(kind);
            assert_eq!(layout::kind_of(base), Some(kind));
            assert_eq!(layout::kind_of(base + (1 << 39)), Some(kind));
        }
    }

    #[test]
    fn null_and_low_addresses_have_no_kind() {
        assert_eq!(layout::kind_of(0), None);
        assert_eq!(layout::kind_of(0xfff), None);
        assert_eq!(Ptr::NULL.kind(), None);
    }

    #[test]
    fn ptr_offset_arithmetic() {
        let p = Ptr(layout::HOST_PAGEABLE_BASE);
        assert_eq!(p.offset(16).addr(), p.addr() + 16);
        assert_eq!(p.offset(0), p);
    }

    #[test]
    fn kind_predicates() {
        assert!(!MemKind::HostPageable.device_accessible());
        assert!(MemKind::HostPinned.device_accessible());
        assert!(MemKind::Device(DeviceId(0)).is_device());
        assert!(!MemKind::Managed.is_device());
    }

    #[test]
    fn display_formats() {
        assert_eq!(MemKind::Device(DeviceId(3)).to_string(), "device(3)");
        assert_eq!(MemKind::Managed.to_string(), "managed");
        assert_eq!(format!("{}", Ptr(0x10)), "0x10");
    }
}
