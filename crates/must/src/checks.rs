//! TypeART-backed MPI datatype checks (paper Fig. 2).
//!
//! For every intercepted MPI call, MUST queries the buffer pointer in the
//! TypeART runtime and compares the allocation's recorded element type and
//! extent against the declared MPI datatype and count.

use mpi_sim::MpiDatatype;
use sim_mem::Ptr;
use std::fmt;
use typeart_rt::TypeartRuntime;

/// A MUST diagnostic (non-race correctness finding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MustReport {
    /// Buffer element type is incompatible with the MPI datatype.
    TypeMismatch {
        /// The MPI call.
        call: String,
        /// Buffer pointer.
        buf: Ptr,
        /// Type recorded by TypeART.
        allocated: String,
        /// Declared MPI datatype's element type.
        declared: &'static str,
    },
    /// `count` elements exceed the allocation extent from the pointer.
    BufferOverrun {
        /// The MPI call.
        call: String,
        /// Buffer pointer.
        buf: Ptr,
        /// Requested bytes.
        requested: u64,
        /// Available bytes.
        available: u64,
    },
    /// The buffer pointer is not a tracked allocation.
    UnknownBuffer {
        /// The MPI call.
        call: String,
        /// Buffer pointer.
        buf: Ptr,
    },
    /// The buffer pointer is not aligned to an element boundary of its
    /// allocation.
    MisalignedBuffer {
        /// The MPI call.
        call: String,
        /// Buffer pointer.
        buf: Ptr,
    },
}

impl fmt::Display for MustReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MustReport::TypeMismatch {
                call,
                buf,
                allocated,
                declared,
            } => write!(
                f,
                "{call}: buffer {buf} holds `{allocated}` but the MPI datatype expects `{declared}`"
            ),
            MustReport::BufferOverrun {
                call,
                buf,
                requested,
                available,
            } => write!(
                f,
                "{call}: count requires {requested} bytes but only {available} remain in the \
                 allocation at {buf}"
            ),
            MustReport::UnknownBuffer { call, buf } => {
                write!(f, "{call}: buffer {buf} is not a tracked allocation")
            }
            MustReport::MisalignedBuffer { call, buf } => {
                write!(
                    f,
                    "{call}: buffer {buf} is not element-aligned within its allocation"
                )
            }
        }
    }
}

/// Run the datatype/extent checks for one buffer argument, appending any
/// findings to `out`.
pub(crate) fn check_buffer(
    typeart: &TypeartRuntime,
    call: &str,
    buf: Ptr,
    count: u64,
    dtype: MpiDatatype,
    out: &mut Vec<MustReport>,
) {
    let Some(q) = typeart.query(buf) else {
        out.push(MustReport::UnknownBuffer {
            call: call.to_string(),
            buf,
        });
        return;
    };
    if !q.element_aligned {
        out.push(MustReport::MisalignedBuffer {
            call: call.to_string(),
            buf,
        });
    }
    // MPI_BYTE is layout-compatible with any type.
    if dtype != MpiDatatype::Byte {
        let allocated = typeart
            .registry()
            .info(q.record.type_id)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| "<unregistered>".to_string());
        if allocated != dtype.type_name() {
            out.push(MustReport::TypeMismatch {
                call: call.to_string(),
                buf,
                allocated,
                declared: dtype.type_name(),
            });
        }
    }
    let requested = count * dtype.size();
    if requested > q.remaining_bytes() {
        out.push(MustReport::BufferOverrun {
            call: call.to_string(),
            buf,
            requested,
            available: q.remaining_bytes(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::{DeviceId, MemKind};
    use typeart_rt::TypeId;

    fn rt_with_f64(base: u64, n: u64) -> TypeartRuntime {
        let mut ta = TypeartRuntime::new();
        ta.on_alloc(Ptr(base), TypeId::F64, n, MemKind::Device(DeviceId(0)))
            .unwrap();
        ta
    }

    #[test]
    fn compatible_buffer_passes() {
        let ta = rt_with_f64(0x1000, 10);
        let mut out = Vec::new();
        check_buffer(
            &ta,
            "MPI_Send",
            Ptr(0x1000),
            10,
            MpiDatatype::Double,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn interior_pointer_with_room_passes() {
        let ta = rt_with_f64(0x1000, 10);
        let mut out = Vec::new();
        check_buffer(
            &ta,
            "MPI_Send",
            Ptr(0x1000 + 16),
            8,
            MpiDatatype::Double,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn type_mismatch_reported() {
        let ta = rt_with_f64(0x1000, 10);
        let mut out = Vec::new();
        check_buffer(&ta, "MPI_Send", Ptr(0x1000), 10, MpiDatatype::Int, &mut out);
        assert!(
            matches!(
                &out[0],
                MustReport::TypeMismatch {
                    declared: "i32",
                    ..
                }
            ),
            "{out:?}"
        );
    }

    #[test]
    fn byte_matches_anything() {
        let ta = rt_with_f64(0x1000, 10);
        let mut out = Vec::new();
        check_buffer(
            &ta,
            "MPI_Send",
            Ptr(0x1000),
            80,
            MpiDatatype::Byte,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn overrun_reported() {
        let ta = rt_with_f64(0x1000, 10);
        let mut out = Vec::new();
        check_buffer(
            &ta,
            "MPI_Recv",
            Ptr(0x1000),
            11,
            MpiDatatype::Double,
            &mut out,
        );
        assert!(matches!(
            &out[0],
            MustReport::BufferOverrun {
                requested: 88,
                available: 80,
                ..
            }
        ));
    }

    #[test]
    fn overrun_from_interior_pointer() {
        let ta = rt_with_f64(0x1000, 10);
        let mut out = Vec::new();
        check_buffer(
            &ta,
            "MPI_Recv",
            Ptr(0x1000 + 40),
            6,
            MpiDatatype::Double,
            &mut out,
        );
        assert!(matches!(
            &out[0],
            MustReport::BufferOverrun { available: 40, .. }
        ));
    }

    #[test]
    fn unknown_buffer_reported() {
        let ta = TypeartRuntime::new();
        let mut out = Vec::new();
        check_buffer(
            &ta,
            "MPI_Send",
            Ptr(0x9999),
            1,
            MpiDatatype::Double,
            &mut out,
        );
        assert!(matches!(&out[0], MustReport::UnknownBuffer { .. }));
    }

    #[test]
    fn misaligned_reported() {
        let ta = rt_with_f64(0x1000, 10);
        let mut out = Vec::new();
        check_buffer(
            &ta,
            "MPI_Send",
            Ptr(0x1003),
            1,
            MpiDatatype::Double,
            &mut out,
        );
        assert!(
            out.iter()
                .any(|r| matches!(r, MustReport::MisalignedBuffer { .. })),
            "{out:?}"
        );
    }
}
