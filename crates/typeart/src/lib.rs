//! # typeart-rt — allocation type tracking (TypeART analogue)
//!
//! TypeART (paper §II-C) is an LLVM extension that instruments memory
//! allocations, records their *type layout* and *runtime extent*, and lets
//! MUST query the type of the `void*` buffers passed to MPI calls. CuSan
//! uses the same runtime to obtain the **extent** of device allocations so
//! it can annotate whole-buffer kernel accesses in TSan (paper §IV, §IV-C).
//!
//! In `cusan-rs` the "compiler instrumentation" is the allocation shims in
//! the CuSan-checked CUDA API and host-allocation helpers: every allocation
//! reports `(address, element count, type id)` to a per-rank
//! [`TypeartRuntime`], every free removes the record — mirroring Fig. 2 of
//! the paper. The compile-time side is modeled by [`TypeRegistry`], which
//! assigns stable ids to type layouts in process (the role of the paper's
//! serialized compile-time type info file; no file is written).
//!
//! The runtime keeps no counters: its allocation table is the one record
//! of what is tracked ([`TypeartRuntime::live_allocs`],
//! [`TypeartRuntime::memory_bytes`]), and the allocations and frees a
//! rank made are counted once, as markers in its checker session.

pub mod registry;
pub mod runtime;

pub use registry::{TypeId, TypeInfo, TypeRegistry};
pub use runtime::{AllocRecord, TypeQuery, TypeartError, TypeartRuntime};
