//! # cusan — a CUDA-aware sanitizer runtime (the paper's contribution)
//!
//! CuSan (paper §IV) intercepts CUDA API calls and exposes CUDA's
//! concurrency, synchronization, and memory-access semantics to a
//! ThreadSanitizer-style happens-before race detector:
//!
//! * Each CUDA **stream** is modeled as a TSan **fiber**, mirroring the
//!   device's execution contexts (paper §IV-A). The default stream is
//!   tracked eagerly, user streams on demand at creation.
//! * A **kernel launch** switches to the stream's fiber, annotates every
//!   pointer argument's memory range as read and/or written — the access
//!   mode comes from the compiler pass ([`kernel_ir::analysis`]) and the
//!   range extent from TypeART — starts a happens-before arc on the
//!   stream's sync key, and switches back to the host fiber.
//! * **Explicit synchronization** (`cudaDeviceSynchronize`,
//!   `cudaStreamSynchronize`, `cudaEventSynchronize`, `cudaStreamQuery`,
//!   `cudaStreamWaitEvent`) terminates the corresponding arcs with
//!   happens-after annotations.
//! * **Implicit synchronization** (memcpy/memset variants) annotates the
//!   accessed ranges on the stream fiber and synchronizes the host only
//!   when the semantics table ([`cuda_sim::semantics`]) says the call
//!   blocks.
//! * **Legacy default-stream barriers** (paper §III-A) are modeled by
//!   cross-releases between the default stream's sync key and every
//!   blocking user stream's key, consumed lazily by the next operation on
//!   the affected stream.
//!
//! The crate wraps [`cuda_sim::CudaDevice`] in [`CusanCuda`]: applications
//! call the checked API, which first performs the CuSan callback (exactly
//! like the instrumentation the LLVM pass inserts *before* each CUDA call,
//! paper Fig. 9) and then forwards to the simulated runtime.
//!
//! Tool composition and flavors (`Vanilla`, `TSan`, `MUST`, `CuSan`,
//! `MUST & CuSan` — the paper's evaluation matrix) are configured through
//! [`ToolConfig`] / [`Flavor`] and shared via [`ToolCtx`].

pub mod api;
pub mod async_check;
pub mod binio;
pub mod config;
pub mod ctx;
pub mod event;
pub mod keys;
pub mod session;
pub mod trace;

pub use api::CusanCuda;
pub use async_check::{AsyncChecker, CheckerPool};
pub use config::{Flavor, ToolConfig};
pub use ctx::ToolCtx;
pub use event::{CtxInterner, CusanEvent, EventCounters, FiberEventError, StrId};
pub use session::{CheckSession, SessionOptions, SessionSummary};
pub use trace::{
    replay_stream, transcode, TraceError, TraceErrorKind, TraceFormat, TraceHeader, TraceItem,
    TracePos, TracePushParser, TraceReader, TraceRecord, TraceSink, Truncation,
};
pub use tsan_rt::DecodeError;
