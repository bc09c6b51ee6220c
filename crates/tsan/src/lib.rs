//! # tsan-rt — a ThreadSanitizer-style happens-before race detection engine
//!
//! This crate reimplements, in safe Rust, the part of ThreadSanitizer that
//! CuSan and MUST build on (paper §II-A):
//!
//! * **Vector-clock happens-before analysis**: every execution context
//!   carries a vector clock; synchronization is expressed as release
//!   ([`TsanRuntime::annotate_happens_before`]) / acquire
//!   ([`TsanRuntime::annotate_happens_after`]) pairs keyed by an address-like
//!   [`SyncKey`], exactly mirroring TSan's annotation API.
//! * **Fibers** ([`TsanRuntime::create_fiber`], `switch_to_fiber`): TSan's
//!   abstraction for user-defined concurrency, adopted by MUST for
//!   non-blocking MPI operations and by CuSan for CUDA streams. Fiber
//!   switches do *not* imply synchronization.
//! * **Shadow memory**: 4 shadow slots per 8-byte application word (the
//!   same shape as TSan's shadow), storing packed epochs of recent accesses.
//!   New accesses are checked against the stored slots; two accesses
//!   conflict when they touch the same word from different fibers, at least
//!   one is a write, and neither happens-before the other.
//! * **Range annotations** ([`TsanRuntime::read_range`] /
//!   [`TsanRuntime::write_range`]): the `tsan_read/write_range` calls CuSan
//!   issues for kernel arguments and MUST issues for MPI buffers. Their cost
//!   is proportional to the range length — the effect the paper measures in
//!   Fig. 12.
//!
//! The runtime is intentionally **single-threaded**: the paper runs one
//! TSan instance per MPI process, and `cusan-rs` runs one `TsanRuntime` per
//! simulated rank. Cross-rank interactions are MPI's concern, not TSan's.
//!
//! ## Differences from the real TSan, and why they don't matter here
//!
//! * Shadow cells are evicted round-robin (TSan evicts randomly); both can
//!   drop history and miss races, but deterministic eviction keeps tests
//!   reproducible.
//! * The simulated allocator never reuses addresses, so shadow is never
//!   recycled and no allocation "sweeping" is needed.
//! * Stack traces are replaced by interned *access context* labels supplied
//!   at annotation sites.
//!
//! ## Snapshots
//!
//! [`TsanRuntime::write_snapshot`] serializes the complete runtime, so
//! the serve path can spill an unfinished session and resume it later.
//! Every layer that writes bytes it reads back — these sections, `cusan`'s
//! binary trace and session, `cusan-serve`'s session store — uses the one
//! [`codec`] and one [`codec::LAYOUT_VERSION`].

pub mod clock;
pub mod codec;
pub mod fiber;
mod fxhash;
pub mod report;
pub mod runtime;
pub mod shadow;
pub mod stats;

pub use clock::VectorClock;
pub use codec::DecodeError;
pub use fiber::FiberId;
pub use report::{CtxId, RaceReport};
pub use runtime::{SyncKey, TsanRuntime};
pub use stats::TsanStats;
