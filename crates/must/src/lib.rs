//! # must-rt — MPI correctness layer (MUST analogue)
//!
//! MUST (paper §II-B) intercepts MPI calls and exposes their memory-access
//! and synchronization semantics to ThreadSanitizer:
//!
//! * **Blocking calls** annotate the buffer access (send = read,
//!   recv = write) on the host fiber — sufficient because the access is
//!   ordered with the host's program order.
//! * **Non-blocking calls** (Fig. 1) create a dedicated TSan fiber per
//!   request, annotate the buffer access *on that fiber*, and start a
//!   happens-before arc keyed on the request. The completion call
//!   (`wait`/successful `test`) terminates the arc on the host fiber and
//!   destroys the request fiber. Any host/CUDA access to the buffer inside
//!   the concurrent region is a detectable race.
//! * **Datatype checks** (via TypeART, paper §II-C): the type layout of
//!   the buffer allocation must be compatible with the declared MPI
//!   datatype, and `count` must not overrun the allocation.
//!
//! The crate also provides the [`harness`]: per-rank composition of
//! [`cusan::ToolCtx`] + [`cusan::CusanCuda`] + [`CheckedMpi`] over a shared
//! world — the full "MUST & CuSan" stack of the paper, used by the
//! mini-apps, the testsuite, and every benchmark.

pub mod checks;
pub mod harness;
pub mod mpi;
pub mod report;

pub use checks::MustReport;
pub use harness::{
    run_checked_world, run_checked_world_scheduled, RankCtx, RankOutcome, WorldOutcome,
};
pub use mpi::{CheckedMpi, MustRequest};
pub use report::{render_counters, render_text};
