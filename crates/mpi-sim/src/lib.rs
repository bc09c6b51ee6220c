//! # mpi-sim — a thread-per-rank, CUDA-aware MPI simulator
//!
//! The substrate standing in for OpenMPI/MVAPICH in `cusan-rs`. Each MPI
//! rank is a thread; all ranks share the simulated UVA
//! [`sim_mem::AddressSpace`],
//! so communication buffers are plain [`sim_mem::Ptr`]s that may point to
//! host **or device** memory — exactly the CUDA-aware MPI contract (paper
//! §III-D): the library resolves the pointer's location through UVA
//! attributes and transfers directly, no staging copies.
//!
//! ## Semantics modeled
//!
//! * Blocking and non-blocking point-to-point (`send`/`recv`/`isend`/
//!   `irecv`/`sendrecv`) with tag and source matching, `ANY_SOURCE` /
//!   `ANY_TAG`, and per-pair non-overtaking order.
//! * Requests with `wait`/`waitall`/`test` completion.
//! * **Rendezvous transfer**: message payloads move from the sender's
//!   memory to the receiver's at *match time*, by whichever rank completes
//!   the match. A racing write to a send buffer between `isend` and the
//!   match therefore genuinely corrupts the message — the bug class MUST's
//!   fiber model (Fig. 1) exists to detect.
//! * Collectives: `barrier`, `bcast`, `reduce`, `allreduce`.
//! * Truncation errors when a message exceeds the posted receive buffer.
//!
//! Deadlocks (e.g. an `irecv` that is never matched) are detected
//! exactly, when every live rank is blocked, and reported as
//! [`MpiError::Deadlock`] instead of hanging the test suite: one wait
//! monitor per world sees every blocking wait and every settlement.
//! There is no timeout.

pub mod collective;
pub mod datatype;
pub mod error;
mod monitor;
pub mod request;
pub mod world;

pub use datatype::{MpiDatatype, ReduceOp};
pub use error::MpiError;
pub use request::{Request, Status};
pub use world::{
    run_world, run_world_with_schedule, Comm, ANY_SOURCE, ANY_TAG, PROC_NULL, PROC_NULL_SRC,
};
