//! # cusan-apps — the evaluation mini-apps
//!
//! Rust ports of the two CUDA-aware MPI mini-apps of the paper's
//! evaluation (§V), running on the simulated stack:
//!
//! * [`jacobi`] — a 2-D Jacobi solver modeled on the NVIDIA CUDA-aware MPI
//!   example: row-decomposed domain, **blocking** `MPI_Sendrecv` halo
//!   exchange of device pointers, per-iteration residual reduction with a
//!   device→host copy and an `MPI_Allreduce`, and a second CUDA stream for
//!   the reduction (the paper's Jacobi uses two streams, Table I).
//! * [`tealeaf`] — a TeaLeaf-style implicit heat-conduction step: a CG
//!   solve of the 5-point Laplacian system with **non-blocking**
//!   `MPI_Isend`/`MPI_Irecv` halo exchanges and `MPI_Waitall`, default
//!   stream only (Table I).
//!
//! Every kernel is defined twice from one source of truth ([`kernels`]):
//! an IR definition (what the "compiler pass" analyzes) and a native Rust
//! closure (what the simulated device executes). Property tests assert the
//! two agree.
//!
//! Both apps support **race injection** ([`RaceMode`]) that removes a
//! single synchronization call, reproducing the incorrect variants of the
//! paper's testsuite; and both verify their numerics against a single-rank
//! run.

pub mod chaos;
pub mod jacobi;
pub mod jacobi2d;
pub mod kernels;
pub mod tealeaf;
pub mod testsuite;

pub use chaos::{run_chaos_jacobi, run_chaos_tealeaf, ChaosConfig, ChaosError, ChaosResult};
pub use jacobi::{run_jacobi, run_jacobi_traced, JacobiConfig, JacobiRun};
pub use jacobi2d::{run_jacobi2d, Jacobi2dConfig, Jacobi2dRun};
pub use kernels::AppKernels;
pub use tealeaf::{run_tealeaf, run_tealeaf_traced, TeaLeafConfig, TeaLeafRun};

/// Which synchronization bug (if any) to inject into a mini-app run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaceMode {
    /// Correct synchronization.
    #[default]
    None,
    /// Skip the `cudaDeviceSynchronize` between the kernels that produce
    /// the halo data and the MPI halo exchange (the Fig. 4 line-4 bug).
    SkipSyncBeforeExchange,
}

/// `tools` with recording on: the format it names, else text.
pub(crate) fn recording(tools: cusan::ToolConfig) -> cusan::ToolConfig {
    cusan::ToolConfig {
        record: tools.record.or(Some(cusan::TraceFormat::Text)),
        ..tools
    }
}
