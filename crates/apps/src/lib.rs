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
//!
//! Both rank bodies propagate every failure as an [`AppError`], so the
//! same body runs under fault injection: [`try_run_jacobi`] and
//! [`try_run_tealeaf`] take an optional schedule controller (an
//! [`explore::FaultSchedule`] fails the checked calls it picks) and
//! return each rank's result or first error. [`run_jacobi`] and
//! [`run_tealeaf`] expect success.

pub mod jacobi;
pub mod jacobi2d;
pub mod kernels;
pub mod tealeaf;
pub mod testsuite;

pub use jacobi::{run_jacobi, run_jacobi_traced, try_run_jacobi, JacobiConfig, JacobiRun};
pub use jacobi2d::{run_jacobi2d, Jacobi2dConfig, Jacobi2dRun};
pub use kernels::AppKernels;
pub use tealeaf::{run_tealeaf, run_tealeaf_traced, try_run_tealeaf, TeaLeafConfig, TeaLeafRun};

use cuda_sim::CudaError;
use explore::ScheduleController;
use mpi_sim::MpiError;
use must_rt::{run_checked_world, run_checked_world_scheduled, RankCtx, WorldOutcome};
use sim_mem::MemError;
use std::fmt;
use std::sync::Arc;

/// The first failure a rank body ran into: an injected fault, or a
/// partner's, surfacing as the typed error of the call that met it.
#[derive(Debug, Clone, PartialEq)]
pub enum AppError {
    /// A CUDA call failed.
    Cuda(CudaError),
    /// An MPI call failed (a partner that returned early shows up as
    /// `MpiError::Deadlock`).
    Mpi(MpiError),
    /// A tracked host access failed.
    Mem(MemError),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Cuda(e) => write!(f, "cuda: {e}"),
            AppError::Mpi(e) => write!(f, "mpi: {e}"),
            AppError::Mem(e) => write!(f, "mem: {e}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<CudaError> for AppError {
    fn from(e: CudaError) -> Self {
        AppError::Cuda(e)
    }
}

impl From<MpiError> for AppError {
    fn from(e: MpiError) -> Self {
        AppError::Mpi(e)
    }
}

impl From<MemError> for AppError {
    fn from(e: MemError) -> Self {
        AppError::Mem(e)
    }
}

/// A rank body's result.
pub type AppResult<T> = Result<T, AppError>;

/// Run a rank body on `n` ranks, under `controller` if one is given.
fn run_world<T: Send>(
    n: usize,
    tools: cusan::ToolConfig,
    controller: Option<Arc<dyn ScheduleController>>,
    body: impl Fn(&mut RankCtx) -> T + Send + Sync,
) -> WorldOutcome<T> {
    let registry = Arc::clone(&AppKernels::shared().registry);
    match controller {
        Some(c) => run_checked_world_scheduled(n, tools, registry, c, body),
        None => run_checked_world(n, tools, registry, body),
    }
}

/// Every rank's value; a rank's error is a panic naming the rank.
fn expect_ok<T>(out: WorldOutcome<AppResult<T>>) -> WorldOutcome<T> {
    let results = out
        .results
        .into_iter()
        .enumerate()
        .map(|(rank, r)| r.unwrap_or_else(|e| panic!("rank {rank} failed: {e}")))
        .collect();
    WorldOutcome {
        results,
        ranks: out.ranks,
        space: out.space,
    }
}

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
