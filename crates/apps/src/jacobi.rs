//! The Jacobi solver mini-app (paper §V, after the NVIDIA CUDA-aware MPI
//! example).
//!
//! 2-D Laplace relaxation on an `nx × ny` grid, row-decomposed across
//! ranks. Each local field has `rows + 2` rows of `nx` columns (one halo
//! row on each side). Per iteration:
//!
//! 1. `jacobi_step` (default stream) computes the new interior.
//! 2. `residual_reduce` on a **second CUDA stream** accumulates the
//!    squared update norm (legacy default-stream semantics order it after
//!    the step kernel — no explicit sync needed).
//! 3. A blocking `cudaMemcpy` D2H of the norm (implicit synchronization)
//!    followed by `MPI_Allreduce`.
//! 4. `copy_buf` commits `anew → a`.
//! 5. `cudaDeviceSynchronize`, then **blocking** `MPI_Sendrecv` halo
//!    exchange directly on device pointers.
//!
//! [`RaceMode::SkipSyncBeforeExchange`] removes step 5's synchronize —
//! the paper's Fig. 4 bug — producing both a CuSan race report and
//! genuinely stale halos.

use crate::kernels::AppKernels;
use crate::RaceMode;
use cuda_sim::{CopyKind, StreamFlags, StreamId};
use cusan::ToolConfig;
use kernel_ir::{LaunchArg, LaunchGrid};
use mpi_sim::{MpiDatatype, ReduceOp, PROC_NULL};
use must_rt::{run_checked_world, RankCtx, WorldOutcome};
use sim_mem::Ptr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jacobi configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobiConfig {
    /// Global columns (including the two fixed boundary columns).
    pub nx: u64,
    /// Global interior rows; must be divisible by `ranks`.
    pub ny: u64,
    /// MPI ranks (row decomposition).
    pub ranks: usize,
    /// Iterations to run.
    pub iters: u32,
    /// Synchronization-bug injection.
    pub race: RaceMode,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            nx: 512,
            ny: 256,
            ranks: 2,
            iters: 100,
            race: RaceMode::None,
        }
    }
}

impl JacobiConfig {
    /// Interior rows owned by each rank.
    pub fn rows_per_rank(&self) -> u64 {
        assert_eq!(self.ny % self.ranks as u64, 0, "ny must divide by ranks");
        self.ny / self.ranks as u64
    }
}

/// Result of a Jacobi run.
#[derive(Debug)]
pub struct JacobiRun {
    /// The configuration.
    pub config: JacobiConfig,
    /// Global residual norm per iteration (√ of the allreduced squared
    /// update norm).
    pub norms: Vec<f64>,
    /// Final norm.
    pub final_norm: f64,
    /// Wall-clock time of the whole world run.
    pub elapsed: Duration,
    /// Tool outcome (races, counters, memory).
    pub outcome: WorldOutcome<Vec<f64>>,
}

/// Run Jacobi under a tool configuration (recording a trace when its
/// `record` says so).
pub fn run_jacobi(cfg: &JacobiConfig, tools: impl Into<ToolConfig>) -> JacobiRun {
    let cfg = *cfg;
    let k = AppKernels::shared();
    let start = Instant::now();
    let outcome = run_checked_world(cfg.ranks, tools, Arc::clone(&k.registry), move |ctx| {
        jacobi_rank(ctx, k, &cfg)
    });
    let elapsed = start.elapsed();
    let norms = outcome.results[0].clone();
    JacobiRun {
        config: cfg,
        final_norm: norms.last().copied().unwrap_or(0.0),
        norms,
        elapsed,
        outcome,
    }
}

/// [`run_jacobi`] with `record` on: the caller's format, else text.
pub fn run_jacobi_traced(cfg: &JacobiConfig, tools: impl Into<ToolConfig>) -> JacobiRun {
    run_jacobi(cfg, crate::recording(tools.into()))
}

fn row_ptr(base: Ptr, row: u64, nx: u64) -> Ptr {
    base.offset(row * nx * 8)
}

fn jacobi_rank(ctx: &mut RankCtx, k: &AppKernels, cfg: &JacobiConfig) -> Vec<f64> {
    let rank = ctx.rank();
    let nx = cfg.nx;
    let rows = cfg.rows_per_rank();
    let local = (rows + 2) * nx;
    let n_int = nx * rows;

    // Device allocations.
    let d_a = ctx.cuda.malloc::<f64>(local).unwrap();
    let d_anew = ctx.cuda.malloc::<f64>(local).unwrap();
    let d_norm = ctx.cuda.malloc::<f64>(1).unwrap();
    let h_norm = ctx.cuda.host_malloc::<f64>(1).unwrap();
    let h_norm_global = ctx.cuda.host_malloc::<f64>(1).unwrap();

    // Zero-initialize (2 cudaMemset calls, as in the paper's counter mix).
    ctx.cuda.memset(d_a, 0, local * 8).unwrap();
    ctx.cuda.memset(d_anew, 0, local * 8).unwrap();

    // Dirichlet condition: the global top boundary (rank 0's halo row 0)
    // is held at 1.0 in both fields.
    if rank == 0 {
        for buf in [d_a, d_anew] {
            ctx.cuda
                .launch(
                    k.fill,
                    LaunchGrid::linear(nx),
                    StreamId::DEFAULT,
                    vec![
                        LaunchArg::Ptr(buf),
                        LaunchArg::F64(1.0),
                        LaunchArg::I64(nx as i64),
                    ],
                )
                .unwrap();
        }
    }

    // The reduction runs on a second, blocking user stream (Table I:
    // Jacobi uses 2 streams).
    let norm_stream = ctx.cuda.stream_create(StreamFlags::Default);

    // Fixed-boundary neighbours are MPI_PROC_NULL, like the NVIDIA
    // CUDA-aware MPI example: the sendrecv pair is unconditional.
    let up: i64 = if rank > 0 { rank as i64 - 1 } else { PROC_NULL };
    let down: i64 = if rank + 1 < cfg.ranks {
        rank as i64 + 1
    } else {
        PROC_NULL
    };
    const TAG_UP: i32 = 0; // message moving to a lower rank
    const TAG_DOWN: i32 = 1; // message moving to a higher rank

    let mut norms = Vec::with_capacity(cfg.iters as usize);
    for _ in 0..cfg.iters {
        // 1. Stencil update on the default stream.
        ctx.cuda
            .launch(
                k.jacobi_step,
                LaunchGrid::linear(n_int),
                StreamId::DEFAULT,
                vec![
                    LaunchArg::Ptr(d_anew),
                    LaunchArg::Ptr(d_a),
                    LaunchArg::I64(nx as i64),
                    LaunchArg::I64(rows as i64),
                ],
            )
            .unwrap();

        // 2. Residual reduction on the norm stream (ordered after the
        //    step kernel by legacy default-stream semantics).
        ctx.cuda
            .launch(
                k.residual,
                LaunchGrid::cover(1, 1),
                norm_stream,
                vec![
                    LaunchArg::Ptr(d_norm),
                    LaunchArg::Ptr(row_ptr(d_a, 1, nx)),
                    LaunchArg::Ptr(row_ptr(d_anew, 1, nx)),
                    LaunchArg::I64(n_int as i64),
                ],
            )
            .unwrap();

        // 3. Blocking D2H copy of the local norm, then Allreduce.
        ctx.cuda
            .memcpy(h_norm, d_norm, 8, CopyKind::DeviceToHost)
            .unwrap();
        ctx.mpi
            .allreduce(h_norm, h_norm_global, 1, MpiDatatype::Double, ReduceOp::Sum)
            .unwrap();
        let global_sq: f64 = ctx
            .tools
            .host_read_at(&ctx.space(), h_norm_global, "jacobi norm read")
            .unwrap();
        norms.push(global_sq.sqrt());

        // 4. Commit anew -> a (whole local field including halos).
        ctx.cuda
            .launch(
                k.copy,
                LaunchGrid::linear(local),
                StreamId::DEFAULT,
                vec![
                    LaunchArg::Ptr(d_a),
                    LaunchArg::Ptr(d_anew),
                    LaunchArg::I64(local as i64),
                ],
            )
            .unwrap();

        // 5. Synchronize, then exchange halos with blocking Sendrecv on
        //    device pointers.
        if cfg.race != RaceMode::SkipSyncBeforeExchange {
            ctx.cuda.device_synchronize().unwrap();
        }
        ctx.mpi
            .sendrecv(
                row_ptr(d_a, 1, nx),
                nx,
                up,
                TAG_UP,
                row_ptr(d_a, 0, nx),
                nx,
                up as i32,
                TAG_DOWN,
                MpiDatatype::Double,
            )
            .unwrap();
        ctx.mpi
            .sendrecv(
                row_ptr(d_a, rows, nx),
                nx,
                down,
                TAG_DOWN,
                row_ptr(d_a, rows + 1, nx),
                nx,
                down as i32,
                TAG_UP,
                MpiDatatype::Double,
            )
            .unwrap();
    }

    // Release device memory (exercises cudaFree's device-wide sync).
    for p in [d_a, d_anew, d_norm, h_norm, h_norm_global] {
        ctx.cuda.free(p).unwrap();
    }
    norms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_well_formed() {
        let c = JacobiConfig::default();
        assert_eq!(c.rows_per_rank() * c.ranks as u64, c.ny);
    }

    #[test]
    #[should_panic(expected = "ny must divide")]
    fn indivisible_decomposition_panics() {
        let c = JacobiConfig {
            ny: 10,
            ranks: 3,
            ..JacobiConfig::default()
        };
        let _ = c.rows_per_rank();
    }
}
