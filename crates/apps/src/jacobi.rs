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
//!
//! The rank body is written over a `px × py` rank grid (`RankGrid`);
//! this app is its `1 × ranks` case. [`crate::jacobi2d`] runs the same
//! body with `px > 1`, which adds two column transfer buffers, a pitched
//! column exchange after step 5 and `residual2d` (interior columns only)
//! in step 2.

use crate::kernels::AppKernels;
use crate::{expect_ok, run_world, AppResult, RaceMode};
use cuda_sim::{CopyKind, StreamFlags, StreamId};
use cusan::ToolConfig;
use explore::ScheduleController;
use kernel_ir::{LaunchArg, LaunchGrid};
use mpi_sim::{MpiDatatype, ReduceOp, PROC_NULL};
use must_rt::{RankCtx, WorldOutcome};
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
/// `record` says so). Expects every rank to succeed: without a
/// controller nothing is injected, so a failure is a bug.
pub fn run_jacobi(cfg: &JacobiConfig, tools: impl Into<ToolConfig>) -> JacobiRun {
    let start = Instant::now();
    let outcome = try_run_jacobi(cfg, tools, None);
    let elapsed = start.elapsed();
    let outcome = expect_ok(outcome);
    let norms = outcome.results[0].clone();
    JacobiRun {
        config: *cfg,
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

/// Run Jacobi under a tool configuration and, if given, a schedule
/// controller (which may inject faults): each rank's norms, or the first
/// error its body ran into.
pub fn try_run_jacobi(
    cfg: &JacobiConfig,
    tools: impl Into<ToolConfig>,
    controller: Option<Arc<dyn ScheduleController>>,
) -> WorldOutcome<AppResult<Vec<f64>>> {
    let grid = RankGrid {
        w: cfg.nx,
        rows: cfg.rows_per_rank(),
        px: 1,
        py: cfg.ranks,
        iters: cfg.iters,
        race: cfg.race,
    };
    grid.run(tools.into(), controller)
}

/// The one rank body's geometry: a `px × py` rank grid (rank `r` at
/// column `r % px`, row `r / px`) of local fields `rows + 2` rows by `w`
/// columns. Row-decomposed Jacobi is the `1 × ranks` grid whose `w` is
/// the global width, so its edge columns are fixed boundary; with
/// `px > 1` the first and last column of each field are halo columns.
#[derive(Clone, Copy)]
pub(crate) struct RankGrid {
    /// Local width, halo or boundary columns included.
    pub w: u64,
    /// Interior rows per rank.
    pub rows: u64,
    /// Rank-grid columns.
    pub px: usize,
    /// Rank-grid rows.
    pub py: usize,
    /// Iterations to run.
    pub iters: u32,
    /// Synchronization-bug injection.
    pub race: RaceMode,
}

impl RankGrid {
    /// Run the rank body on every rank of the grid.
    pub fn run(
        self,
        tools: ToolConfig,
        controller: Option<Arc<dyn ScheduleController>>,
    ) -> WorldOutcome<AppResult<Vec<f64>>> {
        let k = AppKernels::shared();
        run_world(self.px * self.py, tools, controller, move |ctx| {
            jacobi_rank(ctx, k, &self)
        })
    }
}

fn row_ptr(base: Ptr, row: u64, w: u64) -> Ptr {
    base.offset(row * w * 8)
}

fn jacobi_rank(ctx: &mut RankCtx, k: &AppKernels, g: &RankGrid) -> AppResult<Vec<f64>> {
    let rank = ctx.rank();
    let RankGrid {
        w, rows, px, py, ..
    } = *g;
    let (rx, ry) = (rank % px, rank / px);
    let local = (rows + 2) * w;
    let n_int = w * rows;

    // Device allocations; contiguous column transfer buffers only when
    // there are columns to exchange.
    let d_a = ctx.cuda.malloc::<f64>(local)?;
    let d_anew = ctx.cuda.malloc::<f64>(local)?;
    let d_norm = ctx.cuda.malloc::<f64>(1)?;
    let col_bufs = if px > 1 {
        Some((ctx.cuda.malloc::<f64>(rows)?, ctx.cuda.malloc::<f64>(rows)?))
    } else {
        None
    };
    let h_norm = ctx.cuda.host_malloc::<f64>(1)?;
    let h_norm_global = ctx.cuda.host_malloc::<f64>(1)?;

    // Zero-initialize (2 cudaMemset calls, as in the paper's counter mix).
    ctx.cuda.memset(d_a, 0, local * 8)?;
    ctx.cuda.memset(d_anew, 0, local * 8)?;

    // Dirichlet condition: the global top boundary (halo row 0 of the
    // grid's first rank row) is held at 1.0 in both fields.
    if ry == 0 {
        for buf in [d_a, d_anew] {
            ctx.cuda.launch(
                k.fill,
                LaunchGrid::linear(w),
                StreamId::DEFAULT,
                vec![
                    LaunchArg::Ptr(buf),
                    LaunchArg::F64(1.0),
                    LaunchArg::I64(w as i64),
                ],
            )?;
        }
    }

    // The reduction runs on a second, blocking user stream (Table I:
    // Jacobi uses 2 streams).
    let norm_stream = ctx.cuda.stream_create(StreamFlags::Default);

    // Neighbours in the rank grid are MPI_PROC_NULL at the global
    // boundary, like the NVIDIA CUDA-aware MPI example: the row sendrecv
    // pair is unconditional.
    let up = if ry > 0 {
        (rank - px) as i64
    } else {
        PROC_NULL
    };
    let down = if ry + 1 < py {
        (rank + px) as i64
    } else {
        PROC_NULL
    };
    let left = if rx > 0 { (rank - 1) as i64 } else { PROC_NULL };
    let right = if rx + 1 < px {
        (rank + 1) as i64
    } else {
        PROC_NULL
    };
    const TAG_UP: i32 = 0; // message moving to a lower rank row
    const TAG_DOWN: i32 = 1; // message moving to a higher rank row
    const TAG_LEFT: i32 = 2;
    const TAG_RIGHT: i32 = 3;

    let mut norms = Vec::with_capacity(g.iters as usize);
    for _ in 0..g.iters {
        // 1. Stencil update on the default stream.
        ctx.cuda.launch(
            k.jacobi_step,
            LaunchGrid::linear(n_int),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(d_anew),
                LaunchArg::Ptr(d_a),
                LaunchArg::I64(w as i64),
                LaunchArg::I64(rows as i64),
            ],
        )?;

        // 2. Residual reduction on the norm stream (ordered after the
        //    step kernel by legacy default-stream semantics): over the
        //    contiguous interior rows, or — when the edge columns hold a
        //    neighbour's data — over the interior columns only.
        let (residual, args) = if px == 1 {
            (
                k.residual,
                vec![
                    LaunchArg::Ptr(d_norm),
                    LaunchArg::Ptr(row_ptr(d_a, 1, w)),
                    LaunchArg::Ptr(row_ptr(d_anew, 1, w)),
                    LaunchArg::I64(n_int as i64),
                ],
            )
        } else {
            (
                k.residual2d,
                vec![
                    LaunchArg::Ptr(d_norm),
                    LaunchArg::Ptr(d_a),
                    LaunchArg::Ptr(d_anew),
                    LaunchArg::I64(w as i64),
                    LaunchArg::I64(rows as i64),
                ],
            )
        };
        ctx.cuda
            .launch(residual, LaunchGrid::cover(1, 1), norm_stream, args)?;

        // 3. Blocking D2H copy of the local norm, then Allreduce.
        ctx.cuda.memcpy(h_norm, d_norm, 8, CopyKind::DeviceToHost)?;
        ctx.mpi
            .allreduce(h_norm, h_norm_global, 1, MpiDatatype::Double, ReduceOp::Sum)?;
        let global_sq: f64 =
            ctx.tools
                .host_read_at(&ctx.space(), h_norm_global, "jacobi norm read")?;
        norms.push(global_sq.sqrt());

        // 4. Commit anew -> a (whole local field including halos).
        ctx.cuda.launch(
            k.copy,
            LaunchGrid::linear(local),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(d_a),
                LaunchArg::Ptr(d_anew),
                LaunchArg::I64(local as i64),
            ],
        )?;

        // 5. Synchronize, then exchange halo rows (full width) with
        //    blocking Sendrecv on device pointers.
        if g.race != RaceMode::SkipSyncBeforeExchange {
            ctx.cuda.device_synchronize()?;
        }
        ctx.mpi.sendrecv(
            row_ptr(d_a, 1, w),
            w,
            up,
            TAG_UP,
            row_ptr(d_a, 0, w),
            w,
            up as i32,
            TAG_DOWN,
            MpiDatatype::Double,
        )?;
        ctx.mpi.sendrecv(
            row_ptr(d_a, rows, w),
            w,
            down,
            TAG_DOWN,
            row_ptr(d_a, rows + 1, w),
            w,
            down as i32,
            TAG_UP,
            MpiDatatype::Double,
        )?;

        // 6. Column halos: pack (pitched D2D) -> Sendrecv -> unpack.
        let Some((d_col_tx, d_col_rx)) = col_bufs else {
            continue;
        };
        let pitch = w * 8;
        for (neighbor, send_tag, recv_tag, send_col, halo_col) in [
            (left, TAG_LEFT, TAG_RIGHT, 1, 0),
            (right, TAG_RIGHT, TAG_LEFT, w - 2, w - 1),
        ] {
            if neighbor == PROC_NULL {
                continue;
            }
            ctx.cuda.memcpy_2d(
                d_col_tx,
                8,
                row_ptr(d_a, 1, w).offset(send_col * 8),
                pitch,
                8,
                rows,
                CopyKind::DeviceToDevice,
            )?;
            // D2D is stream-ordered; the MPI call below reads d_col_tx
            // from the host side, so synchronize first.
            ctx.cuda.device_synchronize()?;
            ctx.mpi.sendrecv(
                d_col_tx,
                rows,
                neighbor,
                send_tag,
                d_col_rx,
                rows,
                neighbor as i32,
                recv_tag,
                MpiDatatype::Double,
            )?;
            ctx.cuda.memcpy_2d(
                row_ptr(d_a, 1, w).offset(halo_col * 8),
                pitch,
                d_col_rx,
                8,
                8,
                rows,
                CopyKind::DeviceToDevice,
            )?;
            ctx.cuda.device_synchronize()?;
        }
    }

    // Release device memory (exercises cudaFree's device-wide sync).
    let cols = col_bufs.into_iter().flat_map(|(tx, rx)| [tx, rx]);
    for p in [d_a, d_anew, d_norm]
        .into_iter()
        .chain(cols)
        .chain([h_norm, h_norm_global])
    {
        ctx.cuda.free(p)?;
    }
    Ok(norms)
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
