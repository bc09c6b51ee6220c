//! The TeaLeaf-style heat-conduction mini-app (paper §V).
//!
//! One implicit diffusion step `(I + Δt·L) u = b` solved with conjugate
//! gradients on the 5-point Laplacian, row-decomposed across ranks. The
//! communication structure follows TeaLeaf: per CG iteration the search
//! direction's halo rows are exchanged with **non-blocking**
//! `MPI_Isend`/`MPI_Irecv` pairs completed by `MPI_Waitall`, two scalar
//! reductions go through a device→host copy plus `MPI_Allreduce`, and all
//! kernels run on the **default stream only** (Table I: TeaLeaf has one
//! stream).
//!
//! [`RaceMode::SkipSyncBeforeExchange`] removes the `cudaDeviceSynchronize`
//! between the `xpay` kernel that updates `p` and the non-blocking
//! exchange that reads it — an MPI-to-CUDA race with observably stale
//! halos.

use crate::kernels::AppKernels;
use crate::{expect_ok, run_world, AppResult, RaceMode};
use cuda_sim::{CopyKind, StreamId};
use cusan::ToolConfig;
use explore::ScheduleController;
use kernel_ir::{KernelId, LaunchArg, LaunchGrid};
use mpi_sim::{MpiDatatype, ReduceOp};
use must_rt::{RankCtx, WorldOutcome};
use sim_mem::Ptr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TeaLeaf configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeaLeafConfig {
    /// Global columns.
    pub nx: u64,
    /// Global interior rows; must divide by `ranks`.
    pub ny: u64,
    /// MPI ranks.
    pub ranks: usize,
    /// Outer diffusion steps (each step re-solves with b = previous u).
    pub steps: u32,
    /// CG iteration cap per step.
    pub max_iters: u32,
    /// Relative residual tolerance (‖r‖²/‖b‖²).
    pub eps: f64,
    /// Diffusion coefficients (rx = ry in the square model).
    pub rx: f64,
    /// See `rx`.
    pub ry: f64,
    /// Synchronization-bug injection.
    pub race: RaceMode,
}

impl Default for TeaLeafConfig {
    fn default() -> Self {
        TeaLeafConfig {
            nx: 64,
            ny: 64,
            ranks: 2,
            steps: 2,
            max_iters: 80,
            eps: 1e-12,
            rx: 2.0,
            ry: 2.0,
            race: RaceMode::None,
        }
    }
}

impl TeaLeafConfig {
    /// Interior rows per rank.
    pub fn rows_per_rank(&self) -> u64 {
        assert_eq!(self.ny % self.ranks as u64, 0, "ny must divide by ranks");
        self.ny / self.ranks as u64
    }
}

/// Per-rank numerical result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    /// Total CG iterations across all steps.
    pub iterations: u32,
    /// Final global ‖r‖² of the last step.
    pub rr: f64,
    /// Initial global ‖b‖² of the last step.
    pub bb: f64,
    /// Every step converged within `max_iters`?
    pub converged: bool,
}

/// Result of a TeaLeaf run.
#[derive(Debug)]
pub struct TeaLeafRun {
    /// The configuration.
    pub config: TeaLeafConfig,
    /// Rank-0 CG result (identical across ranks).
    pub cg: CgResult,
    /// Wall-clock time of the world run.
    pub elapsed: Duration,
    /// Tool outcome.
    pub outcome: WorldOutcome<CgResult>,
}

/// Run TeaLeaf under a tool configuration (recording a trace when its
/// `record` says so). Expects every rank to succeed: without a
/// controller nothing is injected, so a failure is a bug.
pub fn run_tealeaf(cfg: &TeaLeafConfig, tools: impl Into<ToolConfig>) -> TeaLeafRun {
    let start = Instant::now();
    let outcome = try_run_tealeaf(cfg, tools, None);
    let elapsed = start.elapsed();
    let outcome = expect_ok(outcome);
    TeaLeafRun {
        config: *cfg,
        cg: outcome.results[0],
        elapsed,
        outcome,
    }
}

/// [`run_tealeaf`] with `record` on: the caller's format, else text.
pub fn run_tealeaf_traced(cfg: &TeaLeafConfig, tools: impl Into<ToolConfig>) -> TeaLeafRun {
    run_tealeaf(cfg, crate::recording(tools.into()))
}

/// Run TeaLeaf under a tool configuration and, if given, a schedule
/// controller (which may inject faults): each rank's CG result, or the
/// first error its body ran into.
pub fn try_run_tealeaf(
    cfg: &TeaLeafConfig,
    tools: impl Into<ToolConfig>,
    controller: Option<Arc<dyn ScheduleController>>,
) -> WorldOutcome<AppResult<CgResult>> {
    let cfg = *cfg;
    let k = AppKernels::shared();
    run_world(cfg.ranks, tools.into(), controller, move |ctx| {
        tealeaf_rank(ctx, k, &cfg)
    })
}

fn row_ptr(base: Ptr, row: u64, nx: u64) -> Ptr {
    base.offset(row * nx * 8)
}

struct Cg<'a> {
    k: &'a AppKernels,
    nx: u64,
    rows: u64,
    n_int: u64,
}

impl Cg<'_> {
    fn launch2(
        &self,
        ctx: &mut RankCtx,
        kernel: KernelId,
        n: u64,
        y: Ptr,
        x: Ptr,
        scalar: f64,
    ) -> AppResult<()> {
        ctx.cuda.launch(
            kernel,
            LaunchGrid::linear(n),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(y),
                LaunchArg::Ptr(x),
                LaunchArg::F64(scalar),
                LaunchArg::I64(n as i64),
            ],
        )?;
        Ok(())
    }

    /// `dot_reduce` + blocking D2H + Allreduce: a global scalar product.
    fn global_dot(&self, ctx: &mut RankCtx, scratch: Scratch, x: Ptr, y: Ptr) -> AppResult<f64> {
        ctx.cuda.launch(
            self.k.dot,
            LaunchGrid::cover(1, 1),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(scratch.d),
                LaunchArg::Ptr(x),
                LaunchArg::Ptr(y),
                LaunchArg::I64(self.n_int as i64),
            ],
        )?;
        ctx.cuda
            .memcpy(scratch.h, scratch.d, 8, CopyKind::DeviceToHost)?;
        ctx.mpi
            .allreduce(scratch.h, scratch.hg, 1, MpiDatatype::Double, ReduceOp::Sum)?;
        Ok(ctx
            .tools
            .host_read_at(&ctx.space(), scratch.hg, "tealeaf dot read")?)
    }

    /// Non-blocking halo exchange of `buf`'s boundary rows (Fig. 1 shape).
    fn exchange_halos(&self, ctx: &mut RankCtx, buf: Ptr, race: RaceMode) -> AppResult<()> {
        const TAG_UP: i32 = 10;
        const TAG_DOWN: i32 = 11;
        let rank = ctx.rank();
        let ranks = ctx.size();
        if race != RaceMode::SkipSyncBeforeExchange {
            ctx.cuda.device_synchronize()?;
        }
        let (nx, rows) = (self.nx, self.rows);
        let mut reqs = Vec::with_capacity(4);
        if rank > 0 {
            let up = rank as i64 - 1;
            reqs.push(ctx.mpi.irecv(
                row_ptr(buf, 0, nx),
                nx,
                MpiDatatype::Double,
                up as i32,
                TAG_DOWN,
            )?);
            reqs.push(
                ctx.mpi
                    .isend(row_ptr(buf, 1, nx), nx, MpiDatatype::Double, up, TAG_UP)?,
            );
        }
        if rank + 1 < ranks {
            let down = rank as i64 + 1;
            reqs.push(ctx.mpi.irecv(
                row_ptr(buf, rows + 1, nx),
                nx,
                MpiDatatype::Double,
                down as i32,
                TAG_UP,
            )?);
            reqs.push(ctx.mpi.isend(
                row_ptr(buf, rows, nx),
                nx,
                MpiDatatype::Double,
                down,
                TAG_DOWN,
            )?);
        }
        ctx.mpi.waitall(&mut reqs)?;
        Ok(())
    }
}

#[derive(Clone, Copy)]
struct Scratch {
    d: Ptr,
    h: Ptr,
    hg: Ptr,
}

fn tealeaf_rank(ctx: &mut RankCtx, k: &AppKernels, cfg: &TeaLeafConfig) -> AppResult<CgResult> {
    let rank = ctx.rank();
    let nx = cfg.nx;
    let rows = cfg.rows_per_rank();
    let local = (rows + 2) * nx;
    let n_int = nx * rows;
    let cg = Cg { k, nx, rows, n_int };

    // Fields: rhs b, solution u, residual r, search direction p, A·p in w.
    let d_b = ctx.cuda.malloc::<f64>(local)?;
    let d_u = ctx.cuda.malloc::<f64>(local)?;
    let d_r = ctx.cuda.malloc::<f64>(local)?;
    let d_p = ctx.cuda.malloc::<f64>(local)?;
    let d_w = ctx.cuda.malloc::<f64>(local)?;
    let d_dot = ctx.cuda.malloc::<f64>(1)?;
    let h_dot = ctx.cuda.host_malloc::<f64>(1)?;
    let h_dot_global = ctx.cuda.host_malloc::<f64>(1)?;
    let scratch = Scratch {
        d: d_dot,
        h: h_dot,
        hg: h_dot_global,
    };

    for p in [d_b, d_u, d_r, d_p, d_w] {
        ctx.cuda.memset(p, 0, local * 8)?;
    }
    ctx.cuda.memset(d_dot, 0, 8)?;

    // Initial energy b: ambient 0.1 with a hot square in the global
    // domain's [¼,½) band, staged on the host and moved with one H2D copy.
    let h_init = ctx.cuda.host_malloc::<f64>(local)?;
    {
        let space = ctx.space();
        let mut field = vec![0.0f64; local as usize];
        for lr in 1..=rows {
            let gr = rank as u64 * rows + (lr - 1); // global interior row
            for c in 0..nx {
                let hot = (cfg.ny / 4..cfg.ny / 2).contains(&gr) && (nx / 4..nx / 2).contains(&c);
                field[(lr * nx + c) as usize] = if hot { 10.0 } else { 0.1 };
            }
        }
        ctx.tools
            .host_write_slice::<f64>(&space, h_init, &field, "tealeaf init staging")?;
    }
    ctx.cuda
        .memcpy(d_b, h_init, local * 8, CopyKind::HostToDevice)?;

    let interior = |p: Ptr| row_ptr(p, 1, nx);
    let copy_local = |ctx: &mut RankCtx, dst: Ptr, src: Ptr| {
        ctx.cuda.launch(
            k.copy,
            LaunchGrid::linear(local),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(dst),
                LaunchArg::Ptr(src),
                LaunchArg::I64(local as i64),
            ],
        )
    };

    let mut total_iterations = 0;
    let mut converged = true;
    let mut rr = 0.0;
    let mut bb = 0.0;
    for _step in 0..cfg.steps {
        // u0 = 0, so r = b; p = r.
        ctx.cuda.memset(d_u, 0, local * 8)?;
        copy_local(ctx, d_r, d_b)?;
        copy_local(ctx, d_p, d_r)?;
        rr = cg.global_dot(ctx, scratch, interior(d_r), interior(d_r))?;
        bb = rr;

        let mut step_converged = false;
        let mut it = 0;
        while it < cfg.max_iters {
            if rr <= cfg.eps * bb {
                step_converged = true;
                break;
            }
            // Halo exchange of p (non-blocking, Fig. 1 shape).
            cg.exchange_halos(ctx, d_p, cfg.race)?;
            // w = A p.
            ctx.cuda.launch(
                k.apply_a,
                LaunchGrid::linear(n_int),
                StreamId::DEFAULT,
                vec![
                    LaunchArg::Ptr(d_w),
                    LaunchArg::Ptr(d_p),
                    LaunchArg::I64(nx as i64),
                    LaunchArg::I64(rows as i64),
                    LaunchArg::F64(cfg.rx),
                    LaunchArg::F64(cfg.ry),
                ],
            )?;
            // α = rr / (p·w).
            let pw = cg.global_dot(ctx, scratch, interior(d_p), interior(d_w))?;
            let alpha = rr / pw;
            // u += α p; r -= α w.
            cg.launch2(ctx, k.axpy, n_int, interior(d_u), interior(d_p), alpha)?;
            cg.launch2(ctx, k.axpy, n_int, interior(d_r), interior(d_w), -alpha)?;
            // β = rr' / rr.
            let rr_new = cg.global_dot(ctx, scratch, interior(d_r), interior(d_r))?;
            let beta = rr_new / rr;
            rr = rr_new;
            // p = r + β p.
            cg.launch2(ctx, k.xpay, n_int, interior(d_p), interior(d_r), beta)?;
            it += 1;
        }
        if rr <= cfg.eps * bb {
            step_converged = true;
        }
        converged &= step_converged;
        total_iterations += it;
        // Next step's rhs is the new temperature field: b = u.
        copy_local(ctx, d_b, d_u)?;
        ctx.cuda.device_synchronize()?;
    }

    for p in [d_b, d_u, d_r, d_p, d_w, d_dot, h_dot, h_dot_global, h_init] {
        ctx.cuda.free(p)?;
    }
    Ok(CgResult {
        iterations: total_iterations,
        rr,
        bb,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_well_formed() {
        let c = TeaLeafConfig::default();
        assert_eq!(c.rows_per_rank() * c.ranks as u64, c.ny);
        assert!(c.eps > 0.0);
        assert!(c.steps >= 1);
    }

    #[test]
    #[should_panic(expected = "ny must divide")]
    fn indivisible_decomposition_panics() {
        let c = TeaLeafConfig {
            ny: 7,
            ranks: 2,
            ..TeaLeafConfig::default()
        };
        let _ = c.rows_per_rank();
    }
}
