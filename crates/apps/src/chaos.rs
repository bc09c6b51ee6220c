//! Symmetric rank bodies for chaos soaking (deterministic fault sweeps).
//!
//! The evaluation mini-apps ([`crate::jacobi`], [`crate::tealeaf`]) are
//! unsuitable for fault injection as-is: they `unwrap()` every call, and
//! their rank bodies are not call-sequence symmetric (rank 0 launches
//! extra boundary kernels), so a rank-independent fault plan would not
//! fire in lockstep. The bodies here are their chaos twins:
//!
//! * **Call-sequence symmetric**: every rank issues exactly the same
//!   sequence of checked CUDA/MPI calls. Edge ranks address their missing
//!   neighbors as `MPI_PROC_NULL` — the interception (and its fault site)
//!   still happens, only the transfer is elided. With the fault decision
//!   a pure function of `(seed, site)`, all ranks therefore fault at the
//!   same call: a failed collective or exchange is abandoned by everyone
//!   at once instead of deadlocking the survivors.
//! * **Error-propagating**: every fallible call uses `?`; the first
//!   injected (or real) failure aborts the body with a typed
//!   [`ChaosError`].
//! * **Best-effort teardown**: allocations are freed afterwards whatever
//!   happened, ignoring further injected failures, mirroring how a real
//!   application's cleanup path must tolerate a dying runtime.
//!
//! Messages stay under the simulator's eager limit so an abandoned
//! exchange never leaves a partner blocked in a rendezvous.

use crate::kernels::AppKernels;
use cuda_sim::{CopyKind, CudaError, StreamFlags, StreamId};
use cusan::ToolConfig;
use explore::SchedulePlan;
use kernel_ir::{LaunchArg, LaunchGrid};
use mpi_sim::{MpiDatatype, MpiError, ReduceOp, PROC_NULL};
use must_rt::{run_checked_world, run_checked_world_scheduled, RankCtx, WorldOutcome};
use sim_mem::{MemError, Ptr};
use std::fmt;
use std::sync::Arc;

/// First failure a chaos body ran into.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// A CUDA call failed.
    Cuda(CudaError),
    /// An MPI call failed.
    Mpi(MpiError),
    /// A host-side tracked access failed.
    Mem(MemError),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Cuda(e) => write!(f, "cuda: {e}"),
            ChaosError::Mpi(e) => write!(f, "mpi: {e}"),
            ChaosError::Mem(e) => write!(f, "mem: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<CudaError> for ChaosError {
    fn from(e: CudaError) -> Self {
        ChaosError::Cuda(e)
    }
}

impl From<MpiError> for ChaosError {
    fn from(e: MpiError) -> Self {
        ChaosError::Mpi(e)
    }
}

impl From<MemError> for ChaosError {
    fn from(e: MemError) -> Self {
        ChaosError::Mem(e)
    }
}

/// Shape of a chaos run (deliberately tiny: the sweep multiplies it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Columns per row. Halo messages are `nx` doubles; keep `nx * 8`
    /// under the eager limit (4096 bytes).
    pub nx: u64,
    /// Interior rows per rank.
    pub rows: u64,
    /// World size.
    pub ranks: usize,
    /// Iterations.
    pub iters: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            nx: 32,
            rows: 8,
            ranks: 2,
            iters: 4,
        }
    }
}

/// Per-rank result: the final residual value, or the first failure.
pub type ChaosResult = Result<f64, ChaosError>;

fn row_ptr(base: Ptr, row: u64, nx: u64) -> Ptr {
    base.offset(row * nx * 8)
}

/// Neighbor ranks (edges get `PROC_NULL`, keeping the call sequence
/// identical on every rank).
fn neighbors(rank: usize, ranks: usize) -> (i64, i64) {
    let up = if rank > 0 { rank as i64 - 1 } else { PROC_NULL };
    let down = if rank + 1 < ranks {
        rank as i64 + 1
    } else {
        PROC_NULL
    };
    (up, down)
}

/// Jacobi-shaped chaos body: blocking `Sendrecv` halo exchange, second
/// stream for the residual reduction, per-iteration `Allreduce`. Always
/// recorded (the soak compares live vs. recorded vs. replayed), under
/// `plan` if one is given (the explored chaos slice; a plan needs
/// `cfg.ranks + 1` lanes).
pub fn run_chaos_jacobi(
    cfg: &ChaosConfig,
    tools: impl Into<ToolConfig>,
    plan: Option<Arc<SchedulePlan>>,
) -> WorldOutcome<ChaosResult> {
    run_chaos(cfg, tools.into(), plan, chaos_jacobi_body)
}

/// TeaLeaf-shaped chaos body: non-blocking 4-way `Isend`/`Irecv` halo
/// exchange with `Waitall`, dot-product `Allreduce`. Always recorded,
/// under `plan` if one is given.
pub fn run_chaos_tealeaf(
    cfg: &ChaosConfig,
    tools: impl Into<ToolConfig>,
    plan: Option<Arc<SchedulePlan>>,
) -> WorldOutcome<ChaosResult> {
    run_chaos(cfg, tools.into(), plan, chaos_tealeaf_body)
}

/// A chaos body: it records every pointer it allocates for [`teardown`].
type ChaosBody = fn(&mut RankCtx, &AppKernels, &ChaosConfig, &mut Vec<Ptr>) -> ChaosResult;

/// Run `body` then [`teardown`] on every rank, recorded (in the format
/// `tools` names, else text), under `plan` if one is given.
fn run_chaos(
    cfg: &ChaosConfig,
    tools: ToolConfig,
    plan: Option<Arc<SchedulePlan>>,
    body: ChaosBody,
) -> WorldOutcome<ChaosResult> {
    let cfg = *cfg;
    let k = AppKernels::shared();
    let registry = Arc::clone(&k.registry);
    let tools = crate::recording(tools);
    let rank_body = move |ctx: &mut RankCtx| {
        let mut ptrs = Vec::new();
        let r = body(ctx, k, &cfg, &mut ptrs);
        teardown(ctx, ptrs);
        r
    };
    match plan {
        Some(plan) => run_checked_world_scheduled(cfg.ranks, tools, registry, plan, rank_body),
        None => run_checked_world(cfg.ranks, tools, registry, rank_body),
    }
}

/// Free everything the body managed to allocate, ignoring failures:
/// teardown must survive a fault plan that is still firing. The frees
/// wait for every rank's body to return (`Comm::finalize`, unchecked,
/// so invisible to the fault injector and to traces). A rank that dies
/// at its (lockstep) fault site may leave eager sends or posted receives
/// pending; a partner still inside the exchange delivers into those
/// buffers when *its* matching call arrives. Freeing earlier would race
/// that delivery — the partner's outcome would flip between its own
/// symmetric fault and `Mem(Unmapped)` depending on thread timing,
/// breaking the soak's per-seed determinism. A world that deadlocks
/// instead fails `finalize` and frees anyway.
fn teardown(ctx: &mut RankCtx, ptrs: Vec<Ptr>) {
    let _ = ctx.mpi.comm().finalize();
    for p in ptrs {
        let _ = ctx.cuda.free(p);
    }
}

fn chaos_jacobi_body(
    ctx: &mut RankCtx,
    k: &AppKernels,
    cfg: &ChaosConfig,
    ptrs: &mut Vec<Ptr>,
) -> ChaosResult {
    let (nx, rows) = (cfg.nx, cfg.rows);
    let local = (rows + 2) * nx;
    let n_int = nx * rows;

    let d_a = ctx.cuda.malloc::<f64>(local)?;
    ptrs.push(d_a);
    let d_anew = ctx.cuda.malloc::<f64>(local)?;
    ptrs.push(d_anew);
    let d_norm = ctx.cuda.malloc::<f64>(1)?;
    ptrs.push(d_norm);
    let h_norm = ctx.cuda.host_malloc::<f64>(1)?;
    ptrs.push(h_norm);
    let h_global = ctx.cuda.host_malloc::<f64>(1)?;
    ptrs.push(h_global);

    ctx.cuda.memset(d_a, 0, local * 8)?;
    ctx.cuda.memset(d_anew, 0, local * 8)?;

    // Unlike the real app, the boundary fill runs on EVERY rank (halo
    // rows are overwritten by the exchange anyway): symmetry over
    // physics.
    for buf in [d_a, d_anew] {
        ctx.cuda.launch(
            k.fill,
            LaunchGrid::linear(nx),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(buf),
                LaunchArg::F64(1.0),
                LaunchArg::I64(nx as i64),
            ],
        )?;
    }

    let norm_stream = ctx.cuda.stream_create(StreamFlags::Default);
    let (up, down) = neighbors(ctx.rank(), ctx.size());
    const TAG_UP: i32 = 0;
    const TAG_DOWN: i32 = 1;

    let mut norm = 0.0;
    for _ in 0..cfg.iters {
        ctx.cuda.launch(
            k.jacobi_step,
            LaunchGrid::linear(n_int),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(d_anew),
                LaunchArg::Ptr(d_a),
                LaunchArg::I64(nx as i64),
                LaunchArg::I64(rows as i64),
            ],
        )?;
        ctx.cuda.launch(
            k.residual,
            LaunchGrid::cover(1, 1),
            norm_stream,
            vec![
                LaunchArg::Ptr(d_norm),
                LaunchArg::Ptr(row_ptr(d_a, 1, nx)),
                LaunchArg::Ptr(row_ptr(d_anew, 1, nx)),
                LaunchArg::I64(n_int as i64),
            ],
        )?;
        ctx.cuda.memcpy(h_norm, d_norm, 8, CopyKind::DeviceToHost)?;
        ctx.mpi
            .allreduce(h_norm, h_global, 1, MpiDatatype::Double, ReduceOp::Sum)?;
        let sq: f64 = ctx
            .tools
            .host_read_at(&ctx.space(), h_global, "chaos norm read")?;
        norm = sq.sqrt();

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
        ctx.cuda.device_synchronize()?;
        ctx.mpi.sendrecv(
            row_ptr(d_a, 1, nx),
            nx,
            up,
            TAG_UP,
            row_ptr(d_a, 0, nx),
            nx,
            up as i32,
            TAG_DOWN,
            MpiDatatype::Double,
        )?;
        ctx.mpi.sendrecv(
            row_ptr(d_a, rows, nx),
            nx,
            down,
            TAG_DOWN,
            row_ptr(d_a, rows + 1, nx),
            nx,
            down as i32,
            TAG_UP,
            MpiDatatype::Double,
        )?;
    }
    Ok(norm)
}

fn chaos_tealeaf_body(
    ctx: &mut RankCtx,
    k: &AppKernels,
    cfg: &ChaosConfig,
    ptrs: &mut Vec<Ptr>,
) -> ChaosResult {
    let (nx, rows) = (cfg.nx, cfg.rows);
    let local = (rows + 2) * nx;
    let n_int = nx * rows;

    let d_u = ctx.cuda.malloc::<f64>(local)?;
    ptrs.push(d_u);
    let d_tmp = ctx.cuda.malloc::<f64>(local)?;
    ptrs.push(d_tmp);
    let d_dot = ctx.cuda.malloc::<f64>(1)?;
    ptrs.push(d_dot);
    let h_dot = ctx.cuda.host_malloc::<f64>(1)?;
    ptrs.push(h_dot);
    let h_global = ctx.cuda.host_malloc::<f64>(1)?;
    ptrs.push(h_global);

    ctx.cuda.memset(d_u, 0, local * 8)?;
    ctx.cuda.memset(d_tmp, 0, local * 8)?;
    ctx.cuda.launch(
        k.fill,
        LaunchGrid::linear(nx),
        StreamId::DEFAULT,
        vec![
            LaunchArg::Ptr(d_u),
            LaunchArg::F64(1.0),
            LaunchArg::I64(nx as i64),
        ],
    )?;

    let (up, down) = neighbors(ctx.rank(), ctx.size());
    const TAG_UP: i32 = 10;
    const TAG_DOWN: i32 = 11;

    let mut dot = 0.0;
    for _ in 0..cfg.iters {
        ctx.cuda.launch(
            k.jacobi_step,
            LaunchGrid::linear(n_int),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(d_tmp),
                LaunchArg::Ptr(d_u),
                LaunchArg::I64(nx as i64),
                LaunchArg::I64(rows as i64),
            ],
        )?;
        ctx.cuda.launch(
            k.copy,
            LaunchGrid::linear(local),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(d_u),
                LaunchArg::Ptr(d_tmp),
                LaunchArg::I64(local as i64),
            ],
        )?;

        // Non-blocking halo exchange: all four requests unconditionally,
        // PROC_NULL elides the edges (Fig. 1 shape, symmetrized).
        ctx.cuda.device_synchronize()?;
        let mut reqs = vec![
            ctx.mpi.irecv(
                row_ptr(d_u, 0, nx),
                nx,
                MpiDatatype::Double,
                up as i32,
                TAG_DOWN,
            )?,
            ctx.mpi
                .isend(row_ptr(d_u, 1, nx), nx, MpiDatatype::Double, up, TAG_UP)?,
            ctx.mpi.irecv(
                row_ptr(d_u, rows + 1, nx),
                nx,
                MpiDatatype::Double,
                down as i32,
                TAG_UP,
            )?,
            ctx.mpi.isend(
                row_ptr(d_u, rows, nx),
                nx,
                MpiDatatype::Double,
                down,
                TAG_DOWN,
            )?,
        ];
        ctx.mpi.waitall(&mut reqs)?;

        // Global dot product, TeaLeaf's CG heartbeat.
        ctx.cuda.launch(
            k.dot,
            LaunchGrid::cover(1, 1),
            StreamId::DEFAULT,
            vec![
                LaunchArg::Ptr(d_dot),
                LaunchArg::Ptr(row_ptr(d_u, 1, nx)),
                LaunchArg::Ptr(row_ptr(d_u, 1, nx)),
                LaunchArg::I64(n_int as i64),
            ],
        )?;
        ctx.cuda.memcpy(h_dot, d_dot, 8, CopyKind::DeviceToHost)?;
        ctx.mpi
            .allreduce(h_dot, h_global, 1, MpiDatatype::Double, ReduceOp::Sum)?;
        dot = ctx
            .tools
            .host_read_at(&ctx.space(), h_global, "chaos dot read")?;
    }
    Ok(dot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusan::{FaultPlan, Flavor};

    fn faulty(seed: u64, rate: f64) -> ToolConfig {
        let mut c = Flavor::MustCusan.config();
        c.faults = FaultPlan::with_rate(seed, rate);
        c
    }

    #[test]
    fn fault_free_chaos_bodies_finish_clean() {
        let cfg = ChaosConfig::default();
        for out in [
            run_chaos_jacobi(&cfg, Flavor::MustCusan, None),
            run_chaos_tealeaf(&cfg, Flavor::MustCusan, None),
        ] {
            assert!(out.results.iter().all(|r| r.is_ok()), "{:?}", out.results);
            assert_eq!(out.total_races(), 0);
            assert_eq!(out.space.live_allocs, 0, "teardown must free everything");
        }
    }

    #[test]
    fn faulted_ranks_fail_in_lockstep() {
        let cfg = ChaosConfig {
            ranks: 4,
            ..ChaosConfig::default()
        };
        let out = run_chaos_jacobi(&cfg, faulty(11, 0.05), None);
        let errs: Vec<_> = out.results.iter().filter_map(|r| r.clone().err()).collect();
        assert!(!errs.is_empty(), "5% over hundreds of sites must fire");
        // Rank-independent decisions + symmetric bodies: every rank fails
        // at the same call with the same typed error.
        assert_eq!(errs.len(), cfg.ranks, "all ranks fault together");
        assert!(errs.windows(2).all(|w| w[0] == w[1]), "{errs:?}");
    }

    #[test]
    fn same_seed_reruns_are_identical() {
        let cfg = ChaosConfig::default();
        let a = run_chaos_tealeaf(&cfg, faulty(3, 0.02), None);
        let b = run_chaos_tealeaf(&cfg, faulty(3, 0.02), None);
        assert_eq!(a.results, b.results);
        for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
            assert_eq!(ra.trace, rb.trace, "rank {} trace differs", ra.rank);
            assert_eq!(ra.race_count, rb.race_count);
        }
    }
}
