//! Per-rank composition of the full tool stack and the checked world
//! runner.
//!
//! [`run_checked_world`] is the `mpirun` of `cusan-rs`: it creates the
//! shared UVA space, spawns one thread per rank, gives each rank its own
//! [`ToolCtx`] (one TSan instance per "process", as in the paper), a
//! CuSan-checked CUDA device, and a MUST-checked communicator, runs the
//! application closure, flushes the device, and collects per-rank
//! outcomes: race reports, MUST diagnostics, Table-I counters, and memory
//! accounting.
//!
//! The [`ToolConfig`] it is given is the whole configuration: every rank
//! gets the same one, and its `record` field says whether the ranks
//! record their traces. Nothing is read from the environment. A deadlocked
//! world needs no setting: `mpi-sim` detects it when every rank is
//! blocked and fails each wait with `MpiError::Deadlock`. Injected faults
//! are schedule choices too: a controller that decides
//! [`explore::ChoiceKind::ApiFault`] (an [`explore::FaultSchedule`]) is
//! asked at every checked CUDA and MPI entry.

use crate::checks::MustReport;
use crate::mpi::CheckedMpi;
use cuda_sim::CudaCounters;
use cusan::{CusanCuda, CusanEvent, EventCounters, ToolConfig, ToolCtx};
use explore::{ChoiceKind, Decision, ScheduleController};
use kernel_ir::KernelRegistry;
use mpi_sim::run_world_with_schedule;
use sim_mem::{AddressSpace, DeviceId, SpaceStats};
use std::rc::Rc;
use std::sync::Arc;
use tsan_rt::{RaceReport, TsanStats};

/// Everything one rank's application code needs.
pub struct RankCtx {
    /// The shared tool context (config, detector, TypeART).
    pub tools: Rc<ToolCtx>,
    /// CuSan-checked CUDA API for this rank's device.
    pub cuda: CusanCuda,
    /// MUST-checked MPI communicator.
    pub mpi: CheckedMpi,
}

impl RankCtx {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.mpi.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.mpi.size()
    }

    /// The shared address space.
    pub fn space(&self) -> Arc<AddressSpace> {
        Arc::clone(self.cuda.space())
    }
}

/// Per-rank result data collected after the application closure returned.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// The rank.
    pub rank: usize,
    /// Retained race reports (deduplicated).
    pub races: Vec<RaceReport>,
    /// Total race count.
    pub race_count: u64,
    /// MUST datatype/extent findings.
    pub must_reports: Vec<MustReport>,
    /// Detector counters (Table I, TSan rows).
    pub tsan: TsanStats,
    /// Device-call counters (Table I, CUDA rows).
    pub cuda: CudaCounters,
    /// Event-pipeline counters (folded from the emitted event stream).
    pub events: EventCounters,
    /// Serialized event trace, when the run's `ToolConfig::record` asked
    /// for one — text or binary bytes per that field (readers sniff).
    pub trace: Option<Vec<u8>>,
    /// Tool heap usage in bytes (Fig. 11 numerator contribution).
    pub tool_memory_bytes: u64,
    /// Non-fatal tool diagnostics (teardown flush failures, degraded
    /// tracking) — conditions the checker reports instead of panicking on.
    pub diagnostics: Vec<String>,
}

/// Result of a checked world run.
#[derive(Debug)]
pub struct WorldOutcome<T> {
    /// Application results in rank order.
    pub results: Vec<T>,
    /// Per-rank tool outcomes in rank order.
    pub ranks: Vec<RankOutcome>,
    /// Address-space accounting at the end of the run (application
    /// memory; Fig. 11 denominator).
    pub space: SpaceStats,
}

impl<T> WorldOutcome<T> {
    /// Total races across all ranks.
    pub fn total_races(&self) -> u64 {
        self.ranks.iter().map(|r| r.race_count).sum()
    }

    /// True if any rank reported a race.
    pub fn has_races(&self) -> bool {
        self.total_races() > 0
    }

    /// All race reports, rank-tagged.
    pub fn all_races(&self) -> Vec<(usize, RaceReport)> {
        self.ranks
            .iter()
            .flat_map(|r| r.races.iter().map(move |race| (r.rank, race.clone())))
            .collect()
    }

    /// All MUST findings, rank-tagged.
    pub fn all_must_reports(&self) -> Vec<(usize, MustReport)> {
        self.ranks
            .iter()
            .flat_map(|r| r.must_reports.iter().map(move |m| (r.rank, m.clone())))
            .collect()
    }

    /// Total tool memory across ranks.
    pub fn total_tool_memory(&self) -> u64 {
        self.ranks.iter().map(|r| r.tool_memory_bytes).sum()
    }
}

/// Run an `n`-rank CUDA-aware MPI application under the given tool
/// configuration. Each rank gets device `DeviceId(rank)` (one GPU per
/// process, as in the paper's setup).
pub fn run_checked_world<T: Send>(
    n: usize,
    config: impl Into<ToolConfig>,
    registry: Arc<KernelRegistry>,
    f: impl Fn(&mut RankCtx) -> T + Send + Sync,
) -> WorldOutcome<T> {
    run_world_impl(n, config.into(), registry, None, f)
}

/// Like [`run_checked_world`], but with a schedule controller installed
/// on every choice point: wildcard-receive matching and collective fold
/// order (rank `r` consults lane `r`, collectives the world-global lane
/// `n`), full-device stream drains, and — if the controller
/// [decides faults](ScheduleController::decides_faults) — every checked
/// CUDA and MPI entry. A [`explore::SchedulePlan`] must have `n + 1`
/// lanes ([`explore::SchedulePlan::defaults`] / `with_choices` with
/// `n + 1` vectors). Every decision the controller logged is emitted as a
/// [`CusanEvent::ScheduleChoice`] marker at the end of the rank's stream
/// (rank 0 also carries the collective lane), so a recorded trace is
/// schedule-complete; a fault that fired is its `ApiFault` event.
pub fn run_checked_world_scheduled<T: Send>(
    n: usize,
    config: impl Into<ToolConfig>,
    registry: Arc<KernelRegistry>,
    controller: Arc<dyn ScheduleController>,
    f: impl Fn(&mut RankCtx) -> T + Send + Sync,
) -> WorldOutcome<T> {
    run_world_impl(n, config.into(), registry, Some(controller), f)
}

/// Emit the controller's logged decisions on one lane as trace markers.
fn emit_schedule_choices(tools: &ToolCtx, decisions: &[Decision]) {
    for d in decisions {
        let kind = tools.intern_label(d.kind.label());
        tools.emit(CusanEvent::ScheduleChoice {
            kind,
            arity: u64::from(d.arity),
            chosen: u64::from(d.chosen),
        });
    }
}

fn run_world_impl<T: Send>(
    n: usize,
    config: ToolConfig,
    registry: Arc<KernelRegistry>,
    controller: Option<Arc<dyn ScheduleController>>,
    f: impl Fn(&mut RankCtx) -> T + Send + Sync,
) -> WorldOutcome<T> {
    let space = Arc::new(AddressSpace::new());
    let space_for_stats = Arc::clone(&space);
    let registry = &registry;
    let sched = controller.clone();
    let controller = &controller;
    let pairs = run_world_with_schedule(n, space, sched, move |comm| {
        let rank = comm.rank();
        let mut tools = ToolCtx::new(rank, config);
        if let Some(c) = controller.as_ref().filter(|c| c.decides_faults()) {
            let c = Arc::clone(c);
            tools.decide_faults(move || c.choose(rank, ChoiceKind::ApiFault, &[0, 1]) == 1);
        }
        let tools = Rc::new(tools);
        let space = Arc::clone(comm.space());
        let mut cuda = CusanCuda::new(
            DeviceId(rank as u32),
            space,
            Arc::clone(registry),
            Rc::clone(&tools),
        );
        if let Some(c) = controller {
            cuda.device_mut()
                .set_schedule_controller(Arc::clone(c), rank);
        }
        let mpi = CheckedMpi::new(comm, Rc::clone(&tools));
        let mut ctx = RankCtx { tools, cuda, mpi };
        let result = f(&mut ctx);
        // Drain outstanding device work before collecting outcomes, like
        // the implicit synchronization at MPI_Finalize/program end. A
        // failing flush (injected fault, device error) must not abort the
        // harness after the application already finished — report it and
        // collect what we have.
        if let Err(e) = ctx.cuda.flush() {
            ctx.tools
                .report_diagnostic(format!("device flush at teardown failed: {e}"));
        }
        // Record the schedule that produced this execution. All of this
        // rank's decisions are final here (the teardown flush above was
        // the last possible choice point); the collective lane is final
        // too once any rank's closure returned (collectives involve all
        // ranks), and rank 0 carries it.
        if let Some(c) = controller {
            emit_schedule_choices(&ctx.tools, &c.decisions(rank));
            if rank == 0 {
                emit_schedule_choices(&ctx.tools, &c.decisions(n));
            }
        }
        // End the recording (a binary trace gets its end-of-trace
        // marker): this rank emits nothing more.
        let trace = ctx.tools.take_trace();
        let outcome = RankOutcome {
            rank,
            races: ctx.tools.race_reports(),
            race_count: ctx.tools.race_count(),
            must_reports: ctx.mpi.must_reports(),
            tsan: ctx.tools.tsan_stats(),
            cuda: ctx.cuda.counters(),
            events: ctx.tools.event_counters(),
            trace,
            tool_memory_bytes: ctx.tools.tool_memory_bytes(),
            diagnostics: ctx.tools.diagnostics(),
        };
        (result, outcome)
    });
    let (results, ranks) = pairs.into_iter().unzip();
    WorldOutcome {
        results,
        ranks,
        space: space_for_stats.stats(),
    }
}
