//! The exhaustive single-fault sweep: for each rank `r` and each site
//! `k` (checked CUDA or MPI entry) of a fault-free run of either app,
//! fail exactly site `k` on rank `r` and nothing else.
//!
//! Every rank must end in success or a typed error — no panic and no
//! hang: the world's wait monitor turns a partner that returned early
//! into `MpiError::Deadlock`. The faulted rank fails with the injected
//! fault (or, at its last site, the harness's teardown flush, reports
//! it as a diagnostic), no other rank records a fault, and every rank's
//! recording replays to its live run.
//!
//! Tier-1 runs every 8th site; `cargo test --release -p cusan-apps
//! --test fault_sweep -- --ignored` runs every site of both apps.

use cuda_sim::CudaError;
use cusan::{replay_stream, Flavor, ToolConfig, TraceFormat};
use cusan_apps::{
    try_run_jacobi, try_run_tealeaf, AppError, AppResult, JacobiConfig, TeaLeafConfig,
};
use explore::{FaultSchedule, ScheduleController, SchedulePlan};
use mpi_sim::MpiError;
use must_rt::WorldOutcome;
use sim_mem::MemError;
use std::fmt::Debug;
use std::sync::Arc;

const RANKS: usize = 2;

/// The size `trace_replay.rs` records Jacobi at.
fn jacobi() -> JacobiConfig {
    JacobiConfig {
        nx: 64,
        ny: 32,
        ranks: RANKS,
        iters: 20,
        ..JacobiConfig::default()
    }
}

/// The size `trace_replay.rs` records TeaLeaf at.
fn tealeaf() -> TeaLeafConfig {
    TeaLeafConfig {
        nx: 16,
        ny: 16,
        ranks: RANKS,
        steps: 1,
        ..TeaLeafConfig::default()
    }
}

fn recorded() -> ToolConfig {
    ToolConfig {
        record: Some(TraceFormat::Text),
        ..Flavor::MustCusan.config()
    }
}

fn injected(e: &AppError) -> bool {
    matches!(
        e,
        AppError::Cuda(CudaError::FaultInjected { .. })
            | AppError::Cuda(CudaError::Mem(MemError::FaultInjected { .. }))
            | AppError::Mpi(MpiError::FaultInjected { .. })
    )
}

/// Fail each `stride`-th site of each rank of a fault-free run, one
/// site per run, and hold every run to the contract above. Returns how
/// many runs it made.
fn sweep<T: Debug>(
    app: &str,
    stride: usize,
    run: impl Fn(Arc<dyn ScheduleController>) -> WorldOutcome<AppResult<T>>,
) -> usize {
    // A schedule that never fires counts each rank's sites.
    let never = FaultSchedule::seeded(SchedulePlan::defaults(RANKS), 0, 0.0);
    let clean = run(never.clone());
    assert!(
        clean.results.iter().all(Result::is_ok),
        "{app}: fault-free run failed: {:?}",
        clean.results
    );
    assert_eq!(clean.space.live_allocs, 0, "{app}: fault-free run leaked");
    let mut runs = 0;
    for rank in 0..RANKS {
        let sites = never.sites(rank);
        assert!(sites > 0, "{app}: rank {rank} made no checked call");
        for site in (0..sites).step_by(stride) {
            let what = format!("{app} rank {rank} site {site}");
            let out = run(FaultSchedule::single(
                SchedulePlan::defaults(RANKS),
                rank,
                site,
            ));
            runs += 1;
            for r in &out.ranks {
                let want = u64::from(r.rank == rank);
                assert_eq!(
                    r.events.api_faults, want,
                    "{what}: faults on rank {}",
                    r.rank
                );
            }
            match &out.results[rank] {
                Err(e) => assert!(injected(e), "{what}: faulted rank failed with {e}"),
                Ok(_) => {
                    let diagnostics = &out.ranks[rank].diagnostics;
                    assert!(
                        site + 1 == sites && diagnostics.iter().any(|d| d.contains("flush")),
                        "{what}: the fault vanished (diagnostics {diagnostics:?})"
                    );
                }
            }
            for (r, result) in out.results.iter().enumerate() {
                if let Err(e) = result {
                    assert!(
                        r == rank || matches!(e, AppError::Mpi(MpiError::Deadlock { .. })),
                        "{what}: partner rank {r} failed with {e}"
                    );
                }
            }
            for r in &out.ranks {
                let trace = r.trace.as_deref().expect("the sweep records");
                let replayed = replay_stream(trace)
                    .unwrap_or_else(|e| panic!("{what}: rank {} replay: {e}", r.rank));
                assert_eq!(replayed.reports, r.races, "{what}: rank {} races", r.rank);
                assert_eq!(replayed.stats, r.tsan, "{what}: rank {} stats", r.rank);
                assert_eq!(
                    replayed.counters, r.events,
                    "{what}: rank {} counters",
                    r.rank
                );
            }
        }
    }
    runs
}

fn sweep_jacobi(stride: usize) -> usize {
    let cfg = jacobi();
    sweep("jacobi", stride, |c| {
        try_run_jacobi(&cfg, recorded(), Some(c))
    })
}

fn sweep_tealeaf(stride: usize) -> usize {
    let cfg = tealeaf();
    sweep("tealeaf", stride, |c| {
        try_run_tealeaf(&cfg, recorded(), Some(c))
    })
}

#[test]
fn every_eighth_single_fault_degrades_jacobi() {
    assert!(sweep_jacobi(8) > 20);
}

#[test]
fn every_eighth_single_fault_degrades_tealeaf() {
    assert!(sweep_tealeaf(8) > 20);
}

#[test]
#[ignore = "every site of both apps: run in release"]
fn every_single_fault_degrades_both_apps() {
    let (jacobi, tealeaf) = (sweep_jacobi(1), sweep_tealeaf(1));
    println!("{jacobi} Jacobi and {tealeaf} TeaLeaf single-fault runs");
}
