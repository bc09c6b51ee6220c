//! Differential sync-vs-async checking tests.
//!
//! The async backend's contract (see `crates/core/src/async_check.rs`) is
//! that moving detection onto the shared work-stealing checker pool
//! changes *nothing* observable except wall-clock placement: traces,
//! detector stats, race reports, and event counters must be bit-for-bit
//! identical to the inline backend — for any pool worker count, including
//! under injected API faults and a shadow page budget, and across
//! repeated runs (per-seed determinism).
//!
//! The mode is set through `ToolConfig::async_check` rather than the
//! `CUSAN_ASYNC_CHECK` environment knob: the knob freezes process-wide on
//! first read (so a test process can't toggle it), while the config field
//! is the same switch without the freeze. CI additionally runs the whole
//! suite with `CUSAN_ASYNC_CHECK=1`, which flips the *default* mode and
//! exercises the env path end to end. Because the env override beats the
//! config field, mode-specific assertions (sync ranks have no async stats;
//! async ranks went through the ring) are gated on `EnvOverrides::get().async_check` —
//! the bit-for-bit differential assertions hold regardless.

use cusan::fault::FaultPlan;
use cusan::{Flavor, ToolConfig};
use cusan_apps::{
    run_chaos_jacobi, run_chaos_tealeaf, run_jacobi_traced, run_tealeaf_traced, ChaosConfig,
    JacobiConfig, TeaLeafConfig,
};
use must_rt::WorldOutcome;

fn sync_config(base: ToolConfig) -> ToolConfig {
    let mut c = base;
    c.async_check = false;
    c
}

fn async_config(base: ToolConfig) -> ToolConfig {
    let mut c = base;
    c.async_check = true;
    c
}

/// Assert two world outcomes are observably identical (modulo the
/// timing-dependent `async_check` counters, which are mode-specific by
/// design).
fn assert_outcomes_identical<A, B>(what: &str, sync: &WorldOutcome<A>, asyn: &WorldOutcome<B>) {
    assert_eq!(sync.ranks.len(), asyn.ranks.len(), "{what}: rank count");
    for (s, a) in sync.ranks.iter().zip(&asyn.ranks) {
        assert_eq!(s.rank, a.rank);
        let r = s.rank;
        assert_eq!(
            s.trace, a.trace,
            "{what} rank {r}: traces must be byte-identical across backends"
        );
        assert_eq!(s.races, a.races, "{what} rank {r}: race reports diverge");
        assert_eq!(s.race_count, a.race_count, "{what} rank {r}: race count");
        assert_eq!(s.tsan, a.tsan, "{what} rank {r}: detector stats diverge");
        assert_eq!(s.events, a.events, "{what} rank {r}: event counters");
        assert_eq!(
            s.must_reports, a.must_reports,
            "{what} rank {r}: MUST reports"
        );
        assert_eq!(
            s.tool_memory_bytes, a.tool_memory_bytes,
            "{what} rank {r}: tool memory accounting diverges"
        );
        assert_eq!(s.diagnostics, a.diagnostics, "{what} rank {r}: diagnostics");
    }
}

/// The async run must actually have gone through the ring, and the flush
/// barrier must have drained it before the outcome was collected.
/// No-op when `CUSAN_ASYNC_CHECK=0` forces the inline backend process-wide.
fn assert_async_ran<T>(what: &str, out: &WorldOutcome<T>) {
    if cusan::ctx::EnvOverrides::get().async_check == Some(false) {
        return;
    }
    for r in &out.ranks {
        let stats = r
            .async_check
            .unwrap_or_else(|| panic!("{what} rank {}: async stats missing", r.rank));
        assert!(
            stats.events_enqueued > 0,
            "{what} rank {}: no events went through the ring",
            r.rank
        );
        assert!(stats.batches_applied > 0, "{what} rank {}", r.rank);
        assert!(stats.max_queue_depth > 0, "{what} rank {}", r.rank);
        // Occupancy-based depth is physically bounded by the ring.
        assert!(
            stats.max_queue_depth <= cusan::async_check::RING_CAPACITY as u64,
            "{what} rank {}: depth exceeds ring capacity",
            r.rank
        );
        // Batch-shape counters are internally consistent: stats() flushed
        // before reading, so every enqueued message is accounted.
        assert!(stats.min_batch >= 1, "{what} rank {}", r.rank);
        assert!(
            stats.min_batch <= stats.avg_batch && stats.avg_batch <= stats.max_batch,
            "{what} rank {}: batch-size ordering",
            r.rank
        );
        assert!(
            stats.max_batch <= cusan::async_check::BATCH_MAX as u64,
            "{what} rank {}",
            r.rank
        );
        assert_eq!(
            stats.batch_hist.iter().sum::<u64>(),
            stats.batches_applied,
            "{what} rank {}: histogram covers every batch",
            r.rank
        );
        assert!(
            stats.batches_stolen <= stats.batches_applied,
            "{what} rank {}",
            r.rank
        );
    }
}

#[test]
fn jacobi_async_matches_sync_bit_for_bit() {
    let cfg = JacobiConfig {
        nx: 64,
        ny: 32,
        ranks: 2,
        iters: 3,
        ..JacobiConfig::default()
    };
    let base = Flavor::MustCusan.config();
    let sync = run_jacobi_traced(&cfg, sync_config(base));
    let asyn = run_jacobi_traced(&cfg, async_config(base));
    if cusan::ctx::EnvOverrides::get().async_check.is_none() {
        assert!(sync.outcome.ranks.iter().all(|r| r.async_check.is_none()));
    }
    assert_async_ran("jacobi", &asyn.outcome);
    assert_outcomes_identical("jacobi", &sync.outcome, &asyn.outcome);
    assert_eq!(sync.norms, asyn.norms, "application numerics unchanged");
}

#[test]
fn tealeaf_async_matches_sync_bit_for_bit() {
    let cfg = TeaLeafConfig {
        nx: 16,
        ny: 16,
        ranks: 2,
        steps: 1,
        ..TeaLeafConfig::default()
    };
    let base = Flavor::MustCusan.config();
    let sync = run_tealeaf_traced(&cfg, sync_config(base));
    let asyn = run_tealeaf_traced(&cfg, async_config(base));
    assert_async_ran("tealeaf", &asyn.outcome);
    assert_outcomes_identical("tealeaf", &sync.outcome, &asyn.outcome);
}

#[test]
fn async_matches_sync_under_faults_and_budget() {
    // The hardest differential case: injected API faults change the event
    // stream (ApiFault markers, skipped calls) and a shadow page budget
    // makes the detector drop annotations — both must reproduce exactly
    // when detection runs on the checker pool.
    let mut base = Flavor::MustCusan.config();
    // Seed 9 faults Jacobi at a late `cudaDeviceSynchronize` and TeaLeaf
    // inside the halo exchange (`MPI_Isend`), on every rank at once. The
    // seed must not fault one rank alone mid-exchange (42 does): its peer
    // then sits out mpi-sim's fixed 20 s wait timeout in each mode, which
    // times the simulator, not the checker.
    base.faults = FaultPlan::with_rate(9, 0.05);
    base.shadow_page_budget = Some(8);
    let cfg = ChaosConfig::default();

    let sync = run_chaos_jacobi(&cfg, sync_config(base));
    let asyn = run_chaos_jacobi(&cfg, async_config(base));
    assert_async_ran("chaos-jacobi(faults)", &asyn);
    assert_outcomes_identical("chaos-jacobi(faults)", &sync, &asyn);

    let sync = run_chaos_tealeaf(&cfg, sync_config(base));
    let asyn = run_chaos_tealeaf(&cfg, async_config(base));
    assert_async_ran("chaos-tealeaf(faults)", &asyn);
    assert_outcomes_identical("chaos-tealeaf(faults)", &sync, &asyn);
}

#[test]
fn pool_worker_count_never_changes_results() {
    // The tentpole invariant at full-application scale: the same TeaLeaf
    // world checked by 1, 2, and ranks-many pool workers produces
    // bit-for-bit identical outcomes — stealing moves *where* batches are
    // applied, never what they compute. (`ToolConfig::check_threads`
    // mirrors the CUSAN_CHECK_THREADS knob without the process-wide
    // freeze, like `async_check` vs CUSAN_ASYNC_CHECK.)
    let cfg = TeaLeafConfig {
        nx: 16,
        ny: 16,
        ranks: 4,
        steps: 1,
        ..TeaLeafConfig::default()
    };
    let base = Flavor::MustCusan.config();
    let sync = run_tealeaf_traced(&cfg, sync_config(base));
    for threads in [1usize, 2, 4] {
        let mut ac = async_config(base);
        ac.check_threads = Some(threads);
        let asyn = run_tealeaf_traced(&cfg, ac);
        let what = format!("tealeaf({threads} check threads)");
        assert_async_ran(&what, &asyn.outcome);
        assert_outcomes_identical(&what, &sync.outcome, &asyn.outcome);
    }
}

#[test]
fn pool_sharing_one_worker_across_ranks_matches_sync() {
    // 2 ranks, 1 worker: every event of at least one rank is carried by a
    // "foreign" worker, the configuration a per-rank-thread design never
    // exercises. A shadow budget rides along so detector degradation also
    // reproduces under sharing (faults need the chaos harness — the
    // traced apps treat an injected error as fatal by design).
    let cfg = JacobiConfig {
        nx: 64,
        ny: 32,
        ranks: 2,
        iters: 3,
        ..JacobiConfig::default()
    };
    let mut base = Flavor::MustCusan.config();
    base.shadow_page_budget = Some(8);
    let sync = run_jacobi_traced(&cfg, sync_config(base));
    let mut ac = async_config(base);
    ac.check_threads = Some(1);
    let asyn = run_jacobi_traced(&cfg, ac);
    assert_async_ran("jacobi(1 check thread)", &asyn.outcome);
    assert_outcomes_identical("jacobi(1 check thread)", &sync.outcome, &asyn.outcome);
    assert_eq!(sync.norms, asyn.norms, "application numerics unchanged");
}

#[test]
fn chaos_async_sweep_is_deterministic_per_seed() {
    // chaos_soak's invariants with the async backend: no panics, no
    // deadlocks (every run completes), and per-seed determinism — two
    // async runs agree with each other and with the sync run.
    let cfg = ChaosConfig::default();
    for seed in [1u64, 7, 23] {
        let mut base = Flavor::MustCusan.config();
        base.faults = FaultPlan::with_rate(seed, 0.08);
        let what = format!("chaos seed {seed}");
        let sync = run_chaos_tealeaf(&cfg, sync_config(base));
        let a1 = run_chaos_tealeaf(&cfg, async_config(base));
        let a2 = run_chaos_tealeaf(&cfg, async_config(base));
        assert_async_ran(&what, &a1);
        assert_outcomes_identical(&format!("{what} async-vs-async"), &a1, &a2);
        assert_outcomes_identical(&format!("{what} sync-vs-async"), &sync, &a1);
    }
}
