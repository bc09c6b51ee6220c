//! The one fault harness: both mini-apps and the 60 testsuite programs
//! held to one contract under injected CUDA and MPI failures.
//!
//! An [`explore::FaultSchedule`] decides the `ApiFault` choice at every
//! checked CUDA and MPI entry; a rank's `k`-th such entry is its site
//! `k`. Every run records, and every recording must replay faithfully
//! (`RankOutcome::replay_mismatches`). No rank may panic or hang: a
//! partner left waiting on a rank that returned early gets
//! `MpiError::Deadlock` from the wait monitor, or `MpiError::PeerExited`
//! from an `MPI_Test` poll.
//!
//! **Single-site mode.** A schedule that never fires counts each rank's
//! sites on a fault-free run, which must succeed everywhere (an app also
//! frees everything; a program reaches its expected verdict). Then one
//! run per rank `r` and `stride`-th site `k` fails exactly that site:
//! rank `r` records the one fault and no other rank any; rank `r` fails
//! with the injected fault unless `k` was its last site (the harness's
//! teardown flush reports it as a diagnostic) or the program discards
//! that call's result ([`DISCARDS`]); a partner fails only by being left
//! waiting. The three `TIMING_DEPENDENT` programs need not make the same
//! checked calls from run to run, so they are held only to what does not
//! depend on site count: at most one fault, on rank `r` alone; a failure
//! needs it; partners left waiting; faithful replay.
//!
//! **Seeded mode.** Each seed runs both apps under a seeded fault
//! schedule, exploring 3 schedules on every 4th seed (which also runs
//! under a shadow-page budget); odd seeds record binary. Each explored
//! run is re-run from its choices and must repeat its results and trace
//! bytes; a failure or a leak needs a fault that fired; without a
//! controller nothing fires; a sweep that fires no fault fails.
//!
//! Tier-1 runs every site of the programs, every 8th of the apps and 32
//! seeds; `cargo test --release -p cusan-apps --test fault_sweep --
//! --ignored` runs every site of the apps and 256 seeds.

use cuda_sim::CudaError;
use cusan::{Flavor, ToolConfig, TraceFormat};
use cusan_apps::testsuite::{cases, outcome_digest, try_run_case, TIMING_DEPENDENT};
use cusan_apps::{
    try_run_jacobi, try_run_tealeaf, AppError, AppResult, JacobiConfig, RaceMode, TeaLeafConfig,
};
use explore::{FaultSchedule, ScheduleController, SchedulePlan};
use mpi_sim::MpiError;
use must_rt::WorldOutcome;
use sim_mem::MemError;
use std::fmt::Debug;
use std::sync::Arc;

const RANKS: usize = 2;

/// Testsuite programs that discard a checked call's result — `let _ =`
/// on the `Wait` and `Recv` of a transfer whose buffer is freed, and a
/// send asserted to fail — so a fault there may end the rank `Ok`.
const DISCARDS: [&str; 2] = [
    "cuda-to-mpi/free_during_isend_nok",
    "datatype/count_overrun_nok",
];

/// One run: a tool configuration and, if given, a controller in; each
/// rank's result or first error out.
type Run<'a, T> =
    &'a dyn Fn(ToolConfig, Option<Arc<dyn ScheduleController>>) -> WorldOutcome<AppResult<T>>;

/// The size `trace_replay.rs` records Jacobi at.
const JACOBI: JacobiConfig = JacobiConfig {
    nx: 64,
    ny: 32,
    ranks: RANKS,
    iters: 20,
    race: RaceMode::None,
};

/// The size `trace_replay.rs` records TeaLeaf at, in both modes.
fn tealeaf() -> TeaLeafConfig {
    TeaLeafConfig {
        nx: 16,
        ny: 16,
        ranks: RANKS,
        steps: 1,
        ..TeaLeafConfig::default()
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

/// A partner's failure: waiting on a rank that returned early.
fn left_waiting(e: &AppError) -> bool {
    matches!(
        e,
        AppError::Mpi(MpiError::Deadlock { .. } | MpiError::PeerExited { .. })
    )
}

fn fired<T>(out: &WorldOutcome<T>) -> u64 {
    out.ranks.iter().map(|r| r.events.api_faults).sum()
}

/// Every rank's replay mismatches, prefixed with `what`.
fn replay_mismatches<T>(what: &str, out: &WorldOutcome<T>) -> Vec<String> {
    out.ranks
        .iter()
        .flat_map(|r| r.replay_mismatches())
        .map(|e| format!("{what} {e}"))
        .collect()
}

// ---- single-site mode -------------------------------------------------------

/// Hold a fault-free run and one run per `stride`-th site of each rank
/// to the single-site contract (`exact`: not timing-dependent). Returns
/// the fault-free run, the faulted runs made, and how many of those
/// ended the faulted rank `Ok` with its fault fired before its last
/// site (the program discarded the call's result).
fn single_site<T: Debug>(
    what: &str,
    stride: usize,
    exact: bool,
    run: Run<T>,
) -> (WorldOutcome<AppResult<T>>, usize, usize) {
    let recorded = ToolConfig {
        record: Some(TraceFormat::Text),
        ..Flavor::MustCusan.config()
    };
    // A schedule that never fires counts each rank's sites.
    let never = FaultSchedule::seeded(SchedulePlan::defaults(RANKS), 0, 0.0);
    let clean = run(recorded, Some(never.clone()));
    let ok = clean.results.iter().all(Result::is_ok);
    assert!(ok && fired(&clean) == 0, "{what}: fault-free run {clean:?}");
    let errs = replay_mismatches(what, &clean);
    assert!(errs.is_empty(), "{errs:#?}");
    let (mut runs, mut absorbed) = (0, 0);
    for rank in 0..RANKS {
        let sites = never.sites(rank);
        assert!(sites > 0, "{what}: rank {rank} made no checked call");
        for site in (0..sites).step_by(stride) {
            let what = format!("{what} rank {rank} site {site}");
            let plan = SchedulePlan::defaults(RANKS);
            let out = run(recorded, Some(FaultSchedule::single(plan, rank, site)));
            runs += 1;
            for r in &out.ranks {
                let faults = r.events.api_faults;
                let want = u64::from(r.rank == rank);
                assert!(
                    faults == want || (!exact && faults == 0),
                    "{what}: {faults} faults on rank {}",
                    r.rank
                );
            }
            let faulted = &out.ranks[rank];
            match &out.results[rank] {
                Err(e) => assert!(
                    injected(e) && faulted.events.api_faults == 1,
                    "{what}: faulted rank failed with {e}"
                ),
                Ok(_) if faulted.events.api_faults == 0 => {}
                Ok(_) if faulted.diagnostics.iter().any(|d| d.contains("flush")) => assert!(
                    !exact || site + 1 == sites,
                    "{what}: the teardown flush failed before the last site"
                ),
                Ok(_) => absorbed += 1,
            }
            for (r, result) in out.results.iter().enumerate() {
                if let Err(e) = result {
                    let ok = r == rank || left_waiting(e);
                    assert!(ok, "{what}: partner rank {r} failed with {e}");
                }
            }
            let errs = replay_mismatches(&what, &out);
            assert!(errs.is_empty(), "{errs:#?}");
        }
    }
    (clean, runs, absorbed)
}

/// Sweep an app: its fault-free run frees everything, and no fault
/// vanishes. Returns how many faulted runs it made.
fn sweep_app<T: Debug>(app: &str, stride: usize, run: Run<T>) -> usize {
    let (clean, runs, absorbed) = single_site(app, stride, true, run);
    assert_eq!(clean.space.live_allocs, 0, "{app}: fault-free run leaked");
    assert_eq!(absorbed, 0, "{app}: a fault vanished");
    runs
}

fn sweep_jacobi(stride: usize) -> usize {
    sweep_app("jacobi", stride, &|t, c| try_run_jacobi(&JACOBI, t, c))
}

fn sweep_tealeaf(stride: usize) -> usize {
    let cfg = tealeaf();
    sweep_app("tealeaf", stride, &|t, c| try_run_tealeaf(&cfg, t, c))
}

#[test]
fn every_eighth_single_fault_degrades_jacobi() {
    assert!(sweep_jacobi(8) > 20);
}

#[test]
fn every_eighth_single_fault_degrades_tealeaf() {
    assert!(sweep_tealeaf(8) > 20);
}

/// Every site of every testsuite program: each fault-free run reaches
/// its expected verdict, and the programs that absorbed a fault are
/// exactly [`DISCARDS`].
#[test]
fn every_single_fault_degrades_every_testsuite_program() {
    let (mut runs, mut absorbing) = (0, Vec::new());
    for case in cases() {
        let exact = !TIMING_DEPENDENT.contains(&case.name);
        let run: Run<()> = &|t, c| try_run_case(&case, t, c);
        let (clean, n, absorbed) = single_site(case.name, 1, exact, run);
        let verdict = case.expected;
        assert!(verdict.holds(&clean), "{}: not {verdict:?}", case.name);
        runs += n;
        if absorbed > 0 {
            absorbing.push(case.name);
        }
    }
    assert_eq!(absorbing, DISCARDS, "programs that absorbed a fault");
    println!("{runs} testsuite single-fault runs");
}

#[test]
#[ignore = "every site of both apps: run in release"]
fn every_single_fault_degrades_both_apps() {
    let (jacobi, tealeaf) = (sweep_jacobi(1), sweep_tealeaf(1));
    println!("{jacobi} Jacobi and {tealeaf} TeaLeaf single-fault runs");
}

// ---- seeded mode ------------------------------------------------------------

/// Fault rates cycled across seeds (per-site probabilities).
const RATES: [f64; 3] = [0.002, 0.01, 0.05];

/// Jacobi at seeded size: 4 iterations of a 32 × 16 grid.
const SEEDED_JACOBI: JacobiConfig = JacobiConfig {
    nx: 32,
    ny: 16,
    iters: 4,
    ..JACOBI
};

fn seeded_config(seed: u64) -> ToolConfig {
    ToolConfig {
        // 2 pages: small enough that even these grids overflow it.
        shadow_page_budget: (seed % 4 == 3).then_some(2),
        record: Some(if seed % 2 == 1 {
            TraceFormat::Binary
        } else {
            TraceFormat::Text
        }),
        ..Flavor::MustCusan.config()
    }
}

/// The seed's fault schedule over `plan`.
fn faults(seed: u64, plan: Arc<SchedulePlan>) -> Option<Arc<dyn ScheduleController>> {
    let rate = RATES[seed as usize % RATES.len()];
    Some(FaultSchedule::seeded(plan, seed, rate))
}

/// What a seeded sweep counted, and every contract violation it saw.
#[derive(Debug, Default, PartialEq)]
struct Seeded {
    runs: usize,
    faults_fired: u64,
    faulted_ranks: usize,
    leaked_bytes: u64,
    dropped: u64,
    races: u64,
    schedules: usize,
    mismatches: Vec<String>,
}

impl Seeded {
    /// Hold run `a` to the seeded contract: `b`, a re-run of the same
    /// schedule, has the same results and byte-identical traces; every
    /// trace replays faithfully; a failure or a leak needs a fault that
    /// fired.
    fn check<T: PartialEq + Debug>(
        &mut self,
        what: &str,
        a: &WorldOutcome<AppResult<T>>,
        b: &WorldOutcome<AppResult<T>>,
    ) {
        self.runs += 2;
        if a.results != b.results {
            self.mismatches.push(format!(
                "{what}: results diverge across same-schedule re-run:\n  {:?}\n  {:?}",
                a.results, b.results
            ));
        }
        for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
            if ra.races != rb.races || ra.trace != rb.trace {
                self.mismatches.push(format!(
                    "{what} rank {}: race reports or trace bytes diverge across re-run",
                    ra.rank
                ));
            }
        }
        self.mismatches.extend(replay_mismatches(what, a));
        let failed = a.results.iter().filter(|r| r.is_err()).count();
        let fired = fired(a);
        if fired == 0 && (failed > 0 || a.space.live_allocs > 0) {
            self.mismatches.push(format!(
                "{what}: {failed} rank(s) failed and {} allocations leaked, \
                 but no fault fired",
                a.space.live_allocs
            ));
        }
        self.faulted_ranks += failed;
        self.faults_fired += fired;
        self.leaked_bytes += a.space.live_bytes;
        self.dropped += a
            .ranks
            .iter()
            .map(|r| r.tsan.dropped_annotations)
            .sum::<u64>();
        self.races += a.total_races();
    }

    /// Run one app under one seed's faults on `budget` explored schedules
    /// (1: the default schedule alone), re-run each from its recorded
    /// choices, and hold both to the contract.
    fn app<T: PartialEq + Debug>(&mut self, app: &str, seed: u64, budget: usize, run: Run<T>) {
        let report = explore::explore(RANKS + 1, budget, |plan| {
            let out = run(seeded_config(seed), faults(seed, Arc::clone(plan)));
            (outcome_digest(&out), out)
        });
        if budget > 1 {
            self.schedules += report.stats.schedules_run;
        }
        for ex in &report.runs {
            let plan = SchedulePlan::with_choices(ex.plan.clone());
            let again = run(seeded_config(seed), faults(seed, plan));
            let what = format!("{app} seed {seed} plan {:?}", ex.plan);
            self.check(&what, &ex.value, &again);
        }
    }
}

/// A no-controller baseline of both apps, then seeds `0..seeds`,
/// exploring `budget` schedules on every 4th. Fails if no fault fired.
fn seeded(seeds: u64, budget: usize) -> Seeded {
    let tealeaf_cfg = tealeaf();
    let jacobi: Run<Vec<f64>> = &|t, c| try_run_jacobi(&SEEDED_JACOBI, t, c);
    let tealeaf: Run<_> = &|t, c| try_run_tealeaf(&tealeaf_cfg, t, c);
    let mut s = Seeded::default();
    let clean = seeded_config(0);
    s.check(
        "jacobi baseline",
        &jacobi(clean, None),
        &jacobi(clean, None),
    );
    s.check(
        "tealeaf baseline",
        &tealeaf(clean, None),
        &tealeaf(clean, None),
    );
    if s.faults_fired != 0 {
        s.mismatches
            .push("baseline: ApiFault events without a controller".into());
    }
    for seed in 0..seeds {
        let budget = if seed % 4 == 0 { budget } else { 1 };
        s.app("jacobi", seed, budget, jacobi);
        s.app("tealeaf", seed, budget, tealeaf);
    }
    println!(
        "{} runs over {seeds} seeds: {} faults fired across {} rank failures, \
         {} bytes left allocated by faulted ranks, {} annotations dropped under budget, \
         {} races, {} explored schedules, {} mismatches",
        s.runs,
        s.faults_fired,
        s.faulted_ranks,
        s.leaked_bytes,
        s.dropped,
        s.races,
        s.schedules,
        s.mismatches.len()
    );
    assert!(
        s.faults_fired > 0,
        "no fault fired: rates or controller broken"
    );
    s
}

#[test]
fn seeded_faults_degrade_deterministically() {
    // The schedule is a pure function of the seed, so the counts are
    // too; they move only when the programs' checked calls do.
    let want = Seeded {
        runs: 132,
        faults_fired: 58,
        faulted_ranks: 97,
        leaked_bytes: 612_648,
        dropped: 1_116,
        races: 0,
        schedules: 37,
        mismatches: Vec::new(),
    };
    assert_eq!(seeded(32, 3), want);
}

#[test]
#[ignore = "256 seeds: run in release"]
fn many_seeded_faults_degrade_deterministically() {
    let s = seeded(256, 3);
    assert!(s.mismatches.is_empty(), "{:#?}", s.mismatches);
}
