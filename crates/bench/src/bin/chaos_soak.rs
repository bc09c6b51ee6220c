//! Chaos soak: a seeded fault sweep over the real Jacobi and TeaLeaf.
//!
//! For every seed, each app runs under a seeded
//! [`FaultSchedule`] — the controller that decides the `ApiFault` choice
//! at every checked CUDA and MPI entry, independently per rank (every
//! 4th seed additionally under a shadow-page budget, exercising counted
//! best-effort degradation; odd seeds record binary traces, even seeds
//! text) — and the soak asserts the robustness contract end to end:
//!
//! * **No panics**: every rank either finishes or returns a typed
//!   `AppError`; a partner left waiting on a rank that returned early
//!   gets `MpiError::Deadlock` from the world's wait monitor.
//! * **Per-seed determinism**: a same-seed re-run produces identical
//!   per-rank results, race reports, and byte-identical traces.
//! * **Replay fidelity under faults**: replaying each recorded trace
//!   reproduces the live race reports, detector stats, and event
//!   counters bit-for-bit — the `ApiFault` records carry the faults,
//!   the header carries the budget.
//! * **Leaks are reported, not failed**: a faulted rank returns before
//!   its frees, so the soak prints the bytes left allocated; a run in
//!   which no fault fired must leak nothing.
//!
//! Usage: `chaos_soak [seeds] [explore-budget]` (defaults 32 and 3; the
//! CI soak job passes 8, then 4 and 3).

use cusan::{replay_stream, Flavor, ToolConfig, TraceFormat};
use cusan_apps::tealeaf::CgResult;
use cusan_apps::testsuite::outcome_digest;
use cusan_apps::{
    try_run_jacobi, try_run_tealeaf, AppResult, JacobiConfig, RaceMode, TeaLeafConfig,
};
use cusan_bench::banner;
use explore::{FaultSchedule, ScheduleController, SchedulePlan};
use must_rt::WorldOutcome;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

/// Fault rates cycled across the seed sweep (per-site probabilities).
const RATES: [f64; 3] = [0.002, 0.01, 0.05];

/// Shadow budget applied on every 4th seed (pages of 4 KiB; small enough
/// that even the soak's grids overflow it and drop annotations).
const BUDGET: usize = 2;

/// World size of both apps.
const RANKS: usize = 2;

/// Jacobi at soak size: 4 iterations of a 32 × 16 grid.
const JACOBI: JacobiConfig = JacobiConfig {
    nx: 32,
    ny: 16,
    ranks: RANKS,
    iters: 4,
    race: RaceMode::None,
};

/// TeaLeaf at soak size: one CG solve on a 16 × 16 grid.
fn tealeaf_config() -> TeaLeafConfig {
    TeaLeafConfig {
        nx: 16,
        ny: 16,
        ranks: RANKS,
        steps: 1,
        ..TeaLeafConfig::default()
    }
}

/// One app run: a tool configuration and, if given, a controller in;
/// each rank's result or first error out.
type Run<'a, T> =
    &'a dyn Fn(ToolConfig, Option<Arc<dyn ScheduleController>>) -> WorldOutcome<AppResult<T>>;

fn soak_config(seed: u64) -> ToolConfig {
    let mut c = Flavor::MustCusan.config();
    if seed % 4 == 3 {
        c.shadow_page_budget = Some(BUDGET);
    }
    c.record = Some(if seed % 2 == 1 {
        TraceFormat::Binary
    } else {
        TraceFormat::Text
    });
    c
}

/// The seed's fault schedule over `plan`.
fn faults(seed: u64, plan: Arc<SchedulePlan>) -> Option<Arc<dyn ScheduleController>> {
    Some(FaultSchedule::seeded(
        plan,
        seed,
        RATES[seed as usize % RATES.len()],
    ))
}

#[derive(Default)]
struct Tally {
    runs: usize,
    faulted_ranks: usize,
    faults_fired: u64,
    leaked_bytes: u64,
    dropped: u64,
    races: u64,
    schedules: usize,
    errs: Vec<String>,
}

impl Tally {
    /// Hold run `a` to the contract: `b`, a re-run of the same schedule,
    /// has the same results and byte-identical traces; every trace
    /// replays to its live rank; a failure or a leak needs a fault that
    /// fired.
    fn check<T: PartialEq + Debug>(
        &mut self,
        what: &str,
        a: &WorldOutcome<AppResult<T>>,
        b: &WorldOutcome<AppResult<T>>,
    ) {
        self.runs += 2;
        if a.results != b.results {
            self.errs.push(format!(
                "{what}: results diverge across same-schedule re-run:\n  {:?}\n  {:?}",
                a.results, b.results
            ));
        }
        for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
            if ra.races != rb.races || ra.trace != rb.trace {
                self.errs.push(format!(
                    "{what} rank {}: race reports or trace bytes diverge across re-run",
                    ra.rank
                ));
            }
            let bytes = ra.trace.as_deref().expect("soak runs are traced");
            match replay_stream(bytes) {
                Err(e) => self
                    .errs
                    .push(format!("{what} rank {}: trace replay error: {e}", ra.rank)),
                Ok(out) if out.reports != ra.races || out.stats != ra.tsan => {
                    self.errs.push(format!(
                        "{what} rank {}: replay diverges from the live run\n  \
                         live:   {} races, {:?}\n  replay: {} races, {:?}",
                        ra.rank,
                        ra.races.len(),
                        ra.tsan,
                        out.reports.len(),
                        out.stats
                    ))
                }
                Ok(out) if out.counters != ra.events => self.errs.push(format!(
                    "{what} rank {}: replay counters diverge\n  live:   {:?}\n  replay: {:?}",
                    ra.rank, ra.events, out.counters
                )),
                Ok(_) => {}
            }
        }
        let failed = a.results.iter().filter(|r| r.is_err()).count();
        let fired = a.ranks.iter().map(|r| r.events.api_faults).sum::<u64>();
        // A failure or a leak with zero `ApiFault` events is a genuine
        // bug wearing a chaos costume.
        if fired == 0 && (failed > 0 || a.space.live_allocs > 0) {
            self.errs.push(format!(
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
}

/// Run one app under one seed's faults on `budget` explored schedules
/// (1: the default schedule alone), re-run each from its recorded
/// choice vectors, and hold both to the contract.
fn soak<T: PartialEq + Debug>(app: &str, seed: u64, budget: usize, run: Run<T>, tally: &mut Tally) {
    let report = explore::explore(RANKS + 1, budget, |plan| {
        let out = run(soak_config(seed), faults(seed, Arc::clone(plan)));
        (outcome_digest(&out), out)
    });
    if budget > 1 {
        tally.schedules += report.stats.schedules_run;
    }
    for ex in &report.runs {
        let plan = SchedulePlan::with_choices(ex.plan.clone());
        let again = run(soak_config(seed), faults(seed, plan));
        tally.check(
            &format!("{app} seed {seed} plan {:?}", ex.plan),
            &ex.value,
            &again,
        );
    }
}

/// Final process exit code for a finished soak. Pure and total so the
/// no-green-washing contract is unit-testable: *any* recorded mismatch
/// fails the job, as does a sweep that never fired a single fault
/// (dead rates or broken controller plumbing would otherwise pass
/// vacuously).
fn verdict(errs: &[String], faults_fired: u64) -> i32 {
    if !errs.is_empty() || faults_fired == 0 {
        1
    } else {
        0
    }
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed count must be a number"))
        .unwrap_or(32);
    let explore_budget: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("explore budget must be a number"))
        .unwrap_or(3);
    banner(
        "chaos soak",
        "sweeps seeded fault schedules over the real Jacobi and TeaLeaf;\n\
         asserts no panics, per-seed determinism, and record/replay\n\
         fidelity under injected CUDA/MPI failures and shadow pressure",
    );

    let tealeaf_cfg = tealeaf_config();
    let jacobi: Run<Vec<f64>> = &|t, c| try_run_jacobi(&JACOBI, t, c);
    let tealeaf: Run<CgResult> = &|t, c| try_run_tealeaf(&tealeaf_cfg, t, c);
    let start = Instant::now();
    let mut tally = Tally::default();

    // Baseline: without a controller every rank succeeds, records no
    // fault and frees everything it allocated.
    let clean = soak_config(0);
    tally.check(
        "jacobi baseline",
        &jacobi(clean, None),
        &jacobi(clean, None),
    );
    tally.check(
        "tealeaf baseline",
        &tealeaf(clean, None),
        &tealeaf(clean, None),
    );
    if tally.faults_fired != 0 {
        tally
            .errs
            .push("baseline: ApiFault events without a controller".into());
    }

    for seed in 0..seeds {
        // Every 4th seed also sweeps alternative schedules: the faults
        // compose with the explored plan, and every explored execution
        // must keep the determinism and replay contracts.
        let budget = if seed % 4 == 0 {
            explore_budget.max(1)
        } else {
            1
        };
        soak("jacobi", seed, budget, jacobi, &mut tally);
        soak("tealeaf", seed, budget, tealeaf, &mut tally);
    }

    println!(
        "{} runs over {seeds} seeds in {:.2?}: {} faults fired across {} rank failures,\n\
         {} bytes left allocated by faulted ranks, {} annotations dropped under budget,\n\
         {} races, {} explored schedules, {} mismatches",
        tally.runs,
        start.elapsed(),
        tally.faults_fired,
        tally.faulted_ranks,
        tally.leaked_bytes,
        tally.dropped,
        tally.races,
        tally.schedules,
        tally.errs.len()
    );
    let code = verdict(&tally.errs, tally.faults_fired);
    if code == 0 {
        println!("OK: deterministic degradation and faithful replay on every seed");
    } else {
        if tally.faults_fired == 0 {
            eprintln!("MISMATCH: sweep fired no faults at all — rates or controller broken");
        }
        for e in &tally.errs {
            eprintln!("MISMATCH: {e}");
        }
    }
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn any_seed_failure_fails_the_process() {
        assert_eq!(verdict(&[], 10), 0);
        assert_eq!(verdict(&["jacobi seed 3: diverged".to_string()], 10), 1);
        // A vacuous sweep (no faults fired) must not pass either.
        assert_eq!(verdict(&[], 0), 1);
        assert_eq!(verdict(&["boom".to_string()], 0), 1);
    }
}
