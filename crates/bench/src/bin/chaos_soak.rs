//! Chaos soak: a deterministic fault-seed sweep over the chaos twins of
//! Jacobi and TeaLeaf (`cusan_apps::chaos`).
//!
//! For every seed, each app runs under a seeded [`FaultPlan`] (every 4th
//! seed additionally under a shadow-page budget, exercising counted
//! best-effort degradation; odd seeds record binary traces, even seeds
//! text) and the soak asserts the robustness contract end to end:
//!
//! * **No panics**: every rank either finishes or returns a typed error;
//!   the harness always collects outcomes.
//! * **Per-seed determinism**: a same-seed re-run produces identical
//!   per-rank results, race reports, and byte-identical traces.
//! * **Replay fidelity under faults**: replaying each recorded trace
//!   reproduces the live race reports, detector stats, and event
//!   counters bit-for-bit — the `ApiFault` records carry the fault
//!   schedule, the header carries the budget.
//! * **Clean teardown**: a fault-free baseline leaves zero live
//!   allocations; faulted runs leak at most what their failed frees
//!   abandoned.
//!
//! Usage: `chaos_soak [seeds] [explore-budget]` (defaults 32 and 3; the
//! CI soak job passes 8, then 4 and 3).

use cusan::{replay_stream, FaultPlan, Flavor, ToolConfig, TraceFormat};
use cusan_apps::testsuite::outcome_digest;
use cusan_apps::{run_chaos_jacobi, run_chaos_tealeaf, ChaosConfig, ChaosResult};
use cusan_bench::banner;
use explore::SchedulePlan;
use must_rt::WorldOutcome;
use std::sync::Arc;
use std::time::Instant;

/// Fault rates cycled across the seed sweep (per-site probabilities).
const RATES: [f64; 3] = [0.002, 0.01, 0.05];

/// Shadow budget applied on every 4th seed (pages of 4 KiB; small enough
/// that even the tiny chaos grids overflow it and drop annotations).
const BUDGET: usize = 2;

fn soak_config(seed: u64) -> ToolConfig {
    let mut c = Flavor::MustCusan.config();
    c.faults = FaultPlan::with_rate(seed, RATES[seed as usize % RATES.len()]);
    if seed % 4 == 3 {
        c.shadow_page_budget = Some(BUDGET);
    }
    if seed % 2 == 1 {
        c.record = Some(TraceFormat::Binary);
    }
    c
}

struct Tally {
    runs: usize,
    faulted_ranks: usize,
    faults_fired: u64,
    dropped: u64,
    races: u64,
    schedules: u64,
    errs: Vec<String>,
}

/// Run one app under one seed twice (determinism) and replay every trace
/// (fidelity). Returns the first run for tallying.
fn soak_one(
    app: &str,
    seed: u64,
    run: impl Fn(ToolConfig) -> WorldOutcome<ChaosResult>,
    tally: &mut Tally,
) {
    let a = run(soak_config(seed));
    let b = run(soak_config(seed));
    tally.runs += 2;

    // Per-seed determinism: identical results, reports, and trace bytes.
    if a.results != b.results {
        tally.errs.push(format!(
            "{app} seed {seed}: results diverge across same-seed re-run:\n  {:?}\n  {:?}",
            a.results, b.results
        ));
    }
    for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
        if ra.races != rb.races {
            tally.errs.push(format!(
                "{app} seed {seed} rank {}: race reports diverge across re-run",
                ra.rank
            ));
        }
        if ra.trace != rb.trace {
            tally.errs.push(format!(
                "{app} seed {seed} rank {}: trace bytes diverge across re-run",
                ra.rank
            ));
        }
    }

    // Replay fidelity: the recorded stream reproduces the live run.
    for r in &a.ranks {
        let bytes = r.trace.as_deref().expect("soak runs are traced");
        let out = match replay_stream(bytes) {
            Ok(out) => out,
            Err(e) => {
                tally.errs.push(format!(
                    "{app} seed {seed} rank {}: trace replay error: {e}",
                    r.rank
                ));
                continue;
            }
        };
        if out.reports != r.races {
            tally.errs.push(format!(
                "{app} seed {seed} rank {}: replay races {} != live {}",
                r.rank,
                out.reports.len(),
                r.races.len()
            ));
        }
        if out.stats != r.tsan {
            tally.errs.push(format!(
                "{app} seed {seed} rank {}: replay stats diverge\n  live:   {:?}\n  replay: {:?}",
                r.rank, r.tsan, out.stats
            ));
        }
        if out.counters != r.events {
            tally.errs.push(format!(
                "{app} seed {seed} rank {}: replay counters diverge\n  live:   {:?}\n  replay: {:?}",
                r.rank, r.events, out.counters
            ));
        }
    }

    // Failure attribution: a rank error is only acceptable if the plan
    // actually fired in this world — an error with zero `ApiFault`
    // events is a genuine bug wearing a chaos costume, and used to be
    // silently tallied as a "faulted rank" (green-washing the exit
    // code).
    let failed = a.results.iter().filter(|r| r.is_err()).count();
    let world_faults = a.ranks.iter().map(|r| r.events.api_faults).sum::<u64>();
    if failed > 0 && world_faults == 0 {
        tally.errs.push(format!(
            "{app} seed {seed}: {failed} rank(s) failed but no fault fired — \
             failure not attributable to the injected plan"
        ));
    }

    tally.faulted_ranks += failed;
    tally.faults_fired += world_faults;
    tally.dropped += a
        .ranks
        .iter()
        .map(|r| r.tsan.dropped_annotations)
        .sum::<u64>();
    tally.races += a.total_races();
}

/// Explored slice: enumerate `budget` schedules of one app under one
/// seed's fault plan and hold every explored execution to the same
/// contract as the default schedule — re-running its recorded choice
/// vectors reproduces the per-rank traces byte-for-byte, and replaying
/// each recorded trace reproduces the live reports and counters.
fn soak_explored(
    app: &str,
    seed: u64,
    lanes: usize,
    budget: usize,
    run: impl Fn(ToolConfig, Arc<SchedulePlan>) -> WorldOutcome<ChaosResult>,
    tally: &mut Tally,
) {
    let report = explore::explore(lanes, budget, |plan| {
        let out = run(soak_config(seed), Arc::clone(plan));
        (outcome_digest(&out), out)
    });
    tally.schedules += report.stats.schedules_run as u64;
    for ex in &report.runs {
        tally.runs += 2;
        let again = run(
            soak_config(seed),
            SchedulePlan::with_choices(ex.plan.clone()),
        );
        if ex.value.results != again.results {
            tally.errs.push(format!(
                "{app} seed {seed} plan {:?}: results diverge across same-schedule re-run",
                ex.plan
            ));
        }
        for (ra, rb) in ex.value.ranks.iter().zip(&again.ranks) {
            if ra.trace != rb.trace {
                tally.errs.push(format!(
                    "{app} seed {seed} plan {:?} rank {}: trace bytes diverge across re-run",
                    ex.plan, ra.rank
                ));
            }
        }
        for r in &ex.value.ranks {
            let bytes = r.trace.as_deref().expect("soak runs are traced");
            let out = match replay_stream(bytes) {
                Ok(out) => out,
                Err(e) => {
                    tally.errs.push(format!(
                        "{app} seed {seed} plan {:?} rank {}: trace replay error: {e}",
                        ex.plan, r.rank
                    ));
                    continue;
                }
            };
            if out.reports != r.races || out.stats != r.tsan || out.counters != r.events {
                tally.errs.push(format!(
                    "{app} seed {seed} plan {:?} rank {}: explored replay diverges from live run",
                    ex.plan, r.rank
                ));
            }
        }
        tally.races += ex.value.total_races();
        tally.faults_fired += ex
            .value
            .ranks
            .iter()
            .map(|r| r.events.api_faults)
            .sum::<u64>();
    }
}

fn baseline(app: &str, run: impl Fn(ToolConfig) -> WorldOutcome<ChaosResult>) -> Vec<String> {
    let mut errs = Vec::new();
    let out = run(Flavor::MustCusan.config());
    if let Some(e) = out.results.iter().find_map(|r| r.clone().err()) {
        errs.push(format!("{app} baseline: rank failed without faults: {e}"));
    }
    if out.space.live_allocs != 0 {
        errs.push(format!(
            "{app} baseline: {} allocations leaked at teardown",
            out.space.live_allocs
        ));
    }
    if out.ranks.iter().any(|r| r.events.api_faults != 0) {
        errs.push(format!("{app} baseline: ApiFault events without a plan"));
    }
    errs
}

/// Final process exit code for a finished soak. Pure and total so the
/// no-green-washing contract is unit-testable: *any* recorded mismatch
/// fails the job, as does a sweep that never fired a single fault
/// (dead rates or broken plan plumbing would otherwise pass vacuously).
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
        "sweeps seeded fault plans over the symmetric Jacobi/TeaLeaf chaos\n\
         bodies; asserts no panics, per-seed determinism, and record/replay\n\
         fidelity under injected CUDA/MPI failures and shadow pressure",
    );

    let cfg = ChaosConfig::default();
    let start = Instant::now();
    let mut tally = Tally {
        runs: 0,
        faulted_ranks: 0,
        faults_fired: 0,
        dropped: 0,
        races: 0,
        schedules: 0,
        errs: Vec::new(),
    };

    tally
        .errs
        .extend(baseline("jacobi", |t| run_chaos_jacobi(&cfg, t, None)));
    tally
        .errs
        .extend(baseline("tealeaf", |t| run_chaos_tealeaf(&cfg, t, None)));

    for seed in 0..seeds {
        soak_one(
            "jacobi",
            seed,
            |t| run_chaos_jacobi(&cfg, t, None),
            &mut tally,
        );
        soak_one(
            "tealeaf",
            seed,
            |t| run_chaos_tealeaf(&cfg, t, None),
            &mut tally,
        );
        if explore_budget > 1 {
            // Every 4th seed also sweeps alternative schedules: the
            // fault plan composes with the controller, and every
            // explored execution must keep the determinism and replay
            // contracts.
            if seed % 4 == 0 {
                soak_explored(
                    "jacobi",
                    seed,
                    cfg.ranks + 1,
                    explore_budget,
                    |t, p| run_chaos_jacobi(&cfg, t, Some(p)),
                    &mut tally,
                );
                soak_explored(
                    "tealeaf",
                    seed,
                    cfg.ranks + 1,
                    explore_budget,
                    |t, p| run_chaos_tealeaf(&cfg, t, Some(p)),
                    &mut tally,
                );
            }
        }
    }

    println!(
        "{} runs over {seeds} seeds in {:.2?}: {} faults fired across {} rank failures,\n\
         {} annotations dropped under budget, {} races, {} explored schedules, {} mismatches",
        tally.runs,
        start.elapsed(),
        tally.faults_fired,
        tally.faulted_ranks,
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
            eprintln!("MISMATCH: sweep fired no faults at all — rates or plan plumbing broken");
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
