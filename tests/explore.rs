//! Schedule exploration end-to-end (PR 10's headline):
//!
//! 1. The planted wildcard-receive race
//!    (`explore/wildcard_match_unsynced_branch_nok`) is *never* reported
//!    by the default schedule — running it plain, or under an
//!    all-defaults [`SchedulePlan`], is provably clean even though the
//!    wildcard choice point genuinely offers two candidates.
//! 2. [`explore::explore`] finds the race within a small budget by
//!    branching that one decision.
//! 3. Every explored schedule is itself deterministic: re-running the
//!    recorded choice vectors reproduces the per-rank traces
//!    byte-for-byte, and offline replay of those traces reproduces the
//!    live reports.
//! 4. The whole 60-program testsuite reports identical race sets under
//!    an installed all-defaults plan and under no controller at all —
//!    the controller hooks are semantically invisible at choice 0. The
//!    three timing-dependent programs repeat only their verdict.
//! 5. (proptest) Legacy default-stream barriers hold under *every*
//!    explored completion order of independent user-stream ops.

use cusan_apps::testsuite::{
    cases, outcome_digest, run_case, run_case_scheduled, wildcard_schedule_race, TIMING_DEPENDENT,
};
use cusan_apps::AppKernels;
use explore::{explore, ChoiceKind, ScheduleController, SchedulePlan};
use kernel_ir::{LaunchArg, LaunchGrid};
use must_rt::{run_checked_world_scheduled, RankCtx, WorldOutcome};
use proptest::prelude::*;
use std::sync::Arc;

/// Rank-tagged race report strings, sorted — the comparable "race set"
/// of a world run.
fn race_set(out: &WorldOutcome<()>) -> Vec<String> {
    let mut races: Vec<String> = out
        .all_races()
        .into_iter()
        .map(|(rank, r)| format!("rank {rank}: {r}"))
        .collect();
    races.sort();
    races
}

#[test]
fn default_schedule_never_reports_the_planted_race() {
    let case = wildcard_schedule_race();
    // Plain run (no controller at all).
    let out = run_case(&case);
    assert_eq!(
        out.races, 0,
        "default schedule must not see the planted race: {:?}",
        out.details
    );
    assert_eq!(out.must_reports, 0);
    // All-defaults plan: same execution, but the consultation log proves
    // the wildcard choice point was genuinely offered two candidates —
    // the race is hidden by the default pick, not by unreachability.
    let plan = SchedulePlan::defaults(2);
    let out = run_case_scheduled(&case, Arc::clone(&plan));
    assert_eq!(out.total_races(), 0);
    let wildcard_decisions: Vec<_> = plan
        .decisions(0)
        .into_iter()
        .filter(|d| d.kind == ChoiceKind::WildcardRecv)
        .collect();
    assert!(
        wildcard_decisions.iter().any(|d| d.arity >= 2),
        "the wildcard receive never became a real choice point: {wildcard_decisions:?}"
    );
    assert!(wildcard_decisions.iter().all(|d| d.chosen == 0));
}

#[test]
fn exploration_finds_the_planted_race_within_budget() {
    let case = wildcard_schedule_race();
    let report = explore(3, 8, |plan| {
        let out = run_case_scheduled(&case, Arc::clone(plan));
        (outcome_digest(&out), out)
    });
    assert!(
        report.stats.schedules_run <= 8,
        "budget exceeded: {:?}",
        report.stats
    );
    // Index 0 is always the default schedule — clean.
    assert_eq!(report.runs[0].value.total_races(), 0);
    let racy: Vec<_> = report
        .runs
        .iter()
        .filter(|r| r.value.total_races() > 0)
        .collect();
    assert!(
        !racy.is_empty(),
        "exploration missed the planted race: {:?}",
        report.stats
    );
    // The racy schedule is exactly one flipped wildcard decision on
    // rank 0's lane.
    assert!(racy.iter().any(|r| r.plan[0] == vec![1]));
    assert!(report.stats.frontier_exhausted);
}

#[test]
fn explored_schedules_replay_bit_for_bit() {
    let case = wildcard_schedule_race();
    let report = explore(3, 8, |plan| {
        let out = run_case_scheduled(&case, Arc::clone(plan));
        (outcome_digest(&out), out)
    });
    assert!(report.runs.len() >= 2);
    for run in &report.runs {
        // Deterministic re-execution: the same choice vectors reproduce
        // every rank's recorded trace byte-for-byte.
        let again = run_case_scheduled(&case, SchedulePlan::with_choices(run.plan.clone()));
        for (a, b) in run.value.ranks.iter().zip(again.ranks.iter()) {
            assert_eq!(
                a.trace, b.trace,
                "rank {} trace diverged across identical plans {:?}",
                a.rank, run.plan
            );
        }
        // Offline replay of the recorded trace reproduces the live run.
        for rank in &run.value.ranks {
            let bytes = rank.trace.as_ref().expect("scheduled runs are traced");
            let replayed = cusan::replay_stream(&bytes[..]).expect("trace replays");
            assert_eq!(replayed.reports.len(), rank.races.len());
            for (a, b) in replayed.reports.iter().zip(rank.races.iter()) {
                assert_eq!(a.to_string(), b.to_string());
            }
            assert_eq!(replayed.counters, rank.events, "rank {}", rank.rank);
        }
    }
}

#[test]
fn testsuite_race_sets_are_identical_under_default_plan() {
    for case in cases() {
        let plain = run_case(&case);
        let planned = run_case_scheduled(&case, SchedulePlan::defaults(2));
        assert_eq!(
            plain.must_reports,
            planned.all_must_reports().len(),
            "{}: MUST findings changed under the all-defaults plan",
            case.name
        );
        if TIMING_DEPENDENT.contains(&case.name) {
            // Which request settles first is the threads' choice, not
            // the plan's: only the verdict repeats.
            assert_eq!(
                plain.races > 0,
                planned.total_races() > 0,
                "{}: verdict changed under the all-defaults plan",
                case.name
            );
            continue;
        }
        let mut plain_races: Vec<String> = plain
            .details
            .iter()
            .filter(|d| !d.contains("MUST:"))
            .cloned()
            .collect();
        plain_races.sort();
        assert_eq!(
            plain_races,
            race_set(&planned),
            "{}: race set changed under the all-defaults plan",
            case.name
        );
    }
}

/// Launch the shared `fill` kernel on `s`.
fn fill_on(ctx: &mut RankCtx, k: &AppKernels, p: sim_mem::Ptr, s: cuda_sim::StreamId, n: u64) {
    ctx.cuda
        .launch(
            k.fill,
            LaunchGrid::linear(n),
            s,
            vec![
                LaunchArg::Ptr(p),
                LaunchArg::F64(1.0),
                LaunchArg::I64(n as i64),
            ],
        )
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite 4: under `DefaultStreamMode::Legacy` (the default), a
    /// default-stream launch forms an implicit barrier against prior
    /// work on blocking user streams. Whatever completion order the
    /// explorer picks for the independent user-stream fills — including
    /// a barrier-exempt NonBlocking stream mixed in — the barrier's
    /// happens-before holds and the detector reports no race.
    #[test]
    fn legacy_barriers_hold_under_explored_orders(nstreams in 2usize..5) {
        const M: u64 = 64;
        let k = AppKernels::shared();
        let report = explore(2, 10, |plan| {
            let out = run_checked_world_scheduled(
                1,
                cusan::ToolConfig {
                    record: Some(cusan::TraceFormat::Text),
                    ..cusan::Flavor::MustCusan.config()
                },
                Arc::clone(&k.registry),
                plan.clone(),
                move |ctx| {
                    let mut bufs = Vec::new();
                    for _ in 0..nstreams {
                        let s = ctx.cuda.stream_create(cuda_sim::StreamFlags::Default);
                        let b = ctx.cuda.malloc::<f64>(M).unwrap();
                        fill_on(ctx, k, b, s, M);
                        bufs.push(b);
                    }
                    // A NonBlocking stream filling its own private buffer:
                    // exempt from the barrier, but also never read below —
                    // race-free in every order.
                    let nb = ctx.cuda.stream_create(cuda_sim::StreamFlags::NonBlocking);
                    let private = ctx.cuda.malloc::<f64>(M).unwrap();
                    fill_on(ctx, k, private, nb, M);
                    // Default-stream launches reading every barrier-covered
                    // buffer: the implicit barrier orders them after ALL
                    // blocking-stream fills, no explicit sync needed.
                    let out = ctx.cuda.malloc::<f64>(M).unwrap();
                    for b in &bufs {
                        ctx.cuda
                            .launch(
                                k.copy,
                                LaunchGrid::linear(M),
                                cuda_sim::StreamId::DEFAULT,
                                vec![
                                    LaunchArg::Ptr(out),
                                    LaunchArg::Ptr(*b),
                                    LaunchArg::I64(M as i64),
                                ],
                            )
                            .unwrap();
                    }
                    ctx.cuda.device_synchronize().unwrap();
                    let v = ctx
                        .tools
                        .host_read_slice::<f64>(&ctx.space(), out, M, "host read")
                        .unwrap();
                    assert_eq!(v[0], 1.0);
                },
            );
            (outcome_digest(&out), out.total_races())
        });
        for run in &report.runs {
            prop_assert_eq!(
                run.value, 0,
                "legacy barrier violated under plan {:?}", run.plan
            );
        }
        // The drain genuinely offered alternatives to explore.
        prop_assert!(report.stats.schedules_run > 1, "{:?}", report.stats);
    }
}
