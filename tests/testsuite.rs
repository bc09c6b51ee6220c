//! E5: the correctness testsuite (paper §VI-C).
//!
//! Every case must be classified correctly by the MUST & CuSan stack —
//! "for now, all tests are correctly classified by CuSan" is the property
//! the paper reports for its suite; this test enforces the same property
//! for the reproduction.

use cusan_apps::testsuite::{cases, check_case, Expected};

#[test]
fn every_case_is_classified_correctly() {
    let all = cases();
    let mut failures = Vec::new();
    for case in &all {
        if let Err(e) = check_case(case) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} cases misclassified:\n{}",
        failures.len(),
        all.len(),
        failures.join("\n---\n")
    );
}

#[test]
fn suite_shape_matches_paper() {
    let all = cases();
    // The artifact lists 49 tests; ours is the same order of magnitude
    // with both ok and nok variants per category.
    assert!(all.len() >= 45, "only {} cases", all.len());
    let ok = all.iter().filter(|c| c.expected == Expected::Clean).count();
    let nok = all.len() - ok;
    assert!(ok >= 15, "too few correct programs: {ok}");
    assert!(nok >= 15, "too few incorrect programs: {nok}");
}

/// Soundness sweep: correct programs must stay clean under EVERY flavor —
/// partial instrumentation (TSan-only, MUST-only, CuSan-only) may miss
/// races but must never invent one.
#[test]
fn clean_cases_are_clean_under_all_flavors() {
    use cusan::Flavor;
    use cusan_apps::AppKernels;
    use must_rt::run_checked_world;
    use std::sync::Arc;

    let k = AppKernels::shared();
    let mut checked = 0;
    for case in cases() {
        if case.expected != Expected::Clean {
            continue;
        }
        for flavor in [Flavor::Tsan, Flavor::Must, Flavor::Cusan] {
            let run = case.run;
            let out = run_checked_world(2, flavor, Arc::clone(&k.registry), move |ctx| {
                run(ctx, k);
            });
            assert_eq!(
                out.total_races(),
                0,
                "{} raced under {flavor}: {:#?}",
                case.name,
                out.all_races()
            );
            checked += 1;
        }
    }
    assert!(checked >= 45, "swept {checked} case-flavor combinations");
}

/// The racy programs misbehave *for real*: under Vanilla (no tools at
/// all), every `_nok` data-race case still executes — the simulator never
/// requires the checker for forward progress.
#[test]
fn racy_cases_execute_under_vanilla() {
    use cusan::Flavor;
    use cusan_apps::AppKernels;
    use must_rt::run_checked_world;
    use std::sync::Arc;

    let k = AppKernels::shared();
    for case in cases() {
        if case.expected != Expected::Race {
            continue;
        }
        let run = case.run;
        let out = run_checked_world(2, Flavor::Vanilla, Arc::clone(&k.registry), move |ctx| {
            run(ctx, k);
        });
        assert_eq!(
            out.total_races(),
            0,
            "{}: vanilla reports nothing",
            case.name
        );
    }
}

/// §VI-D detection preservation: bounded access tracking must classify
/// every testsuite case exactly like whole-allocation tracking — the
/// optimization trims annotation volume, never detection power, on this
/// suite.
#[test]
fn bounded_tracking_preserves_every_classification() {
    use cusan::Flavor;
    use cusan_apps::testsuite::check_case_with;

    let mut cfg = Flavor::MustCusan.config();
    cfg.bounded_tracking = true;
    let mut failures = Vec::new();
    for case in cases() {
        if let Err(e) = check_case_with(&case, cfg) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "bounded tracking changed classifications:\n{}",
        failures.join("\n---\n")
    );
}

/// The paper's §I motivation, quantified: "Tools that only observe a
/// subset [of parallelism levels] will find some issues but not all."
/// Run every racy case under every flavor and check E5's counts exactly:
/// the full stack catches all 24; CuSan alone the 7 CUDA-side ones; MUST
/// alone the 3 MPI-request ones; TSan alone none (it sees neither CUDA nor
/// MPI semantics). The `TIMING_DEPENDENT` programs count the same on every
/// run, so no program is left out.
#[test]
fn partial_tools_find_some_issues_but_not_all() {
    use cusan::Flavor;
    use cusan_apps::testsuite::run_case_with;

    let racy: Vec<_> = cases()
        .into_iter()
        .filter(|c| c.expected == Expected::Race)
        .collect();
    let total = racy.len();
    let detect = |flavor: Flavor| -> usize {
        racy.iter()
            .filter(|c| run_case_with(c, flavor.config()).races > 0)
            .count()
    };

    let full = detect(Flavor::MustCusan);
    let cusan_only = detect(Flavor::Cusan);
    let must_only = detect(Flavor::Must);
    let tsan_only = detect(Flavor::Tsan);

    println!(
        "detection: MUST&CuSan {full}/{total}, CuSan {cusan_only}/{total}, \
         MUST {must_only}/{total}, TSan {tsan_only}/{total}"
    );
    // E5's published counts: only the combined stack sees races that span
    // CUDA and MPI semantics; TSan alone sees neither.
    assert_eq!(total, 24, "racy cases in the suite");
    assert_eq!(
        [full, cusan_only, must_only, tsan_only],
        [24, 7, 3, 0],
        "MUST & CuSan, CuSan, MUST, TSan"
    );
}
