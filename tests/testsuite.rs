//! E5: the correctness testsuite (paper §VI-C).
//!
//! Every case must be classified correctly by the MUST & CuSan stack —
//! "for now, all tests are correctly classified by CuSan" is the property
//! the paper reports for its suite; this test enforces the same property
//! for the reproduction.

use cusan::Flavor;
use cusan_apps::testsuite::{cases, check_case, try_run_case, Expected};

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
    let mut checked = 0;
    for case in cases() {
        if case.expected != Expected::Clean {
            continue;
        }
        for flavor in [Flavor::Tsan, Flavor::Must, Flavor::Cusan] {
            let out = try_run_case(&case, flavor, None);
            assert!(
                out.results.iter().all(Result::is_ok),
                "{} failed under {flavor}: {:?}",
                case.name,
                out.results
            );
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
    for case in cases() {
        if case.expected != Expected::Race {
            continue;
        }
        let out = try_run_case(&case, Flavor::Vanilla, None);
        assert!(
            out.results.iter().all(Result::is_ok),
            "{} failed under Vanilla: {:?}",
            case.name,
            out.results
        );
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
    let mut cfg = Flavor::MustCusan.config();
    cfg.bounded_tracking = true;
    let failures: Vec<_> = cases()
        .into_iter()
        .filter(|case| {
            let out = try_run_case(case, cfg, None);
            !(out.results.iter().all(Result::is_ok) && case.expected.holds(&out))
        })
        .map(|case| case.name)
        .collect();
    assert!(
        failures.is_empty(),
        "bounded tracking changed classifications: {failures:?}"
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
    let racy: Vec<_> = cases()
        .into_iter()
        .filter(|c| c.expected == Expected::Race)
        .collect();
    let total = racy.len();
    let detect = |flavor: Flavor| -> usize {
        racy.iter()
            .filter(|c| {
                let out = try_run_case(c, flavor, None);
                assert!(out.results.iter().all(Result::is_ok), "{}", c.name);
                out.has_races()
            })
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
