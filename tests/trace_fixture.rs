//! Parse-stability gate for the trace formats.
//!
//! `tests/data/tealeaf_small.trace` is a checked-in recording of TeaLeaf
//! (16×16, 1 step, 2 ranks, MUST & CuSan stack, rank 0);
//! `tests/data/tealeaf_small.trace.bin` is its binary (v3) twin, produced
//! by `replay_trace transcode`. A format change that cannot read existing
//! recordings must fail here — bump the trace magic and regenerate the
//! fixtures (`replay_trace record` / `replay_trace transcode`) to change
//! a format deliberately.
//!
//! It is also the detector's recorded ground truth. The fixture above is
//! race-free, so `tests/data/tealeaf_small_racy.trace` is the same run
//! with `RaceMode::SkipSyncBeforeExchange` (rank 0: two reports, ≈ 2 500
//! folded duplicates), and `tests/data/*.summary.json` hold what the
//! detector said about both *before* the run-valued shadow walk existed
//! (recorded at 243341d). A change to the shadow, the clocks or the
//! report fold must reproduce them byte for byte — reports in order with
//! their `addr`, `races_reported`, `races_deduped`, every `TsanStats`
//! field. To regenerate after a deliberate change of detector output:
//!
//! ```text
//! replay_trace record <dir>      # <dir>/tealeaf_rank0.trace, tealeaf_racy_rank0.trace
//! cp <dir>/tealeaf_racy_rank0.trace tests/data/tealeaf_small_racy.trace
//! cusan-serve check tests/data/tealeaf_small.trace      > tests/data/tealeaf_small.summary.json
//! cusan-serve check tests/data/tealeaf_small_racy.trace > tests/data/tealeaf_small_racy.summary.json
//! ```

use cusan::{
    replay_stream, transcode, CusanEvent, TraceFormat, TraceHeader, TraceReader, TraceRecord,
};
use cusan_serve::summary_to_json;
use std::sync::Arc;

const FIXTURE: &str = include_str!("data/tealeaf_small.trace");
const FIXTURE_BIN: &[u8] = include_bytes!("data/tealeaf_small.trace.bin");
const FIXTURE_RACY: &str = include_str!("data/tealeaf_small_racy.trace");
const SUMMARY: &str = include_str!("data/tealeaf_small.summary.json");
const SUMMARY_RACY: &str = include_str!("data/tealeaf_small_racy.summary.json");

#[test]
fn golden_summaries_are_reproduced_byte_for_byte() {
    // The race counts keep a regenerated golden honest: the racy one is
    // worth having because it holds reports (their order and first-word
    // `addr`) and a dedup count in the thousands.
    for (name, trace, golden, races) in [
        ("tealeaf_small", FIXTURE, SUMMARY, 0),
        ("tealeaf_small_racy", FIXTURE_RACY, SUMMARY_RACY, 2),
    ] {
        let summary = replay_stream(trace.as_bytes()).expect("fixture replays");
        assert_eq!(summary.race_count, races, "{name}");
        assert_eq!(summary.stats.races_deduped > 1000, races > 0, "{name}");
        assert_eq!(
            format!("{}\n", summary_to_json(0, &summary)),
            golden,
            "{name}: the detector's output moved (recipe in this file's header)"
        );
    }
}

/// A whole trace off the streaming reader: header, string table in id
/// order, events.
fn read(bytes: &[u8]) -> (TraceHeader, Vec<Arc<str>>, Vec<CusanEvent>) {
    let mut reader = TraceReader::new(bytes).expect("checked-in fixture must stay parseable");
    let header = *reader.header();
    let (mut labels, mut events) = (Vec::new(), Vec::new());
    for rec in &mut reader {
        match rec.expect("checked-in fixture must stay parseable") {
            TraceRecord::Str { label, .. } => labels.push(label),
            TraceRecord::Event(ev) => events.push(ev),
        }
    }
    (header, labels, events)
}

#[test]
fn golden_tealeaf_trace_parses() {
    let (header, labels, events) = read(FIXTURE.as_bytes());
    assert_eq!(header.rank, 0);
    assert!(header.tiered);
    assert_eq!(events.len(), 2386);
    // Every referenced label resolved during parsing; spot-check the
    // interned vocabulary.
    let labels: Vec<&str> = labels.iter().map(|l| &**l).collect();
    assert!(labels.contains(&"cuda stream 0 (default)"));
    assert!(labels.contains(&"cuda.kernel_calls"));
    assert!(labels.iter().any(|l| l.starts_with("mpi req#")));
}

#[test]
fn golden_tealeaf_trace_replays_clean() {
    let outcome = replay_stream(FIXTURE.as_bytes()).unwrap();
    // The recording is of a correct program: replay must agree.
    assert_eq!(outcome.reports, vec![]);
    assert_eq!(outcome.stats.fiber_switches, 586);
    assert!(outcome.stats.read_range_calls > 0);
    assert!(outcome.stats.write_range_calls > 0);
    // The Table-I CUDA rows recorded for this config.
    assert_eq!(outcome.counters.named("cuda.streams"), 1);
    assert!(outcome.counters.named("cuda.kernel_calls") > 0);
    assert_eq!(
        outcome.counters.requests_begun,
        outcome.counters.requests_completed
    );
    assert!(outcome.counters.requests_begun > 0);
}

#[test]
fn golden_binary_twin_stays_in_lockstep_with_text() {
    // The checked-in binary fixture is exactly what transcoding the text
    // fixture produces today — a codec change that alters the encoding
    // must regenerate it (and justify the new bytes in review).
    let encoded = transcode(FIXTURE.as_bytes(), TraceFormat::Binary)
        .expect("text fixture transcodes to binary");
    assert_eq!(
        encoded, FIXTURE_BIN,
        "binary fixture is stale: regenerate with `replay_trace transcode`"
    );
    // And back: binary → text reproduces the original recording exactly.
    let back = transcode(FIXTURE_BIN, TraceFormat::Text).expect("binary fixture transcodes back");
    assert_eq!(back, FIXTURE.as_bytes());
}

#[test]
fn golden_binary_twin_parses_and_replays_identically() {
    // Header, string table and events all agree.
    assert_eq!(read(FIXTURE_BIN), read(FIXTURE.as_bytes()));
    let t = replay_stream(FIXTURE.as_bytes()).unwrap();
    let b = replay_stream(FIXTURE_BIN).unwrap();
    assert_eq!(b.reports, t.reports);
    assert_eq!(b.stats, t.stats);
    assert_eq!(b.counters, t.counters);
}

#[test]
fn binary_twin_meets_the_compression_target() {
    // The headline perf claim, gated on the checked-in recording: the v3
    // encoding spends ≤ 1/2.5 the bytes per event of the text format.
    let events = read(FIXTURE.as_bytes()).2.len() as f64;
    let text_bpe = FIXTURE.len() as f64 / events;
    let bin_bpe = FIXTURE_BIN.len() as f64 / events;
    assert!(
        text_bpe / bin_bpe >= 2.5,
        "binary encoding only {:.2}x smaller per event (text {text_bpe:.2} B, binary {bin_bpe:.2} B)",
        text_bpe / bin_bpe
    );
}

#[test]
fn fixture_event_mix_matches_tealeaf_shape() {
    // TeaLeaf is the non-blocking app: one CUDA stream, many MPI request
    // fibers (paper Table I: fibers ≫ streams).
    let (_, _, events) = read(FIXTURE.as_bytes());
    let creates = events
        .iter()
        .filter(|e| matches!(e, CusanEvent::FiberCreate { .. }))
        .count();
    let destroys = events
        .iter()
        .filter(|e| matches!(e, CusanEvent::FiberDestroy { .. }))
        .count();
    assert!(creates > 10, "one fiber per non-blocking request");
    // Every MPI request fiber is retired; only the stream fiber survives.
    assert_eq!(creates, destroys + 1);
}

/// Every deterministic testsuite program recorded under the default
/// schedule, each rank's trace solo-replayed and its summary JSON
/// digested: pinned before the session stopped keeping its own copy of
/// the detector's counts, so the `"counters"` block, every report and
/// every `TsanStats` field of all 114 rank summaries cannot move a byte.
#[test]
fn testsuite_summaries_are_pinned() {
    use cusan_apps::testsuite::{cases, run_case_scheduled, TIMING_DEPENDENT};
    use cusan_serve::solo_summary;
    let mut h = explore::Fnv::new();
    let mut traces = 0;
    for case in cases() {
        if TIMING_DEPENDENT.contains(&case.name) {
            continue;
        }
        let out = run_case_scheduled(&case, explore::SchedulePlan::defaults(2));
        for rank in &out.ranks {
            let trace = rank.trace.as_deref().expect("recorded");
            let summary = solo_summary(trace).expect("recording replays");
            h.write_str(&summary_to_json(0, &summary));
            traces += 1;
        }
    }
    assert_eq!(traces, 114);
    assert_eq!(h.finish(), 8166468559812045289);
}
