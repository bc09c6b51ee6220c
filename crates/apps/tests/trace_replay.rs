//! Record → serialize → parse → replay round-trips.
//!
//! The event pipeline's contract: a recorded trace, replayed through a
//! fresh detector via the same checker sink the live run used, reproduces
//! the live run's race reports, detector counters, and event counters
//! exactly. These tests assert that contract, through the one replay
//! oracle (`RankOutcome::replay_mismatches`), over the full testsuite and
//! both evaluation mini-apps, plus byte-level determinism of the recorder.

use cusan::{transcode, CusanEvent, Flavor, ToolConfig, TraceFormat, TraceReader, TraceRecord};
use cusan_apps::testsuite::{cases, try_run_case};
use cusan_apps::{
    kernels::AppKernels, run_jacobi_traced, run_tealeaf_traced, JacobiConfig, RaceMode,
    TeaLeafConfig,
};
use must_rt::{run_checked_world, RankOutcome};
use std::sync::Arc;

/// Hold every rank's recording to the replay oracle: replay reproduces
/// the live run, and the transcoded twin replays identically and round
/// trips to the recorded bytes.
fn assert_replays(what: &str, ranks: &[RankOutcome]) {
    for rank in ranks {
        let errs = rank.replay_mismatches();
        assert!(errs.is_empty(), "{what}: {errs:#?}");
    }
}

/// A text recording's size in bytes as `[text, binary]`.
fn sizes(rank: &RankOutcome) -> [usize; 2] {
    let text = rank.trace.as_deref().expect("traced run");
    let binary = transcode(text, TraceFormat::Binary).expect("recording transcodes");
    [text.len(), binary.len()]
}

/// The binary encoding's size claim on an app's recording (all ranks):
/// at most 1 / 2.5 of the text encoding's bytes for the same events.
/// `tests/trace_fixture.rs` holds the checked-in fixture to the same.
fn assert_binary_compact(what: &str, sizes: &[[usize; 2]]) {
    let text: usize = sizes.iter().map(|s| s[0]).sum();
    let binary: usize = sizes.iter().map(|s| s[1]).sum();
    assert!(
        text as f64 >= 2.5 * binary as f64,
        "{what}: binary trace only {:.2}x smaller than text ({binary} vs {text} bytes)",
        text as f64 / binary as f64
    );
}

#[test]
fn testsuite_cases_roundtrip_through_trace_replay() {
    let tools = ToolConfig {
        record: Some(TraceFormat::Text),
        ..Flavor::MustCusan.config()
    };
    for case in cases() {
        let out = try_run_case(&case, tools, None);
        assert!(out.results.iter().all(Result::is_ok), "{}", case.name);
        assert_replays(case.name, &out.ranks);
    }
}

#[test]
fn jacobi_replay_reproduces_live_run() {
    let cfg = JacobiConfig {
        nx: 64,
        ny: 32,
        ranks: 2,
        // Enough iterations that events, not the string table (the same
        // bytes in both encodings), make up the trace.
        iters: 20,
        ..JacobiConfig::default()
    };
    let ranks = run_jacobi_traced(&cfg, Flavor::MustCusan).outcome.ranks;
    assert_replays("jacobi", &ranks);
    assert_binary_compact("jacobi", &ranks.iter().map(sizes).collect::<Vec<_>>());
}

#[test]
fn tealeaf_replay_reproduces_live_run() {
    let cfg = TeaLeafConfig {
        nx: 16,
        ny: 16,
        ranks: 2,
        steps: 1,
        ..TeaLeafConfig::default()
    };
    let ranks = run_tealeaf_traced(&cfg, Flavor::MustCusan).outcome.ranks;
    assert_replays("tealeaf", &ranks);
    assert_binary_compact("tealeaf", &ranks.iter().map(sizes).collect::<Vec<_>>());
}

#[test]
fn binary_live_recording_is_the_transcoded_text_recording() {
    // `ToolConfig::record` is the one way to record binary live: the
    // binary recording of a run is byte for byte its text recording
    // transcoded, and replays as faithfully — clean and racy alike.
    for race in [RaceMode::None, RaceMode::SkipSyncBeforeExchange] {
        let cfg = TeaLeafConfig {
            nx: 16,
            ny: 16,
            ranks: 2,
            steps: 1,
            race,
            ..TeaLeafConfig::default()
        };
        let text = run_tealeaf_traced(&cfg, Flavor::MustCusan);
        let binary = run_tealeaf_traced(
            &cfg,
            ToolConfig {
                record: Some(TraceFormat::Binary),
                ..Flavor::MustCusan.config()
            },
        );
        assert_eq!(
            binary.outcome.has_races(),
            race == RaceMode::SkipSyncBeforeExchange
        );
        for (t, b) in text.outcome.ranks.iter().zip(&binary.outcome.ranks) {
            let text_bytes = t.trace.as_deref().expect("traced run");
            let binary_bytes = b.trace.as_deref().expect("traced run");
            assert_eq!(
                binary_bytes,
                transcode(text_bytes, TraceFormat::Binary).unwrap(),
                "{race:?} rank {}: binary recording is not the transcoded text one",
                b.rank
            );
        }
        assert_replays(&format!("tealeaf {race:?} binary"), &binary.outcome.ranks);
    }
}

/// `ToolConfig::record` alone decides whether a checked world records:
/// `None` leaves every rank without a trace, and `Some` records from the
/// context's first event, so every rank's trace holds the default
/// stream's `FiberCreate` ahead of any event but the `cuda.streams`
/// counter bump `CusanCuda::new` emits with it.
#[test]
fn record_is_the_config_field_and_starts_with_the_context() {
    let k = AppKernels::shared();
    let body = move |ctx: &mut must_rt::RankCtx| {
        let p = ctx.cuda.malloc::<f64>(8).unwrap();
        ctx.cuda.memset(p, 0, 64).unwrap();
    };
    let off = run_checked_world(2, Flavor::MustCusan, Arc::clone(&k.registry), body);
    assert!(off.ranks.iter().all(|r| r.trace.is_none()));
    for format in [TraceFormat::Text, TraceFormat::Binary] {
        let tools = ToolConfig {
            record: Some(format),
            ..Flavor::MustCusan.config()
        };
        let out = run_checked_world(2, tools, Arc::clone(&k.registry), body);
        for rank in &out.ranks {
            let bytes = rank.trace.as_deref().expect("record: Some records");
            let mut labels = Vec::new();
            let mut events = Vec::new();
            for rec in TraceReader::new(bytes).expect("recorded trace parses") {
                match rec.expect("recorded trace parses") {
                    TraceRecord::Str { label, .. } => labels.push(label),
                    TraceRecord::Event(ev) => events.push(ev),
                }
            }
            let label = |id: cusan::StrId| &*labels[id.0 as usize];
            let at = |i: usize| {
                format!(
                    "{format:?} rank {}: event {i} is {:?}",
                    rank.rank, events[i]
                )
            };
            assert!(
                matches!(events[0], CusanEvent::CounterBump { counter, delta: 1 }
                    if label(counter) == "cuda.streams"),
                "{}",
                at(0)
            );
            assert!(
                matches!(events[1], CusanEvent::FiberCreate { fiber, name }
                    if fiber.index() == 1 && label(name) == "cuda stream 0 (default)"),
                "{}",
                at(1)
            );
        }
    }
}

#[test]
fn jacobi_traces_are_byte_identical_across_runs() {
    let cfg = JacobiConfig {
        nx: 32,
        ny: 16,
        ranks: 2,
        iters: 2,
        ..JacobiConfig::default()
    };
    let a = run_jacobi_traced(&cfg, Flavor::MustCusan);
    let b = run_jacobi_traced(&cfg, Flavor::MustCusan);
    for (ra, rb) in a.outcome.ranks.iter().zip(&b.outcome.ranks) {
        assert_eq!(ra.rank, rb.rank);
        assert_eq!(
            ra.trace, rb.trace,
            "rank {}: identical configs must record byte-identical traces",
            ra.rank
        );
    }
}
