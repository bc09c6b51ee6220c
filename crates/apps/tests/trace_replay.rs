//! Record → serialize → parse → replay round-trips.
//!
//! The event pipeline's contract: a recorded trace, replayed through a
//! fresh detector via the same checker sink the live run used, reproduces
//! the live run's race reports, detector counters, and event counters
//! exactly. These tests assert that contract over the full testsuite and
//! both evaluation mini-apps, plus byte-level determinism of the recorder.

use cusan::{
    replay_stream, transcode, CusanEvent, Flavor, ToolConfig, TraceFormat, TraceReader, TraceRecord,
};
use cusan_apps::testsuite::cases;
use cusan_apps::{
    kernels::AppKernels, run_jacobi_traced, run_tealeaf_traced, JacobiConfig, RaceMode,
    TeaLeafConfig,
};
use must_rt::{run_checked_world, RankOutcome};
use std::sync::Arc;

/// Replay one rank's trace and assert it matches the live outcome — as
/// recorded, and again through the transcoded twin in the other format
/// (text ⇄ binary), which must replay identically and round-trip back to
/// the recorded bytes exactly. Returns the trace's size in bytes as
/// `[text, binary]`.
fn assert_faithful(what: &str, rank: &RankOutcome) -> [usize; 2] {
    let bytes = rank
        .trace
        .as_deref()
        .expect("traced run must carry a trace");
    let outcome = replay_stream(bytes)
        .unwrap_or_else(|e| panic!("{what} rank {}: trace replay failed: {e}", rank.rank));
    assert_eq!(
        outcome.reports, rank.races,
        "{what} rank {}: replayed race reports diverge from live run",
        rank.rank
    );
    assert_eq!(
        outcome.stats, rank.tsan,
        "{what} rank {}: replayed detector stats diverge from live run",
        rank.rank
    );
    assert_eq!(
        outcome.counters, rank.events,
        "{what} rank {}: replayed event counters diverge from live run",
        rank.rank
    );
    // Format-twin fidelity: whichever encoding the run recorded, its
    // transcoded twin carries the identical record stream.
    let recorded = if bytes.starts_with(cusan::binio::BIN_FAMILY) {
        TraceFormat::Binary
    } else {
        TraceFormat::Text
    };
    let twin_format = match recorded {
        TraceFormat::Text => TraceFormat::Binary,
        TraceFormat::Binary => TraceFormat::Text,
    };
    let twin = transcode(bytes, twin_format)
        .unwrap_or_else(|e| panic!("{what} rank {}: transcode failed: {e}", rank.rank));
    let twin_out = replay_stream(&twin[..]).expect("twin replays");
    assert_eq!(
        twin_out.reports,
        outcome.reports,
        "{what} rank {}: {} twin reports diverge",
        rank.rank,
        twin_format.name()
    );
    assert_eq!(twin_out.stats, outcome.stats);
    assert_eq!(twin_out.counters, outcome.counters);
    assert_eq!(
        transcode(&twin[..], recorded).expect("transcode back"),
        bytes,
        "{what} rank {}: transcode round trip is not byte-identical",
        rank.rank
    );
    match recorded {
        TraceFormat::Text => [bytes.len(), twin.len()],
        TraceFormat::Binary => [twin.len(), bytes.len()],
    }
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
    let k = AppKernels::shared();
    for case in cases() {
        let run = case.run;
        let out = run_checked_world(
            2,
            ToolConfig {
                record: Some(TraceFormat::Text),
                ..Flavor::MustCusan.config()
            },
            Arc::clone(&k.registry),
            move |ctx| run(ctx, k),
        );
        for rank in &out.ranks {
            assert_faithful(case.name, rank);
        }
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
    let run = run_jacobi_traced(&cfg, Flavor::MustCusan);
    let mut sizes = Vec::new();
    for rank in &run.outcome.ranks {
        sizes.push(assert_faithful("jacobi", rank));
        // The CounterBump mirror of the device's Table-I CUDA rows must
        // agree with the device's own counters.
        assert_eq!(rank.events.named("cuda.streams"), rank.cuda.streams);
        assert_eq!(
            rank.events.named("cuda.memset_calls"),
            rank.cuda.memset_calls
        );
        assert_eq!(
            rank.events.named("cuda.memcpy_calls"),
            rank.cuda.memcpy_calls
        );
        assert_eq!(rank.events.named("cuda.sync_calls"), rank.cuda.sync_calls);
        assert_eq!(
            rank.events.named("cuda.kernel_calls"),
            rank.cuda.kernel_calls
        );
    }
    assert_binary_compact("jacobi", &sizes);
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
    let run = run_tealeaf_traced(&cfg, Flavor::MustCusan);
    let mut sizes = Vec::new();
    for rank in &run.outcome.ranks {
        sizes.push(assert_faithful("tealeaf", rank));
        assert_eq!(
            rank.events.named("cuda.kernel_calls"),
            rank.cuda.kernel_calls
        );
        assert_eq!(rank.events.named("cuda.sync_calls"), rank.cuda.sync_calls);
    }
    assert_binary_compact("tealeaf", &sizes);
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
            assert_faithful(&format!("tealeaf {race:?} binary"), b);
        }
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
