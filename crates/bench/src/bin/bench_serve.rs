//! Serve-path throughput: many sessions over one checker pool vs solo
//! sequential replay, with a JSON trajectory record.
//!
//! Streams `CUSAN_BENCH_SERVE_SESSIONS` copies of the trace corpus (the
//! golden TeaLeaf fixture plus freshly recorded chaos-twin traces of
//! both mini-apps) through an in-process [`cusan_serve::ServeEngine`] —
//! no socket, so the number is pure ingest + check throughput — and
//! compares against replaying the same session list sequentially with
//! the solo synchronous path. Every served summary is asserted equal to
//! its solo counterpart (the determinism contract is part of the bench,
//! not just the tests), and a second capped pass demonstrates the global
//! shadow budget evicting idle sessions.
//!
//! Writes `BENCH_serve.json` to the current directory (override with
//! `CUSAN_BENCH_SERVE_JSON`) — uploaded by the `serve-smoke` CI job so
//! future PRs have a serve-throughput baseline to diff against.

use cusan::{transcode, Trace, TraceFormat};
use cusan_bench::{banner, bench_runs, env_u64, measure, rel};
use cusan_serve::{solo_summary, EngineConfig, ServeEngine, SessionIngest};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GOLDEN_FIXTURE: &str = include_str!("../../../../tests/data/tealeaf_small.trace");

/// The encoding this bench run measures (the `CUSAN_TRACE_FORMAT` knob,
/// text by default) — chaos-twin recordings already honor it, and the
/// text golden fixture is transcoded to match so the whole corpus is
/// uniform.
fn active_format() -> TraceFormat {
    cusan::ctx::EnvOverrides::get()
        .trace_format
        .unwrap_or(TraceFormat::Text)
}

fn corpus() -> Vec<Vec<u8>> {
    let fixture = match active_format() {
        TraceFormat::Text => GOLDEN_FIXTURE.as_bytes().to_vec(),
        TraceFormat::Binary => transcode(GOLDEN_FIXTURE.as_bytes(), TraceFormat::Binary)
            .expect("golden fixture transcodes"),
    };
    let mut traces = vec![fixture];
    let cfg = cusan_apps::ChaosConfig::default();
    for out in [
        cusan_apps::run_chaos_jacobi(&cfg, cusan::Flavor::MustCusan),
        cusan_apps::run_chaos_tealeaf(&cfg, cusan::Flavor::MustCusan),
    ] {
        for rank in out.ranks {
            traces.push(rank.trace.expect("chaos runs are always traced"));
        }
    }
    traces
}

/// One concurrent pass: returns wall time and the engine (for stats).
fn serve_pass(
    corpus: &[Vec<u8>],
    sessions: usize,
    config: EngineConfig,
) -> (Duration, Arc<ServeEngine>) {
    let engine = ServeEngine::new(config);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..sessions {
            let engine = Arc::clone(&engine);
            let trace = &corpus[i % corpus.len()];
            scope.spawn(move || {
                let mut ingest = SessionIngest::new(engine);
                for c in trace.chunks(4096) {
                    ingest.feed(c).expect("feed");
                }
                ingest.finish().expect("finish")
            });
        }
    });
    (started.elapsed(), engine)
}

fn main() {
    let runs = bench_runs();
    let sessions = env_u64("CUSAN_BENCH_SERVE_SESSIONS", 64) as usize;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let corpus = corpus();
    let solo: Vec<_> = corpus
        .iter()
        .map(|t| solo_summary(t).expect("corpus traces parse"))
        .collect();
    banner(
        "cusan-serve — multi-session checking throughput",
        &format!(
            "{sessions} sessions over {} distinct traces | mean of {runs} runs (+1 warmup) | \
             {parallelism} hw threads",
            corpus.len()
        ),
    );

    // Baseline: the same session list checked one after another, solo.
    let solo_time = measure(runs, || {
        let started = Instant::now();
        for i in 0..sessions {
            let s = solo_summary(&corpus[i % corpus.len()]).expect("replay");
            assert_eq!(s, solo[i % corpus.len()]);
        }
        started.elapsed()
    });

    // Concurrent: all sessions at once over one pool. Summaries are
    // re-verified once outside the timed region.
    let served_time = measure(runs, || {
        serve_pass(&corpus, sessions, EngineConfig::default()).0
    });
    {
        let engine = ServeEngine::new(EngineConfig::default());
        for (i, sum) in (0..sessions)
            .map(|i| {
                let mut ingest = SessionIngest::new(Arc::clone(&engine));
                ingest.feed(&corpus[i % corpus.len()]).unwrap();
                (i, ingest.finish().unwrap())
            })
            .collect::<Vec<_>>()
        {
            assert_eq!(sum, solo[i % corpus.len()], "session {i} diverged");
        }
    }

    // Budget pass: cap retention at a quarter of the unlimited residency.
    let (_, unlimited) = serve_pass(&corpus, sessions, EngineConfig::default());
    let full_pages = unlimited.stats().resident_pages;
    let budget = (full_pages / 4).max(1) as usize;
    let (_, capped) = serve_pass(
        &corpus,
        sessions,
        EngineConfig {
            check_threads: None,
            global_page_budget: Some(budget),
            ..EngineConfig::default()
        },
    );
    let st = capped.stats();
    assert!(
        st.sessions_evicted > 0,
        "budget {budget} of {full_pages} pages must evict"
    );
    assert!(st.resident_pages <= budget as u64);

    // Spill pass: every session detaches mid-trace, gets spilled to disk
    // under a zero live budget, then resumes, restores, and finishes —
    // the crash-safe path's cost, with its summaries still asserted
    // equal to solo replay.
    let spill_dir = cusan_serve::unique_scratch_dir("bench-spill");
    let spill_engine = ServeEngine::new(EngineConfig {
        spill_dir: Some(spill_dir.clone()),
        live_page_budget: Some(0),
        ..EngineConfig::default()
    });
    let spill_started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..sessions {
            let engine = Arc::clone(&spill_engine);
            let trace = &corpus[i % corpus.len()];
            let expected = &solo[i % corpus.len()];
            scope.spawn(move || {
                let id = i as u64;
                let bytes: &[u8] = trace;
                let half = bytes.len() / 2;
                engine.open_new(id).expect("open");
                engine.feed(id, 0, &bytes[..half]).expect("feed head");
                engine.detach(id); // zero live budget: spills idle sessions
                engine.resume(id).expect("resume");
                engine
                    .feed(id, half as u64, &bytes[half..])
                    .expect("feed tail");
                let served = engine.close(id).expect("close");
                assert_eq!(&served, expected, "session {i} diverged across spill");
            });
        }
    });
    let spill_time = spill_started.elapsed();
    let sp = spill_engine.stats();
    let _ = std::fs::remove_dir_all(&spill_dir);
    assert!(
        sp.sessions_restored > 0,
        "spill pass restored nothing (spilled {})",
        sp.sessions_spilled
    );

    // Per-format footprint of the corpus: trace bytes per event, for the
    // BENCH_trace.json cross-check (events counted by parsing — cheap
    // next to the replay passes above).
    let format = active_format();
    let corpus_bytes: usize = corpus.iter().map(Vec::len).sum();
    let corpus_events: usize = corpus
        .iter()
        .map(|t| {
            Trace::from_bytes(t)
                .expect("corpus traces parse")
                .events
                .len()
        })
        .sum();
    let bytes_per_event = corpus_bytes as f64 / corpus_events.max(1) as f64;

    let speedup = rel(solo_time, served_time);
    println!(
        "{:<28} {:>12} {:>12} {:>8}",
        "Pass", "Wall", "Sessions/s", "Speedup"
    );
    println!("{:-<64}", "");
    println!(
        "{:<28} {:>12.2?} {:>12.0} {:>8}",
        "solo sequential",
        solo_time,
        sessions as f64 / solo_time.as_secs_f64().max(1e-9),
        ""
    );
    println!(
        "{:<28} {:>12.2?} {:>12.0} {:>7.2}x",
        "served concurrent",
        served_time,
        sessions as f64 / served_time.as_secs_f64().max(1e-9),
        speedup
    );
    println!(
        "budget pass: {budget} of {full_pages} pages -> evicted {} sessions / {} pages, \
         resident {} (peak {})",
        st.sessions_evicted, st.shadow_pages_evicted, st.resident_pages, st.peak_resident_pages
    );
    println!(
        "labels: {} unique / {} shared across sessions",
        st.labels_unique, st.labels_shared
    );
    println!(
        "corpus: {} format, {corpus_bytes} bytes / {corpus_events} events = {bytes_per_event:.1} B/event",
        format.name()
    );
    println!(
        "spill pass: {:?} for {sessions} mid-trace spill/restore round trips \
         (resumed {}, spilled {}, restored {}, dup bytes dropped {})",
        spill_time,
        sp.sessions_resumed,
        sp.sessions_spilled,
        sp.sessions_restored,
        sp.duplicate_bytes_dropped
    );

    // Hand-rolled JSON: the workspace is offline, so no serde.
    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"sessions\": {sessions},\n  \
         \"distinct_traces\": {},\n  \"format\": \"{}\",\n  \"trace_bytes\": {corpus_bytes},\n  \
         \"trace_events\": {corpus_events},\n  \"bytes_per_event\": {bytes_per_event:.2},\n  \
         \"hw_threads\": {parallelism},\n  \"runs\": {runs},\n  \
         \"solo_ns\": {},\n  \"served_ns\": {},\n  \"speedup\": {speedup:.3},\n  \
         \"sessions_per_sec\": {:.1},\n  \"budget_pages\": {budget},\n  \
         \"unlimited_pages\": {full_pages},\n  \"sessions_evicted\": {},\n  \
         \"shadow_pages_evicted\": {},\n  \"peak_resident_pages\": {},\n  \
         \"labels_unique\": {},\n  \"labels_shared\": {},\n  \"spill_pass_ns\": {},\n  \
         \"sessions_resumed\": {},\n  \"sessions_spilled\": {},\n  \
         \"sessions_restored\": {},\n  \"duplicate_bytes_dropped\": {}\n}}\n",
        corpus.len(),
        format.name(),
        solo_time.as_nanos(),
        served_time.as_nanos(),
        sessions as f64 / served_time.as_secs_f64().max(1e-9),
        st.sessions_evicted,
        st.shadow_pages_evicted,
        st.peak_resident_pages,
        st.labels_unique,
        st.labels_shared,
        spill_time.as_nanos(),
        sp.sessions_resumed,
        sp.sessions_spilled,
        sp.sessions_restored,
        sp.duplicate_bytes_dropped,
    );
    let path =
        std::env::var("CUSAN_BENCH_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    // The concurrent path must not collapse: like the async-check bench,
    // assert a lenient floor only when there is parallelism to exploit.
    if parallelism >= 2 {
        assert!(
            speedup >= 0.5,
            "served concurrent {speedup:.2}x of solo with spare parallelism available"
        );
    } else {
        println!("single hw thread: recording costs only, no speedup target");
    }
}
