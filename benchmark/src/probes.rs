//! Per-layer probes: the ladders the traced run climbs over a
//! workload's own traces, one public entry point per rung.
//!
//! Every probe is a function of a trace corpus, so each workload gets
//! the numbers for *its* event stream: where a checked event's time
//! goes when ranges are huge (Jacobi), when fibers and clocks dominate
//! (TeaLeaf), and when sessions are a handful of events (testsuite).
//! Timings are medians over [`REPS`] passes; counts come from
//! `SessionSummary.stats` and `ServeEngine::stats()` and repeat exactly.

use crate::adapter::{
    self, Answer, Decoded, Engine, EngineCounts, EngineSetup, EventClass, Server, Session,
    SessionSummary, TraceRecord,
};
use crate::corpus::Corpus;
use crate::scratch::ScratchDir;
use crate::stats::median;
use crate::workloads::serve::{feed_head_and_detach, resume_and_finish};
use crate::workloads::suite::EXPLORE_BUDGET;
use crate::workloads::{Layers, Tally};
use std::time::Instant;

const REPS: usize = 5;
const CHUNK: usize = 4096;
const MIB: f64 = (1u64 << 20) as f64;

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median over [`REPS`] runs of `pass`, which returns nanoseconds.
fn median_ns(mut pass: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        samples.push(pass()?);
    }
    Ok(median(&samples))
}

/// Cost of one `Instant::now()` pair, subtracted from per-event timings.
fn timer_ns() -> f64 {
    let samples: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            ns(t)
        })
        .collect();
    median(&samples)
}

fn decode_all(corpus: &Corpus) -> Result<Vec<Decoded>, String> {
    corpus
        .traces
        .iter()
        .map(|t| adapter::decode(&t.bytes))
        .collect()
}

/// Labels first, then events: ids are dense and first-use ordered, so
/// this is the same session as an interleaved replay, with the two
/// costs separable without a timer per record.
fn intern_then_apply(d: &Decoded) -> (Session, f64, f64) {
    let mut session = Session::new(d);
    let t = Instant::now();
    for rec in d.records.iter().filter(|r| !is_event(r)) {
        session.feed(rec);
    }
    let intern_ns = ns(t);
    let t = Instant::now();
    for rec in d.records.iter().filter(|r| is_event(r)) {
        session.feed(rec);
    }
    (session, intern_ns, ns(t))
}

fn is_event(rec: &TraceRecord) -> bool {
    matches!(rec, TraceRecord::Event(_))
}

/// Offline `intern + apply` time of all traces of `corpus`, in ms.
pub fn apply_ms(corpus: &Corpus) -> Result<f64, String> {
    let decoded = decode_all(corpus)?;
    let total = median_ns(|| {
        Ok(decoded
            .iter()
            .map(|d| {
                let (session, intern_ns, apply_ns) = intern_then_apply(d);
                std::hint::black_box(session.into_summary());
                intern_ns + apply_ns
            })
            .sum())
    })?;
    Ok(total / 1e6)
}

/// Codec, session and detector probes over `corpus`: every workload
/// has an event stream.
pub fn checker(corpus: &Corpus, layers: &mut Layers) -> Result<(), String> {
    core_and_tsan(corpus, &decode_all(corpus)?, layers)
}

/// The serve and spill ladders over `corpus`: for the workloads whose
/// corpus is served.
pub fn serving(corpus: &Corpus, layers: &mut Layers, tally: &mut Tally) -> Result<(), String> {
    serve_ladder(corpus, &decode_all(corpus)?, layers, tally)?;
    spill_ladder(corpus, layers, tally)
}

fn core_and_tsan(corpus: &Corpus, decoded: &[Decoded], layers: &mut Layers) -> Result<(), String> {
    let events = corpus.events().max(1) as f64;
    let labels = corpus.traces.iter().map(|t| t.labels).sum::<u64>().max(1) as f64;
    let sessions = corpus.traces.len().max(1) as f64;
    layers.insert("core.events_per_op", events / sessions);
    layers.insert("core.labels_per_op", labels / sessions);

    // Decode alone: push parser into a null sink.
    let decode_ns = median_ns(|| {
        let t = Instant::now();
        for trace in &corpus.traces {
            adapter::decode_only(&trace.bytes, CHUNK)?;
        }
        Ok(ns(t))
    })?;
    layers.insert("core.trace.decode_ns_per_event", decode_ns / events);
    layers.insert(
        "core.trace.decode_mib_per_s",
        corpus.bytes() as f64 / MIB / (decode_ns / 1e9),
    );

    // Intern, apply, summary, snapshot, restore: coarse timers.
    let mut parts = [const { Vec::new() }; 7];
    let mut snapshot_bytes = 0;
    let mut pages = 0;
    let mut summaries: Vec<SessionSummary> = Vec::new();
    for _ in 0..REPS {
        let mut sum = [0.0; 7];
        (snapshot_bytes, pages) = (0, 0);
        summaries.clear();
        for d in decoded {
            let t = Instant::now();
            let fresh = Session::new(d);
            std::hint::black_box(fresh.into_summary());
            sum[0] += ns(t);
            let (session, intern_ns, apply_ns) = intern_then_apply(d);
            sum[1] += intern_ns;
            sum[2] += apply_ns;
            pages += session.shadow_pages();
            let t = Instant::now();
            let blob = session.snapshot();
            sum[3] += ns(t);
            snapshot_bytes += blob.len();
            let t = Instant::now();
            let restored = Session::restore(&blob)?;
            sum[4] += ns(t);
            std::hint::black_box(restored);
            let t = Instant::now();
            let summary = session.into_summary();
            sum[5] += ns(t);
            let t = Instant::now();
            std::hint::black_box(adapter::summary_json(&summary));
            sum[6] += ns(t);
            summaries.push(summary);
        }
        for (samples, total) in parts.iter_mut().zip(sum) {
            samples.push(total);
        }
    }
    let [fixed, intern, apply, snapshot, restore, into_summary, to_json] =
        parts.map(|samples| median(&samples));
    layers.insert("core.session.fixed_us", fixed / sessions / 1e3);
    layers.insert("core.session.intern_ns_per_label", intern / labels);
    layers.insert("core.session.apply_ns_per_event", apply / events);
    layers.insert("core.session.snapshot_us", snapshot / sessions / 1e3);
    layers.insert("core.session.restore_us", restore / sessions / 1e3);
    layers.insert(
        "core.session.summary_us",
        (into_summary + to_json) / sessions / 1e3,
    );
    layers.insert(
        "core.session.snapshot_kib",
        snapshot_bytes as f64 / 1024.0 / sessions,
    );

    // Detector counts of one corpus pass.
    let sum = |f: fn(&SessionSummary) -> u64| summaries.iter().map(f).sum::<u64>() as f64;
    let tracked = sum(|s| s.stats.read_bytes + s.stats.write_bytes);
    layers.insert("tsan.tracked_mib", tracked / MIB);
    layers.insert("tsan.shadow_pages", pages as f64);
    layers.insert(
        "tsan.page_summaries_stored",
        sum(|s| s.stats.page_summaries_stored),
    );
    layers.insert("tsan.page_unfolds", sum(|s| s.stats.page_unfolds));
    layers.insert(
        "tsan.arena_pages_reused",
        sum(|s| s.stats.arena_pages_reused),
    );
    layers.insert("tsan.fastpath_hits", sum(|s| s.stats.fastpath_hits));
    let joins = sum(|s| s.stats.full_clock_joins);
    let fast = sum(|s| s.stats.epoch_fast_acquires + s.stats.epoch_fast_releases);
    layers.insert("tsan.full_clock_joins", joins);
    layers.insert("tsan.epoch_fast_share", fast / (fast + joins).max(1.0));

    // Each apply timed on its own and classed by event kind.
    let timer = timer_ns();
    let mut class_ns = [const { Vec::new() }; 3];
    let mut class_events = [0u64; 3];
    for _ in 0..REPS {
        let mut sum = [0.0; 3];
        class_events = [0; 3];
        for d in decoded {
            let mut session = Session::new(d);
            for rec in &d.records {
                let TraceRecord::Event(ev) = rec else {
                    session.feed(rec);
                    continue;
                };
                let class = match adapter::classify(ev) {
                    EventClass::Range => 0,
                    EventClass::Sync => 1,
                    EventClass::Marker => 2,
                };
                let t = Instant::now();
                session.feed(rec);
                sum[class] += (ns(t) - timer).max(0.0);
                class_events[class] += 1;
            }
            std::hint::black_box(session.into_summary());
        }
        for (samples, total) in class_ns.iter_mut().zip(sum) {
            samples.push(total);
        }
    }
    let [range, sync, marker] = class_ns.map(|samples| median(&samples));
    let per = |total: f64, n: u64| total / n.max(1) as f64;
    layers.insert(
        "tsan.shadow.range_ns_per_event",
        per(range, class_events[0]),
    );
    layers.insert(
        "tsan.shadow.ns_per_tracked_kib",
        range / (tracked / 1024.0).max(1.0),
    );
    layers.insert("tsan.clock.sync_ns_per_event", per(sync, class_events[1]));
    layers.insert(
        "core.session.marker_ns_per_event",
        per(marker, class_events[2]),
    );
    Ok(())
}

/// Check one rung's summary against the oracle.
fn graded(tally: &mut Tally, rung: &str, json: &str, oracle: &str) {
    tally.check(adapter::summary_tail(json) == oracle, || {
        format!("{rung}: summary differs from the solo oracle")
    });
}

/// One session through the engine registry: open, feed in chunks, close.
fn engine_session(engine: &Engine, id: u64, bytes: &[u8]) -> Result<String, String> {
    engine.open(id)?;
    let mut offset = 0;
    for piece in bytes.chunks(CHUNK) {
        offset = engine.feed(id, offset, piece)?;
    }
    engine.close_json(id)
}

/// The whole corpus through the registry, one session after another.
fn registry_pass(
    engine: &Engine,
    corpus: &Corpus,
    tally: &mut Tally,
    rung: &str,
    id: &mut u64,
) -> Result<f64, String> {
    let t = Instant::now();
    for trace in &corpus.traces {
        *id += 1;
        let json = engine_session(engine, *id, &trace.bytes)?;
        graded(tally, rung, &json, &trace.oracle);
    }
    Ok(ns(t))
}

/// Solo → ingest → engine → engine + journal → socket, over the same
/// bytes: each rung adds one layer, so each difference is that layer.
fn serve_ladder(
    corpus: &Corpus,
    decoded: &[Decoded],
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let events = corpus.events().max(1) as f64;
    let scratch = ScratchDir::new().map_err(|e| format!("scratch: {e}"))?;
    let in_memory = EngineSetup {
        spill_dir: None,
        spill_idle: false,
    };
    let journaled = EngineSetup {
        spill_dir: Some(scratch.path()),
        spill_idle: false,
    };

    let solo = median_ns(|| {
        let t = Instant::now();
        for trace in &corpus.traces {
            std::hint::black_box(adapter::solo_json(&trace.bytes)?);
        }
        Ok(ns(t))
    })?;

    let engine = Engine::new(in_memory);
    let ingest = median_ns(|| {
        let t = Instant::now();
        for trace in &corpus.traces {
            let json = engine.ingest_json(&trace.bytes, CHUNK)?;
            graded(tally, "ingest", &json, &trace.oracle);
        }
        Ok(ns(t))
    })?;
    let label_counts = engine.counts();

    let mut id = 0;
    let engine = Engine::new(in_memory);
    let registry = median_ns(|| registry_pass(&engine, corpus, tally, "engine", &mut id))?;
    let engine = Engine::new(journaled);
    let journal = median_ns(|| registry_pass(&engine, corpus, tally, "engine+journal", &mut id))?;

    // The smallest session through the journaled engine is all fixed cost.
    if let Some(smallest) = corpus.traces.iter().min_by_key(|t| t.events) {
        let fixed = median_ns(|| {
            let t = Instant::now();
            for _ in 0..32 {
                id += 1;
                std::hint::black_box(engine_session(&engine, id, &smallest.bytes)?);
            }
            Ok(ns(t) / 32.0)
        })?;
        layers.insert("serve.engine.session_fixed_us", fixed / 1e3);
    }

    // The whole corpus streamed down one connection, `Q` right behind the
    // last close, replies collected afterwards: what the product's own
    // batch client does, and free of delayed-ACK waits.
    let socket = median_ns(|| {
        let server = Server::start(&engine, 1)?;
        let mut conn = server.connect()?;
        let t = Instant::now();
        let first = id + 1;
        for trace in &corpus.traces {
            id += 1;
            conn.open(id)?;
            let mut offset = 0;
            for piece in trace.bytes.chunks(CHUNK) {
                conn.data(id, offset, piece)?;
                offset += piece.len() as u64;
            }
            conn.close(id)?;
        }
        conn.quit()?;
        for _ in &corpus.traces {
            match conn.reply()? {
                Answer::Summary { id, json } => {
                    let oracle = corpus.traces.get((id - first) as usize).map(|t| &t.oracle);
                    tally.check(
                        oracle.is_some_and(|o| adapter::summary_tail(&json) == o),
                        || "socket: summary differs from the solo oracle".to_string(),
                    );
                }
                Answer::Other(what) => {
                    tally.check(false, || format!("socket: {what}"));
                }
            }
        }
        let elapsed = ns(t);
        server.join()?;
        Ok(elapsed)
    })?;

    // One small session at a time, each awaited before the next: what a
    // caller who needs the verdict before going on pays per reply.
    if let Some(smallest) = corpus.traces.iter().min_by_key(|t| t.events) {
        let server = Server::start(&engine, 1)?;
        let mut conn = server.connect()?;
        let mut reply_ms = Vec::new();
        for _ in 0..10 {
            id += 1;
            let t = Instant::now();
            conn.open(id)?;
            conn.data(id, 0, &smallest.bytes)?;
            conn.close(id)?;
            conn.flush()?;
            match conn.reply()? {
                Answer::Summary { json, .. } => {
                    graded(tally, "closed loop", &json, &smallest.oracle)
                }
                Answer::Other(what) => {
                    tally.check(false, || format!("closed loop: {what}"));
                }
            }
            reply_ms.push(ns(t) / 1e6);
        }
        conn.quit()?;
        server.join()?;
        layers.insert("serve.socket.closed_loop_reply_ms", median(&reply_ms));
    }

    layers.insert("serve.solo_ns_per_event", solo / events);
    layers.insert("serve.ingest.ns_per_event", ingest / events);
    layers.insert(
        "serve.ingest.transit_ns_per_event",
        (ingest - solo) / events,
    );
    layers.insert("serve.engine.ns_per_event", registry / events);
    layers.insert(
        "serve.engine.journal_ns_per_event",
        (journal - registry) / events,
    );
    layers.insert(
        "serve.engine.journal_bytes_per_event",
        corpus.bytes() as f64 / events,
    );
    layers.insert("serve.socket_ns_per_event", (socket - journal) / events);

    // Framing alone, and what it adds on the wire at 4 KiB chunks.
    let chunk = vec![0x5a; CHUNK];
    let mut buf = Vec::new();
    let frame_wire = adapter::frame_round_trip(&mut buf, &chunk)?;
    let frame = median_ns(|| {
        let t = Instant::now();
        for _ in 0..1000 {
            adapter::frame_round_trip(&mut buf, &chunk)?;
        }
        Ok(ns(t) / 1000.0)
    })?;
    layers.insert("serve.proto.frame_ns", frame);
    let data_overhead = (frame_wire - CHUNK) as u64;
    let open_close_quit = 2 * (4 + 9);
    let wire_overhead: u64 = corpus
        .traces
        .iter()
        .map(|t| t.bytes.len().div_ceil(CHUNK) as u64 * data_overhead + open_close_quit)
        .sum();
    layers.insert(
        "serve.proto.wire_overhead_share",
        wire_overhead as f64 / (wire_overhead + corpus.bytes()) as f64,
    );

    // Label canonicalisation: every label of the corpus, insert then hit.
    let labels: Vec<_> = decoded.iter().flat_map(adapter::labels_of).collect();
    let canon = median_ns(|| {
        let t = Instant::now();
        let lookups = adapter::canon_labels(&labels);
        Ok(ns(t) / lookups.max(1) as f64)
    })?;
    layers.insert("serve.labels.canon_ns_per_label", canon);
    let seen = (label_counts.labels_shared + label_counts.labels_unique).max(1);
    layers.insert(
        "serve.labels.shared_share",
        label_counts.labels_shared as f64 / seen as f64,
    );
    Ok(())
}

fn spill_files(dir: &std::path::Path) -> (u64, u64) {
    let (mut files, mut bytes) = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.path().extension().is_some_and(|e| e == "spill") {
            files += 1;
            bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
    (files, bytes)
}

/// Every session of the corpus: fed to its detach point, detached
/// (spilled), the engine dropped and recovered, then resumed (restored)
/// and finished.
fn spill_ladder(corpus: &Corpus, layers: &mut Layers, tally: &mut Tally) -> Result<(), String> {
    let (mut spill_us, mut restore_us, mut recover_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = EngineCounts::default();
    let mut spill_kib = 0.0;
    for _ in 0..REPS {
        let scratch = ScratchDir::new().map_err(|e| format!("scratch: {e}"))?;
        let setup = EngineSetup {
            spill_dir: Some(scratch.path()),
            spill_idle: true,
        };
        let engine = Engine::new(setup);
        // Only sessions the engine really spilled stay mid-flight over
        // the restart: an engine dropped with a resident unfinished
        // session is never freed.
        let mut pending = Vec::new();
        let mut detach_ns = 0.0;
        for (id, trace) in corpus.traces.iter().enumerate() {
            let id = id as u64;
            let (fed, spilled, ns) = feed_head_and_detach(&engine, id, &trace.bytes)?;
            if spilled {
                detach_ns += ns;
                pending.push((id, fed));
            } else {
                let json = resume_and_finish(&engine, id, &trace.bytes, fed)?;
                graded(tally, "spill", &json, &trace.oracle);
            }
        }
        let before = engine.counts();
        let (files, bytes) = spill_files(scratch.path());
        spill_us.push(detach_ns / 1e3 / before.sessions_spilled.max(1) as f64);
        spill_kib = bytes as f64 / 1024.0 / files.max(1) as f64;
        drop(engine);
        let t = Instant::now();
        let engine = Engine::recover(setup)?;
        recover_ms.push(ns(t) / 1e6);
        let mut restore_ns = 0.0;
        for &(id, fed) in &pending {
            let trace = &corpus.traces[id as usize];
            // An empty feed at the acked offset does nothing but bring
            // the session back from disk.
            let t = Instant::now();
            let acked = engine.resume(id)?;
            engine.feed(id, acked, &[])?;
            restore_ns += ns(t);
            tally.check(acked == fed, || {
                format!("spill: recovered at {acked}, fed {fed}")
            });
            engine.feed(id, acked, &trace.bytes[acked as usize..])?;
            graded(tally, "spill", &engine.close_json(id)?, &trace.oracle);
        }
        let after = engine.counts();
        restore_us.push(restore_ns / 1e3 / after.sessions_restored.max(1) as f64);
        counts = EngineCounts {
            sessions_spilled: before.sessions_spilled + after.sessions_spilled,
            sessions_restored: before.sessions_restored + after.sessions_restored,
            sessions_resumed: before.sessions_resumed + after.sessions_resumed,
            duplicate_bytes_dropped: before.duplicate_bytes_dropped + after.duplicate_bytes_dropped,
            peak_resident_pages: before.peak_resident_pages.max(after.peak_resident_pages),
            ..EngineCounts::default()
        };
    }
    layers.insert("serve.engine.spill_us", median(&spill_us));
    layers.insert("serve.engine.restore_us", median(&restore_us));
    layers.insert("serve.engine.recover_ms", median(&recover_ms));
    layers.insert("serve.engine.spill_kib", spill_kib);
    layers.insert(
        "serve.engine.sessions_spilled",
        counts.sessions_spilled as f64,
    );
    layers.insert(
        "serve.engine.sessions_restored",
        counts.sessions_restored as f64,
    );
    layers.insert(
        "serve.engine.sessions_resumed",
        counts.sessions_resumed as f64,
    );
    layers.insert(
        "serve.engine.duplicate_bytes_dropped",
        counts.duplicate_bytes_dropped as f64,
    );
    layers.insert(
        "serve.engine.peak_resident_pages",
        counts.peak_resident_pages as f64,
    );
    Ok(())
}

/// World spawn + teardown with an empty body, and the budgeted schedule
/// search over the planted race: what `suite-verdicts` is made of.
pub fn must_and_explore(layers: &mut Layers, tally: &mut Tally) {
    let spawn: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            adapter::spawn_empty_world();
            ns(t) / 1e3
        })
        .collect();
    layers.insert("must.world_spawn_us", median(&spawn));

    let (mut per_s, mut found) = (Vec::new(), 0);
    for _ in 0..20 {
        let t = Instant::now();
        let (schedules, found_at, default_clean) = adapter::explore_planted_race(EXPLORE_BUDGET);
        per_s.push(schedules as f64 / t.elapsed().as_secs_f64());
        found = found_at;
        tally.check(default_clean && found_at > 0, || {
            "explore probe missed the planted race".to_string()
        });
    }
    layers.insert("explore.schedules_per_s", median(&per_s));
    layers.insert("explore.found_at", found as f64);
}
