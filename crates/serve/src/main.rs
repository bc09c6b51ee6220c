//! `cusan-serve` — check recorded traces as a service.
//!
//! ```text
//! cusan-serve listen <addr> [--check-threads N] [--global-budget P]
//!                    [--max-sessions N] [--spill-dir DIR]
//!                    [--live-budget P] [--idle-timeout-ms MS]
//! cusan-serve check <trace-file>... [--check-threads N] [--global-budget P]
//!                    [--serve ADDR] [--retries N] [--backoff-ms MS] [--chunk B]
//! cusan-serve selftest [--sessions N] [--connections C] [--fixture PATH]
//!                      [--check-threads N] [--global-budget P] [--json PATH]
//! cusan-serve chaos [--seeds N] [--base-seed S] [--rate R] [--restart-rate R]
//!                   [--sessions N] [--chunk B] [--live-budget P] [--json PATH]
//! ```
//!
//! * `listen` — serve the frame protocol (see [`cusan_serve::proto`]) on
//!   a TCP address until killed. `--max-sessions` bounds concurrently
//!   open sessions (excess opens get a typed `E` reply); `--spill-dir`
//!   enables journaling, live-session spilling (forced under
//!   `--live-budget`), and restart recovery; `--idle-timeout-ms` starts
//!   a sweeper that expires detached idle sessions.
//! * `check` — check each trace file and print one summary JSON line per
//!   file. Offline through an in-process engine by default; with
//!   `--serve ADDR` the traces stream to a remote server through the
//!   resilient client (resume on disconnect, `--retries` attempts,
//!   capped exponential backoff from `--backoff-ms`).
//! * `selftest` — end-to-end proof: spin up a listener on a loopback
//!   port, stream `--sessions` concurrent sessions (the golden TeaLeaf
//!   fixture plus freshly generated chaos-twin traces, interleaved in
//!   small chunks over `--connections` connections), and assert every
//!   served summary is byte-identical JSON to a solo synchronous replay
//!   of the same trace. With `--global-budget` it additionally asserts
//!   that idle-session eviction fired without changing any race set.
//!   Writes a `BENCH_serve_selftest.json` throughput record (the
//!   `bench_serve` bin owns `BENCH_serve.json`); exits non-zero on any
//!   mismatch. This is the `serve-smoke` CI job.
//! * `chaos` — the failure-mode proof ([`cusan_serve::chaos`]): for each
//!   of `--seeds` seeded schedules, run the full corpus through a real
//!   endpoint under injected torn frames, disconnects, stalls, duplicate
//!   resumes, and server restarts (recovering from the spill directory),
//!   asserting every summary stays byte-identical to solo replay. This
//!   is the `serve-chaos-smoke` CI job.

use cusan_serve::{
    chaos_serve, check_traces, check_traces_resilient, serve_listener, solo_summary,
    summary_to_json, ChaosOptions, EngineConfig, Reply, RetryPolicy, ServeEngine, SessionIngest,
};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The golden TeaLeaf trace recorded by the repo's fixture generator
/// (`tests/data/`): the known-good baseline every selftest run checks.
/// Text bytes; corpus builders transcode it when `CUSAN_TRACE_FORMAT`
/// selects the binary encoding so the whole corpus is uniform.
const GOLDEN_FIXTURE: &str = include_str!("../../../tests/data/tealeaf_small.trace");

struct Options {
    mode: String,
    files: Vec<String>,
    sessions: usize,
    connections: usize,
    chunk: usize,
    fixture: Option<String>,
    check_threads: Option<usize>,
    global_budget: Option<usize>,
    json_path: String,
    max_sessions: Option<usize>,
    spill_dir: Option<String>,
    live_budget: Option<usize>,
    idle_timeout_ms: Option<u64>,
    serve_addr: Option<String>,
    retries: u64,
    backoff_ms: u64,
    seeds: u64,
    base_seed: u64,
    rate: f64,
    restart_rate: f64,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().ok_or_else(usage)?.clone();
    let mut o = Options {
        mode,
        files: Vec::new(),
        sessions: 64,
        connections: 8,
        chunk: 997,
        fixture: None,
        check_threads: None,
        global_budget: None,
        json_path: "BENCH_serve_selftest.json".to_string(),
        max_sessions: None,
        spill_dir: None,
        live_budget: None,
        idle_timeout_ms: None,
        serve_addr: None,
        retries: 16,
        backoff_ms: 10,
        seeds: 32,
        base_seed: 1,
        rate: 0.05,
        restart_rate: 0.25,
    };
    let mut i = 1;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--sessions" => o.sessions = num(&value(&mut i)?)?,
            "--connections" => o.connections = num(&value(&mut i)?)?,
            "--chunk" => o.chunk = num(&value(&mut i)?)?,
            "--fixture" => o.fixture = Some(value(&mut i)?),
            "--check-threads" => o.check_threads = Some(num(&value(&mut i)?)?),
            "--global-budget" => o.global_budget = Some(num(&value(&mut i)?)?),
            "--json" => o.json_path = value(&mut i)?,
            "--max-sessions" => o.max_sessions = Some(num(&value(&mut i)?)?),
            "--spill-dir" => o.spill_dir = Some(value(&mut i)?),
            "--live-budget" => o.live_budget = Some(num(&value(&mut i)?)?),
            "--idle-timeout-ms" => o.idle_timeout_ms = Some(num(&value(&mut i)?)? as u64),
            "--serve" => o.serve_addr = Some(value(&mut i)?),
            "--retries" => o.retries = num(&value(&mut i)?)? as u64,
            "--backoff-ms" => o.backoff_ms = num(&value(&mut i)?)? as u64,
            "--seeds" => o.seeds = num(&value(&mut i)?)? as u64,
            "--base-seed" => o.base_seed = num(&value(&mut i)?)? as u64,
            "--rate" => o.rate = fnum(&value(&mut i)?)?,
            "--restart-rate" => o.restart_rate = fnum(&value(&mut i)?)?,
            other => o.files.push(other.to_string()),
        }
        i += 1;
    }
    Ok(o)
}

fn num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn fnum(s: &str) -> Result<f64, String> {
    let v = s
        .parse::<f64>()
        .map_err(|e| format!("bad rate {s:?}: {e}"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("rate {v} outside [0, 1]"));
    }
    Ok(v)
}

fn usage() -> String {
    "usage: cusan-serve <listen <addr> | check <file>... | selftest | chaos> [options]".to_string()
}

fn engine_config(o: &Options) -> EngineConfig {
    EngineConfig {
        check_threads: o.check_threads,
        global_page_budget: o.global_budget,
        live_page_budget: o.live_budget,
        max_sessions: o.max_sessions,
        spill_dir: o.spill_dir.as_ref().map(std::path::PathBuf::from),
        idle_timeout: o.idle_timeout_ms.map(Duration::from_millis),
    }
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cusan-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let r = match o.mode.as_str() {
        "listen" => run_listen(&o),
        "check" => run_check(&o),
        "selftest" => run_selftest(&o),
        "chaos" => run_chaos(&o),
        _ => Err(usage()),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cusan-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_listen(o: &Options) -> Result<(), String> {
    let addr = o.files.first().ok_or("listen needs an address")?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("cusan-serve: listening on {local}");
    let config = engine_config(o);
    // `recover`, not `new`: a restarted server resumes every session its
    // previous incarnation journaled (a no-op without --spill-dir).
    let engine = ServeEngine::recover(config).map_err(|e| format!("recovering spill dir: {e}"))?;
    if let Some(ms) = o.idle_timeout_ms {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(ms.clamp(10, 1_000)));
            let n = engine.sweep_idle();
            if n > 0 {
                eprintln!("cusan-serve: expired {n} idle sessions");
            }
        });
    }
    serve_listener(engine, listener, None).map_err(|e| e.to_string())
}

fn run_check(o: &Options) -> Result<(), String> {
    if o.files.is_empty() {
        return Err("check needs at least one trace file".to_string());
    }
    if let Some(addr) = &o.serve_addr {
        return run_check_remote(o, addr);
    }
    let engine = ServeEngine::new(engine_config(o));
    for (i, path) in o.files.iter().enumerate() {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let mut ingest = SessionIngest::new(Arc::clone(&engine));
        for chunk in bytes.chunks(64 << 10) {
            ingest.feed(chunk).map_err(|e| format!("{path}: {e}"))?;
        }
        let summary = ingest.finish().map_err(|e| format!("{path}: {e}"))?;
        println!("{}", summary_to_json(i as u64, &summary));
    }
    Ok(())
}

/// `check --serve ADDR`: stream the trace files to a remote server
/// through the resilient client, surviving disconnects and server
/// restarts along the way.
fn run_check_remote(o: &Options, addr: &str) -> Result<(), String> {
    let traces: Vec<(u64, Vec<u8>)> = o
        .files
        .iter()
        .enumerate()
        .map(|(i, path)| {
            std::fs::read(path)
                .map(|t| (i as u64, t))
                .map_err(|e| format!("{path}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let policy = RetryPolicy {
        max_attempts: o.retries.max(1),
        backoff_base: Duration::from_millis(o.backoff_ms),
        ..RetryPolicy::default()
    };
    let injector = cusan::FaultInjector::new(cusan::FaultPlan::DISABLED);
    let replies = check_traces_resilient(
        |_attempt| TcpStream::connect(addr),
        &traces,
        o.chunk,
        &injector,
        &policy,
    )
    .map_err(|e| format!("{addr}: {e}"))?;
    let mut failed = 0usize;
    for reply in replies {
        match reply {
            Reply::Summary { json, .. } => println!("{json}"),
            Reply::Error { id, message } => {
                eprintln!("cusan-serve: session {id} failed: {message}");
                failed += 1;
            }
            Reply::Ack { .. } => {}
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {} traces failed", o.files.len()));
    }
    Ok(())
}

/// The chaos sweep: one full scenario per seed, all of which must hold
/// the byte-identical-summary oracle.
fn run_chaos(o: &Options) -> Result<(), String> {
    let corpus_traces = selftest_corpus(o)?;
    let sessions = if o.sessions == 0 {
        corpus_traces.len()
    } else {
        o.sessions
    };
    let corpus: Vec<(u64, Vec<u8>)> = (0..sessions)
        .map(|i| (i as u64, corpus_traces[i % corpus_traces.len()].clone()))
        .collect();
    let copts = ChaosOptions {
        fault_rate: o.rate,
        restart_rate: o.restart_rate,
        chunk: o.chunk,
        live_page_budget: o.live_budget.or(Some(0)),
        check_threads: o.check_threads,
    };
    let started = Instant::now();
    let (mut connects, mut restarts, mut fired) = (0u64, 0u64, 0u64);
    let (mut resumed, mut spilled, mut restored, mut dup_bytes) = (0u64, 0u64, 0u64, 0u64);
    for seed in o.base_seed..o.base_seed + o.seeds {
        let report = chaos_serve(seed, &corpus, &copts)?;
        println!(
            "seed {seed}: {} sessions ok under {} faults / {} connects / {} restarts \
             (resumed {}, spilled {}, restored {}, dup bytes dropped {})",
            report.sessions,
            report.faults_fired,
            report.connects,
            report.restarts,
            report.stats.sessions_resumed,
            report.stats.sessions_spilled,
            report.stats.sessions_restored,
            report.stats.duplicate_bytes_dropped,
        );
        connects += report.connects;
        restarts += report.restarts;
        fired += report.faults_fired;
        resumed += report.stats.sessions_resumed;
        spilled += report.stats.sessions_spilled;
        restored += report.stats.sessions_restored;
        dup_bytes += report.stats.duplicate_bytes_dropped;
    }
    let elapsed = started.elapsed();
    println!(
        "chaos: {} seeds x {} sessions survived {fired} injected faults and \
         {restarts} server restarts in {elapsed:?}; every summary byte-identical to solo replay",
        o.seeds,
        corpus.len(),
    );
    let json = format!(
        "{{\n  \"benchmark\": \"serve_chaos\",\n  \"seeds\": {},\n  \"base_seed\": {},\n  \
         \"sessions\": {},\n  \"fault_rate\": {},\n  \"restart_rate\": {},\n  \
         \"wall_ns\": {},\n  \"faults_fired\": {fired},\n  \"connects\": {connects},\n  \
         \"restarts\": {restarts},\n  \"sessions_resumed\": {resumed},\n  \
         \"sessions_spilled\": {spilled},\n  \"sessions_restored\": {restored},\n  \
         \"duplicate_bytes_dropped\": {dup_bytes},\n  \"mismatches\": 0\n}}\n",
        o.seeds,
        o.base_seed,
        corpus.len(),
        o.rate,
        o.restart_rate,
        elapsed.as_nanos(),
    );
    let path = if o.json_path == "BENCH_serve_selftest.json" {
        "BENCH_serve_chaos.json"
    } else {
        o.json_path.as_str()
    };
    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Generate the selftest's trace corpus: the golden fixture plus chaos
/// twins of both mini-apps (every rank of every run contributes one
/// trace, all recorded fresh in this process).
fn selftest_corpus(o: &Options) -> Result<Vec<Vec<u8>>, String> {
    let mut fixture = match &o.fixture {
        Some(path) => std::fs::read(path).map_err(|e| format!("{path}: {e}"))?,
        None => GOLDEN_FIXTURE.as_bytes().to_vec(),
    };
    // Chaos-twin recordings below honor CUSAN_TRACE_FORMAT; transcode a
    // text fixture to match so the corpus is format-uniform.
    if cusan::ctx::EnvOverrides::get().trace_format == Some(cusan::TraceFormat::Binary)
        && !fixture.starts_with(cusan::binio::BIN_FAMILY)
    {
        fixture = cusan::transcode(&fixture[..], cusan::TraceFormat::Binary)
            .map_err(|e| format!("transcoding fixture: {e}"))?;
    }
    let mut traces = vec![fixture];
    let base = cusan_apps::ChaosConfig::default();
    let runs = [
        cusan_apps::run_chaos_jacobi(&base, cusan::Flavor::MustCusan),
        cusan_apps::run_chaos_tealeaf(&base, cusan::Flavor::MustCusan),
        cusan_apps::run_chaos_jacobi(
            &cusan_apps::ChaosConfig { iters: 6, ..base },
            cusan::Flavor::MustCusan,
        ),
        cusan_apps::run_chaos_tealeaf(
            &cusan_apps::ChaosConfig { iters: 2, ..base },
            cusan::Flavor::MustCusan,
        ),
    ];
    for out in runs {
        for rank in out.ranks {
            traces.push(rank.trace.ok_or("chaos run was not traced")?);
        }
    }
    Ok(traces)
}

fn run_selftest(o: &Options) -> Result<(), String> {
    let corpus = selftest_corpus(o)?;
    let solo: Vec<_> = corpus.iter().map(solo_summary).collect::<Result<_, _>>()?;

    let engine = ServeEngine::new(engine_config(o));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let connections = o.connections.clamp(1, o.sessions.max(1));
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_listener(engine, listener, Some(connections)))
    };

    // Session id i checks corpus[i % corpus.len()], split round-robin
    // over the connections so each connection multiplexes interleaved
    // sessions.
    let per_conn: Vec<Vec<(u64, Vec<u8>)>> = (0..connections)
        .map(|c| {
            (c..o.sessions)
                .step_by(connections)
                .map(|i| (i as u64, corpus[i % corpus.len()].clone()))
                .collect()
        })
        .collect();

    let started = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|traces| {
                scope.spawn(|| {
                    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                    let reader = stream.try_clone().map_err(|e| e.to_string())?;
                    check_traces(reader, stream, traces, o.chunk).map_err(|e| e.to_string())
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    let elapsed = started.elapsed();
    server
        .join()
        .expect("server thread panicked")
        .map_err(|e| e.to_string())?;

    // Every session must come back as a summary byte-identical to its
    // solo sync replay.
    replies.sort_by_key(|r| match r {
        Reply::Summary { id, .. } | Reply::Error { id, .. } | Reply::Ack { id, .. } => *id,
    });
    let mut mismatches = 0usize;
    for reply in &replies {
        match reply {
            Reply::Ack { id, .. } => {
                eprintln!("session {id}: stray ack counted as a reply");
                mismatches += 1;
            }
            Reply::Error { id, message } => {
                eprintln!("session {id}: server error: {message}");
                mismatches += 1;
            }
            Reply::Summary { id, json } => {
                let expected = summary_to_json(*id, &solo[*id as usize % corpus.len()]);
                if *json != expected {
                    eprintln!("session {id}: served summary differs from solo replay");
                    eprintln!("  served: {json}");
                    eprintln!("  solo:   {expected}");
                    mismatches += 1;
                }
            }
        }
    }
    if replies.len() != o.sessions {
        return Err(format!(
            "got {} replies for {} sessions",
            replies.len(),
            o.sessions
        ));
    }

    let stats = engine.stats();
    if stats.sessions_finished != o.sessions as u64 {
        return Err(format!(
            "engine finished {} of {} sessions",
            stats.sessions_finished, o.sessions
        ));
    }
    if let Some(budget) = o.global_budget {
        if stats.resident_pages > budget as u64 {
            return Err(format!(
                "global budget violated: {} resident pages > {budget}",
                stats.resident_pages
            ));
        }
        if stats.sessions_evicted == 0 {
            return Err("global budget set but no session was evicted \
                        (budget too large for this corpus?)"
                .to_string());
        }
    }

    let events: u64 = replies
        .iter()
        .map(|r| match r {
            Reply::Summary { id, .. } => {
                let c = &solo[*id as usize % corpus.len()].counters;
                c.fiber_creates
                    + c.fiber_destroys
                    + c.fiber_switches
                    + c.happens_before
                    + c.happens_after
                    + c.read_range_calls
                    + c.write_range_calls
                    + c.allocs
                    + c.frees
                    + c.requests_begun
                    + c.requests_completed
                    + c.api_faults
            }
            Reply::Error { .. } | Reply::Ack { .. } => 0,
        })
        .sum();
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "selftest: {} sessions over {} connections, {} distinct traces, {:?} \
         ({:.0} sessions/s, {:.0} events/s)",
        o.sessions,
        connections,
        corpus.len(),
        elapsed,
        o.sessions as f64 / secs,
        events as f64 / secs,
    );
    println!(
        "engine: evicted {} sessions / {} shadow pages, resident {} (peak {}), \
         labels {} unique / {} shared",
        stats.sessions_evicted,
        stats.shadow_pages_evicted,
        stats.resident_pages,
        stats.peak_resident_pages,
        stats.labels_unique,
        stats.labels_shared,
    );

    // Hand-rolled JSON (offline workspace: no serde), same convention as
    // the other bench bins.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"sessions\": {},\n  \"connections\": {},\n  \
         \"distinct_traces\": {},\n  \"check_threads\": {},\n  \"global_budget\": {},\n  \
         \"hw_threads\": {hw},\n  \"wall_ns\": {},\n  \"sessions_per_sec\": {:.1},\n  \
         \"events_per_sec\": {:.0},\n  \"sessions_evicted\": {},\n  \
         \"shadow_pages_evicted\": {},\n  \"peak_resident_pages\": {},\n  \
         \"labels_unique\": {},\n  \"labels_shared\": {},\n  \"mismatches\": {mismatches}\n}}\n",
        o.sessions,
        connections,
        corpus.len(),
        o.check_threads
            .map_or("null".to_string(), |n| n.to_string()),
        o.global_budget
            .map_or("null".to_string(), |n| n.to_string()),
        elapsed.as_nanos(),
        o.sessions as f64 / secs,
        events as f64 / secs,
        stats.sessions_evicted,
        stats.shadow_pages_evicted,
        stats.peak_resident_pages,
        stats.labels_unique,
        stats.labels_shared,
    );
    std::fs::write(&o.json_path, &json).map_err(|e| format!("{}: {e}", o.json_path))?;
    println!("wrote {}", o.json_path);

    if mismatches > 0 {
        return Err(format!(
            "{mismatches} of {} sessions diverged from solo replay",
            o.sessions
        ));
    }
    println!(
        "selftest: all {} served summaries bit-for-bit identical to solo replay",
        o.sessions
    );
    Ok(())
}
