//! `cusan-serve` — check recorded traces as a service.
//!
//! ```text
//! cusan-serve listen <addr> [--check-threads N] [--max-sessions N]
//!                    [--spill-dir DIR] [--live-budget P] [--idle-timeout-ms MS]
//! cusan-serve check <trace-file>... [--serve ADDR] [--retries N]
//!                    [--backoff-ms MS] [--chunk B]
//! ```
//!
//! `--help` / `-h` prints both modes with every option and its default
//! and exits 0. An argument starting with `--` that is not listed here
//! for its mode, a missing value or an unknown mode is a usage error
//! (the same text on stderr, exit 2), never a positional.
//!
//! * `listen` — serve the frame protocol (see [`cusan_serve::proto`]) on
//!   a TCP address until killed. `--max-sessions` (default 1024) bounds
//!   concurrently open sessions (excess opens get a typed `E` reply);
//!   `--spill-dir` enables journaling, live-session spilling (forced
//!   under `--live-budget`), and restart recovery; a sweeper expires
//!   detached sessions idle for `--idle-timeout-ms` (default one hour).
//!   `0` lifts either limit.
//! * `check` — check each trace file and print one summary JSON line per
//!   file (or one `cusan-serve: <path>: <error>` line on stderr; every
//!   file is checked, and any failure makes the exit status 1 after an
//!   `N of M traces failed` line). Offline by default: each file is
//!   replayed solo ([`cusan_serve::solo_summary`], the reference every
//!   served summary is compared against), so a trace that decodes but is
//!   inconsistent is answered with its `trace line N:` / `trace record
//!   N:` position. With `--serve ADDR` the traces stream to a remote
//!   server in `--chunk`-byte data frames through the resilient client
//!   (resume on disconnect, `--retries` attempts, capped exponential
//!   backoff from `--backoff-ms`).

use cusan_serve::{
    check_traces_resilient, serve_listener, solo_summary, summary_to_json, EngineConfig, Reply,
    RetryPolicy, ServeEngine,
};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Bytes per data frame (`check --serve`) unless `--chunk` says
/// otherwise.
const DEFAULT_CHUNK: usize = 64 << 10;
const DEFAULT_RETRIES: u64 = 16;
const DEFAULT_BACKOFF_MS: u64 = 10;

enum Mode {
    Listen,
    Check,
}

struct Options {
    mode: Mode,
    files: Vec<String>,
    chunk: usize,
    check_threads: Option<usize>,
    max_sessions: Option<usize>,
    spill_dir: Option<String>,
    live_budget: Option<usize>,
    idle_timeout_ms: Option<u64>,
    serve_addr: Option<String>,
    retries: u64,
    backoff_ms: u64,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first().map(String::as_str) {
        Some("listen") => Mode::Listen,
        Some("check") => Mode::Check,
        Some(other) => return Err(format!("unknown mode {other}\n{}", usage())),
        None => return Err(usage()),
    };
    let mut o = Options {
        mode,
        files: Vec::new(),
        chunk: DEFAULT_CHUNK,
        check_threads: None,
        max_sessions: None,
        spill_dir: None,
        live_budget: None,
        idle_timeout_ms: None,
        serve_addr: None,
        retries: DEFAULT_RETRIES,
        backoff_ms: DEFAULT_BACKOFF_MS,
    };
    let mut i = 1;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value\n{}", args[*i - 1], usage()))
    };
    while i < args.len() {
        match (&o.mode, args[i].as_str()) {
            (Mode::Listen, "--check-threads") => o.check_threads = Some(num(&value(&mut i)?)?),
            (Mode::Listen, "--max-sessions") => o.max_sessions = Some(num(&value(&mut i)?)?),
            (Mode::Listen, "--spill-dir") => o.spill_dir = Some(value(&mut i)?),
            (Mode::Listen, "--live-budget") => o.live_budget = Some(num(&value(&mut i)?)?),
            (Mode::Listen, "--idle-timeout-ms") => {
                o.idle_timeout_ms = Some(num(&value(&mut i)?)? as u64)
            }
            (Mode::Check, "--chunk") => o.chunk = num(&value(&mut i)?)?,
            (Mode::Check, "--serve") => o.serve_addr = Some(value(&mut i)?),
            (Mode::Check, "--retries") => o.retries = num(&value(&mut i)?)? as u64,
            (Mode::Check, "--backoff-ms") => o.backoff_ms = num(&value(&mut i)?)? as u64,
            (_, flag) if flag.starts_with("--") => {
                return Err(format!("unknown option {flag}\n{}", usage()))
            }
            (_, other) => o.files.push(other.to_string()),
        }
        i += 1;
    }
    Ok(o)
}

fn num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn usage() -> String {
    format!(
        "usage: cusan-serve listen <addr> [options]
       cusan-serve check <trace-file>... [options]

listen: serve the frame protocol on a TCP address until killed
  --check-threads N     checker pool workers (default: one per session up to
                        hardware threads - 1, at least 1)
  --max-sessions N      sessions open at once, 0 = unlimited (default {LISTEN_MAX_SESSIONS})
  --spill-dir DIR       journal sessions under DIR, spill them there under
                        --live-budget, recover them after a restart
                        (default: off)
  --live-budget P       shadow pages detached sessions may hold before the
                        least recently used are spilled (default: unlimited)
  --idle-timeout-ms MS  expire sessions detached this long, 0 = never
                        (default {LISTEN_IDLE_TIMEOUT_MS})

check: replay each trace file solo and print one summary JSON line per file
  --serve ADDR          stream the traces to a `cusan-serve listen` at ADDR
                        instead of checking in-process (default: off)
  --retries N           connection attempts with --serve (default {DEFAULT_RETRIES})
  --backoff-ms MS       first reconnect delay with --serve, doubling up to a
                        cap (default {DEFAULT_BACKOFF_MS})
  --chunk B             bytes per data frame with --serve (default {DEFAULT_CHUNK})

  -h, --help            print this text and exit"
    )
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cusan-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let r = match o.mode {
        Mode::Listen => run_listen(&o),
        Mode::Check => run_check(&o),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cusan-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What `listen` allows when the flag is absent: a server left running
/// must not grow without bound by default. `0` on the command line
/// lifts the limit.
const LISTEN_MAX_SESSIONS: usize = 1024;
const LISTEN_IDLE_TIMEOUT_MS: u64 = 60 * 60 * 1000;

fn shown(limit: Option<impl ToString>) -> String {
    limit.map_or("unlimited".to_string(), |n| n.to_string())
}

fn run_listen(o: &Options) -> Result<(), String> {
    let addr = o.files.first().ok_or("listen needs an address")?;
    let max_sessions = Some(o.max_sessions.unwrap_or(LISTEN_MAX_SESSIONS)).filter(|&n| n != 0);
    let idle_ms = Some(o.idle_timeout_ms.unwrap_or(LISTEN_IDLE_TIMEOUT_MS)).filter(|&ms| ms != 0);
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "cusan-serve: listening on {local} (max-sessions {}, idle-timeout-ms {})",
        shown(max_sessions),
        shown(idle_ms)
    );
    let config = EngineConfig {
        check_threads: o.check_threads,
        live_page_budget: o.live_budget,
        max_sessions,
        spill_dir: o.spill_dir.as_ref().map(std::path::PathBuf::from),
        idle_timeout: idle_ms.map(Duration::from_millis),
    };
    // `recover`, not `new`: a restarted server resumes every session its
    // previous incarnation journaled (a no-op without --spill-dir).
    let engine = ServeEngine::recover(config).map_err(|e| format!("recovering spill dir: {e}"))?;
    if let Some(ms) = idle_ms {
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
    // Every file gets its line, as `check --serve` gives every session
    // its reply: one bad trace does not hide the verdict on the rest.
    let mut failed = 0usize;
    for (i, path) in o.files.iter().enumerate() {
        match std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|trace| Ok(solo_summary(trace)?))
        {
            Ok(summary) => println!("{}", summary_to_json(i as u64, &summary)),
            Err(e) => {
                eprintln!("cusan-serve: {path}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {} traces failed", o.files.len()));
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
    let replies = check_traces_resilient(
        |_attempt| TcpStream::connect(addr),
        &traces,
        o.chunk,
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
