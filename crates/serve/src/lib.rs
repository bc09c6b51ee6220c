//! # cusan-serve — a multi-session trace-checking service
//!
//! Long-running checking as a service: many clients stream recorded
//! [`cusan`] traces (shard by shard, interleaved) to one server process,
//! which multiplexes every session over a single shared
//! [`cusan::CheckerPool`] and replies with per-session race/report
//! summaries as JSON.
//!
//! The layering (see `DESIGN.md`, "Sessions & the serve path"):
//!
//! ```text
//! TcpListener ──► serve_connection ──► SessionIngest ──► AsyncChecker
//!                       │                   │                 │
//!                       │              TracePushParser   CheckerPool (shared)
//!                       │                   │                 │
//!                       └── ServeEngine ◄── SharedLabels  CheckSession
//!                             (live-session registry,
//!                              journals, spill)
//! ```
//!
//! Everything downstream of [`SessionIngest`] is the same machinery live
//! instrumentation uses — [`cusan::CheckSession::apply`] behind the
//! work-stealing pool — so a served session's summary is bit-for-bit
//! identical to a solo synchronous replay of the same trace, at any
//! worker count. `tests/determinism.rs` asserts this for 64 concurrent
//! sessions, in process and over loopback TCP.
//!
//! Since the crash-safety work, that contract extends to *failures*:
//! sessions are owned by the engine and survive their connections (the
//! `R` resume op reattaches and replays from the last acked offset),
//! unfinished idle sessions can be spilled to disk and transparently
//! restored, and a restarted server recovers in-flight sessions from
//! its spill directory. The [`chaos`] harness (run over 32 seeds in
//! each trace encoding by `tests/chaos_serve.rs`) drives all of it with
//! seeded socket-level fault schedules and asserts the summaries stay
//! byte-identical to solo replay. See `DESIGN.md`, "Failure model &
//! resumption".

pub mod chaos;
pub mod client;
pub mod engine;
pub mod ingest;
pub mod json;
pub mod labels;
pub mod proto;

pub use chaos::{chaos_serve, ChaosOptions, ChaosReport};
pub use client::{check_traces_resilient, RetryPolicy};
pub use engine::{AttachError, EngineConfig, FeedError, ServeEngine, ServeStats};
pub use ingest::SessionIngest;
pub use json::summary_to_json;
pub use labels::SharedLabels;
pub use proto::{check_traces, serve_connection, FrameError, Reply};

use cusan::SessionSummary;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A scratch directory path (not created) that no other call is handed:
/// `temp_dir()/cusan-<tag>-<pid>-<n>`, `n` from a process-wide counter.
/// The pid separates processes; the counter separates callers inside
/// one, which may pass the same tag at the same time (two tests running
/// one chaos seed on two threads).
pub fn unique_scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cusan-{tag}-{}-{n}", std::process::id()))
}

/// Reference result: replay `trace` (text or binary bytes — the reader
/// sniffs) solo, synchronously, in this thread — the baseline every
/// served session is compared against.
pub fn solo_summary(trace: impl AsRef<[u8]>) -> Result<SessionSummary, String> {
    cusan::replay_stream(trace.as_ref())
}

/// Serve one accepted TCP connection until `Q` or EOF, reading and
/// writing through buffers: a reply frame leaves in one segment, where
/// two unbuffered writes on a socket without `TCP_NODELAY` cost a
/// client that waits for each reply a delayed-ACK round (≈ 40 ms).
pub(crate) fn serve_stream(engine: &Arc<ServeEngine>, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    serve_connection(engine, &mut reader, &mut writer)
}

/// Accept connections on `listener` forever (or until `max_connections`,
/// when given — what tests and the benchmark use to end a server), one
/// thread per connection, all sharing `engine`. Per-connection I/O
/// errors are logged, not fatal: one misbehaving client must not take
/// the service down.
pub fn serve_listener(
    engine: Arc<ServeEngine>,
    listener: TcpListener,
    max_connections: Option<usize>,
) -> std::io::Result<()> {
    std::thread::scope(|scope| {
        for (accepted, stream) in listener.incoming().enumerate() {
            let stream = stream?;
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let peer = stream
                    .peer_addr()
                    .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string());
                if let Err(e) = serve_stream(&engine, stream) {
                    eprintln!("cusan-serve: connection from {peer} failed: {e}");
                }
            });
            if max_connections.is_some_and(|max| accepted + 1 >= max) {
                break;
            }
        }
        Ok(())
    })
}
