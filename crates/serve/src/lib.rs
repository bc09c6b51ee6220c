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
//! its spill directory. The crate's chaos test drives all of it with
//! seeded socket-level fault schedules (32 seeds in each trace
//! encoding) and asserts the summaries stay byte-identical to solo
//! replay. See `DESIGN.md`, "Failure model & resumption".

pub mod client;
pub mod engine;
pub mod ingest;
pub mod json;
pub mod labels;
pub mod proto;

pub use client::{check_traces_resilient, RetryPolicy};
pub use engine::{AttachError, EngineConfig, FeedError, ServeEngine, ServeStats};
pub use ingest::SessionIngest;
pub use json::summary_to_json;
pub use labels::SharedLabels;
pub use proto::{serve_connection, FrameError, Reply};

use cusan::{SessionSummary, TraceError};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Reference result: replay `trace` (text or binary bytes — the reader
/// sniffs) solo, synchronously, in this thread — the baseline every
/// served session is compared against.
pub fn solo_summary(trace: impl AsRef<[u8]>) -> Result<SessionSummary, TraceError> {
    cusan::replay_stream(trace.as_ref())
}

/// Serve one accepted TCP connection until `Q` or EOF, reading and
/// writing through buffers: a reply frame leaves in one segment, where
/// two unbuffered writes on a socket without `TCP_NODELAY` cost a
/// client that waits for each reply a delayed-ACK round (≈ 40 ms).
fn serve_stream(engine: &Arc<ServeEngine>, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    serve_connection(engine, &mut reader, &mut writer)
}

/// Accept connections on `listener` forever (or until `max_connections`,
/// when given — what tests and the benchmark use to end a server), one
/// thread per connection, all sharing `engine`. Per-connection I/O
/// errors — and a connection thread's panic, which is a bug in the
/// server but that connection's alone — are logged, not fatal: one
/// misbehaving client must not take the service down.
pub fn serve_listener(
    engine: Arc<ServeEngine>,
    listener: TcpListener,
    max_connections: Option<usize>,
) -> std::io::Result<()> {
    serve_listener_with(engine, listener, max_connections, serve_stream)
}

/// [`serve_listener`] with a connection's work as a parameter: no input
/// makes `serve_stream` panic, so the test of what a panicking
/// connection thread costs the listener supplies one that does.
fn serve_listener_with(
    engine: Arc<ServeEngine>,
    listener: TcpListener,
    max_connections: Option<usize>,
    serve_stream: impl Fn(&Arc<ServeEngine>, TcpStream) -> std::io::Result<()> + Sync,
) -> std::io::Result<()> {
    let serve_stream = &serve_stream;
    std::thread::scope(|scope| {
        for (accepted, stream) in listener.incoming().enumerate() {
            let stream = stream?;
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let peer = stream
                    .peer_addr()
                    .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string());
                // Caught here: a scoped thread that ends by panicking
                // makes the scope panic when it closes, which would turn
                // one connection's bug into the listener's.
                match catch_unwind(AssertUnwindSafe(|| serve_stream(&engine, stream))) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => eprintln!("cusan-serve: connection from {peer} failed: {e}"),
                    Err(panic) => {
                        let what = panic
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| panic.downcast_ref::<&str>().copied())
                            .unwrap_or("a non-string payload");
                        eprintln!("cusan-serve: connection from {peer} panicked: {what}");
                    }
                }
            });
            if max_connections.is_some_and(|max| accepted + 1 >= max) {
                break;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_panicking_connection_thread_is_logged_not_re_raised() {
        // A bounded listener used to panic on return (`a scoped thread
        // panicked`) when any of its connection threads had; the next
        // connection must be served and the listener must return `Ok`.
        let engine = ServeEngine::new(EngineConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connections = AtomicUsize::new(0);
        let trace = b"cusan-trace v2 rank 0 tiered 1 budget none\ns 0 f\nfc 1 0\n".to_vec();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                serve_listener_with(Arc::clone(&engine), listener, Some(2), |engine, stream| {
                    if connections.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("injected connection bug");
                    }
                    serve_stream(engine, stream)
                })
            });
            // The first connection's thread dies; its peer sees EOF.
            let mut first = TcpStream::connect(addr).unwrap();
            assert!(matches!(proto::read_frame(&mut first), Ok(None) | Err(_)));
            let replies = check_traces_resilient(
                |_| TcpStream::connect(addr),
                &[(7, trace)],
                16,
                &RetryPolicy::default(),
            )
            .unwrap();
            assert!(
                matches!(&replies[..], [Reply::Summary { id: 7, .. }]),
                "{replies:?}"
            );
            server.join().expect("listener thread").expect("listener");
        });
        assert_eq!(engine.live_sessions(), 0);
    }
}
