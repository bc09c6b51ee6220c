//! The socket-level chaos harness: seeded failure schedules against a
//! real served endpoint, with a byte-identical-summary oracle.
//!
//! [`chaos_serve`] runs one complete adversarial scenario per seed:
//!
//! 1. A real `cusan-serve` endpoint (TCP on localhost) with journaling
//!    and spilling enabled in a private temp directory.
//! 2. A [`cusan_serve::check_traces_resilient`] client whose socket is a
//!    [`FaultStream`]: the seed's [`NetFaults`] schedule perturbs its
//!    frame writes — torn frames, clean disconnects, stalled writes,
//!    duplicate resumes.
//! 3. A second, independent schedule (same seed, salted) that decides at
//!    each reconnect whether to **restart the server process state**:
//!    the engine is dropped (taking every resident session with it) and
//!    a fresh one recovers from the spill directory, exactly as a
//!    crashed-and-restarted server would.
//!
//! The oracle is the project's core determinism contract extended to
//! failures: *every* session that completes must produce summary JSON
//! **byte-identical** to a solo, synchronous, in-process replay of the
//! same trace ([`cusan_serve::solo_summary`]) — no matter which schedule of
//! disconnects, restarts, and spill evictions it survived. Any
//! divergence fails the run with the seed in hand for replay.
//!
//! Restarts are decided only between client connections (the resilient
//! client is the only traffic source), which mirrors the crash window
//! that matters: bytes are written to the journal *before any ack,
//! detach or spill*, so a crash after an ack can never lose acked
//! bytes. (Bytes the server accepted but was never asked about may be
//! lost with it — at most 64 KiB a session — and the client, never
//! having been told otherwise, re-sends them.)

pub mod fault;

use crate::common::unique_scratch_dir;
use cusan_serve::{
    check_traces_resilient, serve_connection, solo_summary, summary_to_json, EngineConfig, Reply,
    RetryPolicy, ServeEngine, ServeStats,
};
use fault::{FaultStream, NetFaults};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Salt separating the restart schedule from the net-fault schedule
/// drawn from the same seed.
const RESTART_SALT: u64 = 0x7265_7374_6172_7421; // "restart!"

/// Tuning for one chaos scenario.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Probability that any one client frame write is perturbed.
    pub fault_rate: f64,
    /// Probability that any one reconnect restarts the server state.
    pub restart_rate: f64,
    /// Client chunk size in bytes (small chunks mean more frames, hence
    /// more fault sites).
    pub chunk: usize,
    /// Live-session shadow budget; small values force spill/restore of
    /// mid-trace sessions on every disconnect.
    pub live_page_budget: Option<usize>,
    /// Checker-pool worker override.
    pub check_threads: Option<usize>,
}

/// What one seed's scenario did and proved.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Sessions in the corpus, all of which completed with summaries
    /// byte-identical to solo replay.
    pub sessions: usize,
    /// Client frame-write sites visited by the fault schedule.
    pub fault_sites: u64,
    /// Sites that fired (a torn frame, disconnect, stall, or duplicate
    /// resume actually happened).
    pub faults_fired: u64,
    /// Connection attempts the resilient client made (1 = no failures).
    pub connects: u64,
    /// Server-state restarts injected (engine dropped, recovered from
    /// the spill directory).
    pub restarts: u64,
    /// Engine counters accumulated across every server generation.
    pub stats: ServeStats,
}

/// The server side of one scenario: a listener thread serving one
/// connection at a time (the harness's single client never opens more),
/// restartable in place.
struct ChaosServer {
    config: EngineConfig,
    engine: Arc<ServeEngine>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// Counters folded in from generations already torn down.
    folded: ServeStats,
    restarts: u64,
}

impl ChaosServer {
    fn start(config: EngineConfig) -> Result<ChaosServer, String> {
        let engine = ServeEngine::recover(config.clone())
            .map_err(|e| format!("recovering spill dir: {e}"))?;
        let (addr, stop, thread) = ChaosServer::listen(Arc::clone(&engine))?;
        Ok(ChaosServer {
            config,
            engine,
            addr,
            stop,
            thread: Some(thread),
            folded: ServeStats::default(),
            restarts: 0,
        })
    }

    fn listen(
        engine: Arc<ServeEngine>,
    ) -> Result<(SocketAddr, Arc<AtomicBool>, JoinHandle<()>), String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding chaos server: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                // Connection failures are the whole point here; the
                // engine detaches the connection's sessions either way.
                let _ = serve_connection(
                    &engine,
                    &mut BufReader::new(read_half),
                    &mut BufWriter::new(stream),
                );
            }
        });
        Ok((addr, stop, thread))
    }

    fn stop_listener(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Simulate a server crash + restart: tear the listener down, drop
    /// the engine (resident sessions and all), recover a fresh engine
    /// from the spill directory, listen again on a new port.
    fn restart(&mut self) -> Result<(), String> {
        self.stop_listener();
        fold_stats(&mut self.folded, self.engine.stats());
        let engine = ServeEngine::recover(self.config.clone())
            .map_err(|e| format!("recovering spill dir: {e}"))?;
        let (addr, stop, thread) = ChaosServer::listen(Arc::clone(&engine))?;
        self.engine = engine;
        self.addr = addr;
        self.stop = stop;
        self.thread = Some(thread);
        self.restarts += 1;
        Ok(())
    }

    fn shutdown(mut self) -> (ServeStats, u64) {
        self.stop_listener();
        let mut total = self.folded;
        fold_stats(&mut total, self.engine.stats());
        (total, self.restarts)
    }
}

/// Accumulate engine counters across server generations: monotone
/// counters add, the label-table size is the last generation's, peaks
/// take the max.
fn fold_stats(into: &mut ServeStats, gen: ServeStats) {
    into.sessions_opened += gen.sessions_opened;
    into.sessions_finished += gen.sessions_finished;
    into.peak_resident_pages = into.peak_resident_pages.max(gen.peak_resident_pages);
    into.labels_unique = gen.labels_unique;
    into.labels_shared += gen.labels_shared;
    into.sessions_resumed += gen.sessions_resumed;
    into.sessions_spilled += gen.sessions_spilled;
    into.sessions_restored += gen.sessions_restored;
    into.sessions_expired += gen.sessions_expired;
    into.duplicate_bytes_dropped += gen.duplicate_bytes_dropped;
}

/// Run one seeded chaos scenario over `corpus` (id → trace text) and
/// verify the oracle (see the module docs). Fails on the first summary
/// that diverges from solo replay, naming the seed and session.
pub fn chaos_serve(
    seed: u64,
    corpus: &[(u64, Vec<u8>)],
    opts: &ChaosOptions,
) -> Result<ChaosReport, String> {
    let spill_dir = unique_scratch_dir(&format!("chaos-{seed}"));
    let result = run_scenario(seed, corpus, opts, spill_dir.clone());
    let _ = std::fs::remove_dir_all(&spill_dir);
    result
}

fn run_scenario(
    seed: u64,
    corpus: &[(u64, Vec<u8>)],
    opts: &ChaosOptions,
    spill_dir: PathBuf,
) -> Result<ChaosReport, String> {
    // Solo baselines first: the oracle must not depend on any served
    // state.
    let mut expected = Vec::with_capacity(corpus.len());
    for (id, text) in corpus {
        let summary = solo_summary(text).map_err(|e| format!("solo replay of {id}: {e}"))?;
        expected.push(summary_to_json(*id, &summary));
    }
    let config = EngineConfig {
        check_threads: opts.check_threads,
        live_page_budget: opts.live_page_budget,
        spill_dir: Some(spill_dir),
        // Expiry is exercised by its own unit tests; racing a timer
        // against a seeded schedule would make scenarios seed-unstable.
        idle_timeout: None,
        ..EngineConfig::default()
    };
    let mut server = ChaosServer::start(config)?;
    let faults = NetFaults::new(seed, opts.fault_rate);
    let restarts = NetFaults::new(seed ^ RESTART_SALT, opts.restart_rate);
    let policy = RetryPolicy {
        max_attempts: 100_000,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
    };
    let mut connects = 0u64;
    let replies = {
        let server = &mut server;
        let connects = &mut connects;
        let faults = &faults;
        check_traces_resilient(
            move |attempt| {
                *connects += 1;
                // A crashed server is only observable across a client
                // reconnect; decide restarts there (never before the
                // first connection — there is nothing to crash yet).
                if attempt > 0 && restarts.next_net_fault().is_some() {
                    server.restart().map_err(std::io::Error::other)?;
                }
                Ok(FaultStream::new(TcpStream::connect(server.addr)?, faults))
            },
            corpus,
            opts.chunk,
            &policy,
        )
    };
    let replies = match replies {
        Ok(r) => r,
        Err(e) => {
            server.shutdown();
            return Err(format!("seed {seed}: resilient client failed: {e}"));
        }
    };
    let (stats, restarts) = server.shutdown();
    for ((id, _), want) in corpus.iter().zip(&expected) {
        match replies.iter().find(|r| match r {
            Reply::Summary { id: rid, .. } | Reply::Error { id: rid, .. } => rid == id,
            Reply::Ack { id: rid, .. } => rid == id,
        }) {
            Some(Reply::Summary { json, .. }) => {
                if json != want {
                    return Err(format!(
                        "seed {seed}: session {id} summary diverged from solo replay\n \
                         served: {json}\n   solo: {want}"
                    ));
                }
            }
            Some(Reply::Error { message, .. }) => {
                return Err(format!("seed {seed}: session {id} failed: {message}"));
            }
            other => {
                return Err(format!(
                    "seed {seed}: session {id} got no summary ({other:?})"
                ));
            }
        }
    }
    Ok(ChaosReport {
        sessions: corpus.len(),
        fault_sites: faults.sites_visited(),
        faults_fired: faults.fired(),
        connects,
        restarts,
        stats,
    })
}
