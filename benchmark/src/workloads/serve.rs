//! `serve-fanin` and `serve-spill`: the corpus checked through
//! `cusan-serve`, over a socket and through spill → restore.
//!
//! Both draw sessions from the full corpus in seeded order, journal to a
//! spill directory (as deployed), and compare every summary with the solo
//! oracle. One operation is one pass: every session of the corpus once,
//! like `replay-events`, so the three price the same bytes. (Timing
//! single sessions made the median a 0.2 ms session of a dozen events,
//! most of it file-system calls, while the app-sized sessions that carry
//! the snapshot and framing work sat in the tail.) Every batch (or
//! session) is also replayed solo on the same thread, right after it was
//! served: `overhead_x` is served time over solo time for those same
//! bytes, under the same contention. (Sampling only some batches let the
//! few large sessions decide the ratio by where they happened to fall.)

use super::{Layers, Phase, Tally, Workload};
use crate::adapter::{self, Answer, Engine, EngineSetup, Server};
use crate::corpus::Corpus;
use crate::probes;
use crate::rng::Rng;
use crate::scratch::ScratchDir;
use crate::spans::Spans;
use crate::stats::{quiet_rate, windowed_ratio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Clients of `serve-fanin`, each a thread with a connection of its own.
const CLIENTS: usize = 2;

/// One load thread's state and measurements.
struct Lane {
    rng: Rng,
    order: Vec<usize>,
    cursor: usize,
    next_id: u64,
    spans: Spans,
    tally: Tally,
    /// Time of each finished pass over the corpus.
    op_ms: Vec<f64>,
    /// Time and sessions of the pass under way.
    pass_ms: f64,
    pass_sessions: usize,
    /// Served time and solo time of the same sessions, per sample.
    twins: Vec<(f64, f64)>,
    /// `serve-spill`: the session left mid-flight across a restart.
    carry: Option<Pending>,
}

struct Pending {
    id: u64,
    trace: usize,
    fed: u64,
    first_ms: f64,
}

impl Lane {
    fn new(rng: Rng, lane: usize, traced: bool, origin: Instant) -> Lane {
        Lane {
            rng,
            order: Vec::new(),
            cursor: 0,
            // Ids are unique per lane and never reused.
            next_id: (lane as u64 + 1) << 32,
            spans: Spans::new(traced, origin),
            tally: Tally::default(),
            op_ms: Vec::new(),
            pass_ms: 0.0,
            pass_sessions: 0,
            twins: Vec::new(),
            carry: None,
        }
    }

    /// The next trace of this lane's endless seeded order.
    fn next_trace(&mut self, n: usize) -> usize {
        if self.cursor == self.order.len() {
            self.order = self.rng.order(n);
            self.cursor = 0;
        }
        self.cursor += 1;
        self.order[self.cursor - 1]
    }

    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Book `sessions` more sessions that took `ms` to the pass under way;
    /// a pass is over when it holds every one of the corpus's `n` traces
    /// (the lane draws whole shuffles of them, one after the other).
    fn book(&mut self, ms: f64, sessions: usize, n: usize) {
        self.pass_ms += ms;
        self.pass_sessions += sessions;
        if self.pass_sessions == n {
            self.op_ms.push(self.pass_ms);
            self.pass_ms = 0.0;
            self.pass_sessions = 0;
        }
    }

    /// Replay `traces` solo and book it against `served_s`.
    fn sample_solo(&mut self, corpus: &Corpus, traces: &[usize], served_s: f64) {
        let t = Instant::now();
        let open = self.spans.enter("serve.solo_sample");
        for &i in traces {
            std::hint::black_box(adapter::solo_json(&corpus.traces[i].bytes).ok());
        }
        self.spans.exit(open);
        self.twins.push((served_s, t.elapsed().as_secs_f64()));
    }
}

/// Run `f` between two rounds of load, booked to every lane as `name`.
fn while_lanes_wait<T>(lanes: &mut [Lane], name: &'static str, f: impl FnOnce() -> T) -> T {
    let waits: Vec<_> = lanes.iter_mut().map(|l| l.spans.enter(name)).collect();
    let out = f();
    for (lane, wait) in lanes.iter_mut().zip(waits) {
        lane.spans.exit(wait);
    }
    out
}

/// The lanes' measurements as one phase. Every pass holds the whole
/// corpus, so the event rate is the pass rate times the corpus's events.
fn phase_of(lanes: Vec<Lane>, corpus: &Corpus, wall_s: f64) -> (Phase, Vec<Spans>) {
    let mut tally = Tally::default();
    let (mut op_ms, mut twins) = (Vec::new(), Vec::new());
    let mut ops_per_s = 0.0;
    let mut spans = Vec::new();
    let threads = lanes.len();
    for lane in lanes {
        let passes: Vec<(f64, f64)> = lane.op_ms.iter().map(|ms| (1.0, ms / 1e3)).collect();
        ops_per_s += quiet_rate(&passes);
        op_ms.extend(lane.op_ms);
        twins.extend(lane.twins);
        tally.absorb(lane.tally);
        spans.push(lane.spans);
    }
    let phase = Phase {
        tally,
        op_ms,
        ops_per_s,
        events_per_s: ops_per_s * corpus.events() as f64,
        overhead_x: windowed_ratio(&twins),
        wall_s,
        threads,
    };
    (phase, spans)
}

// ---- serve-fanin -----------------------------------------------------------

const IN_FLIGHT: usize = 4;
const CHUNK: u64 = 4096;

/// Two clients of an in-process `serve_listener` on loopback, each in a
/// closed loop of batches the way the product's own clients send them:
/// connect, open four sessions, stream their ~4 KiB data frames
/// round-robin, close them, `Q`, then collect the four summaries. One
/// operation is one client's pass: the corpus once, thirty batches, the
/// time from each connect to its last summary summed. Framing,
/// journal-before-ack, ring/pool hand-off, label canonicalisation and
/// registry cost all sit between the client and the checker here, and
/// the two clients, the connection threads and the pool worker contend
/// for the processor.
pub struct Fanin {
    corpus: Corpus,
    rng: Rng,
}

impl Fanin {
    pub fn setup(seed: u64) -> Result<Fanin, String> {
        Ok(Fanin {
            corpus: Corpus::full()?,
            rng: Rng::new(seed),
        })
    }
}

/// One batch on a connection of its own; every reply is checked. An
/// `Err` is a transport error.
fn fanin_batch(
    server: &Server,
    corpus: &Corpus,
    batch: &[usize],
    lane: &mut Lane,
) -> Result<(), String> {
    let mut conn = lane.spans.leaf("serve.connect", || server.connect())?;
    let ids: Vec<u64> = batch.iter().map(|_| lane.next_id()).collect();
    for &id in &ids {
        lane.spans.leaf("serve.send_open", || conn.open(id))?;
    }
    let mut sent = vec![0u64; batch.len()];
    loop {
        let mut progressed = false;
        for (k, &i) in batch.iter().enumerate() {
            let bytes = &corpus.traces[i].bytes;
            let rest = bytes.len() as u64 - sent[k];
            if rest == 0 {
                continue;
            }
            // Seeded jitter: frame boundaries fall anywhere.
            let take = (CHUNK - 512 + lane.rng.below(1024)).min(rest);
            let piece = &bytes[sent[k] as usize..(sent[k] + take) as usize];
            lane.spans
                .leaf("serve.send_data", || conn.data(ids[k], sent[k], piece))?;
            sent[k] += take;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    for &id in &ids {
        lane.spans.leaf("serve.send_close", || conn.close(id))?;
    }
    lane.spans.leaf("serve.send_quit", || conn.quit())?;
    for _ in &ids {
        let answer = lane.spans.leaf("serve.await_reply", || conn.reply())?;
        let (ok, what) = match answer {
            Answer::Summary { id, json } => match ids.iter().position(|&x| x == id) {
                Some(k) => {
                    let trace = &corpus.traces[batch[k]];
                    (
                        adapter::summary_tail(&json) == trace.oracle,
                        format!(
                            "{}: served summary differs from the solo oracle",
                            trace.name
                        ),
                    )
                }
                None => (false, format!("summary for unknown session {id}")),
            },
            Answer::Other(what) => (false, what),
        };
        lane.tally.check(ok, || what);
    }
    Ok(())
}

/// Batches each client sends to one server before it is replaced: the
/// corpus once. `serve_listener` ends after a set number of connections,
/// and by default the engine keeps every finished session's shadow
/// pages, so an unbounded server life would turn speed into memory.
fn batches_per_server(corpus: &Corpus) -> usize {
    corpus.traces.len().div_ceil(IN_FLIGHT)
}

/// One server life on one client: the corpus once (one operation),
/// then wait at `done` for the other client (the wait is spanned, so the
/// time clients spend waiting for each other is on the page).
fn fanin_client(server: &Server, corpus: &Corpus, lane: &mut Lane, done: &Barrier) {
    let pass: Vec<usize> = (0..corpus.traces.len())
        .map(|_| lane.next_trace(corpus.traces.len()))
        .collect();
    for batch in pass.chunks(IN_FLIGHT) {
        let t = Instant::now();
        let span = lane.spans.enter("harness.batch");
        let sent = fanin_batch(server, corpus, batch, lane);
        lane.spans.exit(span);
        let batch_s = t.elapsed().as_secs_f64();
        lane.book(batch_s * 1e3, batch.len(), corpus.traces.len());
        if let Err(e) = sent {
            lane.tally.check(false, || e);
        }
        lane.sample_solo(corpus, batch, batch_s);
    }
    lane.spans.leaf("harness.server_barrier", || done.wait());
}

impl Workload for Fanin {
    fn setup_tally(&mut self) -> Tally {
        Tally::default()
    }

    fn trace_bytes_per_event(&self) -> f64 {
        self.corpus.bytes_per_event()
    }

    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> (Phase, Vec<Spans>) {
        let mut lanes: Vec<Lane> = (0..CLIENTS)
            .map(|l| Lane::new(self.rng.split(), l, traced, origin))
            .collect();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let served = (|| -> Result<(), String> {
            while Instant::now() < deadline {
                let (scratch, engine, server) =
                    while_lanes_wait(&mut lanes, "serve.server_start", || {
                        let scratch = ScratchDir::new().map_err(|e| format!("scratch: {e}"))?;
                        let engine = Engine::new(EngineSetup {
                            spill_dir: Some(scratch.path()),
                            spill_idle: false,
                        });
                        let connections = CLIENTS * batches_per_server(&self.corpus);
                        let server = Server::start(&engine, connections)?;
                        Ok::<_, String>((scratch, engine, server))
                    })?;
                let done = Barrier::new(CLIENTS);
                std::thread::scope(|scope| {
                    for lane in &mut lanes {
                        let (server, corpus, done) = (&server, &self.corpus, &done);
                        scope.spawn(move || fanin_client(server, corpus, lane, done));
                    }
                });
                while_lanes_wait(&mut lanes, "serve.server_stop", || {
                    let joined = server.join();
                    drop(engine);
                    drop(scratch);
                    joined
                })?;
            }
            Ok(())
        })();
        if let Err(e) = served {
            lanes[0].tally.check(false, || e);
        }
        phase_of(lanes, &self.corpus, started.elapsed().as_secs_f64())
    }

    fn probes(&mut self, layers: &mut Layers, tally: &mut Tally) -> Result<(), String> {
        probes::checker(&self.corpus, layers)?;
        probes::serving(&self.corpus, layers, tally)
    }
}

// ---- serve-spill -----------------------------------------------------------

/// Where a session is detached: three quarters in, because that is where
/// two thirds of the corpus's sessions hold shadow pages (half-way only
/// one in nine does) and a session without pages is not spilled.
fn detach_point(trace_len: usize) -> usize {
    trace_len * 3 / 4
}

/// The same `ServeEngine`, used for writes instead of reads: one thread
/// drives `open → feed(first three quarters) → detach → resume →
/// feed(rest) → close` with idle sessions spilled at once, and after
/// every pass the engine is dropped with the pass's last session
/// mid-flight and rebuilt with `ServeEngine::recover`. One operation is
/// one pass: each of the 80 sessions through spill → restore, and the
/// crash and recovery that interrupt it. Snapshot codec and disk: a
/// change that speeds ingest by deferring or fattening journal or
/// snapshot state costs here, and a snapshot-format change is priced
/// here. (One thread, not two: the process runs on one hardware thread,
/// where a second driver adds time slices to every pass and nothing to
/// the engine.)
pub struct Spill {
    /// The traces of the full corpus that hold shadow pages at their
    /// detach point (80 of 120), so that every operation really is a
    /// spill and a restore: the engine does not spill a session without
    /// pages, and an engine dropped while it holds a resident unfinished
    /// session is never freed (engine and ingest hold each other; its
    /// pool worker would keep polling for the rest of the run).
    corpus: Corpus,
    rng: Rng,
}

impl Spill {
    pub fn setup(seed: u64) -> Result<Spill, String> {
        let mut corpus = Corpus::full()?;
        let mut spills = spills_when_detached(&corpus)?.into_iter();
        corpus.traces.retain(|_| spills.next() == Some(true));
        Ok(Spill {
            corpus,
            rng: Rng::new(seed),
        })
    }
}

/// One pass on a scratch engine: feed each trace up to its detach
/// point, detach, and see whether the engine spilled it (a session
/// without shadow pages stays resident).
fn spills_when_detached(corpus: &Corpus) -> Result<Vec<bool>, String> {
    let scratch = ScratchDir::new().map_err(|e| format!("scratch: {e}"))?;
    let engine = Engine::new(EngineSetup {
        spill_dir: Some(scratch.path()),
        spill_idle: true,
    });
    let mut spills = Vec::with_capacity(corpus.traces.len());
    for (id, trace) in corpus.traces.iter().enumerate() {
        let (fed, spilled, _) = feed_head_and_detach(&engine, id as u64, &trace.bytes)?;
        spills.push(spilled);
        resume_and_finish(&engine, id as u64, &trace.bytes, fed)?;
    }
    Ok(spills)
}

/// On an engine no other thread is using: open `id`, feed `bytes` up to
/// the detach point and detach. Returns the bytes fed, whether the engine
/// spilled the session, and how long the detach took in nanoseconds.
pub fn feed_head_and_detach(
    engine: &Engine,
    id: u64,
    bytes: &[u8],
) -> Result<(u64, bool, f64), String> {
    let spilled_before = engine.counts().sessions_spilled;
    engine.open(id)?;
    let fed = engine.feed(id, 0, &bytes[..detach_point(bytes.len())])?;
    let t = Instant::now();
    engine.detach(id);
    let detach_ns = t.elapsed().as_nanos() as f64;
    let spilled = engine.counts().sessions_spilled > spilled_before;
    Ok((fed, spilled, detach_ns))
}

/// Resume a detached session at `fed`, feed the rest and close it.
pub fn resume_and_finish(
    engine: &Engine,
    id: u64,
    bytes: &[u8],
    fed: u64,
) -> Result<String, String> {
    engine.resume(id)?;
    engine.feed(id, fed, &bytes[fed as usize..])?;
    engine.close_json(id)
}

/// Open a session, feed it up to its detach point and detach it (which
/// spills it).
fn spill_head(
    engine: &Engine,
    corpus: &Corpus,
    lane: &mut Lane,
    trace: usize,
) -> Result<Pending, String> {
    let id = lane.next_id();
    let bytes = &corpus.traces[trace].bytes;
    let head = detach_point(bytes.len());
    let t = Instant::now();
    let op = lane.spans.enter("harness.op");
    let fed = (|| {
        lane.spans.leaf("serve.engine_open", || engine.open(id))?;
        let fed = lane
            .spans
            .leaf("serve.engine_feed", || engine.feed(id, 0, &bytes[..head]))?;
        lane.spans.leaf("serve.engine_detach", || engine.detach(id));
        Ok(fed)
    })();
    lane.spans.exit(op);
    fed.map(|fed| Pending {
        id,
        trace,
        fed,
        first_ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

/// Resume a detached (spilled, possibly recovered) session, feed the
/// rest, close it and check its summary.
fn spill_tail(engine: &Engine, corpus: &Corpus, lane: &mut Lane, p: Pending) {
    let trace = &corpus.traces[p.trace];
    let t = Instant::now();
    let op = lane.spans.enter("harness.op");
    let json = (|| {
        let acked = lane
            .spans
            .leaf("serve.engine_resume", || engine.resume(p.id))?;
        if acked != p.fed {
            return Err(format!("resumed at {acked}, fed {}", p.fed));
        }
        lane.spans.leaf("serve.engine_feed", || {
            engine.feed(p.id, acked, &trace.bytes[acked as usize..])
        })?;
        lane.spans
            .leaf("serve.engine_close", || engine.close_json(p.id))
    })();
    let (ok, what) = match json {
        Ok(json) => (
            adapter::summary_tail(&json) == trace.oracle,
            format!(
                "{}: spilled summary differs from the solo oracle",
                trace.name
            ),
        ),
        Err(e) => (false, e),
    };
    lane.tally.check(ok, || what);
    lane.spans.exit(op);
    let session_ms = p.first_ms + t.elapsed().as_secs_f64() * 1e3;
    lane.book(session_ms, 1, corpus.traces.len());
}

/// One engine life: finish the session carried over the restart, then
/// `sessions` more, leaving the last one mid-flight.
fn spill_epoch(engine: &Engine, corpus: &Corpus, lane: &mut Lane, sessions: usize) {
    if let Some(p) = lane.carry.take() {
        spill_tail(engine, corpus, lane, p);
    }
    for n in 0..sessions {
        let t_session = Instant::now();
        let trace = lane.next_trace(corpus.traces.len());
        let pending = match spill_head(engine, corpus, lane, trace) {
            Ok(p) => p,
            Err(e) => {
                lane.tally.check(false, || e);
                lane.book(0.0, 1, corpus.traces.len());
                continue;
            }
        };
        if n + 1 == sessions {
            lane.carry = Some(pending);
            break;
        }
        spill_tail(engine, corpus, lane, pending);
        let served_s = t_session.elapsed().as_secs_f64();
        lane.sample_solo(corpus, &[trace], served_s);
    }
}

impl Workload for Spill {
    fn setup_tally(&mut self) -> Tally {
        Tally::default()
    }

    fn trace_bytes_per_event(&self) -> f64 {
        self.corpus.bytes_per_event()
    }

    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> (Phase, Vec<Spans>) {
        let mut lane = Lane::new(self.rng.split(), 0, traced, origin);
        let started = Instant::now();
        let served = (|| -> Result<(), String> {
            let scratch = ScratchDir::new().map_err(|e| format!("scratch: {e}"))?;
            let setup = EngineSetup {
                spill_dir: Some(scratch.path()),
                spill_idle: true,
            };
            let mut engine = Engine::new(setup);
            loop {
                // After the deadline one last engine life closes the
                // sessions still mid-flight.
                let sessions = if started.elapsed().as_secs_f64() < seconds {
                    self.corpus.traces.len()
                } else {
                    0
                };
                spill_epoch(&engine, &self.corpus, &mut lane, sessions);
                if sessions == 0 {
                    return Ok(());
                }
                // The crash: the engine goes away with a session
                // mid-flight; the next one re-registers it from disk.
                // The restart belongs to the pass it interrupts.
                let t = Instant::now();
                let recovered = lane.spans.leaf("serve.engine_restart", || {
                    drop(engine);
                    Engine::recover(setup)
                });
                lane.pass_ms += t.elapsed().as_secs_f64() * 1e3;
                engine = recovered?;
            }
        })();
        if let Err(e) = served {
            lane.tally.check(false, || e);
        }
        phase_of(vec![lane], &self.corpus, started.elapsed().as_secs_f64())
    }

    fn probes(&mut self, layers: &mut Layers, tally: &mut Tally) -> Result<(), String> {
        probes::checker(&self.corpus, layers)?;
        probes::serving(&self.corpus, layers, tally)
    }
}
