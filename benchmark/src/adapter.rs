//! Every call into the product, in one file.
//!
//! The benchmark measures what a user gets, so this file uses product
//! defaults only: no environment knob, none of the execution-strategy
//! fields of `ToolConfig`/`EngineConfig`, and only these entry points —
//! `Flavor`, `ToolConfig{track_access_ranges, bounded_tracking,
//! ..Flavor::config()}`, `run_jacobi[_traced]`, `run_tealeaf[_traced]`,
//! `testsuite::{cases, check_case, wildcard_schedule_race,
//! run_case_scheduled, outcome_digest}`, `AppKernels::shared`,
//! `run_checked_world`, `explore::explore`, `SchedulePlan::defaults`,
//! `TraceReader`, `TracePushParser`, `TraceRecord`, `CusanEvent` (to
//! class events), `CheckSession::{new, intern_shared, apply,
//! into_summary, snapshot_bytes, restore_bytes, shadow_pages}`,
//! `SessionOptions::for_trace`, `solo_summary`, `summary_to_json`,
//! `SessionIngest`, `ServeEngine`, `EngineConfig`, `SharedLabels`,
//! `serve_listener` and the `proto` frame helpers. A later change that
//! deletes anything else from the product needs no benchmark edit.

use crate::spans::Spans;
use cusan::{
    CheckSession, CusanEvent, Flavor, SessionOptions, ToolConfig, TracePushParser, TraceReader,
};
use cusan_apps::testsuite;
use cusan_apps::{
    run_jacobi, run_jacobi_traced, run_tealeaf, run_tealeaf_traced, AppKernels, JacobiConfig,
    RaceMode, TeaLeafConfig,
};
use cusan_serve::proto::{
    close_frame, data_frame, open_frame, parse_reply, quit_frame, read_frame, write_frame, Reply,
};
use cusan_serve::{
    serve_listener, solo_summary, summary_to_json, EngineConfig, ServeEngine, SessionIngest,
    SharedLabels,
};
use must_rt::{run_checked_world, WorldOutcome};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

// Product types the rest of the benchmark holds but never calls into.
pub use cusan::{SessionSummary, TraceRecord};
pub use cusan_apps::testsuite::Case;

// ---- live mini-apps --------------------------------------------------------

/// A mini-app at a fixed size, always on two ranks.
#[derive(Debug, Clone, Copy)]
pub enum AppConfig {
    Jacobi { nx: u64, ny: u64, iters: u32 },
    TeaLeaf { nx: u64, ny: u64, steps: u32 },
}

/// The tool stacks the benchmark runs an app under: the paper's five
/// flavors plus its two tracking ablations on the full stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tools {
    Vanilla,
    Tsan,
    Must,
    Cusan,
    MustCusan,
    /// §V-B: the full stack without memory-range annotations.
    NoRanges,
    /// §VI-D: tid-bounded arguments annotate only `grid × elem` bytes.
    Bounded,
}

impl Tools {
    fn config(self) -> ToolConfig {
        match self {
            Tools::Vanilla => Flavor::Vanilla.config(),
            Tools::Tsan => Flavor::Tsan.config(),
            Tools::Must => Flavor::Must.config(),
            Tools::Cusan => Flavor::Cusan.config(),
            Tools::MustCusan => Flavor::MustCusan.config(),
            Tools::NoRanges => ToolConfig {
                track_access_ranges: false,
                ..Flavor::MustCusan.config()
            },
            Tools::Bounded => ToolConfig {
                bounded_tracking: true,
                ..Flavor::MustCusan.config()
            },
        }
    }
}

/// What one app run produced, reduced to what the oracle and the
/// metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveOutcome {
    pub races: u64,
    /// Bit patterns of the numerical result (Jacobi: final norm;
    /// TeaLeaf: CG iterations and final ‖r‖²). Equal bits ⇔ the checked
    /// run computed exactly what the unchecked one did.
    pub result_bits: [u64; 2],
    /// `total_tool_memory()`.
    pub tool_bytes: u64,
    /// Peak application bytes in the simulated address space.
    pub app_bytes: u64,
    /// Bytes covered by range annotations, all ranks.
    pub tracked_bytes: u64,
    /// Per-rank recorded traces (empty unless `record`).
    pub traces: Vec<Vec<u8>>,
}

fn live_outcome<T>(out: WorldOutcome<T>, result_bits: [u64; 2]) -> LiveOutcome {
    LiveOutcome {
        races: out.total_races(),
        result_bits,
        tool_bytes: out.total_tool_memory(),
        app_bytes: out.space.peak_bytes,
        tracked_bytes: out
            .ranks
            .iter()
            .map(|r| r.tsan.read_bytes + r.tsan.write_bytes)
            .sum(),
        traces: out.ranks.into_iter().filter_map(|r| r.trace).collect(),
    }
}

/// Run `app` under `tools`; `skip_sync` injects the paper's Fig. 4 bug.
pub fn run_app(app: AppConfig, tools: Tools, skip_sync: bool, record: bool) -> LiveOutcome {
    let race = if skip_sync {
        RaceMode::SkipSyncBeforeExchange
    } else {
        RaceMode::None
    };
    match app {
        AppConfig::Jacobi { nx, ny, iters } => {
            let cfg = JacobiConfig {
                nx,
                ny,
                ranks: 2,
                iters,
                race,
            };
            let run = if record {
                run_jacobi_traced(&cfg, tools.config())
            } else {
                run_jacobi(&cfg, tools.config())
            };
            let bits = [run.final_norm.to_bits(), u64::from(iters)];
            live_outcome(run.outcome, bits)
        }
        AppConfig::TeaLeaf { nx, ny, steps } => {
            let cfg = TeaLeafConfig {
                nx,
                ny,
                steps,
                race,
                ..TeaLeafConfig::default()
            };
            let run = if record {
                run_tealeaf_traced(&cfg, tools.config())
            } else {
                run_tealeaf(&cfg, tools.config())
            };
            let bits = [run.cg.rr.to_bits(), u64::from(run.cg.iterations)];
            live_outcome(run.outcome, bits)
        }
    }
}

// ---- the testsuite, MUST worlds and the explorer ---------------------------

/// The 60 classified programs.
pub fn programs() -> Vec<Case> {
    testsuite::cases()
}

/// Run a program under the full stack; true iff the verdict matches the
/// program's known answer (`Case::expected`).
pub fn verdict_matches(case: &Case) -> bool {
    testsuite::check_case(case).is_ok()
}

/// The same program with no tool attached (the overhead denominator).
pub fn run_program_vanilla(case: &Case) {
    let k = AppKernels::shared();
    let run = case.run;
    black_box(run_checked_world(
        2,
        Flavor::Vanilla,
        Arc::clone(&k.registry),
        move |ctx| run(ctx, k),
    ));
}

/// Record a program's two rank traces (default schedule).
pub fn record_program(case: &Case) -> Vec<Vec<u8>> {
    let out = testsuite::run_case_scheduled(case, explore::SchedulePlan::defaults(2));
    out.ranks.into_iter().filter_map(|r| r.trace).collect()
}

/// A two-rank checked world with an empty body: spawn + teardown only.
pub fn spawn_empty_world() {
    let k = AppKernels::shared();
    black_box(run_checked_world(
        2,
        Flavor::MustCusan,
        Arc::clone(&k.registry),
        |_ctx| (),
    ));
}

/// Budgeted schedule search over the planted wildcard race. Returns
/// (schedules run, index of the first schedule that raced or 0, whether
/// the default schedule was clean).
pub fn explore_planted_race(budget: usize) -> (usize, usize, bool) {
    let case = testsuite::wildcard_schedule_race();
    let mut executed = 0;
    let mut found_at = 0;
    let report = explore::explore(3, budget, |plan| {
        let out = testsuite::run_case_scheduled(&case, Arc::clone(plan));
        executed += 1;
        if found_at == 0 && out.total_races() > 0 {
            found_at = executed;
        }
        (testsuite::outcome_digest(&out), out.total_races())
    });
    let default_clean = report.runs.first().is_some_and(|r| r.value == 0);
    (report.stats.schedules_run, found_at, default_clean)
}

// ---- traces: decode, replay, snapshot --------------------------------------

/// The product's reference replay, as the JSON the server would reply.
pub fn solo_json(trace: &[u8]) -> Result<String, String> {
    Ok(summary_to_json(0, &solo_summary(trace)?))
}

/// A summary's JSON without its leading `"session": <id>` field, so
/// replies for different session ids compare byte for byte.
pub fn summary_tail(json: &str) -> &str {
    json.split_once(", ").map_or(json, |(_, tail)| tail)
}

pub enum EventClass {
    /// Read/write range: a shadow-memory walk.
    Range,
    /// Happens-before/after, fiber switch/create/destroy: clock work.
    Sync,
    /// No detection semantics: counters only.
    Marker,
}

pub fn classify(ev: &CusanEvent) -> EventClass {
    match ev {
        CusanEvent::ReadRange { .. } | CusanEvent::WriteRange { .. } => EventClass::Range,
        CusanEvent::HappensBefore { .. }
        | CusanEvent::HappensAfter { .. }
        | CusanEvent::FiberSwitch { .. }
        | CusanEvent::FiberCreate { .. }
        | CusanEvent::FiberDestroy { .. } => EventClass::Sync,
        _ => EventClass::Marker,
    }
}

/// Replay `trace` the way `solo_summary` does — `TraceReader` →
/// `CheckSession` → `into_summary` — with every call timed. Returns the
/// summary as JSON.
pub fn replay(trace: &[u8], spans: &mut Spans) -> Result<String, String> {
    let mut reader = spans.leaf("core.trace_header", || TraceReader::new(trace))?;
    let h = *reader.header();
    let mut session = spans.leaf("core.session_new", || {
        CheckSession::new(&SessionOptions::for_trace(h.rank, h.tiered, h.budget))
    });
    spans.lap_start();
    loop {
        let rec = reader.next();
        spans.lap("core.decode");
        let Some(rec) = rec else { break };
        match rec? {
            TraceRecord::Str { label, .. } => {
                session.intern_shared(&label);
                spans.lap("core.intern");
            }
            TraceRecord::Event(ev) => {
                session.apply(&ev);
                spans.lap(match classify(&ev) {
                    EventClass::Range => "tsan.apply_range",
                    EventClass::Sync => "tsan.apply_sync",
                    EventClass::Marker => "core.apply_marker",
                });
            }
        }
    }
    let summary = spans.leaf("core.into_summary", || session.into_summary());
    Ok(spans.leaf("serve.summary_json", || summary_to_json(0, &summary)))
}

/// Decode `trace` into a null sink: `TracePushParser` fed `chunk`-byte
/// pieces, every item dropped.
pub fn decode_only(trace: &[u8], chunk: usize) -> Result<(), String> {
    let mut parser = TracePushParser::new();
    for piece in trace.chunks(chunk.max(1)) {
        parser.feed(piece);
        while let Some(item) = parser.poll()? {
            black_box(item);
        }
    }
    parser.close();
    while let Some(item) = parser.poll()? {
        black_box(item);
    }
    Ok(())
}

/// A trace decoded once, so probes can time `intern`/`apply` alone.
pub struct Decoded {
    rank: usize,
    tiered: bool,
    budget: Option<usize>,
    pub records: Vec<TraceRecord>,
}

impl Decoded {
    pub fn events(&self) -> impl Iterator<Item = &CusanEvent> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Event(ev) => Some(ev),
            TraceRecord::Str { .. } => None,
        })
    }
}

pub fn decode(trace: &[u8]) -> Result<Decoded, String> {
    let mut reader = TraceReader::new(trace)?;
    let h = *reader.header();
    let records = (&mut reader).collect::<Result<Vec<_>, _>>()?;
    Ok(Decoded {
        rank: h.rank,
        tiered: h.tiered,
        budget: h.budget,
        records,
    })
}

/// A fresh session for a decoded trace's header.
pub struct Session(CheckSession);

impl Session {
    pub fn new(d: &Decoded) -> Session {
        Session(CheckSession::new(&SessionOptions::for_trace(
            d.rank, d.tiered, d.budget,
        )))
    }

    /// Apply one decoded record.
    pub fn feed(&mut self, rec: &TraceRecord) {
        match rec {
            TraceRecord::Str { label, .. } => {
                self.0.intern_shared(label);
            }
            TraceRecord::Event(ev) => self.0.apply(ev),
        }
    }

    pub fn shadow_pages(&self) -> usize {
        self.0.shadow_pages()
    }

    pub fn snapshot(&self) -> Vec<u8> {
        self.0.snapshot_bytes()
    }

    pub fn restore(blob: &[u8]) -> Result<Session, String> {
        CheckSession::restore_bytes(blob)
            .map(Session)
            .map_err(|e| e.to_string())
    }

    pub fn into_summary(self) -> SessionSummary {
        self.0.into_summary()
    }
}

pub fn summary_json(summary: &SessionSummary) -> String {
    summary_to_json(0, summary)
}

// ---- the serve path --------------------------------------------------------

/// The counts `ServeEngine::stats()` reports that the ledger keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub sessions_spilled: u64,
    pub sessions_restored: u64,
    pub sessions_resumed: u64,
    pub duplicate_bytes_dropped: u64,
    pub peak_resident_pages: u64,
    pub labels_unique: u64,
    pub labels_shared: u64,
}

/// How an engine is set up: journal/spill directory (as deployed) or
/// none, and whether idle unfinished sessions are spilled at once.
#[derive(Clone, Copy)]
pub struct EngineSetup<'a> {
    pub spill_dir: Option<&'a Path>,
    pub spill_idle: bool,
}

impl EngineSetup<'_> {
    fn config(self) -> EngineConfig {
        EngineConfig {
            spill_dir: self.spill_dir.map(Path::to_path_buf),
            live_page_budget: self.spill_idle.then_some(0),
            ..EngineConfig::default()
        }
    }
}

#[derive(Clone)]
pub struct Engine(Arc<ServeEngine>);

impl Engine {
    pub fn new(setup: EngineSetup) -> Engine {
        Engine(ServeEngine::new(setup.config()))
    }

    /// The restarted-server path: re-register what `spill_dir` holds.
    pub fn recover(setup: EngineSetup) -> Result<Engine, String> {
        ServeEngine::recover(setup.config())
            .map(Engine)
            .map_err(|e| format!("recover: {e}"))
    }

    pub fn open(&self, id: u64) -> Result<(), String> {
        self.0.open_new(id).map_err(|e| e.to_string())
    }

    pub fn feed(&self, id: u64, offset: u64, chunk: &[u8]) -> Result<u64, String> {
        self.0.feed(id, offset, chunk).map_err(|e| e.to_string())
    }

    pub fn detach(&self, id: u64) {
        self.0.detach(id);
    }

    pub fn resume(&self, id: u64) -> Result<u64, String> {
        self.0.resume(id).map_err(|e| e.to_string())
    }

    pub fn close_json(&self, id: u64) -> Result<String, String> {
        self.0.close(id).map(|s| summary_to_json(id, &s))
    }

    pub fn counts(&self) -> EngineCounts {
        let s = self.0.stats();
        EngineCounts {
            sessions_spilled: s.sessions_spilled,
            sessions_restored: s.sessions_restored,
            sessions_resumed: s.sessions_resumed,
            duplicate_bytes_dropped: s.duplicate_bytes_dropped,
            peak_resident_pages: s.peak_resident_pages,
            labels_unique: s.labels_unique,
            labels_shared: s.labels_shared,
        }
    }

    /// One session through `SessionIngest` alone: parser → ring → pool
    /// → summary, no registry, no journal.
    pub fn ingest_json(&self, trace: &[u8], chunk: usize) -> Result<String, String> {
        let mut ingest = SessionIngest::new(Arc::clone(&self.0));
        for piece in trace.chunks(chunk.max(1)) {
            ingest.feed(piece)?;
        }
        Ok(summary_to_json(0, &ingest.finish()?))
    }
}

/// Canonicalise `labels` through a fresh `SharedLabels` table twice
/// (first pass inserts, second pass hits); returns lookups made.
pub fn canon_labels(labels: &[Arc<str>]) -> u64 {
    let table = SharedLabels::new();
    for _ in 0..2 {
        for label in labels {
            black_box(table.canon(label));
        }
    }
    2 * labels.len() as u64
}

/// Labels of a decoded trace, for [`canon_labels`].
pub fn labels_of(d: &Decoded) -> Vec<Arc<str>> {
    d.records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Str { label, .. } => Some(Arc::clone(label)),
            TraceRecord::Event(_) => None,
        })
        .collect()
}

/// An in-process `serve_listener` on a loopback port. The product's
/// listener returns only after it has accepted `connections`
/// connections, so [`Server::join`] uses up what the clients left.
pub struct Server {
    addr: std::net::SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    connections: usize,
    connected: AtomicUsize,
}

impl Server {
    pub fn start(engine: &Engine, connections: usize) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        let engine = Arc::clone(&engine.0);
        let thread =
            std::thread::spawn(move || serve_listener(engine, listener, Some(connections)));
        Ok(Server {
            addr,
            thread,
            connections,
            connected: AtomicUsize::new(0),
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        self.connected.fetch_add(1, Ordering::Relaxed);
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Wait for the server to end, once every client has quit.
    pub fn join(self) -> Result<(), String> {
        for _ in self.connected.into_inner()..self.connections {
            // Closed at once: the server reads end-of-stream and moves on.
            TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        }
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One client connection speaking the frame protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A server reply, reduced to what the oracle needs.
pub enum Answer {
    Summary { id: u64, json: String },
    Other(String),
}

impl Conn {
    fn send(&mut self, payload: &[u8]) -> Result<(), String> {
        write_frame(&mut self.writer, payload).map_err(|e| format!("send: {e}"))
    }

    pub fn open(&mut self, id: u64) -> Result<(), String> {
        self.send(&open_frame(id))
    }

    pub fn data(&mut self, id: u64, offset: u64, chunk: &[u8]) -> Result<(), String> {
        self.send(&data_frame(id, offset, chunk))
    }

    pub fn close(&mut self, id: u64) -> Result<(), String> {
        self.send(&close_frame(id))
    }

    pub fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("flush: {e}"))
    }

    /// Send `Q` and flush; the server thread for this connection ends
    /// once it gets there. Replies already on their way can still be read.
    pub fn quit(&mut self) -> Result<(), String> {
        self.send(&quit_frame())?;
        self.flush()
    }

    pub fn reply(&mut self) -> Result<Answer, String> {
        let payload = read_frame(&mut self.reader)
            .map_err(|e| format!("reply: {e}"))?
            .ok_or("server closed the connection")?;
        match parse_reply(&payload).map_err(|e| format!("reply: {e}"))? {
            Reply::Summary { id, json } => Ok(Answer::Summary { id, json }),
            Reply::Error { id, message } => Ok(Answer::Other(format!("E {id}: {message}"))),
            Reply::Ack { id, acked } => Ok(Answer::Other(format!("A {id}: {acked}"))),
        }
    }
}

/// `write_frame` + `read_frame` of one `chunk`-byte data frame on an
/// in-memory buffer. Returns the bytes the frame occupies on the wire.
pub fn frame_round_trip(buf: &mut Vec<u8>, chunk: &[u8]) -> Result<usize, String> {
    buf.clear();
    write_frame(buf, &data_frame(1, 0, chunk)).map_err(|e| e.to_string())?;
    let wire = buf.len();
    let mut r: &[u8] = buf;
    black_box(read_frame(&mut r).map_err(|e| e.to_string())?);
    Ok(wire)
}
