//! The week-long server, in miniature: one real `cusan-serve listen`
//! process takes pass after pass of the corpus — the golden TeaLeaf
//! fixture in both encodings plus every testsuite program's rank traces
//! — through `cusan-serve check --serve`, with sessions that lose their
//! connection mid-stream (and resume) and sessions that are abandoned
//! for the idle sweep. Its resident set and thread count, read from
//! `/proc/<pid>/status`, must be flat once warm, and every summary must
//! be byte-identical to a solo replay.
//!
//! "Flat" for the resident set is judged against what keeping finished
//! sessions would cost, not as a percentage of the idle server: idle it
//! is ≈ 4 MiB, of which one cached thread stack is 8 %, and it wanders
//! by 1–3 MiB over fifty passes with nothing retained. A pass of
//! sessions weighs ≈ 5 MiB while live (peak minus idle, both measured
//! here), which a server that kept them would add on every pass; the
//! idle server may grow by at most two of those, however many passes
//! run.

mod common;

use common::unique_scratch_dir;
use cusan_serve::proto::{
    close_frame, data_frame, heartbeat_frame, parse_reply, quit_frame, read_frame, resume_frame,
    write_frame,
};
use cusan_serve::{solo_summary, summary_to_json, Reply};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_cusan-serve");
const DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
/// Idle expiry of the server under test: short, so abandoned sessions
/// are swept while the soak still runs.
const IDLE_TIMEOUT_MS: u64 = 200;
/// Threads of the idle server: main and the idle sweeper.
const IDLE_THREADS: u64 = 2;

/// A `cusan-serve listen` child on a loopback port, killed on drop.
struct Listen {
    child: Child,
    addr: String,
    scratch: PathBuf,
}

impl Listen {
    fn start(tag: &str) -> Listen {
        let scratch = unique_scratch_dir(tag);
        std::fs::create_dir_all(scratch.join("spill")).expect("create scratch dir");
        let mut child = Command::new(SERVE)
            .args(["listen", "127.0.0.1:0", "--check-threads", "2"])
            .args(["--idle-timeout-ms", &IDLE_TIMEOUT_MS.to_string()])
            .args(["--live-budget", "0"]) // a detached session is spilled at once
            .arg("--spill-dir")
            .arg(scratch.join("spill"))
            // Measure what the server holds, not what glibc caches for
            // it: by default every new thread (each connection is one)
            // gets an arena of its own, up to eight per core, and freed
            // memory stays in them, so the resident set follows how
            // many arenas the run has warmed so far and keeps stepping
            // up for hundreds of passes.
            .env("MALLOC_ARENA_MAX", "1")
            .env("MALLOC_TRIM_THRESHOLD_", "0")
            .env("MALLOC_TOP_PAD_", "0")
            .env("MALLOC_MMAP_THRESHOLD_", "4096")
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cusan-serve listen");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        stderr
            .read_line(&mut line)
            .expect("read the listening line");
        let addr = line
            .strip_prefix("cusan-serve: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .to_string();
        assert!(
            line.contains(&format!("idle-timeout-ms {IDLE_TIMEOUT_MS}"))
                && line.contains("max-sessions 1024"),
            "limits are echoed: {line:?}"
        );
        // Keep the pipe drained so a logging server never blocks on it.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Listen {
            child,
            addr,
            scratch,
        }
    }

    /// A field of the child's `/proc/<pid>/status`, in its own unit
    /// (`VmRSS` is in kB).
    fn status(&self, field: &str) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc status of the server");
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("no {field} in {status}"))
    }

    /// Wait until the server is idle — no session left on disk (the
    /// sweep took the abandoned ones), pool workers and connection
    /// threads gone — and return its `(VmRSS, Threads)`.
    fn settle(&self) -> (u64, u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let files = std::fs::read_dir(self.scratch.join("spill"))
                .expect("spill dir")
                .count();
            let threads = self.status("Threads");
            if (files == 0 && threads <= IDLE_THREADS) || Instant::now() >= deadline {
                assert_eq!(files, 0, "sessions left on disk after the idle sweep");
                return (self.status("VmRSS"), threads);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Listen {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The corpus as files `check --serve` can be handed, with each one's
/// solo summary.
struct Corpus {
    files: Vec<PathBuf>,
    traces: Vec<Vec<u8>>,
    solo: Vec<cusan::SessionSummary>,
}

fn corpus(dir: &Path) -> Corpus {
    let mut files = vec![
        Path::new(DATA).join("tealeaf_small.trace"),
        Path::new(DATA).join("tealeaf_small.trace.bin"),
    ];
    for (i, case) in cusan_apps::testsuite::cases().iter().enumerate() {
        let out =
            cusan_apps::testsuite::run_case_scheduled(case, explore::SchedulePlan::defaults(2));
        for rank in out.ranks {
            let path = dir.join(format!("program-{i}-r{}.trace", rank.rank));
            std::fs::write(&path, rank.trace.expect("scheduled runs are traced"))
                .expect("write a rank trace");
            files.push(path);
        }
    }
    let traces: Vec<Vec<u8>> = files
        .iter()
        .map(|f| std::fs::read(f).expect("read a corpus trace"))
        .collect();
    let solo = traces
        .iter()
        .map(|t| solo_summary(t).expect("corpus traces replay"))
        .collect();
    Corpus {
        files,
        traces,
        solo,
    }
}

/// One frame exchange on a raw connection.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: &str) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone the stream")),
            writer: stream,
        }
    }

    fn send(&mut self, frame: &[u8]) {
        write_frame(&mut self.writer, frame).expect("write a frame");
    }

    fn reply(&mut self) -> Reply {
        let payload = read_frame(&mut self.reader)
            .expect("read a reply")
            .expect("server closed the connection");
        parse_reply(&payload).expect("parse a reply")
    }

    /// Send `trace[from..to]` in 4 KiB frames.
    fn stream(&mut self, id: u64, trace: &[u8], from: usize, to: usize) {
        for (i, chunk) in trace[from..to].chunks(4096).enumerate() {
            self.send(&data_frame(id, (from + i * 4096) as u64, chunk));
        }
    }
}

/// A session that loses its connection half-way, resumes on a new one
/// at the offset the server reports (all of the first half — or none of
/// it, had this client stalled past the idle timeout), and finishes.
fn disconnect_and_resume(addr: &str, id: u64, trace: &[u8], solo: &cusan::SessionSummary) {
    let half = trace.len() / 2;
    let mut first = Wire::connect(addr);
    first.send(&resume_frame(id));
    assert_eq!(first.reply(), Reply::Ack { id, acked: 0 });
    first.stream(id, trace, 0, half);
    // The ack proves the server consumed every frame before the drop.
    first.send(&heartbeat_frame(id));
    let acked = half as u64;
    assert_eq!(first.reply(), Reply::Ack { id, acked });
    drop(first);

    let mut second = Wire::connect(addr);
    second.send(&resume_frame(id));
    let from = match second.reply() {
        Reply::Ack { acked: 0, .. } => 0,
        reply => {
            assert_eq!(reply, Reply::Ack { id, acked });
            half
        }
    };
    second.stream(id, trace, from, trace.len());
    second.send(&close_frame(id));
    second.send(&quit_frame());
    let json = summary_to_json(id, solo);
    assert_eq!(second.reply(), Reply::Summary { id, json });
}

/// A session whose client goes away for good a third of the way in.
fn abandon(addr: &str, id: u64, trace: &[u8]) {
    let mut wire = Wire::connect(addr);
    wire.send(&resume_frame(id));
    assert_eq!(wire.reply(), Reply::Ack { id, acked: 0 });
    wire.stream(id, trace, 0, trace.len() / 3);
    wire.send(&heartbeat_frame(id));
    assert!(matches!(wire.reply(), Reply::Ack { .. }));
}

/// One pass: the whole corpus through `check --serve`, three sessions
/// that disconnect and resume, one that is abandoned.
fn pass(server: &Listen, corpus: &Corpus, pass: u64) {
    let out = Command::new(SERVE)
        .args(["check", "--serve", &server.addr, "--chunk", "4096"])
        .args(&corpus.files)
        .output()
        .expect("run cusan-serve check");
    assert!(
        out.status.success(),
        "pass {pass}: check --serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("summaries are UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), corpus.files.len(), "pass {pass}");
    for (i, (line, solo)) in lines.iter().zip(&corpus.solo).enumerate() {
        assert_eq!(
            *line,
            summary_to_json(i as u64, solo),
            "pass {pass}: {} diverged from solo replay",
            corpus.files[i].display()
        );
    }
    for k in 0..3 {
        let i = (pass as usize * 3 + k) % corpus.traces.len();
        let id = 1_000_000 + pass * 10 + k as u64;
        disconnect_and_resume(&server.addr, id, &corpus.traces[i], &corpus.solo[i]);
    }
    abandon(&server.addr, 2_000_000 + pass, &corpus.traces[0]);
}

/// Run `passes` passes and compare the idle server after the last with
/// the idle server after pass `warm` (see the module docs for the
/// resident-set bound); its thread count may differ by two.
fn soak(tag: &str, warm: u64, passes: u64) {
    let server = Listen::start(tag);
    let corpus = corpus(&server.scratch);
    let mut warm_state = None;
    for p in 1..=passes {
        pass(&server, &corpus, p);
        if p == warm {
            let (rss, threads) = server.settle();
            warm_state = Some((rss, threads, server.status("VmHWM")));
        }
    }
    let (warm_rss, warm_threads, warm_peak) = warm_state.expect("warm <= passes");
    let (rss, threads) = server.settle();
    let pass_cost = warm_peak - warm_rss;
    assert!(
        rss <= warm_rss + 2 * pass_cost,
        "VmRSS grew from {warm_rss} kB idle after pass {warm} to {rss} kB idle after pass \
         {passes}; a pass of live sessions weighs {pass_cost} kB"
    );
    assert!(
        threads <= warm_threads + 2,
        "Threads grew from {warm_threads} after pass {warm} to {threads} after pass {passes}"
    );
}

#[test]
fn ten_passes_leave_the_server_flat() {
    soak("soak-listen-10", 3, 10);
}

#[test]
#[ignore = "≈ 20 s: CI's soak job runs it in release"]
fn fifty_passes_leave_the_server_flat() {
    soak("soak-listen-50", 10, 50);
}

#[test]
fn connection_churn_leaves_no_thread_behind() {
    // `serve_listener` spawns a scoped thread per connection and never
    // leaves its scope: 200 connections, one after the other, each a
    // whole session, must leave the process with the threads it started
    // with.
    let server = Listen::start("soak-listen-churn");
    let golden = std::fs::read(Path::new(DATA).join("tealeaf_small.trace")).expect("golden");
    let solo = solo_summary(&golden).expect("golden replays");
    for id in 0..200 {
        let mut wire = Wire::connect(&server.addr);
        wire.send(&resume_frame(id));
        assert_eq!(wire.reply(), Reply::Ack { id, acked: 0 });
        wire.stream(id, &golden, 0, golden.len());
        wire.send(&close_frame(id));
        let json = summary_to_json(id, &solo);
        assert_eq!(wire.reply(), Reply::Summary { id, json });
        if id % 2 == 0 {
            wire.send(&quit_frame()); // odd ones just hang up
        }
    }
    assert_eq!(server.settle().1, IDLE_THREADS);
}

#[test]
fn an_unknown_option_is_a_usage_error_not_an_address() {
    // `--global-budget` is gone; before, an unrecognised `--flag` was
    // taken for a positional and `listen` tried to bind it.
    for args in [
        &["listen", "--global-budget", "5", "127.0.0.1:0"][..],
        &["check", "--no-such-flag", "x.trace"][..],
        // A listen option: offline `check` is solo replay, no pool.
        &["check", "--check-threads", "2", "x.trace"][..],
    ] {
        let out = Command::new(SERVE).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {}", args[1])) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn offline_check_reports_every_file_and_counts_the_failures() {
    // `check a b c` stopped at the first bad file: `c` was never
    // checked. Same contract as `check --serve` now — a line per file,
    // exit 1 with the count.
    let golden = Path::new(DATA).join("tealeaf_small.trace");
    let missing = Path::new(DATA).join("no-such.trace");
    let header_only = Path::new(DATA).join("../trace_fixture.rs"); // not a trace
    let out = Command::new(SERVE)
        .arg("check")
        .args([&golden, &missing, &golden, &header_only, &golden])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let solo = solo_summary(std::fs::read(&golden).expect("golden")).expect("golden replays");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let summaries: Vec<String> = [0, 2, 4].map(|id| summary_to_json(id, &solo)).to_vec();
    assert_eq!(stdout.lines().collect::<Vec<_>>(), summaries);
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 3, "{stderr}");
    for (line, path) in lines.iter().zip([&missing, &header_only]) {
        let prefix = format!("cusan-serve: {}: ", path.display());
        assert!(line.starts_with(&prefix), "{line}");
    }
    assert_eq!(lines[2], "cusan-serve: 2 of 5 traces failed");
}

#[test]
fn help_names_every_option_with_its_default_and_exits_zero() {
    let run = |args: &[&str]| Command::new(SERVE).args(args).output().expect("run");
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(help.stderr.is_empty(), "help goes to stdout");
    let text = String::from_utf8(help.stdout).expect("utf-8");
    for needle in [
        "cusan-serve listen <addr>",
        "cusan-serve check <trace-file>...",
        "--check-threads N",
        "--max-sessions N",
        "(default 1024)",
        "--spill-dir DIR",
        "--live-budget P",
        "--idle-timeout-ms MS",
        "(default 3600000)",
        "--serve ADDR",
        "--retries N",
        "(default 16)",
        "--backoff-ms MS",
        "(default 10)",
        "--chunk B",
        "(default 65536)",
    ] {
        assert!(text.contains(needle), "no {needle:?} in\n{text}");
    }
    for args in [&["-h"][..], &["check", "x.trace", "-h"][..]] {
        let out = run(args);
        assert_eq!(
            (out.status.code(), &out.stdout[..]),
            (Some(0), text.as_bytes()),
            "{args:?}"
        );
    }
    // A usage error carries the same text, on stderr, and keeps exit 2.
    for args in [&[][..], &["serve"][..], &["listen", "--max-sessions"][..]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(text.trim_end()), "{args:?}: {stderr}");
    }
}
