//! Record / replay driver for the event-pipeline trace formats.
//!
//! A recorded trace replays the exact event stream a rank emitted through
//! a fresh detector, offline — no device, no MPI, no application. Because
//! the checker sink is the single apply path for both the live run and
//! the replay, the replay must reproduce the live race reports, detector
//! counters, and Table-I event counters bit-for-bit; `check` verifies
//! exactly that — for the recorded bytes *and* their transcoded twin in
//! the other format, through the one replay oracle every test uses
//! (`RankOutcome::replay_mismatches`) — and exits non-zero on any
//! divergence.
//!
//! Usage:
//!
//! ```text
//! replay_trace record <dir>      record Jacobi, TeaLeaf and TeaLeaf with
//!                                its halo-exchange sync removed (MUST &
//!                                CuSan) and write one text .trace file
//!                                per rank (`transcode` makes binary)
//! replay_trace replay <file>...  replay traces (either format, sniffed),
//!                                print reports + stats
//! replay_trace transcode <in> <out>  rewrite a trace into the other
//!                                format (text ⇄ binary), record-for-record
//! replay_trace check             record, replay, compare live vs replay
//!                                vs transcoded twin (the CI gate)
//! ```

use cusan::{replay_stream, transcode, Flavor, TraceError, TraceFormat, TraceReader, TraceRecord};
use cusan_apps::{run_jacobi_traced, run_tealeaf_traced, JacobiConfig, RaceMode, TeaLeafConfig};
use cusan_bench::banner;
use must_rt::RankOutcome;
use std::time::{Duration, Instant};

fn small_jacobi() -> JacobiConfig {
    JacobiConfig {
        nx: 64,
        ny: 32,
        ranks: 2,
        iters: 4,
        ..JacobiConfig::default()
    }
}

fn small_tealeaf() -> TeaLeafConfig {
    TeaLeafConfig {
        nx: 16,
        ny: 16,
        ranks: 2,
        steps: 1,
        ..TeaLeafConfig::default()
    }
}

/// Record both mini-apps, and TeaLeaf once more with the sync before its
/// halo exchange removed (the run that has races to replay); returns (app
/// name, live rank outcomes, live wall time) per run.
fn record_apps() -> Vec<(&'static str, Vec<RankOutcome>, Duration)> {
    let j = run_jacobi_traced(&small_jacobi(), Flavor::MustCusan);
    let t = run_tealeaf_traced(&small_tealeaf(), Flavor::MustCusan);
    let racy = TeaLeafConfig {
        race: RaceMode::SkipSyncBeforeExchange,
        ..small_tealeaf()
    };
    let r = run_tealeaf_traced(&racy, Flavor::MustCusan);
    vec![
        ("jacobi", j.outcome.ranks, j.elapsed),
        ("tealeaf", t.outcome.ranks, t.elapsed),
        ("tealeaf_racy", r.outcome.ranks, r.elapsed),
    ]
}

/// Rank and event count of a trace, off the streaming reader.
fn census(bytes: &[u8]) -> Result<(usize, usize), TraceError> {
    let reader = TraceReader::new(bytes)?;
    let rank = reader.header().rank;
    let mut events = 0;
    for rec in reader {
        if let TraceRecord::Event(_) = rec? {
            events += 1;
        }
    }
    Ok((rank, events))
}

fn cmd_record(dir: &str) -> i32 {
    std::fs::create_dir_all(dir).expect("create output directory");
    for (app, ranks, _) in record_apps() {
        for r in &ranks {
            let path = format!("{dir}/{app}_rank{}.trace", r.rank);
            let bytes = r.trace.as_deref().unwrap();
            std::fs::write(&path, bytes).expect("write trace");
            println!(
                "wrote {path} ({} bytes {}, {} races live)",
                bytes.len(),
                TraceFormat::of(bytes).name(),
                r.races.len()
            );
        }
    }
    0
}

fn cmd_replay(files: &[String]) -> i32 {
    let mut status = 0;
    for f in files {
        let bytes = match std::fs::read(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{f}: {e}");
                status = 1;
                continue;
            }
        };
        let start = Instant::now();
        let replayed = replay_stream(&bytes[..]);
        let dt = start.elapsed();
        match (census(&bytes), replayed) {
            (Ok((rank, events)), Ok(outcome)) => {
                println!(
                    "{f}: rank {rank} — {events} events ({}), {} races, {} fiber switches, {:.2?}",
                    TraceFormat::of(&bytes).name(),
                    outcome.reports.len(),
                    outcome.stats.fiber_switches,
                    dt
                );
                for rep in &outcome.reports {
                    println!("{rep}");
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{f}: parse error: {e}");
                status = 1;
            }
        }
    }
    status
}

fn cmd_transcode(input: &str, output: &str) -> i32 {
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{input}: {e}");
            return 1;
        }
    };
    let to = TraceFormat::of(&bytes).other();
    match transcode(&bytes[..], to) {
        Ok(out) => {
            std::fs::write(output, &out).expect("write transcoded trace");
            println!(
                "{input} ({} bytes {}) -> {output} ({} bytes {})",
                bytes.len(),
                TraceFormat::of(&bytes).name(),
                out.len(),
                to.name()
            );
            0
        }
        Err(e) => {
            eprintln!("{input}: transcode error: {e}");
            1
        }
    }
}

fn cmd_check() -> i32 {
    banner(
        "trace record/replay fidelity check",
        "records Jacobi + TeaLeaf (MUST & CuSan), replays each rank's trace\n\
         plus its transcoded twin in the other format, and compares race\n\
         reports, detector stats, and event counters",
    );
    let mut errs = Vec::new();
    for (app, ranks, live) in record_apps() {
        let mut replay_total = Duration::ZERO;
        let mut events = 0usize;
        for r in &ranks {
            let start = Instant::now();
            errs.extend(
                r.replay_mismatches()
                    .into_iter()
                    .map(|e| format!("{app} {e}")),
            );
            replay_total += start.elapsed();
            if let Some(t) = &r.trace {
                events += census(t).map_or(0, |(_, n)| n);
            }
        }
        println!(
            "{app:<12} live {live:>10.2?}  replay {replay_total:>10.2?}  ({events} events, {} ranks)",
            ranks.len()
        );
    }
    if errs.is_empty() {
        println!("OK: replay reproduced every live report and counter exactly, in both formats");
        0
    } else {
        for e in &errs {
            eprintln!("MISMATCH: {e}");
        }
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("record") => {
            let dir = args.get(1).map(String::as_str).unwrap_or("traces");
            cmd_record(dir)
        }
        Some("replay") if args.len() > 1 => cmd_replay(&args[1..]),
        Some("transcode") if args.len() == 3 => cmd_transcode(&args[1], &args[2]),
        Some("check") | None => cmd_check(),
        _ => {
            eprintln!(
                "usage: replay_trace [record <dir> | replay <file>... | transcode <in> <out> | check]"
            );
            2
        }
    };
    std::process::exit(code);
}
