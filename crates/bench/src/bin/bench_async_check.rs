//! Sync vs async checker backend sweep with a JSON trajectory record.
//!
//! Runs Jacobi, 2-D Jacobi, and TeaLeaf under the full MUST & CuSan stack
//! with checking inline (sync) and on the shared work-stealing checker
//! pool (async), prints a table, and writes `BENCH_async_check.json` to
//! the current directory (override with `CUSAN_BENCH_ASYNC_JSON`; the
//! file is git-ignored and no CI job runs this bin — it is the by-hand
//! A/B for the sync-vs-async decision ROADMAP item 2 leaves open). The
//! JSON records the hardware thread count, the effective pool worker
//! count per case (after any `CUSAN_CHECK_THREADS` override), and the
//! adaptive batch-size profile (min/max/avg plus the power-of-two
//! histogram) and the wakes `send` issued (`doorbells`, at most one per
//! 64 messages), so a regression in batch shaping or in the hand-off's
//! syscall count is visible even when wall-clock noise hides it.
//!
//! The async backend overlaps detection with application progress, so a
//! win requires spare hardware parallelism: with `available_parallelism`
//! ≥ 2 the async mode should at least break even (asserted leniently at
//! ≥ 0.5× so a noisy box does not fail it); on a single hardware thread
//! the sweep only *records* the cost of the indirection — ring traffic
//! plus context switches with nothing to overlap onto — and asserts
//! nothing. The observability counters (stalls, max queue depth) are
//! reported either way: a stall-heavy profile means the detector thread
//! cannot keep up and the ring capacity or batch size needs tuning,
//! independent of wall-clock.

use cusan::async_check::BATCH_HIST_BUCKETS;
use cusan::{effective_workers, AsyncCheckStats, Flavor, ToolConfig};
use cusan_apps::{run_jacobi, run_jacobi2d, run_tealeaf};
use cusan_bench::{
    banner, bench_runs, jacobi2d_config, jacobi_config, measure, rel, tealeaf_config,
};
use must_rt::WorldOutcome;
use std::fmt::Write as _;
use std::time::Duration;

fn mode_config(async_check: bool) -> ToolConfig {
    let mut c = Flavor::MustCusan.config();
    c.async_check = async_check;
    c
}

/// Effective pool worker count for a case: the hardware formula after
/// the frozen `CUSAN_CHECK_THREADS` override, exactly as the contexts
/// apply it.
fn check_threads(ranks: usize) -> usize {
    effective_workers(ranks, cusan::ctx::EnvOverrides::get().check_threads)
}

/// Sum the per-rank async counters. Extremes fold as extremes (queue
/// depth and max batch take the max over ranks, min batch the min over
/// ranks that applied anything), the histogram element-wise, and the mean
/// batch size is re-derived batch-weighted from the per-rank means.
fn fold_stats<T>(out: &WorldOutcome<T>) -> AsyncCheckStats {
    let mut acc = AsyncCheckStats::default();
    let mut messages = 0u64;
    for r in &out.ranks {
        if let Some(s) = r.async_check {
            acc.events_enqueued += s.events_enqueued;
            acc.batches_applied += s.batches_applied;
            acc.max_queue_depth = acc.max_queue_depth.max(s.max_queue_depth);
            acc.stalls += s.stalls;
            acc.doorbells += s.doorbells;
            if s.batches_applied > 0 {
                acc.min_batch = if acc.min_batch == 0 {
                    s.min_batch
                } else {
                    acc.min_batch.min(s.min_batch)
                };
            }
            acc.max_batch = acc.max_batch.max(s.max_batch);
            messages += s.avg_batch * s.batches_applied;
            acc.batches_stolen += s.batches_stolen;
            for (a, b) in acc.batch_hist.iter_mut().zip(&s.batch_hist) {
                *a += b;
            }
        }
    }
    acc.avg_batch = messages.checked_div(acc.batches_applied).unwrap_or(0);
    acc
}

struct Case {
    name: &'static str,
    ranks: usize,
    sync: Duration,
    asyn: Duration,
    stats: AsyncCheckStats,
}

impl Case {
    /// Sync time over async time: > 1 means the async backend is faster.
    fn speedup(&self) -> f64 {
        rel(self.sync, self.asyn)
    }
}

fn sweep(
    name: &'static str,
    ranks: usize,
    runs: usize,
    run: impl Fn(bool) -> (Duration, AsyncCheckStats),
) -> Case {
    let sync = measure(runs, || run(false).0);
    let mut stats = AsyncCheckStats::default();
    let asyn = measure(runs, || {
        let (d, s) = run(true);
        stats = s;
        d
    });
    Case {
        name,
        ranks,
        sync,
        asyn,
        stats,
    }
}

fn main() {
    let runs = bench_runs();
    let jc = jacobi_config();
    let j2 = jacobi2d_config();
    let tc = tealeaf_config();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    banner(
        "Async checker — sync vs shared checker pool [MUST & CuSan]",
        &format!(
            "Jacobi {}x{} x{} | Jacobi2D {}x{} x{} ({}x{} ranks) | TeaLeaf {}x{} x{} | \
             mean of {runs} runs (+1 warmup) | {parallelism} hw threads",
            jc.nx, jc.ny, jc.iters, j2.nx, j2.ny, j2.iters, j2.px, j2.py, tc.nx, tc.ny, tc.steps
        ),
    );

    let cases = [
        sweep("jacobi", jc.ranks, runs, |a| {
            let r = run_jacobi(&jc, mode_config(a));
            (r.elapsed, fold_stats(&r.outcome))
        }),
        sweep("jacobi2d", j2.px * j2.py, runs, |a| {
            let r = run_jacobi2d(&j2, mode_config(a));
            (r.elapsed, fold_stats(&r.outcome))
        }),
        sweep("tealeaf", tc.ranks, runs, |a| {
            let r = run_tealeaf(&tc, mode_config(a));
            (r.elapsed, fold_stats(&r.outcome))
        }),
    ];

    println!(
        "{:<10} {:>4} {:>10} {:>10} {:>8} {:>12} {:>9} {:>9} {:>8} {:>7} {:>13} {:>7}",
        "App",
        "Thr",
        "Sync",
        "Async",
        "Speedup",
        "Events",
        "Doorbells",
        "Batches",
        "MaxDepth",
        "Stalls",
        "Batch mn/av/mx",
        "Stolen"
    );
    println!("{:-<120}", "");
    for c in &cases {
        println!(
            "{:<10} {:>4} {:>10.2?} {:>10.2?} {:>7.2}x {:>12} {:>9} {:>9} {:>8} {:>7} {:>4}/{:>3}/{:>3} {:>7}",
            c.name,
            check_threads(c.ranks),
            c.sync,
            c.asyn,
            c.speedup(),
            c.stats.events_enqueued,
            c.stats.doorbells,
            c.stats.batches_applied,
            c.stats.max_queue_depth,
            c.stats.stalls,
            c.stats.min_batch,
            c.stats.avg_batch,
            c.stats.max_batch,
            c.stats.batches_stolen
        );
    }

    // Hand-rolled JSON: the workspace is offline, so no serde.
    let mut json = format!(
        "{{\n  \"benchmark\": \"async_check\",\n  \"hw_threads\": {parallelism},\n  \"runs\": {runs},\n  \"batch_hist_buckets\": {BATCH_HIST_BUCKETS},\n  \"cases\": [\n"
    );
    for (i, c) in cases.iter().enumerate() {
        let hist: Vec<String> = c.stats.batch_hist.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ranks\": {}, \"check_threads\": {}, \"sync_ns\": {}, \"async_ns\": {}, \"speedup\": {:.3}, \
             \"events_enqueued\": {}, \"doorbells\": {}, \"batches_applied\": {}, \"max_queue_depth\": {}, \"stalls\": {}, \
             \"min_batch\": {}, \"max_batch\": {}, \"avg_batch\": {}, \"batches_stolen\": {}, \"batch_hist\": [{}]}}{}",
            c.name,
            c.ranks,
            check_threads(c.ranks),
            c.sync.as_nanos(),
            c.asyn.as_nanos(),
            c.speedup(),
            c.stats.events_enqueued,
            c.stats.doorbells,
            c.stats.batches_applied,
            c.stats.max_queue_depth,
            c.stats.stalls,
            c.stats.min_batch,
            c.stats.max_batch,
            c.stats.avg_batch,
            c.stats.batches_stolen,
            hist.join(", "),
            if i + 1 < cases.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path =
        std::env::var("CUSAN_BENCH_ASYNC_JSON").unwrap_or_else(|_| "BENCH_async_check.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    for c in &cases {
        assert!(
            c.stats.events_enqueued > 0,
            "{}: async runs must go through the ring",
            c.name
        );
    }
    if parallelism >= 2 {
        for c in &cases {
            let ok = c.speedup() >= 0.5;
            println!(
                "target ({} hw threads): {} async >= 0.5x sync -> {}",
                parallelism,
                c.name,
                if ok { "met" } else { "MISSED" }
            );
            assert!(
                ok,
                "{}: async backend {:.2}x of sync with spare parallelism available",
                c.name,
                c.speedup()
            );
        }
    } else {
        println!("single hw thread: nothing to overlap onto; recording costs, no speedup target");
    }
}
