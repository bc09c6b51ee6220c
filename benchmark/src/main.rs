//! The cusan-rs benchmark: one ledger, six workloads.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is one JSON
//!     object {correct, attempted, failed, metrics} — end-to-end metrics
//!     with --trace 0, per-layer metrics with --trace 1
//! benchmark run [--seed n] [--seconds s] [--traced] [--smoke] [--out file]
//!     all six workloads, each in its own process; prints every metric
//!     by name and unit and writes one result file
//! benchmark compare A.json B.json
//!     per workload × end-to-end metric: both values, the relative
//!     difference and the bound; non-zero exit if a bound is exceeded
//! benchmark manifest
//!     BENCHMARK.json as the code defines it
//! ```

mod adapter;
mod corpus;
mod host;
mod json;
mod probes;
mod report;
mod rng;
mod scratch;
#[cfg(test)]
mod selftest;
mod spans;
mod spec;
mod stats;
mod workloads;

use json::Json;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Layers, Tally};

/// Set-ups per run: at least five, and a cheap one is repeated for a
/// second (or the length of the run, if that is shorter), up to 32
/// times. `setup_s` is the quietest of them (`stats::quiet_median`: up
/// to 32 samples are a window each).
const SETUPS: std::ops::RangeInclusive<usize> = 5..=32;
const SETUP_BUDGET_S: f64 = 1.0;
/// Pairs of untraced/traced slices in a traced run.
const SLICES: usize = 4;

/// The product reads `CUSAN_*` variables process-wide and would
/// silently become a different program under test.
fn reject_product_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CUSAN_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures product defaults",
            set.join(", ")
        ))
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

fn log_failures(what: &str, failures: &[String]) {
    for f in failures {
        eprintln!("benchmark: {what}: FAILED {f}");
    }
}

/// One workload, in this process: the driver's protocol.
fn run_workload(args: &Args) -> Result<Json, String> {
    // Before any thread is started, so that every one inherits it.
    if host::pin_to_one_cpu().is_none() {
        eprintln!("benchmark: could not pin to one hardware thread; timings will be noisier");
    }
    if !host::one_malloc_arena() {
        eprintln!("benchmark: could not limit malloc to one arena; peak_rss_mib will be noisier");
    }
    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let mut workload = None;
    while setup_s.len() < *SETUPS.start()
        || (setup_s.len() < *SETUPS.end()
            && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S.min(args.seconds))
    {
        // One workload at a time, or `peak_rss_mib` would hold two corpora.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(workloads::setup(&args.workload, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    let mut tally = workload.setup_tally();
    log_failures("set-up", &tally.failures);

    let mut metrics = Vec::new();
    if !args.traced {
        let (phase, _) = workload.run(args.seconds, false, origin);
        log_failures(&args.workload, &phase.tally.failures);
        let values = [
            stats::quiet_median(&setup_s),
            stats::quiet_median(&phase.op_ms),
            phase.ops_per_s,
            phase.events_per_s,
            phase.overhead_x,
            workload.trace_bytes_per_event(),
            peak_rss_mib(),
        ];
        tally.absorb(phase.tally);
        for (m, value) in spec::END_TO_END.iter().zip(values) {
            metrics.push((m.name.to_string(), metric(value, m.unit)));
        }
    } else {
        // Alternating slices without and with spans, so drift hits both
        // alike: the ratio of their medians is what the spans cost.
        let slice_s = args.seconds / (2 * SLICES) as f64;
        let (mut plain, mut traced) = (Slices::default(), Slices::default());
        let mut spans = Vec::new();
        for _ in 0..SLICES {
            for (sum, with_spans) in [(&mut plain, false), (&mut traced, true)] {
                let (phase, slice_spans) = workload.run(slice_s, with_spans, origin);
                log_failures(&args.workload, &phase.tally.failures);
                tally.absorb(phase.tally);
                sum.op_ms.extend(phase.op_ms);
                sum.busy_thread_s += phase.wall_s * phase.threads as f64;
                spans.extend(slice_spans);
            }
        }
        let mut layers = span_layers(&plain, &traced, &spans);
        let path = scratch::out_dir().join(format!("{}.spans.json", args.workload));
        std::fs::create_dir_all(scratch::out_dir())
            .and_then(|()| std::fs::write(&path, spans::to_json(&args.workload, &spans).render()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        drop(spans);
        let mut probe_tally = Tally::default();
        workload.probes(&mut layers, &mut probe_tally)?;
        log_failures("probes", &probe_tally.failures);
        tally.absorb(probe_tally);
        for name in layers.keys() {
            assert!(
                spec::PER_LAYER.iter().any(|m| m.name == *name),
                "per-layer metric {name} is not in spec::PER_LAYER"
            );
        }
        for m in &spec::PER_LAYER {
            let value = layers.get(m.name).copied().unwrap_or(0.0);
            metrics.push((m.name.to_string(), metric(value, m.unit)));
        }
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::Num(tally.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

/// Traced-run slices of one kind, pooled.
#[derive(Default)]
struct Slices {
    op_ms: Vec<f64>,
    /// Wall time × load threads, summed over slices.
    busy_thread_s: f64,
}

/// Per-layer self time per operation, span coverage and span cost.
fn span_layers(plain: &Slices, traced: &Slices, spans: &[spans::Spans]) -> Layers {
    let mut layers = Layers::new();
    let ops = traced.op_ms.len().max(1) as f64;
    let by_layer = spans::self_ns_by_layer(spans);
    for (name, layer) in [
        ("harness.self_ms_per_op", "harness"),
        ("apps.self_ms_per_op", "apps"),
        ("tsan.self_ms_per_op", "tsan"),
        ("core.self_ms_per_op", "core"),
        ("must.self_ms_per_op", "must"),
        ("serve.self_ms_per_op", "serve"),
        ("explore.self_ms_per_op", "explore"),
    ] {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        layers.insert(name, ns as f64 / 1e6 / ops);
    }
    let covered_s = by_layer.values().sum::<u64>() as f64 / 1e9;
    layers.insert("harness.span_coverage", covered_s / traced.busy_thread_s);
    layers.insert(
        "harness.trace_overhead_x",
        stats::median(&traced.op_ms) / stats::median(&plain.op_ms),
    );
    layers.insert("untraced.op_ms_p50", stats::median(&plain.op_ms));
    layers.insert("untraced.op_ms_p90", stats::percentile(&plain.op_ms, 90.0));
    layers.insert("traced.op_ms_p50", stats::median(&traced.op_ms));
    layers.insert("traced.op_ms_p90", stats::percentile(&traced.op_ms, 90.0));
    layers
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => report::compare(a, b),
            _ => Err("usage: benchmark compare A.json B.json".into()),
        },
        Some("manifest") => {
            println!("{}", spec::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            reject_product_env()?;
            let smoke = args.iter().any(|a| a == "--smoke");
            report::run_all(&report::RunOptions {
                seed: parse_flag(args, "--seed", 1)?,
                seconds: parse_flag(
                    args,
                    "--seconds",
                    if smoke { 0.4 } else { spec::RUN_SECONDS as f64 },
                )?,
                traced: args.iter().any(|a| a == "--traced"),
                smoke,
                out: flag(args, "--out").map(Into::into),
            })
        }
        _ => {
            reject_product_env()?;
            let parsed = Args {
                workload: flag(args, "--workload")
                    .ok_or("usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | compare | manifest")?
                    .to_string(),
                seed: parse_flag(args, "--seed", 1)?,
                seconds: parse_flag(args, "--seconds", spec::RUN_SECONDS as f64)?,
                traced: parse_flag::<u8>(args, "--trace", 0)? != 0,
            };
            let line = run_workload(&parsed)?;
            println!("{}", line.render());
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
