//! # cusan-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation (§V):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig10_runtime_overhead` | Fig. 10 — relative runtime per tool flavor |
//! | `fig11_memory_overhead` | Fig. 11 — relative memory per tool flavor |
//! | `table1_event_counters` | Table I — CUDA + TSan event counters |
//! | `fig12_jacobi_scaling` | Fig. 12 — overhead vs domain size + tracked bytes |
//! | `ablation_no_access_tracking` | §V-B claim — overhead without range annotations |
//!
//! Methodology follows the paper: each timing is the average over `runs`
//! measured executions after one uncounted warmup run (paper: 4 runs + 1
//! warmup; default here is 3 + 1, override with `CUSAN_BENCH_RUNS`).
//! Absolute numbers will differ from the paper (simulated substrate vs a
//! V100 cluster); the *shape* — which flavor costs what, and how overhead
//! scales with tracked memory — is the reproduction target.
//!
//! Beside those, two tools that are not measurements: `replay_trace`
//! (record / check / replay / transcode traces) and `chaos_soak` (seeded
//! fault and schedule soak). Everything else that is measured — decode,
//! apply, serve, spill, explorer, shadow and clock costs — is a row of
//! the ledger in `benchmark/`; no bin here writes a file.
//!
//! Environment knobs: `CUSAN_BENCH_RUNS`, `CUSAN_BENCH_JACOBI_NX/NY/ITERS`,
//! `CUSAN_BENCH_TEALEAF_NX/NY/STEPS`, `CUSAN_BENCH_RANKS`,
//! `CUSAN_BENCH_FULL=1` (enables the largest Fig. 12 domain),
//! `CUSAN_BENCH_RSS_BASELINE_MB` (Fig. 11 process-baseline model).

use cusan::Flavor;
use cusan_apps::{JacobiConfig, TeaLeafConfig};
use std::time::Duration;

/// Read an env knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Number of measured runs (after one warmup).
pub fn bench_runs() -> usize {
    env_u64("CUSAN_BENCH_RUNS", 3) as usize
}

/// The Jacobi configuration used by the figure binaries.
pub fn jacobi_config() -> JacobiConfig {
    JacobiConfig {
        nx: env_u64("CUSAN_BENCH_JACOBI_NX", 1024),
        ny: env_u64("CUSAN_BENCH_JACOBI_NY", 512),
        ranks: env_u64("CUSAN_BENCH_RANKS", 2) as usize,
        iters: env_u64("CUSAN_BENCH_JACOBI_ITERS", 50) as u32,
        ..JacobiConfig::default()
    }
}

/// The TeaLeaf configuration used by the figure binaries.
pub fn tealeaf_config() -> TeaLeafConfig {
    TeaLeafConfig {
        nx: env_u64("CUSAN_BENCH_TEALEAF_NX", 64),
        ny: env_u64("CUSAN_BENCH_TEALEAF_NY", 64),
        ranks: env_u64("CUSAN_BENCH_RANKS", 2) as usize,
        steps: env_u64("CUSAN_BENCH_TEALEAF_STEPS", 2) as u32,
        ..TeaLeafConfig::default()
    }
}

/// Mean wall time over `runs` invocations of `f` after one warmup.
pub fn measure(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let _warmup = f();
    let total: Duration = (0..runs).map(|_| f()).sum();
    total / runs as u32
}

/// `a / b` as a relative factor.
pub fn rel(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64()
}

/// Pretty bytes.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// The four instrumented flavors, in figure order.
pub const INSTRUMENTED: [Flavor; 4] =
    [Flavor::Tsan, Flavor::Must, Flavor::Cusan, Flavor::MustCusan];

/// Print a figure/table banner.
pub fn banner(title: &str, detail: &str) {
    println!("================================================================");
    println!("{title}");
    println!("{detail}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_averages_excluding_warmup() {
        let mut calls = 0;
        let d = measure(4, || {
            calls += 1;
            Duration::from_millis(10)
        });
        assert_eq!(calls, 5, "1 warmup + 4 measured");
        assert_eq!(d, Duration::from_millis(10));
    }

    #[test]
    fn rel_factor() {
        assert!((rel(Duration::from_secs(3), Duration::from_secs(2)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn env_default_used_when_unset() {
        assert_eq!(env_u64("CUSAN_BENCH_DOES_NOT_EXIST", 7), 7);
    }
}
