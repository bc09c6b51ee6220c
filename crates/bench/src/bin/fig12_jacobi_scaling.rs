//! Fig. 12 — Jacobi relative runtime overhead vs global domain size, with
//! the total bytes tracked through `tsan_read_range`/`tsan_write_range`.
//!
//! The paper sweeps 512×256 … 8192×4096 and shows CuSan's overhead
//! growing with the tracked-memory volume (from ~6× to ~36× and beyond).
//! The default sweep here stops at 2048×1024 to keep the run short; set
//! `CUSAN_BENCH_FULL=1` for the two largest domains. Vanilla and CuSan
//! seconds are printed beside the ratio, so the tool's own cost per domain
//! is their difference.

use cusan::Flavor;
use cusan_apps::{run_jacobi, JacobiConfig};
use cusan_bench::{banner, bench_runs, env_u64, measure, rel};

fn main() {
    let runs = bench_runs();
    let ranks = env_u64("CUSAN_BENCH_RANKS", 2) as usize;
    let iters = env_u64("CUSAN_BENCH_JACOBI_ITERS", 20) as u32;
    let mut domains = vec![(512u64, 256u64), (1024, 512), (2048, 1024)];
    if env_u64("CUSAN_BENCH_FULL", 0) == 1 {
        domains.push((4096, 2048));
        domains.push((8192, 4096));
    }
    banner(
        "Fig. 12 — Jacobi relative runtime overhead vs global domain size",
        &format!("{ranks} ranks, {iters} iterations, mean of {runs} runs (+1 warmup); right columns: total tracked bytes, all ranks"),
    );

    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>14} {:>12}",
        "Domain", "Rel.Runtime", "TSan Read", "TSan Write", "Vanilla[s]", "CuSan[s]"
    );
    for (nx, ny) in domains {
        let cfg = JacobiConfig {
            nx,
            ny,
            ranks,
            iters,
            ..JacobiConfig::default()
        };
        let vanilla = measure(runs, || run_jacobi(&cfg, Flavor::Vanilla).elapsed);
        let mut read_mb = 0.0;
        let mut write_mb = 0.0;
        let cusan = measure(runs, || {
            let r = run_jacobi(&cfg, Flavor::Cusan);
            let ts = r.outcome.ranks.iter().fold((0u64, 0u64), |acc, rk| {
                (acc.0 + rk.tsan.read_bytes, acc.1 + rk.tsan.write_bytes)
            });
            read_mb = ts.0 as f64 / 1e6;
            write_mb = ts.1 as f64 / 1e6;
            r.elapsed
        });
        println!(
            "{:<12} {:>11.2}x {:>11.1} MB {:>11.1} MB {:>14.3} {:>12.3}",
            format!("{nx}x{ny}"),
            rel(cusan, vanilla),
            read_mb,
            write_mb,
            vanilla.as_secs_f64(),
            cusan.as_secs_f64()
        );
    }
    println!(
        "\npaper (V100): overhead grows with the domain from ~6x (512x256) to ~36x (8192x4096),"
    );
    println!(
        "tracking 10^3..10^6 MB; the monotone overhead-vs-tracked-bytes relation is the target."
    );
}
