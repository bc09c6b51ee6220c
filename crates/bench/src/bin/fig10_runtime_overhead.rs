//! Fig. 10 — relative runtime overhead of the tool flavors.
//!
//! Paper reference (V100 cluster): Jacobi — TSan 2.27×, MUST 4.63×,
//! CuSan 36.06×, MUST & CuSan 37.89×; TeaLeaf — 1.01×, 4.2×, 3.77×,
//! 6.97×. Vanilla runtimes 1.35 s and 0.75 s.
//!
//! Each flavor's mean milliseconds are printed beside its ratio: the tool's
//! own cost is the difference to Vanilla, which a faster simulated device
//! leaves unchanged while it raises the ratio.

use cusan::Flavor;
use cusan_apps::{run_jacobi, run_tealeaf};
use cusan_bench::{banner, bench_runs, jacobi_config, measure, rel, tealeaf_config, INSTRUMENTED};

fn main() {
    let runs = bench_runs();
    let jc = jacobi_config();
    let tc = tealeaf_config();
    banner(
        "Fig. 10 — relative runtime overhead [T_flavor / T_vanilla]",
        &format!(
            "Jacobi {}x{} x{} iters | TeaLeaf {}x{} x{} steps | {} ranks | mean of {} runs (+1 warmup)",
            jc.nx, jc.ny, jc.iters, tc.nx, tc.ny, tc.steps, jc.ranks, runs
        ),
    );

    let jacobi_vanilla = measure(runs, || run_jacobi(&jc, Flavor::Vanilla).elapsed);
    let tealeaf_vanilla = measure(runs, || run_tealeaf(&tc, Flavor::Vanilla).elapsed);
    println!(
        "Vanilla runtime: {:.3} s (Jacobi), {:.3} s (TeaLeaf)\n",
        jacobi_vanilla.as_secs_f64(),
        tealeaf_vanilla.as_secs_f64()
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "Flavor", "Jacobi", "[ms]", "TeaLeaf", "[ms]"
    );
    println!(
        "{:<14} {:>10} {:>10.1} {:>10} {:>10.1}",
        "Vanilla",
        "1.00x",
        jacobi_vanilla.as_secs_f64() * 1e3,
        "1.00x",
        tealeaf_vanilla.as_secs_f64() * 1e3
    );
    for flavor in INSTRUMENTED {
        let j = measure(runs, || run_jacobi(&jc, flavor).elapsed);
        let t = measure(runs, || run_tealeaf(&tc, flavor).elapsed);
        println!(
            "{:<14} {:>9.2}x {:>10.1} {:>9.2}x {:>10.1}",
            flavor.to_string(),
            rel(j, jacobi_vanilla),
            j.as_secs_f64() * 1e3,
            rel(t, tealeaf_vanilla),
            t.as_secs_f64() * 1e3
        );
    }
    println!("\npaper (V100):  Jacobi  TSan 2.27x  MUST 4.63x  CuSan 36.06x  MUST&CuSan 37.89x");
    println!("               TeaLeaf TSan 1.01x  MUST 4.20x  CuSan  3.77x  MUST&CuSan  6.97x");
}
