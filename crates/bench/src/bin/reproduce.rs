//! Regenerates the paper's evaluation (§V) on the simulated substrate:
//!
//! ```text
//! reproduce <fig10|fig11|fig12|table1|ablations|ext|all> [--small] [--full]
//! ```
//!
//! `ablations` are §V-B and §VI-D; `ext` is the Fig. 10 method on the 2-D
//! Jacobi. `--small` (CI) measures 1 run after the warmup instead of 3
//! (Fig. 12: 3 interleaved Vanilla/CuSan pairs instead of 7) and runs Fig.
//! 10's Jacobi 5 iterations, Fig. 12's 2; `--full` adds Fig. 12's two
//! largest domains. EXPERIMENTS.md grades every claim.

use cuda_sim::CudaCounters;
use cusan::Flavor;
use cusan_apps::{
    run_jacobi, run_jacobi2d, run_tealeaf, Jacobi2dConfig, JacobiConfig, TeaLeafConfig,
};
use cusan_bench::{
    banner, boundary_pack, fmt_bytes, measure, rel, PACK_FIELD_ELEMS, PACK_ITERS, PACK_ROW,
};
use must_rt::WorldOutcome;
use std::process::ExitCode;
use std::time::Duration;
use tsan_rt::TsanStats;

const USAGE: &str =
    "usage: reproduce <fig10|fig11|fig12|table1|ablations|ext|all> [--small] [--full]";

type Figure = fn(&Sizes);

/// The figures, in the order `all` runs them (EXPERIMENTS.md's).
const FIGURES: [(&str, Figure); 6] = [
    ("fig10", fig10),
    ("fig11", fig11),
    ("table1", table1),
    ("fig12", fig12),
    ("ablations", ablations),
    ("ext", ext),
];

/// The sizes the flags choose between.
struct Sizes {
    /// Measured runs after the one warmup.
    runs: usize,
    /// Table I, Fig. 11 and §V-B; Fig. 10 runs it for `fig10_iters`.
    jacobi: JacobiConfig,
    fig10_iters: u32,
    fig12_domains: Vec<(u64, u64)>,
    fig12_iters: u32,
}

impl Sizes {
    fn new(small: bool, full: bool) -> Sizes {
        let mut fig12_domains = vec![(512, 256), (1024, 512), (2048, 1024)];
        if full {
            fig12_domains.extend([(4096, 2048), (8192, 4096)]);
        }
        let jacobi = JacobiConfig {
            nx: 1024,
            ny: 512,
            iters: 50,
            ..JacobiConfig::default()
        };
        Sizes {
            runs: if small { 1 } else { 3 },
            jacobi,
            fig10_iters: if small { 5 } else { 50 },
            fig12_domains,
            fig12_iters: if small { 2 } else { 20 },
        }
    }
}

fn main() -> ExitCode {
    let usage = || {
        eprintln!("{USAGE}");
        ExitCode::from(2)
    };
    let (mut figure, mut small, mut full) = (None, false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--small" => small = true,
            "--full" => full = true,
            _ if figure.is_none() => figure = Some(arg),
            _ => return usage(),
        }
    }
    let known = |f: &String| f == "all" || FIGURES.iter().any(|(name, _)| name == f);
    let Some(figure) = figure.filter(known) else {
        return usage();
    };
    let sizes = Sizes::new(small, full);
    for (name, run) in FIGURES {
        if figure == "all" || figure == name {
            run(&sizes);
            println!();
        }
    }
    ExitCode::SUCCESS
}

/// Fig. 10. Each flavor's milliseconds stand beside its ratio: the tool's
/// own cost is the difference to Vanilla, which a faster simulated device
/// leaves unchanged while it raises the ratio.
fn fig10(s: &Sizes) {
    let jc = JacobiConfig {
        iters: s.fig10_iters,
        ..s.jacobi
    };
    let tc = TeaLeafConfig::default();
    banner(
        "Fig. 10 — relative runtime overhead [T_flavor / T_vanilla]",
        &format!(
            "Jacobi {}x{} x{} iters | TeaLeaf {}x{} x{} steps | {} ranks | mean of {} runs (+1 warmup)",
            jc.nx, jc.ny, jc.iters, tc.nx, tc.ny, tc.steps, jc.ranks, s.runs
        ),
    );
    println!("Flavor             Jacobi       [ms]    TeaLeaf       [ms]");
    let mut vanilla = None;
    for flavor in Flavor::ALL {
        let j = measure(s.runs, || run_jacobi(&jc, flavor).elapsed);
        let t = measure(s.runs, || run_tealeaf(&tc, flavor).elapsed);
        let (jv, tv) = *vanilla.get_or_insert((j, t));
        println!(
            "{:<14} {:>9.2}x {:>10.1} {:>9.2}x {:>10.1}",
            flavor.to_string(),
            rel(j, jv),
            j.as_secs_f64() * 1e3,
            rel(t, tv),
            t.as_secs_f64() * 1e3
        );
    }
    println!("\npaper (V100):  Jacobi  TSan 2.27x  MUST 4.63x  CuSan 36.06x  MUST&CuSan 37.89x");
    println!("               TeaLeaf TSan 1.01x  MUST 4.20x  CuSan  3.77x  MUST&CuSan  6.97x");
}

/// Per-rank app bytes (peak), tool bytes and (app + tool) / app of a run.
fn memory_cells<T>(o: &WorldOutcome<T>) -> String {
    let ranks = o.ranks.len() as u64;
    let (app, tool) = (o.space.peak_bytes / ranks, o.total_tool_memory() / ranks);
    let ratio = (app + tool) as f64 / app as f64;
    let (app_b, tool_b) = (fmt_bytes(app), fmt_bytes(tool));
    format!("{app_b:>12} {tool_b:>12} {ratio:>7.2}x")
}

/// Fig. 11. The paper measures one MPI process's RSS at `MPI_Finalize`; the
/// simulation has no OS process per rank, so it prints what it measures:
/// application bytes and the tool's own (shadow, clocks, TypeART tables).
fn fig11(s: &Sizes) {
    let (jc, tc) = (s.jacobi, TeaLeafConfig::default());
    banner(
        "Fig. 11 — relative memory overhead [(app + tool) / app] per rank",
        "measured at finalize: app = peak application bytes, tool = detector + TypeART bytes",
    );
    println!(
        "Flavor           Jacobi app         tool    ratio  TeaLeaf app         tool    ratio"
    );
    for flavor in Flavor::ALL {
        println!(
            "{:<14} {} {}",
            flavor.to_string(),
            memory_cells(&run_jacobi(&jc, flavor).outcome),
            memory_cells(&run_tealeaf(&tc, flavor).outcome)
        );
    }
    println!("\npaper (V100):  Jacobi  TSan 1.20x  MUST 1.17x  CuSan 1.71x  MUST&CuSan 1.77x");
    println!("               TeaLeaf TSan 1.00x  MUST 1.03x  CuSan 1.25x  MUST&CuSan 1.29x");
}

/// Table I's rows for one rank (label, value, decimals), then the shadow,
/// clock and arena counters (not in the paper's table; see DESIGN.md).
#[rustfmt::skip]
fn table1_rows(c: &CudaCounters, t: &TsanStats) -> [(&'static str, f64, usize); 16] {
    [
        ("CUDA  Stream", c.streams as f64, 0),
        ("CUDA  Memset", c.memset_calls as f64, 0),
        ("CUDA  Memcpy", c.memcpy_calls as f64, 0),
        ("CUDA  Synchronization calls", c.sync_calls as f64, 0),
        ("CUDA  Kernel calls", c.kernel_calls as f64, 0),
        ("TSan  Switch To Fiber", t.fiber_switches as f64, 0),
        ("TSan  AnnotateHappensBefore", t.happens_before as f64, 0),
        ("TSan  AnnotateHappensAfter", t.happens_after as f64, 0),
        ("TSan  Memory Read Range", t.read_range_calls as f64, 0),
        ("TSan  Memory Write Range", t.write_range_calls as f64, 0),
        ("TSan  Memory Read Size [avg KB]", t.avg_read_kb(), 2),
        ("TSan  Memory Write Size [avg KB]", t.avg_write_kb(), 2),
        ("TSan  Shadow page summaries", t.page_summaries_stored as f64, 0),
        ("TSan  Shadow page unfolds", t.page_unfolds as f64, 0),
        ("TSan  Full clock joins", t.full_clock_joins as f64, 0),
        ("TSan  Arena slabs allocated", t.arena_slabs_allocated as f64, 0),
    ]
}

/// Table I: rank 0 under CuSan. `tests/paper_claims.rs` asserts the exact
/// relations; the range-size ratio depends on the model size and is only
/// printed.
fn table1(s: &Sizes) {
    let (jc, tc) = (s.jacobi, TeaLeafConfig::default());
    banner(
        "Table I — CUDA and TSan event counters for one MPI process (CuSan flavor)",
        &format!(
            "Jacobi {}x{} x{} iters | TeaLeaf {}x{} x{} steps | rank 0 of {}",
            jc.nx, jc.ny, jc.iters, tc.nx, tc.ny, tc.steps, jc.ranks
        ),
    );
    let j = run_jacobi(&jc, Flavor::Cusan).outcome.ranks.swap_remove(0);
    let t = run_tealeaf(&tc, Flavor::Cusan).outcome.ranks.swap_remove(0);
    println!("Metric                                         Jacobi        TeaLeaf");
    println!("{:-<68}", "");
    let rows = table1_rows(&j.cuda, &j.tsan).into_iter();
    for ((name, jv, prec), (_, tv, _)) in rows.zip(table1_rows(&t.cuda, &t.tsan)) {
        println!("{name:<38} {jv:>14.prec$} {tv:>14.prec$}");
    }
    let (c, hb) = (&t.cuda, t.tsan.happens_before);
    println!(
        "\nTeaLeaf relation HB = kernels + memcpys + memsets: {hb} = {} + {} + {}",
        c.kernel_calls, c.memcpy_calls, c.memset_calls
    );
    println!(
        "Jacobi avg range size / TeaLeaf avg range size: {:.0}x (paper: ~1000x)",
        j.tsan.avg_read_kb() / t.tsan.avg_read_kb().max(1e-9)
    );
}

/// Fig. 12. Vanilla and CuSan seconds stand beside the ratio, then the
/// mechanism: the tool's own milliseconds (CuSan − Vanilla), those per
/// tracked KiB, and the paper's unit of cost — the 8-byte shadow words a
/// per-word TSan would touch, tracked bytes ÷ 8. The tool's cost is a
/// difference of two noisy times, so both flavors run interleaved and
/// each column is a median.
fn fig12(s: &Sizes) {
    let (ranks, iters, pairs) = (s.jacobi.ranks, s.fig12_iters, 2 * s.runs + 1);
    banner(
        "Fig. 12 — Jacobi relative runtime overhead vs global domain size",
        &format!("{ranks} ranks, {iters} iterations, median of {pairs} interleaved Vanilla/CuSan pairs (+1 warmup pair); tracked bytes and words: total, all ranks"),
    );
    println!("Domain        Rel.Runtime      TSan Read     TSan Write     Vanilla[s]     CuSan[s]     Tool[ms]  Tool[ns/KiB]   Words[M]");
    for &(nx, ny) in &s.fig12_domains {
        let cfg = JacobiConfig {
            nx,
            ny,
            iters,
            ..s.jacobi
        };
        let (mut read, mut write) = (0, 0);
        let mut times: [Vec<Duration>; 2] = Default::default();
        for pair in 0..=pairs {
            // Alternate which flavor goes first: neither inherits the
            // other's warm allocator every time.
            let flavors = [Flavor::Vanilla, Flavor::Cusan];
            for side in [pair % 2, 1 - pair % 2] {
                let r = run_jacobi(&cfg, flavors[side]);
                if side == 1 {
                    read = r.outcome.ranks.iter().map(|rk| rk.tsan.read_bytes).sum();
                    write = r.outcome.ranks.iter().map(|rk| rk.tsan.write_bytes).sum();
                }
                if pair > 0 {
                    times[side].push(r.elapsed);
                }
            }
        }
        let [vanilla, cusan] = times.map(|mut t| {
            t.sort_unstable();
            t[t.len() / 2]
        });
        let tool_s = cusan.as_secs_f64() - vanilla.as_secs_f64();
        let tracked = (read + write) as f64;
        println!(
            "{:<12} {:>11.2}x {:>11.1} MB {:>11.1} MB {:>14.3} {:>12.3} {:>12.2} {:>13.2} {:>10.1}",
            format!("{nx}x{ny}"),
            rel(cusan, vanilla),
            read as f64 / 1e6,
            write as f64 / 1e6,
            vanilla.as_secs_f64(),
            cusan.as_secs_f64(),
            tool_s * 1e3,
            tool_s * 1e9 / (tracked / 1024.0).max(1.0),
            tracked / 8.0 / 1e6
        );
    }
    println!("\npaper (V100): overhead grows with the domain from ~6x (512x256) to ~36x (8192x4096),\ntracking 10^3..10^6 MB; the monotone overhead-vs-tracked-bytes relation is the target.");
}

/// §V-B: Jacobi without range annotations but with the rest of CuSan; and
/// §VI-D: whole-allocation vs bounded tracking on the boundary pack.
fn ablations(s: &Sizes) {
    let (cfg, runs) = (s.jacobi, s.runs);
    banner(
        "§V-B ablation — CuSan without memory-access tracking",
        &format!(
            "Jacobi {}x{} x{} iters, {} ranks, mean of {runs} runs",
            cfg.nx, cfg.ny, cfg.iters, cfg.ranks
        ),
    );
    let mut no_ranges = Flavor::Cusan.config();
    no_ranges.track_access_ranges = false;
    println!("Configuration                       Runtime [s]       Rel.");
    let mut vanilla = None;
    for (name, tools) in [
        ("Vanilla", Flavor::Vanilla.config()),
        ("CuSan, no memory annotations", no_ranges),
        ("CuSan, full", Flavor::Cusan.config()),
    ] {
        let t = measure(runs, || run_jacobi(&cfg, tools).elapsed);
        let r = rel(t, *vanilla.get_or_insert(t));
        println!("{name:<34} {:>12.3} {r:>9.2}x", t.as_secs_f64());
    }
    println!("\npaper claim: the no-annotation configuration is 'almost vanilla';\nthe gap between the last two rows is the cost of range tracking, what drives Fig. 12.\n");

    banner(
        "§VI-D ablation — bounded access tracking on a boundary-pack workload",
        &format!(
            "{PACK_ITERS} pack kernels of {PACK_ROW} elements into a {} MiB field, mean of {runs} runs",
            (PACK_FIELD_ELEMS * 8) >> 20
        ),
    );
    let mut bounded = Flavor::Cusan.config();
    bounded.bounded_tracking = true;
    println!("Configuration                         Runtime [s]     Rel.    Tracked bytes");
    let (mut vanilla, mut tracked) = (None, [0u64; 3]);
    for (i, (name, tools)) in [
        ("Vanilla", Flavor::Vanilla.config()),
        ("CuSan, whole-allocation tracking", Flavor::Cusan.config()),
        ("CuSan, bounded tracking", bounded),
    ]
    .into_iter()
    .enumerate()
    {
        let t = measure(runs, || {
            let (t, bytes) = boundary_pack(tools);
            tracked[i] = bytes;
            t
        });
        let r = rel(t, *vanilla.get_or_insert(t));
        println!(
            "{name:<36} {:>12.4} {r:>7.2}x {:>16}",
            t.as_secs_f64(),
            tracked[i]
        );
    }
    let [_, whole, bounded] = tracked;
    println!(
        "\nbounded tracking cuts tracked bytes by {:.0}x on this workload ({whole} -> {bounded}),",
        whole as f64 / bounded.max(1) as f64
    );
    println!("eliminating the whole-allocation overhead the paper identifies as future work.");
}

/// Extension, not a paper experiment: 2-D–decomposed Jacobi, whose pitched
/// column-halo packs make it the showcase for bounded tracking (last row).
fn ext(s: &Sizes) {
    let runs = s.runs;
    let cfg = Jacobi2dConfig {
        nx: 256,
        ny: 256,
        iters: 30,
        ..Jacobi2dConfig::default()
    };
    banner(
        "Extension — relative runtime overhead on 2-D-decomposed Jacobi",
        &format!(
            "{}x{} on a {}x{} rank grid, {} iterations, mean of {runs} runs (+1 warmup)",
            cfg.nx, cfg.ny, cfg.px, cfg.py, cfg.iters
        ),
    );
    let mut bounded = Flavor::MustCusan.config();
    bounded.bounded_tracking = true;
    let rows = Flavor::ALL
        .into_iter()
        .map(|f| (f.to_string(), f.config()))
        .chain([("MUST & CuSan + bounded (§VI-D)".to_string(), bounded)]);
    println!("Flavor                               Rel.");
    let mut vanilla = None;
    for (name, tools) in rows {
        let t = measure(runs, || run_jacobi2d(&cfg, tools).elapsed);
        println!("{name:<30} {:>9.2}x", rel(t, *vanilla.get_or_insert(t)));
    }
    let vanilla = vanilla.unwrap_or_default().as_secs_f64();
    println!("\nVanilla runtime: {vanilla:.3} s");
}
