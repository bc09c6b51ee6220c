//! Mini-app integration tests: numerics, decomposition-independence, and
//! race behaviour under the tool flavors.

use cusan::Flavor;
use cusan_apps::{
    run_jacobi, run_jacobi_traced, run_tealeaf, JacobiConfig, RaceMode, TeaLeafConfig,
};

fn small_jacobi(ranks: usize) -> JacobiConfig {
    JacobiConfig {
        nx: 64,
        ny: 32,
        ranks,
        iters: 30,
        race: RaceMode::None,
    }
}

fn small_tealeaf(ranks: usize) -> TeaLeafConfig {
    TeaLeafConfig {
        nx: 32,
        ny: 32,
        ranks,
        max_iters: 40,
        ..TeaLeafConfig::default()
    }
}

#[test]
fn jacobi_norms_decrease_and_are_finite() {
    let run = run_jacobi(&small_jacobi(2), Flavor::Vanilla);
    assert_eq!(run.norms.len(), 30);
    assert!(run.norms.iter().all(|n| n.is_finite()));
    assert!(run.norms[0] > 0.0, "boundary drives an initial update");
    assert!(
        run.final_norm < run.norms[0],
        "relaxation reduces the update norm: {} -> {}",
        run.norms[0],
        run.final_norm
    );
}

#[test]
fn jacobi_decomposition_independent() {
    let r1 = run_jacobi(&small_jacobi(1), Flavor::Vanilla);
    let r2 = run_jacobi(&small_jacobi(2), Flavor::Vanilla);
    let r4 = run_jacobi(&small_jacobi(4), Flavor::Vanilla);
    for (a, b) in r1.norms.iter().zip(&r2.norms) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "1 vs 2 ranks: {a} vs {b}"
        );
    }
    for (a, b) in r1.norms.iter().zip(&r4.norms) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "1 vs 4 ranks: {a} vs {b}"
        );
    }
}

#[test]
fn jacobi_correct_version_race_free_under_full_stack() {
    let run = run_jacobi(&small_jacobi(2), Flavor::MustCusan);
    assert_eq!(
        run.outcome.total_races(),
        0,
        "{:#?}",
        run.outcome.all_races()
    );
    assert!(run.outcome.all_must_reports().is_empty());
    // Table I shape: Jacobi uses two streams.
    assert_eq!(run.outcome.ranks[0].cuda.streams, 2);
    assert!(
        run.outcome.ranks[0].cuda.kernel_calls >= 90,
        "3 kernels/iter"
    );
    assert!(run.outcome.ranks[0].tsan.read_bytes > 0);
}

#[test]
fn jacobi_instrumentation_does_not_change_numerics() {
    let v = run_jacobi(&small_jacobi(2), Flavor::Vanilla);
    let c = run_jacobi(&small_jacobi(2), Flavor::MustCusan);
    assert_eq!(v.norms, c.norms, "tools must be observation-only");
}

#[test]
fn jacobi_missing_sync_detected_and_corrupts() {
    let cfg = JacobiConfig {
        race: RaceMode::SkipSyncBeforeExchange,
        ..small_jacobi(2)
    };
    let run = run_jacobi(&cfg, Flavor::MustCusan);
    assert!(
        run.outcome.has_races(),
        "missing device sync must be reported"
    );
    let races = run.outcome.all_races();
    assert!(
        races
            .iter()
            .any(|(_, r)| r.current.ctx.contains("MPI_Sendrecv")
                || r.previous.ctx.contains("MPI_Sendrecv")),
        "{races:#?}"
    );
    // The bug is real: stale halos change the numerics vs the correct run.
    let good = run_jacobi(&small_jacobi(2), Flavor::Vanilla);
    assert_ne!(
        good.norms, run.norms,
        "racy run must produce different numerics"
    );
}

#[test]
fn jacobi_vanilla_misses_what_cusan_catches() {
    let cfg = JacobiConfig {
        race: RaceMode::SkipSyncBeforeExchange,
        ..small_jacobi(2)
    };
    for (flavor, expect) in [
        (Flavor::Vanilla, false),
        (Flavor::Tsan, false),
        (Flavor::Must, false),
        (Flavor::MustCusan, true),
    ] {
        let run = run_jacobi(&cfg, flavor);
        assert_eq!(run.outcome.has_races(), expect, "flavor {flavor}");
    }
}

/// The racy run's per-rank verdict, pinned to what per-word conflict
/// emission produced (recorded at commit 05e6ed9): the 8 KiB halo rows
/// start at offset 0x10, so each races over a partial page, a whole
/// summary page (one 512-word run) and another partial page.
#[test]
fn jacobi_missing_sync_summary_is_pinned() {
    let cfg = JacobiConfig {
        nx: 1024,
        ny: 64,
        ranks: 2,
        iters: 3,
        race: RaceMode::SkipSyncBeforeExchange,
    };
    let run = run_jacobi(&cfg, Flavor::MustCusan);
    const KERNEL: &str = "kernel copy_buf arg#0 (dst) [write]";
    const SEND: &str = "MPI_Sendrecv send buffer [read]";
    const RECV: &str = "MPI_Sendrecv recv buffer [write]";
    let expected: [[(u64, &str); 2]; 2] = [
        [(0x1000000040010, SEND), (0x1000000042010, RECV)],
        [(0x1010000002010, SEND), (0x1010000000010, RECV)],
    ];
    for (rank, want) in run.outcome.ranks.iter().zip(expected) {
        assert_eq!(rank.race_count, 2);
        // 3 iterations x 2 context pairs x 1024 words, minus the 2 reported.
        assert_eq!(rank.tsan.races_deduped, 6142);
        let got: Vec<(u64, &str, &str)> = rank
            .races
            .iter()
            .map(|r| (r.addr, r.current.ctx.as_str(), r.previous.ctx.as_str()))
            .collect();
        let want: Vec<(u64, &str, &str)> = want.iter().map(|&(a, c)| (a, c, KERNEL)).collect();
        assert_eq!(got, want, "rank {}", rank.rank);
    }
}

#[test]
fn tealeaf_converges() {
    let run = run_tealeaf(&small_tealeaf(2), Flavor::Vanilla);
    assert!(run.cg.rr.is_finite());
    assert!(run.cg.bb > 0.0);
    assert!(
        run.cg.rr < 1e-6 * run.cg.bb,
        "CG must reduce the residual: rr={} bb={}",
        run.cg.rr,
        run.cg.bb
    );
    assert!(run.cg.iterations > 2);
}

#[test]
fn tealeaf_decomposition_independent() {
    let r1 = run_tealeaf(&small_tealeaf(1), Flavor::Vanilla);
    let r2 = run_tealeaf(&small_tealeaf(2), Flavor::Vanilla);
    let r4 = run_tealeaf(&small_tealeaf(4), Flavor::Vanilla);
    assert_eq!(r1.cg.iterations, r2.cg.iterations);
    assert_eq!(r1.cg.iterations, r4.cg.iterations);
    let tol = 1e-7 * r1.cg.bb;
    assert!(
        (r1.cg.rr - r2.cg.rr).abs() <= tol,
        "{} vs {}",
        r1.cg.rr,
        r2.cg.rr
    );
    assert!(
        (r1.cg.rr - r4.cg.rr).abs() <= tol,
        "{} vs {}",
        r1.cg.rr,
        r4.cg.rr
    );
}

#[test]
fn tealeaf_correct_version_race_free_under_full_stack() {
    let run = run_tealeaf(&small_tealeaf(2), Flavor::MustCusan);
    assert_eq!(
        run.outcome.total_races(),
        0,
        "{:#?}",
        run.outcome.all_races()
    );
    // Table I shape: TeaLeaf uses only the default stream, and its
    // non-blocking halo exchange creates (and retires) MPI request fibers.
    assert_eq!(run.outcome.ranks[0].cuda.streams, 1);
    let ts = &run.outcome.ranks[0].tsan;
    assert!(ts.fibers_created > u64::from(run.cg.iterations), "{ts:?}");
    assert_eq!(
        ts.fibers_destroyed,
        ts.fibers_created - 2,
        "all request fibers retired; host + stream fiber remain"
    );
}

#[test]
fn tealeaf_missing_sync_detected() {
    let cfg = TeaLeafConfig {
        race: RaceMode::SkipSyncBeforeExchange,
        ..small_tealeaf(2)
    };
    let run = run_tealeaf(&cfg, Flavor::MustCusan);
    assert!(run.outcome.has_races());
    let races = run.outcome.all_races();
    assert!(
        races.iter().any(|(_, r)| r.current.ctx.contains("MPI_I")
            || r.previous.ctx.contains("MPI_I")
            || r.current.ctx.contains("kernel")
            || r.previous.ctx.contains("kernel")),
        "{races:#?}"
    );
}

#[test]
fn tealeaf_instrumentation_does_not_change_numerics() {
    let v = run_tealeaf(&small_tealeaf(2), Flavor::Vanilla);
    let c = run_tealeaf(&small_tealeaf(2), Flavor::MustCusan);
    assert_eq!(v.cg.rr, c.cg.rr);
    assert_eq!(v.cg.iterations, c.cg.iterations);
}

/// The stencil apps' results to the bit, under Vanilla and under the full
/// tool stack, at two small sizes each. Recorded while the native
/// `jacobi_step` and `apply_a` still walked the grid element by element
/// with a division and a remainder per thread: a rewrite of a native
/// kernel must reproduce every one of these.
#[test]
fn stencil_results_are_pinned() {
    use cusan_apps::{run_jacobi2d, Jacobi2dConfig};
    let mut got: Vec<(String, u64)> = Vec::new();
    for flavor in [Flavor::Vanilla, Flavor::MustCusan] {
        for (nx, ny, ranks, iters) in [(64, 32, 2, 30), (40, 24, 3, 12)] {
            let cfg = JacobiConfig {
                nx,
                ny,
                ranks,
                iters,
                race: RaceMode::None,
            };
            let run = run_jacobi(&cfg, flavor);
            got.push((
                format!("{flavor} jacobi {nx}x{ny}"),
                run.final_norm.to_bits(),
            ));
        }
        for (nx, ny, px, py) in [(32, 32, 2, 2), (24, 12, 3, 1)] {
            let cfg = Jacobi2dConfig {
                nx,
                ny,
                px,
                py,
                iters: 15,
                race: RaceMode::None,
            };
            let run = run_jacobi2d(&cfg, flavor);
            let last = *run.norms.last().expect("one norm per iteration");
            got.push((format!("{flavor} jacobi2d {nx}x{ny}"), last.to_bits()));
        }
        for (nx, ny, ranks) in [(32, 32, 2), (24, 18, 3)] {
            let cfg = TeaLeafConfig {
                nx,
                ny,
                ranks,
                max_iters: 40,
                ..TeaLeafConfig::default()
            };
            let run = run_tealeaf(&cfg, flavor);
            got.push((
                format!("{flavor} tealeaf {nx}x{ny} rr"),
                run.cg.rr.to_bits(),
            ));
            got.push((
                format!("{flavor} tealeaf {nx}x{ny} iterations"),
                u64::from(run.cg.iterations),
            ));
        }
    }
    let pinned: [(&str, u64); 8] = [
        ("jacobi 64x32", 4593805213517746755),
        ("jacobi 40x24", 4596442629484726831),
        ("jacobi2d 32x32", 4594667095038242338),
        ("jacobi2d 24x12", 4593773715430802014),
        ("tealeaf 32x32 rr", 4475852673054563443),
        ("tealeaf 32x32 iterations", 55),
        ("tealeaf 24x18 rr", 4472766947107197648),
        ("tealeaf 24x18 iterations", 55),
    ];
    let want: Vec<(String, u64)> = [Flavor::Vanilla, Flavor::MustCusan]
        .iter()
        .flat_map(|flavor| pinned.map(|(label, bits)| (format!("{flavor} {label}"), bits)))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn flavors_order_overhead_event_counts() {
    // More instrumentation => more TSan events. (Wall-clock ordering is
    // asserted by the benchmark harness, not a unit test.)
    let cfg = small_jacobi(2);
    let tsan = run_jacobi(&cfg, Flavor::Tsan);
    let must = run_jacobi(&cfg, Flavor::Must);
    let cusan = run_jacobi(&cfg, Flavor::Cusan);
    let both = run_jacobi(&cfg, Flavor::MustCusan);
    let ev = |r: &cusan_apps::JacobiRun| {
        let t = &r.outcome.ranks[0].tsan;
        t.read_bytes + t.write_bytes
    };
    assert!(ev(&must) >= ev(&tsan));
    assert!(
        ev(&cusan) > ev(&must),
        "CuSan tracks whole device allocations"
    );
    assert!(ev(&both) >= ev(&cusan));
}

mod jacobi2d_tests {
    use cusan::Flavor;
    use cusan_apps::{run_jacobi2d, Jacobi2dConfig, RaceMode};

    fn cfg(px: usize, py: usize) -> Jacobi2dConfig {
        Jacobi2dConfig {
            nx: 32,
            ny: 32,
            px,
            py,
            iters: 20,
            race: RaceMode::None,
        }
    }

    #[test]
    fn converges_and_is_finite() {
        let run = run_jacobi2d(&cfg(2, 2), Flavor::Vanilla);
        assert_eq!(run.norms.len(), 20);
        assert!(run.norms.iter().all(|n| n.is_finite()));
        assert!(run.norms[19] < run.norms[0]);
    }

    #[test]
    fn decomposition_independent_across_grids() {
        let base = run_jacobi2d(&cfg(1, 1), Flavor::Vanilla);
        for (px, py) in [(2, 1), (1, 2), (2, 2), (4, 1)] {
            let run = run_jacobi2d(&cfg(px, py), Flavor::Vanilla);
            for (a, b) in base.norms.iter().zip(&run.norms) {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "{px}x{py}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn race_free_under_full_stack() {
        let run = run_jacobi2d(&cfg(2, 2), Flavor::MustCusan);
        assert_eq!(
            run.outcome.total_races(),
            0,
            "{:#?}",
            run.outcome.all_races()
        );
        assert!(run.outcome.all_must_reports().is_empty());
        // Column exchanges use pitched copies: plenty of memcpy calls.
        assert!(run.outcome.ranks[0].cuda.memcpy_calls > 40);
    }

    #[test]
    fn missing_sync_detected() {
        let c = Jacobi2dConfig {
            race: RaceMode::SkipSyncBeforeExchange,
            ..cfg(2, 2)
        };
        let run = run_jacobi2d(&c, Flavor::MustCusan);
        assert!(run.outcome.has_races());
    }

    #[test]
    fn instrumentation_does_not_change_numerics() {
        let v = run_jacobi2d(&cfg(2, 2), Flavor::Vanilla);
        let c = run_jacobi2d(&cfg(2, 2), Flavor::MustCusan);
        assert_eq!(v.norms, c.norms);
    }
}

/// Each rank's recording of a small Jacobi run, digested, in both
/// encodings: pinned before the 2-D decomposition became a geometry of
/// the same rank body, so folding the two cannot move a byte.
#[test]
fn jacobi_recordings_are_pinned() {
    use cusan::{ToolConfig, TraceFormat};
    let cfg = JacobiConfig {
        nx: 32,
        ny: 16,
        ranks: 2,
        iters: 4,
        race: RaceMode::None,
    };
    let mut got: Vec<(TraceFormat, usize, u64)> = Vec::new();
    for format in [TraceFormat::Text, TraceFormat::Binary] {
        let tools = ToolConfig {
            record: Some(format),
            ..ToolConfig::from(Flavor::MustCusan)
        };
        let run = run_jacobi_traced(&cfg, tools);
        for rank in &run.outcome.ranks {
            let bytes = rank.trace.as_deref().expect("recorded");
            got.push((format, rank.rank, explore::Fnv::new().write(bytes).finish()));
        }
    }
    let want = vec![
        (TraceFormat::Text, 0, 2243407060812109715),
        (TraceFormat::Text, 1, 13079959109490472193),
        (TraceFormat::Binary, 0, 11864735938205818270),
        (TraceFormat::Binary, 1, 13085640584603825767),
    ];
    assert_eq!(got, want);
}

/// A one-column rank grid is row-decomposed Jacobi: `nx` interior columns
/// plus two halo columns that no neighbour fills are the row app's `nx + 2`
/// global columns, and the recordings agree byte for byte.
#[test]
fn a_one_column_grid_is_jacobi() {
    use cusan::{ToolConfig, TraceFormat};
    use cusan_apps::{run_jacobi2d, Jacobi2dConfig};
    let tools = ToolConfig {
        record: Some(TraceFormat::Text),
        ..ToolConfig::from(Flavor::MustCusan)
    };
    let grid = run_jacobi2d(
        &Jacobi2dConfig {
            nx: 30,
            ny: 16,
            px: 1,
            py: 2,
            iters: 4,
            race: RaceMode::None,
        },
        tools,
    );
    let rows = run_jacobi(
        &JacobiConfig {
            nx: 32,
            ny: 16,
            ranks: 2,
            iters: 4,
            race: RaceMode::None,
        },
        tools,
    );
    assert_eq!(grid.norms, rows.norms);
    assert_eq!(grid.outcome.ranks.len(), 2);
    for (g, r) in grid.outcome.ranks.iter().zip(&rows.outcome.ranks) {
        let (g, r) = (g.trace.as_deref(), r.trace.as_deref());
        assert!(g.is_some());
        assert!(g == r, "rank recordings differ");
    }
}

/// Vanilla runs no tool layer, so it holds no tool memory: Fig. 11's
/// uninstrumented row reads 0 B.
#[test]
fn vanilla_jacobi_holds_no_tool_memory() {
    let run = run_jacobi(&small_jacobi(2), Flavor::Vanilla);
    assert_eq!(run.outcome.total_tool_memory(), 0);
}
