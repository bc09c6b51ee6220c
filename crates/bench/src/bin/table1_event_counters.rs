//! Table I — CUDA and TSan runtime event counters for one MPI process, as
//! reported by CuSan.
//!
//! Paper values (for their model sizes): Jacobi — 2 streams, 2 memsets,
//! 602 memcpys, 900 syncs, 1200 kernels; 3622 fiber switches, 1804 HB,
//! 1515 HA, 2102/2403 read/write ranges, 19.7 MB / 16.4 MB average range
//! sizes. TeaLeaf — 1 stream, 36 memsets, 102 memcpys, 530 syncs, 767
//! kernels; 1882 switches, 905 HB, 632 HA, 623/1074 ranges, ~16/17 KB
//! averages.
//!
//! The reproduction target is the *relations*: Jacobi has 2 streams and
//! huge average range sizes (large domain); TeaLeaf has 1 stream, HB ≈
//! kernels + memcpys + memsets, HA ≈ syncs + memcpys, and many more
//! fibers than streams (one per non-blocking MPI request).

use cuda_sim::CudaCounters;
use cusan::Flavor;
use cusan_apps::{run_jacobi, run_tealeaf};
use cusan_bench::{banner, jacobi_config, tealeaf_config};
use tsan_rt::TsanStats;

fn print_rows(jacobi: (&CudaCounters, &TsanStats), tealeaf: (&CudaCounters, &TsanStats)) {
    let (jc, jt) = jacobi;
    let (tc, tt) = tealeaf;
    println!("{:<38} {:>14} {:>14}", "Metric", "Jacobi", "TeaLeaf");
    println!("{:-<68}", "");
    println!(
        "{:<38} {:>14} {:>14}",
        "CUDA  Stream", jc.streams, tc.streams
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "CUDA  Memset", jc.memset_calls, tc.memset_calls
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "CUDA  Memcpy", jc.memcpy_calls, tc.memcpy_calls
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "CUDA  Synchronization calls", jc.sync_calls, tc.sync_calls
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "CUDA  Kernel calls", jc.kernel_calls, tc.kernel_calls
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Switch To Fiber", jt.fiber_switches, tt.fiber_switches
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  AnnotateHappensBefore", jt.happens_before, tt.happens_before
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  AnnotateHappensAfter", jt.happens_after, tt.happens_after
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Memory Read Range", jt.read_range_calls, tt.read_range_calls
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Memory Write Range", jt.write_range_calls, tt.write_range_calls
    );
    println!(
        "{:<38} {:>14.2} {:>14.2}",
        "TSan  Memory Read Size [avg KB]",
        jt.avg_read_kb(),
        tt.avg_read_kb()
    );
    println!(
        "{:<38} {:>14.2} {:>14.2}",
        "TSan  Memory Write Size [avg KB]",
        jt.avg_write_kb(),
        tt.avg_write_kb()
    );
    // Shadow-tier counters (not in the paper's table; they make the
    // whole-range fast paths observable — see DESIGN.md "Shadow tiers").
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Shadow page summaries", jt.page_summaries_stored, tt.page_summaries_stored
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Shadow page unfolds", jt.page_unfolds, tt.page_unfolds
    );
    // Clock and arena counters (see DESIGN.md "Shadow arena"): O(fibers)
    // joins performed, and arena recycling activity.
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Full clock joins", jt.full_clock_joins, tt.full_clock_joins
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Arena pages reused", jt.arena_pages_reused, tt.arena_pages_reused
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Arena slabs allocated", jt.arena_slabs_allocated, tt.arena_slabs_allocated
    );
    println!(
        "{:<38} {:>14} {:>14}",
        "TSan  Arena pages evicted", jt.arena_pages_evicted, tt.arena_pages_evicted
    );
}

fn main() {
    let jc = jacobi_config();
    let tc = tealeaf_config();
    banner(
        "Table I — CUDA and TSan event counters for one MPI process (CuSan flavor)",
        &format!(
            "Jacobi {}x{} x{} iters | TeaLeaf {}x{} x{} steps | rank 0 of {}",
            jc.nx, jc.ny, jc.iters, tc.nx, tc.ny, tc.steps, jc.ranks
        ),
    );
    let j = run_jacobi(&jc, Flavor::Cusan);
    let t = run_tealeaf(&tc, Flavor::Cusan);
    let jr = &j.outcome.ranks[0];
    let tr = &t.outcome.ranks[0];
    print_rows((&jr.cuda, &jr.tsan), (&tr.cuda, &tr.tsan));

    // The structural relations the paper calls out in the Table I text.
    println!();
    println!(
        "TeaLeaf relation HB = kernels + memcpys + memsets: {} = {} + {} + {} -> {}",
        tr.tsan.happens_before,
        tr.cuda.kernel_calls,
        tr.cuda.memcpy_calls,
        tr.cuda.memset_calls,
        if tr.tsan.happens_before
            == tr.cuda.kernel_calls + tr.cuda.memcpy_calls + tr.cuda.memset_calls
        {
            "holds"
        } else {
            "differs (see EXPERIMENTS.md)"
        }
    );
    println!(
        "Jacobi avg range size / TeaLeaf avg range size: {:.0}x (paper: ~1000x)",
        jr.tsan.avg_read_kb() / tr.tsan.avg_read_kb().max(1e-9)
    );
}
