//! The paper's structural claims as exact checks (EXPERIMENTS.md E3 and
//! E7; E5's detection counts are `tests/testsuite.rs`'s). Timing claims
//! are never asserted: `reproduce` prints them beside the paper's.

use cusan::Flavor;
use cusan_apps::{run_jacobi, run_tealeaf, JacobiConfig, TeaLeafConfig};
use cusan_bench::{boundary_pack, PACK_FIELD_ELEMS, PACK_ITERS, PACK_ROW};
use kernel_ir::LaunchGrid;

/// E3 (Table I): the counter relations the paper's text calls out, on
/// every rank of a short Jacobi (its full-size domain, 2 iterations) and a
/// one-step TeaLeaf. Absolute counts scale with the model; these do not.
#[test]
fn table1_relations_hold_exactly() {
    let jc = JacobiConfig {
        nx: 1024,
        ny: 512,
        iters: 2,
        ..JacobiConfig::default()
    };
    let tc = TeaLeafConfig {
        steps: 1,
        ..TeaLeafConfig::default()
    };
    let jacobi = run_jacobi(&jc, Flavor::Cusan).outcome;
    let tealeaf = run_tealeaf(&tc, Flavor::Cusan).outcome;

    for r in jacobi.ranks.iter().chain(&tealeaf.ranks) {
        let (c, t) = (&r.cuda, &r.tsan);
        let device_ops = c.kernel_calls + c.memcpy_calls + c.memset_calls;
        assert_eq!(
            t.fiber_switches,
            2 * device_ops,
            "rank {}: {c:?} {t:?}",
            r.rank
        );
    }
    for r in &jacobi.ranks {
        assert_eq!(
            (r.cuda.streams, r.cuda.memset_calls),
            (2, 2),
            "rank {}",
            r.rank
        );
    }
    for r in &tealeaf.ranks {
        let (c, t) = (&r.cuda, &r.tsan);
        // Every `cudaFree` is a device-wide sync; TeaLeaf frees its
        // buffers at teardown.
        let teardown_frees = r.events.frees;
        assert_eq!(c.streams, 1, "rank {}", r.rank);
        assert_eq!(
            t.happens_before,
            c.kernel_calls + c.memcpy_calls + c.memset_calls,
            "rank {}: HB = kernels + memcpys + memsets",
            r.rank
        );
        assert_eq!(
            t.happens_after,
            c.sync_calls + c.memcpy_calls + teardown_frees,
            "rank {}: HA = syncs + memcpys + teardown frees",
            r.rank
        );
    }
    // Paper ~1000x on its larger domain; two orders of magnitude here.
    let (j, t) = (&jacobi.ranks[0].tsan, &tealeaf.ranks[0].tsan);
    let ratio = j.avg_read_kb() / t.avg_read_kb();
    assert!(
        ratio > 100.0,
        "Jacobi's average range is only {ratio:.0}x TeaLeaf's"
    );
}

/// E7 (§VI-D): bounded tracking clips every pack kernel's annotation from
/// the whole field to its launch grid, so the tracked bytes shrink by
/// exactly field elements / grid threads (2048x on the boundary pack).
#[test]
fn bounded_tracking_tracks_the_grid_not_the_allocation() {
    let mut bounded = Flavor::Cusan.config();
    bounded.bounded_tracking = true;
    let (_, whole) = boundary_pack(Flavor::Cusan.config());
    let (_, clipped) = boundary_pack(bounded);
    let grid = LaunchGrid::cover(PACK_ROW, 128).total();
    assert_eq!(whole, PACK_ITERS * PACK_FIELD_ELEMS * 8);
    assert_eq!(clipped, PACK_ITERS * grid * 8);
    assert_eq!(whole / clipped, PACK_FIELD_ELEMS / grid);
    assert_eq!(whole / clipped, 2048);
}
