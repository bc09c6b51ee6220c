//! Differential safety net for the epoch-compressed clock fast paths.
//!
//! Drives identical randomized schedules — fiber create/destroy/switches
//! (sync and non-sync), release/acquire edges over a small key set, and
//! read/write ranges — through two [`TsanRuntime`]s that differ only in
//! the `epoch_clocks` flag:
//!
//! * **compressed**: the scalar-epoch fast paths may skip provably
//!   redundant vector-clock joins (the code under test);
//! * **reference**: every release/acquire/sync-switch performs the full
//!   O(fibers) join.
//!
//! The fast paths claim to be *pure* skip optimizations, so everything
//! observable must be identical: race reports (addresses, both sides,
//! labels), every pairwise `dominates` outcome between live fiber
//! clocks, and every individual clock component. Clocks are compared
//! component-wise, never via `PartialEq` — the two modes may leave
//! different trailing-zero `Vec` lengths (`copy_from` vs `join` vs skip),
//! which is exactly the representation difference that must stay
//! unobservable.

use proptest::prelude::*;
use tsan_rt::{FiberId, SyncKey, TsanRuntime};

#[derive(Debug, Clone)]
enum Op {
    SwitchNoSync(usize),
    SwitchSync(usize),
    /// Sync-switch to a fiber and immediately back — the stream-fiber
    /// pattern that exercises the `last_sync` stamp skip hardest.
    SyncRoundTrip(usize),
    Release(u64),
    Acquire(u64),
    /// Release then immediately re-release the same key (fast-release
    /// candidate in compressed mode).
    DoubleRelease(u64),
    Access(u64, u64, bool),
}

fn op_strategy(n_fibers: usize) -> impl Strategy<Value = Op> {
    let addr = prop_oneof![
        Just(0x4_0000u64),
        Just(0x4_0008u64),
        Just(0x4_0ff0u64),
        Just(0x5_0000u64),
    ];
    prop_oneof![
        (0..n_fibers).prop_map(Op::SwitchNoSync),
        (0..n_fibers).prop_map(Op::SwitchSync),
        (0..n_fibers).prop_map(Op::SyncRoundTrip),
        (0..4u64).prop_map(Op::Release),
        (0..4u64).prop_map(Op::Acquire),
        (0..4u64).prop_map(Op::DoubleRelease),
        (addr, 1u64..128, any::<bool>()).prop_map(|(a, l, w)| Op::Access(a, l, w)),
    ]
}

fn apply(rt: &mut TsanRuntime, fibers: &[FiberId], op: &Op) {
    match *op {
        Op::SwitchNoSync(f) => rt.switch_to_fiber(fibers[f]),
        Op::SwitchSync(f) => rt.switch_to_fiber_sync(fibers[f]),
        Op::SyncRoundTrip(f) => {
            let back = rt.current_fiber();
            rt.switch_to_fiber_sync(fibers[f]);
            rt.switch_to_fiber(back);
        }
        Op::Release(k) => rt.annotate_happens_before(SyncKey(k)),
        Op::Acquire(k) => {
            rt.annotate_happens_after(SyncKey(k));
        }
        Op::DoubleRelease(k) => {
            rt.annotate_happens_before(SyncKey(k));
            rt.annotate_happens_before(SyncKey(k));
        }
        Op::Access(addr, len, write) => {
            let ctx = rt.intern_ctx("differential access");
            if write {
                rt.write_range(addr, len, ctx);
            } else {
                rt.read_range(addr, len, ctx);
            }
        }
    }
}

/// Component-wise clock equality plus identical pairwise `dominates`
/// verdicts across every fiber pair (host included).
fn assert_clocks_agree(compressed: &TsanRuntime, reference: &TsanRuntime, fibers: &[FiberId]) {
    let mut all = vec![compressed.host_fiber()];
    all.extend_from_slice(fibers);
    for &f in &all {
        let a = compressed.fiber_clock(f);
        let b = reference.fiber_clock(f);
        let n = a.len().max(b.len());
        for i in 0..n {
            let g = FiberId::from_index(i);
            assert_eq!(
                a.get(g),
                b.get(g),
                "clock of {f:?} diverged at component {i}"
            );
        }
    }
    for &x in &all {
        for &y in &all {
            assert_eq!(
                compressed
                    .fiber_clock(x)
                    .dominates(compressed.fiber_clock(y)),
                reference.fiber_clock(x).dominates(reference.fiber_clock(y)),
                "dominates({x:?}, {y:?}) diverged"
            );
        }
    }
}

/// The differential tests above are only meaningful if the fast paths
/// actually fire; pin the canonical stream-op loop to all three.
#[test]
fn fast_paths_fire_on_stream_op_loop() {
    let mut rt = TsanRuntime::new("host");
    let stream = rt.create_fiber("stream");
    let host = rt.host_fiber();
    let key = SyncKey(0x51);
    // 4 host sync points, each preceded by a burst of 8 device ops. The
    // host clock is untouched within a burst, so from the second launch
    // on, the sync switch hits the `last_sync` stamp skip and the release
    // hits the unchanged-clock collapse; only the burst's first switch
    // and the host's acquire pay a full join.
    for _ in 0..4 {
        for _ in 0..8 {
            rt.switch_to_fiber_sync(stream); // kernel launch enters the stream
            rt.annotate_happens_before(key); // completion release
            rt.switch_to_fiber(host); // non-sync return
        }
        rt.annotate_happens_after(key); // host sync acquires once per burst
    }
    let s = rt.stats();
    assert!(
        s.epoch_fast_acquires >= 4 * 7,
        "sync-switch stamp skips missing: {s:?}"
    );
    assert!(
        s.epoch_fast_releases >= 4 * 7,
        "unchanged-clock release collapse missing: {s:?}"
    );
    assert!(
        s.epoch_fast_acquires > s.full_clock_joins,
        "the steady-state loop should be dominated by fast paths: {s:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Epoch compression is invisible: identical schedules produce
    /// identical reports and identical happens-before relations.
    #[test]
    fn epoch_compression_is_observably_identical(
        ops in proptest::collection::vec(op_strategy(5), 1..120)
    ) {
        let mut compressed = TsanRuntime::new("host");
        let mut reference = TsanRuntime::with_epoch_clocks("host", false);
        prop_assert!(compressed.epoch_clocks_enabled());
        prop_assert!(!reference.epoch_clocks_enabled());
        let fibers: Vec<FiberId> = (0..5)
            .map(|i| {
                let a = compressed.create_fiber(&format!("fiber {i}"));
                let b = reference.create_fiber(&format!("fiber {i}"));
                assert_eq!(a, b);
                a
            })
            .collect();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut compressed, &fibers, op);
            apply(&mut reference, &fibers, op);
            // Clock agreement is cheap enough to check at every step —
            // a divergence is caught at the op that introduced it.
            if i % 7 == 0 {
                assert_clocks_agree(&compressed, &reference, &fibers);
            }
        }
        assert_clocks_agree(&compressed, &reference, &fibers);
        prop_assert_eq!(compressed.take_reports(), reference.take_reports());
        // The compressed run must do no *more* slow joins than the
        // reference (skips only remove work)...
        let (cs, rs) = (compressed.stats(), reference.stats());
        prop_assert!(cs.full_clock_joins <= rs.full_clock_joins);
        // ...and the reference never takes a fast path.
        prop_assert_eq!(rs.epoch_fast_acquires, 0);
        prop_assert_eq!(rs.epoch_fast_releases, 0);
    }

    /// Fiber slot reuse must invalidate every fast-path stamp: a fresh
    /// fiber in a recycled slot shares nothing with its predecessor.
    #[test]
    fn slot_reuse_never_resurrects_stamps(
        rounds in 1usize..12,
        keys in proptest::collection::vec(0u64..3, 1..6)
    ) {
        let mut compressed = TsanRuntime::new("host");
        let mut reference = TsanRuntime::with_epoch_clocks("host", false);
        for _ in 0..rounds {
            let a = compressed.create_fiber("worker");
            let b = reference.create_fiber("worker");
            prop_assert_eq!(a, b);
            for &k in &keys {
                compressed.switch_to_fiber_sync(a);
                reference.switch_to_fiber_sync(b);
                compressed.annotate_happens_before(SyncKey(k));
                reference.annotate_happens_before(SyncKey(k));
                compressed.annotate_happens_after(SyncKey(k));
                reference.annotate_happens_after(SyncKey(k));
                let host = compressed.host_fiber();
                compressed.switch_to_fiber(host);
                reference.switch_to_fiber(host);
            }
            // Destroy and let the next round reuse the slot.
            compressed.destroy_fiber(a);
            reference.destroy_fiber(b);
            assert_clocks_agree(&compressed, &reference, &[]);
        }
        prop_assert_eq!(compressed.take_reports(), reference.take_reports());
    }
}
