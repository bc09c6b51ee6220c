//! Property tests for the happens-before engine.
//!
//! The key soundness/completeness invariants:
//!
//! * **No false positives on well-synchronized programs**: accesses
//!   serialized by a release/acquire token chain never race, regardless
//!   of interleaving, fiber count, or access mix.
//! * **No false negatives on trivially racy programs**: two unordered
//!   conflicting accesses from different fibers are always reported
//!   (within shadow-slot capacity).
//! * **Determinism**: identical schedules produce identical results.

use proptest::prelude::*;
use tsan_rt::{FiberId, SyncKey, TsanRuntime};

/// A step of a token-passing schedule: the fiber acquires the token,
/// performs its accesses, then releases the token for the next holder.
#[derive(Debug, Clone)]
struct TokenStep {
    fiber: usize,
    accesses: Vec<(u64, u64, bool)>, // (addr, len, write)
}

/// Create a fiber named by a freshly defined label.
fn fiber(rt: &mut TsanRuntime, name: &str) -> FiberId {
    let name = rt.define_ctx(name.into());
    rt.create_fiber(name)
}

fn addr_strategy() -> impl Strategy<Value = u64> {
    // A handful of overlapping cache-page-spanning locations.
    prop_oneof![
        Just(0x1_0000u64),
        Just(0x1_0008u64),
        Just(0x1_0ff8u64), // page-boundary straddle
        Just(0x2_0000u64),
    ]
}

fn step_strategy(n_fibers: usize) -> impl Strategy<Value = TokenStep> {
    (
        0..n_fibers,
        proptest::collection::vec((addr_strategy(), 1u64..64, any::<bool>()), 1..4),
    )
        .prop_map(|(fiber, accesses)| TokenStep { fiber, accesses })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Token-passing serialization: no interleaving of fibers and access
    /// patterns may ever produce a race report.
    #[test]
    fn token_passing_schedules_never_race(
        steps in proptest::collection::vec(step_strategy(6), 1..40)
    ) {
        let mut rt = TsanRuntime::new("host");
        let fibers: Vec<FiberId> =
            (0..6).map(|i| fiber(&mut rt, &format!("fiber {i}"))).collect();
        let token = SyncKey(0xA0);
        let ctx = rt.define_ctx("tokenized access".into());
        // Host holds the token initially.
        rt.annotate_happens_before(token);
        for step in &steps {
            rt.switch_to_fiber(fibers[step.fiber]);
            assert!(rt.annotate_happens_after(token), "token chain intact");
            for &(addr, len, write) in &step.accesses {
                if write {
                    rt.write_range(addr, len, ctx);
                } else {
                    rt.read_range(addr, len, ctx);
                }
            }
            rt.annotate_happens_before(token);
        }
        prop_assert_eq!(rt.race_count(), 0);
    }

    /// Two conflicting accesses from different, unsynchronized fibers are
    /// always detected, whatever lengths/overlap the accesses have.
    #[test]
    fn unsynchronized_conflicts_always_detected(
        off_a in 0u64..32,
        len_a in 1u64..64,
        off_b in 0u64..32,
        len_b in 1u64..64,
        a_writes in any::<bool>(),
    ) {
        // Force overlap of at least one shadow word.
        let base = 0x5_0000u64;
        let (a0, a1) = (base + off_a, base + off_a + len_a);
        let (b0, b1) = (base + off_b, base + off_b + len_b);
        let overlap_words = (a0 / 8 <= (b1 - 1) / 8) && (b0 / 8 <= (a1 - 1) / 8);
        prop_assume!(overlap_words);

        let mut rt = TsanRuntime::new("host");
        let f = fiber(&mut rt, "other");
        let ctx = rt.define_ctx("x".into());
        rt.switch_to_fiber(f);
        if a_writes {
            rt.write_range(a0, len_a, ctx);
        } else {
            rt.read_range(a0, len_a, ctx);
        }
        rt.switch_to_fiber(FiberId::HOST);
        // The second access conflicts iff at least one side writes.
        rt.write_range(b0, len_b, ctx);
        prop_assert!(rt.race_count() >= 1);
    }

    /// Read-read sharing never races regardless of interleaving.
    #[test]
    fn concurrent_reads_never_race(
        reads in proptest::collection::vec((0..4usize, addr_strategy(), 1u64..128), 1..40)
    ) {
        let mut rt = TsanRuntime::new("host");
        let fibers: Vec<FiberId> =
            (0..4).map(|i| fiber(&mut rt, &format!("r{i}"))).collect();
        let ctx = rt.define_ctx("shared read".into());
        for (f, addr, len) in reads {
            rt.switch_to_fiber(fibers[f]);
            rt.read_range(addr, len, ctx);
        }
        prop_assert_eq!(rt.race_count(), 0);
    }

    /// Determinism: replaying the same schedule yields identical stats.
    #[test]
    fn schedules_are_deterministic(
        steps in proptest::collection::vec(
            (0..4usize, addr_strategy(), 1u64..64, any::<bool>(), any::<bool>()),
            1..30
        )
    ) {
        let run = || {
            let mut rt = TsanRuntime::new("host");
            let fibers: Vec<FiberId> =
                (0..4).map(|i| fiber(&mut rt, &format!("f{i}"))).collect();
            let ctx = rt.define_ctx("x".into());
            for &(f, addr, len, write, sync) in &steps {
                if sync {
                    rt.annotate_happens_before(SyncKey(7));
                    rt.switch_to_fiber(fibers[f]);
                    rt.annotate_happens_after(SyncKey(7));
                } else {
                    rt.switch_to_fiber(fibers[f]);
                }
                if write {
                    rt.write_range(addr, len, ctx);
                } else {
                    rt.read_range(addr, len, ctx);
                }
                rt.switch_to_fiber(FiberId::HOST);
            }
            (rt.race_count(), rt.stats().races_deduped, rt.shadow_pages())
        };
        prop_assert_eq!(run(), run());
    }

    /// Same-fiber programs never race, whatever they do.
    #[test]
    fn single_fiber_never_races(
        ops in proptest::collection::vec((addr_strategy(), 1u64..256, any::<bool>()), 1..60)
    ) {
        let mut rt = TsanRuntime::new("host");
        let ctx = rt.define_ctx("x".into());
        for (addr, len, write) in ops {
            if write {
                rt.write_range(addr, len, ctx);
            } else {
                rt.read_range(addr, len, ctx);
            }
        }
        prop_assert_eq!(rt.race_count(), 0);
    }
}
