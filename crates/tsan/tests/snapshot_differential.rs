//! Differential test for the runtime snapshot codec: interrupting a
//! workload at any point with a snapshot→restore round trip must be
//! invisible — the restored runtime finishes the workload with
//! bit-for-bit identical reports, stats, and shadow evolution to an
//! uninterrupted run, budgeted or not.

use tsan_rt::{CtxId, FiberId, SyncKey, TsanRuntime};

/// Access-context labels every runtime here defines first, as ids 0..5.
const CTXS: u64 = 5;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scripted runtime operation with concrete ids, so the same script
/// replays identically against any fresh runtime.
#[derive(Debug, Clone)]
enum Op {
    Create {
        expect: FiberId,
        name: String,
    },
    Destroy(FiberId),
    Switch {
        fiber: FiberId,
        sync: bool,
    },
    Hb(u64),
    Ha(u64),
    Access {
        addr: u64,
        len: u64,
        ctx: CtxId,
        write: bool,
    },
    Discard(u64),
}

fn apply(rt: &mut TsanRuntime, op: &Op) {
    match op {
        Op::Create { expect, name } => {
            let name = rt.define_ctx(name.as_str().into());
            let got = rt.create_fiber(name);
            assert_eq!(got, *expect, "fiber numbering diverged");
        }
        Op::Destroy(f) => rt.destroy_fiber(*f),
        Op::Switch { fiber, sync: true } => rt.switch_to_fiber_sync(*fiber),
        Op::Switch { fiber, sync: false } => rt.switch_to_fiber(*fiber),
        Op::Hb(k) => rt.annotate_happens_before(SyncKey(*k)),
        Op::Ha(k) => {
            rt.annotate_happens_after(SyncKey(*k));
        }
        Op::Access {
            addr,
            len,
            ctx,
            write,
        } => {
            if *write {
                rt.write_range(*addr, *len, *ctx);
            } else {
                rt.read_range(*addr, *len, *ctx);
            }
        }
        Op::Discard(addr) => {
            rt.discard_shadow_page(*addr);
        }
    }
}

/// Generate a deterministic op script by driving a scratch runtime (so
/// fiber ids in the script are the ones any replay will assign). The
/// script mixes every state-machine shape: slot reuse, sync and
/// non-sync switches, release/acquire chains, page-covering and ragged
/// accesses, eviction pressure (6 fibers on a few addresses), and page
/// discards that seed the arena free list.
fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut s = seed;
    let mut scratch = fresh(None);
    let mut live: Vec<FiberId> = vec![FiberId::HOST];
    let mut current = FiberId::HOST;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let r = splitmix(&mut s);
        match r % 12 {
            0 if live.len() < 6 => {
                let name = format!("fiber#{i}");
                let expect = scratch.peek_next_fiber();
                let op = Op::Create { expect, name };
                apply(&mut scratch, &op);
                live.push(expect);
                ops.push(op);
            }
            1 if live.len() > 2 => {
                let candidates: Vec<FiberId> = live
                    .iter()
                    .copied()
                    .filter(|&f| f != FiberId::HOST && f != current)
                    .collect();
                if !candidates.is_empty() {
                    let f = candidates[(r >> 8) as usize % candidates.len()];
                    scratch.destroy_fiber(f);
                    live.retain(|&g| g != f);
                    ops.push(Op::Destroy(f));
                }
            }
            2 | 3 => {
                let f = live[(r >> 8) as usize % live.len()];
                let sync = (r >> 32) & 1 == 1;
                if sync {
                    scratch.switch_to_fiber_sync(f);
                } else {
                    scratch.switch_to_fiber(f);
                }
                current = f;
                ops.push(Op::Switch { fiber: f, sync });
            }
            4 => {
                let k = (r >> 8) % 8;
                scratch.annotate_happens_before(SyncKey(k));
                ops.push(Op::Hb(k));
            }
            5 => {
                let k = (r >> 8) % 8;
                scratch.annotate_happens_after(SyncKey(k));
                ops.push(Op::Ha(k));
            }
            11 => {
                let addr = 0x1000 * ((r >> 8) % 8);
                scratch.discard_shadow_page(addr);
                ops.push(Op::Discard(addr));
            }
            _ => {
                let addr = 0x1000 * ((r >> 8) % 8) + 8 * ((r >> 40) % 4);
                let len = [8u64, 64, 100, 4096, 8192][(r >> 16) as usize % 5];
                let op = Op::Access {
                    addr,
                    len,
                    ctx: CtxId(((r >> 24) % CTXS) as u32),
                    write: (r >> 33) & 1 == 1,
                };
                apply(&mut scratch, &op);
                ops.push(op);
            }
        }
    }
    ops
}

fn fresh(budget: Option<usize>) -> TsanRuntime {
    let mut rt = TsanRuntime::new("host");
    rt.set_shadow_page_budget(budget);
    rt.add_suppression("suppressed-lib");
    for i in 0..CTXS {
        rt.define_ctx(format!("ctx{i}").into());
    }
    rt
}

fn assert_observably_equal(a: &TsanRuntime, b: &TsanRuntime) {
    assert_eq!(a.race_count(), b.race_count());
    assert_eq!(a.reports(), b.reports());
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.shadow_pages(), b.shadow_pages());
    assert_eq!(a.live_fibers(), b.live_fibers());
    assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
}

#[test]
fn snapshot_restore_is_invisible_at_any_split() {
    for seed in [1u64, 42, 0xC0FFEE] {
        let ops = gen_ops(seed, 300);
        let budget = if seed == 42 { Some(3) } else { None };
        let mut reference = fresh(budget);
        for op in &ops {
            apply(&mut reference, op);
        }
        for split in [0, 1, 37, 150, 299, 300] {
            let mut head = fresh(budget);
            for op in &ops[..split] {
                apply(&mut head, op);
            }
            let blob = head.snapshot_bytes();
            let mut tail = TsanRuntime::restore_bytes(&blob)
                .unwrap_or_else(|e| panic!("restore at split {split}: {e}"));
            // Snapshots are canonical: re-snapshotting the restored
            // runtime reproduces the blob byte-for-byte.
            assert_eq!(tail.snapshot_bytes(), blob, "split {split} not canonical");
            assert_observably_equal(&head, &tail);
            for op in &ops[split..] {
                apply(&mut tail, op);
            }
            assert_observably_equal(&reference, &tail);
        }
    }
}

#[test]
fn restored_runtime_continues_arena_recycling_identically() {
    // Discard → refill cycles after restore must recycle the same
    // blocks in the same order as the uninterrupted run (arena counters
    // are part of the summary surface).
    let script = |rt: &mut TsanRuntime, phase2: bool| {
        let ctx = CtxId(0);
        for i in 0..6u64 {
            rt.write_range(i * 0x1000, 64, ctx); // partial: unfolded pages
        }
        for i in 0..3u64 {
            rt.discard_shadow_page(i * 0x1000);
        }
        if phase2 {
            for i in 0..6u64 {
                rt.write_range((8 + i) * 0x1000 + 8, 72, ctx);
            }
        }
    };
    let mut reference = fresh(None);
    script(&mut reference, false);
    script(&mut reference, true);
    let mut head = fresh(None);
    script(&mut head, false);
    let mut restored = TsanRuntime::restore_bytes(&head.snapshot_bytes()).unwrap();
    script(&mut restored, true);
    let (a, b) = (reference.stats(), restored.stats());
    assert!(b.arena_pages_reused >= 3, "recycle path exercised");
    assert_eq!(a.arena_pages_reused, b.arena_pages_reused);
    assert_eq!(a.arena_slabs_allocated, b.arena_slabs_allocated);
    assert_eq!(a.arena_pages_evicted, b.arena_pages_evicted);
    assert_observably_equal(&reference, &restored);
}

#[test]
fn restore_rejects_garbage() {
    use tsan_rt::SnapshotError;
    assert_eq!(
        TsanRuntime::restore_bytes(b"not a snapshot at all").err(),
        Some(SnapshotError::BadMagic)
    );
    assert_eq!(
        TsanRuntime::restore_bytes(b"cus").err(),
        Some(SnapshotError::Truncated)
    );
    let mut blob = TsanRuntime::new("host").snapshot_bytes();
    blob[8] = 0xFF; // version field
    assert!(matches!(
        TsanRuntime::restore_bytes(&blob),
        Err(SnapshotError::UnsupportedVersion(_))
    ));
    let blob = TsanRuntime::new("host").snapshot_bytes();
    assert!(TsanRuntime::restore_bytes(&blob[..blob.len() - 1]).is_err());
    // Trailing garbage is an error, not silently ignored.
    let mut blob = TsanRuntime::new("host").snapshot_bytes();
    blob.push(0);
    assert!(matches!(
        TsanRuntime::restore_bytes(&blob),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn restore_preserves_suppressions_and_report_cap() {
    let mut rt = TsanRuntime::new("host");
    rt.add_suppression("openmpi-internal");
    let name = rt.define_ctx("f".into());
    let f = rt.create_fiber(name);
    let cw = rt.define_ctx("openmpi-internal progress".into());
    let cr = rt.define_ctx("host read".into());
    rt.switch_to_fiber(f);
    rt.write_range(0x4000, 8, cw);
    let mut back = TsanRuntime::restore_bytes(&rt.snapshot_bytes()).unwrap();
    back.switch_to_fiber(FiberId::HOST);
    back.read_range(0x4000, 8, cr);
    assert_eq!(back.race_count(), 0, "suppression survived the round trip");
    assert_eq!(back.stats().races_suppressed, 1);
}
