//! Differential test for the runtime snapshot codec: interrupting a
//! workload at any point with a snapshot→restore round trip must be
//! invisible — the restored runtime finishes the workload with
//! bit-for-bit identical reports, stats, and shadow evolution to an
//! uninterrupted run.

use tsan_rt::codec::Scanner;
use tsan_rt::{CtxId, DecodeError, FiberId, SyncKey, TsanRuntime};

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
    }
}

/// Generate a deterministic op script by driving a scratch runtime (so
/// fiber ids in the script are the ones any replay will assign). The
/// script mixes every state-machine shape: slot reuse, sync and
/// non-sync switches, release/acquire chains, page-covering and ragged
/// accesses, and eviction pressure (6 fibers on a few addresses).
fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut s = seed;
    let mut scratch = fresh();
    let mut live: Vec<FiberId> = vec![FiberId::HOST];
    let mut current = FiberId::HOST;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let r = splitmix(&mut s);
        match r % 11 {
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

/// The runtime's snapshot sections, as embedders frame them.
fn snapshot(rt: &TsanRuntime) -> Vec<u8> {
    let mut buf = Vec::new();
    rt.write_snapshot(&mut buf);
    buf
}

/// A runtime restored from exactly `blob`.
fn restore(blob: &[u8]) -> Result<TsanRuntime, DecodeError> {
    let mut s = Scanner::new(blob);
    let rt = TsanRuntime::read_snapshot(&mut s)?;
    s.expect_end()?;
    Ok(rt)
}

fn fresh() -> TsanRuntime {
    let mut rt = TsanRuntime::new("host");
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
    assert_eq!(snapshot(a), snapshot(b));
}

#[test]
fn snapshot_restore_is_invisible_at_any_split() {
    for seed in [1u64, 42, 0xC0FFEE] {
        let ops = gen_ops(seed, 300);
        let mut reference = fresh();
        for op in &ops {
            apply(&mut reference, op);
        }
        for split in [0, 1, 37, 150, 299, 300] {
            let mut head = fresh();
            for op in &ops[..split] {
                apply(&mut head, op);
            }
            let blob = snapshot(&head);
            let mut tail =
                restore(&blob).unwrap_or_else(|e| panic!("restore at split {split}: {e}"));
            // Snapshots are canonical: re-snapshotting the restored
            // runtime reproduces the blob byte-for-byte.
            assert_eq!(snapshot(&tail), blob, "split {split} not canonical");
            assert_observably_equal(&head, &tail);
            for op in &ops[split..] {
                apply(&mut tail, op);
            }
            assert_observably_equal(&reference, &tail);
        }
    }
}

#[test]
fn restored_runtime_continues_arena_growth_identically() {
    // A restore carves the unfolded pages' blocks in page order, not in
    // the order the snapshotted run unfolded them: the slabs it grows,
    // and every unfold after it, must still match the uninterrupted run
    // (the arena counters are part of the summary surface).
    let script = |rt: &mut TsanRuntime, phase2: bool| {
        let ctx = CtxId(0);
        for i in [5u64, 0, 3, 1, 4, 2] {
            rt.write_range(i * 0x1000, 64, ctx); // partial: unfolded pages
        }
        if phase2 {
            for i in 0..30u64 {
                rt.write_range((8 + i) * 0x1000 + 8, 72, ctx);
            }
        }
    };
    let mut reference = fresh();
    script(&mut reference, false);
    script(&mut reference, true);
    let mut head = fresh();
    script(&mut head, false);
    let mut restored = restore(&snapshot(&head)).unwrap();
    assert_eq!(restored.stats().arena_slabs_allocated, 2);
    script(&mut restored, true);
    let (a, b) = (reference.stats(), restored.stats());
    assert_eq!(
        b.arena_slabs_allocated, 4,
        "36 unfolded pages: slabs of 4, 8, 16, 32"
    );
    assert_eq!(a.arena_slabs_allocated, b.arena_slabs_allocated);
    assert_observably_equal(&reference, &restored);
}

#[test]
fn restore_rejects_garbage() {
    assert!(restore(b"not a snapshot at all").is_err());
    assert!(restore(b"").is_err());
    // Every proper prefix is refused, at an offset inside it.
    let mut rt = fresh();
    for op in &gen_ops(7, 60) {
        apply(&mut rt, op);
    }
    let blob = snapshot(&rt);
    for cut in 0..blob.len() {
        let e = restore(&blob[..cut])
            .err()
            .expect("a proper prefix restored");
        assert!(
            e.at().is_some_and(|at| at <= cut),
            "prefix of {cut} bytes: {e}"
        );
    }
    // Trailing garbage is an error, not silently ignored.
    let mut blob = snapshot(&TsanRuntime::new("host"));
    blob.push(0);
    assert_eq!(
        restore(&blob).err(),
        Some(DecodeError::Trailing {
            at: blob.len() - 1,
            left: 1
        })
    );
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
    let mut back = restore(&snapshot(&rt)).unwrap();
    back.switch_to_fiber(FiberId::HOST);
    back.read_range(0x4000, 8, cr);
    assert_eq!(back.race_count(), 0, "suppression survived the round trip");
    assert_eq!(back.stats().races_suppressed, 1);
}
