//! Differential test for the session spill codec: snapshotting a
//! mid-trace [`CheckSession`] and restoring it must be invisible — the
//! restored session finishes the event stream with a bit-for-bit
//! identical [`SessionSummary`] (reports, stats, counters) to a session
//! that was never interrupted. This is the soundness contract the serve
//! path's spill/restore of *unfinished* sessions rests on.

use cusan::{CheckSession, CusanEvent, DecodeError, SessionOptions, StrId, TraceReader};
use std::sync::Arc;
use tsan_rt::codec::{put_bytes, LAYOUT_VERSION};
use tsan_rt::{FiberId, SyncKey};

const GOLDEN: &[u8] = include_bytes!("../../../tests/data/tealeaf_small.trace");

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic event script: the label table (interned up front, in
/// order, exactly as the serve ingest path replays a trace string table)
/// plus the event sequence.
struct Script {
    labels: Vec<String>,
    events: Vec<CusanEvent>,
}

/// Generate a script by mirroring fiber numbering with a scratch model,
/// mixing every event shape the pipeline carries: fiber churn with LIFO
/// slot reuse, sync and plain switches, release/acquire chains, racy and
/// synchronized ranges, markers (alloc/free/request/fault/schedule
/// choice), and named counter bumps.
fn gen_script(seed: u64, n: usize) -> Script {
    let labels: Vec<String> = (0..8)
        .map(|i| format!("ctx{i}"))
        .chain((0..4).map(|i| format!("fiber{i}")))
        .chain([
            "cuda.kernel_calls".to_string(),
            "cudaMemcpyAsync".to_string(),
        ])
        .collect();
    let ctx = |i: u64| StrId((i % 8) as u32);
    let fname = |i: u64| StrId(8 + (i % 4) as u32);
    let bump = StrId(12);
    let call = StrId(13);
    let mut s = seed;
    let mut live: Vec<FiberId> = vec![FiberId::HOST];
    let mut next: u32 = 1;
    let mut free: Vec<u32> = Vec::new();
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let r = splitmix(&mut s);
        match r % 12 {
            0 if live.len() < 5 => {
                let idx = free.pop().unwrap_or_else(|| {
                    next += 1;
                    next - 1
                });
                let fiber = FiberId::from_index(idx as usize);
                live.push(fiber);
                events.push(CusanEvent::FiberCreate {
                    fiber,
                    name: fname(r >> 8),
                });
            }
            1 if live.len() > 2 => {
                let victims: Vec<FiberId> = live
                    .iter()
                    .copied()
                    .filter(|&f| f != FiberId::HOST)
                    .collect();
                let f = victims[(r >> 8) as usize % victims.len()];
                live.retain(|&g| g != f);
                free.push(f.index() as u32);
                events.push(CusanEvent::FiberDestroy { fiber: f });
                // The detector requires the current fiber to stay live;
                // destroying is only issued from the host in this model.
            }
            2 | 3 => {
                let fiber = live[(r >> 8) as usize % live.len()];
                events.push(CusanEvent::FiberSwitch {
                    fiber,
                    sync: (r >> 32) & 1 == 1,
                });
            }
            4 => events.push(CusanEvent::HappensBefore {
                key: SyncKey((r >> 8) % 6),
            }),
            5 => events.push(CusanEvent::HappensAfter {
                key: SyncKey((r >> 8) % 6),
            }),
            6 => events.push(CusanEvent::Alloc {
                addr: 0x10_0000 + 0x1000 * i as u64,
                bytes: 256,
                kind: ctx(r >> 16),
            }),
            7 => events.push(CusanEvent::CounterBump {
                counter: bump,
                delta: 1 + (r >> 8) % 3,
            }),
            8 if (r >> 40) & 1 == 0 => events.push(CusanEvent::ApiFault { call, site: r >> 8 }),
            8 => events.push(CusanEvent::ScheduleChoice {
                kind: call,
                arity: 3,
                chosen: (r >> 8) % 3,
            }),
            _ => {
                let addr = 0x1000 * ((r >> 8) % 8) + 8 * ((r >> 40) % 4);
                let len = [8u64, 64, 100, 4096][(r >> 16) as usize % 4];
                if (r >> 33) & 1 == 1 {
                    events.push(CusanEvent::WriteRange {
                        addr,
                        len,
                        ctx: ctx(r >> 24),
                    });
                } else {
                    events.push(CusanEvent::ReadRange {
                        addr,
                        len,
                        ctx: ctx(r >> 24),
                    });
                }
            }
        }
    }
    Script { labels, events }
}

/// Fix up the script so `FiberSwitch` never lands on a destroyed fiber
/// and `FiberDestroy` never kills the current fiber: the generator
/// above already guarantees this because destroys only remove non-host
/// fibers from `live` and switches only pick from `live` — but the
/// *current* fiber may be destroyed. Rewrite such destroys to be
/// preceded by a switch to host.
fn sanitize(script: &mut Script) {
    let mut current = FiberId::HOST;
    let mut out = Vec::with_capacity(script.events.len());
    for ev in &script.events {
        if let CusanEvent::FiberDestroy { fiber } = ev {
            if *fiber == current {
                out.push(CusanEvent::FiberSwitch {
                    fiber: FiberId::HOST,
                    sync: false,
                });
                current = FiberId::HOST;
            }
        }
        if let CusanEvent::FiberSwitch { fiber, .. } = ev {
            current = *fiber;
        }
        out.push(*ev);
    }
    script.events = out;
}

fn fresh() -> CheckSession {
    CheckSession::new(&SessionOptions::new(3))
}

fn run(session: &mut CheckSession, script: &Script, range: std::ops::Range<usize>) {
    if range.start == 0 {
        for l in &script.labels {
            session.intern(l);
        }
    }
    for ev in &script.events[range] {
        session.apply(ev);
    }
}

#[test]
fn session_spill_restore_is_invisible_at_any_split() {
    for seed in [2u64, 77, 0xBEEF] {
        let mut script = gen_script(seed, 400);
        sanitize(&mut script);
        let n = script.events.len();
        let mut reference = fresh();
        run(&mut reference, &script, 0..n);
        let ref_summary = reference.summary();
        for split in [0, 1, n / 3, n - 1, n] {
            let mut head = fresh();
            run(&mut head, &script, 0..split);
            let blob = head.snapshot_bytes();
            let mut tail = CheckSession::restore_bytes(&blob)
                .unwrap_or_else(|e| panic!("restore at split {split}: {e}"));
            // Canonical: re-snapshotting the restored session reproduces
            // the blob byte-for-byte (the serve spill A/B relies on it).
            assert_eq!(tail.snapshot_bytes(), blob, "split {split} not canonical");
            assert_eq!(tail.rank(), head.rank());
            assert_eq!(tail.summary(), head.summary());
            run(&mut tail, &script, split..n);
            assert_eq!(
                tail.summary(),
                ref_summary,
                "seed {seed} split {split}: resumed session diverged"
            );
            assert_eq!(
                tail.snapshot_bytes(),
                reference.snapshot_bytes(),
                "seed {seed} split {split}: final state bytes diverged"
            );
        }
    }
}

#[test]
fn session_restore_rejects_garbage() {
    let s = fresh();
    assert_eq!(
        CheckSession::restore_bytes(b"definitely not a session").err(),
        Some(DecodeError::BadMagic)
    );
    assert_eq!(
        CheckSession::restore_bytes(b"cus").err(),
        Some(DecodeError::Truncated { at: 3 })
    );
    let mut blob = s.snapshot_bytes();
    blob[8] = 0x7F; // version field
    assert_eq!(
        CheckSession::restore_bytes(&blob).err(),
        Some(DecodeError::UnsupportedVersion { got: 0x7F })
    );
    let blob = s.snapshot_bytes();
    assert!(CheckSession::restore_bytes(&blob[..blob.len() - 1]).is_err());
    let mut blob = s.snapshot_bytes();
    blob.push(0);
    assert_eq!(
        CheckSession::restore_bytes(&blob).err(),
        Some(DecodeError::Trailing {
            at: blob.len() - 1,
            left: 1
        })
    );
    // The unframed sections a spill file embeds are not a session blob.
    let mut sections = Vec::new();
    s.write_snapshot(&mut sections);
    assert_eq!(
        CheckSession::restore_bytes(&sections).err(),
        Some(DecodeError::BadMagic)
    );
}

#[test]
fn v1_session_blob_is_refused_by_version() {
    // Layouts v1–v5 wrote the version as a little-endian u32: v1 carried
    // the two shadow mode bytes (tiered, arena), v2 the clock stamps and
    // the same-state cache, v3 the interner and its context map beside
    // the runtime's own label table, v4 fixed-width fields throughout;
    // from v6 on a one-byte varint (the u32's first byte), v6 the page
    // budget, v7 the suppression list, v8 the session's own copies of
    // the detector's counts — none of which exist any more.
    // The one version gate refuses them all before any of the body is
    // interpreted under the current layout.
    let mut blob = fresh().snapshot_bytes();
    assert_eq!(u64::from(blob[8]), LAYOUT_VERSION);
    for old in 1..LAYOUT_VERSION as u32 {
        blob[8..12].copy_from_slice(&old.to_le_bytes());
        assert_eq!(
            CheckSession::restore_bytes(&blob).err(),
            Some(DecodeError::UnsupportedVersion {
                got: u64::from(old)
            })
        );
    }
}

/// Occurrences of `needle` in `haystack`.
fn occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
}

#[test]
fn replayed_session_has_one_label_table() {
    let reader = TraceReader::new(GOLDEN).unwrap();
    let mut s = CheckSession::for_header(reader.header());
    for rec in reader {
        s.feed(&rec.unwrap()).unwrap();
    }
    // A label's interner id is its context id, and both name the same
    // allocation.
    let labels = s.runtime().labels();
    assert!(labels.len() > 10, "the fixture defines its labels");
    assert_eq!(labels.len(), s.strings().len());
    for (i, label) in labels.iter().enumerate() {
        let id = StrId(i as u32);
        assert!(Arc::ptr_eq(label, &s.strings().shared_label(id).unwrap()));
    }
    // The snapshot's label table carries each label once, as a
    // length-prefixed string; the only other place a label's text appears
    // is the named-counter row it keys.
    let blob = s.snapshot_bytes();
    for label in labels {
        let mut encoded = Vec::new();
        put_bytes(&mut encoded, label.as_bytes());
        let counter_row = usize::from(s.counters().named.contains_key(&**label));
        assert_eq!(
            occurrences(&blob, &encoded),
            1 + counter_row,
            "label {label:?}"
        );
    }
    let back = CheckSession::restore_bytes(&blob).unwrap();
    assert_eq!(back.strings().len(), labels.len());
    assert_eq!(back.snapshot_bytes(), blob);
}

#[test]
fn restored_session_reuses_interned_ids() {
    // Interned labels survive the round trip with their ids: an event
    // referencing a pre-spill StrId resolves to the same context label
    // after restore.
    let mut s = fresh();
    let name = s.intern("stream 1");
    let cw = s.intern("kernel write");
    let fiber = s.runtime().peek_next_fiber();
    s.apply(&CusanEvent::FiberCreate { fiber, name });
    s.apply(&CusanEvent::FiberSwitch { fiber, sync: true });
    s.apply(&CusanEvent::WriteRange {
        addr: 0x2000,
        len: 32,
        ctx: cw,
    });
    let mut back = CheckSession::restore_bytes(&s.snapshot_bytes()).unwrap();
    assert_eq!(back.intern("kernel write"), cw, "id stability");
    let cr = back.intern("host read");
    back.apply(&CusanEvent::FiberSwitch {
        fiber: FiberId::HOST,
        sync: false,
    });
    back.apply(&CusanEvent::ReadRange {
        addr: 0x2000,
        len: 32,
        ctx: cr,
    });
    let sum = back.summary();
    assert_eq!(sum.race_count, 1);
    assert_eq!(sum.reports[0].previous.ctx, "kernel write");
    assert_eq!(sum.reports[0].previous.fiber, "stream 1");
}

/// The racy TeaLeaf fixture, checked half-way: its snapshot and the
/// records that follow.
fn racy_half_way() -> (Vec<u8>, Vec<cusan::TraceRecord>) {
    let reader = TraceReader::new(RACY).unwrap();
    let mut s = CheckSession::for_header(reader.header());
    let mut records: Vec<_> = reader.map(Result::unwrap).collect();
    let rest = records.split_off(records.len() / 2);
    for rec in &records {
        s.feed(rec).unwrap();
    }
    (s.snapshot_bytes(), rest)
}

const RACY: &[u8] = include_bytes!("../../../tests/data/tealeaf_small_racy.trace");

#[test]
fn every_proper_prefix_is_refused_at_a_position() {
    let (blob, _) = racy_half_way();
    for cut in 0..blob.len() {
        let e = CheckSession::restore_bytes(&blob[..cut])
            .err()
            .expect("a proper prefix restored");
        assert!(
            e.at().is_some_and(|at| at <= cut),
            "prefix of {cut} bytes: {e}"
        );
    }
}

#[test]
fn a_flipped_byte_is_refused_or_yields_a_session_that_takes_the_rest() {
    let (blob, rest) = racy_half_way();
    let mut seed = 0x5EED;
    let (mut refused, mut restored) = (0, 0);
    for _ in 0..256 {
        let r = splitmix(&mut seed);
        let mut damaged = blob.clone();
        damaged[(r % blob.len() as u64) as usize] ^= 1 + ((r >> 32) % 255) as u8;
        let Ok(mut s) = CheckSession::restore_bytes(&damaged) else {
            refused += 1;
            continue;
        };
        restored += 1;
        // A refusal of a record is the session's answer; a panic is not.
        for rec in &rest {
            if s.feed(rec).is_err() {
                break;
            }
        }
        s.into_summary();
    }
    assert_eq!(refused + restored, 256);
    assert!(
        refused > 0 && restored > 0,
        "{refused} refused, {restored} restored"
    );
}
