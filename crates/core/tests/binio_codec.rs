//! Property tests for the v3 binary trace codec (`cusan::binio`).
//!
//! The invariants under random event sequences:
//!
//!   1. **Round trip** — encode → decode yields the identical
//!      string-table and [`CusanEvent`] stream, and re-encoding the
//!      decoded records reproduces the original bytes exactly (the codec
//!      is canonical: minimal-length varints, fixed delta bases).
//!   2. **Transcode closure** — binary → text → binary is byte-identical,
//!      so the text twin is a faithful alternate spelling, not a lossy
//!      export.
//!   3. **Truncation safety** — *every* strict prefix of a valid binary
//!      trace fails with a typed error; no prefix parses silently (the
//!      end-of-trace marker guarantees this) and none panics.
//!
//! The generator exercises the encoder's hard cases on purpose: large
//! addresses and sync keys (multi-byte varints), descending addresses
//! (negative zigzag deltas), labels with `\n`/`\\`/non-ASCII (the escape
//! path of the text twin), and empty event streams.

use cusan::binio::{BinRecord, Decoder, Encoder};
use cusan::{
    transcode, CusanEvent, StrId, TraceError, TraceErrorKind, TraceFormat, TraceReader, TraceRecord,
};
use proptest::prelude::*;
use tsan_rt::codec::put_varint;
use tsan_rt::{FiberId, SyncKey};

/// Labels drawn from fragments that stress escaping and UTF-8 in the
/// text twin (the binary side stores raw bytes either way).
fn label_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("stream"),
            Just("mpi req#"),
            Just(" "),
            Just("\n"),
            Just("\\"),
            Just("é✓"),
            Just("kernel k arg#0 (p) [write]"),
            Just("\t"),
        ],
        1..5,
    )
    .prop_map(|parts| parts.concat())
}

/// Encode a full trace: header, dense string table, events, end marker.
fn encode(
    rank: usize,
    tiered: bool,
    budget: Option<usize>,
    labels: &[String],
    events: &[CusanEvent],
) -> Vec<u8> {
    let mut buf = Vec::new();
    Encoder::encode_header(&mut buf, rank);
    // The header ends in `tiered` and the budget (varint budget + 1); the
    // encoder writes only 1 and none, so other values are patched in.
    buf.truncate(buf.len() - 2);
    buf.push(u8::from(tiered));
    put_varint(&mut buf, budget.map_or(0, |b| b as u64 + 1));
    let mut enc = Encoder::new();
    for (i, l) in labels.iter().enumerate() {
        enc.encode_str(&mut buf, i as u32, l);
    }
    for ev in events {
        enc.encode_event(&mut buf, ev);
    }
    enc.encode_end(&mut buf);
    buf
}

/// Every event of a stream, through the streaming reader. It only
/// decodes: refusing fiber events no runtime could have produced — which
/// the arbitrary ones below are — is replay's job.
fn read_events(bytes: &[u8]) -> Result<Vec<CusanEvent>, TraceError> {
    let mut events = Vec::new();
    for rec in TraceReader::new(bytes)? {
        if let TraceRecord::Event(ev) = rec? {
            events.push(ev);
        }
    }
    Ok(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_and_canonical_reencode(
        rank in 0usize..8,
        tiered in any::<bool>(),
        budget in prop_oneof![Just(None), (1usize..4096).prop_map(Some)],
        labels in proptest::collection::vec(label_strategy(), 1..6),
        raw in proptest::collection::vec((0u8..14, 0u32..6, any::<bool>()), 0..40),
    ) {
        // Materialize events against the actual label count (the raw
        // tuples only carry variant/sid/flag seeds so the vec strategy
        // stays simple; regenerate deterministically from them).
        let nstrs = labels.len() as u32;
        let events: Vec<CusanEvent> = raw
            .iter()
            .map(|&(variant, seed, flag)| {
                let sid = StrId(seed % nstrs);
                let f = FiberId::from_index((seed % 7) as usize);
                let a = 0x4000u64.wrapping_mul(u64::from(seed) + 1);
                match variant {
                    0 => CusanEvent::FiberCreate { fiber: f, name: sid },
                    1 => CusanEvent::FiberSwitch { fiber: f, sync: flag },
                    2 => CusanEvent::FiberDestroy { fiber: f },
                    3 => CusanEvent::HappensBefore { key: SyncKey(a) },
                    4 => CusanEvent::HappensAfter { key: SyncKey(a ^ 0xff) },
                    5 => CusanEvent::ReadRange { addr: a, len: u64::from(seed) * 8, ctx: sid },
                    6 => CusanEvent::WriteRange { addr: !a, len: 8, ctx: sid },
                    7 => CusanEvent::Alloc { addr: a, bytes: 4096, kind: sid },
                    8 => CusanEvent::Free { addr: a, bytes: 4096 },
                    9 => CusanEvent::RequestBegin { serial: u64::from(seed) },
                    10 => CusanEvent::RequestComplete { serial: u64::from(seed) },
                    11 => CusanEvent::CounterBump { counter: sid, delta: u64::from(flag) },
                    12 => CusanEvent::ApiFault { call: sid, site: u64::from(seed) },
                    _ => CusanEvent::ScheduleChoice {
                        kind: sid,
                        arity: 2 + u64::from(seed),
                        chosen: u64::from(flag),
                    },
                }
            })
            .collect();
        let bytes = encode(rank, tiered, budget, &labels, &events);

        // 1. Decode: identical strings + events, End observed, bytes
        //    fully consumed.
        let (hdr_len, drank, dtiered, dbudget) = cusan::binio::decode_header(&bytes)
            .expect("header decodes")
            .expect("header complete");
        prop_assert_eq!(drank, rank);
        prop_assert_eq!(dtiered, tiered);
        prop_assert_eq!(dbudget, budget);
        let mut dec = Decoder::new();
        let mut pos = hdr_len;
        let mut got_strs: Vec<(u32, String)> = Vec::new();
        let mut got_events: Vec<CusanEvent> = Vec::new();
        let mut ended = false;
        while let Some((used, rec)) = dec.decode_record(&bytes[pos..]).expect("decode") {
            pos += used;
            match rec {
                BinRecord::Str { id, label } => got_strs.push((id, label)),
                BinRecord::Event(ev) => got_events.push(ev),
                BinRecord::End => {
                    ended = true;
                    break;
                }
            }
        }
        prop_assert!(ended, "end-of-trace marker not reached");
        prop_assert_eq!(pos, bytes.len(), "trailing bytes after decode");
        let want_strs: Vec<(u32, String)> = labels
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, l)| (i as u32, l))
            .collect();
        prop_assert_eq!(&got_strs, &want_strs);
        prop_assert_eq!(&got_events, &events);

        // 2. Re-encode what was decoded: byte-identical (canonical codec).
        let reencoded = encode(rank, tiered, budget, &labels, &got_events);
        prop_assert_eq!(&reencoded, &bytes);

        // The raw codec above carries any header fields; the trace readers
        // refuse `tiered 0` (a recording made on the removed flat shadow)
        // and a page budget (removed too), in both encodings alike, so
        // the reader-level properties run on a `tiered 1`, unbudgeted twin.
        if !tiered || budget.is_some() {
            let refused = read_events(&bytes).expect_err("removed shadow mode accepted");
            let flag = u8::from(tiered);
            let budget = budget.map_or_else(|| "none".to_string(), |b| b.to_string());
            let text = format!("cusan-trace v2 rank {rank} tiered {flag} budget {budget}\n");
            prop_assert_eq!(Err(refused), read_events(text.as_bytes()));
        }
        let bytes = encode(rank, true, None, &labels, &events);

        // 3. Transcode closure through the text twin.
        let text = transcode(&bytes[..], TraceFormat::Text).expect("binary → text");
        let back = transcode(&text[..], TraceFormat::Binary).expect("text → binary");
        prop_assert_eq!(&back, &bytes);
        let parsed = read_events(&bytes).expect("whole-trace parse");
        prop_assert_eq!(&parsed, &events);

        // 4. Truncation sweep: every strict prefix fails typed, never
        //    panics, never parses.
        for cut in 0..bytes.len() {
            match read_events(&bytes[..cut]) {
                Ok(_) => prop_assert!(false, "prefix of {cut} bytes parsed silently"),
                Err(e) => prop_assert!(
                    matches!(e.kind(), TraceErrorKind::Empty | TraceErrorKind::Truncated(_)),
                    "prefix {cut}: untyped error {e:?}"
                ),
            }
        }
    }
}
