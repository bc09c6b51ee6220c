//! The serve determinism contract: N concurrent sessions multiplexed
//! over one checker pool produce summaries bit-for-bit identical to solo
//! synchronous replays — at any worker count and under chunked
//! interleaved delivery, in process and over sockets.
//!
//! The corpus is the golden TeaLeaf fixture (recorded by
//! `tests/trace_fixture.rs` — regenerate, don't hand-edit) plus rank
//! traces of both mini-apps at test size, recorded fresh per test run.

use cusan::{TraceErrorKind, TracePos};
use cusan_serve::{solo_summary, summary_to_json, EngineConfig, ServeEngine, SessionIngest};
use std::sync::Arc;

const GOLDEN: &str = include_str!("../../../tests/data/tealeaf_small.trace");

/// Golden fixture + one trace per rank per mini-app, at the sizes
/// `cusan-apps`'s `trace_replay.rs` records them.
fn corpus() -> Vec<Vec<u8>> {
    let jacobi = cusan_apps::JacobiConfig {
        nx: 64,
        ny: 32,
        ranks: 2,
        iters: 20,
        ..Default::default()
    };
    let tealeaf = cusan_apps::TeaLeafConfig {
        nx: 16,
        ny: 16,
        ranks: 2,
        steps: 1,
        ..Default::default()
    };
    let flavor = cusan::Flavor::MustCusan;
    let ranks = [
        cusan_apps::run_jacobi_traced(&jacobi, flavor).outcome.ranks,
        cusan_apps::run_tealeaf_traced(&tealeaf, flavor)
            .outcome
            .ranks,
    ];
    let mut traces = vec![GOLDEN.as_bytes().to_vec()];
    for rank in ranks.into_iter().flatten() {
        traces.push(rank.trace.expect("traced runs record"));
    }
    traces
}

/// Drive `sessions[i] = corpus[i % corpus.len()]` concurrently through
/// one engine (one thread per session, chunked feeds) and assert every
/// summary equals its solo replay. Returns the engine for stats checks.
fn run_sessions(
    config: EngineConfig,
    corpus: &[Vec<u8>],
    sessions: usize,
    chunk: usize,
) -> Arc<ServeEngine> {
    let solo: Vec<_> = corpus
        .iter()
        .map(|t| solo_summary(t).expect("corpus traces parse"))
        .collect();
    let engine = ServeEngine::new(config);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let trace = &corpus[i % corpus.len()];
                scope.spawn(move || {
                    let mut ingest = SessionIngest::new(engine);
                    for c in trace.chunks(chunk) {
                        ingest.feed(c).expect("feed");
                    }
                    (i, ingest.finish().expect("finish"))
                })
            })
            .collect();
        for h in handles {
            let (i, served) = h.join().expect("session thread");
            let expected = &solo[i % corpus.len()];
            assert_eq!(
                &served,
                expected,
                "session {i} (corpus trace {}) diverged from solo sync replay",
                i % corpus.len()
            );
            // The JSON layer preserves the equality byte-for-byte.
            assert_eq!(
                summary_to_json(i as u64, &served),
                summary_to_json(i as u64, expected)
            );
        }
    });
    engine
}

#[test]
fn concurrent_sessions_match_solo_replay_at_any_worker_count() {
    let corpus = corpus();
    for threads in [1, 2, 4] {
        let engine = run_sessions(
            EngineConfig {
                check_threads: Some(threads),
                ..EngineConfig::default()
            },
            &corpus,
            corpus.len(),
            311, // prime chunk size: every session splits lines mid-byte
        );
        let stats = engine.stats();
        assert_eq!(stats.sessions_finished, corpus.len() as u64);
    }
}

#[test]
fn sixty_four_sessions_over_one_pool() {
    let corpus = corpus();
    let engine = run_sessions(
        EngineConfig {
            check_threads: Some(2),
            ..EngineConfig::default()
        },
        &corpus,
        64,
        1024,
    );
    let stats = engine.stats();
    assert_eq!(stats.sessions_finished, 64);
    // Cross-session label sharing must have fired: 64 sessions over a
    // handful of distinct traces re-present the same labels constantly.
    assert!(
        stats.labels_shared > stats.labels_unique,
        "labels shared {} vs unique {}",
        stats.labels_shared,
        stats.labels_unique
    );
    assert!(stats.peak_resident_pages > 0, "sessions held shadow pages");
}

/// `sessions` sessions (`corpus[i % corpus.len()]`) dealt round-robin
/// over `connections` TCP connections to one listener, every connection
/// interleaving its sessions in small chunks; each reply must be the
/// solo replay's JSON, byte for byte.
fn socket_end_to_end(corpus: &[Vec<u8>], connections: usize, sessions: usize) {
    use cusan_serve::{check_traces_resilient, serve_listener, Reply, RetryPolicy};
    use std::net::{TcpListener, TcpStream};

    let engine = ServeEngine::new(EngineConfig {
        check_threads: Some(2),
        ..EngineConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_listener(engine, listener, Some(connections)))
    };

    let per_conn: Vec<Vec<(u64, Vec<u8>)>> = (0..connections)
        .map(|c| {
            (c..sessions)
                .step_by(connections)
                .map(|i| (i as u64, corpus[i % corpus.len()].clone()))
                .collect()
        })
        .collect();
    let mut replies: Vec<Reply> = std::thread::scope(|scope| {
        let clients: Vec<_> = per_conn
            .iter()
            .map(|traces| {
                scope.spawn(move || {
                    check_traces_resilient(
                        |_| TcpStream::connect(addr),
                        traces,
                        173,
                        &cusan_serve::NetFaults::default(),
                        &RetryPolicy::default(),
                    )
                    .unwrap()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    server.join().unwrap().unwrap();

    replies.sort_by_key(|r| match r {
        Reply::Summary { id, .. } | Reply::Error { id, .. } | Reply::Ack { id, .. } => *id,
    });
    assert_eq!(replies.len(), sessions);
    let solo: Vec<_> = corpus.iter().map(|t| solo_summary(t).unwrap()).collect();
    for (i, reply) in replies.iter().enumerate() {
        let expected = summary_to_json(i as u64, &solo[i % corpus.len()]);
        match reply {
            Reply::Summary { id, json } => {
                assert_eq!(*id, i as u64);
                assert_eq!(*json, expected, "session {i} JSON diverged");
            }
            Reply::Error { id, message } => {
                panic!("session {id} failed server-side: {message}")
            }
            Reply::Ack { id, .. } => panic!("session {id}: stray ack as terminal reply"),
        }
    }
    assert_eq!(engine.stats().sessions_finished, sessions as u64);
}

#[test]
fn socket_end_to_end_replies_with_solo_identical_json() {
    let corpus = corpus();
    // One connection multiplexing every corpus trace.
    socket_end_to_end(&corpus, 1, corpus.len());
    // 64 sessions interleaved over 8 connections, some finishing while
    // others still stream.
    socket_end_to_end(&corpus, 8, 64);
}

#[test]
fn binary_corpus_serves_identically_to_text() {
    // Transcode every corpus trace into the v3 binary encoding and serve
    // *those*: the summaries must still be byte-identical to solo sync
    // replays of the text originals — the serve determinism contract is
    // format-blind.
    let text = corpus();
    let solo: Vec<_> = text
        .iter()
        .map(|t| solo_summary(t).expect("corpus traces parse"))
        .collect();
    let binary: Vec<Vec<u8>> = text
        .iter()
        .map(|t| cusan::transcode(&t[..], cusan::TraceFormat::Binary).expect("transcode"))
        .collect();
    for (t, b) in text.iter().zip(&binary) {
        assert!(b.len() < t.len(), "binary twin should be smaller");
    }
    let engine = run_sessions(
        EngineConfig {
            check_threads: Some(2),
            ..EngineConfig::default()
        },
        &binary,
        binary.len(),
        89, // prime chunk: feeds split varints and length prefixes mid-record
    );
    assert_eq!(engine.stats().sessions_finished, binary.len() as u64);
    // Binary solo replay agrees with text solo replay too.
    for (b, expected) in binary.iter().zip(&solo) {
        assert_eq!(&solo_summary(b).unwrap(), expected);
    }
}

#[test]
fn bad_streams_fail_cleanly_without_poisoning_the_engine() {
    let engine = ServeEngine::new(EngineConfig::default());

    // Garbage header.
    let mut bad = SessionIngest::new(Arc::clone(&engine));
    assert!(bad.feed(b"not a trace\n").is_err());

    // Valid header, malformed body line.
    let mut bad = SessionIngest::new(Arc::clone(&engine));
    bad.feed(b"cusan-trace v2 rank 0 tiered 1 budget none\n")
        .unwrap();
    let err = bad.feed(b"rr zz 8 0\n").unwrap_err();
    assert_eq!(err.position(), Some(TracePos::Line(1)));
    assert_eq!(
        err.kind(),
        &TraceErrorKind::Syntax("bad hex number: invalid digit found in string".into())
    );

    // Close without a header.
    let empty = SessionIngest::new(Arc::clone(&engine));
    assert!(empty.finish().is_err());

    // The engine still checks good sessions afterwards.
    let mut good = SessionIngest::new(Arc::clone(&engine));
    good.feed(GOLDEN.as_bytes()).unwrap();
    let summary = good.finish().unwrap();
    assert_eq!(summary, solo_summary(GOLDEN).unwrap());
    assert_eq!(engine.stats().sessions_finished, 1);
}

#[test]
fn a_range_past_the_address_space_fails_only_its_own_session() {
    use cusan::binio::Encoder;
    use cusan::{CusanEvent, StrId};
    use cusan_serve::proto::{
        close_frame, data_frame, open_frame, parse_reply, quit_frame, read_frame, write_frame,
    };
    use cusan_serve::{serve_connection, Reply};

    // `wr ffffffffffffffff 16 <ctx>` in both encodings.
    let text = b"cusan-trace v2 rank 0 tiered 1 budget none\ns 0 x\nwr ffffffffffffffff 16 0\n";
    let mut binary = Vec::new();
    Encoder::encode_header(&mut binary, 0);
    let mut enc = Encoder::new();
    enc.encode_str(&mut binary, 0, "x");
    enc.encode_event(
        &mut binary,
        &CusanEvent::WriteRange {
            addr: u64::MAX,
            len: 16,
            ctx: StrId(0),
        },
    );
    enc.encode_end(&mut binary);

    let golden = GOLDEN.as_bytes();
    let (head, tail) = golden.split_at(golden.len() / 2);
    let solo_json = summary_to_json(2, &solo_summary(GOLDEN).unwrap());
    for hostile in [&text[..], &binary[..]] {
        // The sibling session streams on both sides of the bad record.
        let engine = ServeEngine::new(EngineConfig::default());
        let mut request = Vec::new();
        for frame in [
            open_frame(1),
            open_frame(2),
            data_frame(2, 0, head),
            data_frame(1, 0, hostile),
            data_frame(2, head.len() as u64, tail),
            close_frame(2),
            quit_frame(),
        ] {
            write_frame(&mut request, &frame).unwrap();
        }
        let mut reply_bytes = Vec::new();
        serve_connection(&engine, &mut request.as_slice(), &mut reply_bytes).unwrap();
        let mut replies = Vec::new();
        let mut r = reply_bytes.as_slice();
        while let Some(payload) = read_frame(&mut r).unwrap() {
            replies.push(parse_reply(&payload).unwrap());
        }
        match &replies[..] {
            [Reply::Error { id: 1, message }, Reply::Summary { id: 2, json }] => {
                // The parser refuses it, so served and solo say the same.
                assert_eq!(*message, solo_summary(hostile).unwrap_err().to_string());
                assert_eq!(*json, solo_json);
            }
            other => panic!("unexpected replies: {other:?}"),
        }
    }
}
