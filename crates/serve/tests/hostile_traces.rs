//! Traces that decode but lie: every record is well-formed, and the
//! fiber events describe an execution no runtime produced (a switch to a
//! fiber that never existed, a second destroy, …) — or the range events
//! name more contexts than a shadow slot has ids for; and a text line
//! that never ends. Served, such a trace must cost its own session an
//! `E` naming what is wrong — not a panic, not its connection, not the
//! session next to it, not the listener.
//!
//! The solo leg of the same matrix (`replay_stream`) is
//! `inconsistent_fiber_events_are_refused_in_both_encodings` in
//! `crates/core/src/trace.rs`.

use cusan::{binio, transcode, TraceErrorKind, TraceFormat};
use cusan_serve::proto::{
    close_frame, data_frame, open_frame, parse_reply, quit_frame, read_frame, write_frame,
};
use cusan_serve::{
    check_traces_resilient, serve_connection, serve_listener, solo_summary, summary_to_json,
    EngineConfig, FeedError, Reply, RetryPolicy, ServeEngine, SessionIngest,
};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::Arc;

const GOLDEN: &str = include_str!("../../../tests/data/tealeaf_small.trace");
const HEADER: &str = "cusan-trace v2 rank 0 tiered 1 budget none\n";

/// (text body, what the refusal says).
const BODIES: [(&str, &str); 5] = [
    ("fs 7\n", "switch to fiber 7, which is not alive"),
    ("fd 0\n", "destroy of the host fiber"),
    (
        "s 0 f\nfc 5 0\n",
        "create of fiber 5, but the fiber table assigns 1 next",
    ),
    (
        "s 0 f\nfc 1 0\nfd 1\nfd 1\n",
        "destroy of fiber 1, which is not alive",
    ),
    (
        "s 0 f\nfc 1 0\nfy 1\nfd 1\n",
        "destroy of fiber 1, the current fiber",
    ),
];

/// A text trace in both encodings, each with the refusal it earns.
fn both_encodings(text: Vec<u8>, refusal: String) -> [(Vec<u8>, String); 2] {
    let binary = transcode(&text[..], TraceFormat::Binary).expect("the records decode");
    [(text, refusal.clone()), (binary, refusal)]
}

/// Every body in both encodings, with its refusal.
fn hostile_traces() -> Vec<(Vec<u8>, String)> {
    BODIES
        .iter()
        .flat_map(|(body, why)| {
            both_encodings(
                format!("{HEADER}{body}").into_bytes(),
                format!("inconsistent fiber event: {why}"),
            )
        })
        .collect()
}

/// One read per fresh context label, 2^20 + 1 of them: a label's id is
/// its context id, so ids 0..2^20 − 1 are all usable and the last label,
/// id 2^20, is the one a shadow slot cannot name. Returns the trace in
/// both encodings and the number of its last record.
fn context_flood() -> ([(Vec<u8>, String); 2], u64) {
    const LABELS: u64 = (1 << 20) + 1;
    let mut text = HEADER.as_bytes().to_vec();
    for i in 0..LABELS {
        writeln!(text, "s {i} c{i:x}\nrr 1000 8 {i}").unwrap();
    }
    let refusal =
        "context table exhausted: a new context label with all 1048576 ids taken".to_string();
    (both_encodings(text, refusal), 2 * LABELS)
}

/// One connection's frames: the hostile session 1 (in 1 MiB frames) in
/// the middle of its neighbour, session 2, which streams on both sides
/// of it.
fn write_request(to: &mut impl std::io::Write, hostile: &[u8]) {
    write_request_framed(to, hostile, 1 << 20);
}

/// [`write_request`] with the hostile session in `frame`-byte frames.
fn write_request_framed(to: &mut impl std::io::Write, hostile: &[u8], frame: usize) {
    let golden = GOLDEN.as_bytes();
    let (head, tail) = golden.split_at(golden.len() / 2);
    let mut send = |frame: Vec<u8>| write_frame(to, &frame).unwrap();
    send(open_frame(1));
    send(open_frame(2));
    send(data_frame(2, 0, head));
    let mut offset = 0;
    for chunk in hostile.chunks(frame) {
        send(data_frame(1, offset, chunk));
        offset += chunk.len() as u64;
    }
    send(data_frame(2, head.len() as u64, tail));
    send(close_frame(1));
    send(close_frame(2));
    send(quit_frame());
}

/// The pool applies behind the parser, so the refusal answers the `D`
/// that carried the event or the `C` after it (which a `D` that already
/// dropped the session answers "not open", like every `D` after the
/// refusal): session 1's first reply is the refusal either way, and
/// session 2 gets exactly its summary.
fn assert_replies(reply_bytes: &[u8], refusal: &str) {
    let mut replies = Vec::new();
    let mut r = reply_bytes;
    while let Some(payload) = read_frame(&mut r).unwrap() {
        replies.push(parse_reply(&payload).unwrap());
    }
    let (ours, neighbours): (Vec<_>, Vec<_>) = replies
        .iter()
        .partition(|r| matches!(r, Reply::Error { id: 1, .. }));
    let messages: Vec<&str> = ours
        .iter()
        .map(|r| match r {
            Reply::Error { message, .. } => message.as_str(),
            _ => unreachable!("partitioned on errors"),
        })
        .collect();
    match &messages[..] {
        [first, rest @ ..] if rest.iter().all(|m| *m == "session not open") => {
            assert_eq!(*first, refusal);
        }
        other => panic!("{refusal}: session 1 got {other:?}"),
    }
    let solo = summary_to_json(2, &solo_summary(GOLDEN).unwrap());
    match &neighbours[..] {
        [Reply::Summary { id: 2, json }] => assert_eq!(*json, solo),
        other => panic!("{refusal}: session 2 got {other:?}"),
    }
}

#[test]
fn an_inconsistent_trace_fails_only_its_own_session() {
    for (hostile, why) in hostile_traces() {
        let engine = ServeEngine::new(EngineConfig::default());
        let (mut request, mut reply_bytes) = (Vec::new(), Vec::new());
        write_request(&mut request, &hostile);
        serve_connection(&engine, &mut request.as_slice(), &mut reply_bytes).unwrap();
        assert_replies(&reply_bytes, &why);
        assert_eq!(engine.live_sessions(), 0, "{why}");
        assert_eq!(engine.stats().sessions_finished, 1, "{why}");
    }
}

#[test]
fn served_and_solo_refuse_alike_and_only_solo_names_the_record() {
    // The pool applies events behind the parser, so a served refusal has
    // no position; solo replay applies each record as it is read.
    let engine = ServeEngine::new(EngineConfig::default());
    let served = |trace: &[u8]| {
        let mut ingest = SessionIngest::new(Arc::clone(&engine));
        match ingest.feed(trace) {
            Ok(()) => ingest.finish().unwrap_err(),
            Err(e) => e,
        }
    };
    for (trace, why) in hostile_traces() {
        let solo = solo_summary(&trace).unwrap_err();
        let served = served(&trace);
        assert!(
            matches!(served.kind(), TraceErrorKind::Refused(_)),
            "{why}: {served:?}"
        );
        assert_eq!(served.kind(), solo.kind(), "{why}");
        assert_eq!(served.position(), None, "{why}");
        assert!(solo.position().is_some(), "{why}");
        assert_eq!(served.to_string(), why);
    }
    // A header naming a shadow page budget (removed) is refused by the
    // parser on both paths alike, before any record: no position.
    let text = format!("{HEADER}{}", BODIES[0].0);
    let binary = transcode(text.as_bytes(), TraceFormat::Binary).unwrap();
    let (header_len, ..) = binio::decode_header(&binary).unwrap().unwrap();
    let mut budgeted_binary = Vec::new();
    binio::Encoder::encode_header(&mut budgeted_binary, 0);
    // The budget is the header's last field: varint 3 is a budget of 2.
    *budgeted_binary.last_mut().unwrap() = 3;
    budgeted_binary.extend_from_slice(&binary[header_len..]);
    let budgeted_text = text.replace("budget none", "budget 2").into_bytes();
    for trace in [budgeted_text, budgeted_binary] {
        let (solo, served) = (solo_summary(&trace).unwrap_err(), served(&trace));
        assert!(matches!(solo.kind(), TraceErrorKind::Syntax(_)), "{solo:?}");
        assert_eq!(served.kind(), solo.kind());
        assert_eq!((served.position(), solo.position()), (None, None));
    }
    assert_eq!(engine.live_sessions(), 0);
}

#[test]
fn a_listener_outlives_every_inconsistent_trace() {
    a_listener_outlives(&hostile_traces());
}

/// One bounded listener, one connection per hostile trace and a last
/// one that is all good: the listener must serve them all and return
/// `Ok` — a connection thread that died would make it panic instead.
fn a_listener_outlives(hostile: &[(Vec<u8>, String)]) {
    let engine = ServeEngine::new(EngineConfig {
        check_threads: Some(2),
        ..EngineConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let engine = Arc::clone(&engine);
        let connections = hostile.len() + 1;
        std::thread::spawn(move || serve_listener(engine, listener, Some(connections)))
    };
    for (trace, why) in hostile {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_request(&mut stream, trace);
        let mut reply_bytes = Vec::new();
        std::io::copy(&mut stream, &mut reply_bytes).unwrap();
        assert_replies(&reply_bytes, why);
    }
    let good = [(9, GOLDEN.as_bytes().to_vec())];
    let replies = check_traces_resilient(
        |_| TcpStream::connect(addr),
        &good,
        4096,
        &cusan_serve::NetFaults::default(),
        &RetryPolicy::default(),
    )
    .unwrap();
    let solo = summary_to_json(9, &solo_summary(GOLDEN).unwrap());
    assert_eq!(replies, [Reply::Summary { id: 9, json: solo }]);

    server.join().expect("listener thread").expect("listener");
    assert_eq!(engine.live_sessions(), 0);
    assert_eq!(engine.stats().sessions_finished, hostile.len() as u64 + 1);
}

#[test]
fn offline_check_answers_an_inconsistent_trace_with_a_line_not_a_backtrace() {
    offline_check_answers_with_a_line(hostile_traces());
}

/// Exit 101 and a backtrace before: the refusal panicked out of
/// `SessionIngest::finish`. Offline `check` is solo replay, so each line
/// is solo's refusal with its `trace line N:` / `trace record N:`.
fn offline_check_answers_with_a_line(hostile: Vec<(Vec<u8>, String)>) {
    let dir = cusan_serve::unique_scratch_dir("hostile-check");
    std::fs::create_dir_all(&dir).unwrap();
    let mut files = Vec::new();
    let mut expected = String::new();
    for (i, (trace, why)) in hostile.into_iter().enumerate() {
        let path = dir.join(format!("hostile-{i}.trace"));
        let solo = solo_summary(&trace).unwrap_err().to_string();
        assert!(solo.starts_with("trace ") && solo.ends_with(&why), "{solo}");
        std::fs::write(&path, trace).unwrap();
        expected += &format!("cusan-serve: {}: {solo}\n", path.display());
        files.push(path);
    }
    expected += &format!("cusan-serve: {0} of {0} traces failed\n", files.len());
    let out = Command::new(env!("CARGO_BIN_EXE_cusan-serve"))
        .arg("check")
        .args(&files)
        .output()
        .expect("run cusan-serve check");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(String::from_utf8(out.stderr).unwrap(), expected);
    assert!(out.stdout.is_empty());
}

#[test]
fn a_text_line_that_never_ends_costs_its_session_one_e_within_the_cap() {
    // 2 MiB without a newline after a valid header, in 4 KiB frames: the
    // session is refused once its partial line passes the record cap,
    // not after buffering (and rescanning) everything it is sent.
    const FRAME: usize = 4096;
    let cap = cusan::binio::MAX_RECORD as usize;
    let mut endless = HEADER.as_bytes().to_vec();
    endless.resize(HEADER.len() + (2 << 20), b'x');
    let refusal = format!("trace line 2: line exceeds the {cap}-byte cap");

    let engine = ServeEngine::new(EngineConfig::default());
    engine.open_new(1).unwrap();
    let mut offset = 0;
    let refused_at = endless
        .chunks(FRAME)
        .find_map(|chunk| match engine.feed(1, offset, chunk) {
            Ok(acked) => {
                offset = acked;
                None
            }
            Err(FeedError::Fatal(e)) => Some((offset as usize + chunk.len(), e)),
            Err(e) => panic!("{e}"),
        });
    let (fed, why) = refused_at.expect("the session is refused");
    assert_eq!(why, refusal);
    assert!(
        fed - HEADER.len() <= cap + FRAME,
        "refused after {fed} bytes"
    );
    assert_eq!(engine.live_sessions(), 0);

    // Its neighbour on the connection finishes as if alone.
    let engine = ServeEngine::new(EngineConfig::default());
    let (mut request, mut reply_bytes) = (Vec::new(), Vec::new());
    write_request_framed(&mut request, &endless, FRAME);
    serve_connection(&engine, &mut request.as_slice(), &mut reply_bytes).unwrap();
    assert_replies(&reply_bytes, &refusal);

    offline_check_answers_with_a_line(vec![(endless, refusal)]);
}

#[test]
fn a_trace_with_more_contexts_than_ids_is_refused_not_asserted_on() {
    // "context table exhausted" was an `assert!` in the detector: a
    // panic on the pool worker applying the batch. One test, its legs
    // in turn: each holds a million labels while it runs.
    let (flood, last_record) = context_flood();
    for ((trace, why), at) in flood.iter().zip([
        format!("trace line {}", last_record + 1),
        format!("trace record {last_record}"),
    ]) {
        assert_eq!(
            solo_summary(trace).unwrap_err().to_string(),
            format!("{at}: {why}")
        );
    }
    a_listener_outlives(&flood);
    offline_check_answers_with_a_line(flood.into());
}
