//! Self-tests that cut across modules: the names the benchmark emits
//! against `BENCHMARK.json`, what its sources may mention, that set-up
//! repeats byte for byte, and that the oracle is live.

use crate::corpus::Corpus;
use crate::json::Json;
use crate::spec;
use crate::workloads::replay::Replay;
use crate::workloads::Workload;
use std::path::Path;
use std::time::Instant;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_is_the_spec_rendered() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        spec::manifest(),
        "BENCHMARK.json is stale: regenerate it with `benchmark manifest`"
    );
}

#[test]
fn names_follow_the_contract() {
    let mut seen = std::collections::HashSet::new();
    let names = (spec::WORKLOADS.iter().map(|w| w.name))
        .chain(spec::END_TO_END.iter().map(|m| m.name))
        .chain(spec::PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(is_name(name), "{name:?} breaks the [A-Za-z0-9_.-]+ rule");
        assert!(seen.insert(name), "{name:?} is used twice");
    }
    for w in &spec::WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in &spec::END_TO_END {
        // The driver refuses a manifest with a wider bound.
        assert!(m.bound <= 0.25, "{}", m.name);
    }
    assert!(spec::END_TO_END
        .iter()
        .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
}

/// The benchmark measures product defaults: its sources name none of the
/// execution-strategy switches, and the only mention of the product's
/// environment prefix is the start-up guard that rejects it.
#[test]
fn sources_name_no_strategy_switch() {
    let banned: Vec<String> = [
        ["shadow_", "tiered"],
        ["shadow_", "arena"],
        ["async_", "check"],
        ["check_", "threads"],
        ["trace_", "format"],
        ["Trace", "Format"],
        ["TraceLine", "Parser"],
        ["Async", "Checker"],
    ]
    .iter()
    .map(|parts| parts.concat())
    .collect();
    let env_prefix = ["CUSAN", "_"].concat();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "src/workloads", "tests"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() >= 10, "source scan found {files:?}");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("source file");
        for word in &banned {
            assert!(
                !text.contains(word.as_str()),
                "{} names {word}",
                path.display()
            );
        }
        let mentions = text.matches(env_prefix.as_str()).count();
        if path.ends_with("src/main.rs") {
            assert!(mentions >= 1, "the start-up guard is gone");
            assert!(
                text.lines()
                    .filter(|l| l.contains(env_prefix.as_str()))
                    .all(|l| l.contains("starts_with") || l.trim_start().starts_with("//")),
                "main.rs mentions the prefix outside its guard"
            );
        } else if path.ends_with("tests/smoke.rs") {
            assert!(
                mentions <= 1,
                "smoke.rs sets one variable to test the guard"
            );
        } else {
            assert_eq!(mentions, 0, "{} mentions {env_prefix}", path.display());
        }
    }
}

#[test]
fn two_setups_record_byte_identical_corpora() {
    let (a, b) = (Corpus::full().unwrap(), Corpus::full().unwrap());
    assert_eq!(a.traces.len(), b.traces.len());
    for (x, y) in a.traces.iter().zip(&b.traces) {
        assert_eq!(x.name, y.name);
        assert!(x.bytes == y.bytes, "{} recorded differently", x.name);
        assert_eq!(x.oracle, y.oracle);
        assert_eq!((x.events, x.labels), (y.events, y.labels));
    }
    assert!(a.events() > 10_000 && a.traces.len() > 100);
}

#[test]
fn a_corrupted_oracle_summary_fails_operations() {
    let corpus = Corpus::of_app(
        "tealeaf-32x32x2",
        crate::adapter::AppConfig::TeaLeaf {
            nx: 32,
            ny: 32,
            steps: 2,
        },
    )
    .unwrap();
    let origin = Instant::now();
    let mut sound = Replay::with_corpus(corpus, 1);
    let (phase, _) = sound.run(0.05, false, origin);
    assert!(phase.tally.attempted >= 1);
    assert_eq!(phase.tally.failed, 0, "{:?}", phase.tally.failures);

    // One wrong digit in one expected summary: the check must notice.
    let oracle = &mut sound.corpus_mut().traces[0].oracle;
    *oracle = oracle.replacen("\"race_count\": 0", "\"race_count\": 1", 1);
    let (phase, _) = sound.run(0.05, false, origin);
    assert_eq!(phase.tally.failed, phase.tally.attempted);
    assert!(phase.tally.failures[0].contains("differs from the solo oracle"));
}
