//! The built binary, end to end at smoke size: all six workloads in
//! under 15 s, every emitted name in `BENCHMARK.json`, and the start-up
//! guard.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

/// Names of the `key` section of `BENCHMARK.json`, without a JSON
/// parser: every entry is written `"name": "<name>"`.
fn manifest_names(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("section");
    let section = &text[start..];
    let end = section.find(']').expect("section end");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn emitted_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics")..];
    metrics
        .split("\": {\"value\"")
        .filter_map(|piece| piece.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_string)
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

#[test]
fn smoke_runs_all_six_workloads_quickly() {
    let started = Instant::now();
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke-test.json");
    let (ok, stdout) = run(&["run", "--smoke", "--out", out.to_str().unwrap()]);
    let took = started.elapsed().as_secs_f64();
    assert!(ok, "{stdout}");
    // The promise is for the optimized build, the only one worth timing.
    if !cfg!(debug_assertions) {
        assert!(took < 15.0, "smoke took {took:.1} s");
    }
    let file = std::fs::read_to_string(&out).expect("result file");
    for workload in manifest_names("workloads") {
        assert!(
            file.contains(&format!("\"{workload}\"")),
            "{workload} missing"
        );
        assert!(stdout.contains(&format!("{workload} [end_to_end]: 0 of")));
    }
    for key in ["hw_threads", "git_rev", "rustc", "seed"] {
        assert!(file.contains(&format!("\"{key}\"")), "{key} missing");
    }
    // A file compares clean against itself.
    let (same, table) = run(&["compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(same, "{table}");
    let _ = std::fs::remove_file(out);
}

#[test]
fn emitted_names_are_exactly_the_manifest() {
    let args = ["--workload", "suite-verdicts", "--seed", "3"];
    let (ok, stdout) = run(&[&args[..], &["--seconds", "0.2", "--trace", "0"]].concat());
    assert!(ok);
    let line = stdout.lines().last().expect("result line");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert_eq!(emitted_names(line), manifest_names("end_to_end"));

    let (ok, stdout) = run(&[&args[..], &["--seconds", "0.4", "--trace", "1"]].concat());
    assert!(ok);
    let line = stdout.lines().last().expect("result line");
    assert_eq!(emitted_names(line), manifest_names("per_layer"));
    let spans = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/suite-verdicts.spans.json");
    assert!(spans.is_file());
}

#[test]
fn refuses_to_start_with_a_product_knob_set() {
    let out = Command::new(BIN)
        .args(["--workload", "suite-verdicts", "--seconds", "0.1"])
        .env("CUSAN_BENCH_RUNS", "1")
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on refusal");
    assert!(String::from_utf8_lossy(&out.stderr).contains("refusing to run"));
}
