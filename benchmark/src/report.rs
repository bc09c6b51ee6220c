//! `benchmark run` (all six workloads, one result file) and
//! `benchmark compare` (two result files against the bounds).

use crate::json::Json;
use crate::scratch;
use crate::spec;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// First line of `program args…`'s stdout, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload in a child process and parse its result line.
fn child_result(opts: &RunOptions, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))
}

fn print_metrics(result: &Json) {
    for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

pub fn run_all(opts: &RunOptions) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        let mut entry = Vec::new();
        let passes: &[(bool, &str)] = if opts.traced {
            &[(false, "end_to_end"), (true, "per_layer")]
        } else {
            &[(false, "end_to_end")]
        };
        for &(traced, key) in passes {
            let result = child_result(opts, w.name, traced)?;
            let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            let attempted = result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            all_correct &= failed == 0.0;
            println!(
                "{} [{key}]: {failed} of {attempted} operations failed",
                w.name
            );
            print_metrics(&result);
            if !traced {
                entry.push(("attempted".to_string(), Json::Num(attempted)));
                entry.push(("failed".to_string(), Json::Num(failed)));
            }
            let metrics = result.get("metrics").cloned().unwrap_or(Json::Null);
            entry.push((key.to_string(), metrics));
        }
        workloads.push((w.name.to_string(), Json::Obj(entry)));
    }
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let file = Json::Obj(vec![
        ("schema".into(), Json::Num(1.0)),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("hw_threads".into(), Json::Num(hw_threads as f64)),
        (
            "git_rev".into(),
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Json::Str(tool_line("rustc", &["-V"]))),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| scratch::out_dir().join(format!("result-seed{}.json", opts.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value_of(file: &Json, workload: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// bad direction (negative: better).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut exceeded = 0;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) = (value_of(&a, w.name, m.name), value_of(&b, w.name, m.name))
            else {
                println!("{:<16} {:<24} missing in one file", w.name, m.name);
                exceeded += 1;
                continue;
            };
            let worse = worsening(va, vb, m.better);
            // A count has no noise: any difference is a change.
            let is_count = matches!(m.unit, "B" | "count");
            let mark = if worse > m.bound {
                exceeded += 1;
                "EXCEEDED"
            } else if is_count && va != vb {
                "differs"
            } else {
                ""
            };
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>+8.1}% {:>6.1}% {mark}",
                w.name,
                m.name,
                va,
                vb,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        for (label, file) in [("A", &a), ("B", &b)] {
            let failed = file
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|e| e.get("failed"))
                .and_then(Json::as_f64);
            if failed != Some(0.0) {
                println!(
                    "{:<16} failed operations in {label}: {failed:?} EXCEEDED",
                    w.name
                );
                exceeded += 1;
            }
        }
    }
    if exceeded > 0 {
        println!("{exceeded} bound(s) exceeded");
        Ok(ExitCode::FAILURE)
    } else {
        println!("every end-to-end metric within its bound");
        Ok(ExitCode::SUCCESS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, "lower") + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, "higher") - 0.2).abs() < 1e-12);
        assert!(worsening(100.0, 120.0, "higher") < 0.0);
    }
}
