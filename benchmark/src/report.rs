//! `--all`: every workload in a fresh child process, one table of
//! every metric, and the `--repeat-check` comparison of two passes.

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{host, Args, DEFAULT_SECONDS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// What one child reported.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run `workload` in a fresh process (so peak RSS is its own) and
/// parse the result line it prints last.
fn run_child(
    workload: &str,
    args: &Args,
    trace: bool,
    out_dir: &Path,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &out_dir.to_string_lossy()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("{workload}: {e}: {line}"))?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{workload}: no {k:?} in result"))
    };
    let count = |k: &str| -> Result<u64, String> {
        match field(k)? {
            Value::Number(n) => n
                .as_u64()
                .ok_or_else(|| format!("{workload}: {k} not whole")),
            _ => Err(format!("{workload}: {k} not a number")),
        }
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?.as_object().unwrap_or_default() {
        match m.get("value") {
            Some(Value::Number(n)) => metrics.insert(name.clone(), n.as_f64()),
            _ => return Err(format!("{workload}: metric {name} has no numeric value")),
        };
    }
    Ok(ChildResult {
        correct: field("correct")? == &Value::Bool(true),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// One pass over `workloads`: `(workload, result)` in order. A child
/// that could not be run or parsed counts as one failed operation.
fn pass(
    workloads: &[&str],
    args: &Args,
    trace: bool,
    out_dir: &Path,
) -> Vec<(String, ChildResult)> {
    workloads
        .iter()
        .map(|w| {
            let result = run_child(w, args, trace, out_dir).unwrap_or_else(|e| {
                eprintln!("CHECK FAILED: {e}");
                ChildResult {
                    correct: false,
                    attempted: 1,
                    failed: 1,
                    metrics: BTreeMap::new(),
                }
            });
            (w.to_string(), result)
        })
        .collect()
}

fn print_pass(title: &str, results: &[(String, ChildResult)], end_to_end: bool) {
    println!("\n== {title} ==");
    for (workload, r) in results {
        if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
            println!("\n{workload} — {}", w.why);
        }
        println!(
            "  correct={} attempted={} failed={} failed_share={}",
            r.correct,
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64
        );
        println!(
            "  {:<38} {:>16} {:<7} {:<7} bound",
            "metric", "value", "unit", "better"
        );
        let row = |name: &str, unit: &str, better: Better, bound: String| {
            let value = r.metrics.get(name).copied().unwrap_or(f64::NAN);
            println!(
                "  {name:<38} {value:>16.6} {unit:<7} {:<7} {bound}",
                better.as_str()
            );
        };
        if end_to_end {
            for m in &END_TO_END {
                row(m.name, m.unit, m.better, format!("{:.0}%", m.bound * 100.0));
            }
        } else {
            for m in &PER_LAYER {
                let bound = if m.exact { "exact" } else { "-" };
                row(m.name, m.unit, m.better, bound.to_string());
            }
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative =
/// better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare two passes metric by metric; returns the number of
/// disagreements beyond the benchmark's own bounds.
fn compare(
    first: &[(String, ChildResult)],
    second: &[(String, ChildResult)],
    end_to_end: bool,
) -> u64 {
    let mut misses = 0;
    for ((workload, a), (_, b)) in first.iter().zip(second) {
        println!("\n{workload}: first vs second pass");
        let mut row = |name: &str, verdict: &dyn Fn(f64, f64) -> Option<bool>| {
            let (x, y) = (
                a.metrics.get(name).copied().unwrap_or(f64::NAN),
                b.metrics.get(name).copied().unwrap_or(f64::NAN),
            );
            let mark = match verdict(x, y) {
                Some(true) => "ok",
                Some(false) => {
                    misses += 1;
                    "DIFFERS"
                }
                None => "",
            };
            println!(
                "  {name:<38} {x:>16.6} {y:>16.6} ratio {:>8.4} {mark}",
                y / x
            );
        };
        if end_to_end {
            for m in &END_TO_END {
                // Either pass may be the slower one.
                row(m.name, &|x, y| {
                    Some(worsening(x, y, m.better).abs() <= m.bound)
                });
            }
        } else {
            for m in &PER_LAYER {
                row(m.name, &|x, y| m.exact.then_some(x == y));
            }
        }
        if a.failed != b.failed {
            misses += 1;
            println!("  failed: {} vs {} DIFFERS", a.failed, b.failed);
        }
    }
    misses
}

fn to_json(results: &[(String, ChildResult)]) -> Value {
    Value::Object(
        results
            .iter()
            .map(|(w, r)| {
                let metrics = r
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), serde_json::to_value(v).unwrap()))
                    .collect();
                (
                    w.clone(),
                    Value::Object(vec![
                        ("correct".to_string(), Value::Bool(r.correct)),
                        (
                            "attempted".to_string(),
                            serde_json::to_value(&r.attempted).unwrap(),
                        ),
                        (
                            "failed".to_string(),
                            serde_json::to_value(&r.failed).unwrap(),
                        ),
                        ("metrics".to_string(), Value::Object(metrics)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Failed operations and incorrect workloads in one pass.
fn misses(results: &[(String, ChildResult)]) -> u64 {
    results
        .iter()
        .map(|(_, r)| r.failed + u64::from(!r.correct))
        .sum()
}

/// `--all`.
pub fn run_all(args: &Args, out_dir: &Path) -> Result<ExitCode, String> {
    let workloads: Vec<&str> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    let stamp = |k: &str, v: String| (k.to_string(), Value::String(v));
    let mut host_info = vec![
        stamp("seed", args.seed.to_string()),
        stamp("cores", host::cores().to_string()),
        stamp("cpu_model", host::cpu_model()),
        stamp("llc_bytes", host::llc_bytes().to_string()),
        stamp(
            "calibration_spin_ms",
            format!("{:.3}", host::calibration_spin_ms()),
        ),
    ];
    host_info.extend(args.stamps.iter().map(|(k, v)| stamp(k, v.clone())));
    println!("nvm-sysbench");
    for (k, v) in &host_info {
        println!("  {k}: {}", v.as_str().unwrap_or_default());
    }

    let mut report = vec![("host".to_string(), Value::Object(host_info))];
    let mut bad = 0u64;
    let mut run = |title: &str, key: &str, trace: bool| {
        let first = pass(&workloads, args, trace, out_dir);
        print_pass(title, &first, !trace);
        bad += misses(&first);
        report.push((key.to_string(), to_json(&first)));
        if args.repeat_check {
            let second = pass(&workloads, args, trace, out_dir);
            print_pass(&format!("{title}, second pass"), &second, !trace);
            bad += misses(&second) + compare(&first, &second, !trace);
            report.push((format!("{key}_second"), to_json(&second)));
        }
    };
    run(
        "end-to-end (harness spans and product tracing off)",
        "end_to_end",
        false,
    );
    if args.traced {
        run("per-layer (traced pass and probes)", "per_layer", true);
    }

    let path = out_dir.join("results.json");
    let mut json =
        serde_json::to_string_pretty(&Value::Object(report)).map_err(|e| e.to_string())?;
    json.push('\n');
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if bad > 0 {
        println!("FAILED: {bad} failed operations, wrong outputs or disagreeing passes");
        return Ok(ExitCode::FAILURE);
    }
    println!("all outputs correct");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }
}
