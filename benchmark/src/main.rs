//! `nvm-sysbench`: the repository's end-to-end and per-layer benchmark.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and prints one JSON result line last —
//!   the form `BENCHMARK.json`'s driver calls.
//! * `--all [--traced] [--repeat-check]` runs every workload that way
//!   in a fresh child process each, checks the outputs, and prints
//!   every metric by name with unit, direction and regression bound.
//!
//! Everything is measured from outside the product: harness spans
//! around calls into each crate's public functions, the public side
//! channels (`RunOptions::with_profile/with_metrics/with_trace`,
//! `EngineStats`, `persistence_stats()`, `KvStats`, `SpillReport`) and
//! direct probes. See `README.md` for every metric's source call.

mod bench;
mod catalog;
mod cluster;
mod fixture;
mod gen;
mod host;
mod kv;
mod probes;
mod report;
mod spans;
mod stats;
mod store;

use bench::{Bench, Ctx};
use cluster::{ClusterBench, ExpectedVirtual, Shape};
use nvm_emu::TempDir;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  nvm-sysbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
  nvm-sysbench --all [--workload NAME]... [--seed N] [--seconds S] [--traced]
               [--repeat-check] [--out DIR] [--stamp KEY=VALUE]...
  nvm-sysbench --bless-virtual
workloads: hpc_model48 ranks512_bytes_t1 ranks512_bytes_t2 kv_ycsb_a kv_ycsb_b
           store_commit_restart";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    all: bool,
    traced: bool,
    repeat_check: bool,
    bless_virtual: bool,
    setup_only: bool,
    stamps: Vec<(String, String)>,
}

impl Args {
    /// Strict parse: an unknown flag, a missing or malformed value is
    /// an error, never a silently applied default.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !catalog::is_workload(&w) {
                        return Err(format!("unknown workload {w:?}"));
                    }
                    out.workloads.push(w);
                }
                "--seed" => {
                    let v = value()?;
                    out.seed = v.parse().map_err(|_| format!("invalid --seed {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    let s: f64 = v.parse().map_err(|_| format!("invalid --seconds {v:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {v} outside (0, 600]"));
                    }
                    out.seconds = Some(s);
                }
                "--trace" => {
                    out.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    });
                }
                "--out" => out.out = Some(PathBuf::from(value()?)),
                "--stamp" => {
                    let v = value()?;
                    let (k, val) = v
                        .split_once('=')
                        .ok_or_else(|| format!("--stamp takes KEY=VALUE, not {v:?}"))?;
                    out.stamps.push((k.to_string(), val.to_string()));
                }
                "--all" => out.all = true,
                "--traced" => out.traced = true,
                "--repeat-check" => out.repeat_check = true,
                "--bless-virtual" => out.bless_virtual = true,
                "--setup-only" => out.setup_only = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let single = !out.all && !out.bless_virtual;
        if single && out.workloads.len() != 1 {
            return Err("exactly one --workload is required without --all".to_string());
        }
        if !out.all && (out.traced || out.repeat_check || !out.stamps.is_empty()) {
            return Err("--traced, --repeat-check and --stamp need --all".to_string());
        }
        Ok(out)
    }
}

/// Seconds one run measures when `--seconds` is not given — the value
/// `BENCHMARK.json` passes.
const DEFAULT_SECONDS: f64 = 10.0;

/// Where output goes by default, relative to the working directory
/// (the repository root).
const DEFAULT_OUT: &str = "benchmark/out";

fn make_bench(workload: &str, seed: u64, tmp: &Path) -> Box<dyn Bench> {
    match workload {
        "hpc_model48" => Box::new(ClusterBench::new(Shape::Hpc48)),
        "ranks512_bytes_t1" => Box::new(ClusterBench::new(Shape::Ranks512 { threads: 1 })),
        "ranks512_bytes_t2" => Box::new(ClusterBench::new(Shape::Ranks512 { threads: 2 })),
        "kv_ycsb_a" => Box::new(kv::KvBench::new(kv::Mix::A, seed, tmp.to_path_buf())),
        "kv_ycsb_b" => Box::new(kv::KvBench::new(kv::Mix::B, seed, tmp.to_path_buf())),
        "store_commit_restart" => Box::new(store::StoreBench::new(seed, tmp.to_path_buf())),
        other => unreachable!("{other} passed Args::parse"),
    }
}

/// One directory under `out_dir` for every file this process creates
/// — containers, spill files and, through `TMPDIR`, the cluster's own
/// temporary directories — removed when the handle drops.
fn scratch(out_dir: &Path) -> Result<TempDir, String> {
    let tmp = TempDir::new_in(out_dir, "tmp").map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::env::set_var("TMPDIR", tmp.path());
    Ok(tmp)
}

/// One workload in this process.
fn run_single(args: &Args, out_dir: PathBuf) -> Result<ExitCode, String> {
    let workload = args.workloads[0].clone();
    let tmp = scratch(&out_dir)?;
    let mut bench = make_bench(&workload, args.seed, tmp.path());
    if args.setup_only {
        let ok = bench::setup_only(bench.as_mut());
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        out_dir,
        tmp: tmp.path().to_path_buf(),
    };
    let outcome = if args.trace.unwrap_or(false) {
        bench::traced_pass(bench.as_mut(), &ctx)
    } else {
        bench::timed_pass(bench.as_mut(), &ctx)
    };
    drop(bench);
    drop(tmp);
    println!("{}", outcome.to_json());
    Ok(ExitCode::SUCCESS)
}

/// Re-measure the virtual-clock rows and rewrite
/// `benchmark/expected_virtual.json`. The only way those rows change.
fn bless_virtual() -> Result<ExitCode, String> {
    let rows = ExpectedVirtual {
        hpc_model48: ClusterBench::measure_virtual(Shape::Hpc48),
        ranks512_bytes: ClusterBench::measure_virtual(Shape::Ranks512 { threads: 1 }),
    };
    let path = Path::new("benchmark/expected_virtual.json");
    if !path.parent().is_some_and(Path::is_dir) {
        return Err("run --bless-virtual from the repository root".to_string());
    }
    let mut json = serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?;
    json.push('\n');
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "blessed {} + {} rows into {}",
        rows.hpc_model48.len(),
        rows.ranks512_bytes.len(),
        path.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    let done = std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("{}: {e}", out_dir.display()))
        .and_then(|()| {
            if args.bless_virtual {
                let _tmp = scratch(&out_dir)?;
                bless_virtual()
            } else if args.all {
                report::run_all(&args, &out_dir)
            } else {
                run_single(&args, out_dir)
            }
        });
    match done {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let a = parse(&[
            "--workload",
            "kv_ycsb_a",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["kv_ycsb_a"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(8.0), Some(true)));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(parse(&[]).unwrap_err().contains("--workload"));
        assert!(parse(&["--workload", "nope"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse(&["--workload"]).unwrap_err().contains("value"));
        assert!(parse(&["--workload", "kv_ycsb_a", "--trace", "2"])
            .unwrap_err()
            .contains("0 or 1"));
        assert!(parse(&["--workload", "kv_ycsb_a", "--seconds", "0"])
            .unwrap_err()
            .contains("outside"));
        assert!(parse(&["--workload", "kv_ycsb_a", "--traced"])
            .unwrap_err()
            .contains("--all"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse(&["--all", "--stamp", "x"])
            .unwrap_err()
            .contains("KEY=VALUE"));
    }

    #[test]
    fn all_form_takes_filters_and_stamps() {
        let a = parse(&[
            "--all",
            "--workload",
            "kv_ycsb_a",
            "--workload",
            "kv_ycsb_b",
            "--traced",
            "--repeat-check",
            "--stamp",
            "commit=abc",
        ])
        .unwrap();
        assert!(a.all && a.traced && a.repeat_check);
        assert_eq!(a.workloads.len(), 2);
        assert_eq!(a.stamps, [("commit".to_string(), "abc".to_string())]);
    }
}
