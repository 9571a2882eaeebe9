//! `run_all`'s command-line glue, driven through the binary.
//!
//! The experiments' own tests hold what each view contains; this holds
//! what only the binary does with its flags. One quick run with
//! `--trace`, `--analyze`, `--metrics` and `--store` must exit 0 and
//! write the analysis and metrics views byte-identical to the committed
//! `experiments/blame_baseline.json` and `experiments/metrics_baseline.json`
//! (the goldens in `tests/blame_golden.rs` hold the same views through
//! the library). A second run, `--analyze-from` the recorded trace, must
//! write the same analysis and flamegraph as the live run. An
//! `--analyze-from` input that cannot be read makes the exit status 1.

use nvm_emu::TempDir;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("experiments")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Run `run_all` in `dir` on the cheapest experiment, plus `flags`.
fn run_all(dir: &Path, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .current_dir(dir)
        .args(["table1_device_params", "--quick"])
        .args(flags)
        .output()
        .expect("run_all starts")
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("run_all did not write {name}: {e}"))
}

#[test]
fn observed_views_match_the_baselines_and_their_offline_reanalysis() {
    let work = TempDir::new("run_all_cli").unwrap();
    let dir = work.path();
    let stores = work.join("stores");
    let live = run_all(
        dir,
        &[
            "--trace",
            "t.jsonl",
            "--analyze",
            "a.json",
            "--metrics",
            "m.json",
            "--store",
            stores.to_str().unwrap(),
        ],
    );
    assert!(
        live.status.success(),
        "live run failed: {}",
        String::from_utf8_lossy(&live.stderr)
    );
    assert!(
        read(dir, "a.json") == committed("blame_baseline.json"),
        "--analyze diverged from experiments/blame_baseline.json"
    );
    assert!(
        read(dir, "m.json") == committed("metrics_baseline.json"),
        "--metrics diverged from experiments/metrics_baseline.json"
    );
    assert!(
        dir.join("experiments/store_recovery.json").exists(),
        "--store wrote no store_recovery.json"
    );
    assert!(
        std::fs::read_dir(&stores).unwrap().next().is_some(),
        "--store left no container file"
    );

    let offline = run_all(dir, &["--analyze-from", "t.jsonl"]);
    assert!(
        offline.status.success(),
        "offline run failed: {}",
        String::from_utf8_lossy(&offline.stderr)
    );
    assert!(
        read(dir, "t.jsonl.analysis.json") == read(dir, "a.json"),
        "offline analysis differs from the live one"
    );
    assert!(
        read(dir, "t.jsonl.analysis.folded") == read(dir, "a.folded"),
        "offline flamegraph differs from the live one"
    );
}

#[test]
fn an_unreadable_analyze_from_input_fails_the_run() {
    let work = TempDir::new("run_all_cli").unwrap();
    let out = run_all(work.path(), &["--analyze-from", "missing.jsonl"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}
