//! Golden observed-run regression gate: trace, analysis and metrics.
//!
//! One serial and one 4-thread quick-preset observation (the traced,
//! metered GTC run behind `run_all --trace/--metrics/--analyze`),
//! made once and shared by both tests, must (a) write a byte-identical
//! JSONL trace, Chrome trace, analysis report and metrics report at
//! either thread count; (b) match the committed
//! `experiments/blame_baseline.json` and
//! `experiments/metrics_baseline.json`; and (c) give the same analysis
//! and flamegraph when the serial JSONL trace is re-analysed offline.
//! There is no tolerance: any drift in the simulation model *or* the
//! analyzer shows up here as a diff. Regenerate both baselines after an
//! intentional change with
//! `BLESS=1 cargo test -p nvm-bench --test blame_golden`.
//!
//! `BLESS=1` also regenerates the committed paper-preset policy
//! comparison `experiments/blame.json` (the artifact
//! `blame::tests::committed_paper_rows_show_dcpcp_exposing_less_than_cpc`
//! asserts the headline claim against), so all three stay in lockstep
//! with the model.

use nvm_bench::experiments::{blame, observe};
use nvm_bench::scale::Scale;
use nvm_obs::{to_folded, to_stable_json};
use nvm_trace::{to_chrome_trace, to_jsonl};
use std::path::PathBuf;
use std::sync::OnceLock;

fn experiments_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("experiments")
}

/// The serial and the 4-thread observation, run once per test binary.
fn observations() -> &'static (observe::Observation, observe::Observation) {
    static PAIR: OnceLock<(observe::Observation, observe::Observation)> = OnceLock::new();
    PAIR.get_or_init(|| {
        (
            observe::run(&Scale::quick()),
            observe::run(&Scale::quick().with_threads(4)),
        )
    })
}

fn metrics_json(obs: &observe::Observation) -> String {
    to_stable_json(obs.metrics.as_ref().expect("a live observation is metered"))
}

#[test]
fn quick_analysis_is_thread_invariant_and_matches_baseline() {
    let (serial, threaded) = observations();
    let jsonl = to_jsonl(&serial.events);
    assert!(
        jsonl == to_jsonl(&threaded.events),
        "JSONL trace must be bit-identical at any thread count"
    );
    assert!(
        to_chrome_trace(&serial.events) == to_chrome_trace(&threaded.events),
        "Chrome trace must be bit-identical at any thread count"
    );
    let analysis = to_stable_json(&serial.analysis);
    assert_eq!(
        analysis,
        to_stable_json(&threaded.analysis),
        "analysis report must be bit-identical at any thread count"
    );

    // The analysis is a pure function of the stream: re-analysing the
    // recorded trace gives the same report and flamegraph.
    let offline = observe::from_recorded(&jsonl).expect("recorded trace loads");
    assert_eq!(to_stable_json(&offline.analysis), analysis);
    assert_eq!(to_folded(&offline.events), to_folded(&serial.events));

    let path = experiments_dir().join("blame_baseline.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &analysis).expect("write baseline");
        // Same bytes `run_all`'s write_json produces, so a paper run
        // and a bless leave the committed artifact identical.
        let rows = blame::run(&Scale::paper());
        let body = serde_json::to_string_pretty(&rows).expect("rows serialize");
        std::fs::write(experiments_dir().join("blame.json"), body).expect("write blame.json");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing baseline {}: {e}", path.display()));
    assert_eq!(
        analysis, committed,
        "quick-preset analysis diverged from experiments/blame_baseline.json \
         (BLESS=1 regenerates it after an intentional change)"
    );
}

#[test]
fn quick_metrics_are_thread_invariant_and_match_baseline() {
    let (serial, threaded) = observations();
    let metrics = metrics_json(serial);
    assert_eq!(
        metrics,
        metrics_json(threaded),
        "metrics report must be bit-identical at any thread count"
    );

    let path = experiments_dir().join("metrics_baseline.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &metrics).expect("write metrics baseline");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing baseline {}: {e}", path.display()));
    assert_eq!(
        metrics, committed,
        "quick-preset metrics diverged from experiments/metrics_baseline.json \
         (BLESS=1 regenerates it after an intentional model change)"
    );
}
