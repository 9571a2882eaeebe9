//! Golden metrics-snapshot regression gate.
//!
//! The quick-preset observation (the traced, metered GTC run behind
//! `run_all --trace/--metrics/--analyze`) must produce a metrics report
//! that is (a) byte-identical regardless of rank-execution thread count
//! and (b) byte-identical to the committed
//! `experiments/metrics_baseline.json`. There is no tolerance: any
//! drift in the simulation model shows up here as a diff. Regenerate
//! the baseline after an intentional model change with
//! `BLESS=1 cargo test -p nvm-bench --test metrics_golden`.

use nvm_bench::experiments::observe;
use nvm_bench::scale::Scale;
use nvm_obs::to_stable_json;
use std::path::PathBuf;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("experiments/metrics_baseline.json")
}

fn metrics_json(scale: &Scale) -> String {
    let obs = observe::run(scale);
    to_stable_json(obs.metrics.as_ref().expect("a live observation is metered"))
}

#[test]
fn quick_metrics_are_thread_invariant_and_match_baseline() {
    let serial = metrics_json(&Scale::quick());
    let threaded = metrics_json(&Scale::quick().with_threads(4));
    assert_eq!(
        serial, threaded,
        "metrics report must be bit-identical at any thread count"
    );

    let path = baseline_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &serial).expect("write baseline");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing baseline {}: {e}", path.display()));
    assert_eq!(
        serial, committed,
        "quick-preset metrics diverged from experiments/metrics_baseline.json \
         (BLESS=1 regenerates it after an intentional model change)"
    );
}
