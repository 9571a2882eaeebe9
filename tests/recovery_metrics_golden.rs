//! Golden metrics for a metered run through each rung of the hard-
//! failure recovery ladder.
//!
//! `experiments/metrics_baseline.json` pins a failure-free run; this
//! test pins what a recovery adds to the metrics report. Three small
//! byte-materialized clusters each lose node 1 once:
//!
//! * `virgin` — no store and no committed remote epoch yet, so the
//!   node's ranks start over; their workload's `setup` runs again, on
//!   a metered engine, and what it records is part of the report;
//! * `local_store` — each rank's durable container holds a committed
//!   epoch, so the ranks restart from it;
//! * `remote_buddy` — no store, but a committed remote epoch, so the
//!   ranks are rebuilt from the images their buddy hosts.
//!
//! In every case the outgoing engines' totals carry over into the
//! revived ranks' registries, so the run's counters stay cumulative.
//! The report must be byte-identical at 1 and 2 threads and to the
//! committed `experiments/recovery_metrics_baseline.json`, with no
//! tolerance. Regenerate it after an intentional model change with
//! `BLESS=1 cargo test -p integration-tests --test recovery_metrics_golden`.

use cluster_sim::{
    Cluster, ClusterConfig, FailureEvent, FailureKind, FailureSchedule, RecoverySource,
    RemoteConfig, RunOptions, Workload,
};
use nvm_chkpt::{CheckpointEngine, ChunkId, EngineConfig, EngineError, Materialization};
use nvm_emu::{SimDuration, SimTime, TempDir};
use nvm_kv::{KvConfig, KvStore};
use std::path::{Path, PathBuf};

const MB: usize = 1 << 20;
const CHUNK_BYTES: usize = 64 * 1024;
const PRELOAD_KEYS: u64 = 16;

/// A rank whose `setup` writes a small kv store (so a revived rank's
/// setup records kv metrics) and whose iterations rewrite one plain
/// data chunk with a rank- and iteration-specific pattern.
struct LadderWorkload {
    global: u64,
    data: Option<ChunkId>,
}

impl Workload for LadderWorkload {
    fn name(&self) -> &str {
        "ladder"
    }

    fn setup(&mut self, engine: &mut CheckpointEngine) -> Result<(), EngineError> {
        let mut kv = KvStore::create(engine, KvConfig::default()).expect("kv store");
        let session = kv.new_session().expect("kv session");
        for k in 0..PRELOAD_KEYS {
            let key = format!("key{k:04}");
            kv.upsert(engine, session, key.as_bytes(), &[k as u8; 48])
                .expect("kv preload");
        }
        kv.checkpoint(engine).expect("kv token");
        self.data = Some(engine.nvmalloc("data", CHUNK_BYTES, true)?);
        Ok(())
    }

    fn iterate(&mut self, engine: &mut CheckpointEngine, iter: u64) -> Result<(), EngineError> {
        let fill = (self.global * 31 + iter) as u8;
        engine.write(self.data.expect("setup ran"), 0, &[fill; CHUNK_BYTES])?;
        engine.compute(SimDuration::from_secs(8));
        Ok(())
    }
}

fn config() -> ClusterConfig {
    let mut c = ClusterConfig::new(2, 2);
    c.container_bytes = 8 * MB;
    c.engine = EngineConfig::builder()
        .materialization(Materialization::Bytes)
        .checksums(true)
        .node_concurrency(2)
        .build()
        .unwrap();
    c.local_interval = Some(SimDuration::from_secs(20));
    c.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(40), false));
    c.iterations = 20;
    c
}

fn hard_at(secs: u64) -> FailureSchedule {
    FailureSchedule::from_events(vec![FailureEvent {
        at: SimTime::from_secs(secs),
        kind: FailureKind::Hard,
        node: 1,
    }])
}

/// The metrics report of one metered run that loses node 1 at `secs`,
/// checking that recovery took the `expected` rung.
fn rung_metrics(
    secs: u64,
    store: Option<&Path>,
    threads: usize,
    expected: RecoverySource,
) -> serde_json::Value {
    let cfg = config()
        .with_failure_schedule(hard_at(secs))
        .with_threads(threads);
    let mut opts = RunOptions::new().with_metrics(true);
    if let Some(dir) = store {
        opts = opts.with_store_dir(dir);
    }
    let factory = |global| -> Box<dyn Workload> { Box::new(LadderWorkload { global, data: None }) };
    let r = Cluster::new(cfg, factory).run(opts).unwrap().result;
    assert_eq!(r.recovery.len(), 1);
    assert_eq!(r.recovery[0].source, expected, "{secs} s, store {store:?}");
    serde_json::to_value(&r.metrics.expect("the run is metered")).unwrap()
}

/// Every rung's report, keyed by rung, as stable pretty JSON.
fn ladder_json(threads: usize) -> String {
    let tmp = TempDir::new("recovery-metrics").unwrap();
    let rungs = serde_json::Value::Object(vec![
        (
            "virgin".to_string(),
            rung_metrics(10, None, threads, RecoverySource::Virgin),
        ),
        (
            "local_store".to_string(),
            rung_metrics(80, Some(tmp.path()), threads, RecoverySource::LocalStore),
        ),
        (
            "remote_buddy".to_string(),
            rung_metrics(100, None, threads, RecoverySource::RemoteBuddy),
        ),
    ]);
    let mut out = serde_json::to_string_pretty(&rungs).unwrap();
    out.push('\n');
    out
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .join("experiments/recovery_metrics_baseline.json")
}

#[test]
fn recovery_metrics_are_thread_invariant_and_match_baseline() {
    let serial = ladder_json(1);
    assert_eq!(
        serial,
        ladder_json(2),
        "recovery metrics must be bit-identical at any thread count"
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
        "recovery metrics diverged from experiments/recovery_metrics_baseline.json \
         (BLESS=1 regenerates it after an intentional model change)"
    );
}
