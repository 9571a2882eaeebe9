//! Key-value serving under checkpoint policies (`run_all` table,
//! `kv_serving.json`).
//!
//! Runs the zipfian `nvm-kv` serving workload
//! ([`hpc_workloads::KvServingWorkload`]) once per pre-copy policy and
//! reports serving throughput, op-latency percentiles, CPR token
//! counts, and — via the `nvm-obs` blame analyzer — how much
//! checkpoint time each policy exposes on the serving critical path.
//! The stop-the-world baseline is `PrecopyPolicy::None` (every local
//! checkpoint is a full coordinated stop); the CPR-style non-blocking
//! configuration is `Dcpcp`, which hides most of the copy work behind
//! the compute slices between operation batches.
//!
//! Unlike the HPC experiments, the kv runs need real bytes: the store
//! reads its own records back, so the engine is forced to
//! [`Materialization::Bytes`] with checksums on, and the per-rank
//! container is sized for serving state (megabytes) rather than the
//! ~900 MB HPC footprint.
//!
//! The paper-preset rows are committed as `experiments/kv_serving.json`
//! (96 ranks x 24 iterations x 512 ops = 1,179,648 serving ops beyond
//! preload); the headline — CPR non-blocking checkpoints expose
//! strictly less serving-path time than stop-the-world — is asserted
//! against that committed artifact, since the quick preset is too
//! small for the ordering to be reliable.

use crate::experiments::blame::POLICIES;
use crate::report::Table;
use crate::scale::Scale;
use cluster_sim::{Cluster, ClusterConfig, RunOptions};
use hpc_workloads::{KvServingConfig, KvServingWorkload};
use nvm_chkpt::{Materialization, PrecopyPolicy};
use nvm_kv::KvConfig;
use nvm_metrics::names;
use nvm_obs::blame;
use serde::{Deserialize, Serialize};

/// One policy's serving + blame summary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KvRow {
    /// Pre-copy policy name (`none` = stop-the-world baseline).
    pub policy: String,
    /// Total ranks serving.
    pub ranks: u64,
    /// Serving operations recorded across all ranks. Preload upserts
    /// run during `setup`, before the cluster attaches metrics, so
    /// they are deliberately absent.
    pub total_ops: u64,
    /// Virtual wall time, nanoseconds.
    pub wall_ns: u64,
    /// `total_ops / wall_s`.
    pub throughput_ops_per_s: f64,
    /// Median op latency, virtual nanoseconds.
    pub p50_op_ns: u64,
    /// 99th-percentile op latency, virtual nanoseconds.
    pub p99_op_ns: u64,
    /// CPR tokens published across all ranks.
    pub tokens: u64,
    /// Record-log bytes appended across all ranks.
    pub log_appended_bytes: u64,
    /// Critical-path length, nanoseconds.
    pub critical_path_ns: u64,
    /// Checkpoint time exposed on the critical path, nanoseconds.
    pub exposed_checkpoint_ns: u64,
    /// `exposed_checkpoint_ns / critical_path_ns`.
    pub exposed_checkpoint_fraction: f64,
    /// Checkpoint copy time hidden under serving compute, nanoseconds.
    pub hidden_precopy_ns: u64,
}

/// Per-rank serving configuration for a scale preset. The quick
/// preset shrinks the key space and batch size; the paper preset
/// serves 4096 keys x 128-byte values per rank, 512 ops per
/// iteration, YCSB-A mix at theta 0.99.
fn serving_config(scale: &Scale) -> KvServingConfig {
    let mut cfg = if scale.size_scale < 1.0 {
        KvServingConfig {
            keys: 128,
            value_bytes: 32,
            ops_per_iteration: 64,
            batch: 16,
            kv: KvConfig {
                initial_index_slots: 256,
                segment_bytes: 64 << 10,
                max_sessions: 2,
                trace_ops: true,
            },
            ..KvServingConfig::default()
        }
    } else {
        KvServingConfig {
            keys: 4096,
            value_bytes: 128,
            ops_per_iteration: 512,
            batch: 64,
            kv: KvConfig {
                initial_index_slots: 8192,
                segment_bytes: 1 << 20,
                max_sessions: 2,
                // Paper scale serves >1M ops; per-op trace events
                // would dominate the stream without changing blame.
                trace_ops: false,
            },
            ..KvServingConfig::default()
        }
    };
    // Spread the iteration's compute budget evenly across batches so
    // the serving run spans the same virtual time as the HPC apps and
    // the local-checkpoint interval fires the same number of times.
    let batches = cfg.ops_per_iteration.div_ceil(cfg.batch).max(1);
    cfg.compute_slice =
        nvm_emu::SimDuration::from_nanos(scale.compute_per_iter.as_nanos() / batches);
    cfg
}

/// Cluster configuration for the serving runs: the shared HPC config
/// with the engine forced to real-byte materialization (the store
/// reads its records back) and the container sized for kv state.
fn kv_cluster_config(scale: &Scale, policy: PrecopyPolicy) -> ClusterConfig {
    let mut c = crate::experiments::cluster_config(scale, policy);
    c.container_bytes = 32 << 20;
    c.engine = c
        .engine
        .with_materialization(Materialization::Bytes)
        .with_checksums(true);
    c
}

/// Run the serving workload once per policy and summarize each run.
pub fn run(scale: &Scale) -> Vec<KvRow> {
    POLICIES
        .iter()
        .map(|&(policy, name)| {
            let cfg = kv_cluster_config(scale, policy);
            let serving = serving_config(scale);
            let r = Cluster::new(cfg, {
                move |rank| Box::new(KvServingWorkload::new(rank as u32, serving.clone()))
            })
            .run(RunOptions::new().with_trace(true).with_metrics(true))
            .expect("kv serving run")
            .result;
            let snap = r.metrics.expect("metrics captured").snapshot;
            let total_ops = snap.counter(names::KV_UPSERTS_TOTAL)
                + snap.counter(names::KV_READS_TOTAL)
                + snap.counter(names::KV_RMWS_TOTAL)
                + snap.counter(names::KV_DELETES_TOTAL);
            let op_ns = snap.histograms.get(names::KV_OP_NS);
            let b = blame(&r.trace);
            let wall_ns = r.total_time.as_nanos();
            KvRow {
                policy: name.to_string(),
                ranks: scale.total_ranks() as u64,
                total_ops,
                wall_ns,
                throughput_ops_per_s: total_ops as f64 / (wall_ns as f64 / 1e9),
                p50_op_ns: op_ns.map_or(0, |h| h.p50),
                p99_op_ns: op_ns.map_or(0, |h| h.p99),
                tokens: snap.counter(names::KV_CHECKPOINT_TOKENS_TOTAL),
                log_appended_bytes: snap.counter(names::KV_LOG_APPENDED_BYTES_TOTAL),
                critical_path_ns: b.critical_path_ns,
                exposed_checkpoint_ns: b.exposed_checkpoint_ns,
                exposed_checkpoint_fraction: b.exposed_checkpoint_fraction,
                hidden_precopy_ns: b.hidden_precopy_ns,
            }
        })
        .collect()
}

/// A policy's exposed checkpoint nanoseconds. Panics if the row is
/// missing.
pub fn exposed(rows: &[KvRow], policy: &str) -> u64 {
    rows.iter()
        .find(|r| r.policy == policy)
        .unwrap_or_else(|| panic!("no {policy} row"))
        .exposed_checkpoint_ns
}

/// Render the comparison.
pub fn render(rows: &[KvRow]) -> Table {
    let mut t = Table::new(
        "KV serving — throughput and exposed checkpoint time by policy (zipfian YCSB-A)",
        &[
            "Policy",
            "Ops",
            "Kops/s",
            "p99 op (us)",
            "Tokens",
            "Exposed ckpt (ms)",
            "Exposed frac",
            "Hidden (ms)",
        ],
    );
    for r in rows {
        t.row(vec![
            r.policy.clone(),
            format!("{}", r.total_ops),
            format!("{:.1}", r.throughput_ops_per_s / 1e3),
            format!("{:.2}", r.p99_op_ns as f64 / 1e3),
            format!("{}", r.tokens),
            format!("{:.1}", r.exposed_checkpoint_ns as f64 / 1e6),
            format!("{:.4}", r.exposed_checkpoint_fraction),
            format!("{:.1}", r.hidden_precopy_ns as f64 / 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [KvRow], policy: &str) -> &'a KvRow {
        rows.iter().find(|r| r.policy == policy).unwrap()
    }

    #[test]
    fn quick_rows_serve_on_every_policy() {
        let scale = Scale::quick();
        let rows = run(&scale);
        let policies: Vec<&str> = rows.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(policies, ["none", "cpc", "dcpc", "dcpcp"]);
        let ranks = scale.total_ranks() as u64;
        let serving = serving_config(&scale);
        for r in &rows {
            assert_eq!(r.ranks, ranks);
            // Every serving op lands in the counters (preload runs
            // before metrics attach and is deliberately absent).
            assert_eq!(
                r.total_ops,
                ranks * scale.iterations * serving.ops_per_iteration,
                "{r:?}"
            );
            assert!(r.throughput_ops_per_s > 0.0, "{r:?}");
            // One CPR token per rank per iteration.
            assert_eq!(r.tokens, ranks * scale.iterations, "{r:?}");
            // The policy changes when bytes move, never what is served.
            assert!(r.log_appended_bytes > 0, "{r:?}");
            assert_eq!(r.log_appended_bytes, rows[0].log_appended_bytes, "{r:?}");
            assert!(
                r.critical_path_ns > 0 && r.critical_path_ns <= r.wall_ns,
                "{r:?}"
            );
            assert!(
                r.exposed_checkpoint_ns > 0 && r.exposed_checkpoint_ns <= r.critical_path_ns,
                "{r:?}"
            );
            assert!(
                (0.0..=1.0).contains(&r.exposed_checkpoint_fraction),
                "{r:?}"
            );
            assert!(r.p50_op_ns > 0 && r.p99_op_ns >= r.p50_op_ns, "{r:?}");
        }
        // The stop-the-world baseline hides nothing; every pre-copy
        // policy overlaps some copy work with serving compute.
        assert_eq!(row(&rows, "none").hidden_precopy_ns, 0);
        for name in ["cpc", "dcpc", "dcpcp"] {
            assert!(row(&rows, name).hidden_precopy_ns > 0, "{name}");
        }
        assert_eq!(render(&rows).len(), POLICIES.len());
    }

    #[test]
    fn threaded_rows_match_serial_exactly() {
        let serial = run(&Scale::quick());
        let threaded = run(&Scale::quick().with_threads(2));
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&threaded).unwrap(),
            "kv serving rows must be bit-identical at any thread count"
        );
    }

    #[test]
    fn committed_paper_rows_show_cpr_beating_stop_the_world() {
        // The headline is a paper-scale effect: assert it against the
        // committed artifact so regenerating the rows re-checks it.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("experiments/kv_serving.json");
        let rows: Vec<KvRow> = serde_json::from_str(
            &std::fs::read_to_string(&path).expect("kv_serving.json committed"),
        )
        .expect("kv_serving.json parses");
        let none = row(&rows, "none");
        let dcpcp = row(&rows, "dcpcp");
        assert!(none.ranks >= 64, "paper rows serve at >= 64 ranks");
        assert!(
            none.total_ops >= 1_000_000,
            "paper rows serve >= 1M ops, got {}",
            none.total_ops
        );
        assert!(none.throughput_ops_per_s > 0.0);
        assert!(
            dcpcp.exposed_checkpoint_ns < none.exposed_checkpoint_ns,
            "CPR non-blocking ({} ns exposed) must beat stop-the-world ({} ns)",
            dcpcp.exposed_checkpoint_ns,
            none.exposed_checkpoint_ns
        );
        assert!(dcpcp.hidden_precopy_ns > 0 && none.hidden_precopy_ns == 0);
        // Less exposed stall also shows up as serving throughput.
        assert!(dcpcp.throughput_ops_per_s > none.throughput_ops_per_s);
    }
}
