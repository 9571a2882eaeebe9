//! Rank-scaling experiment: wall-clock and peak RSS vs rank count,
//! 8 → 1024 ranks, byte-materialized with CRC verification on.
//!
//! This charts what the spill-through-`nvm-store` backend and the
//! hierarchical merge tree buy: without them a byte-materialized run
//! keeps every rank's working copy, both NVM version slots, and the
//! buddy node's remote images in process RAM — O(ranks) resident
//! bytes — and folds every rank's trace/metrics/stat state through
//! one serial coordinator loop. With them, image bytes live in
//! per-device spill files (devices charge identical virtual costs, so
//! results are bit-identical) and the coordinator folds one pre-merged
//! buffer per node.
//!
//! Each row reports the measured peak RSS next to the *naive
//! projection* — measured RSS plus the spill files' live-byte
//! high-water mark, i.e. what the same run would have held resident
//! had every image stayed in RAM. The largest row also injects a hard
//! node failure to prove the recovery ladder still streams buddy
//! images back from the spill files and bit-verifies every fetched
//! chunk at scale.
//!
//! The paper-preset output is committed as
//! `experiments/scaling_ranks.json`.

use crate::report::Table;
use crate::scale::Scale;
use cluster_sim::{
    Cluster, ClusterConfig, FailureEvent, FailureKind, FailureSchedule, RemoteConfig, RunOptions,
    UniformWorkload, Workload,
};
use nvm_chkpt::{EngineConfig, Materialization, PrecopyPolicy};
use nvm_emu::{SimDuration, SimTime};
use serde::Serialize;
use std::time::Instant;

/// Ranks per node at every point of the sweep (nodes = ranks / 8).
pub const RANKS_PER_NODE: usize = 8;

/// The full sweep (paper preset).
pub const RANK_SWEEP: [usize; 5] = [8, 32, 128, 512, 1024];

/// The CI-friendly prefix of the sweep (quick preset).
pub const RANK_SWEEP_QUICK: [usize; 3] = [8, 32, 128];

/// Per-rank checkpoint payload: 4 chunks x 64 KiB. Small enough that
/// a 1024-rank sweep finishes in seconds, large enough that resident
/// image bytes would dominate RSS without spilling.
const CHUNKS: usize = 4;
const CHUNK_BYTES: usize = 64 * 1024;

/// One rank-count measurement.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Total ranks simulated.
    pub ranks: usize,
    /// Nodes hosting them, each one item of the end-of-run merge.
    pub nodes: usize,
    /// Host wall-clock for the run, milliseconds.
    pub wall_ms: f64,
    /// Peak resident set during the run, MB (`VmHWM`, reset per row).
    pub peak_rss_mb: f64,
    /// Spill files' live-byte high-water mark, MB — image bytes that
    /// stayed out of RAM.
    pub spilled_peak_mb: f64,
    /// Naive in-RAM-images projection: measured RSS plus the spilled
    /// peak, MB.
    pub naive_rss_mb: f64,
    /// `peak_rss_mb / naive_rss_mb` — the acceptance gate holds this
    /// below 0.25 at 1024 ranks.
    pub rss_vs_naive: f64,
    /// Region bytes left resident despite spilling (0 = full
    /// coverage).
    pub resident_mb: f64,
    /// Virtual (simulated) seconds — identical shape at every rank
    /// count.
    pub virtual_secs: f64,
}

/// The hard-failure probe at the largest rank count.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryProbe {
    /// Ranks in the probed run.
    pub ranks: usize,
    /// Ladder rung that served the restart.
    pub source: String,
    /// Chunks bit-verified against their recovered images.
    pub verified_chunks: u64,
    /// Bytes streamed back over the interconnect, MB.
    pub bytes_fetched_mb: f64,
}

/// Full experiment output.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRanks {
    /// One row per rank count.
    pub rows: Vec<Row>,
    /// Hard-failure recovery at the sweep's largest rank count.
    pub recovery: RecoveryProbe,
}

/// Reset the kernel's peak-RSS watermark for this process (Linux
/// `clear_refs`; a no-op elsewhere, where per-row peaks then
/// monotonically accumulate and overstate later rows).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current `VmHWM` in bytes (0 when `/proc` is unavailable).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Byte-materialized, CRC-verified, buddy-replicated configuration at
/// `ranks` total ranks.
fn config(ranks: usize, threads: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(ranks.div_ceil(RANKS_PER_NODE))
        .ranks_per_node(RANKS_PER_NODE)
        .container_bytes((CHUNKS * CHUNK_BYTES) * 2 + (1 << 20))
        .engine(
            EngineConfig::builder()
                .materialization(Materialization::Bytes)
                .checksums(true)
                .precopy(PrecopyPolicy::Dcpcp)
                .node_concurrency(RANKS_PER_NODE)
                .build()
                .expect("valid scaling engine config"),
        )
        .local_interval(Some(SimDuration::from_secs(5)))
        .remote(RemoteConfig::infiniband(SimDuration::from_secs(10), true))
        .iterations(8)
        .threads(threads)
        .build()
        .expect("valid scaling config")
}

fn factory(_g: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(
        CHUNKS,
        CHUNK_BYTES,
        SimDuration::from_secs(2),
        CHUNK_BYTES as u64,
    ))
}

/// Run the sweep; quick preset stops at 128 ranks.
pub fn run(scale: &Scale) -> ScalingRanks {
    let sweep: &[usize] = if scale.nodes < Scale::paper().nodes {
        &RANK_SWEEP_QUICK
    } else {
        &RANK_SWEEP
    };
    let mb = (1 << 20) as f64;
    let rows = sweep
        .iter()
        .map(|&ranks| {
            let cfg = config(ranks, scale.threads);
            let nodes = cfg.nodes;
            reset_peak_rss();
            let start = Instant::now();
            let outcome = Cluster::new(cfg, factory)
                .run(RunOptions::new())
                .expect("scaling run");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let rss = peak_rss_bytes() as f64 / mb;
            let spill = outcome.spill.expect("byte runs spill by default");
            let spilled = spill.peak_bytes as f64 / mb;
            let naive = rss + spilled;
            Row {
                ranks,
                nodes,
                wall_ms,
                peak_rss_mb: rss,
                spilled_peak_mb: spilled,
                naive_rss_mb: naive,
                rss_vs_naive: rss / naive.max(1e-9),
                resident_mb: spill.resident_bytes as f64 / mb,
                virtual_secs: outcome.result.total_time.as_secs_f64(),
            }
        })
        .collect::<Vec<_>>();

    // Hard node failure at the largest rank count, after the first
    // remote boundary: recovery must stream the buddy images back out
    // of the spill files and bit-verify every chunk.
    let max_ranks = *sweep.last().expect("non-empty sweep");
    let cfg =
        config(max_ranks, scale.threads).with_failure_schedule(FailureSchedule::from_events(vec![
            FailureEvent {
                at: SimTime::from_secs(11),
                kind: FailureKind::Hard,
                node: 1,
            },
        ]));
    let result = Cluster::new(cfg, factory)
        .run(RunOptions::new())
        .expect("recovery probe run")
        .result;
    let rec = result.recovery.first().expect("one hard failure injected");
    let recovery = RecoveryProbe {
        ranks: max_ranks,
        source: rec.source.name().to_string(),
        verified_chunks: rec.verified_chunks,
        bytes_fetched_mb: rec.bytes_fetched as f64 / mb,
    };

    ScalingRanks { rows, recovery }
}

/// Markdown table for the sweep.
pub fn render(out: &ScalingRanks) -> Table {
    let mut t = Table::new(
        "Rank scaling — wall-clock and peak RSS vs rank count (byte-materialized, spilled)",
        &[
            "ranks",
            "nodes",
            "wall ms",
            "peak RSS (MB)",
            "spilled peak (MB)",
            "naive RSS (MB)",
            "RSS/naive",
        ],
    );
    for r in &out.rows {
        t.row(vec![
            r.ranks.to_string(),
            r.nodes.to_string(),
            format!("{:.0}", r.wall_ms),
            format!("{:.1}", r.peak_rss_mb),
            format!("{:.1}", r.spilled_peak_mb),
            format!("{:.1}", r.naive_rss_mb),
            format!("{:.2}", r.rss_vs_naive),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_spills_and_recovers_at_scale() {
        let out = run(&Scale::quick());
        let ranks: Vec<usize> = out.rows.iter().map(|r| r.ranks).collect();
        assert_eq!(ranks, RANK_SWEEP_QUICK);
        for r in &out.rows {
            assert_eq!(r.nodes * RANKS_PER_NODE, r.ranks);
            // Every row pushed its image bytes to spill files, fully.
            assert!(r.spilled_peak_mb > 0.0, "{r:?}");
            assert_eq!(r.resident_mb, 0.0, "{r:?}");
            assert!(r.rss_vs_naive <= 1.0);
        }
        // Spilled volume grows with rank count (more images).
        assert!(out.rows.last().unwrap().spilled_peak_mb > out.rows[0].spilled_peak_mb);
        let last = out.rows.last().unwrap();
        // The RSS gate, at the size where images dwarf the rest of this
        // process (`tests/rank_scaling.rs` counts allocations exactly).
        assert!(last.rss_vs_naive < 0.25, "{last:?}");
        // The hard failure recovered from the buddy rung with every
        // chunk bit-verified out of the spilled images.
        assert_eq!(out.recovery.source, "remote-buddy");
        assert!(out.recovery.verified_chunks > 0);
        assert!(out.recovery.bytes_fetched_mb > 0.0);
        assert_eq!(render(&out).len(), out.rows.len());
    }
}
