//! Durable-store recovery experiment (`run_all --store DIR`).
//!
//! Runs a GTC cluster simulation with a per-rank container file under
//! `DIR` (mirroring is cost-free in virtual time, so the run itself is
//! identical to an unattached one), then revives every rank in a
//! brand-new "process" — fresh devices, fresh clock — from its file
//! alone, once per restart strategy. The rows compare eager, parallel
//! and lazy recovery-from-media times; the quick-preset output is
//! committed as `experiments/store_recovery.json`.

use crate::experiments::{cluster_config, make_app};
use crate::report::Table;
use crate::scale::Scale;
use cluster_sim::{Cluster, RankRecovery, RunOptions};
use nvm_chkpt::{CheckpointEngine, PrecopyPolicy, RestartStrategy, Tracer};
use nvm_emu::{MemoryDevice, VirtualClock};
use nvm_store::FileStore;
use serde::Serialize;
use std::path::Path;

/// One restart strategy's recovery measurements, aggregated over every
/// rank's container.
#[derive(Clone, Debug, Serialize)]
pub struct StoreRow {
    /// Restart strategy.
    pub strategy: String,
    /// Containers recovered (one per rank).
    pub ranks: usize,
    /// Chunks per rank's container.
    pub chunks_per_rank: usize,
    /// Last committed epoch found in the containers.
    pub recovered_epoch: u64,
    /// Mean virtual time until the application regains control, ms.
    pub mean_restart_ms: f64,
    /// Worst rank's time until control, ms.
    pub max_restart_ms: f64,
    /// Mean virtual time until every chunk is restored (lazy pays
    /// here), ms.
    pub mean_hot_ms: f64,
    /// Payload bytes actually fetched from media, MB over all ranks.
    pub payload_read_mb: f64,
}

/// Run the store-attached simulation, then recover every rank from
/// its container file under `dir` once per restart strategy.
pub fn run(scale: &Scale, dir: &Path) -> Vec<StoreRow> {
    let config = cluster_config(scale, PrecopyPolicy::Dcpcp);
    let engine_config = config.engine;
    let container_bytes = config.container_bytes;
    Cluster::new(config, {
        let scale = *scale;
        move |_| make_app("gtc", &scale)
    })
    .run(RunOptions::new().with_store_dir(dir))
    .expect("store-attached run");

    let recoveries = Cluster::recover_dir(dir).expect("recover store dir");
    assert!(!recoveries.is_empty(), "run left no containers in {dir:?}");

    let mut rows = Vec::new();
    for (name, strategy) in [
        ("eager", RestartStrategy::Eager),
        ("parallel x4", RestartStrategy::Parallel { streams: 4 }),
        ("lazy", RestartStrategy::Lazy),
    ] {
        let mut control = Vec::new();
        let mut hot = Vec::new();
        let mut payload_bytes = 0u64;
        let mut chunks_per_rank = 0usize;
        let mut epoch = 0u64;
        for RankRecovery { path, state, .. } in &recoveries {
            let store = FileStore::open_existing(path).expect("reopen container");
            let dram = MemoryDevice::dram(container_bytes + (64 << 20));
            let nvm = MemoryDevice::pcm(container_bytes * 2 + (8 << 20));
            let clock = VirtualClock::new();
            let t0 = clock.now();
            let (mut engine, _report) = CheckpointEngine::restart_from_store(
                &dram,
                &nvm,
                container_bytes,
                clock.clone(),
                engine_config,
                strategy,
                Box::new(store),
                Tracer::disabled(),
            )
            .expect("restart from container");
            control.push(clock.now().since(t0).as_secs_f64() * 1e3);
            // Touch every chunk: lazy pays its restores here, the
            // other strategies already did.
            for rec in &state.chunks {
                engine.write_synthetic(rec.id, 0, 1).expect("touch chunk");
            }
            hot.push(clock.now().since(t0).as_secs_f64() * 1e3);
            let stats = engine.persistence_stats().expect("store attached");
            payload_bytes += stats.payload_read_bytes;
            chunks_per_rank = state.chunks.len();
            epoch = state.epoch.expect("run committed at least one epoch");
        }
        let n = control.len().max(1) as f64;
        rows.push(StoreRow {
            strategy: name.to_string(),
            ranks: recoveries.len(),
            chunks_per_rank,
            recovered_epoch: epoch,
            mean_restart_ms: control.iter().sum::<f64>() / n,
            max_restart_ms: control.iter().copied().fold(0.0, f64::max),
            mean_hot_ms: hot.iter().sum::<f64>() / n,
            payload_read_mb: payload_bytes as f64 / (1 << 20) as f64,
        });
    }
    rows
}

/// Render the recovery comparison.
pub fn render(rows: &[StoreRow]) -> Table {
    let mut t = Table::new(
        "Durable store — per-rank recovery from container files",
        &[
            "Strategy",
            "Ranks",
            "Chunks/rank",
            "Epoch",
            "Restart (ms)",
            "Worst (ms)",
            "Hot (ms)",
            "Media read (MB)",
        ],
    );
    for r in rows {
        t.row(vec![
            r.strategy.clone(),
            r.ranks.to_string(),
            r.chunks_per_rank.to_string(),
            r.recovered_epoch.to_string(),
            format!("{:.2}", r.mean_restart_ms),
            format!("{:.2}", r.max_restart_ms),
            format!("{:.2}", r.mean_hot_ms),
            format!("{:.2}", r.payload_read_mb),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_emu::TempDir;

    #[test]
    fn quick_store_experiment_produces_consistent_rows() {
        let tmp = TempDir::new("bench-store").unwrap();
        let rows = run(&Scale::quick(), tmp.path());
        let strategies: Vec<&str> = rows.iter().map(|r| r.strategy.as_str()).collect();
        assert_eq!(strategies, ["eager", "parallel x4", "lazy"]);
        let ranks = Scale::quick().total_ranks();
        // One container per rank, each opening with the superblock magic.
        assert_eq!(std::fs::read_dir(tmp.path()).unwrap().count(), ranks);
        for g in 0..ranks {
            let file = std::fs::read(tmp.join(format!("rank_{g}.store"))).unwrap();
            assert_eq!(&file[..8], b"NVMSTOR1", "rank {g}");
        }
        for r in &rows {
            assert_eq!(r.ranks, ranks);
            assert!(r.chunks_per_rank > 0);
            assert!(r.mean_hot_ms >= r.mean_restart_ms);
        }
        let eager = &rows[0];
        let lazy = &rows[2];
        assert!(
            lazy.mean_restart_ms < eager.mean_restart_ms,
            "lazy must regain control faster than eager ({} vs {})",
            lazy.mean_restart_ms,
            eager.mean_restart_ms
        );
        // Every strategy ends up reading the same payload volume once
        // all chunks are hot.
        assert!((eager.payload_read_mb - lazy.payload_read_mb).abs() < 1e-9);
    }
}
