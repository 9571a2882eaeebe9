//! Cluster-level durable-store recovery.
//!
//! A store-attached run ([`crate::run::RunOptions::store_dir`])
//! leaves one container file per rank — `rank_<global>.store` — and
//! those files are the *only* thing a recovery needs: this module
//! scans a store directory, recovers every rank's container, and
//! reports what each one holds ([`crate::run::Cluster::recover_dir`]
//! is the public entry point). A dead rank is revived by handing its
//! file to [`CheckpointEngine::restart_from_store`] in a brand-new
//! process (see the tests below, which kill a rank after a run and
//! rebuild it from the directory alone).
//!
//! [`CheckpointEngine::restart_from_store`]: nvm_chkpt::CheckpointEngine::restart_from_store

use nvm_store::{FileStore, PersistError, Persistence, RecoveredState};
use std::path::{Path, PathBuf};

/// One rank's recovered container.
#[derive(Debug)]
pub struct RankRecovery {
    /// Global rank number (parsed from the file name, verified against
    /// the container's superblock).
    pub global: u64,
    /// The container file.
    pub path: PathBuf,
    /// What the container holds: last committed epoch (`None` on a
    /// virgin container), the chunk table, and torn-write diagnostics.
    pub state: RecoveredState,
}

/// Scan `dir` for `rank_<n>.store` container files, recover each, and
/// return the recoveries sorted by rank (the engine behind
/// `Cluster::recover_dir`). Files that do not match the naming scheme
/// are ignored; a matching file that fails to open or whose superblock
/// names a different process is an error.
pub(crate) fn scan_store_dir(dir: &Path) -> Result<Vec<RankRecovery>, PersistError> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(PersistError::Io)? {
        let entry = entry.map_err(PersistError::Io)?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(rank) = name
            .strip_prefix("rank_")
            .and_then(|rest| rest.strip_suffix(".store"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((rank, path));
    }
    found.sort_by_key(|(rank, _)| *rank);

    let mut recoveries = Vec::new();
    for (global, path) in found {
        let mut store = FileStore::open_existing(&path)?;
        let state = store.recover()?;
        if state.process_id != global {
            return Err(PersistError::Corrupt(format!(
                "{} names process {} but the file name says rank {global}",
                path.display(),
                state.process_id
            )));
        }
        recoveries.push(RankRecovery {
            global,
            path,
            state,
        });
    }
    Ok(recoveries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Workload;
    use crate::run::{Cluster, ClusterConfig, RunOptions, RunOutcome};
    use nvm_chkpt::{
        CheckpointEngine, EngineConfig, EngineError, Materialization, RestartStrategy, Tracer,
    };
    use nvm_emu::{MemoryDevice, SimDuration, TempDir, VirtualClock};
    use nvm_paging::ChunkId;

    const MB: usize = 1 << 20;

    /// A workload writing *real*, rank-determined bytes every
    /// iteration, so any committed epoch of rank `g` holds exactly
    /// `pattern(g, chunk)` — recoverable bit-for-bit without knowing
    /// which epoch a checkpoint interval landed on.
    struct BytesWorkload {
        global: u64,
        ids: Vec<ChunkId>,
    }

    fn pattern(global: u64, chunk: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (global as usize * 31 + chunk * 7 + i) as u8)
            .collect()
    }

    const CHUNKS: usize = 2;
    const CHUNK_BYTES: usize = 96 * 1024;

    impl Workload for BytesWorkload {
        fn name(&self) -> &str {
            "bytes"
        }

        fn setup(&mut self, engine: &mut CheckpointEngine) -> Result<(), EngineError> {
            self.ids.clear();
            for c in 0..CHUNKS {
                let id = engine.nvmalloc(&format!("data_{c}"), CHUNK_BYTES, true)?;
                self.ids.push(id);
            }
            Ok(())
        }

        fn iterate(
            &mut self,
            engine: &mut CheckpointEngine,
            _iter: u64,
        ) -> Result<(), EngineError> {
            for (c, &id) in self.ids.iter().enumerate() {
                engine.write(id, 0, &pattern(self.global, c, CHUNK_BYTES))?;
            }
            engine.compute(SimDuration::from_secs(8));
            Ok(())
        }
    }

    fn store_config() -> ClusterConfig {
        let mut c = ClusterConfig::new(2, 2);
        c.container_bytes = 8 * MB;
        c.engine = EngineConfig::builder()
            .materialization(Materialization::Bytes)
            .checksums(true)
            .node_concurrency(2)
            .build()
            .unwrap();
        c.local_interval = Some(SimDuration::from_secs(20));
        c.iterations = 8;
        c
    }

    fn factory(global: u64) -> Box<dyn Workload> {
        Box::new(BytesWorkload {
            global,
            ids: Vec::new(),
        })
    }

    fn run_with(cfg: ClusterConfig, opts: RunOptions) -> RunOutcome {
        Cluster::new(cfg, factory).run(opts).unwrap()
    }

    #[test]
    fn store_attached_run_leaves_recoverable_containers() {
        let tmp = TempDir::new("cluster-store").unwrap();
        let result = run_with(store_config(), RunOptions::new().with_store_dir(tmp.path())).result;
        assert!(result.local_checkpoints > 0);
        let stats = result.store.expect("store stats present");
        assert_eq!(stats.commits, 4 * result.local_checkpoints);
        assert!(stats.bytes_written > 0 && stats.fsyncs > 0);

        let recoveries = Cluster::recover_dir(tmp.path()).unwrap();
        assert_eq!(recoveries.len(), 4);
        for (i, rec) in recoveries.iter().enumerate() {
            assert_eq!(rec.global, i as u64);
            assert_eq!(rec.state.epoch, Some(result.local_checkpoints - 1));
            assert_eq!(rec.state.chunks.len(), CHUNKS);
            assert_eq!(rec.state.torn_writes_detected, 0);
        }
    }

    #[test]
    fn killed_rank_recovers_from_the_store_directory_alone() {
        let tmp = TempDir::new("cluster-kill").unwrap();
        let result = run_with(store_config(), RunOptions::new().with_store_dir(tmp.path())).result;
        assert!(result.local_checkpoints > 0);
        // The whole cluster is gone now (run() consumed it); the only
        // survivors are the files under `tmp`.

        let recoveries = Cluster::recover_dir(tmp.path()).unwrap();
        let victim = &recoveries[2]; // rank 2: second node's first rank
        let store = FileStore::open_existing(&victim.path).unwrap();
        let dram = MemoryDevice::dram(64 * MB);
        let nvm = MemoryDevice::pcm(64 * MB);
        let (e, report) = CheckpointEngine::restart_from_store(
            &dram,
            &nvm,
            8 * MB,
            VirtualClock::new(),
            EngineConfig::builder()
                .materialization(Materialization::Bytes)
                .checksums(true)
                .build()
                .unwrap(),
            RestartStrategy::Eager,
            Box::new(store),
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.restored.len(), CHUNKS);
        assert!(report.corrupt.is_empty());
        assert_eq!(e.epoch(), result.local_checkpoints);
        for (c, rec) in victim.state.chunks.iter().enumerate() {
            assert_eq!(
                e.committed_bytes(rec.id).unwrap(),
                pattern(2, c, CHUNK_BYTES),
                "rank 2 chunk {c} must come back bit-for-bit"
            );
        }
    }

    #[test]
    fn parallel_and_serial_runs_write_identical_store_files() {
        let tmp = TempDir::new("cluster-store-det").unwrap();
        let serial_dir = tmp.join("serial");
        let threaded_dir = tmp.join("threaded");
        run_with(
            store_config(),
            RunOptions::new().with_store_dir(&serial_dir),
        );
        run_with(
            store_config().with_threads(4),
            RunOptions::new().with_store_dir(&threaded_dir),
        );
        for g in 0..4 {
            let a = std::fs::read(serial_dir.join(format!("rank_{g}.store"))).unwrap();
            let b = std::fs::read(threaded_dir.join(format!("rank_{g}.store"))).unwrap();
            assert_eq!(a, b, "rank {g} container must not depend on thread count");
        }
    }

    #[test]
    fn attaching_stores_does_not_perturb_the_run() {
        let tmp = TempDir::new("cluster-store-inert").unwrap();
        let traced = RunOptions::new().with_trace(true);
        let plain = run_with(store_config(), traced.clone()).result;
        let mut stored = run_with(store_config(), traced.with_store_dir(tmp.path())).result;
        assert!(stored.store.is_some());
        // The store's own events are in the traced stream...
        const STORE_EVENTS: [&str; 2] = ["store_write", "store_commit"];
        for kind in STORE_EVENTS {
            assert!(
                stored.trace.iter().any(|e| e.kind.name() == kind),
                "a store-attached trace must carry {kind} events"
            );
        }
        // ...and, with them filtered out, the store fields are the only
        // ones allowed to differ.
        stored
            .trace
            .retain(|e| !STORE_EVENTS.contains(&e.kind.name()));
        stored.store = None;
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&stored).unwrap(),
            "store mirroring must be invisible to simulation results"
        );
    }

    #[test]
    fn spilling_images_to_files_does_not_perturb_the_run() {
        // A byte run spills each node's NVM — its ranks' version slots
        // and the images it hosts for its buddy — and nothing else: the
        // DRAM working copies the ranks compute on stay in RAM. That
        // spilling changes only where bytes live is held below the
        // cluster, where a spilled device has an unspilled twin
        // (`nvm-emu`'s region model, the lockstep harness).
        let out = run_with(recovery_config(true), RunOptions::new());
        let report = out.spill.expect("byte runs spill");
        let image = (CHUNKS * CHUNK_BYTES) as u64;
        // One spill file per node, on its NVM.
        assert_eq!(report.devices, 2);
        // What stays in RAM is exactly the 4 ranks' working copies, each
        // written whole every iteration: no NVM region is resident, and
        // the DRAM device spilled none of its own.
        assert_eq!(report.resident_bytes, 4 * image);
        // Two version slots per rank plus the hosted image of each rank
        // lived in the files.
        assert!(
            report.peak_bytes >= 4 * 3 * image,
            "peak {} too small",
            report.peak_bytes
        );
        assert!(report.live_bytes > 0 && report.live_bytes <= report.peak_bytes);
    }

    #[test]
    fn a_spilled_commit_reads_nothing_back_and_the_ship_reads_each_slot_once() {
        // Checksums on, no store, no failure, pre-copy both levels. The
        // working copies are read from DRAM in RAM, and the checksum is
        // taken as each is copied into its NVM slot (pre-copied or
        // coordinated); the spill file is read only to ship a committed
        // slot, once per shipped byte. A commit that read its slot back
        // to hash it would add `copied`.
        let out = run_with(recovery_config(true), RunOptions::new());
        let (r, spill) = (&out.result, out.spill.expect("byte runs spill"));
        let copied = r.engine_stats.precopied_bytes + r.engine_stats.coordinated_bytes;
        let shipped: u64 = r.helper_stats.iter().map(|h| h.bytes_copied).sum();
        assert!(r.engine_stats.precopied_bytes > 0 && shipped > 0);
        assert_eq!(spill.read_bytes, shipped);
        // Every slot and hosted image written went to the files.
        assert!(spill.written_bytes >= copied + shipped);
    }

    // ---- byte-level hard-failure recovery --------------------------

    use crate::failure::{FailureEvent, FailureKind, FailureSchedule};
    use crate::recovery::RecoverySource;
    use crate::run::RemoteConfig;
    use nvm_chkpt::checksum::crc64;
    use nvm_emu::SimTime;
    use nvm_metrics::names;

    /// `store_config` plus remote checkpointing, long enough for two
    /// remote epochs to commit before a late hard failure.
    fn recovery_config(precopy: bool) -> ClusterConfig {
        let mut c = store_config();
        c.iterations = 20;
        c.engine = c.engine.with_precopy(if precopy {
            nvm_chkpt::PrecopyPolicy::Dcpcp
        } else {
            nvm_chkpt::PrecopyPolicy::None
        });
        c.remote = Some(RemoteConfig::infiniband(
            SimDuration::from_secs(40),
            precopy,
        ));
        c
    }

    fn hard_at(secs: u64, node: usize) -> FailureSchedule {
        FailureSchedule::from_events(vec![FailureEvent {
            at: SimTime::from_secs(secs),
            kind: FailureKind::Hard,
            node,
        }])
    }

    #[test]
    fn hard_failed_node_recovers_bit_for_bit_from_its_buddy() {
        // No durable store: the only surviving copy of node 1's state
        // is the remote container hosted on node 0's NVM. Every byte
        // of both ranks must come back over the interconnect and match
        // the workload's deterministic pattern exactly.
        let cfg = recovery_config(false).with_failure_schedule(hard_at(100, 1));
        let r = run_with(cfg, RunOptions::new()).result;
        assert_eq!(r.hard_failures, 1);
        assert_eq!(r.recovery.len(), 1);
        let rec = &r.recovery[0];
        assert_eq!(rec.node, 1);
        assert_eq!(rec.source, RecoverySource::RemoteBuddy);
        // 2 ranks x 2 chunks, all fetched and verified.
        assert_eq!(rec.verified_chunks, 4);
        assert_eq!(rec.bytes_fetched, 4 * CHUNK_BYTES as u64);
        assert_eq!(rec.chunks.len(), 4);
        for c in &rec.chunks {
            assert_eq!(c.len, CHUNK_BYTES as u64);
            // Chunk ids are name hashes; the workload's pattern is
            // keyed by the index embedded in the chunk name.
            let idx: usize = c
                .name
                .strip_prefix("data_")
                .expect("workload chunk name")
                .parse()
                .unwrap();
            assert_eq!(
                c.checksum,
                crc64(&pattern(c.rank, idx, CHUNK_BYTES)),
                "rank {} chunk {} must restore bit-for-bit",
                c.rank,
                c.name
            );
        }
        // The buddy that hosted node 1's images also had *its* remote
        // copy re-replicated (it lived on node 1's wiped NVM).
        assert_eq!(rec.reprotected_bytes, 4 * CHUNK_BYTES as u64);
        assert!(rec.duration > SimDuration::ZERO);
        // The run rolls back to the restored remote epoch and then
        // completes all 20 iterations.
        assert!(r.lost_iterations > 0);
        assert_eq!(r.iterations_executed, 20 + r.lost_iterations);
        assert_eq!(r.engine_stats.restarts, 2, "both revived ranks count");
    }

    #[test]
    fn staged_remote_data_is_discarded_in_favor_of_the_last_epoch() {
        // Pre-copy continuously stages chunks into the buddy store
        // between remote boundaries. A hard failure mid-interval must
        // restore the last *committed* epoch — the staged partial
        // epoch is never fetched.
        let cfg = recovery_config(true).with_failure_schedule(hard_at(100, 1));
        let r = run_with(cfg, RunOptions::new()).result;
        let rec = &r.recovery[0];
        assert_eq!(rec.source, RecoverySource::RemoteBuddy);
        let restored = rec.remote_epoch.expect("a remote epoch existed");
        // Strictly fewer epochs were committed at failure time than by
        // the end of the run: the restored epoch is a *previous* one.
        assert!(
            restored < r.remote_checkpoints - 1,
            "restored epoch {restored} of {}",
            r.remote_checkpoints
        );
        assert_eq!(rec.verified_chunks, 4);
    }

    #[test]
    fn hard_failure_before_any_remote_checkpoint_recovers_to_virgin() {
        // The failure strikes before the first remote commit and there
        // is no durable store: nothing recoverable exists anywhere.
        // That is a restart from scratch, not a panic and not an
        // unrecoverable error.
        let cfg = recovery_config(false).with_failure_schedule(hard_at(10, 1));
        let r = run_with(cfg, RunOptions::new()).result;
        let rec = &r.recovery[0];
        assert_eq!(rec.source, RecoverySource::Virgin);
        assert_eq!(rec.remote_epoch, None);
        assert_eq!(rec.bytes_fetched, 0);
        assert_eq!(rec.verified_chunks, 0);
        assert_eq!(r.iterations_executed, 20 + r.lost_iterations);
    }

    #[test]
    fn a_one_node_cluster_losing_its_node_restarts_virgin() {
        // One node is its own ring buddy: the remote copy it kept died
        // with it, so there is no pair to lose, nothing to fetch and
        // nothing hosted for anyone else to re-replicate.
        let mut cfg = recovery_config(false);
        cfg.nodes = 1;
        let out = run_with(
            cfg.with_failure_schedule(hard_at(100, 0)),
            RunOptions::new().with_trace(true),
        );
        let r = &out.result;
        assert!(r.remote_checkpoints > 0, "remote epochs did commit");
        let rec = &r.recovery[0];
        assert_eq!(rec.source, RecoverySource::Virgin);
        assert_eq!(rec.remote_epoch, None);
        assert_eq!(rec.bytes_fetched, 0);
        assert_eq!(rec.reprotected_bytes, 0);
        assert_eq!(r.iterations_executed, 20 + r.lost_iterations);
        assert!(
            r.trace.iter().any(|e| matches!(
                &e.kind,
                nvm_trace::TraceEventKind::RecoveryStart { source, .. } if source == "virgin"
            )),
            "the trace records the virgin fall-through"
        );
    }

    #[test]
    fn a_rebuilt_ranks_trace_keeps_its_events_from_before_the_failure() {
        // A recovery replaces a rank's engine, and with it the record
        // the rank's events live in. Whatever the rung, the rank's
        // events from before the failure stay in the run's trace, in
        // emission order, ahead of what the rebuilt engine emits.
        use nvm_trace::TraceEventKind;
        let mut one_node = recovery_config(false);
        one_node.nodes = 1;
        let rungs = [
            (recovery_config(false), 1, RecoverySource::RemoteBuddy),
            (one_node, 0, RecoverySource::Virgin),
        ];
        for (cfg, node, source) in rungs {
            let mut jsonl = Vec::new();
            for threads in [1, 4] {
                let cfg =
                    (cfg.clone().with_threads(threads)).with_failure_schedule(hard_at(100, node));
                let r = run_with(cfg.clone(), RunOptions::new().with_trace(true)).result;
                assert_eq!(r.recovery[0].source, source, "{threads} threads");
                let at = |t: &[nvm_trace::TraceEvent], pred: &dyn Fn(&TraceEventKind) -> bool| {
                    t.iter().position(|e| pred(&e.kind)).unwrap()
                };
                let ladder = at(&r.trace, &|k| {
                    matches!(k, TraceEventKind::RecoveryStart { .. })
                });
                let barriers = (r.trace.iter())
                    .filter_map(|e| match e.kind {
                        TraceEventKind::BarrierWait { id, .. } => Some(id),
                        _ => None,
                    })
                    .max()
                    .unwrap();
                for rank in (0..cfg.ranks_per_node as u64).map(|i| cfg.first_rank(node) + i) {
                    let own: Vec<(usize, &TraceEventKind)> = (r.trace.iter().enumerate())
                        .filter(|(_, e)| e.rank == rank)
                        .map(|(i, e)| (i, &e.kind))
                        .collect();
                    // Every barrier, in the order the rank reached them:
                    // the ones before the rebuild included.
                    let ids: Vec<u64> = (own.iter())
                        .filter_map(|(_, k)| match k {
                            TraceEventKind::BarrierWait { id, .. } => Some(*id),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(ids, (1..=barriers).collect::<Vec<_>>(), "rank {rank}");
                    // Every coordinated checkpoint, the pre-failure ones
                    // ahead of the recovery.
                    let ends = |range: std::ops::Range<usize>| {
                        (own.iter())
                            .filter(|(i, k)| {
                                range.contains(i)
                                    && matches!(k, TraceEventKind::CoordinatedEnd { .. })
                            })
                            .count() as u64
                    };
                    let (before, after) = (ends(0..ladder), ends(ladder..usize::MAX));
                    assert!(
                        before > 0,
                        "rank {rank}: nothing kept from before the failure"
                    );
                    assert_eq!(before + after, r.local_checkpoints, "rank {rank}");
                    // The buddy rung restarts each rank: its `Restart`
                    // follows everything the outgoing engine recorded.
                    if source == RecoverySource::RemoteBuddy {
                        let restart = (own.iter())
                            .find(|(_, k)| matches!(k, TraceEventKind::Restart { .. }))
                            .map(|(i, _)| *i)
                            .unwrap();
                        assert!(restart > ladder, "rank {rank}");
                    }
                }
                jsonl.push(nvm_trace::to_jsonl(&r.trace));
            }
            assert_eq!(
                jsonl[0], jsonl[1],
                "{source:?}: thread count changed the trace"
            );
        }
    }

    #[test]
    fn local_store_outranks_the_remote_buddy() {
        // With intact per-rank containers the ladder's first rung wins:
        // nothing crosses the interconnect and the rollback only goes
        // to the last *local* checkpoint.
        let tmp = TempDir::new("recovery-local").unwrap();
        // 80 s: several local checkpoints have committed, but the only
        // remote epoch committed so far (the first burst boundary at
        // ~48 s) is empty — commit runs before shipping — so the
        // store-less baseline can only restart virgin. With containers,
        // rung 1 rolls back merely to the last local checkpoint.
        let cfg = recovery_config(false).with_failure_schedule(hard_at(80, 1));
        let remote = run_with(cfg.clone(), RunOptions::new()).result;
        let local = run_with(cfg, RunOptions::new().with_store_dir(tmp.path())).result;
        // The committed-but-empty first remote epoch is not a usable
        // restore point: the baseline walked down to virgin.
        assert_eq!(remote.recovery[0].source, RecoverySource::Virgin);
        let rec = &local.recovery[0];
        assert_eq!(rec.source, RecoverySource::LocalStore);
        assert_eq!(rec.bytes_fetched, 0);
        assert!(
            local.lost_iterations < remote.lost_iterations,
            "local rung rolls back less: {} vs {}",
            local.lost_iterations,
            remote.lost_iterations
        );
        // The revived ranks keep mirroring: the directory is still
        // fully recoverable after the run.
        let recoveries = Cluster::recover_dir(tmp.path()).unwrap();
        assert_eq!(recoveries.len(), 4);
    }

    #[test]
    fn unusable_local_store_falls_back_to_the_ladder() {
        // Containers exist but are virgin when the failure strikes
        // (before the first local checkpoint): the probe rejects them,
        // the fallback counter fires, and recovery walks down to the
        // virgin rung (no remote epoch exists that early either).
        let tmp = TempDir::new("recovery-fallback").unwrap();
        let cfg = recovery_config(false).with_failure_schedule(hard_at(10, 1));
        let r = run_with(
            cfg,
            RunOptions::new()
                .with_store_dir(tmp.path())
                .with_metrics(true),
        )
        .result;
        assert_eq!(r.recovery[0].source, RecoverySource::Virgin);
        let snap = &r.metrics.as_ref().unwrap().snapshot;
        assert_eq!(snap.counter(names::RECOVERY_HARD_TOTAL), 1);
        assert_eq!(snap.counter(names::RECOVERY_FALLBACK_REMOTE_TOTAL), 1);
        // The stores' totals are published too (nothing had committed
        // into the containers the failure replaced).
        assert_eq!(
            snap.counter(names::STORE_COMMITS_TOTAL),
            r.store.unwrap().commits
        );
    }

    #[test]
    fn recovery_is_bit_identical_serial_vs_threaded() {
        // The whole hard-failure path — fetch order, retry charges,
        // re-protection, rollback — runs on the coordinator, so a
        // threaded run must produce a byte-identical RunResult.
        let cfg = recovery_config(true).with_failure_schedule(hard_at(100, 1));
        let opts = RunOptions::new().with_trace(true).with_metrics(true);
        let serial = run_with(cfg.clone(), opts.clone()).result;
        let threaded = run_with(cfg.with_threads(4), opts).result;
        assert_eq!(serial.recovery[0].source, RecoverySource::RemoteBuddy);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&threaded).unwrap()
        );
        // Counters are cumulative across the rebuild: every rank took
        // every local checkpoint, though the two revived engines only
        // remember those since their restart.
        let snap = &serial.metrics.as_ref().unwrap().snapshot;
        let checkpoints = snap.counter(names::CHKPT_CHECKPOINTS_TOTAL);
        assert_eq!(checkpoints, 4 * serial.local_checkpoints);
        assert!(checkpoints > serial.engine_stats.checkpoints);
        assert_eq!(snap.counter(names::CHKPT_RESTARTS_TOTAL), 2);
    }

    #[test]
    fn recovery_events_appear_in_the_trace() {
        let cfg = recovery_config(false).with_failure_schedule(hard_at(100, 1));
        let r = run_with(cfg, RunOptions::new().with_trace(true)).result;
        let summary = nvm_trace::summarize(&r.trace);
        assert_eq!(summary.recoveries, 1);
        let starts: Vec<_> = r
            .trace
            .iter()
            .filter_map(|e| match &e.kind {
                nvm_trace::TraceEventKind::RecoveryStart { node, source } => {
                    Some((*node, source.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![(1, "remote-buddy".to_string())]);
    }

    #[test]
    fn recover_store_dir_rejects_a_misnamed_container() {
        let tmp = TempDir::new("cluster-store-misnamed").unwrap();
        {
            let mut store = FileStore::open_path(&tmp.join("rank_9.store"), 3, MB).unwrap();
            store.commit(0).unwrap();
        }
        let err = Cluster::recover_dir(tmp.path()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
    }
}
