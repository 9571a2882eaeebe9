//! Failure handling and the restore ladder: the only code in the
//! `run` module that wipes a device or rebuilds an engine.
//!
//! [`ClusterSim::handle_failures`] is the run loop's first phase. A
//! hard failure goes down the ladder in [`ClusterSim::recover_hard_node`]:
//! the node's devices are wiped, the first rung that has data restores
//! its ranks — each rung fills the one [`RecoveryRecord`] begun at the
//! top and says whether it had data — the durable containers are
//! re-attached and the remote copy the node hosted is re-replicated.

use super::phases::{fresh_engine, rank_store_path, ClusterSim, LoopState, Rank};
use super::pool::pool_map;
use super::{SimError, FLIGHT_TAIL};
use crate::failure::{FailureEvent, FailureKind};
use crate::recovery::{collapse_batch, RecoveredChunkRecord, RecoveryRecord, RecoverySource};
use nvm_chkpt::checksum::crc64;
use nvm_chkpt::{CheckpointEngine, EngineError, Materialization, RemoteImage, RestartStrategy};
use nvm_emu::{SimDuration, SimTime};
use nvm_metrics::names;
use nvm_obs::FlightDump;
use nvm_store::{FileStore, Persistence};
use nvm_trace::TraceEventKind;
use rdma_sim::{fetch_with_retry, FaultModel, RemoteStore, RetryPolicy};
use std::path::Path;

impl ClusterSim {
    /// Failures that struck before the iteration starting at
    /// `iter_start`. All events due in this window form one batch,
    /// collapsed to the most severe event per node: a node hit twice
    /// in one interval is charged one rollback, not two. Soft failures
    /// charge the local restart cost, hard failures walk the restore
    /// ladder; the cluster resumes together once the slowest recovery
    /// finishes, rolled back to the oldest restore point used.
    pub(super) fn handle_failures(
        &mut self,
        st: &mut LoopState,
        iter_start: SimTime,
    ) -> Result<(), SimError> {
        let due = st.failures.drain_due(iter_start);
        if due.is_empty() {
            return Ok(());
        }
        let batch = collapse_batch(due);
        self.check_buddy_pairs(&batch, st.iter)?;

        let t0 = self.barrier();
        let mut max_restart = SimDuration::ZERO;
        let mut target = st.iter;
        for ev in &batch {
            match ev.kind {
                FailureKind::Soft => {
                    st.soft += 1;
                    max_restart = max_restart.max(self.local_restart_cost(ev.node));
                    target = target.min(st.last_local_iter);
                }
                FailureKind::Hard => {
                    let record = self.recover_hard_node(ev.node, st)?;
                    target = target.min(match record.source {
                        RecoverySource::Virgin => 0,
                        RecoverySource::LocalStore => st.last_local_iter,
                        RecoverySource::RemoteBuddy | RecoverySource::Modeled => {
                            st.last_remote_iter
                        }
                    });
                    max_restart = max_restart.max(record.duration);
                    st.recovery.push(record);
                }
            }
        }
        let t = t0 + max_restart;
        for r in self.ranks.iter().flatten() {
            r.clock.advance_to(t);
        }
        for ev in &batch {
            st.emit(
                t0,
                self.config.first_rank(ev.node),
                TraceEventKind::RankFailure {
                    iteration: st.iter,
                    hard: ev.kind == FailureKind::Hard,
                    restart_ns: t.since(t0).as_nanos(),
                },
            );
        }
        st.lost += st.iter - target;
        st.iter = target;
        Ok(())
    }

    /// A hard-failed node's sole surviving copy lives on its ring
    /// buddy. If the buddy hard-failed in the same batch, no copy
    /// survives anywhere: the run is over, deterministically, before
    /// any recovery is attempted.
    fn check_buddy_pairs(&self, batch: &[FailureEvent], iteration: u64) -> Result<(), SimError> {
        let hard = |node| {
            batch
                .iter()
                .any(|o| o.node == node && o.kind == FailureKind::Hard)
        };
        for ev in batch.iter().filter(|ev| ev.kind == FailureKind::Hard) {
            let buddy = self.config.buddy_of(ev.node);
            if buddy != ev.node && hard(buddy) {
                return Err(SimError::Unrecoverable {
                    node: ev.node,
                    buddy,
                    iteration,
                });
            }
        }
        Ok(())
    }

    /// Rebuild hard-failed `node` from the checkpoint progress `st`
    /// holds. A synthetic run takes the modeled rung and nothing
    /// moves. Under byte materialization the node's devices are wiped
    /// and the first rung with data restores every rank — durable
    /// local containers, else the buddy's committed remote images,
    /// else a virgin restart — then the lost containers are reformatted
    /// and the neighbour's remote copy that lived on the wiped NVM is
    /// re-replicated.
    fn recover_hard_node(
        &mut self,
        node: usize,
        st: &mut LoopState,
    ) -> Result<RecoveryRecord, SimError> {
        let t0 = self.ranks[node][0].clock.now();
        let mut record = RecoveryRecord {
            node,
            iteration: st.iter,
            source: RecoverySource::Virgin,
            remote_epoch: None,
            bytes_fetched: 0,
            retries: 0,
            verified_chunks: 0,
            reprotected_bytes: 0,
            duration: SimDuration::ZERO,
            chunks: Vec::new(),
        };
        if self.config.engine.materialization == Materialization::Synthetic {
            self.rung_modeled(&mut record, st);
        } else {
            self.wipe(node);
            if !(self.rung_local_store(&mut record, t0)? || self.rung_buddy(&mut record, t0, st)?) {
                self.rung_virgin(&mut record, t0)?;
            }
            self.reattach_stores(&record)?;
            self.rereplicate_hosted(&mut record, t0, st.remote_ckpts)?;
        }
        self.note_recovery(&record, t0, st);
        Ok(record)
    }

    /// The node is gone: wipe its devices. This also destroys the
    /// remote copy it hosted for its ring neighbour, which
    /// [`Self::rereplicate_hosted`] rebuilds.
    fn wipe(&mut self, node: usize) {
        self.nodes[node].nvm.destroy();
        self.nodes[node].dram.destroy();
        self.stores[self.config.hosted_by(node)] = RemoteStore::new(&self.nodes[node].nvm, true);
    }

    /// Synthetic materialization: charge the analytic fetch cost of the
    /// node's whole footprint from the last remote epoch.
    fn rung_modeled(&self, record: &mut RecoveryRecord, st: &LoopState) {
        let rpn = self.config.node_rank_count(record.node) as u64;
        record.source = RecoverySource::Modeled;
        record.remote_epoch = st.remote_ckpts.checked_sub(1);
        record.bytes_fetched = st.d_per_rank * rpn;
        record.duration = self.remote_restart_cost(record.node, st.d_per_rank);
    }

    /// Rung 1: every rank's durable container survived intact (see
    /// [`probe_local_store`]) — restart each rank from its own file.
    /// `false` without a store directory or when any container fails
    /// the probe.
    fn rung_local_store(
        &mut self,
        record: &mut RecoveryRecord,
        t0: SimTime,
    ) -> Result<bool, SimError> {
        let node = record.node;
        let Some(dir) = &self.options.store_dir else {
            return Ok(false);
        };
        if !probe_local_store(dir, self.ranks[node].iter().map(|r| r.global)) {
            return Ok(false);
        }
        record.source = RecoverySource::LocalStore;
        record.duration += rebuild(&mut self.ranks[node], t0, |_, rank| {
            let store = FileStore::open_existing(&rank_store_path(dir, rank.global))
                .map_err(EngineError::from)?;
            let (engine, _report) = CheckpointEngine::restart_from_store(
                &self.nodes[node].dram,
                &self.nodes[node].nvm,
                self.config.container_bytes,
                rank.clock.clone(),
                self.config.engine,
                RestartStrategy::Eager,
                Box::new(store),
                rank.fresh_tracer(),
            )?;
            Ok(engine)
        })?;
        Ok(true)
    }

    /// Rung 2: fetch the last committed remote epoch from the buddy,
    /// rebuild every rank from the images and verify the restored
    /// contents bit-for-bit against what crossed the wire. A remote
    /// epoch may exist in name only — the commit-then-ship ordering
    /// means the first remote boundary commits before anything was
    /// staged — so fetch first: `false` (and an untouched record) when
    /// no committed image came back.
    fn rung_buddy(
        &mut self,
        record: &mut RecoveryRecord,
        t0: SimTime,
        st: &mut LoopState,
    ) -> Result<bool, SimError> {
        let node = record.node;
        let images_per_rank = self.fetch_images(record, t0, st)?;
        if images_per_rank.iter().all(|imgs| imgs.is_empty()) {
            return Ok(false);
        }
        record.source = RecoverySource::RemoteBuddy;
        let local_ckpts = st.local_ckpts;
        record.duration += rebuild(&mut self.ranks[node], t0, |i, rank| {
            let (engine, _report) = CheckpointEngine::restart_from_images(
                rank.global,
                &self.nodes[node].dram,
                &self.nodes[node].nvm,
                self.config.container_bytes,
                rank.clock.clone(),
                self.config.engine,
                RestartStrategy::Eager,
                &images_per_rank[i],
                local_ckpts,
                rank.fresh_tracer(),
            )?;
            Ok(engine)
        })?;
        // Read-only per-rank work (reads + CRC over real bytes), so it
        // runs on the worker pool; records are assembled in rank order
        // and a failure reports the lowest failing rank, keeping the
        // serial and parallel paths byte-identical.
        for records in verify_restored(
            &mut self.ranks[node],
            &images_per_rank,
            self.config.threads,
            node,
        )? {
            record.verified_chunks += records.len() as u64;
            record.chunks.extend(records);
        }
        Ok(true)
    }

    /// Pull every committed image of `record.node`'s ranks from the
    /// buddy's NVM over the interconnect, chunk by chunk in rank
    /// order, with retry/timeout/backoff on lost transfers; wire time,
    /// bytes, retries and the newest epoch seen go into `record`.
    /// Empty before the first remote epoch and on a one-node cluster
    /// (which is its own buddy: the copy died with it).
    fn fetch_images(
        &mut self,
        record: &mut RecoveryRecord,
        t0: SimTime,
        st: &mut LoopState,
    ) -> Result<Vec<Vec<RemoteImage>>, SimError> {
        let node = record.node;
        let mut images_per_rank = Vec::new();
        if st.remote_ckpts == 0 || self.config.nodes <= 1 {
            return Ok(images_per_rank);
        }
        let store = &self.stores[node];
        let link = &mut self.nodes[self.config.buddy_of(node)].link;
        let policy = RetryPolicy::default();
        // ~2% per-attempt loss: a fabric draining a dead node is not
        // the happy path. Deterministic (pure hash of the run seed and
        // the transfer identity).
        let faults = FaultModel::new(self.config.failures.map(|f| f.seed).unwrap_or(0), 20_000);
        for global in self.ranks[node].iter().map(|r| r.global) {
            let mut images = Vec::new();
            for id in store.committed_chunks(global) {
                // Transfers are serial: each starts when the wire time
                // accumulated so far has passed.
                let at = t0 + record.duration;
                let outcome = fetch_with_retry(store, link, at, global, id, &policy, &faults)?;
                if outcome.attempts > 1 {
                    record.retries += u64::from(outcome.attempts - 1);
                    st.emit(
                        at,
                        global,
                        TraceEventKind::RecoveryRetry {
                            rank: global,
                            chunk: id.0,
                            attempt: u64::from(outcome.attempts),
                        },
                    );
                }
                record.duration += outcome.duration;
                record.bytes_fetched += outcome.data.len() as u64;
                let epoch = store.committed_epoch(global, id).unwrap_or(0);
                record.remote_epoch = Some(record.remote_epoch.map_or(epoch, |e| e.max(epoch)));
                images.push(RemoteImage {
                    id,
                    name: store.chunk_name(global, id).unwrap_or("chunk").to_string(),
                    len: outcome.data.len(),
                    checksum: None,
                    epoch,
                    payload: outcome.data,
                });
            }
            images_per_rank.push(images);
        }
        Ok(images_per_rank)
    }

    /// Rung 3: nothing recoverable exists anywhere — no usable
    /// container, no committed remote image. The node restarts from
    /// scratch (not a panic: a hard failure before the first remote
    /// checkpoint is survivable, it just loses all progress).
    fn rung_virgin(&mut self, record: &mut RecoveryRecord, t0: SimTime) -> Result<(), SimError> {
        let node = record.node;
        record.source = RecoverySource::Virgin;
        record.duration += rebuild(&mut self.ranks[node], t0, |_, rank| {
            let (tracer, metrics) = (rank.fresh_tracer(), rank.fresh_metrics());
            fresh_engine(
                &self.config,
                &self.nodes[node],
                rank.global,
                &rank.clock,
                rank.workload.as_mut(),
                tracer,
                metrics,
            )
        })?;
        Ok(())
    }

    /// A rank rebuilt from remote images or from scratch lost its
    /// durable container along with the node: reformat it so the
    /// revived process keeps mirroring checkpoints, and count the
    /// store-attached recovery that could not use its containers.
    fn reattach_stores(&mut self, record: &RecoveryRecord) -> Result<(), SimError> {
        let Some(dir) = &self.options.store_dir else {
            return Ok(());
        };
        if record.source == RecoverySource::LocalStore {
            return Ok(());
        }
        for rank in self.ranks[record.node].iter_mut() {
            let _ = std::fs::remove_file(rank_store_path(dir, rank.global));
            rank.attach_store(dir, self.config.container_bytes)?;
        }
        if let Some(m) = &mut self.coord_metrics {
            m.counter_add(names::RECOVERY_FALLBACK_REMOTE_TOTAL, 1);
        }
        Ok(())
    }

    /// Re-replicate the ring neighbour's remote copy that lived on the
    /// wiped NVM, committing it back at the last remote epoch.
    /// (Staged-but-uncommitted precopy data is not rebuilt: the
    /// neighbour's chunks re-dirty as it keeps iterating and are
    /// re-shipped by the normal precopy path.)
    fn rereplicate_hosted(
        &mut self,
        record: &mut RecoveryRecord,
        t0: SimTime,
        remote_ckpts: u64,
    ) -> Result<(), SimError> {
        let hosted = self.config.hosted_by(record.node);
        if hosted == record.node || remote_ckpts == 0 {
            return Ok(());
        }
        for rank in &self.ranks[hosted] {
            for id in rank.engine.heap().persistent_ids() {
                match Self::ship_chunk(&mut self.stores[hosted], rank, id) {
                    Ok(len) => record.reprotected_bytes += len,
                    Err(SimError::Engine(EngineError::NoCommittedData(_))) => {}
                    Err(e) => return Err(e),
                }
            }
            self.stores[hosted].commit_rank(rank.global, remote_ckpts - 1);
        }
        if record.reprotected_bytes > 0 {
            let link = &mut self.nodes[hosted].link;
            record.duration += link.transfer(t0, record.reprotected_bytes, 1);
        }
        Ok(())
    }

    /// Emit the finished recovery's trace events (its counters are
    /// read off the record at the end of the run).
    fn note_recovery(&self, record: &RecoveryRecord, t0: SimTime, st: &mut LoopState) {
        let rank0 = self.config.first_rank(record.node);
        st.emit(
            t0,
            rank0,
            TraceEventKind::RecoveryStart {
                node: record.node as u64,
                source: record.source.name().to_string(),
            },
        );
        // Per-chunk verification records sit between start and end
        // (same timestamp and rank as the end; buffer order keeps them
        // inside), so the Chrome exporter renders them nested under
        // the recovery span rather than as stray instants.
        let end = t0 + record.duration;
        for chunk in &record.chunks {
            st.emit(
                end,
                rank0,
                TraceEventKind::RecoveryVerify {
                    rank: chunk.rank,
                    chunk: chunk.chunk,
                    bytes: chunk.len,
                },
            );
        }
        st.emit(
            end,
            rank0,
            TraceEventKind::RecoveryEnd {
                node: record.node as u64,
                bytes: record.bytes_fetched,
                verified: record.verified_chunks,
            },
        );
    }

    /// Wrap a fatal error of a traced run with the flight dump: the
    /// last [`FLIGHT_TAIL`] events of every rank's record, merged. An
    /// untraced run returns the bare error.
    pub(super) fn attach_flight(&self, err: SimError) -> SimError {
        if !self.options.trace {
            return err;
        }
        let records = self
            .ranks
            .iter()
            .flatten()
            .map(|r| r.engine.tracer().events());
        let dump = FlightDump::capture(err.to_string(), FLIGHT_TAIL, records);
        SimError::WithFlight {
            source: Box::new(err),
            dump,
        }
    }

    /// Local restart cost on `node`: metadata load + reading `D` back
    /// from NVM at the contended per-core read bandwidth (all of the
    /// node's ranks restart at once).
    fn local_restart_cost(&self, node: usize) -> SimDuration {
        let d = self.ranks[0][0].engine.checkpoint_bytes() as u64;
        let nvm = self.ranks[0][0].engine.heap().nvm();
        let bw = nvm.per_core_bandwidth(self.config.node_rank_count(node), 32 << 20);
        let params = nvm.params();
        let read_bw = bw * (params.read_bandwidth / params.write_bandwidth);
        SimDuration::for_transfer(d, read_bw.max(1.0)) + SimDuration::from_millis(5)
    }

    /// Remote restart cost for `node`: its whole checkpoint footprint
    /// crosses the interconnect from the buddy, then loads into memory.
    /// Both the byte count and the link speed come from the topology
    /// helpers so non-uniform shapes stay honest in one place.
    fn remote_restart_cost(&self, node: usize, d_per_rank: u64) -> SimDuration {
        let node_bytes = d_per_rank * self.config.node_rank_count(node) as u64;
        SimDuration::for_transfer(node_bytes, self.config.link_bandwidth())
            + self.local_restart_cost(node)
    }
}

/// Swap every rank of a node onto the engine `build` makes for it —
/// the one place a recovery installs an engine. Serial, in rank order:
/// engine reconstruction allocates regions on the shared node devices,
/// and region ids are assigned in allocation order — persisted in each
/// rank's metadata, so the order must not depend on thread scheduling.
/// Returns how long after `t0` the slowest rank was back.
fn rebuild(
    ranks: &mut [Rank],
    t0: SimTime,
    mut build: impl FnMut(usize, &mut Rank) -> Result<CheckpointEngine, SimError>,
) -> Result<SimDuration, SimError> {
    let mut slowest = SimDuration::ZERO;
    for (i, rank) in ranks.iter_mut().enumerate() {
        let engine = build(i, rank)?;
        rank.install(engine);
        slowest = slowest.max(rank.clock.now().since(t0));
    }
    Ok(slowest)
}

/// True if every rank in `globals` has a durable container under `dir`
/// holding a clean committed epoch. A missing file, a virgin
/// container, or any checksum-corrupt payload fails the probe and
/// recovery falls back to the remote buddy.
fn probe_local_store(dir: &Path, globals: impl IntoIterator<Item = u64>) -> bool {
    globals.into_iter().all(|global| {
        let Ok(mut store) = FileStore::open_existing(&rank_store_path(dir, global)) else {
            return false;
        };
        let Ok(state) = store.recover() else {
            return false;
        };
        state.epoch.is_some()
            && !state.chunks.is_empty()
            && state
                .chunks
                .iter()
                .all(|rec| store.read_chunk(rec.id).is_ok())
    })
}

/// Bit-for-bit verification of freshly restored ranks against the
/// remote images they were rebuilt from: per rank, read every
/// restored chunk back, compare against the fetched payload, and
/// record its CRC. Pure reads over rank-owned engines (shared
/// device access is commutative stats only), so ranks verify
/// through [`pool_map`]: results come back in rank order, and on
/// failure the lowest failing global rank wins — both identical to
/// the serial path.
fn verify_restored(
    ranks: &mut [Rank],
    images_per_rank: &[Vec<RemoteImage>],
    threads: usize,
    node: usize,
) -> Result<Vec<Vec<RecoveredChunkRecord>>, SimError> {
    // `&mut Rank` is `Send` even though `&Rank` is not `Sync`
    // (boxed workloads/persistence), so the pool gets exclusive
    // rank borrows exactly like `for_each_rank_parallel`.
    let mut pairs: Vec<(&mut Rank, &Vec<RemoteImage>)> =
        ranks.iter_mut().zip(images_per_rank.iter()).collect();
    pool_map(&mut pairs, threads, |(rank, images)| {
        let mut records = Vec::with_capacity(images.len());
        for img in images.iter() {
            let restored = rank.engine.committed_bytes(img.id)?;
            if restored != img.payload {
                return Err(SimError::RecoveryMismatch {
                    node,
                    rank: rank.global,
                    chunk: img.id.0,
                });
            }
            records.push(RecoveredChunkRecord {
                rank: rank.global,
                chunk: img.id.0,
                name: img.name.clone(),
                len: img.len as u64,
                checksum: crc64(&restored),
            });
        }
        Ok(records)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_store_probe_demands_clean_committed_containers() {
        use nvm_paging::ChunkId;
        const MB: usize = 1 << 20;
        let tmp = nvm_emu::TempDir::new("probe").unwrap();
        // Node 1 of a 2-ranks-per-node cluster owns ranks 2 and 3.
        for g in [2u64, 3] {
            let mut s = FileStore::open_path(&tmp.join(format!("rank_{g}.store")), g, MB).unwrap();
            s.put_chunk(ChunkId(0), "data", 64, 0, &[7u8; 64]).unwrap();
            s.commit(0).unwrap();
        }
        assert!(probe_local_store(tmp.path(), 2..4));

        // A checksum-corrupt payload on any rank fails the whole node's
        // probe: recovery must fall back to the remote buddy.
        let mut s = FileStore::open_existing(&tmp.join("rank_2.store")).unwrap();
        s.recover().unwrap();
        s.corrupt_payload(ChunkId(0)).unwrap();
        drop(s);
        assert!(!probe_local_store(tmp.path(), 2..4));

        // So does a virgin (never-committed) container...
        let _ = std::fs::remove_file(tmp.join("rank_2.store"));
        drop(FileStore::open_path(&tmp.join("rank_2.store"), 2, MB).unwrap());
        assert!(!probe_local_store(tmp.path(), 2..4));

        // ...and a missing file.
        let _ = std::fs::remove_file(tmp.join("rank_3.store"));
        assert!(!probe_local_store(tmp.path(), 2..4));
    }
}
