//! The remote level on the coordinator: the per-node helper's polling
//! and the link contention its traffic causes, and the commit/ship of
//! the remote checkpoint to each node's ring buddy.

use super::phases::{ClusterSim, LoopState, Rank};
use super::pool::pool_map;
use super::SimError;
use crate::comm::AlphaBeta;
use nvm_chkpt::{EngineError, Materialization};
use nvm_emu::{SimDuration, SimTime};
use nvm_metrics::names;
use nvm_trace::TraceEventKind;
use rdma_sim::{HelperParams, HelperProcess, RemoteStore};

impl ClusterSim {
    /// Advance every node's helper over the iteration window that
    /// began at `iter_start` (polling `nvdirty` state under pre-copy)
    /// and charge the ranks for sharing the link with checkpoint
    /// traffic still in flight.
    pub(super) fn poll_helpers(&mut self, iter_start: SimTime) {
        let Some(rc) = self.config.remote else {
            return;
        };
        for n in 0..self.config.nodes {
            let window_end = self.ranks[n]
                .iter()
                .map(|r| r.clock.now())
                .max()
                .unwrap_or(iter_start);
            let window = window_end
                .since(iter_start)
                .max(SimDuration::from_millis(1));
            if rc.precopy {
                // The helper continuously polls nvdirty state.
                let chunk_count: usize = self.ranks[n].iter().map(|r| r.engine.heap().len()).sum();
                self.nodes[n].helper.scan(chunk_count);
            }
            self.nodes[n].helper.advance(window);
            let rate = self.nodes[n].active_rate(iter_start);
            if rate > 0.0 {
                self.charge_contention(n, rate);
            }
        }
    }

    /// Contention between node `n`'s application communication and
    /// in-flight checkpoint traffic (spread or burst) at `rate`: every
    /// round of every collective is slowed by the checkpoint's share
    /// of the link.
    fn charge_contention(&mut self, n: usize, rate: f64) {
        let total_ranks = self.config.total_ranks();
        let fabric = AlphaBeta::infiniband(self.nodes[n].link.capacity());
        for rank in self.ranks[n].iter_mut() {
            let pattern = rank.workload.comm_pattern();
            let delay = pattern.contention_delay(total_ranks, &fabric, rate);
            if delay.is_zero() {
                continue;
            }
            let tracer = rank.engine.tracer_mut();
            if tracer.enabled() {
                let t = rank.clock.now().as_nanos();
                for (c, b) in &pattern.ops {
                    let d = c.contention_delay(*b, total_ranks, &fabric, rate);
                    if !d.is_zero() {
                        tracer.emit(
                            t,
                            TraceEventKind::CommWait {
                                op: c.name().to_string(),
                                wait_ns: d.as_nanos(),
                            },
                        );
                    }
                }
            }
            rank.clock.advance(delay);
            if let Some(m) = &mut self.coord_metrics {
                m.observe(names::CLUSTER_COMM_STALL_NS, delay.as_nanos());
            }
        }
    }

    /// Remote checkpointing after the local checkpoint that ended at
    /// `t1`: commit the remote epoch when its interval elapsed, then
    /// ship what the mode says is due.
    pub(super) fn checkpoint_remote(
        &mut self,
        st: &mut LoopState,
        t1: SimTime,
    ) -> Result<(), SimError> {
        let Some(rc) = self.config.remote else {
            return Ok(());
        };
        let remote_due = t1.since(st.last_remote_end) >= rc.interval;
        // Commit first: everything shipped during previous intervals
        // has arrived and forms the remote snapshot.
        if remote_due {
            for (store, ranks) in self.stores.iter_mut().zip(&self.ranks) {
                for rank in ranks {
                    store.commit_rank(rank.global, st.remote_ckpts);
                }
            }
            st.last_remote_end = t1;
            st.last_remote_iter = st.iter;
            st.remote_ckpts += 1;
        }
        let local_int = self
            .config
            .local_interval
            .unwrap_or(rc.interval)
            .max(SimDuration::from_millis(1));
        // Remote DCPCP delay: shipping starts in the last local
        // interval before the remote boundary, so chunks re-modified
        // earlier are not shipped over and over ("the delay time
        // before a remote pre-copy is dependent on the remote
        // checkpoint interval").
        let next_remote = st.last_remote_end + rc.interval;
        let ship_now = rc.precopy && t1 + local_int >= next_remote;
        if ship_now || (!rc.precopy && remote_due) {
            self.ship_remote(st, t1, rc.precopy, &rc.helper)?;
        }
        Ok(())
    }

    /// Ship committed chunks from every node to its buddy's remote
    /// store at time `t1`. Each node's transfer is traced with how long
    /// it holds the node's link.
    ///
    /// `incremental` (remote pre-copy): the helper ships the chunks
    /// that are remote-stale but locally stable, chunk-by-chunk at its
    /// incremental copy rate — a low, flat wire rate (about half the
    /// bulk staging rate), which is what halves the peak in Figure 10.
    /// Otherwise the entire committed checkpoint goes as one burst,
    /// staged by the helper at its bulk copy rate (the wire itself is
    /// faster but fed by one core).
    ///
    /// Every node's helper ships at once, as in the paper: one pool
    /// item per node ([`ship_node`]); its link, flows and trace event
    /// follow serially, in node order.
    fn ship_remote(
        &mut self,
        st: &mut LoopState,
        t1: SimTime,
        incremental: bool,
        helper: &HelperParams,
    ) -> Result<(), SimError> {
        let bandwidth = if incremental {
            helper.incremental_bandwidth
        } else {
            helper.bulk_bandwidth
        };
        let mut items: Vec<_> = self
            .stores
            .iter_mut()
            .zip(&mut self.ranks)
            .zip(&mut self.nodes)
            .map(|((store, ranks), node)| (store, ranks, &mut node.helper))
            .collect();
        let shipped = pool_map(&mut items, self.config.threads, |(store, ranks, helper)| {
            ship_node(store, ranks, helper, incremental)
        })?;
        for (n, shipped) in shipped.into_iter().enumerate() {
            if shipped > 0 {
                let window = SimDuration::for_transfer(shipped, bandwidth);
                let dur = self.nodes[n].link.transfer_spread(t1, shipped, window);
                let rate = shipped as f64 / dur.as_secs_f64();
                self.nodes[n].flows.push((t1 + dur, rate));
                st.emit(
                    t1,
                    self.config.first_rank(n),
                    TraceEventKind::RemoteTransfer {
                        bytes: shipped,
                        incremental,
                        dur_ns: dur.as_nanos(),
                    },
                );
            }
        }
        Ok(())
    }

    /// Mirror one committed chunk into the node's remote store: real
    /// bytes (plus the chunk name, which a recovery needs to rebuild
    /// the rank) under byte materialization, size-only otherwise.
    /// The bytes travel with the checksum they were committed under,
    /// so the buddy's fetch verifies them end to end; only a chunk
    /// committed without one is hashed on arrival. Returns the chunk's
    /// length.
    pub(super) fn ship_chunk(
        store: &mut RemoteStore,
        rank: &Rank,
        id: nvm_paging::ChunkId,
    ) -> Result<u64, SimError> {
        let chunk = rank.engine.heap().chunk(id).map_err(EngineError::from)?;
        if rank.engine.config().materialization == Materialization::Bytes {
            let data = rank.engine.committed_bytes(id)?;
            match chunk.checksum {
                Some(sum) => store.put_with_checksum(rank.global, id, &data, sum)?,
                None => store.put(rank.global, id, &data)?,
            };
            store.set_chunk_name(rank.global, id, &chunk.name)?;
        } else {
            store.put_synthetic(rank.global, id, chunk.len)?;
        }
        Ok(chunk.len as u64)
    }
}

/// One node's share of [`ClusterSim::ship_remote`]: its ranks' due
/// chunks into `store` (on its buddy's NVM), charged to its helper.
/// Returns the bytes shipped.
///
/// Safe to run beside every other node's ship:
/// * the buddy's NVM hosts this store and no other, and the buddy's own
///   ranks only read that device meanwhile, so only this call allocates
///   there and its region ids and spill layout are the serial ones;
/// * device charges, stats, wear and the helper's metrics commute;
/// * no device lock is held while another is taken: `committed_bytes`
///   copies a slot out of this node's NVM and releases it before the
///   put locks the buddy's, which in a 2-node ring is shipping back at
///   the same time.
fn ship_node(
    store: &mut RemoteStore,
    ranks: &mut [Rank],
    helper: &mut HelperProcess,
    incremental: bool,
) -> Result<u64, SimError> {
    let mut shipped = 0;
    for rank in ranks {
        let chunks = if incremental {
            rank.engine.remote_stable_chunks()
        } else {
            rank.engine.heap().persistent_ids()
        };
        for id in chunks {
            let len = ClusterSim::ship_chunk(store, rank, id)?;
            if incremental {
                helper.copy_chunk(len);
            } else {
                helper.copy_bulk(len);
            }
            rank.engine.mark_remote_copied(id);
            shipped += len;
        }
    }
    Ok(shipped)
}
