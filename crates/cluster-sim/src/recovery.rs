//! Hard-failure recovery records and failure-batch collapsing.
//!
//! The run loop drains every failure event due at an iteration
//! boundary in one batch. [`collapse_batch`] reduces that batch to at
//! most one event per node — the most severe one — so a node struck by
//! several failures in one interval is charged one rollback, not one
//! per event.
//!
//! Each surviving hard failure produces a [`RecoveryRecord`] in
//! [`crate::run::RunResult::recovery`] describing where the node's
//! state came back from and what the recovery cost.

use crate::failure::{FailureEvent, FailureKind};
use nvm_emu::SimDuration;
use nvm_metrics::{names, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Where a hard-failed node's state was restored from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoverySource {
    /// The rank's durable `nvm-store` container files survived and
    /// held a clean committed epoch (first rung of the ladder).
    LocalStore,
    /// Chunk images were fetched from the buddy node's remote
    /// container over the interconnect (second rung).
    RemoteBuddy,
    /// Nothing recoverable existed yet (no durable container, no
    /// committed remote epoch): the node restarts from scratch.
    Virgin,
    /// Synthetic-materialization run: the analytic remote-fetch cost
    /// was charged without moving bytes (the legacy model).
    Modeled,
}

impl RecoverySource {
    /// Short stable name (used in trace events).
    pub fn name(&self) -> &'static str {
        match self {
            RecoverySource::LocalStore => "local-store",
            RecoverySource::RemoteBuddy => "remote-buddy",
            RecoverySource::Virgin => "virgin",
            RecoverySource::Modeled => "modeled",
        }
    }
}

/// One restored chunk, as verified after recovery.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveredChunkRecord {
    /// Global rank the chunk belongs to.
    pub rank: u64,
    /// Chunk id (the stable content hash of the chunk name).
    pub chunk: u64,
    /// Chunk name as registered at allocation time.
    pub name: String,
    /// Restored length in bytes.
    pub len: u64,
    /// CRC-64 of the restored contents.
    pub checksum: u64,
}

/// One node's hard-failure recovery.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// Node that was lost.
    pub node: usize,
    /// Iteration count at the moment the failure was handled.
    pub iteration: u64,
    /// Where the state came back from.
    pub source: RecoverySource,
    /// Remote epoch the restored images were committed under (`None`
    /// when no remote epoch existed yet).
    pub remote_epoch: Option<u64>,
    /// Bytes pulled over the interconnect.
    pub bytes_fetched: u64,
    /// Transfer attempts lost to link faults and retried.
    pub retries: u64,
    /// Chunks verified bit-for-bit against their recovered images.
    pub verified_chunks: u64,
    /// Bytes re-replicated to rebuild the remote copy that was hosted
    /// on the failed node's NVM.
    pub reprotected_bytes: u64,
    /// Virtual time the recovery took.
    pub duration: SimDuration,
    /// Per-chunk verification records (empty for modeled recoveries).
    pub chunks: Vec<RecoveredChunkRecord>,
}

impl RecoveryRecord {
    /// Add this recovery to `reg`: the record is the one place a
    /// recovery is counted, the `recovery_*` metrics are read off it.
    pub(crate) fn publish(&self, reg: &mut MetricsRegistry) {
        reg.publish_totals([
            (names::RECOVERY_HARD_TOTAL, 1),
            (names::RECOVERY_BYTES_FETCHED_TOTAL, self.bytes_fetched),
            (names::RECOVERY_RETRIES_TOTAL, self.retries),
            (names::RECOVERY_CHUNKS_VERIFIED_TOTAL, self.verified_chunks),
        ]);
        reg.observe(names::RECOVERY_TIME_NS, self.duration.as_nanos());
    }
}

/// Collapse a drained failure batch to at most one event per node: a
/// hard failure absorbs any soft failure on the same node in the same
/// interval (the node is already being rebuilt — a process crash on
/// top adds nothing), and repeated same-kind events count once. The
/// earliest event of the surviving kind is kept; output is in node
/// order.
pub fn collapse_batch(events: Vec<FailureEvent>) -> Vec<FailureEvent> {
    let mut per_node: BTreeMap<usize, FailureEvent> = BTreeMap::new();
    for ev in events {
        per_node
            .entry(ev.node)
            .and_modify(|kept| {
                let upgrade = kept.kind == FailureKind::Soft && ev.kind == FailureKind::Hard;
                let earlier = kept.kind == ev.kind && ev.at < kept.at;
                if upgrade || earlier {
                    *kept = ev;
                }
            })
            .or_insert(ev);
    }
    per_node.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_emu::SimTime;

    fn ev(secs: u64, kind: FailureKind, node: usize) -> FailureEvent {
        FailureEvent {
            at: SimTime::from_secs(secs),
            kind,
            node,
        }
    }

    #[test]
    fn hard_absorbs_soft_on_the_same_node() {
        let out = collapse_batch(vec![
            ev(10, FailureKind::Soft, 0),
            ev(12, FailureKind::Hard, 0),
            ev(14, FailureKind::Soft, 0),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, FailureKind::Hard);
        assert_eq!(out[0].at, SimTime::from_secs(12));
    }

    #[test]
    fn repeated_same_kind_keeps_the_earliest() {
        let out = collapse_batch(vec![
            ev(20, FailureKind::Soft, 1),
            ev(15, FailureKind::Soft, 1),
        ]);
        assert_eq!(out, vec![ev(15, FailureKind::Soft, 1)]);
    }

    #[test]
    fn nodes_are_independent_and_node_ordered() {
        let out = collapse_batch(vec![
            ev(10, FailureKind::Hard, 2),
            ev(11, FailureKind::Soft, 0),
            ev(12, FailureKind::Soft, 2),
        ]);
        assert_eq!(
            out,
            vec![ev(11, FailureKind::Soft, 0), ev(10, FailureKind::Hard, 2)]
        );
    }

    #[test]
    fn source_names_are_stable() {
        assert_eq!(RecoverySource::LocalStore.name(), "local-store");
        assert_eq!(RecoverySource::RemoteBuddy.name(), "remote-buddy");
        assert_eq!(RecoverySource::Virgin.name(), "virgin");
        assert_eq!(RecoverySource::Modeled.name(), "modeled");
    }
}
