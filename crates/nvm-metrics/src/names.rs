//! Canonical metric names, each typed by its kind.
//!
//! Centralised so instrumentation sites, derived-metric computation,
//! exporters, and tests all agree on spelling. A name is a
//! [`Counter`], a [`Gauge`] or a [`Hist`], and each registry method
//! takes only its own kind, so recording a histogram name as a
//! counter does not compile. Names follow Prometheus conventions:
//! `_total` for counters (and only counters), explicit units
//! (`_bytes`, `_ns`, `_bytes_per_s`).

/// A counter's name: a monotone sum, merged by addition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter(pub &'static str);

/// A gauge's name: a high-water mark, merged by max.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gauge(pub &'static str);

/// A histogram's name: a log2-bucketed distribution, merged
/// bucketwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist(pub &'static str);

// --- Checkpoint engine (per rank, merged in rank order) ---

/// Coordinated checkpoints completed.
pub const CHKPT_CHECKPOINTS_TOTAL: Counter = Counter("chkpt_checkpoints_total");
/// Restarts performed.
pub const CHKPT_RESTARTS_TOTAL: Counter = Counter("chkpt_restarts_total");
/// Write faults taken (copy-on-write interference).
pub const CHKPT_FAULTS_TOTAL: Counter = Counter("chkpt_faults_total");
/// Bytes copied by the pre-copy (background) phase.
pub const CHKPT_PRECOPIED_BYTES_TOTAL: Counter = Counter("chkpt_precopied_bytes_total");
/// Bytes copied inside the coordinated stop.
pub const CHKPT_COORDINATED_BYTES_TOTAL: Counter = Counter("chkpt_coordinated_bytes_total");
/// Bytes skipped because the pre-copy already moved them.
pub const CHKPT_SKIPPED_BYTES_TOTAL: Counter = Counter("chkpt_skipped_bytes_total");
/// Pre-copied bytes invalidated by later writes (wasted work).
pub const CHKPT_WASTED_PRECOPY_BYTES_TOTAL: Counter = Counter("chkpt_wasted_precopy_bytes_total");
/// Virtual time spent inside coordinated stops.
pub const CHKPT_COORDINATED_TIME_NS_TOTAL: Counter = Counter("chkpt_coordinated_time_ns_total");
/// Virtual time the application was slowed by checkpoint interference.
pub const CHKPT_INTERFERENCE_TIME_NS_TOTAL: Counter = Counter("chkpt_interference_time_ns_total");
/// Virtual time spent servicing write faults.
pub const CHKPT_FAULT_TIME_NS_TOTAL: Counter = Counter("chkpt_fault_time_ns_total");
/// Distribution of coordinated-checkpoint latency (ns).
pub const CHKPT_COORDINATED_NS: Hist = Hist("chkpt_coordinated_ns");
/// Distribution of per-fault handling time (ns).
pub const CHKPT_FAULT_NS: Hist = Hist("chkpt_fault_ns");

// --- Durable store backend (per rank, merged in rank order) ---

/// Bytes written to store media (slot writes + commit records).
pub const STORE_BYTES_WRITTEN_TOTAL: Counter = Counter("store_bytes_written_total");
/// Durability barriers (fsyncs) issued by the store.
pub const STORE_FSYNCS_TOTAL: Counter = Counter("store_fsyncs_total");
/// Commit records appended durably.
pub const STORE_COMMITS_TOTAL: Counter = Counter("store_commits_total");
/// Committed payloads read back from media.
pub const STORE_PAYLOAD_READS_TOTAL: Counter = Counter("store_payload_reads_total");
/// Bytes of committed payload read back from media.
pub const STORE_PAYLOAD_READ_BYTES_TOTAL: Counter = Counter("store_payload_read_bytes_total");
/// Recovery scans performed.
pub const STORE_RECOVERIES_TOTAL: Counter = Counter("store_recoveries_total");
/// Torn/invalid trailing records detected and discarded by recovery.
pub const STORE_TORN_WRITES_TOTAL: Counter = Counter("store_torn_writes_total");

// --- Key-value serving layer (`nvm-kv`, per rank, merged in rank
// order) ---

/// Upserts applied.
pub const KV_UPSERTS_TOTAL: Counter = Counter("kv_upserts_total");
/// Point reads served.
pub const KV_READS_TOTAL: Counter = Counter("kv_reads_total");
/// Read-modify-writes applied.
pub const KV_RMWS_TOTAL: Counter = Counter("kv_rmws_total");
/// Deletes (tombstones) applied.
pub const KV_DELETES_TOTAL: Counter = Counter("kv_deletes_total");
/// Point reads that found no live record.
pub const KV_READ_MISSES_TOTAL: Counter = Counter("kv_read_misses_total");
/// Record-log bytes appended (headers + keys + values + padding).
pub const KV_LOG_APPENDED_BYTES_TOTAL: Counter = Counter("kv_log_appended_bytes_total");
/// Hash-index growths (table doubled and rehashed).
pub const KV_INDEX_SPLITS_TOTAL: Counter = Counter("kv_index_splits_total");
/// CPR checkpoint tokens taken.
pub const KV_CHECKPOINT_TOKENS_TOTAL: Counter = Counter("kv_checkpoint_tokens_total");
/// Log records replayed during recovery to a token.
pub const KV_RECOVERY_REPLAYED_TOTAL: Counter = Counter("kv_recovery_replayed_total");
/// Acknowledged-after-token records dropped during recovery.
pub const KV_RECOVERY_DROPPED_TOTAL: Counter = Counter("kv_recovery_dropped_total");
/// Distribution of per-operation serving latency (virtual ns).
pub const KV_OP_NS: Hist = Hist("kv_op_ns");
/// Distribution of checkpoint-token publication latency (virtual ns)
/// — the serving-path cost of taking a non-blocking checkpoint.
pub const KV_CHECKPOINT_TOKEN_NS: Hist = Hist("kv_checkpoint_token_ns");

// --- Cluster coordinator ---

/// Distribution of per-rank communication-stall duration (ns).
pub const CLUSTER_COMM_STALL_NS: Hist = Hist("cluster_comm_stall_ns");
/// Barrier synchronisations executed by the coordinator.
pub const CLUSTER_BARRIERS_TOTAL: Counter = Counter("cluster_barriers_total");

// --- Hard-failure recovery (coordinator) ---

/// Hard node failures recovered (any source).
pub const RECOVERY_HARD_TOTAL: Counter = Counter("recovery_hard_total");
/// Bytes pulled over the interconnect during recovery.
pub const RECOVERY_BYTES_FETCHED_TOTAL: Counter = Counter("recovery_bytes_fetched_total");
/// Recovery transfer attempts lost to link faults and retried.
pub const RECOVERY_RETRIES_TOTAL: Counter = Counter("recovery_retries_total");
/// Restored chunks verified bit-for-bit against their images.
pub const RECOVERY_CHUNKS_VERIFIED_TOTAL: Counter = Counter("recovery_chunks_verified_total");
/// Recoveries that fell back local-store → remote-buddy (container
/// absent or corrupt).
pub const RECOVERY_FALLBACK_REMOTE_TOTAL: Counter = Counter("recovery_fallback_remote_total");
/// Distribution of per-node recovery duration (ns).
pub const RECOVERY_TIME_NS: Hist = Hist("recovery_time_ns");

// --- RDMA helper process (per node, merged in node order) ---

/// Virtual time the helper core was busy.
pub const HELPER_BUSY_NS_TOTAL: Counter = Counter("helper_busy_ns_total");
/// Virtual time elapsed while the helper existed.
pub const HELPER_ELAPSED_NS_TOTAL: Counter = Counter("helper_elapsed_ns_total");
/// Bytes moved by the helper.
pub const HELPER_BYTES_COPIED_TOTAL: Counter = Counter("helper_bytes_copied_total");
/// Copy operations issued to the helper.
pub const HELPER_COPY_OPS_TOTAL: Counter = Counter("helper_copy_ops_total");
/// Dirty-page scans performed by the helper.
pub const HELPER_SCANS_TOTAL: Counter = Counter("helper_scans_total");
/// Distribution of helper transfer sizes (bytes).
pub const HELPER_TRANSFER_BYTES: Hist = Hist("helper_transfer_bytes");

// --- Interconnect link ---

/// Peak 1-second interconnect demand (bytes/s), max-merged.
pub const LINK_PEAK_BYTES_PER_S: Gauge = Gauge("link_peak_bytes_per_s");

// --- Emulated memory devices (per node, one set per `DeviceKind`) ---

/// Bytes read from DRAM devices.
pub const DEV_DRAM_READ_BYTES_TOTAL: Counter = Counter("dev_dram_read_bytes_total");
/// Bytes written to DRAM devices.
pub const DEV_DRAM_WRITE_BYTES_TOTAL: Counter = Counter("dev_dram_write_bytes_total");
/// Virtual time DRAM devices spent busy.
pub const DEV_DRAM_BUSY_NS_TOTAL: Counter = Counter("dev_dram_busy_ns_total");
/// Bytes read from PCM devices.
pub const DEV_PCM_READ_BYTES_TOTAL: Counter = Counter("dev_pcm_read_bytes_total");
/// Bytes written to PCM devices.
pub const DEV_PCM_WRITE_BYTES_TOTAL: Counter = Counter("dev_pcm_write_bytes_total");
/// Virtual time PCM devices spent busy.
pub const DEV_PCM_BUSY_NS_TOTAL: Counter = Counter("dev_pcm_busy_ns_total");

#[cfg(test)]
mod tests {
    /// Every typed name declared in this file, as `(kind, name)`, read
    /// from the `pub const` items before the tests, so this test's own
    /// text is not read as a declaration.
    fn declared() -> Vec<(&'static str, &'static str)> {
        let source = include_str!("names.rs");
        let product = &source[..source.find("#[cfg(test)]").expect("names.rs has tests")];
        product
            .split("pub const ")
            .skip(1)
            .map(|decl| {
                let (_, init) = decl
                    .split_once('=')
                    .expect("a `pub const` has an initializer");
                let (kind, rest) = init
                    .trim_start()
                    .split_once("(\"")
                    .expect("the initializer is Kind(\"name\")");
                let (name, _) = rest.split_once('"').expect("the name literal is closed");
                (kind, name)
            })
            .collect()
    }

    #[test]
    fn each_name_has_one_kind_and_total_marks_counters() {
        let names = declared();
        assert!(!names.is_empty());
        for (i, (kind, name)) in names.iter().enumerate() {
            assert!(
                matches!(*kind, "Counter" | "Gauge" | "Hist"),
                "{name} has unknown kind {kind}"
            );
            if let Some((other, _)) = names[..i].iter().find(|(_, n)| n == name) {
                panic!("{name} is declared twice: as {other} and as {kind}");
            }
            assert_eq!(
                name.ends_with("_total"),
                *kind == "Counter",
                "{name}: a name ends in `_total` exactly when it is a counter (it is a {kind})"
            );
        }
    }
}
