//! The benchmark's names: every workload and every metric, with unit,
//! direction and regression bound. `BENCHMARK.json` at the repository
//! root lists exactly these (a unit test compares the two), and the
//! README documents each one's source call.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The string `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
}

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric.
pub struct PerLayer {
    /// `layer.metric` name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Repeats exactly for a fixed seed (virtual-clock values and
    /// counts): `--repeat-check` demands equality, not a bound.
    pub exact: bool,
}

/// The six workloads.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "hpc_model48",
        why: "The paper's evaluation: 48 ranks, gtc/lammps/cm1 x none/cpc/dcpc/dcpcp, sizes only. Host time is workloads, chkpt, nvm-paging, nvm-emu, rdma-sim helper, cluster-sim; CRC, spill and store idle.",
    },
    WorkloadDef {
        name: "ranks512_bytes_t1",
        why: "The byte path at scale on one thread: 512 ranks, real bytes, CRC, FileSpill I/O, RemoteStore, a hard node failure recovered from the buddy, hierarchical merge, coordinator floor.",
    },
    WorkloadDef {
        name: "ranks512_bytes_t2",
        why: "The same run on two threads: a parallel-path gain shows here and must not cost _t1; its RunResult must serialize byte-identical to _t1's.",
    },
    WorkloadDef {
        name: "kv_ycsb_a",
        why: "Serving under checkpoints, update heavy: zipfian 50% read / 50% upsert over 100k keys; log append, index update, protection faults after each drain, drain stall, recovery replay.",
    },
    WorkloadDef {
        name: "kv_ycsb_b",
        why: "Serving, read mostly (95/5): index probe and log read dominate, append/fault/drain carry little. An append-path gain moves _a and leaves this flat; slower probes show here.",
    },
    WorkloadDef {
        name: "store_commit_restart",
        why: "One engine + FileStore, 32 x 4 MiB chunks: isolates CRC, copy and container commit/read in nvchkptall and restart_from_store; cluster-sim, nvm-kv and rdma-sim idle.",
    },
];

/// Metrics a user of the system sees, measured with harness spans and
/// product tracing off. The contract this benchmark is written to
/// wants every one of them from every workload, never zero and never
/// the same reading twice, so only host-clock quantities that all six
/// workloads have qualify. Each workload's own user-visible numbers
/// (kv latencies, stall, recovery, commit/restart bandwidth) are the
/// `user.*` per-layer metrics; virtual-clock results are the `virt.*`
/// ones and are pinned exactly by the output checks instead.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced pass and the probes. A metric a
/// workload's layers never touch reads 0 there.
pub const PER_LAYER: [PerLayer; 69] = [
    host("cluster-sim.rank_busy_ms", "ms", Lower),
    host("cluster-sim.merge_busy_ms", "ms", Lower),
    host("cluster-sim.coordinator_ms", "ms", Lower),
    exact("cluster-sim.barriers", "count", Lower),
    host("cluster-sim.parallel_efficiency", "ratio", Higher),
    host("workloads.gen_ns_per_op", "ns", Lower),
    exact("workloads.sweep_runs", "count", Higher),
    host("chkpt.crc64_gib_s", "GiB/s", Higher),
    host("chkpt.nvchkptall_ms_p50", "ms", Lower),
    host("chkpt.write_us_per_mib", "us/MiB", Lower),
    host("chkpt.restart_ms", "ms", Lower),
    host("chkpt.epoch_synth_us", "us", Lower),
    exact("chkpt.precopied_bytes", "bytes", Higher),
    exact("chkpt.coordinated_bytes", "bytes", Lower),
    exact("chkpt.wasted_precopy_bytes", "bytes", Lower),
    exact("chkpt.wasted_ratio", "ratio", Lower),
    exact("chkpt.precopy_fraction", "ratio", Higher),
    exact("chkpt.faults", "count", Lower),
    host("nvm-paging.record_write_prot_ns", "ns", Lower),
    host("nvm-paging.record_write_unprot_ns", "ns", Lower),
    exact("nvm-paging.faults_per_kop", "1/kop", Lower),
    host("nvm-heap.nvmalloc_us", "us", Lower),
    host("nvm-emu.wearmap_inc_ns", "ns", Lower),
    host("nvm-emu.device_write_us_per_mib", "us/MiB", Lower),
    exact("nvm-emu.spill_peak_mb", "MB", Lower),
    exact("nvm-emu.spill_resident_mb", "MB", Lower),
    exact("nvm-store.bytes_written", "bytes", Lower),
    exact("nvm-store.fsyncs", "count", Lower),
    exact("nvm-store.commits", "count", Higher),
    host("nvm-store.put_commit_gib_s", "GiB/s", Higher),
    host("nvm-store.recover_read_gib_s", "GiB/s", Higher),
    host("nvm-store.spill_write_gib_s", "GiB/s", Higher),
    host("nvm-store.spill_read_gib_s", "GiB/s", Higher),
    host("rdma-sim.fetch_gib_s", "GiB/s", Higher),
    host("rdma-sim.put_gib_s", "GiB/s", Higher),
    exact("rdma-sim.helper_bytes_copied", "bytes", Lower),
    exact("rdma-sim.helper_utilization", "ratio", Lower),
    exact("rdma-sim.recovery_bytes_fetched", "bytes", Lower),
    exact("rdma-sim.recovery_chunks_verified", "count", Higher),
    host("nvm-kv.read_p99_ns", "ns", Lower),
    host("nvm-kv.upsert_p99_ns", "ns", Lower),
    host("nvm-kv.token_publish_us", "us", Lower),
    host("nvm-kv.recover_ms", "ms", Lower),
    exact("nvm-kv.replayed_records", "count", Lower),
    exact("nvm-kv.log_mb", "MB", Lower),
    exact("nvm-kv.segments", "count", Lower),
    exact("nvm-kv.index_slots", "count", Lower),
    exact("nvm-trace.events", "count", Lower),
    host("nvm-trace.merge_mevents_s", "Mev/s", Higher),
    host("nvm-trace.capture_overhead_pct", "%", Lower),
    host("nvm-metrics.fold_us", "us", Lower),
    host("nvm-metrics.capture_overhead_pct", "%", Lower),
    host("nvm-obs.analyze_mevents_s", "Mev/s", Higher),
    exact("nvm-obs.exposed_ckpt_ms", "ms", Lower),
    exact("nvm-obs.hidden_precopy_ms", "ms", Higher),
    exact("nvm-obs.wasted_precopy_ms", "ms", Lower),
    host("harness.span_overhead_pct", "%", Lower),
    host("harness.span_coverage", "ratio", Higher),
    host("harness.timer_ns", "ns", Lower),
    host("user.read_p50_ns", "ns", Lower),
    host("user.upsert_p50_ns", "ns", Lower),
    host("user.ckpt_stall_ms", "ms", Lower),
    host("user.recover_s", "s", Lower),
    host("user.commit_gib_s", "GiB/s", Higher),
    host("user.restart_gib_s", "GiB/s", Higher),
    exact("user.write_amp", "ratio", Lower),
    exact("virt.wall_s", "s", Lower),
    exact("virt.ckpt_blocked_s", "s", Lower),
    exact("virt.peak_link_mb", "MB", Lower),
];

/// Whether `name` is one of [`WORKLOADS`].
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn names(list: &Value) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let json: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let expect = |v: Vec<&'static str>| v.into_iter().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            names(json.get("workloads").unwrap()),
            expect(WORKLOADS.iter().map(|w| w.name).collect())
        );
        assert_eq!(
            names(json.get("end_to_end").unwrap()),
            expect(END_TO_END.iter().map(|m| m.name).collect())
        );
        assert_eq!(
            names(json.get("per_layer").unwrap()),
            expect(PER_LAYER.iter().map(|m| m.name).collect())
        );
        // Units, directions, bounds and reasons agree too.
        for (m, j) in END_TO_END
            .iter()
            .zip(json.get("end_to_end").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.better.as_str()));
            assert_eq!(
                j.get("bound").unwrap(),
                &serde_json::to_value(&m.bound).unwrap()
            );
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(json.get("per_layer").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.better.as_str()));
        }
        for (w, j) in WORKLOADS
            .iter()
            .zip(json.get("workloads").unwrap().as_array().unwrap())
        {
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
