//! Parallel rank execution must be bit-identical to serial.
//!
//! The cluster runs ranks on a worker pool when `threads > 1`. The
//! acceptance bar for that parallelism is strict: the serialized
//! [`cluster_sim::RunResult`] — epochs, link traces, recovery records,
//! engine statistics, everything — must match the serial run byte for
//! byte on the same seed. These tests cover the four regimes where an
//! ordering bug would show up: plain local checkpointing, the remote
//! pre-copy path (shared per-node links and helpers), seeded failure
//! injection with rollbacks, and real bytes shipped to every buddy at
//! once and fetched back after a hard failure. A run that cannot
//! recover fails with the same cause at every thread count.

use cluster_sim::{
    Cluster, ClusterConfig, FailureConfig, FailureEvent, FailureKind, FailureSchedule,
    RecoverySource, RemoteConfig, RunOptions, RunResult, SimError, UniformWorkload, Workload,
    FLIGHT_TAIL,
};
use nvm_chkpt::{EngineConfig, Materialization, PrecopyPolicy};
use nvm_emu::{SimDuration, SimTime};

const MB: usize = 1 << 20;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn factory(_global: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(
        4,
        2 * MB,
        SimDuration::from_secs(2),
        1 << 20,
    ))
}

/// Run the same configuration at each thread count and return the
/// results (thread count itself is not part of RunResult).
fn results_at_all_thread_counts(
    cfg: &ClusterConfig,
    opts: &RunOptions,
    factory: fn(u64) -> Box<dyn Workload>,
) -> Vec<RunResult> {
    THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mut c = cfg.clone();
            c.threads = threads;
            Cluster::new(c, factory).run(opts.clone()).unwrap().result
        })
        .collect()
}

fn to_json(results: &[RunResult]) -> Vec<String> {
    results
        .iter()
        .map(|result| serde_json::to_string(result).unwrap())
        .collect()
}

/// [`results_at_all_thread_counts`] of an uninstrumented run, serialized.
fn runs_at_all_thread_counts(cfg: &ClusterConfig) -> Vec<String> {
    to_json(&results_at_all_thread_counts(
        cfg,
        &RunOptions::new(),
        factory,
    ))
}

fn assert_all_identical(jsons: &[String], what: &str) {
    for (i, json) in jsons.iter().enumerate().skip(1) {
        assert_eq!(
            &jsons[0], json,
            "{what}: run with {} threads diverged from serial",
            THREAD_COUNTS[i]
        );
    }
    // A trivially empty result would make the comparison vacuous.
    assert!(jsons[0].contains("\"total_time\""));
}

fn base_config() -> ClusterConfig {
    let mut c = ClusterConfig::new(2, 3);
    c.container_bytes = 24 * MB;
    c.local_interval = Some(SimDuration::from_secs(5));
    c.iterations = 8;
    c
}

#[test]
fn local_checkpointing_is_thread_count_invariant() {
    let cfg = base_config();
    assert_all_identical(&runs_at_all_thread_counts(&cfg), "local");
}

#[test]
fn remote_precopy_is_thread_count_invariant() {
    let mut cfg = base_config();
    cfg.iterations = 12;
    cfg.engine = cfg.engine.with_precopy(PrecopyPolicy::Dcpcp);
    cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
    let jsons = runs_at_all_thread_counts(&cfg);
    assert!(jsons[0].contains("\"remote_checkpoints\""));
    assert_all_identical(&jsons, "remote pre-copy");
}

#[test]
fn failure_injection_is_thread_count_invariant() {
    let mut cfg = base_config();
    cfg.iterations = 10;
    cfg.failures = Some(FailureConfig {
        seed: 11,
        mtbf_soft: SimDuration::from_secs(15),
        mtbf_hard: SimDuration::from_secs(120),
    });
    cfg.failure_horizon = SimDuration::from_secs(300);
    let jsons = runs_at_all_thread_counts(&cfg);
    // The seeded schedule must actually inject something, or this test
    // degenerates into the plain local case.
    assert!(
        !jsons[0].contains("\"soft_failures\":0") || !jsons[0].contains("\"hard_failures\":0"),
        "failure schedule injected nothing: {}",
        &jsons[0][..200.min(jsons[0].len())]
    );
    assert_all_identical(&jsons, "failure injection");
}

/// Sixteen 16 KiB chunks per rank, rewritten every iteration: many
/// small puts, so two nodes shipping at once overlap.
fn bytes_factory(_global: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(
        16,
        16 << 10,
        SimDuration::from_secs(2),
        16 << 10,
    ))
}

/// Real bytes under checksums, remote DCPCP pre-copy, and node 1 lost
/// after the first remote epoch, so its ranks come back from the
/// buddy's images.
fn bytes_config(nodes: usize, spill: bool) -> ClusterConfig {
    let mut c = ClusterConfig::builder()
        .nodes(nodes)
        .ranks_per_node(2)
        .container_bytes(16 * (16 << 10) * 2 + MB)
        .engine(
            EngineConfig::builder()
                .materialization(Materialization::Bytes)
                .checksums(true)
                .precopy(PrecopyPolicy::Dcpcp)
                .node_concurrency(2)
                .build()
                .unwrap(),
        )
        .local_interval(Some(SimDuration::from_secs(5)))
        .remote(RemoteConfig::infiniband(SimDuration::from_secs(10), true))
        .iterations(16)
        .schedule(FailureSchedule::from_events(vec![FailureEvent {
            at: SimTime::from_secs(11),
            kind: FailureKind::Hard,
            node: 1,
        }]))
        .build()
        .unwrap();
    c.spill = spill;
    c
}

#[test]
fn byte_shipping_and_buddy_recovery_are_thread_count_invariant() {
    // Every node ships to its buddy at once. On a 2-node ring each
    // node is the other's buddy, and unspilled devices keep their
    // bytes in RAM: a ship that held its own NVM while writing the
    // buddy's would deadlock here rather than pass.
    let opts = RunOptions::new().with_trace(true).with_metrics(true);
    for (nodes, spill) in [(2, false), (8, true)] {
        let results =
            results_at_all_thread_counts(&bytes_config(nodes, spill), &opts, bytes_factory);
        let r = &results[0];
        assert_eq!(r.recovery.len(), 1);
        assert_eq!(r.recovery[0].source, RecoverySource::RemoteBuddy);
        assert_eq!(r.recovery[0].verified_chunks, 2 * 16);
        assert!(r.engine_stats.precopied_bytes > 0 && !r.trace.is_empty());
        assert_all_identical(
            &to_json(&results),
            &format!("{nodes}-node byte ring, spill {spill}"),
        );
    }
}

#[test]
fn losing_both_buddies_fails_alike_at_every_thread_count() {
    // Both nodes of a 2-node ring lost at once leave no copy to
    // recover from. A traced run wraps the failure in the flight
    // dump's envelope; `cause` is how a caller sees through it.
    let mut cfg = bytes_config(2, false);
    cfg.schedule_override = Some(FailureSchedule::from_events(
        (0..2)
            .map(|node| FailureEvent {
                at: SimTime::from_secs(11),
                kind: FailureKind::Hard,
                node,
            })
            .collect(),
    ));
    for threads in THREAD_COUNTS {
        cfg.threads = threads;
        let err = Cluster::new(cfg.clone(), bytes_factory)
            .run(RunOptions::new().with_trace(true))
            .unwrap_err();
        assert!(
            matches!(err.cause(), SimError::Unrecoverable { .. }),
            "{threads} threads: {err}"
        );
        let dump = err.flight().expect("a traced run carries the dump");
        assert_eq!(dump.per_rank, FLIGHT_TAIL);
        for rank in 0..cfg.total_ranks() as u64 {
            let kept = dump.events.iter().filter(|e| e.rank == rank).count();
            assert!(kept <= FLIGHT_TAIL, "{threads} threads: rank {rank}");
        }
        let bare = Cluster::new(cfg.clone(), bytes_factory)
            .run(RunOptions::new())
            .unwrap_err();
        assert!(
            matches!(bare, SimError::Unrecoverable { .. }),
            "{threads} threads: {bare}"
        );
    }
}
