//! Structural assertions on the simulator's rank timelines — the shapes
//! of Figures 1 and 5 of the paper — drawn from a traced run's events
//! by `nvm_obs::build_spans`.
//!
//! * Figure 1: compute and local checkpoints alternate, and the local
//!   checkpoint is coordinated: no rank computes while any rank
//!   checkpoints. Remote checkpoints overlap the *following* compute
//!   (asynchronous).
//! * Figure 5b: with pre-copy, the blocking local-checkpoint spans
//!   shrink because most data drained during compute.
//! * Figure 5c: with remote pre-copy, checkpoint traffic flows during
//!   compute windows instead of arriving as one post-checkpoint burst.

use cluster_sim::{
    Cluster, ClusterConfig, RemoteConfig, RunOptions, RunResult, UniformWorkload, Workload,
};
use nvm_chkpt::PrecopyPolicy;
use nvm_emu::SimDuration;
use nvm_obs::{build_spans, Span, SpanKind};

const MB: usize = 1 << 20;

fn config(policy: PrecopyPolicy) -> ClusterConfig {
    let mut c = ClusterConfig::new(2, 2);
    c.container_bytes = 48 * MB;
    c.engine = c.engine.with_precopy(policy);
    c.local_interval = Some(SimDuration::from_secs(8));
    c.iterations = 12;
    c
}

fn factory(_g: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(
        5,
        4 * MB,
        SimDuration::from_secs(4),
        2 * MB as u64,
    ))
}

/// Ranks of unequal speed: rank `g` computes `g` quarter-seconds
/// longer per iteration than rank 0, so only a barrier lines their
/// checkpoints up.
fn skewed_factory(g: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(
        5,
        4 * MB,
        SimDuration::from_millis(4_000 + 250 * g),
        2 * MB as u64,
    ))
}

/// A traced run and the spans its trace rebuilds.
fn run_cluster(
    cfg: ClusterConfig,
    factory: fn(u64) -> Box<dyn Workload>,
) -> (RunResult, Vec<Span>) {
    let r = Cluster::new(cfg, factory)
        .run(RunOptions::new().with_trace(true))
        .expect("cluster run")
        .result;
    let spans = build_spans(&r.trace);
    (r, spans)
}

fn of(spans: &[Span], rank: Option<u64>, kind: SpanKind) -> Vec<Span> {
    (spans.iter())
        .filter(|s| s.kind == kind && rank.is_none_or(|r| s.rank == r))
        .copied()
        .collect()
}

fn end(s: &Span) -> u64 {
    s.start_ns + s.dur_ns
}

fn overlaps(a: &Span, b: &Span) -> bool {
    a.start_ns < end(b) && b.start_ns < end(a)
}

/// `rank`'s compute and local checkpoints in time order, runs of one
/// kind merged: `[Compute, Coordinated, Compute, ...]`.
fn sequence(spans: &[Span], rank: u64) -> Vec<SpanKind> {
    let mut shown: Vec<Span> = (spans.iter())
        .filter(|s| s.rank == rank && matches!(s.kind, SpanKind::Compute | SpanKind::Coordinated))
        .copied()
        .collect();
    shown.sort_by_key(|s| s.start_ns);
    let mut seq: Vec<SpanKind> = Vec::new();
    for s in shown {
        if seq.last() != Some(&s.kind) {
            seq.push(s.kind);
        }
    }
    seq
}

#[test]
fn figure1_compute_and_local_checkpoints_alternate() {
    let (r, spans) = run_cluster(config(PrecopyPolicy::None), skewed_factory);
    // The canonical C L C L ... pattern: every local checkpoint of
    // rank 0 follows a compute.
    let seq = sequence(&spans, 0);
    let cl_pairs = seq
        .windows(2)
        .filter(|w| w == &[SpanKind::Compute, SpanKind::Coordinated])
        .count() as u64;
    assert!(
        cl_pairs >= 3 && cl_pairs == r.local_checkpoints,
        "expected a C->L transition per local checkpoint ({}): {seq:?}",
        r.local_checkpoints
    );
    // Local checkpoints are coordinated: while any rank checkpoints,
    // no rank computes — the faster ranks wait at the barrier.
    let computes = of(&spans, None, SpanKind::Compute);
    for ckpt in of(&spans, None, SpanKind::Coordinated) {
        let during = computes.iter().find(|c| overlaps(c, &ckpt));
        assert!(
            during.is_none(),
            "rank {} checkpoints while rank {} computes: {ckpt:?} {during:?}",
            ckpt.rank,
            during.map_or(0, |c| c.rank)
        );
    }
    assert!(
        !of(&spans, None, SpanKind::BarrierWait).is_empty(),
        "ranks of unequal speed wait at the barrier"
    );
}

#[test]
fn figure1_remote_checkpoints_overlap_compute() {
    let mut cfg = config(PrecopyPolicy::None);
    cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(16), false));
    let (r, spans) = run_cluster(cfg, factory);
    assert!(r.remote_checkpoints >= 1);
    // Asynchronous remote checkpoint: its shipment overlaps the compute
    // that follows it, and that compute pays for sharing the link with
    // it — a contention stall inside it. A rank that waited for the
    // shipment to end would find the link free.
    let remote = of(&spans, Some(0), SpanKind::RemoteCheckpoint);
    let computes = of(&spans, Some(0), SpanKind::Compute);
    let stalls = of(&spans, Some(0), SpanKind::CommWait);
    let slowed = |c: &Span| (stalls.iter()).any(|w| c.start_ns <= w.start_ns && end(w) <= end(c));
    let overlapped = (remote.iter()).any(|s| computes.iter().any(|c| overlaps(c, s) && slowed(c)));
    assert!(
        overlapped,
        "remote checkpoints must overlap a compute they slow: {remote:?}, \
         rank-0 sequence {:?}",
        sequence(&spans, 0)
    );
}

#[test]
fn figure5b_precopy_shrinks_blocking_checkpoint_spans() {
    let blocking = |policy| {
        let (_, spans) = run_cluster(config(policy), factory);
        let local = of(&spans, Some(0), SpanKind::Coordinated);
        assert!(!local.is_empty());
        SimDuration::from_nanos(local.iter().map(|s| s.dur_ns).sum())
    };
    let t_no = blocking(PrecopyPolicy::None);
    let t_pre = blocking(PrecopyPolicy::Dcpcp);
    assert!(
        t_pre < t_no,
        "pre-copy blocking time {t_pre} must be below {t_no}"
    );
}

#[test]
fn figure5c_remote_precopy_moves_traffic_into_compute_windows() {
    let mut burst_cfg = config(PrecopyPolicy::None);
    burst_cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(16), false));
    let mut pre_cfg = config(PrecopyPolicy::Dcpcp);
    pre_cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(16), true));

    let (burst, _) = run_cluster(burst_cfg, factory);
    let (pre, _) = run_cluster(pre_cfg, factory);

    // Same-order volumes, but the pre-copy trace is much flatter.
    let burst_trace = &burst.link_traces[0];
    let pre_trace = &pre.link_traces[0];
    assert!(pre_trace.total_bytes() > 0.0 && burst_trace.total_bytes() > 0.0);
    assert!(
        pre_trace.peak_to_mean() < burst_trace.peak_to_mean(),
        "pre-copy peak/mean {:.1} must be flatter than burst {:.1}",
        pre_trace.peak_to_mean(),
        burst_trace.peak_to_mean()
    );
}

#[test]
fn restart_spans_appear_after_failures() {
    use cluster_sim::FailureConfig;
    let mut cfg = config(PrecopyPolicy::Dcpcp);
    cfg.failures = Some(FailureConfig {
        seed: 5,
        mtbf_soft: SimDuration::from_secs(20),
        mtbf_hard: SimDuration::from_secs(1_000_000),
    });
    cfg.failure_horizon = SimDuration::from_secs(600);
    let (r, spans) = run_cluster(cfg, factory);
    assert!(r.soft_failures > 0);
    // One restart span per failure, each of which costs time.
    let restarts = of(&spans, None, SpanKind::Restart);
    assert_eq!(
        restarts.len() as u64,
        r.soft_failures + r.hard_failures,
        "every failure restarts, at a cost: {restarts:?}"
    );
    // The time the cluster stood still is recovery, not compute: on
    // the critical path once per batch of failures (one batch here
    // holds two), and on each failed rank's flamegraph row.
    assert_eq!(r.hard_failures, 0);
    let batches: std::collections::BTreeMap<u64, u64> =
        (restarts.iter()).map(|s| (s.start_ns, s.dur_ns)).collect();
    assert!(batches.len() < restarts.len());
    let stood_still: u64 = batches.values().sum();
    assert_eq!(nvm_obs::blame(&r.trace).totals.recovery_ns, stood_still);
    let folded = nvm_obs::to_folded(&r.trace);
    let recovery: u64 = (folded.lines())
        .filter_map(|line| line.split_once(";recovery "))
        .map(|(_, ns)| ns.parse::<u64>().unwrap())
        .sum();
    assert_eq!(recovery, restarts.iter().map(|s| s.dur_ns).sum());
}
