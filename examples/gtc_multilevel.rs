//! Multilevel checkpointing of a GTC-like fusion code on a simulated
//! cluster: frequent local NVM checkpoints, less frequent remote
//! (buddy-node) checkpoints, and injected failures.
//!
//! ```sh
//! cargo run --release -p nvm-chkpt-examples --bin gtc_multilevel
//! ```

use cluster_sim::{Cluster, ClusterConfig, FailureConfig, RemoteConfig, RunOptions, Workload};
use hpc_workloads::SyntheticApp;
use nvm_chkpt::PrecopyPolicy;
use nvm_emu::SimDuration;
use nvm_obs::{build_spans, SpanKind};

fn main() {
    // 2 nodes x 4 ranks, GTC at 10% of paper size so the example is
    // instant; local checkpoint every 20 s, remote every 60 s.
    let scale = 0.1;
    let mut cfg = ClusterConfig::new(2, 4);
    cfg.container_bytes = (900.0 * scale * (1 << 20) as f64) as usize + (8 << 20);
    cfg.engine = cfg.engine.with_precopy(PrecopyPolicy::Dcpcp);
    cfg.local_interval = Some(SimDuration::from_secs(20));
    cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(60), true));
    cfg.iterations = 30;
    cfg.failures = Some(FailureConfig {
        seed: 2013,
        mtbf_soft: SimDuration::from_secs(120),
        mtbf_hard: SimDuration::from_secs(100_000),
    });
    cfg.failure_horizon = SimDuration::from_secs(3600);

    let factory = move |_rank: u64| -> Box<dyn Workload> {
        Box::new(SyntheticApp::gtc_scaled(scale).with_compute(SimDuration::from_secs(5)))
    };
    let ideal = Cluster::new(cfg.ideal_variant(), factory)
        .run(RunOptions::new())
        .unwrap()
        .result;
    let result = Cluster::new(cfg, factory)
        .run(RunOptions::new().with_trace(true))
        .unwrap()
        .result;

    println!("GTC multilevel checkpointing on 2x4 ranks");
    println!("  ideal time (no ckpt, no failures): {}", ideal.total_time);
    println!("  actual time:                       {}", result.total_time);
    println!(
        "  efficiency:                        {:.3}",
        result.efficiency_vs(&ideal)
    );
    println!(
        "  local checkpoints:                 {}",
        result.local_checkpoints
    );
    println!(
        "  remote checkpoints:                {}",
        result.remote_checkpoints
    );
    println!(
        "  soft failures recovered locally:   {}",
        result.soft_failures
    );
    println!(
        "  hard failures (remote recovery):   {}",
        result.hard_failures
    );
    println!(
        "  iterations redone after failures:  {}",
        result.lost_iterations
    );
    println!(
        "  data: {} MB/rank checkpoint set, {:.0} MB pre-copied, {:.0} MB at coordinated steps, {:.0} MB skipped as unmodified",
        result.checkpoint_bytes_per_rank >> 20,
        result.engine_stats.precopied_bytes as f64 / (1 << 20) as f64,
        result.engine_stats.coordinated_bytes as f64 / (1 << 20) as f64,
        result.engine_stats.skipped_bytes as f64 / (1 << 20) as f64,
    );
    println!(
        "  peak interconnect bucket: {:.1} MB; helper core utilization: {:.1}%",
        result.peak_link_bytes() / (1 << 20) as f64,
        result.helper_utilization[0] * 100.0,
    );
    // Rank 0's timeline, drawn from the run's trace as in Figure 1:
    // compute, the blocking local checkpoint, the remote checkpoint
    // overlapping the next compute, and restarts.
    let mut spans = build_spans(&result.trace);
    spans.retain(|s| {
        s.rank == 0
            && matches!(
                s.kind,
                SpanKind::Compute
                    | SpanKind::Coordinated
                    | SpanKind::RemoteCheckpoint
                    | SpanKind::Restart
            )
    });
    spans.sort_by_key(|s| s.start_ns);
    let mut seq: Vec<SpanKind> = Vec::new();
    for s in &spans {
        if seq.last() != Some(&s.kind) {
            seq.push(s.kind);
        }
    }
    println!(
        "  rank-0 timeline (first 12 activities): {:?}",
        &seq[..seq.len().min(12)]
    );
}
