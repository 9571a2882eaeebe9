//! One module per paper table/figure, plus ablations.
//!
//! Each module exposes `run(...) -> Vec<Row>` returning serializable
//! rows and `render(...) -> Table` for human-readable output; the
//! `run_all` binary's name → stanza table prints and saves them.

pub mod ablations;
pub mod analyze;
pub mod blame;
pub mod fig10;
pub mod fig4;
pub mod fig9;
pub mod kv_serving;
pub mod local;
pub mod madbench;
pub mod metrics;
pub mod model_val;
pub mod multilevel_recovery;
pub mod observe;
pub mod scaling;
pub mod scaling_ranks;
pub mod store;
pub mod table1;
pub mod table4;
pub mod table5;
pub mod tracing;

use crate::scale::Scale;
use cluster_sim::{Cluster, ClusterConfig, RunOptions, RunResult, Workload};
use hpc_workloads::SyntheticApp;
use nvm_chkpt::PrecopyPolicy;

/// Run `cfg` with every rank hosting the named application at `scale`
/// — the shared call path for experiments that only need the
/// deterministic [`RunResult`].
pub fn run_cluster(cfg: ClusterConfig, app: &str, scale: &Scale, opts: RunOptions) -> RunResult {
    let app = app.to_string();
    let scale = *scale;
    Cluster::new(cfg, move |_| make_app(&app, &scale))
        .run(opts)
        .expect("cluster run")
        .result
}

/// Build one rank's workload for a named application at the given
/// scale.
pub fn make_app(app: &str, scale: &Scale) -> Box<dyn Workload> {
    let a = match app {
        "gtc" => SyntheticApp::gtc_scaled(scale.size_scale),
        "lammps" => SyntheticApp::lammps_scaled(scale.size_scale),
        "cm1" => SyntheticApp::cm1_scaled(scale.size_scale),
        other => panic!("unknown app {other}"),
    };
    Box::new(a.with_compute(scale.compute_per_iter))
}

/// Cluster configuration for a scale preset and pre-copy policy.
pub fn cluster_config(scale: &Scale, policy: PrecopyPolicy) -> ClusterConfig {
    let mut c = ClusterConfig::new(scale.nodes, scale.ranks_per_node);
    c.container_bytes = scale.container_bytes();
    c.engine = c.engine.with_precopy(policy);
    c.local_interval = Some(scale.local_interval);
    c.iterations = scale.iterations;
    c.threads = scale.threads;
    c
}

/// Effective NVM bandwidth values (MB/s per core) swept on the x-axis
/// of Figures 7, 8 and 9.
pub const BW_SWEEP_MB: [u32; 5] = [100, 200, 400, 800, 1600];
