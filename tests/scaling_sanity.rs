//! Sanity gate for thread scaling on the quick preset: running the
//! same cluster on 4 worker threads must give a bit-identical result
//! — always — and, where the host can measure it, must not be slower
//! than serial on the wall clock.
//!
//! The quick preset is 4 ranks and about a millisecond of work, so
//! spawning the workers costs as much as the work they share. The
//! wall comparison therefore runs only when it can mean something: at
//! least 2 cores and a serial best-of-3 long enough to time. Anywhere
//! else it is skipped with a printed reason, never passed on a model;
//! measured two-thread efficiency lives in the benchmark's
//! `ranks512_bytes_t1` / `_t2` pair.

use cluster_sim::{Cluster, ClusterConfig, RunOptions};
use hpc_workloads::SyntheticApp;
use nvm_chkpt::PrecopyPolicy;
use nvm_emu::SimDuration;
use std::time::{Duration, Instant};

const MB: usize = 1 << 20;

/// Quick-preset-shaped cluster (2 nodes x 2 ranks, LAMMPS profile).
fn quick_config(threads: usize) -> ClusterConfig {
    let mut c = ClusterConfig::new(2, 2);
    c.container_bytes = 54 * MB;
    c.engine = c.engine.with_precopy(PrecopyPolicy::Dcpcp);
    c.local_interval = Some(SimDuration::from_secs(10));
    c.iterations = 8;
    c.threads = threads;
    c
}

/// Below this, thread spawn and scheduler jitter are the same size as
/// the run being timed.
const MIN_MEASURABLE_WALL: Duration = Duration::from_millis(20);

fn run_once(threads: usize) -> (String, Duration) {
    let sim = Cluster::new(quick_config(threads), |_| {
        Box::new(SyntheticApp::lammps_scaled(0.05).with_compute(SimDuration::from_secs(5)))
    });
    let start = Instant::now();
    let outcome = sim.run(RunOptions::new()).expect("cluster run");
    let wall = start.elapsed();
    (
        serde_json::to_string(&outcome.result).expect("serialize"),
        wall,
    )
}

/// Best wall time over `rounds` runs, plus that run's result JSON.
fn best_of(threads: usize, rounds: usize) -> (String, Duration) {
    (0..rounds)
        .map(|_| run_once(threads))
        .min_by_key(|(_, wall)| *wall)
        .expect("at least one round")
}

#[test]
fn threads_4_beats_serial_on_quick_preset() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (serial_json, serial_wall) = best_of(1, 3);
    let (par_json, par_wall) = best_of(4, 3);

    // Non-negotiable regardless of host: identical results.
    assert_eq!(
        serial_json, par_json,
        "threads=4 result diverged from serial"
    );

    if cores < 2 {
        eprintln!("skipped wall comparison: {cores} core, threads cannot run side by side");
    } else if serial_wall < MIN_MEASURABLE_WALL {
        eprintln!(
            "skipped wall comparison: serial best-of-3 {serial_wall:?} is below \
             {MIN_MEASURABLE_WALL:?}, too short to time against thread start-up \
             (threads=4 took {par_wall:?})"
        );
    } else {
        assert!(
            par_wall < serial_wall,
            "threads=4 wall {par_wall:?} not below serial {serial_wall:?} on {cores}-core host"
        );
    }
}
