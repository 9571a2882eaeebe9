//! Thread-scaling experiment: wall-clock speedup of parallel rank
//! execution, with the bit-identical-results guarantee checked on
//! every row.
//!
//! All simulated quantities are virtual time, so the thread count
//! never changes a result — only how long the host takes to produce
//! it. Each row runs the same LAMMPS-shaped configuration at one
//! thread count and verifies that the serialized
//! [`cluster_sim::RunResult`] matches the serial run byte for byte.
//! A run takes milliseconds, so one timing would be one sample of
//! whatever else the host runs: the sweep is repeated [`SWEEPS`]
//! times, the thread counts interleaved, and a row's wall time is the
//! median of its runs.
//!
//! The one speedup column is measured — serial wall / this row's
//! wall — and measured wall time only shows thread scaling when the
//! host has idle cores: on a single-core host (CI runners included) it
//! hovers near 1.0 no matter how parallel the work is. `host_cores`
//! records which regime the sweep was taken in.

use super::{cluster_config, make_app};
use crate::report::Table;
use crate::scale::Scale;
use cluster_sim::{Cluster, RunOptions};
use nvm_chkpt::PrecopyPolicy;
use serde::Serialize;
use std::time::Instant;

/// Thread counts swept (serial first: it is the baseline and the
/// reference output).
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Interleaved repeats of the whole sweep; each row reports the
/// median of its runs.
pub const SWEEPS: usize = 9;

/// One thread-count measurement.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Worker threads used for rank execution.
    pub threads: usize,
    /// Median host wall-clock time of the row's [`SWEEPS`] runs,
    /// milliseconds.
    pub wall_ms: f64,
    /// Wall-clock speedup versus the serial row (measured; ~1.0 on a
    /// single-core host regardless of how parallel the work is).
    pub speedup_vs_serial: f64,
    /// Whether every run's serialized result matched the first serial
    /// run's exactly.
    pub identical_to_serial: bool,
    /// Simulated (virtual) time of the run, seconds — identical on
    /// every row by construction.
    pub virtual_secs: f64,
}

/// The sweep plus the context needed to read it honestly.
#[derive(Clone, Debug, Serialize)]
pub struct Sweep {
    /// CPU cores available to this process when measuring (the
    /// measured-speedup column is only meaningful when this is >= the
    /// row's thread count).
    pub host_cores: usize,
    /// Per-thread-count measurements.
    pub rows: Vec<Row>,
}

/// Run the sweep at the given scale.
pub fn run(scale: &Scale) -> Sweep {
    let mut walls = vec![Vec::with_capacity(SWEEPS); THREAD_SWEEP.len()];
    let mut identical = [true; THREAD_SWEEP.len()];
    let mut serial_json = None;
    let mut virtual_secs = [0.0; THREAD_SWEEP.len()];
    for _ in 0..SWEEPS {
        for (i, &threads) in THREAD_SWEEP.iter().enumerate() {
            let mut cfg = cluster_config(scale, PrecopyPolicy::Dcpcp);
            cfg.threads = threads;
            let sim = Cluster::new(cfg, {
                let scale = *scale;
                move |_| make_app("lammps", &scale)
            });
            let start = Instant::now();
            let result = sim.run(RunOptions::new()).expect("cluster run").result;
            walls[i].push(start.elapsed().as_secs_f64() * 1e3);
            let json = serde_json::to_string(&result).expect("serialize result");
            identical[i] &= json == *serial_json.get_or_insert_with(|| json.clone());
            virtual_secs[i] = result.total_time.as_secs_f64();
        }
    }
    let medians: Vec<f64> = walls.iter_mut().map(|w| median(w)).collect();
    let rows = (0..THREAD_SWEEP.len())
        .map(|i| Row {
            threads: THREAD_SWEEP[i],
            wall_ms: medians[i],
            speedup_vs_serial: medians[0] / medians[i].max(1e-6),
            identical_to_serial: identical[i],
            virtual_secs: virtual_secs[i],
        })
        .collect();
    Sweep {
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rows,
    }
}

/// The middle of `samples` (an odd count, as [`SWEEPS`] is).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Markdown table for the sweep.
pub fn render(sweep: &Sweep) -> Table {
    let mut t = Table::new(
        "Thread scaling — parallel rank execution (LAMMPS, DCPCP)",
        &["threads", "wall ms", "measured speedup", "bit-identical"],
    );
    for r in &sweep.rows {
        t.row(vec![
            r.threads.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.2}x", r.speedup_vs_serial),
            if r.identical_to_serial { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_renders() {
        let sweep = run(&Scale::quick());
        assert_eq!(sweep.rows.len(), THREAD_SWEEP.len());
        assert!(sweep.rows.iter().all(|r| r.identical_to_serial));
        assert!((sweep.rows[0].speedup_vs_serial - 1.0).abs() < 1e-9);
        assert!(sweep.host_cores >= 1);
        let v0 = sweep.rows[0].virtual_secs;
        assert!(sweep.rows.iter().all(|r| r.virtual_secs == v0));
        assert_eq!(render(&sweep).len(), sweep.rows.len());
    }
}
