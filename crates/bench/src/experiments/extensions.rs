//! Extension experiments — features beyond the paper's evaluation,
//! from its future-work and related-work sections:
//!
//! * restart strategies (eager / parallel / lazy) — the paper's
//!   explicit future work on recovery;
//! * NVM write energy by pre-copy policy.

use crate::report::Table;
use nvm_chkpt::{CheckpointEngine, EngineConfig, RestartStrategy, Tracer};
use nvm_emu::{MemoryDevice, VirtualClock};
use serde::Serialize;

const MB: usize = 1 << 20;

/// One restart-strategy measurement.
#[derive(Clone, Debug, Serialize)]
pub struct RestartRow {
    /// Strategy name.
    pub strategy: String,
    /// Time until the application regains control, ms.
    pub time_to_control_ms: f64,
    /// Time until the full working set is hot (all chunks restored), ms.
    pub time_to_hot_ms: f64,
}

/// Measure restart strategies on a 16-chunk, 128 MB process.
pub fn run_restart() -> Vec<RestartRow> {
    let build = || {
        let dram = MemoryDevice::dram(512 * MB);
        let nvm = MemoryDevice::pcm(512 * MB);
        let clock = VirtualClock::new();
        let cfg = EngineConfig::builder()
            .checksums(false)
            .materialization(nvm_chkpt::Materialization::Synthetic)
            .build()
            .expect("valid restart-bench config");
        let mut e = CheckpointEngine::new(0, &dram, &nvm, 300 * MB, clock.clone(), cfg).unwrap();
        let mut ids = Vec::new();
        for i in 0..16 {
            let id = e.nvmalloc(&format!("c{i}"), 8 * MB, true).unwrap();
            e.write_synthetic(id, 0, 8 * MB).unwrap();
            ids.push(id);
        }
        e.nvchkptall().unwrap();
        let region = e.metadata_region();
        drop(e);
        (dram, nvm, clock, region, cfg, ids)
    };

    let mut rows = Vec::new();
    for (name, strategy) in [
        ("eager", RestartStrategy::Eager),
        ("parallel x4", RestartStrategy::Parallel { streams: 4 }),
        ("lazy", RestartStrategy::Lazy),
    ] {
        let (dram, nvm, clock, region, cfg, ids) = build();
        let t0 = clock.now();
        let (mut e, _report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock.clone(),
            cfg,
            strategy,
            Tracer::disabled(),
        )
        .unwrap();
        let control = clock.now().since(t0);
        // Touch everything: lazy pays here, the others already did.
        for id in &ids {
            e.write_synthetic(*id, 0, 1).unwrap();
        }
        let hot = clock.now().since(t0);
        rows.push(RestartRow {
            strategy: name.to_string(),
            time_to_control_ms: control.as_secs_f64() * 1e3,
            time_to_hot_ms: hot.as_secs_f64() * 1e3,
        });
    }
    rows
}

/// One energy measurement.
#[derive(Clone, Debug, Serialize)]
pub struct EnergyRow {
    /// Pre-copy policy.
    pub policy: String,
    /// Bytes moved to NVM, MB.
    pub moved_mb: f64,
    /// NVM write energy spent, joules.
    pub nvm_joules: f64,
    /// Energy per committed checkpoint byte, nJ/B.
    pub nj_per_committed_byte: f64,
}

/// NVM write energy by policy: PCM writes cost 40x DRAM per bit
/// (Table I), so every wasted pre-copy burns real energy — DCPCP's
/// prediction is an energy optimization too.
pub fn run_energy() -> Vec<EnergyRow> {
    use nvm_chkpt::PrecopyPolicy;
    use nvm_emu::SimDuration;
    [
        PrecopyPolicy::None,
        PrecopyPolicy::Cpc,
        PrecopyPolicy::Dcpcp,
    ]
    .iter()
    .map(|&policy| {
        let dram = MemoryDevice::dram(512 * MB);
        let nvm = MemoryDevice::pcm(512 * MB);
        let cfg = EngineConfig::builder()
            .checksums(false)
            .materialization(nvm_chkpt::Materialization::Synthetic)
            .precopy(policy)
            .build()
            .expect("valid prediction-bench config");
        let mut e =
            CheckpointEngine::new(0, &dram, &nvm, 200 * MB, VirtualClock::new(), cfg).unwrap();
        // One steady chunk plus one hot chunk rewritten 3x/iteration.
        let steady = e.nvmalloc("steady", 32 * MB, true).unwrap();
        let hot = e.nvmalloc("hot", 16 * MB, true).unwrap();
        let mut committed = 0u64;
        for _ in 0..6 {
            e.write_synthetic(steady, 0, 32 * MB).unwrap();
            for _ in 0..3 {
                e.write_synthetic(hot, 0, 16 * MB).unwrap();
                e.compute(SimDuration::from_secs(3));
            }
            e.nvchkptall().unwrap();
            // Each epoch commits the full 48 MB checkpoint set; wasted
            // pre-copies move extra bytes without committing more.
            committed += 48 * MB as u64;
        }
        let stats = nvm.stats();
        EnergyRow {
            policy: format!("{policy:?}"),
            moved_mb: stats.bytes_written as f64 / MB as f64,
            nvm_joules: stats.energy.joules(),
            nj_per_committed_byte: stats.energy.joules() * 1e9 / committed as f64,
        }
    })
    .collect()
}

/// Render all extension tables.
pub fn render(restart: &[RestartRow], energy: &[EnergyRow]) -> Vec<Table> {
    let mut t1 = Table::new(
        "Extension — restart strategies (16 x 8 MB chunks)",
        &["Strategy", "Time to control (ms)", "Time to hot set (ms)"],
    );
    for r in restart {
        t1.row(vec![
            r.strategy.clone(),
            format!("{:.1}", r.time_to_control_ms),
            format!("{:.1}", r.time_to_hot_ms),
        ]);
    }
    let mut t2 = Table::new(
        "Extension — NVM write energy by pre-copy policy (hot-chunk workload)",
        &[
            "Policy",
            "Moved (MB)",
            "NVM energy (J)",
            "nJ / committed byte",
        ],
    );
    for r in energy {
        t2.row(vec![
            r.policy.clone(),
            format!("{:.0}", r.moved_mb),
            format!("{:.3}", r.nvm_joules),
            format!("{:.2}", r.nj_per_committed_byte),
        ]);
    }
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_strategies_order_as_expected() {
        let rows = run_restart();
        let eager = &rows[0];
        let parallel = &rows[1];
        let lazy = &rows[2];
        assert!(parallel.time_to_control_ms < eager.time_to_control_ms);
        assert!(lazy.time_to_control_ms < parallel.time_to_control_ms);
        // Lazy pays later: time-to-hot is comparable to eager's.
        assert!(lazy.time_to_hot_ms > lazy.time_to_control_ms * 5.0);
    }

    #[test]
    fn cpc_burns_more_energy_than_dcpcp() {
        let rows = run_energy();
        let cpc = rows.iter().find(|r| r.policy == "Cpc").unwrap();
        let dcpcp = rows.iter().find(|r| r.policy == "Dcpcp").unwrap();
        let none = rows.iter().find(|r| r.policy == "None").unwrap();
        assert!(
            cpc.nvm_joules > dcpcp.nvm_joules,
            "CPC {} J vs DCPCP {} J",
            cpc.nvm_joules,
            dcpcp.nvm_joules
        );
        // DCPCP's energy is close to the no-pre-copy floor.
        assert!(dcpcp.nvm_joules <= none.nvm_joules * 1.25);
    }
}
