//! Cross-crate integration of the extension features: lazy restart
//! feeding computation, and wear accounting under engine traffic.

use nvm_chkpt::{CheckpointEngine, EngineConfig, RestartStrategy, Tracer};
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};

const MB: usize = 1 << 20;

fn engine_on(
    dram: &MemoryDevice,
    nvm: &MemoryDevice,
    clock: &VirtualClock,
    pid: u64,
) -> CheckpointEngine {
    CheckpointEngine::new(
        pid,
        dram,
        nvm,
        64 * MB,
        clock.clone(),
        EngineConfig::default(),
    )
    .unwrap()
}

#[test]
fn lazy_restart_supports_immediate_forward_progress() {
    let dram = MemoryDevice::dram(128 * MB);
    let nvm = MemoryDevice::pcm(128 * MB);
    let clock = VirtualClock::new();
    let mut e = engine_on(&dram, &nvm, &clock, 0);
    let hot = e.nvmalloc("hot", 4 * MB, true).unwrap();
    let cold = e.nvmalloc("cold_history", 16 * MB, true).unwrap();
    e.write(hot, 0, &vec![1u8; 4 * MB]).unwrap();
    e.write(cold, 0, &vec![2u8; 16 * MB]).unwrap();
    e.nvchkptall().unwrap();
    let region = e.metadata_region();
    drop(e);

    let t0 = clock.now();
    let (mut e, report) = CheckpointEngine::restart(
        &dram,
        &nvm,
        region,
        clock.clone(),
        EngineConfig::default(),
        RestartStrategy::Lazy,
        Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.deferred.len(), 2);
    let control = clock.now().since(t0);

    // The app immediately iterates on the hot chunk only; the cold
    // 16 MB history never pays its restore.
    for step in 0..3u8 {
        e.write(hot, 0, &vec![step + 10; 4 * MB]).unwrap();
        e.compute(SimDuration::from_millis(200));
        e.nvchkptall().unwrap();
    }
    assert_eq!(e.lazy_pending_count(), 1, "cold chunk still deferred");
    // Forward progress happened with a near-zero restart stall.
    assert!(control < SimDuration::from_millis(5), "control {control}");
    // The cold data is still intact when finally touched.
    let mut buf = vec![0u8; 16 * MB];
    e.read(cold, 0, &mut buf).unwrap();
    assert_eq!(buf, vec![2u8; 16 * MB]);
    assert_eq!(e.lazy_pending_count(), 0);
}

#[test]
fn wear_accounting_tracks_engine_checkpoint_traffic() {
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(160 * MB);
    let clock = VirtualClock::new();
    let mut e = engine_on(&dram, &nvm, &clock, 0);
    let id = e.nvmalloc("state", MB, true).unwrap();
    for round in 0..10u8 {
        e.write(id, 0, &vec![round; MB]).unwrap();
        e.nvchkptall().unwrap();
    }
    // Double versioning alternates slots, so per-page wear on the
    // container is ~half the checkpoint count (plus metadata traffic).
    let container_wear = nvm.max_wear(e.heap().container()).unwrap();
    assert!(
        (5..=10).contains(&container_wear),
        "container wear {container_wear}"
    );
    assert!(nvm.wear_fraction() > 0.0);
}
