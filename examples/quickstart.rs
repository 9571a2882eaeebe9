//! Quickstart: allocate checkpoint chunks, compute, checkpoint, crash,
//! restart, and verify every byte came back.
//!
//! ```sh
//! cargo run -p nvm-chkpt-examples --bin quickstart
//! ```

use nvm_chkpt::{CheckpointEngine, EngineConfig, RestartStrategy, Tracer};
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};

fn main() {
    // A node with 256 MB of DRAM and 256 MB of emulated PCM.
    let dram = MemoryDevice::dram(256 << 20);
    let nvm = MemoryDevice::pcm(256 << 20);
    let clock = VirtualClock::new();

    // Default config: DCPCP pre-copy, double versioning, checksums.
    let mut engine = CheckpointEngine::new(
        /* process id */ 0,
        &dram,
        &nvm,
        /* NVM container */ 128 << 20,
        clock.clone(),
        EngineConfig::default(),
    )
    .expect("create engine");

    // The application marks its checkpointable state with the Table-III
    // interfaces. Computation runs against DRAM working copies.
    let temperature = engine.nvmalloc("temperature", 1 << 20, true).unwrap();
    let pressure = engine.nv2dalloc("pressure", 512, 256, 8, true).unwrap();
    let scratch = engine.nvmalloc("scratch", 1 << 20, false).unwrap(); // not checkpointed

    println!(
        "allocated 3 chunks; checkpoint set = {} bytes",
        engine.checkpoint_bytes()
    );

    // A few compute iterations with checkpoints.
    for step in 0u8..3 {
        engine
            .write(temperature, 0, &vec![step + 1; 1 << 20])
            .unwrap();
        engine
            .write(pressure, 0, &vec![step + 10; 512 * 256 * 8])
            .unwrap();
        engine.write(scratch, 0, &[0xEE; 4096]).unwrap();
        engine.compute(SimDuration::from_secs(5));
        let report = engine.nvchkptall().unwrap();
        println!(
            "checkpoint {}: {} bytes ({} pre-copied in background), blocking {} ",
            report.epoch,
            report.total_bytes(),
            report.precopied_bytes,
            report.coordinated_time,
        );
    }

    // Overwrite the working copies *without* checkpointing, then crash.
    engine.write(temperature, 0, &vec![0xFF; 1 << 20]).unwrap();
    let metadata_region = engine.metadata_region();
    drop(engine); // the process dies; DRAM is gone, NVM survives

    // Restart from the persistent metadata region.
    let (mut engine, report) = CheckpointEngine::restart(
        &dram,
        &nvm,
        metadata_region,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Tracer::disabled(),
    )
    .expect("restart");
    println!(
        "restart: {} chunks restored, {} corrupt, took {}",
        report.restored.len(),
        report.corrupt.len(),
        report.duration,
    );

    // The last *committed* values are back (step = 2), not the
    // uncheckpointed 0xFF overwrite.
    let mut buf = vec![0u8; 1 << 20];
    engine.read(temperature, 0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 3),
        "temperature restored to step 3"
    );
    engine.read(pressure, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 12), "pressure restored to step 3");
    println!("verified: committed state restored, uncheckpointed writes discarded");
}
