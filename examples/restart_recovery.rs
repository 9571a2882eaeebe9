//! Failure recovery with checksums and the remote fallback: corrupt a
//! local checkpoint, catch it at restart, and recover the bytes from
//! the buddy node's remote store.
//!
//! ```sh
//! cargo run -p nvm-chkpt-examples --bin restart_recovery
//! ```

use nvm_chkpt::{CheckpointEngine, EngineConfig, RestartStrategy, Tracer};
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};
use rdma_sim::{Link, RemoteStore};

fn main() {
    let dram = MemoryDevice::dram(128 << 20);
    let nvm = MemoryDevice::pcm(128 << 20);
    let buddy_nvm = MemoryDevice::pcm(128 << 20);
    let clock = VirtualClock::new();
    let mut link = Link::infiniband_40g();
    let mut remote = RemoteStore::new(&buddy_nvm, /* materialized */ true);

    let rank = 7u64;
    let mut engine = CheckpointEngine::new(
        rank,
        &dram,
        &nvm,
        64 << 20,
        clock.clone(),
        EngineConfig::default(),
    )
    .unwrap();

    // Application state: two arrays.
    let ions = engine.nvmalloc("ions", 2 << 20, true).unwrap();
    let fields = engine.nvmalloc("fields", 1 << 20, true).unwrap();
    engine.write(ions, 0, &vec![0x11; 2 << 20]).unwrap();
    engine.write(fields, 0, &vec![0x22; 1 << 20]).unwrap();
    engine.compute(SimDuration::from_secs(2));
    engine.nvchkptall().unwrap();

    // Asynchronous remote checkpoint: the helper ships committed chunks
    // to the buddy node over the interconnect.
    let mut shipped = 0u64;
    for id in engine.remote_dirty_chunks() {
        let data = engine.committed_bytes(id).unwrap();
        let wire = link.transfer(clock.now(), data.len() as u64, 1);
        clock.advance(wire);
        remote.put(rank, id, &data).unwrap();
        engine.mark_remote_copied(id);
        shipped += data.len() as u64;
    }
    remote.commit_rank(rank, 0);
    println!("remote checkpoint: shipped {} bytes to buddy node", shipped);

    // Silent corruption of the local committed copy of `ions`.
    engine.corrupt_committed(ions).unwrap();
    println!("injected silent corruption into local NVM copy of 'ions'");

    let region = engine.metadata_region();
    drop(engine); // crash

    // Restart: the checksum catches the corruption.
    let (mut engine, report) = CheckpointEngine::restart(
        &dram,
        &nvm,
        region,
        clock.clone(),
        EngineConfig::default(),
        RestartStrategy::Eager,
        Tracer::disabled(),
    )
    .unwrap();
    println!(
        "restart: restored {:?}, corrupt {:?}",
        report.restored, report.corrupt
    );
    assert_eq!(report.corrupt, vec![ions], "checksum must flag 'ions'");

    // Remote recovery: fetch the corrupt chunk from the buddy.
    for &id in &report.corrupt {
        let (data, read_cost) = remote.fetch(rank, id).unwrap();
        let wire = link.transfer(clock.now(), data.len() as u64, 1);
        clock.advance(wire + read_cost);
        engine.write(id, 0, &data).unwrap();
        engine.nvchkptid(id).unwrap(); // re-establish the local copy
        println!(
            "fetched {} bytes for {:?} from remote store (checksum verified)",
            data.len(),
            id
        );
    }

    // Verify every byte.
    let mut buf = vec![0u8; 2 << 20];
    engine.read(ions, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x11));
    let mut buf = vec![0u8; 1 << 20];
    engine.read(fields, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x22));
    println!("verified: all application state recovered (local + remote paths)");
}
