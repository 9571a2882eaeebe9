//! End-to-end recovery across the full stack with *real bytes*:
//! engine + paging + heap + remote store, byte-perfect verification
//! through soft failures, silent corruption, and hard node loss.

use nvm_chkpt::{CheckpointEngine, EngineConfig, EngineError, RestartStrategy, Tracer};
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};
use rdma_sim::{Link, RemoteStore};

const MB: usize = 1 << 20;

struct Node {
    dram: MemoryDevice,
    nvm: MemoryDevice,
}

impl Node {
    fn new() -> Self {
        Node {
            dram: MemoryDevice::dram(128 * MB),
            nvm: MemoryDevice::pcm(128 * MB),
        }
    }
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn fill(engine: &mut CheckpointEngine, id: nvm_chkpt::ChunkId, seed: u8, len: usize) {
    engine.write(id, 0, &pattern(seed, len)).unwrap();
}

fn expect(engine: &mut CheckpointEngine, id: nvm_chkpt::ChunkId, seed: u8, len: usize) {
    let mut buf = vec![0u8; len];
    engine.read(id, 0, &mut buf).unwrap();
    let want = pattern(seed, len);
    assert_eq!(buf, want, "chunk {id:?} content mismatch for seed {seed}");
}

#[test]
fn soft_failure_restarts_from_local_nvm() {
    let node = Node::new();
    let clock = VirtualClock::new();
    let mut engine = CheckpointEngine::new(
        0,
        &node.dram,
        &node.nvm,
        64 * MB,
        clock.clone(),
        EngineConfig::default(),
    )
    .unwrap();
    let a = engine.nvmalloc("a", MB, true).unwrap();
    let b = engine.nvmalloc("b", 2 * MB, true).unwrap();

    for epoch in 0..3u8 {
        fill(&mut engine, a, epoch, MB);
        fill(&mut engine, b, epoch + 100, 2 * MB);
        engine.compute(SimDuration::from_secs(1));
        engine.nvchkptall().unwrap();
    }
    // Un-checkpointed garbage, then crash.
    fill(&mut engine, a, 0xEE, MB);
    let region = engine.metadata_region();
    drop(engine);

    let (mut engine, report) = CheckpointEngine::restart(
        &node.dram,
        &node.nvm,
        region,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.restored.len(), 2);
    assert!(report.corrupt.is_empty());
    expect(&mut engine, a, 2, MB);
    expect(&mut engine, b, 102, 2 * MB);
}

#[test]
fn repeated_crash_restart_cycles_converge() {
    let node = Node::new();
    let clock = VirtualClock::new();
    let mut engine = CheckpointEngine::new(
        0,
        &node.dram,
        &node.nvm,
        64 * MB,
        clock.clone(),
        EngineConfig::default(),
    )
    .unwrap();
    let a = engine.nvmalloc("state", MB, true).unwrap();

    for round in 0..5u8 {
        fill(&mut engine, a, round, MB);
        engine.compute(SimDuration::from_millis(100));
        engine.nvchkptall().unwrap();
        let region = engine.metadata_region();
        drop(engine);
        let (e2, report) = CheckpointEngine::restart(
            &node.dram,
            &node.nvm,
            region,
            clock.clone(),
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        engine = e2;
        assert_eq!(report.restored.len(), 1, "round {round}");
        expect(&mut engine, a, round, MB);
    }
}

#[test]
fn corruption_falls_back_to_remote_copy() {
    let node = Node::new();
    let buddy = Node::new();
    let clock = VirtualClock::new();
    let mut link = Link::infiniband_40g();
    let mut remote = RemoteStore::new(&buddy.nvm, true);

    let mut engine = CheckpointEngine::new(
        3,
        &node.dram,
        &node.nvm,
        64 * MB,
        clock.clone(),
        EngineConfig::default(),
    )
    .unwrap();
    let a = engine.nvmalloc("a", MB, true).unwrap();
    let b = engine.nvmalloc("b", MB, true).unwrap();
    fill(&mut engine, a, 1, MB);
    fill(&mut engine, b, 2, MB);
    engine.nvchkptall().unwrap();

    // Remote checkpoint of the committed state.
    for id in engine.remote_dirty_chunks() {
        let data = engine.committed_bytes(id).unwrap();
        let wire = link.transfer(clock.now(), data.len() as u64, 1);
        clock.advance(wire);
        remote.put(3, id, &data).unwrap();
        engine.mark_remote_copied(id);
    }
    remote.commit_rank(3, 0);

    // Corrupt both locally.
    engine.corrupt_committed(a).unwrap();
    engine.corrupt_committed(b).unwrap();
    let region = engine.metadata_region();
    drop(engine);

    let (mut engine, report) = CheckpointEngine::restart(
        &node.dram,
        &node.nvm,
        region,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.corrupt.len(), 2, "both chunks must fail checksums");
    for &id in &report.corrupt {
        let (data, _) = remote.fetch(3, id).unwrap();
        engine.write(id, 0, &data).unwrap();
        engine.nvchkptid(id).unwrap();
    }
    expect(&mut engine, a, 1, MB);
    expect(&mut engine, b, 2, MB);
}

#[test]
fn hard_failure_rebuilds_entirely_from_remote() {
    let node = Node::new();
    let buddy = Node::new();
    let clock = VirtualClock::new();
    let mut remote = RemoteStore::new(&buddy.nvm, true);

    // Original process life.
    let (names, seeds): (Vec<&str>, Vec<u8>) = (vec!["ions", "fields", "moments"], vec![7, 8, 9]);
    {
        let mut engine = CheckpointEngine::new(
            0,
            &node.dram,
            &node.nvm,
            64 * MB,
            clock.clone(),
            EngineConfig::default(),
        )
        .unwrap();
        let mut ids = Vec::new();
        for (n, s) in names.iter().zip(&seeds) {
            let id = engine.nvmalloc(n, MB, true).unwrap();
            fill(&mut engine, id, *s, MB);
            ids.push(id);
        }
        engine.nvchkptall().unwrap();
        for id in engine.remote_dirty_chunks() {
            let data = engine.committed_bytes(id).unwrap();
            remote.put(0, id, &data).unwrap();
            engine.mark_remote_copied(id);
        }
        remote.commit_rank(0, 0);
        // Hard failure: the node's NVM is gone entirely.
        node.nvm.destroy();
    }

    // Replacement node: a fresh engine re-allocates by the same names
    // (same ids via genid) and pulls data from the buddy store.
    let fresh = Node::new();
    let mut engine = CheckpointEngine::new(
        0,
        &fresh.dram,
        &fresh.nvm,
        64 * MB,
        clock,
        EngineConfig::default(),
    )
    .unwrap();
    for (n, s) in names.iter().zip(&seeds) {
        let id = engine.nvmalloc(n, MB, true).unwrap();
        let (data, _) = remote.fetch(0, id).expect("remote copy exists");
        engine.write(id, 0, &data).unwrap();
        engine.nvchkptid(id).unwrap();
        expect(&mut engine, id, *s, MB);
    }
}

#[test]
fn restart_of_never_checkpointed_process_reports_it() {
    let node = Node::new();
    let clock = VirtualClock::new();
    let mut engine = CheckpointEngine::new(
        0,
        &node.dram,
        &node.nvm,
        64 * MB,
        clock.clone(),
        EngineConfig::default(),
    )
    .unwrap();
    let a = engine.nvmalloc("a", MB, true).unwrap();
    fill(&mut engine, a, 1, MB);
    let region = engine.metadata_region();
    drop(engine); // crash before any checkpoint

    let (engine, report) = CheckpointEngine::restart(
        &node.dram,
        &node.nvm,
        region,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.never_committed, vec![a]);
    assert!(report.restored.is_empty());
    assert!(matches!(
        engine.committed_bytes(a),
        Err(EngineError::NoCommittedData(_))
    ));
}

/// A process that died before its first `nvmalloc` saved no chunk
/// table: its metadata region reads back as zeros (never written), and
/// a restart from it is a typed error naming the region — it used to
/// be a `NoSuchRegion` for a region id nobody allocated.
#[test]
fn restart_of_a_process_that_never_allocated_names_its_metadata_region() {
    use nvm_paging::metadata::MetadataError;
    let node = Node::new();
    let clock = VirtualClock::new();
    let config = EngineConfig::default;
    let engine = CheckpointEngine::new(0, &node.dram, &node.nvm, MB, clock.clone(), config());
    let region = engine.unwrap().metadata_region(); // and the process dies
    let restarted = CheckpointEngine::restart(
        &node.dram,
        &node.nvm,
        region,
        clock,
        config(),
        RestartStrategy::Eager,
        Tracer::disabled(),
    );
    match restarted {
        Err(EngineError::Metadata(MetadataError::NeverSaved(r))) => assert_eq!(r, region),
        Err(e) => panic!("expected NeverSaved, got {e}"),
        Ok(_) => panic!("restarted from a table nobody saved"),
    }
    assert_eq!(node.nvm.resident_bytes(), 0, "the header was never written");
}

/// Two processes of one node share its DRAM and its NVM device. One
/// stages and commits (a DRAM view around an NVM write, then the slot
/// checksummed under the NVM lock) while the other crashes, restarts
/// lazily and touches its chunks (the slot verified under the NVM lock,
/// then a DRAM view around an NVM read). Every nesting takes DRAM
/// first, then NVM, so the two can never wait on each other.
#[test]
fn two_engines_on_one_node_commit_and_restart_concurrently() {
    use nvm_chkpt::PrecopyPolicy;
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    const ROUNDS: u8 = 40;
    const LEN: usize = 256 << 10;
    let node = Arc::new(Node::new());
    let config = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
    let start = |process: u64| {
        let (dram, nvm, clock) = (&node.dram, &node.nvm, VirtualClock::new());
        let mut e = CheckpointEngine::new(process, dram, nvm, 8 * MB, clock, config).unwrap();
        let ids = [("x", LEN), ("y", LEN / 2)]
            .map(|(name, len)| (e.nvmalloc(name, len, true).unwrap(), len));
        for (id, len) in ids {
            fill(&mut e, id, 0, len);
        }
        e.nvchkptall().unwrap();
        (e, ids)
    };
    let (mut a, a_ids) = start(0);
    let (mut b, b_ids) = start(1);

    // Both start each round together, so a stage / commit of one
    // overlaps a restart / first access of the other every time.
    let round = Arc::new(Barrier::new(2));
    let (done, finished) = mpsc::channel();

    let (go, tx) = (round.clone(), done.clone());
    std::thread::spawn(move || {
        for seed in 1..=ROUNDS {
            go.wait();
            for (id, len) in a_ids {
                fill(&mut a, id, seed, len);
            }
            a.compute(SimDuration::from_secs(1));
            a.nvchkptall().unwrap();
        }
        tx.send(("committer", a)).unwrap();
    });

    let (go, tx, shared) = (round, done, node.clone());
    std::thread::spawn(move || {
        for seed in 1..=ROUNDS {
            go.wait();
            let (region, clock) = (b.metadata_region(), b.clock().clone());
            drop(b); // crash
            let (dram, nvm, lazy) = (&shared.dram, &shared.nvm, RestartStrategy::Lazy);
            let tracer = Tracer::disabled();
            let (restarted, report) =
                CheckpointEngine::restart(dram, nvm, region, clock, config, lazy, tracer).unwrap();
            b = restarted;
            assert_eq!(report.deferred.len(), 2);
            for (id, len) in b_ids {
                expect(&mut b, id, seed - 1, len);
                fill(&mut b, id, seed, len);
            }
            b.nvchkptall().unwrap();
        }
        tx.send(("restarter", b)).unwrap();
    });

    for _ in 0..2 {
        let (who, engine) = finished.recv_timeout(Duration::from_secs(120)).expect(
            "a thread did not finish: deadlocked on the two device locks, or panicked above",
        );
        let ids = if who == "committer" { a_ids } else { b_ids };
        for (id, len) in ids {
            let committed = engine.committed_bytes(id).unwrap();
            assert!(committed == pattern(ROUNDS, len), "{who}: {id:?}");
        }
    }
}
