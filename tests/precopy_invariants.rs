//! Property-based invariants of the checkpoint engine.
//!
//! The paper's pre-copy schemes are *performance* optimizations; they
//! must never change what a checkpoint contains. These properties run
//! arbitrary write/compute/checkpoint scripts through every policy and
//! demand identical committed content — plus crash-safety and
//! dirty-tracking invariants.

use nvm_chkpt::{
    CheckpointEngine, ChunkId, EngineConfig, PrecopyPolicy, RestartStrategy, Tracer, Versioning,
};
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};
use proptest::prelude::*;

const MB: usize = 1 << 20;
const CHUNKS: usize = 4;
const CHUNK_BYTES: usize = 64 * 1024;

/// A step of the generated application script.
#[derive(Clone, Debug)]
enum Step {
    /// Overwrite chunk `i` with byte `v`.
    Write(usize, u8),
    /// Partial write into chunk `i` at quarter `q`.
    PartialWrite(usize, u8, usize),
    /// Compute for `ms` milliseconds.
    Compute(u16),
    /// Coordinated checkpoint.
    Checkpoint,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..CHUNKS, any::<u8>()).prop_map(|(i, v)| Step::Write(i, v)),
        (0..CHUNKS, any::<u8>(), 0..4usize).prop_map(|(i, v, q)| Step::PartialWrite(i, v, q)),
        (1..2000u16).prop_map(Step::Compute),
        Just(Step::Checkpoint),
    ]
}

fn engine(policy: PrecopyPolicy) -> (CheckpointEngine, Vec<ChunkId>) {
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(64 * MB);
    let clock = VirtualClock::new();
    let cfg = EngineConfig::default().with_precopy(policy);
    let mut e = CheckpointEngine::new(0, &dram, &nvm, 32 * MB, clock, cfg).unwrap();
    let ids = (0..CHUNKS)
        .map(|i| e.nvmalloc(&format!("c{i}"), CHUNK_BYTES, true).unwrap())
        .collect();
    (e, ids)
}

/// Replay a script and return the committed bytes of every chunk.
fn replay(policy: PrecopyPolicy, script: &[Step]) -> Vec<Option<Vec<u8>>> {
    let (mut e, ids) = engine(policy);
    for step in script {
        match step {
            Step::Write(i, v) => e.write(ids[*i], 0, &vec![*v; CHUNK_BYTES]).unwrap(),
            Step::PartialWrite(i, v, q) => {
                let quarter = CHUNK_BYTES / 4;
                e.write(ids[*i], q * quarter, &vec![*v; quarter]).unwrap()
            }
            Step::Compute(ms) => e.compute(SimDuration::from_millis(*ms as u64)),
            Step::Checkpoint => {
                e.nvchkptall().unwrap();
            }
        }
    }
    ids.iter().map(|&id| e.committed_bytes(id).ok()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every pre-copy policy commits identical content for identical
    /// scripts: pre-copy changes *when* bytes move, never *what*.
    #[test]
    fn policies_commit_identical_content(
        script in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        let baseline = replay(PrecopyPolicy::None, &script);
        for policy in [PrecopyPolicy::Cpc, PrecopyPolicy::Dcpc, PrecopyPolicy::Dcpcp] {
            let got = replay(policy, &script);
            prop_assert_eq!(&got, &baseline, "policy {:?} diverged", policy);
        }
    }

    /// After any script ending in a checkpoint, the committed bytes of
    /// each chunk equal its working copy (nothing is torn or stale).
    #[test]
    fn checkpoint_commits_working_copy(
        mut script in proptest::collection::vec(step_strategy(), 1..30)
    ) {
        script.push(Step::Checkpoint);
        let (mut e, ids) = engine(PrecopyPolicy::Dcpcp);
        for step in &script {
            match step {
                Step::Write(i, v) => e.write(ids[*i], 0, &vec![*v; CHUNK_BYTES]).unwrap(),
                Step::PartialWrite(i, v, q) => {
                    let quarter = CHUNK_BYTES / 4;
                    e.write(ids[*i], q * quarter, &vec![*v; quarter]).unwrap()
                }
                Step::Compute(ms) => e.compute(SimDuration::from_millis(*ms as u64)),
                Step::Checkpoint => { e.nvchkptall().unwrap(); }
            }
        }
        for &id in &ids {
            let committed = e.committed_bytes(id).unwrap();
            let mut working = vec![0u8; CHUNK_BYTES];
            e.read(id, 0, &mut working).unwrap();
            prop_assert_eq!(committed, working);
        }
    }

    /// Crashing at an arbitrary point and restarting always recovers
    /// the *last committed* state, byte for byte.
    #[test]
    fn restart_recovers_last_commit(
        script in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        let dram = MemoryDevice::dram(64 * MB);
        let nvm = MemoryDevice::pcm(64 * MB);
        let clock = VirtualClock::new();
        let cfg = EngineConfig::default();
        let mut e = CheckpointEngine::new(0, &dram, &nvm, 32 * MB, clock.clone(), cfg).unwrap();
        let ids: Vec<ChunkId> = (0..CHUNKS)
            .map(|i| e.nvmalloc(&format!("c{i}"), CHUNK_BYTES, true).unwrap())
            .collect();
        let mut committed_model: Vec<Option<Vec<u8>>> = vec![None; CHUNKS];
        let mut working_model: Vec<Vec<u8>> = vec![vec![0; CHUNK_BYTES]; CHUNKS];
        for step in &script {
            match step {
                Step::Write(i, v) => {
                    working_model[*i] = vec![*v; CHUNK_BYTES];
                    e.write(ids[*i], 0, &vec![*v; CHUNK_BYTES]).unwrap();
                }
                Step::PartialWrite(i, v, q) => {
                    let quarter = CHUNK_BYTES / 4;
                    working_model[*i][q * quarter..(q + 1) * quarter].fill(*v);
                    e.write(ids[*i], q * quarter, &vec![*v; quarter]).unwrap();
                }
                Step::Compute(ms) => e.compute(SimDuration::from_millis(*ms as u64)),
                Step::Checkpoint => {
                    e.nvchkptall().unwrap();
                    for (m, w) in committed_model.iter_mut().zip(&working_model) {
                        *m = Some(w.clone());
                    }
                }
            }
        }
        // Crash now.
        let region = e.metadata_region();
        drop(e);
        let (e2, report) =
            CheckpointEngine::restart(&dram, &nvm, region, clock, EngineConfig::default(), RestartStrategy::Eager, Tracer::disabled())
                .unwrap();
        prop_assert!(report.corrupt.is_empty());
        for (i, &id) in ids.iter().enumerate() {
            match &committed_model[i] {
                Some(want) => {
                    prop_assert_eq!(&e2.committed_bytes(id).unwrap(), want);
                }
                None => prop_assert!(e2.committed_bytes(id).is_err()),
            }
        }
    }

    /// Single-version mode commits the same content as double-version
    /// mode (it only gives up crash-overlap protection, not
    /// correctness of completed checkpoints).
    #[test]
    fn single_versioning_matches_double(
        mut script in proptest::collection::vec(step_strategy(), 1..25)
    ) {
        script.push(Step::Checkpoint);
        let run = |versioning| {
            let dram = MemoryDevice::dram(64 * MB);
            let nvm = MemoryDevice::pcm(64 * MB);
            let cfg = EngineConfig::builder().versioning(versioning).build().unwrap();
            let mut e =
                CheckpointEngine::new(0, &dram, &nvm, 32 * MB, VirtualClock::new(), cfg).unwrap();
            let ids: Vec<ChunkId> = (0..CHUNKS)
                .map(|i| e.nvmalloc(&format!("c{i}"), CHUNK_BYTES, true).unwrap())
                .collect();
            for step in &script {
                match step {
                    Step::Write(i, v) => e.write(ids[*i], 0, &vec![*v; CHUNK_BYTES]).unwrap(),
                    Step::PartialWrite(i, v, q) => {
                        let quarter = CHUNK_BYTES / 4;
                        e.write(ids[*i], q * quarter, &vec![*v; quarter]).unwrap()
                    }
                    Step::Compute(ms) => e.compute(SimDuration::from_millis(*ms as u64)),
                    Step::Checkpoint => { e.nvchkptall().unwrap(); }
                }
            }
            ids.iter().map(|&id| e.committed_bytes(id).unwrap()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(Versioning::Double), run(Versioning::Single));
    }

    /// The clock never runs backwards, whatever the script does.
    #[test]
    fn virtual_time_is_monotone(
        script in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        let (mut e, ids) = engine(PrecopyPolicy::Dcpcp);
        let mut last = e.clock().now();
        for step in &script {
            match step {
                Step::Write(i, v) => e.write(ids[*i], 0, &vec![*v; CHUNK_BYTES]).unwrap(),
                Step::PartialWrite(i, v, q) => {
                    let quarter = CHUNK_BYTES / 4;
                    e.write(ids[*i], q * quarter, &vec![*v; quarter]).unwrap()
                }
                Step::Compute(ms) => e.compute(SimDuration::from_millis(*ms as u64)),
                Step::Checkpoint => { e.nvchkptall().unwrap(); }
            }
            let now = e.clock().now();
            prop_assert!(now >= last);
            last = now;
        }
    }
}
