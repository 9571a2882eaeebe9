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
/// How much one [`Step::Grow`] adds to a chunk.
const GROW_BYTES: usize = 4096;

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
    /// Checkpoint chunk `i` alone (`nvchkptid`).
    CheckpointOne(usize),
    /// Grow chunk `i` by [`GROW_BYTES`] (`nvrealloc`).
    Grow(usize),
    /// The process dies and restarts lazily from its own NVM device,
    /// then carries on — possibly before touching a restored chunk.
    LazyRestart,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..CHUNKS, any::<u8>()).prop_map(|(i, v)| Step::Write(i, v)),
        (0..CHUNKS, any::<u8>(), 0..4usize).prop_map(|(i, v, q)| Step::PartialWrite(i, v, q)),
        (1..2000u16).prop_map(Step::Compute),
        Just(Step::Checkpoint),
        (0..CHUNKS).prop_map(Step::CheckpointOne),
        (0..CHUNKS).prop_map(Step::Grow),
        Just(Step::LazyRestart),
    ]
}

/// An engine under script, with the devices it can be restarted from
/// and the model of what its chunks must hold.
struct Process {
    e: CheckpointEngine,
    dram: MemoryDevice,
    nvm: MemoryDevice,
    config: EngineConfig,
    ids: Vec<ChunkId>,
    /// What each working copy must read.
    working: Vec<Vec<u8>>,
    /// What each chunk's committed version must read (`None`: never
    /// committed, or invalidated by a grow).
    committed: Vec<Option<Vec<u8>>>,
}

impl Process {
    fn new(config: EngineConfig) -> Self {
        let dram = MemoryDevice::dram(64 * MB);
        let nvm = MemoryDevice::pcm(64 * MB);
        let mut e =
            CheckpointEngine::new(0, &dram, &nvm, 32 * MB, VirtualClock::new(), config).unwrap();
        let ids = (0..CHUNKS)
            .map(|i| e.nvmalloc(&format!("c{i}"), CHUNK_BYTES, true).unwrap())
            .collect();
        Process {
            e,
            dram,
            nvm,
            config,
            ids,
            working: vec![vec![0; CHUNK_BYTES]; CHUNKS],
            committed: vec![None; CHUNKS],
        }
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Write(i, v) => {
                self.working[i].fill(v);
                self.e.write(self.ids[i], 0, &self.working[i]).unwrap();
            }
            Step::PartialWrite(i, v, q) => {
                let quarter = self.working[i].len() / 4;
                self.working[i][q * quarter..(q + 1) * quarter].fill(v);
                let data = vec![v; quarter];
                self.e.write(self.ids[i], q * quarter, &data).unwrap();
            }
            Step::Compute(ms) => self.e.compute(SimDuration::from_millis(ms as u64)),
            Step::Checkpoint => {
                self.e.nvchkptall().unwrap();
                self.committed = self.working.iter().cloned().map(Some).collect();
            }
            Step::CheckpointOne(i) => {
                self.e.nvchkptid(self.ids[i]).unwrap();
                self.committed[i] = Some(self.working[i].clone());
            }
            Step::Grow(i) => {
                let len = self.working[i].len() + GROW_BYTES;
                self.e.nvrealloc(self.ids[i], len).unwrap();
                self.working[i].resize(len, 0);
                self.committed[i] = None;
            }
            Step::LazyRestart => self.restart(RestartStrategy::Lazy),
        }
    }

    /// Crash now and come back from the device: the working copies
    /// are the last committed versions again.
    fn restart(&mut self, strategy: RestartStrategy) {
        let (region, clock) = (self.e.metadata_region(), self.e.clock().clone());
        let (dram, nvm, tracer) = (&self.dram, &self.nvm, Tracer::disabled());
        let (e, report) =
            CheckpointEngine::restart(dram, nvm, region, clock, self.config, strategy, tracer)
                .unwrap();
        assert!(report.corrupt.is_empty());
        self.e = e;
        for (w, c) in self.working.iter_mut().zip(&self.committed) {
            match c {
                Some(bytes) => w.clone_from(bytes),
                None => w.fill(0),
            }
        }
    }

    /// Every chunk's committed version as the engine reports it.
    fn committed(&self) -> Vec<Option<Vec<u8>>> {
        (self.ids.iter())
            .map(|&id| self.e.committed_bytes(id).ok())
            .collect()
    }
}

/// Replay a script and return the committed version of every chunk,
/// having checked it against the model. (Comparisons are `assert!`s,
/// not `assert_eq!`s: a failure should not print 64 KiB chunks.)
fn replay(policy: PrecopyPolicy, script: &[Step]) -> Vec<Option<Vec<u8>>> {
    let mut p = Process::new(EngineConfig::default().with_precopy(policy));
    script.iter().for_each(|step| p.step(step));
    assert!(p.committed() == p.committed, "{policy:?} vs the model");
    p.committed()
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
            prop_assert!(got == baseline, "policy {:?} diverged", policy);
        }
    }

    /// After any script ending in a checkpoint, the committed bytes of
    /// each chunk equal its working copy (nothing is torn or stale).
    #[test]
    fn checkpoint_commits_working_copy(
        mut script in proptest::collection::vec(step_strategy(), 1..30)
    ) {
        script.push(Step::Checkpoint);
        let mut p = Process::new(EngineConfig::default());
        script.iter().for_each(|step| p.step(step));
        for (i, &id) in p.ids.iter().enumerate() {
            let committed = p.e.committed_bytes(id).unwrap();
            let mut working = vec![0u8; committed.len()];
            p.e.read(id, 0, &mut working).unwrap();
            prop_assert!(committed == working && committed == p.working[i]);
        }
    }

    /// Crashing at an arbitrary point and restarting always recovers
    /// the *last committed* state, byte for byte.
    #[test]
    fn restart_recovers_last_commit(
        script in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        let mut p = Process::new(EngineConfig::default());
        script.iter().for_each(|step| p.step(step));
        p.restart(RestartStrategy::Eager);
        prop_assert!(p.committed() == p.committed);
        // And what it computes on is what was committed.
        for (i, &id) in p.ids.iter().enumerate() {
            let mut working = vec![0u8; p.working[i].len()];
            p.e.read(id, 0, &mut working).unwrap();
            prop_assert!(working == p.working[i]);
        }
    }

    /// Single-version mode commits the same content as double-version
    /// mode (it only gives up crash-overlap protection, not
    /// correctness of completed checkpoints).
    #[test]
    fn single_versioning_matches_double(
        mut script in proptest::collection::vec(step_strategy(), 1..25)
    ) {
        // A crash is exactly what one slot does not survive: staging
        // overwrites the committed version in place.
        script.retain(|step| !matches!(step, Step::LazyRestart));
        script.push(Step::Checkpoint);
        let run = |versioning| {
            let cfg = EngineConfig::builder().versioning(versioning).build().unwrap();
            let mut p = Process::new(cfg);
            script.iter().for_each(|step| p.step(step));
            p.committed()
        };
        prop_assert!(run(Versioning::Double) == run(Versioning::Single));
    }

    /// The clock never runs backwards, whatever the script does.
    #[test]
    fn virtual_time_is_monotone(
        script in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        let mut p = Process::new(EngineConfig::default());
        let mut last = p.e.clock().now();
        for step in &script {
            p.step(step);
            let now = p.e.clock().now();
            prop_assert!(now >= last);
            last = now;
        }
    }
}
