//! Crash-consistency sweep for the `nvm-kv` serving layer.
//!
//! The kv store's durability claim composes two protocols: CPR tokens
//! (a `checkpoint()` publishes token + log prefix + session
//! watermarks into the `kv_meta` chunk) and the engine's container
//! mirror (`nvchkptall` makes the chunk state durable with the
//! shadow-slot + atomic-record protocol). The invariant under test:
//!
//! > After a crash at *any* media-operation boundary — clean cut,
//! > dropped unsynced writes, or a torn in-flight write — recovering
//! > the container, restarting the engine from it, and running
//! > `KvStore::recover` yields exactly the contents at the last
//! > *durably committed* CPR token, bit-for-bit. Operations
//! > acknowledged after that token (even ones physically in the
//! > durable log) are dropped; tokens published but never committed
//! > by an `nvchkptall` roll back to the previous durable token.
//!
//! The scripted run exercises overwrite, delete (tombstone), rmw,
//! back-to-back tokens, and post-token writes that must be dropped;
//! the proptest half drives random op sequences through random crash
//! points.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use nvm_chkpt::{CheckpointEngine, EngineConfig, RestartStrategy};
use nvm_emu::{MemoryDevice, VirtualClock};
use nvm_kv::{KvConfig, KvStore, SessionId};
use nvm_store::{
    expected_mark, surviving_image, CommitMark, Container, CrashMode, CrashPoint, OpRecord,
    RecordingMedia,
};
use nvm_trace::Tracer;
use proptest::prelude::*;

const MB: usize = 1 << 20;
const PID: u64 = 42;
const CONTAINER_CAP: usize = 8 * MB;

/// [`RecordingMedia`] behind a shared handle: the container (boxed
/// into the engine as its persistence backend) writes through one
/// clone while the harness reads the op log from the other after the
/// run.
type SharedMedia = Arc<Mutex<RecordingMedia>>;

fn recorded_ops(media: &SharedMedia) -> Vec<OpRecord> {
    media.lock().unwrap().ops().to_vec()
}

fn kv_cfg() -> KvConfig {
    KvConfig {
        initial_index_slots: 16,
        segment_bytes: 4096,
        max_sessions: 4,
        trace_ops: false,
    }
}

fn mk_engine() -> CheckpointEngine {
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(64 * MB);
    CheckpointEngine::new(
        PID,
        &dram,
        &nvm,
        16 * MB,
        VirtualClock::new(),
        EngineConfig::default(),
    )
    .unwrap()
}

/// Oracle entry: what a crash recovering one engine commit must find.
#[derive(Clone, Debug)]
struct KvMark {
    /// CPR token this commit made durable (0 = none published yet).
    token: u64,
    /// Exact kv contents at that token.
    expected: BTreeMap<Vec<u8>, Vec<u8>>,
}

/// A serving run whose media ops were recorded for crash replay.
struct KvCrashRun {
    ops: Vec<OpRecord>,
    /// When each engine commit became durable; its `epoch` indexes
    /// `marks` (a kv commit's oracle is a token, not chunk bytes).
    commits: Vec<CommitMark>,
    marks: Vec<KvMark>,
}

impl KvCrashRun {
    /// The mark a crash at `point` must recover to (None = virgin), by
    /// `nvm_store`'s durability rule.
    fn expected(&self, point: &CrashPoint) -> Option<&KvMark> {
        expected_mark(&self.commits, point).map(|c| &self.marks[c.epoch as usize])
    }
}

/// Harness state for scripting a run: engine + store + the oracle
/// bookkeeping. The oracle is a model of its own, updated by every
/// op, never read back from the store it checks.
struct Driver {
    engine: CheckpointEngine,
    kv: KvStore,
    session: SessionId,
    media: SharedMedia,
    /// What every acknowledged op so far leaves in the store.
    model: BTreeMap<Vec<u8>, Vec<u8>>,
    /// (token, model) at the last `checkpoint()` call.
    at_token: (u64, BTreeMap<Vec<u8>, Vec<u8>>),
    commits: Vec<CommitMark>,
    marks: Vec<KvMark>,
}

impl Driver {
    fn new() -> Driver {
        let mut engine = mk_engine();
        let media = SharedMedia::default();
        engine.set_persistence(Box::new(
            Container::open(media.clone(), PID, CONTAINER_CAP).unwrap(),
        ));
        let mut kv = KvStore::create(&mut engine, kv_cfg()).unwrap();
        let session = kv.new_session().unwrap();
        Driver {
            engine,
            kv,
            session,
            media,
            model: BTreeMap::new(),
            at_token: (0, BTreeMap::new()),
            commits: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn upsert(&mut self, key: &[u8], value: &[u8]) {
        self.kv
            .upsert(&mut self.engine, self.session, key, value)
            .unwrap();
        self.model.insert(key.to_vec(), value.to_vec());
    }

    fn delete(&mut self, key: &[u8]) {
        self.kv.delete(&mut self.engine, self.session, key).unwrap();
        self.model.remove(key);
    }

    fn rmw_bump(&mut self, key: &[u8]) {
        self.kv
            .rmw(&mut self.engine, self.session, key, bump)
            .unwrap();
        let bumped = bump(self.model.get(key).map(Vec::as_slice));
        self.model.insert(key.to_vec(), bumped);
    }

    /// Publish a CPR token: the store must hold exactly the model, and
    /// the model is the oracle at that token.
    fn token(&mut self) {
        let t = self.kv.checkpoint(&mut self.engine).unwrap();
        assert_eq!(
            self.kv.contents(&mut self.engine).unwrap(),
            self.model,
            "served contents diverged from the model at token {}",
            t.token
        );
        self.at_token = (t.token, self.model.clone());
    }

    /// Engine commit: the last published token becomes crash-durable.
    fn commit(&mut self) {
        self.engine.nvchkptall().unwrap();
        let ops_after = self.media.lock().unwrap().ops().len();
        let mark = CommitMark::new(self.marks.len() as u64, ops_after, Vec::new());
        self.commits.push(mark);
        self.marks.push(KvMark {
            token: self.at_token.0,
            expected: self.at_token.1.clone(),
        });
    }

    fn finish(self) -> KvCrashRun {
        KvCrashRun {
            ops: recorded_ops(&self.media),
            commits: self.commits,
            marks: self.marks,
        }
    }
}

/// The rmw update: bump the little-endian counter in a value's first
/// eight bytes (a missing key starts from zero).
fn bump(old: Option<&[u8]>) -> Vec<u8> {
    let mut v = old.map_or_else(|| vec![0u8; 8], <[u8]>::to_vec);
    if v.len() >= 8 {
        let c = u64::from_le_bytes(v[..8].try_into().unwrap());
        v[..8].copy_from_slice(&c.wrapping_add(1).to_le_bytes());
    }
    v
}

/// The scripted run: overwrites, tombstones, rmw, back-to-back
/// tokens, and acknowledged-after-token writes at every commit.
fn scripted_run() -> KvCrashRun {
    let mut d = Driver::new();
    // Commit with no token published: recovery must land on an empty
    // store even though the upserts are physically in the durable log.
    d.upsert(b"k0", b"v0-a");
    d.upsert(b"k1", b"v1-a");
    d.commit();
    // Token 1: overwrite + growth past one index probe chain.
    d.upsert(b"k0", b"v0-b");
    for i in 0..20u8 {
        d.upsert(format!("bulk{i:02}").as_bytes(), &[i; 48]);
    }
    d.token();
    // Acknowledged after token 1 — durable in the log, must be
    // dropped by recovery at this commit.
    d.upsert(b"k2", b"post-token");
    d.delete(b"k1");
    d.commit();
    // Tokens 2 and 3 back to back (watermarks move, contents do
    // between, nothing after), with a tombstone and an rmw inside.
    d.delete(b"bulk00");
    d.rmw_bump(b"k0");
    d.token();
    d.token();
    d.upsert(b"k3", b"never-committed");
    d.commit();
    d.finish()
}

/// Crash `run` at `point`, recover container → engine → kv store, and
/// assert the recovered contents are exactly the oracle's.
fn check_kv_crash_point(run: &KvCrashRun, point: &CrashPoint) {
    let image = surviving_image(&run.ops, point);
    let store = Container::open(image, PID, CONTAINER_CAP)
        .unwrap_or_else(|e| panic!("container recovery must never error at {point:?}: {e}"));
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(64 * MB);
    let (mut engine, _report) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        CONTAINER_CAP,
        VirtualClock::new(),
        EngineConfig::default(),
        RestartStrategy::Eager,
        Box::new(store),
        Tracer::disabled(),
    )
    .unwrap_or_else(|e| panic!("engine restart must never error at {point:?}: {e}"));
    let (mut kv, rec) = KvStore::recover(&mut engine, kv_cfg())
        .unwrap_or_else(|e| panic!("kv recovery must never error at {point:?}: {e}"));
    let got = kv.contents(&mut engine).unwrap();
    match run.expected(point) {
        None => {
            assert_eq!(
                rec.token, 0,
                "virgin recovery must report token 0 at {point:?}"
            );
            assert!(
                got.is_empty(),
                "virgin recovery must serve an empty store at {point:?}, got {} keys",
                got.len()
            );
        }
        Some(mark) => {
            assert_eq!(
                rec.token, mark.token,
                "recovered token mismatch at {point:?}"
            );
            assert_eq!(
                got, mark.expected,
                "recovered contents not bit-for-bit at {point:?}"
            );
        }
    }
    // Serving must continue on the recovered store.
    let s = kv.new_session().unwrap();
    kv.upsert(&mut engine, s, b"post-crash", b"serving")
        .unwrap();
    assert_eq!(
        kv.read(&mut engine, s, b"post-crash").unwrap().unwrap(),
        b"serving"
    );
}

#[test]
fn scripted_run_reaches_every_token_outcome() {
    // The sweep is only meaningful if crash points actually land in
    // every durable token's window plus the virgin state.
    let run = scripted_run();
    assert_eq!(run.marks.len(), 3);
    assert_eq!(
        run.marks.iter().map(|m| m.token).collect::<Vec<_>>(),
        vec![0, 1, 3]
    );
    let mut seen = std::collections::BTreeSet::new();
    for at_op in 0..=run.ops.len() {
        for mode in [CrashMode::Keep, CrashMode::Drop] {
            let p = CrashPoint { at_op, mode };
            seen.insert(run.expected(&p).map(|m| m.token));
        }
    }
    for outcome in [None, Some(0), Some(1), Some(3)] {
        assert!(
            seen.contains(&outcome),
            "no crash point reaches {outcome:?}"
        );
    }
}

#[test]
fn kv_sweep_over_every_operation_boundary() {
    let run = scripted_run();
    let points = nvm_store::enumerate_points(&run.ops);
    assert!(
        points.len() > 2 * run.ops.len(),
        "sweep unexpectedly sparse: {} points for {} ops",
        points.len(),
        run.ops.len()
    );
    for point in &points {
        check_kv_crash_point(&run, point);
    }
}

/// `KvStore::checkpoint` twice before one `nvchkptall` is "newest
/// wins": the second meta block overwrites the first in the working
/// copy, so the commit makes token 2 durable with token 2's prefix —
/// what was served between the two tokens is in, what came after the
/// second is out, and token 1 is never a recovery outcome of its own.
#[test]
fn two_tokens_before_one_commit_recover_to_the_newer() {
    let mut d = Driver::new();
    d.upsert(b"a", b"a-1");
    d.upsert(b"gone", b"soon");
    d.token();
    d.upsert(b"a", b"a-2");
    d.upsert(b"b", b"b-1");
    d.delete(b"gone");
    d.token();
    d.upsert(b"c", b"after-token-2");
    d.commit();
    let run = d.finish();

    let [mark] = &run.marks[..] else {
        panic!("one commit, one mark: {:?}", run.marks);
    };
    assert_eq!(mark.token, 2);
    let at_token_2: BTreeMap<Vec<u8>, Vec<u8>> = [
        (b"a".to_vec(), b"a-2".to_vec()),
        (b"b".to_vec(), b"b-1".to_vec()),
    ]
    .into();
    assert_eq!(mark.expected, at_token_2);
    // A crash after the drain lands on token 2...
    let after_drain = CrashPoint {
        at_op: run.ops.len(),
        mode: CrashMode::Drop,
    };
    assert_eq!(run.expected(&after_drain).unwrap().token, 2);
    check_kv_crash_point(&run, &after_drain);
    // ...and one anywhere before the commit record's fsync on the
    // virgin store.
    for point in nvm_store::enumerate_points(&run.ops) {
        check_kv_crash_point(&run, &point);
    }
}

/// One random op against the driver.
#[derive(Clone, Debug)]
enum ScriptOp {
    Upsert { key: u8, val: u8 },
    Delete { key: u8 },
    Rmw { key: u8 },
    Token,
    Commit,
}

fn script_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        (0u8..12, 0u8..128).prop_map(|(key, val)| ScriptOp::Upsert { key, val }),
        (0u8..12, 128u8..255).prop_map(|(key, val)| ScriptOp::Upsert { key, val }),
        (0u8..12).prop_map(|key| ScriptOp::Delete { key }),
        (0u8..12).prop_map(|key| ScriptOp::Rmw { key }),
        Just(ScriptOp::Token),
        Just(ScriptOp::Commit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_op_sequences_recover_to_their_oracle(
        script in proptest::collection::vec(script_op(), 1..40),
        at_op_sel in any::<usize>(),
        mode_sel in 0u8..3,
        keep in 0usize..8192,
    ) {
        let mut d = Driver::new();
        for op in &script {
            match op {
                ScriptOp::Upsert { key, val } => {
                    d.upsert(format!("key{key:02}").as_bytes(), &[*val; 24]);
                }
                ScriptOp::Delete { key } => d.delete(format!("key{key:02}").as_bytes()),
                ScriptOp::Rmw { key } => d.rmw_bump(format!("key{key:02}").as_bytes()),
                ScriptOp::Token => d.token(),
                ScriptOp::Commit => d.commit(),
            }
        }
        // Always end on token + commit so the tail of the script is
        // reachable as a recovery outcome too.
        d.token();
        d.commit();
        let run = d.finish();
        check_kv_crash_point(&run, &CrashPoint::pick(&run.ops, at_op_sel, mode_sel, keep));
    }
}
