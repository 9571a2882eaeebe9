//! `kv_ycsb_a` and `kv_ycsb_b`: the serving layer used as a library —
//! one engine (real bytes, checksums, DCPCP) mirrored into a
//! `FileStore`, one `KvStore`, one closed-loop client.
//!
//! A repetition builds a fresh store (the record log only grows, so
//! reusing one would make every repetition slower than the last),
//! preloads every key, serves a fixed number of zipfian operations
//! with a checkpoint token published and drained at fixed intervals,
//! then drops everything and recovers from the container file alone.
//! Operations issued after the last drained token must be gone after
//! recovery; everything before it must be there, byte for byte.

use crate::bench::{harness_layers, Bench, Layer, Rep, Stopwatch, Tally, REP_SPAN, TRACED_REP};
use crate::fixture::{engine_with_store, restart_from_store, Sizes};
use crate::gen::{fill_key, fill_value, Op, OpStream, KEY_BYTES};
use crate::spans::Spans;
use crate::stats;
use nvm_chkpt::{CheckpointEngine, EngineStats, StoreStats};
use nvm_emu::{SimDuration, VirtualClock};
use nvm_kv::{KvConfig, KvStats, KvStore, SessionId};
use std::path::PathBuf;
use std::time::Instant;

/// Keys preloaded and served.
pub const KEYS: u64 = 100_000;
/// Value size.
pub const VALUE_BYTES: usize = 128;
/// Zipfian skew (YCSB's default).
pub const THETA: f64 = 0.99;
/// Operations between virtual compute slices.
const BATCH: u64 = 64;
/// Virtual compute per batch: the window background pre-copy runs in.
const COMPUTE_SLICE: SimDuration = SimDuration::from_millis(10);
/// Operations the set-up serves to warm the paths up.
const WARM_OPS: u64 = 20_000;

/// Tokens published and drained per repetition.
const TOKENS: u64 = 8;

const MB: usize = 1 << 20;
/// Room for the 4 MiB index (twice over while it grows) and ~60 MB of
/// log, in both version slots.
const SIZES: Sizes = Sizes {
    dram: 512 * MB,
    nvm: 1024 * MB,
    container: 384 * MB,
    store: 512 * MB,
};

/// The two mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 50 % reads, 50 % upserts.
    A,
    /// 95 % reads, 5 % upserts.
    B,
}

impl Mix {
    fn read_pct(self) -> u64 {
        match self {
            Mix::A => 50,
            Mix::B => 95,
        }
    }

    /// Operations one repetition serves. The last `tail_ops` come
    /// after the final token and must not survive recovery.
    fn ops_per_rep(self) -> u64 {
        TOKENS * self.token_every() + self.tail_ops()
    }

    /// Operations between tokens.
    fn token_every(self) -> u64 {
        match self {
            Mix::A => 50_000,
            Mix::B => 100_000,
        }
    }

    fn tail_ops(self) -> u64 {
        self.token_every() / 5
    }
}

fn kv_config() -> KvConfig {
    KvConfig {
        initial_index_slots: 1 << 18,
        segment_bytes: 1 << 20,
        max_sessions: 2,
        trace_ops: false,
    }
}

/// A live store with the harness-side oracle of what it must hold.
struct Fixture {
    clock: VirtualClock,
    engine: CheckpointEngine,
    kv: KvStore,
    session: SessionId,
    /// The operations still to come.
    stream: OpStream,
    store_path: PathBuf,
    /// Current version of every key (0 = as preloaded).
    versions: Vec<u64>,
    /// `versions` as of the last drained token.
    durable: Vec<u64>,
    /// Key + value bytes handed to `upsert` so far.
    user_bytes: u64,
}

/// What one serving pass measured beyond its wall time.
struct Served {
    replayed: u64,
    virt_s: f64,
    engine: EngineStats,
    store: StoreStats,
    kv: KvStats,
    user_bytes: u64,
}

/// A kv workload.
pub struct KvBench {
    mix: Mix,
    seed: u64,
    tmp: PathBuf,
    fixtures: u64,
}

impl KvBench {
    /// The workload for `mix`, its streams drawn from `seed`, its
    /// container files under `tmp`.
    pub fn new(mix: Mix, seed: u64, tmp: PathBuf) -> Self {
        KvBench {
            mix,
            seed,
            tmp,
            fixtures: 0,
        }
    }

    /// Engine + container file + store, every key preloaded, and the
    /// operation stream for `stream_seed`.
    fn build(&mut self, stream_seed: u64, spans: &mut Spans) -> Fixture {
        let open = spans.enter("harness.fixture");
        self.fixtures += 1;
        let store_path = self.tmp.join(format!("kv_{}.store", self.fixtures));
        let clock = VirtualClock::new();
        let mut engine = engine_with_store(&store_path, SIZES, clock.clone());
        let mut kv = KvStore::create(&mut engine, kv_config()).expect("kv store");
        let session = kv.new_session().expect("kv session");
        let (mut key, mut value) = ([0u8; KEY_BYTES], [0u8; VALUE_BYTES]);
        for k in 0..KEYS {
            fill_key(&mut key, k);
            fill_value(&mut value, self.seed, k, 0);
            kv.upsert(&mut engine, session, &key, &value)
                .expect("preload");
        }
        spans.exit(open);
        Fixture {
            clock,
            engine,
            kv,
            session,
            stream: OpStream::new(stream_seed, KEYS, THETA, self.mix.read_pct()),
            store_path,
            versions: vec![0; KEYS as usize],
            durable: Vec::new(),
            user_bytes: 0,
        }
    }

    /// Serve `ops` operations from the fixture's stream, publishing and draining a
    /// token every `token_every`; each token interval with its drain,
    /// and the tail after the last token, is one section of `watch`.
    fn serve(
        &self,
        fx: &mut Fixture,
        ops: u64,
        token_every: u64,
        watch: &mut Stopwatch,
        spans: &mut Spans,
        tally: &mut Tally,
    ) {
        let (mut key, mut value) = ([0u8; KEY_BYTES], [0u8; VALUE_BYTES]);
        let mut wrong = 0u64;
        for i in 0..ops {
            if i % BATCH == 0 {
                let open = spans.enter("chkpt.compute");
                fx.engine.compute(COMPUTE_SLICE);
                spans.exit(open);
            }
            match fx.stream.next_op() {
                Op::Read(k) => {
                    fill_key(&mut key, k);
                    let open = spans.enter("nvm-kv.read");
                    let got = fx.kv.read(&mut fx.engine, fx.session, &key);
                    spans.exit(open);
                    let version = fx.versions[k as usize];
                    let ok = matches!(&got, Ok(Some(v)) if v.len() == VALUE_BYTES
                        && v[..8] == k.to_le_bytes()
                        && v[8..16] == version.to_le_bytes());
                    wrong += u64::from(!ok);
                }
                Op::Upsert(k) => {
                    let version = fx.versions[k as usize] + 1;
                    fill_key(&mut key, k);
                    fill_value(&mut value, self.seed, k, version);
                    let open = spans.enter("nvm-kv.upsert");
                    let done = fx.kv.upsert(&mut fx.engine, fx.session, &key, &value);
                    spans.exit(open);
                    wrong += u64::from(done.is_err());
                    fx.versions[k as usize] = version;
                    fx.user_bytes += (KEY_BYTES + VALUE_BYTES) as u64;
                }
            }
            if (i + 1) % token_every == 0 {
                let stall = spans.enter("harness.ckpt_stall");
                let (token, _) =
                    spans.time("nvm-kv.checkpoint", || fx.kv.checkpoint(&mut fx.engine));
                let (drain, _) = spans.time("chkpt.nvchkptall", || fx.engine.nvchkptall());
                spans.exit(stall);
                tally.check(token.is_ok() && drain.is_ok(), || {
                    format!("token/drain failed: {:?} {:?}", token.err(), drain.err())
                });
                fx.durable.clone_from(&fx.versions);
                watch.lap(true);
            }
        }
        if !ops.is_multiple_of(token_every) {
            watch.lap(true);
        }
        tally.batch(ops, wrong, "kv operations failed or read a wrong value");
    }

    /// One full pass: fresh store, serve, drop, recover, compare with
    /// the oracle.
    fn pass(&mut self, spans: &mut Spans, tally: &mut Tally) -> (Rep, Served) {
        let mut fx = self.build(self.seed, spans);
        let ops = self.mix.ops_per_rep();

        let rep = spans.enter(REP_SPAN);
        let mut watch = Stopwatch::start();
        self.serve(
            &mut fx,
            ops,
            self.mix.token_every(),
            &mut watch,
            spans,
            tally,
        );
        let mut served = Served {
            replayed: 0,
            virt_s: fx.clock.now().as_secs_f64(),
            engine: fx.engine.stats(),
            store: fx.engine.persistence_stats().unwrap_or_default(),
            kv: fx.kv.stats(),
            user_bytes: fx.user_bytes,
        };

        // Crash: nothing survives but the container file.
        let Fixture {
            engine,
            kv,
            store_path,
            durable,
            ..
        } = fx;
        drop((kv, engine));
        let (restarted, _) = spans.time("chkpt.restart_from_store", || {
            restart_from_store(&store_path, SIZES, VirtualClock::new())
        });
        let recovered = restarted.map(|(mut engine, _)| {
            let (kv, _) = spans.time("nvm-kv.recover", || {
                KvStore::recover(&mut engine, kv_config())
            });
            (engine, kv)
        });
        watch.lap(false);
        spans.exit(rep);

        match recovered {
            Ok((mut engine, Ok((mut kv, recovery)))) => {
                served.replayed = recovery.replayed;
                tally.check(recovery.token == TOKENS, || {
                    format!("recovered to token {}, expected {TOKENS}", recovery.token)
                });
                self.check_contents(&mut kv, &mut engine, &durable, tally);
            }
            Ok((_, Err(e))) => tally.check(false, || format!("KvStore::recover: {e}")),
            Err(e) => tally.check(false, || format!("restart_from_store: {e}")),
        }
        let _ = std::fs::remove_file(&store_path);
        (
            Rep {
                sections: watch.finish(),
                work: ops as f64,
            },
            served,
        )
    }

    /// The recovered store must hold exactly the oracle's state at the
    /// last drained token.
    fn check_contents(
        &self,
        kv: &mut KvStore,
        engine: &mut CheckpointEngine,
        durable: &[u64],
        tally: &mut Tally,
    ) {
        let contents = match kv.contents(engine) {
            Ok(c) => c,
            Err(e) => return tally.check(false, || format!("KvStore::contents: {e}")),
        };
        tally.check(contents.len() == durable.len(), || {
            format!(
                "{} keys recovered, expected {}",
                contents.len(),
                durable.len()
            )
        });
        let (mut key, mut value) = ([0u8; KEY_BYTES], [0u8; VALUE_BYTES]);
        let mut wrong = 0u64;
        for (k, &version) in durable.iter().enumerate() {
            fill_key(&mut key, k as u64);
            fill_value(&mut value, self.seed, k as u64, version);
            wrong += u64::from(contents.get(&key[..]).map(Vec::as_slice) != Some(&value[..]));
        }
        tally.batch(
            durable.len() as u64,
            wrong,
            "recovered keys differ from the oracle",
        );
    }
}

impl Bench for KvBench {
    fn setup(&mut self, tally: &mut Tally) {
        let mut spans = Spans::new(false);
        // Its own stream, so the warm-up is not a preview of the
        // repetitions' operations.
        let mut fx = self.build(self.seed ^ 0x7761_726d, &mut spans);
        let mut unused = Stopwatch::start();
        self.serve(&mut fx, WARM_OPS, WARM_OPS, &mut unused, &mut spans, tally);
        let _ = std::fs::remove_file(&fx.store_path);
    }

    fn rep(&mut self, spans: &mut Spans, tally: &mut Tally) -> Rep {
        self.pass(spans, tally).0
    }

    fn layers(&mut self, spans: &mut Spans, plain_wall_s: f64, tally: &mut Tally, out: &mut Layer) {
        spans.set_rep(TRACED_REP);
        let (rep, served) = self.pass(spans, tally);
        harness_layers(spans, rep.wall_s(), plain_wall_s, out);

        let sorted = |name: &str| {
            let mut v = spans.durations_ns(name, TRACED_REP);
            v.sort_unstable();
            v
        };
        let p = |v: &[u64], pct: f64| {
            if v.is_empty() {
                0.0
            } else {
                stats::percentile(v, pct) as f64
            }
        };
        let mean_ms = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e6;
        let (reads, upserts) = (sorted("nvm-kv.read"), sorted("nvm-kv.upsert"));
        for (name, v) in [("read", &reads), ("upsert", &upserts)] {
            if let Some((pct, ns)) = stats::highest_supported_percentile(v) {
                eprintln!(
                    "{name}: n={} p50 {} ns, p{pct} {ns} ns",
                    v.len(),
                    p(v, 50.0)
                );
            }
        }
        out.set("user.read_p50_ns", p(&reads, 50.0));
        out.set("user.upsert_p50_ns", p(&upserts, 50.0));
        out.set("nvm-kv.read_p99_ns", p(&reads, 99.0));
        out.set("nvm-kv.upsert_p99_ns", p(&upserts, 99.0));
        out.set(
            "user.ckpt_stall_ms",
            p(&sorted("harness.ckpt_stall"), 50.0) / 1e6,
        );
        out.set(
            "chkpt.nvchkptall_ms_p50",
            p(&sorted("chkpt.nvchkptall"), 50.0) / 1e6,
        );
        out.set(
            "nvm-kv.token_publish_us",
            p(&sorted("nvm-kv.checkpoint"), 50.0) / 1e3,
        );
        out.set(
            "chkpt.restart_ms",
            mean_ms(&sorted("chkpt.restart_from_store")),
        );
        out.set("nvm-kv.recover_ms", mean_ms(&sorted("nvm-kv.recover")));
        // The one section that is not serving is the recovery.
        let recover_s: f64 = rep
            .sections
            .iter()
            .filter(|s| !s.work)
            .map(|s| s.secs)
            .sum();
        out.set("user.recover_s", recover_s);

        out.set_engine(&served.engine);
        out.set_store(&served.store, served.user_bytes);
        out.set(
            "nvm-paging.faults_per_kop",
            served.engine.faults as f64 / (rep.work / 1e3),
        );
        out.set("nvm-kv.replayed_records", served.replayed as f64);
        out.set("nvm-kv.log_mb", served.kv.log_bytes as f64 / 1e6);
        out.set("nvm-kv.segments", served.kv.segments as f64);
        out.set("nvm-kv.index_slots", served.kv.index_slots as f64);
        out.set("virt.wall_s", served.virt_s);
        out.set("workloads.gen_ns_per_op", self.gen_ns_per_op());
        eprintln!(
            "serving loop {:.3} s of {:.3} s",
            rep.wall_s() - recover_s,
            rep.wall_s()
        );
    }
}

impl KvBench {
    /// Harness cost per operation: key draw, op draw, key and value
    /// fill, in a loop that calls nothing else.
    fn gen_ns_per_op(&self) -> f64 {
        const OPS: u64 = 1_000_000;
        let mut stream = OpStream::new(self.seed, KEYS, THETA, self.mix.read_pct());
        let (mut key, mut value) = ([0u8; KEY_BYTES], [0u8; VALUE_BYTES]);
        let t0 = Instant::now();
        for i in 0..OPS {
            match stream.next_op() {
                Op::Read(k) => fill_key(&mut key, k),
                Op::Upsert(k) => {
                    fill_key(&mut key, k);
                    fill_value(&mut value, self.seed, k, i);
                }
            }
            std::hint::black_box((&key, &value));
        }
        t0.elapsed().as_nanos() as f64 / OPS as f64
    }
}
