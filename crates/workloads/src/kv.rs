//! YCSB-ish serving traffic for the `nvm-kv` layer.
//!
//! [`KvServingWorkload`] drives one rank's [`nvm_kv::KvStore`] as a
//! [`cluster_sim::Workload`]: every iteration issues a batch of point
//! operations whose keys follow a zipfian popularity distribution
//! (configurable `theta`, YCSB's default skew is 0.99) and whose kinds
//! follow a read/upsert/rmw/delete mix (presets A/B/C/F below), with
//! [`CheckpointEngine::compute`] slices between batches so the
//! engine's pre-copy policies get their background windows. Every
//! `checkpoint_every` iterations the workload publishes a CPR token —
//! the non-blocking part — while the engine's `nvchkptall` (driven by
//! the cluster's `local_interval`) makes tokens crash-durable.
//!
//! Randomness is a private per-rank splitmix64 stream seeded from
//! `(seed, rank)`, so runs are bit-identical serial vs `--threads N`
//! and independent of rank scheduling.

use cluster_sim::{CommPattern, Workload};
use nvm_chkpt::{CheckpointEngine, EngineError};
use nvm_emu::SimDuration;
use nvm_kv::{KvConfig, KvError, KvStore, SessionId};

/// Advance a splitmix64 state and return the next value.
/// (Steele/Lea/Flood; the same finalizer the kv layout hash uses.)
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// YCSB-style zipfian generator over `0..n`: item 0 is the hottest.
/// Uses the Gray et al. rejection-free formula with precomputed
/// normalization constants.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Build a generator over `0..n` with skew `theta` (0 = uniform,
    /// YCSB default 0.99; must be in `[0, 1)`).
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "zipfian over empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draw the next item using `rng` as the uniform source.
    pub fn next(&self, rng: &mut u64) -> u64 {
        // 53-bit uniform in [0, 1).
        let u = (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let item = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        item.min(self.n - 1)
    }
}

/// One operation kind drawn from a [`KvMix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOpKind {
    /// Point read.
    Read,
    /// Blind write.
    Upsert,
    /// Read-modify-write.
    Rmw,
    /// Tombstone delete.
    Delete,
}

/// An operation mix in percent (must sum to 100).
#[derive(Debug, Clone, Copy)]
pub struct KvMix {
    /// Percent point reads.
    pub read_pct: u32,
    /// Percent upserts.
    pub upsert_pct: u32,
    /// Percent read-modify-writes.
    pub rmw_pct: u32,
    /// Percent deletes.
    pub delete_pct: u32,
}

impl KvMix {
    /// YCSB-A: update heavy (50% reads, 50% upserts).
    pub fn a() -> KvMix {
        KvMix {
            read_pct: 50,
            upsert_pct: 50,
            rmw_pct: 0,
            delete_pct: 0,
        }
    }

    /// Draw an operation kind.
    fn draw(&self, rng: &mut u64) -> KvOpKind {
        debug_assert_eq!(
            self.read_pct + self.upsert_pct + self.rmw_pct + self.delete_pct,
            100
        );
        let r = (splitmix64(rng) % 100) as u32;
        if r < self.read_pct {
            KvOpKind::Read
        } else if r < self.read_pct + self.upsert_pct {
            KvOpKind::Upsert
        } else if r < self.read_pct + self.upsert_pct + self.rmw_pct {
            KvOpKind::Rmw
        } else {
            KvOpKind::Delete
        }
    }
}

/// Configuration for one rank's serving workload.
#[derive(Debug, Clone)]
pub struct KvServingConfig {
    /// Keys in this rank's partition (shared-nothing across ranks).
    pub keys: u64,
    /// Value size in bytes.
    pub value_bytes: usize,
    /// Operations issued per iteration.
    pub ops_per_iteration: u64,
    /// Zipfian skew (`0` = uniform; YCSB default `0.99`).
    pub theta: f64,
    /// Read/upsert/rmw/delete mix.
    pub mix: KvMix,
    /// Preload every key during `setup` so reads hit from the start.
    pub preload: bool,
    /// Operations per batch between compute slices.
    pub batch: u64,
    /// Compute time between batches (opens pre-copy windows).
    pub compute_slice: SimDuration,
    /// Publish a CPR token every N iterations (0 = never).
    pub checkpoint_every: u64,
    /// Store geometry.
    pub kv: KvConfig,
    /// Base seed; each rank derives a private stream from
    /// `(seed, rank)`.
    pub seed: u64,
}

impl Default for KvServingConfig {
    fn default() -> Self {
        KvServingConfig {
            keys: 1024,
            value_bytes: 64,
            ops_per_iteration: 512,
            theta: 0.99,
            mix: KvMix::a(),
            preload: true,
            batch: 64,
            compute_slice: SimDuration::from_millis(200),
            checkpoint_every: 1,
            kv: KvConfig::default(),
            seed: 0x5eed_cafe,
        }
    }
}

/// Fixed-width key bytes: `user` + 12 decimal digits.
pub const KEY_BYTES: usize = 16;

fn fill_key(buf: &mut [u8; KEY_BYTES], id: u64) {
    buf[..4].copy_from_slice(b"user");
    let mut x = id;
    for i in (4..KEY_BYTES).rev() {
        buf[i] = b'0' + (x % 10) as u8;
        x /= 10;
    }
}

/// Map kv-layer errors onto the engine error the [`Workload`] trait
/// reports. Engine failures pass through, a full store's among them;
/// anything else is a bug in the workload itself.
fn engine_err(e: KvError) -> EngineError {
    match e {
        KvError::Engine(e) | KvError::Full(e) => e,
        other => panic!("kv serving workload misuse: {other}"),
    }
}

/// One rank of zipfian serving traffic against a private
/// [`KvStore`].
pub struct KvServingWorkload {
    cfg: KvServingConfig,
    zipf: Zipfian,
    rng: u64,
    kv: Option<KvStore>,
    session: Option<SessionId>,
    key_buf: [u8; KEY_BYTES],
    val_buf: Vec<u8>,
}

impl KvServingWorkload {
    /// Build rank `rank`'s workload.
    pub fn new(rank: u32, cfg: KvServingConfig) -> KvServingWorkload {
        let mut seed_state = cfg.seed ^ ((rank as u64) << 32 | 0x9e37);
        let rng = splitmix64(&mut seed_state);
        KvServingWorkload {
            zipf: Zipfian::new(cfg.keys, cfg.theta),
            rng,
            kv: None,
            session: None,
            key_buf: [0u8; KEY_BYTES],
            val_buf: vec![0u8; cfg.value_bytes],
            cfg,
        }
    }

    fn fill_value(&mut self, key_id: u64, salt: u64) {
        let len = self.val_buf.len();
        let mut state = key_id.wrapping_mul(0x100_0000_01b3) ^ salt;
        for chunk in self.val_buf.chunks_mut(8) {
            let w = splitmix64(&mut state).to_le_bytes();
            let n = chunk.len().min(8);
            chunk.copy_from_slice(&w[..n]);
        }
        debug_assert_eq!(self.val_buf.len(), len);
    }
}

impl Workload for KvServingWorkload {
    fn name(&self) -> &str {
        "kv_serving"
    }

    fn setup(&mut self, engine: &mut CheckpointEngine) -> Result<(), EngineError> {
        let mut kv = KvStore::create(engine, self.cfg.kv.clone()).map_err(engine_err)?;
        let session = kv.new_session().map_err(engine_err)?;
        if self.cfg.preload {
            for id in 0..self.cfg.keys {
                fill_key(&mut self.key_buf, id);
                self.fill_value(id, 0);
                let key = self.key_buf;
                kv.upsert(engine, session, &key, &self.val_buf)
                    .map_err(engine_err)?;
            }
        }
        self.kv = Some(kv);
        self.session = Some(session);
        Ok(())
    }

    fn iterate(&mut self, engine: &mut CheckpointEngine, iter: u64) -> Result<(), EngineError> {
        let mut kv = self.kv.take().expect("setup ran");
        let session = self.session.expect("setup ran");
        let mut issued = 0u64;
        while issued < self.cfg.ops_per_iteration {
            let batch = self.cfg.batch.min(self.cfg.ops_per_iteration - issued);
            for _ in 0..batch {
                let id = self.zipf.next(&mut self.rng);
                let kind = self.cfg.mix.draw(&mut self.rng);
                fill_key(&mut self.key_buf, id);
                let key = self.key_buf;
                let r = match kind {
                    KvOpKind::Read => kv.read(engine, session, &key).map(|_| ()),
                    KvOpKind::Upsert => {
                        self.fill_value(id, iter + 1);
                        kv.upsert(engine, session, &key, &self.val_buf)
                    }
                    KvOpKind::Rmw => {
                        let vb = self.cfg.value_bytes;
                        kv.rmw(engine, session, &key, |old| {
                            let mut v = old.map_or_else(|| vec![0u8; vb], <[u8]>::to_vec);
                            if v.len() >= 8 {
                                let c = u64::from_le_bytes(v[..8].try_into().unwrap());
                                v[..8].copy_from_slice(&c.wrapping_add(1).to_le_bytes());
                            }
                            v
                        })
                        .map(|_| ())
                    }
                    KvOpKind::Delete => kv.delete(engine, session, &key).map(|_| ()),
                };
                r.map_err(engine_err)?;
            }
            issued += batch;
            engine.compute(self.cfg.compute_slice);
        }
        if self.cfg.checkpoint_every > 0 && (iter + 1) % self.cfg.checkpoint_every == 0 {
            kv.checkpoint(engine).map_err(engine_err)?;
        }
        self.kv = Some(kv);
        Ok(())
    }

    fn comm_pattern(&self) -> CommPattern {
        // Shared-nothing partitions: no inter-rank application
        // traffic (clients are external).
        CommPattern::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_chkpt::{CheckpointEngine, EngineConfig};
    use nvm_emu::{MemoryDevice, VirtualClock};

    const MB: usize = 1 << 20;

    fn mk_engine() -> CheckpointEngine {
        let dram = MemoryDevice::dram(256 * MB);
        let nvm = MemoryDevice::pcm(256 * MB);
        CheckpointEngine::new(
            0,
            &dram,
            &nvm,
            128 * MB,
            VirtualClock::new(),
            EngineConfig::default(),
        )
        .unwrap()
    }

    fn small_cfg() -> KvServingConfig {
        KvServingConfig {
            keys: 64,
            value_bytes: 32,
            ops_per_iteration: 128,
            batch: 32,
            kv: KvConfig {
                initial_index_slots: 64,
                segment_bytes: 8192,
                max_sessions: 2,
                trace_ops: false,
            },
            ..KvServingConfig::default()
        }
    }

    #[test]
    fn splitmix_is_pinned() {
        // Reference values from the canonical splitmix64.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(&mut s), 0x6e789e6aa1b965f4);
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = 42u64;
        let mut counts = vec![0u64; 1000];
        for _ in 0..20_000 {
            let i = z.next(&mut rng);
            counts[i as usize] += 1;
        }
        // Hottest item dominates; everything stays in range.
        assert!(counts[0] > 1000, "item 0 drew {}", counts[0]);
        assert!(counts[0] > 10 * counts[500].max(1));
        let top10: u64 = counts[..10].iter().sum();
        assert!(top10 > 4000, "top-10 mass {top10}");
    }

    #[test]
    fn zipfian_theta_zero_is_roughly_uniform() {
        let z = Zipfian::new(100, 0.0);
        let mut rng = 7u64;
        let mut counts = vec![0u64; 100];
        for _ in 0..50_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < 4 * *min, "min {min} max {max}");
    }

    #[test]
    fn mix_draw_matches_percentages() {
        let mix = KvMix {
            read_pct: 95,
            upsert_pct: 5,
            rmw_pct: 0,
            delete_pct: 0,
        };
        let mut rng = 3u64;
        let mut reads = 0;
        for _ in 0..10_000 {
            if mix.draw(&mut rng) == KvOpKind::Read {
                reads += 1;
            }
        }
        assert!((9000..=9900).contains(&reads), "reads {reads}");
    }

    #[test]
    fn key_formatting_is_fixed_width() {
        let mut buf = [0u8; KEY_BYTES];
        fill_key(&mut buf, 0);
        assert_eq!(&buf, b"user000000000000");
        fill_key(&mut buf, 987_654_321_012);
        assert_eq!(&buf, b"user987654321012");
    }

    #[test]
    fn workload_serves_and_checkpoints() {
        let mut e = mk_engine();
        let mut w = KvServingWorkload::new(0, small_cfg());
        w.setup(&mut e).unwrap();
        let preloaded = w.kv.as_ref().unwrap().stats();
        assert_eq!(preloaded.occupied_slots, 64);
        for iter in 0..3 {
            w.iterate(&mut e, iter).unwrap();
        }
        let stats = w.kv.as_ref().unwrap().stats();
        assert_eq!(stats.token, 3, "one CPR token per iteration");
        assert!(stats.log_bytes > preloaded.log_bytes);
        e.nvchkptall().unwrap();
    }

    #[test]
    fn same_rank_same_seed_is_deterministic() {
        let run = || {
            let mut e = mk_engine();
            let mut w = KvServingWorkload::new(3, small_cfg());
            w.setup(&mut e).unwrap();
            for iter in 0..2 {
                w.iterate(&mut e, iter).unwrap();
            }
            (w.kv.as_ref().unwrap().stats(), e.clock().now().as_nanos())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_ranks_draw_different_streams() {
        let a = KvServingWorkload::new(0, small_cfg()).rng;
        let b = KvServingWorkload::new(1, small_cfg()).rng;
        assert_ne!(a, b);
    }
}
