//! `store_commit_restart`: one engine (real bytes, checksums, DCPCP)
//! mirrored into a `FileStore`, 32 chunks of 4 MiB. Isolates CRC +
//! copy + container commit in `nvchkptall` and container read + CRC +
//! install in `restart_from_store`; no cluster, no kv, no remote copy.
//!
//! The set-up writes and commits all 128 MiB once, then one epoch of
//! the kind the repetitions run, so both shadow slots of every chunk a
//! repetition touches exist in memory and in the file before timing
//! starts. A repetition rewrites every second chunk with fresh seeded
//! bytes, computes for 10 virtual seconds (the pre-copy window) and
//! commits, three times over; drops the engine; and restarts from the
//! container file alone. The restarted engine carries on into the next
//! repetition, so every repetition does the same work on the same
//! amount of state.

use crate::bench::{harness_layers, Bench, Layer, Rep, Stopwatch, Tally, REP_SPAN, TRACED_REP};
use crate::fixture::{engine_with_store, restart_from_store, Sizes};
use crate::gen::{fill_bytes, payload_state};
use crate::spans::Spans;
use crate::stats;
use nvm_chkpt::{CheckpointEngine, ChunkId, EngineStats, StoreStats};
use nvm_emu::{SimDuration, VirtualClock};
use std::path::PathBuf;
use std::time::Instant;

/// Chunks in the engine.
pub const CHUNKS: usize = 32;
/// Bytes per chunk.
pub const CHUNK_BYTES: usize = 4 << 20;
/// Commits per repetition.
pub const EPOCHS_PER_REP: u64 = 3;
/// The chunks every epoch of a repetition rewrites: every second one.
fn rewritten() -> impl Iterator<Item = usize> {
    (0..CHUNKS).step_by(2)
}

const COMPUTE: SimDuration = SimDuration::from_secs(10);

const MB: usize = 1 << 20;
const DATA_BYTES: usize = CHUNKS * CHUNK_BYTES;
/// Both version slots of every chunk, plus slack.
const SIZES: Sizes = Sizes {
    dram: DATA_BYTES + 64 * MB,
    nvm: DATA_BYTES * 2 + 80 * MB,
    container: DATA_BYTES * 2 + 16 * MB,
    store: DATA_BYTES * 2 + 16 * MB,
};

struct Fixture {
    clock: VirtualClock,
    engine: CheckpointEngine,
    ids: Vec<ChunkId>,
    /// Epoch whose payload each chunk last received.
    last_written: Vec<u64>,
    /// Next epoch's number (payloads are keyed by it).
    epoch: u64,
}

/// What the commits and the restart of one repetition added up to.
#[derive(Default)]
struct Measured {
    write_s: f64,
    written_bytes: u64,
    commit_s: f64,
    committed_bytes: u64,
    restart_s: f64,
    virt_s: f64,
    /// What the engine and the container counted during the repetition.
    engine: EngineStats,
    store: StoreStats,
}

/// Counters of `after` minus those of `before`, for the fields the
/// per-layer metrics read.
fn engine_delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        precopied_bytes: after.precopied_bytes - before.precopied_bytes,
        coordinated_bytes: after.coordinated_bytes - before.coordinated_bytes,
        wasted_precopy_bytes: after.wasted_precopy_bytes - before.wasted_precopy_bytes,
        coordinated_time: after
            .coordinated_time
            .saturating_sub(before.coordinated_time),
        faults: after.faults - before.faults,
        ..EngineStats::default()
    }
}

fn store_delta(after: StoreStats, before: StoreStats) -> StoreStats {
    StoreStats {
        bytes_written: after.bytes_written - before.bytes_written,
        fsyncs: after.fsyncs - before.fsyncs,
        commits: after.commits - before.commits,
        ..StoreStats::default()
    }
}

/// What the epochs of one pass share.
struct Pass<'a> {
    buf: Vec<u8>,
    watch: Stopwatch,
    spans: &'a mut Spans,
    m: Measured,
    tally: &'a mut Tally,
}

impl<'a> Pass<'a> {
    fn new(spans: &'a mut Spans, tally: &'a mut Tally) -> Self {
        Pass {
            buf: vec![0u8; CHUNK_BYTES],
            watch: Stopwatch::start(),
            spans,
            m: Measured::default(),
            tally,
        }
    }
}

/// The store workload.
pub struct StoreBench {
    seed: u64,
    store_path: PathBuf,
    fixture: Option<Fixture>,
    nvmalloc_us: f64,
}

impl StoreBench {
    /// The workload with payload bytes drawn from `seed` and its
    /// container file under `tmp`.
    pub fn new(seed: u64, tmp: PathBuf) -> Self {
        StoreBench {
            seed,
            store_path: tmp.join("commit_restart.store"),
            fixture: None,
            nvmalloc_us: 0.0,
        }
    }

    /// Rewrite `chunks` with epoch `fx.epoch`'s payload, compute, and
    /// commit: two sections of the pass, the commit being the work.
    fn epoch(&self, fx: &mut Fixture, chunks: impl Iterator<Item = usize>, pass: &mut Pass) {
        let Pass {
            buf,
            watch,
            spans,
            m,
            tally,
        } = pass;
        for c in chunks {
            fill_bytes(buf, &mut payload_state(self.seed, c as u64, fx.epoch));
            let (wrote, took) = spans.time("chkpt.write", || fx.engine.write(fx.ids[c], 0, buf));
            tally.check(wrote.is_ok(), || {
                format!("write chunk {c}: {:?}", wrote.err())
            });
            m.write_s += took.as_secs_f64();
            m.written_bytes += buf.len() as u64;
            fx.last_written[c] = fx.epoch;
        }
        let open = spans.enter("chkpt.compute");
        fx.engine.compute(COMPUTE);
        spans.exit(open);
        watch.lap(false);
        let (report, took) = spans.time("chkpt.nvchkptall", || fx.engine.nvchkptall());
        watch.lap(true);
        m.commit_s += took.as_secs_f64();
        match report {
            Ok(r) => {
                m.committed_bytes += r.total_bytes();
                tally.check(true, String::new);
            }
            Err(e) => tally.check(false, || format!("nvchkptall: {e}")),
        }
        fx.epoch += 1;
    }

    /// Every chunk of the restarted engine must hold the bytes it last
    /// committed.
    fn verify(&self, fx: &mut Fixture, tally: &mut Tally) {
        let (mut got, mut want) = (vec![0u8; CHUNK_BYTES], vec![0u8; CHUNK_BYTES]);
        for c in 0..CHUNKS {
            fill_bytes(
                &mut want,
                &mut payload_state(self.seed, c as u64, fx.last_written[c]),
            );
            let read = fx.engine.read(fx.ids[c], 0, &mut got);
            tally.check(read.is_ok() && got == want, || {
                format!(
                    "chunk {c} after restart differs from epoch {}'s bytes ({:?})",
                    fx.last_written[c],
                    read.err()
                )
            });
        }
    }

    fn pass(&mut self, spans: &mut Spans, tally: &mut Tally) -> (Rep, Measured) {
        let mut fx = self.fixture.take().expect("set up");
        let virt0 = fx.clock.now();
        let engine0 = fx.engine.stats();
        let store0 = fx.engine.persistence_stats().unwrap_or_default();

        let rep = spans.enter(REP_SPAN);
        let mut pass = Pass::new(spans, tally);
        for _ in 0..EPOCHS_PER_REP {
            self.epoch(&mut fx, rewritten(), &mut pass);
        }
        let Pass {
            mut watch, mut m, ..
        } = pass;
        m.engine = engine_delta(fx.engine.stats(), engine0);
        m.store = store_delta(fx.engine.persistence_stats().unwrap_or_default(), store0);
        // Crash: nothing survives but the container file.
        let Fixture {
            clock,
            engine,
            ids,
            last_written,
            epoch,
        } = fx;
        drop(engine);
        let (restarted, took) = spans.time("chkpt.restart_from_store", || {
            restart_from_store(&self.store_path, SIZES, clock.clone())
        });
        watch.lap(true);
        m.restart_s = took.as_secs_f64();
        spans.exit(rep);
        m.virt_s = clock.now().since(virt0).as_secs_f64();

        match restarted {
            Ok((engine, report)) => {
                tally.check(
                    report.restored.len() == CHUNKS && report.corrupt.is_empty(),
                    || {
                        format!(
                            "restart restored {} chunks, {} corrupt",
                            report.restored.len(),
                            report.corrupt.len()
                        )
                    },
                );
                let mut fx = Fixture {
                    clock,
                    engine,
                    ids,
                    last_written,
                    epoch,
                };
                self.verify(&mut fx, tally);
                self.fixture = Some(fx);
            }
            Err(e) => {
                // Count the miss and start over, so later repetitions
                // still have an engine to run on.
                tally.check(false, || format!("restart_from_store: {e}"));
                self.setup(tally);
            }
        }
        (
            Rep {
                sections: watch.finish(),
                work: (m.committed_bytes as f64 + DATA_BYTES as f64) / MB as f64,
            },
            m,
        )
    }
}

impl Bench for StoreBench {
    /// Devices, engine, container file, 32 allocations, epoch 0 (every
    /// chunk written and committed) and one epoch of the repetitions'
    /// kind — the warm-up of the very path they measure.
    fn setup(&mut self, tally: &mut Tally) {
        let _ = std::fs::remove_file(&self.store_path);
        let clock = VirtualClock::new();
        let mut engine = engine_with_store(&self.store_path, SIZES, clock.clone());
        let t0 = Instant::now();
        let ids: Vec<ChunkId> = (0..CHUNKS)
            .map(|c| {
                engine
                    .nvmalloc(&format!("chunk_{c}"), CHUNK_BYTES, true)
                    .expect("nvmalloc")
            })
            .collect();
        self.nvmalloc_us = t0.elapsed().as_secs_f64() * 1e6 / CHUNKS as f64;
        let mut fx = Fixture {
            clock,
            engine,
            ids,
            last_written: vec![0; CHUNKS],
            epoch: 0,
        };
        let mut off = Spans::new(false);
        let mut pass = Pass::new(&mut off, tally);
        self.epoch(&mut fx, 0..CHUNKS, &mut pass);
        self.epoch(&mut fx, rewritten(), &mut pass);
        self.fixture = Some(fx);
    }

    /// The container's first 256 MiB go to a disk whose flush time
    /// swings by half a second between runs; five samples keep the
    /// median on the usual value.
    fn setup_children(&self) -> usize {
        4
    }

    fn rep(&mut self, spans: &mut Spans, tally: &mut Tally) -> Rep {
        self.pass(spans, tally).0
    }

    fn layers(&mut self, spans: &mut Spans, plain_wall_s: f64, tally: &mut Tally, out: &mut Layer) {
        spans.set_rep(TRACED_REP);
        let (rep, m) = self.pass(spans, tally);
        harness_layers(spans, rep.wall_s(), plain_wall_s, out);

        let gib = (1u64 << 30) as f64;
        let mut commits = spans.durations_ns("chkpt.nvchkptall", TRACED_REP);
        commits.sort_unstable();
        let commit_p50_ms = stats::percentile(&commits, 50.0) as f64 / 1e6;
        out.set("chkpt.nvchkptall_ms_p50", commit_p50_ms);
        out.set(
            "chkpt.write_us_per_mib",
            m.write_s * 1e6 / (m.written_bytes as f64 / MB as f64),
        );
        out.set("chkpt.restart_ms", m.restart_s * 1e3);
        out.set("user.ckpt_stall_ms", commit_p50_ms);
        out.set("user.recover_s", m.restart_s);
        out.set(
            "user.commit_gib_s",
            m.committed_bytes as f64 / gib / m.commit_s,
        );
        out.set("user.restart_gib_s", DATA_BYTES as f64 / gib / m.restart_s);
        out.set("nvm-heap.nvmalloc_us", self.nvmalloc_us);

        out.set_engine(&m.engine);
        out.set_store(&m.store, m.written_bytes);
        out.set("virt.wall_s", m.virt_s);
    }
}
