//! Direct probes of public functions: what one layer costs with
//! nothing else in the way. They run once per traced invocation, on
//! buffers far larger than the per-core caches wherever they report a
//! bandwidth (the README states the sizes next to the host's caches).

use crate::bench::Layer;
use hpc_workloads::splitmix64;
use nvm_chkpt::checksum::crc64;
use nvm_chkpt::persist::Persistence;
use nvm_chkpt::{CheckpointEngine, ChunkId, EngineConfig, Materialization, PrecopyPolicy};
use nvm_emu::wearmap::WearMap;
use nvm_emu::{MemoryDevice, SimDuration, SpillStore, VirtualClock};
use nvm_metrics::{Metrics, MetricsRegistry};
use nvm_paging::protection::Mmu;
use nvm_store::{FileSpill, FileStore};
use nvm_trace::{merge_ranked, TraceEvent, TraceEventKind};
use rdma_sim::RemoteStore;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const MB: usize = 1 << 20;
const GIB: f64 = (1u64 << 30) as f64;

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// A buffer of pseudo-random bytes (zeros would flatter any path that
/// special-cases them).
fn noise(len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    crate::gen::fill_bytes(&mut buf, &mut 0x70_726f_6265); // "probe"
    buf
}

/// Run every probe and record its metric.
pub fn run_all(tmp: &Path, out: &mut Layer) {
    out.set("harness.timer_ns", timer_ns());
    out.set("chkpt.crc64_gib_s", crc64_gib_s());
    out.set("chkpt.epoch_synth_us", epoch_synth_us());
    let (prot, unprot) = record_write_ns();
    out.set("nvm-paging.record_write_prot_ns", prot);
    out.set("nvm-paging.record_write_unprot_ns", unprot);
    out.set("nvm-emu.wearmap_inc_ns", wearmap_inc_ns());
    out.set("nvm-emu.device_write_us_per_mib", device_write_us_per_mib());
    let (put, read) = container_gib_s(&tmp.join("probe.store"));
    out.set("nvm-store.put_commit_gib_s", put);
    out.set("nvm-store.recover_read_gib_s", read);
    let (write, read) = spill_gib_s(&tmp.join("probe.spill"));
    out.set("nvm-store.spill_write_gib_s", write);
    out.set("nvm-store.spill_read_gib_s", read);
    let (put, fetch) = remote_gib_s();
    out.set("rdma-sim.put_gib_s", put);
    out.set("rdma-sim.fetch_gib_s", fetch);
    out.set("nvm-trace.merge_mevents_s", merge_mevents_s());
    out.set("nvm-metrics.fold_us", metrics_fold_us());
}

/// Cost of one `Instant::now()` pair — what every span adds to the
/// call it brackets.
fn timer_ns() -> f64 {
    const N: u32 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(Instant::now().elapsed());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// `crc64` over 64 MiB.
fn crc64_gib_s() -> f64 {
    let buf = noise(64 * MB);
    let s = secs(|| {
        black_box(crc64(black_box(&buf)));
    });
    buf.len() as f64 / GIB / s
}

/// One synthetic DCPCP epoch on a 4 MiB chunk: dirty, compute, commit.
fn epoch_synth_us() -> f64 {
    const EPOCHS: u32 = 2_000;
    let cfg = EngineConfig::builder()
        .precopy(PrecopyPolicy::Dcpcp)
        .materialization(Materialization::Synthetic)
        .checksums(false)
        .build()
        .expect("valid probe config");
    let mut e = CheckpointEngine::new(
        0,
        &MemoryDevice::dram(64 * MB),
        &MemoryDevice::pcm(64 * MB),
        24 * MB,
        VirtualClock::new(),
        cfg,
    )
    .expect("probe engine");
    let id = e.nvmalloc("probe", 4 * MB, true).expect("probe chunk");
    let s = secs(|| {
        for _ in 0..EPOCHS {
            e.write_synthetic(id, 0, 4 * MB).expect("dirty");
            e.compute(SimDuration::from_secs(1));
            black_box(e.nvchkptall().expect("commit"));
        }
    });
    s * 1e6 / EPOCHS as f64
}

/// `Mmu::record_write` on a 1024-page chunk: `(protected, unprotected)`
/// nanoseconds per call. The protected call takes the fault path and
/// unprotects the whole chunk, so the chunk is re-protected (untimed
/// work, but inside the loop) before each one.
fn record_write_ns() -> (f64, f64) {
    const N: u32 = 200_000;
    const PAGES: usize = 1024;
    let id = ChunkId(1);
    let mut mmu = Mmu::new();
    mmu.register_chunk(id, PAGES);
    let unprot = secs(|| {
        for i in 0..N {
            black_box(mmu.record_write(id, i as usize % PAGES, 1));
        }
    });
    let protect_only = secs(|| {
        for _ in 0..N {
            mmu.protect_after_precopy(id);
        }
    });
    let both = secs(|| {
        for i in 0..N {
            mmu.protect_after_precopy(id);
            black_box(mmu.record_write(id, i as usize % PAGES, 1));
        }
    });
    (
        (both - protect_only).max(0.0) * 1e9 / N as f64,
        unprot * 1e9 / N as f64,
    )
}

/// `WearMap::increment_range` over random 16-page ranges of a
/// million-page map.
fn wearmap_inc_ns() -> f64 {
    const N: u32 = 200_000;
    const PAGES: u64 = 1 << 20;
    let mut map = WearMap::new(PAGES as usize);
    let mut rng = 0x7765_6172u64; // "wear"
    let s = secs(|| {
        for _ in 0..N {
            let first = splitmix64(&mut rng) % (PAGES - 16);
            black_box(map.increment_range(first, first + 15));
        }
    });
    s * 1e9 / N as f64
}

/// `MemoryDevice::write` of 1 MiB blocks into a 64 MiB byte-backed PCM
/// region: charge, wear and copy.
fn device_write_us_per_mib() -> f64 {
    const REGION: usize = 64 * MB;
    let nvm = MemoryDevice::pcm(REGION + MB);
    let region = nvm.alloc(REGION).expect("probe region");
    let block = noise(MB);
    let s = secs(|| {
        for off in (0..REGION).step_by(MB) {
            black_box(nvm.write(region, off, &block, 1).expect("device write"));
        }
    });
    s * 1e6 / (REGION / MB) as f64
}

/// A `FileStore` with no engine in front: 32 x 4 MiB `put_chunk` +
/// `commit`, then `open_existing` + `recover` + `read_chunk` of each.
/// `(put + commit, recover + read)` GiB/s.
fn container_gib_s(path: &Path) -> (f64, f64) {
    const CHUNKS: u64 = 32;
    const BYTES: usize = 4 * MB;
    let payload = noise(BYTES);
    let total = CHUNKS as f64 * BYTES as f64 / GIB;
    let _ = std::fs::remove_file(path);
    let put = secs(|| {
        let mut store =
            FileStore::open_path(path, 0, CHUNKS as usize * BYTES * 2 + MB).expect("probe store");
        for c in 0..CHUNKS {
            store
                .put_chunk(ChunkId(c), "probe", BYTES, 0, &payload)
                .expect("put_chunk");
        }
        store.commit(0).expect("commit");
    });
    let read = secs(|| {
        let mut store = FileStore::open_existing(path).expect("reopen probe store");
        let state = store.recover().expect("recover");
        assert_eq!(state.chunks.len() as u64, CHUNKS);
        for c in 0..CHUNKS {
            black_box(store.read_chunk(ChunkId(c)).expect("read_chunk"));
        }
    });
    let _ = std::fs::remove_file(path);
    (total / put, total / read)
}

/// `FileSpill` in 64 KiB slots, 64 MiB in all: `(write, read)` GiB/s.
fn spill_gib_s(path: &Path) -> (f64, f64) {
    const SLOT: usize = 64 << 10;
    const SLOTS: usize = 1024;
    let block = noise(SLOT);
    let total = (SLOT * SLOTS) as f64 / GIB;
    let mut spill = FileSpill::create(path).expect("probe spill file");
    let ids: Vec<u64> = (0..SLOTS)
        .map(|_| spill.alloc(SLOT).expect("spill alloc"))
        .collect();
    let write = secs(|| {
        for &id in &ids {
            spill.write(id, 0, &block).expect("spill write");
        }
    });
    let mut buf = vec![0u8; SLOT];
    let read = secs(|| {
        for &id in &ids {
            spill.read(id, 0, &mut buf).expect("spill read");
            black_box(&buf);
        }
    });
    drop(spill);
    let _ = std::fs::remove_file(path);
    (total / write, total / read)
}

/// `RemoteStore` put and CRC-verified fetch of 256 KiB chunks, 32 MiB
/// in all: `(put, fetch)` GiB/s.
fn remote_gib_s() -> (f64, f64) {
    const BYTES: usize = 256 << 10;
    const CHUNKS: u64 = 128;
    let nvm = MemoryDevice::pcm(BYTES * CHUNKS as usize * 2 + 8 * MB);
    let mut store = RemoteStore::new(&nvm, true);
    let data = noise(BYTES);
    let total = BYTES as f64 * CHUNKS as f64 / GIB;
    let put = secs(|| {
        for c in 0..CHUNKS {
            black_box(store.put(0, ChunkId(c), &data).expect("remote put"));
        }
    });
    store.commit_rank(0, 1);
    let fetch = secs(|| {
        for c in 0..CHUNKS {
            black_box(store.fetch(0, ChunkId(c)).expect("remote fetch"));
        }
    });
    (total / put, total / fetch)
}

/// `merge_ranked` over 512 rank buffers of 40 events each, twenty
/// times: million events per second.
fn merge_mevents_s() -> f64 {
    const RANKS: u64 = 512;
    const PER_RANK: u64 = 40;
    const ROUNDS: u32 = 20;
    let buffers: Vec<Vec<TraceEvent>> = (0..RANKS)
        .map(|rank| {
            (0..PER_RANK)
                .map(|i| TraceEvent {
                    t_ns: i * 1_000 + rank,
                    rank,
                    kind: TraceEventKind::ProtectionFault { chunk: i % 17 },
                })
                .collect()
        })
        .collect();
    let inputs: Vec<_> = (0..ROUNDS).map(|_| buffers.clone()).collect();
    let s = secs(|| {
        for input in inputs {
            black_box(merge_ranked(input));
        }
    });
    (RANKS * PER_RANK * ROUNDS as u64) as f64 / 1e6 / s
}

/// Folding 512 per-rank registries (two counters and a histogram, 64
/// updates each) into one, microseconds per fold.
fn metrics_fold_us() -> f64 {
    const ROUNDS: u32 = 20;
    let ranks: Vec<Metrics> = (0..512u64)
        .map(|r| {
            let m = Metrics::new();
            let faults = m.counter_handle("chkpt_faults_total");
            let bytes = m.counter_handle("chkpt_precopied_bytes_total");
            let hist = m.histogram_handle("chkpt_fault_ns");
            for i in 0..64u64 {
                faults.add(1);
                bytes.add(4096);
                hist.observe(1_000 + i * 37 + r);
            }
            m
        })
        .collect();
    let s = secs(|| {
        for _ in 0..ROUNDS {
            let mut out = MetricsRegistry::new();
            for m in &ranks {
                m.merge_into(&mut out);
            }
            black_box(out);
        }
    });
    s * 1e6 / ROUNDS as f64
}
