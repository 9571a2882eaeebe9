//! An access is its calls. A random run of reads, views and writes is
//! made twice, on twin engines: once as separate engine calls
//! (`read`, `write`, `write_synthetic`; a view's twin is a `read` of
//! its range, and a view of several ranges, lent at once, is a `read`
//! of each in turn once every range is found to be there), once inside
//! one `CheckpointEngine::access`. Every outcome, the clock, both
//! devices' `DeviceStats`, wear, resident and spilled bytes,
//! `EngineStats`, the trace with its timestamps and the metrics
//! registry must come out identical — and stay so through the
//! pre-copy and checkpoint that follow, which see what the run left
//! dirty, staged and protected. Each run opens with a view of two
//! chunks that both await their lazy restore, and has, somewhere in
//! its middle, a chunk still awaiting its lazy restore, a write that
//! takes a protection fault, a write to a staged chunk and an
//! out-of-bounds access, and each is run on a RAM-backed and on a
//! spilled DRAM device.

use nvm_chkpt::{
    Access, CheckpointEngine, ChunkId, EngineConfig, EngineError, PrecopyPolicy, RestartStrategy,
    Tracer,
};
use nvm_emu::{
    DeviceError, DeviceParams, MemSpill, MemoryDevice, SimDuration, VirtualClock, PAGE_SIZE,
};
use nvm_heap::HeapError;
use nvm_metrics::MetricsRegistry;
use proptest::prelude::*;

const MB: usize = 1 << 20;

/// The persistent chunks' lengths; a non-persistent scratch chunk and
/// an id no chunk has follow them.
const LENS: [usize; 4] = [3 * PAGE_SIZE + 5, 1000, 2 * PAGE_SIZE, 64];
const SCRATCH: usize = LENS.len();
const UNKNOWN: usize = SCRATCH + 1;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Read,
    View,
    /// A view of this op's range and of those in `also`, lent at once.
    Views,
    Write,
    WriteSynthetic,
}

#[derive(Clone, Debug)]
struct Op {
    kind: Kind,
    chunk: usize,
    offset: usize,
    len: usize,
    fill: u8,
    /// A [`Kind::Views`] op's further ranges: `(chunk, offset, len)`.
    also: Vec<(usize, usize, usize)>,
}

impl Op {
    /// An access to `len` bytes at `offset` of `chunk`, which reach past
    /// its end when `past_end`; `a` and `b` place them. Lengths come
    /// mostly from a few, so that a run repeats them across kinds.
    fn new(kind: Kind, chunk: usize, past_end: bool, a: usize, b: usize, fill: u8) -> Op {
        const COMMON: [usize; 5] = [0, 1, 16, 100, PAGE_SIZE + 1];
        let chunk_len = LENS.get(chunk).copied().unwrap_or(2 * PAGE_SIZE);
        let offset = a % (chunk_len + 1);
        let room = chunk_len - offset;
        let len = match COMMON.get(b % 8) {
            _ if past_end => room + 1 + b % 8,
            Some(&len) if len <= room => len,
            _ => (b >> 3) % (room + 1),
        };
        Op {
            kind,
            chunk,
            offset,
            len,
            fill,
            also: Vec::new(),
        }
    }

    /// Every range of the op, its own first.
    fn ranges(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        std::iter::once((self.chunk, self.offset, self.len)).chain(self.also.iter().copied())
    }
}

fn op() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        Just(Kind::Read),
        Just(Kind::View),
        Just(Kind::View),
        Just(Kind::Views),
        Just(Kind::Write),
        Just(Kind::Write),
        Just(Kind::WriteSynthetic),
    ];
    // A views op's further ranges: rarely past an end, so that most
    // such ops are lent.
    let also = (
        0..UNKNOWN,
        (0..24u8).prop_map(|r| r == 0),
        any::<usize>(),
        any::<usize>(),
    )
        .prop_map(|(chunk, past_end, a, b)| {
            let op = Op::new(Kind::View, chunk, past_end, a, b, 0);
            (op.chunk, op.offset, op.len)
        });
    (
        (kind, 0..UNKNOWN + 1),
        (0..8u8).prop_map(|r| r == 0),
        (any::<usize>(), any::<usize>()),
        (any::<u8>(), proptest::collection::vec(also, 1..3)),
    )
        .prop_map(|((kind, chunk), past_end, (a, b), (fill, also))| {
            let mut op = Op::new(kind, chunk, past_end, a, b, fill);
            if let Kind::Views = kind {
                op.also = also;
            }
            op
        })
}

/// A run: a view of the lazily pending chunks 3 and 2, lent at once,
/// then random operations with, between the first and the last, a
/// write to the staged chunk 0, a read of the lazily pending chunk 1
/// and a view past the end of chunk 2, at positions `at` picks.
fn run() -> impl Strategy<Value = Vec<Op>> {
    (
        proptest::collection::vec(op(), 2..40),
        (any::<usize>(), any::<usize>(), any::<usize>()),
    )
        .prop_map(|(mut ops, at)| {
            let forced = [
                (Op::new(Kind::Write, 0, false, 7, 100, 0xAB), at.0),
                (Op::new(Kind::Read, 1, false, 10, 500, 0), at.1),
                (Op::new(Kind::View, 2, true, 5, 3, 0), at.2),
            ];
            for (op, at) in forced {
                ops.insert(1 + at % (ops.len() - 1), op);
            }
            let mut both = Op::new(Kind::Views, 3, false, 1, 2, 0);
            both.also = vec![(2, PAGE_SIZE - 3, 40), (3, 60, 4)];
            ops.insert(0, both);
            ops
        })
}

/// One of the twin engines and its devices, lazily restarted: chunks 1
/// to 3 await their first access, and chunk 0 was restored, written
/// and pre-copied — staged, clean and write-protected.
struct Twin {
    e: CheckpointEngine,
    dram: MemoryDevice,
    nvm: MemoryDevice,
    clock: VirtualClock,
    ids: Vec<ChunkId>,
}

impl Twin {
    fn new(spilled: bool) -> Twin {
        // A DRAM whose page write costs more than a page read, so that
        // a read and a write of one length are charged differently.
        let params = DeviceParams {
            page_write_latency: SimDuration::from_nanos(50),
            ..DeviceParams::dram()
        };
        let dram = MemoryDevice::new(params, 64 * MB);
        let nvm = MemoryDevice::pcm(64 * MB);
        if spilled {
            dram.attach_spill(Box::new(MemSpill::new()));
        }
        let clock = VirtualClock::new();
        let config = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
        let mut e = CheckpointEngine::new(0, &dram, &nvm, 32 * MB, clock.clone(), config).unwrap();
        let mut ids: Vec<ChunkId> = (LENS.iter().enumerate())
            .map(|(i, &len)| e.nvmalloc(&format!("c{i}"), len, true).unwrap())
            .collect();
        for (i, (&id, &len)) in ids.iter().zip(&LENS).enumerate() {
            let bytes: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
            e.write(id, 0, &bytes).unwrap();
        }
        e.nvchkptall().unwrap();
        let region = e.metadata_region();
        drop(e);
        let (mut e, _) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock.clone(),
            config,
            RestartStrategy::Lazy,
            Tracer::new(0),
        )
        .unwrap();
        e.set_metrics(Some(MetricsRegistry::new()));
        e.write(ids[0], 0, &[9; 16]).unwrap();
        e.compute(SimDuration::from_secs(1));
        assert_eq!(e.lazy_pending_count(), LENS.len() - 1);
        ids.push(e.nvmalloc("scratch", 2 * PAGE_SIZE, false).unwrap());
        ids.push(ChunkId(u64::MAX));
        Twin {
            e,
            dram,
            nvm,
            clock,
            ids,
        }
    }

    /// Everything an access may change, as the engine and its devices
    /// show it.
    fn observed(&self) -> impl PartialEq + std::fmt::Debug {
        let wear: Vec<u64> = (self.ids.iter())
            .filter_map(|&id| self.e.heap().chunk(id).ok())
            .map(|c| self.dram.max_wear(c.dram_region).unwrap())
            .collect();
        (
            self.clock.now(),
            [self.dram.stats(), self.nvm.stats()],
            wear,
            [self.dram.resident_bytes(), self.nvm.resident_bytes()],
            [
                self.dram.spill_read_bytes(),
                self.dram.spill_written_bytes(),
            ],
            (self.e.stats(), self.e.lazy_pending_count()),
            self.e.tracer().events().to_vec(),
            self.e.metrics().cloned(),
        )
    }
}

type Outcome = Result<Vec<u8>, String>;

fn data(op: &Op) -> Vec<u8> {
    (0..op.len).map(|i| op.fill ^ i as u8).collect()
}

/// Is `len` bytes at `offset` of chunk `id` there to be lent? The
/// error a view of several ranges fails with, before it restores or
/// charges anything, if not.
fn check(e: &CheckpointEngine, id: ChunkId, offset: usize, len: usize) -> Result<(), EngineError> {
    let chunk = e.heap().chunk(id)?;
    if offset + len > chunk.len {
        let oob = DeviceError::OutOfBounds {
            region: chunk.dram_region.0,
            offset,
            len,
            region_len: chunk.len,
        };
        return Err(HeapError::from(oob).into());
    }
    Ok(())
}

/// `op` as engine calls of its own.
fn call(e: &mut CheckpointEngine, ids: &[ChunkId], op: &Op) -> Outcome {
    let id = ids[op.chunk];
    let done: Result<Vec<u8>, EngineError> = match op.kind {
        Kind::Read | Kind::View => {
            let mut buf = vec![0u8; op.len];
            e.read(id, op.offset, &mut buf).map(|()| buf)
        }
        Kind::Views => (|| {
            for (chunk, offset, len) in op.ranges() {
                check(e, ids[chunk], offset, len)?;
            }
            let mut lent = Vec::new();
            for (chunk, offset, len) in op.ranges() {
                let mut buf = vec![0u8; len];
                e.read(ids[chunk], offset, &mut buf)?;
                lent.extend(buf);
            }
            Ok(lent)
        })(),
        Kind::Write => e.write(id, op.offset, &data(op)).map(|()| Vec::new()),
        Kind::WriteSynthetic => e
            .write_synthetic(id, op.offset, op.len)
            .map(|()| Vec::new()),
    };
    done.map_err(|e| e.to_string())
}

/// `op` as one access of a run.
fn access(a: &mut Access<'_>, ids: &[ChunkId], op: &Op) -> Outcome {
    let id = ids[op.chunk];
    let done: Result<Vec<u8>, EngineError> = match op.kind {
        Kind::Views => {
            let ranges: Vec<_> = (op.ranges())
                .map(|(chunk, offset, len)| (ids[chunk], offset, len))
                .collect();
            a.views(&ranges).map(|lent| lent.concat())
        }
        Kind::Read => {
            let mut buf = vec![0u8; op.len];
            a.read(id, op.offset, &mut buf).map(|()| buf)
        }
        Kind::View => a.view(id, op.offset, op.len).map(<[u8]>::to_vec),
        Kind::Write => a.write(id, op.offset, &data(op)).map(|()| Vec::new()),
        Kind::WriteSynthetic => a
            .write_synthetic(id, op.offset, op.len)
            .map(|()| Vec::new()),
    };
    done.map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn an_access_equals_its_calls(ops in run()) {
        for spilled in [false, true] {
            let mut calls = Twin::new(spilled);
            let mut run = Twin::new(spilled);
            prop_assert_eq!(calls.observed(), run.observed(), "twins differ");
            let before = calls.e.stats();

            let ids = calls.ids.clone();
            let called: Vec<Outcome> = (ops.iter())
                .map(|op| call(&mut calls.e, &ids, op))
                .collect();
            let ids = run.ids.clone();
            let accessed: Vec<Outcome> = run.e.access(|a| {
                ops.iter().map(|op| access(a, &ids, op)).collect()
            });
            prop_assert_eq!(&called, &accessed, "spilled {}", spilled);
            prop_assert_eq!(calls.observed(), run.observed(), "spilled {}", spilled);

            // The run reached what it was built to reach.
            let after = run.e.stats();
            prop_assert!(after.faults > before.faults, "no protection fault");
            prop_assert!(after.wasted_precopy_bytes > before.wasted_precopy_bytes, "no staged write");
            prop_assert!(run.e.lazy_pending_count() < LENS.len() - 1, "no lazy restore");
            prop_assert!(accessed[0].is_ok(), "the opening views failed");
            prop_assert!(accessed.iter().any(|o| o.as_ref().is_err_and(|e| e.contains("out of bounds"))),
                "no out-of-bounds access");

            // What the run left dirty, staged and protected is what the
            // calls left: the next pre-copy and checkpoint agree.
            for twin in [&mut calls, &mut run] {
                twin.e.compute(SimDuration::from_secs(1));
                twin.e.nvchkptall().unwrap();
            }
            prop_assert_eq!(calls.observed(), run.observed(), "spilled {} after a checkpoint", spilled);
        }
    }
}

#[test]
fn a_size_only_chunk_has_no_bytes_to_lend_and_is_not_charged() {
    let (dram, nvm) = (MemoryDevice::dram(8 * MB), MemoryDevice::pcm(8 * MB));
    let clock = VirtualClock::new();
    let config = EngineConfig::builder()
        .materialization(nvm_heap::Materialization::Synthetic)
        .checksums(false)
        .build()
        .unwrap();
    let mut e = CheckpointEngine::new(0, &dram, &nvm, 4 * MB, clock.clone(), config).unwrap();
    let id = e.nvmalloc("a", 64, true).unwrap();
    let before = (clock.now(), dram.stats());
    let sized = e.access(|a| a.views(&[(id, 0, 64)]).map(|lent| lent.len()));
    assert!(
        matches!(
            sized,
            Err(EngineError::Heap(HeapError::Device(
                DeviceError::SyntheticAccess(_)
            )))
        ),
        "{sized:?}"
    );
    assert_eq!((clock.now(), dram.stats()), before);
}
