//! Transparent (whole-address-space) checkpointing mode (extension).
//!
//! The paper targets application-initiated checkpoints but notes its
//! mechanisms "are sufficiently general that they can also be used to
//! support transparent checkpointing" — at the price of checkpointing
//! the entire process footprint. [`TransparentProcess`] demonstrates
//! that generalization: the address space is covered by fixed-size
//! segments, each auto-registered as a chunk; plain `store`/`load`
//! calls replace the Table-III marking interfaces, and every segment
//! participates in checkpoints whether or not it holds live data.
//!
//! The cost difference the paper warns about ("possibly prohibitive
//! checkpoint sizes") falls out directly: a transparent checkpoint
//! moves `address_space` bytes where the application-initiated one
//! moves only the marked working set — compare
//! [`TransparentProcess::footprint_bytes`] against a marked engine's
//! `checkpoint_bytes()`.

use crate::config::EngineConfig;
use crate::engine::{CheckpointEngine, EngineError, RestartReport};
use crate::restart::RestartStrategy;
use crate::stats::EpochReport;
use nvm_emu::{MemoryDevice, RegionId, SimDuration, VirtualClock};
use nvm_paging::ChunkId;
use nvm_trace::Tracer;

/// A transparently-checkpointed process image.
pub struct TransparentProcess {
    engine: CheckpointEngine,
    segment_bytes: usize,
    segments: Vec<ChunkId>,
}

impl TransparentProcess {
    /// Create a process image of `address_space` bytes covered by
    /// `segment_bytes` segments (the last may be partial).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        process_id: u64,
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        container_capacity: usize,
        clock: VirtualClock,
        config: EngineConfig,
        address_space: usize,
        segment_bytes: usize,
    ) -> Result<Self, EngineError> {
        assert!(segment_bytes > 0 && address_space > 0);
        let mut engine =
            CheckpointEngine::new(process_id, dram, nvm, container_capacity, clock, config)?;
        let mut segments = Vec::new();
        let mut off = 0;
        let mut i = 0;
        while off < address_space {
            let len = segment_bytes.min(address_space - off);
            let id = engine.nvmalloc(&format!("__seg_{i}"), len, true)?;
            segments.push(id);
            off += len;
            i += 1;
        }
        Ok(TransparentProcess {
            engine,
            segment_bytes,
            segments,
        })
    }

    /// Address-space size in bytes — the transparent checkpoint
    /// footprint.
    pub fn footprint_bytes(&self) -> usize {
        self.engine.checkpoint_bytes()
    }

    /// Number of covering segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The wrapped engine (stats, clock, metadata region).
    pub fn engine(&self) -> &CheckpointEngine {
        &self.engine
    }

    /// Attach a tracer to the wrapped engine: stores, checkpoints, and
    /// restarts of this process image appear on the event stream.
    pub fn set_tracer(&mut self, tracer: nvm_trace::Tracer) {
        self.engine.set_tracer(tracer);
    }

    fn locate(&self, addr: usize) -> (usize, usize) {
        (addr / self.segment_bytes, addr % self.segment_bytes)
    }

    /// Store bytes at an absolute address (may span segments) — the
    /// transparent analogue of an ordinary memory write.
    pub fn store(&mut self, addr: usize, data: &[u8]) -> Result<(), EngineError> {
        let mut addr = addr;
        let mut data = data;
        while !data.is_empty() {
            let (seg, off) = self.locate(addr);
            let id = self.segments[seg];
            let room = self.engine.chunk_len(id)? - off;
            let n = room.min(data.len());
            self.engine.write(id, off, &data[..n])?;
            addr += n;
            data = &data[n..];
        }
        Ok(())
    }

    /// Load bytes from an absolute address (may span segments).
    pub fn load(&mut self, addr: usize, buf: &mut [u8]) -> Result<(), EngineError> {
        let mut addr = addr;
        let mut filled = 0;
        while filled < buf.len() {
            let (seg, off) = self.locate(addr);
            let id = self.segments[seg];
            let room = self.engine.chunk_len(id)? - off;
            let n = room.min(buf.len() - filled);
            self.engine.read(id, off, &mut buf[filled..filled + n])?;
            addr += n;
            filled += n;
        }
        Ok(())
    }

    /// Model a compute segment (background pre-copy included).
    pub fn compute(&mut self, dur: SimDuration) {
        self.engine.compute(dur);
    }

    /// Transparent coordinated checkpoint of the whole image.
    pub fn checkpoint(&mut self) -> Result<EpochReport, EngineError> {
        self.engine.nvchkptall()
    }

    /// Metadata region for later restart.
    pub fn metadata_region(&self) -> RegionId {
        self.engine.metadata_region()
    }

    /// Restart a transparent process from its metadata region.
    pub fn restart(
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        metadata_region: RegionId,
        clock: VirtualClock,
        config: EngineConfig,
        segment_bytes: usize,
    ) -> Result<(Self, RestartReport), EngineError> {
        let (engine, report) = CheckpointEngine::restart(
            dram,
            nvm,
            metadata_region,
            clock,
            config,
            RestartStrategy::Eager,
            Tracer::disabled(),
        )?;
        let mut segments: Vec<(usize, ChunkId)> = engine
            .heap()
            .chunks()
            .filter_map(|c| {
                c.name
                    .strip_prefix("__seg_")
                    .and_then(|n| n.parse::<usize>().ok())
                    .map(|i| (i, c.id))
            })
            .collect();
        segments.sort_by_key(|(i, _)| *i);
        Ok((
            TransparentProcess {
                engine,
                segment_bytes,
                segments: segments.into_iter().map(|(_, id)| id).collect(),
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    const MB: usize = 1 << 20;

    fn proc(
        space: usize,
        seg: usize,
    ) -> (TransparentProcess, MemoryDevice, MemoryDevice, VirtualClock) {
        let dram = MemoryDevice::dram(64 * MB);
        let nvm = MemoryDevice::pcm(64 * MB);
        let clock = VirtualClock::new();
        let p = TransparentProcess::new(
            0,
            &dram,
            &nvm,
            32 * MB,
            clock.clone(),
            EngineConfig::default(),
            space,
            seg,
        )
        .unwrap();
        (p, dram, nvm, clock)
    }

    #[test]
    fn covers_space_with_segments() {
        let (p, ..) = proc(10 * 4096 + 100, 4096);
        assert_eq!(p.segment_count(), 11, "last partial segment counts");
        assert_eq!(p.footprint_bytes(), 10 * 4096 + 100);
    }

    #[test]
    fn store_load_roundtrip_across_segments() {
        let (mut p, ..) = proc(64 * 1024, 4096);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        // Deliberately unaligned, spanning 3 segments.
        p.store(3000, &data).unwrap();
        let mut buf = vec![0u8; 10_000];
        p.load(3000, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn transparent_checkpoint_and_restart() {
        let (mut p, dram, nvm, clock) = proc(32 * 1024, 4096);
        p.store(0, &[7u8; 32 * 1024]).unwrap();
        p.compute(SimDuration::from_secs(1));
        let report = p.checkpoint().unwrap();
        assert_eq!(report.total_bytes(), 32 * 1024);
        let region = p.metadata_region();
        drop(p);

        let (mut p2, restart) =
            TransparentProcess::restart(&dram, &nvm, region, clock, EngineConfig::default(), 4096)
                .unwrap();
        assert_eq!(restart.restored.len(), 8);
        assert_eq!(p2.segment_count(), 8);
        let mut buf = vec![0u8; 32 * 1024];
        p2.load(0, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 32 * 1024]);
    }

    #[test]
    fn transparent_footprint_exceeds_marked_working_set() {
        // The paper's warning: transparent mode checkpoints the whole
        // image even when the app only needs a fraction persistent.
        let (mut p, ..) = proc(16 * 4096, 4096);
        p.store(0, &[1u8; 4096]).unwrap(); // app only really uses 1 page
        p.compute(SimDuration::from_secs(1));
        let transparent = p.checkpoint().unwrap();

        let dram = MemoryDevice::dram(64 * MB);
        let nvm = MemoryDevice::pcm(64 * MB);
        let mut marked = CheckpointEngine::new(
            1,
            &dram,
            &nvm,
            32 * MB,
            VirtualClock::new(),
            EngineConfig::default(),
        )
        .unwrap();
        let id = marked.nvmalloc("live", 4096, true).unwrap();
        marked.write(id, 0, &[1u8; 4096]).unwrap();
        marked.compute(SimDuration::from_secs(1));
        let initiated = marked.nvchkptall().unwrap();

        assert!(
            transparent.total_bytes() >= 16 * initiated.total_bytes(),
            "transparent {} vs initiated {}",
            transparent.total_bytes(),
            initiated.total_bytes()
        );
    }

    #[test]
    fn segment_dirty_tracking_limits_recopy() {
        let (mut p, ..) = proc(16 * 4096, 4096);
        p.store(0, &vec![1u8; 16 * 4096]).unwrap();
        p.compute(SimDuration::from_secs(1));
        p.checkpoint().unwrap();
        // Touch one segment only: the next checkpoint moves one
        // segment, not the image.
        p.store(5 * 4096, &[9u8; 100]).unwrap();
        p.compute(SimDuration::from_secs(1));
        let r = p.checkpoint().unwrap();
        assert_eq!(r.total_bytes(), 4096);
        assert_eq!(r.skipped_bytes, 15 * 4096);
    }
}
