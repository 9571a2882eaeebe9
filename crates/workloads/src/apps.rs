//! Synthetic GTC, LAMMPS and CM1 mini-apps.
//!
//! Each app is a [`Workload`] whose checkpoint set follows its Table-IV
//! chunk-size profile and whose *modification patterns* follow the
//! paper's characterization:
//!
//! * **GTC** — 2-D particle arrays rewritten every iteration, plus a
//!   few huge arrays written only during initialization (the reason
//!   pre-copy *reduces* GTC's checkpointed volume in Fig. 8);
//! * **LAMMPS (Rhodo)** — chunks touched across different stages,
//!   including a hot 3-D position array modified until the end of
//!   every iteration (the DCPCP motivation, Fig. 6);
//! * **CM1** — mostly sub-megabyte and mid-size chunks rewritten each
//!   iteration; with so few >100 MB chunks, pre-copy buys <5%.

use crate::chunks::{
    default_count, generate_profile_scaled, ChunkDistribution, ChunkSpec, SizeBucket,
};
use cluster_sim::{CommPattern, Workload};
use nvm_chkpt::{CheckpointEngine, EngineError};
use nvm_emu::SimDuration;
use nvm_paging::ChunkId;

const MB: usize = 1 << 20;

/// When/how often a chunk is modified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModPattern {
    /// Written once, during application initialization.
    InitOnly,
    /// Rewritten once early in every iteration.
    EveryIteration,
    /// A *hot chunk*: written `writes` times across the iteration,
    /// the last write landing at the iteration's very end.
    Hot {
        /// Writes per iteration.
        writes: u32,
    },
    /// Rewritten every `every`-th iteration.
    Periodic {
        /// Iteration period.
        every: u64,
    },
}

struct AppChunk {
    spec: ChunkSpec,
    pattern: ModPattern,
    id: Option<ChunkId>,
}

/// A synthetic application rank.
pub struct SyntheticApp {
    name: String,
    chunks: Vec<AppChunk>,
    compute_per_iter: SimDuration,
    comm_bytes: u64,
    /// Reusable write-schedule buffer so `iterate` allocates nothing
    /// after the first iteration.
    schedule_scratch: Vec<(f64, usize)>,
}

impl SyntheticApp {
    fn new(
        name: &str,
        specs: Vec<ChunkSpec>,
        assign: impl Fn(usize, &ChunkSpec) -> ModPattern,
        compute_per_iter: SimDuration,
        comm_bytes: u64,
    ) -> Self {
        let chunks = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| AppChunk {
                pattern: assign(i, &spec),
                spec,
                id: None,
            })
            .collect();
        SyntheticApp {
            name: name.to_string(),
            chunks,
            compute_per_iter,
            comm_bytes,
            schedule_scratch: Vec::new(),
        }
    }

    /// GTC at the paper's scale: ~433 MB checkpoint per core.
    pub fn gtc() -> Self {
        Self::gtc_scaled(1.0)
    }

    /// GTC with checkpoint size scaled by `scale` (tests use < 1).
    pub fn gtc_scaled(scale: f64) -> Self {
        let specs = generate_profile_scaled(
            "gtc",
            &ChunkDistribution::gtc(),
            default_count("gtc"),
            433 * MB,
            scale,
        );
        let mut app = Self::new(
            "gtc",
            specs,
            |_, _| ModPattern::EveryIteration,
            SimDuration::from_secs(10),
            16 * MB as u64,
        );
        // Alternate: ~half the huge arrays are init-only ("few large
        // chunks are modified only once, during application
        // initiation").
        let mut huge_idx = 0;
        for c in app.chunks.iter_mut() {
            if c.spec.bucket == SizeBucket::Huge {
                if huge_idx % 2 == 0 {
                    c.pattern = ModPattern::InitOnly;
                }
                huge_idx += 1;
            }
        }
        app
    }

    /// LAMMPS Rhodo(-Spin): ~410 MB per core, 31 chunks.
    pub fn lammps() -> Self {
        Self::lammps_scaled(1.0)
    }

    /// LAMMPS with checkpoint size scaled by `scale`.
    pub fn lammps_scaled(scale: f64) -> Self {
        let specs = generate_profile_scaled(
            "lammps",
            &ChunkDistribution::lammps(),
            default_count("lammps"),
            410 * MB,
            scale,
        );
        let mut app = Self::new(
            "lammps",
            specs,
            |_, _| ModPattern::EveryIteration,
            SimDuration::from_secs(10),
            8 * MB as u64,
        );
        // The hot 3-D result array: the largest chunk, modified three
        // times per iteration, last time at the iteration end.
        if let Some(hot) = app.chunks.iter_mut().max_by_key(|c| c.spec.bytes) {
            hot.pattern = ModPattern::Hot { writes: 3 };
        }
        // A couple of small per-run constant tables.
        let mut small_idx = 0;
        for c in app.chunks.iter_mut() {
            if c.spec.bucket == SizeBucket::Small {
                if small_idx < 3 {
                    c.pattern = ModPattern::InitOnly;
                }
                small_idx += 1;
            }
        }
        app
    }

    /// CM1 3-D hurricane simulation: ~400 MB per core.
    pub fn cm1() -> Self {
        Self::cm1_scaled(1.0)
    }

    /// CM1 with checkpoint size scaled by `scale`.
    pub fn cm1_scaled(scale: f64) -> Self {
        let specs = generate_profile_scaled(
            "cm1",
            &ChunkDistribution::cm1(),
            default_count("cm1"),
            400 * MB,
            scale,
        );
        let mut app = Self::new(
            "cm1",
            specs,
            |_, _| ModPattern::EveryIteration,
            SimDuration::from_secs(10),
            4 * MB as u64,
        );
        // CM1's checkpoint variables are the prognostic state arrays
        // (u, v, w, theta, pressure, ...) that the time integrator
        // *finalizes at the end of each timestep*: they keep changing
        // until the iteration completes, so pre-copy cannot stage them
        // early. This write-timing structure — on top of the Table-IV
        // size profile — is what limits CM1's pre-copy benefit to <5%
        // in the paper.
        for c in app.chunks.iter_mut() {
            if c.spec.bucket == SizeBucket::Large {
                c.pattern = ModPattern::Hot { writes: 2 };
            }
        }
        // A few constant lookup tables.
        let mut small_idx = 0;
        for c in app.chunks.iter_mut() {
            if c.spec.bucket == SizeBucket::Small {
                if small_idx < 5 {
                    c.pattern = ModPattern::InitOnly;
                }
                small_idx += 1;
            }
        }
        app
    }

    /// Override the per-iteration compute time.
    pub fn with_compute(mut self, compute: SimDuration) -> Self {
        self.compute_per_iter = compute;
        self
    }

    /// Write schedule for one iteration: `(fraction_of_iteration,
    /// chunk_index)` events, sorted by fraction.
    #[cfg(test)]
    fn schedule(&self, iter: u64) -> Vec<(f64, usize)> {
        let mut events = Vec::new();
        self.schedule_into(iter, &mut events);
        events
    }

    /// Fill `events` with one iteration's write schedule (cleared
    /// first), reusing its capacity across iterations.
    fn schedule_into(&self, iter: u64, events: &mut Vec<(f64, usize)>) {
        events.clear();
        for (i, c) in self.chunks.iter().enumerate() {
            match c.pattern {
                ModPattern::InitOnly => {
                    if iter == 0 {
                        events.push((0.0, i));
                    }
                }
                ModPattern::EveryIteration => events.push((0.1, i)),
                ModPattern::Hot { writes } => {
                    for w in 0..writes {
                        events.push(((w as f64 + 1.0) / writes as f64, i));
                    }
                }
                ModPattern::Periodic { every } => {
                    if iter % every.max(1) == 0 {
                        events.push((0.1, i));
                    }
                }
            }
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    }
}

impl Workload for SyntheticApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&mut self, engine: &mut CheckpointEngine) -> Result<(), EngineError> {
        for c in self.chunks.iter_mut() {
            let id = engine.nvmalloc(&c.spec.name, c.spec.bytes, true)?;
            c.id = Some(id);
        }
        Ok(())
    }

    fn iterate(&mut self, engine: &mut CheckpointEngine, iter: u64) -> Result<(), EngineError> {
        let mut events = std::mem::take(&mut self.schedule_scratch);
        self.schedule_into(iter, &mut events);
        let mut last_frac = 0.0;
        for &(frac, idx) in &events {
            if frac > last_frac {
                engine.compute(self.compute_per_iter * (frac - last_frac));
                last_frac = frac;
            }
            let c = &self.chunks[idx];
            let id = c.id.expect("setup ran");
            engine.write_synthetic(id, 0, c.spec.bytes)?;
        }
        self.schedule_scratch = events;
        if last_frac < 1.0 {
            engine.compute(self.compute_per_iter * (1.0 - last_frac));
        }
        Ok(())
    }

    fn comm_bytes(&self) -> u64 {
        self.comm_bytes
    }

    fn comm_pattern(&self) -> CommPattern {
        match self.name.as_str() {
            // GTC: particle-shift alltoall + field-solve allreduce.
            "gtc" => CommPattern::gtc(self.comm_bytes * 3 / 4, self.comm_bytes / 4),
            // LAMMPS: halo exchange + small global reductions.
            "lammps" => CommPattern::md(self.comm_bytes),
            // CM1: 3-D stencil halo exchange.
            "cm1" => CommPattern::stencil(self.comm_bytes),
            _ => CommPattern::stencil(self.comm_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_chkpt::{EngineConfig, Materialization, PrecopyPolicy};
    use nvm_emu::{MemoryDevice, VirtualClock};

    fn engine(container: usize) -> (CheckpointEngine, VirtualClock) {
        let dram = MemoryDevice::dram(container * 2 + (64 << 20));
        let nvm = MemoryDevice::pcm(container * 3 + (64 << 20));
        let clock = VirtualClock::new();
        let cfg = EngineConfig::builder()
            .materialization(Materialization::Synthetic)
            .checksums(false)
            .precopy(PrecopyPolicy::Dcpcp)
            .build()
            .unwrap();
        let e = CheckpointEngine::new(0, &dram, &nvm, container, clock.clone(), cfg).unwrap();
        (e, clock)
    }

    #[test]
    fn paper_scale_sizes() {
        let gtc = SyntheticApp::gtc();
        let lammps = SyntheticApp::lammps();
        let cm1 = SyntheticApp::cm1();
        for (app, target_mb) in [(&gtc, 433.0), (&lammps, 410.0), (&cm1, 400.0)] {
            let bytes: usize = app.chunks.iter().map(|c| c.spec.bytes).sum();
            let mb = bytes as f64 / MB as f64;
            assert!(
                (mb / target_mb - 1.0).abs() < 0.35,
                "{} total {mb} MB vs target {target_mb}",
                app.name
            );
        }
        assert_eq!(lammps.chunks.len(), 10);
    }

    #[test]
    fn gtc_has_init_only_huge_chunks() {
        let gtc = SyntheticApp::gtc();
        let init_only_huge = gtc
            .chunks
            .iter()
            .filter(|c| c.spec.bucket == SizeBucket::Huge && c.pattern == ModPattern::InitOnly)
            .count();
        assert!(init_only_huge >= 1, "GTC needs init-only huge arrays");
    }

    #[test]
    fn lammps_hot_chunk_is_the_largest() {
        let l = SyntheticApp::lammps();
        let hot: Vec<_> = l
            .chunks
            .iter()
            .filter(|c| matches!(c.pattern, ModPattern::Hot { .. }))
            .collect();
        assert_eq!(hot.len(), 1);
        let max = l.chunks.iter().map(|c| c.spec.bytes).max().unwrap();
        assert_eq!(hot[0].spec.bytes, max);
    }

    #[test]
    fn iteration_advances_clock_by_compute_time() {
        let mut app = SyntheticApp::cm1_scaled(0.02).with_compute(SimDuration::from_secs(4));
        let (mut e, clock) = engine(64 << 20);
        app.setup(&mut e).unwrap();
        let t0 = clock.now();
        app.iterate(&mut e, 0).unwrap();
        let dt = clock.now().since(t0);
        assert!(dt >= SimDuration::from_secs(4), "dt={dt}");
        assert!(dt < SimDuration::from_secs(8), "dt={dt}");
    }

    #[test]
    fn init_only_chunks_clean_after_first_checkpoint() {
        let mut app = SyntheticApp::gtc_scaled(0.02);
        let (mut e, _clock) = engine(64 << 20);
        app.setup(&mut e).unwrap();
        app.iterate(&mut e, 0).unwrap();
        e.nvchkptall().unwrap();
        app.iterate(&mut e, 1).unwrap();
        let r = e.nvchkptall().unwrap();
        assert!(
            r.skipped_bytes > 0,
            "init-only chunks must be skipped on epoch 1"
        );
    }

    #[test]
    fn hot_chunk_writes_spread_across_iteration() {
        let app = SyntheticApp::lammps_scaled(0.02);
        let sched = app.schedule(1);
        // The hot chunk appears 3 times, once at frac 1.0.
        let hot_idx = app
            .chunks
            .iter()
            .position(|c| matches!(c.pattern, ModPattern::Hot { .. }))
            .unwrap();
        let hot_events: Vec<f64> = sched
            .iter()
            .filter(|(_, i)| *i == hot_idx)
            .map(|(f, _)| *f)
            .collect();
        assert_eq!(hot_events.len(), 3);
        assert_eq!(*hot_events.last().unwrap(), 1.0);
    }

    #[test]
    fn schedule_is_sorted_and_init_only_fires_once() {
        let app = SyntheticApp::gtc_scaled(0.02);
        let s0 = app.schedule(0);
        let s1 = app.schedule(1);
        assert!(s0.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(s1.len() < s0.len(), "init-only events only on iter 0");
    }
}
