//! MPI collective cost model (alpha-beta).
//!
//! The paper's applications are MPI codes whose communication is
//! dominated by collectives (GTC: field-solve allreduces and particle
//! alltoalls; LAMMPS/CM1: halo exchanges plus small reductions).
//! Checkpoint traffic on the interconnect slows the *bandwidth* term
//! of every collective round, and because collectives run in
//! `O(log p)` or `O(p)` rounds, a contended link delays each round —
//! this is the interference mechanism behind the paper's
//! `alpha_comm` term (and the ~22% slowdowns it cites from Zheng et
//! al.).
//!
//! Costs follow the standard alpha-beta (latency-bandwidth) model with
//! the usual algorithm choices: binomial broadcast, Rabenseifner
//! allreduce, pairwise alltoall.

use nvm_emu::SimDuration;
use serde::{Deserialize, Serialize};

/// Latency/bandwidth parameters of the fabric as seen by MPI.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaBeta {
    /// Per-message latency (injection + switch traversal).
    pub alpha: SimDuration,
    /// Effective point-to-point bandwidth, bytes/s.
    pub bandwidth: f64,
}

impl AlphaBeta {
    /// Typical QDR InfiniBand MPI parameters: ~2 µs latency, the
    /// payload bandwidth of the link.
    pub fn infiniband(bandwidth: f64) -> Self {
        AlphaBeta {
            alpha: SimDuration::from_micros(2),
            bandwidth,
        }
    }

    /// This fabric with part of its bandwidth consumed by checkpoint
    /// traffic at `ckpt_rate` bytes/s (floored at 10% of the link so
    /// the application never fully starves).
    pub fn contended(&self, ckpt_rate: f64) -> Self {
        AlphaBeta {
            alpha: self.alpha,
            bandwidth: (self.bandwidth - ckpt_rate).max(self.bandwidth * 0.1),
        }
    }
}

/// Communication operations a workload performs per iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Collective {
    /// Nearest-neighbor (halo) exchange: each rank sends/receives
    /// `bytes` with a constant number of neighbors.
    Halo {
        /// Neighbors exchanged with (6 for a 3-D stencil).
        neighbors: u32,
    },
    /// Reduction to all ranks (Rabenseifner: reduce-scatter +
    /// allgather).
    AllReduce,
    /// Personalized all-to-all (pairwise exchange).
    AllToAll,
    /// One-to-all broadcast (binomial tree).
    Broadcast,
}

impl Collective {
    /// Short lowercase name, used to label trace events.
    pub fn name(&self) -> &'static str {
        match self {
            Collective::Halo { .. } => "halo",
            Collective::AllReduce => "allreduce",
            Collective::AllToAll => "alltoall",
            Collective::Broadcast => "broadcast",
        }
    }

    /// Time for one collective moving `bytes` per rank among `p`
    /// ranks under fabric `ab`.
    pub fn time(&self, bytes: u64, p: usize, ab: &AlphaBeta) -> SimDuration {
        let p = p.max(2);
        let logp = (usize::BITS - (p - 1).leading_zeros()) as u64; // ceil log2
        let byte_time = |b: u64| SimDuration::for_transfer(b, ab.bandwidth);
        match self {
            Collective::Halo { neighbors } => {
                // Neighbor exchanges proceed concurrently in a few
                // phases (3 for a 6-neighbor stencil: +/- per axis).
                let phases = (*neighbors as u64).div_ceil(2);
                (ab.alpha + byte_time(bytes)) * phases
            }
            Collective::AllReduce => {
                // Rabenseifner: 2 log p latency, 2 (p-1)/p n bandwidth.
                ab.alpha * (2 * logp) + byte_time(2 * bytes * (p as u64 - 1) / p as u64)
            }
            Collective::AllToAll => {
                // Pairwise: p-1 rounds of n/p each.
                (ab.alpha + byte_time(bytes / p as u64)) * (p as u64 - 1)
            }
            Collective::Broadcast => (ab.alpha + byte_time(bytes)) * logp,
        }
    }

    /// Extra time this collective suffers when checkpoint traffic runs
    /// at `ckpt_rate` on the same links.
    pub fn contention_delay(
        &self,
        bytes: u64,
        p: usize,
        ab: &AlphaBeta,
        ckpt_rate: f64,
    ) -> SimDuration {
        if ckpt_rate <= 0.0 {
            return SimDuration::ZERO;
        }
        let clean = self.time(bytes, p, ab);
        let contended = self.time(bytes, p, &ab.contended(ckpt_rate));
        contended.saturating_sub(clean)
    }
}

/// A workload's per-iteration communication pattern.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CommPattern {
    /// Operations performed each iteration: `(collective, bytes)`.
    pub ops: Vec<(Collective, u64)>,
}

impl CommPattern {
    /// No communication.
    pub fn none() -> Self {
        Self::default()
    }

    /// A 3-D stencil halo exchange of `bytes` per face.
    pub fn stencil(bytes: u64) -> Self {
        CommPattern {
            ops: vec![(Collective::Halo { neighbors: 6 }, bytes)],
        }
    }

    /// GTC-like: particle shift alltoall plus field-solve allreduce.
    pub fn gtc(shift_bytes: u64, field_bytes: u64) -> Self {
        CommPattern {
            ops: vec![
                (Collective::AllToAll, shift_bytes),
                (Collective::AllReduce, field_bytes),
            ],
        }
    }

    /// MD-like: halo exchange plus a small global reduction.
    pub fn md(halo_bytes: u64) -> Self {
        CommPattern {
            ops: vec![
                (Collective::Halo { neighbors: 6 }, halo_bytes),
                (Collective::AllReduce, 4096),
            ],
        }
    }

    /// Total time of the pattern among `p` ranks on fabric `ab`.
    pub fn time(&self, p: usize, ab: &AlphaBeta) -> SimDuration {
        self.ops
            .iter()
            .fold(SimDuration::ZERO, |acc, (c, b)| acc + c.time(*b, p, ab))
    }

    /// Total contention delay at a checkpoint rate.
    pub fn contention_delay(&self, p: usize, ab: &AlphaBeta, ckpt_rate: f64) -> SimDuration {
        self.ops.iter().fold(SimDuration::ZERO, |acc, (c, b)| {
            acc + c.contention_delay(*b, p, ab, ckpt_rate)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> AlphaBeta {
        AlphaBeta::infiniband(4.0e9)
    }

    #[test]
    fn halo_scales_with_phases_not_ranks() {
        let t16 = Collective::Halo { neighbors: 6 }.time(1 << 20, 16, &ab());
        let t256 = Collective::Halo { neighbors: 6 }.time(1 << 20, 256, &ab());
        assert_eq!(t16, t256, "halo cost is rank-count independent");
        let t2n = Collective::Halo { neighbors: 2 }.time(1 << 20, 16, &ab());
        assert!(t2n < t16);
    }

    #[test]
    fn allreduce_grows_logarithmically_in_latency() {
        // Tiny payload isolates the alpha term.
        let t4 = Collective::AllReduce.time(8, 4, &ab());
        let t64 = Collective::AllReduce.time(8, 64, &ab());
        let t1024 = Collective::AllReduce.time(8, 1024, &ab());
        assert!(t64 > t4);
        // log grows by equal steps: 2->6->10 alphas roughly.
        let d1 = t64.as_nanos() - t4.as_nanos();
        let d2 = t1024.as_nanos() - t64.as_nanos();
        assert!((d1 as i64 - d2 as i64).abs() < d1 as i64 / 2);
    }

    #[test]
    fn alltoall_latency_rounds_dominate_small_payloads() {
        // Small payload isolates per-round latency: p-1 pairwise
        // rounds beat 2 log p rounds by a wide margin.
        let bytes = 64 << 10;
        let p = 96;
        let a2a = Collective::AllToAll.time(bytes, p, &ab());
        let ar = Collective::AllReduce.time(bytes, p, &ab());
        let bc = Collective::Broadcast.time(bytes, p, &ab());
        assert!(a2a > ar, "alltoall {a2a} vs allreduce {ar}");
        assert!(ar > SimDuration::ZERO && bc > SimDuration::ZERO);
        // Large payloads: allreduce's 2n bandwidth term takes over.
        let big = 64 << 20;
        assert!(
            Collective::AllReduce.time(big, p, &ab()) > Collective::AllToAll.time(big, p, &ab())
        );
    }

    #[test]
    fn contention_scales_with_wire_volume_and_rate() {
        // Allreduce moves ~2n on the wire vs n for one halo phase, so
        // its contention delay is ~2x at equal payload.
        let bytes = 8 << 20;
        let p = 48;
        let rate = 2.0e9; // checkpoint burst takes half the link
        let halo = Collective::Halo { neighbors: 2 }.contention_delay(bytes, p, &ab(), rate);
        let ar = Collective::AllReduce.contention_delay(bytes, p, &ab(), rate);
        let ratio = ar.as_secs_f64() / halo.as_secs_f64();
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
        // Delay grows with the checkpoint rate.
        let harder = Collective::AllReduce.contention_delay(bytes, p, &ab(), 3.0e9);
        assert!(harder > ar);
        // No checkpoint traffic, no delay.
        assert_eq!(
            Collective::AllToAll.contention_delay(bytes, p, &ab(), 0.0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn bandwidth_floor_prevents_starvation() {
        let f = ab().contended(1e18);
        assert!(f.bandwidth >= ab().bandwidth * 0.1);
    }

    #[test]
    fn patterns_compose() {
        let p = CommPattern::gtc(16 << 20, 4 << 20);
        assert_eq!(p.ops.len(), 2);
        assert_eq!(p.ops[0].1 + p.ops[1].1, (16 << 20) + (4 << 20));
        let t = p.time(48, &ab());
        let d = p.contention_delay(48, &ab(), 2.0e9);
        assert!(t > SimDuration::ZERO);
        assert!(d > SimDuration::ZERO && d < t * 20);
        assert_eq!(CommPattern::none().time(48, &ab()), SimDuration::ZERO);
        assert!(CommPattern::stencil(1 << 20).ops[0].1 == 1 << 20);
        assert!(CommPattern::md(1 << 20).ops.len() == 2);
    }
}
