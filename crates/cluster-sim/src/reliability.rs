//! Buddy-pair reliability model.
//!
//! Section IV of the paper motivates the remote level with Zheng et
//! al.'s FTC-Charm++ result: "just by adding one more level of
//! checkpointing to a buddy compute node in a different rack, the
//! probability of unrecoverable failure can be as low as **0.000977%**
//! for an MTBF of 20 years per node, 5000 nodes, checkpoint interval
//! of 6 minutes and 1200 hours of application time."
//!
//! A run becomes unrecoverable only when a node *and its buddy* both
//! fail within the same checkpoint interval (the window in which the
//! buddy holds the sole surviving copy). With per-node failure
//! probability `p = interval / MTBF` per interval, `N/2` buddy pairs
//! and `T / interval` intervals:
//!
//! ```text
//! P_unrecoverable ≈ (N/2) * (T/interval) * p^2
//! ```
//!
//! [`unrecoverable_probability`] evaluates the exact survival product
//! (the approximation above is its first-order expansion) and the
//! tests reproduce the 0.000977% figure.

use crate::failure::{FailureConfig, FailureKind, FailureSchedule};
use nvm_emu::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Parameters of the buddy-pair reliability question.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityParams {
    /// Total compute nodes (paired into buddies).
    pub nodes: u64,
    /// Per-node MTBF.
    pub node_mtbf: SimDuration,
    /// Checkpoint interval (the double-failure vulnerability window).
    pub interval: SimDuration,
    /// Application runtime.
    pub runtime: SimDuration,
}

impl ReliabilityParams {
    /// Zheng et al.'s quoted configuration: 20-year node MTBF, 5000
    /// nodes, 6-minute checkpoint interval, 1200 hours of runtime.
    pub fn zheng_ftc_charm() -> Self {
        ReliabilityParams {
            nodes: 5000,
            node_mtbf: SimDuration::from_secs(20 * 365 * 24 * 3600),
            interval: SimDuration::from_secs(6 * 60),
            runtime: SimDuration::from_secs(1200 * 3600),
        }
    }
}

/// Probability one node fails within a single checkpoint interval.
fn per_interval_failure(p: &ReliabilityParams) -> f64 {
    p.interval.as_secs_f64() / p.node_mtbf.as_secs_f64()
}

/// How buddy nodes are wired together.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BuddyTopology {
    /// Disjoint pairs: node `2k` buddies `2k+1` and vice versa — the
    /// paper's framing, `N/2` vulnerable pairs.
    DisjointPairs,
    /// Ring: node `n`'s remote copy lives on node `(n+1) % N` — what
    /// [`crate::Cluster`] builds. Every adjacent pair is
    /// vulnerable, so `N` pairs (1 when `N == 2`, where the ring
    /// degenerates to a single mutual pair).
    Ring,
}

impl BuddyTopology {
    /// Number of buddy pairs whose same-interval double failure is
    /// unrecoverable.
    fn vulnerable_pairs(&self, nodes: u64) -> f64 {
        match self {
            BuddyTopology::DisjointPairs => nodes as f64 / 2.0,
            BuddyTopology::Ring => {
                if nodes == 2 {
                    1.0
                } else {
                    nodes as f64
                }
            }
        }
    }
}

/// Probability the whole run hits at least one unrecoverable
/// (same-interval buddy-pair) double failure. Exact survival product
/// over all pairs and intervals.
pub fn unrecoverable_probability(p: &ReliabilityParams) -> f64 {
    unrecoverable_probability_for(p, BuddyTopology::DisjointPairs)
}

/// [`unrecoverable_probability`] for an explicit buddy topology.
pub fn unrecoverable_probability_for(p: &ReliabilityParams, topology: BuddyTopology) -> f64 {
    let pf = per_interval_failure(p);
    let pairs = topology.vulnerable_pairs(p.nodes);
    let intervals = p.runtime.as_secs_f64() / p.interval.as_secs_f64();
    // Survival: no pair double-fails in any interval.
    let per_pair_interval_survive = 1.0 - pf * pf;
    1.0 - per_pair_interval_survive.powf(pairs * intervals)
}

/// True if `schedule` contains a buddy-pair double hard failure within
/// one checkpoint interval — the condition under which
/// [`crate::Cluster`] declares the run unrecoverable.
pub fn schedule_loses_pair(
    schedule: &FailureSchedule,
    interval: SimDuration,
    nodes: u64,
    topology: BuddyTopology,
) -> bool {
    let interval_ns = interval.as_nanos().max(1);
    // Hard-failed nodes, bucketed by checkpoint interval.
    let mut by_interval: std::collections::BTreeMap<u64, Vec<u64>> =
        std::collections::BTreeMap::new();
    for ev in schedule.events() {
        if ev.kind == FailureKind::Hard {
            by_interval
                .entry(ev.at.as_nanos() / interval_ns)
                .or_default()
                .push(ev.node as u64);
        }
    }
    for hit in by_interval.values() {
        for &n in hit {
            let buddy = match topology {
                BuddyTopology::DisjointPairs => n ^ 1,
                BuddyTopology::Ring => (n + 1) % nodes,
            };
            if buddy != n && buddy < nodes && hit.contains(&buddy) {
                return true;
            }
        }
    }
    false
}

/// Empirical unrecoverable-run rate: generate `trials` independent
/// seeded failure schedules (hard failures only, at the configured
/// node MTBF) and count how many contain a same-interval buddy-pair
/// loss. Validates the analytic model against the exact machinery the
/// simulator uses to inject failures.
pub fn simulated_unrecoverable_rate(
    p: &ReliabilityParams,
    topology: BuddyTopology,
    base_seed: u64,
    trials: u64,
) -> f64 {
    assert!(trials > 0);
    let horizon = SimTime::ZERO + p.runtime;
    let mut lost = 0u64;
    for trial in 0..trials {
        let cfg = FailureConfig {
            seed: base_seed.wrapping_add(trial),
            // Effectively disable the soft stream: only hard failures
            // matter for pair loss. (Not u64::MAX — the schedule still
            // adds durations to sim times.)
            mtbf_soft: SimDuration::from_secs(1_000_000_000),
            mtbf_hard: p.node_mtbf,
        };
        let schedule = FailureSchedule::generate(&cfg, horizon, p.nodes as usize);
        if schedule_loses_pair(&schedule, p.interval, p.nodes, topology) {
            lost += 1;
        }
    }
    lost as f64 / trials as f64
}

/// Expected number of *recoverable* single-node failures over the run
/// (what the local level absorbs).
pub fn expected_failures(p: &ReliabilityParams) -> f64 {
    p.nodes as f64 * p.runtime.as_secs_f64() / p.node_mtbf.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_zhengs_0_000977_percent() {
        let p = ReliabilityParams::zheng_ftc_charm();
        let prob = unrecoverable_probability(&p);
        let percent = prob * 100.0;
        assert!(
            (percent - 0.000977).abs() < 0.00002,
            "expected 0.000977%, got {percent:.6}%"
        );
    }

    #[test]
    fn first_order_approximation_matches_exact() {
        let p = ReliabilityParams::zheng_ftc_charm();
        let pf = per_interval_failure(&p);
        let approx =
            (p.nodes as f64 / 2.0) * (p.runtime.as_secs_f64() / p.interval.as_secs_f64()) * pf * pf;
        let exact = unrecoverable_probability(&p);
        assert!((approx / exact - 1.0).abs() < 1e-3);
    }

    #[test]
    fn shorter_intervals_improve_reliability() {
        let base = ReliabilityParams::zheng_ftc_charm();
        let mut tight = base;
        tight.interval = SimDuration::from_secs(60);
        assert!(unrecoverable_probability(&tight) < unrecoverable_probability(&base));
    }

    #[test]
    fn more_nodes_hurt_linearly() {
        let base = ReliabilityParams::zheng_ftc_charm();
        let mut big = base;
        big.nodes = 50_000;
        let ratio = unrecoverable_probability(&big) / unrecoverable_probability(&base);
        assert!((ratio - 10.0).abs() < 0.1, "ratio {ratio}");
    }

    /// A configuration hot enough that pair losses are common, so an
    /// empirical rate over a few hundred schedules has signal:
    /// `pf = 100/4736 ≈ 0.0211` per interval, 100 intervals, 8 nodes.
    fn hot_params() -> ReliabilityParams {
        ReliabilityParams {
            nodes: 8,
            node_mtbf: SimDuration::from_secs(4736),
            interval: SimDuration::from_secs(100),
            runtime: SimDuration::from_secs(10_000),
        }
    }

    #[test]
    fn ring_topology_counts_all_adjacent_pairs() {
        let p = hot_params();
        assert_eq!(BuddyTopology::Ring.vulnerable_pairs(8), 8.0);
        assert_eq!(BuddyTopology::Ring.vulnerable_pairs(2), 1.0);
        assert_eq!(BuddyTopology::DisjointPairs.vulnerable_pairs(8), 4.0);
        // Twice the pairs ⇒ roughly twice the (small) loss probability.
        let ring = unrecoverable_probability_for(&p, BuddyTopology::Ring);
        let pairs = unrecoverable_probability_for(&p, BuddyTopology::DisjointPairs);
        assert!(ring > pairs);
        assert!((ring / pairs - 2.0).abs() < 0.3, "{ring} vs {pairs}");
    }

    #[test]
    fn schedule_loses_pair_detects_exactly_coincident_buddies() {
        use crate::failure::FailureEvent;
        let ev = |secs: u64, node: usize| FailureEvent {
            at: SimTime::from_secs(secs),
            kind: FailureKind::Hard,
            node,
        };
        let interval = SimDuration::from_secs(100);
        // Nodes 2 and 3 hard-fail in the same 100 s interval: loss in
        // both topologies (ring buddy of 2 is 3; pair buddy of 2 is 3).
        let s = FailureSchedule::from_events(vec![ev(210, 2), ev(260, 3)]);
        assert!(schedule_loses_pair(&s, interval, 8, BuddyTopology::Ring));
        assert!(schedule_loses_pair(
            &s,
            interval,
            8,
            BuddyTopology::DisjointPairs
        ));
        // Nodes 1 and 2: adjacent on the ring, different disjoint pairs.
        let s = FailureSchedule::from_events(vec![ev(210, 1), ev(260, 2)]);
        assert!(schedule_loses_pair(&s, interval, 8, BuddyTopology::Ring));
        assert!(!schedule_loses_pair(
            &s,
            interval,
            8,
            BuddyTopology::DisjointPairs
        ));
        // Same nodes, different intervals: no loss.
        let s = FailureSchedule::from_events(vec![ev(210, 2), ev(350, 3)]);
        assert!(!schedule_loses_pair(&s, interval, 8, BuddyTopology::Ring));
    }

    #[test]
    fn simulation_validates_the_analytic_model() {
        // The acceptance gate: over hundreds of independently seeded
        // schedules, the empirical buddy-pair loss rate must agree with
        // the closed-form survival model within statistical tolerance
        // (2σ of a 300-trial binomial at these rates is ≈ 0.05).
        let p = hot_params();
        for topology in [BuddyTopology::Ring, BuddyTopology::DisjointPairs] {
            let analytic = unrecoverable_probability_for(&p, topology);
            let empirical = simulated_unrecoverable_rate(&p, topology, 0xC0FFEE, 300);
            assert!(
                (empirical - analytic).abs() < 0.08,
                "{topology:?}: analytic {analytic:.3} vs empirical {empirical:.3}"
            );
        }
    }

    #[test]
    fn the_run_sees_many_recoverable_failures() {
        // The same configuration sees ~34 single-node failures over the
        // run — exactly why the local level must be cheap and frequent.
        let p = ReliabilityParams::zheng_ftc_charm();
        let f = expected_failures(&p);
        assert!((30.0..40.0).contains(&f), "expected ~34 failures, got {f}");
    }
}
