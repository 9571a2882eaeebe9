//! Failure injection.
//!
//! Failures arrive as two independent Poisson processes — soft
//! (locally recoverable: process crash, OS reboot; ~64% of failures on
//! ASCI Q per the paper) and hard (node unusable, remote recovery
//! required). Schedules are generated ahead of time from a seed so
//! every policy under comparison faces the *same* failure sequence.

use nvm_emu::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};

/// Failure classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// Recoverable from node-local NVM (soft error, process restart).
    Soft,
    /// Node lost; recovery needs the buddy node's remote copy.
    Hard,
}

/// One scheduled failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// When the failure strikes.
    pub at: SimTime,
    /// Soft or hard.
    pub kind: FailureKind,
    /// Which node it strikes.
    pub node: usize,
}

/// Failure model parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureConfig {
    /// RNG seed (same seed -> same schedule).
    pub seed: u64,
    /// Mean time between soft failures, per node.
    pub mtbf_soft: SimDuration,
    /// Mean time between hard failures, per node.
    pub mtbf_hard: SimDuration,
}

/// A pre-generated, time-ordered failure schedule.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation used
/// to derive independent per-stream RNG seeds from one run seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed of one (node, kind) Poisson stream: the run seed mixed with
/// the stream index. Every stream draws from its own RNG, so a node's
/// schedule never depends on how many events *other* nodes drew — the
/// schedule is stable when the cluster is resized or the horizon of a
/// different stream changes.
fn stream_seed(seed: u64, node: usize, kind: FailureKind) -> u64 {
    let kind_ix = match kind {
        FailureKind::Soft => 0u64,
        FailureKind::Hard => 1u64,
    };
    splitmix64(seed ^ splitmix64((node as u64) * 2 + kind_ix))
}

impl FailureSchedule {
    /// An empty schedule (failure-free run).
    pub fn none() -> Self {
        Self::default()
    }

    /// Generate a schedule covering `[0, horizon)` for `nodes` nodes.
    /// Each (node, kind) pair samples an independent sub-seeded RNG,
    /// so node 0's events at `nodes = 2` are identical to its events
    /// at `nodes = 8` on the same seed.
    pub fn generate(cfg: &FailureConfig, horizon: SimTime, nodes: usize) -> Self {
        let mut events = Vec::new();
        for node in 0..nodes {
            for (kind, mtbf) in [
                (FailureKind::Soft, cfg.mtbf_soft),
                (FailureKind::Hard, cfg.mtbf_hard),
            ] {
                let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, node, kind));
                let rate = 1.0 / mtbf.as_secs_f64();
                let exp = Exp::new(rate).expect("positive rate");
                let mut t = 0.0;
                loop {
                    t += exp.sample(&mut rng);
                    let at = SimTime::from_secs_f64(t);
                    if at >= horizon {
                        break;
                    }
                    events.push(FailureEvent { at, kind, node });
                }
            }
        }
        Self::from_events(events)
    }

    /// Build a schedule from explicit events (scripted failure
    /// scenarios, regression tests). Events are sorted into time order
    /// with `(node, kind)` tie-breaks, matching what
    /// [`FailureSchedule::generate`] produces.
    pub fn from_events(mut events: Vec<FailureEvent>) -> Self {
        events.sort_by_key(|e| (e.at, e.node, e.kind == FailureKind::Hard));
        FailureSchedule { events }
    }

    /// All events, time-ordered.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no failures are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Pop every event with `at <= now` (they have struck).
    pub fn drain_due(&mut self, now: SimTime) -> Vec<FailureEvent> {
        let split = self.events.partition_point(|e| e.at <= now);
        self.events.drain(..split).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> FailureConfig {
        FailureConfig {
            seed,
            mtbf_soft: SimDuration::from_secs(100),
            mtbf_hard: SimDuration::from_secs(1000),
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let horizon = SimTime::from_secs(10_000);
        let a = FailureSchedule::generate(&cfg(7), horizon, 4);
        let b = FailureSchedule::generate(&cfg(7), horizon, 4);
        assert_eq!(a, b);
        let c = FailureSchedule::generate(&cfg(8), horizon, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn node_schedules_stable_under_cluster_resize() {
        // The regression this pins: one sequential RNG across nodes
        // meant node 0's draws shifted whenever the cluster grew. With
        // per-(node, kind) sub-seeds, a node's events are a function of
        // (seed, node) alone.
        let horizon = SimTime::from_secs(10_000);
        let small = FailureSchedule::generate(&cfg(7), horizon, 2);
        let big = FailureSchedule::generate(&cfg(7), horizon, 8);
        for node in 0..2 {
            let a: Vec<FailureEvent> = small
                .events()
                .iter()
                .filter(|e| e.node == node)
                .copied()
                .collect();
            let b: Vec<FailureEvent> = big
                .events()
                .iter()
                .filter(|e| e.node == node)
                .copied()
                .collect();
            assert!(!a.is_empty(), "node {node} drew no events");
            assert_eq!(a, b, "node {node} schedule changed with cluster size");
        }
    }

    #[test]
    fn from_events_sorts_into_time_order() {
        let ev = |secs: u64, kind, node| FailureEvent {
            at: SimTime::from_secs(secs),
            kind,
            node,
        };
        let s = FailureSchedule::from_events(vec![
            ev(30, FailureKind::Hard, 1),
            ev(10, FailureKind::Soft, 0),
            ev(10, FailureKind::Hard, 0),
        ]);
        let times: Vec<u64> = s.events().iter().map(|e| e.at.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Same-time tie-break: soft before hard on the same node.
        assert_eq!(s.events()[0].kind, FailureKind::Soft);
        assert_eq!(s.events()[1].kind, FailureKind::Hard);
    }

    #[test]
    fn event_counts_match_mtbf_roughly() {
        // 10,000 s, MTBF_soft 100 s -> ~100 soft events per node.
        let s = FailureSchedule::generate(&cfg(42), SimTime::from_secs(10_000), 1);
        let soft = s
            .events()
            .iter()
            .filter(|e| e.kind == FailureKind::Soft)
            .count();
        let hard = s.len() - soft;
        assert!((60..=140).contains(&soft), "soft={soft}");
        assert!((3..=25).contains(&hard), "hard={hard}");
        assert!(soft > hard, "soft errors dominate (the ASCI-Q finding)");
    }

    #[test]
    fn events_are_time_ordered_and_within_horizon() {
        let horizon = SimTime::from_secs(5000);
        let s = FailureSchedule::generate(&cfg(1), horizon, 8);
        let mut prev = SimTime::ZERO;
        for e in s.events() {
            assert!(e.at >= prev);
            assert!(e.at < horizon);
            assert!(e.node < 8);
            prev = e.at;
        }
    }

    #[test]
    fn drain_due_pops_in_order() {
        let mut s = FailureSchedule::generate(&cfg(3), SimTime::from_secs(2000), 2);
        let total = s.len();
        let early = s.drain_due(SimTime::from_secs(500));
        assert!(early.iter().all(|e| e.at <= SimTime::from_secs(500)));
        let rest = s.drain_due(SimTime::from_secs(2000));
        assert!(rest.iter().all(|e| e.at > SimTime::from_secs(500)));
        assert_eq!(early.len() + rest.len(), total);
        assert!(s.is_empty());
    }

    #[test]
    fn none_schedule_is_empty() {
        assert!(FailureSchedule::none().is_empty());
    }
}
