//! Recovery-side transfer orchestration.
//!
//! A hard node failure is survived by pulling the failed ranks' chunk
//! images back from the buddy node's [`RemoteStore`] over the
//! interconnect. Real recovery traffic is not the happy path: the
//! fabric is being drained of a dead node, so transfers time out and
//! are retried. This module models that with a deterministic
//! [`FaultModel`] (a pure hash of seed/rank/chunk/attempt decides
//! which attempts are lost — no RNG state, so outcomes are identical
//! at any thread count) and a [`RetryPolicy`] charging timeout +
//! exponential backoff for every lost attempt.

use crate::armci::{RemoteError, RemoteStore};
use crate::link::Link;
use nvm_emu::{SimDuration, SimTime};
use nvm_paging::ChunkId;

/// Retry/timeout/backoff parameters for recovery transfers.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts before the fetch is abandoned (>= 1).
    pub max_attempts: u32,
    /// Backoff after the first lost attempt; doubles per further loss.
    pub base_backoff: SimDuration,
    /// Time a lost transfer burns before the loss is detected.
    pub timeout: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(10),
            timeout: SimDuration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// Time charged for the `attempt`-th (1-based) lost attempt:
    /// detection timeout plus exponential backoff.
    pub fn lost_attempt_cost(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(16);
        self.timeout + SimDuration::from_nanos(self.base_backoff.as_nanos() << shift)
    }
}

/// Deterministic link-fault injection for recovery transfers: whether
/// an attempt is lost is a pure function of `(seed, rank, chunk,
/// attempt)`, so the same schedule of losses plays out regardless of
/// execution order or thread count.
#[derive(Clone, Copy, Debug)]
pub struct FaultModel {
    seed: u64,
    loss_ppm: u32,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultModel {
    /// Faults with probability `loss_ppm` / 1,000,000 per attempt.
    pub fn new(seed: u64, loss_ppm: u32) -> Self {
        FaultModel {
            seed,
            loss_ppm: loss_ppm.min(1_000_000),
        }
    }

    /// A lossless fabric: every attempt succeeds.
    pub fn reliable() -> Self {
        FaultModel {
            seed: 0,
            loss_ppm: 0,
        }
    }

    /// True if the `attempt`-th (1-based) transfer of `(rank, chunk)`
    /// is lost.
    pub fn drops(&self, rank: u64, chunk: ChunkId, attempt: u32) -> bool {
        if self.loss_ppm == 0 {
            return false;
        }
        let h = splitmix64(
            self.seed
                ^ splitmix64(rank)
                ^ splitmix64(chunk.0.rotate_left(17))
                ^ splitmix64(u64::from(attempt).rotate_left(41)),
        );
        (h % 1_000_000) < u64::from(self.loss_ppm)
    }
}

/// Result of one chunk's recovery fetch.
#[derive(Clone, Debug)]
pub struct FetchOutcome {
    /// The committed chunk bytes.
    pub data: Vec<u8>,
    /// Total virtual time: lost attempts (timeout + backoff) plus the
    /// successful attempt's remote read + wire transfer.
    pub duration: SimDuration,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
}

/// Fetch one committed chunk from `store` across `link`, retrying
/// lost transfers per `policy`/`faults`. The wire transfer of the
/// successful attempt is recorded on `link` starting at `now` plus
/// the time the lost attempts burned.
pub fn fetch_with_retry(
    store: &RemoteStore,
    link: &mut Link,
    now: SimTime,
    rank: u64,
    chunk: ChunkId,
    policy: &RetryPolicy,
    faults: &FaultModel,
) -> Result<FetchOutcome, RemoteError> {
    let mut elapsed = SimDuration::ZERO;
    for attempt in 1..=policy.max_attempts.max(1) {
        if faults.drops(rank, chunk, attempt) {
            elapsed += policy.lost_attempt_cost(attempt);
            continue;
        }
        let (data, read_cost) = store.fetch(rank, chunk)?;
        let wire = link.transfer(now + elapsed, data.len() as u64, 1);
        return Ok(FetchOutcome {
            duration: elapsed + read_cost + wire,
            attempts: attempt,
            data,
        });
    }
    Err(RemoteError::RetriesExhausted {
        key: (rank, chunk),
        attempts: policy.max_attempts.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_emu::MemoryDevice;

    const MB: usize = 1 << 20;

    fn store_with(rank: u64, chunk: ChunkId, data: &[u8]) -> RemoteStore {
        let mut s = RemoteStore::new(&MemoryDevice::pcm(64 * MB), true);
        s.put(rank, chunk, data).unwrap();
        s.commit_rank(rank, 0);
        s
    }

    #[test]
    fn clean_fabric_fetches_first_try() {
        let s = store_with(0, ChunkId(1), &[9u8; 4096]);
        let mut link = Link::new(1e9);
        let out = fetch_with_retry(
            &s,
            &mut link,
            SimTime::ZERO,
            0,
            ChunkId(1),
            &RetryPolicy::default(),
            &FaultModel::reliable(),
        )
        .unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.data, vec![9u8; 4096]);
        assert!(!out.duration.is_zero());
        assert_eq!(link.stats().transfers, 1);
    }

    #[test]
    fn lossy_fabric_retries_and_charges_backoff() {
        let s = store_with(0, ChunkId(1), &[3u8; 4096]);
        // 50% loss: over many chunks some first attempts must be lost.
        let faults = FaultModel::new(42, 500_000);
        let policy = RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        };
        let mut saw_retry = false;
        for probe in 0..64u64 {
            if faults.drops(0, ChunkId(probe), 1) {
                saw_retry = true;
            }
        }
        assert!(saw_retry, "a 50% fault model must drop something");

        // Find a chunk whose first attempt is dropped and verify the
        // retry path charges strictly more time than a clean fetch.
        let dropped = (0..64u64)
            .map(ChunkId)
            .find(|c| faults.drops(0, *c, 1))
            .unwrap();
        let s2 = store_with(0, dropped, &[3u8; 4096]);
        let mut link = Link::new(1e9);
        let lossy =
            fetch_with_retry(&s2, &mut link, SimTime::ZERO, 0, dropped, &policy, &faults).unwrap();
        assert!(lossy.attempts > 1);
        let mut clean_link = Link::new(1e9);
        let clean = fetch_with_retry(
            &s,
            &mut clean_link,
            SimTime::ZERO,
            0,
            ChunkId(1),
            &policy,
            &FaultModel::reliable(),
        )
        .unwrap();
        assert!(lossy.duration > clean.duration + RetryPolicy::default().timeout);
    }

    #[test]
    fn total_loss_exhausts_retries_with_typed_error() {
        let s = store_with(0, ChunkId(1), &[1u8; 128]);
        let mut link = Link::new(1e9);
        let err = fetch_with_retry(
            &s,
            &mut link,
            SimTime::ZERO,
            0,
            ChunkId(1),
            &RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            &FaultModel::new(7, 1_000_000),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                RemoteError::RetriesExhausted {
                    key: (0, ChunkId(1)),
                    attempts: 3,
                }
            ),
            "{err}"
        );
        assert_eq!(link.stats().transfers, 0, "lost attempts never arrive");
    }

    #[test]
    fn fault_model_is_a_pure_function() {
        let f = FaultModel::new(11, 20_000);
        for attempt in 1..=8 {
            assert_eq!(
                f.drops(3, ChunkId(5), attempt),
                f.drops(3, ChunkId(5), attempt)
            );
        }
        // ~2% loss: out of 10,000 probes roughly 200 drop.
        let drops = (0..10_000u64)
            .filter(|i| f.drops(i % 16, ChunkId(i / 16), 1))
            .count();
        assert!((100..400).contains(&drops), "drops={drops}");
    }
}
