//! Seeded input generators. Everything the program under test sees is
//! generated here from `--seed`; the same seed gives the same inputs.

use hpc_workloads::{splitmix64, Zipfian};

/// Key width: `user` + 12 decimal digits (the YCSB shape the serving
/// workload in `hpc-workloads` uses).
pub const KEY_BYTES: usize = 16;

/// Prime, so coprime to the key count (a unit test walks the whole key
/// space) and `rank * SCATTER % keys` is a bijection: zipfian rank 0 (the hottest
/// item) lands on an arbitrary key instead of key 0, and hot keys do
/// not share index cache lines just because they are hot.
const SCATTER: u64 = 0x9E37_79B1;

/// A kv operation drawn from the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Point read of key `0`.
    Read(u64),
    /// Blind overwrite of key `0`.
    Upsert(u64),
}

/// Closed-loop YCSB-style operation stream: zipfian key popularity,
/// fixed read/upsert split.
pub struct OpStream {
    zipf: Zipfian,
    rng: u64,
    keys: u64,
    read_pct: u64,
}

impl OpStream {
    /// A stream over `keys` keys with zipfian skew `theta` issuing
    /// `read_pct` percent reads and upserts otherwise.
    pub fn new(seed: u64, keys: u64, theta: f64, read_pct: u64) -> Self {
        let mut state = seed ^ 0x6b76_5f6f_7073; // "kv_ops"
        OpStream {
            zipf: Zipfian::new(keys, theta),
            rng: splitmix64(&mut state),
            keys,
            read_pct,
        }
    }

    /// Draw the next operation.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let key = (self.zipf.next(&mut self.rng) * SCATTER) % self.keys;
        if splitmix64(&mut self.rng) % 100 < self.read_pct {
            Op::Read(key)
        } else {
            Op::Upsert(key)
        }
    }
}

/// Fixed-width key bytes for key id `id`.
#[inline]
pub fn fill_key(buf: &mut [u8; KEY_BYTES], id: u64) {
    buf[..4].copy_from_slice(b"user");
    let mut x = id;
    for b in buf[4..].iter_mut().rev() {
        *b = b'0' + (x % 10) as u8;
        x /= 10;
    }
}

/// Fill `buf` with the value of `key` at `version`: the two stamps in
/// the first 16 bytes, then a splitmix64 stream keyed by both. A read
/// can check the stamps in two loads; the recovery oracle regenerates
/// the whole value.
#[inline]
pub fn fill_value(buf: &mut [u8], seed: u64, key: u64, version: u64) {
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..16].copy_from_slice(&version.to_le_bytes());
    let mut state = seed ^ key.wrapping_mul(SCATTER) ^ version.rotate_left(32);
    fill_bytes(&mut buf[16..], &mut state);
}

/// Fill `buf` from a splitmix64 stream, advancing `state`.
pub fn fill_bytes(buf: &mut [u8], state: &mut u64) {
    let mut words = buf.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&splitmix64(state).to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = splitmix64(state).to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Stream state for chunk `chunk`'s payload at `epoch` under `seed`.
pub fn payload_state(seed: u64, chunk: u64, epoch: u64) -> u64 {
    seed ^ (chunk << 40) ^ (epoch << 8) ^ 0x7374_6f72 // "stor"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Digest of the first `ops` operations of a stream plus its
    /// read/upsert counts: `(hash, reads, upserts)`.
    fn stream_digest(stream: &mut OpStream, ops: u64) -> (u64, u64, u64) {
        let (mut hash, mut reads, mut upserts) = (0xcbf2_9ce4_8422_2325u64, 0, 0);
        for _ in 0..ops {
            let word = match stream.next_op() {
                Op::Read(k) => {
                    reads += 1;
                    k << 1
                }
                Op::Upsert(k) => {
                    upserts += 1;
                    k << 1 | 1
                }
            };
            hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash, reads, upserts)
    }

    #[test]
    fn same_seed_gives_the_same_stream_and_counts() {
        let digest = |seed| stream_digest(&mut OpStream::new(seed, 100_000, 0.99, 50), 20_000);
        let (a, b, c) = (digest(1), digest(1), digest(2));
        assert_eq!(a, b, "same seed must replay exactly");
        assert_ne!(a.0, c.0, "another seed must give another stream");
        assert_eq!(a.1 + a.2, 20_000);
        // A 50/50 mix stays near 50/50.
        assert!((9_000..11_000).contains(&a.1), "reads = {}", a.1);
    }

    #[test]
    fn scatter_is_a_bijection_on_the_key_space() {
        let keys = 100_000u64;
        let mut seen = vec![false; keys as usize];
        for rank in 0..keys {
            seen[((rank * SCATTER) % keys) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn values_carry_their_stamps_and_differ_by_version() {
        let (mut a, mut b) = ([0u8; 128], [0u8; 128]);
        fill_value(&mut a, 9, 42, 1);
        fill_value(&mut b, 9, 42, 2);
        assert_eq!(a[..8], 42u64.to_le_bytes());
        assert_eq!(a[8..16], 1u64.to_le_bytes());
        assert_ne!(a[16..], b[16..]);
        let mut again = [0u8; 128];
        fill_value(&mut again, 9, 42, 1);
        assert_eq!(a, again);
    }

    #[test]
    fn keys_are_fixed_width_decimal() {
        let mut k = [0u8; KEY_BYTES];
        fill_key(&mut k, 1234);
        assert_eq!(&k, b"user000000001234");
    }

    #[test]
    fn fill_bytes_handles_a_ragged_tail() {
        let (mut s1, mut s2) = (5u64, 5u64);
        let (mut a, mut b) = ([0u8; 13], [0u8; 13]);
        fill_bytes(&mut a, &mut s1);
        fill_bytes(&mut b, &mut s2);
        assert_eq!(a, b);
        assert_ne!(a, [0u8; 13]);
    }
}
