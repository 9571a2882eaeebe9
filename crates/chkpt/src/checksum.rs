//! CRC-64 checksums for checkpoint integrity.
//!
//! The paper's optional checksum feature computes a checksum per chunk
//! after every checkpoint and re-verifies it on restart; a mismatch
//! sends the restart component to the remote copy. We use CRC-64/XZ
//! (ECMA-182 polynomial, reflected), computed slice-by-16: sixteen
//! 256-entry tables built at compile time (32 KiB) let the loop fold
//! sixteen input bytes per step with independent lookups instead of
//! one dependent lookup per byte. Safe Rust, one code path on every
//! target, no external dependency.

const POLY: u64 = 0xC96C_5795_D787_0F42; // ECMA-182, reflected

/// Bytes folded per step of the main loop.
const STRIDE: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes, so one
/// 16-byte block is the XOR of one lookup per input byte.
static TABLES: [[u64; 256]; STRIDE] = build_tables();

const fn build_tables() -> [[u64; 256]; STRIDE] {
    let mut t = [[0u64; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
thread_local! {
    /// Bytes fed through [`Crc64::update`] on this thread, so tests can
    /// assert how many checksum passes a code path runs.
    static HASHED_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes checksummed on the calling thread so far (tests only).
#[cfg(test)]
pub(crate) fn hashed_bytes() -> u64 {
    HASHED_BYTES.with(|c| c.get())
}

/// Streaming CRC-64 hasher.
#[derive(Clone, Debug)]
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc64 { state: !0 }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(test)]
        HASHED_BYTES.with(|c| c.set(c.get() + data.len() as u64));
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(STRIDE);
        for block in &mut blocks {
            let (lo, hi) = block.split_at(8);
            let lo = u64::from_le_bytes(lo.try_into().expect("8-byte half")) ^ crc;
            let hi = u64::from_le_bytes(hi.try_into().expect("8-byte half"));
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][((lo >> 24) & 0xFF) as usize]
                ^ t[11][((lo >> 32) & 0xFF) as usize]
                ^ t[10][((lo >> 40) & 0xFF) as usize]
                ^ t[9][((lo >> 48) & 0xFF) as usize]
                ^ t[8][(lo >> 56) as usize]
                ^ t[7][(hi & 0xFF) as usize]
                ^ t[6][((hi >> 8) & 0xFF) as usize]
                ^ t[5][((hi >> 16) & 0xFF) as usize]
                ^ t[4][((hi >> 24) & 0xFF) as usize]
                ^ t[3][((hi >> 32) & 0xFF) as usize]
                ^ t[2][((hi >> 40) & 0xFF) as usize]
                ^ t[1][((hi >> 48) & 0xFF) as usize]
                ^ t[0][(hi >> 56) as usize];
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Finalize the digest.
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-64 of a byte slice.
pub fn crc64(data: &[u8]) -> u64 {
    let mut h = Crc64::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table, byte-at-a-time loop this module shipped with
    /// before slice-by-16: the reference the fast kernel must match
    /// bit for bit (containers written with it must still verify).
    fn reference_crc64(data: &[u8]) -> u64 {
        let mut table = [0u64; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *e = crc;
        }
        let mut state = !0u64;
        for &b in data {
            state = table[((state ^ b as u64) & 0xFF) as usize] ^ (state >> 8);
        }
        !state
    }

    /// Deterministic pseudo-random bytes (splitmix64, little-endian).
    fn seeded_stream(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            out.extend_from_slice(&z.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn known_vector() {
        // CRC-64/XZ of "123456789" is 0x995DC9BBDF1939FA.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn multi_block_digests_match_the_one_table_implementation() {
        // Digests printed by the byte-at-a-time implementation at the
        // commit before the kernel changed; both inputs run thousands
        // of 16-byte blocks, the second with a 13-byte tail.
        let ramp: Vec<u8> = (0..1usize << 20).map(|i| (i * 7 % 256) as u8).collect();
        assert_eq!(crc64(&ramp), 0x804A_6B1E_3C8D_2B19);
        let stream = seeded_stream(0xC0FFEE, (4 << 20) + 13);
        assert_eq!(crc64(&stream), 0x22EB_7D19_3AA6_620A);
    }

    #[test]
    fn every_short_length_at_every_alignment_matches_reference() {
        let data = seeded_stream(1, 16 + 64);
        for start in 0..16 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc64(slice),
                    reference_crc64(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn split_updates_on_unaligned_slices_match_reference(
            data in proptest::collection::vec(any::<u8>(), 0..8193),
            skip in 0usize..16,
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let slice = &data[skip.min(data.len())..];
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| c as usize % (slice.len() + 1))
                .collect();
            cuts.sort_unstable();
            let mut h = Crc64::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&slice[from..cut]);
                from = cut;
            }
            h.update(&slice[from..]);
            prop_assert_eq!(h.finish(), reference_crc64(slice));
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Crc64::new();
        for chunk in data.chunks(137) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc64(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x5Au8; 4096];
        let before = crc64(&data);
        data[2048] ^= 0x01;
        assert_ne!(crc64(&data), before);
    }

    #[test]
    fn detects_transposition() {
        assert_ne!(crc64(b"ab"), crc64(b"ba"));
    }
}
