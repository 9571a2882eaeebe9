//! CRC-64 checksums for checkpoint integrity.
//!
//! The paper's optional checksum feature computes a checksum per chunk
//! after every checkpoint and re-verifies it on restart; a mismatch
//! sends the restart component to the remote copy. We use CRC-64/XZ
//! (ECMA-182 polynomial, reflected). One entry, [`Crc64::update`],
//! produces the digest one of two ways, chosen from what it can observe
//! — the CPU and the length of the slice — and from nothing else (no
//! cargo feature, environment variable or configuration field):
//!
//! * **Carry-less multiply** (`mod clmul`; x86_64 with `pclmulqdq`,
//!   slices of at least `KERNEL_MIN_LEN` bytes): eight independent
//!   128-bit accumulators fold 128 bytes per step, near memory speed.
//! * **Slice-by-16 tables** (32 KiB, built at compile time), sixteen
//!   independent lookups per 16-byte step: the only path on other
//!   targets and CPUs, the path for short inputs and tails, the
//!   kernel's final reduction, and the reference its tests compare to.
//!
//! `unsafe` is denied here but in `mod clmul`, and there every block
//! states the reason it is sound (Clippy's `undocumented_unsafe_blocks`).
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

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

/// One slice-by-16 step: the state after the sixteen bytes `lo ‖ hi`
/// (little-endian halves), the incoming state already XORed into `lo`.
#[inline(always)]
fn table_block(lo: u64, hi: u64) -> u64 {
    let t = &TABLES;
    t[15][(lo & 0xFF) as usize]
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
        ^ t[0][(hi >> 56) as usize]
}

/// The table path: `crc` advanced over all of `data`.
fn update_table(mut crc: u64, data: &[u8]) -> u64 {
    let mut blocks = data.chunks_exact(STRIDE);
    for block in &mut blocks {
        let (lo, hi) = block.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8-byte half")) ^ crc;
        let hi = u64::from_le_bytes(hi.try_into().expect("8-byte half"));
        crc = table_block(lo, hi);
    }
    for &b in blocks.remainder() {
        crc = TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Shortest slice handed to the kernel: one 128-byte stride, the least
/// it can start on. Measured (README, PR 22) it already wins there, 13
/// ns against the tables' 52, so nothing larger is worth tuning.
#[cfg(any(target_arch = "x86_64", test))]
const KERNEL_MIN_LEN: usize = 128;

/// The carry-less-multiply kernel, and all of this file's `unsafe`.
///
/// A state holds the coefficient of `x^0` in bit 63 and a 16-byte block
/// loaded little-endian holds `x^127` in bit 0. In that order
/// `pclmulqdq` returns the product of two 64-bit halves times `x`, so
/// an accumulator `A` moves `d` bits down the message as
/// `A.lo · x^(d+63) · x + A.hi · x^(d-1) · x (mod P)`: two multiplies
/// by constants, XORed into the block found there.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use super::{table_block, POLY};
    use std::arch::x86_64::*;

    /// `x^n mod P`, in the state's bit order.
    const fn x_pow_mod_p(n: u32) -> u64 {
        let mut v = 1u64 << 63;
        let mut i = 0;
        while i < n {
            v = (v >> 1) ^ if v & 1 != 0 { POLY } else { 0 };
            i += 1;
        }
        v
    }

    /// `(x^(d+63), x^(d-1)) mod P` for d = 128: one block forward.
    const FOLD_16: (u64, u64) = (x_pow_mod_p(191), x_pow_mod_p(127));
    /// The same for d = 1024: eight blocks, the stride of the main loop.
    const FOLD_128: (u64, u64) = (x_pow_mod_p(1087), x_pow_mod_p(1023));

    // Pinned, so a slip in `x_pow_mod_p` fails the build, not a digest.
    const _: () = assert!(FOLD_16.0 == 0xe05d_d497_ca39_3ae4 && FOLD_16.1 == 0xdabe_95af_c787_5f40);

    /// The sixteen bytes of `block`, which must be exactly that long.
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("16-byte block");
        // SAFETY: `block` is sixteen readable bytes and `_mm_loadu_si128`
        // asks no alignment of its pointer; SSE2 is part of x86_64.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` moved forward by the distance `by` encodes, XORed into `into`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(acc: __m128i, by: __m128i, into: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, by);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, by);
        _mm_xor_si128(_mm_xor_si128(lo, hi), into)
    }

    /// [`fold_blocks`] on a CPU that has the instruction.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_blocks_clmul(state: u64, data: &[u8]) -> (u64, &[u8]) {
        let mut strides = data.chunks_exact(128);
        let Some(first) = strides.next() else {
            return (state, data);
        };
        let mut acc: [__m128i; 8] = std::array::from_fn(|i| load(&first[16 * i..16 * i + 16]));
        acc[0] = _mm_xor_si128(acc[0], _mm_set_epi64x(0, state as i64));
        let by = _mm_set_epi64x(FOLD_128.1 as i64, FOLD_128.0 as i64);
        for stride in &mut strides {
            for (acc, block) in acc.iter_mut().zip(stride.chunks_exact(16)) {
                *acc = fold(*acc, by, load(block));
            }
        }
        let by = _mm_set_epi64x(FOLD_16.1 as i64, FOLD_16.0 as i64);
        let mut one = acc[0];
        for &next in &acc[1..] {
            one = fold(one, by, next);
        }
        let mut singles = strides.remainder().chunks_exact(16);
        for block in &mut singles {
            one = fold(one, by, load(block));
        }
        // `one` is a 16-byte message congruent to all that was consumed,
        // state included: one table step from state 0, no Barrett pair.
        let lo = _mm_cvtsi128_si64(one) as u64;
        let hi = _mm_cvtsi128_si64(_mm_srli_si128::<8>(one)) as u64;
        (table_block(lo, hi), singles.remainder())
    }

    /// `state` advanced over the whole 16-byte blocks of `data`, and the
    /// tail; all of `data` without `pclmulqdq` or below one 128-byte stride.
    pub(super) fn fold_blocks(state: u64, data: &[u8]) -> (u64, &[u8]) {
        if !std::arch::is_x86_feature_detected!("pclmulqdq") {
            return (state, data);
        }
        // SAFETY: `pclmulqdq`, all the callee enables, was detected above.
        unsafe { fold_blocks_clmul(state, data) }
    }
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
        let state = self.state;
        #[cfg(target_arch = "x86_64")]
        let (state, data) = if data.len() >= KERNEL_MIN_LEN {
            clmul::fold_blocks(state, data)
        } else {
            (state, data)
        };
        self.state = update_table(state, data);
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

    /// The table path alone, as [`crc64`] ran on every input before
    /// the kernel: the oracle the kernel is held to. On a CPU without
    /// `pclmulqdq` (and on other targets) [`crc64`] *is* this path, so
    /// the tests below then compare the table with itself and pass.
    fn table_crc64(data: &[u8]) -> u64 {
        !update_table(!0, data)
    }

    #[test]
    fn kernel_matches_table_at_every_edge() {
        let t = KERNEL_MIN_LEN;
        let data = seeded_stream(2, 16 + (4 << 20) + 13);
        // 0..=1024 holds every stride boundary up to the eighth and
        // each one's ± 1, 15, 16, 17; the threshold is named so that it
        // stays covered wherever it moves.
        let mut lens: Vec<usize> = (0..=1024).collect();
        lens.extend([t - 1, t, t + 1]);
        for len in lens {
            for start in 0..16 {
                let slice = &data[start..start + len];
                assert_eq!(crc64(slice), table_crc64(slice), "start {start} len {len}");
            }
        }
        for len in [64 << 10, (4 << 20) + 13] {
            for start in [0, 5] {
                let slice = &data[start..start + len];
                assert_eq!(crc64(slice), table_crc64(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn a_flipped_bit_is_caught_in_every_region_of_the_kernel() {
        // 64 KiB + 29 = 512 strides of 128 bytes, one 16-byte remainder
        // block, 13 tail bytes for the table.
        let clean = seeded_stream(3, (64 << 10) + 29);
        let regions = [
            ("first stride", 77),
            ("steady-state stride", 300 * 128 + 5),
            ("last full stride", 511 * 128 + 127),
            ("16-byte remainder block", (64 << 10) + 9),
            ("table tail", (64 << 10) + 20),
        ];
        let mut digests = vec![("clean", crc64(&clean))];
        for (region, at) in regions {
            let mut flipped = clean.clone();
            flipped[at] ^= 0x10;
            assert_eq!(crc64(&flipped), table_crc64(&flipped), "{region}");
            digests.push((region, crc64(&flipped)));
        }
        for (i, (a, x)) in digests.iter().enumerate() {
            for (b, y) in &digests[i + 1..] {
                assert_ne!(x, y, "{a} vs {b}");
            }
        }
    }

    proptest! {
        /// Up to 64 KiB, so pieces the kernel takes and pieces it
        /// leaves to the table mix inside one stream.
        #[test]
        fn split_updates_on_unaligned_slices_match_reference(
            data in proptest::collection::vec(any::<u8>(), 0..65537),
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
