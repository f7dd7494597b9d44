//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! SHA-1 is cryptographically broken for adversarial collision resistance,
//! but it is exactly what the paper (and most deduplication systems of its
//! era) uses as the chunk fingerprint: 20 bytes, with accidental-collision
//! probability far below device error rates.

use crate::digest::ChunkDigest;
#[cfg(target_arch = "x86_64")]
use crate::simd;

pub(crate) const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// The round constant of each twenty-round stage.
pub(crate) const K: [u32; 4] = [0x5A82_7999, 0x6ED9_EBA1, 0x8F1B_BCDC, 0xCA62_C1D6];

/// Incremental SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use dr_hashes::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize().to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut input = data;
        // Fill a partially full block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
            } else {
                // The input ran out before filling the block; the stash
                // below must not clobber the partial buffer.
                debug_assert!(input.is_empty());
                return;
            }
        }
        // Whole blocks straight from the input, in one multi-block run so
        // the hardware arm amortizes its state load/store.
        let whole = input.len() - input.len() % 64;
        compress_blocks(&mut self.state, &input[..whole]);
        // Stash the tail.
        let rem = &input[whole..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Completes the hash and returns the 20-byte digest.
    pub fn finalize(mut self) -> ChunkDigest {
        // Padding: 0x80, zeros up to the last eight bytes of a block, then
        // the 64-bit big-endian bit length — written straight into the
        // block buffer, which always has room for the 0x80.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            // No room left for the length: it goes in a block of its own.
            compress_blocks(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &self.buf);
        digest_of(&self.state)
    }
}

/// The digest a final state stands for: its five words, big-endian.
pub(crate) fn digest_of(state: &[u32; 5]) -> ChunkDigest {
    let mut out = [0u8; ChunkDigest::LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    ChunkDigest::new(out)
}

/// Compresses a run of whole 64-byte blocks into `state`, dispatching to
/// the x86_64 SHA-extension arm when available (see [`crate::simd`]).
///
/// `blocks.len()` must be a multiple of 64.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    if blocks.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::sha1_hw() {
        // SAFETY: sha1_hw() verified sha/sse2/ssse3/sse4.1 at runtime.
        unsafe { compress_blocks_shani(state, blocks) };
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// Portable scalar arm. Exposed for differential tests.
#[doc(hidden)]
pub fn compress_blocks_scalar(state: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        // Four specialized 20-round loops instead of one 80-round loop with
        // a per-round `match`: this is the hottest loop in the whole
        // pipeline (every ingested byte passes through it), and selecting
        // f/k per stage keeps the round body branch-free.
        macro_rules! rounds {
            ($range:expr, $k:expr, $f:expr) => {
                for &wi in &w[$range] {
                    let tmp = a
                        .rotate_left(5)
                        .wrapping_add($f)
                        .wrapping_add(e)
                        .wrapping_add($k)
                        .wrapping_add(wi);
                    e = d;
                    d = c;
                    c = b.rotate_left(30);
                    b = a;
                    a = tmp;
                }
            };
        }
        rounds!(0..20, K[0], (b & c) | (!b & d));
        rounds!(20..40, K[1], b ^ c ^ d);
        rounds!(40..60, K[2], (b & c) | (b & d) | (c & d));
        rounds!(60..80, K[3], b ^ c ^ d);

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

/// x86_64 SHA-extension arm: four message-schedule lanes live in XMM
/// registers and `sha1rnds4` retires four rounds per instruction.
/// Exposed for differential tests.
///
/// # Safety
/// Caller must ensure the CPU supports the `sha`, `sse2`, `ssse3`, and
/// `sse4.1` features. `blocks.len()` must be a multiple of 64.
#[cfg(target_arch = "x86_64")]
#[doc(hidden)]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub unsafe fn compress_blocks_shani(state: &mut [u32; 5], blocks: &[u8]) {
    use std::arch::x86_64::*;

    // Word-reversal shuffle: loads are little-endian, the schedule wants
    // big-endian words with w[0] in the high lane.
    let mask = _mm_set_epi64x(
        0x0001_0203_0405_0607u64 as i64,
        0x0809_0a0b_0c0d_0e0fu64 as i64,
    );
    let mut abcd = _mm_loadu_si128(state.as_ptr() as *const __m128i);
    let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);
    abcd = _mm_shuffle_epi32::<0x1B>(abcd);
    let mut e1;

    for block in blocks.chunks_exact(64) {
        let abcd_save = abcd;
        let e0_save = e0;
        let p = block.as_ptr() as *const __m128i;

        let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
        let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
        let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
        let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);

        // Rounds 0-3
        e0 = _mm_add_epi32(e0, msg0);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);

        // Rounds 4-7
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);

        // Rounds 8-11
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);

        // Rounds 12-15
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);

        // Rounds 16-19
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);

        // Rounds 20-23
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);

        // Rounds 24-27
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);

        // Rounds 28-31
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);

        // Rounds 32-35
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);

        // Rounds 36-39
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);

        // Rounds 40-43
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);

        // Rounds 44-47
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);

        // Rounds 48-51
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);

        // Rounds 52-55
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);

        // Rounds 56-59
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);

        // Rounds 60-63
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);

        // Rounds 64-67
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);

        // Rounds 68-71
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg3 = _mm_xor_si128(msg3, msg1);

        // Rounds 72-75
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);

        // Rounds 76-79
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);

        // Fold this block into the running state.
        e0 = _mm_sha1nexte_epu32(e0, e0_save);
        abcd = _mm_add_epi32(abcd, abcd_save);
    }

    abcd = _mm_shuffle_epi32::<0x1B>(abcd);
    _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
    state[4] = _mm_extract_epi32::<3>(e0) as u32;
}

/// One-shot SHA-1 of `data`.
///
/// ```
/// use dr_hashes::sha1_digest;
/// assert_eq!(
///     sha1_digest(b"").to_hex(),
///     "da39a3ee5e6b4b0d3255bfef95601890afd80709"
/// );
/// ```
pub fn sha1_digest(data: &[u8]) -> ChunkDigest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn empty_message() {
        assert_eq!(
            sha1_digest(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha1_digest(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha1_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1_digest(&data).to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let one_shot = sha1_digest(&data);
        // Feed in awkward split sizes, crossing block boundaries.
        for split in [1usize, 7, 63, 64, 65, 127, 4096] {
            let mut h = Sha1::new();
            for piece in data.chunks(split) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), one_shot, "split size {split}");
        }
    }

    #[test]
    fn message_lengths_around_padding_boundary() {
        // Lengths 55, 56, 57, 63, 64, 65 exercise every padding branch;
        // every length up to two blocks and a bit leaves none to chance.
        for len in 0..=130usize {
            let data = vec![0x5Au8; len];
            let d1 = sha1_digest(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "length {len}");
        }
    }

    #[test]
    fn finalize_pads_as_the_standard_spells_it_out() {
        // The message, 0x80, zeros to eight short of a block, the bit
        // length — built byte by byte and compressed by the scalar arm.
        for len in 0..=130usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut padded = data.clone();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(len as u64 * 8).to_be_bytes());
            let mut state = H0;
            compress_blocks_scalar(&mut state, &padded);
            assert_eq!(sha1_digest(&data), digest_of(&state), "length {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1_digest(b"chunk-a"), sha1_digest(b"chunk-b"));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_scalar_across_block_counts() {
        if !simd::sha1_hw() {
            return; // no SHA extensions on this host (or DR_SIMD=scalar)
        }
        let data: Vec<u8> = (0..64 * 16u32)
            .map(|i| (i.wrapping_mul(37) % 256) as u8)
            .collect();
        for blocks in [1usize, 2, 3, 7, 16] {
            let mut scalar = H0;
            let mut hw = H0;
            compress_blocks_scalar(&mut scalar, &data[..blocks * 64]);
            unsafe { compress_blocks_shani(&mut hw, &data[..blocks * 64]) };
            assert_eq!(scalar, hw, "blocks {blocks}");
        }
        // Chained calls must carry state identically.
        let mut scalar = H0;
        let mut hw = H0;
        for piece in data.chunks(64 * 3) {
            compress_blocks_scalar(&mut scalar, piece);
            unsafe { compress_blocks_shani(&mut hw, piece) };
        }
        assert_eq!(scalar, hw);
    }
}
