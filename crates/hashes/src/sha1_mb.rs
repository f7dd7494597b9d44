//! Multi-buffer SHA-1: many independent messages per instruction stream.
//!
//! A chunk's fingerprint depends on no other chunk's, so a batch of chunks
//! is as many independent SHA-1 computations as it has chunks. One message
//! is a serial chain — round `t` needs round `t - 1` — and the SHA-extension
//! arm in [`crate::sha1`] already runs that chain as fast as the core
//! retires it. [`sha1_digest_many`] goes across messages instead: on a CPU
//! with AVX-512F+BW it keeps sixteen messages in the sixteen 32-bit lanes
//! of each `zmm` register and runs the plain FIPS 180-1 round function on
//! all of them at once.
//!
//! Lanes advance in lock step, so the arm takes whole groups of
//! [`SHA1_MB_LANES`] consecutive messages whose lengths are equal and a
//! non-zero multiple of the block size — the paper's fixed 4 KB chunks.
//! Everything else (a short tail chunk, fewer than sixteen messages, a
//! host without AVX-512, `DR_SIMD=scalar`) goes message by message through
//! [`sha1_digest`]. Which path a message took never shows in its digest.

use crate::digest::ChunkDigest;
use crate::sha1::sha1_digest;
#[cfg(target_arch = "x86_64")]
use crate::{
    sha1::{digest_of, H0, K},
    simd,
};

/// Messages per group of the multi-buffer arm: the 32-bit lanes of a
/// `zmm` register.
pub const SHA1_MB_LANES: usize = 16;

/// SHA-1 of every message: `out[i] = sha1_digest(msgs[i])`. Returns how
/// many of them went through the multi-buffer arm (see the module docs for
/// which do) — a count for observability, the digests do not depend on it.
///
/// ```
/// use dr_hashes::{sha1_digest, sha1_digest_many, ChunkDigest};
/// let chunks = vec![[7u8; 128]; 20];
/// let msgs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
/// let mut out = vec![ChunkDigest::zero(); msgs.len()];
/// sha1_digest_many(&msgs, &mut out);
/// assert!(out.iter().all(|d| *d == sha1_digest(&[7u8; 128])));
/// ```
///
/// # Panics
///
/// Panics when `msgs` and `out` differ in length.
pub fn sha1_digest_many(msgs: &[&[u8]], out: &mut [ChunkDigest]) -> usize {
    assert_eq!(msgs.len(), out.len(), "one digest slot per message");
    let mut wide = 0;
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    if simd::sha1_mb_avx512() {
        while i + SHA1_MB_LANES <= msgs.len() {
            let group: &[&[u8]; SHA1_MB_LANES] = msgs[i..i + SHA1_MB_LANES]
                .try_into()
                .expect("a group is SHA1_MB_LANES messages");
            if lock_step_len(group).is_some() {
                let digests = (&mut out[i..i + SHA1_MB_LANES])
                    .try_into()
                    .expect("a group is SHA1_MB_LANES digests");
                // SAFETY: sha1_mb_avx512() verified avx512f/bw at runtime.
                unsafe { sha1_mb16_avx512(group, digests) };
                wide += SHA1_MB_LANES;
                i += SHA1_MB_LANES;
            } else {
                // The odd message out goes alone; the group is looked for
                // again from the next one.
                out[i] = sha1_digest(msgs[i]);
                i += 1;
            }
        }
    }
    for (digest, msg) in out[i..].iter_mut().zip(&msgs[i..]) {
        *digest = sha1_digest(msg);
    }
    wide
}

/// The length the sixteen messages share, when they share one and it is a
/// non-zero number of whole blocks — what lets sixteen lanes run the same
/// block count and end in the same padding block.
#[cfg(target_arch = "x86_64")]
fn lock_step_len(group: &[&[u8]; SHA1_MB_LANES]) -> Option<usize> {
    let len = group[0].len();
    (len != 0 && len.is_multiple_of(64) && group.iter().all(|m| m.len() == len)).then_some(len)
}

/// AVX-512 arm: sixteen messages, lane `l` of every register belonging to
/// `msgs[l]`. Per block, sixteen 64-byte loads are byte-swapped
/// (`vpshufb`) and transposed into the sixteen schedule words; the eighty
/// rounds then run on a sixteen-register ring of them, with `vpternlogd`
/// for Ch / Parity / Maj and for the schedule's three-way xor, `vprold`
/// for the rotates. All lanes share one length, so the closing padding
/// block is the same sixteen words broadcast.
///
/// Safe to call only where AVX-512F and AVX-512BW are known to be
/// present, which is what makes a call from ordinary code `unsafe`.
///
/// # Panics
///
/// Panics unless the messages share one length that is a non-zero
/// multiple of 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn sha1_mb16_avx512(msgs: &[&[u8]; SHA1_MB_LANES], out: &mut [ChunkDigest; SHA1_MB_LANES]) {
    use std::arch::x86_64::*;

    /// The eighty rounds of one block in every lane: `w` holds schedule
    /// words 0..16 on entry and is the ring the rest are computed in.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn compress(state: &mut [__m512i; 5], mut w: [__m512i; 16]) {
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        // One round with the roles of the five words passed by name, so
        // that five of them in rotated order stand where a shift of all
        // five would; `$t` is a constant, so the ring indices and the
        // `$t >= 16` test fold away.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $t:expr, $f:literal, $k:ident) => {
                if $t >= 16 {
                    let x = _mm512_ternarylogic_epi32::<0x96>(
                        w[($t + 13) & 15],
                        w[($t + 8) & 15],
                        w[($t + 2) & 15],
                    );
                    w[$t & 15] = _mm512_rol_epi32::<1>(_mm512_xor_si512(x, w[$t & 15]));
                }
                let f = _mm512_ternarylogic_epi32::<$f>($b, $c, $d);
                let wk = _mm512_add_epi32(w[$t & 15], $k);
                $e = _mm512_add_epi32(
                    _mm512_add_epi32($e, _mm512_rol_epi32::<5>($a)),
                    _mm512_add_epi32(f, wk),
                );
                $b = _mm512_rol_epi32::<30>($b);
            };
        }
        macro_rules! five_rounds {
            ($t:expr, $f:literal, $k:ident) => {
                round!(a, b, c, d, e, $t, $f, $k);
                round!(e, a, b, c, d, $t + 1, $f, $k);
                round!(d, e, a, b, c, $t + 2, $f, $k);
                round!(c, d, e, a, b, $t + 3, $f, $k);
                round!(b, c, d, e, a, $t + 4, $f, $k);
            };
        }
        // `$f` is the `vpternlogd` truth table of the stage's function of
        // (b, c, d): 0xCA = Ch, 0x96 = Parity, 0xE8 = Maj.
        macro_rules! stage {
            ($stage:expr, $f:literal) => {
                let k = _mm512_set1_epi32(K[$stage] as i32);
                five_rounds!($stage * 20, $f, k);
                five_rounds!($stage * 20 + 5, $f, k);
                five_rounds!($stage * 20 + 10, $f, k);
                five_rounds!($stage * 20 + 15, $f, k);
            };
        }
        stage!(0, 0xCA);
        stage!(1, 0x96);
        stage!(2, 0xE8);
        stage!(3, 0x96);
        for (word, add) in state.iter_mut().zip([a, b, c, d, e]) {
            *word = _mm512_add_epi32(*word, add);
        }
    }

    /// `rows[l]` = sixteen words of message `l` in, `rows[t]` = word `t` of
    /// all sixteen messages (lane `l` = message `l`) out.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn transpose(rows: &mut [__m512i; 16]) {
        // 32- then 64-bit interleaves: register `4q + c` ends up with, in
        // its 128-bit lane `k`, word `4k + c` of messages `4q .. 4q + 4`.
        for quad in rows.chunks_exact_mut(4) {
            let lo01 = _mm512_unpacklo_epi32(quad[0], quad[1]);
            let hi01 = _mm512_unpackhi_epi32(quad[0], quad[1]);
            let lo23 = _mm512_unpacklo_epi32(quad[2], quad[3]);
            let hi23 = _mm512_unpackhi_epi32(quad[2], quad[3]);
            quad[0] = _mm512_unpacklo_epi64(lo01, lo23);
            quad[1] = _mm512_unpackhi_epi64(lo01, lo23);
            quad[2] = _mm512_unpacklo_epi64(hi01, hi23);
            quad[3] = _mm512_unpackhi_epi64(hi01, hi23);
        }
        // A 4 x 4 transpose of 128-bit lanes across the four quads, once
        // per `c`: word `4k + c` gathers lane `k` of registers `4q + c`.
        let quads = *rows;
        for c in 0..4 {
            let [q0, q1, q2, q3] = [quads[c], quads[4 + c], quads[8 + c], quads[12 + c]];
            let even01 = _mm512_shuffle_i32x4::<0x88>(q0, q1);
            let odd01 = _mm512_shuffle_i32x4::<0xDD>(q0, q1);
            let even23 = _mm512_shuffle_i32x4::<0x88>(q2, q3);
            let odd23 = _mm512_shuffle_i32x4::<0xDD>(q2, q3);
            rows[c] = _mm512_shuffle_i32x4::<0x88>(even01, even23);
            rows[4 + c] = _mm512_shuffle_i32x4::<0x88>(odd01, odd23);
            rows[8 + c] = _mm512_shuffle_i32x4::<0xDD>(even01, even23);
            rows[12 + c] = _mm512_shuffle_i32x4::<0xDD>(odd01, odd23);
        }
    }

    let len = lock_step_len(msgs).expect("sixteen messages of one whole-block length");
    // Loads are little-endian, the schedule wants big-endian words.
    let byte_swap = _mm512_broadcast_i32x4(_mm_set_epi8(
        12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
    ));
    let mut state = [_mm512_setzero_si512(); 5];
    for (word, h) in state.iter_mut().zip(H0) {
        *word = _mm512_set1_epi32(h as i32);
    }
    for offset in (0..len).step_by(64) {
        let mut w = [_mm512_setzero_si512(); 16];
        for (row, msg) in w.iter_mut().zip(msgs) {
            let block: &[u8; 64] = msg[offset..offset + 64]
                .try_into()
                .expect("a block is 64 bytes");
            // SAFETY: `block` is 64 readable bytes; the load is unaligned.
            let bytes = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
            *row = _mm512_shuffle_epi8(bytes, byte_swap);
        }
        transpose(&mut w);
        compress(&mut state, w);
    }
    // The padding block of a whole-block message: 0x80, zeros, the bit
    // length in the last two words — the same in every lane.
    let bit_len = (len as u64).wrapping_mul(8);
    let mut pad = [_mm512_setzero_si512(); 16];
    pad[0] = _mm512_set1_epi32(0x8000_0000u32 as i32);
    pad[14] = _mm512_set1_epi32((bit_len >> 32) as i32);
    pad[15] = _mm512_set1_epi32(bit_len as i32);
    compress(&mut state, pad);

    let mut words = [[0u32; SHA1_MB_LANES]; 5];
    for (lanes, word) in words.iter_mut().zip(state) {
        // SAFETY: `lanes` is 64 writable bytes; the store is unaligned.
        unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), word) };
    }
    for (lane, digest) in out.iter_mut().enumerate() {
        *digest = digest_of(&words.map(|lanes| lanes[lane]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    /// `sha1_digest_many` against one `sha1_digest` per message; returns
    /// the multi-buffer count.
    fn check(msgs: &[&[u8]], what: &str) -> usize {
        let mut out = vec![ChunkDigest::zero(); msgs.len()];
        let wide = sha1_digest_many(msgs, &mut out);
        for (i, (got, msg)) in out.iter().zip(msgs).enumerate() {
            assert_eq!(*got, sha1_digest(msg), "{what}: message {i}");
        }
        wide
    }

    /// The AVX-512 arm called directly — whatever `DR_SIMD` says — when the
    /// CPU has it; `None` when it does not.
    fn wide_arm(msgs: &[&[u8]; SHA1_MB_LANES]) -> Option<[ChunkDigest; SHA1_MB_LANES]> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
            let mut out = [ChunkDigest::zero(); SHA1_MB_LANES];
            // SAFETY: avx512f/bw detected just above.
            unsafe { sha1_mb16_avx512(msgs, &mut out) };
            return Some(out);
        }
        let _ = msgs;
        None
    }

    #[test]
    fn many_equals_one_at_a_time_for_every_count_length_and_arrangement() {
        // Message `i` of length `len` is a window of one noise buffer that
        // starts 97 bytes after message `i - 1`: no two hold the same
        // bytes, and their alignments differ.
        let backing = noise(50 * 97 + 4160 + 64, 0x5AA1);
        let msg = |i: usize, len: usize| &backing[i * 97..i * 97 + len];
        for len in [0usize, 1, 63, 64, 65, 4032, 4096, 4160] {
            let lock_step = len != 0 && len.is_multiple_of(64) && simd::sha1_mb_avx512();
            // A length that breaks a group: one block less — still whole
            // blocks, so only the comparison keeps it out — or one more byte.
            let odd = if len >= 128 { len - 64 } else { len + 1 };
            for count in 0..=50usize {
                let equal: Vec<&[u8]> = (0..count).map(|i| msg(i, len)).collect();
                let wide = check(&equal, &format!("{count} x {len}"));
                let groups = if lock_step { count / SHA1_MB_LANES } else { 0 };
                assert_eq!(wide, groups * SHA1_MB_LANES, "{count} x {len}");

                let unequal: Vec<&[u8]> = (0..count).map(|i| msg(i, len + i)).collect();
                check(&unequal, &format!("{count} from {len} up"));

                // One odd message at each position of the first group: the
                // groups re-form behind it.
                for at in 0..SHA1_MB_LANES.min(count) {
                    let mut msgs = equal.clone();
                    msgs[at] = msg(at, odd);
                    let wide = check(&msgs, &format!("{count} x {len}, odd one at {at}"));
                    let groups = if lock_step {
                        (count - at - 1) / SHA1_MB_LANES
                    } else {
                        0
                    };
                    assert_eq!(wide, groups * SHA1_MB_LANES, "{count} x {len}, odd at {at}");
                }
            }
        }
    }

    #[test]
    fn lanes_keep_their_own_bytes_at_every_alignment() {
        // Sixteen messages of different bytes, each lane at its own
        // alignment within a cache line, every alignment visited by every
        // lane; the last message ends where its allocation ends, so a load
        // past a message is a load past the heap block.
        for len in [64usize, 192, 4096] {
            let stride = len + 64;
            for shift in 0..64 {
                let align = |lane: usize| (lane * 4 + lane / 4 + shift) % 64;
                let mut backing = noise(64 + SHA1_MB_LANES * stride, shift as u64 + 1);
                let base = backing.as_ptr().align_offset(64);
                backing.truncate(base + 15 * stride + align(15) + len);
                backing.shrink_to_fit();
                let base = backing.as_ptr().align_offset(64);
                let msgs: [&[u8]; SHA1_MB_LANES] = std::array::from_fn(|lane| {
                    let start = base + lane * stride + align(lane);
                    &backing[start..start + len]
                });
                let Some(got) = wide_arm(&msgs) else { return };
                for (lane, (got, msg)) in got.iter().zip(msgs).enumerate() {
                    assert_eq!(
                        *got,
                        sha1_digest(msg),
                        "len {len}, shift {shift}, lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_lane_swap_shows_in_the_digests() {
        // Messages that differ in one word each, at every word position of
        // the block: a transpose that swaps two lanes or two words hands at
        // least one message another's word.
        for word in 0..16 {
            let blocks: Vec<[u8; 64]> = (0..SHA1_MB_LANES)
                .map(|lane| {
                    let mut block = [0u8; 64];
                    block[word * 4..word * 4 + 4].copy_from_slice(&(lane as u32 + 1).to_be_bytes());
                    block
                })
                .collect();
            let msgs: [&[u8]; SHA1_MB_LANES] = std::array::from_fn(|lane| &blocks[lane][..]);
            let Some(got) = wide_arm(&msgs) else { return };
            for (lane, (got, msg)) in got.iter().zip(msgs).enumerate() {
                assert_eq!(*got, sha1_digest(msg), "word {word}, lane {lane}");
            }
        }
    }

    #[test]
    fn million_a_in_all_sixteen_lanes() {
        // FIPS 180-1's long vector: 1 000 000 = 64 x 15 625, so it is a
        // whole-block message and sixteen of it are a group.
        let data = vec![b'a'; 1_000_000];
        let msgs = [data.as_slice(); SHA1_MB_LANES];
        let mut out = [ChunkDigest::zero(); SHA1_MB_LANES];
        sha1_digest_many(&msgs, &mut out);
        let arm = wide_arm(&msgs);
        for digests in [Some(out), arm].into_iter().flatten() {
            for digest in digests {
                assert_eq!(digest.to_hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one digest slot per message")]
    fn a_short_output_slice_is_refused() {
        sha1_digest_many(&[b"a", b"b"], &mut [ChunkDigest::zero()]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "one whole-block length")]
    fn the_wide_arm_refuses_messages_out_of_lock_step() {
        let long = [0u8; 128];
        let mut msgs = [&long[..]; SHA1_MB_LANES];
        msgs[9] = &long[..64];
        if wide_arm(&msgs).is_none() {
            panic!("no AVX-512 here: one whole-block length");
        }
    }
}
