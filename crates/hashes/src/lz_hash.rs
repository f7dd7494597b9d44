//! LZ match-table slot hashing, one position or a whole buffer at a time.
//!
//! The fast LZ matchers index a direct-mapped table by a hash of the three
//! bytes at a position. Hashing is the data-parallel half of matching —
//! position `i`'s slot depends on nothing but `input[i..i + 3]` — so
//! [`lz_slots`] computes the slots of a whole buffer in one pass the
//! matcher's serial resolve loop then reads back, instead of one
//! [`mix64`] per probe interleaved with table loads.
//!
//! Like SHA-1 and CRC-32C the pass has a portable scalar arm and
//! `std::arch` arms (x86_64: AVX-512DQ+BW, eight positions per step; AVX2,
//! eight per step as two four-lane vectors) chosen once per process by
//! [`crate::simd`]. Every arm computes [`lz_slot`] of the same key, so the
//! slots — and every match decision made from them — are identical
//! whichever arm ran; the per-arm tests below pin that for every tail
//! length and load alignment.

use crate::fast::mix64;
#[cfg(target_arch = "x86_64")]
use crate::{
    fast::{MIX64_MUL_1 as MUL_1, MIX64_MUL_2 as MUL_2},
    simd,
};

/// log2 of the match-table size [`lz_slot`] hashes into.
pub const LZ_SLOT_BITS: u32 = 12;

const SLOT_MASK: u64 = (1 << LZ_SLOT_BITS) - 1;

/// Set above the 24 key bits so the all-zero key does not sit on
/// [`mix64`]'s fixed point at zero.
const KEY_MARK: u64 = 1 << 24;

/// The table slot of a 3-byte match key (the bytes as a little-endian
/// word, `key24 < 1 << 24`).
///
/// ```
/// use dr_hashes::{lz_slot, LZ_SLOT_BITS};
/// assert!(lz_slot(0x00_63_62_61) < 1 << LZ_SLOT_BITS);
/// ```
#[inline]
pub fn lz_slot(key24: u32) -> u16 {
    (mix64(key24 as u64 | KEY_MARK) & SLOT_MASK) as u16
}

/// Writes the slot of every 3-byte window of `input`, front to back:
/// `slots[i] = lz_slot(input[i..i + 3])` for `i` in `0..n`, where `n` — the
/// return value — is the number of windows or `slots.len()`, whichever is
/// smaller. Slots past `n` are left as they were.
///
/// ```
/// use dr_hashes::{lz_slot, lz_slots};
/// let mut slots = [0u16; 8];
/// assert_eq!(lz_slots(b"abcab", &mut slots), 3);
/// assert_eq!(slots[0], lz_slot(u32::from_le_bytes(*b"abc\0")));
/// assert_eq!(slots[2], lz_slot(u32::from_le_bytes(*b"cab\0")));
/// ```
pub fn lz_slots(input: &[u8], slots: &mut [u16]) -> usize {
    let n = slots.len().min(input.len().saturating_sub(2));
    let slots = &mut slots[..n];
    #[cfg(target_arch = "x86_64")]
    let done = if simd::lz_slots_avx512() {
        // SAFETY: lz_slots_avx512() verified avx512f/dq/bw at runtime.
        unsafe { lz_slots_avx512(input, slots) }
    } else if simd::lz_slots_avx2() {
        // SAFETY: lz_slots_avx2() verified avx2 at runtime.
        unsafe { lz_slots_avx2(input, slots) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    lz_slots_scalar(&input[done..], &mut slots[done..]);
    n
}

/// Portable arm, and the tail of the vector arms: one [`lz_slot`] per
/// window.
fn lz_slots_scalar(input: &[u8], slots: &mut [u16]) {
    for (slot, window) in slots.iter_mut().zip(input.windows(3)) {
        *slot = lz_slot(u32::from_le_bytes([window[0], window[1], window[2], 0]));
    }
}

/// AVX-512 arm: one 16-byte load feeds eight 64-bit lanes (lane `j` takes
/// the three bytes at `i + j`), `vpmullq` does [`mix64`]'s two multiplies
/// and `vpmovqw` narrows the eight slots into one 16-byte store. Returns
/// how many leading slots it wrote (a multiple of eight); the caller
/// finishes the rest with the scalar arm.
///
/// Safe to call only where AVX-512F, AVX-512DQ and AVX-512BW are known to
/// be present, which is what makes a call from ordinary code `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw")]
fn lz_slots_avx512(input: &[u8], slots: &mut [u16]) -> usize {
    use std::arch::x86_64::*;
    // Byte shuffles stay inside a 128-bit lane, so every lane gets the
    // same 16 input bytes and picks its two positions out of them.
    let spread = _mm512_set_epi8(
        -1, -1, -1, -1, -1, 9, 8, 7, -1, -1, -1, -1, -1, 8, 7, 6, //
        -1, -1, -1, -1, -1, 7, 6, 5, -1, -1, -1, -1, -1, 6, 5, 4, //
        -1, -1, -1, -1, -1, 5, 4, 3, -1, -1, -1, -1, -1, 4, 3, 2, //
        -1, -1, -1, -1, -1, 3, 2, 1, -1, -1, -1, -1, -1, 2, 1, 0,
    );
    let mark = _mm512_set1_epi64(KEY_MARK as i64);
    let mul_1 = _mm512_set1_epi64(MUL_1 as i64);
    let mul_2 = _mm512_set1_epi64(MUL_2 as i64);
    let mask = _mm512_set1_epi64(SLOT_MASK as i64);
    let mut i = 0;
    while i + 8 <= slots.len() && i + 16 <= input.len() {
        debug_assert!(i + 16 <= input.len());
        // SAFETY: the loop condition keeps the 16 bytes read from
        // `input[i]` on inside the slice; the load is unaligned.
        let bytes = unsafe { _mm_loadu_si128(input.as_ptr().add(i).cast()) };
        let x = _mm512_or_si512(
            _mm512_shuffle_epi8(_mm512_broadcast_i32x4(bytes), spread),
            mark,
        );
        // key | mark < 1 << 25, so mix64's first `x ^ (x >> 30)` is `x`.
        let x = _mm512_mullo_epi64(x, mul_1);
        let x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)), mul_2);
        let x = _mm512_and_si512(_mm512_xor_si512(x, _mm512_srli_epi64(x, 31)), mask);
        debug_assert!(i + 8 <= slots.len());
        // SAFETY: the loop condition keeps the eight `u16`s written from
        // `slots[i]` on inside the slice; the store is unaligned.
        unsafe { _mm_storeu_si128(slots.as_mut_ptr().add(i).cast(), _mm512_cvtepi64_epi16(x)) };
        i += 8;
    }
    i
}

/// AVX2 arm: one 16-byte load feeds two vectors of four 64-bit lanes, the
/// 64-bit multiplies of [`mix64`] are built from `vpmuludq` partial
/// products, and two `vpackusdw` narrow the eight slots into one 16-byte
/// store. Returns how many leading slots it wrote (a multiple of eight);
/// the caller finishes the rest with the scalar arm.
///
/// Safe to call only where AVX2 is known to be present, which is what
/// makes a call from ordinary code `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lz_slots_avx2(input: &[u8], slots: &mut [u16]) -> usize {
    use std::arch::x86_64::*;

    /// Low 64 bits of `x * m` per lane, where `x < 1 << 32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_narrow(x: __m256i, m: __m256i, m_hi: __m256i) -> __m256i {
        let cross = _mm256_slli_epi64(_mm256_mul_epu32(x, m_hi), 32);
        _mm256_add_epi64(_mm256_mul_epu32(x, m), cross)
    }

    /// Low 64 bits of `x * m` per lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_wide(x: __m256i, m: __m256i, m_hi: __m256i) -> __m256i {
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(x, m_hi),
            _mm256_mul_epu32(_mm256_srli_epi64(x, 32), m),
        );
        _mm256_add_epi64(_mm256_mul_epu32(x, m), _mm256_slli_epi64(cross, 32))
    }

    /// [`lz_slot`] of four keys, one per 64-bit lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn slot4(keys: __m256i) -> __m256i {
        let x = _mm256_or_si256(keys, _mm256_set1_epi64x(KEY_MARK as i64));
        // key | mark < 1 << 25, so mix64's first `x ^ (x >> 30)` is `x`.
        let x = mul_narrow(
            x,
            _mm256_set1_epi64x(MUL_1 as i64),
            _mm256_set1_epi64x((MUL_1 >> 32) as i64),
        );
        let x = mul_wide(
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(MUL_2 as i64),
            _mm256_set1_epi64x((MUL_2 >> 32) as i64),
        );
        _mm256_and_si256(
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 31)),
            _mm256_set1_epi64x(SLOT_MASK as i64),
        )
    }

    // Byte shuffles stay inside a 128-bit lane, so both lanes get the same
    // 16 input bytes. Positions are dealt 0 1 | 4 5 and 2 3 | 6 7 so that
    // `vpackusdw`, which also works lane by lane, leaves them in order.
    let spread_a = _mm256_set_epi8(
        -1, -1, -1, -1, -1, 7, 6, 5, -1, -1, -1, -1, -1, 6, 5, 4, //
        -1, -1, -1, -1, -1, 3, 2, 1, -1, -1, -1, -1, -1, 2, 1, 0,
    );
    let spread_b = _mm256_set_epi8(
        -1, -1, -1, -1, -1, 9, 8, 7, -1, -1, -1, -1, -1, 8, 7, 6, //
        -1, -1, -1, -1, -1, 5, 4, 3, -1, -1, -1, -1, -1, 4, 3, 2,
    );
    let mut i = 0;
    while i + 8 <= slots.len() && i + 16 <= input.len() {
        debug_assert!(i + 16 <= input.len());
        // SAFETY: the loop condition keeps the 16 bytes read from
        // `input[i]` on inside the slice; the load is unaligned.
        let bytes = unsafe { _mm_loadu_si128(input.as_ptr().add(i).cast()) };
        let bytes = _mm256_broadcastsi128_si256(bytes);
        let a = slot4(_mm256_shuffle_epi8(bytes, spread_a));
        let b = slot4(_mm256_shuffle_epi8(bytes, spread_b));
        // 64-bit lanes -> 32-bit (0 1 2 3 | 4 5 6 7) -> 16-bit, each
        // 128-bit lane's four slots now in its low half.
        let packed = _mm256_packus_epi32(a, b);
        let packed = _mm256_packus_epi32(packed, packed);
        let packed = _mm256_castsi256_si128(_mm256_permute4x64_epi64(packed, 0b1000));
        debug_assert!(i + 8 <= slots.len());
        // SAFETY: the loop condition keeps the eight `u16`s written from
        // `slots[i]` on inside the slice; the store is unaligned.
        unsafe { _mm_storeu_si128(slots.as_mut_ptr().add(i).cast(), packed) };
        i += 8;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `slots[i]` for every window of `input`, straight from [`mix64`].
    fn reference(input: &[u8]) -> Vec<u16> {
        input
            .windows(3)
            .map(|w| {
                let key = w[0] as u64 | (w[1] as u64) << 8 | (w[2] as u64) << 16;
                (mix64(key | 0x0100_0000) & 0xFFF) as u16
            })
            .collect()
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    /// The vector part of an arm: how many leading slots it wrote.
    type Arm = fn(&[u8], &mut [u16]) -> usize;

    /// An arm over `input`, finished by the scalar arm as [`lz_slots`]
    /// does, into a buffer whose untouched slots must stay untouched.
    fn run_arm(arm: Arm, input: &[u8], room: usize) -> Vec<u16> {
        const UNTOUCHED: u16 = 0xEEEE;
        let mut slots = vec![UNTOUCHED; room + 4];
        let n = room.min(input.len().saturating_sub(2));
        let done = arm(input, &mut slots[..n]);
        assert!(done <= n, "arm claims {done} of {n} slots");
        lz_slots_scalar(&input[done..], &mut slots[done..n]);
        assert!(slots[n..].iter().all(|&s| s == UNTOUCHED), "wrote past n");
        slots.truncate(n);
        slots
    }

    /// Every arm this CPU has, by name, called directly — on an AVX-512
    /// host the dispatcher alone would never run the AVX2 arm.
    fn arms() -> Vec<(&'static str, Arm)> {
        let mut arms: Vec<(&'static str, Arm)> = vec![("scalar", |_, _| 0)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 detected just above.
                arms.push(("avx2", |i, s| unsafe { lz_slots_avx2(i, s) }));
            }
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512bw")
            {
                // SAFETY: avx512f/dq/bw detected just above.
                arms.push(("avx512", |i, s| unsafe { lz_slots_avx512(i, s) }));
            }
        }
        arms
    }

    #[test]
    fn single_slot_is_the_masked_mix_of_the_marked_key() {
        for key in [0u32, 1, 0x61_62_63, 0xFF_FF_FF, 0x80_00_00] {
            assert_eq!(
                lz_slot(key),
                (mix64(key as u64 | 0x0100_0000) & 0xFFF) as u16
            );
        }
    }

    #[test]
    fn every_arm_matches_scalar_mix64_at_every_tail_and_offset() {
        // 16 load offsets into one backing buffer x tails 0..=64 past a
        // few whole vectors: every way a buffer can end inside a step.
        let backing = noise(16 + 48 + 64 + 2, 0x51_07);
        for (name, arm) in arms() {
            for offset in 0..16 {
                for body in [0usize, 8, 16, 48] {
                    for tail in 0..=64 {
                        let input = &backing[offset..(offset + body + tail).min(backing.len())];
                        let want = reference(input);
                        let got = run_arm(arm, input, input.len());
                        assert_eq!(got, want, "{name}: offset {offset}, len {}", input.len());
                    }
                }
            }
        }
    }

    #[test]
    fn every_arm_respects_a_short_slot_buffer() {
        let input = noise(200, 7);
        let want = reference(&input);
        for (name, arm) in arms() {
            for room in [0usize, 1, 7, 8, 9, 15, 16, 17, 100, 198, 199, 400] {
                let got = run_arm(arm, &input, room);
                assert_eq!(got, want[..room.min(want.len())], "{name}: room {room}");
            }
        }
    }

    #[test]
    fn every_arm_agrees_on_extreme_keys() {
        // All-zero, all-ones and high-bit keys: the widening shuffles must
        // zero-extend, not sign-extend, and the mark bit must be set.
        let mut input = vec![0u8; 40];
        input.extend([0xFFu8; 40]);
        input.extend([0x80u8, 0x00, 0xFF].repeat(14));
        let want = reference(&input);
        for (name, arm) in arms() {
            assert_eq!(run_arm(arm, &input, input.len()), want, "{name}");
        }
    }

    #[test]
    fn dispatcher_matches_the_reference_and_counts_windows() {
        for len in [0usize, 1, 2, 3, 4, 17, 4096, 4099] {
            let input = noise(len, len as u64);
            let mut slots = vec![0u16; 4096];
            let n = lz_slots(&input, &mut slots);
            assert_eq!(n, len.saturating_sub(2).min(4096), "len {len}");
            assert_eq!(slots[..n], reference(&input)[..n], "len {len}");
        }
    }
}
