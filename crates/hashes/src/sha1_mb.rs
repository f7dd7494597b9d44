//! Multi-buffer SHA-1: many independent messages per instruction stream.
//!
//! A chunk's fingerprint depends on no other chunk's, so a batch of chunks
//! is as many independent SHA-1 computations as it has chunks. One message
//! is a serial chain — round `t` needs round `t - 1` — and the SHA-extension
//! arm in [`crate::sha1`] already runs that chain as fast as the core
//! retires it. [`sha1_digest_many`] goes across messages instead: it keeps
//! one message in each 32-bit lane of a register — sixteen in a `zmm` on
//! AVX-512F+BW, eight in a `ymm` on AVX-512F+VL — and runs the plain FIPS
//! 180-1 round function on all of them at once.
//!
//! Lanes advance in lock step, so they take runs of consecutive messages
//! whose lengths are equal and a non-zero multiple of the block size — the
//! paper's fixed 4 KB chunks. A group of lanes costs the same however many
//! of them carry a message, so a run shorter than a group fills the spare
//! lanes with copies of its last message; which arm a run takes is a
//! table measured on 4 KiB messages (`LANES16_FROM`, `LANES8_FROM`).
//! Everything else (a short tail chunk, a run of one or two, a host
//! without AVX-512, `DR_SIMD=scalar`) goes message by message through
//! [`sha1_digest`]. Which path a message took never shows in its digest.

use crate::digest::ChunkDigest;
use crate::sha1::sha1_digest;
#[cfg(target_arch = "x86_64")]
use crate::{
    sha1::{digest_of, H0, K},
    simd,
};

/// Messages per group of the sixteen-lane arm: the 32-bit lanes of a
/// `zmm` register.
pub const SHA1_MB_LANES: usize = 16;

/// Messages per group of the eight-lane arm: the 32-bit lanes of a `ymm`
/// register.
const LANES8: usize = 8;

/// The shortest run [`sha1_digest_many`] gives the sixteen lanes, and the
/// shortest it gives the eight; a shorter run goes one message at a time.
///
/// Measured on the 2-core reference host (AVX-512 and SHA-NI), pinned,
/// 4 KiB messages, µs per call, best of 15 rounds, the spread of three
/// runs: one message alone 3.1–3.5, eight lanes 8.9–9.2, sixteen lanes
/// 12.7–13.3, however many lanes carry a message. Two messages alone
/// (6.3–7.1) beat eight lanes, three (9.4–9.7) do not; nine go as eight
/// lanes and one alone (12.0–13.2), ten as sixteen lanes (13.2–13.4,
/// against about 15.5 for eight lanes and two alone).
#[cfg(target_arch = "x86_64")]
const LANES16_FROM: usize = 10;
#[cfg(target_arch = "x86_64")]
const LANES8_FROM: usize = 3;

/// SHA-1 of every message: `out[i] = sha1_digest(msgs[i])`. Returns how
/// many of them went through a lane arm (see the module docs for which
/// do) — a count for observability, the digests do not depend on it.
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
    {
        let (lanes16, lanes8) = (simd::sha1_mb_avx512(), simd::sha1_mb8_avx512vl());
        while (lanes16 || lanes8) && i < msgs.len() {
            let (rest, digests) = (&msgs[i..], &mut out[i..]);
            let run = lock_step_run(rest);
            let taken = if lanes16 && run >= LANES16_FROM {
                // SAFETY: sha1_mb_avx512() verified avx512f/bw at runtime.
                padded(&rest[..run], digests, |g, d| unsafe {
                    sha1_mb16_avx512(g, d)
                })
            } else if lanes8 && run >= LANES8_FROM {
                let run = run.min(LANES8);
                // SAFETY: sha1_mb8_avx512vl() verified avx512f/vl at runtime.
                padded(&rest[..run], digests, |g, d| unsafe {
                    sha1_mb8_avx512vl(g, d)
                })
            } else {
                // A run too short for lanes: this message goes alone, and
                // a run is looked for again from the next one.
                digests[0] = sha1_digest(rest[0]);
                i += 1;
                continue;
            };
            wide += taken;
            i += taken;
        }
    }
    for (digest, msg) in out[i..].iter_mut().zip(&msgs[i..]) {
        *digest = sha1_digest(msg);
    }
    wide
}

/// How many messages from the front of `msgs`, at most sixteen, share the
/// first one's length when that is a non-zero number of whole blocks:
/// what lanes can run in lock step, to the same padding block. Zero when
/// the first message is not whole blocks.
#[cfg(target_arch = "x86_64")]
fn lock_step_run(msgs: &[&[u8]]) -> usize {
    let len = msgs[0].len();
    if len == 0 || !len.is_multiple_of(64) {
        return 0;
    }
    let run = msgs.iter().take(SHA1_MB_LANES);
    run.take_while(|m| m.len() == len).count()
}

/// The length every message of `group` has, when they are all one
/// lock-step run.
#[cfg(target_arch = "x86_64")]
fn lock_step_len(group: &[&[u8]]) -> Option<usize> {
    (lock_step_run(group) == group.len()).then(|| group[0].len())
}

/// Runs a `LANES`-wide arm on `run` — at most `LANES` lock-step messages —
/// with the lanes past its end carrying copies of its last message, and
/// writes the run's digests to the front of `out`. Returns the run's
/// length.
#[cfg(target_arch = "x86_64")]
fn padded<const LANES: usize>(
    run: &[&[u8]],
    out: &mut [ChunkDigest],
    arm: impl FnOnce(&[&[u8]; LANES], &mut [ChunkDigest; LANES]),
) -> usize {
    let last = run[run.len() - 1];
    let group = std::array::from_fn(|lane| run.get(lane).copied().unwrap_or(last));
    let mut digests = [ChunkDigest::zero(); LANES];
    arm(&group, &mut digests);
    out[..run.len()].copy_from_slice(&digests[..run.len()]);
    run.len()
}

/// One round in every lane, with the roles of the five words passed by
/// name, so that five of them in rotated order stand where a shift of all
/// five would. `$v` is the register width's module (`zmm`, `ymm`), `$w`
/// the sixteen-word schedule ring, `$f` the `vpternlogd` truth table of
/// the stage's function of (b, c, d): 0xCA = Ch, 0x96 = Parity, 0xE8 =
/// Maj. `$t` is a constant, so the ring indices and the `$t >= 16` test
/// fold away.
#[cfg(target_arch = "x86_64")]
macro_rules! round {
    ($v:ident, $w:ident, $k:ident, $f:literal, $t:expr,
     $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        if $t >= 16 {
            let (w13, w8, w2) = ($w[($t + 13) & 15], $w[($t + 8) & 15], $w[($t + 2) & 15]);
            let x = $v::ternlog::<0x96>(w13, w8, w2);
            $w[$t & 15] = $v::rol::<1>($v::xor(x, $w[$t & 15]));
        }
        let f = $v::ternlog::<$f>($b, $c, $d);
        let wk = $v::add($w[$t & 15], $k);
        $e = $v::add($v::add($e, $v::rol::<5>($a)), $v::add(f, wk));
        $b = $v::rol::<30>($b);
    };
}

/// The twenty rounds of stage `$stage`.
#[cfg(target_arch = "x86_64")]
macro_rules! stage {
    ($v:ident, $w:ident, $stage:literal, $f:literal,
     $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        let k = $v::set1(K[$stage]);
        stage!(@five $v, $w, k, $f, $stage * 20, $a, $b, $c, $d, $e);
        stage!(@five $v, $w, k, $f, $stage * 20 + 5, $a, $b, $c, $d, $e);
        stage!(@five $v, $w, k, $f, $stage * 20 + 10, $a, $b, $c, $d, $e);
        stage!(@five $v, $w, k, $f, $stage * 20 + 15, $a, $b, $c, $d, $e);
    };
    (@five $v:ident, $w:ident, $k:ident, $f:literal, $t:expr,
     $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        round!($v, $w, $k, $f, $t, $a, $b, $c, $d, $e);
        round!($v, $w, $k, $f, $t + 1, $e, $a, $b, $c, $d);
        round!($v, $w, $k, $f, $t + 2, $d, $e, $a, $b, $c);
        round!($v, $w, $k, $f, $t + 3, $c, $d, $e, $a, $b);
        round!($v, $w, $k, $f, $t + 4, $b, $c, $d, $e, $a);
    };
}

/// The round function and the closing padding block on one register
/// width, `$lanes` messages to a register: the module both lane arms run
/// their blocks through, so that they differ only in how a block is
/// loaded and transposed.
#[cfg(target_arch = "x86_64")]
macro_rules! lane_width {
    ($name:ident, $features:literal, $lanes:expr, $v:ty, $set1:ident, $add:ident,
     $xor:ident, $ternlog:ident, $rol:ident, $store:ident) => {
        mod $name {
            use super::{digest_of, ChunkDigest, H0, K};
            use std::arch::x86_64::*;

            #[inline]
            #[target_feature(enable = $features)]
            fn set1(word: u32) -> $v {
                $set1(word as i32)
            }

            #[inline]
            #[target_feature(enable = $features)]
            fn add(a: $v, b: $v) -> $v {
                $add(a, b)
            }

            #[inline]
            #[target_feature(enable = $features)]
            fn xor(a: $v, b: $v) -> $v {
                $xor(a, b)
            }

            #[inline]
            #[target_feature(enable = $features)]
            fn ternlog<const F: i32>(a: $v, b: $v, c: $v) -> $v {
                $ternlog::<F>(a, b, c)
            }

            #[inline]
            #[target_feature(enable = $features)]
            fn rol<const N: i32>(a: $v) -> $v {
                $rol::<N>(a)
            }

            /// The initial hash value in every lane.
            #[inline]
            #[target_feature(enable = $features)]
            pub(super) fn init() -> [$v; 5] {
                let mut state = [set1(0); 5];
                for (word, h) in state.iter_mut().zip(H0) {
                    *word = set1(h);
                }
                state
            }

            /// The eighty rounds of one block in every lane: `w` holds
            /// schedule words 0..16 on entry and is the ring the rest are
            /// computed in.
            #[inline]
            #[target_feature(enable = $features)]
            pub(super) fn compress(state: &mut [$v; 5], mut w: [$v; 16]) {
                let [mut a, mut b, mut c, mut d, mut e] = *state;
                stage!(self, w, 0, 0xCA, a, b, c, d, e);
                stage!(self, w, 1, 0x96, a, b, c, d, e);
                stage!(self, w, 2, 0xE8, a, b, c, d, e);
                stage!(self, w, 3, 0x96, a, b, c, d, e);
                for (word, add) in state.iter_mut().zip([a, b, c, d, e]) {
                    *word = self::add(*word, add);
                }
            }

            /// Compresses the padding block of a whole-block message of
            /// `len` bytes — 0x80, zeros, the bit length in the last two
            /// words, the same in every lane — and writes each lane's
            /// digest.
            #[inline]
            #[target_feature(enable = $features)]
            pub(super) fn finish(mut state: [$v; 5], len: usize, out: &mut [ChunkDigest; $lanes]) {
                let bit_len = (len as u64).wrapping_mul(8);
                let mut pad = [set1(0); 16];
                pad[0] = set1(0x8000_0000);
                pad[14] = set1((bit_len >> 32) as u32);
                pad[15] = set1(bit_len as u32);
                compress(&mut state, pad);
                let mut words = [[0u32; $lanes]; 5];
                for (lanes, word) in words.iter_mut().zip(state) {
                    // SAFETY: `lanes` is one register's worth of writable
                    // bytes; the store is unaligned.
                    unsafe { $store(lanes.as_mut_ptr().cast(), word) };
                }
                for (lane, digest) in out.iter_mut().enumerate() {
                    *digest = digest_of(&words.map(|lanes| lanes[lane]));
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
lane_width!(
    zmm,
    "avx512f",
    super::SHA1_MB_LANES,
    __m512i,
    _mm512_set1_epi32,
    _mm512_add_epi32,
    _mm512_xor_si512,
    _mm512_ternarylogic_epi32,
    _mm512_rol_epi32,
    _mm512_storeu_si512
);
#[cfg(target_arch = "x86_64")]
lane_width!(
    ymm,
    "avx512f,avx512vl",
    super::LANES8,
    __m256i,
    _mm256_set1_epi32,
    _mm256_add_epi32,
    _mm256_xor_si256,
    _mm256_ternarylogic_epi32,
    _mm256_rol_epi32,
    _mm256_storeu_si256
);

/// Sixteen-lane arm: lane `l` of every `zmm` register belongs to
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
    let mut state = zmm::init();
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
        zmm::compress(&mut state, w);
    }
    zmm::finish(state, len, out);
}

/// Eight-lane arm: the sixteen-lane arm's rounds on `ymm` registers, lane
/// `l` belonging to `msgs[l]` — for runs too short to pay for sixteen
/// lanes. Per block, each message's two 32-byte halves are loaded and
/// byte-swapped, and the eight messages' first halves, then their second
/// halves, go through one 8 x 8 transpose each: schedule words 0..8, then
/// 8..16.
///
/// Safe to call only where AVX-512F and AVX-512VL are known to be
/// present, which is what makes a call from ordinary code `unsafe`.
///
/// # Panics
///
/// Panics unless the messages share one length that is a non-zero
/// multiple of 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn sha1_mb8_avx512vl(msgs: &[&[u8]; LANES8], out: &mut [ChunkDigest; LANES8]) {
    use std::arch::x86_64::*;

    /// `rows[l]` = eight words of message `l` in, `rows[t]` = word `t` of
    /// all eight messages out.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vl")]
    fn transpose(rows: &mut [__m256i; LANES8]) {
        // 32- then 64-bit interleaves: register `4q + c` ends up with word
        // `c` of messages `4q .. 4q + 4` in its low 128 bits and word
        // `4 + c` in its high 128 bits.
        for quad in rows.chunks_exact_mut(4) {
            let lo01 = _mm256_unpacklo_epi32(quad[0], quad[1]);
            let hi01 = _mm256_unpackhi_epi32(quad[0], quad[1]);
            let lo23 = _mm256_unpacklo_epi32(quad[2], quad[3]);
            let hi23 = _mm256_unpackhi_epi32(quad[2], quad[3]);
            quad[0] = _mm256_unpacklo_epi64(lo01, lo23);
            quad[1] = _mm256_unpackhi_epi64(lo01, lo23);
            quad[2] = _mm256_unpacklo_epi64(hi01, hi23);
            quad[3] = _mm256_unpackhi_epi64(hi01, hi23);
        }
        // Word `c` joins the two quads' low halves, word `4 + c` their
        // high halves.
        let quads = *rows;
        for c in 0..4 {
            rows[c] = _mm256_permute2x128_si256::<0x20>(quads[c], quads[4 + c]);
            rows[4 + c] = _mm256_permute2x128_si256::<0x31>(quads[c], quads[4 + c]);
        }
    }

    let len = lock_step_len(msgs).expect("eight messages of one whole-block length");
    // Loads are little-endian, the schedule wants big-endian words.
    let byte_swap = _mm256_broadcastsi128_si256(_mm_set_epi8(
        12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
    ));
    let mut state = ymm::init();
    for offset in (0..len).step_by(64) {
        let mut w = [_mm256_setzero_si256(); 16];
        for (lane, msg) in msgs.iter().enumerate() {
            let (halves, _) = msg[offset..offset + 64].as_chunks::<32>();
            for (half, bytes) in halves.iter().enumerate() {
                // SAFETY: `bytes` is 32 readable bytes; the load is
                // unaligned.
                let bytes = unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) };
                w[LANES8 * half + lane] = _mm256_shuffle_epi8(bytes, byte_swap);
            }
        }
        // Rows 0..8 hold the first halves, rows 8..16 the second; each
        // transpose yields eight schedule words.
        for rows in w.as_chunks_mut::<LANES8>().0 {
            transpose(rows);
        }
        ymm::compress(&mut state, w);
    }
    ymm::finish(state, len, out);
}
#[cfg(test)]
pub(crate) mod tests {
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

    /// How many messages of a lock-step run of `n` go through lanes on
    /// this host, written out from the dispatch table rather than from its
    /// constants: sixteen lanes while sixteen are left; of a remainder,
    /// 10–15 in sixteen padded lanes, 3–8 in eight, nine as eight lanes and
    /// one alone, one or two alone.
    pub(crate) fn lanes(n: usize) -> usize {
        const REST: [usize; 16] = [0, 0, 0, 3, 4, 5, 6, 7, 8, 8, 10, 11, 12, 13, 14, 15];
        match (
            crate::simd::sha1_mb_avx512(),
            crate::simd::sha1_mb8_avx512vl(),
        ) {
            (true, true) => n / 16 * 16 + REST[n % 16],
            (true, false) => n / 16 * 16 + if n % 16 >= 10 { n % 16 } else { 0 },
            (false, true) => n / 8 * 8 + if n % 8 >= 3 { n % 8 } else { 0 },
            (false, false) => 0,
        }
    }

    /// `sha1_digest_many` against one `sha1_digest` per message; returns
    /// the lane count.
    fn check(msgs: &[&[u8]], what: &str) -> usize {
        let mut out = vec![ChunkDigest::zero(); msgs.len()];
        let wide = sha1_digest_many(msgs, &mut out);
        for (i, (got, msg)) in out.iter().zip(msgs).enumerate() {
            assert_eq!(*got, sha1_digest(msg), "{what}: message {i}");
        }
        wide
    }

    /// The lane arm as wide as `msgs` (sixteen or eight) called directly —
    /// whatever `DR_SIMD` says — when the CPU has it; `None` when it does
    /// not.
    fn lane_arm(msgs: &[&[u8]]) -> Option<Vec<ChunkDigest>> {
        #[cfg(target_arch = "x86_64")]
        {
            let avx512f = is_x86_feature_detected!("avx512f");
            if let Ok(group) = msgs.try_into() {
                if avx512f && is_x86_feature_detected!("avx512bw") {
                    let mut out = [ChunkDigest::zero(); SHA1_MB_LANES];
                    // SAFETY: avx512f/bw detected just above.
                    unsafe { sha1_mb16_avx512(group, &mut out) };
                    return Some(out.to_vec());
                }
            }
            if let Ok(group) = msgs.try_into() {
                if avx512f && is_x86_feature_detected!("avx512vl") {
                    let mut out = [ChunkDigest::zero(); LANES8];
                    // SAFETY: avx512f/vl detected just above.
                    unsafe { sha1_mb8_avx512vl(group, &mut out) };
                    return Some(out.to_vec());
                }
            }
        }
        let _ = msgs;
        None
    }

    /// `lane_arm` on `msgs`, checked lane by lane against `sha1_digest`.
    fn check_arm(msgs: &[&[u8]], what: &str) {
        let Some(got) = lane_arm(msgs) else { return };
        for (lane, (got, msg)) in got.iter().zip(msgs).enumerate() {
            assert_eq!(
                *got,
                sha1_digest(msg),
                "{} lanes, {what}, lane {lane}",
                msgs.len()
            );
        }
    }

    #[test]
    fn many_equals_one_at_a_time_for_every_count_length_and_arrangement() {
        // Message `i` of length `len` is a window of one noise buffer that
        // starts 97 bytes after message `i - 1`: no two hold the same
        // bytes, and their alignments differ.
        let backing = noise(50 * 97 + 4160 + 64, 0x5AA1);
        let msg = |i: usize, len: usize| &backing[i * 97..i * 97 + len];
        for len in [0usize, 1, 63, 64, 65, 4032, 4096, 4160] {
            let whole = len != 0 && len.is_multiple_of(64);
            let expected = |n: usize| if whole { lanes(n) } else { 0 };
            // A length that breaks a run: one block less — still whole
            // blocks, so only the comparison keeps it out — or one more byte.
            let odd = if len >= 128 { len - 64 } else { len + 1 };
            for count in 0..=50usize {
                let equal: Vec<&[u8]> = (0..count).map(|i| msg(i, len)).collect();
                let wide = check(&equal, &format!("{count} x {len}"));
                assert_eq!(wide, expected(count), "{count} x {len}");

                // Every message its own length: no run is longer than one.
                let unequal: Vec<&[u8]> = (0..count).map(|i| msg(i, len + i)).collect();
                let wide = check(&unequal, &format!("{count} from {len} up"));
                assert_eq!(wide, 0, "{count} from {len} up");

                // One odd message at each position of the first group: the
                // run before it and the run behind it take lanes apart.
                for at in 0..SHA1_MB_LANES.min(count) {
                    let mut msgs = equal.clone();
                    msgs[at] = msg(at, odd);
                    let wide = check(&msgs, &format!("{count} x {len}, odd one at {at}"));
                    let lanes = expected(at) + expected(count - at - 1);
                    assert_eq!(wide, lanes, "{count} x {len}, odd at {at}");
                }
            }
        }
    }

    #[test]
    fn lanes_keep_their_own_bytes_at_every_alignment() {
        // Sixteen or eight messages of different bytes, each lane at its
        // own alignment within a cache line, every alignment visited by
        // every lane; the last message ends where its allocation ends, so
        // a load past a message is a load past the heap block.
        for lanes in [SHA1_MB_LANES, 8] {
            for len in [64usize, 192, 4096] {
                let stride = len + 64;
                for shift in 0..64 {
                    let align = |lane: usize| (lane * 4 + lane / 4 + shift) % 64;
                    let mut backing = noise(64 + lanes * stride, shift as u64 + 1);
                    let base = backing.as_ptr().align_offset(64);
                    let last = lanes - 1;
                    backing.truncate(base + last * stride + align(last) + len);
                    backing.shrink_to_fit();
                    let base = backing.as_ptr().align_offset(64);
                    let msgs: Vec<&[u8]> = (0..lanes)
                        .map(|lane| {
                            let start = base + lane * stride + align(lane);
                            &backing[start..start + len]
                        })
                        .collect();
                    check_arm(&msgs, &format!("len {len}, shift {shift}"));
                }
            }
        }
    }

    #[test]
    fn a_lane_swap_shows_in_the_digests() {
        // Messages that differ in one word each, at every word position of
        // the block: a transpose that swaps two lanes or two words hands at
        // least one message another's word.
        for lanes in [SHA1_MB_LANES, 8] {
            for word in 0..16 {
                let blocks: Vec<[u8; 64]> = (0..lanes)
                    .map(|lane| {
                        let mut block = [0u8; 64];
                        let tag = (lane as u32 + 1).to_be_bytes();
                        block[word * 4..word * 4 + 4].copy_from_slice(&tag);
                        block
                    })
                    .collect();
                let msgs: Vec<&[u8]> = blocks.iter().map(|b| &b[..]).collect();
                check_arm(&msgs, &format!("word {word}"));
            }
        }
    }

    /// FIPS 180-1's long vector in every lane of a `lanes`-wide group:
    /// 1 000 000 = 64 x 15 625, so it is a whole-block message.
    fn million_a(lanes: usize) {
        let data = vec![b'a'; 1_000_000];
        let msgs = vec![data.as_slice(); lanes];
        let mut out = vec![ChunkDigest::zero(); lanes];
        sha1_digest_many(&msgs, &mut out);
        for digests in [Some(out), lane_arm(&msgs)].into_iter().flatten() {
            for digest in digests {
                assert_eq!(digest.to_hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
            }
        }
    }

    #[test]
    fn million_a_in_all_sixteen_lanes() {
        million_a(SHA1_MB_LANES);
    }

    #[test]
    fn million_a_in_all_eight_lanes() {
        million_a(8);
    }

    #[test]
    #[should_panic(expected = "one digest slot per message")]
    fn a_short_output_slice_is_refused() {
        sha1_digest_many(&[b"a", b"b"], &mut [ChunkDigest::zero()]);
    }

    /// A `lanes`-wide group whose message in lane `lanes / 2 + 1` is one
    /// block shorter than the rest, handed to the arm directly.
    fn out_of_lock_step(lanes: usize) {
        let long = [0u8; 128];
        let mut msgs = vec![&long[..]; lanes];
        msgs[lanes / 2 + 1] = &long[..64];
        if lane_arm(&msgs).is_none() {
            panic!("no such arm on this CPU: one whole-block length");
        }
    }

    #[test]
    #[should_panic(expected = "one whole-block length")]
    fn the_wide_arm_refuses_messages_out_of_lock_step() {
        out_of_lock_step(SHA1_MB_LANES);
    }

    #[test]
    #[should_panic(expected = "one whole-block length")]
    fn the_eight_lane_arm_refuses_messages_out_of_lock_step() {
        out_of_lock_step(8);
    }
}
