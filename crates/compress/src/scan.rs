//! SWAR match scanning for the LZ matcher.
//!
//! Greedy match extension is the hottest loop in [`crate::FastLz`] and in
//! each GPU sub-chunk thread: every candidate is extended byte-at-a-time
//! until the first mismatch. [`match_len`] does the same comparison eight
//! bytes at a time — XOR two `u64` loads and locate the first differing
//! byte with `trailing_zeros` — falling back to bytes for the tail.
//!
//! This is **decision-identical** to the byte loop, not just
//! output-compatible: both sides of the comparison read the original
//! input buffer (the matchers are not streaming decoders), so overlapping
//! self-referential matches — e.g. RLE-style `offset 1` runs — compare
//! exactly the same bytes either way. The scalar reference is kept and
//! pinned against the SWAR path by differential tests.

/// Length of the common prefix of `a` and `b` (bounded by the shorter
/// slice), compared one `u64` at a time.
#[inline]
pub fn match_len(a: &[u8], b: &[u8]) -> usize {
    let limit = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= limit {
        let wa = u64::from_le_bytes(a[i..i + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        let diff = wa ^ wb;
        if diff != 0 {
            // In a little-endian load the first differing byte is the
            // lowest-order nonzero byte of the XOR.
            return i + (diff.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < limit && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Byte-at-a-time reference. Exposed for differential tests.
#[doc(hidden)]
pub fn match_len_scalar(a: &[u8], b: &[u8]) -> usize {
    let limit = a.len().min(b.len());
    let mut i = 0;
    while i < limit && a[i] == b[i] {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_trivial() {
        assert_eq!(match_len(b"", b""), 0);
        assert_eq!(match_len(b"a", b""), 0);
        assert_eq!(match_len(b"a", b"a"), 1);
        assert_eq!(match_len(b"a", b"b"), 0);
    }

    #[test]
    fn mismatch_at_every_offset_in_first_words() {
        // Place the single mismatch at every position 0..24 to cover the
        // first-word, second-word, and word-boundary cases.
        let base = vec![0x55u8; 32];
        for at in 0..24 {
            let mut other = base.clone();
            other[at] ^= 0xFF;
            assert_eq!(match_len(&base, &other), at, "mismatch at {at}");
            assert_eq!(match_len_scalar(&base, &other), at);
        }
    }

    #[test]
    fn swar_matches_scalar_at_buffer_boundaries() {
        // Lengths around the 8-byte stride, equal and unequal tails.
        let data: Vec<u8> = (0..64u8).collect();
        for len_a in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64] {
            for len_b in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64] {
                let a = &data[..len_a];
                let b = &data[..len_b];
                assert_eq!(match_len(a, b), match_len_scalar(a, b), "{len_a}/{len_b}");
            }
        }
    }

    #[test]
    fn swar_matches_scalar_on_random_pairs() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let len = (next() % 100) as usize;
            let a: Vec<u8> = (0..len).map(|_| (next() % 4) as u8).collect();
            let b: Vec<u8> = (0..len).map(|_| (next() % 4) as u8).collect();
            assert_eq!(match_len(&a, &b), match_len_scalar(&a, &b));
        }
    }

    #[test]
    fn overlapping_self_referential_slices() {
        // The RLE case: candidate one byte behind the scan position over a
        // run of zeros. Both slices view the same buffer.
        let zeros = [0u8; 100];
        assert_eq!(match_len(&zeros[0..99], &zeros[1..100]), 99);
        let mut run = vec![7u8; 50];
        run.push(8);
        assert_eq!(match_len(&run[0..50], &run[1..51]), 49);
    }
}
