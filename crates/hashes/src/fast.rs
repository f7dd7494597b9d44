//! Fast non-cryptographic hashing: [`mix64`], the mixer the LZ match
//! tables hash their 3-byte windows with ([`crate::lz_slot`]) and the
//! cluster ring scores nodes with.
//!
//! Neither needs collision resistance against adversaries — dedup
//! decisions always go through SHA-1.

/// A strong 64-bit finalization mixer (the SplitMix64 / Murmur3 fmix64
/// constants). Turns a weakly distributed word (e.g. 4 little-endian input
/// bytes) into a well-avalanched hash, which is what byte-oriented LZ match
/// tables need.
///
/// ```
/// use dr_hashes::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// ```
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(MIX64_MUL_1);
    x = (x ^ (x >> 27)).wrapping_mul(MIX64_MUL_2);
    x ^ (x >> 31)
}

/// [`mix64`]'s two multipliers, shared with the vector arms of
/// [`crate::lz_slots`] that repeat its arithmetic lane-wise.
pub(crate) const MIX64_MUL_1: u64 = 0xBF58_476D_1CE4_E5B9;
pub(crate) const MIX64_MUL_2: u64 = 0x94D0_49BB_1331_11EB;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_avalanches_single_bit_flips() {
        // Flipping one input bit should flip roughly half the output bits.
        for bit in 0..64 {
            let a = mix64(0x0123_4567_89AB_CDEF);
            let b = mix64(0x0123_4567_89AB_CDEF ^ (1u64 << bit));
            let flipped = (a ^ b).count_ones();
            assert!(
                (16..=48).contains(&flipped),
                "bit {bit}: only {flipped} output bits flipped"
            );
        }
    }

    #[test]
    fn mix64_zero_maps_to_zero() {
        // Degenerate fixed point of this mixer; callers must not feed raw 0
        // when they need spread — the LZ tables always include position salt.
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn sequential_keys_spread_over_buckets() {
        // 1024 sequential integers into 64 buckets: no bucket should hold
        // more than 4x its fair share.
        let mut buckets = [0u32; 64];
        for i in 0..1024u64 {
            buckets[(mix64(i) % 64) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n < 64), "buckets: {buckets:?}");
    }
}
