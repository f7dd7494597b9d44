//! Fast non-cryptographic hashing.
//!
//! Two users inside the project:
//!
//! * the LZ compressors hash 3–4 byte windows into their match tables
//!   ([`mix64`] of the window bytes),
//! * the workload generator and tests need cheap stable fingerprints
//!   ([`fnv1a64`], [`FastHasher`]).
//!
//! None of these need collision resistance against adversaries — dedup
//! decisions always go through SHA-1.

/// FNV-1a 64-bit hash of `data`.
///
/// ```
/// use dr_hashes::fnv1a64;
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

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

/// An incremental FNV-1a hasher implementing [`std::hash::Hasher`], usable
/// as a drop-in `BuildHasher` for `HashMap`s in hot paths.
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use dr_hashes::FastHasher;
///
/// let mut h = FastHasher::default();
/// 42u64.hash(&mut h);
/// let _ = h.finish();
/// ```
#[derive(Debug, Clone)]
pub struct FastHasher(u64);

impl Default for FastHasher {
    fn default() -> Self {
        FastHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // Final mix so sequential keys spread across buckets.
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// `BuildHasher` for [`FastHasher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastBuildHasher;

impl std::hash::BuildHasher for FastBuildHasher {
    type Hasher = FastHasher;
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn fnv_known_answers() {
        // Vectors from the FNV reference implementation.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

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
    fn fast_hasher_stable_and_spread() {
        let build = FastBuildHasher;
        let h1 = {
            let mut h = build.build_hasher();
            h.write(b"hello");
            h.finish()
        };
        let h2 = {
            let mut h = build.build_hasher();
            h.write(b"hello");
            h.finish()
        };
        assert_eq!(h1, h2);
        let h3 = {
            let mut h = build.build_hasher();
            h.write(b"hellp");
            h.finish()
        };
        assert_ne!(h1, h3);
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
