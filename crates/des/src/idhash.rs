//! A deterministic hasher for maps keyed by numbers the program assigns
//! itself.
//!
//! Page numbers, frame addresses and bin indices are dense or aligned
//! integers the simulation hands out; nothing outside the program picks
//! them, so the flooding resistance `RandomState`'s SipHash pays for buys
//! nothing there. [`IdHasher`] is one add and one multiply per word, then
//! a rotation that brings the product's well-mixed high bits down to the
//! low bits a hash table indexes with — so page-aligned addresses, whose
//! low twelve bits are all zero, still spread. Maps keyed by bytes a
//! client chose (chunk digests) keep `RandomState`.
//!
//! ```
//! use dr_des::IdMap;
//! let mut pages: IdMap<u64, &str> = IdMap::default();
//! pages.insert(4096, "frame");
//! assert_eq!(pages.get(&4096), Some(&"frame"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits (the 64-bit `FxHasher`
/// constant of `rustc-hash` 2).
const K: u64 = 0xF135_7AEA_2E62_A9C5;

/// The multiply-based hasher of [`IdMap`] and [`IdSet`]: deterministic
/// across runs and processes, and a bijection on a single `u64` key.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut le = [0u8; 8];
            le.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(le));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut le = [0u8; 8];
            le[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(le));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = self.hash.wrapping_add(n).wrapping_mul(K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`IdHasher`]s; the `S` of [`IdMap`] and [`IdSet`].
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by program-assigned numbers, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

/// A `HashSet` of program-assigned numbers, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn lpns_and_page_aligned_addresses_hash_deterministically_and_distinctly() {
        let build = BuildIdHasher::default();
        for (what, step) in [("sequential LPNs", 1u64), ("4 096-aligned addresses", 4096)] {
            let keys = (0..1u64 << 16).map(|i| i * step);
            let hashes: Vec<u64> = keys.clone().map(|k| build.hash_one(k)).collect();
            // Deterministic: a second builder, as another process would
            // make, hashes every key the same.
            let again: Vec<u64> = keys.map(|k| BuildIdHasher::default().hash_one(k)).collect();
            assert_eq!(hashes, again, "{what}");
            let distinct: IdSet<u64> = hashes.iter().copied().collect();
            assert_eq!(distinct.len(), hashes.len(), "{what} collided");
            // The low bits a table indexes with spread too: 2^16 keys over
            // 2^16 low-bit buckets leave none holding more than a handful.
            let mut buckets = vec![0u8; 1 << 16];
            for h in &hashes {
                buckets[(h & 0xFFFF) as usize] += 1;
            }
            let worst = buckets.iter().max().copied().unwrap_or(0);
            assert!(worst <= 12, "{what}: {worst} keys share one low-bit bucket");
        }
    }

    #[test]
    fn a_usize_key_hashes_as_its_u64() {
        let build = BuildIdHasher::default();
        assert_eq!(build.hash_one(7usize), build.hash_one(7u64));
        assert_ne!(build.hash_one(7u64), build.hash_one(8u64));
    }
}
