//! Flat SoA entry pages — the bin storage layout.
//!
//! An [`EntryPage`] stores bin entries as three parallel columns instead
//! of an array-of-structs:
//!
//! * `heads` — the big-endian first 8 key bytes, one `u64` per entry: the
//!   SWAR prefilter column. A probe compares one `u64` per entry and only
//!   touches the key column on a head match.
//! * `keys` — the 20-byte [`BinKey`]s packed back to back: the contiguous
//!   column the GPU mirror uploads with a single copy (the paper's linear
//!   bin table is exactly this byte layout).
//! * `refs` — the fixed-width [`ChunkRef`] payloads.
//!
//! Routed key prefixes are zeroed ([`crate::BinIndex::key_of`]), so heads
//! of co-binned keys still discriminate on bytes 2..8 — with SHA-1 keys
//! two entries share a head with probability ~2^-48, which makes the
//! prefilter pay for almost every non-matching entry.
//!
//! Pages come in two disciplines, both enforced by the caller
//! ([`Bin`](crate::Bin)): *append-ordered* (the recent-insert buffer,
//! probed newest-first) and *key-sorted with unique keys* (the flushed
//! store, probed by binary search above a small-page SWAR scan).

use crate::bin::BinKey;
use crate::entry::ChunkRef;

/// Bytes per packed key in the key column.
pub const KEY_BYTES: usize = 20;

/// Sorted pages at or below this entry count are probed by SWAR linear
/// scan instead of binary search — at small sizes the branch-free
/// prefilter walk beats the log-factor.
const SMALL_SORTED_SCAN: usize = 32;

/// A flat structure-of-arrays page of `(BinKey, ChunkRef)` entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntryPage {
    heads: Vec<u64>,
    keys: Vec<u8>,
    refs: Vec<ChunkRef>,
}

/// The `u64` prefilter word of a key: its first 8 bytes, big-endian, so
/// `head(a) < head(b)` agrees with lexicographic key order.
#[inline]
pub fn key_head(key: &BinKey) -> u64 {
    u64::from_be_bytes(key[..8].try_into().expect("8-byte head"))
}

impl EntryPage {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty page with room for `n` entries in every column.
    pub fn with_capacity(n: usize) -> Self {
        EntryPage {
            heads: Vec::with_capacity(n),
            keys: Vec::with_capacity(n * KEY_BYTES),
            refs: Vec::with_capacity(n),
        }
    }

    /// Entries in the page.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True when the page holds no entries.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Removes every entry, keeping the column allocations.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.keys.clear();
        self.refs.clear();
    }

    /// Appends an entry.
    pub fn push(&mut self, key: &BinKey, r: ChunkRef) {
        self.heads.push(key_head(key));
        self.keys.extend_from_slice(key);
        self.refs.push(r);
    }

    /// The key at `index`.
    pub fn key_at(&self, index: usize) -> &BinKey {
        self.keys[index * KEY_BYTES..(index + 1) * KEY_BYTES]
            .try_into()
            .expect("packed key")
    }

    /// The payload at `index`.
    pub fn ref_at(&self, index: usize) -> ChunkRef {
        self.refs[index]
    }

    /// Overwrites the entry at `index`.
    pub fn set_at(&mut self, index: usize, key: &BinKey, r: ChunkRef) {
        self.heads[index] = key_head(key);
        self.keys[index * KEY_BYTES..(index + 1) * KEY_BYTES].copy_from_slice(key);
        self.refs[index] = r;
    }

    /// The packed key column — `len() * KEY_BYTES` contiguous bytes in
    /// entry order. This is the slice the GPU mirror uploads verbatim.
    pub fn key_bytes(&self) -> &[u8] {
        &self.keys
    }

    /// Oldest-first probe (entry order), SWAR-prefiltered: one `u64`
    /// compare per entry, full-key tail compare only on a head match.
    pub fn find(&self, key: &BinKey) -> Option<usize> {
        let head = key_head(key);
        self.heads
            .iter()
            .enumerate()
            .find(|&(i, &h)| h == head && self.tail_matches(i, key))
            .map(|(i, _)| i)
    }

    /// Newest-first probe (reverse entry order) — the recent-insert buffer
    /// discipline, where the latest duplicate wins.
    pub fn rfind(&self, key: &BinKey) -> Option<usize> {
        let head = key_head(key);
        self.heads
            .iter()
            .enumerate()
            .rev()
            .find(|&(i, &h)| h == head && self.tail_matches(i, key))
            .map(|(i, _)| i)
    }

    /// Probe of a key-sorted unique-key page: SWAR scan when small,
    /// head-column binary search otherwise.
    pub fn find_sorted(&self, key: &BinKey) -> Option<usize> {
        if self.len() <= SMALL_SORTED_SCAN {
            return self.find(key);
        }
        self.search_sorted(key).ok()
    }

    /// Binary search in a key-sorted page: `Ok(index)` on a hit,
    /// `Err(insertion_point)` on a miss.
    pub fn search_sorted(&self, key: &BinKey) -> Result<usize, usize> {
        let head = key_head(key);
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            // Head-first compare: the u64 column settles nearly every
            // step without touching the key column.
            let ord = self.heads[mid]
                .cmp(&head)
                .then_with(|| self.key_at(mid)[8..].cmp(&key[8..]));
            match ord {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Inserts into a key-sorted page, keeping it sorted. Overwrites the
    /// payload when the key is already present. Returns true when the key
    /// was new.
    pub fn insert_sorted(&mut self, key: &BinKey, r: ChunkRef) -> bool {
        // Restores feed keys mostly in ascending order; appending past the
        // current maximum skips the memmove entirely.
        if self
            .len()
            .checked_sub(1)
            .is_none_or(|last| self.key_at(last) < key)
        {
            self.push(key, r);
            return true;
        }
        match self.search_sorted(key) {
            Ok(i) => {
                self.refs[i] = r;
                false
            }
            Err(i) => {
                self.insert_at(i, key, r);
                true
            }
        }
    }

    /// Inserts an entry at `index`, shifting later entries up.
    fn insert_at(&mut self, index: usize, key: &BinKey, r: ChunkRef) {
        self.heads.insert(index, key_head(key));
        let at = index * KEY_BYTES;
        self.keys.splice(at..at, key.iter().copied());
        self.refs.insert(index, r);
    }

    /// Removes the entry at `index`, shifting later entries down
    /// (order-preserving — keeps a sorted page sorted).
    pub fn remove(&mut self, index: usize) -> (BinKey, ChunkRef) {
        let key = *self.key_at(index);
        self.heads.remove(index);
        let at = index * KEY_BYTES;
        self.keys.drain(at..at + KEY_BYTES);
        (key, self.refs.remove(index))
    }

    /// Removes the entry at `index` by swapping the last entry into its
    /// place (constant time, order-destroying — buffer discipline only).
    pub fn swap_remove(&mut self, index: usize) -> (BinKey, ChunkRef) {
        let key = *self.key_at(index);
        let last = self.len() - 1;
        if index != last {
            self.heads[index] = self.heads[last];
            let (head_part, tail_part) = self.keys.split_at_mut(last * KEY_BYTES);
            head_part[index * KEY_BYTES..(index + 1) * KEY_BYTES]
                .copy_from_slice(&tail_part[..KEY_BYTES]);
        }
        self.heads.pop();
        self.keys.truncate(last * KEY_BYTES);
        (key, self.refs.swap_remove(index))
    }

    /// Drains the page into an owned entry vector (entry order).
    pub fn take_entries(&mut self) -> Vec<(BinKey, ChunkRef)> {
        let out = self.iter().map(|(k, r)| (*k, *r)).collect();
        self.clear();
        out
    }

    /// Iterates entries in page order.
    pub fn iter(&self) -> impl Iterator<Item = (&BinKey, &ChunkRef)> {
        self.refs
            .iter()
            .enumerate()
            .map(|(i, r)| (self.key_at(i), r))
    }

    #[inline]
    fn tail_matches(&self, index: usize, key: &BinKey) -> bool {
        self.keys[index * KEY_BYTES + 8..(index + 1) * KEY_BYTES] == key[8..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> BinKey {
        let mut k = [0u8; 20];
        k[19] = n;
        k[4] = n.wrapping_mul(3); // vary the head column too
        k
    }

    #[test]
    fn push_find_and_columns_agree() {
        let mut p = EntryPage::new();
        for i in 0..10u8 {
            p.push(&key(i), ChunkRef::new(i as u64, 10));
        }
        assert_eq!(p.len(), 10);
        assert_eq!(p.key_bytes().len(), 10 * KEY_BYTES);
        for i in 0..10u8 {
            let at = p.find(&key(i)).unwrap();
            assert_eq!(p.key_at(at), &key(i));
            assert_eq!(p.ref_at(at), ChunkRef::new(i as u64, 10));
        }
        assert_eq!(p.find(&key(99)), None);
    }

    #[test]
    fn rfind_prefers_newest_duplicate() {
        let mut p = EntryPage::new();
        p.push(&key(1), ChunkRef::new(10, 1));
        p.push(&key(2), ChunkRef::new(20, 1));
        p.push(&key(1), ChunkRef::new(11, 1));
        assert_eq!(p.find(&key(1)), Some(0));
        assert_eq!(p.rfind(&key(1)), Some(2));
    }

    #[test]
    fn head_collisions_fall_through_to_tail_compare() {
        // Two keys identical in the first 8 bytes, differing at byte 12.
        let mut a = [0u8; 20];
        let mut b = [0u8; 20];
        a[12] = 1;
        b[12] = 2;
        let mut p = EntryPage::new();
        p.push(&a, ChunkRef::new(1, 1));
        p.push(&b, ChunkRef::new(2, 1));
        assert_eq!(key_head(&a), key_head(&b));
        assert_eq!(p.find(&a), Some(0));
        assert_eq!(p.find(&b), Some(1));
    }

    #[test]
    fn sorted_insert_search_small_and_large() {
        let mut p = EntryPage::new();
        // Descending inserts exercise the shifting path; > SMALL_SORTED_SCAN
        // entries exercise binary search.
        for i in (0..100u8).rev() {
            assert!(p.insert_sorted(&key(i), ChunkRef::new(i as u64, 1)));
        }
        assert_eq!(p.len(), 100);
        for i in 1..100 {
            assert!(p.key_at(i - 1) < p.key_at(i), "sorted order at {i}");
        }
        for i in 0..100u8 {
            let at = p.find_sorted(&key(i)).unwrap();
            assert_eq!(p.ref_at(at), ChunkRef::new(i as u64, 1));
        }
        assert_eq!(p.find_sorted(&key(200)), None);
        // Overwrite keeps the key unique and updates the payload.
        assert!(!p.insert_sorted(&key(42), ChunkRef::new(999, 1)));
        assert_eq!(p.len(), 100);
        let at = p.find_sorted(&key(42)).unwrap();
        assert_eq!(p.ref_at(at).addr(), 999);
    }

    #[test]
    fn remove_preserves_order_swap_remove_is_constant_shape() {
        let mut p = EntryPage::new();
        for i in 0..5u8 {
            p.push(&key(i), ChunkRef::new(i as u64, 1));
        }
        let (k, r) = p.remove(1);
        assert_eq!((k, r), (key(1), ChunkRef::new(1, 1)));
        let order: Vec<u8> = p.iter().map(|(k, _)| k[19]).collect();
        assert_eq!(order, vec![0, 2, 3, 4]);

        let (k, _) = p.swap_remove(0);
        assert_eq!(k, key(0));
        let order: Vec<u8> = p.iter().map(|(k, _)| k[19]).collect();
        assert_eq!(order, vec![4, 2, 3], "last entry swapped into the hole");
    }

    #[test]
    fn take_entries_drains_in_order() {
        let mut p = EntryPage::new();
        for i in 0..4u8 {
            p.push(&key(i), ChunkRef::new(i as u64, 1));
        }
        let entries = p.take_entries();
        assert_eq!(entries.len(), 4);
        assert!(p.is_empty());
        assert_eq!(entries[2], (key(2), ChunkRef::new(2, 1)));
    }

    #[test]
    fn key_bytes_is_the_packed_key_column() {
        let mut p = EntryPage::new();
        p.push(&key(7), ChunkRef::new(7, 1));
        p.push(&key(9), ChunkRef::new(9, 1));
        let mut expect = Vec::new();
        expect.extend_from_slice(&key(7));
        expect.extend_from_slice(&key(9));
        assert_eq!(p.key_bytes(), &expect[..]);
    }
}
