//! One bin: a small buffer of recent inserts in front of a flushed store.
//!
//! Both halves are flat SoA [`EntryPage`]s (see [`crate::page`]): the
//! buffer is append-ordered and probed newest-first, the flushed store is
//! key-sorted with unique keys — the same observable behaviour as the
//! previous buffer-plus-`BTreeMap` layout (sorted iteration, nth-key
//! eviction, last-write-wins flush merges), but over contiguous columns
//! that probes SWAR-scan and the GPU mirror copies without re-packing.

use crate::entry::ChunkRef;
use crate::page::EntryPage;

/// The key a bin stores: the digest with its routed prefix zeroed.
///
/// Within one bin all entries share the same prefix, so zeroing it loses
/// nothing — this is the representational form of the paper's prefix
/// truncation (the analytic memory accounting lives in
/// [`MemoryModel`](crate::MemoryModel)).
pub type BinKey = [u8; 20];

/// Announcement that a bin buffer filled and was flushed into the bin tree.
///
/// The pipeline reacts to this in two ways, both from the paper: the
/// flushed entries are written to storage as one *sequential* write
/// ("creates the appropriate sequential writes for the SSD"), and the
/// GPU-resident copy of the bin is updated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushEvent {
    /// Which bin flushed.
    pub bin: usize,
    /// The entries that moved from the buffer into the tree.
    pub entries: Vec<(BinKey, ChunkRef)>,
}

impl FlushEvent {
    /// Bytes of index data this flush writes to storage sequentially
    /// (paper entry size: 20-byte digest + 12-byte metadata, minus the
    /// truncated prefix).
    pub fn flushed_bytes(&self, prefix_bytes: usize) -> u64 {
        self.entries.len() as u64 * (20 - prefix_bytes + ChunkRef::BYTES) as u64
    }
}

/// A single bin: append buffer + key-sorted flushed page.
#[derive(Debug, Clone, Default)]
pub struct Bin {
    /// Most-recent inserts, searched newest-first (temporal locality).
    buffer: EntryPage,
    /// The main store for this bin: sorted by key, unique keys.
    flushed: EntryPage,
}

impl Bin {
    /// Creates an empty bin.
    pub fn new() -> Self {
        Bin::default()
    }

    /// Total entries in this bin.
    pub fn len(&self) -> usize {
        self.buffer.len() + self.flushed.len()
    }

    /// True when the bin holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `key` up in the buffer (newest first), then the flushed
    /// store. Returns where it was found for hit-path statistics.
    /// Allocation-free: both probes walk the page columns in place.
    pub fn lookup(&self, key: &BinKey) -> Option<(ChunkRef, BinHit)> {
        if let Some(i) = self.buffer.rfind(key) {
            return Some((self.buffer.ref_at(i), BinHit::Buffer));
        }
        self.flushed
            .find_sorted(key)
            .map(|i| (self.flushed.ref_at(i), BinHit::Tree))
    }

    /// Looks `key` up in the buffer only — used when a GPU probe has
    /// already settled the flushed portion of this bin.
    pub fn lookup_buffer(&self, key: &BinKey) -> Option<ChunkRef> {
        self.buffer.rfind(key).map(|i| self.buffer.ref_at(i))
    }

    /// Appends `key` to the buffer. When the buffer reaches `capacity`, it
    /// is flushed into the sorted store and the flush is returned.
    pub fn insert(
        &mut self,
        key: BinKey,
        r: ChunkRef,
        capacity: usize,
        bin_id: usize,
    ) -> Option<FlushEvent> {
        self.buffer.push(&key, r);
        if self.buffer.len() >= capacity {
            let entries = self.buffer.take_entries();
            self.merge_flush(&entries);
            Some(FlushEvent {
                bin: bin_id,
                entries,
            })
        } else {
            None
        }
    }

    /// Merges a flushed batch into the sorted store in one pass. Within
    /// the batch the **last** occurrence of a duplicate key wins, and
    /// batch entries overwrite existing keys — the same observable result
    /// as inserting the batch into a map in append order.
    fn merge_flush(&mut self, entries: &[(BinKey, ChunkRef)]) {
        // Sort batch indices by key, stable, so equal keys keep append
        // order; then keep only the last occurrence of each key.
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| entries[a].0.cmp(&entries[b].0));
        let mut batch: Vec<usize> = Vec::with_capacity(order.len());
        for i in order {
            match batch.last_mut() {
                Some(last) if entries[*last].0 == entries[i].0 => *last = i,
                _ => batch.push(i),
            }
        }

        let old = std::mem::take(&mut self.flushed);
        let mut merged = EntryPage::with_capacity(old.len() + batch.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < old.len() && b < batch.len() {
            let (bk, bv) = &entries[batch[b]];
            match old.key_at(a).cmp(bk) {
                std::cmp::Ordering::Less => {
                    merged.push(old.key_at(a), old.ref_at(a));
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(bk, *bv);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(bk, *bv);
                    a += 1;
                    b += 1;
                }
            }
        }
        while a < old.len() {
            merged.push(old.key_at(a), old.ref_at(a));
            a += 1;
        }
        while b < batch.len() {
            let (bk, bv) = &entries[batch[b]];
            merged.push(bk, *bv);
            b += 1;
        }
        self.flushed = merged;
    }

    /// Inserts directly into the flushed store, bypassing the buffer — the
    /// snapshot-restore path (restored entries are "already flushed").
    /// Returns true when the key was new to the store.
    pub fn restore_entry(&mut self, key: BinKey, r: ChunkRef) -> bool {
        self.flushed.insert_sorted(&key, r)
    }

    /// Removes the entry at pseudo-random position `nonce` (random
    /// replacement). Prefers evicting from the flushed store — the nth key
    /// in sorted order, as the tree formulation evicted — and falls back
    /// to the buffer. Returns the evicted key, or `None` when empty.
    pub fn evict_random(&mut self, nonce: u64) -> Option<BinKey> {
        if !self.flushed.is_empty() {
            let idx = (nonce % self.flushed.len() as u64) as usize;
            Some(self.flushed.remove(idx).0)
        } else if !self.buffer.is_empty() {
            let idx = (nonce % self.buffer.len() as u64) as usize;
            Some(self.buffer.swap_remove(idx).0)
        } else {
            None
        }
    }

    /// Iterates over every entry (flushed then buffer), for GPU bin
    /// rebuilds.
    pub fn iter(&self) -> impl Iterator<Item = (&BinKey, &ChunkRef)> {
        self.flushed.iter().chain(self.buffer.iter())
    }

    /// Iterates over the flushed entries only (sorted by key) — the
    /// portion the GPU-resident linear bin mirrors; buffer entries reach
    /// the device with the next flush.
    pub fn iter_tree(&self) -> impl Iterator<Item = (&BinKey, &ChunkRef)> {
        self.flushed.iter()
    }

    /// The flushed store's page — the contiguous columns the GPU mirror
    /// and columnar snapshot read directly.
    pub fn flushed_page(&self) -> &EntryPage {
        &self.flushed
    }

    /// The recent-insert buffer's page.
    pub fn buffer_page(&self) -> &EntryPage {
        &self.buffer
    }
}

/// Which structure inside the bin satisfied a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinHit {
    /// Found in the recent-insert buffer.
    Buffer,
    /// Found in the bin tree.
    Tree,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> BinKey {
        let mut k = [0u8; 20];
        k[19] = n;
        k
    }

    /// Where `bin` finds key `n`: buffer, tree, or nowhere.
    fn hit(bin: &Bin, n: u8) -> Option<BinHit> {
        bin.lookup(&key(n)).map(|(_, hit)| hit)
    }

    #[test]
    fn insert_then_lookup_hits_buffer() {
        let mut bin = Bin::new();
        assert!(bin.insert(key(1), ChunkRef::new(1, 10), 8, 0).is_none());
        let (r, hit) = bin.lookup(&key(1)).unwrap();
        assert_eq!(r, ChunkRef::new(1, 10));
        assert_eq!(hit, BinHit::Buffer);
    }

    #[test]
    fn buffer_flushes_at_capacity_into_tree() {
        let mut bin = Bin::new();
        let mut flush = None;
        for i in 0..4 {
            flush = bin.insert(key(i), ChunkRef::new(i as u64, 10), 4, 7);
        }
        let flush = flush.expect("fourth insert must flush");
        assert_eq!(flush.bin, 7);
        assert_eq!(flush.entries.len(), 4);
        // Every entry remains findable, now via the tree.
        for i in 0..4 {
            assert_eq!(hit(&bin, i), Some(BinHit::Tree), "key {i}");
        }
    }

    #[test]
    fn newest_buffer_entry_wins_duplicates() {
        let mut bin = Bin::new();
        bin.insert(key(5), ChunkRef::new(1, 10), 8, 0);
        bin.insert(key(5), ChunkRef::new(2, 10), 8, 0);
        let (r, _) = bin.lookup(&key(5)).unwrap();
        assert_eq!(r.addr(), 2);
    }

    #[test]
    fn flushed_bytes_match_paper_entry_size() {
        let flush = FlushEvent {
            bin: 0,
            entries: vec![(key(1), ChunkRef::new(0, 0)); 10],
        };
        // 2-byte prefix: (20-2+12) = 30 bytes per entry.
        assert_eq!(flush.flushed_bytes(2), 300);
        // No truncation: the paper's full 32-byte entries.
        assert_eq!(flush.flushed_bytes(0), 320);
    }

    #[test]
    fn evict_random_prefers_tree() {
        let mut bin = Bin::new();
        for i in 0..4 {
            bin.insert(key(i), ChunkRef::new(i as u64, 1), 4, 0);
        }
        bin.insert(key(9), ChunkRef::new(9, 1), 4, 0);
        let in_tree = |bin: &Bin| {
            (0..4)
                .filter(|&i| hit(bin, i) == Some(BinHit::Tree))
                .count()
        };
        assert_eq!(in_tree(&bin), 4);
        assert_eq!(hit(&bin, 9), Some(BinHit::Buffer));
        let evicted = bin.evict_random(2).unwrap();
        assert_ne!(evicted, key(9), "buffer entry evicted before tree");
        assert_eq!(in_tree(&bin), 3);
        assert_eq!(hit(&bin, 9), Some(BinHit::Buffer));
    }

    #[test]
    fn evict_from_buffer_when_tree_empty() {
        let mut bin = Bin::new();
        bin.insert(key(3), ChunkRef::new(3, 1), 8, 0);
        assert_eq!(bin.evict_random(0), Some(key(3)));
        assert!(bin.is_empty());
        assert_eq!(bin.evict_random(0), None);
    }

    #[test]
    fn iter_covers_tree_and_buffer() {
        let mut bin = Bin::new();
        for i in 0..5 {
            bin.insert(key(i), ChunkRef::new(i as u64, 1), 4, 0);
        }
        let keys: Vec<u8> = bin.iter().map(|(k, _)| k[19]).collect();
        assert_eq!(keys.len(), 5);
        for i in 0..5u8 {
            assert!(keys.contains(&i));
        }
    }
}
