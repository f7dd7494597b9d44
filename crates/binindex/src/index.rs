//! The CPU-side bin index: router + bins + capacity policy.

use dr_des::SplitMix64;
use dr_hashes::ChunkDigest;
use dr_obs::{CounterHandle, HistogramHandle, ObsHandle};
use dr_pool::WorkerPool;

use crate::bin::{Bin, BinHit, BinKey, FlushEvent};
use crate::entry::ChunkRef;
use crate::router::BinRouter;

/// Configuration of a [`BinIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinIndexConfig {
    /// Bytes of digest prefix used for routing (and truncated from storage).
    pub prefix_bytes: usize,
    /// Bin-buffer capacity: inserts per bin before a flush.
    pub bin_buffer_capacity: usize,
    /// Maximum total entries held in memory (the in-memory-only policy);
    /// `u64::MAX` disables eviction.
    pub max_entries: u64,
    /// Seed for the random replacement policy.
    pub seed: u64,
}

impl Default for BinIndexConfig {
    /// The paper's worked example: 2-byte prefix (65 536 bins), 64-entry
    /// bin buffers, unbounded memory.
    fn default() -> Self {
        BinIndexConfig {
            prefix_bytes: 2,
            bin_buffer_capacity: 64,
            max_entries: u64::MAX,
            seed: 0x1234_5678,
        }
    }
}

/// Cumulative index statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups satisfied by a bin buffer.
    pub buffer_hits: u64,
    /// Lookups satisfied by a bin tree.
    pub tree_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted by the replacement policy.
    pub evictions: u64,
    /// Bin-buffer flushes.
    pub flushes: u64,
}

/// Interned metric handles for the `index.*` namespace. Inert (all
/// `None`) until [`BinIndex::set_obs`] wires a live registry in.
#[derive(Debug, Clone, Default)]
struct IndexObs {
    probes: CounterHandle,
    buffer_hits: CounterHandle,
    tree_hits: CounterHandle,
    misses: CounterHandle,
    inserts: CounterHandle,
    evictions: CounterHandle,
    flushes: CounterHandle,
    flushed_entries: CounterHandle,
    bin_occupancy: HistogramHandle,
}

impl IndexObs {
    fn new(obs: &ObsHandle) -> Self {
        IndexObs {
            probes: obs.counter("index.probes"),
            buffer_hits: obs.counter("index.buffer_hits"),
            tree_hits: obs.counter("index.tree_hits"),
            misses: obs.counter("index.misses"),
            inserts: obs.counter("index.inserts"),
            evictions: obs.counter("index.evictions"),
            flushes: obs.counter("index.flushes"),
            flushed_entries: obs.counter("index.flushed_entries"),
            bin_occupancy: obs.histogram("index.bin_occupancy"),
        }
    }
}

/// The bin-based deduplication index (CPU side).
///
/// See the [crate docs](crate) for the design; see
/// [`GpuBinIndex`](crate::GpuBinIndex) for the GPU-resident counterpart.
#[derive(Debug)]
pub struct BinIndex {
    config: BinIndexConfig,
    router: BinRouter,
    bins: Vec<Bin>,
    entries: u64,
    rng: SplitMix64,
    stats: IndexStats,
    obs: IndexObs,
}

impl BinIndex {
    /// Builds an empty index.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_bytes` is outside 1..=3 or the buffer capacity is
    /// zero.
    pub fn new(config: BinIndexConfig) -> Self {
        assert!(
            config.bin_buffer_capacity > 0,
            "bin buffer capacity must be positive"
        );
        let router = BinRouter::new(config.prefix_bytes);
        let bins = (0..router.bin_count()).map(|_| Bin::new()).collect();
        BinIndex {
            router,
            bins,
            entries: 0,
            rng: SplitMix64::new(config.seed),
            config,
            stats: IndexStats::default(),
            obs: IndexObs::default(),
        }
    }

    /// Wires metrics into `obs` under the `index.*` namespace. Handles
    /// are interned once here, so the probe/insert paths pay only an
    /// atomic increment when enabled and a `None` branch when not.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = IndexObs::new(obs);
    }

    /// Records every bin's current entry count into the
    /// `index.bin_occupancy` histogram (call at end of run — occupancy
    /// is a distribution over bins, not over time).
    pub fn record_bin_occupancy(&self) {
        if self.obs.bin_occupancy.is_live() && self.obs.bin_occupancy.count() == 0 {
            for bin in &self.bins {
                self.obs.bin_occupancy.record(bin.len() as u64);
            }
        }
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> BinIndexConfig {
        self.config
    }

    /// The digest router.
    pub fn router(&self) -> BinRouter {
        self.router
    }

    /// Total entries currently in memory.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Read-only view of one bin (GPU rebuilds, tests).
    pub fn bin(&self, id: usize) -> &Bin {
        &self.bins[id]
    }

    /// The bin key for a digest: its bytes with the routed prefix zeroed.
    pub fn key_of(&self, digest: &ChunkDigest) -> BinKey {
        let mut key = *digest.as_bytes();
        for b in key.iter_mut().take(self.config.prefix_bytes) {
            *b = 0;
        }
        key
    }

    /// Looks up a digest. Checks the bin buffer first, then the bin tree —
    /// the paper's CPU indexing path.
    pub fn lookup(&mut self, digest: &ChunkDigest) -> Option<ChunkRef> {
        self.stats.lookups += 1;
        self.obs.probes.incr();
        let bin = self.router.route(digest);
        let key = self.key_of(digest);
        match self.bins[bin].lookup(&key) {
            Some((r, BinHit::Buffer)) => {
                self.stats.buffer_hits += 1;
                self.obs.buffer_hits.incr();
                Some(r)
            }
            Some((r, BinHit::Tree)) => {
                self.stats.tree_hits += 1;
                self.obs.tree_hits.incr();
                Some(r)
            }
            None => {
                self.stats.misses += 1;
                self.obs.misses.incr();
                None
            }
        }
    }

    /// Whether a digest is present, without touching lookup statistics or
    /// obs counters. This is a metadata audit probe
    /// (the cluster's integrity check cross-checks its placement map
    /// against node indexes with it); the hot path must keep using
    /// [`BinIndex::lookup`] so hit/miss accounting stays truthful.
    pub fn contains(&self, digest: &ChunkDigest) -> bool {
        let bin = self.router.route(digest);
        let key = self.key_of(digest);
        self.bins[bin].lookup(&key).is_some()
    }

    /// Inserts a digest → location mapping. Returns a [`FlushEvent`] when
    /// this insert filled the bin's buffer.
    pub fn insert(&mut self, digest: ChunkDigest, r: ChunkRef) -> Option<FlushEvent> {
        let bin = self.router.route(&digest);
        let key = self.key_of(&digest);
        // In-memory-only policy: evict before exceeding the budget.
        if self.entries >= self.config.max_entries {
            let nonce = self.rng.next_u64();
            // Evict from the inserting bin when possible, else from a
            // random non-empty bin.
            let victim_bin = if !self.bins[bin].is_empty() {
                bin
            } else {
                let mut v = (nonce % self.bins.len() as u64) as usize;
                while self.bins[v].is_empty() {
                    v = (v + 1) % self.bins.len();
                }
                v
            };
            if self.bins[victim_bin].evict_random(nonce).is_some() {
                self.entries -= 1;
                self.stats.evictions += 1;
                self.obs.evictions.incr();
            }
        }
        self.entries += 1;
        self.stats.inserts += 1;
        self.obs.inserts.incr();
        let flush = self.bins[bin].insert(key, r, self.config.bin_buffer_capacity, bin);
        if let Some(f) = &flush {
            self.stats.flushes += 1;
            self.obs.flushes.incr();
            self.obs.flushed_entries.add(f.entries.len() as u64);
        }
        flush
    }

    /// Restores one entry directly into a bin tree (snapshot recovery).
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range for this router.
    pub fn restore_entry(&mut self, bin: usize, key: crate::bin::BinKey, r: ChunkRef) {
        if self.bins[bin].restore_entry(key, r) {
            self.entries += 1;
        }
    }

    /// Stats-free batched probe over an existing pool, in input order.
    ///
    /// The pipeline's dedup stage owns its own hit accounting (simulated
    /// per-chunk costs must be charged serially, in input order), so this
    /// variant leaves [`IndexStats`] untouched and takes `&self` — probes
    /// only read the bin pages, so participants share them without locks.
    /// A probe is tens of nanoseconds and a fan-out is microseconds, so
    /// the batch is cut into one contiguous range per participant only
    /// when every range holds at least `PROBE_FANOUT_GRAIN` (1 024)
    /// queries; anything smaller — every batch of the default 128-chunk
    /// configuration — is a serial scan on the caller that allocates
    /// nothing but the result ([`BinIndex::probe_batch_into`] not even
    /// that).
    pub fn probe_batch_on(
        &self,
        pool: &WorkerPool,
        queries: &[(ChunkDigest, ProbeKind)],
    ) -> Vec<Option<(ChunkRef, BinHit)>> {
        let mut results = Vec::new();
        self.probe_batch_into(pool, queries, &mut results);
        results
    }

    /// [`BinIndex::probe_batch_on`] into `results`, cleared and refilled
    /// with one answer per query; its capacity is reused, so a caller
    /// that keeps it allocates nothing per serial batch.
    pub fn probe_batch_into(
        &self,
        pool: &WorkerPool,
        queries: &[(ChunkDigest, ProbeKind)],
        results: &mut Vec<Option<(ChunkRef, BinHit)>>,
    ) {
        results.clear();
        let shards = pool.fan_out_width(queries.len(), PROBE_FANOUT_GRAIN);
        if shards < 2 {
            results.extend(queries.iter().map(|(d, kind)| self.probe_one(d, *kind)));
            return;
        }

        let per_shard = queries.len().div_ceil(shards);
        results.resize(queries.len(), None);
        let mut parts: Vec<_> = queries
            .chunks(per_shard)
            .zip(results.chunks_mut(per_shard))
            .collect();
        pool.for_each_mut(&mut parts, |_, (queries, out)| {
            for (slot, (d, kind)) in out.iter_mut().zip(queries.iter()) {
                *slot = self.probe_one(d, *kind);
            }
        });
    }

    /// One stats-free probe of the digest's bin.
    fn probe_one(&self, digest: &ChunkDigest, kind: ProbeKind) -> Option<(ChunkRef, BinHit)> {
        let bin = &self.bins[self.router.route(digest)];
        let key = self.key_of(digest);
        match kind {
            ProbeKind::Full => bin.lookup(&key),
            ProbeKind::BufferOnly => bin.lookup_buffer(&key).map(|r| (r, BinHit::Buffer)),
        }
    }
}

/// Queries per participant below which `probe_batch_on` does not fan out.
///
/// Measured on the 2-core reference host (one worker thread beside the
/// caller): a probe costs about 21 ns (1 024 serial probes: 21.5 µs),
/// and handing one participant its share costs 3 µs when the worker is
/// still spinning and 13–21 µs when it has to be woken (`map_batch` of
/// two 1–5 µs items) — 150 to 1 000 probes. With 512 queries each the
/// two-way fan-out only broke even with serial (20.5 against 21.5 µs,
/// worker spinning); with 1 024 each it ran 1.8x faster (38 against
/// 70 µs).
const PROBE_FANOUT_GRAIN: usize = 1024;

/// Which portions of a bin a batched CPU probe must search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Bin buffer (newest-first), then the flushed store.
    Full,
    /// Bin buffer only — the flushed portion is already settled, e.g. by
    /// a GPU authoritative miss.
    BufferOnly,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_hashes::sha1_digest;

    fn digest(i: u64) -> ChunkDigest {
        sha1_digest(&i.to_le_bytes())
    }

    #[test]
    fn insert_lookup_round_trip() {
        let mut idx = BinIndex::new(BinIndexConfig::default());
        for i in 0..100 {
            idx.insert(digest(i), ChunkRef::new(i, 4096));
        }
        for i in 0..100 {
            assert_eq!(idx.lookup(&digest(i)), Some(ChunkRef::new(i, 4096)));
        }
        assert_eq!(idx.lookup(&digest(999)), None);
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn probes_below_the_grain_match_the_fanned_out_path() {
        // One-byte prefix and 2-entry buffers: 256 bins, so 1 500 inserts
        // leave entries in both the flushed stores and the buffers.
        let mut idx = BinIndex::new(BinIndexConfig {
            bin_buffer_capacity: 2,
            prefix_bytes: 1,
            ..BinIndexConfig::default()
        });
        for i in 0..1_500 {
            idx.insert(digest(i), ChunkRef::new(i, 4096));
        }
        // Three participants' worth of queries — buffer hits, tree hits,
        // misses (keys 1 500..2 000) — every third one buffer-only.
        let queries: Vec<(ChunkDigest, ProbeKind)> = (0..3 * PROBE_FANOUT_GRAIN as u64)
            .map(|i| {
                let kind = if i % 3 == 0 {
                    ProbeKind::BufferOnly
                } else {
                    ProbeKind::Full
                };
                (digest(i.wrapping_mul(7919) % 2_000), kind)
            })
            .collect();
        let obs = ObsHandle::enabled("probe-grain-test");
        let pool = WorkerPool::new(2);
        pool.set_obs(&obs);
        let pool_batches = || {
            let snap = obs.snapshot().expect("enabled handle snapshots");
            let found = snap.counters.iter().find(|(n, _)| n == "pool.batches");
            found.map_or(0, |(_, v)| *v)
        };

        let fanned = idx.probe_batch_on(&pool, &queries);
        assert_eq!(pool_batches(), 1, "three grains on three threads fan out");
        // The same queries in slices one short of two grains: all serial.
        let serial: Vec<_> = queries
            .chunks(2 * PROBE_FANOUT_GRAIN - 1)
            .flat_map(|slice| idx.probe_batch_on(&pool, slice))
            .collect();
        assert_eq!(
            pool_batches(),
            1,
            "below the grain nothing reaches the pool"
        );
        assert_eq!(fanned, serial);

        for ((d, kind), got) in queries.iter().zip(&fanned) {
            assert_eq!(*got, idx.probe_one(d, *kind));
            if *kind == ProbeKind::BufferOnly {
                assert!(!matches!(got, Some((_, BinHit::Tree))));
            }
        }
        let count = |want: fn(&Option<(ChunkRef, BinHit)>) -> bool| {
            fanned.iter().filter(|r| want(r)).count()
        };
        assert!(count(|r| matches!(r, Some((_, BinHit::Buffer)))) > 0);
        assert!(count(|r| matches!(r, Some((_, BinHit::Tree)))) > 0);
        assert!(count(|r| r.is_none()) > 0);
    }

    #[test]
    fn contains_probe_leaves_stats_untouched() {
        let mut idx = BinIndex::new(BinIndexConfig::default());
        idx.insert(digest(1), ChunkRef::new(1, 4096));
        let before = idx.stats();
        assert!(idx.contains(&digest(1)));
        assert!(!idx.contains(&digest(2)));
        assert_eq!(idx.stats(), before, "audit probe must not perturb stats");
        assert_eq!(idx.lookup(&digest(1)), Some(ChunkRef::new(1, 4096)));
    }

    #[test]
    fn stats_classify_hits() {
        let mut idx = BinIndex::new(BinIndexConfig {
            bin_buffer_capacity: 2,
            prefix_bytes: 1,
            ..BinIndexConfig::default()
        });
        // Find two digests landing in the same bin.
        let d0 = digest(0);
        let mut i = 1;
        let d_same = loop {
            let d = digest(i);
            if idx.router().route(&d) == idx.router().route(&d0) {
                break d;
            }
            i += 1;
        };
        idx.insert(d0, ChunkRef::new(0, 1)); // buffer has 1 entry
        assert!(idx.lookup(&d0).is_some()); // buffer hit
        idx.insert(d_same, ChunkRef::new(1, 1)); // buffer reaches 2 -> flush
        assert!(idx.lookup(&d0).is_some()); // tree hit
        let s = idx.stats();
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.tree_hits, 1);
        assert_eq!(s.flushes, 1);
    }

    #[test]
    fn flush_fires_at_buffer_capacity() {
        let mut idx = BinIndex::new(BinIndexConfig {
            prefix_bytes: 1,
            bin_buffer_capacity: 4,
            ..BinIndexConfig::default()
        });
        let mut flushes = 0;
        for i in 0..2000 {
            if idx.insert(digest(i), ChunkRef::new(i, 1)).is_some() {
                flushes += 1;
            }
        }
        assert!(flushes > 0);
        assert_eq!(idx.stats().flushes, flushes);
    }

    #[test]
    fn capacity_bound_evicts_and_misses_are_tolerated() {
        let mut idx = BinIndex::new(BinIndexConfig {
            max_entries: 64,
            ..BinIndexConfig::default()
        });
        for i in 0..1000 {
            idx.insert(digest(i), ChunkRef::new(i, 1));
        }
        assert_eq!(idx.len(), 64);
        assert_eq!(idx.stats().evictions, 1000 - 64);
        // Most old digests are gone (missed duplicates), recent survive
        // probabilistically; the index must simply not crash or grow.
        let found = (0..1000)
            .filter(|&i| idx.lookup(&digest(i)).is_some())
            .count();
        assert_eq!(found, 64);
    }

    #[test]
    fn obs_mirrors_stats() {
        let obs = dr_obs::ObsHandle::enabled("t");
        let mut idx = BinIndex::new(BinIndexConfig {
            bin_buffer_capacity: 4,
            prefix_bytes: 1,
            ..BinIndexConfig::default()
        });
        idx.set_obs(&obs);
        for i in 0..200 {
            idx.insert(digest(i), ChunkRef::new(i, 1));
        }
        for i in 0..300 {
            idx.lookup(&digest(i));
        }
        idx.record_bin_occupancy();
        let s = idx.stats();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("index.probes"), s.lookups);
        assert_eq!(counter("index.inserts"), s.inserts);
        assert_eq!(counter("index.flushes"), s.flushes);
        assert_eq!(counter("index.misses"), s.misses);
        assert_eq!(
            counter("index.buffer_hits") + counter("index.tree_hits"),
            s.buffer_hits + s.tree_hits
        );
        // Occupancy: one sample per bin, totalling every entry.
        let (_, occ) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "index.bin_occupancy")
            .expect("occupancy recorded");
        assert_eq!(occ.count, idx.router().bin_count() as u64);
        assert_eq!(occ.sum, idx.len());
    }

    #[test]
    #[should_panic(expected = "buffer capacity")]
    fn zero_buffer_capacity_rejected() {
        BinIndex::new(BinIndexConfig {
            bin_buffer_capacity: 0,
            ..BinIndexConfig::default()
        });
    }
}
