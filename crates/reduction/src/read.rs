//! The read path: the decompressed-chunk cache and the batched read
//! pipeline ([`Pipeline::read_blocks`]).
//!
//! Reads are grouped by stored frame, served from a small
//! capacity-bounded LRU over decompressed chunks (keyed by the chunk's
//! destage-log address) when resident, and otherwise fetched — the whole
//! batch's page reads at once, one per distinct page — and
//! decompressed on the host, with the simulated decode charged to the
//! simulated CPU workers. Because
//! deduplication makes many logical blocks resolve to one stored frame,
//! even a modest cache absorbs the re-read traffic of hot working sets
//! (the VDI boot storm the paper targets).

use std::collections::HashMap;
use std::sync::Arc;

use dr_binindex::ChunkRef;
use dr_compress::frame;
use dr_des::SimTime;
use dr_obs::trace::{trace_args, Track};

use crate::cpu_model::CpuModel;
use crate::destage::FetchedFrames;
use crate::error::ReadError;
use crate::pipeline::Pipeline;

/// Capacity of the pipeline's decompressed-chunk cache, in chunks.
pub(crate) const READ_CACHE_CHUNKS: usize = 256;

/// A decompressed chunk as the cache holds it and a batch borrows it:
/// shared, never copied, until the one copy into the caller's `Vec`.
type SharedChunk = Arc<Vec<u8>>;

/// End-of-list marker for [`ReadCache`]'s recency links.
const NIL: usize = usize::MAX;

/// One resident chunk, linked into the recency list by slab index.
#[derive(Debug)]
struct CacheEntry {
    addr: u64,
    bytes: SharedChunk,
    /// Neighbour towards the least-recent end, or [`NIL`].
    prev: usize,
    /// Neighbour towards the most-recent end, or [`NIL`].
    next: usize,
}

/// A capacity-bounded LRU of decompressed chunks, keyed by stored-frame
/// address: a map from address to slab slot plus a doubly-linked recency
/// list threaded through the slab, so `get`, `insert` and eviction are
/// O(1). Purely functional state: cache contents never affect *what*
/// bytes a read returns, only how much simulated work serving them costs.
#[derive(Debug)]
pub(crate) struct ReadCache {
    cap: usize,
    map: HashMap<u64, usize>,
    /// Resident entries; an eviction's slot is reused by the insert that
    /// forced it, so the slab never holds a vacant slot.
    slab: Vec<CacheEntry>,
    /// Least-recently-used entry (the next victim), or [`NIL`].
    lru: usize,
    /// Most-recently-used entry, or [`NIL`].
    mru: usize,
}

impl ReadCache {
    /// An empty cache of `cap` chunks; `cap` must be positive.
    pub(crate) fn new(cap: usize) -> Self {
        ReadCache {
            cap,
            map: HashMap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            lru: NIL,
            mru: NIL,
        }
    }

    /// Cached chunks currently resident.
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when `addr` is resident (does not touch recency).
    #[cfg(test)]
    fn contains(&self, addr: u64) -> bool {
        self.map.contains_key(&addr)
    }

    /// Resident addresses, least-recent first.
    #[cfg(test)]
    fn recency(&self) -> Vec<u64> {
        let mut order = Vec::with_capacity(self.len());
        let mut i = self.lru;
        while i != NIL {
            order.push(self.slab[i].addr);
            i = self.slab[i].next;
        }
        order
    }

    /// Takes entry `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.lru = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Links entry `i` in at the most-recent end.
    fn link_mru(&mut self, i: usize) {
        self.slab[i].prev = self.mru;
        self.slab[i].next = NIL;
        match self.mru {
            NIL => self.lru = i,
            m => self.slab[m].next = i,
        }
        self.mru = i;
    }

    /// Returns the cached chunk (shared, not copied) and promotes it to
    /// most-recently-used.
    pub(crate) fn get(&mut self, addr: u64) -> Option<SharedChunk> {
        let i = *self.map.get(&addr)?;
        self.unlink(i);
        self.link_mru(i);
        Some(Arc::clone(&self.slab[i].bytes))
    }

    /// Drops every cached chunk. Called when the stored frames the cache
    /// shadows may have changed under it — an index restore or a crash
    /// recovery — so stale decompressed bytes can never satisfy a read.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.lru = NIL;
        self.mru = NIL;
    }

    /// Inserts (or refreshes) a decompressed chunk, evicting the
    /// least-recently-used one when full. Returns the number of evictions.
    pub(crate) fn insert(&mut self, addr: u64, bytes: SharedChunk) -> u64 {
        if let Some(&i) = self.map.get(&addr) {
            // Refresh: promote without growing.
            self.slab[i].bytes = bytes;
            self.unlink(i);
            self.link_mru(i);
            return 0;
        }
        let entry = CacheEntry {
            addr,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let (i, evicted) = if self.slab.len() < self.cap {
            self.slab.push(entry);
            (self.slab.len() - 1, 0)
        } else {
            let victim = self.lru;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].addr);
            self.slab[victim] = entry;
            (victim, 1)
        };
        self.map.insert(addr, i);
        self.link_mru(i);
        evicted
    }
}

/// Batches of at most this many requests find their distinct frames by
/// scanning the ones seen so far; larger batches build one map. A scan
/// over a few dozen addresses is cheaper than hashing each, and a
/// single-block read builds no hash container at all.
const SCAN_MAX_REQUESTS: usize = 32;

/// One distinct stored frame of a read batch.
struct Slot {
    addr: u64,
    /// The decompressed chunk: captured from the cache at batch issue, or
    /// filled in by the batch's own decode.
    bytes: Option<SharedChunk>,
    /// `Some` for one of the batch's cold frames — once its decode is
    /// charged, the instant it was ready; `None` for a frame that was
    /// cached at batch issue.
    decoded_at: Option<SimTime>,
}

/// The cold frames among a batch's slots, in the order their frames were
/// fetched.
fn cold_slots(slots: &[Slot]) -> impl Iterator<Item = &Slot> {
    slots.iter().filter(|s| s.decoded_at.is_some())
}

/// [`cold_slots`], to fill in.
fn cold_slots_mut(slots: &mut [Slot]) -> impl Iterator<Item = &mut Slot> {
    slots.iter_mut().filter(|s| s.decoded_at.is_some())
}

/// The distinct frames of a read batch, in first-appearance order.
struct Grouped {
    slots: Vec<Slot>,
    /// Address → slot index, for batches above [`SCAN_MAX_REQUESTS`].
    by_addr: Option<HashMap<u64, usize>>,
}

impl Grouped {
    fn for_requests(requests: usize) -> Self {
        Grouped {
            slots: Vec::with_capacity(requests),
            by_addr: (requests > SCAN_MAX_REQUESTS).then(|| HashMap::with_capacity(requests)),
        }
    }

    fn find(&self, addr: u64) -> Option<usize> {
        match &self.by_addr {
            Some(by_addr) => by_addr.get(&addr).copied(),
            None => self.slots.iter().position(|s| s.addr == addr),
        }
    }

    fn push(&mut self, slot: Slot) {
        if let Some(by_addr) = &mut self.by_addr {
            by_addr.insert(slot.addr, self.slots.len());
        }
        self.slots.push(slot);
    }
}

impl Pipeline {
    /// Reads back a batch of ingested chunks through the logical map in
    /// one read-pipeline pass — duplicates resolve to their shared stored
    /// copy, so a dedup-heavy batch fetches far fewer frames than blocks.
    ///
    /// Requests are grouped by stored frame (deduplicated blocks resolve
    /// to one fetch and one decompression), served from the
    /// decompressed-chunk cache when resident. Cold frames are decoded on
    /// the host, once each, and each frame's simulated decode is charged
    /// to a CPU worker as soon as its own pages are in, in every mode.
    ///
    /// Every read advances the simulated clock: the batch issues at
    /// `max(read_end, reduction_end)`, every page read of its cold frames
    /// goes to the device at that instant, a decode starts when its own
    /// frame's pages are in, and
    /// [`Report::read_end`](crate::Report::read_end) records when its last
    /// request completed. Returned bytes are bit-identical to looping over
    /// [`Pipeline::read_block`].
    ///
    /// # Errors
    ///
    /// [`ReadError::UnknownBlock`] when any index is out of range, checked
    /// before any device work is issued. Otherwise the first failing
    /// request aborts the batch: [`ReadError::Device`] when a device read
    /// fails after retries, [`ReadError::Integrity`] when an integrity
    /// envelope does not open, [`ReadError::Frame`] when a frame does not
    /// decode.
    pub fn read_blocks(&mut self, indices: &[usize]) -> Result<Vec<Vec<u8>>, ReadError> {
        let mut refs = Vec::with_capacity(indices.len());
        for &index in indices {
            let r = self.recipe.get(index);
            refs.push(*r.ok_or(ReadError::UnknownBlock { index })?);
        }
        self.read_chunks(&refs)
    }

    /// Reads back the `index`-th ingested chunk — the single-request form
    /// of [`Pipeline::read_blocks`].
    ///
    /// # Errors
    ///
    /// As [`Pipeline::read_blocks`].
    pub fn read_block(&mut self, index: usize) -> Result<Vec<u8>, ReadError> {
        let r = *self
            .recipe
            .get(index)
            .ok_or(ReadError::UnknownBlock { index })?;
        let mut out = self.read_chunks(&[r])?;
        Ok(out.pop().expect("one result per request"))
    }

    /// Reads a batch of stored chunks through the read pipeline, then
    /// folds the faults it met into the report, failed or not.
    fn read_chunks(&mut self, refs: &[ChunkRef]) -> Result<Vec<Vec<u8>>, ReadError> {
        if refs.is_empty() {
            return Ok(Vec::new());
        }
        let out = self.read_batch(refs);
        // On every exit: the retries and latch transitions a failed batch
        // burnt belong in the report as much as a successful one's.
        self.sync_fault_counters();
        out
    }

    /// The body of [`Pipeline::read_chunks`] for a non-empty batch.
    fn read_batch(&mut self, refs: &[ChunkRef]) -> Result<Vec<Vec<u8>>, ReadError> {
        let now = self.report.read_end.max(self.report.reduction_end);
        self.obs.read_batches.incr();

        // Group requests by stored frame, in first-appearance order, and
        // capture cache hits *now* — the batch's own fresh inserts may
        // evict them before delivery. Each distinct cold frame is fetched
        // and decompressed exactly once.
        let mut grouped = Grouped::for_requests(refs.len());
        // The cold frames, in the order of their slots.
        let mut cold: Vec<ChunkRef> = Vec::new();
        for r in refs {
            if grouped.find(r.addr()).is_some() {
                continue;
            }
            let bytes = self.read_cache.get(r.addr());
            if bytes.is_none() {
                if cold.is_empty() {
                    // At most every request not yet grouped is cold.
                    cold.reserve(refs.len() - grouped.slots.len());
                }
                cold.push(*r);
            }
            grouped.push(Slot {
                addr: r.addr(),
                decoded_at: bytes.is_none().then_some(SimTime::ZERO),
                bytes,
            });
        }

        let mut at = now;
        if !cold.is_empty() {
            // Fetch every cold frame in one device batch: all page reads
            // issued at `now`, one per distinct page. Then open each
            // integrity envelope where it landed and narrow the frame's
            // range to the frame in front of its seal.
            let fetch_span = self.obs.read_fetch.span();
            let mut fetched = FetchedFrames::default();
            let read = self
                .destage
                .read_frames(now, &mut self.ssd, &cold, &mut fetched);
            // The flush programmed its page whether or not the reads after
            // it succeeded.
            if let Some(g) = fetched.flush {
                self.report.ssd_end = self.report.ssd_end.max(g.end);
            }
            self.obs.read_pages.add(fetched.pages);
            read?;
            for f in &mut fetched.frames {
                if self.config.integrity {
                    let body = dr_hashes::open(&fetched.bytes[f.bytes.clone()])?;
                    f.bytes.end = f.bytes.start + body.len();
                }
                at = at.max(f.ready);
            }
            self.obs
                .read_fetch
                .record_sim_ns(at.saturating_duration_since(now).as_nanos());
            fetch_span.finish();

            let decode_span = self.obs.read_decode.span();
            let decoded = self.decode_cold(&fetched, &mut grouped.slots)?;
            self.obs
                .read_decode
                .record_sim_ns(decoded.saturating_duration_since(at).as_nanos());
            decode_span.finish();

            // Fresh decodes enter the cache — the batch keeps sharing
            // them — and only once every frame decoded, so a corrupt
            // frame is re-detected on every re-read.
            for slot in cold_slots(&grouped.slots) {
                let bytes = slot.bytes.as_ref().expect("cold frame was decoded");
                let evicted = self.read_cache.insert(slot.addr, Arc::clone(bytes));
                if evicted > 0 {
                    self.obs.read_cache_evictions.add(evicted);
                }
            }
        }
        self.obs
            .read_cache_entries
            .set(self.read_cache.len() as i64);

        // Assemble per-request outputs: fresh frames deliver at their
        // decode-ready instant; cached frames charge the cache-hit copy
        // cost on a simulated CPU worker.
        let mut out = Vec::with_capacity(refs.len());
        let mut read_end = now;
        for r in refs {
            let slot = &grouped.slots[grouped.find(r.addr()).expect("every request was grouped")];
            let bytes = slot.bytes.as_ref().expect("frame is fresh or was cached");
            let ready = match slot.decoded_at {
                Some(ready) => {
                    self.obs.read_cache_misses.incr();
                    ready
                }
                None => {
                    let g = self.cpu.acquire(now, CpuModel::I7_3770K.read_hit_cost());
                    self.report.read_cache_hits += 1;
                    self.obs.read_cache_hits.incr();
                    g.end
                }
            };
            self.obs
                .read_latency
                .record(ready.saturating_duration_since(now).as_nanos());
            self.report.reads += 1;
            self.report.read_bytes += bytes.len() as u64;
            read_end = read_end.max(ready);
            // The one per-request copy: the caller owns what it gets.
            out.push(bytes.to_vec());
        }
        self.report.read_end = self.report.read_end.max(read_end);
        self.obs.tracer.sim_span(
            Track::Read,
            "read-batch",
            now.as_nanos(),
            read_end.as_nanos(),
            trace_args(&[("reads", refs.len() as u64), ("cold", cold.len() as u64)]),
        );
        Ok(out)
    }

    /// Decodes a batch's fetched cold frames into their slots, on the
    /// host, once each, and charges each decode to a simulated CPU worker
    /// from its own frame's fetch-ready instant. Returns when the last
    /// frame was ready.
    ///
    /// A frame that fails to decode fails the batch; the frames before it
    /// stay charged.
    fn decode_cold(
        &mut self,
        fetched: &FetchedFrames,
        slots: &mut [Slot],
    ) -> Result<SimTime, ReadError> {
        let mut done = SimTime::ZERO;
        for (slot, f) in cold_slots_mut(slots).zip(&fetched.frames) {
            let chunk = frame::open(&fetched.bytes[f.bytes.clone()])?;
            let cost = CpuModel::I7_3770K.decompress_cost(chunk.len());
            let g = self.cpu.acquire(f.ready, cost);
            slot.bytes = Some(Arc::new(chunk));
            slot.decoded_at = Some(g.end);
            done = done.max(g.end);
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{small_config, stream};
    use crate::pipeline::IntegrationMode;
    use dr_des::Resource;
    use dr_hashes::sha1_digest;

    #[test]
    fn default_config_enables_cache_and_gpu_routing() {
        // The cache is on, and the default mode routes compression to the
        // GPU; its cold reads still decode on the CPU.
        let p = Pipeline::new(crate::PipelineConfig::default());
        assert_eq!(p.read_cache.cap, READ_CACHE_CHUNKS);
        assert!(p.config().mode.gpu_compression());
    }

    #[test]
    fn insert_get_round_trips_and_bounds_capacity() {
        let mut cache = ReadCache::new(2);
        assert_eq!(cache.insert(10, Arc::new(vec![1])), 0);
        assert_eq!(cache.insert(20, Arc::new(vec![2])), 0);
        assert_eq!(cache.len(), 2);
        // Third insert evicts the least-recently-used (addr 10).
        assert_eq!(cache.insert(30, Arc::new(vec![3])), 1);
        assert!(!cache.contains(10));
        assert_eq!(cache.get(20), Some(Arc::new(vec![2])));
        assert_eq!(cache.get(30), Some(Arc::new(vec![3])));
    }

    #[test]
    fn get_promotes_recency() {
        let mut cache = ReadCache::new(2);
        cache.insert(1, Arc::new(vec![1]));
        cache.insert(2, Arc::new(vec![2]));
        // Touch 1, so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, Arc::new(vec![3]));
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
    }

    #[test]
    fn refresh_does_not_evict() {
        let mut cache = ReadCache::new(2);
        cache.insert(1, Arc::new(vec![1]));
        cache.insert(2, Arc::new(vec![2]));
        assert_eq!(
            cache.insert(1, Arc::new(vec![9])),
            0,
            "refresh is not an insert"
        );
        assert_eq!(cache.get(1), Some(Arc::new(vec![9])));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties_map_and_recency_queue() {
        let mut cache = ReadCache::new(2);
        cache.insert(1, Arc::new(vec![1]));
        cache.insert(2, Arc::new(vec![2]));
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(1), None);
        // Post-clear inserts behave like a fresh cache.
        cache.insert(3, Arc::new(vec![3]));
        assert!(cache.contains(3));
    }

    /// The `HashMap` + `VecDeque` LRU the slab-linked one replaced, kept
    /// as its model: recency by O(n) scan, eviction from the front.
    struct ModelLru {
        cap: usize,
        map: HashMap<u64, u8>,
        order: std::collections::VecDeque<u64>,
    }

    impl ModelLru {
        fn get(&mut self, addr: u64) -> Option<u8> {
            let tag = *self.map.get(&addr)?;
            let pos = self.order.iter().position(|&a| a == addr).unwrap();
            self.order.remove(pos);
            self.order.push_back(addr);
            Some(tag)
        }

        fn insert(&mut self, addr: u64, tag: u8) -> u64 {
            if self.map.insert(addr, tag).is_some() {
                let pos = self.order.iter().position(|&a| a == addr).unwrap();
                self.order.remove(pos);
                self.order.push_back(addr);
                return 0;
            }
            self.order.push_back(addr);
            let mut evicted = 0;
            while self.map.len() > self.cap {
                let old = self.order.pop_front().unwrap();
                self.map.remove(&old);
                evicted += 1;
            }
            evicted
        }
    }

    #[test]
    fn slab_lru_matches_the_scan_based_model_step_for_step() {
        for cap in [1usize, 2, 256] {
            let mut rng = dr_des::SplitMix64::new(0x1A2_0000 + cap as u64);
            let mut cache = ReadCache::new(cap);
            let mut model = ModelLru {
                cap,
                map: HashMap::new(),
                order: std::collections::VecDeque::new(),
            };
            // An address space a little over capacity keeps hits, refreshes
            // and evictions all frequent.
            let addrs = (cap as u64 * 3 / 2).max(4);
            let (mut evictions, mut want_evictions) = (0, 0);
            for step in 0..20_000 {
                let addr = rng.next_below(addrs);
                match rng.next_below(100) {
                    0 => {
                        cache.clear();
                        model.map.clear();
                        model.order.clear();
                    }
                    1..=44 => {
                        let got = cache.get(addr).map(|bytes| bytes[0]);
                        assert_eq!(got, model.get(addr), "cap {cap} step {step}: get {addr}");
                    }
                    _ => {
                        let tag = rng.next_u64() as u8;
                        evictions += cache.insert(addr, Arc::new(vec![tag]));
                        want_evictions += model.insert(addr, tag);
                    }
                }
                // Same residents in the same recency order: the next
                // victim, and every one after it, is the same chunk.
                assert_eq!(
                    cache.recency(),
                    Vec::from(model.order.clone()),
                    "cap {cap} step {step}"
                );
                assert_eq!(evictions, want_evictions, "cap {cap} step {step}");
                assert_eq!(cache.len(), model.map.len());
                assert_eq!(cache.map.len(), cache.slab.len());
            }
            assert!(evictions > 0, "cap {cap} never evicted");
        }
    }

    #[test]
    fn read_path_returns_original_chunks() {
        let mut p = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        let data = stream();
        p.run(&data);
        // Look a known chunk up through the index and read it back.
        let digest = sha1_digest(&data[..4096]);
        let r = {
            let bin = p.index().router().route(&digest);
            let key = p.index().key_of(&digest);
            p.index().bin(bin).lookup(&key).expect("chunk indexed").0
        };
        let back = p.read_chunks(&[r]).expect("read path failed");
        assert_eq!(back, [&data[..4096]]);
    }

    /// `p` on one simulated CPU worker, where a 32-frame cold batch
    /// queues deep.
    fn on_one_worker(mut p: Pipeline) -> Pipeline {
        p.cpu = Resource::new("cpu-workers", 1);
        p
    }

    #[test]
    fn a_frame_that_fails_to_decode_fails_its_batch() {
        // No integrity envelope and a bit flipped in every page read: some
        // frames still decode (to other bytes), others fail the host's one
        // decode. A batch holding one fails whole — no request delivered —
        // and, like every read, launches nothing on the GPU.
        let mut cfg = small_config(IntegrationMode::GpuForCompression);
        cfg.verify = false;
        cfg.ssd_spec.faults.bit_flip_rate = 1.0;
        let mut p = on_one_worker(Pipeline::new(cfg));
        p.run(&stream());
        let mut failed = 0;
        for round in 0..8 {
            // Every round reads cold.
            p.read_cache.clear();
            let before = (p.report().reads, p.gpu.stats().kernels);
            match p.read_blocks(&(0..32).collect::<Vec<_>>()) {
                Err(ReadError::Frame(_)) => {
                    failed += 1;
                    let after = (p.report().reads, p.gpu.stats().kernels);
                    assert_eq!(after, before, "round {round}");
                }
                Ok(_) => {}
                Err(other) => panic!("round {round}: {other}"),
            }
        }
        assert!(failed > 0, "no flip ever broke a decode");
    }

    #[test]
    fn reads_advance_the_simulated_clock_monotonically() {
        let mut p = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        p.run(&stream());
        assert_eq!(p.report().read_end, SimTime::ZERO, "no reads yet");
        let mut last = p.report().reduction_end;
        for i in 0..8 {
            p.read_block(i).expect("read");
            let read_end = p.report().read_end;
            assert!(
                read_end > last,
                "read {i} did not advance the clock: {read_end:?} vs {last:?}"
            );
            last = read_end;
        }
        assert_eq!(p.report().reads, 8);
        assert_eq!(p.report().read_bytes, 8 * 4096);
    }

    #[test]
    fn read_cache_absorbs_repeats() {
        let data = stream();
        let mut cached = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        cached.run(&data);
        // Blocks 0 and 32 share one stored frame (same pattern tag): the
        // first read warms the cache, everything after hits it.
        for _ in 0..3 {
            assert_eq!(cached.read_block(0).unwrap(), &data[..4096]);
            cached.read_block(32).unwrap();
        }
        assert_eq!(cached.report().read_cache_hits, 5);
    }

    #[test]
    fn batch_hit_survives_eviction_by_its_own_fresh_inserts() {
        // A request that is cached when the batch issues can be evicted by
        // the batch's own cold decodes before delivery; its bytes must be
        // captured at issue, not re-fetched from the cache.
        let data = stream();
        let mut p = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        p.read_cache = ReadCache::new(4);
        p.run(&data);
        p.read_block(0).unwrap(); // warm the cache with block 0's frame
        let batch = p.read_blocks(&[0, 1, 2, 3, 4, 5]).expect("batched read");
        for (i, got) in batch.iter().enumerate() {
            assert_eq!(got, &data[i * 4096..][..4096], "block {i}");
        }
        assert_eq!(
            p.report().read_cache_hits,
            1,
            "block 0 was a capture-time hit"
        );
    }

    #[test]
    fn pool_width_does_not_change_read_results() {
        // In both modes and at every pool width, one batch over the whole
        // stream (32 distinct cold frames, queued deep on one simulated
        // CPU worker) returns the stream, equals a serial loop on a fresh
        // pipeline, ends at the same simulated instant, and launches
        // nothing on the GPU: cold frames decode on the CPU in every mode.
        let data = stream();
        let all: Vec<usize> = (0..128).collect();
        for mode in [IntegrationMode::CpuOnly, IntegrationMode::GpuForCompression] {
            let mut baseline = None;
            for pool_workers in [1usize, 2, 4] {
                let at = format!("mode {mode}, pool_workers={pool_workers}");
                let mut cfg = small_config(mode);
                cfg.pool_workers = pool_workers;
                let mut batched = on_one_worker(Pipeline::new(cfg.clone()));
                batched.run(&data);
                let kernels = batched.gpu.stats().kernels;
                let got = batched.read_blocks(&all).expect("batched read");
                assert_eq!(batched.gpu.stats().kernels, kernels, "{at}");
                let mut serial = on_one_worker(Pipeline::new(cfg));
                serial.run(&data);
                for (&i, bytes) in all.iter().zip(&got) {
                    assert_eq!(bytes, &serial.read_block(i).unwrap(), "{at}: block {i}");
                    assert_eq!(bytes[..], data[i * 4096..][..4096], "{at}: block {i}");
                }
                let read_end = batched.report().read_end;
                assert_eq!(*baseline.get_or_insert(read_end), read_end, "{at}");
            }
        }
    }

    #[test]
    fn a_failed_read_batch_still_reports_the_faults_it_burnt() {
        let mut p = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        p.run(&stream());
        assert_eq!(p.report().fault_retries, 0);
        p.set_ssd_faults(dr_ssd_sim::SsdFaultSpec {
            read_error_rate: 1.0,
            ..dr_ssd_sim::SsdFaultSpec::default()
        });
        assert!(matches!(p.read_block(0), Err(ReadError::Device(_))));
        // No successful call since: the report already has the first
        // attempt and the three retries the failed batch spent.
        assert_eq!(p.report().fault_retries, 3);
        assert_eq!(p.report().faults_injected, 4);
    }

    #[test]
    fn a_failed_read_batch_still_reports_the_flush_it_forced() {
        let mut p = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        // Ingested but not committed: the open page is not flushed yet.
        p.ingest(&stream(), None);
        let last = *p.recipe.last().unwrap();
        assert!(
            !p.destage.tail().is_empty(),
            "the last frame sits in the open page"
        );
        let before = p.report().ssd_end;
        p.set_ssd_faults(dr_ssd_sim::SsdFaultSpec {
            read_error_rate: 1.0,
            ..dr_ssd_sim::SsdFaultSpec::default()
        });
        assert!(matches!(p.read_chunks(&[last]), Err(ReadError::Device(_))));
        assert!(p.destage.tail().is_empty(), "the open page was programmed");
        let flushed = p.destage.data_end();
        assert!(flushed > before);
        assert!(
            p.report().ssd_end >= flushed,
            "the flush's program is reported"
        );
    }

    /// A block whose first half is noise seeded by `content` and whose
    /// second half is `content`'s byte: equal contents deduplicate.
    fn block(content: u64) -> Vec<u8> {
        let mut rng = dr_des::SplitMix64::new(content + 1);
        let mut block = vec![content as u8; 4096];
        for b in &mut block[..2048] {
            *b = rng.next_u64() as u8;
        }
        block
    }

    #[test]
    fn batched_reads_match_a_serial_loop_over_random_batches() {
        let mut open_page_batches = 0;
        for case in 0..24u64 {
            let mut rng = dr_des::SplitMix64::new(0xBA7C + case);
            let mode = match case % 2 {
                0 => IntegrationMode::CpuOnly,
                _ => IntegrationMode::GpuForCompression,
            };
            // Few contents over many blocks: a batch repeats blocks and
            // blocks share frames. A small cache evicts.
            let (blocks, contents) = (48 + rng.next_below(80), 8 + rng.next_below(32));
            let mut data: Vec<u8> = (0..blocks)
                .flat_map(|_| block(rng.next_below(contents)))
                .collect();
            let capacity = 1 + rng.next_below(24) as usize;
            let mut batched = Pipeline::new(small_config(mode));
            let mut serial = Pipeline::new(small_config(mode));
            batched.read_cache = ReadCache::new(capacity);
            serial.read_cache = ReadCache::new(capacity);
            // Ingested, not committed: the last frames sit in the open page.
            batched.ingest(&data, None);
            serial.ingest(&data, None);
            // Warm a few blocks on both, so a batch mixes hits and cold
            // frames; the open page stays open unless one of them is in it.
            for _ in 0..rng.next_below(4) {
                let i = rng.next_below(blocks) as usize;
                batched.read_block(i).unwrap();
                serial.read_block(i).unwrap();
            }
            let random_batch = |rng: &mut dr_des::SplitMix64, blocks: u64| -> Vec<usize> {
                let len = 1 + rng.next_below(32);
                (0..len).map(|_| rng.next_below(blocks) as usize).collect()
            };
            let open = !batched.destage.tail().is_empty();
            let batch = random_batch(&mut rng, blocks);
            let got = batched.read_blocks(&batch).unwrap();
            for (&i, bytes) in batch.iter().zip(&got) {
                assert_eq!(
                    *bytes,
                    serial.read_block(i).unwrap(),
                    "case {case} block {i}"
                );
                assert_eq!(bytes[..], data[i * 4096..][..4096], "case {case} block {i}");
            }
            open_page_batches += (open && batched.destage.tail().is_empty()) as u32;
            let (at, serial_at) = (batched.report().read_end, serial.report().read_end);
            assert!(
                at <= serial_at,
                "case {case}: batch ends {at:?}, loop {serial_at:?}"
            );
            // More batches on the batched side, some after fresh writes
            // into the open page: the clock only moves on.
            let (mut blocks, mut last) = (blocks, at);
            for _ in 0..4 {
                if rng.next_below(2) == 0 {
                    let fresh: Vec<u8> = (0..1 + rng.next_below(6))
                        .flat_map(|_| block(rng.next_below(2 * contents)))
                        .collect();
                    batched.ingest(&fresh, None);
                    data.extend_from_slice(&fresh);
                    blocks = (data.len() / 4096) as u64;
                }
                let batch = random_batch(&mut rng, blocks);
                let got = batched.read_blocks(&batch).unwrap();
                for (&i, bytes) in batch.iter().zip(&got) {
                    assert_eq!(bytes[..], data[i * 4096..][..4096], "case {case} block {i}");
                }
                let now = batched.report().read_end;
                assert!(now >= last, "case {case}: read_end went back");
                last = now;
            }
        }
        assert!(open_page_batches > 0, "no batch reached into the open page");
    }

    #[test]
    fn fetch_and_decode_stages_sample_once_per_batch_with_a_cold_frame() {
        let obs = dr_obs::ObsHandle::enabled("t");
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.obs = obs.clone();
        let mut p = Pipeline::new(cfg);
        p.run(&stream());
        p.read_blocks(&[0, 1, 2, 3]).unwrap(); // cold
        p.read_blocks(&[0, 1]).unwrap(); // all resident: nothing to time
        p.read_blocks(&[3, 4]).unwrap(); // one hit, one cold
        let snap = obs.snapshot().unwrap();
        for name in [
            "read.fetch.wall_ns",
            "read.fetch.sim_ns",
            "read.decode.wall_ns",
            "read.decode.sim_ns",
        ] {
            let (_, hist) = snap
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(hist.count, 2, "{name}");
            assert!(hist.min > 0, "{name} recorded an empty span");
        }
    }

    #[test]
    fn read_pages_counts_each_page_a_batch_fetches_once() {
        let obs = dr_obs::ObsHandle::enabled("t");
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.obs = obs.clone();
        let mut p = Pipeline::new(cfg);
        p.run(&stream());
        // All 32 distinct frames, about two to a page, in one batch.
        p.read_blocks(&(0..32).collect::<Vec<_>>()).unwrap();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            let found = snap.counters.iter().find(|(n, _)| n == name);
            found.map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("read.cache_misses"), 32);
        assert_eq!(counter("read.pages"), counter("ssd.reads"));
        assert_eq!(counter("read.pages"), p.ssd.stats().reads);
        assert!(
            counter("read.pages") < 32,
            "frames sharing a page share its read"
        );
    }

    #[test]
    fn read_block_out_of_range_errors() {
        // An index past the recipe fails typed, before the batch reaches
        // the device or the read clock — also when it follows a good one.
        let obs = dr_obs::ObsHandle::enabled("t");
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.obs = obs.clone();
        let mut p = Pipeline::new(cfg);
        p.run(&stream());
        let n = p.ingested_chunks();
        let untouched = |p: &Pipeline| {
            let counters = ["read.batches", "read.pages"].map(|name| obs.counter(name).get());
            (p.report().reads, p.report().read_end, counters)
        };
        let before = untouched(&p);
        let unknown = Err(ReadError::UnknownBlock { index: n });
        assert_eq!(p.read_block(n), unknown);
        assert_eq!(p.read_blocks(&[0, n]), unknown.map(|b| vec![b]));
        assert_eq!(untouched(&p), before);
        let block = p.read_blocks(&[0]).expect("a good read still succeeds");
        assert_eq!(block, [&stream()[..4096]]);
        assert_ne!(untouched(&p), before);
    }
}
