//! The read path: configuration, the decompressed-chunk cache, and the
//! batched read pipeline ([`Pipeline::read_chunks`]).
//!
//! Reads are grouped by stored frame, served from a small
//! capacity-bounded LRU over decompressed chunks (keyed by the chunk's
//! destage-log address) when resident, and otherwise fetched and
//! decompressed on the CPU or — for bulk cold batches — the GPU. Because
//! deduplication makes many logical blocks resolve to one stored frame,
//! even a modest cache absorbs the re-read traffic of hot working sets
//! (the VDI boot storm the paper targets).

use std::collections::{HashMap, HashSet, VecDeque};

use dr_binindex::ChunkRef;
use dr_compress::frame;
use dr_des::SimTime;
use dr_obs::trace::{trace_args, Track};

use crate::error::ReadError;
use crate::pipeline::Pipeline;

/// Read-path tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReadConfig {
    /// Capacity of the decompressed-chunk cache, in chunks. `0` disables
    /// caching: every read fetches and decompresses its frame.
    pub cache_chunks: usize,
    /// Minimum number of *cold* (uncached, distinct) frames in one batch
    /// before decompression routes to the GPU, when the integration mode
    /// assigns compression there. Smaller batches decompress on the CPU —
    /// a kernel launch cannot amortize over a handful of chunks, the same
    /// asymmetry that makes CPU indexing beat GPU indexing for small
    /// batches on the write path.
    pub gpu_min_batch: usize,
}

impl Default for ReadConfig {
    fn default() -> Self {
        ReadConfig {
            cache_chunks: 256,
            gpu_min_batch: 16,
        }
    }
}

/// A capacity-bounded LRU of decompressed chunks, keyed by stored-frame
/// address. Purely functional state: cache contents never affect *what*
/// bytes a read returns, only how much simulated work serving them costs.
#[derive(Debug, Default)]
pub(crate) struct ReadCache {
    cap: usize,
    map: HashMap<u64, Vec<u8>>,
    /// Recency order, least-recent at the front.
    lru: VecDeque<u64>,
}

impl ReadCache {
    pub(crate) fn new(cap: usize) -> Self {
        ReadCache {
            cap,
            map: HashMap::with_capacity(cap),
            lru: VecDeque::with_capacity(cap),
        }
    }

    /// Cached chunks currently resident.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// True when `addr` is resident (does not touch recency).
    #[cfg(test)]
    fn contains(&self, addr: u64) -> bool {
        self.map.contains_key(&addr)
    }

    /// Returns a copy of the cached chunk and promotes it to
    /// most-recently-used.
    pub(crate) fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
        let bytes = self.map.get(&addr)?.clone();
        if let Some(pos) = self.lru.iter().position(|&a| a == addr) {
            self.lru.remove(pos);
            self.lru.push_back(addr);
        }
        Some(bytes)
    }

    /// Drops every cached chunk. Called when the stored frames the cache
    /// shadows may have changed under it — an index restore or a crash
    /// recovery — so stale decompressed bytes can never satisfy a read.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
    }

    /// Inserts (or refreshes) a decompressed chunk, evicting from the LRU
    /// end to stay within capacity. Returns the number of evictions.
    pub(crate) fn insert(&mut self, addr: u64, bytes: Vec<u8>) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        if self.map.insert(addr, bytes).is_some() {
            // Refresh: promote without growing.
            if let Some(pos) = self.lru.iter().position(|&a| a == addr) {
                self.lru.remove(pos);
            }
            self.lru.push_back(addr);
            return 0;
        }
        self.lru.push_back(addr);
        let mut evicted = 0;
        while self.map.len() > self.cap {
            if let Some(old) = self.lru.pop_front() {
                self.map.remove(&old);
                evicted += 1;
            }
        }
        evicted
    }
}

/// A cold frame on its way through a read batch: stored-frame address,
/// bytes (fetched frame, then decoded chunk), and the instant they were
/// ready.
type ColdFrame = (u64, Vec<u8>, SimTime);

impl Pipeline {
    /// Reads a stored chunk back from the SSD and unseals it — the
    /// single-request form of [`Pipeline::read_chunks`].
    ///
    /// # Errors
    ///
    /// [`ReadError::Device`] when the device read fails after retries,
    /// [`ReadError::Frame`] when the frame decode or integrity check fails.
    pub fn read_chunk(&mut self, r: ChunkRef) -> Result<Vec<u8>, ReadError> {
        let mut out = self.read_chunks(&[r])?;
        Ok(out.pop().expect("one result per request"))
    }

    /// Reads a batch of stored chunks — the read pipeline.
    ///
    /// Requests are grouped by stored frame (deduplicated blocks resolve
    /// to one fetch and one decompression), served from the
    /// decompressed-chunk cache when resident; cold frames decompress on
    /// the CPU, or — for cold batches of at least
    /// [`ReadConfig::gpu_min_batch`] frames under a GPU-compression mode —
    /// through the modeled two-phase GPU decompression kernel, with
    /// transient faults retried and hard faults degrading to the CPU path
    /// through the `gpu_decompress` latch.
    ///
    /// Every read advances the simulated clock: the batch issues at
    /// `max(read_end, reduction_end)` and [`Report::read_end`](crate::Report::read_end) records
    /// when its last request completed. Returned bytes are bit-identical
    /// to looping over [`Pipeline::read_chunk`], whichever way the batch
    /// was routed.
    ///
    /// # Errors
    ///
    /// The first failing request aborts the batch: [`ReadError::Device`]
    /// when a device read fails after retries, [`ReadError::Frame`] when a
    /// frame decode or integrity check fails.
    pub fn read_chunks(&mut self, refs: &[ChunkRef]) -> Result<Vec<Vec<u8>>, ReadError> {
        if refs.is_empty() {
            return Ok(Vec::new());
        }
        let cpu_model = self.config.cpu;
        let now = self.report.read_end.max(self.report.reduction_end);
        self.obs.read_batches.incr();

        // Group requests by stored frame, in first-appearance order, and
        // capture cache hits *now* — the batch's own fresh inserts may
        // evict them before delivery. Each distinct cold frame is fetched
        // and decompressed exactly once.
        let mut seen = HashSet::new();
        let mut hits: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut misses: Vec<ChunkRef> = Vec::new();
        for r in refs {
            if !seen.insert(r.addr()) {
                continue;
            }
            match self.read_cache.get(r.addr()) {
                Some(bytes) => {
                    hits.insert(r.addr(), bytes);
                }
                None => misses.push(*r),
            }
        }

        // Fetch cold frames serially through the destager (page reads
        // chain on the device clock) and strip the integrity envelope.
        let mut at = now;
        let mut fetched: Vec<ColdFrame> = Vec::with_capacity(misses.len());
        for r in &misses {
            let read = self.destage.read_chunk(at, &mut self.ssd, *r)?;
            if let Some(g) = read.flush {
                self.report.ssd_end = self.report.ssd_end.max(g.end);
            }
            at = read.done;
            let frame_bytes = if self.config.integrity {
                frame::verify_and_strip(&read.bytes)?.to_vec()
            } else {
                read.bytes
            };
            fetched.push((r.addr(), frame_bytes, read.done));
        }

        // Route the cold batch: GPU for bulk cold reads when compression
        // is GPU-assigned and the decompress latch is not resting; CPU
        // otherwise (a small batch cannot amortize a kernel launch).
        let use_gpu = self.config.mode.gpu_compression()
            && fetched.len() >= self.config.read.gpu_min_batch
            && self.fault.gpu_decompress.allow(at);
        let decoded = if use_gpu {
            self.gpu_decompress_reads(&fetched, at)?
        } else {
            self.cpu_decompress_reads(&fetched, SimTime::ZERO)?
        };

        // Fresh decodes enter the cache — successful ones only, so a
        // corrupt frame is re-detected on every re-read.
        let mut fresh: HashMap<u64, (Vec<u8>, SimTime)> = HashMap::with_capacity(decoded.len());
        for (addr, bytes, ready) in decoded {
            if self.config.read.cache_chunks > 0 {
                let evicted = self.read_cache.insert(addr, bytes.clone());
                if evicted > 0 {
                    self.obs.read_cache_evictions.add(evicted);
                }
            }
            fresh.insert(addr, (bytes, ready));
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
            let (bytes, ready) = match fresh.get(&r.addr()) {
                Some((bytes, ready)) => {
                    self.obs.read_cache_misses.incr();
                    (bytes.clone(), *ready)
                }
                None => {
                    let bytes = hits
                        .get(&r.addr())
                        .expect("request is fresh or was cached at batch issue")
                        .clone();
                    let g = self.cpu.acquire(now, cpu_model.read_hit_cost());
                    self.report.read_cache_hits += 1;
                    self.obs.read_cache_hits.incr();
                    (bytes, g.end)
                }
            };
            self.obs
                .read_latency
                .record(ready.saturating_duration_since(now).as_nanos());
            self.report.reads += 1;
            self.report.read_bytes += bytes.len() as u64;
            read_end = read_end.max(ready);
            out.push(bytes);
        }
        self.report.read_end = self.report.read_end.max(read_end);
        self.sync_fault_counters();
        self.obs.tracer.sim_span(
            Track::Read,
            "read-batch",
            now.as_nanos(),
            read_end.as_nanos(),
            trace_args(&[("reads", refs.len() as u64), ("cold", misses.len() as u64)]),
        );
        Ok(out)
    }

    /// CPU decompression of fetched cold frames: each frame decodes on a
    /// simulated CPU worker at its fetch-ready instant (or `floor`, when a
    /// failed GPU attempt handed the batch over — degradation is never
    /// free).
    fn cpu_decompress_reads(
        &mut self,
        fetched: &[ColdFrame],
        floor: SimTime,
    ) -> Result<Vec<ColdFrame>, ReadError> {
        let cpu_model = self.config.cpu;
        let mut out = Vec::with_capacity(fetched.len());
        for (addr, frame_bytes, fetched_at) in fetched {
            let chunk = frame::open(frame_bytes)?;
            let g = self.cpu.acquire(
                (*fetched_at).max(floor),
                cpu_model.decompress_cost(chunk.len()),
            );
            out.push((*addr, chunk, g.end));
        }
        Ok(out)
    }

    /// GPU decompression of a cold batch: one two-phase kernel pair
    /// (token split + sub-block copy), then per-chunk host frame assembly.
    /// Transient launch faults retry with backoff; exhausted retries or a
    /// hard fault open the `gpu_decompress` latch and the batch falls back
    /// to [`Pipeline::cpu_decompress_reads`] with the burnt time as floor.
    fn gpu_decompress_reads(
        &mut self,
        fetched: &[ColdFrame],
        batch_ready: SimTime,
    ) -> Result<Vec<ColdFrame>, ReadError> {
        let cpu_model = self.config.cpu;
        let views: Vec<&[u8]> = fetched.iter().map(|(_, f, _)| f.as_slice()).collect();
        let (gpu_decomp, gpu) = (&mut self.gpu_decomp, &mut self.gpu);
        let decompressed = self.fault.gpu_decompress.attempt(
            batch_ready,
            |at| gpu_decomp.decompress_batch(at, gpu, &views),
            |(_, report)| report.gpu_done,
        );
        let (chunks, report) = match decompressed {
            Ok(out) => out,
            Err(floor) => return self.cpu_decompress_reads(fetched, floor),
        };
        self.report.gpu_decomp_batches += 1;
        self.obs.read_gpu_batches.incr();
        let mut out = Vec::with_capacity(fetched.len());
        for ((addr, _, _), chunk) in fetched.iter().zip(chunks) {
            let chunk = chunk?;
            // Host-side frame assembly once the kernels and the D2H copy
            // are done: the fixed decode overhead only — the byte work
            // happened on the device.
            let g = self
                .cpu
                .acquire(report.gpu_done, cpu_model.decompress_cost(0));
            out.push((*addr, chunk, g.end));
        }
        Ok(out)
    }

    /// Reads back the `index`-th ingested chunk through the logical map —
    /// the single-request form of [`Pipeline::read_blocks`].
    ///
    /// # Errors
    ///
    /// [`ReadError::UnknownBlock`] when `index` is out of range, otherwise
    /// whatever [`Pipeline::read_chunks`] reports.
    pub fn read_block(&mut self, index: usize) -> Result<Vec<u8>, ReadError> {
        let mut out = self.read_blocks(&[index])?;
        Ok(out.pop().expect("one result per request"))
    }

    /// Reads back a batch of ingested chunks through the logical map in
    /// one read-pipeline pass — duplicates resolve to their shared stored
    /// copy, so a dedup-heavy batch fetches far fewer frames than blocks.
    ///
    /// # Errors
    ///
    /// [`ReadError::UnknownBlock`] when any index is out of range (checked
    /// before any device work is issued), otherwise whatever
    /// [`Pipeline::read_chunks`] reports.
    pub fn read_blocks(&mut self, indices: &[usize]) -> Result<Vec<Vec<u8>>, ReadError> {
        let refs = indices
            .iter()
            .map(|&index| {
                self.recipe
                    .get(index)
                    .copied()
                    .ok_or(ReadError::UnknownBlock { index })
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.read_chunks(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{small_config, stream};
    use crate::pipeline::IntegrationMode;
    use dr_hashes::sha1_digest;

    #[test]
    fn default_config_enables_cache_and_gpu_routing() {
        let c = ReadConfig::default();
        assert!(c.cache_chunks > 0);
        assert!(c.gpu_min_batch > 1);
    }

    #[test]
    fn insert_get_round_trips_and_bounds_capacity() {
        let mut cache = ReadCache::new(2);
        assert_eq!(cache.insert(10, vec![1]), 0);
        assert_eq!(cache.insert(20, vec![2]), 0);
        assert_eq!(cache.len(), 2);
        // Third insert evicts the least-recently-used (addr 10).
        assert_eq!(cache.insert(30, vec![3]), 1);
        assert!(!cache.contains(10));
        assert_eq!(cache.get(20), Some(vec![2]));
        assert_eq!(cache.get(30), Some(vec![3]));
    }

    #[test]
    fn get_promotes_recency() {
        let mut cache = ReadCache::new(2);
        cache.insert(1, vec![1]);
        cache.insert(2, vec![2]);
        // Touch 1, so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, vec![3]);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
    }

    #[test]
    fn refresh_does_not_evict() {
        let mut cache = ReadCache::new(2);
        cache.insert(1, vec![1]);
        cache.insert(2, vec![2]);
        assert_eq!(cache.insert(1, vec![9]), 0, "refresh is not an insert");
        assert_eq!(cache.get(1), Some(vec![9]));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties_map_and_recency_queue() {
        let mut cache = ReadCache::new(2);
        cache.insert(1, vec![1]);
        cache.insert(2, vec![2]);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(1), None);
        // Post-clear inserts behave like a fresh cache.
        cache.insert(3, vec![3]);
        assert!(cache.contains(3));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ReadCache::new(0);
        assert_eq!(cache.insert(1, vec![1]), 0);
        assert!(!cache.contains(1));
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.len(), 0);
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
        let back = p.read_chunk(r).expect("read path failed");
        assert_eq!(back, &data[..4096]);
    }

    #[test]
    fn batched_reads_are_bit_identical_to_serial_reads_in_both_routing_arms() {
        let data = stream();
        let all: Vec<usize> = (0..128).collect();
        for mode in [IntegrationMode::CpuOnly, IntegrationMode::GpuForCompression] {
            // Batched pass over everything: 32 distinct cold frames, which
            // crosses the default gpu_min_batch and exercises the GPU arm
            // under a GPU-compression mode.
            let mut batched = Pipeline::new(small_config(mode));
            batched.run(&data);
            let got = batched.read_blocks(&all).expect("batched read");
            if mode.gpu_compression() {
                assert!(
                    batched.report().gpu_decomp_batches > 0,
                    "bulk cold batch must route to the GPU in mode {mode}"
                );
            } else {
                assert_eq!(batched.report().gpu_decomp_batches, 0);
            }
            // Serial loop on a fresh pipeline: same bytes, whatever the arm.
            let mut serial = Pipeline::new(small_config(mode));
            serial.run(&data);
            for (&i, batch_bytes) in all.iter().zip(&got) {
                let serial_bytes = serial.read_block(i).expect("serial read");
                assert_eq!(batch_bytes, &serial_bytes, "block {i} in mode {mode}");
                assert_eq!(batch_bytes, &data[i * 4096..(i + 1) * 4096]);
            }
            assert_eq!(serial.report().gpu_decomp_batches, 0, "singles stay CPU");
        }
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
    fn read_cache_absorbs_repeats_and_can_be_disabled() {
        let data = stream();
        let mut cached = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        cached.run(&data);
        // Blocks 0 and 32 share one stored frame (same pattern tag): the
        // first read warms the cache, everything after hits it.
        for _ in 0..3 {
            cached.read_block(0).unwrap();
            cached.read_block(32).unwrap();
        }
        assert_eq!(cached.report().read_cache_hits, 5);

        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.read.cache_chunks = 0;
        let mut cold = Pipeline::new(cfg);
        cold.run(&data);
        for _ in 0..3 {
            cold.read_block(0).unwrap();
        }
        assert_eq!(cold.report().read_cache_hits, 0, "cache disabled");
        assert_eq!(cold.read_block(0).unwrap(), &data[..4096]);
    }

    #[test]
    fn batch_hit_survives_eviction_by_its_own_fresh_inserts() {
        // A request that is cached when the batch issues can be evicted by
        // the batch's own cold decodes before delivery; its bytes must be
        // captured at issue, not re-fetched from the cache.
        let data = stream();
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.read.cache_chunks = 4;
        let mut p = Pipeline::new(cfg);
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
        let data = stream();
        let all: Vec<usize> = (0..128).collect();
        let mut baseline: Option<(SimTime, Vec<Vec<u8>>)> = None;
        for pool_workers in [1usize, 2, 4] {
            let mut cfg = small_config(IntegrationMode::GpuForCompression);
            cfg.pool_workers = pool_workers;
            let mut p = Pipeline::new(cfg);
            p.run(&data);
            let got = p.read_blocks(&all).expect("batched read");
            let key = (p.report().read_end, got);
            match &baseline {
                None => baseline = Some(key),
                Some(b) => {
                    assert_eq!(b.0, key.0, "pool_workers={pool_workers} shifted read_end");
                    assert_eq!(b.1, key.1, "pool_workers={pool_workers} changed bytes");
                }
            }
        }
    }

    #[test]
    fn read_block_out_of_range_errors() {
        let mut p = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        p.run(&stream());
        assert!(p.read_block(10_000).is_err());
    }
}
