//! GPU-resident bins in linear-table layout.
//!
//! The paper's GPU indexing path, reproduced faithfully:
//!
//! * a subset of bins is mirrored into device memory as **linear tables**
//!   (contiguous digest arrays) rather than trees — sequential scans keep
//!   accesses coalesced and avoid branch divergence, the two things the
//!   SIMT timing model punishes,
//! * **only digests live on the GPU**; per-chunk metadata stays in system
//!   memory, so a lookup kernel returns `(index, hit)` pairs and the host
//!   resolves them against its own tables — no hash-table update runs on
//!   the device,
//! * when a bin buffer flushes, the resident copy of that bin is updated,
//!   with **random replacement** when the linear table is full (FIFO and
//!   LRU are provided for the ablation benches).

use dr_des::{IdMap, SimTime, SplitMix64};
use dr_gpu_sim::{
    BufferId, GpuDevice, GpuError, LaunchConfig, LaunchReport, MemAccess, WorkItemCost,
};
use dr_hashes::ChunkDigest;

use crate::bin::{BinKey, FlushEvent};
use crate::entry::ChunkRef;
use crate::page::EntryPage;
use crate::router::BinRouter;

/// Cycles a GPU lane spends per 20-byte key comparison (loads + compare).
const CYCLES_PER_COMPARE: u64 = 6;
/// Cycles for a work item whose bin is not resident (slot-table probe only).
const CYCLES_NON_RESIDENT: u64 = 12;
/// Seed of the victim RNG for [`ReplacementPolicy::Random`].
const VICTIM_SEED: u64 = 0xBEEF;
/// Cycles per binary-search step in the tree layout: compare + branch +
/// pointer chase (GCN branch + scalar unit round trip).
const CYCLES_PER_TREE_STEP: u64 = 40;

/// Device memory layout of a resident bin — the design point of the
/// paper's Section 3.1(2).
///
/// The paper chooses **linear** tables: sequential scans are coalesced and
/// branch-free, so SIMT lanes stay in lockstep. A **tree** (binary search
/// over the sorted entries) does asymptotically less work but every step
/// is a divergent branch plus a scattered load; the ablation harness
/// measures the gap on the device model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpuBinLayout {
    /// Contiguous digest array, scanned whole (the paper's choice).
    #[default]
    Linear,
    /// Sorted array searched binarily (the rejected alternative).
    Tree,
}

/// How a full GPU linear bin chooses a victim entry, and how a full slot
/// set chooses a victim bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Uniformly random victim — the paper's choice.
    #[default]
    Random,
    /// Oldest-installed victim.
    Fifo,
    /// Least-recently-used victim.
    Lru,
}

/// Configuration of the GPU-resident index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuBinIndexConfig {
    /// Digest-entry capacity of each linear bin table.
    pub entries_per_bin: usize,
    /// Number of bin slots resident in device memory.
    pub bin_slots: usize,
    /// Victim selection policy.
    pub policy: ReplacementPolicy,
    /// Device memory layout of resident bins.
    pub layout: GpuBinLayout,
}

impl Default for GpuBinIndexConfig {
    fn default() -> Self {
        GpuBinIndexConfig {
            entries_per_bin: 512,
            bin_slots: 1024,
            policy: ReplacementPolicy::Random,
            layout: GpuBinLayout::Linear,
        }
    }
}

/// The classified outcome of one GPU probe.
///
/// A *complete* resident bin (its linear table holds every entry of the
/// CPU bin) can answer misses authoritatively, letting the pipeline skip
/// the CPU probes entirely; an incomplete or absent bin sends the query to
/// the CPU path (the paper's Fig. 1 fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuProbe {
    /// The digest was found; here is its location (from host-side metadata).
    Hit(ChunkRef),
    /// The bin is fully mirrored on the device and does not contain the
    /// digest: the chunk is certainly new to this bin.
    AuthoritativeMiss,
    /// The bin is absent or only partially mirrored; the CPU must probe.
    NeedsCpu,
}

/// Timing and hit accounting of one batched GPU lookup.
#[derive(Debug, Clone)]
pub struct GpuLookupReport {
    /// Host→device staging of the query digests.
    pub h2d_end: SimTime,
    /// The lookup kernel.
    pub kernel: LaunchReport,
    /// When the `(index, hit)` result pairs arrived back on the host.
    pub done: SimTime,
    /// Total queries in the batch.
    pub queries: usize,
    /// Queries whose bin was resident on the device.
    pub resident_queries: usize,
    /// Queries that hit.
    pub hits: usize,
}

/// The GPU-resident half of the dedup index.
#[derive(Debug)]
pub struct GpuBinIndex {
    config: GpuBinIndexConfig,
    router: BinRouter,
    /// Device buffer sized for `bin_slots × entries_per_bin` 20-byte keys:
    /// it holds the tables' capacity and takes each slot's upload.
    table: BufferId,
    /// bin id → slot.
    slot_of_bin: IdMap<usize, usize>,
    /// slot → bin id.
    bin_of_slot: Vec<Option<usize>>,
    /// Host-side metadata, parallel to the device linear tables: one SoA
    /// page per slot whose key column is the device table's byte layout.
    meta: Vec<EntryPage>,
    /// Whether each slot mirrors its bin completely (authoritative misses).
    complete: Vec<bool>,
    /// Install sequence per slot (FIFO) and last-use tick (LRU).
    installed_at: Vec<u64>,
    used_at: Vec<u64>,
    tick: u64,
    rng: SplitMix64,
    /// The lookup kernel's work items (reused by every lookup).
    items: Vec<WorkItemCost>,
}

impl GpuBinIndex {
    /// Allocates the device-resident table, routing digests by their
    /// first `prefix_bytes` bytes (as the CPU index does).
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when the table does not fit.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized configuration or a `prefix_bytes` that
    /// [`BinRouter::new`] refuses.
    pub fn new(
        gpu: &mut GpuDevice,
        config: GpuBinIndexConfig,
        prefix_bytes: usize,
    ) -> Result<Self, GpuError> {
        assert!(config.entries_per_bin > 0, "bins need at least one entry");
        assert!(config.bin_slots > 0, "need at least one bin slot");
        let router = BinRouter::new(prefix_bytes);
        let bytes = (config.bin_slots * config.entries_per_bin * 20) as u64;
        let table = gpu.alloc(bytes)?;
        Ok(GpuBinIndex {
            router,
            table,
            slot_of_bin: IdMap::default(),
            bin_of_slot: vec![None; config.bin_slots],
            meta: vec![EntryPage::new(); config.bin_slots],
            complete: vec![false; config.bin_slots],
            installed_at: vec![0; config.bin_slots],
            used_at: vec![0; config.bin_slots],
            tick: 0,
            rng: SplitMix64::new(VICTIM_SEED),
            items: Vec::new(),
            config,
        })
    }

    /// Number of bins currently resident.
    pub fn resident_bins(&self) -> usize {
        self.slot_of_bin.len()
    }

    /// True when `bin` is resident on the device.
    pub fn is_resident(&self, bin: usize) -> bool {
        self.slot_of_bin.contains_key(&bin)
    }

    /// Device memory held by the linear tables, in bytes.
    pub fn device_bytes(&self) -> u64 {
        (self.config.bin_slots * self.config.entries_per_bin * 20) as u64
    }

    fn pick_victim_slot(&mut self) -> usize {
        if let Some(free) = self.bin_of_slot.iter().position(Option::is_none) {
            return free;
        }
        match self.config.policy {
            ReplacementPolicy::Random => {
                (self.rng.next_below(self.config.bin_slots as u64)) as usize
            }
            ReplacementPolicy::Fifo => {
                let (slot, _) = self
                    .installed_at
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .expect("slots non-empty");
                slot
            }
            ReplacementPolicy::Lru => {
                let (slot, _) = self
                    .used_at
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .expect("slots non-empty");
                slot
            }
        }
    }

    /// Uploads a slot's host-side entries into its device linear table.
    fn sync_slot(
        &self,
        now: SimTime,
        gpu: &mut GpuDevice,
        slot: usize,
    ) -> Result<SimTime, GpuError> {
        // The page's key column is the device byte layout, so the upload
        // is one contiguous transfer. It is charged, not copied: the lookup
        // kernel runs on the host and scans the page itself.
        let len = self.meta[slot].key_bytes().len() as u64;
        if len == 0 {
            return Ok(now);
        }
        let offset = (slot * self.config.entries_per_bin * 20) as u64;
        let grant = gpu.charge_h2d(now, self.table, offset, len)?;
        Ok(grant.end)
    }

    /// Installs (or refreshes) `bin` with `entries`, evicting a victim bin
    /// if no slot is free. Returns when the device copy is consistent.
    ///
    /// # Errors
    ///
    /// Propagates device transfer errors.
    pub fn install_bin(
        &mut self,
        now: SimTime,
        gpu: &mut GpuDevice,
        bin: usize,
        entries: &[(BinKey, ChunkRef)],
    ) -> Result<SimTime, GpuError> {
        self.tick += 1;
        let slot = match self.slot_of_bin.get(&bin) {
            Some(&slot) => slot,
            None => {
                let slot = self.pick_victim_slot();
                if let Some(old) = self.bin_of_slot[slot] {
                    self.slot_of_bin.remove(&old);
                }
                self.bin_of_slot[slot] = Some(bin);
                self.slot_of_bin.insert(bin, slot);
                self.installed_at[slot] = self.tick;
                slot
            }
        };
        self.used_at[slot] = self.tick;
        let take = entries.len().min(self.config.entries_per_bin);
        // Keep the most recent entries when the bin exceeds table capacity.
        let page = &mut self.meta[slot];
        page.clear();
        for (key, r) in &entries[entries.len() - take..] {
            page.push(key, *r);
        }
        self.complete[slot] = take == entries.len();
        self.sync_slot(now, gpu, slot)
    }

    /// Applies a bin-buffer flush to the resident copy (no-op when the bin
    /// is not resident). Full tables replace victims per the policy.
    ///
    /// # Errors
    ///
    /// Propagates device transfer errors.
    pub fn apply_flush(
        &mut self,
        now: SimTime,
        gpu: &mut GpuDevice,
        flush: &FlushEvent,
    ) -> Result<SimTime, GpuError> {
        let Some(&slot) = self.slot_of_bin.get(&flush.bin) else {
            return Ok(now);
        };
        self.tick += 1;
        self.used_at[slot] = self.tick;
        for (key, r) in &flush.entries {
            if self.meta[slot].len() < self.config.entries_per_bin {
                self.meta[slot].push(key, *r);
            } else {
                let victim = match self.config.policy {
                    ReplacementPolicy::Random => {
                        self.rng.next_below(self.config.entries_per_bin as u64) as usize
                    }
                    // Entry-level FIFO/LRU degrade to replacing the oldest
                    // (front) entry; the page is append-ordered.
                    ReplacementPolicy::Fifo | ReplacementPolicy::Lru => 0,
                };
                self.meta[slot].set_at(victim, key, *r);
                // An entry was dropped: misses are no longer authoritative.
                self.complete[slot] = false;
            }
        }
        self.sync_slot(now, gpu, slot)
    }

    /// Batched lookup on the device.
    ///
    /// Every query becomes one work item that scans its bin's linear table;
    /// non-resident bins cost a slot-table probe and report "not resident"
    /// (the caller falls back to the CPU path, as in the paper's Fig. 1
    /// workflow). Results index into host-side metadata: `probes` is
    /// cleared and refilled with one outcome per digest, in order. Keep it
    /// between calls and a lookup allocates nothing on the host — the
    /// query upload is charged, not copied (the kernel runs on the host,
    /// against `digests`), and the work-item list is the index's own.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when the query or result buffer does not
    /// fit beside what the device holds; propagates injected launch faults
    /// ([`GpuError::LaunchFailed`], [`GpuError::ProbeTimeout`],
    /// [`GpuError::DeviceLost`]). Both buffers are freed on every exit, so
    /// the caller may retry or fall back to the CPU index; `probes` then
    /// holds no meaningful data.
    pub fn lookup_batch(
        &mut self,
        now: SimTime,
        gpu: &mut GpuDevice,
        digests: &[ChunkDigest],
        probes: &mut Vec<GpuProbe>,
    ) -> Result<GpuLookupReport, GpuError> {
        self.tick += 1;
        let query_len = (digests.len() * ChunkDigest::LEN) as u64;
        // Return (index, hit) pairs: 8 bytes per query.
        let result_len = (digests.len() * 8).max(1) as u64;
        gpu.with_buffer(query_len.max(1), |gpu, query_buf| {
            let h2d = gpu.charge_h2d(now, query_buf, 0, query_len)?;
            let (resident_queries, hits) = self.scan(digests, probes);
            let kernel = gpu.launch(h2d.end, LaunchConfig::named("bin-lookup"), &self.items)?;
            let d2h = gpu.with_buffer(result_len, |gpu, result_buf| {
                gpu.charge_d2h(kernel.grant.end, result_buf, 0, result_len)
            })?;
            Ok(GpuLookupReport {
                h2d_end: h2d.end,
                done: d2h.end,
                kernel,
                queries: digests.len(),
                resident_queries,
                hits,
            })
        })
    }

    /// The lookup kernel's functional work: scans the linear tables
    /// (host-side meta, whose key columns are what each slot uploaded)
    /// into `probes`, and prices every query as a work item into
    /// `self.items`. Returns `(resident queries, hits)`.
    fn scan(&mut self, digests: &[ChunkDigest], probes: &mut Vec<GpuProbe>) -> (usize, usize) {
        probes.clear();
        self.items.clear();
        let mut resident_queries = 0usize;
        let mut hits = 0usize;
        for d in digests {
            let bin = self.router.route(d);
            let mut key = *d.as_bytes();
            for b in key.iter_mut().take(self.router.prefix_bytes()) {
                *b = 0;
            }
            match self.slot_of_bin.get(&bin) {
                Some(&slot) => {
                    resident_queries += 1;
                    self.used_at[slot] = self.tick;
                    let table = &self.meta[slot];
                    // Functional search is layout-independent (oldest
                    // entry wins, as the device linear scan would report);
                    // the cost model is not.
                    let found = table.find(&key).map(|i| table.ref_at(i));
                    probes.push(match found {
                        Some(r) => {
                            hits += 1;
                            GpuProbe::Hit(r)
                        }
                        None if self.complete[slot] => GpuProbe::AuthoritativeMiss,
                        None => GpuProbe::NeedsCpu,
                    });
                    self.items.push(match self.config.layout {
                        // Linear scan: the whole table is always read
                        // (fixed-length loops avoid divergence), coalesced.
                        GpuBinLayout::Linear => WorkItemCost {
                            cycles: CYCLES_NON_RESIDENT + table.len() as u64 * CYCLES_PER_COMPARE,
                            mem: MemAccess::coalesced(20 + table.len() as u64 * 20),
                        },
                        // Binary search: ~log2(n) divergent branches and
                        // scattered loads; per-lane depth varies with the
                        // query, so wavefronts pay the divergence penalty.
                        GpuBinLayout::Tree => {
                            let n = table.len().max(1) as u64;
                            let depth = 64 - n.leading_zeros() as u64 + 1;
                            // Early exits make lane depth data-dependent.
                            let jitter = d.slot_key() % (depth / 2 + 1);
                            WorkItemCost {
                                cycles: CYCLES_NON_RESIDENT
                                    + (depth - jitter) * CYCLES_PER_TREE_STEP,
                                mem: MemAccess::uncoalesced(20 + (depth - jitter) * 32),
                            }
                        }
                    });
                }
                None => {
                    probes.push(GpuProbe::NeedsCpu);
                    self.items.push(WorkItemCost {
                        cycles: CYCLES_NON_RESIDENT,
                        mem: MemAccess::coalesced(20),
                    });
                }
            }
        }
        (resident_queries, hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_gpu_sim::GpuSpec;
    use dr_hashes::sha1_digest;

    fn gpu() -> GpuDevice {
        GpuDevice::new(GpuSpec::radeon_hd_7970())
    }

    /// One lookup at time zero, its probes and report.
    fn lookup(
        idx: &mut GpuBinIndex,
        device: &mut GpuDevice,
        digests: &[ChunkDigest],
    ) -> (Vec<GpuProbe>, GpuLookupReport) {
        let mut probes = Vec::new();
        let report = idx
            .lookup_batch(SimTime::ZERO, device, digests, &mut probes)
            .unwrap();
        (probes, report)
    }

    fn config() -> GpuBinIndexConfig {
        GpuBinIndexConfig {
            entries_per_bin: 8,
            bin_slots: 4,
            ..GpuBinIndexConfig::default()
        }
    }

    fn keyed(i: u64, prefix_bytes: usize) -> (ChunkDigest, BinKey, usize) {
        let d = sha1_digest(&i.to_le_bytes());
        let mut key = *d.as_bytes();
        for b in key.iter_mut().take(prefix_bytes) {
            *b = 0;
        }
        let bin = d.prefix_u64(prefix_bytes) as usize;
        (d, key, bin)
    }

    #[test]
    fn install_then_lookup_hits() {
        let mut device = gpu();
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        let (d, key, bin) = keyed(1, 2);
        idx.install_bin(
            SimTime::ZERO,
            &mut device,
            bin,
            &[(key, ChunkRef::new(5, 9))],
        )
        .unwrap();
        let (results, report) = lookup(&mut idx, &mut device, &[d]);
        assert_eq!(results, vec![GpuProbe::Hit(ChunkRef::new(5, 9))]);
        assert_eq!(report.hits, 1);
        assert_eq!(report.resident_queries, 1);
    }

    #[test]
    fn non_resident_bin_misses_cheaply() {
        let mut device = gpu();
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        let (d, _, _) = keyed(7, 2);
        let (results, report) = lookup(&mut idx, &mut device, &[d]);
        assert_eq!(results, vec![GpuProbe::NeedsCpu]);
        assert_eq!(report.resident_queries, 0);
        assert_eq!(report.hits, 0);
    }

    #[test]
    fn flush_updates_resident_bin() {
        let mut device = gpu();
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        let (d, key, bin) = keyed(3, 2);
        idx.install_bin(SimTime::ZERO, &mut device, bin, &[])
            .unwrap();
        idx.apply_flush(
            SimTime::ZERO,
            &mut device,
            &FlushEvent {
                bin,
                entries: vec![(key, ChunkRef::new(1, 1))],
            },
        )
        .unwrap();
        let (results, _) = lookup(&mut idx, &mut device, &[d]);
        assert_eq!(results, vec![GpuProbe::Hit(ChunkRef::new(1, 1))]);
    }

    #[test]
    fn complete_bin_gives_authoritative_miss() {
        let mut device = gpu();
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        let (_, key, bin) = keyed(1, 2);
        idx.install_bin(
            SimTime::ZERO,
            &mut device,
            bin,
            &[(key, ChunkRef::new(0, 0))],
        )
        .unwrap();
        // A different digest routed to the same bin misses authoritatively.
        let mut i = 2u64;
        let other = loop {
            let (d, _, b) = keyed(i, 2);
            if b == bin {
                break d;
            }
            i += 1;
        };
        let (results, _) = lookup(&mut idx, &mut device, &[other]);
        assert_eq!(results, vec![GpuProbe::AuthoritativeMiss]);
    }

    #[test]
    fn overflowed_bin_loses_authority() {
        let mut device = gpu();
        let cfg = GpuBinIndexConfig {
            entries_per_bin: 1,
            bin_slots: 1,
            ..GpuBinIndexConfig::default()
        };
        let mut idx = GpuBinIndex::new(&mut device, cfg, 2).unwrap();
        let (_, k1, bin) = keyed(1, 2);
        idx.install_bin(
            SimTime::ZERO,
            &mut device,
            bin,
            &[(k1, ChunkRef::new(1, 1))],
        )
        .unwrap();
        // Flush a second entry into a 1-entry table: authority is lost.
        let mut k2 = k1;
        k2[19] ^= 0xFF;
        idx.apply_flush(
            SimTime::ZERO,
            &mut device,
            &FlushEvent {
                bin,
                entries: vec![(k2, ChunkRef::new(2, 1))],
            },
        )
        .unwrap();
        // A probe for a third key in this bin must defer to the CPU.
        let mut i = 2u64;
        let other = loop {
            let (d, k, b) = keyed(i, 2);
            if b == bin && k != k1 && k != k2 {
                break d;
            }
            i += 1;
        };
        let (results, _) = lookup(&mut idx, &mut device, &[other]);
        assert_eq!(results, vec![GpuProbe::NeedsCpu]);
    }

    #[test]
    fn flush_to_non_resident_bin_is_noop() {
        let mut device = gpu();
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        let (_, key, bin) = keyed(3, 2);
        let t = idx
            .apply_flush(
                SimTime::ZERO,
                &mut device,
                &FlushEvent {
                    bin,
                    entries: vec![(key, ChunkRef::new(1, 1))],
                },
            )
            .unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(idx.resident_bins(), 0);
    }

    #[test]
    fn slot_eviction_when_full() {
        let mut device = gpu();
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        // Install 5 distinct bins into 4 slots.
        let mut installed = Vec::new();
        let mut i = 0u64;
        while installed.len() < 5 {
            let (_, key, bin) = keyed(i, 2);
            i += 1;
            if installed.contains(&bin) {
                continue;
            }
            idx.install_bin(
                SimTime::ZERO,
                &mut device,
                bin,
                &[(key, ChunkRef::new(0, 0))],
            )
            .unwrap();
            installed.push(bin);
        }
        assert_eq!(idx.resident_bins(), 4);
    }

    #[test]
    fn full_table_replaces_entries() {
        let mut device = gpu();
        let cfg = GpuBinIndexConfig {
            entries_per_bin: 2,
            bin_slots: 1,
            policy: ReplacementPolicy::Fifo,
            ..GpuBinIndexConfig::default()
        };
        let mut idx = GpuBinIndex::new(&mut device, cfg, 2).unwrap();
        let (_, k1, bin) = keyed(1, 2);
        idx.install_bin(
            SimTime::ZERO,
            &mut device,
            bin,
            &[(k1, ChunkRef::new(1, 1))],
        )
        .unwrap();
        // Push 3 more entries through flushes: table capacity 2 forces
        // replacement; FIFO replaces the oldest.
        for n in 2..5u64 {
            let mut k = k1;
            k[19] ^= n as u8;
            idx.apply_flush(
                SimTime::ZERO,
                &mut device,
                &FlushEvent {
                    bin,
                    entries: vec![(k, ChunkRef::new(n, 1))],
                },
            )
            .unwrap();
        }
        assert_eq!(idx.meta[0].len(), 2);
    }

    #[test]
    fn lru_policy_keeps_recently_used_bin() {
        let mut device = gpu();
        let cfg = GpuBinIndexConfig {
            entries_per_bin: 4,
            bin_slots: 2,
            policy: ReplacementPolicy::Lru,
            ..GpuBinIndexConfig::default()
        };
        let mut idx = GpuBinIndex::new(&mut device, cfg, 2).unwrap();
        // Two distinct bins.
        let mut bins = Vec::new();
        let mut digests = Vec::new();
        let mut i = 0u64;
        while bins.len() < 3 {
            let (d, key, bin) = keyed(i, 2);
            i += 1;
            if bins.contains(&bin) {
                continue;
            }
            if bins.len() < 2 {
                idx.install_bin(
                    SimTime::ZERO,
                    &mut device,
                    bin,
                    &[(key, ChunkRef::new(0, 0))],
                )
                .unwrap();
            }
            bins.push(bin);
            digests.push(d);
        }
        // Touch bin 0 so bin 1 becomes LRU.
        lookup(&mut idx, &mut device, &[digests[0]]);
        // Installing bin 2 must evict bin 1.
        idx.install_bin(SimTime::ZERO, &mut device, bins[2], &[])
            .unwrap();
        assert!(idx.is_resident(bins[0]));
        assert!(!idx.is_resident(bins[1]));
        assert!(idx.is_resident(bins[2]));
    }

    #[test]
    fn timing_is_sequenced() {
        let mut device = gpu();
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        let (d, key, bin) = keyed(11, 2);
        idx.install_bin(
            SimTime::ZERO,
            &mut device,
            bin,
            &[(key, ChunkRef::new(0, 0))],
        )
        .unwrap();
        let (_, report) = lookup(&mut idx, &mut device, &[d]);
        assert!(report.h2d_end <= report.kernel.grant.start);
        assert!(report.kernel.grant.end <= report.done);
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn tree_layout_is_functionally_identical() {
        let mut dl = gpu();
        let mut dt = gpu();
        let mut linear = GpuBinIndex::new(&mut dl, config(), 2).unwrap();
        let mut tree = GpuBinIndex::new(
            &mut dt,
            GpuBinIndexConfig {
                layout: GpuBinLayout::Tree,
                ..config()
            },
            2,
        )
        .unwrap();
        let (d, key, bin) = keyed(1, 2);
        linear
            .install_bin(SimTime::ZERO, &mut dl, bin, &[(key, ChunkRef::new(3, 4))])
            .unwrap();
        tree.install_bin(SimTime::ZERO, &mut dt, bin, &[(key, ChunkRef::new(3, 4))])
            .unwrap();
        let (rl, _) = lookup(&mut linear, &mut dl, &[d]);
        let (rt, _) = lookup(&mut tree, &mut dt, &[d]);
        assert_eq!(rl, rt);
    }

    #[test]
    fn linear_layout_wins_at_small_bins_tree_at_large() {
        // The paper's Section 3.1(2) trade, measured on the device model:
        // divergence + scattered loads make trees slower for the small
        // bins of a primary-storage index; binary search only pays off on
        // much larger tables.
        let kernel_time = |layout: GpuBinLayout, entries: usize| {
            let mut device = gpu();
            let cfg = GpuBinIndexConfig {
                entries_per_bin: entries,
                bin_slots: 4,
                layout,
                ..GpuBinIndexConfig::default()
            };
            let mut idx = GpuBinIndex::new(&mut device, cfg, 2).unwrap();
            let (d0, key, bin) = keyed(1, 2);
            let entries_vec: Vec<_> = (0..entries as u64)
                .map(|i| {
                    let mut k = key;
                    k[12..20].copy_from_slice(&i.to_be_bytes());
                    (k, ChunkRef::new(i, 1))
                })
                .collect();
            idx.install_bin(SimTime::ZERO, &mut device, bin, &entries_vec)
                .unwrap();
            // A big uniform batch of queries routed to that bin.
            let queries = vec![d0; 4096];
            let (_, report) = lookup(&mut idx, &mut device, &queries);
            report.kernel.timing.duration().as_nanos()
        };
        let small_linear = kernel_time(GpuBinLayout::Linear, 48);
        let small_tree = kernel_time(GpuBinLayout::Tree, 48);
        assert!(
            small_linear < small_tree,
            "linear {small_linear} vs tree {small_tree} at 48 entries"
        );
        let big_linear = kernel_time(GpuBinLayout::Linear, 4096);
        let big_tree = kernel_time(GpuBinLayout::Tree, 4096);
        assert!(
            big_tree < big_linear,
            "tree {big_tree} vs linear {big_linear} at 4096 entries"
        );
    }

    #[test]
    fn device_memory_matches_config() {
        let mut device = gpu();
        let idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        assert_eq!(idx.device_bytes(), (4 * 8 * 20) as u64);
        assert_eq!(device.mem_used(), idx.device_bytes());
    }

    #[test]
    fn a_failed_lookup_frees_what_it_staged() {
        // Room for the table and one query's 20-byte upload, one byte
        // short of its 8-byte result buffer.
        let table = (4 * 8 * 20) as u64;
        let mut device = GpuDevice::new(GpuSpec {
            global_mem_bytes: table + 20 + 7,
            ..GpuSpec::radeon_hd_7970()
        });
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        let (d, key, bin) = keyed(1, 2);
        idx.install_bin(
            SimTime::ZERO,
            &mut device,
            bin,
            &[(key, ChunkRef::new(5, 9))],
        )
        .unwrap();
        let mut probes = Vec::new();
        for _ in 0..3 {
            let err = idx
                .lookup_batch(SimTime::ZERO, &mut device, &[d], &mut probes)
                .unwrap_err();
            assert_eq!(
                err,
                GpuError::OutOfMemory {
                    requested: 8,
                    available: 7
                }
            );
            assert_eq!(device.mem_used(), table, "the query buffer leaked");
        }
        // A successful lookup leaves the device as full as it found it.
        let mut device = gpu();
        let mut idx = GpuBinIndex::new(&mut device, config(), 2).unwrap();
        let (probes, _) = lookup(&mut idx, &mut device, &[d, d]);
        assert_eq!(probes, vec![GpuProbe::NeedsCpu; 2]);
        assert_eq!(device.mem_used(), table);
    }
}
