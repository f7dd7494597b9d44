//! The integrated pipeline: configuration, construction, the batch driver.
//! Its paths live in one file each: the write path's stages in
//! `ingest.rs`, the read path in [`crate::read`], journaling and crash
//! recovery in `recovery.rs`.

use dr_binindex::{BinIndex, BinIndexConfig, ChunkRef, GpuBinIndex, GpuBinIndexConfig, RoutingObs};
use dr_compress::{FastLz, GpuCompressor, GpuCompressorConfig};
use dr_des::{Resource, SimTime};
use dr_gpu_sim::{GpuDevice, GpuSpec};
use dr_hashes::{hash_chunks_pooled_counted, ChunkDigest};
use dr_obs::trace::Tracer;
use dr_obs::{CounterHandle, GaugeHandle, HistogramHandle, ObsHandle, StageObs};
use dr_pool::WorkerPool;
use dr_ssd_sim::{SsdDevice, SsdSpec};
use std::borrow::Cow;

use crate::cpu_model::CpuModel;
use crate::degrade::{DegradePolicy, Guarded, GPU_COMPRESS, GPU_DEDUP};
use crate::destage::Destager;
use crate::error::ReadError;
use crate::ingest::{BatchPayload, FrameArena, HashedChunks};
use crate::journal::Journal;
use crate::read::{ReadCache, ReadConfig};
use crate::report::Report;

pub use crate::recovery::{RecoverError, RecoveryOutcome, VolumeRecord};

/// Which data reduction operations the GPU is assigned to — the paper's
/// four integration options (Section 4(3), Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntegrationMode {
    /// Neither operation uses the GPU ("useful when the performance of the
    /// GPU is poor").
    CpuOnly,
    /// The GPU accelerates indexing only.
    GpuForDedup,
    /// The GPU accelerates compression only — the paper's best fixed
    /// choice: "data compression, which has a high performance gain when
    /// using a GPU, monopolizes the GPU".
    #[default]
    GpuForCompression,
    /// Both operations share the GPU.
    GpuForBoth,
}

impl IntegrationMode {
    /// All four options, in the paper's Figure-2 order.
    pub const ALL: [IntegrationMode; 4] = [
        IntegrationMode::CpuOnly,
        IntegrationMode::GpuForDedup,
        IntegrationMode::GpuForCompression,
        IntegrationMode::GpuForBoth,
    ];

    /// True when the GPU handles indexing.
    pub fn gpu_dedup(&self) -> bool {
        matches!(
            self,
            IntegrationMode::GpuForDedup | IntegrationMode::GpuForBoth
        )
    }

    /// True when the GPU handles compression.
    pub fn gpu_compression(&self) -> bool {
        matches!(
            self,
            IntegrationMode::GpuForCompression | IntegrationMode::GpuForBoth
        )
    }
}

impl std::fmt::Display for IntegrationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IntegrationMode::CpuOnly => "cpu-only",
            IntegrationMode::GpuForDedup => "gpu-dedup",
            IntegrationMode::GpuForCompression => "gpu-compression",
            IntegrationMode::GpuForBoth => "gpu-both",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for IntegrationMode {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) names, so mode flags on
    /// the bench binaries round-trip: `cpu-only`, `gpu-dedup`,
    /// `gpu-compression`, `gpu-both`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cpu-only" => Ok(IntegrationMode::CpuOnly),
            "gpu-dedup" => Ok(IntegrationMode::GpuForDedup),
            "gpu-compression" => Ok(IntegrationMode::GpuForCompression),
            "gpu-both" => Ok(IntegrationMode::GpuForBoth),
            other => Err(format!(
                "unknown integration mode {other:?} \
                 (expected cpu-only, gpu-dedup, gpu-compression or gpu-both)"
            )),
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// GPU assignment.
    pub mode: IntegrationMode,
    /// Chunk size (the paper compresses 4 KB chunks).
    pub chunk_bytes: usize,
    /// Chunks per scheduling batch (GPU kernels amortize launches over a
    /// batch; the CPU path ignores this).
    pub batch_chunks: usize,
    /// Host worker threads for the persistent execution pool that runs
    /// hashing and CPU compression (includes the calling thread). Defaults
    /// to the machine's available parallelism, clamped — see
    /// [`dr_pool::default_workers`]. Distinct from [`CpuModel::workers`],
    /// which models the *simulated* array's CPUs; this knob only affects
    /// host wall-clock speed, never simulated results.
    pub pool_workers: usize,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// CPU-side index configuration.
    pub index: BinIndexConfig,
    /// GPU-resident index configuration.
    pub gpu_index: GpuBinIndexConfig,
    /// GPU compression kernel configuration.
    pub gpu_compressor: GpuCompressorConfig,
    /// Read-path configuration: decompressed-chunk cache capacity.
    pub read: ReadConfig,
    /// GPU hardware profile.
    pub gpu_spec: GpuSpec,
    /// SSD hardware profile.
    pub ssd_spec: SsdSpec,
    /// Run deduplication (disable for compression-only experiments).
    pub dedup_enabled: bool,
    /// Run compression (disable for dedup-only experiments).
    pub compress_enabled: bool,
    /// Decompress every destaged frame and compare against the original
    /// (functional self-check; costs host time, not simulated time).
    pub verify: bool,
    /// Wrap every destaged frame in a CRC-32C integrity envelope and
    /// verify it on reads, so device corruption is detected instead of
    /// silently decompressed.
    pub integrity: bool,
    /// Degradation policy applied when device models inject faults:
    /// bounded retry with backoff, then reroute to the CPU path (GPU
    /// faults) or shed reduction effort (SSD write faults), with a
    /// sim-time re-probe timer. Inert while no faults are injected.
    pub degrade: DegradePolicy,
    /// Pages reserved at the top of the LPN space for the write-ahead
    /// metadata journal (see [`crate::journal`]). Zero (the default)
    /// disables journaling entirely — no reservation, no extra device
    /// writes — so unjournaled runs stay bit-identical to builds that
    /// predate the journal. Non-zero enables crash consistency: every
    /// committed batch and volume-map update is journaled before it is
    /// acknowledged, and [`Pipeline::power_cut_and_recover`] can replay
    /// the log after a simulated power failure.
    pub journal_pages: u64,
    /// Observability sink. The default handle is disabled, which makes
    /// every instrumentation point a no-op; pass
    /// [`ObsHandle::enabled`]/[`ObsHandle::with_registry`] to record
    /// per-stage latency histograms and counters across every layer
    /// (index, GPU, SSD, destage, compression).
    pub obs: ObsHandle,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            mode: IntegrationMode::default(),
            chunk_bytes: 4096,
            batch_chunks: 128,
            pool_workers: dr_pool::default_workers(),
            cpu: CpuModel::default(),
            index: BinIndexConfig::default(),
            gpu_index: GpuBinIndexConfig::default(),
            gpu_compressor: GpuCompressorConfig::default(),
            read: ReadConfig::default(),
            gpu_spec: GpuSpec::radeon_hd_7970(),
            ssd_spec: SsdSpec::samsung_830_256g(),
            dedup_enabled: true,
            compress_enabled: true,
            verify: false,
            integrity: false,
            degrade: DegradePolicy::default(),
            journal_pages: 0,
            obs: ObsHandle::disabled(),
        }
    }
}

/// The fingerprint stage's metrics, which travel with a hash job.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashingObs {
    /// `hashing.wall_ns` / `hashing.sim_ns`.
    pub(crate) stage: StageObs,
    /// `hashing.multibuffer_chunks`: chunks fingerprinted sixteen at a
    /// time (`dr_hashes::sha1_digest_many`'s wide arm) rather than one by
    /// one — full groups of whole-block chunks on an AVX-512 host.
    pub(crate) multibuffer_chunks: CounterHandle,
}

/// The pipeline's own interned stage metrics; inert when observability is
/// disabled. Device- and index-level metrics live with their owners (the
/// pipeline only distributes the handle to them), the `fault.*` counters
/// with their [`Guarded`] components.
#[derive(Debug, Clone, Default)]
pub(crate) struct PipelineObs {
    pub(crate) batches: CounterHandle,
    /// `chunking.wall_ns` / `chunking.sim_ns`.
    pub(crate) chunking: StageObs,
    pub(crate) hashing: HashingObs,
    /// `index.probe_wall_ns` / `index.probe_sim_ns` — the dedup lookup
    /// stage as the pipeline sees it (the index's own `index.*` counters
    /// break the probes down by where they resolved).
    pub(crate) index_probe: StageObs,
    /// `compress.wall_ns` / `compress.sim_ns`.
    pub(crate) compress: StageObs,
    /// Cumulative compressor input/output levels (gauges, so a report can
    /// also subtract to show a window).
    pub(crate) compress_in_bytes: GaugeHandle,
    pub(crate) compress_out_bytes: GaugeHandle,
    /// The CPU-vs-GPU probe routing decision counters (`router.*`).
    pub(crate) routing: RoutingObs,
    /// Read-path metrics (`read.*`): batch/hit/miss counters, cache
    /// occupancy gauge, per-request simulated latency histogram.
    pub(crate) read_batches: CounterHandle,
    pub(crate) read_cache_hits: CounterHandle,
    pub(crate) read_cache_misses: CounterHandle,
    pub(crate) read_cache_evictions: CounterHandle,
    pub(crate) read_cache_entries: GaugeHandle,
    pub(crate) read_latency: HistogramHandle,
    /// `read.pages`: distinct device pages the cold fetches read — against
    /// `read.cache_misses` it says how often frames share a page read.
    pub(crate) read_pages: CounterHandle,
    /// `read.fetch.wall_ns` / `read.fetch.sim_ns` and `read.decode.*`: a
    /// batch's cold-frame fetch (on the simulated clock, the batch fetch
    /// span: issue to the last page read) and its decompression, one
    /// sample each per batch that had a cold frame.
    pub(crate) read_fetch: StageObs,
    pub(crate) read_decode: StageObs,
    /// Event tracer (disabled unless the handle carries one): per-batch
    /// sim-time spans on the pipeline stage tracks.
    pub(crate) tracer: Tracer,
}

impl PipelineObs {
    fn new(obs: &ObsHandle) -> Self {
        PipelineObs {
            batches: obs.counter("pipeline.batches"),
            chunking: obs.stage("chunking"),
            hashing: HashingObs {
                stage: obs.stage("hashing"),
                multibuffer_chunks: obs.counter("hashing.multibuffer_chunks"),
            },
            index_probe: StageObs {
                wall: obs.histogram("index.probe_wall_ns"),
                sim: obs.histogram("index.probe_sim_ns"),
            },
            compress: obs.stage("compress"),
            compress_in_bytes: obs.gauge("compress.in_bytes"),
            compress_out_bytes: obs.gauge("compress.out_bytes"),
            routing: RoutingObs::new(obs),
            read_batches: obs.counter("read.batches"),
            read_cache_hits: obs.counter("read.cache_hits"),
            read_cache_misses: obs.counter("read.cache_misses"),
            read_cache_evictions: obs.counter("read.cache_evictions"),
            read_cache_entries: obs.gauge("read.cache_entries"),
            read_latency: obs.histogram("read.latency_sim_ns"),
            read_pages: obs.counter("read.pages"),
            read_fetch: obs.stage("read.fetch"),
            read_decode: obs.stage("read.decode"),
            tracer: obs.tracer().clone(),
        }
    }
}

/// The GPU's two guarded components. The third, the SSD, lives with
/// the [`Destager`] whose page I/O retries through it.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) gpu_dedup: Guarded,
    pub(crate) gpu_compress: Guarded,
}

impl FaultState {
    pub(crate) fn new(policy: DegradePolicy, obs: &ObsHandle) -> Self {
        FaultState {
            gpu_dedup: Guarded::new(&GPU_DEDUP, policy, obs),
            gpu_compress: Guarded::new(&GPU_COMPRESS, policy, obs),
        }
    }
}

/// A powered-on GPU with, when the mode assigns indexing to it, an empty
/// device-resident index mirror — at start-up and after a power cycle.
/// An index that does not fit in device memory is left out: every probe
/// then runs on the CPU, and the event is counted as
/// `fault.gpu_index.out_of_memory`.
pub(crate) fn power_on_gpu(config: &PipelineConfig) -> (GpuDevice, Option<GpuBinIndex>) {
    let mut gpu = GpuDevice::new(config.gpu_spec.clone());
    gpu.set_obs(&config.obs);
    if !(config.mode.gpu_dedup() && config.dedup_enabled) {
        return (gpu, None);
    }
    let mut cfg = config.gpu_index;
    cfg.prefix_bytes = config.index.prefix_bytes;
    let gpu_index = GpuBinIndex::new(&mut gpu, cfg);
    if gpu_index.is_err() {
        config.obs.counter("fault.gpu_index.out_of_memory").incr();
    }
    (gpu, gpu_index.ok())
}

/// A batch with its fingerprints, ready for [`Pipeline::process_batch`].
type HashedBatch<'a> = (BatchPayload<'a>, Cow<'a, [ChunkDigest]>);

/// Fingerprints one batch: a `hash_chunks_pooled_counted` fan-out under
/// the `hashing` wall span, the same whether the submitter calls it or a
/// pool job does — unless the batch came out of a [`HashedChunks`], whose
/// digests are `supplied` and borrowed as they are. Fingerprints only
/// exist on behalf of deduplication — the paper's compression-only
/// experiment does not hash, so with dedup disabled the digests are zero
/// sentinels, supplied or not, and no SHA-1 is computed at all.
fn fingerprint<'a>(
    pool: &WorkerPool,
    dedup_enabled: bool,
    obs: &HashingObs,
    payload: BatchPayload<'a>,
    supplied: Option<&'a [ChunkDigest]>,
) -> HashedBatch<'a> {
    let digests = if !dedup_enabled {
        Cow::Owned(vec![ChunkDigest::zero(); payload.len()])
    } else if let Some(digests) = supplied {
        Cow::Borrowed(digests)
    } else {
        let span = obs.stage.span();
        let views: Vec<&[u8]> = (0..payload.len()).map(|i| payload.view(i)).collect();
        let (digests, wide) = hash_chunks_pooled_counted(pool, &views);
        span.finish();
        obs.multibuffer_chunks.add(wide as u64);
        Cow::Owned(digests)
    };
    (payload, digests)
}

/// The integrated inline data reduction pipeline.
///
/// See the [crate docs](crate) for the workflow and an example.
#[derive(Debug)]
pub struct Pipeline {
    pub(crate) config: PipelineConfig,
    pub(crate) cpu: Resource,
    pub(crate) index: BinIndex,
    pub(crate) gpu: GpuDevice,
    pub(crate) gpu_index: Option<GpuBinIndex>,
    pub(crate) gpu_comp: GpuCompressor,
    /// Capacity-bounded LRU of decompressed chunks (read path).
    pub(crate) read_cache: ReadCache,
    pub(crate) codec: FastLz,
    pub(crate) ssd: SsdDevice,
    pub(crate) destage: Destager,
    /// Write-ahead metadata journal; `None` when `journal_pages` is 0.
    pub(crate) journal: Option<Journal>,
    /// Persistent host execution pool: created once, reused by every
    /// batch for hashing and CPU compression, and for overlapping batch
    /// N+1's fingerprinting with batch N's downstream stages.
    pub(crate) pool: WorkerPool,
    /// Recycled compression output buffers.
    pub(crate) arena: FrameArena,
    /// The GPU's guarded components (sticky degraded mode with timed
    /// re-probes).
    pub(crate) fault: FaultState,
    pub(crate) obs: PipelineObs,
    /// Monotonic batch id, stamped onto trace events.
    pub(crate) batch_seq: u64,
    pub(crate) report: Report,
    /// The stream recipe: one stored-chunk reference per ingested chunk,
    /// in write order. Duplicates point at the shared stored copy — this
    /// is the logical-block map a real array keeps.
    pub(crate) recipe: Vec<ChunkRef>,
}

impl Pipeline {
    /// Builds a pipeline.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent (zero chunk size,
    /// zero batch size or pool width, invalid cost model).
    pub fn new(config: PipelineConfig) -> Self {
        assert!(config.chunk_bytes > 0, "chunk size must be positive");
        assert!(config.batch_chunks > 0, "batch size must be positive");
        assert!(
            config.pool_workers > 0,
            "pool worker count must be positive"
        );
        config.cpu.validate();
        // The calling thread participates in every batch, so the pool
        // itself carries one thread fewer than the configured width.
        let pool = WorkerPool::new(config.pool_workers - 1);
        pool.set_obs(&config.obs);
        let (gpu, gpu_index) = power_on_gpu(&config);
        let mut ssd = SsdDevice::new(config.ssd_spec.clone());
        ssd.set_obs(&config.obs);
        let mut destage = Destager::new(&ssd);
        destage.set_obs(&config.obs);
        destage.ssd_write.set_policy(config.degrade);
        let journal = if config.journal_pages > 0 {
            let mut journal = Journal::new(
                ssd.logical_pages(),
                config.ssd_spec.page_bytes,
                config.journal_pages,
            );
            journal.set_obs(&config.obs);
            destage.reserve_top_pages(config.journal_pages);
            // Journaled pipelines are crash-consistent by contract, so the
            // device must be able to model the power cut.
            ssd.arm_crash_capture();
            Some(journal)
        } else {
            None
        };
        let mut index = BinIndex::new(config.index);
        index.set_obs(&config.obs);
        let mut gpu_comp = GpuCompressor::new(config.gpu_compressor);
        gpu_comp.set_obs(&config.obs);
        Pipeline {
            cpu: Resource::new("cpu-workers", config.cpu.workers),
            index,
            gpu_comp,
            read_cache: ReadCache::new(config.read.cache_chunks),
            codec: FastLz::new(),
            gpu,
            gpu_index,
            ssd,
            destage,
            journal,
            pool,
            arena: FrameArena::new(config.batch_chunks),
            fault: FaultState::new(config.degrade, &config.obs),
            obs: PipelineObs::new(&config.obs),
            batch_seq: 0,
            report: Report::new(config.mode),
            recipe: Vec::new(),
            config,
        }
    }

    /// The persistent host execution pool (shared with callers that want
    /// to run their own work on the same threads).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Number of recycled frame buffers currently parked in the arena
    /// (bounded by [`PipelineConfig::batch_chunks`]).
    pub fn pooled_frame_buffers(&self) -> usize {
        self.arena.pooled()
    }

    /// The observability handle this pipeline records into (disabled
    /// unless one was supplied in the configuration).
    pub fn obs(&self) -> &ObsHandle {
        &self.config.obs
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The accumulated report (also returned by [`Pipeline::run`]).
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Immutable access to the CPU-side index (tests, examples).
    pub fn index(&self) -> &BinIndex {
        &self.index
    }

    /// Flushes the open destage partial page to the SSD, if any.
    ///
    /// A no-op on an empty buffer; safe to call at any point between
    /// ingests. The checker uses it to exercise flush ordering explicitly
    /// rather than only at end-of-run.
    ///
    /// # Errors
    ///
    /// [`ReadError::Device`] when the flush write fails after retries.
    pub fn flush(&mut self) -> Result<(), ReadError> {
        let now = self.report.reduction_end;
        if let Some(g) = self.destage.flush(now, &mut self.ssd)? {
            self.report.ssd_end = self.report.ssd_end.max(g.end);
        }
        Ok(())
    }

    /// Serializes the CPU-side bin index to its portable snapshot format
    /// (see `dr-binindex::snapshot`).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`](dr_binindex::SnapshotError) from the
    /// encoder.
    pub fn snapshot_index(&self) -> Result<Vec<u8>, dr_binindex::SnapshotError> {
        dr_binindex::snapshot(&self.index)
    }

    /// Replaces the CPU-side bin index with one restored from `bytes`,
    /// re-wiring observability. Stored chunks, the recipe, and the destage
    /// log are untouched — only the dedup lookup structure is swapped, so
    /// subsequent reads validate that the restored index still resolves
    /// every prior chunk. The decompressed-chunk cache is dropped: cached
    /// bytes were produced under the old index's view of the store, and a
    /// restore is exactly the moment that view may have changed, so
    /// post-restore reads must re-charge the device and re-verify frames.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`](dr_binindex::SnapshotError) when the
    /// snapshot is corrupt; the current index is left in place.
    pub fn restore_index(&mut self, bytes: &[u8]) -> Result<(), dr_binindex::SnapshotError> {
        let mut index = dr_binindex::restore(bytes)?;
        index.set_obs(&self.config.obs);
        self.index = index;
        self.read_cache.clear();
        self.obs.read_cache_entries.set(0);
        Ok(())
    }

    /// The acknowledgement point of the most recent journaled operation:
    /// the grant end of the journal sync that made its records durable
    /// ([`Journal::ack_end`]). For an unjournaled pipeline this falls back
    /// to [`Report::reduction_end`] — the pre-journal ack semantics, where
    /// a write was "done" when reduction finished.
    pub fn last_ack(&self) -> SimTime {
        match &self.journal {
            Some(journal) => journal.ack_end(),
            None => self.report.reduction_end,
        }
    }

    /// Replaces the SSD transient-fault schedule mid-run (checker
    /// tooling). Takes effect for the next device command.
    pub fn set_ssd_faults(&mut self, faults: dr_ssd_sim::SsdFaultSpec) {
        self.config.ssd_spec.faults = faults.clone();
        self.ssd.set_faults(faults);
    }

    /// Replaces the GPU fault schedule mid-run (checker tooling). Takes
    /// effect for the next kernel launch; a device already lost stays
    /// lost.
    pub fn set_gpu_faults(&mut self, faults: dr_gpu_sim::GpuFaultSpec) {
        self.config.gpu_spec.faults = faults.clone();
        self.gpu.set_faults(faults);
    }

    /// NAND-side statistics of the backing SSD (write amplification,
    /// erases, migrations) — the endurance numbers.
    pub fn ssd_ftl_stats(&self) -> dr_ssd_sim::FtlStats {
        self.ssd.ftl_stats()
    }

    /// Number of chunks ingested so far (the recipe length).
    pub fn ingested_chunks(&self) -> usize {
        self.recipe.len()
    }

    /// Runs a byte stream through the pipeline (chunked at
    /// [`PipelineConfig::chunk_bytes`]) and returns the final report.
    ///
    /// The stream is never copied: every stage reads its chunks straight
    /// out of `stream`. With journaling on, the call's batch commits are
    /// acknowledged by one journal sync at its end ([`Pipeline::last_ack`]).
    pub fn run(&mut self, stream: &[u8]) -> Report {
        self.ingest(stream, None);
        self.commit();
        self.report.clone()
    }

    /// Runs `stream` through every stage, its batch commits staged in the
    /// journal but not acknowledged: the caller stages what else the
    /// operation journals, then calls [`Pipeline::commit`] once.
    ///
    /// A stream `hashed` upstream skips the hashing pass. Its simulated
    /// chunk+hash cost is charged all the same: the array being modeled
    /// hashes what it ingests, wherever this host did.
    ///
    /// # Panics
    ///
    /// Panics when `hashed` was cut at another chunk size than
    /// [`PipelineConfig::chunk_bytes`].
    pub(crate) fn ingest(&mut self, stream: &[u8], hashed: Option<&HashedChunks>) {
        if let Some(write) = hashed {
            assert_eq!(
                write.chunk_bytes(),
                self.config.chunk_bytes,
                "pre-hashed write cut at a foreign chunk size"
            );
            debug_assert!(write.verify(), "pre-hashed write carries a stale digest");
        }
        self.drive(stream, hashed.map(HashedChunks::digests));
    }

    /// The double-buffered batch loop. `stream` is cut into batches of
    /// `batch_chunks` chunks, each a view of the caller's bytes with its
    /// share of `digests` when the caller brought them. While batch N runs
    /// its downstream stages (dedup, compression, destage) on the calling
    /// thread, batch N+1 is fingerprinted by a pool job that borrows its
    /// bytes through [`WorkerPool::join`], which does not return (or
    /// unwind) before the job has finished. A job is started only to
    /// overlap with a batch in flight: the first batch of a call — for a
    /// small write the only one — has nothing to hide behind, so handing
    /// it to another thread and sleeping until it comes back would buy
    /// two wake-ups and no overlap; it is fingerprinted right here.
    /// A batch that arrives with its digests has nothing to compute and
    /// is never worth a job either. Simulated-time accounting stays serial
    /// and in input order inside [`Pipeline::process_batch`], so where —
    /// or whether — this host hashed a batch changes wall-clock behavior
    /// only: simulated results are bit-identical.
    fn drive(&mut self, stream: &[u8], digests: Option<&[ChunkDigest]>) {
        let (chunk_bytes, batch_chunks) = (self.config.chunk_bytes, self.config.batch_chunks);
        let dedup_enabled = self.config.dedup_enabled;
        // Chunks sit at fixed offsets, so the cut is arithmetic on `stream`.
        let span = self.obs.chunking.span();
        let batches = stream.chunks(chunk_bytes * batch_chunks);
        span.finish();
        let mut in_flight: Option<HashedBatch> = None;
        for (b, data) in batches.enumerate() {
            let payload = BatchPayload { data, chunk_bytes };
            let supplied = digests.map(|d| &d[b * batch_chunks..][..payload.len()]);
            in_flight = Some(match in_flight {
                Some((prev, digests)) if supplied.is_none() => {
                    let (pool, hashing) = (self.pool.clone(), self.obs.hashing.clone());
                    let (next, ()) = pool.join(
                        || fingerprint(&pool, dedup_enabled, &hashing, payload, None),
                        || self.process_batch(prev, &digests),
                    );
                    next
                }
                waiting => {
                    if let Some((prev, digests)) = waiting {
                        self.process_batch(prev, &digests);
                    }
                    let hashing = &self.obs.hashing;
                    fingerprint(&self.pool, dedup_enabled, hashing, payload, supplied)
                }
            });
        }
        if let Some((payload, digests)) = in_flight {
            self.process_batch(payload, &digests);
        }
    }

    /// Acknowledges and closes out an operation: one journal sync for
    /// every record it staged ([`Pipeline::last_ack`]), then the destage
    /// log's partial-page flush and the report's end-of-run figures.
    pub(crate) fn commit(&mut self) {
        self.journal_sync();
        // A refused flush leaves the tail buffered for the next one.
        let _ = self.flush();
        // End-of-run gauge sweep: per-bin occupancy (recorded once).
        self.index.record_bin_occupancy();
        self.report.index_stats = self.index.stats();
        self.report.ssd_writes = self.ssd.stats().writes;
        self.report.ssd_bytes_written = self.ssd.stats().bytes_written;
        self.report.write_amplification = self.ssd.ftl_stats().write_amplification();
        self.report.gpu_kernels = self.gpu.stats().kernels;
        self.report.gpu_busy = self.gpu.stats().kernel_busy;
        self.report.cpu_busy = self.cpu.total_busy_time();
        self.sync_fault_counters();
    }

    /// Folds the device and latch fault tallies into the report — called
    /// when a run closes out and after every read batch, failed ones
    /// included, so read-time retries and latch transitions are visible
    /// without another write.
    pub(crate) fn sync_fault_counters(&mut self) {
        self.report.faults_injected =
            self.ssd.stats().faults_injected + self.gpu.stats().faults_injected;
        let (gpu, ssd) = (&self.fault, &self.destage.ssd_write);
        let guarded = [&gpu.gpu_dedup, &gpu.gpu_compress, ssd];
        self.report.fault_retries = guarded.iter().map(|g| g.retries()).sum();
        self.report.degraded_transitions = guarded.iter().map(|g| g.latch().transitions()).sum();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small, dedup-able, compressible stream: 128 blocks drawn from 32
    /// distinct compressible patterns.
    pub(crate) fn stream() -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..128u32 {
            let tag = (i % 32) as u8;
            let mut block = vec![tag; 4096];
            // Make half of each block incompressible-ish but deterministic.
            let mut state = (i % 32) as u64 + 1;
            for b in block[..2048].iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 33) as u8;
            }
            out.extend_from_slice(&block);
        }
        out
    }

    pub(crate) fn small_config(mode: IntegrationMode) -> PipelineConfig {
        PipelineConfig {
            mode,
            verify: true,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn cpu_only_reduces_and_round_trips() {
        let mut p = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        let report = p.run(&stream());
        assert_eq!(report.chunks, 128);
        assert_eq!(report.dedup_hits, 96); // 32 unique of 128
        assert_eq!(report.unique_chunks, 32);
        assert!(
            report.reduction_ratio() > 4.0,
            "ratio {}",
            report.reduction_ratio()
        );
        assert!(report.iops() > 0.0);
    }

    #[test]
    fn every_mode_produces_identical_functional_results() {
        let data = stream();
        let mut baseline = None;
        for mode in IntegrationMode::ALL {
            let mut p = Pipeline::new(small_config(mode));
            let report = p.run(&data);
            let key = (report.chunks, report.unique_chunks, report.dedup_hits);
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(*b, key, "mode {mode} diverged"),
            }
        }
    }

    #[test]
    fn gpu_compression_mode_beats_cpu_only_throughput() {
        let data = stream();
        let mut cpu = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        let cpu_iops = cpu.run(&data).iops();
        let mut gpu = Pipeline::new(small_config(IntegrationMode::GpuForCompression));
        let gpu_iops = gpu.run(&data).iops();
        assert!(
            gpu_iops > cpu_iops * 1.2,
            "gpu {gpu_iops} vs cpu {cpu_iops}"
        );
    }

    #[test]
    fn dedup_only_mode_skips_compression() {
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.compress_enabled = false;
        let mut p = Pipeline::new(cfg);
        let report = p.run(&stream());
        // Raw frames: stored bytes ≈ unique bytes + headers.
        assert!(report.stored_bytes >= 32 * 4096);
        assert!(report.compression_ratio() < 1.1);
        assert!(report.dedup_ratio() > 3.9);
    }

    #[test]
    fn compression_only_mode_skips_dedup() {
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.dedup_enabled = false;
        let mut p = Pipeline::new(cfg);
        let report = p.run(&stream());
        assert_eq!(report.dedup_hits, 0);
        assert_eq!(report.unique_chunks, 128);
        assert!(report.compression_ratio() > 1.2);
    }

    #[test]
    fn recipe_reconstructs_the_whole_stream() {
        let data = stream();
        for mode in IntegrationMode::ALL {
            let mut p = Pipeline::new(small_config(mode));
            p.run(&data);
            assert_eq!(p.ingested_chunks(), 128);
            for (i, original) in data.chunks(4096).enumerate() {
                let back = p.read_block(i).expect("read_block");
                assert_eq!(back, original, "block {i} in mode {mode}");
            }
        }
    }

    #[test]
    fn integrity_mode_round_trips_and_costs_four_bytes_per_chunk() {
        let data = stream();
        let mut plain = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        let rp = plain.run(&data);
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.integrity = true;
        let mut checked = Pipeline::new(cfg);
        let rc = checked.run(&data);
        assert_eq!(rc.stored_bytes, rp.stored_bytes + 4 * rp.unique_chunks);
        for i in (0..128).step_by(17) {
            assert_eq!(
                checked.read_block(i).expect("checked read"),
                &data[i * 4096..(i + 1) * 4096]
            );
        }
        // On the device the envelope is the frame, then its CRC-32C.
        let mut fetched = crate::destage::FetchedFrames::default();
        let (r, now) = (checked.recipe[0], checked.report.read_end);
        let (destage, ssd) = (&mut checked.destage, &mut checked.ssd);
        destage.read_frames(now, ssd, &[r], &mut fetched).unwrap();
        let stored = &fetched.bytes[fetched.frames[0].bytes.clone()];
        let (frame, crc) = stored.split_at(stored.len() - 4);
        assert_eq!(crc, dr_hashes::crc32c(frame).to_le_bytes());
        assert_eq!(dr_compress::frame::open(frame).unwrap(), &data[..4096]);
    }

    #[test]
    fn integrity_mode_detects_injected_device_corruption() {
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.integrity = true;
        cfg.verify = false;
        cfg.ssd_spec.read_fault_rate = 1.0; // every read corrupts one bit
        let mut p = Pipeline::new(cfg);
        let data = stream();
        p.run(&data);
        // Every page read flips one bit somewhere in the page; over many
        // blocks some flips land inside frames and must be caught.
        let mut detected = 0;
        for i in 0..128 {
            if let Err(e) = p.read_block(i) {
                assert!(
                    matches!(
                        e,
                        ReadError::Integrity(dr_hashes::SealError::Mismatch { .. })
                    ),
                    "unexpected error: {e}"
                );
                detected += 1;
            }
        }
        assert!(detected > 0, "no corruption was ever detected");
    }

    #[test]
    fn incremental_runs_accumulate() {
        let mut p = Pipeline::new(small_config(IntegrationMode::CpuOnly));
        let data = stream();
        let r1 = p.run(&data);
        let r2 = p.run(&data); // everything is now a duplicate
        assert_eq!(r2.chunks, 256);
        assert_eq!(r2.unique_chunks, r1.unique_chunks);
        assert_eq!(r2.dedup_hits, r1.dedup_hits + 128);
    }

    #[test]
    fn gpu_dedup_mode_uses_the_gpu_index() {
        let mut cfg = small_config(IntegrationMode::GpuForDedup);
        cfg.compress_enabled = false;
        // Flush-on-insert and few bins: every insert lands on the GPU.
        cfg.index.bin_buffer_capacity = 1;
        cfg.index.prefix_bytes = 1;
        let mut p = Pipeline::new(cfg);
        let data = stream();
        p.run(&data);
        let report = p.run(&data);
        assert!(report.gpu_index_queries > 0);
        assert!(report.gpu_index_hits > 0, "GPU index never hit: {report:?}");
    }

    #[test]
    fn a_gpu_index_that_does_not_fit_leaves_every_probe_on_the_cpu() {
        let obs = ObsHandle::enabled("small-gpu");
        let mut cfg = small_config(IntegrationMode::GpuForBoth);
        // The default mirror needs 10 MiB; batches still fit for the codec.
        cfg.gpu_spec.global_mem_bytes = 4 << 20;
        cfg.obs = obs.clone();
        let mut p = Pipeline::new(cfg);
        let data = stream();
        let report = p.run(&data);
        assert_eq!(report.gpu_index_queries, 0);
        assert!(
            report.gpu_comp_batches > 0,
            "compression still uses the GPU"
        );
        assert_eq!(obs.counter("fault.gpu_index.out_of_memory").get(), 1);
        assert_eq!(obs.counter("router.to_gpu").get(), 0);
        assert_eq!(obs.counter("router.to_cpu").get(), 128);
        for (i, original) in data.chunks(4096).enumerate() {
            assert_eq!(p.read_block(i).expect("read_block"), original, "block {i}");
        }
        let all: Vec<usize> = (0..128).collect();
        assert_eq!(p.read_blocks(&all).expect("read_blocks").concat(), data);
    }

    #[test]
    fn integration_mode_from_str_round_trips() {
        for mode in IntegrationMode::ALL {
            let parsed: IntegrationMode = mode.to_string().parse().expect("Display name parses");
            assert_eq!(parsed, mode);
        }
        assert_eq!(
            "cpu-only".parse::<IntegrationMode>(),
            Ok(IntegrationMode::CpuOnly)
        );
        assert_eq!(
            "gpu-dedup".parse::<IntegrationMode>(),
            Ok(IntegrationMode::GpuForDedup)
        );
        assert_eq!(
            "gpu-compression".parse::<IntegrationMode>(),
            Ok(IntegrationMode::GpuForCompression)
        );
        assert_eq!(
            "gpu-both".parse::<IntegrationMode>(),
            Ok(IntegrationMode::GpuForBoth)
        );
        assert!("GPU-BOTH".parse::<IntegrationMode>().is_err());
        assert!("".parse::<IntegrationMode>().is_err());
    }

    #[test]
    fn observability_snapshot_covers_every_stage() {
        let obs = ObsHandle::enabled("pipeline-obs-test");
        let mut cfg = small_config(IntegrationMode::GpuForBoth);
        cfg.obs = obs.clone();
        let mut p = Pipeline::new(cfg);
        p.run(&stream());
        let snap = obs.snapshot().expect("enabled handle snapshots");
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
                .1
        };
        for name in [
            "chunking.wall_ns",
            "chunking.sim_ns",
            "hashing.wall_ns",
            "hashing.sim_ns",
            "index.probe_wall_ns",
            "index.probe_sim_ns",
            "gpu.kernel_latency_ns",
            "compress.wall_ns",
            "compress.sim_ns",
            "destage.sim_ns",
            "ssd.write_sim_ns",
        ] {
            assert!(hist(name).count > 0, "{name} recorded no samples");
        }
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("router.to_gpu"), 128);
        assert_eq!(counter("pipeline.batches"), 1);
        assert!(counter("gpu.kernel_launches") > 0);
        assert!(counter("destage.data_pages") > 0);
        assert!(counter("index.inserts") > 0);
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert!(gauge("compress.in_bytes") > gauge("compress.out_bytes"));
        assert!(gauge("compress.out_bytes") > 0);
    }

    #[test]
    fn multibuffer_counter_counts_the_chunks_hashed_in_full_groups() {
        // What takes the wide arm is a property of the batch and the host:
        // whole groups of sixteen equal whole-block chunks, where
        // `dr_hashes::simd` finds AVX-512 (nowhere under DR_SIMD=scalar).
        let wide_host = dr_hashes::simd::sha1_mb_avx512();
        for (chunks, wide) in [(128usize, 128u64), (15, 0), (40, 32)] {
            let obs = ObsHandle::enabled("multibuffer-test");
            let mut cfg = small_config(IntegrationMode::CpuOnly);
            cfg.obs = obs.clone();
            let mut p = Pipeline::new(cfg);
            let report = p.run(&stream()[..chunks * 4096]);
            assert_eq!(report.chunks, chunks as u64);
            let snap = obs.snapshot().expect("enabled handle snapshots");
            let counted = snap
                .counters
                .iter()
                .find(|(n, _)| n == "hashing.multibuffer_chunks")
                .expect("counter interned at construction")
                .1;
            assert_eq!(counted, if wide_host { wide } else { 0 }, "{chunks} chunks");
        }
    }

    #[test]
    fn cpu_only_mode_routes_every_probe_to_the_cpu() {
        let obs = ObsHandle::enabled("routing-test");
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.obs = obs.clone();
        let mut p = Pipeline::new(cfg);
        p.run(&stream());
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("router.to_cpu"), 128);
        assert_eq!(counter("router.to_gpu"), 0);
    }

    #[test]
    fn enabling_observability_does_not_change_simulated_results() {
        let data = stream();
        let mut plain = Pipeline::new(small_config(IntegrationMode::GpuForCompression));
        let rp = plain.run(&data);
        let mut cfg = small_config(IntegrationMode::GpuForCompression);
        cfg.obs = ObsHandle::enabled("neutrality-test");
        let mut observed = Pipeline::new(cfg);
        let ro = observed.run(&data);
        // Instrumentation charges no simulated cost: identical timeline.
        assert_eq!(rp.chunks, ro.chunks);
        assert_eq!(rp.unique_chunks, ro.unique_chunks);
        assert_eq!(rp.dedup_hits, ro.dedup_hits);
        assert_eq!(rp.stored_bytes, ro.stored_bytes);
        assert_eq!(rp.reduction_end, ro.reduction_end);
        assert_eq!(rp.ssd_end, ro.ssd_end);
    }

    #[test]
    fn many_small_batches_preserve_order_and_bound_the_arena() {
        // The stress shape for the arena and the double-buffered loop:
        // dozens of tiny batches through one pipeline. Every block must
        // come back in order and the buffer pool must stay bounded.
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.batch_chunks = 4;
        let mut p = Pipeline::new(cfg);
        let data = stream(); // 128 blocks -> 32 batches of 4
        p.run(&data);
        assert_eq!(p.ingested_chunks(), 128);
        for (i, original) in data.chunks(4096).enumerate() {
            assert_eq!(p.read_block(i).expect("read_block"), original, "block {i}");
        }
        assert!(
            p.pooled_frame_buffers() <= 4,
            "arena grew past the batch size: {}",
            p.pooled_frame_buffers()
        );
    }

    /// Everything a run shows on the simulated side — the full report
    /// after reading the whole stream back — plus the bytes read back.
    fn simulated_outcome(p: &mut Pipeline) -> (Report, Vec<Vec<u8>>) {
        let all: Vec<usize> = (0..p.ingested_chunks()).collect();
        let blocks = p.read_blocks(&all).expect("read-back");
        (p.report().clone(), blocks)
    }

    #[test]
    fn pool_width_does_not_change_simulated_results() {
        // Host pool width is a wall-clock knob only; the simulated array
        // (CpuModel::workers) is what the timeline models. That covers the
        // GPU kernel emulation too: it fans out over the same pool, but
        // its costs are tallied in chunk order afterwards. It also covers
        // where a batch is fingerprinted: a 4-batch `run` hashes its first
        // batch on the submitter and the other three in pool jobs (which
        // a 1-wide pipeline runs inline and a wider one on a worker), a
        // one-batch `run` hashes on the submitter only. Slicings are not
        // compared with one another: every `run` call ends in a flush.
        let data = stream();
        let chunk = 4096;
        let one_run = vec![data.len()];
        let one_batch_slices = vec![32 * chunk; 4];
        let small_slices: Vec<usize> = [1usize, 8, 3, 5, 2, 7, 4, 6]
            .iter()
            .cycle()
            .scan(0, |fed, &chunks| {
                let len = (chunks * chunk).min(data.len() - *fed);
                *fed += len;
                (len > 0).then_some(len)
            })
            .collect();
        for mode in IntegrationMode::ALL {
            for slicing in [&one_run, &one_batch_slices, &small_slices] {
                let mut baseline = None;
                for pool_workers in [1usize, 2, 4] {
                    let mut cfg = small_config(mode);
                    cfg.pool_workers = pool_workers;
                    cfg.batch_chunks = 32;
                    let mut p = Pipeline::new(cfg);
                    let mut rest = data.as_slice();
                    for &len in slicing {
                        let (slice, tail) = rest.split_at(len);
                        p.run(slice);
                        rest = tail;
                    }
                    assert!(rest.is_empty());
                    let outcome = simulated_outcome(&mut p);
                    assert_eq!(outcome.1.concat(), data, "{mode}");
                    let calls = slicing.len();
                    match &baseline {
                        None => baseline = Some(outcome),
                        Some(b) => assert_eq!(
                            *b, outcome,
                            "{mode}, {calls} run calls, pool_workers={pool_workers}"
                        ),
                    }
                }
            }
            // 128 KiB array writes, where both fan-outs are at work: the
            // stream as it is (32 unique chunks in the first write, none
            // after), then overwritten with every fourth block changed (8
            // unique chunks a write).
            let varied: Vec<u8> = data
                .chunks(chunk)
                .enumerate()
                .flat_map(|(i, block)| {
                    let mut block = block.to_vec();
                    if i % 4 == 0 {
                        block[0] ^= 0xA5;
                        block[1] = i as u8;
                    }
                    block
                })
                .collect();
            let mut baseline = None;
            for pool_workers in [1usize, 2, 4] {
                let mut cfg = small_config(mode);
                cfg.pool_workers = pool_workers;
                let mut array = crate::VolumeManager::new(cfg);
                array.create_volume("v", 128).unwrap();
                for pass in [&data, &varied] {
                    for (i, write) in pass.chunks(32 * chunk).enumerate() {
                        array.write("v", (i * 32) as u64, write).unwrap();
                    }
                }
                let all: Vec<u64> = (0..128).collect();
                let blocks = array.read_batch("v", &all).expect("read-back");
                assert_eq!(blocks.concat(), varied, "{mode}");
                let outcome = (array.report().clone(), blocks);
                match &baseline {
                    None => baseline = Some(outcome),
                    Some(b) => assert_eq!(
                        *b, outcome,
                        "{mode}, array writes, pool_workers={pool_workers}"
                    ),
                }
            }
        }
    }

    #[test]
    fn pool_metrics_are_recorded_when_enabled() {
        let obs = ObsHandle::enabled("pool-obs-test");
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.pool_workers = 3;
        cfg.batch_chunks = 32; // 4 batches: the later ones hash in pool jobs
        cfg.obs = obs.clone();
        let mut p = Pipeline::new(cfg);
        p.run(&stream());
        assert!(
            obs.counter("pool.jobs").get() > 0,
            "no prefetch jobs recorded"
        );
        assert!(
            obs.counter("pool.batches").get() > 0,
            "no pool batches recorded"
        );
        assert!(
            obs.counter("pool.tasks").get() > 0,
            "no pool tasks recorded"
        );
    }

    #[test]
    fn a_run_of_k_batches_spawns_k_minus_one_hash_jobs() {
        // A job is started only to overlap with a batch in flight, so the
        // first batch of every `run` call is hashed on the submitter.
        let data = stream(); // 128 chunks
        for (batch_chunks, batches) in [(128usize, 1u64), (64, 2), (48, 3), (4, 32)] {
            let obs = ObsHandle::enabled("hash-jobs-test");
            let mut cfg = small_config(IntegrationMode::CpuOnly);
            cfg.pool_workers = 3;
            cfg.batch_chunks = batch_chunks;
            cfg.obs = obs.clone();
            let mut p = Pipeline::new(cfg);
            p.run(&data);
            assert_eq!(obs.counter("pipeline.batches").get(), batches);
            assert_eq!(
                obs.counter("pool.jobs").get(),
                batches - 1,
                "{batches} batches"
            );
            // A second call starts over: its first batch is inline again.
            p.run(&data);
            assert_eq!(obs.counter("pool.jobs").get(), 2 * (batches - 1));
        }
    }

    #[test]
    fn a_call_of_up_to_three_chunks_stays_on_the_submitter() {
        // Three chunks are under two grains of every stage (32 hashes, 4
        // CPU compressions, 4 kernel-emulation chunks, 2 048 probes), so
        // no pool thread is ever handed anything — whatever the gaps
        // between the calls. The stream's first 32 blocks are all unique,
        // so the first calls compress three chunks each.
        use dr_obs::trace::{Tracer, Track};
        let data = stream();
        for mode in IntegrationMode::ALL {
            let tracer = Tracer::enabled();
            let mut cfg = small_config(mode);
            cfg.pool_workers = 4;
            cfg.obs = ObsHandle::enabled("small-write-test").with_tracer(tracer.clone());
            let obs = cfg.obs.clone();
            let mut p = Pipeline::new(cfg);
            for call in data.chunks(3 * 4096) {
                p.run(call);
            }
            assert_eq!(obs.counter("pool.fan_outs").get(), 0, "{mode}");
            let events = tracer.sink().expect("enabled tracer").drain();
            assert!(events.iter().any(|e| e.track == Track::Driver));
            let on_workers: Vec<_> = events
                .iter()
                .filter(|e| matches!(e.track, Track::Worker(_)))
                .collect();
            assert!(on_workers.is_empty(), "{mode}: {on_workers:?}");
        }
    }

    #[test]
    fn a_128_kib_write_fans_hashing_and_compression_out() {
        // 32 chunks are two multi-buffer groups, and eight of them are new
        // each write: both stages are at two grains or more, so every
        // write publishes both to the pool. Whether the one worker thread
        // gets to an item before the submitter has drained the batch is up
        // to the scheduler, so the writes go on until it has helped each
        // stage at least once.
        use dr_obs::trace::{TraceEvent, Tracer, Track};
        const WRITES: u64 = 200;
        let block = |seed: u64| -> Vec<u8> {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..4096)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect()
        };
        let common = block(0);
        for mode in [IntegrationMode::CpuOnly, IntegrationMode::GpuForCompression] {
            let tracer = Tracer::enabled();
            let mut cfg = small_config(mode);
            cfg.pool_workers = 2;
            cfg.obs = ObsHandle::enabled("fan-out-test").with_tracer(tracer.clone());
            let obs = cfg.obs.clone();
            let mut array = crate::VolumeManager::new(cfg);
            array.create_volume("v", 32).unwrap();
            let mut helped = (false, false);
            let mut writes = 0;
            while writes < WRITES && helped != (true, true) {
                // Every fourth chunk is new; the rest repeat one block.
                let data: Vec<u8> = (0..32u64)
                    .flat_map(|i| match i % 4 {
                        0 => block(writes * 32 + i + 1),
                        _ => common.clone(),
                    })
                    .collect();
                array.write("v", 0, &data).unwrap();
                writes += 1;
                // Each write's two pool batches: the hash stage's (two
                // groups), then the compression stage's (8 or 9 chunks).
                let events = tracer.sink().expect("enabled tracer").drain();
                let items = |e: &TraceEvent| {
                    e.args
                        .iter()
                        .flatten()
                        .find_map(|&(key, n)| (key == "items").then_some(n))
                };
                for batch in events
                    .iter()
                    .filter(|e| e.track == Track::Driver && e.name == "batch")
                {
                    let (start, end) = (batch.ts_ns, batch.ts_ns + batch.dur_ns.unwrap());
                    let worker_joined = events.iter().any(|e| {
                        matches!(e.track, Track::Worker(_))
                            && e.name == "batch-help"
                            && (start..end).contains(&e.ts_ns)
                    });
                    match items(batch) {
                        Some(2) => helped.0 |= worker_joined,
                        _ => helped.1 |= worker_joined,
                    }
                }
            }
            assert_eq!(
                obs.counter("pool.fan_outs").get(),
                2 * writes,
                "{mode}: every write fans out twice"
            );
            assert_eq!(
                helped,
                (true, true),
                "{mode}: (hash, compress) after {writes} writes"
            );
            assert_eq!(array.read("v", 0).unwrap(), block(writes * 32 - 31));
        }
    }

    #[test]
    #[should_panic(expected = "pool worker count")]
    fn zero_pool_workers_rejected() {
        Pipeline::new(PipelineConfig {
            pool_workers: 0,
            ..PipelineConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_rejected() {
        Pipeline::new(PipelineConfig {
            chunk_bytes: 0,
            ..PipelineConfig::default()
        });
    }
}
