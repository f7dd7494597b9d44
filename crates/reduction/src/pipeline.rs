//! The integrated pipeline and its CPU/GPU scheduler.

use dr_binindex::{
    BinHit, BinIndex, BinIndexConfig, ChunkRef, GpuBinIndex, GpuBinIndexConfig, GpuProbe,
    ProbeKind, RoutingObs,
};
use dr_chunking::{Chunker, FixedChunker};
use dr_compress::{
    frame, Codec, FastLz, GpuCompressor, GpuCompressorConfig, GpuDecompressor,
    GpuDecompressorConfig,
};
use dr_des::{Grant, Resource, SimTime};
use dr_gpu_sim::{GpuDevice, GpuSpec};
use dr_hashes::{hash_chunks_pooled, ChunkDigest};
use dr_obs::trace::{trace_args, Tracer, Track};
use dr_obs::{CounterHandle, GaugeHandle, HistogramHandle, ObsHandle, StageObs};
use dr_pool::{JobHandle, WorkerPool};
use dr_ssd_sim::{CrashReport, CrashSpec, SsdDevice, SsdSpec};
use std::sync::Arc;
use std::time::Instant;

use crate::cpu_model::CpuModel;
use crate::degrade::{ComponentLatch, DegradePolicy};
use crate::destage::Destager;
use crate::error::ReadError;
use crate::journal::{
    BatchCommit, Checkpoint, ChunkCommit, Frontier, Journal, JournalError, Record,
};
use crate::read::{ReadCache, ReadConfig};
use crate::report::Report;

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
    /// GPU decompression kernel configuration (read path).
    pub gpu_decompressor: GpuDecompressorConfig,
    /// Read-path configuration: decompressed-chunk cache capacity and the
    /// CPU/GPU routing threshold for cold batches.
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
            gpu_decompressor: GpuDecompressorConfig::default(),
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

/// The pipeline's own interned stage metrics; inert when observability is
/// disabled. Device- and index-level metrics live with their owners (the
/// pipeline only distributes the handle to them).
#[derive(Debug, Clone, Default)]
struct PipelineObs {
    batches: CounterHandle,
    /// `chunking.wall_ns` / `chunking.sim_ns`.
    chunking: StageObs,
    /// `hashing.wall_ns` / `hashing.sim_ns`.
    hashing: StageObs,
    /// `index.probe_wall_ns` / `index.probe_sim_ns` — the dedup lookup
    /// stage as the pipeline sees it (the index's own `index.*` counters
    /// break the probes down by where they resolved).
    index_probe: StageObs,
    /// `compress.wall_ns` / `compress.sim_ns`.
    compress: StageObs,
    /// Cumulative compressor input/output levels (gauges, so a report can
    /// also subtract to show a window).
    compress_in_bytes: GaugeHandle,
    compress_out_bytes: GaugeHandle,
    /// The CPU-vs-GPU probe routing decision counters (`router.*`).
    routing: RoutingObs,
    /// `fault.<component>.retries` / `fault.<component>.degraded_transitions`
    /// for the three components the degradation policy watches.
    gpu_dedup_retries: CounterHandle,
    gpu_dedup_degraded: CounterHandle,
    gpu_compress_retries: CounterHandle,
    gpu_compress_degraded: CounterHandle,
    gpu_decompress_retries: CounterHandle,
    gpu_decompress_degraded: CounterHandle,
    ssd_write_degraded: CounterHandle,
    /// Retries refused by the backoff's sim-time budget rather than its
    /// count limit (`fault.retry_budget_exhausted`, shared with the
    /// destager's write/read paths).
    retry_budget_exhausted: CounterHandle,
    /// Read-path metrics (`read.*`): batch/hit/miss counters, cache
    /// occupancy gauge, per-request simulated latency histogram.
    read_batches: CounterHandle,
    read_cache_hits: CounterHandle,
    read_cache_misses: CounterHandle,
    read_cache_evictions: CounterHandle,
    read_cache_entries: GaugeHandle,
    read_gpu_batches: CounterHandle,
    read_latency: HistogramHandle,
    /// Event tracer (disabled unless the handle carries one): per-batch
    /// sim-time spans on the pipeline stage tracks, fault instants.
    tracer: Tracer,
}

impl PipelineObs {
    fn new(obs: &ObsHandle) -> Self {
        PipelineObs {
            batches: obs.counter("pipeline.batches"),
            chunking: obs.stage("chunking"),
            hashing: obs.stage("hashing"),
            index_probe: StageObs {
                wall: obs.histogram("index.probe_wall_ns"),
                sim: obs.histogram("index.probe_sim_ns"),
            },
            compress: obs.stage("compress"),
            compress_in_bytes: obs.gauge("compress.in_bytes"),
            compress_out_bytes: obs.gauge("compress.out_bytes"),
            routing: RoutingObs::new(obs),
            gpu_dedup_retries: obs.counter("fault.gpu_dedup.retries"),
            gpu_dedup_degraded: obs.counter("fault.gpu_dedup.degraded_transitions"),
            gpu_compress_retries: obs.counter("fault.gpu_compress.retries"),
            gpu_compress_degraded: obs.counter("fault.gpu_compress.degraded_transitions"),
            gpu_decompress_retries: obs.counter("fault.gpu_decompress.retries"),
            gpu_decompress_degraded: obs.counter("fault.gpu_decompress.degraded_transitions"),
            ssd_write_degraded: obs.counter("fault.ssd_write.degraded_transitions"),
            retry_budget_exhausted: obs.counter("fault.retry_budget_exhausted"),
            read_batches: obs.counter("read.batches"),
            read_cache_hits: obs.counter("read.cache_hits"),
            read_cache_misses: obs.counter("read.cache_misses"),
            read_cache_evictions: obs.counter("read.cache_evictions"),
            read_cache_entries: obs.gauge("read.cache_entries"),
            read_gpu_batches: obs.counter("read.gpu_batches"),
            read_latency: obs.histogram("read.latency_sim_ns"),
            tracer: obs.tracer().clone(),
        }
    }
}

/// Widens an accumulated `[start, end)` window to cover another interval.
fn widen(win: &mut Option<(u64, u64)>, start: u64, end: u64) {
    *win = Some(match *win {
        None => (start, end),
        Some((s, e)) => (s.min(start), e.max(end)),
    });
}

/// Per-component degradation latches plus the pipeline-level retry tally
/// (destage-level SSD retries are counted by the [`Destager`] itself).
#[derive(Debug)]
struct FaultState {
    gpu_dedup: ComponentLatch,
    gpu_compress: ComponentLatch,
    gpu_decompress: ComponentLatch,
    ssd_write: ComponentLatch,
    retries: u64,
}

impl FaultState {
    fn new(policy: DegradePolicy) -> Self {
        FaultState {
            gpu_dedup: ComponentLatch::new(policy),
            gpu_compress: ComponentLatch::new(policy),
            gpu_decompress: ComponentLatch::new(policy),
            ssd_write: ComponentLatch::new(policy),
            retries: 0,
        }
    }

    fn transitions(&self) -> u64 {
        self.gpu_dedup.transitions()
            + self.gpu_compress.transitions()
            + self.gpu_decompress.transitions()
            + self.ssd_write.transitions()
    }
}

/// How deduplication resolved one chunk (internal).
enum DedupOutcome {
    /// No duplicate found anywhere: the chunk is unique.
    Unique,
    /// Duplicate of an already-stored chunk (location kept for debugging
    /// and future read-path wiring).
    Duplicate(#[allow(dead_code)] ChunkRef),
    /// Duplicate of an earlier chunk in the *same* batch, which has not
    /// been destaged yet (index lookups by digest resolve it once the
    /// first instance lands).
    IntraBatchDuplicate,
}

/// One chunk moving through the pipeline (internal). Payload bytes are
/// *not* carried here: they live in the batch's [`BatchPayload`] and are
/// accessed by index, so a chunk never owns a copy of its data.
struct InFlight {
    digest: ChunkDigest,
    /// When the chunk's last completed stage finished.
    ready_at: SimTime,
    /// Dedup resolution.
    outcome: DedupOutcome,
}

/// Chunk payloads for one batch.
///
/// [`Pipeline::run`] copies the ingest stream into a shared buffer *once*
/// and carries every chunk as a `(offset, len)` view into it — no
/// per-chunk allocation anywhere on the ingest→hash→compress path.
/// [`Pipeline::run_blocks`] callers hand over already-owned vectors, which
/// are kept as-is.
enum BatchPayload {
    /// Caller-owned blocks (pre-chunked ingest).
    Owned(Vec<Vec<u8>>),
    /// Views into one shared stream buffer.
    Shared {
        buf: Arc<[u8]>,
        /// `(offset, len)` of each chunk within `buf`.
        spans: Vec<(usize, usize)>,
    },
}

impl BatchPayload {
    fn len(&self) -> usize {
        match self {
            BatchPayload::Owned(blocks) => blocks.len(),
            BatchPayload::Shared { spans, .. } => spans.len(),
        }
    }

    fn view(&self, i: usize) -> &[u8] {
        match self {
            BatchPayload::Owned(blocks) => &blocks[i],
            BatchPayload::Shared { buf, spans } => {
                let (offset, len) = spans[i];
                &buf[offset..offset + len]
            }
        }
    }
}

/// A batch whose fingerprints have been (or are being) computed on the
/// worker pool, possibly overlapped with processing of the previous batch.
type HashedBatch = (BatchPayload, Vec<ChunkDigest>);

/// Recycled frame output buffers: compression writes into pooled vectors
/// that return to the arena after destage, so the steady-state batch loop
/// allocates nothing per chunk. Growth is bounded by the pool capacity
/// (one buffer per chunk of a batch).
#[derive(Debug, Default)]
struct FrameArena {
    free: Vec<Vec<u8>>,
    cap: usize,
}

impl FrameArena {
    fn new(cap: usize) -> Self {
        FrameArena {
            free: Vec::new(),
            cap,
        }
    }

    fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.cap {
            buf.clear();
            self.free.push(buf);
        }
    }

    fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// A volume-visible journal record surfaced by [`Pipeline::recover`], in
/// append order, so the volume layer can rebuild its block maps from the
/// same durable prefix the pipeline recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeRecord {
    /// A volume existed when its create record became durable.
    Create {
        /// Volume name.
        name: String,
        /// Volume capacity in blocks.
        blocks: u64,
    },
    /// An acknowledged host write: `nblocks` blocks at `start_block` map
    /// to recipe entries `first_recipe..first_recipe + nblocks`.
    Map {
        /// Volume name.
        name: String,
        /// First volume block written.
        start_block: u64,
        /// Number of blocks written.
        nblocks: u64,
        /// Recipe index of the first block's chunk.
        first_recipe: u64,
    },
}

/// What [`Pipeline::recover`] rebuilt from the journal.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// What the power cut did to in-flight device writes (zeroed when
    /// [`Pipeline::recover`] is called without a cut).
    pub crash: CrashReport,
    /// Journal records replayed (the durable prefix).
    pub records_replayed: u64,
    /// True when a torn/corrupt journal tail was discarded.
    pub torn_discarded: bool,
    /// Recipe entries (stored-chunk references) reconstructed.
    pub chunks_recovered: u64,
    /// Volume create/map records, in append order.
    pub volume_records: Vec<VolumeRecord>,
    /// Sim time when recovery finished (the journal region re-read).
    pub recovered_end: SimTime,
}

/// Crash-recovery failures.
#[derive(Debug)]
pub enum RecoverError {
    /// The journal's embedded index checkpoint did not restore.
    Checkpoint(dr_binindex::SnapshotError),
    /// A journal-region read failed past the retry schedule.
    Device(dr_ssd_sim::SsdError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Checkpoint(e) => write!(f, "journal checkpoint corrupt: {e}"),
            RecoverError::Device(e) => write!(f, "journal region unreadable: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// The integrated inline data reduction pipeline.
///
/// See the [crate docs](crate) for the workflow and an example.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    cpu: Resource,
    index: BinIndex,
    gpu: GpuDevice,
    gpu_index: Option<GpuBinIndex>,
    gpu_comp: GpuCompressor,
    gpu_decomp: GpuDecompressor,
    /// Capacity-bounded LRU of decompressed chunks (read path).
    read_cache: ReadCache,
    codec: FastLz,
    ssd: SsdDevice,
    destage: Destager,
    /// Write-ahead metadata journal; `None` when `journal_pages` is 0.
    journal: Option<Journal>,
    /// Persistent host execution pool: created once, reused by every
    /// batch for hashing and CPU compression, and for overlapping batch
    /// N+1's fingerprinting with batch N's downstream stages.
    pool: WorkerPool,
    /// Recycled compression output buffers.
    arena: FrameArena,
    /// Degradation latches (sticky degraded mode with timed re-probes).
    fault: FaultState,
    obs: PipelineObs,
    /// Monotonic batch id, stamped onto trace events.
    batch_seq: u64,
    report: Report,
    /// The stream recipe: one stored-chunk reference per ingested chunk,
    /// in write order. Duplicates point at the shared stored copy — this
    /// is the logical-block map a real array keeps.
    recipe: Vec<ChunkRef>,
}

impl Pipeline {
    /// Builds a pipeline.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent (zero chunk size,
    /// invalid cost model, or a GPU index that does not fit in device
    /// memory).
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
        let mut gpu = GpuDevice::new(config.gpu_spec.clone());
        gpu.set_obs(&config.obs);
        let gpu_index = if config.mode.gpu_dedup() && config.dedup_enabled {
            let mut cfg = config.gpu_index;
            cfg.prefix_bytes = config.index.prefix_bytes;
            Some(GpuBinIndex::new(&mut gpu, cfg).expect("GPU index must fit in device memory"))
        } else {
            None
        };
        let mut ssd = SsdDevice::new(config.ssd_spec.clone());
        ssd.set_obs(&config.obs);
        let mut destage = Destager::new(&ssd);
        destage.set_obs(&config.obs);
        destage.set_backoff(config.degrade.backoff());
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
        let mut gpu_decomp = GpuDecompressor::new(config.gpu_decompressor);
        gpu_decomp.set_obs(&config.obs);
        let report = Report::new(config.mode);
        Pipeline {
            cpu: Resource::new("cpu-workers", config.cpu.workers),
            index,
            gpu_comp,
            gpu_decomp,
            read_cache: ReadCache::new(config.read.cache_chunks),
            codec: FastLz::new(),
            gpu,
            gpu_index,
            ssd,
            destage,
            journal,
            pool,
            arena: FrameArena::new(config.batch_chunks),
            fault: FaultState::new(config.degrade),
            obs: PipelineObs::new(&config.obs),
            batch_seq: 0,
            report,
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

    /// True when this pipeline journals metadata
    /// ([`PipelineConfig::journal_pages`] > 0).
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// The acknowledgement point of the most recent journaled operation:
    /// the grant end of its journal record. For an unjournaled pipeline
    /// this falls back to [`Report::reduction_end`] — the pre-journal ack
    /// semantics, where a write was "done" when reduction finished.
    pub fn last_ack(&self) -> SimTime {
        match &self.journal {
            Some(journal) => journal.ack_end(),
            None => self.report.reduction_end,
        }
    }

    /// Appends a volume-level record to the journal (no-op when
    /// journaling is disabled) and returns its durability grant.
    pub(crate) fn journal_record(&mut self, record: Record) -> Option<Grant> {
        self.journal.as_mut()?;
        let at = self.report.reduction_end;
        let journal = self.journal.as_mut().expect("checked above");
        let g = journal
            .append(at, &mut self.ssd, &record)
            .unwrap_or_else(|e| panic!("journal {} append failed: {e}", record.kind_name()));
        self.report.ssd_end = self.report.ssd_end.max(g.end);
        Some(g)
    }

    /// Embeds an index checkpoint in the journal, so a later recovery can
    /// restore the bin index from the snapshot and skip re-inserting
    /// every pre-checkpoint chunk. A no-op when journaling is disabled.
    ///
    /// # Errors
    ///
    /// [`JournalError::Full`] when the region cannot hold the snapshot,
    /// [`JournalError::Ssd`] when the device fails past retries.
    pub fn journal_checkpoint(&mut self) -> Result<(), JournalError> {
        if self.journal.is_none() {
            return Ok(());
        }
        let snapshot = self
            .snapshot_index()
            .expect("snapshotting a live index cannot fail");
        let (next_data_lpn, next_index_lpn) = self.destage.frontiers();
        let record = Record::Checkpoint(Checkpoint {
            frontier: Frontier {
                next_data_lpn,
                next_index_lpn,
                appended_bytes: self.destage.appended_bytes(),
                tail: self.destage.tail().to_vec(),
            },
            snapshot,
        });
        let at = self.report.reduction_end;
        let journal = self.journal.as_mut().expect("checked above");
        let g = journal.append(at, &mut self.ssd, &record)?;
        self.report.ssd_end = self.report.ssd_end.max(g.end);
        Ok(())
    }

    /// Cuts power at `spec.at` — tearing or reverting device writes in
    /// flight at that instant — then runs [`Pipeline::recover`].
    ///
    /// # Errors
    ///
    /// See [`Pipeline::recover`].
    ///
    /// # Panics
    ///
    /// Panics when journaling is disabled (there is nothing to recover
    /// from; an unjournaled pipeline does not model crashes).
    pub fn power_cut_and_recover(
        &mut self,
        spec: CrashSpec,
    ) -> Result<RecoveryOutcome, RecoverError> {
        assert!(
            self.journal.is_some(),
            "power_cut_and_recover needs journal_pages > 0"
        );
        let crash = self.ssd.power_cut(spec);
        let mut outcome = self.recover(spec.at)?;
        outcome.crash = crash;
        Ok(outcome)
    }

    /// Rebuilds all volatile pipeline state from the on-device journal,
    /// as a restart after a power failure would: every in-memory
    /// structure (bin index, recipe, read cache, degradation latches, GPU
    /// state, destage frontier, report counters) is discarded and
    /// reconstructed from the journal's durable record prefix.
    ///
    /// The journal region is re-read page by page on the simulated
    /// device (charged, retried); a torn tail is discarded, so exactly
    /// the acknowledged prefix survives. The restored GPU index mirror
    /// starts empty — a power cycle clears device memory — which is
    /// miss-safe because the CPU bins are authoritative.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Device`] when the journal region cannot be read,
    /// [`RecoverError::Checkpoint`] when an embedded index snapshot is
    /// corrupt.
    ///
    /// # Panics
    ///
    /// Panics when journaling is disabled.
    pub fn recover(&mut self, now: SimTime) -> Result<RecoveryOutcome, RecoverError> {
        assert!(self.journal.is_some(), "recover needs journal_pages > 0");
        let replay = {
            let journal = self.journal.as_mut().expect("checked above");
            journal
                .replay(now, &mut self.ssd)
                .map_err(RecoverError::Device)?
        };

        // Restore the index: from the last embedded checkpoint when one
        // exists, else empty. Replay then re-inserts only the unique
        // chunks committed *after* that checkpoint.
        let last_cp = replay
            .records
            .iter()
            .rposition(|r| matches!(r, Record::Checkpoint(_)));
        let mut index = match last_cp {
            Some(pos) => match &replay.records[pos] {
                Record::Checkpoint(cp) => {
                    dr_binindex::restore(&cp.snapshot).map_err(RecoverError::Checkpoint)?
                }
                _ => unreachable!("rposition matched a checkpoint"),
            },
            None => BinIndex::new(self.config.index),
        };
        index.set_obs(&self.config.obs);

        let mut report = Report::new(self.config.mode);
        let mut recipe: Vec<ChunkRef> = Vec::new();
        let mut volume_records = Vec::new();
        let mut frontier: Option<Frontier> = None;
        for (pos, record) in replay.records.iter().enumerate() {
            match record {
                Record::VolumeCreate { name, blocks } => {
                    volume_records.push(VolumeRecord::Create {
                        name: name.clone(),
                        blocks: *blocks,
                    });
                }
                Record::MapUpdate {
                    name,
                    start_block,
                    nblocks,
                    first_recipe,
                } => {
                    volume_records.push(VolumeRecord::Map {
                        name: name.clone(),
                        start_block: *start_block,
                        nblocks: *nblocks,
                        first_recipe: *first_recipe,
                    });
                }
                Record::BatchCommit(batch) => {
                    frontier = Some(batch.frontier.clone());
                    let past_checkpoint = match last_cp {
                        Some(cp) => pos > cp,
                        None => true,
                    };
                    for c in &batch.chunks {
                        report.chunks += 1;
                        report.bytes_in += c.orig_len as u64;
                        let r = ChunkRef::new(c.addr, c.stored_len);
                        recipe.push(r);
                        if c.dup {
                            report.dedup_hits += 1;
                            report.bytes_deduped += c.orig_len as u64;
                        } else {
                            report.unique_chunks += 1;
                            report.stored_bytes += c.stored_len as u64;
                            if past_checkpoint
                                && self.config.dedup_enabled
                                && index.insert(c.digest, r).is_some()
                            {
                                // Replay never re-writes index spills to
                                // the device: the journal already made
                                // the inserts durable, and the frontiers
                                // below restore the device-side cursor.
                                report.bin_flushes += 1;
                            }
                        }
                    }
                }
                Record::Checkpoint(cp) => {
                    frontier = Some(cp.frontier.clone());
                }
            }
        }

        // Destage frontier: from the last state-bearing record, else the
        // empty-log initial state (below the journal reservation).
        match &frontier {
            Some(f) => self.destage.restore_state(
                f.next_data_lpn,
                f.next_index_lpn,
                f.appended_bytes,
                &f.tail,
            ),
            None => {
                let top = self.ssd.logical_pages() - 1 - self.config.journal_pages;
                self.destage.restore_state(0, top, 0, &[]);
            }
        }

        // Every other volatile structure restarts fresh, exactly as a
        // reboot would leave it: cold read cache, closed latches, empty
        // frame arena, a power-cycled GPU with an empty index mirror.
        self.read_cache.clear();
        self.obs.read_cache_entries.set(0);
        self.fault = FaultState::new(self.config.degrade);
        self.arena = FrameArena::new(self.config.batch_chunks);
        self.gpu = GpuDevice::new(self.config.gpu_spec.clone());
        self.gpu.set_obs(&self.config.obs);
        self.gpu_index = if self.config.mode.gpu_dedup() && self.config.dedup_enabled {
            let mut cfg = self.config.gpu_index;
            cfg.prefix_bytes = self.config.index.prefix_bytes;
            Some(GpuBinIndex::new(&mut self.gpu, cfg).expect("GPU index must fit in device memory"))
        } else {
            None
        };

        report.reduction_end = replay.done;
        report.ssd_end = replay.done;
        self.index = index;
        self.report = report;
        let chunks_recovered = recipe.len() as u64;
        self.recipe = recipe;
        self.sync_fault_counters();

        Ok(RecoveryOutcome {
            crash: CrashReport::default(),
            records_replayed: replay.records.len() as u64,
            torn_discarded: replay.torn,
            chunks_recovered,
            volume_records,
            recovered_end: replay.done,
        })
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
    /// `max(read_end, reduction_end)` and [`Report::read_end`] records
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
        let mut seen = std::collections::HashSet::new();
        let mut hits: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
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
        let mut fetched: Vec<(u64, Vec<u8>, SimTime)> = Vec::with_capacity(misses.len());
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
        // is GPU-assigned and the decompress latch is closed; CPU
        // otherwise (a small batch cannot amortize a kernel launch).
        let use_gpu = self.config.mode.gpu_compression()
            && fetched.len() >= self.config.read.gpu_min_batch
            && self.fault.gpu_decompress.allow_attempt(at);
        let decoded = if use_gpu {
            self.gpu_decompress_reads(&fetched, at)?
        } else {
            self.cpu_decompress_reads(&fetched, SimTime::ZERO)?
        };

        // Fresh decodes enter the cache — successful ones only, so a
        // corrupt frame is re-detected on every re-read.
        let mut fresh: std::collections::HashMap<u64, (Vec<u8>, SimTime)> =
            std::collections::HashMap::with_capacity(decoded.len());
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
        fetched: &[(u64, Vec<u8>, SimTime)],
        floor: SimTime,
    ) -> Result<Vec<(u64, Vec<u8>, SimTime)>, ReadError> {
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
        fetched: &[(u64, Vec<u8>, SimTime)],
        batch_ready: SimTime,
    ) -> Result<Vec<(u64, Vec<u8>, SimTime)>, ReadError> {
        let cpu_model = self.config.cpu;
        let views: Vec<&[u8]> = fetched.iter().map(|(_, f, _)| f.as_slice()).collect();
        let backoff = self.config.degrade.backoff();
        let mut at = batch_ready;
        let mut retry = 0u32;
        let (chunks, report) = loop {
            match self.gpu_decomp.decompress_batch(at, &mut self.gpu, &views) {
                Ok(out) => break out,
                Err(e) if e.is_transient() && backoff.permits(retry) => {
                    at += backoff.delay(retry);
                    retry += 1;
                    self.fault.retries += 1;
                    self.obs.gpu_decompress_retries.incr();
                    self.obs.tracer.sim_instant(
                        Track::Fault,
                        "gpu-decompress retry",
                        at.as_nanos(),
                        trace_args(&[("retry", retry as u64)]),
                    );
                }
                Err(e) => {
                    if e.is_transient() && backoff.budget_exhausted(retry) {
                        self.obs.retry_budget_exhausted.incr();
                    }
                    Self::latch_failure(
                        &mut self.fault.gpu_decompress,
                        at,
                        &self.obs.gpu_decompress_degraded,
                        &self.obs.tracer,
                        "gpu-decompress latch open",
                    );
                    // Time burnt on the GPU attempts floors the CPU
                    // fallback — degradation is never free.
                    return self.cpu_decompress_reads(fetched, at);
                }
            }
        };
        Self::latch_success(
            &mut self.fault.gpu_decompress,
            report.gpu_done,
            &self.obs.tracer,
            "gpu-decompress latch close",
        );
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

    /// Number of chunks ingested so far (the recipe length).
    pub fn ingested_chunks(&self) -> usize {
        self.recipe.len()
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

    /// Runs a byte stream through the pipeline (chunked at
    /// [`PipelineConfig::chunk_bytes`]) and returns the final report.
    ///
    /// The stream is copied into a shared buffer once; every chunk then
    /// travels as a view into that buffer (no per-chunk allocation).
    pub fn run(&mut self, stream: &[u8]) -> Report {
        let chunker = FixedChunker::new(self.config.chunk_bytes);
        let span = self.obs.chunking.span();
        let buf: Arc<[u8]> = Arc::from(stream);
        let spans: Vec<(usize, usize)> = chunker
            .chunk(stream)
            .map(|c| (c.offset as usize, c.data.len()))
            .collect();
        span.finish();
        let payloads = spans
            .chunks(self.config.batch_chunks)
            .map(|s| BatchPayload::Shared {
                buf: Arc::clone(&buf),
                spans: s.to_vec(),
            });
        self.drive(payloads)
    }

    /// Runs pre-chunked blocks through the pipeline and returns the final
    /// report. May be called repeatedly; state (index, SSD contents, the
    /// simulated clock) persists across calls.
    pub fn run_blocks<I>(&mut self, blocks: I) -> Report
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let batch_chunks = self.config.batch_chunks;
        let chunking_wall = self.obs.chunking.wall.clone();
        let mut blocks = blocks.into_iter();
        let batches = std::iter::from_fn(move || {
            // This path's "chunking" is batch assembly; time it so the
            // pre-chunked path reports the same chunking.wall_ns /
            // chunking.sim_ns pair as `run` does.
            let start = chunking_wall.is_live().then(Instant::now);
            let mut batch: Vec<Vec<u8>> = Vec::with_capacity(batch_chunks);
            while batch.len() < batch_chunks {
                match blocks.next() {
                    Some(block) => batch.push(block),
                    None => break,
                }
            }
            if batch.is_empty() {
                return None;
            }
            if let Some(start) = start {
                chunking_wall.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            Some(BatchPayload::Owned(batch))
        });
        self.drive(batches)
    }

    /// The double-buffered batch loop: while batch N runs its downstream
    /// stages (dedup, compression, destage) on the calling thread, batch
    /// N+1 is already being fingerprinted on the pool. Simulated-time
    /// accounting stays serial and in input order inside
    /// [`Pipeline::process_batch`], so the overlap changes wall-clock
    /// behavior only — simulated results are bit-identical.
    fn drive<I>(&mut self, batches: I) -> Report
    where
        I: Iterator<Item = BatchPayload>,
    {
        let mut pending: Option<JobHandle<HashedBatch>> = None;
        for payload in batches {
            let job = self.spawn_hash_job(payload);
            if let Some(prev) = pending.replace(job) {
                let (payload, digests) = prev.join();
                self.process_batch(&payload, digests);
            }
        }
        if let Some(prev) = pending.take() {
            let (payload, digests) = prev.join();
            self.process_batch(&payload, digests);
        }
        self.finish()
    }

    /// Starts fingerprinting a batch on the pool. Fingerprints only exist
    /// on behalf of deduplication — the paper's compression-only
    /// experiment does not hash, so with dedup disabled the digests are
    /// zero sentinels and no SHA-1 is computed at all.
    fn spawn_hash_job(&self, payload: BatchPayload) -> JobHandle<HashedBatch> {
        let pool = self.pool.clone();
        let dedup_enabled = self.config.dedup_enabled;
        let hashing = self.obs.hashing.clone();
        self.pool.spawn(move || {
            let digests = if dedup_enabled {
                let span = hashing.span();
                let views: Vec<&[u8]> = (0..payload.len()).map(|i| payload.view(i)).collect();
                let digests = hash_chunks_pooled(&pool, &views);
                span.finish();
                digests
            } else {
                vec![ChunkDigest::zero(); payload.len()]
            };
            (payload, digests)
        })
    }

    /// Flushes the destage log and closes out the report.
    fn finish(&mut self) -> Report {
        let now = self.report.reduction_end;
        if let Ok(Some(g)) = self.destage.flush(now, &mut self.ssd) {
            self.report.ssd_end = self.report.ssd_end.max(g.end);
        }
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
        self.report.clone()
    }

    /// Folds the device and latch fault tallies into the report — called
    /// when a run closes out and after every read batch, so read-time
    /// retries and latch transitions are visible without another write.
    fn sync_fault_counters(&mut self) {
        self.report.faults_injected =
            self.ssd.stats().faults_injected + self.gpu.stats().faults_injected;
        self.report.fault_retries = self.fault.retries + self.destage.fault_retries();
        self.report.degraded_transitions = self.fault.transitions();
    }

    /// Records an operation-level failure on a latch, bumping the matching
    /// obs counter exactly once per healthy→degraded transition (and
    /// emitting a latch-open instant on the fault trace track).
    fn latch_failure(
        latch: &mut ComponentLatch,
        now: SimTime,
        transitions: &CounterHandle,
        tracer: &Tracer,
        opened: &'static str,
    ) {
        let before = latch.transitions();
        latch.record_failure(now);
        if latch.transitions() > before {
            transitions.incr();
            tracer.sim_instant(Track::Fault, opened, now.as_nanos(), trace_args(&[]));
        }
    }

    /// Records an operation-level success on a latch, emitting a
    /// latch-close instant when the success actually closed it.
    fn latch_success(
        latch: &mut ComponentLatch,
        now: SimTime,
        tracer: &Tracer,
        closed: &'static str,
    ) {
        let was_degraded = latch.is_degraded();
        latch.record_success(now);
        if was_degraded && !latch.is_degraded() {
            tracer.sim_instant(Track::Fault, closed, now.as_nanos(), trace_args(&[]));
        }
    }

    /// Destages one sealed frame, absorbing transient SSD write faults:
    /// the destager already retried with backoff; if it still failed, the
    /// SSD-write latch opens (shedding compression for subsequent batches)
    /// and one final attempt is made after a degraded rest.
    ///
    /// # Panics
    ///
    /// Panics when the device is genuinely full or still failing after the
    /// rest — at that point correctness cannot be preserved by degrading.
    fn destage_frame(
        &mut self,
        ready: SimTime,
        stored: &[u8],
    ) -> (dr_binindex::ChunkRef, Vec<Grant>) {
        // Stage once, drain as often as needed: a failed drain leaves the
        // staged bytes buffered, so retrying must NOT re-append the frame
        // (doing so stored every faulted frame twice — dr-check seed 415).
        let r = match self.destage.stage(stored) {
            Ok(r) => r,
            Err(e) => panic!("destage failed: {e} (size the SSD to the workload)"),
        };
        match self.destage.drain_full(ready, &mut self.ssd) {
            Ok(grants) => {
                // While degraded, only successes past the rest interval
                // count as probes (healthy latches make this a no-op).
                if self.fault.ssd_write.allow_attempt(ready) {
                    Self::latch_success(
                        &mut self.fault.ssd_write,
                        ready,
                        &self.obs.tracer,
                        "ssd-write latch close",
                    );
                }
                (r, grants)
            }
            Err(e) if e.is_transient() => {
                Self::latch_failure(
                    &mut self.fault.ssd_write,
                    ready,
                    &self.obs.ssd_write_degraded,
                    &self.obs.tracer,
                    "ssd-write latch open",
                );
                let rest = ready + self.config.degrade.reprobe_interval;
                let grants = self
                    .destage
                    .drain_full(rest, &mut self.ssd)
                    .unwrap_or_else(|e| panic!("destage failed after degraded rest: {e}"));
                Self::latch_success(
                    &mut self.fault.ssd_write,
                    rest,
                    &self.obs.tracer,
                    "ssd-write latch close",
                );
                (r, grants)
            }
            Err(e) => panic!("destage failed: {e} (size the SSD to the workload)"),
        }
    }

    /// Processes one batch of chunks through chunk→hash→index→compress→
    /// destage, advancing the simulated clock. Fingerprints arrive
    /// precomputed (possibly overlapped with the previous batch); the
    /// simulated chunk+hash costs are charged here, serially and in input
    /// order, so the timeline is identical to a fully serial pipeline.
    fn process_batch(&mut self, payload: &BatchPayload, digests: Vec<ChunkDigest>) {
        let cpu_model = self.config.cpu;
        let arrival = SimTime::ZERO; // closed loop: input is never the bottleneck

        // Tracing is record-only: batch ids and stage windows are derived
        // from the grants the cost models hand out anyway, so an enabled
        // tracer never shifts a simulated timestamp.
        let tracing = self.obs.tracer.is_enabled();
        let batch_id = self.batch_seq;
        self.batch_seq += 1;

        // ---- Stage 1+2: chunking + hashing (CPU, per chunk, no deps).
        // Fingerprinting only exists on behalf of dedup; the paper's
        // compression-only experiment does not hash.
        let dedup_enabled = self.config.dedup_enabled;
        self.obs.batches.incr();
        let mut chunk_win: Option<(u64, u64)> = None;
        let mut hash_win: Option<(u64, u64)> = None;
        let mut chunks: Vec<InFlight> = digests
            .into_iter()
            .enumerate()
            .map(|(i, digest)| {
                let len = payload.view(i).len();
                let chunk_cost = cpu_model.chunk_cost(len) + cpu_model.overhead_cost();
                self.obs.chunking.record_sim_ns(chunk_cost.as_nanos());
                let mut cost = chunk_cost;
                if dedup_enabled {
                    let hash_cost = cpu_model.hash_cost(len);
                    self.obs.hashing.record_sim_ns(hash_cost.as_nanos());
                    cost += hash_cost;
                }
                let g = self.cpu.acquire(arrival, cost);
                if tracing {
                    // One CPU grant covers chunk-then-hash; split it at the
                    // chunk/hash cost boundary for the per-stage tracks.
                    let split = (g.start + chunk_cost).as_nanos();
                    widen(&mut chunk_win, g.start.as_nanos(), split);
                    if dedup_enabled {
                        widen(&mut hash_win, split, g.end.as_nanos());
                    }
                }
                InFlight {
                    digest,
                    ready_at: g.end,
                    outcome: DedupOutcome::Unique,
                }
            })
            .collect();
        let n_chunks = chunks.len() as u64;
        if let Some((s, e)) = chunk_win {
            self.obs.tracer.sim_span(
                Track::Chunk,
                "chunk",
                s,
                e,
                trace_args(&[("batch", batch_id), ("chunks", n_chunks)]),
            );
        }
        if let Some((s, e)) = hash_win {
            self.obs.tracer.sim_span(
                Track::Hash,
                "hash",
                s,
                e,
                trace_args(&[("batch", batch_id), ("chunks", n_chunks)]),
            );
        }
        self.report.chunks += chunks.len() as u64;
        self.report.bytes_in += (0..payload.len())
            .map(|i| payload.view(i).len() as u64)
            .sum::<u64>();

        // ---- Stage 3: deduplication. ----
        if self.config.dedup_enabled {
            let index_start = if tracing {
                chunks.iter().map(|c| c.ready_at.as_nanos()).min()
            } else {
                None
            };
            let probe_span = self.obs.index_probe.span();
            self.dedup_batch(payload, &mut chunks, batch_id);
            probe_span.finish();
            // Intra-batch duplicates: an earlier chunk of this batch may
            // cover a later one. In the paper's per-chunk pipeline the
            // index is updated before the next probe; batching must not
            // lose those hits, so resolve them against a pending set.
            let cpu_model = self.config.cpu;
            let mut pending: std::collections::HashSet<ChunkDigest> =
                std::collections::HashSet::new();
            for (i, chunk) in chunks.iter_mut().enumerate() {
                if !matches!(chunk.outcome, DedupOutcome::Unique) {
                    continue;
                }
                if pending.contains(&chunk.digest) {
                    // Found in the bin buffer, where the first instance's
                    // insert will have just landed.
                    self.obs
                        .index_probe
                        .record_sim_ns(cpu_model.buffer_probe_cost().as_nanos());
                    let g = self
                        .cpu
                        .acquire(chunk.ready_at, cpu_model.buffer_probe_cost());
                    chunk.ready_at = g.end;
                    chunk.outcome = DedupOutcome::IntraBatchDuplicate;
                    self.report.dedup_hits += 1;
                    self.report.buffer_hits += 1;
                    self.report.bytes_deduped += payload.view(i).len() as u64;
                } else {
                    pending.insert(chunk.digest);
                }
            }
            if let Some(s) = index_start {
                let e = chunks
                    .iter()
                    .map(|c| c.ready_at.as_nanos())
                    .max()
                    .unwrap_or(s);
                self.obs.tracer.sim_span(
                    Track::Index,
                    "index",
                    s,
                    e.max(s),
                    trace_args(&[("batch", batch_id), ("chunks", n_chunks)]),
                );
            }
        }

        // Logical map slots for this batch, filled as chunks resolve.
        let mut refs: Vec<Option<ChunkRef>> = chunks
            .iter()
            .map(|c| match c.outcome {
                DedupOutcome::Duplicate(r) => Some(r),
                _ => None,
            })
            .collect();

        // ---- Stage 4+5: compression + destage of unique chunks. ----
        let unique: Vec<usize> = (0..chunks.len())
            .filter(|&i| matches!(chunks[i].outcome, DedupOutcome::Unique))
            .collect();
        // While the SSD-write latch is open, reduction effort is shed:
        // frames are sealed raw so a struggling device gets the simplest
        // possible write path (the ISSUE's "reduction is best-effort,
        // correctness is not"). Re-probes close the latch again.
        let shed_compression = self.fault.ssd_write.is_degraded();
        // Compress span start: the raw/shed paths charge no compression
        // time, so only real codec passes get a span.
        let trace_compress =
            tracing && self.config.compress_enabled && !shed_compression && !unique.is_empty();
        let compress_start = if trace_compress {
            unique
                .iter()
                .map(|&i| chunks[i].ready_at.as_nanos())
                .min()
                .unwrap_or(0)
        } else {
            0
        };
        let frames: Vec<(usize, Vec<u8>, SimTime)> =
            if !self.config.compress_enabled || shed_compression {
                unique
                    .iter()
                    .map(|&i| {
                        let mut f = self.arena.take();
                        frame::seal_raw_into(payload.view(i), &mut f);
                        (i, f, chunks[i].ready_at)
                    })
                    .collect()
            } else if self.config.mode.gpu_compression() {
                let span = self.obs.compress.span();
                let frames = self.gpu_compress(payload, &chunks, &unique);
                span.finish();
                frames
            } else {
                let span = self.obs.compress.span();
                let frames = self.cpu_compress(payload, &chunks, &unique, SimTime::ZERO);
                span.finish();
                frames
            };
        if trace_compress {
            let end = frames
                .iter()
                .map(|(_, _, t)| t.as_nanos())
                .max()
                .unwrap_or(compress_start);
            self.obs.tracer.sim_span(
                Track::Compress,
                "compress",
                compress_start,
                end.max(compress_start),
                trace_args(&[("batch", batch_id), ("chunks", unique.len() as u64)]),
            );
        }
        if self.config.compress_enabled && self.config.obs.is_enabled() {
            let in_bytes: i64 = unique.iter().map(|&i| payload.view(i).len() as i64).sum();
            let out_bytes: i64 = frames.iter().map(|(_, f, _)| f.len() as i64).sum();
            self.obs.compress_in_bytes.add(in_bytes);
            self.obs.compress_out_bytes.add(out_bytes);
        }

        let mut destage_win: Option<(u64, u64)> = None;
        // When the batch's last data frame became durable on the device —
        // the floor for this batch's journal commit record.
        let mut data_end = SimTime::ZERO;
        for (i, frame_bytes, ready) in frames {
            if self.config.verify {
                let back = frame::open(&frame_bytes).expect("self-check: frame must decode");
                assert_eq!(back, payload.view(i), "self-check: chunk round-trip failed");
            }
            let protected;
            let stored: &[u8] = if self.config.integrity {
                protected = frame::protect(&frame_bytes);
                &protected
            } else {
                &frame_bytes
            };
            self.report.stored_bytes += stored.len() as u64;
            let (chunk_ref, grants) = self.destage_frame(ready, stored);
            refs[i] = Some(chunk_ref);
            for g in grants {
                self.report.ssd_end = self.report.ssd_end.max(g.end);
                data_end = data_end.max(g.end);
                if tracing {
                    widen(&mut destage_win, g.start.as_nanos(), g.end.as_nanos());
                }
            }
            // Index insert (CPU) + flush handling.
            if self.config.dedup_enabled {
                let g = self.cpu.acquire(ready, cpu_model.insert_cost());
                chunks[i].ready_at = g.end;
                if let Some(flush) = self.index.insert(chunks[i].digest, chunk_ref) {
                    self.report.bin_flushes += 1;
                    // Sequential index write to the SSD. The spill is
                    // best-effort (the authoritative index is in memory):
                    // a transient failure after the destager's retries
                    // opens the SSD-write latch, anything else is dropped.
                    let bytes = flush.flushed_bytes(self.config.index.prefix_bytes);
                    match self.destage.append_index(g.end, &mut self.ssd, bytes) {
                        Ok(gs) => {
                            for fg in gs {
                                self.report.ssd_end = self.report.ssd_end.max(fg.end);
                            }
                        }
                        Err(e) if e.is_transient() => Self::latch_failure(
                            &mut self.fault.ssd_write,
                            g.end,
                            &self.obs.ssd_write_degraded,
                            &self.obs.tracer,
                            "ssd-write latch open",
                        ),
                        Err(_) => {}
                    }
                    // Mirror the flush into the GPU-resident bin — also
                    // best-effort: a device fault opens the GPU-dedup
                    // latch and the mirror is skipped until a re-probe
                    // succeeds (host-side bins stay authoritative, so the
                    // worst case is a missed duplicate, never bad data).
                    if let Some(gpu_index) = &mut self.gpu_index {
                        if self.fault.gpu_dedup.allow_attempt(g.end) {
                            let synced = if gpu_index.is_resident(flush.bin) {
                                gpu_index.apply_flush(g.end, &mut self.gpu, &flush)
                            } else {
                                // Mirror the *tree* portion only; buffer
                                // entries reach the device with their flush.
                                let entries: Vec<_> = self
                                    .index
                                    .bin(flush.bin)
                                    .iter_tree()
                                    .map(|(k, v)| (*k, *v))
                                    .collect();
                                gpu_index.install_bin(g.end, &mut self.gpu, flush.bin, &entries)
                            };
                            match synced {
                                Ok(t) => {
                                    Self::latch_success(
                                        &mut self.fault.gpu_dedup,
                                        t,
                                        &self.obs.tracer,
                                        "gpu-dedup latch close",
                                    );
                                    self.report.gpu_index_sync_end =
                                        self.report.gpu_index_sync_end.max(t);
                                }
                                Err(_) => Self::latch_failure(
                                    &mut self.fault.gpu_dedup,
                                    g.end,
                                    &self.obs.gpu_dedup_degraded,
                                    &self.obs.tracer,
                                    "gpu-dedup latch open",
                                ),
                            }
                        }
                    }
                }
            } else {
                chunks[i].ready_at = ready;
            }
            self.report.unique_chunks += 1;
            // The frame has been copied out to the device: recycle its
            // buffer for the next batch.
            self.arena.put(frame_bytes);
        }
        if let Some((s, e)) = destage_win {
            self.obs.tracer.sim_span(
                Track::Destage,
                "destage",
                s,
                e,
                trace_args(&[("batch", batch_id)]),
            );
        }

        // Intra-batch duplicates point at the stored copy of their first
        // instance (destaged above).
        let mut by_digest: std::collections::HashMap<ChunkDigest, ChunkRef> =
            std::collections::HashMap::new();
        for (chunk, r) in chunks.iter().zip(&refs) {
            if let (DedupOutcome::Unique, Some(r)) = (&chunk.outcome, r) {
                by_digest.insert(chunk.digest, *r);
            }
        }
        for (i, chunk) in chunks.iter().enumerate() {
            if matches!(chunk.outcome, DedupOutcome::IntraBatchDuplicate) {
                refs[i] = by_digest.get(&chunk.digest).copied();
            }
        }
        self.recipe.extend(
            refs.into_iter()
                .map(|r| r.expect("every chunk resolves to a stored location")),
        );

        // Reduction completes when the last chunk finishes its last stage.
        for c in &chunks {
            self.report.reduction_end = self.report.reduction_end.max(c.ready_at);
        }

        // Journal the batch commit. The append is scheduled no earlier
        // than `data_end`, so its record becoming durable implies every
        // data frame it describes is durable too (write-ahead for the
        // *metadata*, write-behind for the data it points at). The grant
        // end is the batch's acknowledgement point.
        if let Some(journal) = self.journal.as_mut() {
            let base = self.recipe.len() - chunks.len();
            let commits: Vec<ChunkCommit> = chunks
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let r = self.recipe[base + i];
                    ChunkCommit {
                        digest: c.digest,
                        dup: !matches!(c.outcome, DedupOutcome::Unique),
                        addr: r.addr(),
                        stored_len: r.stored_len(),
                        orig_len: payload.view(i).len() as u32,
                    }
                })
                .collect();
            let (next_data_lpn, next_index_lpn) = self.destage.frontiers();
            let record = Record::BatchCommit(BatchCommit {
                frontier: Frontier {
                    next_data_lpn,
                    next_index_lpn,
                    appended_bytes: self.destage.appended_bytes(),
                    tail: self.destage.tail().to_vec(),
                },
                chunks: commits,
            });
            let at = self.report.reduction_end.max(data_end);
            let g = journal
                .append(at, &mut self.ssd, &record)
                .unwrap_or_else(|e| panic!("journal batch-commit append failed: {e}"));
            self.report.ssd_end = self.report.ssd_end.max(g.end);
        }
    }

    /// Dedup stage: optional GPU probe pass, then the CPU bin-buffer /
    /// bin-tree path for unresolved chunks (the paper's Fig. 1).
    fn dedup_batch(&mut self, payload: &BatchPayload, chunks: &mut [InFlight], batch_id: u64) {
        let cpu_model = self.config.cpu;

        /// What the CPU still has to probe for one chunk.
        #[derive(Clone, Copy, PartialEq)]
        enum CpuProbe {
            /// Bin buffer, then bin tree (no GPU answer).
            Full,
            /// Bin buffer only — a GPU authoritative miss settled the
            /// flushed (tree) portion of the bin.
            BufferOnly,
            /// Nothing — the GPU found the duplicate.
            None,
        }

        // GPU indexing first, when assigned and not latched degraded
        // (batch barrier at hash end).
        let mut plan = vec![CpuProbe::Full; chunks.len()];
        let batch_ready = chunks
            .iter()
            .map(|c| c.ready_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        let use_gpu = self.gpu_index.is_some() && self.fault.gpu_dedup.allow_attempt(batch_ready);
        if use_gpu {
            self.obs.routing.to_gpu.add(chunks.len() as u64);
        } else {
            self.obs.routing.to_cpu.add(chunks.len() as u64);
        }
        self.obs.tracer.sim_instant(
            Track::Route,
            if use_gpu { "to-gpu" } else { "to-cpu" },
            batch_ready.as_nanos(),
            trace_args(&[("batch", batch_id), ("chunks", chunks.len() as u64)]),
        );
        if use_gpu {
            let gpu_index = self.gpu_index.as_mut().expect("use_gpu implies an index");
            let digests: Vec<_> = chunks.iter().map(|c| c.digest).collect();
            let backoff = self.config.degrade.backoff();
            let mut at = batch_ready;
            let mut retry = 0u32;
            let outcome = loop {
                match gpu_index.lookup_batch(at, &mut self.gpu, &digests) {
                    Ok(out) => break Some(out),
                    Err(e) if e.is_transient() && backoff.permits(retry) => {
                        at += backoff.delay(retry);
                        retry += 1;
                        self.fault.retries += 1;
                        self.obs.gpu_dedup_retries.incr();
                        self.obs.tracer.sim_instant(
                            Track::Fault,
                            "gpu-dedup retry",
                            at.as_nanos(),
                            trace_args(&[("retry", retry as u64)]),
                        );
                    }
                    Err(e) => {
                        if e.is_transient() && backoff.budget_exhausted(retry) {
                            self.obs.retry_budget_exhausted.incr();
                        }
                        break None;
                    }
                }
            };
            match outcome {
                Some((probes, report)) => {
                    Self::latch_success(
                        &mut self.fault.gpu_dedup,
                        report.done,
                        &self.obs.tracer,
                        "gpu-dedup latch close",
                    );
                    self.report.gpu_index_queries += report.queries as u64;
                    self.report.gpu_index_hits += report.hits as u64;
                    for ((chunk, probe), p) in chunks.iter_mut().zip(probes).zip(plan.iter_mut()) {
                        match probe {
                            GpuProbe::Hit(r) => {
                                chunk.outcome = DedupOutcome::Duplicate(r);
                                chunk.ready_at = report.done;
                                *p = CpuProbe::None;
                                self.obs.routing.gpu_hits.incr();
                            }
                            GpuProbe::AuthoritativeMiss => {
                                // Tree portion settled; recent (unflushed) inserts
                                // can still live in the CPU bin buffer — Fig. 1's
                                // "bin buffer is checked first" still applies.
                                chunk.ready_at = report.done;
                                *p = CpuProbe::BufferOnly;
                                self.obs.routing.gpu_authoritative_misses.incr();
                            }
                            GpuProbe::NeedsCpu => {
                                self.obs.routing.gpu_needs_cpu.incr();
                                self.obs.routing.to_cpu.incr();
                            }
                        }
                    }
                }
                None => {
                    // Retries exhausted (or a hard fault): latch the GPU
                    // index degraded and fall the whole batch back to the
                    // CPU index. Time burnt on the attempts is charged to
                    // every chunk — degradation is never free.
                    Self::latch_failure(
                        &mut self.fault.gpu_dedup,
                        at,
                        &self.obs.gpu_dedup_degraded,
                        &self.obs.tracer,
                        "gpu-dedup latch open",
                    );
                    self.obs.routing.to_cpu.add(chunks.len() as u64);
                    for chunk in chunks.iter_mut() {
                        chunk.ready_at = chunk.ready_at.max(at);
                    }
                }
            }
        }

        // CPU path: bin buffer first, then (when unsettled) the bin tree.
        // The memory probes fan out over the persistent pool against the
        // flat bin pages (disjoint bin shards, no locking); the simulated
        // cost accounting below stays serial and in input order, so pool
        // scheduling never affects simulated results.
        let queries: Vec<(ChunkDigest, ProbeKind)> = chunks
            .iter()
            .zip(plan.iter())
            .filter_map(|(chunk, p)| match p {
                CpuProbe::Full => Some((chunk.digest, ProbeKind::Full)),
                CpuProbe::BufferOnly => Some((chunk.digest, ProbeKind::BufferOnly)),
                CpuProbe::None => None,
            })
            .collect();
        let mut probed = self.index.probe_batch_on(&self.pool, &queries).into_iter();
        for (i, chunk) in chunks.iter_mut().enumerate() {
            let found = match plan[i] {
                CpuProbe::None => {
                    // GPU-resolved duplicate: count it in the report.
                    self.report.dedup_hits += 1;
                    self.report.bytes_deduped += payload.view(i).len() as u64;
                    continue;
                }
                CpuProbe::BufferOnly => {
                    let found = probed
                        .next()
                        .expect("one probe per planned chunk")
                        .map(|(r, _)| r);
                    self.obs
                        .index_probe
                        .record_sim_ns(cpu_model.buffer_probe_cost().as_nanos());
                    let g = self
                        .cpu
                        .acquire(chunk.ready_at, cpu_model.buffer_probe_cost());
                    chunk.ready_at = g.end;
                    if found.is_some() {
                        self.report.buffer_hits += 1;
                    }
                    found
                }
                CpuProbe::Full => {
                    let found = probed.next().expect("one probe per planned chunk");
                    let cost = match found {
                        Some((_, BinHit::Buffer)) => cpu_model.buffer_probe_cost(),
                        // Tree probes always pay the buffer scan first.
                        Some((_, BinHit::Tree)) | None => {
                            cpu_model.buffer_probe_cost() + cpu_model.tree_probe_cost()
                        }
                    };
                    self.obs.index_probe.record_sim_ns(cost.as_nanos());
                    let g = self.cpu.acquire(chunk.ready_at, cost);
                    chunk.ready_at = g.end;
                    match found {
                        Some((r, BinHit::Buffer)) => {
                            self.report.buffer_hits += 1;
                            Some(r)
                        }
                        Some((r, BinHit::Tree)) => {
                            self.report.tree_hits += 1;
                            Some(r)
                        }
                        None => None,
                    }
                }
            };
            if let Some(r) = found {
                chunk.outcome = DedupOutcome::Duplicate(r);
                self.report.dedup_hits += 1;
                self.report.bytes_deduped += payload.view(i).len() as u64;
            }
        }
    }

    /// CPU compression: every unique chunk is one single-pass codec call,
    /// fanned out over the persistent pool into recycled arena buffers.
    /// The simulated cost accounting below stays serial and in input
    /// order, so pool scheduling never affects simulated results.
    ///
    /// `floor` is the earliest simulated instant any chunk may start —
    /// [`SimTime::ZERO`] on the normal path (a no-op), or the moment a
    /// failed GPU attempt handed the batch over when degrading.
    fn cpu_compress(
        &mut self,
        payload: &BatchPayload,
        chunks: &[InFlight],
        unique: &[usize],
        floor: SimTime,
    ) -> Vec<(usize, Vec<u8>, SimTime)> {
        let cpu_model = self.config.cpu;
        let codec = self.codec;
        let mut outs: Vec<(usize, Vec<u8>)> =
            unique.iter().map(|&i| (i, self.arena.take())).collect();
        self.pool.for_each_mut(&mut outs, |_, (i, buf)| {
            codec.compress_to(payload.view(*i), buf);
        });
        outs.into_iter()
            .map(|(i, frame_bytes)| {
                let len = payload.view(i).len();
                let ratio = len as f64 / frame_bytes.len() as f64;
                let cost = cpu_model.compress_cost(len, ratio);
                self.obs.compress.record_sim_ns(cost.as_nanos());
                let g = self.cpu.acquire(chunks[i].ready_at.max(floor), cost);
                (i, frame_bytes, g.end)
            })
            .collect()
    }

    /// GPU compression: one batched kernel — its host emulation fanned out
    /// over the pool into recycled arena buffers, exactly like
    /// [`Pipeline::cpu_compress`] — then CPU post-processing
    /// ("refinement") charged per chunk. Transient launch faults are
    /// retried with backoff; exhausted retries (or a lost device, or an
    /// open latch) route the batch to [`Pipeline::cpu_compress`] instead —
    /// the frames still get sealed, just slower.
    fn gpu_compress(
        &mut self,
        payload: &BatchPayload,
        chunks: &[InFlight],
        unique: &[usize],
    ) -> Vec<(usize, Vec<u8>, SimTime)> {
        if unique.is_empty() {
            return Vec::new();
        }
        let cpu_model = self.config.cpu;
        let batch_ready = unique
            .iter()
            .map(|&i| chunks[i].ready_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        if !self.fault.gpu_compress.allow_attempt(batch_ready) {
            return self.cpu_compress(payload, chunks, unique, SimTime::ZERO);
        }
        let views: Vec<&[u8]> = unique.iter().map(|&i| payload.view(i)).collect();
        let mut frames: Vec<Vec<u8>> = unique.iter().map(|_| self.arena.take()).collect();
        let backoff = self.config.degrade.backoff();
        let mut at = batch_ready;
        let mut retry = 0u32;
        let report = loop {
            match self
                .gpu_comp
                .compress_batch(at, &mut self.gpu, &self.pool, &views, &mut frames)
            {
                Ok(report) => break report,
                Err(e) if e.is_transient() && backoff.permits(retry) => {
                    at += backoff.delay(retry);
                    retry += 1;
                    self.fault.retries += 1;
                    self.obs.gpu_compress_retries.incr();
                    self.obs.tracer.sim_instant(
                        Track::Fault,
                        "gpu-compress retry",
                        at.as_nanos(),
                        trace_args(&[("retry", retry as u64)]),
                    );
                }
                Err(e) => {
                    if e.is_transient() && backoff.budget_exhausted(retry) {
                        self.obs.retry_budget_exhausted.incr();
                    }
                    Self::latch_failure(
                        &mut self.fault.gpu_compress,
                        at,
                        &self.obs.gpu_compress_degraded,
                        &self.obs.tracer,
                        "gpu-compress latch open",
                    );
                    // The time burnt attempting the GPU is the floor for
                    // the CPU fallback — degradation is never free.
                    for buf in frames {
                        self.arena.put(buf);
                    }
                    return self.cpu_compress(payload, chunks, unique, at);
                }
            }
        };
        Self::latch_success(
            &mut self.fault.gpu_compress,
            report.gpu_done,
            &self.obs.tracer,
            "gpu-compress latch close",
        );
        self.report.gpu_comp_batches += 1;
        let per_chunk_raw = (report.raw_token_bytes as usize / unique.len()).max(1);
        unique
            .iter()
            .zip(frames)
            .map(|(&i, frame_bytes)| {
                let start = report.gpu_done.max(chunks[i].ready_at);
                let g = self
                    .cpu
                    .acquire(start, cpu_model.post_process_cost(per_chunk_raw));
                // Per-chunk stage latency: kernel wait + CPU refinement
                // (batch-ready to frame-sealed on the simulated clock).
                self.obs
                    .compress
                    .record_sim_ns(g.end.saturating_duration_since(batch_ready).as_nanos());
                (i, frame_bytes, g.end)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_hashes::sha1_digest;

    /// A small, dedup-able, compressible stream: 128 blocks drawn from 32
    /// distinct compressible patterns.
    fn stream() -> Vec<u8> {
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

    fn small_config(mode: IntegrationMode) -> PipelineConfig {
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
                        ReadError::Frame(dr_compress::CodecError::BadChecksum { .. })
                    ),
                    "unexpected error: {e}"
                );
                detected += 1;
            }
        }
        assert!(detected > 0, "no corruption was ever detected");
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
    fn shared_views_and_owned_blocks_are_simulated_identically() {
        // `run` carries zero-copy views into one shared buffer;
        // `run_blocks` carries caller-owned vectors. Both must produce the
        // exact same simulated timeline, stored bytes and read-back, in
        // every integration mode.
        let data = stream();
        for mode in IntegrationMode::ALL {
            let mut shared = Pipeline::new(small_config(mode));
            shared.run(&data);
            let mut owned = Pipeline::new(small_config(mode));
            owned.run_blocks(data.chunks(4096).map(|c| c.to_vec()));
            let (rs, bs) = simulated_outcome(&mut shared);
            let (ro, bo) = simulated_outcome(&mut owned);
            assert_eq!(rs, ro, "{mode}");
            assert_eq!(bs, bo, "{mode}");
            assert_eq!(bs.concat(), data, "{mode}");
        }
    }

    #[test]
    fn pool_width_does_not_change_simulated_results() {
        // Host pool width is a wall-clock knob only; the simulated array
        // (CpuModel::workers) is what the timeline models. That covers the
        // GPU kernel emulation too: it fans out over the same pool, but
        // its costs are tallied in chunk order afterwards.
        let data = stream();
        for mode in IntegrationMode::ALL {
            let mut baseline = None;
            for pool_workers in [1usize, 2, 4] {
                let mut cfg = small_config(mode);
                cfg.pool_workers = pool_workers;
                let mut p = Pipeline::new(cfg);
                p.run(&data);
                let outcome = simulated_outcome(&mut p);
                assert_eq!(outcome.1.concat(), data, "{mode}");
                match &baseline {
                    None => baseline = Some(outcome),
                    Some(b) => assert_eq!(*b, outcome, "{mode} pool_workers={pool_workers}"),
                }
            }
        }
    }

    #[test]
    fn pool_metrics_are_recorded_when_enabled() {
        let obs = ObsHandle::enabled("pool-obs-test");
        let mut cfg = small_config(IntegrationMode::CpuOnly);
        cfg.pool_workers = 3;
        cfg.obs = obs.clone();
        let mut p = Pipeline::new(cfg);
        p.run(&stream());
        let snap = obs.snapshot().expect("enabled handle snapshots");
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert!(counter("pool.jobs") > 0, "no prefetch jobs recorded");
        assert!(counter("pool.batches") > 0, "no pool batches recorded");
        assert!(counter("pool.tasks") > 0, "no pool tasks recorded");
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
