//! The system under test, seen strictly from outside.
//!
//! Every call the benchmark makes into `inline_dr::*` or `dr_pool` lives
//! in this one module — constructors, write/read/flush/recover, kernel
//! probes, and the readers of the public `Report` / `ObsHandle::snapshot()`
//! values — so a later public-API change costs a one-file benchmark PR.
//! Only the pooled / `_on` entry points are used; nothing ROADMAP item 3
//! plans to delete or feature-gate is named here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::affinity::with_spawned_threads_elsewhere;
use dr_pool::WorkerPool;
use inline_dr::binindex::{BinIndex, BinIndexConfig, ChunkRef, ProbeKind};
use inline_dr::chunking::{Chunker, FixedChunker};
use inline_dr::cluster::{Cluster, ClusterConfig};
use inline_dr::compress::{Codec, FastLz, GpuCompressor, GpuCompressorConfig};
use inline_dr::des::SimTime;
use inline_dr::gpu_sim::{GpuDevice, GpuSpec, LaunchConfig, WorkItemCost};
use inline_dr::hashes::{crc32c, hash_chunks_pooled, sha1_digest, ChunkDigest};
use inline_dr::obs::{ObsHandle, Snapshot};
use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig, Report, VolumeManager};
use inline_dr::ssd_sim::{CrashSpec, SsdDevice, SsdSpec};
use inline_dr::workload::{
    synthesize_block, ClientPopulation, PopulationConfig, StreamConfig, StreamGenerator,
    ZipfSampler,
};

/// Chunk / logical block size every workload uses (the paper's 4 KB).
pub const CHUNK: usize = 4096;

/// Pages reserved for the write-ahead journal where a workload enables it.
pub const JOURNAL_PAGES: u64 = 8192;

/// CPUs this process may use, read once: `available_parallelism` follows
/// the calling thread's affinity mask, which `affinity` narrows later.
pub fn host_parallelism() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Width the program's pool is pinned to: `min(nproc, 4)`, so the
/// numbers stay comparable between a 2-core sandbox and a wider host
/// (it is printed with every result).
pub fn pool_workers() -> usize {
    host_parallelism().min(4)
}

/// GPU assignment of a workload's system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    CpuOnly,
    GpuCompression,
    GpuBoth,
}

/// How one system instance is built.
#[derive(Debug, Clone, Copy)]
pub struct SysConfig {
    pub mode: Mode,
    pub workers: usize,
    pub journal: bool,
    pub integrity: bool,
    /// Attach a live metric registry (the traced repetition only).
    pub observed: bool,
}

fn pipeline_config(c: SysConfig) -> PipelineConfig {
    PipelineConfig {
        mode: match c.mode {
            Mode::CpuOnly => IntegrationMode::CpuOnly,
            Mode::GpuCompression => IntegrationMode::GpuForCompression,
            Mode::GpuBoth => IntegrationMode::GpuForBoth,
        },
        pool_workers: c.workers,
        journal_pages: if c.journal { JOURNAL_PAGES } else { 0 },
        integrity: c.integrity,
        obs: if c.observed {
            ObsHandle::enabled("bench")
        } else {
            ObsHandle::disabled()
        },
        ..PipelineConfig::default()
    }
}

// ---------------------------------------------------------------------
// Input generators (the program only ever sees what these return).

/// Data profile of a generated stream.
#[derive(Debug, Clone, Copy)]
pub enum Profile {
    /// `StreamConfig::default()`: dedup 2.0 x compression 2.0.
    Paper,
    /// `StreamConfig::vdi`: dedup 4.0, compression 2.5, locality 0.8.
    Vdi,
    /// The `read_mix` image: dedup 1.5 x compression 2.0.
    Image,
}

/// Materialises a `bytes`-long stream of `profile` from `seed`.
pub fn synth_stream(profile: Profile, bytes: u64, seed: u64) -> Vec<u8> {
    let config = match profile {
        Profile::Paper => StreamConfig {
            total_bytes: bytes,
            seed,
            ..StreamConfig::default()
        },
        Profile::Vdi => StreamConfig {
            seed,
            ..StreamConfig::vdi(bytes)
        },
        Profile::Image => StreamConfig {
            total_bytes: bytes,
            dedup_ratio: 1.5,
            seed,
            ..StreamConfig::default()
        },
    };
    StreamGenerator::new(config).generate()
}

/// One fresh, never-before-seen block of compression ratio 2.0.
pub fn synth_block(seed: u64) -> Vec<u8> {
    synthesize_block(seed, CHUNK, 2.0)
}

/// Zipf(0.99) ranks in `0..n`.
pub struct Zipf(ZipfSampler);

impl Zipf {
    pub fn new(n: usize, seed: u64) -> Self {
        Zipf(ZipfSampler::new(n, 0.99, seed))
    }

    pub fn sample(&mut self) -> usize {
        self.0.sample()
    }
}

/// The cluster workload's client population: `(volume blocks, writes)`,
/// each write a `(block, payload)` pair.
pub fn population_writes(
    clients: usize,
    blocks_per_client: u64,
    versions: u64,
    writes: usize,
    seed: u64,
) -> (u64, Vec<(u64, Vec<u8>)>) {
    let mut pop = ClientPopulation::new(PopulationConfig {
        clients,
        blocks_per_client,
        versions,
        seed,
        ..PopulationConfig::default()
    });
    let blocks = pop.volume_blocks();
    let writes = (0..writes)
        .map(|_| {
            let w = pop.next_write();
            (w.block, w.data)
        })
        .collect();
    (blocks, writes)
}

/// Hex SHA-1 of `data` — used for `sim_digest`, never for verification
/// (read-back is compared byte for byte against the benchmark's model, so
/// a broken hash in the program cannot vouch for itself).
pub fn sha1_hex(data: &[u8]) -> String {
    sha1_digest(data).to_hex()
}

// ---------------------------------------------------------------------
// Simulated-clock counters, read from the public `Report`.

/// The `Report` fields that define a run's simulated behaviour. All are
/// exact functions of the inputs; `sim_digest` hashes them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounters {
    pub chunks: u64,
    pub bytes_in: u64,
    pub dedup_hits: u64,
    pub buffer_hits: u64,
    pub tree_hits: u64,
    pub unique_chunks: u64,
    pub stored_bytes: u64,
    /// Slowest node's write frontier.
    pub reduction_end_ns: u64,
    /// Slowest node's acknowledgement frontier (`last_ack`): the journal
    /// grant of the latest write, or `reduction_end` with journaling off.
    pub ack_ns: u64,
    pub ssd_end_ns: u64,
    pub read_end_ns: u64,
    pub reads: u64,
    pub read_bytes: u64,
    pub read_cache_hits: u64,
    pub gpu_decomp_batches: u64,
    pub gpu_index_queries: u64,
    pub gpu_index_hits: u64,
    pub gpu_comp_batches: u64,
    pub bin_flushes: u64,
    pub ssd_writes: u64,
    pub ssd_bytes_written: u64,
    pub gpu_kernels: u64,
    pub gpu_busy_ns: u64,
    pub cpu_busy_ns: u64,
    /// Worst node's NAND write amplification.
    pub write_amp: f64,
    /// Chunks per node (one entry for a single-node system).
    pub node_chunks: Vec<u64>,
}

impl SimCounters {
    fn absorb(&mut self, r: &Report, last_ack: SimTime) {
        self.ack_ns = self.ack_ns.max(last_ack.as_nanos());
        self.chunks += r.chunks;
        self.bytes_in += r.bytes_in;
        self.dedup_hits += r.dedup_hits;
        self.buffer_hits += r.buffer_hits;
        self.tree_hits += r.tree_hits;
        self.unique_chunks += r.unique_chunks;
        self.stored_bytes += r.stored_bytes;
        self.reduction_end_ns = self.reduction_end_ns.max(r.reduction_end.as_nanos());
        self.ssd_end_ns = self.ssd_end_ns.max(r.ssd_end.as_nanos());
        self.read_end_ns = self.read_end_ns.max(r.read_end.as_nanos());
        self.reads += r.reads;
        self.read_bytes += r.read_bytes;
        self.read_cache_hits += r.read_cache_hits;
        self.gpu_decomp_batches += r.gpu_decomp_batches;
        self.gpu_index_queries += r.gpu_index_queries;
        self.gpu_index_hits += r.gpu_index_hits;
        self.gpu_comp_batches += r.gpu_comp_batches;
        self.bin_flushes += r.bin_flushes;
        self.ssd_writes += r.ssd_writes;
        self.ssd_bytes_written += r.ssd_bytes_written;
        self.gpu_kernels += r.gpu_kernels;
        self.gpu_busy_ns += r.gpu_busy.as_nanos();
        self.cpu_busy_ns += r.cpu_busy.as_nanos();
        self.write_amp = self.write_amp.max(r.write_amplification);
        self.node_chunks.push(r.chunks);
    }

    /// Acknowledged chunk writes per simulated second: chunks over the
    /// (slowest node's) acknowledgement frontier. With journaling off
    /// that frontier is `reduction_end` and this is `Report::iops()`;
    /// with it on, a write is only acknowledged once its journal record
    /// is durable, and this is the rate a client sees.
    pub fn acked_iops(&self) -> f64 {
        self.chunks as f64 / (self.ack_ns as f64 / 1e9)
    }
}

/// Most nodes a [`ReadClock`] tracks.
const MAX_NODES: usize = 8;

/// The read-side state of every node's `Report` at one instant: when a
/// read issued now would start on that node's simulated clock, when its
/// last read ended, and the running read / cache-hit counts. Taken before
/// and after a read call, two of these give the call's simulated service
/// time and its cache hits without any program-side tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadClock {
    /// `(issue_ns, read_end_ns)` per node.
    nodes: [(u64, u64); MAX_NODES],
    pub reads: u64,
    pub cache_hits: u64,
}

impl ReadClock {
    fn absorb(&mut self, node: usize, r: &Report) {
        self.nodes[node] = (
            r.read_end.max(r.reduction_end).as_nanos(),
            r.read_end.as_nanos(),
        );
        self.reads += r.reads;
        self.cache_hits += r.read_cache_hits;
    }

    fn of(r: &Report) -> Self {
        let mut c = ReadClock::default();
        c.absorb(0, r);
        c
    }

    /// Simulated nanoseconds the read call between `self` and `after`
    /// took: nodes serve their shares in parallel, so the slowest node
    /// whose clock moved sets it.
    pub fn sim_ns_until(&self, after: &ReadClock) -> u64 {
        self.nodes
            .iter()
            .zip(&after.nodes)
            .filter(|(b, a)| a.1 != b.1)
            .map(|(b, a)| a.1.saturating_sub(b.0))
            .max()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// The traced repetition's metric snapshot, flattened.

/// Count and sum of one program-side histogram. (Its quantiles are
/// log-bucketed: two runs read the same bucket edge, so they are not
/// reported.)
#[derive(Debug, Clone, Copy, Default)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
}

/// Counters and histograms of the traced repetition under the
/// single-node names (`destage.appends`, `compress.wall_ns`, ...). For a
/// cluster these are the `cluster.*` aggregates of the roll-up.
#[derive(Debug, Clone, Default)]
pub struct LayerObs {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl LayerObs {
    fn from_snapshot(s: &Snapshot, prefix: &str) -> Self {
        let strip = |name: &str| name.strip_prefix(prefix).map(str::to_owned);
        LayerObs {
            counters: s
                .counters
                .iter()
                .filter_map(|(n, v)| Some((strip(n)?, *v)))
                .collect(),
            hists: s
                .histograms
                .iter()
                .filter_map(|(n, h)| {
                    let hist = Hist {
                        count: h.count,
                        sum: h.sum,
                    };
                    Some((strip(n)?, hist))
                })
                .collect(),
        }
    }

    /// What was recorded after `base` was taken.
    pub fn since(mut self, base: &LayerObs) -> LayerObs {
        for (name, v) in &mut self.counters {
            *v -= base.counter(name);
        }
        for (name, h) in &mut self.hists {
            let b = base.hist(name);
            h.count -= b.count;
            h.sum -= b.sum;
        }
        self
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(name).copied().unwrap_or_default()
    }
}

// ---------------------------------------------------------------------
// The three front doors.

/// What every front door offers a workload. Errors are rendered to
/// strings: the benchmark counts them, it never branches on their kind.
pub trait Store {
    /// Writes whole chunks at `block`.
    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String>;
    /// The single-block read entry point.
    fn read_one(&mut self, block: u64) -> Result<Vec<u8>, String>;
    /// The batched read entry point.
    fn read_batch(&mut self, blocks: &[u64]) -> Result<Vec<Vec<u8>>, String>;
    /// Flushes open destage state to the device.
    fn flush(&mut self) -> Result<(), String>;
    fn read_clock(&self) -> ReadClock;
    fn counters(&self) -> SimCounters;
    /// The live registry's snapshot (empty unless `observed`).
    fn layer_obs(&self) -> LayerObs;
}

fn single_node_obs(obs: &ObsHandle) -> LayerObs {
    obs.snapshot()
        .map(|s| LayerObs::from_snapshot(&s, ""))
        .unwrap_or_default()
}

fn single_node_counters(r: &Report, last_ack: SimTime) -> SimCounters {
    let mut c = SimCounters::default();
    c.absorb(r, last_ack);
    c
}

/// A bare `Pipeline` (the `bulk_ingest` system). It has no block
/// addresses: a write appends to the stream and block `i` is the `i`-th
/// chunk ingested, so writes must arrive in stream order.
pub struct BarePipeline(Pipeline);

impl BarePipeline {
    pub fn new(c: SysConfig) -> Self {
        BarePipeline(with_spawned_threads_elsewhere(|| {
            Pipeline::new(pipeline_config(c))
        }))
    }
}

impl Store for BarePipeline {
    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String> {
        assert_eq!(
            block as usize,
            self.0.ingested_chunks(),
            "a bare pipeline only appends"
        );
        black_box(self.0.run(data));
        Ok(())
    }

    fn read_one(&mut self, block: u64) -> Result<Vec<u8>, String> {
        self.0.read_block(block as usize).map_err(|e| e.to_string())
    }

    fn read_batch(&mut self, blocks: &[u64]) -> Result<Vec<Vec<u8>>, String> {
        let indices: Vec<usize> = blocks.iter().map(|&b| b as usize).collect();
        self.0.read_blocks(&indices).map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.0.flush().map_err(|e| e.to_string())
    }

    fn read_clock(&self) -> ReadClock {
        ReadClock::of(self.0.report())
    }

    fn counters(&self) -> SimCounters {
        single_node_counters(self.0.report(), self.0.last_ack())
    }

    fn layer_obs(&self) -> LayerObs {
        single_node_obs(self.0.obs())
    }
}

/// What `Array::crash_and_recover` found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    pub records_replayed: u64,
    pub chunks_recovered: u64,
}

/// A `VolumeManager` with one volume (`dedup_ingest`, `read_mix`, and
/// the cluster workload's bare replay).
pub struct Array(VolumeManager);

const VOL: &str = "vol";

impl Array {
    pub fn new(c: SysConfig, blocks: u64) -> Result<Self, String> {
        let mut vm = with_spawned_threads_elsewhere(|| VolumeManager::new(pipeline_config(c)));
        vm.create_volume(VOL, blocks).map_err(|e| e.to_string())?;
        Ok(Array(vm))
    }

    /// Simulated instant the latest write was acknowledged at.
    pub fn last_ack_ns(&self) -> u64 {
        self.0.last_ack().as_nanos()
    }

    /// Cuts power at simulated instant `at_ns` and restarts from the
    /// journal.
    pub fn crash_and_recover(&mut self, at_ns: u64, torn_seed: u64) -> Result<Recovery, String> {
        let outcome = self
            .0
            .crash_and_recover(CrashSpec {
                at: SimTime::from_nanos(at_ns),
                torn_seed,
            })
            .map_err(|e| e.to_string())?;
        Ok(Recovery {
            records_replayed: outcome.records_replayed,
            chunks_recovered: outcome.chunks_recovered,
        })
    }
}

impl Store for Array {
    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String> {
        self.0.write(VOL, block, data).map_err(|e| e.to_string())
    }

    fn read_one(&mut self, block: u64) -> Result<Vec<u8>, String> {
        self.0.read(VOL, block).map_err(|e| e.to_string())
    }

    fn read_batch(&mut self, blocks: &[u64]) -> Result<Vec<Vec<u8>>, String> {
        self.0.read_batch(VOL, blocks).map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.0.pipeline_mut().flush().map_err(|e| e.to_string())
    }

    fn read_clock(&self) -> ReadClock {
        ReadClock::of(self.0.report())
    }

    fn counters(&self) -> SimCounters {
        single_node_counters(self.0.report(), self.0.last_ack())
    }

    fn layer_obs(&self) -> LayerObs {
        single_node_obs(self.0.pipeline().obs())
    }
}

/// A `Cluster` with one volume (`cluster_small_ops`).
pub struct ClusterSut {
    cluster: Cluster,
    nodes: Vec<u32>,
}

impl ClusterSut {
    /// `nodes` nodes sharing `c.workers` host threads, at least one each.
    pub fn new(c: SysConfig, nodes: usize, blocks: u64) -> Result<Self, String> {
        assert!(nodes <= MAX_NODES, "ReadClock tracks {MAX_NODES} nodes");
        let node = pipeline_config(SysConfig {
            workers: (c.workers / nodes).max(1),
            ..c
        });
        let mut cluster = with_spawned_threads_elsewhere(|| {
            Cluster::new(ClusterConfig {
                nodes,
                max_nodes: nodes,
                node,
                ..ClusterConfig::default()
            })
        });
        cluster
            .create_volume(VOL, blocks)
            .map_err(|e| e.to_string())?;
        let nodes = cluster.node_ids();
        Ok(ClusterSut { cluster, nodes })
    }
}

impl Store for ClusterSut {
    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String> {
        let outcome = self
            .cluster
            .write(VOL, block, data)
            .map_err(|e| e.to_string())?;
        black_box(outcome);
        Ok(())
    }

    fn read_one(&mut self, block: u64) -> Result<Vec<u8>, String> {
        self.cluster.read(VOL, block).map_err(|e| e.to_string())
    }

    fn read_batch(&mut self, blocks: &[u64]) -> Result<Vec<Vec<u8>>, String> {
        self.cluster
            .read_batch(VOL, blocks)
            .map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.cluster.flush().map_err(|e| e.to_string())
    }

    fn read_clock(&self) -> ReadClock {
        let mut c = ReadClock::default();
        for (i, &id) in self.nodes.iter().enumerate() {
            let node = self.cluster.node(id).expect("member node");
            c.absorb(i, node.vm.report());
        }
        c
    }

    fn counters(&self) -> SimCounters {
        let mut c = SimCounters::default();
        for &id in &self.nodes {
            let vm = &self.cluster.node(id).expect("member node").vm;
            c.absorb(vm.report(), vm.last_ack());
        }
        c
    }

    fn layer_obs(&self) -> LayerObs {
        LayerObs::from_snapshot(&self.cluster.rollup(), "cluster.")
    }
}

// ---------------------------------------------------------------------
// Kernel probes: one layer's public function over the workload's own
// chunks, with the same pool width.

/// Seconds one call of `f` takes.
fn time<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Median seconds per call of `f` over `rounds` calls.
fn time_median(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..rounds).map(|_| time(&mut f)).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Host-clock results of the kernel probes, in the units the per-layer
/// metrics report.
#[derive(Debug, Clone, Default)]
pub struct KernelProbes {
    pub chunking_mchunks_s: f64,
    pub sha1_mb_s: f64,
    pub sha1_1t_mb_s: f64,
    pub crc32c_mb_s: f64,
    pub index_insert_mops_s: f64,
    pub index_lookup_mops_s: f64,
    pub index_probe_batch_mops_s: f64,
    pub fastlz_mb_s: f64,
    pub fastlz_1t_mb_s: f64,
    pub gpu_functional_mb_s: f64,
    pub decompress_mb_s: f64,
    pub compress_ratio: f64,
    pub pool_dispatch_us: f64,
    pub pool_spawn_join_us: f64,
    pub ssd_write_page_ns: f64,
    pub ssd_read_page_ns: f64,
    pub gpu_launch_host_us: f64,
}

/// Runs every kernel probe over `sample` (whole chunks of the workload's
/// own data) on a pool of `workers`. `span` is called around each probe
/// with its name so the trace shows them.
pub fn kernel_probes(
    sample: &[u8],
    workers: usize,
    span: &mut dyn FnMut(&'static str, &mut dyn FnMut()),
) -> KernelProbes {
    const ROUNDS: usize = 5;
    let mb = sample.len() as f64 / 1e6;
    let pool = with_spawned_threads_elsewhere(|| WorkerPool::new(workers - 1));
    let views: Vec<&[u8]> = sample.chunks_exact(CHUNK).collect();
    let n = views.len();
    let mut p = KernelProbes::default();

    span("probe.chunking.fixed", &mut || {
        let chunker = FixedChunker::new(CHUNK);
        let s = time_median(ROUNDS, || {
            // `count()` alone is O(1) on this iterator; visit every chunk.
            for chunk in chunker.chunk(black_box(sample)) {
                black_box(chunk.data);
            }
        });
        p.chunking_mchunks_s = n as f64 / 1e6 / s;
    });

    let mut digests: Vec<ChunkDigest> = Vec::new();
    span("probe.hashes.sha1", &mut || {
        let s = time_median(ROUNDS, || {
            digests = hash_chunks_pooled(&pool, black_box(&views));
        });
        p.sha1_mb_s = mb / s;
        let s = time_median(ROUNDS, || {
            for v in &views {
                black_box(sha1_digest(black_box(v)));
            }
        });
        p.sha1_1t_mb_s = mb / s;
    });

    span("probe.hashes.crc32c", &mut || {
        let s = time_median(ROUNDS, || {
            black_box(crc32c(black_box(sample)));
        });
        p.crc32c_mb_s = mb / s;
    });

    span("probe.binindex", &mut || {
        let mut index = BinIndex::new(BinIndexConfig::default());
        let s = time(|| {
            for (i, d) in digests.iter().enumerate() {
                black_box(index.insert(*d, ChunkRef::new(i as u64 * CHUNK as u64, CHUNK as u32)));
            }
        });
        p.index_insert_mops_s = n as f64 / 1e6 / s;
        let s = time_median(ROUNDS, || {
            for d in &digests {
                black_box(index.lookup(d));
            }
        });
        p.index_lookup_mops_s = n as f64 / 1e6 / s;
        let queries: Vec<(ChunkDigest, ProbeKind)> =
            digests.iter().map(|d| (*d, ProbeKind::Full)).collect();
        let s = time_median(ROUNDS, || {
            for batch in queries.chunks(128) {
                black_box(index.probe_batch_on(&pool, batch));
            }
        });
        p.index_probe_batch_mops_s = n as f64 / 1e6 / s;
    });

    let codec = FastLz::new();
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); n];
    span("probe.compress.fastlz", &mut || {
        // The pipeline's own shape: recycled output buffers, one
        // `compress_to` per chunk, spread with `for_each_mut`.
        let s = time_median(ROUNDS, || {
            pool.for_each_mut(&mut frames, |i, out| codec.compress_to(views[i], out));
        });
        p.fastlz_mb_s = mb / s;
        let s = time_median(ROUNDS, || {
            for (v, out) in views.iter().zip(frames.iter_mut()) {
                codec.compress_to(v, out);
            }
        });
        p.fastlz_1t_mb_s = mb / s;
        let stored: usize = frames.iter().map(Vec::len).sum();
        p.compress_ratio = sample.len() as f64 / stored as f64;
    });

    span("probe.compress.gpu_functional", &mut || {
        let gpu = GpuCompressor::new(GpuCompressorConfig::default());
        let s = time_median(ROUNDS, || {
            for v in &views {
                black_box(gpu.compress_functional(black_box(v)));
            }
        });
        p.gpu_functional_mb_s = mb / s;
    });

    span("probe.compress.decompress", &mut || {
        let s = time_median(ROUNDS, || {
            for f in &frames {
                black_box(codec.decompress(black_box(f)).expect("own frame decodes"));
            }
        });
        p.decompress_mb_s = mb / s;
    });

    span("probe.pool.dispatch", &mut || {
        let mut samples: Vec<Duration> = (0..2000)
            .map(|_| {
                let start = Instant::now();
                pool.map_batch(workers, |i| {
                    black_box(i);
                });
                start.elapsed()
            })
            .collect();
        samples.sort();
        p.pool_dispatch_us = samples[samples.len() / 2].as_secs_f64() * 1e6;
        // The hand-off the pipeline pays per batch (its hash job): a job
        // spawned onto a pool thread and joined at once.
        let mut samples: Vec<Duration> = (0..2000)
            .map(|i| {
                let start = Instant::now();
                black_box(pool.spawn(move || black_box(i)).join());
                start.elapsed()
            })
            .collect();
        samples.sort();
        p.pool_spawn_join_us = samples[samples.len() / 2].as_secs_f64() * 1e6;
    });

    span("probe.ssd-sim.pages", &mut || {
        let mut ssd = SsdDevice::new(SsdSpec::samsung_830_256g());
        let mut now = SimTime::ZERO;
        let s = time(|| {
            for (lpn, page) in views.iter().enumerate() {
                now = ssd
                    .write_page(now, lpn as u64, page)
                    .expect("fault-free device")
                    .end;
            }
        });
        p.ssd_write_page_ns = s * 1e9 / n as f64;
        let s = time_median(ROUNDS, || {
            for lpn in 0..n as u64 {
                let (page, grant) = ssd.read_page(now, lpn).expect("fault-free device");
                now = grant.end;
                black_box(page);
            }
        });
        p.ssd_read_page_ns = s * 1e9 / n as f64;
    });

    span("probe.gpu-sim.launch", &mut || {
        let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
        let items = vec![WorkItemCost::compute(0); 128];
        let mut now = SimTime::ZERO;
        let launches = 2000;
        let s = time(|| {
            for _ in 0..launches {
                now = gpu
                    .launch(now, LaunchConfig::named("empty"), &items)
                    .expect("fault-free device")
                    .grant
                    .end;
            }
        });
        p.gpu_launch_host_us = s * 1e6 / launches as f64;
    });

    p
}
