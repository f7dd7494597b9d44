//! The write path: [`Pipeline::process_batch`] is the paper's stage list
//! — chunk → hash → index probe → compress → destage — and every stage is
//! a method here over one [`Batch`]. Real work fans out over the worker
//! pool; simulated costs are charged serially and in input order, so
//! pool scheduling never moves a simulated timestamp. The GPU is a
//! co-processor behind a CPU path that always works: each GPU stage goes
//! through its [`Guarded`](crate::degrade::Guarded) component and falls
//! back to the CPU arm with the burnt time as its floor.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use dr_binindex::{BinHit, ChunkRef, FlushEvent, GpuProbe, ProbeKind};
use dr_compress::{frame, Codec};
use dr_des::{Grant, SimTime};
use dr_hashes::{hash_chunks_into, sha1_digest, ChunkDigest};
use dr_obs::trace::{trace_args, TraceArgs, Tracer, Track};
use dr_pool::WorkerPool;

use crate::cpu_model::CpuModel;
use crate::journal::{BatchCommit, ChunkCommit, Record};
use crate::pipeline::Pipeline;
use crate::recovery::stage_record;

/// Unique chunks per participant below which CPU compression stays on the
/// submitter: two, so a write with four unique chunks fans out.
///
/// A participant's share must outweigh a hand-off to a worker that is
/// already awake (about 3 µs), not a wake-up. A write of 32 chunks or more
/// has woken the worker with its hash fan-out; a shorter one hashes on the
/// submitter, so this fan-out finds the worker awake only when the
/// previous write's hand-off was less than a spin window (40 µs) ago.
/// Measured on the 2-core reference host (one worker thread beside the
/// submitter, each pinned to its CPU, `FastLz::compress_to` on unique
/// 4 KiB VDI chunks; serial / fanned out to a spinning worker / fanned
/// out after a 2 ms sleep, µs, medians of 500, median of three runs):
/// 2 chunks 9.2 / 10.7 / 28.2, 3 chunks 24.3 / 18.1 / 39.7, 4 chunks
/// 32.4 / 19.4 / 46.3, 8 chunks 67.1 / 29.7 / 71.3, 16 chunks 152 /
/// 76.3 / 112. One chunk per participant does not repay the hand-off;
/// two do, to a spinning worker, and whole writes repay the wake-up:
/// DESIGN.md §9 has the write-level table that the rule answers to, and
/// `dr_compress`'s `KERNEL_FANOUT_GRAIN` a trial at sixteen.
const CPU_COMPRESS_FANOUT_GRAIN: usize = 2;

/// How deduplication resolved one chunk.
#[derive(Debug, PartialEq)]
enum DedupOutcome {
    /// No duplicate found anywhere: the chunk is unique.
    Unique,
    /// Duplicate of an already-stored chunk.
    Duplicate,
    /// Duplicate of the earlier chunk `first` of the *same* batch, which
    /// has not been destaged yet; the chunk is stored where `first` is.
    IntraBatchDuplicate { first: usize },
}

/// One chunk moving through the pipeline. Neither its bytes nor its
/// digest are carried here: they stay in the caller's write buffer and
/// the batch's digest list, and are reached through the [`Batch`] by
/// index, so a chunk never owns a copy of its data.
#[derive(Debug)]
struct InFlight {
    /// When the chunk's last completed stage finished.
    ready_at: SimTime,
    /// Dedup resolution.
    outcome: DedupOutcome,
    /// What the CPU index still has to search for the chunk once the GPU
    /// pass has run: `None` where the GPU found the duplicate.
    cpu_probe: Option<ProbeKind>,
    /// Where the chunk's bytes are stored: known at once for a duplicate,
    /// after destage for a unique chunk.
    stored: Option<ChunkRef>,
}

/// The write path's per-batch lists, kept by the pipeline and reused by
/// every batch, so a batch's stages allocate nothing once they have seen
/// a batch as large.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// The chunks of the batch in flight.
    chunks: Vec<InFlight>,
    /// The GPU index's answer per chunk.
    gpu_probes: Vec<GpuProbe>,
    /// The CPU index probes, and their answers.
    cpu_queries: Vec<(ChunkDigest, ProbeKind)>,
    cpu_hits: Vec<Option<(ChunkRef, BinHit)>>,
    /// Digest of each unique chunk so far in the batch → its index.
    firsts: HashMap<ChunkDigest, usize>,
    /// The batch's chunk commits, for its journal record.
    commits: Vec<ChunkCommit>,
    /// The digests of the batch in flight and of the one fingerprinted
    /// meanwhile, swapped batch by batch.
    pub(crate) digests: [Vec<ChunkDigest>; 2],
}

/// Chunk payloads for one batch: a view of the caller's own write buffer,
/// cut at `chunk_bytes` (the last chunk may be short).
///
/// Nothing on the ingest→hash→compress path copies a write: every stage,
/// and the pool job that fingerprints the next batch meanwhile (borrowing
/// through [`dr_pool::WorkerPool::join`]), reads the caller's slice.
#[derive(Clone, Copy)]
pub(crate) struct BatchPayload<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) chunk_bytes: usize,
}

impl<'a> BatchPayload<'a> {
    pub(crate) fn len(self) -> usize {
        self.data.len().div_ceil(self.chunk_bytes)
    }

    /// The `i`-th chunk.
    pub(crate) fn view(self, i: usize) -> &'a [u8] {
        let start = i * self.chunk_bytes;
        &self.data[start..(start + self.chunk_bytes).min(self.data.len())]
    }
}

/// A write with its fingerprints already taken: the bytes, cut at
/// `chunk_bytes`, and one [`ChunkDigest`] per chunk.
///
/// A front-end that has to fingerprint a write to decide where it goes —
/// the cluster routes by content — builds one of these, routes from
/// [`digests`](Self::digests), and hands each node its
/// [`slice`](Self::slice) through
/// [`VolumeManager::write_hashed`](crate::VolumeManager::write_hashed),
/// which then skips its own hashing pass.
///
/// ```
/// use dr_hashes::sha1_digest;
/// use dr_pool::WorkerPool;
/// use dr_reduction::HashedChunks;
///
/// let data = vec![7u8; 8192];
/// let mut digests = Vec::new();
/// let (write, _lanes) = HashedChunks::hash(&WorkerPool::new(0), &data, 4096, &mut digests);
/// assert_eq!(write.digests(), [sha1_digest(&data[..4096]); 2]);
/// assert_eq!(write.slice(1..2).data(), &data[4096..]);
/// ```
///
/// The pipeline stores a chunk under the digest it is given, so a view
/// must never carry a digest that was not computed from its bytes:
/// [`hash`](Self::hash) is the only constructor, the fields are private,
/// and debug builds hash again on entry and compare.
///
/// ```compile_fail
/// use dr_hashes::sha1_digest;
/// use dr_reduction::HashedChunks;
///
/// let data = vec![7u8; 4096];
/// // There is no way in for a digest the caller brought along.
/// let forged = HashedChunks {
///     data: &data,
///     chunk_bytes: 4096,
///     digests: &[sha1_digest(b"other bytes")],
/// };
/// ```
#[derive(Debug, Clone)]
pub struct HashedChunks<'a> {
    data: &'a [u8],
    chunk_bytes: usize,
    digests: &'a [ChunkDigest],
}

impl<'a> HashedChunks<'a> {
    /// Fingerprints `data` chunk by chunk (the last chunk may be short)
    /// over `pool` into `digests`, cleared and refilled — a front-end that
    /// keeps the list fingerprints every write without allocating — and
    /// views the bytes with them. Returns the view and how many chunks
    /// were hashed in SIMD lanes, for the caller's
    /// `hashing.multibuffer_chunks`.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_bytes` is zero.
    pub fn hash(
        pool: &WorkerPool,
        data: &'a [u8],
        chunk_bytes: usize,
        digests: &'a mut Vec<ChunkDigest>,
    ) -> (Self, usize) {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        let payload = BatchPayload { data, chunk_bytes };
        digests.clear();
        digests.resize(payload.len(), ChunkDigest::zero());
        let lanes = hash_chunks_into(pool, |i| payload.view(i), digests);
        let write = HashedChunks {
            data,
            chunk_bytes,
            digests,
        };
        (write, lanes)
    }

    /// The chunks `chunks` of this write, as a view of their own.
    ///
    /// # Panics
    ///
    /// Panics when the range reaches past the last chunk.
    pub fn slice(&self, chunks: Range<usize>) -> HashedChunks<'a> {
        let bytes =
            chunks.start * self.chunk_bytes..(chunks.end * self.chunk_bytes).min(self.data.len());
        HashedChunks {
            data: &self.data[bytes],
            chunk_bytes: self.chunk_bytes,
            digests: &self.digests[chunks],
        }
    }

    /// The write's bytes.
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// The chunk size the bytes were cut at.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// One digest per chunk, in order.
    pub fn digests(&self) -> &'a [ChunkDigest] {
        self.digests
    }

    /// True when every digest is its chunk's, each taken on its own —
    /// not the way the constructor took them; debug builds check it on
    /// entry.
    pub(crate) fn verify(&self) -> bool {
        let one_by_one = self.data.chunks(self.chunk_bytes).map(sha1_digest);
        one_by_one.eq(self.digests.iter().copied())
    }
}

/// Recycled frame output buffers: compression writes into pooled vectors
/// that return to the arena after destage, so the steady-state batch loop
/// allocates nothing per chunk. Growth is bounded by the pool capacity
/// (one buffer per chunk of a batch).
#[derive(Debug, Default)]
pub(crate) struct FrameArena {
    free: Vec<Vec<u8>>,
    cap: usize,
}

impl FrameArena {
    pub(crate) fn new(cap: usize) -> Self {
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

    pub(crate) fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// The sim-time window one stage of one batch covered, for its trace
/// span. Record-only: folded from grants the cost models hand out anyway,
/// so tracing never shifts a simulated timestamp.
#[derive(Default)]
struct Window(Option<(u64, u64)>);

impl Window {
    /// Widens the window to cover `[start, end]`.
    fn cover(&mut self, start: SimTime, end: SimTime) {
        let (start, end) = (start.as_nanos(), end.as_nanos());
        let (s, e) = self.0.unwrap_or((start, end));
        self.0 = Some((s.min(start), e.max(end)));
    }

    /// Widens the window to cover every instant in `instants`.
    fn cover_all(&mut self, instants: impl Iterator<Item = SimTime>) {
        instants.for_each(|t| self.cover(t, t));
    }

    /// Emits the stage span, if the window covered anything.
    fn emit(self, tracer: &Tracer, track: Track, name: &'static str, args: TraceArgs) {
        if let Some((start, end)) = self.0 {
            tracer.sim_span(track, name, start, end, args);
        }
    }
}

/// A sealed frame awaiting destage: chunk index, frame bytes, and the
/// instant the frame was sealed.
type Frame = (usize, Vec<u8>, SimTime);

/// One batch on its way through the stages.
struct Batch<'a> {
    /// Monotonic batch id, stamped onto trace events.
    id: u64,
    payload: BatchPayload<'a>,
    /// One fingerprint per chunk, in order.
    digests: &'a [ChunkDigest],
    /// The pipeline's reused [`BatchScratch::chunks`], one per chunk.
    chunks: Vec<InFlight>,
}

impl Pipeline {
    /// Processes one batch of chunks through chunk→hash→index→compress→
    /// destage, advancing the simulated clock. Fingerprints arrive
    /// precomputed (possibly overlapped with the previous batch); the
    /// simulated chunk+hash costs are charged here, serially and in input
    /// order, so the timeline is identical to a fully serial pipeline.
    pub(crate) fn process_batch(&mut self, payload: BatchPayload, digests: &[ChunkDigest]) {
        let mut batch = self.chunk_and_hash(payload, digests);
        if self.config.dedup_enabled {
            self.probe_index(&mut batch);
        }
        let frames = self.compress(&batch);
        self.destage(&mut batch, frames);
        self.map_and_commit(&batch);
        self.scratch.chunks = batch.chunks;
    }

    /// Stages 1+2: chunking and hashing (CPU, per chunk, no dependencies).
    /// Fingerprinting only exists on behalf of dedup; the paper's
    /// compression-only experiment does not hash.
    fn chunk_and_hash<'a>(
        &mut self,
        payload: BatchPayload<'a>,
        digests: &'a [ChunkDigest],
    ) -> Batch<'a> {
        let arrival = SimTime::ZERO; // closed loop: input is never the bottleneck
        let dedup_enabled = self.config.dedup_enabled;
        let id = self.batch_seq;
        self.batch_seq += 1;
        self.obs.batches.incr();
        let (mut chunk_win, mut hash_win) = (Window::default(), Window::default());
        let mut chunks = std::mem::take(&mut self.scratch.chunks);
        chunks.clear();
        chunks.extend((0..digests.len()).map(|i| {
            let len = payload.view(i).len();
            let chunk_cost =
                CpuModel::I7_3770K.chunk_cost(len) + CpuModel::I7_3770K.overhead_cost();
            self.obs.chunking.record_sim_ns(chunk_cost.as_nanos());
            let mut cost = chunk_cost;
            if dedup_enabled {
                let hash_cost = CpuModel::I7_3770K.hash_cost(len);
                self.obs.hashing.stage.record_sim_ns(hash_cost.as_nanos());
                cost += hash_cost;
            }
            let g = self.cpu.acquire(arrival, cost);
            // One CPU grant covers chunk-then-hash; split it at the
            // chunk/hash cost boundary for the per-stage tracks.
            let split = g.start + chunk_cost;
            chunk_win.cover(g.start, split);
            if dedup_enabled {
                hash_win.cover(split, g.end);
            }
            InFlight {
                ready_at: g.end,
                outcome: DedupOutcome::Unique,
                cpu_probe: Some(ProbeKind::Full),
                stored: None,
            }
        }));
        let batch = Batch {
            id,
            payload,
            digests,
            chunks,
        };
        let args = trace_args(&[("batch", id), ("chunks", batch.chunks.len() as u64)]);
        chunk_win.emit(&self.obs.tracer, Track::Chunk, "chunk", args);
        hash_win.emit(&self.obs.tracer, Track::Hash, "hash", args);
        self.report.chunks += batch.chunks.len() as u64;
        self.report.bytes_in += payload.data.len() as u64;
        batch
    }

    /// Stage 3: deduplication — optional GPU probe pass, then the CPU
    /// bin-buffer / bin-tree path for unresolved chunks (the paper's
    /// Fig. 1), then duplicates within the batch itself.
    fn probe_index(&mut self, batch: &mut Batch) {
        let mut win = Window::default();
        win.cover_all(batch.chunks.iter().map(|c| c.ready_at));
        let probe_span = self.obs.index_probe.span();
        self.gpu_probe(batch);
        self.cpu_probe(batch);
        probe_span.finish();
        self.resolve_intra_batch(batch);
        win.cover_all(batch.chunks.iter().map(|c| c.ready_at));
        let args = trace_args(&[("batch", batch.id), ("chunks", batch.chunks.len() as u64)]);
        win.emit(&self.obs.tracer, Track::Index, "index", args);
    }

    /// GPU indexing first, when assigned and not latched degraded (batch
    /// barrier at hash end). Narrows each chunk's [`InFlight::cpu_probe`]
    /// to what is left for the CPU.
    fn gpu_probe(&mut self, batch: &mut Batch) {
        let chunks = &mut batch.chunks;
        let batch_ready = chunks
            .iter()
            .map(|c| c.ready_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        let gpu_dedup = &self.fault.gpu_dedup;
        let gpu_index = (self.gpu_index.as_mut()).filter(|_| gpu_dedup.allow(batch_ready));
        let use_gpu = gpu_index.is_some();
        let routing = &self.obs.routing;
        let routed = if use_gpu {
            &routing.to_gpu
        } else {
            &routing.to_cpu
        };
        routed.add(chunks.len() as u64);
        self.obs.tracer.sim_instant(
            Track::Route,
            if use_gpu { "to-gpu" } else { "to-cpu" },
            batch_ready.as_nanos(),
            trace_args(&[("batch", batch.id), ("chunks", chunks.len() as u64)]),
        );
        let Some(gpu_index) = gpu_index else {
            return;
        };
        let (gpu, probes) = (&mut self.gpu, &mut self.scratch.gpu_probes);
        let looked_up = self.fault.gpu_dedup.attempt(
            batch_ready,
            |at| gpu_index.lookup_batch(at, gpu, batch.digests, probes),
            |report| report.done,
        );
        match looked_up {
            Ok(report) => {
                self.report.gpu_index_queries += report.queries as u64;
                self.report.gpu_index_hits += report.hits as u64;
                for (chunk, probe) in chunks.iter_mut().zip(probes.iter()) {
                    match *probe {
                        GpuProbe::Hit(r) => {
                            chunk.outcome = DedupOutcome::Duplicate;
                            chunk.stored = Some(r);
                            chunk.ready_at = report.done;
                            chunk.cpu_probe = None;
                            routing.gpu_hits.incr();
                        }
                        GpuProbe::AuthoritativeMiss => {
                            // Tree portion settled; recent (unflushed) inserts
                            // can still live in the CPU bin buffer — Fig. 1's
                            // "bin buffer is checked first" still applies.
                            chunk.ready_at = report.done;
                            chunk.cpu_probe = Some(ProbeKind::BufferOnly);
                            routing.gpu_authoritative_misses.incr();
                        }
                        GpuProbe::NeedsCpu => {
                            routing.gpu_needs_cpu.incr();
                            routing.to_cpu.incr();
                        }
                    }
                }
            }
            Err(floor) => {
                // Retries exhausted (or a hard fault): the GPU index is
                // latched degraded and the whole batch falls back to the
                // CPU index. Time burnt on the attempts is charged to
                // every chunk — degradation is never free.
                routing.to_cpu.add(chunks.len() as u64);
                for chunk in chunks.iter_mut() {
                    chunk.ready_at = chunk.ready_at.max(floor);
                }
            }
        }
    }

    /// CPU path: bin buffer first, then (when unsettled) the bin tree.
    /// The memory probes fan out over the persistent pool against the
    /// flat bin pages (disjoint bin shards, no locking); the simulated
    /// cost accounting below stays serial and in input order, so pool
    /// scheduling never affects simulated results.
    fn cpu_probe(&mut self, batch: &mut Batch) {
        let BatchScratch {
            cpu_queries: queries,
            cpu_hits: hits,
            ..
        } = &mut self.scratch;
        queries.clear();
        queries.extend(
            (batch.chunks.iter().zip(batch.digests))
                .filter_map(|(chunk, digest)| chunk.cpu_probe.map(|kind| (*digest, kind))),
        );
        self.index.probe_batch_into(&self.pool, queries, hits);
        // One hit per query, in the order the queries were planned.
        let planned = (batch.chunks.iter_mut()).filter_map(|c| Some((c.cpu_probe?, c)));
        for ((kind, chunk), &hit) in planned.zip(hits.iter()) {
            // Tree probes always pay the buffer scan first; a buffer-only
            // probe never reaches the tree.
            let cost = match (kind, hit) {
                (ProbeKind::BufferOnly, _) | (_, Some((_, BinHit::Buffer))) => {
                    CpuModel::I7_3770K.buffer_probe_cost()
                }
                _ => CpuModel::I7_3770K.buffer_probe_cost() + CpuModel::I7_3770K.tree_probe_cost(),
            };
            self.obs.index_probe.record_sim_ns(cost.as_nanos());
            chunk.ready_at = self.cpu.acquire(chunk.ready_at, cost).end;
            if let Some((r, place)) = hit {
                match place {
                    BinHit::Buffer => self.report.buffer_hits += 1,
                    BinHit::Tree => self.report.tree_hits += 1,
                }
                chunk.outcome = DedupOutcome::Duplicate;
                chunk.stored = Some(r);
            }
        }
        // Found by the GPU pass or just now: count it in the report.
        for (i, chunk) in batch.chunks.iter().enumerate() {
            if chunk.outcome == DedupOutcome::Duplicate {
                self.report.dedup_hits += 1;
                self.report.bytes_deduped += batch.payload.view(i).len() as u64;
            }
        }
    }

    /// Intra-batch duplicates: an earlier chunk of this batch may cover a
    /// later one. In the paper's per-chunk pipeline the index is updated
    /// before the next probe; batching must not lose those hits, so
    /// resolve them against the batch's unique chunks so far.
    fn resolve_intra_batch(&mut self, batch: &mut Batch) {
        let probe_cost = CpuModel::I7_3770K.buffer_probe_cost();
        let firsts = &mut self.scratch.firsts;
        firsts.clear();
        for (i, chunk) in batch.chunks.iter_mut().enumerate() {
            if chunk.outcome != DedupOutcome::Unique {
                continue;
            }
            match firsts.entry(batch.digests[i]) {
                Entry::Occupied(first) => {
                    // Found in the bin buffer, where the first instance's
                    // insert will have just landed.
                    self.obs.index_probe.record_sim_ns(probe_cost.as_nanos());
                    let g = self.cpu.acquire(chunk.ready_at, probe_cost);
                    chunk.ready_at = g.end;
                    chunk.outcome = DedupOutcome::IntraBatchDuplicate {
                        first: *first.get(),
                    };
                    self.report.dedup_hits += 1;
                    self.report.buffer_hits += 1;
                    self.report.bytes_deduped += batch.payload.view(i).len() as u64;
                }
                Entry::Vacant(slot) => {
                    slot.insert(i);
                }
            }
        }
    }

    /// Stage 4: seals a frame for every unique chunk — compressed on the
    /// GPU or the CPU, or raw when compression is off or being shed.
    fn compress(&mut self, batch: &Batch) -> Vec<Frame> {
        let (payload, chunks) = (batch.payload, &batch.chunks);
        let unique: Vec<usize> = (0..chunks.len())
            .filter(|&i| chunks[i].outcome == DedupOutcome::Unique)
            .collect();
        // While the SSD-write latch is open, reduction effort is shed:
        // frames are sealed raw so a struggling device gets the simplest
        // possible write path (reduction is best-effort, correctness is
        // not). Re-probes close the latch again.
        let raw = !self.config.compress_enabled || self.destage.ssd_write.is_degraded();
        let frames: Vec<Frame> = if raw {
            unique
                .iter()
                .map(|&i| {
                    let mut f = self.arena.take();
                    frame::seal_raw_into(payload.view(i), &mut f);
                    (i, f, chunks[i].ready_at)
                })
                .collect()
        } else {
            // Only real codec passes charge compression time and get a span.
            let mut win = Window::default();
            win.cover_all(unique.iter().map(|&i| chunks[i].ready_at));
            let span = self.obs.compress.span();
            let frames = if self.config.mode.gpu_compression() {
                self.gpu_compress(batch, &unique)
            } else {
                self.cpu_compress(batch, &unique, SimTime::ZERO)
            };
            span.finish();
            win.cover_all(frames.iter().map(|(_, _, sealed)| *sealed));
            let args = trace_args(&[("batch", batch.id), ("chunks", unique.len() as u64)]);
            win.emit(&self.obs.tracer, Track::Compress, "compress", args);
            frames
        };
        if self.config.compress_enabled && self.config.obs.is_enabled() {
            let in_bytes: i64 = unique.iter().map(|&i| payload.view(i).len() as i64).sum();
            let out_bytes: i64 = frames.iter().map(|(_, f, _)| f.len() as i64).sum();
            self.obs.compress_in_bytes.add(in_bytes);
            self.obs.compress_out_bytes.add(out_bytes);
        }
        frames
    }

    /// CPU compression: every unique chunk is one single-pass codec call,
    /// fanned out over the persistent pool into recycled arena buffers.
    /// The simulated cost accounting below stays serial and in input
    /// order, so pool scheduling never affects simulated results.
    ///
    /// `floor` is the earliest simulated instant any chunk may start —
    /// [`SimTime::ZERO`] on the normal path (a no-op), or the moment a
    /// failed GPU attempt handed the batch over when degrading.
    fn cpu_compress(&mut self, batch: &Batch, unique: &[usize], floor: SimTime) -> Vec<Frame> {
        let (payload, chunks) = (batch.payload, &batch.chunks);
        let codec = self.codec;
        let mut outs: Vec<(usize, Vec<u8>)> =
            unique.iter().map(|&i| (i, self.arena.take())).collect();
        self.pool
            .for_each_mut_grained(&mut outs, CPU_COMPRESS_FANOUT_GRAIN, |_, (i, buf)| {
                codec.compress_to(payload.view(*i), buf);
            });
        outs.into_iter()
            .map(|(i, frame_bytes)| {
                let len = payload.view(i).len();
                let ratio = len as f64 / frame_bytes.len() as f64;
                let cost = CpuModel::I7_3770K.compress_cost(len, ratio);
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
    fn gpu_compress(&mut self, batch: &Batch, unique: &[usize]) -> Vec<Frame> {
        if unique.is_empty() {
            return Vec::new();
        }
        let (payload, chunks) = (batch.payload, &batch.chunks);
        let batch_ready = unique
            .iter()
            .map(|&i| chunks[i].ready_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        if !self.fault.gpu_compress.allow(batch_ready) {
            return self.cpu_compress(batch, unique, SimTime::ZERO);
        }
        let views: Vec<&[u8]> = unique.iter().map(|&i| payload.view(i)).collect();
        let mut frames: Vec<Vec<u8>> = unique.iter().map(|_| self.arena.take()).collect();
        let (gpu_comp, gpu, pool) = (&mut self.gpu_comp, &mut self.gpu, &self.pool);
        let compressed = self.fault.gpu_compress.attempt(
            batch_ready,
            |at| gpu_comp.compress_batch(at, gpu, pool, &views, &mut frames),
            |report| report.gpu_done,
        );
        let report = match compressed {
            Ok(report) => report,
            Err(floor) => {
                for buf in frames {
                    self.arena.put(buf);
                }
                return self.cpu_compress(batch, unique, floor);
            }
        };
        self.report.gpu_comp_batches += 1;
        let per_chunk_raw = (report.raw_token_bytes as usize / unique.len()).max(1);
        unique
            .iter()
            .zip(frames)
            .map(|(&i, frame_bytes)| {
                let start = report.gpu_done.max(chunks[i].ready_at);
                let g = self
                    .cpu
                    .acquire(start, CpuModel::I7_3770K.post_process_cost(per_chunk_raw));
                // Per-chunk stage latency: kernel wait + CPU refinement
                // (batch-ready to frame-sealed on the simulated clock).
                self.obs
                    .compress
                    .record_sim_ns(g.end.saturating_duration_since(batch_ready).as_nanos());
                (i, frame_bytes, g.end)
            })
            .collect()
    }

    /// Stage 5: destages every sealed frame, then inserts its chunk into
    /// the index (a full bin buffer spills to the SSD and the GPU mirror).
    fn destage(&mut self, batch: &mut Batch, frames: Vec<Frame>) {
        let mut win = Window::default();
        for (i, mut frame_bytes, sealed) in frames {
            if self.config.verify {
                let back = frame::open(&frame_bytes).expect("self-check: frame must decode");
                assert_eq!(
                    back,
                    batch.payload.view(i),
                    "self-check: chunk round-trip failed"
                );
            }
            if self.config.integrity {
                // The integrity envelope: the frame's CRC-32C behind it, in
                // the frame's own buffer.
                dr_hashes::seal(&mut frame_bytes, 0);
            }
            self.report.stored_bytes += frame_bytes.len() as u64;
            let (chunk_ref, grants) = self.destage_frame(sealed, &frame_bytes);
            for g in grants {
                self.report.ssd_end = self.report.ssd_end.max(g.end);
                win.cover(g.start, g.end);
            }
            let chunk = &mut batch.chunks[i];
            chunk.stored = Some(chunk_ref);
            chunk.ready_at = if self.config.dedup_enabled {
                self.index_insert(batch.digests[i], chunk_ref, sealed)
            } else {
                sealed
            };
            self.report.unique_chunks += 1;
            // The frame has been copied out to the device: recycle its
            // buffer for the next batch.
            self.arena.put(frame_bytes);
        }
        let args = trace_args(&[("batch", batch.id)]);
        win.emit(&self.obs.tracer, Track::Destage, "destage", args);
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
    fn destage_frame(&mut self, ready: SimTime, stored: &[u8]) -> (ChunkRef, Vec<Grant>) {
        // Stage once, drain as often as needed: a failed drain leaves the
        // staged bytes buffered, so retrying must NOT re-append the frame
        // (doing so stored every faulted frame twice — dr-check seed 415).
        let r = self
            .destage
            .stage(stored)
            .unwrap_or_else(|e| panic!("destage failed: {e} (size the SSD to the workload)"));
        match self.destage.drain_full(ready, &mut self.ssd) {
            Ok(grants) => {
                // While degraded, only successes past the rest interval
                // count as probes (healthy latches make this a no-op).
                if self.destage.ssd_write.allow(ready) {
                    self.destage.ssd_write.succeeded(ready);
                }
                (r, grants)
            }
            Err(e) if e.is_transient() => {
                self.destage.ssd_write.failed(ready);
                let rest = ready + self.destage.ssd_write.reprobe_interval();
                let grants = self
                    .destage
                    .drain_full(rest, &mut self.ssd)
                    .unwrap_or_else(|e| panic!("destage failed after degraded rest: {e}"));
                self.destage.ssd_write.succeeded(rest);
                (r, grants)
            }
            Err(e) => panic!("destage failed: {e} (size the SSD to the workload)"),
        }
    }

    /// Inserts a freshly destaged chunk into the CPU index (charged on a
    /// simulated worker from `sealed`) and handles the bin flush an insert
    /// may force. Returns when the insert finished.
    fn index_insert(
        &mut self,
        digest: ChunkDigest,
        chunk_ref: ChunkRef,
        sealed: SimTime,
    ) -> SimTime {
        let g = self.cpu.acquire(sealed, CpuModel::I7_3770K.insert_cost());
        if let Some(flush) = self.index.insert(digest, chunk_ref) {
            self.report.bin_flushes += 1;
            // Sequential index write to the SSD. The spill is best-effort
            // (the authoritative index is in memory): a transient failure
            // after the destager's retries opens the SSD-write latch,
            // anything else is dropped.
            let bytes = flush.flushed_bytes(self.config.index.prefix_bytes);
            match self.destage.append_index(g.end, &mut self.ssd, bytes) {
                Ok(gs) => {
                    for fg in gs {
                        self.report.ssd_end = self.report.ssd_end.max(fg.end);
                    }
                }
                Err(e) if e.is_transient() => self.destage.ssd_write.failed(g.end),
                Err(_) => {}
            }
            self.mirror_flush(g.end, &flush);
        }
        g.end
    }

    /// Mirrors a bin flush into the GPU-resident bin — best-effort: a
    /// device fault opens the GPU-dedup latch and the mirror is skipped
    /// until a re-probe succeeds (host-side bins stay authoritative, so
    /// the worst case is a missed duplicate, never bad data).
    fn mirror_flush(&mut self, at: SimTime, flush: &FlushEvent) {
        let Some(gpu_index) = &mut self.gpu_index else {
            return;
        };
        if !self.fault.gpu_dedup.allow(at) {
            return;
        }
        let synced = if gpu_index.is_resident(flush.bin) {
            gpu_index.apply_flush(at, &mut self.gpu, flush)
        } else {
            // Mirror the *tree* portion only; buffer entries reach the
            // device with their flush.
            let entries: Vec<_> = self
                .index
                .bin(flush.bin)
                .iter_tree()
                .map(|(k, v)| (*k, *v))
                .collect();
            gpu_index.install_bin(at, &mut self.gpu, flush.bin, &entries)
        };
        match synced {
            Ok(t) => self.fault.gpu_dedup.succeeded(t),
            Err(_) => self.fault.gpu_dedup.failed(at),
        }
    }

    /// Closes the batch out: every chunk gets its logical-map entry, the
    /// reduction clock advances, and the batch commit is staged in the
    /// journal (the call's sync acknowledges it).
    fn map_and_commit(&mut self, batch: &Batch) {
        // Intra-batch duplicates point at the stored copy of their first
        // instance (destaged above).
        let base = self.recipe.len();
        self.recipe.extend(batch.chunks.iter().map(|c| {
            let owner = match c.outcome {
                DedupOutcome::IntraBatchDuplicate { first } => &batch.chunks[first],
                _ => c,
            };
            owner
                .stored
                .expect("every chunk resolves to a stored location")
        }));

        // Reduction completes when the last chunk finishes its last stage.
        for c in &batch.chunks {
            self.report.reduction_end = self.report.reduction_end.max(c.ready_at);
        }

        // Stage the batch commit, encoded straight into the journal tail.
        // Its programs — the pages it fills, and the sync that
        // acknowledges it — start no earlier than the destager's
        // `data_end`, so the record becoming durable implies every data
        // page below its frontier is durable too: this batch's, and a
        // partial page an earlier call flushed out of the tail the record
        // carries (write-ahead for the *metadata*, write-behind for the
        // data it points at).
        if self.journal.is_some() {
            let commits = &mut self.scratch.commits;
            commits.clear();
            commits.extend(
                batch
                    .chunks
                    .iter()
                    .zip(&self.recipe[base..])
                    .enumerate()
                    .map(|(i, (c, r))| ChunkCommit {
                        digest: batch.digests[i],
                        dup: c.outcome != DedupOutcome::Unique,
                        addr: r.addr(),
                        stored_len: r.stored_len(),
                        orig_len: batch.payload.view(i).len() as u32,
                    }),
            );
            let at = self.report.reduction_end.max(self.destage.data_end());
            let record = Record::BatchCommit(BatchCommit {
                frontier: self.destage.frontier(),
                chunks: Cow::Borrowed(commits),
            });
            stage_record(self.journal.as_mut(), &mut self.ssd, at, &record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_a_multi_group_write_with_a_short_last_chunk() {
        // Two full multi-buffer groups, six chunks of a third and a short
        // tail — every chunk different, so a digest in the wrong slot
        // shows.
        let data: Vec<u8> = (0..(2 * 16 + 6) * 4096 + 1000)
            .map(|i: usize| (i / 4096 * 37 + i % 251) as u8)
            .collect();
        let (pool, mut digests) = (WorkerPool::new(0), Vec::new());
        let (write, _) = HashedChunks::hash(&pool, &data, 4096, &mut digests);
        let one_by_one: Vec<ChunkDigest> = data.chunks(4096).map(sha1_digest).collect();
        assert_eq!(write.digests(), one_by_one);
        assert_eq!(write.digests().len(), 39);
        assert!(write.verify());
        let tail = write.slice(30..39);
        assert_eq!(tail.digests(), &one_by_one[30..]);
        assert!(tail.verify());
        assert!(HashedChunks::hash(&pool, &[], 4096, &mut digests)
            .0
            .digests()
            .is_empty());
    }
}
