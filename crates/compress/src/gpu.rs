//! The GPU sub-chunk compressor with CPU post-processing.
//!
//! Prior GPU LZ work (Ozsoy et al.) assumes large buffers that can fill a
//! GPU; a primary-storage system compresses 4 KB chunks, which cannot. The
//! paper's answer, reproduced here:
//!
//! 1. Assign **T threads per chunk**. Thread `t` compresses its own
//!    sub-region with a private history/look-ahead buffer; adjacent threads
//!    *overlap* by the history size, so thread `t` may emit matches
//!    reaching up to `history` bytes into thread `t−1`'s region.
//! 2. The per-thread raw token streams are **not refined on the GPU**
//!    ("due to performance issues") — the branchy merge would diverge.
//! 3. The **CPU post-processes**: it concatenates the streams in thread
//!    order (offsets are backward-relative, so they stay valid once the
//!    preceding regions are decoded), then seals the result with the
//!    stored-raw fallback when compression did not pay.
//!
//! Functionally the kernel runs on the host — data-parallel like the real
//! one, a [`dr_pool`] work item per chunk — and each thread writes wire
//! bytes straight into the chunk's frame, so steps 1 and 3 are one pass
//! with no token IR in between. A chunk's threads are emulated one after
//! another over the two-phase matcher of [`crate::fastlz`]: the chunk's
//! positions are hashed once, in a vector pass, and the regions are
//! resolved in ascending order over one match table. The table already
//! holds most of a region's private history when its turn comes (the
//! region before it just scanned that history), so each region stores
//! only what its predecessor left out — the bodies of long matches and
//! the few positions at its end — newest-wins: decision for decision
//! what `T` threads with a fresh table each would emit. The
//! [`dr_gpu_sim`] timing model charges transfer, launch and SIMT time as
//! if they were separate: the kernel for the raw per-thread streams, the
//! caller's CPU model for the refinement. The transfers are charged
//! against device buffers of the right size that are never backed with
//! host bytes: the emulation reads the caller's chunks where they are.

use dr_des::{Grant, SimTime};
use dr_gpu_sim::{
    GpuDevice, GpuError, KernelResources, LaunchConfig, LaunchReport, MemAccess, WorkItemCost,
};
use dr_obs::{CounterHandle, HistogramHandle, ObsHandle};
use dr_pool::WorkerPool;

use crate::error::CodecError;
use crate::fastlz::with_chunk_scan;
use crate::frame;

/// ALU cycles the kernel spends per input byte of region scanned
/// (hash + probe + compare on a GCN-class core).
const KERNEL_CYCLES_PER_BYTE: u64 = 16;

/// Chunks per participant below which the kernel's host emulation stays
/// on the calling thread: two, so a batch of four chunks fans out.
///
/// A participant's share must outweigh a hand-off to a worker that is
/// already awake (about 3 µs), not a wake-up: in the write path the hash
/// fan-out before this stage has just woken the worker, or the previous
/// write left it spinning. Measured on the 2-core reference host (one
/// worker thread beside the caller, each pinned to its CPU, paper-profile
/// 4 KiB chunks; `compress_batch` on an inline pool / fanned out to a
/// spinning worker / fanned out after a 2 ms sleep, µs, medians of 500,
/// median of three runs): 4 chunks 29.2 / 19.7 / 47.1, 6 chunks 37.0 /
/// 21.7 / 63.7, 8 chunks 54.9 / 32.8 / 76.4, 12 chunks 53.7 / 42.9 /
/// 91.6 (the three runs spread by up to 40 % on the inline column). That
/// is with the matcher's sixteen-lane probe step, at about half the cost
/// per chunk of the one-position loop, where the same table read 49.2 /
/// 29.9 / 63.7, 80.5 / 48.1 / 85.1, 81.0 / 53.7 / 97.4 and 157 / 90.7 /
/// 125. A hand-off to a spinning worker still wins from four chunks on;
/// one that has to wake a parked worker now loses up to twelve, where it
/// used to break even at eight. Two chunks stay the grain, because the
/// rule is judged per write, where the hash fan-out before this stage
/// has just woken the worker; DESIGN.md §9 has the write-level table
/// that the rule answers to, and a new grain needs that table re-measured.
const KERNEL_FANOUT_GRAIN: usize = 2;

/// Parameters of the GPU compression kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuCompressorConfig {
    /// Threads (work items) assigned to each chunk.
    pub threads_per_chunk: usize,
    /// Private history-buffer size; also the inter-thread overlap.
    pub history: usize,
}

impl Default for GpuCompressorConfig {
    /// 8 threads per 4 KB chunk with 512-byte histories.
    fn default() -> Self {
        GpuCompressorConfig {
            threads_per_chunk: 8,
            history: 512,
        }
    }
}

impl GpuCompressorConfig {
    fn validate(&self) {
        assert!(
            self.threads_per_chunk > 0,
            "need at least one thread per chunk"
        );
        assert!(self.history > 0, "history buffer must be non-empty");
    }
}

/// Timing summary of one batched GPU compression call.
#[derive(Debug, Clone)]
pub struct GpuBatchReport {
    /// Host→device staging of the chunk batch.
    pub h2d: Grant,
    /// The kernel launch.
    pub kernel: LaunchReport,
    /// Device→host return of the raw token streams.
    pub d2h: Grant,
    /// Total bytes of raw token streams the CPU must post-process.
    pub raw_token_bytes: u64,
    /// When the GPU side of the batch completed (before CPU post-processing).
    pub gpu_done: SimTime,
    /// What the launch was charged per work item: `threads_per_chunk`
    /// entries per chunk, in chunk then thread order.
    pub work_items: Vec<WorkItemCost>,
}

/// The GPU compression path.
///
/// # Example
///
/// ```
/// use dr_compress::{GpuCompressor, GpuCompressorConfig};
/// use dr_gpu_sim::{GpuDevice, GpuSpec};
/// use dr_des::SimTime;
/// use dr_pool::WorkerPool;
///
/// let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
/// let pool = WorkerPool::new(0);
/// let comp = GpuCompressor::new(GpuCompressorConfig::default());
/// let chunk = b"abcdabcdabcdabcd".repeat(256); // 4 KB
/// let mut frames = vec![Vec::new()];
/// let report = comp
///     .compress_batch(SimTime::ZERO, &mut gpu, &pool, &[chunk.as_slice()], &mut frames)
///     .unwrap();
/// assert!(frames[0].len() < chunk.len());
/// assert_eq!(dr_compress::frame::open(&frames[0]).unwrap(), chunk);
/// assert!(report.gpu_done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GpuCompressor {
    config: GpuCompressorConfig,
    obs: GpuCompressObs,
}

/// Interned `compress.*` metric handles for the GPU path; inert until
/// [`GpuCompressor::set_obs`].
#[derive(Debug, Clone, Default)]
struct GpuCompressObs {
    batches: CounterHandle,
    batch_chunks: HistogramHandle,
    in_bytes: CounterHandle,
    out_bytes: CounterHandle,
    raw_token_bytes: CounterHandle,
}

impl GpuCompressObs {
    fn new(obs: &ObsHandle) -> Self {
        GpuCompressObs {
            batches: obs.counter("compress.gpu_batches"),
            batch_chunks: obs.histogram("compress.gpu_batch_chunks"),
            in_bytes: obs.counter("compress.gpu_in_bytes"),
            out_bytes: obs.counter("compress.gpu_out_bytes"),
            raw_token_bytes: obs.counter("compress.gpu_raw_token_bytes"),
        }
    }
}

/// One chunk's slot in the kernel fan-out: where its frame goes, where its
/// threads report their costs, and what they tallied.
struct ChunkSlot<'a> {
    frame: &'a mut Vec<u8>,
    costs: &'a mut [WorkItemCost],
    raw_token_bytes: u64,
}

impl GpuCompressor {
    /// Creates the compressor.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent.
    pub fn new(config: GpuCompressorConfig) -> Self {
        config.validate();
        GpuCompressor {
            config,
            obs: GpuCompressObs::default(),
        }
    }

    /// The kernel parameters.
    pub fn config(&self) -> GpuCompressorConfig {
        self.config
    }

    /// Wires metrics into `obs` under the `compress.*` namespace: batch
    /// count and occupancy (chunks per batch), input/output bytes, and
    /// the raw token volume the CPU must post-process.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = GpuCompressObs::new(obs);
    }

    /// Compresses a batch of chunks on `gpu`, starting at `now`, sealing
    /// chunk `i` into `frames[i]` (cleared first, capacity reused — pass
    /// recycled buffers and the call allocates nothing per chunk).
    ///
    /// The kernel emulation fans out over `pool`, one work item per chunk
    /// (a batch under two `KERNEL_FANOUT_GRAIN`s runs on the caller);
    /// everything the simulated clock sees (work-item costs, launch and
    /// PCIe grants) is derived afterwards on the calling thread in chunk
    /// order, so pool width never shows in the report. The caller charges
    /// CPU time for post-processing using
    /// [`GpuBatchReport::raw_token_bytes`].
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when the batch does not fit in device
    /// memory; launch-level faults ([`GpuError::LaunchFailed`],
    /// [`GpuError::ProbeTimeout`], [`GpuError::DeviceLost`]) when the
    /// device's fault schedule injects them. Device buffers are freed on
    /// every exit, so a retry (or the CPU fallback) is safe; `frames`
    /// then holds no meaningful data.
    ///
    /// # Panics
    ///
    /// Panics when `frames` and `chunks` differ in length.
    pub fn compress_batch(
        &self,
        now: SimTime,
        gpu: &mut GpuDevice,
        pool: &WorkerPool,
        chunks: &[&[u8]],
        frames: &mut [Vec<u8>],
    ) -> Result<GpuBatchReport, GpuError> {
        assert_eq!(chunks.len(), frames.len(), "one frame buffer per chunk");
        let total_in: usize = chunks.iter().map(|c| c.len()).sum();

        // The batch is staged into one contiguous device buffer, charged
        // but not backed: the kernel runs on the host, against the
        // caller's slices.
        let in_len = total_in as u64;
        let report = gpu.with_buffer(in_len.max(1), |gpu, in_buf| {
            let h2d = gpu.charge_h2d(now, in_buf, 0, in_len)?;
            self.run_staged(gpu, pool, h2d, chunks, frames)
        })?;

        self.obs.batches.incr();
        self.obs.batch_chunks.record(chunks.len() as u64);
        self.obs.in_bytes.add(total_in as u64);
        self.obs
            .out_bytes
            .add(frames.iter().map(|f| f.len() as u64).sum());
        self.obs.raw_token_bytes.add(report.raw_token_bytes);
        Ok(report)
    }

    /// The body of [`GpuCompressor::compress_batch`] after its H2D, while
    /// the staging buffer is held: kernel, D2H.
    fn run_staged(
        &self,
        gpu: &mut GpuDevice,
        pool: &WorkerPool,
        h2d: Grant,
        chunks: &[&[u8]],
        frames: &mut [Vec<u8>],
    ) -> Result<GpuBatchReport, GpuError> {
        // "Kernel": every thread scans its region. Runs functionally on the
        // host, one pool work item per chunk; costs reported per GPU work
        // item. The CPU post-processing ("refinement") is fused in: thread
        // streams land in the frame in thread order, which *is* the merge,
        // and the frame is sealed in place with the stored-raw fallback.
        let t = self.config.threads_per_chunk;
        let mut work_items = vec![WorkItemCost::default(); chunks.len() * t];
        let mut slots: Vec<ChunkSlot> = frames
            .iter_mut()
            .zip(work_items.chunks_mut(t))
            .map(|(frame, costs)| ChunkSlot {
                frame,
                costs,
                raw_token_bytes: 0,
            })
            .collect();
        pool.for_each_mut_grained(&mut slots, KERNEL_FANOUT_GRAIN, |i, slot| {
            frame::seal_with(chunks[i], slot.frame, |chunk, payload| {
                slot.raw_token_bytes = self.scan_regions(chunk, payload, |thread, cost| {
                    slot.costs[thread] = cost;
                });
            });
        });
        let raw_token_bytes: u64 = slots.iter().map(|s| s.raw_token_bytes).sum();
        drop(slots);

        // The per-thread history buffers live in local memory (the paper's
        // "continuous data layout is useful when utilizing the GPU's local
        // memory"), which bounds occupancy.
        let resources = KernelResources {
            registers_per_item: 48,
            local_mem_per_group: (self.config.history as u32).saturating_mul(64).max(1),
            items_per_group: 64,
        };
        let kernel = gpu.launch(
            h2d.end,
            LaunchConfig::named("lz-subchunk").with_resources(resources),
            &work_items,
        )?;

        // Return raw streams to the host.
        let out_len = raw_token_bytes.max(1);
        let d2h = gpu.with_buffer(out_len, |gpu, out| {
            gpu.charge_d2h(kernel.grant.end, out, 0, out_len)
        })?;

        Ok(GpuBatchReport {
            h2d,
            kernel,
            gpu_done: d2h.end,
            d2h,
            raw_token_bytes,
            work_items,
        })
    }

    /// The one walk over a chunk's sub-regions: thread `t` scans region
    /// `t` with its private history window and appends its wire-encoded
    /// token stream to `payload`, in thread order. `report` receives each
    /// thread's kernel cost; the return value is the chunk's raw-token
    /// bytes (what the threads wrote out, before CPU refinement).
    fn scan_regions(
        &self,
        chunk: &[u8],
        payload: &mut Vec<u8>,
        mut report: impl FnMut(usize, WorkItemCost),
    ) -> u64 {
        let GpuCompressorConfig {
            threads_per_chunk,
            history,
        } = self.config;
        let stride = chunk.len().div_ceil(threads_per_chunk).max(1);
        with_chunk_scan(chunk, |scan| {
            let mut raw_token_bytes = 0;
            for thread in 0..threads_per_chunk {
                let start = (thread * stride).min(chunk.len());
                let end = ((thread + 1) * stride).min(chunk.len());
                let out_bytes = scan.region(start, end, history, payload);
                let region_bytes = (end - start) as u64;
                let window_bytes = region_bytes + history.min(start) as u64;
                raw_token_bytes += out_bytes;
                report(
                    thread,
                    WorkItemCost {
                        cycles: region_bytes * KERNEL_CYCLES_PER_BYTE,
                        mem: MemAccess {
                            // Linear scan of the region + its history
                            // window, plus the raw token stream written out.
                            coalesced_bytes: window_bytes + out_bytes,
                            uncoalesced_bytes: 0,
                        },
                    },
                );
            }
            raw_token_bytes
        })
    }

    /// Compresses one chunk without a device, for functional tests: the
    /// exact frame the GPU path produces, minus the timing.
    pub fn compress_functional(&self, chunk: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame::seal_with(chunk, &mut out, |chunk, payload| {
            self.scan_regions(chunk, payload, |_, _| {});
        });
        out
    }

    /// Decompresses a frame produced by this path.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from the shared frame decoder.
    pub fn decompress(&self, block: &[u8]) -> Result<Vec<u8>, CodecError> {
        frame::open(block)
    }

    /// Size in bytes of the encoded merged stream for `chunk`, without
    /// framing — used by capacity planning tests.
    pub fn encoded_len(&self, chunk: &[u8]) -> usize {
        let mut payload = Vec::new();
        self.scan_regions(chunk, &mut payload, |_, _| {});
        payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Codec, FastLz};
    use dr_gpu_sim::GpuSpec;

    fn gpu() -> GpuDevice {
        GpuDevice::new(GpuSpec::radeon_hd_7970())
    }

    fn compressor() -> GpuCompressor {
        GpuCompressor::new(GpuCompressorConfig::default())
    }

    /// `compress_batch` on an inline pool into fresh frame buffers.
    fn batch(
        c: &GpuCompressor,
        device: &mut GpuDevice,
        chunks: &[&[u8]],
    ) -> Result<(Vec<Vec<u8>>, GpuBatchReport), GpuError> {
        let mut frames = vec![Vec::new(); chunks.len()];
        let report = c.compress_batch(
            SimTime::ZERO,
            device,
            &WorkerPool::new(0),
            chunks,
            &mut frames,
        )?;
        Ok((frames, report))
    }

    #[test]
    fn round_trips_repetitive_chunk() {
        let chunk = b"0123456789abcdef".repeat(256); // 4 KB
        let c = compressor();
        let block = c.compress_functional(&chunk);
        assert!(block.len() < chunk.len());
        assert_eq!(c.decompress(&block).unwrap(), chunk);
    }

    #[test]
    fn round_trips_random_chunk_via_raw_fallback() {
        let mut state = 1u64;
        let chunk: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let c = compressor();
        let block = c.compress_functional(&chunk);
        assert!(block.len() <= chunk.len() + 5);
        assert_eq!(c.decompress(&block).unwrap(), chunk);
    }

    #[test]
    fn batch_path_matches_functional_path() {
        let chunks: Vec<Vec<u8>> = (0..16)
            .map(|i| format!("pattern-{i}!").into_bytes().repeat(400))
            .collect();
        let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let c = compressor();
        let (frames, report) = batch(&c, &mut gpu(), &views).unwrap();
        for (frame_bytes, chunk) in frames.iter().zip(&chunks) {
            assert_eq!(&c.decompress(frame_bytes).unwrap(), chunk);
            assert_eq!(frame_bytes, &c.compress_functional(chunk));
        }
        assert!(report.raw_token_bytes > 0);
        assert!(report.gpu_done >= report.kernel.grant.end);
    }

    #[test]
    fn a_fanned_out_batch_reports_what_an_inline_one_does() {
        // Four chunks are two kernel grains: on a 1-worker pool the
        // emulation fans out, yet frames and every charged figure are
        // derived in chunk order and match the inline pool's.
        let chunks: Vec<Vec<u8>> = (0..4)
            .map(|i| format!("chunk {i} / ").into_bytes().repeat(512)[..4096].to_vec())
            .collect();
        let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let c = compressor();
        let run = |pool: &WorkerPool| {
            let mut frames = vec![Vec::new(); views.len()];
            let report = c
                .compress_batch(SimTime::ZERO, &mut gpu(), pool, &views, &mut frames)
                .unwrap();
            (frames, report)
        };
        let (inline_frames, inline) = run(&WorkerPool::new(0));
        let threaded = WorkerPool::new(1);
        for _ in 0..8 {
            let (frames, report) = run(&threaded);
            assert_eq!(frames, inline_frames);
            assert_eq!(report.work_items, inline.work_items);
            assert_eq!(report.raw_token_bytes, inline.raw_token_bytes);
            assert_eq!(
                (report.h2d, report.kernel.grant, report.d2h, report.gpu_done),
                (inline.h2d, inline.kernel.grant, inline.d2h, inline.gpu_done)
            );
        }
    }

    #[test]
    fn timing_orders_h2d_kernel_d2h() {
        let chunk = vec![0u8; 4096];
        let c = compressor();
        let (_, report) = batch(&c, &mut gpu(), &[chunk.as_slice()]).unwrap();
        assert!(report.h2d.end <= report.kernel.grant.start);
        assert!(report.kernel.grant.end <= report.d2h.start);
    }

    #[test]
    fn device_memory_is_released() {
        let mut device = gpu();
        let chunk = vec![1u8; 4096];
        let c = compressor();
        for _ in 0..4 {
            batch(&c, &mut device, &[chunk.as_slice()]).unwrap();
        }
        assert_eq!(device.mem_used(), 0);
    }

    #[test]
    fn device_memory_is_released_when_the_output_buffer_does_not_fit() {
        // The staged input fills the device, so the alloc for the raw
        // token streams fails with the input buffer still live.
        let chunk = vec![3u8; 4096];
        let mut device = GpuDevice::new(GpuSpec {
            global_mem_bytes: chunk.len() as u64,
            ..GpuSpec::radeon_hd_7970()
        });
        let err = batch(&compressor(), &mut device, &[chunk.as_slice()]).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }), "{err:?}");
        assert_eq!(device.mem_used(), 0);
    }

    #[test]
    fn sub_chunk_parallelism_costs_some_ratio() {
        // T private histories can't see as far as one whole-chunk pass:
        // GPU output is allowed to be up to ~2x the CPU codec's, never 10x.
        let chunk: Vec<u8> = include_str!("token.rs").as_bytes()[..4096].to_vec();
        let whole = FastLz::new().compress(&chunk).len();
        let sub = compressor().compress_functional(&chunk).len();
        assert!(sub >= whole / 2, "sub {sub} whole {whole}");
        assert!(sub <= whole * 3, "sub {sub} whole {whole}");
    }

    #[test]
    fn more_threads_still_round_trip() {
        let chunk = b"abcabcabc".repeat(500);
        for t in [1, 2, 4, 16, 64] {
            let c = GpuCompressor::new(GpuCompressorConfig {
                threads_per_chunk: t,
                history: 128,
            });
            let block = c.compress_functional(&chunk);
            assert_eq!(c.decompress(&block).unwrap(), chunk, "threads = {t}");
        }
    }

    #[test]
    fn tiny_chunks_round_trip() {
        let c = compressor();
        for len in [0usize, 1, 2, 7, 63] {
            let chunk = vec![5u8; len];
            let block = c.compress_functional(&chunk);
            assert_eq!(c.decompress(&block).unwrap(), chunk, "len = {len}");
        }
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        let chunk = b"xyzxyzxyz".repeat(300);
        let c = compressor();
        let block = c.compress_functional(&chunk);
        // Frame adds 5 bytes of header over the raw encoding (LZ method).
        assert_eq!(block.len(), c.encoded_len(&chunk) + 5);
    }

    #[test]
    fn obs_records_batches_and_bytes() {
        let obs = ObsHandle::enabled("t");
        let mut c = compressor();
        c.set_obs(&obs);
        let chunks: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 4096]).collect();
        let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let (frames, report) = batch(&c, &mut gpu(), &views).unwrap();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("compress.gpu_batches"), 1);
        assert_eq!(counter("compress.gpu_in_bytes"), 3 * 4096);
        assert_eq!(
            counter("compress.gpu_out_bytes"),
            frames.iter().map(|f| f.len() as u64).sum::<u64>()
        );
        assert_eq!(
            counter("compress.gpu_raw_token_bytes"),
            report.raw_token_bytes
        );
        let (_, occ) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "compress.gpu_batch_chunks")
            .expect("batch occupancy recorded");
        assert_eq!((occ.count, occ.max), (1, 3));
    }

    #[test]
    #[should_panic(expected = "thread per chunk")]
    fn zero_threads_rejected() {
        GpuCompressor::new(GpuCompressorConfig {
            threads_per_chunk: 0,
            history: 512,
        });
    }
}
