//! The GPU decompression path (read-side mirror of [`crate::gpu`]).
//!
//! Follows Sitaridi et al.'s two-phase massively-parallel decompression:
//! a **token-split** kernel scans each frame's compressed stream and
//! deals tokens round-robin to sub-blocks, then a **sub-block copy**
//! kernel replays them — literal runs as coalesced copies, match
//! back-references as uncoalesced gathers (see `dr_gpu_sim::decomp` for
//! the cost model). A 4 KB frame cannot fill a GPU alone, so frames are
//! batched and each contributes `subblocks_per_chunk` phase-2 work items.
//!
//! As everywhere in this workspace, the kernel runs *functionally on the
//! host* — the decoded bytes are exactly [`frame::open`]'s, so GPU-routed
//! reads are bit-identical to CPU-routed ones — while the device model
//! charges transfer, launch, and SIMT time on the simulated clock.

use dr_des::{Grant, SimTime};
use dr_gpu_sim::{
    subblock_copy_items, token_split_items, BufferId, DecompChunkShape, GpuDevice, GpuError,
    KernelResources, LaunchConfig, LaunchReport,
};
use dr_obs::{CounterHandle, HistogramHandle, ObsHandle};

use crate::error::CodecError;
use crate::frame;
use crate::gpu::with_staging_buffer;

/// Parameters of the GPU decompression kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuDecompressorConfig {
    /// Sub-blocks (phase-2 work items) assigned to each frame.
    pub subblocks_per_chunk: usize,
}

impl Default for GpuDecompressorConfig {
    /// 8 sub-blocks per 4 KB frame, matching the write path's
    /// threads-per-chunk.
    fn default() -> Self {
        GpuDecompressorConfig {
            subblocks_per_chunk: 8,
        }
    }
}

impl GpuDecompressorConfig {
    fn validate(&self) {
        assert!(
            self.subblocks_per_chunk > 0,
            "need at least one sub-block per chunk"
        );
    }
}

/// Timing summary of one batched GPU decompression call.
#[derive(Debug, Clone)]
pub struct GpuDecompReport {
    /// Host→device staging of the frame batch.
    pub h2d: Grant,
    /// The token-split launch (phase 1).
    pub split: LaunchReport,
    /// The sub-block copy launch (phase 2).
    pub copy: LaunchReport,
    /// Device→host return of the decompressed chunks.
    pub d2h: Grant,
    /// When the GPU side of the batch completed.
    pub gpu_done: SimTime,
}

/// Interned `decompress.*` metric handles; inert until
/// [`GpuDecompressor::set_obs`].
#[derive(Debug, Clone, Default)]
struct GpuDecompObs {
    batches: CounterHandle,
    batch_chunks: HistogramHandle,
    in_bytes: CounterHandle,
    out_bytes: CounterHandle,
}

impl GpuDecompObs {
    fn new(obs: &ObsHandle) -> Self {
        GpuDecompObs {
            batches: obs.counter("decompress.gpu_batches"),
            batch_chunks: obs.histogram("decompress.gpu_batch_chunks"),
            in_bytes: obs.counter("decompress.gpu_in_bytes"),
            out_bytes: obs.counter("decompress.gpu_out_bytes"),
        }
    }
}

/// The GPU decompression path.
///
/// # Example
///
/// ```
/// use dr_compress::{Codec, FastLz, GpuDecompressor, GpuDecompressorConfig};
/// use dr_gpu_sim::{GpuDevice, GpuSpec};
/// use dr_des::SimTime;
///
/// let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
/// let chunk = b"abcdabcdabcdabcd".repeat(256);
/// let frame = FastLz::new().compress(&chunk);
/// let d = GpuDecompressor::new(GpuDecompressorConfig::default());
/// let (out, report) = d
///     .decompress_batch(SimTime::ZERO, &mut gpu, &[frame.as_slice()])
///     .unwrap();
/// assert_eq!(out[0].as_ref().unwrap(), &chunk);
/// assert!(report.gpu_done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GpuDecompressor {
    config: GpuDecompressorConfig,
    obs: GpuDecompObs,
}

impl GpuDecompressor {
    /// Creates the decompressor.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent.
    pub fn new(config: GpuDecompressorConfig) -> Self {
        config.validate();
        GpuDecompressor {
            config,
            obs: GpuDecompObs::default(),
        }
    }

    /// The kernel parameters.
    pub fn config(&self) -> GpuDecompressorConfig {
        self.config
    }

    /// Wires metrics into `obs` under the `decompress.*` namespace.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = GpuDecompObs::new(obs);
    }

    /// Decompresses a batch of sealed frames on `gpu`, starting at `now`.
    ///
    /// Returns one per-frame decode result — corrupt frames surface their
    /// [`CodecError`] individually rather than poisoning the batch — plus
    /// the two-launch GPU timing report.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when the batch does not fit in device
    /// memory; launch-level faults ([`GpuError::LaunchFailed`],
    /// [`GpuError::ProbeTimeout`], [`GpuError::DeviceLost`]) when the
    /// device's fault schedule injects them — device buffers are freed on
    /// every exit, so a retry (or CPU fallback) is safe.
    #[allow(clippy::type_complexity)]
    pub fn decompress_batch(
        &self,
        now: SimTime,
        gpu: &mut GpuDevice,
        frames: &[&[u8]],
    ) -> Result<(Vec<Result<Vec<u8>, CodecError>>, GpuDecompReport), GpuError> {
        let total_in: usize = frames.iter().map(|f| f.len()).sum();

        // The frame batch is staged into one contiguous device buffer.
        let (outputs, report) =
            with_staging_buffer(gpu, now, total_in as u64, |gpu, h2d, out_buf| {
                self.run_staged(gpu, h2d, out_buf, frames)
            })?;

        self.obs.batches.incr();
        self.obs.batch_chunks.record(frames.len() as u64);
        self.obs.in_bytes.add(total_in as u64);
        self.obs.out_bytes.add(
            outputs
                .iter()
                .map(|o| o.as_ref().map_or(0, |bytes| bytes.len() as u64))
                .sum(),
        );
        Ok((outputs, report))
    }

    /// The body of [`GpuDecompressor::decompress_batch`] inside
    /// [`with_staging_buffer`], after its H2D: both kernels, D2H.
    #[allow(clippy::type_complexity)]
    fn run_staged(
        &self,
        gpu: &mut GpuDevice,
        h2d: Grant,
        out_buf: &mut Option<BufferId>,
        frames: &[&[u8]],
    ) -> Result<(Vec<Result<Vec<u8>, CodecError>>, GpuDecompReport), GpuError> {
        // Functional decode on the host; token shapes feed the cost model.
        // A frame that fails to decode still cost the split pass its scan.
        let mut outputs = Vec::with_capacity(frames.len());
        let mut shapes = Vec::with_capacity(frames.len());
        let mut total_out = 0u64;
        for f in frames {
            match frame::open_with_stats(f) {
                Ok((bytes, stats)) => {
                    total_out += bytes.len() as u64;
                    shapes.push(DecompChunkShape {
                        frame_bytes: stats.frame_bytes as u64,
                        output_bytes: stats.output_bytes as u64,
                        tokens: stats.tokens as u64,
                        literal_bytes: stats.literal_bytes as u64,
                        match_bytes: stats.match_bytes as u64,
                    });
                    outputs.push(Ok(bytes));
                }
                Err(e) => {
                    shapes.push(DecompChunkShape {
                        frame_bytes: f.len() as u64,
                        ..DecompChunkShape::default()
                    });
                    outputs.push(Err(e));
                }
            }
        }

        // Phase 1: token split. Per-token boundary descriptors live in
        // local memory, bounding occupancy like the write path's histories.
        let resources = KernelResources {
            registers_per_item: 32,
            local_mem_per_group: 4 * 1024,
            items_per_group: 64,
        };
        let split = gpu.launch(
            h2d.end,
            LaunchConfig::named("lz-token-split").with_resources(resources),
            &token_split_items(&shapes),
        )?;

        // Phase 2: round-robin sub-block copy.
        let copy = gpu.launch(
            split.grant.end,
            LaunchConfig::named("lz-subblock-copy").with_resources(resources),
            &subblock_copy_items(&shapes, self.config.subblocks_per_chunk),
        )?;

        // Return the decompressed chunks to the host.
        let out = gpu.alloc(total_out.max(1))?;
        *out_buf = Some(out);
        let d2h = gpu.charge_d2h(copy.grant.end, out, 0, total_out.max(1))?;

        Ok((
            outputs,
            GpuDecompReport {
                h2d,
                split,
                copy,
                gpu_done: d2h.end,
                d2h,
            },
        ))
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

    fn decompressor() -> GpuDecompressor {
        GpuDecompressor::new(GpuDecompressorConfig::default())
    }

    #[test]
    fn batch_output_is_bit_identical_to_frame_open() {
        let codec = FastLz::new();
        let chunks: Vec<Vec<u8>> = (0..8)
            .map(|i| format!("block-{i}/").into_bytes().repeat(500))
            .collect();
        let frames: Vec<Vec<u8>> = chunks.iter().map(|c| codec.compress(c)).collect();
        let views: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let (out, report) = decompressor()
            .decompress_batch(SimTime::ZERO, &mut gpu(), &views)
            .unwrap();
        for ((got, frame_bytes), chunk) in out.iter().zip(&frames).zip(&chunks) {
            assert_eq!(got.as_ref().unwrap(), chunk);
            assert_eq!(got.as_ref().unwrap(), &frame::open(frame_bytes).unwrap());
        }
        assert!(report.gpu_done > SimTime::ZERO);
    }

    #[test]
    fn timing_orders_h2d_split_copy_d2h() {
        let frame_bytes = FastLz::new().compress(&vec![7u8; 4096]);
        let (_, report) = decompressor()
            .decompress_batch(SimTime::ZERO, &mut gpu(), &[frame_bytes.as_slice()])
            .unwrap();
        assert!(report.h2d.end <= report.split.grant.start);
        assert!(report.split.grant.end <= report.copy.grant.start);
        assert!(report.copy.grant.end <= report.d2h.start);
        assert_eq!(report.gpu_done, report.d2h.end);
    }

    #[test]
    fn corrupt_frames_fail_individually_not_the_batch() {
        let good = FastLz::new().compress(b"hello hello hello hello");
        let bad = vec![9u8, 0, 0, 0, 0]; // unknown method byte
        let (out, _) = decompressor()
            .decompress_batch(SimTime::ZERO, &mut gpu(), &[good.as_slice(), &bad])
            .unwrap();
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(CodecError::BadHeader)));
    }

    #[test]
    fn device_memory_is_released() {
        let mut device = gpu();
        let frame_bytes = FastLz::new().compress(&vec![1u8; 4096]);
        let d = decompressor();
        for _ in 0..4 {
            d.decompress_batch(SimTime::ZERO, &mut device, &[frame_bytes.as_slice()])
                .unwrap();
        }
        assert_eq!(device.mem_used(), 0);
    }

    #[test]
    fn device_memory_is_released_when_the_output_buffer_does_not_fit() {
        // The device holds the staged frame but not the 4 KB it decodes
        // to: the output alloc fails with the input buffer still live.
        let frame_bytes = FastLz::new().compress(&vec![1u8; 4096]);
        let mut device = GpuDevice::new(GpuSpec {
            global_mem_bytes: frame_bytes.len() as u64 + 1024,
            ..GpuSpec::radeon_hd_7970()
        });
        let err = decompressor()
            .decompress_batch(SimTime::ZERO, &mut device, &[frame_bytes.as_slice()])
            .unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }), "{err:?}");
        assert_eq!(device.mem_used(), 0);
    }

    #[test]
    fn obs_records_batches_and_bytes() {
        let obs = ObsHandle::enabled("t");
        let mut d = decompressor();
        d.set_obs(&obs);
        let chunk = b"abcabc".repeat(700);
        let frame_bytes = FastLz::new().compress(&chunk);
        d.decompress_batch(SimTime::ZERO, &mut gpu(), &[frame_bytes.as_slice()])
            .unwrap();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("decompress.gpu_batches"), 1);
        assert_eq!(counter("decompress.gpu_in_bytes"), frame_bytes.len() as u64);
        assert_eq!(counter("decompress.gpu_out_bytes"), chunk.len() as u64);
    }

    #[test]
    #[should_panic(expected = "sub-block")]
    fn zero_subblocks_rejected() {
        GpuDecompressor::new(GpuDecompressorConfig {
            subblocks_per_chunk: 0,
        });
    }
}
