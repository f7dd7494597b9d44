//! The GPU decompression path (read-side mirror of [`crate::gpu`]).
//!
//! Follows Sitaridi et al.'s two-phase massively-parallel decompression:
//! a **token-split** kernel scans each frame's compressed stream and
//! deals tokens round-robin to sub-blocks, then a **sub-block copy**
//! kernel replays them — literal runs as coalesced copies, match
//! back-references as uncoalesced gathers (see `dr_gpu_sim::decomp` for
//! the cost model). A 4 KB frame cannot fill a GPU alone, so frames are
//! batched and each contributes `SUBBLOCKS_PER_CHUNK` phase-2 work items.
//!
//! As everywhere in this workspace, the kernels run *functionally on the
//! host*: the caller decodes each frame once with
//! [`frame::open_with_stats`](crate::frame::open_with_stats), so
//! GPU-routed reads are bit-identical to CPU-routed ones, and hands this
//! path the token shapes that decode tallied ([`FrameStats`]). From those
//! shapes one timing function lays out the batch's device side — staging
//! transfer, both launches, return transfer — either charged on the
//! device ([`GpuDecompressor::charge`]) or dry-run against its queues
//! ([`GpuDecompressor::estimate`]), so a caller choosing between the CPU
//! and the GPU sees the timeline a charge would produce.

use std::convert::Infallible;

use dr_des::{Grant, SimTime};
use dr_gpu_sim::timing::pcie_transfer_time;
use dr_gpu_sim::{
    subblock_copy_items, token_split_items, BufferId, DecompChunkShape, DryRun, GpuDevice,
    GpuError, KernelResources, LaunchConfig, WorkItemCost,
};
use dr_obs::{CounterHandle, HistogramHandle, ObsHandle};

use crate::frame::FrameStats;

/// Sub-blocks (phase-2 work items) assigned to each frame: 8 per 4 KB
/// frame, matching the write path's threads-per-chunk.
const SUBBLOCKS_PER_CHUNK: usize = 8;

/// The device side of one batch: when each of its four steps ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuDecompReport {
    /// Host→device staging of the frame batch.
    pub h2d: Grant,
    /// The token-split launch (phase 1).
    pub split: Grant,
    /// The sub-block copy launch (phase 2).
    pub copy: Grant,
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

/// Per-token boundary descriptors live in local memory, bounding both
/// kernels' occupancy like the write path's histories.
const RESOURCES: KernelResources = KernelResources {
    registers_per_item: 32,
    local_mem_per_group: 4 * 1024,
    items_per_group: 64,
};

/// Where a batch's device work goes: charged on the device ([`Charged`])
/// or dry-run against its queues ([`DryRun`]).
trait Queues {
    type Error;
    fn h2d(&mut self, now: SimTime, len: u64) -> Result<Grant, Self::Error>;
    fn launch(
        &mut self,
        now: SimTime,
        config: &LaunchConfig,
        items: &[WorkItemCost],
    ) -> Result<Grant, Self::Error>;
    fn d2h(&mut self, now: SimTime, len: u64) -> Result<Grant, Self::Error>;
}

impl Queues for DryRun<'_> {
    type Error = Infallible;

    fn h2d(&mut self, now: SimTime, len: u64) -> Result<Grant, Infallible> {
        Ok(self.transfer(now, len))
    }

    fn launch(
        &mut self,
        now: SimTime,
        config: &LaunchConfig,
        items: &[WorkItemCost],
    ) -> Result<Grant, Infallible> {
        Ok(DryRun::launch(self, now, config, items))
    }

    fn d2h(&mut self, now: SimTime, len: u64) -> Result<Grant, Infallible> {
        Ok(self.transfer(now, len))
    }
}

/// The device, charged: each transfer against a device buffer of its
/// size — counted against capacity, never backed with bytes, since the
/// kernels ran on the host — and each launch through the fault schedule.
/// Both buffers are freed when this drops, on every exit: a buffer leaked
/// on an error path would shrink the device a little more on each
/// degrade/re-probe cycle.
struct Charged<'a> {
    gpu: &'a mut GpuDevice,
    staged: Option<BufferId>,
    returned: Option<BufferId>,
}

impl Queues for Charged<'_> {
    type Error = GpuError;

    fn h2d(&mut self, now: SimTime, len: u64) -> Result<Grant, GpuError> {
        let buf = self.gpu.alloc(len.max(1))?;
        self.staged = Some(buf);
        self.gpu.charge_h2d(now, buf, 0, len)
    }

    fn launch(
        &mut self,
        now: SimTime,
        config: &LaunchConfig,
        items: &[WorkItemCost],
    ) -> Result<Grant, GpuError> {
        let report = self.gpu.launch(now, config.clone(), items)?;
        Ok(report.grant)
    }

    fn d2h(&mut self, now: SimTime, len: u64) -> Result<Grant, GpuError> {
        let buf = self.gpu.alloc(len)?;
        self.returned = Some(buf);
        self.gpu.charge_d2h(now, buf, 0, len)
    }
}

impl Drop for Charged<'_> {
    fn drop(&mut self) {
        // On a lost device the free can fail too, which is fine to ignore.
        for buf in [self.staged, self.returned].into_iter().flatten() {
            let _ = self.gpu.free(buf);
        }
    }
}

/// The kernels' view of a decoded frame.
fn shape_of(stats: &FrameStats) -> DecompChunkShape {
    DecompChunkShape {
        frame_bytes: stats.frame_bytes as u64,
        output_bytes: stats.output_bytes as u64,
        tokens: stats.tokens as u64,
        literal_bytes: stats.literal_bytes as u64,
        match_bytes: stats.match_bytes as u64,
    }
}

/// The batch's staged (stored) and returned (decoded) byte totals.
fn byte_totals(frames: &[FrameStats]) -> (u64, u64) {
    frames.iter().fold((0, 0), |(stored, decoded), s| {
        (
            stored + s.frame_bytes as u64,
            decoded + s.output_bytes as u64,
        )
    })
}

/// The GPU decompression path.
///
/// # Example
///
/// ```
/// use dr_compress::{frame, Codec, FastLz, GpuDecompressor};
/// use dr_gpu_sim::{GpuDevice, GpuSpec};
/// use dr_des::SimTime;
///
/// let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
/// let chunk = b"abcdabcdabcdabcd".repeat(256);
/// // The host decodes; the kernels are priced from what that decode saw.
/// let (decoded, stats) = frame::open_with_stats(&FastLz::new().compress(&chunk)).unwrap();
/// assert_eq!(decoded, chunk);
/// let d = GpuDecompressor::default();
/// let estimate = d.estimate(SimTime::ZERO, &gpu, &[stats]);
/// let report = d.charge(SimTime::ZERO, &mut gpu, &[stats]).unwrap();
/// assert_eq!(report, estimate);
/// assert!(report.gpu_done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct GpuDecompressor {
    split: LaunchConfig,
    copy: LaunchConfig,
    obs: GpuDecompObs,
}

impl Default for GpuDecompressor {
    fn default() -> Self {
        GpuDecompressor {
            split: LaunchConfig::named("lz-token-split").with_resources(RESOURCES),
            copy: LaunchConfig::named("lz-subblock-copy").with_resources(RESOURCES),
            obs: GpuDecompObs::default(),
        }
    }
}

impl GpuDecompressor {
    /// Wires metrics into `obs` under the `decompress.*` namespace.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = GpuDecompObs::new(obs);
    }

    /// The one timing function of a batch's device side, on either kind
    /// of queue: stage the stored frames, split, copy, return the decoded
    /// chunks.
    fn schedule<Q: Queues>(
        &self,
        queues: &mut Q,
        now: SimTime,
        frames: &[FrameStats],
    ) -> Result<GpuDecompReport, Q::Error> {
        let shapes: Vec<DecompChunkShape> = frames.iter().map(shape_of).collect();
        let (stored, decoded) = byte_totals(frames);
        let h2d = queues.h2d(now, stored)?;
        let split = queues.launch(h2d.end, &self.split, &token_split_items(&shapes))?;
        let sub_blocks = subblock_copy_items(&shapes, SUBBLOCKS_PER_CHUNK);
        let copy = queues.launch(split.end, &self.copy, &sub_blocks)?;
        let d2h = queues.d2h(copy.end, decoded.max(1))?;
        Ok(GpuDecompReport {
            h2d,
            split,
            copy,
            d2h,
            gpu_done: d2h.end,
        })
    }

    /// What [`GpuDecompressor::charge`] of `frames` from `now` would
    /// report on a fault-free `gpu`, worked out against a
    /// [`GpuDevice::dry_run`]: the device is only read — no fault drawn,
    /// no memory allocated, nothing queued or recorded.
    pub fn estimate(
        &self,
        now: SimTime,
        gpu: &GpuDevice,
        frames: &[FrameStats],
    ) -> GpuDecompReport {
        let Ok(report) = self.schedule(&mut gpu.dry_run(), now, frames);
        report
    }

    /// A lower bound on [`GpuDecompressor::estimate`]'s `gpu_done` that
    /// builds no work items: the staging transfer as the dry run grants
    /// it, then the two launches' fixed latency and the return transfer,
    /// as if neither queue held anything else and the kernels took no
    /// time past their launch floor.
    pub fn earliest_done(&self, now: SimTime, gpu: &GpuDevice, frames: &[FrameStats]) -> SimTime {
        let (stored, decoded) = byte_totals(frames);
        let h2d = gpu.dry_run().transfer(now, stored);
        h2d.end + gpu.spec().launch_latency * 2 + pcie_transfer_time(gpu.spec(), decoded.max(1))
    }

    /// Charges the device side of decompressing `frames` — the shapes of
    /// frames the caller has already decoded — on `gpu` from `now`.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when the batch does not fit in device
    /// memory; launch-level faults ([`GpuError::LaunchFailed`],
    /// [`GpuError::ProbeTimeout`], [`GpuError::DeviceLost`]) when the
    /// device's fault schedule injects them — device buffers are freed on
    /// every exit, so a retry (or CPU fallback) is safe.
    pub fn charge(
        &self,
        now: SimTime,
        gpu: &mut GpuDevice,
        frames: &[FrameStats],
    ) -> Result<GpuDecompReport, GpuError> {
        let mut charged = Charged {
            gpu,
            staged: None,
            returned: None,
        };
        let report = self.schedule(&mut charged, now, frames)?;
        let (stored, decoded) = byte_totals(frames);
        self.obs.batches.incr();
        self.obs.batch_chunks.record(frames.len() as u64);
        self.obs.in_bytes.add(stored);
        self.obs.out_bytes.add(decoded);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frame, Codec, FastLz};
    use dr_gpu_sim::{GpuFaultSpec, GpuSpec};

    fn gpu() -> GpuDevice {
        GpuDevice::new(GpuSpec::radeon_hd_7970())
    }

    fn decompressor() -> GpuDecompressor {
        GpuDecompressor::default()
    }

    /// What the host's one decode of `chunk`'s frame tallies.
    fn stats_of(chunk: &[u8]) -> FrameStats {
        frame::open_with_stats(&FastLz::new().compress(chunk))
            .unwrap()
            .1
    }

    /// Eight chunks from run-heavy to half noise.
    fn batch() -> Vec<FrameStats> {
        let mut rng = dr_des::SplitMix64::new(0xDEC0);
        (0..8)
            .map(|i| {
                let mut chunk = format!("block-{i}/").into_bytes().repeat(500);
                for b in &mut chunk[..i * 400] {
                    *b = rng.next_u64() as u8;
                }
                stats_of(&chunk)
            })
            .collect()
    }

    #[test]
    fn the_estimate_is_the_charge_and_leaves_the_device_alone() {
        let frames = batch();
        let d = decompressor();
        let mut device = gpu();
        let mut now = SimTime::ZERO;
        for round in 0..4 {
            // Earlier rounds left both queues busy past `now`.
            let stats = format!("{:?}", device.stats());
            let estimate = d.estimate(now, &device, &frames[round..]);
            assert_eq!(format!("{:?}", device.stats()), stats, "round {round}");
            assert_eq!(device.mem_used(), 0);
            let floor = d.earliest_done(now, &device, &frames[round..]);
            let charged = d.charge(now, &mut device, &frames[round..]).unwrap();
            assert_eq!(charged, estimate, "round {round}");
            assert!(floor <= charged.gpu_done, "round {round}");
            now += dr_des::SimDuration::from_micros(20);
        }
    }

    #[test]
    fn an_estimate_draws_no_fault() {
        // Two devices on one fault schedule; the one that is estimated
        // against between charges must fail and succeed exactly as the
        // other does.
        let faults = GpuFaultSpec {
            launch_failure_rate: 0.5,
            probe_timeout_rate: 0.2,
            ..GpuFaultSpec::default()
        };
        let faulty = || {
            GpuDevice::new(GpuSpec {
                faults: faults.clone(),
                ..GpuSpec::radeon_hd_7970()
            })
        };
        let (frames, d) = (batch(), decompressor());
        let (mut plain, mut estimated) = (faulty(), faulty());
        for i in 0..40u64 {
            let now = SimTime::from_nanos(i * 50_000);
            let estimate = d.estimate(now, &estimated, &frames);
            let (want, got) = (
                d.charge(now, &mut plain, &frames),
                d.charge(now, &mut estimated, &frames),
            );
            assert_eq!(got, want, "charge {i}");
            if let Ok(report) = got {
                assert_eq!(report, estimate, "charge {i}");
            }
        }
        assert_eq!(
            format!("{:?}", estimated.stats()),
            format!("{:?}", plain.stats())
        );
        assert!(plain.stats().faults_injected > 0);
    }

    #[test]
    fn timing_orders_h2d_split_copy_d2h() {
        let report = decompressor()
            .charge(SimTime::ZERO, &mut gpu(), &[stats_of(&[7u8; 4096])])
            .unwrap();
        assert!(report.h2d.end <= report.split.start);
        assert!(report.split.end <= report.copy.start);
        assert!(report.copy.end <= report.d2h.start);
        assert_eq!(report.gpu_done, report.d2h.end);
    }

    #[test]
    fn device_memory_is_released() {
        let mut device = gpu();
        let frames = [stats_of(&[1u8; 4096])];
        let d = decompressor();
        for _ in 0..4 {
            d.charge(SimTime::ZERO, &mut device, &frames).unwrap();
        }
        assert_eq!(device.mem_used(), 0);
    }

    #[test]
    fn device_memory_is_released_when_the_output_buffer_does_not_fit() {
        // The device holds the staged frame but not the 4 KB it decodes
        // to: the output alloc fails with the input buffer still live.
        let stats = stats_of(&[1u8; 4096]);
        let mut device = GpuDevice::new(GpuSpec {
            global_mem_bytes: stats.frame_bytes as u64 + 1024,
            ..GpuSpec::radeon_hd_7970()
        });
        let err = decompressor()
            .charge(SimTime::ZERO, &mut device, &[stats])
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
        let stats = stats_of(&chunk);
        let mut device = gpu();
        d.estimate(SimTime::ZERO, &device, &[stats]);
        d.charge(SimTime::ZERO, &mut device, &[stats]).unwrap();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(
            counter("decompress.gpu_batches"),
            1,
            "estimates not counted"
        );
        assert_eq!(counter("decompress.gpu_in_bytes"), stats.frame_bytes as u64);
        assert_eq!(counter("decompress.gpu_out_bytes"), chunk.len() as u64);
    }
}
