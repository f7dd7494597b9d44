//! The GPU device: memory, copy engine, compute queue and statistics.

use std::borrow::Cow;

use dr_des::{Grant, Resource, SimDuration, SimTime};
use dr_obs::trace::{trace_args, Tracer, Track};
use dr_obs::{CounterHandle, HistogramHandle, ObsHandle};

use crate::error::GpuError;
use crate::memory::{BufferId, DeviceMemory};
use crate::spec::GpuSpec;
use crate::timing::{kernel_timing, pcie_transfer_time, KernelTiming, WorkItemCost};

/// Per-launch identification and tuning knobs.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Kernel name, for statistics and reports: a literal costs no
    /// allocation per launch.
    pub name: Cow<'static, str>,
    /// Resource footprint for occupancy derating; `None` assumes a light
    /// kernel running at full rate.
    pub resources: Option<crate::occupancy::KernelResources>,
}

impl LaunchConfig {
    /// A launch configuration with just a kernel name.
    pub fn named(name: impl Into<Cow<'static, str>>) -> Self {
        LaunchConfig {
            name: name.into(),
            resources: None,
        }
    }

    /// Attaches a resource footprint for occupancy modeling.
    #[must_use]
    pub fn with_resources(mut self, resources: crate::occupancy::KernelResources) -> Self {
        self.resources = Some(resources);
        self
    }
}

/// The outcome of a kernel launch: when it ran and its timing breakdown.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name echoed from the [`LaunchConfig`].
    pub name: Cow<'static, str>,
    /// Queue grant: when the kernel started and finished on the device.
    pub grant: Grant,
    /// The detailed timing model output.
    pub timing: KernelTiming,
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Default)]
pub struct GpuStats {
    /// Kernels launched.
    pub kernels: u64,
    /// Host→device bytes transferred.
    pub h2d_bytes: u64,
    /// Device→host bytes transferred.
    pub d2h_bytes: u64,
    /// Total device busy time (kernels only).
    pub kernel_busy: SimDuration,
    /// Total copy-engine busy time.
    pub copy_busy: SimDuration,
    /// Faults injected (launch failures, probe timeouts, device loss).
    pub faults_injected: u64,
}

/// Interned `gpu.*` metric handles; inert until [`GpuDevice::set_obs`].
#[derive(Debug, Clone, Default)]
struct GpuObs {
    kernel_launches: CounterHandle,
    kernel_latency_ns: HistogramHandle,
    kernel_items: HistogramHandle,
    h2d_bytes: CounterHandle,
    d2h_bytes: CounterHandle,
    transfer_ns: HistogramHandle,
    faults_injected: CounterHandle,
    /// Device events on the sim-time axis (kernel and copy tracks).
    tracer: Tracer,
}

impl GpuObs {
    fn new(obs: &ObsHandle) -> Self {
        GpuObs {
            kernel_launches: obs.counter("gpu.kernel_launches"),
            kernel_latency_ns: obs.histogram("gpu.kernel_latency_ns"),
            kernel_items: obs.histogram("gpu.kernel_items"),
            h2d_bytes: obs.counter("gpu.h2d_bytes"),
            d2h_bytes: obs.counter("gpu.d2h_bytes"),
            transfer_ns: obs.histogram("gpu.transfer_ns"),
            faults_injected: obs.counter("fault.gpu.injected"),
            tracer: obs.tracer().clone(),
        }
    }
}

/// Which way a PCIe transfer goes; picks the stats, metric and span it is
/// booked under.
#[derive(Debug, Clone, Copy)]
enum Direction {
    HostToDevice,
    DeviceToHost,
}

/// The simulated GPU.
///
/// A timing model over a ledger of device-memory capacity: callers
/// allocate device buffers (charged against the device's memory), charge
/// the PCIe transfers into and out of them, run their kernel code on the
/// host against host memory, and pass the per-work-item cost report to
/// [`GpuDevice::launch`] to find out when the kernel would have finished.
/// A buffer holds no bytes; it stands in for a size.
///
/// # Example
///
/// ```
/// use dr_gpu_sim::{GpuDevice, GpuError, GpuSpec};
/// use dr_des::SimTime;
///
/// let mut gpu = GpuDevice::new(GpuSpec::weak_igpu());
/// let buf = gpu.alloc(1024)?;
/// let upload = gpu.charge_h2d(SimTime::ZERO, buf, 0, 7)?;
/// assert!(upload.end > upload.start);
/// assert_eq!((gpu.stats().h2d_bytes, gpu.mem_used()), (7, 1024));
/// assert!(matches!(
///     gpu.charge_d2h(upload.end, buf, 1000, 25),
///     Err(GpuError::OutOfBounds { end: 1025, .. })
/// ));
/// # Ok::<(), GpuError>(())
/// ```
#[derive(Debug)]
pub struct GpuDevice {
    spec: GpuSpec,
    mem: DeviceMemory,
    /// Kernels serialize on a single in-order compute queue.
    compute_queue: Resource,
    /// DMA copy engine (one per direction would overlap; model one shared).
    copy_engine: Resource,
    /// Dedicated stream for the fault schedule ([`GpuFaultSpec`]); never
    /// drawn while every fault rate is zero.
    ///
    /// [`GpuFaultSpec`]: crate::GpuFaultSpec
    fault_rng: dr_des::SplitMix64,
    /// Launch attempts, for the `device_lost_after` threshold.
    launches_attempted: u64,
    /// Once true, every operation fails with [`GpuError::DeviceLost`].
    lost: bool,
    stats: GpuStats,
    obs: GpuObs,
}

impl GpuDevice {
    /// Creates a device from a hardware description.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`GpuSpec::validate`].
    pub fn new(spec: GpuSpec) -> Self {
        spec.validate();
        let mem = DeviceMemory::new(spec.global_mem_bytes);
        GpuDevice {
            compute_queue: Resource::new(format!("{}-compute", spec.name), 1),
            copy_engine: Resource::new(format!("{}-dma", spec.name), 1),
            mem,
            fault_rng: dr_des::SplitMix64::new(spec.faults.seed),
            launches_attempted: 0,
            lost: false,
            spec,
            stats: GpuStats::default(),
            obs: GpuObs::default(),
        }
    }

    /// Wires metrics into `obs` under the `gpu.*` namespace: kernel-launch
    /// count and simulated latency, batch sizes (work items per launch)
    /// and PCIe transfer bytes/time.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = GpuObs::new(obs);
    }

    /// The hardware description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Replaces the fault schedule mid-run and reseeds the fault stream,
    /// so a toggle at sim-time T is deterministic regardless of earlier
    /// draws. A device already lost stays lost — degradation is sticky by
    /// design — but rate-based faults start (or stop) immediately.
    pub fn set_faults(&mut self, faults: crate::spec::GpuFaultSpec) {
        self.fault_rng = dr_des::SplitMix64::new(faults.seed);
        self.spec.faults = faults;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &GpuStats {
        &self.stats
    }

    /// Bytes of device memory currently allocated.
    pub fn mem_used(&self) -> u64 {
        self.mem.used()
    }

    /// Allocates a device buffer of `len` bytes.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when capacity is exhausted;
    /// [`GpuError::DeviceLost`] once the device is gone.
    pub fn alloc(&mut self, len: u64) -> Result<BufferId, GpuError> {
        if self.lost {
            return Err(GpuError::DeviceLost);
        }
        self.mem.alloc(len)
    }

    /// Frees a buffer.
    ///
    /// # Errors
    ///
    /// [`GpuError::InvalidBuffer`] when `id` is not live.
    pub fn free(&mut self, id: BufferId) -> Result<(), GpuError> {
        self.mem.free(id)
    }

    /// Runs `body` with a transient buffer of `len` bytes — a batch's
    /// staging or result buffer — and frees it on every exit, not just
    /// success: a buffer leaked on an error path would shrink the device
    /// a little more on each degrade/re-probe cycle. The buffer is
    /// charged against device memory from the allocation on, so `body`
    /// sees the device as full as it is.
    ///
    /// # Errors
    ///
    /// As [`GpuDevice::alloc`], then whatever `body` returns.
    pub fn with_buffer<T>(
        &mut self,
        len: u64,
        body: impl FnOnce(&mut GpuDevice, BufferId) -> Result<T, GpuError>,
    ) -> Result<T, GpuError> {
        let id = self.alloc(len)?;
        let outcome = body(self, id);
        // Freeing needs no working device: a lost one still releases it.
        let _ = self.free(id);
        outcome
    }

    /// Charges the host→device transfer of `len` bytes into buffer `id` at
    /// `offset` on the copy engine, from `now`, and returns when it ran.
    /// Kernels run functionally on the host, against host memory, so no
    /// bytes move: the buffer stands in for the transfer's size.
    ///
    /// # Errors
    ///
    /// [`GpuError::InvalidBuffer`] / [`GpuError::OutOfBounds`];
    /// [`GpuError::DeviceLost`] once the device is gone. A refused transfer
    /// charges nothing.
    pub fn charge_h2d(
        &mut self,
        now: SimTime,
        id: BufferId,
        offset: u64,
        len: u64,
    ) -> Result<Grant, GpuError> {
        self.charge_transfer(now, id, offset, len, Direction::HostToDevice)
    }

    /// Charges the device→host transfer of `len` bytes of buffer `id`
    /// from `offset`, as [`GpuDevice::charge_h2d`] charges an upload: a
    /// kernel's result is already in host memory.
    ///
    /// # Errors
    ///
    /// As [`GpuDevice::charge_h2d`].
    pub fn charge_d2h(
        &mut self,
        now: SimTime,
        id: BufferId,
        offset: u64,
        len: u64,
    ) -> Result<Grant, GpuError> {
        self.charge_transfer(now, id, offset, len, Direction::DeviceToHost)
    }

    /// One PCIe transfer of `len` bytes against buffer `id` from `offset`:
    /// the bounds and liveness checks, then the copy engine's time, the
    /// stats, the metrics and the trace span.
    fn charge_transfer(
        &mut self,
        now: SimTime,
        id: BufferId,
        offset: u64,
        len: u64,
        direction: Direction,
    ) -> Result<Grant, GpuError> {
        if self.lost {
            return Err(GpuError::DeviceLost);
        }
        let buf_len = self.mem.len(id)?;
        let end = offset + len;
        if end > buf_len {
            return Err(GpuError::OutOfBounds {
                buffer: id,
                end,
                len: buf_len,
            });
        }
        let time = pcie_transfer_time(&self.spec, len);
        let grant = self.copy_engine.acquire(now, time);
        self.stats.copy_busy += time;
        let span = match direction {
            Direction::HostToDevice => {
                self.stats.h2d_bytes += len;
                self.obs.h2d_bytes.add(len);
                "h2d"
            }
            Direction::DeviceToHost => {
                self.stats.d2h_bytes += len;
                self.obs.d2h_bytes.add(len);
                "d2h"
            }
        };
        self.obs.transfer_ns.record(time.as_nanos());
        self.obs.tracer.sim_span(
            Track::GpuCopy,
            span,
            grant.start.as_nanos(),
            grant.end.as_nanos(),
            trace_args(&[("bytes", len)]),
        );
        Ok(grant)
    }

    /// True once the device has been lost to fault injection; every
    /// operation on a lost device fails with [`GpuError::DeviceLost`].
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    fn record_fault(&mut self) {
        self.stats.faults_injected += 1;
        self.obs.faults_injected.incr();
    }

    /// Enqueues a kernel whose work items cost `items`, from `now`, and
    /// returns when it ran. The caller performs the functional work itself,
    /// on the host; this charges the simulated time.
    ///
    /// # Errors
    ///
    /// Only the spec's fault schedule makes this fail:
    /// [`GpuError::DeviceLost`] once the device is gone (permanent),
    /// [`GpuError::LaunchFailed`] for a driver-level rejection that costs
    /// no device time, and [`GpuError::ProbeTimeout`] for a kernel that
    /// occupied the queue for its full duration but never completed. With
    /// an inert [`GpuFaultSpec`](crate::GpuFaultSpec) (the default) this
    /// never fails and draws no randomness.
    pub fn launch(
        &mut self,
        now: SimTime,
        config: LaunchConfig,
        items: &[WorkItemCost],
    ) -> Result<LaunchReport, GpuError> {
        if self.lost {
            return Err(GpuError::DeviceLost);
        }
        self.launches_attempted += 1;
        let faults = &self.spec.faults;
        if faults.device_lost_after > 0 && self.launches_attempted > faults.device_lost_after {
            self.lost = true;
            self.record_fault();
            return Err(GpuError::DeviceLost);
        }
        if faults.launch_failure_rate > 0.0
            && self.fault_rng.next_f64() < faults.launch_failure_rate
        {
            self.record_fault();
            return Err(GpuError::LaunchFailed {
                kernel: config.name.into_owned(),
            });
        }
        let timing = self.kernel_timing(&config, items);
        let faults = &self.spec.faults;
        if faults.probe_timeout_rate > 0.0 && self.fault_rng.next_f64() < faults.probe_timeout_rate
        {
            // The kernel ran (and occupied the queue) but its completion
            // was never observed: charge the time, return no result.
            let _ = self.compute_queue.acquire(now, timing.duration());
            self.stats.kernel_busy += timing.duration();
            self.record_fault();
            return Err(GpuError::ProbeTimeout {
                kernel: config.name.into_owned(),
            });
        }
        let grant = self.compute_queue.acquire(now, timing.duration());
        self.stats.kernels += 1;
        self.stats.kernel_busy += timing.duration();
        self.obs.kernel_launches.incr();
        self.obs
            .kernel_latency_ns
            .record(timing.duration().as_nanos());
        self.obs.kernel_items.record(items.len() as u64);
        if self.obs.tracer.is_enabled() {
            // An owned kernel name is cloned for the event only when
            // someone is actually tracing.
            self.obs.tracer.sim_span(
                Track::GpuCompute,
                config.name.clone(),
                grant.start.as_nanos(),
                grant.end.as_nanos(),
                trace_args(&[("items", items.len() as u64)]),
            );
        }
        Ok(LaunchReport {
            name: config.name,
            grant,
            timing,
        })
    }

    /// How long a launch of `items` under `config` runs once it starts:
    /// the timing model, derated by the kernel's occupancy when `config`
    /// carries a resource footprint.
    fn kernel_timing(&self, config: &LaunchConfig, items: &[WorkItemCost]) -> KernelTiming {
        match &config.resources {
            Some(res) => {
                let rate = crate::occupancy::occupancy_factor(
                    &self.spec,
                    &crate::occupancy::CuBudget::default(),
                    res,
                );
                crate::timing::kernel_timing_with_occupancy(&self.spec, items, rate)
            }
            None => kernel_timing(&self.spec, items),
        }
    }

    /// A what-if over the device's queues, as they stand now: see
    /// [`DryRun`].
    ///
    /// No pipeline stage calls it yet. Its caller to come is the write
    /// path's co-processor rule (ROADMAP item 7): the GPU side of routing
    /// an index-probe batch to whichever of CPU and GPU finishes it first.
    pub fn dry_run(&self) -> DryRun<'_> {
        DryRun {
            device: self,
            copy_free: self.copy_engine.earliest_free(),
            compute_free: self.compute_queue.earliest_free(),
        }
    }

    /// Resets queues and statistics; live buffers stay allocated.
    pub fn reset_timeline(&mut self) {
        self.compute_queue.reset();
        self.copy_engine.reset();
        self.stats = GpuStats::default();
    }
}

/// A what-if over a [`GpuDevice`]'s copy engine and compute queue
/// ([`GpuDevice::dry_run`]): the grants a sequence of transfers and
/// launches would get, each after everything already queued and after
/// the dry run's own earlier steps, with the timing the device itself
/// charges. Both queues have one slot, so a copy of each one's next-free
/// instant is the whole queue state.
///
/// A dry run reads the device and nothing else: it draws no fault,
/// allocates no device memory, records no statistic, metric or trace
/// event, and cannot fail — a lost device or a full memory shows only
/// when the work is charged for real.
#[derive(Debug, Clone, Copy)]
pub struct DryRun<'a> {
    device: &'a GpuDevice,
    copy_free: SimTime,
    compute_free: SimTime,
}

impl DryRun<'_> {
    /// A PCIe transfer of `len` bytes, either direction, from `now`: what
    /// [`GpuDevice::charge_h2d`] / [`GpuDevice::charge_d2h`] would grant.
    pub fn transfer(&mut self, now: SimTime, len: u64) -> Grant {
        let start = self.copy_free.max(now);
        let end = start + pcie_transfer_time(&self.device.spec, len);
        self.copy_free = end;
        Grant { start, end }
    }

    /// A kernel launch of `items` under `config` from `now`: what a
    /// fault-free [`GpuDevice::launch`] would grant.
    pub fn launch(&mut self, now: SimTime, config: &LaunchConfig, items: &[WorkItemCost]) -> Grant {
        let start = self.compute_free.max(now);
        let end = start + self.device.kernel_timing(config, items).duration();
        self.compute_free = end;
        Grant { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> GpuDevice {
        GpuDevice::new(GpuSpec::radeon_hd_7970())
    }

    /// When the compute queue would start a kernel submitted at zero.
    fn compute_free(gpu: &GpuDevice) -> SimTime {
        gpu.dry_run()
            .launch(SimTime::ZERO, &LaunchConfig::named("next"), &[])
            .start
    }

    /// Everything a transfer leaves behind in the device's stats and in
    /// `obs`, rendered for comparison.
    fn transfer_footprint(gpu: &GpuDevice, obs: &ObsHandle) -> String {
        format!("{:?} {:?}", gpu.stats(), obs.snapshot().unwrap())
    }

    /// An upload and a download of the same buffer: each is one PCIe
    /// transfer on the copy engine, booked under its own direction.
    #[test]
    fn write_then_read_round_trips() {
        let mut gpu = device();
        let buf = gpu.alloc(4096).unwrap();
        let t0 = SimTime::from_nanos(500);
        let time = pcie_transfer_time(gpu.spec(), 4000);
        let up = gpu.charge_h2d(t0, buf, 16, 4000).unwrap();
        assert_eq!(
            up,
            Grant {
                start: t0,
                end: t0 + time
            }
        );
        assert_eq!((gpu.stats().h2d_bytes, gpu.stats().d2h_bytes), (4000, 0));
        // A range that ends on the buffer's last byte is in bounds.
        let down = gpu.charge_d2h(t0, buf, 96, 4000).unwrap();
        assert_eq!(down.end, up.end + time);
        assert_eq!((gpu.stats().h2d_bytes, gpu.stats().d2h_bytes), (4000, 4000));
        assert_eq!(gpu.stats().copy_busy, time + time);
        // Transfers take no device memory beyond the buffer's allocation.
        assert_eq!(gpu.mem_used(), 4096);
    }

    /// A download costs what reading the buffer back used to: one PCIe
    /// transfer of its length on the copy engine, booked as device→host.
    #[test]
    fn charged_d2h_is_read_buffer_without_the_bytes() {
        let mut gpu = device();
        let buf = gpu.alloc(4096).unwrap();
        let want = gpu.dry_run().transfer(SimTime::ZERO, 4000);
        let got = gpu.charge_d2h(SimTime::ZERO, buf, 16, 4000).unwrap();
        assert_eq!(got, want);
        assert_eq!(
            got.end,
            SimTime::ZERO + pcie_transfer_time(gpu.spec(), 4000)
        );
        assert_eq!((gpu.stats().h2d_bytes, gpu.stats().d2h_bytes), (0, 4000));
        assert_eq!(gpu.stats().copy_busy, got.end - got.start);
        // The same refusals, charging nothing.
        let err = gpu.charge_d2h(SimTime::ZERO, buf, 4000, 97).unwrap_err();
        assert!(matches!(err, GpuError::OutOfBounds { end: 4097, .. }));
        gpu.free(buf).unwrap();
        assert_eq!(
            gpu.charge_d2h(SimTime::ZERO, buf, 0, 1),
            Err(GpuError::InvalidBuffer(buf))
        );
        assert_eq!(gpu.stats().d2h_bytes, 4000);
    }

    #[test]
    fn a_refused_transfer_charges_nothing() {
        let obs = ObsHandle::enabled("t");
        let mut gpu = device();
        gpu.set_obs(&obs);
        let buf = gpu.alloc(4096).unwrap();
        let t0 = SimTime::from_nanos(500);
        gpu.charge_h2d(t0, buf, 16, 4000).unwrap();
        let before = transfer_footprint(&gpu, &obs);
        let out_of_bounds = GpuError::OutOfBounds {
            buffer: buf,
            end: 4097,
            len: 4096,
        };
        assert_eq!(
            gpu.charge_h2d(t0, buf, 4000, 97),
            Err(out_of_bounds.clone())
        );
        assert_eq!(gpu.charge_d2h(t0, buf, 4000, 97), Err(out_of_bounds));
        gpu.free(buf).unwrap();
        assert_eq!(
            gpu.charge_h2d(t0, buf, 0, 1),
            Err(GpuError::InvalidBuffer(buf))
        );
        assert_eq!(
            gpu.charge_d2h(t0, buf, 0, 1),
            Err(GpuError::InvalidBuffer(buf))
        );
        assert_eq!(transfer_footprint(&gpu, &obs), before);
        assert_eq!(gpu.mem_used(), 0);
    }

    #[test]
    fn a_dry_run_grants_what_the_device_charges_and_touches_nothing() {
        use crate::occupancy::KernelResources;
        let mut gpu = device();
        // Earlier work on both queues, so the dry run starts behind it.
        let buf = gpu.alloc(1 << 20).unwrap();
        let busy = vec![WorkItemCost::compute(50_000); 256];
        gpu.charge_h2d(SimTime::ZERO, buf, 0, 1 << 20).unwrap();
        gpu.launch(SimTime::ZERO, LaunchConfig::named("busy"), &busy)
            .unwrap();
        let config = LaunchConfig::named("k").with_resources(KernelResources {
            registers_per_item: 32,
            local_mem_per_group: 4096,
            items_per_group: 64,
        });
        let items = vec![WorkItemCost::streaming(900, 4096); 300];
        let now = SimTime::from_nanos(7_000);

        let (stats_before, mem_before) = (format!("{:?}", gpu.stats()), gpu.mem_used());
        let mut dry = gpu.dry_run();
        let want = [
            dry.transfer(now, 80_000),
            dry.launch(now, &config, &items),
            dry.launch(now, &config, &items),
            dry.transfer(now, 4096),
        ];
        assert_eq!(format!("{:?}", gpu.stats()), stats_before);
        assert_eq!(gpu.mem_used(), mem_before);

        let h2d = gpu.charge_h2d(now, buf, 0, 80_000).unwrap();
        let first = gpu.launch(now, config.clone(), &items).unwrap().grant;
        let second = gpu.launch(now, config, &items).unwrap().grant;
        let d2h = gpu.charge_d2h(now, buf, 0, 4096).unwrap();
        assert_eq!(want, [h2d, first, second, d2h]);
        assert!(second.start == first.end && d2h.start == h2d.end);
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let mut gpu = device();
        let buf = gpu.alloc(4).unwrap();
        assert_eq!(
            gpu.charge_h2d(SimTime::ZERO, buf, 2, 7),
            Err(GpuError::OutOfBounds {
                buffer: buf,
                end: 9,
                len: 4
            })
        );
        // Nothing was charged: the copy engine is still free at zero.
        assert_eq!(gpu.stats().h2d_bytes, 0);
        let fits = gpu.charge_h2d(SimTime::ZERO, buf, 0, 4).unwrap();
        assert_eq!(fits.start, SimTime::ZERO);
    }

    #[test]
    fn transfers_serialize_on_the_copy_engine() {
        let mut gpu = device();
        let buf = gpu.alloc(1 << 20).unwrap();
        let g1 = gpu.charge_h2d(SimTime::ZERO, buf, 0, 1 << 20).unwrap();
        let g2 = gpu.charge_d2h(SimTime::ZERO, buf, 0, 1 << 20).unwrap();
        let g3 = gpu.charge_h2d(SimTime::ZERO, buf, 0, 1 << 20).unwrap();
        assert_eq!((g2.start, g3.start), (g1.end, g2.end));
    }

    #[test]
    fn kernels_serialize_on_the_compute_queue() {
        let mut gpu = device();
        let items = vec![WorkItemCost::compute(1000); 64];
        let r1 = gpu
            .launch(SimTime::ZERO, LaunchConfig::named("k1"), &items)
            .unwrap();
        let r2 = gpu
            .launch(SimTime::ZERO, LaunchConfig::named("k2"), &items)
            .unwrap();
        assert_eq!(r2.grant.start, r1.grant.end);
        assert_eq!(gpu.stats().kernels, 2);
        assert_eq!(compute_free(&gpu), r2.grant.end);
    }

    #[test]
    fn launch_includes_fixed_latency() {
        let mut gpu = device();
        let r = gpu
            .launch(SimTime::ZERO, LaunchConfig::named("tiny"), &[])
            .unwrap();
        assert_eq!(
            r.grant.end.duration_since(r.grant.start),
            gpu.spec().launch_latency
        );
    }

    #[test]
    fn occupancy_limited_kernel_takes_longer() {
        use crate::occupancy::KernelResources;
        let mut gpu = device();
        let items = vec![WorkItemCost::compute(100_000); 64 * 64];
        let light = gpu
            .launch(SimTime::ZERO, LaunchConfig::named("light"), &items)
            .unwrap();
        let heavy = gpu
            .launch(
                SimTime::ZERO,
                LaunchConfig::named("heavy").with_resources(KernelResources {
                    registers_per_item: 128, // only 2 resident waves
                    local_mem_per_group: 0,
                    items_per_group: 64,
                }),
                &items,
            )
            .unwrap();
        assert_eq!(
            heavy.timing.compute_time.as_nanos(),
            light.timing.compute_time.as_nanos() * 2
        );
    }

    #[test]
    fn oom_reports_available_bytes() {
        let mut spec = GpuSpec::radeon_hd_7970();
        spec.global_mem_bytes = 100;
        let mut gpu = GpuDevice::new(spec);
        let held = gpu.alloc(80).unwrap();
        // A buffer only ever charged for holds its full size.
        gpu.charge_h2d(SimTime::ZERO, held, 0, 8).unwrap();
        assert_eq!(gpu.mem_used(), 80);
        match gpu.alloc(40) {
            Err(GpuError::OutOfMemory {
                requested,
                available,
            }) => {
                assert_eq!(requested, 40);
                assert_eq!(available, 20);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        gpu.free(held).unwrap();
        assert_eq!(gpu.mem_used(), 0);
        assert!(gpu.alloc(100).is_ok());
    }

    #[test]
    fn obs_records_launches_and_transfers() {
        let obs = ObsHandle::enabled("t");
        let mut gpu = device();
        gpu.set_obs(&obs);
        let buf = gpu.alloc(1024).unwrap();
        let up = gpu.charge_h2d(SimTime::ZERO, buf, 0, 512).unwrap();
        let down = gpu.charge_d2h(SimTime::ZERO, buf, 0, 256).unwrap();
        let items = vec![WorkItemCost::compute(1000); 32];
        let r = gpu
            .launch(SimTime::ZERO, LaunchConfig::named("k"), &items)
            .unwrap();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("gpu.kernel_launches"), 1);
        assert_eq!(counter("gpu.h2d_bytes"), 512);
        assert_eq!(counter("gpu.d2h_bytes"), 256);
        let (_, lat) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "gpu.kernel_latency_ns")
            .expect("latency recorded");
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, r.timing.duration().as_nanos());
        let (_, batch) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "gpu.kernel_items")
            .expect("batch occupancy recorded");
        assert_eq!(batch.max, 32);
        let (_, transfer) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "gpu.transfer_ns")
            .expect("transfer time recorded");
        let spans = up.end.duration_since(up.start) + down.end.duration_since(down.start);
        assert_eq!((transfer.count, transfer.sum), (2, spans.as_nanos()));
    }

    #[test]
    fn certain_launch_failure_costs_no_time() {
        let mut spec = GpuSpec::radeon_hd_7970();
        spec.faults.launch_failure_rate = 1.0;
        let mut gpu = GpuDevice::new(spec);
        let err = gpu
            .launch(SimTime::ZERO, LaunchConfig::named("k"), &[])
            .unwrap_err();
        assert_eq!(
            err,
            GpuError::LaunchFailed {
                kernel: "k".to_owned()
            }
        );
        assert_eq!(gpu.stats().kernels, 0);
        assert_eq!(gpu.stats().faults_injected, 1);
        assert_eq!(compute_free(&gpu), SimTime::ZERO);
    }

    #[test]
    fn probe_timeout_charges_queue_time() {
        let mut spec = GpuSpec::radeon_hd_7970();
        spec.faults.probe_timeout_rate = 1.0;
        let mut gpu = GpuDevice::new(spec);
        let items = vec![WorkItemCost::compute(1000); 64];
        let err = gpu
            .launch(SimTime::ZERO, LaunchConfig::named("probe"), &items)
            .unwrap_err();
        assert!(matches!(err, GpuError::ProbeTimeout { .. }));
        assert_eq!(gpu.stats().kernels, 0);
        assert!(
            compute_free(&gpu) > SimTime::ZERO,
            "timed-out kernel must still occupy the queue"
        );
    }

    #[test]
    fn device_lost_after_threshold_is_sticky() {
        let mut spec = GpuSpec::radeon_hd_7970();
        spec.faults.device_lost_after = 2;
        let mut gpu = GpuDevice::new(spec);
        let buf = gpu.alloc(64).unwrap();
        gpu.launch(SimTime::ZERO, LaunchConfig::named("a"), &[])
            .unwrap();
        gpu.launch(SimTime::ZERO, LaunchConfig::named("b"), &[])
            .unwrap();
        assert!(!gpu.is_lost());
        assert!(matches!(
            gpu.launch(SimTime::ZERO, LaunchConfig::named("c"), &[]),
            Err(GpuError::DeviceLost)
        ));
        assert!(gpu.is_lost());
        // Everything else is poisoned too.
        assert_eq!(gpu.alloc(16), Err(GpuError::DeviceLost));
        assert_eq!(
            gpu.charge_h2d(SimTime::ZERO, buf, 0, 1),
            Err(GpuError::DeviceLost)
        );
        assert_eq!(
            gpu.charge_d2h(SimTime::ZERO, buf, 0, 1),
            Err(GpuError::DeviceLost)
        );
        assert_eq!(gpu.stats().copy_busy, SimDuration::ZERO);
        // Freeing needs no working device.
        gpu.free(buf).unwrap();
        assert_eq!(gpu.mem_used(), 0);
        let items = vec![WorkItemCost::compute(1); 1];
        assert!(matches!(
            gpu.launch(SimTime::ZERO, LaunchConfig::named("d"), &items),
            Err(GpuError::DeviceLost)
        ));
    }

    #[test]
    fn partial_launch_failure_rate_is_deterministic() {
        let run = || {
            let mut spec = GpuSpec::radeon_hd_7970();
            spec.faults.launch_failure_rate = 0.5;
            let mut gpu = GpuDevice::new(spec);
            (0..32)
                .map(|i| {
                    gpu.launch(SimTime::ZERO, LaunchConfig::named(format!("k{i}")), &[])
                        .is_ok()
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same fault schedule");
        assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !ok));
    }

    #[test]
    fn gpu_fault_counter_appears_in_obs() {
        let obs = ObsHandle::enabled("t");
        let mut spec = GpuSpec::radeon_hd_7970();
        spec.faults.launch_failure_rate = 1.0;
        let mut gpu = GpuDevice::new(spec);
        gpu.set_obs(&obs);
        let _ = gpu.launch(SimTime::ZERO, LaunchConfig::named("k"), &[]);
        let snap = obs.snapshot().unwrap();
        let injected = snap
            .counters
            .iter()
            .find(|(n, _)| n == "fault.gpu.injected")
            .map(|(_, v)| *v);
        assert_eq!(injected, Some(1));
    }

    #[test]
    fn reset_timeline_keeps_memory() {
        let mut gpu = device();
        let buf = gpu.alloc(8).unwrap();
        gpu.charge_h2d(SimTime::ZERO, buf, 0, 8).unwrap();
        gpu.launch(SimTime::ZERO, LaunchConfig::named("k"), &[])
            .unwrap();
        gpu.reset_timeline();
        assert_eq!((gpu.stats().kernels, gpu.stats().h2d_bytes), (0, 0));
        assert_eq!(compute_free(&gpu), SimTime::ZERO);
        // The buffer is still live, and the copy engine free again.
        assert_eq!(gpu.mem_used(), 8);
        let again = gpu.charge_h2d(SimTime::ZERO, buf, 0, 8).unwrap();
        assert_eq!(again.start, SimTime::ZERO);
    }
}
