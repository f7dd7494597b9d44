//! The SSD request path: host commands → FTL ops → per-die timing.

use std::ops::Range;
use std::slice;

use dr_des::{Grant, IdMap, Resource, SimTime};
use dr_obs::trace::{trace_args, Tracer, Track};
use dr_obs::{CounterHandle, GaugeHandle, HistogramHandle, ObsHandle};

use crate::crash::{
    self, apply_power_cut, Capture, CaptureLog, CrashReport, CrashSpec, WriteCapture,
};
use crate::error::SsdError;
use crate::ftl::{Ftl, FtlStats, NandOp};
use crate::spec::{SsdFaultSpec, SsdSpec};

/// Cumulative device statistics (host-visible side; see [`FtlStats`] for
/// the NAND-side numbers).
#[derive(Debug, Clone, Default)]
pub struct SsdStats {
    /// Host page writes completed.
    pub writes: u64,
    /// Host page reads completed.
    pub reads: u64,
    /// Total bytes written by the host.
    pub bytes_written: u64,
    /// Total bytes read by the host.
    pub bytes_read: u64,
    /// Transient faults injected (write/read errors and busy rejections).
    pub faults_injected: u64,
}

/// Interned `ssd.*` metric handles; inert until [`SsdDevice::set_obs`].
#[derive(Debug, Clone, Default)]
struct SsdObs {
    writes: CounterHandle,
    reads: CounterHandle,
    bytes_written: CounterHandle,
    bytes_read: CounterHandle,
    write_ns: HistogramHandle,
    read_ns: HistogramHandle,
    faults_injected: CounterHandle,
    /// `ssd.crash_capture_bytes`: what the armed capture log holds on to.
    crash_capture_bytes: GaugeHandle,
    /// Device events on the sim-time axis (the `Ssd` track).
    tracer: Tracer,
}

impl SsdObs {
    fn new(obs: &ObsHandle) -> Self {
        SsdObs {
            writes: obs.counter("ssd.writes"),
            reads: obs.counter("ssd.reads"),
            bytes_written: obs.counter("ssd.bytes_written"),
            bytes_read: obs.counter("ssd.bytes_read"),
            write_ns: obs.histogram("ssd.write_sim_ns"),
            read_ns: obs.histogram("ssd.read_sim_ns"),
            faults_injected: obs.counter("fault.ssd.injected"),
            crash_capture_bytes: obs.gauge("ssd.crash_capture_bytes"),
            tracer: obs.tracer().clone(),
        }
    }
}

/// The simulated SSD.
///
/// Host commands are page-granular ([`SsdSpec::page_bytes`]). Each command
/// pays controller overhead, then its NAND operations execute on the
/// owning die's queue; garbage collection ops ride along on the command
/// that triggered them (foreground GC, as on real consumer devices under
/// sustained load).
///
/// # Example
///
/// ```
/// use dr_ssd_sim::{SsdDevice, SsdSpec};
/// use dr_des::SimTime;
///
/// let mut ssd = SsdDevice::new(SsdSpec::samsung_830_256g());
/// let page = vec![0xAAu8; 4096];
/// let g = ssd.write_page(SimTime::ZERO, 42, &page)?;
/// let (back, _) = ssd.read_page(g.end, 42)?;
/// assert_eq!(back, page);
/// # Ok::<(), dr_ssd_sim::SsdError>(())
/// ```
#[derive(Debug)]
pub struct SsdDevice {
    ftl: Ftl,
    /// One queue per die: a die programs/reads/erases one thing at a time.
    dies: Vec<Resource>,
    /// Controller/firmware front-end, one command at a time.
    controller: Resource,
    /// Functional page store (only when `spec.store_data`).
    store: Option<IdMap<u64, Vec<u8>>>,
    /// The fault schedule's stream ([`SsdFaultSpec`]): transient errors
    /// and silent bit flips, each drawn only while its rate is nonzero.
    fault_rng: dr_des::SplitMix64,
    /// Armed power-cut capture: every accepted write is recorded so
    /// [`SsdDevice::power_cut`] can tear or revert it. `None` = disarmed.
    crash_log: Option<CaptureLog>,
    /// The NAND ops of the write in progress (reused across writes).
    ops: Vec<NandOp>,
    stats: SsdStats,
    obs: SsdObs,
}

impl SsdDevice {
    /// Creates a device from a hardware description.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`SsdSpec::validate`].
    pub fn new(spec: SsdSpec) -> Self {
        spec.validate();
        let dies = (0..spec.total_dies())
            .map(|i| Resource::new(format!("{}-die{}", spec.name, i), 1))
            .collect();
        let controller = Resource::new(format!("{}-ctrl", spec.name), 1);
        let store = spec.store_data.then(IdMap::default);
        SsdDevice {
            fault_rng: dr_des::SplitMix64::new(spec.faults.seed),
            ftl: Ftl::new(spec),
            dies,
            controller,
            store,
            crash_log: None,
            ops: Vec::new(),
            stats: SsdStats::default(),
            obs: SsdObs::default(),
        }
    }

    /// Wires metrics into `obs` under the `ssd.*` namespace: page
    /// read/write counts and bytes, plus per-command simulated service
    /// time (queueing + controller + NAND).
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = SsdObs::new(obs);
    }

    /// The device spec.
    pub fn spec(&self) -> &SsdSpec {
        self.ftl.spec()
    }

    /// Replaces the fault schedule mid-run and reseeds its stream, so a
    /// toggle at sim-time T is deterministic regardless of how many draws
    /// happened before it. Stored data, FTL state, and timing are
    /// untouched.
    pub fn set_faults(&mut self, faults: SsdFaultSpec) {
        self.fault_rng = dr_des::SplitMix64::new(faults.seed);
        self.ftl.set_faults(faults);
    }

    /// Arms power-cut capture: from now on every accepted page write is
    /// recorded so a later [`SsdDevice::power_cut`] can classify it as
    /// durable, torn, or lost. Capture changes no timing and no contents;
    /// an armed device that never cuts behaves bit-identically to a
    /// disarmed one.
    ///
    /// # Panics
    ///
    /// Panics when the device was built without `store_data` — there is
    /// no functional store to tear.
    pub fn arm_crash_capture(&mut self) {
        assert!(
            self.store.is_some(),
            "crash capture needs a device with store_data"
        );
        self.crash_log = Some(CaptureLog::default());
    }

    /// Logs what `entry` builds, when capture is armed.
    fn capture(&mut self, entry: impl FnOnce() -> Capture) {
        if let Some(log) = &mut self.crash_log {
            log.push(entry());
            self.obs.crash_capture_bytes.set(log.retained_bytes as i64);
        }
    }

    /// Cuts power at `spec.at`: rolls back captured writes that never
    /// reached the NAND, splices torn contents into pages in flight at
    /// the cut, and leaves completed writes durable. The capture log is
    /// re-armed (emptied) so the survivor can crash again.
    ///
    /// The FTL mapping is deliberately *not* rewound: a page-mapped FTL
    /// keeps its translation in NAND spare areas and rebuilds it on power
    /// up, so post-crash reads of a torn or lost page return the spliced
    /// or zero contents rather than failing — exactly what recovery code
    /// must defend against.
    ///
    /// # Panics
    ///
    /// Panics when [`SsdDevice::arm_crash_capture`] was never called.
    pub fn power_cut(&mut self, spec: CrashSpec) -> CrashReport {
        let log = self
            .crash_log
            .replace(CaptureLog::default())
            .expect("power_cut without arm_crash_capture");
        self.obs.crash_capture_bytes.set(0);
        let page_bytes = self.ftl.spec().page_bytes as usize;
        let store = self
            .store
            .as_mut()
            .expect("crash capture armed without a store");
        apply_power_cut(store, log.entries, page_bytes, spec)
    }

    /// Host-side statistics.
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// NAND-side statistics (write amplification, erases, migrations).
    pub fn ftl_stats(&self) -> FtlStats {
        self.ftl.stats()
    }

    /// Fraction of rated P/E cycles consumed on the most-worn block.
    pub fn endurance_consumed(&self) -> f64 {
        self.ftl.endurance_consumed()
    }

    /// Number of host-visible pages.
    pub fn logical_pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    /// Executes `ops` starting no earlier than `start`, returning when the
    /// last one finishes. Ops on different dies overlap; ops on the same
    /// die serialize via that die's queue.
    fn run_ops(dies: &mut [Resource], spec: &SsdSpec, start: SimTime, ops: &[NandOp]) -> SimTime {
        let (t_read, t_prog, t_erase) = (spec.t_read, spec.t_prog, spec.t_erase);
        let mut done = start;
        for op in ops {
            let (die, dur) = match *op {
                NandOp::Read { die } => (die, t_read),
                NandOp::Program { die } => (die, t_prog),
                NandOp::Erase { die } => (die, t_erase),
            };
            let grant = dies[die as usize].acquire(start, dur);
            done = done.max(grant.end);
        }
        done
    }

    /// Draws from the transient-fault schedule; returns the injected error,
    /// if any. Rates are gated *before* any RNG draw so an all-zero
    /// [`SsdFaultSpec`](crate::SsdFaultSpec) consumes no randomness and the
    /// device behaves bit-identically to one without the fault layer.
    /// Injected faults charge no device time and mutate no FTL state.
    fn draw_transient_fault(&mut self, lpn: u64, is_write: bool) -> Option<SsdError> {
        let faults = &self.ftl.spec().faults;
        let busy_rate = faults.busy_rate;
        let error_rate = if is_write {
            faults.write_error_rate
        } else {
            faults.read_error_rate
        };
        let fault = if busy_rate > 0.0 && self.fault_rng.next_f64() < busy_rate {
            Some(SsdError::Busy)
        } else if error_rate > 0.0 && self.fault_rng.next_f64() < error_rate {
            Some(if is_write {
                SsdError::WriteFault { lpn }
            } else {
                SsdError::ReadFault { lpn }
            })
        } else {
            None
        };
        if fault.is_some() {
            self.stats.faults_injected += 1;
            self.obs.faults_injected.incr();
        }
        fault
    }

    /// Writes one page. Returns the command's grant (queueing + service).
    ///
    /// # Errors
    ///
    /// [`SsdError::BadPageSize`] when `data` is not exactly one page;
    /// [`SsdError::InvalidLpn`] / [`SsdError::CapacityExhausted`] from the
    /// FTL; [`SsdError::Busy`] / [`SsdError::WriteFault`] when the spec's
    /// fault schedule injects a transient failure (no state changes and no
    /// device time is charged — the caller decides when to retry).
    pub fn write_page(&mut self, now: SimTime, lpn: u64, data: &[u8]) -> Result<Grant, SsdError> {
        let page_bytes = self.ftl.spec().page_bytes;
        if data.len() != page_bytes as usize {
            return Err(SsdError::BadPageSize {
                got: data.len(),
                expected: page_bytes,
            });
        }
        if let Some(fault) = self.draw_transient_fault(lpn, true) {
            return Err(fault);
        }
        let t_ctrl = self.ftl.spec().t_ctrl;
        self.ftl.write(lpn, &mut self.ops)?;
        let front = self.controller.acquire(now, t_ctrl);
        let end = Self::run_ops(&mut self.dies, self.ftl.spec(), front.end, &self.ops);
        if let Some(store) = &mut self.store {
            let armed = self.crash_log.is_some();
            if let Some(prev) = crash::program(store, lpn, data, armed) {
                let grant = Grant {
                    start: front.start,
                    end,
                };
                self.capture(|| Capture::Write(WriteCapture { lpn, grant, prev }));
            }
        }
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        self.obs.writes.incr();
        self.obs.bytes_written.add(data.len() as u64);
        self.obs
            .write_ns
            .record(end.saturating_duration_since(front.start).as_nanos());
        self.obs.tracer.sim_span(
            Track::Ssd,
            "write-page",
            front.start.as_nanos(),
            end.as_nanos(),
            trace_args(&[("lpn", lpn)]),
        );
        Ok(Grant {
            start: front.start,
            end,
        })
    }

    /// Reads one page, returning its contents (zero-filled when the device
    /// was built without content retention) and the command's grant.
    ///
    /// # Errors
    ///
    /// As [`SsdDevice::read_page_into`].
    pub fn read_page(&mut self, now: SimTime, lpn: u64) -> Result<(Vec<u8>, Grant), SsdError> {
        let page_bytes = self.ftl.spec().page_bytes as usize;
        let mut data = Vec::with_capacity(page_bytes);
        let grant = self.read_page_into(now, lpn, slice::from_ref(&(0..page_bytes)), &mut data)?;
        Ok((data, grant))
    }

    /// Reads one page and appends each of `ranges` of it to `out`, in
    /// order — the page read itself, for callers that want parts of a
    /// page in a buffer they already own (the frames of a read batch that
    /// share the page: one command for all of them). The command is a
    /// whole-page read whatever the ranges: timing, statistics and fault
    /// draws do not depend on them, and an injected bit flip shows in
    /// every range that covers it and is simply not seen outside them.
    /// `out` is untouched on error.
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidLpn`] / [`SsdError::Unwritten`] from the FTL;
    /// [`SsdError::Busy`] / [`SsdError::ReadFault`] when the spec's fault
    /// schedule injects a transient failure (retry is safe).
    ///
    /// # Panics
    ///
    /// Panics when a range reaches past the page.
    pub fn read_page_into(
        &mut self,
        now: SimTime,
        lpn: u64,
        ranges: &[Range<usize>],
        out: &mut Vec<u8>,
    ) -> Result<Grant, SsdError> {
        if let Some(fault) = self.draw_transient_fault(lpn, false) {
            return Err(fault);
        }
        let t_ctrl = self.ftl.spec().t_ctrl;
        let (_ppa, op) = self.ftl.read(lpn)?;
        let front = self.controller.acquire(now, t_ctrl);
        let end = Self::run_ops(&mut self.dies, self.ftl.spec(), front.end, &[op]);
        let page_bytes = self.ftl.spec().page_bytes as usize;
        let at = out.len();
        let page = self.store.as_ref().and_then(|store| store.get(&lpn));
        for range in ranges {
            assert!(range.end <= page_bytes, "read range {range:?} exceeds page");
            match page {
                Some(page) => out.extend_from_slice(&page[range.clone()]),
                None => out.resize(out.len() + range.len(), 0),
            }
        }
        // Uncorrectable-read-error injection: flip one bit of the page.
        let flip_rate = self.ftl.spec().faults.bit_flip_rate;
        if flip_rate > 0.0 && self.fault_rng.next_f64() < flip_rate {
            let bit = self.fault_rng.next_below(page_bytes as u64 * 8);
            let byte = (bit / 8) as usize;
            let mut piece = at;
            for range in ranges {
                if range.contains(&byte) {
                    out[piece + byte - range.start] ^= 1 << (bit % 8);
                }
                piece += range.len();
            }
        }
        self.stats.reads += 1;
        self.stats.bytes_read += page_bytes as u64;
        self.obs.reads.incr();
        self.obs.bytes_read.add(page_bytes as u64);
        self.obs
            .read_ns
            .record(end.saturating_duration_since(front.start).as_nanos());
        self.obs.tracer.sim_span(
            Track::Ssd,
            "read-page",
            front.start.as_nanos(),
            end.as_nanos(),
            trace_args(&[("lpn", lpn)]),
        );
        Ok(Grant {
            start: front.start,
            end,
        })
    }

    /// Invalidates a page (TRIM).
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidLpn`] for out-of-range pages.
    pub fn trim(&mut self, lpn: u64) -> Result<(), SsdError> {
        self.ftl.trim(lpn)?;
        if let Some(page) = self.store.as_mut().and_then(|store| store.remove(&lpn)) {
            self.capture(|| Capture::Trimmed { lpn, page });
        }
        Ok(())
    }

    /// Measures sustained random-write throughput: writes `count` pages at
    /// uniformly random LPNs back-to-back and returns IOPS on the simulated
    /// clock. This is the paper's "SSD throughput" baseline.
    pub fn measure_write_iops(&mut self, count: u64, seed: u64) -> f64 {
        let mut rng = dr_des::SplitMix64::new(seed);
        let pages = self.logical_pages();
        let payload = vec![0u8; self.ftl.spec().page_bytes as usize];
        let mut last_end = SimTime::ZERO;
        let start = SimTime::ZERO;
        for _ in 0..count {
            let lpn = rng.next_below(pages);
            let g = self
                .write_page(start, lpn, &payload)
                .expect("measurement write failed");
            last_end = last_end.max(g.end);
        }
        count as f64 / last_end.duration_since(start).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_device() -> SsdDevice {
        SsdDevice::new(SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 16,
            pages_per_block: 8,
            ..SsdSpec::samsung_830_256g()
        })
    }

    #[test]
    fn write_read_round_trip() {
        let mut ssd = small_device();
        let page: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let g = ssd.write_page(SimTime::ZERO, 7, &page).unwrap();
        let (back, _) = ssd.read_page(g.end, 7).unwrap();
        assert_eq!(back, page);
    }

    #[test]
    fn ranged_read_appends_the_range_and_costs_a_whole_page() {
        let (mut whole, mut ranged) = (small_device(), small_device());
        let page: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        whole.write_page(SimTime::ZERO, 7, &page).unwrap();
        ranged.write_page(SimTime::ZERO, 7, &page).unwrap();
        let (_, want) = whole.read_page(SimTime::ZERO, 7).unwrap();
        let mut out = b"kept".to_vec();
        let got = ranged
            .read_page_into(SimTime::ZERO, 7, slice::from_ref(&(100..1100)), &mut out)
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(&out[..4], b"kept");
        assert_eq!(&out[4..], &page[100..1100]);
        assert_eq!(ranged.stats().bytes_read, whole.stats().bytes_read);
        // A failed read leaves the buffer alone.
        assert!(ranged
            .read_page_into(SimTime::ZERO, 8, slice::from_ref(&(0..16)), &mut out)
            .is_err());
        assert_eq!(out.len(), 1004);
    }

    #[test]
    fn several_ranges_of_a_page_are_one_command() {
        let spec = || SsdSpec {
            faults: SsdFaultSpec {
                bit_flip_rate: 1.0,
                ..SsdFaultSpec::default()
            },
            ..small_device().spec().clone()
        };
        let (mut whole, mut pieces) = (SsdDevice::new(spec()), SsdDevice::new(spec()));
        let page: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        whole.write_page(SimTime::ZERO, 3, &page).unwrap();
        pieces.write_page(SimTime::ZERO, 3, &page).unwrap();
        let ranges = [0..100, 1000..3000, 4000..4096];
        let (mut seen, mut unseen) = (0, 0);
        for _ in 0..64 {
            // One bit flipped per read, wherever it lands.
            let (flipped, want) = whole.read_page(SimTime::ZERO, 3).unwrap();
            let mut out = Vec::new();
            let got = pieces
                .read_page_into(SimTime::ZERO, 3, &ranges, &mut out)
                .unwrap();
            assert_eq!(got, want);
            let expected: Vec<u8> = ranges
                .iter()
                .flat_map(|r| flipped[r.clone()].to_vec())
                .collect();
            assert_eq!(out, expected);
            let clean: Vec<u8> = ranges
                .iter()
                .flat_map(|r| page[r.clone()].to_vec())
                .collect();
            if out == clean {
                unseen += 1;
            } else {
                seen += 1;
            }
        }
        assert!(seen > 0 && unseen > 0, "seen {seen}, unseen {unseen}");
        assert_eq!(pieces.stats().reads, whole.stats().reads);
        assert_eq!(pieces.stats().bytes_read, whole.stats().bytes_read);
    }

    #[test]
    fn injected_bit_flips_draw_over_the_page_whatever_the_range() {
        // Every read flips one bit somewhere in the page. A ranged read
        // must consume the same two draws and show the flip only when it
        // lands inside the range — so two devices stay in lockstep.
        let spec = || SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 16,
            pages_per_block: 8,
            faults: SsdFaultSpec {
                bit_flip_rate: 1.0,
                ..SsdFaultSpec::default()
            },
            ..SsdSpec::samsung_830_256g()
        };
        let (mut whole, mut ranged) = (SsdDevice::new(spec()), SsdDevice::new(spec()));
        let page = vec![0u8; 4096];
        whole.write_page(SimTime::ZERO, 0, &page).unwrap();
        ranged.write_page(SimTime::ZERO, 0, &page).unwrap();
        let (mut seen, mut unseen) = (0, 0);
        for _ in 0..64 {
            let (flipped, _) = whole.read_page(SimTime::ZERO, 0).unwrap();
            let mut half = Vec::new();
            ranged
                .read_page_into(SimTime::ZERO, 0, slice::from_ref(&(2048..4096)), &mut half)
                .unwrap();
            assert_eq!(half, flipped[2048..]);
            if half == page[2048..] {
                unseen += 1;
            } else {
                seen += 1;
            }
        }
        assert!(seen > 0 && unseen > 0, "seen {seen}, unseen {unseen}");
    }

    #[test]
    fn wrong_payload_size_rejected() {
        let mut ssd = small_device();
        let err = ssd.write_page(SimTime::ZERO, 0, &[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            SsdError::BadPageSize {
                got: 3,
                expected: 4096
            }
        );
    }

    #[test]
    fn writes_to_different_dies_overlap() {
        let mut ssd = small_device();
        let page = vec![0u8; 4096];
        let g0 = ssd.write_page(SimTime::ZERO, 0, &page).unwrap();
        let g1 = ssd.write_page(SimTime::ZERO, 1, &page).unwrap();
        // Round-robin puts them on different dies: programs overlap, only
        // the controller front-end (2us) serializes.
        let spec = ssd.spec().clone();
        assert!(g1.end < g0.end + spec.t_prog);
    }

    #[test]
    fn trim_then_read_fails() {
        let mut ssd = small_device();
        let page = vec![9u8; 4096];
        ssd.write_page(SimTime::ZERO, 3, &page).unwrap();
        ssd.trim(3).unwrap();
        assert!(matches!(
            ssd.read_page(SimTime::ZERO, 3),
            Err(SsdError::Unwritten { .. })
        ));
    }

    #[test]
    fn stats_track_host_traffic() {
        let mut ssd = small_device();
        let page = vec![0u8; 4096];
        ssd.write_page(SimTime::ZERO, 0, &page).unwrap();
        ssd.write_page(SimTime::ZERO, 1, &page).unwrap();
        ssd.read_page(SimTime::ZERO, 0).unwrap();
        assert_eq!(ssd.stats().writes, 2);
        assert_eq!(ssd.stats().reads, 1);
        assert_eq!(ssd.stats().bytes_written, 8192);
        assert_eq!(ssd.stats().bytes_read, 4096);
    }

    #[test]
    fn no_store_device_returns_zero_pages() {
        let mut spec = SsdSpec::samsung_830_256g();
        spec.store_data = false;
        spec.blocks_per_die = 16;
        spec.pages_per_block = 8;
        let mut ssd = SsdDevice::new(spec);
        let page = vec![0xFFu8; 4096];
        ssd.write_page(SimTime::ZERO, 0, &page).unwrap();
        let (back, _) = ssd.read_page(SimTime::ZERO, 0).unwrap();
        assert_eq!(back, vec![0u8; 4096]);
    }

    #[test]
    fn sustained_write_iops_near_calibration_target() {
        // The paper quotes ~80K IOPS for the Samsung 830. The model's
        // sustained random-write rate should land in the 70-95K band.
        let mut ssd = SsdDevice::new(SsdSpec {
            store_data: false,
            ..SsdSpec::samsung_830_256g()
        });
        let iops = ssd.measure_write_iops(20_000, 42);
        assert!(
            (70_000.0..95_000.0).contains(&iops),
            "sustained write IOPS {iops}"
        );
    }

    /// Sustained sequential-write bandwidth: writes `count` pages at
    /// ascending LPNs and returns MB (10^6 bytes) per simulated second.
    fn measure_seq_write_mbps(ssd: &mut SsdDevice, count: u64) -> f64 {
        let payload = vec![0u8; ssd.ftl.spec().page_bytes as usize];
        let pages = ssd.logical_pages();
        let mut last_end = SimTime::ZERO;
        for i in 0..count {
            let g = ssd.write_page(SimTime::ZERO, i % pages, &payload).unwrap();
            last_end = last_end.max(g.end);
        }
        count as f64 * payload.len() as f64 / 1e6 / last_end.as_secs_f64()
    }

    /// Random-read throughput over pages already written at LPNs
    /// `0..span`: IOPS on the simulated clock.
    fn measure_read_iops(ssd: &mut SsdDevice, count: u64, span: u64, seed: u64) -> f64 {
        let mut rng = dr_des::SplitMix64::new(seed);
        let mut last_end = SimTime::ZERO;
        for _ in 0..count {
            let (_, g) = ssd.read_page(SimTime::ZERO, rng.next_below(span)).unwrap();
            last_end = last_end.max(g.end);
        }
        count as f64 / last_end.as_secs_f64()
    }

    #[test]
    fn sequential_write_bandwidth_near_spec() {
        // 24 dies x 4 KB / 280 us ≈ 350 MB/s ceiling; sustained lands close
        // (the real 830 is rated 320 MB/s sequential).
        let mut ssd = SsdDevice::new(SsdSpec {
            store_data: false,
            ..SsdSpec::samsung_830_256g()
        });
        let mbps = measure_seq_write_mbps(&mut ssd, 20_000);
        assert!((250.0..400.0).contains(&mbps), "seq write {mbps} MB/s");
    }

    #[test]
    fn read_iops_exceed_write_iops() {
        let mut ssd = SsdDevice::new(SsdSpec {
            store_data: false,
            ..SsdSpec::samsung_830_256g()
        });
        let page = vec![0u8; 4096];
        for lpn in 0..4096 {
            ssd.write_page(SimTime::ZERO, lpn, &page).unwrap();
        }
        let read_iops = measure_read_iops(&mut ssd, 20_000, 4096, 3);
        // t_read 60us vs t_prog 280us: reads are several times faster
        // than the ~85K-IOPS write ceiling (queueing skew across the die
        // array keeps sustained reads below the 400K analytic bound).
        assert!(read_iops > 150_000.0, "read IOPS {read_iops}");
    }

    #[test]
    fn power_cut_reverts_unstarted_and_keeps_durable_pages() {
        let mut ssd = small_device();
        ssd.arm_crash_capture();
        let old = vec![0x11u8; 4096];
        let new = vec![0x22u8; 4096];
        let g0 = ssd.write_page(SimTime::ZERO, 0, &old).unwrap();
        // Overwrite lpn 0 and first-write lpn 1 after the durable window.
        let g1 = ssd.write_page(g0.end, 0, &new).unwrap();
        ssd.write_page(g0.end, 1, &new).unwrap();
        // Cut right after the first write completed: the overwrite and
        // the first write to lpn 1 had not started service yet... unless
        // queueing overlapped. Use the grant to pick a safe cut point.
        let report = ssd.power_cut(CrashSpec {
            at: g1.start,
            torn_seed: 3,
        });
        assert_eq!(report.durable, 1);
        assert_eq!(report.torn, 0);
        assert_eq!(report.reverted, 2);
        let (back, _) = ssd.read_page(g1.end, 0).unwrap();
        assert_eq!(back, old, "reverted overwrite must expose old contents");
        let (gone, _) = ssd.read_page(g1.end, 1).unwrap();
        assert_eq!(gone, vec![0u8; 4096], "lost first write reads as zeros");
    }

    #[test]
    fn power_cut_tears_the_page_in_flight() {
        let mut ssd = small_device();
        ssd.arm_crash_capture();
        let old = vec![0x11u8; 4096];
        let new = vec![0x22u8; 4096];
        let g0 = ssd.write_page(SimTime::ZERO, 9, &old).unwrap();
        let g1 = ssd.write_page(g0.end, 9, &new).unwrap();
        let mid = g1.start + g1.end.saturating_duration_since(g1.start) / 2;
        let report = ssd.power_cut(CrashSpec {
            at: mid,
            torn_seed: 99,
        });
        assert_eq!(report.durable, 1);
        assert_eq!(report.torn, 1);
        let (back, _) = ssd.read_page(g1.end, 9).unwrap();
        let split = back.iter().take_while(|&&b| b == 0x22).count();
        assert!(
            back[split..].iter().all(|&b| b == 0x11),
            "torn page must be new-prefix + old-suffix"
        );
    }

    #[test]
    fn armed_capture_changes_no_grants() {
        let run = |arm: bool| {
            let mut ssd = small_device();
            if arm {
                ssd.arm_crash_capture();
            }
            let page = vec![5u8; 4096];
            let mut at = SimTime::ZERO;
            let mut ends = Vec::new();
            for lpn in 0..16 {
                let g = ssd.write_page(at, lpn, &page).unwrap();
                at = g.end;
                ends.push(g.end);
            }
            ends
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "store_data")]
    fn arming_without_a_store_panics() {
        let mut spec = SsdSpec::samsung_830_256g();
        spec.store_data = false;
        SsdDevice::new(spec).arm_crash_capture();
    }

    /// The capture this crate used to keep, as the reference model: a
    /// clone of the page's previous contents per write, unwound backwards.
    #[derive(Default)]
    struct CloneEverything {
        store: IdMap<u64, Vec<u8>>,
        log: Vec<(u64, Grant, Option<Vec<u8>>)>,
    }

    impl CloneEverything {
        fn write(&mut self, lpn: u64, grant: Grant, data: &[u8]) {
            self.log.push((lpn, grant, self.store.get(&lpn).cloned()));
            self.store.insert(lpn, data.to_vec());
        }

        fn power_cut(&mut self, page_bytes: usize, spec: CrashSpec) -> CrashReport {
            let mut rng = dr_des::SplitMix64::new(spec.torn_seed);
            let mut report = CrashReport::default();
            for (lpn, grant, prev) in std::mem::take(&mut self.log).into_iter().rev() {
                if grant.end <= spec.at {
                    report.durable += 1;
                } else if grant.start >= spec.at {
                    match prev {
                        Some(prev) => self.store.insert(lpn, prev),
                        None => self.store.remove(&lpn),
                    };
                    report.reverted += 1;
                } else {
                    let split = rng.next_below(page_bytes as u64 + 1) as usize;
                    let mut torn = match self.store.get(&lpn) {
                        Some(new) => new[..split].to_vec(),
                        None => vec![0; split],
                    };
                    match &prev {
                        Some(prev) => torn.extend_from_slice(&prev[split..]),
                        None => torn.resize(page_bytes, 0),
                    }
                    self.store.insert(lpn, torn);
                    report.torn += 1;
                }
            }
            report
        }
    }

    #[test]
    fn power_cuts_match_the_clone_everything_capture() {
        use dr_des::testkit::Cases;
        // 200-byte pages: not a multiple of the zero scan's 64-byte block,
        // so its partial head block is exercised.
        for page_bytes in [200usize, 4096] {
            Cases::new("power-cut-differential", 0xD1FF).run(150, |rng| {
                let mut ssd = SsdDevice::new(SsdSpec {
                    channels: 2,
                    dies_per_channel: 2,
                    blocks_per_die: 16,
                    pages_per_block: 8,
                    page_bytes: page_bytes as u32,
                    ..SsdSpec::samsung_830_256g()
                });
                ssd.arm_crash_capture();
                let mut model = CloneEverything::default();
                let mut horizon = SimTime::ZERO;
                // Two cuts in a row: the survivor of the first is armed
                // again and must unwind as exactly as a fresh device.
                for _cut in 0..2 {
                    for _ in 0..rng.next_below(40) {
                        let lpn = rng.next_below(5);
                        let old = model.store.get(&lpn);
                        let mut page = vec![0u8; page_bytes];
                        match (rng.next_below(7), old) {
                            // Append-style re-program: the old contents,
                            // a little more, zeros after.
                            (0..=2, Some(old)) => {
                                let used = old.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                                let grown =
                                    (used + 1 + rng.next_below(40) as usize).min(page_bytes);
                                page[..used].copy_from_slice(&old[..used]);
                                rng.fill_bytes(&mut page[used..grown]);
                            }
                            // The same page again.
                            (3, Some(old)) => page.copy_from_slice(old),
                            // The same page but for its last used byte:
                            // not a prefix, by the shortest margin.
                            (6, Some(old)) => {
                                page.copy_from_slice(old);
                                if let Some(last) = old.iter().rposition(|&b| b != 0) {
                                    page[last] ^= 0x55;
                                }
                            }
                            // All zeros.
                            (4, _) => {}
                            // TRIM, which a cut does not undo.
                            (5, Some(_)) if rng.next_below(4) == 0 => {
                                ssd.trim(lpn).unwrap();
                                model.store.remove(&lpn);
                                continue;
                            }
                            // Unrelated contents (and every first write).
                            _ => rng.fill_bytes(&mut page),
                        }
                        // Issue at or before the horizon, so programs of
                        // one LPN overlap on different dies.
                        let back = rng.next_below(horizon.as_nanos() / 2 + 1);
                        let now = SimTime::from_nanos(horizon.as_nanos() - back);
                        let g = ssd.write_page(now, lpn, &page).unwrap();
                        model.write(lpn, g, &page);
                        horizon = horizon.max(g.end);
                    }
                    let at = match rng.next_below(4) {
                        0 => SimTime::ZERO,
                        1 => horizon,
                        _ => SimTime::from_nanos(rng.next_below(horizon.as_nanos() + 1)),
                    };
                    let spec = CrashSpec {
                        at,
                        torn_seed: rng.next_u64(),
                    };
                    assert_eq!(ssd.power_cut(spec), model.power_cut(page_bytes, spec));
                    assert_eq!(ssd.store.as_ref().unwrap(), &model.store);
                    assert_eq!(ssd.crash_log.as_ref().unwrap().retained_bytes, 0);
                }
            });
        }

        // The journal tail's pattern, cut before, inside and after every
        // program: records (zero bytes, trailing ones too) grow one LPN's
        // used prefix, each followed by a program of the open page padded
        // with zeros, and a page that fills is programmed whole before
        // the next LPN starts from empty. The programs chain, as the
        // journal issues them, or all start at once, so re-programs of
        // one LPN overlap on different dies.
        for page_bytes in [200usize, 4096] {
            let mut rng = dr_des::SplitMix64::new(page_bytes as u64);
            let (mut log, mut full, mut programs) = (Vec::new(), 0usize, Vec::new());
            while programs.len() < 24 {
                let mut record = vec![0u8; 1 + rng.next_below(page_bytes as u64 / 3) as usize];
                rng.fill_bytes(&mut record);
                let len = record.len();
                record[len / 2..].iter_mut().step_by(2).for_each(|b| *b = 0);
                log.extend_from_slice(&record);
                while log.len() >= (full + 1) * page_bytes {
                    programs.push((full as u64, log[full * page_bytes..][..page_bytes].to_vec()));
                    full += 1;
                }
                let mut open = log[full * page_bytes..].to_vec();
                if !open.is_empty() {
                    open.resize(page_bytes, 0);
                    programs.push((full as u64, open));
                }
            }
            for chained in [true, false] {
                let run = |cut: Option<SimTime>| {
                    let mut ssd = SsdDevice::new(SsdSpec {
                        channels: 2,
                        dies_per_channel: 2,
                        blocks_per_die: 16,
                        pages_per_block: 8,
                        page_bytes: page_bytes as u32,
                        ..SsdSpec::samsung_830_256g()
                    });
                    ssd.arm_crash_capture();
                    let mut model = CloneEverything::default();
                    let mut grants = Vec::new();
                    let mut now = SimTime::ZERO;
                    for (lpn, page) in &programs {
                        let g = ssd.write_page(now, *lpn, page).unwrap();
                        model.write(*lpn, g, page);
                        grants.push(g);
                        if chained {
                            now = g.end;
                        }
                    }
                    let per_record = std::mem::size_of::<Capture>();
                    assert_eq!(
                        ssd.crash_log.as_ref().unwrap().retained_bytes,
                        programs.len() * per_record,
                        "a tail re-program kept a page"
                    );
                    if let Some(at) = cut {
                        let spec = CrashSpec {
                            at,
                            torn_seed: at.as_nanos(),
                        };
                        assert_eq!(ssd.power_cut(spec), model.power_cut(page_bytes, spec));
                        assert_eq!(ssd.store.as_ref().unwrap(), &model.store, "cut at {at:?}");
                    }
                    grants
                };
                for g in run(None) {
                    let (start, end) = (g.start.as_nanos(), g.end.as_nanos());
                    for at in [
                        start.saturating_sub(1),
                        start,
                        (start + end) / 2,
                        end - 1,
                        end,
                    ] {
                        run(Some(SimTime::from_nanos(at)));
                    }
                }
            }
        }
    }

    #[test]
    fn tail_reprograms_retain_records_not_pages() {
        let obs = ObsHandle::enabled("t");
        let mut ssd = small_device();
        ssd.set_obs(&obs);
        ssd.arm_crash_capture();
        let mut page = vec![0u8; 4096];
        let mut at = SimTime::ZERO;
        for i in 0..10_000usize {
            page[i % 4096] = 1 + (i % 255) as u8;
            if i % 4096 == 4095 {
                // The page filled up: the log moves to a fresh one.
                page.fill(0);
            }
            at = ssd.write_page(at, 3, &page).unwrap().end;
        }
        let retained = obs.gauge("ssd.crash_capture_bytes").get();
        let per_record = std::mem::size_of::<Capture>() as i64;
        // Two captures keep a page: the rewrites with a zeroed page.
        assert_eq!(retained, 10_000 * per_record + 2 * 4096);
        assert!(per_record <= 64, "a capture record is {per_record} bytes");
    }

    #[test]
    fn certain_write_fault_always_injects_and_mutates_nothing() {
        let mut spec = SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 16,
            pages_per_block: 8,
            ..SsdSpec::samsung_830_256g()
        };
        spec.faults.write_error_rate = 1.0;
        let mut ssd = SsdDevice::new(spec);
        let page = vec![1u8; 4096];
        for _ in 0..3 {
            assert_eq!(
                ssd.write_page(SimTime::ZERO, 5, &page),
                Err(SsdError::WriteFault { lpn: 5 })
            );
        }
        assert_eq!(ssd.stats().writes, 0);
        assert_eq!(ssd.stats().faults_injected, 3);
        // The page was never committed.
        assert!(matches!(
            ssd.read_page(SimTime::ZERO, 5),
            Err(SsdError::Unwritten { .. })
        ));
    }

    #[test]
    fn partial_write_fault_rate_is_deterministic_and_retriable() {
        let build = || {
            let mut spec = SsdSpec {
                channels: 2,
                dies_per_channel: 2,
                blocks_per_die: 16,
                pages_per_block: 8,
                ..SsdSpec::samsung_830_256g()
            };
            spec.faults.write_error_rate = 0.5;
            SsdDevice::new(spec)
        };
        let run = |ssd: &mut SsdDevice| {
            let page = vec![2u8; 4096];
            let mut outcomes = Vec::new();
            for lpn in 0..32 {
                loop {
                    match ssd.write_page(SimTime::ZERO, lpn, &page) {
                        Ok(_) => {
                            outcomes.push(true);
                            break;
                        }
                        Err(e) => {
                            assert!(e.is_transient());
                            outcomes.push(false);
                        }
                    }
                }
            }
            outcomes
        };
        let mut a = build();
        let mut b = build();
        let oa = run(&mut a);
        assert_eq!(oa, run(&mut b), "same seed, same fault schedule");
        assert!(oa.iter().any(|ok| !ok), "some attempts must fault");
        assert!(a.stats().faults_injected > 0);
        assert_eq!(a.stats().writes, 32);
        // Every page landed despite the faults.
        for lpn in 0..32 {
            a.read_page(SimTime::ZERO, lpn).unwrap();
        }
    }

    #[test]
    fn busy_and_read_faults_inject() {
        let mut spec = SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 16,
            pages_per_block: 8,
            ..SsdSpec::samsung_830_256g()
        };
        spec.faults.busy_rate = 1.0;
        let mut ssd = SsdDevice::new(spec);
        let page = vec![3u8; 4096];
        assert_eq!(ssd.write_page(SimTime::ZERO, 0, &page), Err(SsdError::Busy));
        assert_eq!(ssd.read_page(SimTime::ZERO, 0).unwrap_err(), SsdError::Busy);

        let mut spec = SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 16,
            pages_per_block: 8,
            ..SsdSpec::samsung_830_256g()
        };
        spec.faults.read_error_rate = 1.0;
        let mut ssd = SsdDevice::new(spec);
        ssd.write_page(SimTime::ZERO, 4, &page).unwrap();
        assert_eq!(
            ssd.read_page(SimTime::ZERO, 4).unwrap_err(),
            SsdError::ReadFault { lpn: 4 }
        );
    }

    #[test]
    fn fault_counter_appears_in_obs() {
        let obs = ObsHandle::enabled("t");
        let mut spec = SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 16,
            pages_per_block: 8,
            ..SsdSpec::samsung_830_256g()
        };
        spec.faults.write_error_rate = 1.0;
        let mut ssd = SsdDevice::new(spec);
        ssd.set_obs(&obs);
        let page = vec![0u8; 4096];
        let _ = ssd.write_page(SimTime::ZERO, 0, &page);
        let snap = obs.snapshot().unwrap();
        let injected = snap
            .counters
            .iter()
            .find(|(n, _)| n == "fault.ssd.injected")
            .map(|(_, v)| *v);
        assert_eq!(injected, Some(1));
    }

    #[test]
    fn obs_mirrors_host_stats() {
        let obs = ObsHandle::enabled("t");
        let mut ssd = small_device();
        ssd.set_obs(&obs);
        let page = vec![0u8; 4096];
        ssd.write_page(SimTime::ZERO, 0, &page).unwrap();
        ssd.write_page(SimTime::ZERO, 1, &page).unwrap();
        ssd.read_page(SimTime::ZERO, 0).unwrap();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("ssd.writes"), 2);
        assert_eq!(counter("ssd.reads"), 1);
        assert_eq!(counter("ssd.bytes_written"), 8192);
        assert_eq!(counter("ssd.bytes_read"), 4096);
        let (_, w) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "ssd.write_sim_ns")
            .expect("write latency recorded");
        assert_eq!(w.count, 2);
        assert!(w.min > 0, "simulated write latency must be positive");
    }
}
