//! Destaging: packing reduced chunks into pages and writing them out.
//!
//! Compressed chunks are variable-sized; the destager packs them into an
//! append-only log of device pages, so unique data reaches the SSD as
//! *sequential* page writes (and index flushes likewise — the paper adds
//! the bin buffer precisely to create "the appropriate sequential writes
//! for the SSD"). Reads use the device's parallelism the same way:
//! [`Destager::read_frames`] issues one command per distinct page a read
//! batch covers, all at once, as [`Destager::drain_full`] issues a
//! batch's full pages.

use std::ops::Range;
use std::time::Instant;

use dr_binindex::ChunkRef;
use dr_des::{Grant, SimTime};
use dr_obs::{CounterHandle, ObsHandle, StageObs};
use dr_ssd_sim::{SsdDevice, SsdError};

use crate::degrade::{Guarded, SSD_WRITE};

/// Interned `destage.*` metrics; inert by default.
#[derive(Debug, Clone, Default)]
struct DestageObs {
    appends: CounterHandle,
    appended_bytes: CounterHandle,
    data_pages: CounterHandle,
    index_pages: CounterHandle,
    partial_flushes: CounterHandle,
    /// `destage.wall_ns` is the host cost of draining pages to the
    /// device model; `destage.sim_ns` is the simulated latency of each
    /// destaged data page (frame-ready to write-grant end, so device
    /// queueing is included).
    stage: StageObs,
}

impl DestageObs {
    fn new(obs: &ObsHandle) -> Self {
        DestageObs {
            appends: obs.counter("destage.appends"),
            appended_bytes: obs.counter("destage.appended_bytes"),
            data_pages: obs.counter("destage.data_pages"),
            index_pages: obs.counter("destage.index_pages"),
            partial_flushes: obs.counter("destage.partial_flushes"),
            stage: obs.stage("destage"),
        }
    }
}

/// The append-only destage log.
///
/// Data pages grow upward from page 0; index-flush pages grow downward
/// from the top of the device, so the two never collide until the device
/// is genuinely full.
#[derive(Debug)]
pub struct Destager {
    page_bytes: usize,
    /// Next data page to write.
    next_data_lpn: u64,
    /// Next index page to write (grows downward).
    next_index_lpn: u64,
    /// Partially filled data page.
    buf: Vec<u8>,
    /// Total frame bytes appended (pre-padding).
    appended_bytes: u64,
    /// Latest grant end of a data-page program: from then on every page
    /// below `next_data_lpn` is durable.
    data_end: SimTime,
    /// The SSD as a guarded component. Page writes and page reads retry
    /// transient faults through it (each retry charges its backoff delay
    /// on the simulated clock, and both tally on its one counter); the
    /// pipeline drives its latch, which sheds compression while open.
    pub(crate) ssd_write: Guarded,
    /// Scratch of [`Destager::read_frames`], kept so that a read batch
    /// allocates nothing beyond its output: the batch's frames in address
    /// order, and the pieces of the page being gathered.
    read_order: Vec<usize>,
    read_pieces: Vec<Range<usize>>,
    obs: DestageObs,
}

impl Destager {
    /// Creates a destager for `ssd`.
    pub fn new(ssd: &SsdDevice) -> Self {
        let page_bytes = ssd.spec().page_bytes as usize;
        Destager {
            page_bytes,
            next_data_lpn: 0,
            next_index_lpn: ssd.logical_pages() - 1,
            buf: Vec::with_capacity(page_bytes),
            appended_bytes: 0,
            data_end: SimTime::ZERO,
            ssd_write: Guarded::new(&SSD_WRITE, &ObsHandle::disabled()),
            read_order: Vec::new(),
            read_pieces: Vec::new(),
            obs: DestageObs::default(),
        }
    }

    /// Wires this destager to an observability registry; pass a disabled
    /// handle (the default) to turn recording off.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = DestageObs::new(obs);
        self.ssd_write.set_obs(obs);
    }

    /// Reserves `pages` at the very top of the device (above the index
    /// region) for someone else — the metadata journal. The index frontier
    /// starts just below the reservation instead of at the top LPN. Must
    /// be called before anything is destaged.
    ///
    /// # Panics
    ///
    /// Panics when the reservation would not leave at least one index
    /// page, or when destaging has already started.
    pub fn reserve_top_pages(&mut self, pages: u64) {
        assert!(
            self.next_data_lpn == 0 && self.buf.is_empty() && self.appended_bytes == 0,
            "reserve_top_pages must precede all destaging"
        );
        assert!(
            pages < self.next_index_lpn,
            "journal reservation would swallow the index region"
        );
        self.next_index_lpn -= pages;
    }

    /// The current log frontiers `(next_data_lpn, next_index_lpn)` — what
    /// a journal batch-commit record carries so recovery can restore them.
    pub fn frontiers(&self) -> (u64, u64) {
        (self.next_data_lpn, self.next_index_lpn)
    }

    /// The buffered (not yet written) tail of the open data page. A
    /// power cut loses these bytes with the rest of RAM; the journal
    /// carries a copy so recovery can restore them.
    pub fn tail(&self) -> &[u8] {
        &self.buf
    }

    /// When every data page below the frontier is durable: the latest
    /// grant end of a data-page program. A journal record carrying the
    /// frontier must not be programmed before it — once the tail is
    /// flushed, the record no longer holds those bytes; the page does.
    pub fn data_end(&self) -> SimTime {
        self.data_end
    }

    /// Restores the log to a journaled state: frontiers, appended-byte
    /// count, and the buffered tail of the open page. Used only by crash
    /// recovery — the device's pages below the frontiers are assumed to
    /// hold the journaled data already.
    pub fn restore_state(
        &mut self,
        next_data_lpn: u64,
        next_index_lpn: u64,
        appended_bytes: u64,
        tail: &[u8],
    ) {
        self.next_data_lpn = next_data_lpn;
        self.next_index_lpn = next_index_lpn;
        self.appended_bytes = appended_bytes;
        self.data_end = SimTime::ZERO;
        self.buf.clear();
        self.buf.extend_from_slice(tail);
    }

    /// Total frame bytes appended so far (excludes page padding).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Data pages written so far (excluding the open partial page).
    #[cfg(test)]
    pub fn data_pages_written(&self) -> u64 {
        self.next_data_lpn
    }

    /// Retries spent on transient SSD faults (reads and writes) so far.
    #[cfg(test)]
    pub fn fault_retries(&self) -> u64 {
        self.ssd_write.retries()
    }

    /// Data pages still writable before the data log meets the index
    /// region (the open partial page not included).
    fn free_data_pages(&self) -> u64 {
        self.next_index_lpn.saturating_sub(self.next_data_lpn)
    }

    /// Issues one page write, absorbing transient injected faults with the
    /// backoff schedule: each retry starts `delay(k)` after the previous
    /// attempt, so retries cost simulated time. Non-transient errors and
    /// retry-budget exhaustion propagate. Takes the guarded component
    /// rather than `self`, so `page` may be the log's own buffer.
    fn write_page_retrying(
        ssd_write: &mut Guarded,
        now: SimTime,
        ssd: &mut SsdDevice,
        lpn: u64,
        page: &[u8],
    ) -> Result<Grant, SsdError> {
        let write = |at| ssd.write_page(at, lpn, page);
        ssd_write
            .retry(None, now, SsdError::is_transient, write)
            .result
    }

    /// Appends one sealed frame to the log. Full pages are written to the
    /// SSD immediately; the tail stays buffered. Returns the chunk's
    /// location and the grants of any page writes issued.
    ///
    /// # Errors
    ///
    /// [`SsdError::CapacityExhausted`] when accepting the frame would push
    /// the data log into the index region — checked *before* any state
    /// changes, so a failed append leaves the log exactly as it was.
    /// Transient injected faults are retried with the backoff schedule;
    /// only a fault that survives every retry propagates.
    #[cfg(test)]
    pub fn append(
        &mut self,
        now: SimTime,
        ssd: &mut SsdDevice,
        frame: &[u8],
    ) -> Result<(ChunkRef, Vec<Grant>), SsdError> {
        let r = self.stage(frame)?;
        let grants = self.drain_full(now, ssd)?;
        Ok((r, grants))
    }

    /// Stages one sealed frame into the log buffer: capacity is checked
    /// and the chunk's address assigned, but no page write is issued yet.
    /// Pair with [`drain_full`](Self::drain_full); a frame must be staged
    /// exactly once no matter how many times the drain is retried —
    /// re-appending after a failed drain would store the bytes twice
    /// (found by `dr-check` seed 415).
    ///
    /// # Errors
    ///
    /// [`SsdError::CapacityExhausted`] when accepting the frame would push
    /// the data log into the index region — checked *before* any state
    /// changes, so a failed stage leaves the log exactly as it was.
    pub fn stage(&mut self, frame: &[u8]) -> Result<ChunkRef, SsdError> {
        // Full pages this frame would force out right now. Refuse up front:
        // a capacity error must not leave half a frame buffered or the
        // grow-up data log overlapping the grow-down index region.
        let full_pages = ((self.buf.len() + frame.len()) / self.page_bytes) as u64;
        if full_pages > self.free_data_pages() {
            return Err(SsdError::CapacityExhausted);
        }
        let addr = self.next_data_lpn * self.page_bytes as u64 + self.buf.len() as u64;
        self.buf.extend_from_slice(frame);
        self.appended_bytes += frame.len() as u64;
        self.obs.appends.incr();
        self.obs.appended_bytes.add(frame.len() as u64);
        Ok(ChunkRef::new(addr, frame.len() as u32))
    }

    /// Writes every full buffered page to the SSD. On a transient fault
    /// that survives the retry schedule the buffered bytes stay intact,
    /// so the call can simply be repeated later.
    ///
    /// # Errors
    ///
    /// Transient injected faults are retried with the backoff schedule;
    /// only a fault that survives every retry propagates.
    pub fn drain_full(
        &mut self,
        now: SimTime,
        ssd: &mut SsdDevice,
    ) -> Result<Vec<Grant>, SsdError> {
        let start = self.obs.stage.wall.is_live().then(Instant::now);
        let mut grants = Vec::new();
        while self.buf.len() >= self.page_bytes {
            // Drain only on success, so a fault that survives every retry
            // leaves the buffered bytes intact.
            let page = &self.buf[..self.page_bytes];
            let lpn = self.next_data_lpn;
            let g = Self::write_page_retrying(&mut self.ssd_write, now, ssd, lpn, page)?;
            self.buf.drain(..self.page_bytes);
            self.next_data_lpn += 1;
            self.data_end = self.data_end.max(g.end);
            self.obs.data_pages.incr();
            self.obs
                .stage
                .sim
                .record(g.end.saturating_duration_since(now).as_nanos());
            grants.push(g);
        }
        // Wall time only when a page actually went out: an empty drain
        // would flood the histogram with no-op samples.
        if let Some(start) = start {
            if !grants.is_empty() {
                self.obs
                    .stage
                    .wall
                    .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
        }
        Ok(grants)
    }

    /// Flushes the open partial page (zero-padded). Returns its grant, or
    /// `None` when the buffer is empty.
    ///
    /// # Errors
    ///
    /// Propagates SSD errors.
    pub fn flush(&mut self, now: SimTime, ssd: &mut SsdDevice) -> Result<Option<Grant>, SsdError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        // Check the crossing *before* touching the buffer, so a full device
        // does not silently discard the buffered tail; likewise pad the
        // buffer in place, cut it back to its length whatever the write
        // did, and clear only on success.
        if self.free_data_pages() == 0 {
            return Err(SsdError::CapacityExhausted);
        }
        let start = self.obs.stage.wall.is_live().then(Instant::now);
        let (len, lpn) = (self.buf.len(), self.next_data_lpn);
        self.buf.resize(self.page_bytes, 0);
        let written = Self::write_page_retrying(&mut self.ssd_write, now, ssd, lpn, &self.buf);
        self.buf.truncate(len);
        let g = written?;
        self.buf.clear();
        self.next_data_lpn += 1;
        self.data_end = self.data_end.max(g.end);
        self.obs.partial_flushes.incr();
        self.obs.data_pages.incr();
        self.obs
            .stage
            .sim
            .record(g.end.saturating_duration_since(now).as_nanos());
        if let Some(start) = start {
            self.obs
                .stage
                .wall
                .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        // Future appends continue on a fresh page; the flushed page keeps
        // its data addressable (reads use absolute byte addresses).
        Ok(Some(g))
    }

    /// Writes `bytes` of flushed index entries sequentially into the index
    /// region (top of the device, growing downward).
    ///
    /// # Errors
    ///
    /// Propagates SSD errors.
    pub fn append_index(
        &mut self,
        now: SimTime,
        ssd: &mut SsdDevice,
        bytes: u64,
    ) -> Result<Vec<Grant>, SsdError> {
        let pages = (bytes as usize).div_ceil(self.page_bytes).max(1);
        let payload = vec![0u8; self.page_bytes];
        let mut grants = Vec::with_capacity(pages);
        for _ in 0..pages {
            if self.next_index_lpn <= self.next_data_lpn {
                return Err(SsdError::CapacityExhausted);
            }
            let lpn = self.next_index_lpn;
            let g = Self::write_page_retrying(&mut self.ssd_write, now, ssd, lpn, &payload)?;
            self.next_index_lpn -= 1;
            self.obs.index_pages.incr();
            grants.push(g);
        }
        Ok(grants)
    }

    /// Reads a batch of frames back from the log into `out`, every page
    /// read issued together so the batch pays the device's queue depth,
    /// not one page read after another:
    ///
    /// - the open partial page is flushed once, and only when a frame
    ///   reaches into it; the read of that page waits for the program's
    ///   grant to end, every other read is issued at `now`;
    /// - each distinct page the frames cover is read once — a page two
    ///   adjacent frames share is one command — in ascending LPN order,
    ///   so fault draws are deterministic, each through the retry
    ///   schedule. The device's controller and per-die queues are what
    ///   bound how many of them overlap.
    ///
    /// `out.frames[i]` says where `frames[i]`'s stored bytes sit in
    /// `out.bytes` (one contiguous run per frame, runs in address order)
    /// and when the last of its pages was read. Frames are expected to be
    /// distinct, as a read batch groups them; a repeated one is read
    /// again.
    ///
    /// # Errors
    ///
    /// Propagates SSD errors; `out.bytes` may then hold part of the
    /// batch. `out.flush` is set before any page read is issued, so a
    /// failed batch still reports the page it programmed.
    pub fn read_frames(
        &mut self,
        now: SimTime,
        ssd: &mut SsdDevice,
        frames: &[ChunkRef],
        out: &mut FetchedFrames,
    ) -> Result<(), SsdError> {
        let page_bytes = self.page_bytes as u64;
        let end_of = |r: &ChunkRef| r.addr() + r.stored_len() as u64;
        out.bytes.clear();
        out.frames.clear();
        out.pages = 0;
        out.flush = None;
        let open_lpn = self.next_data_lpn;
        if frames.iter().any(|r| end_of(r) > open_lpn * page_bytes) {
            out.flush = self.flush(now, ssd)?;
        }

        // Lay the frames out in address order; the pieces of each page,
        // appended in ascending LPN order, then land in their frames' runs.
        let (order, pieces) = (&mut self.read_order, &mut self.read_pieces);
        order.clear();
        order.extend(0..frames.len());
        order.sort_unstable_by_key(|&i| frames[i].addr());
        out.frames.resize(frames.len(), FetchedFrame::default());
        let mut offset = 0;
        for &i in order.iter() {
            let len = frames[i].stored_len() as usize;
            out.frames[i].bytes = offset..offset + len;
            offset += len;
        }
        out.bytes.reserve(offset);

        // Every (frame, page) piece in address order: `k` is the frame's
        // place in `order`, so the frames that touch one page are a run
        // of `order`.
        let pieces_of = |(k, &i): (usize, &usize)| {
            let (start, end) = (frames[i].addr(), end_of(&frames[i]));
            (start / page_bytes..=(end - 1) / page_bytes).map(move |lpn| {
                let page_start = lpn * page_bytes;
                let piece = (start.max(page_start) - page_start) as usize
                    ..(end.min(page_start + page_bytes) - page_start) as usize;
                (k, lpn, piece)
            })
        };
        let mut walk = order.iter().enumerate().flat_map(pieces_of).peekable();
        pieces.clear();
        let mut first = 0;
        while let Some((k, lpn, piece)) = walk.next() {
            if pieces.is_empty() {
                first = k;
            }
            pieces.push(piece);
            if walk.peek().is_some_and(|&(_, next, _)| next == lpn) {
                continue;
            }
            let at = match out.flush {
                Some(g) if lpn == open_lpn => g.end,
                _ => now,
            };
            // Retried like a page write, and tallied on the same counter.
            // The grant starts at the *final* (successful) attempt, so
            // retry backoff is visible in the read's simulated latency.
            let read = |at| ssd.read_page_into(at, lpn, pieces, &mut out.bytes);
            let retry = Some("ssd-read retry");
            let g = self
                .ssd_write
                .retry(retry, at, SsdError::is_transient, read)
                .result?;
            out.pages += 1;
            for &i in &order[first..=k] {
                let ready = &mut out.frames[i].ready;
                *ready = (*ready).max(g.end);
            }
            pieces.clear();
        }
        Ok(())
    }
}

/// Frames read back by [`Destager::read_frames`].
#[derive(Debug, Default)]
pub struct FetchedFrames {
    /// The frames' stored bytes, one contiguous run per frame.
    pub bytes: Vec<u8>,
    /// One entry per requested frame, in request order.
    pub frames: Vec<FetchedFrame>,
    /// Distinct pages read.
    pub pages: u64,
    /// Grant of the partial-page flush the batch forced, if any — the
    /// caller folds it into the destage clock (`ssd_end`).
    pub flush: Option<Grant>,
}

/// One frame of a [`FetchedFrames`].
#[derive(Debug, Clone, Default)]
pub struct FetchedFrame {
    /// Where the frame's stored bytes sit in [`FetchedFrames::bytes`].
    pub bytes: Range<usize>,
    /// When the last of its page reads completed on the simulated clock.
    pub ready: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_ssd_sim::SsdSpec;

    fn ssd() -> SsdDevice {
        SsdDevice::new(SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 64,
            pages_per_block: 16,
            ..SsdSpec::samsung_830_256g()
        })
    }

    /// Reads `frames` back as one batch issued at `now`.
    fn read_at(
        log: &mut Destager,
        dev: &mut SsdDevice,
        now: SimTime,
        frames: &[ChunkRef],
    ) -> Result<FetchedFrames, SsdError> {
        let mut fetched = FetchedFrames::default();
        log.read_frames(now, dev, frames, &mut fetched)?;
        Ok(fetched)
    }

    /// Reads `r` back alone, from the start of time: its bytes are the
    /// whole of `bytes`.
    fn read_back(
        log: &mut Destager,
        dev: &mut SsdDevice,
        r: ChunkRef,
    ) -> Result<FetchedFrames, SsdError> {
        read_at(log, dev, SimTime::ZERO, &[r])
    }

    /// One page read's service time on an idle device: controller, then
    /// the die.
    fn page_read_ns(dev: &SsdDevice) -> u64 {
        (dev.spec().t_ctrl + dev.spec().t_read).as_nanos()
    }

    #[test]
    fn small_frames_pack_into_one_page() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        let (r1, g1) = log.append(SimTime::ZERO, &mut dev, &[1u8; 100]).unwrap();
        let (r2, g2) = log.append(SimTime::ZERO, &mut dev, &[2u8; 100]).unwrap();
        assert!(g1.is_empty() && g2.is_empty(), "no full page yet");
        assert_eq!(r1.addr(), 0);
        assert_eq!(r2.addr(), 100);
        assert_eq!(log.data_pages_written(), 0);
    }

    #[test]
    fn filling_a_page_writes_it() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        let (_, grants) = log
            .append(SimTime::ZERO, &mut dev, &vec![7u8; 5000])
            .unwrap();
        assert_eq!(grants.len(), 1); // one full page written, 904 buffered
        assert_eq!(log.data_pages_written(), 1);
    }

    #[test]
    fn read_back_round_trips_across_page_boundary() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        let frame_a: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let frame_b: Vec<u8> = (0..3000u32).map(|i| (i % 13) as u8).collect();
        let (ra, _) = log.append(SimTime::ZERO, &mut dev, &frame_a).unwrap();
        let (rb, _) = log.append(SimTime::ZERO, &mut dev, &frame_b).unwrap();
        assert_eq!(read_back(&mut log, &mut dev, ra).unwrap().bytes, frame_a);
        assert_eq!(read_back(&mut log, &mut dev, rb).unwrap().bytes, frame_b);
    }

    #[test]
    fn pages_on_distinct_dies_are_read_in_parallel() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        // Three pages, programmed round-robin onto three of the four dies.
        let frame: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        let (r, _) = log.append(SimTime::ZERO, &mut dev, &frame).unwrap();
        log.flush(SimTime::ZERO, &mut dev).unwrap();
        let idle = log.data_end();
        let read = read_at(&mut log, &mut dev, idle, &[r]).unwrap();
        assert_eq!(read.bytes, frame);
        assert_eq!(read.pages, 3);
        // The controller takes one command at a time; the dies then read
        // side by side: three page reads cost two controller slots more
        // than one, not three page reads.
        let took = read.frames[0].ready.saturating_duration_since(idle);
        let t_ctrl = dev.spec().t_ctrl.as_nanos();
        assert_eq!(took.as_nanos(), page_read_ns(&dev) + 2 * t_ctrl);
        assert!(took.as_nanos() < 2 * page_read_ns(&dev));
    }

    #[test]
    fn pages_on_one_die_queue_behind_each_other() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        // Five one-page frames: pages 0 and 4 share die 0 of four.
        let mut refs = Vec::new();
        for f in 0..5u8 {
            refs.push(log.append(SimTime::ZERO, &mut dev, &[f; 4096]).unwrap().0);
        }
        let idle = log.data_end();
        let read = read_at(&mut log, &mut dev, idle, &[refs[4], refs[0]]).unwrap();
        assert_eq!(read.bytes[..4096], [0u8; 4096], "address order");
        assert_eq!(read.frames[0].bytes, 4096..8192, "request order");
        let (first, second) = (read.frames[1].ready, read.frames[0].ready);
        assert_eq!(
            first.saturating_duration_since(idle).as_nanos(),
            page_read_ns(&dev)
        );
        assert_eq!(second.saturating_duration_since(first), dev.spec().t_read);
    }

    #[test]
    fn a_page_two_frames_share_is_read_once() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        // 3000-byte frames: the second starts in page 0 and ends in page 1.
        let frames: Vec<Vec<u8>> = (0..3u32)
            .map(|f| (0..3000u32).map(|i| (i * 3 + f) as u8).collect())
            .collect();
        let refs: Vec<ChunkRef> = (frames.iter())
            .map(|frame| log.append(SimTime::ZERO, &mut dev, frame).unwrap().0)
            .collect();
        log.flush(SimTime::ZERO, &mut dev).unwrap();
        let (reads_before, idle) = (dev.stats().reads, log.data_end());
        let read = read_at(&mut log, &mut dev, idle, &refs).unwrap();
        // Pages 0, 1 and 2: three commands for five (frame, page) pieces.
        assert_eq!(dev.stats().reads - reads_before, 3);
        assert_eq!(read.pages, 3);
        for (f, frame) in read.frames.iter().zip(&frames) {
            assert_eq!(&read.bytes[f.bytes.clone()], frame);
        }
        // Frames 0 and 1 share page 0's read; frame 1 also waits for page 1.
        assert!(read.frames[0].ready < read.frames[1].ready);
    }

    #[test]
    fn read_from_open_page_flushes_first() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        let (r, grants) = log.append(SimTime::ZERO, &mut dev, b"small frame").unwrap();
        assert!(grants.is_empty());
        let back = read_back(&mut log, &mut dev, r).unwrap();
        assert_eq!(back.bytes, b"small frame");
        assert!(back.flush.is_some(), "reading the open page flushes it");
        let again = read_back(&mut log, &mut dev, r).unwrap();
        assert!(again.flush.is_none(), "a written page is not flushed again");
    }

    #[test]
    fn the_flushed_page_is_read_only_once_its_program_ends() {
        use dr_obs::{ObsHandle, Tracer};
        let tracer = Tracer::enabled();
        let mut dev = ssd();
        dev.set_obs(&ObsHandle::enabled("flush-read").with_tracer(tracer.clone()));
        let mut log = Destager::new(&dev);
        let (full, _) = log.append(SimTime::ZERO, &mut dev, &[1u8; 4096]).unwrap();
        let (open, grants) = log.append(SimTime::ZERO, &mut dev, b"small frame").unwrap();
        assert!(grants.is_empty());
        let idle = log.data_end();
        tracer.sink().unwrap().drain();
        let read = read_at(&mut log, &mut dev, idle, &[open, full]).unwrap();
        let flush = read.flush.expect("the open page was flushed");
        assert_eq!(&read.bytes[read.frames[0].bytes.clone()], b"small frame");
        let events = tracer.sink().unwrap().drain();
        let started = |lpn: u64| {
            let span = events
                .iter()
                .find(|e| e.name == "read-page" && e.args.contains(&Some(("lpn", lpn))));
            SimTime::from_nanos(span.expect("page read traced").ts_ns)
        };
        assert!(
            started(1) >= flush.end,
            "flushed page read before its program"
        );
        assert!(
            started(0) < flush.end,
            "a written page does not wait for it"
        );
    }

    #[test]
    fn explicit_flush_is_idempotent() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        log.append(SimTime::ZERO, &mut dev, &[1u8; 10]).unwrap();
        assert!(log.flush(SimTime::ZERO, &mut dev).unwrap().is_some());
        assert!(log.flush(SimTime::ZERO, &mut dev).unwrap().is_none());
    }

    #[test]
    fn index_writes_grow_downward() {
        let mut dev = ssd();
        let top = dev.logical_pages() - 1;
        let mut log = Destager::new(&dev);
        let grants = log.append_index(SimTime::ZERO, &mut dev, 10_000).unwrap();
        assert_eq!(grants.len(), 3); // ceil(10000 / 4096)
                                     // Data log is untouched.
        assert_eq!(log.data_pages_written(), 0);
        let _ = top;
    }

    #[test]
    fn appended_bytes_excludes_padding() {
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        log.append(SimTime::ZERO, &mut dev, &[0u8; 123]).unwrap();
        log.flush(SimTime::ZERO, &mut dev).unwrap();
        assert_eq!(log.appended_bytes(), 123);
    }

    #[test]
    fn obs_records_pages_and_bytes() {
        use dr_obs::ObsHandle;
        let obs = ObsHandle::enabled("destage-test");
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        log.set_obs(&obs);
        log.append(SimTime::ZERO, &mut dev, &vec![7u8; 5000])
            .unwrap();
        log.flush(SimTime::ZERO, &mut dev).unwrap();
        log.append_index(SimTime::ZERO, &mut dev, 10_000).unwrap();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("destage.appends"), Some(1));
        assert_eq!(counter("destage.appended_bytes"), Some(5000));
        assert_eq!(counter("destage.data_pages"), Some(2)); // 1 full + 1 padded
        assert_eq!(counter("destage.partial_flushes"), Some(1));
        assert_eq!(counter("destage.index_pages"), Some(3));
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "destage.sim_ns")
            .expect("destage.sim_ns present");
        assert_eq!(hist.count, 2);
        assert!(hist.min > 0, "page writes take simulated time");
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let mut dev = SsdDevice::new(SsdSpec {
            channels: 1,
            dies_per_channel: 1,
            blocks_per_die: 4,
            pages_per_block: 4,
            store_data: false,
            ..SsdSpec::samsung_830_256g()
        });
        let mut log = Destager::new(&dev);
        let frame = vec![9u8; 4096];
        let mut hit_cap = false;
        for _ in 0..64 {
            if log.append(SimTime::ZERO, &mut dev, &frame).is_err() {
                hit_cap = true;
                break;
            }
        }
        assert!(hit_cap, "log never reported capacity exhaustion");
    }

    /// A device where the destage frontiers (not FTL free-block reserves)
    /// are the binding constraint: generous over-provisioning keeps GC out
    /// of the way, so the crossing check is what fires. 32 logical pages,
    /// top index LPN 31.
    fn tiny() -> SsdDevice {
        SsdDevice::new(SsdSpec {
            channels: 1,
            dies_per_channel: 1,
            blocks_per_die: 16,
            pages_per_block: 4,
            over_provisioning: 0.5,
            store_data: true,
            ..SsdSpec::samsung_830_256g()
        })
    }

    #[test]
    fn data_and_index_meeting_on_adjacent_lpns_errors_cleanly() {
        let mut dev = tiny();
        let top = dev.logical_pages() - 1; // first index LPN
        let mut log = Destager::new(&dev);
        // Walk the index frontier down to just above the data frontier:
        // index pages claim top, top-1, ..., 1; data has written nothing.
        for _ in 0..top {
            log.append_index(SimTime::ZERO, &mut dev, 1).unwrap();
        }
        // The frontiers are now adjacent (both at LPN 0): neither side may
        // take another page.
        assert!(matches!(
            log.append_index(SimTime::ZERO, &mut dev, 1),
            Err(SsdError::CapacityExhausted)
        ));
        let frame = vec![3u8; 4096];
        assert!(matches!(
            log.append(SimTime::ZERO, &mut dev, &frame),
            Err(SsdError::CapacityExhausted)
        ));
    }

    #[test]
    fn data_and_index_meeting_on_same_lpn_never_overwrites() {
        let mut dev = tiny();
        let top = dev.logical_pages() - 1;
        let mut log = Destager::new(&dev);
        let frame = vec![0xAB; 4096];
        // Drive the data frontier all the way up to the untouched index
        // frontier: LPNs 0..top-1 hold data, both counters now point at
        // the same (unwritten) LPN `top`.
        for _ in 0..top {
            log.append(SimTime::ZERO, &mut dev, &frame).unwrap();
        }
        assert_eq!(log.data_pages_written(), top);
        // The contested page belongs to neither side: both must refuse it
        // rather than risk overwriting the opposing region.
        assert!(matches!(
            log.append(SimTime::ZERO, &mut dev, &frame),
            Err(SsdError::CapacityExhausted)
        ));
        assert!(matches!(
            log.append_index(SimTime::ZERO, &mut dev, 1),
            Err(SsdError::CapacityExhausted)
        ));
        // Every data page survives intact.
        for lpn in 0..top {
            let r = ChunkRef::new(lpn * 4096, 4096);
            assert_eq!(read_back(&mut log, &mut dev, r).unwrap().bytes, frame);
        }
    }

    #[test]
    fn failed_append_leaves_log_state_untouched() {
        let mut dev = tiny();
        let top = dev.logical_pages() - 1;
        let mut log = Destager::new(&dev);
        let frame = vec![0x5A; 4096];
        for _ in 0..top {
            log.append(SimTime::ZERO, &mut dev, &frame).unwrap();
        }
        // Park a partial frame in the buffer, then overflow.
        log.append(SimTime::ZERO, &mut dev, &[7u8; 100]).unwrap();
        let bytes_before = log.appended_bytes();
        let pages_before = log.data_pages_written();
        assert!(log.append(SimTime::ZERO, &mut dev, &frame).is_err());
        assert_eq!(log.appended_bytes(), bytes_before, "no bytes recorded");
        assert_eq!(log.data_pages_written(), pages_before, "no pages written");
        // The buffered partial frame is still there and still readable.
        let r = ChunkRef::new(top * 4096, 100);
        // Flushing it fails (device full), but the buffer is not lost:
        assert!(matches!(
            read_back(&mut log, &mut dev, r),
            Err(SsdError::CapacityExhausted)
        ));
    }

    #[test]
    fn transient_write_faults_are_retried_and_counted() {
        let mut spec = SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 64,
            pages_per_block: 16,
            ..SsdSpec::samsung_830_256g()
        };
        spec.faults.write_error_rate = 0.4;
        let mut dev = SsdDevice::new(spec);
        let mut log = Destager::new(&dev);
        let frame: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        let mut refs = Vec::new();
        for _ in 0..16 {
            let (r, _) = log.append(SimTime::ZERO, &mut dev, &frame).unwrap();
            refs.push(r);
        }
        assert!(
            log.fault_retries() > 0,
            "faults at 0.4 must trigger retries"
        );
        assert!(dev.stats().faults_injected > 0);
        for r in refs {
            assert_eq!(read_back(&mut log, &mut dev, r).unwrap().bytes, frame);
        }
    }

    #[test]
    fn a_refused_flush_leaves_the_open_page_as_it_was() {
        use dr_ssd_sim::SsdFaultSpec;
        let mut dev = ssd();
        let mut log = Destager::new(&dev);
        let frame: Vec<u8> = (0..1000u32).map(|i| (i % 241) as u8 + 1).collect();
        let (r, _) = log.append(SimTime::ZERO, &mut dev, &frame).unwrap();
        dev.set_faults(SsdFaultSpec {
            write_error_rate: 1.0,
            ..SsdFaultSpec::default()
        });
        let refused = log.flush(SimTime::ZERO, &mut dev).unwrap_err();
        assert!(refused.is_transient());
        // Neither cleared nor left padded out to a page.
        assert_eq!(log.tail(), frame);
        assert_eq!(log.data_pages_written(), 0);
        dev.set_faults(SsdFaultSpec::default());
        // The next frame lands right behind it, and both read back.
        let (r2, _) = log.append(SimTime::ZERO, &mut dev, &frame[..10]).unwrap();
        assert_eq!(r2.addr(), 1000);
        assert_eq!(read_back(&mut log, &mut dev, r).unwrap().bytes, frame);
        assert_eq!(
            read_back(&mut log, &mut dev, r2).unwrap().bytes,
            frame[..10]
        );
    }

    #[test]
    fn ranged_page_reads_draw_faults_exactly_like_whole_page_reads() {
        // Silent bit flips and transient read errors both on. `twin` is an
        // identically seeded device read the plain way: whole pages, each
        // once, in ascending LPN order, through the retry schedule,
        // concatenated, sliced.
        fn whole_pages(
            log: &mut Destager,
            dev: &mut SsdDevice,
            lpns: std::ops::RangeInclusive<u64>,
        ) -> (Vec<u8>, Vec<SimTime>) {
            let (mut image, mut ends) = (Vec::new(), Vec::new());
            for lpn in lpns {
                let read = |at| dev.read_page(at, lpn);
                let (page, g) = (log.ssd_write)
                    .retry(None, SimTime::ZERO, SsdError::is_transient, read)
                    .result
                    .unwrap();
                image.extend_from_slice(&page);
                ends.push(g.end);
            }
            (image, ends)
        }
        let spec = || {
            let mut spec = SsdSpec {
                channels: 2,
                dies_per_channel: 2,
                blocks_per_die: 64,
                pages_per_block: 16,
                ..SsdSpec::samsung_830_256g()
            };
            spec.faults.bit_flip_rate = 0.25;
            spec.faults.read_error_rate = 0.15;
            spec.faults.seed = 5;
            spec
        };
        let (mut dev, mut twin) = (SsdDevice::new(spec()), SsdDevice::new(spec()));
        let (mut log, mut twin_log) = (Destager::new(&dev), Destager::new(&twin));
        // 3000-byte frames on 4096-byte pages: three in four span two.
        let frames: Vec<Vec<u8>> = (0..24u32)
            .map(|f| (0..3000u32).map(|i| (i * 7 + f * 31) as u8).collect())
            .collect();
        let mut refs = Vec::new();
        for frame in &frames {
            refs.push(log.append(SimTime::ZERO, &mut dev, frame).unwrap().0);
            twin_log.append(SimTime::ZERO, &mut twin, frame).unwrap();
        }
        log.flush(SimTime::ZERO, &mut dev).unwrap();
        twin_log.flush(SimTime::ZERO, &mut twin).unwrap();

        let pages_of = |r: &ChunkRef| r.addr() / 4096..=(r.addr() + 2999) / 4096;

        // One frame per batch.
        let (mut two_page, mut flipped) = (0, 0);
        for (r, frame) in refs.iter().zip(&frames) {
            let read = read_back(&mut log, &mut dev, *r).unwrap();
            let (image, ends) = whole_pages(&mut twin_log, &mut twin, pages_of(r));
            let offset = (r.addr() % 4096) as usize;
            let want = &image[offset..offset + 3000];
            assert_eq!(read.bytes, want, "frame at {}", r.addr());
            assert_eq!(Some(&read.frames[0].ready), ends.iter().max());
            two_page += (ends.len() > 1) as u32;
            flipped += (read.bytes != *frame) as u32;
        }
        assert_eq!(dev.stats().faults_injected, twin.stats().faults_injected);
        assert_eq!(log.fault_retries(), twin_log.fault_retries());
        assert_eq!(dev.stats().reads, twin.stats().reads);
        // The tallies of this seed's one fault stream (bit flips and read
        // errors drawn from it in turn), pinned so a changed draw order
        // shows.
        assert_eq!(two_page, 17);
        assert_eq!(
            (dev.stats().faults_injected, log.fault_retries(), flipped),
            (6, 6, 4)
        );

        // Every frame in one batch: each page is read once, so 18 page
        // reads serve the 41 (frame, page) pieces, drawing faults as the
        // twin's one ascending pass over the same pages does.
        let reads_before = dev.stats().reads;
        let batch = read_at(&mut log, &mut dev, SimTime::ZERO, &refs).unwrap();
        let last_page = *pages_of(refs.last().unwrap()).end();
        let (image, ends) = whole_pages(&mut twin_log, &mut twin, 0..=last_page);
        assert_eq!((batch.pages, dev.stats().reads - reads_before), (18, 18));
        for (r, f) in refs.iter().zip(&batch.frames) {
            let addr = r.addr() as usize;
            assert_eq!(batch.bytes[f.bytes.clone()], image[addr..addr + 3000]);
            let pages = pages_of(r);
            let ready = ends[*pages.start() as usize..=*pages.end() as usize]
                .iter()
                .max();
            assert_eq!(Some(&f.ready), ready, "frame at {addr}");
        }
        assert_eq!(dev.stats().faults_injected, twin.stats().faults_injected);
        assert_eq!(log.fault_retries(), twin_log.fault_retries());
        assert_eq!(dev.stats().reads, twin.stats().reads);
    }

    #[test]
    fn retry_exhaustion_propagates_the_fault() {
        let mut spec = SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 64,
            pages_per_block: 16,
            ..SsdSpec::samsung_830_256g()
        };
        spec.faults.write_error_rate = 1.0;
        let mut dev = SsdDevice::new(spec);
        let mut log = Destager::new(&dev);
        let err = log
            .append(SimTime::ZERO, &mut dev, &vec![1u8; 4096])
            .unwrap_err();
        assert!(err.is_transient(), "exhausted retries surface the fault");
        assert_eq!(log.fault_retries(), 3, "default budget is three retries");
    }

    #[test]
    fn retries_charge_simulated_time() {
        let mut spec = SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 64,
            pages_per_block: 16,
            ..SsdSpec::samsung_830_256g()
        };
        spec.faults.write_error_rate = 0.5;
        let mut dev = SsdDevice::new(spec);
        let mut log = Destager::new(&dev);
        let frame = vec![2u8; 4096];
        // Every append starts at t=0, so any write whose grant starts
        // later than t=0 was pushed there by retry backoff.
        let mut saw_delayed_grant = false;
        for _ in 0..32 {
            let retries_before = log.fault_retries();
            let (_, grants) = log.append(SimTime::ZERO, &mut dev, &frame).unwrap();
            if log.fault_retries() > retries_before {
                let g = grants.first().expect("full-page append writes a page");
                assert!(g.start > SimTime::ZERO, "retry must charge backoff time");
                saw_delayed_grant = true;
            }
        }
        assert!(saw_delayed_grant, "rate 0.5 over 32 writes must retry");
    }
}
