//! Write-ahead metadata journal for crash consistency.
//!
//! The paper's pipeline acknowledges a host write once reduction output
//! is staged; nothing in the original design survives a power cut,
//! because the bin index, the volume maps, and the destage frontier all
//! live in host memory. This module adds the classic fix: a write-ahead
//! journal in a reserved region at the top of the device's LPN space.
//! Every state transition that a recovery must reproduce — volume
//! creation, volume-map extension, a batch of reduced chunks committed
//! to the destage log, an index checkpoint — is serialized as a
//! CRC-framed record and written to the journal *on the simulated
//! device*, charging real program latency.
//!
//! Writing a record is two steps. [`Journal::stage`] encodes a
//! [`Record`] — which borrows what it carries, so the write path frames
//! the volume name, the destager's tail and the batch's commit list
//! without copying them first — into the open tail and programs only the
//! pages the record *fills*;
//! [`Journal::sync`] programs the open page, once for everything staged
//! since the last sync, and is the only thing that moves
//! [`Journal::ack_end`]. A host write stages its batch commit(s) and its
//! map update and syncs once — a group commit per write: one open-page
//! program per acknowledged write, not one per record. A write is
//! acknowledged only at the grant end of that sync, which by construction
//! is after the data frames it describes became durable: every page
//! program, the sync included, starts no earlier than the latest instant
//! any record was staged at (for a record carrying the destage frontier,
//! the latest data-page program's grant end), so a page filled by a
//! record stamped earlier still waits for the records it carries.
//! [`Journal::append`] is stage + sync, for the records that are
//! acknowledged alone (volume create, checkpoint).
//!
//! # On-device layout
//!
//! The journal is a byte stream laid over `pages` logical pages starting
//! at `region_start`. Records are packed back to back and may span page
//! boundaries (an index checkpoint is much larger than one page). Each
//! sync rewrites the open tail page — append-only *content* within a
//! page — so a torn rewrite of the tail page can only damage bytes past
//! the previously durable prefix: the old records survive byte for byte
//! whether the page tears or reverts.
//!
//! Each record frame is:
//!
//! ```text
//! magic "DRJL" (u32 LE) | kind (u8) | len (u32 LE) | payload | crc32c (u32 LE)
//! ```
//!
//! with the CRC covering `kind | len | payload`: the record is sealed with
//! [`dr_hashes::seal()`] from the kind byte on. Replay parses the
//! region from the start and stops at the first frame that fails to
//! validate: four zero bytes where a magic should be mean a clean end
//! (NAND reads back erased/unwritten space as zeros); anything else —
//! bad magic, a frame running past the written log, a CRC mismatch, a
//! payload that does not decode — marks a torn tail, which recovery
//! discards. This is the same durable-prefix contract as jbd2: a record
//! is replayed only when every record before it validated.
//!
//! Page programs are chained (`at = max(now, last program end)`), so
//! journal grants are strictly ordered and a power cut can never produce
//! a durable record *after* a torn one.

use dr_des::{ExponentialBackoff, Grant, Retried, SimDuration, SimTime};
use dr_hashes::{open, seal, ChunkDigest, SEAL_LEN};
use dr_obs::trace::{trace_args, Tracer, Track};
use dr_obs::{CounterHandle, ObsHandle};
use dr_ssd_sim::{SsdDevice, SsdError};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Record-frame magic: `b"DRJL"` little-endian.
const MAGIC: u32 = u32::from_le_bytes(*b"DRJL");
/// Frame header before the payload: magic + kind + len. The seal follows
/// the payload.
const FRAME_HEAD: usize = 4 + 1 + 4;

const KIND_VOLUME_CREATE: u8 = 1;
const KIND_MAP_UPDATE: u8 = 2;
const KIND_BATCH_COMMIT: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;

/// Destage-log state carried by state-bearing records, sufficient to
/// restore the destage log's frontiers after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier<'a> {
    /// Next data page to be written (grows up from 0).
    pub next_data_lpn: u64,
    /// Next index page to be written (grows down from the top, minus the
    /// journal reservation).
    pub next_index_lpn: u64,
    /// Total bytes appended to the destage log.
    pub appended_bytes: u64,
    /// Contents of the open, not-yet-flushed data page.
    pub tail: Cow<'a, [u8]>,
}

/// One chunk of a committed batch: enough to rebuild the recipe entry
/// and (for unique chunks) the bin-index insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkCommit {
    /// SHA-1 digest of the original chunk contents.
    pub digest: ChunkDigest,
    /// True when the chunk deduplicated against an existing entry.
    pub dup: bool,
    /// Byte address of the stored frame in the destage log.
    pub addr: u64,
    /// Stored (post-compression) frame length.
    pub stored_len: u32,
    /// Original chunk length before reduction.
    pub orig_len: u32,
}

/// A batch of reduced chunks whose data frames are durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCommit<'a> {
    /// Destage frontier *after* the batch.
    pub frontier: Frontier<'a>,
    /// Per-chunk commits in recipe order.
    pub chunks: Cow<'a, [ChunkCommit]>,
}

/// A bin-index snapshot embedded in the journal so recovery can skip
/// re-inserting every pre-checkpoint chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint<'a> {
    /// Destage frontier at the checkpoint.
    pub frontier: Frontier<'a>,
    /// Serialized index snapshot (`dr_binindex::snapshot` format).
    pub snapshot: Cow<'a, [u8]>,
}

/// One journal record. It borrows what it carries, so the write path
/// stages a record straight from the volume name, the destager's tail and
/// the batch's commit list; a decoded record owns its data
/// (`Record<'static>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<'a> {
    /// A volume came into existence.
    VolumeCreate {
        /// Volume name.
        name: Cow<'a, str>,
        /// Volume capacity in blocks.
        blocks: u64,
    },
    /// A host write mapped `nblocks` volume blocks to recipe entries
    /// `first_recipe..first_recipe + nblocks`.
    MapUpdate {
        /// Volume name.
        name: Cow<'a, str>,
        /// First volume block written.
        start_block: u64,
        /// Number of blocks written.
        nblocks: u64,
        /// Recipe index of the first block's chunk.
        first_recipe: u64,
    },
    /// A reduced batch is durable on the destage log.
    BatchCommit(BatchCommit<'a>),
    /// An index snapshot is embedded at this point of the log.
    Checkpoint(Checkpoint<'a>),
}

impl Record<'_> {
    /// Short name for traces and error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Record::VolumeCreate { .. } => "volume-create",
            Record::MapUpdate { .. } => "map-update",
            Record::BatchCommit(_) => "batch-commit",
            Record::Checkpoint(_) => "checkpoint",
        }
    }

    fn kind(&self) -> u8 {
        match self {
            Record::VolumeCreate { .. } => KIND_VOLUME_CREATE,
            Record::MapUpdate { .. } => KIND_MAP_UPDATE,
            Record::BatchCommit(_) => KIND_BATCH_COMMIT,
            Record::Checkpoint(_) => KIND_CHECKPOINT,
        }
    }
}

// ---------------------------------------------------------------------------
// Serialization

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    assert!(name.len() <= u16::MAX as usize, "volume name too long");
    put_u16(out, name.len() as u16);
    out.extend_from_slice(name.as_bytes());
}

fn put_frontier(out: &mut Vec<u8>, f: &Frontier) {
    put_u64(out, f.next_data_lpn);
    put_u64(out, f.next_index_lpn);
    put_u64(out, f.appended_bytes);
    put_u32(out, f.tail.len() as u32);
    out.extend_from_slice(&f.tail);
}

fn put_payload(out: &mut Vec<u8>, record: &Record) {
    match record {
        Record::VolumeCreate { name, blocks } => {
            put_name(out, name);
            put_u64(out, *blocks);
        }
        Record::MapUpdate {
            name,
            start_block,
            nblocks,
            first_recipe,
        } => {
            put_name(out, name);
            put_u64(out, *start_block);
            put_u64(out, *nblocks);
            put_u64(out, *first_recipe);
        }
        Record::BatchCommit(batch) => {
            put_frontier(out, &batch.frontier);
            put_u32(out, batch.chunks.len() as u32);
            for c in batch.chunks.iter() {
                out.extend_from_slice(c.digest.as_bytes());
                out.push(c.dup as u8);
                put_u64(out, c.addr);
                put_u32(out, c.stored_len);
                put_u32(out, c.orig_len);
            }
        }
        Record::Checkpoint(cp) => {
            put_frontier(out, &cp.frontier);
            put_u32(out, cp.snapshot.len() as u32);
            out.extend_from_slice(&cp.snapshot);
        }
    }
}

/// Appends `record`, sealed in its frame, to `out`.
fn put_frame(out: &mut Vec<u8>, record: &Record) {
    let start = out.len();
    put_u32(out, MAGIC);
    out.push(record.kind());
    put_u32(out, 0); // the length, once the payload is in
    put_payload(out, record);
    let len = (out.len() - start - FRAME_HEAD) as u32;
    out[start + 5..start + FRAME_HEAD].copy_from_slice(&len.to_le_bytes());
    seal(out, start + 4);
}

/// Serializes one record with its CRC frame.
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    put_frame(&mut out, record);
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        })
    }

    fn name(&mut self) -> Option<Cow<'static, str>> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok().map(Cow::Owned)
    }

    fn frontier(&mut self) -> Option<Frontier<'static>> {
        let next_data_lpn = self.u64()?;
        let next_index_lpn = self.u64()?;
        let appended_bytes = self.u64()?;
        let tail_len = self.u32()? as usize;
        let tail = Cow::Owned(self.take(tail_len)?.to_vec());
        Some(Frontier {
            next_data_lpn,
            next_index_lpn,
            appended_bytes,
            tail,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Option<Record<'static>> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let record = match kind {
        KIND_VOLUME_CREATE => Record::VolumeCreate {
            name: r.name()?,
            blocks: r.u64()?,
        },
        KIND_MAP_UPDATE => Record::MapUpdate {
            name: r.name()?,
            start_block: r.u64()?,
            nblocks: r.u64()?,
            first_recipe: r.u64()?,
        },
        KIND_BATCH_COMMIT => {
            let frontier = r.frontier()?;
            let n = r.u32()? as usize;
            let mut chunks = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let digest_bytes = r.take(ChunkDigest::LEN)?;
                let mut d = [0u8; ChunkDigest::LEN];
                d.copy_from_slice(digest_bytes);
                let dup = match r.take(1)?[0] {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                chunks.push(ChunkCommit {
                    digest: ChunkDigest::new(d),
                    dup,
                    addr: r.u64()?,
                    stored_len: r.u32()?,
                    orig_len: r.u32()?,
                });
            }
            Record::BatchCommit(BatchCommit {
                frontier,
                chunks: Cow::Owned(chunks),
            })
        }
        KIND_CHECKPOINT => {
            let frontier = r.frontier()?;
            let snap_len = r.u32()? as usize;
            let snapshot = Cow::Owned(r.take(snap_len)?.to_vec());
            Record::Checkpoint(Checkpoint { frontier, snapshot })
        }
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(record)
}

// ---------------------------------------------------------------------------
// Parsing

/// How the parsed log ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The log ended at erased (all-zero) space: nothing was lost.
    Clean,
    /// A frame at `offset` failed to validate — a torn or corrupt tail
    /// that recovery discards.
    Corrupt {
        /// Byte offset of the first invalid frame.
        offset: usize,
    },
}

/// The durable prefix of a journal region.
#[derive(Debug, Clone)]
pub struct ParsedLog {
    /// Every record that validated, in append order.
    pub records: Vec<Record<'static>>,
    /// Bytes of the region covered by `records`; appends resume here.
    pub valid_bytes: usize,
    /// Whether anything past the valid prefix was discarded.
    pub tail: TailState,
}

/// Parses a journal region image into its durable record prefix.
///
/// Never panics on arbitrary input: any framing violation — bad magic,
/// frame running past the buffer, CRC mismatch, undecodable payload —
/// stops the parse and reports [`TailState::Corrupt`] at that offset.
pub fn parse_log(buf: &[u8]) -> ParsedLog {
    let mut records = Vec::new();
    let mut off = 0usize;
    let tail = loop {
        let rest = &buf[off..];
        if rest.iter().all(|&b| b == 0) {
            break TailState::Clean;
        }
        let frame_ok = (|| {
            if rest.len() < FRAME_HEAD {
                return None;
            }
            let magic = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
            if magic != MAGIC {
                return None;
            }
            let kind = rest[4];
            let len = u32::from_le_bytes([rest[5], rest[6], rest[7], rest[8]]) as usize;
            let total = FRAME_HEAD.checked_add(len)?.checked_add(SEAL_LEN)?;
            // The seal covers kind | len | payload, not the magic.
            let sealed = open(rest.get(4..total)?).ok()?;
            let record = decode_payload(kind, &sealed[FRAME_HEAD - 4..])?;
            Some((record, total))
        })();
        match frame_ok {
            Some((record, total)) => {
                records.push(record);
                off += total;
            }
            None => break TailState::Corrupt { offset: off },
        }
    };
    ParsedLog {
        records,
        valid_bytes: off,
        tail,
    }
}

// ---------------------------------------------------------------------------
// Errors

/// Journal append/replay failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The record does not fit in the reserved region. The journal is
    /// never compacted, so this is a sizing error: raise
    /// `journal_pages`.
    Full {
        /// Bytes the log would need after the append.
        needed: u64,
        /// Bytes the reserved region holds.
        capacity: u64,
    },
    /// The device refused the journal I/O even after retries.
    Ssd(SsdError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Full { needed, capacity } => write!(
                f,
                "journal full: log needs {needed} bytes but the region holds \
                 {capacity} (raise journal_pages)"
            ),
            JournalError::Ssd(e) => write!(f, "journal I/O failed: {e}"),
        }
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JournalError::Ssd(e) => Some(e),
            JournalError::Full { .. } => None,
        }
    }
}

impl From<SsdError> for JournalError {
    fn from(e: SsdError) -> Self {
        JournalError::Ssd(e)
    }
}

// ---------------------------------------------------------------------------
// The journal

#[derive(Debug)]
struct JournalObs {
    appends: CounterHandle,
    syncs: CounterHandle,
    bytes: CounterHandle,
    pages_written: CounterHandle,
    checkpoints: CounterHandle,
    retries: CounterHandle,
    recoveries: CounterHandle,
    torn_discards: CounterHandle,
    tracer: Tracer,
}

impl JournalObs {
    fn new(obs: &ObsHandle) -> Self {
        JournalObs {
            appends: obs.counter("journal.appends"),
            syncs: obs.counter("journal.syncs"),
            bytes: obs.counter("journal.bytes"),
            pages_written: obs.counter("journal.pages_written"),
            checkpoints: obs.counter("journal.checkpoints"),
            retries: obs.counter("journal.write_retries"),
            recoveries: obs.counter("journal.recoveries"),
            torn_discards: obs.counter("journal.torn_discards"),
            tracer: obs.tracer().clone(),
        }
    }
}

/// What [`Journal::replay`] recovered from the device.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The durable record prefix, in append order.
    pub records: Vec<Record<'static>>,
    /// True when a torn/corrupt tail was discarded.
    pub torn: bool,
    /// Sim time when the recovery reads finished.
    pub done: SimTime,
}

/// The write-ahead journal: owns the reserved LPN region and the append
/// cursor, and charges every page program to the simulated device.
#[derive(Debug)]
pub struct Journal {
    region_start: u64,
    pages: u64,
    page_bytes: usize,
    /// Valid log bytes (everything before this offset is framed records,
    /// staged or synced).
    written: u64,
    /// Bytes of the open tail page already part of the log.
    tail: Vec<u8>,
    /// True when the open page holds staged bytes no program carried yet.
    dirty: bool,
    /// Latest instant a record was staged at: the floor for the sync that
    /// carries it.
    staged_at: SimTime,
    /// Grant end of the latest page program: the floor for the next one
    /// (programs are chained, never reordered).
    end: SimTime,
    /// Grant end of the latest sync: the ack point.
    ack: SimTime,
    backoff: ExponentialBackoff,
    obs: JournalObs,
}

impl Journal {
    /// A journal over the top `pages` logical pages of a device with
    /// `logical_pages` pages of `page_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics when `pages` is zero or does not leave room below it.
    pub fn new(logical_pages: u64, page_bytes: u32, pages: u64) -> Self {
        assert!(pages > 0, "journal needs at least one page");
        assert!(
            pages < logical_pages,
            "journal of {pages} pages does not fit a {logical_pages}-page device"
        );
        Journal {
            region_start: logical_pages - pages,
            pages,
            page_bytes: page_bytes as usize,
            written: 0,
            tail: Vec::new(),
            dirty: false,
            staged_at: SimTime::ZERO,
            end: SimTime::ZERO,
            ack: SimTime::ZERO,
            backoff: ExponentialBackoff::new(SimDuration::from_micros(50), 2, 8),
            obs: JournalObs::new(&ObsHandle::disabled()),
        }
    }

    /// Routes journal counters and spans to `obs`.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = JournalObs::new(obs);
    }

    /// Pages reserved for the journal.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// First LPN of the reserved region.
    pub fn region_start(&self) -> u64 {
        self.region_start
    }

    /// Bytes the reserved region can hold.
    pub fn capacity_bytes(&self) -> u64 {
        self.pages * self.page_bytes as u64
    }

    /// Valid log bytes appended so far, staged ones included.
    pub fn written_bytes(&self) -> u64 {
        self.written
    }

    /// Grant end of the latest [`Journal::sync`]: the acknowledgement
    /// point of the most recent journaled operation. Staging never moves
    /// it, not even when a staged record filled — and so programmed — a
    /// page.
    pub fn ack_end(&self) -> SimTime {
        self.ack
    }

    /// One journal page command under the journal's own schedule — eight
    /// retries, no budget, counted as `journal.write_retries`, silent on
    /// the fault track. Longer than the degrade policy's on purpose:
    /// nothing can stand in for a journal page, so outliving the schedule
    /// is an error for the caller, not a degradation.
    fn retrying<T>(
        &self,
        at: SimTime,
        op: impl FnMut(SimTime) -> Result<T, SsdError>,
    ) -> Retried<T, SsdError> {
        self.backoff.retry(
            at,
            SsdError::is_transient,
            |_, _| self.obs.retries.incr(),
            op,
        )
    }

    /// Appends one record and syncs it: [`Journal::stage`], then
    /// [`Journal::sync`]. Returns the sync's grant; its `end` is the
    /// record's durability (acknowledgement) point.
    ///
    /// # Errors
    ///
    /// As [`Journal::stage`], then as [`Journal::sync`].
    pub fn append(
        &mut self,
        now: SimTime,
        ssd: &mut SsdDevice,
        record: &Record,
    ) -> Result<Grant, JournalError> {
        self.stage(now, ssd, record)?;
        self.sync(now, ssd)
    }

    /// Stages one record: encodes it into the open tail and programs the
    /// pages it fills, none before `now` or the instant any earlier record
    /// was staged at (a filled page carries those records too). The record
    /// is acknowledged by the next [`Journal::sync`], and until then it is
    /// durable only if it ended exactly on a page boundary.
    ///
    /// # Errors
    ///
    /// [`JournalError::Full`] when the region cannot hold the record
    /// (nothing is staged); [`JournalError::Ssd`] when a filled page's
    /// program fails past the retry schedule. Journal state is not
    /// rolled back on I/O failure — the caller owns that policy (the
    /// pipeline treats it as fatal, like a failed destage).
    pub fn stage(
        &mut self,
        now: SimTime,
        ssd: &mut SsdDevice,
        record: &Record,
    ) -> Result<(), JournalError> {
        // Framed in place at the end of the tail.
        let open = self.tail.len();
        put_frame(&mut self.tail, record);
        let bytes = (self.tail.len() - open) as u64;
        let needed = self.written + bytes;
        if needed > self.capacity_bytes() {
            self.tail.truncate(open);
            return Err(JournalError::Full {
                needed,
                capacity: self.capacity_bytes(),
            });
        }
        // A filled page carries every record staged before this one too,
        // so its program waits for the latest of them, like the sync does.
        self.staged_at = self.staged_at.max(now);
        let start = self.staged_at.max(self.end);
        let mut at = start;
        let mut lpn = self.region_start + self.written / self.page_bytes as u64;
        self.written = needed;
        // Whatever the record leaves past its last whole page waits for
        // the sync.
        self.dirty = !needed.is_multiple_of(self.page_bytes as u64);
        // Pages are programmed straight from the tail buffer — the device
        // takes the one copy. A full page leaves the buffer whether or
        // not its program succeeded.
        while self.tail.len() >= self.page_bytes {
            let page = &self.tail[..self.page_bytes];
            let written = self.retrying(at, |t| ssd.write_page(t, lpn, page)).result;
            self.tail.drain(..self.page_bytes);
            at = written?.end;
            lpn += 1;
            self.obs.pages_written.incr();
        }
        self.end = at;
        self.obs.appends.incr();
        self.obs.bytes.add(bytes);
        if let Record::Checkpoint(_) = record {
            self.obs.checkpoints.incr();
        }
        self.obs.tracer.sim_span(
            Track::Journal,
            record.kind_name(),
            start.as_nanos(),
            at.as_nanos(),
            trace_args(&[("bytes", bytes)]),
        );
        Ok(())
    }

    /// Programs the open page — once, for every record staged since the
    /// last sync — no earlier than `now` or the instant any of them was
    /// staged at, and makes the program's grant end the acknowledgement
    /// point ([`Journal::ack_end`]). A clean tail programs nothing: the
    /// ack moves to the end of the last program, which carried every
    /// staged byte already. The open page is padded in place and cut
    /// back to its length on every exit.
    ///
    /// # Errors
    ///
    /// [`JournalError::Ssd`] when the program fails past the retry
    /// schedule; the page stays staged, so the next sync carries it.
    pub fn sync(&mut self, now: SimTime, ssd: &mut SsdDevice) -> Result<Grant, JournalError> {
        self.obs.syncs.incr();
        if !self.dirty {
            self.ack = self.end;
            return Ok(Grant {
                start: self.end,
                end: self.end,
            });
        }
        let start = now.max(self.staged_at).max(self.end);
        let lpn = self.region_start + self.written / self.page_bytes as u64;
        let len = self.tail.len();
        self.tail.resize(self.page_bytes, 0);
        let written = self
            .retrying(start, |t| ssd.write_page(t, lpn, &self.tail))
            .result;
        self.tail.truncate(len);
        let end = written?.end;
        self.obs.pages_written.incr();
        self.dirty = false;
        self.end = end;
        self.ack = end;
        self.obs.tracer.sim_span(
            Track::Journal,
            "commit",
            start.as_nanos(),
            end.as_nanos(),
            trace_args(&[("bytes", len as u64)]),
        );
        Ok(Grant { start, end })
    }

    /// Reads the region back page by page (serial, retried) and parses
    /// the durable record prefix, resetting the append cursor to the end
    /// of that prefix so post-recovery appends overwrite any torn tail.
    ///
    /// # Errors
    ///
    /// [`SsdError`] when a region read fails past the retry schedule.
    /// Never-written pages terminate the scan cleanly; pages whose only
    /// write was reverted by the power cut read back as zeros and
    /// terminate the parse instead.
    pub fn replay(&mut self, now: SimTime, ssd: &mut SsdDevice) -> Result<Replay, SsdError> {
        let start = now;
        let mut at = now;
        let mut image: Vec<u8> = Vec::new();
        for page_idx in 0..self.pages {
            let lpn = self.region_start + page_idx;
            let read = self.retrying(at, |t| ssd.read_page(t, lpn));
            at = read.at;
            match read.result {
                Ok((data, grant)) => {
                    at = grant.end;
                    image.extend_from_slice(&data);
                }
                Err(SsdError::Unwritten { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        let parsed = parse_log(&image);
        self.written = parsed.valid_bytes as u64;
        let page_floor = parsed.valid_bytes - parsed.valid_bytes % self.page_bytes;
        self.tail.clear();
        self.tail
            .extend_from_slice(&image[page_floor..parsed.valid_bytes]);
        self.dirty = false;
        self.staged_at = SimTime::ZERO;
        self.end = at;
        self.ack = at;
        self.obs.recoveries.incr();
        let torn = matches!(parsed.tail, TailState::Corrupt { .. });
        if torn {
            self.obs.torn_discards.incr();
        }
        self.obs.tracer.sim_span(
            Track::Journal,
            "recovery-replay",
            start.as_nanos(),
            at.as_nanos(),
            trace_args(&[
                ("records", parsed.records.len() as u64),
                ("torn", torn as u64),
            ]),
        );
        Ok(Replay {
            records: parsed.records,
            torn,
            done: at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_ssd_sim::SsdSpec;

    fn sample_records() -> Vec<Record<'static>> {
        vec![
            Record::VolumeCreate {
                name: "vol0".into(),
                blocks: 48,
            },
            Record::MapUpdate {
                name: "vol0".into(),
                start_block: 3,
                nblocks: 2,
                first_recipe: 17,
            },
            Record::BatchCommit(BatchCommit {
                frontier: Frontier {
                    next_data_lpn: 2,
                    next_index_lpn: 9_000,
                    appended_bytes: 8_192,
                    tail: vec![0xAB; 77].into(),
                },
                chunks: Cow::Owned(vec![
                    ChunkCommit {
                        digest: ChunkDigest::new([1; 20]),
                        dup: false,
                        addr: 0,
                        stored_len: 4096,
                        orig_len: 4096,
                    },
                    ChunkCommit {
                        digest: ChunkDigest::new([2; 20]),
                        dup: true,
                        addr: 0,
                        stored_len: 4096,
                        orig_len: 4096,
                    },
                ]),
            }),
            Record::Checkpoint(Checkpoint {
                frontier: Frontier {
                    next_data_lpn: 2,
                    next_index_lpn: 9_000,
                    appended_bytes: 8_192,
                    tail: Cow::Borrowed(&[]),
                },
                snapshot: (0u16..2_500).flat_map(|v| v.to_le_bytes()).collect(),
            }),
        ]
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        let mut log = Vec::new();
        let records = sample_records();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        log.extend_from_slice(&[0; 64]); // erased space after the log
        let parsed = parse_log(&log);
        assert_eq!(parsed.tail, TailState::Clean);
        assert_eq!(parsed.records, records);
        assert_eq!(parsed.valid_bytes, log.len() - 64);
    }

    #[test]
    fn empty_and_all_zero_logs_parse_clean() {
        for log in [&[][..], &[0u8; 4096][..]] {
            let parsed = parse_log(log);
            assert!(parsed.records.is_empty());
            assert_eq!(parsed.tail, TailState::Clean);
            assert_eq!(parsed.valid_bytes, 0);
        }
    }

    #[test]
    fn any_bit_flip_stops_at_a_valid_prefix_without_panicking() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let first_len = encode_record(&records[0]).len();
        // Flip one bit at a sweep of offsets, including every byte of
        // the first record's frame.
        for pos in 0..log.len() {
            let mut corrupt = log.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            let parsed = parse_log(&corrupt);
            assert!(
                parsed.records.len() < records.len(),
                "flip at {pos} should invalidate at least one record"
            );
            // Whatever survived must be a true prefix of the originals.
            assert_eq!(parsed.records[..], records[..parsed.records.len()]);
            if pos < first_len {
                assert_eq!(parsed.records.len(), 0);
                assert_eq!(parsed.tail, TailState::Corrupt { offset: 0 });
            }
        }
    }

    #[test]
    fn truncation_discards_only_the_torn_record() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records[..2] {
            log.extend_from_slice(&encode_record(r));
        }
        let keep = log.len();
        log.extend_from_slice(&encode_record(&records[2]));
        // Simulate a torn page: the last record is cut mid-frame and the
        // rest reads back as zeros.
        log.truncate(keep + 7);
        log.resize(keep + 4096, 0);
        let parsed = parse_log(&log);
        assert_eq!(parsed.records[..], records[..2]);
        assert_eq!(parsed.tail, TailState::Corrupt { offset: keep });
        assert_eq!(parsed.valid_bytes, keep);
    }

    fn small_ssd() -> SsdDevice {
        SsdDevice::new(SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 64,
            pages_per_block: 16,
            ..SsdSpec::samsung_830_256g()
        })
    }

    #[test]
    fn append_and_replay_round_trip_on_a_device() {
        let mut ssd = small_ssd();
        let pages = 16;
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        let records = sample_records();
        let mut last_end = SimTime::ZERO;
        for r in &records {
            let g = journal.append(SimTime::ZERO, &mut ssd, r).unwrap();
            assert!(g.end > last_end, "appends must be strictly ordered");
            last_end = g.end;
        }
        assert_eq!(journal.ack_end(), last_end);

        // A fresh journal over the same region replays everything.
        let mut fresh = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        let replay = fresh.replay(SimTime::ZERO, &mut ssd).unwrap();
        assert_eq!(replay.records, records);
        assert!(!replay.torn);
        assert!(replay.done > SimTime::ZERO, "recovery reads charge time");
        assert_eq!(fresh.written_bytes(), journal.written_bytes());

        // And appends keep working after a replay.
        let extra = Record::VolumeCreate {
            name: "post".into(),
            blocks: 1,
        };
        fresh.append(replay.done, &mut ssd, &extra).unwrap();
        let mut again = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        let replay2 = again.replay(SimTime::ZERO, &mut ssd).unwrap();
        assert_eq!(replay2.records.len(), records.len() + 1);
        assert_eq!(*replay2.records.last().unwrap(), extra);
    }

    #[test]
    fn a_failed_tail_program_keeps_the_tail_for_the_next_append() {
        use dr_ssd_sim::SsdFaultSpec;
        let mut ssd = small_ssd();
        let pages = 16;
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        let records = sample_records();
        journal
            .append(SimTime::ZERO, &mut ssd, &records[0])
            .unwrap();
        ssd.set_faults(SsdFaultSpec {
            write_error_rate: 1.0,
            ..SsdFaultSpec::default()
        });
        let refused = journal.append(SimTime::ZERO, &mut ssd, &records[1]);
        assert!(matches!(refused, Err(JournalError::Ssd(e)) if e.is_transient()));
        // Not rolled back, not left padded: the open page holds exactly
        // the two records' bytes.
        let two = encode_record(&records[0]).len() + encode_record(&records[1]).len();
        assert_eq!(journal.tail.len(), two);
        assert_eq!(journal.written_bytes(), two as u64);
        // A full page leaves the buffer even when its program fails.
        let refused = journal.append(SimTime::ZERO, &mut ssd, &records[3]);
        assert!(matches!(refused, Err(JournalError::Ssd(_))));
        let three = two + encode_record(&records[3]).len();
        assert_eq!(journal.tail.len(), three - 4096);

        // The next append's page carries the refused record with it.
        let mut ssd = small_ssd();
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        journal
            .append(SimTime::ZERO, &mut ssd, &records[0])
            .unwrap();
        ssd.set_faults(SsdFaultSpec {
            write_error_rate: 1.0,
            ..SsdFaultSpec::default()
        });
        journal
            .append(SimTime::ZERO, &mut ssd, &records[1])
            .unwrap_err();
        ssd.set_faults(SsdFaultSpec::default());
        journal
            .append(SimTime::ZERO, &mut ssd, &records[2])
            .unwrap();
        let mut fresh = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        let replay = fresh.replay(SimTime::ZERO, &mut ssd).unwrap();
        assert_eq!(replay.records, records[..3]);
    }

    /// `record` with every field it carries borrowed from `record`.
    fn borrowed<'a>(record: &'a Record) -> Record<'a> {
        let frontier = |f: &'a Frontier| Frontier {
            tail: Cow::Borrowed(&f.tail[..]),
            ..*f
        };
        match record {
            Record::VolumeCreate { name, blocks } => Record::VolumeCreate {
                name: Cow::Borrowed(name),
                blocks: *blocks,
            },
            Record::MapUpdate {
                name,
                start_block,
                nblocks,
                first_recipe,
            } => Record::MapUpdate {
                name: Cow::Borrowed(name),
                start_block: *start_block,
                nblocks: *nblocks,
                first_recipe: *first_recipe,
            },
            Record::BatchCommit(b) => Record::BatchCommit(BatchCommit {
                frontier: frontier(&b.frontier),
                chunks: Cow::Borrowed(&b.chunks[..]),
            }),
            Record::Checkpoint(cp) => Record::Checkpoint(Checkpoint {
                frontier: frontier(&cp.frontier),
                snapshot: Cow::Borrowed(&cp.snapshot[..]),
            }),
        }
    }

    #[test]
    fn a_map_update_from_a_borrowed_name_is_the_owned_record() {
        let owned = &sample_records()[1];
        let (mut ssd, mut twin_ssd) = (small_ssd(), small_ssd());
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, 4);
        let mut twin = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, 4);
        journal
            .stage(SimTime::ZERO, &mut ssd, &borrowed(owned))
            .unwrap();
        let g = journal.sync(SimTime::ZERO, &mut ssd).unwrap();
        let appended = twin.append(SimTime::ZERO, &mut twin_ssd, owned);
        assert_eq!(g, appended.unwrap());
        let region = journal.region_start();
        assert_eq!(
            ssd.read_page(g.end, region).unwrap(),
            twin_ssd.read_page(g.end, region).unwrap()
        );
    }

    #[test]
    fn records_staged_in_place_are_the_encoded_records() {
        // Each kind staged from borrowed parts frames the bytes
        // `encode_record` frames for the record replay decodes from them.
        for record in &sample_records() {
            let mut ssd = small_ssd();
            let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, 4);
            journal
                .stage(SimTime::ZERO, &mut ssd, &borrowed(record))
                .unwrap();
            let page_bytes = ssd.spec().page_bytes as usize;
            let filled = journal.written_bytes() as usize / page_bytes;
            let mut staged = Vec::new();
            for lpn in 0..filled as u64 {
                let page = ssd.read_page(SimTime::ZERO, journal.region_start() + lpn);
                staged.extend_from_slice(&page.unwrap().0);
            }
            staged.extend_from_slice(&journal.tail);
            let decoded = parse_log(&staged).records;
            assert_eq!(
                decoded,
                std::slice::from_ref(record),
                "{}",
                record.kind_name()
            );
            assert_eq!(staged, encode_record(&decoded[0]), "{}", record.kind_name());
        }
    }

    #[test]
    fn staged_records_are_durable_only_once_synced() {
        let mut ssd = small_ssd();
        let pages = 4;
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        let records = sample_records();
        let created = journal
            .append(SimTime::ZERO, &mut ssd, &records[0])
            .unwrap();
        let replay = |ssd: &mut SsdDevice| {
            let mut fresh = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
            fresh.replay(SimTime::ZERO, ssd).unwrap().records
        };
        for r in &records[1..3] {
            journal.stage(SimTime::ZERO, &mut ssd, r).unwrap();
        }
        assert_eq!(journal.ack_end(), created.end, "staging never acks");
        assert_eq!(ssd.stats().writes, 1, "both records fit the open page");
        assert_eq!(replay(&mut ssd), records[..1], "only the synced prefix");

        let synced = journal.sync(SimTime::ZERO, &mut ssd).unwrap();
        assert!(synced.start >= created.end && synced.end > created.end);
        assert_eq!(journal.ack_end(), synced.end);
        assert_eq!(ssd.stats().writes, 2, "one program for the group");
        assert_eq!(replay(&mut ssd), records[..3]);
    }

    #[test]
    fn a_sync_of_a_clean_tail_programs_nothing() {
        let mut ssd = small_ssd();
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, 4);
        let g = journal.sync(SimTime::ZERO, &mut ssd).unwrap();
        assert_eq!((g.start, g.end), (SimTime::ZERO, SimTime::ZERO));
        let appended = journal
            .append(SimTime::ZERO, &mut ssd, &sample_records()[0])
            .unwrap();
        let late = appended.end + SimDuration::from_micros(5);
        let again = journal.sync(late, &mut ssd).unwrap();
        assert_eq!((again.start, again.end), (appended.end, appended.end));
        assert_eq!(journal.ack_end(), appended.end);
        assert_eq!(ssd.stats().writes, 1);
    }

    #[test]
    fn a_record_spanning_pages_programs_its_full_pages_at_stage_and_the_open_page_at_sync() {
        let obs = ObsHandle::enabled("journal-test");
        let counter = |name: &str| obs.counter(name).get();
        let mut ssd = small_ssd();
        let pages = 4;
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        journal.set_obs(&obs);
        let records = sample_records();
        let checkpoint_len = encode_record(&records[3]).len();
        assert!((4096..8192).contains(&checkpoint_len));
        let not_before = SimTime::from_nanos(1_000);
        journal.stage(not_before, &mut ssd, &records[3]).unwrap();
        assert_eq!(ssd.stats().writes, 1, "the filled page, at stage");
        assert_eq!(journal.ack_end(), SimTime::ZERO, "not acknowledged");
        journal.stage(SimTime::ZERO, &mut ssd, &records[1]).unwrap();
        assert_eq!(ssd.stats().writes, 1, "the map update fits the open page");
        let g = journal.sync(SimTime::ZERO, &mut ssd).unwrap();
        assert_eq!(ssd.stats().writes, 2, "the open page, once, at sync");
        assert!(g.start > not_before, "chained after the filled page");
        assert_eq!(
            ["journal.appends", "journal.syncs", "journal.pages_written"].map(counter),
            [2, 1, 2]
        );
        let mut fresh = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, pages);
        let replay = fresh.replay(SimTime::ZERO, &mut ssd).unwrap();
        assert_eq!(replay.records, [records[3].clone(), records[1].clone()]);
    }

    #[test]
    fn a_page_filled_by_an_earlier_stamped_record_waits_for_the_records_it_carries() {
        let page = 4096;
        let first = sample_records()[0].clone();
        let checkpoint = |snap: usize| {
            Record::Checkpoint(Checkpoint {
                frontier: Frontier {
                    next_data_lpn: 0,
                    next_index_lpn: 0,
                    appended_bytes: 0,
                    tail: Cow::Borrowed(&[]),
                },
                snapshot: vec![7; snap].into(),
            })
        };
        let fill = page - encode_record(&first).len() - encode_record(&checkpoint(0)).len();
        let t1 = SimTime::from_nanos(500_000);
        // Ending exactly on the page boundary (a clean sync acks at the
        // filled page's program) and crossing it (the sync follows it).
        for (snap, on_boundary) in [(fill, true), (fill + 100, false)] {
            let mut ssd = small_ssd();
            let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, 4);
            journal.stage(t1, &mut ssd, &first).unwrap();
            let t0 = SimTime::ZERO;
            journal.stage(t0, &mut ssd, &checkpoint(snap)).unwrap();
            assert_eq!(ssd.stats().writes, 1, "the checkpoint filled the page");
            // The filled page carries the record staged at t1, so its
            // program is the one an idle twin device starts at t1.
            let mut twin = small_ssd();
            let from_t1 = twin
                .write_page(t1, journal.region_start(), &vec![0; page])
                .unwrap();
            assert_eq!(journal.end, from_t1.end, "snapshot of {snap} bytes");
            let g = journal.sync(t0, &mut ssd).unwrap();
            if on_boundary {
                assert_eq!(g.end, from_t1.end);
                assert_eq!(ssd.stats().writes, 1);
            } else {
                assert!(g.start >= from_t1.end);
                assert_eq!(ssd.stats().writes, 2);
            }
            assert_eq!(journal.ack_end(), g.end);
        }
    }

    #[test]
    fn journal_full_is_reported_not_panicked() {
        let mut ssd = small_ssd();
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, 1);
        let big = Record::Checkpoint(Checkpoint {
            frontier: Frontier {
                next_data_lpn: 0,
                next_index_lpn: 0,
                appended_bytes: 0,
                tail: Cow::Borrowed(&[]),
            },
            snapshot: vec![7; 8_192].into(),
        });
        match journal.append(SimTime::ZERO, &mut ssd, &big) {
            Err(JournalError::Full { needed, capacity }) => {
                assert!(needed > capacity);
            }
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn replay_of_an_untouched_region_is_empty_and_clean() {
        let mut ssd = small_ssd();
        let mut journal = Journal::new(ssd.logical_pages(), ssd.spec().page_bytes, 8);
        let replay = journal.replay(SimTime::ZERO, &mut ssd).unwrap();
        assert!(replay.records.is_empty());
        assert!(!replay.torn);
        assert_eq!(journal.written_bytes(), 0);
    }
}
