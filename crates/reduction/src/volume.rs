//! Logical volumes over the shared reduction pipeline.
//!
//! A primary storage array exposes block volumes; deduplication works
//! *across* them (the VDI win: every desktop's OS image deduplicates
//! against every other's). [`VolumeManager`] keeps one [`Pipeline`] as the
//! shared reduction domain and a per-volume logical block map on top of
//! the pipeline's chunk recipe, in a [`Volumes`] directory — the type the
//! cluster's placement map is kept in too, and the one that refuses a
//! malformed volume request for both.
//!
//! Overwrites remap the logical block to the new stored chunk; the old
//! chunk stays in the destage log (space reclamation of the append-only
//! log is out of scope, as it is for the paper).

use std::collections::BTreeMap;

use dr_ssd_sim::CrashSpec;

use crate::error::ReadError;
use crate::ingest::HashedChunks;
use crate::journal::Record;
use crate::pipeline::{Pipeline, PipelineConfig, RecoverError, RecoveryOutcome};
use crate::recovery::stage_record;
use crate::report::Report;

/// Errors from volume operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeError {
    /// No volume with that name exists.
    UnknownVolume(String),
    /// A volume with that name already exists.
    AlreadyExists(String),
    /// The name is longer than [`VolumeManager::MAX_NAME_BYTES`].
    NameTooLong {
        /// The name's length in bytes.
        len: usize,
    },
    /// The block index is outside the volume.
    OutOfRange {
        /// Offending block index.
        block: u64,
        /// Volume size in blocks.
        size: u64,
    },
    /// The block was never written.
    Unwritten {
        /// Offending block index.
        block: u64,
    },
    /// A write payload was not a whole number of chunks.
    Misaligned {
        /// Payload length in bytes.
        len: usize,
        /// Required chunk size.
        chunk_bytes: usize,
    },
    /// The underlying read path failed (device or decode error).
    ReadFailed(ReadError),
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeError::UnknownVolume(name) => write!(f, "unknown volume '{name}'"),
            VolumeError::AlreadyExists(name) => write!(f, "volume '{name}' already exists"),
            VolumeError::NameTooLong { len } => write!(
                f,
                "volume name of {len} bytes is longer than {} bytes",
                VolumeManager::MAX_NAME_BYTES
            ),
            VolumeError::OutOfRange { block, size } => {
                write!(f, "block {block} outside volume of {size} blocks")
            }
            VolumeError::Unwritten { block } => write!(f, "block {block} was never written"),
            VolumeError::Misaligned { len, chunk_bytes } => {
                write!(
                    f,
                    "payload of {len} bytes is not a multiple of {chunk_bytes}"
                )
            }
            VolumeError::ReadFailed(e) => write!(f, "read failed: {e}"),
        }
    }
}

impl std::error::Error for VolumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VolumeError::ReadFailed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReadError> for VolumeError {
    fn from(e: ReadError) -> Self {
        VolumeError::ReadFailed(e)
    }
}

/// A volume directory: per volume name, one slot per block, `None` while
/// the block is unwritten. It is the one place the volume refusals live
/// — name length, duplicate create, write alignment, unknown volume,
/// block range, unwritten block — so [`VolumeManager`] (a slot holds a
/// recipe index) and a cluster front-end (a slot holds a placement)
/// refuse alike. Names are kept in order: [`Volumes::iter`] visits the
/// written blocks in (name, block) order.
#[derive(Debug)]
pub struct Volumes<T>(BTreeMap<String, Vec<Option<T>>>);

impl<T> Default for Volumes<T> {
    fn default() -> Self {
        Volumes(BTreeMap::new())
    }
}

impl<T: Clone> Volumes<T> {
    /// Adds a volume of `blocks` unwritten blocks.
    ///
    /// # Errors
    ///
    /// [`VolumeError::NameTooLong`] / [`VolumeError::AlreadyExists`].
    pub fn create(&mut self, name: &str, blocks: u64) -> Result<(), VolumeError> {
        if name.len() > VolumeManager::MAX_NAME_BYTES {
            return Err(VolumeError::NameTooLong { len: name.len() });
        }
        if self.0.contains_key(name) {
            return Err(VolumeError::AlreadyExists(name.to_owned()));
        }
        self.0.insert(name.to_owned(), vec![None; blocks as usize]);
        Ok(())
    }

    /// Validates a write of `len` bytes at `start_block` — whole chunks of
    /// `chunk_bytes`, then the volume, then the range — and returns the
    /// slots it covers.
    ///
    /// # Errors
    ///
    /// [`VolumeError::Misaligned`] / [`VolumeError::UnknownVolume`] /
    /// [`VolumeError::OutOfRange`].
    pub fn extent(
        &mut self,
        name: &str,
        start_block: u64,
        len: usize,
        chunk_bytes: usize,
    ) -> Result<&mut [Option<T>], VolumeError> {
        if len == 0 || !len.is_multiple_of(chunk_bytes) {
            return Err(VolumeError::Misaligned { len, chunk_bytes });
        }
        let n = (len / chunk_bytes) as u64;
        let slots = self
            .0
            .get_mut(name)
            .ok_or_else(|| VolumeError::UnknownVolume(name.to_owned()))?;
        let size = slots.len() as u64;
        if start_block.checked_add(n).is_none_or(|end| end > size) {
            return Err(VolumeError::OutOfRange {
                block: start_block.saturating_add(n - 1),
                size,
            });
        }
        Ok(&mut slots[start_block as usize..][..n as usize])
    }

    /// Validates a block address — volume, range, then written — and
    /// returns what its slot holds.
    ///
    /// # Errors
    ///
    /// [`VolumeError::UnknownVolume`] / [`VolumeError::OutOfRange`] /
    /// [`VolumeError::Unwritten`].
    pub fn resolve(&self, name: &str, block: u64) -> Result<&T, VolumeError> {
        let slots = self
            .0
            .get(name)
            .ok_or_else(|| VolumeError::UnknownVolume(name.to_owned()))?;
        let size = slots.len() as u64;
        if block >= size {
            return Err(VolumeError::OutOfRange { block, size });
        }
        slots[block as usize]
            .as_ref()
            .ok_or(VolumeError::Unwritten { block })
    }

    /// One block's slot; `None` when the volume or the block does not
    /// exist.
    pub fn slot_mut(&mut self, name: &str, block: u64) -> Option<&mut Option<T>> {
        self.0.get_mut(name)?.get_mut(block as usize)
    }

    /// Every volume's name and size in blocks, in name order.
    pub fn sizes(&self) -> impl Iterator<Item = (&str, u64)> {
        let volumes = self.0.iter();
        volumes.map(|(name, slots)| (name.as_str(), slots.len() as u64))
    }

    /// Every written block and its slot, in (name, block) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64, &T)> {
        self.0.iter().flat_map(|(name, slots)| {
            let written = slots.iter().enumerate();
            written.filter_map(move |(block, slot)| {
                Some((name.as_str(), block as u64, slot.as_ref()?))
            })
        })
    }

    /// Drops every volume.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// A set of logical volumes sharing one deduplication domain.
///
/// # Example
///
/// ```
/// use dr_reduction::{VolumeManager, PipelineConfig};
///
/// let mut array = VolumeManager::new(PipelineConfig::default());
/// array.create_volume("vm-1", 16).unwrap();
/// let block = vec![7u8; 4096];
/// array.write("vm-1", 0, &block).unwrap();
/// assert_eq!(array.read("vm-1", 0).unwrap(), block);
/// ```
#[derive(Debug)]
pub struct VolumeManager {
    pipeline: Pipeline,
    /// Logical block → index into the pipeline's chunk recipe.
    volumes: Volumes<usize>,
}

impl VolumeManager {
    /// The longest volume name, in bytes: the journal records a name's
    /// length in 16 bits.
    pub const MAX_NAME_BYTES: usize = u16::MAX as usize;

    /// Creates an empty array with a fresh pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        VolumeManager {
            pipeline: Pipeline::new(config),
            volumes: Volumes::default(),
        }
    }

    /// The shared pipeline (stats, report, device access).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable access to the shared pipeline — flush, index
    /// snapshot/restore, and fault-schedule toggles (checker tooling).
    /// Volume block maps reference the pipeline recipe by index, so
    /// callers must not reset or truncate pipeline state.
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// The cumulative reduction report across all volumes.
    pub fn report(&self) -> &Report {
        self.pipeline.report()
    }

    /// Names of existing volumes, in order.
    pub fn volume_names(&self) -> Vec<&str> {
        self.volumes.sizes().map(|(name, _)| name).collect()
    }

    /// Creates a volume of `blocks` chunks.
    ///
    /// # Errors
    ///
    /// [`VolumeError::NameTooLong`] / [`VolumeError::AlreadyExists`].
    pub fn create_volume(&mut self, name: &str, blocks: u64) -> Result<(), VolumeError> {
        self.volumes.create(name, blocks)?;
        let record = Record::VolumeCreate {
            name: name.into(),
            blocks,
        };
        let p = &mut self.pipeline;
        stage_record(
            p.journal.as_mut(),
            &mut p.ssd,
            p.report.reduction_end,
            &record,
        );
        p.journal_sync();
        Ok(())
    }

    /// Writes `data` (a whole number of chunks) at `start_block`.
    ///
    /// # Errors
    ///
    /// [`VolumeError::UnknownVolume`] / [`VolumeError::Misaligned`] /
    /// [`VolumeError::OutOfRange`].
    pub fn write(&mut self, name: &str, start_block: u64, data: &[u8]) -> Result<(), VolumeError> {
        self.write_chunks(name, start_block, data, None)
    }

    /// [`VolumeManager::write`] for a write fingerprinted upstream (see
    /// [`HashedChunks`]): same checks, same records, same acknowledgement
    /// point; the pipeline's hashing pass is skipped.
    ///
    /// # Errors
    ///
    /// As [`VolumeManager::write`].
    ///
    /// # Panics
    ///
    /// Panics when `write` was cut at another chunk size than
    /// [`PipelineConfig::chunk_bytes`].
    pub fn write_hashed(
        &mut self,
        name: &str,
        start_block: u64,
        write: &HashedChunks,
    ) -> Result<(), VolumeError> {
        self.write_chunks(name, start_block, write.data(), Some(write))
    }

    fn write_chunks(
        &mut self,
        name: &str,
        start_block: u64,
        data: &[u8],
        hashed: Option<&HashedChunks>,
    ) -> Result<(), VolumeError> {
        let chunk_bytes = self.pipeline.config().chunk_bytes;
        let slots = self
            .volumes
            .extent(name, start_block, data.len(), chunk_bytes)?;
        let first_recipe = self.pipeline.ingested_chunks();
        // Every stage reads `data` in place, never a copy; it is
        // chunk-aligned, so `ingest` cuts it at the block bounds.
        self.pipeline.ingest(data, hashed);
        map_blocks(slots, first_recipe);
        // Stage the map update behind the write's batch commits, then
        // commit: one sync programs the journal's open page for all of
        // them, and its grant end is the write's acknowledgement point
        // ([`Pipeline::last_ack`]). The map record is the last thing to
        // become durable — exactly the write-ahead order recovery
        // assumes: an acknowledged write's data, commits, and map are all
        // in the durable prefix.
        let record = Record::MapUpdate {
            name: name.into(),
            start_block,
            nblocks: slots.len() as u64,
            first_recipe: first_recipe as u64,
        };
        let p = &mut self.pipeline;
        stage_record(
            p.journal.as_mut(),
            &mut p.ssd,
            p.report.reduction_end,
            &record,
        );
        p.commit();
        Ok(())
    }

    /// Cuts power at `spec.at` and restarts the array from its journal:
    /// the pipeline recovers its durable state, then the volume block
    /// maps are rebuilt from the recovered create/map records. A write
    /// whose map record did not survive is atomically absent — its blocks
    /// read as unwritten (or as their previous contents, for an
    /// overwrite), never as torn data.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::recover`].
    ///
    /// # Panics
    ///
    /// Panics when journaling is disabled
    /// ([`PipelineConfig::journal_pages`] is 0).
    pub fn crash_and_recover(&mut self, spec: CrashSpec) -> Result<RecoveryOutcome, RecoverError> {
        let outcome = self.pipeline.power_cut_and_recover(spec)?;
        self.volumes.clear();
        let (recovered_chunks, chunk_bytes) =
            (outcome.chunks_recovered, self.pipeline.config().chunk_bytes);
        for record in &outcome.records {
            match record {
                Record::VolumeCreate { name, blocks } => {
                    let created = self.volumes.create(name, *blocks);
                    created.expect("a durable create record names a new volume")
                }
                Record::MapUpdate {
                    name,
                    start_block,
                    nblocks,
                    first_recipe,
                } => {
                    assert!(
                        first_recipe + nblocks <= recovered_chunks,
                        "a durable map record must only reference journaled chunks \
                         ({first_recipe}+{nblocks} > {recovered_chunks})"
                    );
                    let len = *nblocks as usize * chunk_bytes;
                    let slots = self.volumes.extent(name, *start_block, len, chunk_bytes);
                    let slots = slots.expect("map records follow their volume's create record");
                    map_blocks(slots, *first_recipe as usize);
                }
                // The pipeline's own records: it has replayed them.
                Record::BatchCommit(_) | Record::Checkpoint(_) => {}
            }
        }
        Ok(outcome)
    }

    /// The acknowledgement point of the latest operation — see
    /// [`Pipeline::last_ack`].
    pub fn last_ack(&self) -> dr_des::SimTime {
        self.pipeline.last_ack()
    }

    /// Reads one block back through the shared dedup domain.
    ///
    /// # Errors
    ///
    /// [`VolumeError::UnknownVolume`] / [`VolumeError::OutOfRange`] /
    /// [`VolumeError::Unwritten`] / [`VolumeError::ReadFailed`].
    pub fn read(&mut self, name: &str, block: u64) -> Result<Vec<u8>, VolumeError> {
        let recipe_idx = *self.volumes.resolve(name, block)?;
        Ok(self.pipeline.read_block(recipe_idx)?)
    }

    /// Whether a block currently maps to stored data — a metadata-only
    /// probe that never touches the device or advances the simulated
    /// clock. After a crash/recovery this reflects the *durable* map:
    /// cluster reconciliation uses it to decide which placement entries a
    /// recovered node can still serve.
    ///
    /// # Errors
    ///
    /// [`VolumeError::UnknownVolume`] / [`VolumeError::OutOfRange`].
    pub fn is_written(&self, name: &str, block: u64) -> Result<bool, VolumeError> {
        match self.volumes.resolve(name, block) {
            Err(VolumeError::Unwritten { .. }) => Ok(false),
            resolved => resolved.map(|_| true),
        }
    }

    /// Reads a batch of blocks in one read-pipeline pass: requests are
    /// grouped by stored frame, served from the decompressed-chunk cache
    /// when resident, and cold frames are fetched and decoded on the
    /// simulated CPU workers, whatever the integration mode. Bytes are
    /// identical to looping over [`VolumeManager::read`].
    ///
    /// Every index is validated *before* any device work is issued, so a
    /// bad request fails typed without advancing the simulated clock.
    ///
    /// # Errors
    ///
    /// [`VolumeError::UnknownVolume`] / [`VolumeError::OutOfRange`] /
    /// [`VolumeError::Unwritten`] / [`VolumeError::ReadFailed`].
    pub fn read_batch(&mut self, name: &str, blocks: &[u64]) -> Result<Vec<Vec<u8>>, VolumeError> {
        let recipe_idxs = blocks
            .iter()
            .map(|&block| self.volumes.resolve(name, block).copied())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.pipeline.read_blocks(&recipe_idxs)?)
    }
}

/// Maps `slots`, a write's blocks, to consecutive recipe indexes from
/// `first_recipe`.
fn map_blocks(slots: &mut [Option<usize>], first_recipe: usize) {
    for (slot, recipe_idx) in slots.iter_mut().zip(first_recipe..) {
        *slot = Some(recipe_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::IntegrationMode;
    use dr_des::SimTime;

    fn manager() -> VolumeManager {
        VolumeManager::new(PipelineConfig {
            mode: IntegrationMode::CpuOnly,
            ..PipelineConfig::default()
        })
    }

    fn block(tag: u8) -> Vec<u8> {
        let mut b = vec![tag; 4096];
        b[0] = tag.wrapping_add(1);
        b
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = manager();
        m.create_volume("v", 8).unwrap();
        let data = block(3);
        m.write("v", 2, &data).unwrap();
        assert_eq!(m.read("v", 2).unwrap(), data);
    }

    #[test]
    fn cross_volume_dedup() {
        let mut m = manager();
        m.create_volume("a", 4).unwrap();
        m.create_volume("b", 4).unwrap();
        let shared = block(9);
        m.write("a", 0, &shared).unwrap();
        m.write("b", 0, &shared).unwrap();
        let r = m.report();
        assert_eq!(r.unique_chunks, 1, "shared block stored once");
        assert_eq!(r.dedup_hits, 1);
        assert_eq!(m.read("b", 0).unwrap(), shared);
    }

    #[test]
    fn overwrite_remaps() {
        let mut m = manager();
        m.create_volume("v", 2).unwrap();
        m.write("v", 0, &block(1)).unwrap();
        m.write("v", 0, &block(2)).unwrap();
        assert_eq!(m.read("v", 0).unwrap(), block(2));
    }

    #[test]
    fn multi_chunk_write_spans_blocks() {
        let mut m = manager();
        m.create_volume("v", 4).unwrap();
        let mut data = block(1);
        data.extend_from_slice(&block(2));
        m.write("v", 1, &data).unwrap();
        assert_eq!(m.read("v", 1).unwrap(), block(1));
        assert_eq!(m.read("v", 2).unwrap(), block(2));
        assert!(matches!(m.read("v", 0), Err(VolumeError::Unwritten { .. })));
    }

    #[test]
    fn errors_are_specific() {
        let mut m = manager();
        m.create_volume("v", 2).unwrap();
        assert!(matches!(
            m.create_volume("v", 2),
            Err(VolumeError::AlreadyExists(_))
        ));
        assert!(matches!(
            m.write("nope", 0, &block(0)),
            Err(VolumeError::UnknownVolume(_))
        ));
        assert!(matches!(
            m.write("v", 0, &[1, 2, 3]),
            Err(VolumeError::Misaligned { .. })
        ));
        assert!(matches!(
            m.write("v", 1, &[block(0), block(1)].concat()),
            Err(VolumeError::OutOfRange { .. })
        ));
        // A range whose end overflows is out of range too, and refused
        // before anything is ingested.
        let chunks = m.report().chunks;
        for (start, blocks) in [(u64::MAX, 1), (u64::MAX - 1, 2)] {
            assert_eq!(
                m.write("v", start, &block(0).repeat(blocks)),
                Err(VolumeError::OutOfRange {
                    block: u64::MAX,
                    size: 2
                })
            );
        }
        assert_eq!(m.report().chunks, chunks);
        assert!(matches!(
            m.read("v", 9),
            Err(VolumeError::OutOfRange { .. })
        ));
        assert!(matches!(
            m.read("nope", 0),
            Err(VolumeError::UnknownVolume(_))
        ));
    }

    #[test]
    fn batched_reads_match_serial_reads() {
        let mut m = manager();
        m.create_volume("v", 8).unwrap();
        let mut data = Vec::new();
        for tag in 0..6u8 {
            data.extend_from_slice(&block(tag % 3)); // duplicates across blocks
        }
        m.write("v", 0, &data).unwrap();
        let blocks: Vec<u64> = vec![0, 1, 2, 3, 4, 5, 0, 2];
        let batch = m.read_batch("v", &blocks).unwrap();
        for (got, &b) in batch.iter().zip(&blocks) {
            let serial = m.read("v", b).unwrap();
            assert_eq!(got, &serial, "block {b}");
        }
    }

    #[test]
    fn batched_read_errors_are_typed_and_precede_device_work() {
        let mut m = manager();
        m.create_volume("v", 4).unwrap();
        m.write("v", 0, &block(1)).unwrap();
        let read_end_before = m.report().read_end;
        assert!(matches!(
            m.read_batch("v", &[0, 9]),
            Err(VolumeError::OutOfRange { block: 9, .. })
        ));
        assert!(matches!(
            m.read_batch("v", &[0, 2]),
            Err(VolumeError::Unwritten { block: 2 })
        ));
        assert!(matches!(
            m.read_batch("nope", &[0]),
            Err(VolumeError::UnknownVolume(_))
        ));
        assert_eq!(
            m.report().read_end,
            read_end_before,
            "failed validation must not advance the read clock"
        );
        assert_eq!(m.read_batch("v", &[0]).unwrap(), vec![block(1)]);
    }

    #[test]
    fn is_written_tracks_map_without_device_work() {
        let mut m = manager();
        m.create_volume("v", 4).unwrap();
        m.write("v", 1, &block(1)).unwrap();
        let read_end = m.report().read_end;
        assert!(m.is_written("v", 1).unwrap());
        assert!(!m.is_written("v", 0).unwrap());
        assert!(matches!(
            m.is_written("v", 9),
            Err(VolumeError::OutOfRange { .. })
        ));
        assert!(matches!(
            m.is_written("nope", 0),
            Err(VolumeError::UnknownVolume(_))
        ));
        assert_eq!(m.report().read_end, read_end, "probe charges no sim time");
    }

    #[test]
    fn is_written_reflects_durable_map_after_crash() {
        let mut m = journaled_manager();
        m.create_volume("v", 4).unwrap();
        m.write("v", 0, &block(1)).unwrap();
        let ack = m.last_ack();
        m.write("v", 1, &block(2)).unwrap();
        m.crash_and_recover(CrashSpec {
            at: ack,
            torn_seed: 11,
        })
        .unwrap();
        assert!(m.is_written("v", 0).unwrap(), "acked write survives");
        assert!(!m.is_written("v", 1).unwrap(), "unacked write is absent");
    }

    #[test]
    fn volume_names_listed() {
        let mut m = manager();
        m.create_volume("x", 1).unwrap();
        m.create_volume("y", 1).unwrap();
        let mut names = m.volume_names();
        names.sort_unstable();
        assert_eq!(names, vec!["x", "y"]);
    }

    fn journaled_manager() -> VolumeManager {
        VolumeManager::new(PipelineConfig {
            mode: IntegrationMode::CpuOnly,
            journal_pages: 64,
            ..PipelineConfig::default()
        })
    }

    #[test]
    fn an_over_long_name_is_refused_before_anything_changes() {
        let longest = "n".repeat(VolumeManager::MAX_NAME_BYTES);
        let too_long = format!("{longest}n");
        for (mut m, journaled) in [(manager(), false), (journaled_manager(), true)] {
            let before = (m.report().clone(), m.last_ack());
            assert_eq!(
                m.create_volume(&too_long, 4),
                Err(VolumeError::NameTooLong {
                    len: VolumeManager::MAX_NAME_BYTES + 1
                })
            );
            assert!(m.volume_names().is_empty());
            assert_eq!(
                format!("{:?}", (m.report(), m.last_ack())),
                format!("{before:?}")
            );
            // The longest name is a volume like any other, journaled or not.
            m.create_volume(&longest, 4).unwrap();
            m.write(&longest, 0, &block(1)).unwrap();
            if journaled {
                let at = m.last_ack();
                m.crash_and_recover(CrashSpec { at, torn_seed: 3 }).unwrap();
            }
            assert_eq!(m.read(&longest, 0).unwrap(), block(1));
        }
    }

    #[test]
    fn a_pre_hashed_write_is_the_write_it_replaces() {
        // Twin arrays, one fed `write`, one `write_hashed`: every
        // simulated instant, every stored and journaled byte must agree —
        // in all four modes, journaled or not, with dedup off (supplied
        // digests ignored like computed ones), across multi-batch writes.
        let block_run = |tags: &[u8]| tags.iter().flat_map(|&t| block(t)).collect::<Vec<u8>>();
        let writes: [(u64, Vec<u8>); 5] = [
            (0, block(1)),
            (1, block(1)),
            (4, block_run(&[2, 3, 2, 4, 5, 1, 6, 7, 8, 6])), // three batches of four
            (5, block(9)),                                   // overwrite
            (20, block_run(&[9, 10])),
        ];
        for mode in IntegrationMode::ALL {
            for (journal_pages, dedup_enabled) in [(0, true), (64, true), (64, false)] {
                let config = PipelineConfig {
                    mode,
                    journal_pages,
                    dedup_enabled,
                    batch_chunks: 4,
                    verify: true,
                    ..PipelineConfig::default()
                };
                let what = format!("{mode}, journal {journal_pages}, dedup {dedup_enabled}");
                let (mut plain, mut hashed) = (
                    VolumeManager::new(config.clone()),
                    VolumeManager::new(config),
                );
                plain.create_volume("v", 32).unwrap();
                hashed.create_volume("v", 32).unwrap();
                let (pool, mut digests) = (dr_pool::WorkerPool::new(0), Vec::new());
                for (start, data) in &writes {
                    plain.write("v", *start, data).unwrap();
                    let (view, _) = HashedChunks::hash(&pool, data, 4096, &mut digests);
                    hashed.write_hashed("v", *start, &view).unwrap();
                    assert_eq!(plain.report(), hashed.report(), "{what}");
                    assert_eq!(plain.last_ack(), hashed.last_ack(), "{what}");
                }
                assert_eq!(plain.pipeline.recipe, hashed.pipeline.recipe, "{what}");
                let all: Vec<u64> = (0..32)
                    .filter(|b| plain.is_written("v", *b).unwrap())
                    .collect();
                assert_eq!(
                    plain.read_batch("v", &all).unwrap(),
                    hashed.read_batch("v", &all).unwrap(),
                    "{what}"
                );
                assert_eq!(hashed.read("v", 5).unwrap(), block(9), "{what}");
                let region = |vm: &mut VolumeManager| {
                    let p = &mut vm.pipeline;
                    let Some(journal) = &p.journal else {
                        return Vec::new();
                    };
                    let first = journal.region_start();
                    let pages = journal.written_bytes().div_ceil(4096);
                    let read = |lpn| p.ssd.read_page(SimTime::ZERO, lpn).expect("journal page").0;
                    (first..first + pages).flat_map(read).collect::<Vec<u8>>()
                };
                let journaled = region(&mut plain);
                assert_eq!(journaled.is_empty(), journal_pages == 0);
                assert_eq!(journaled, region(&mut hashed), "{what}");
            }
        }
        // Misaligned and out-of-range pre-hashed writes are refused the
        // same way.
        let mut m = manager();
        m.create_volume("v", 2).unwrap();
        let (short, mut digests) = ([1u8, 2, 3], Vec::new());
        let pool = dr_pool::WorkerPool::new(0);
        assert!(matches!(
            m.write_hashed(
                "v",
                0,
                &HashedChunks::hash(&pool, &short, 4096, &mut digests).0
            ),
            Err(VolumeError::Misaligned { .. })
        ));
        let long = block_run(&[1, 2]);
        assert!(matches!(
            m.write_hashed(
                "v",
                1,
                &HashedChunks::hash(&pool, &long, 4096, &mut digests).0
            ),
            Err(VolumeError::OutOfRange { .. })
        ));
    }

    /// A planted mutant of [`VolumeManager::write`]: it syncs the journal
    /// *before* it stages the map update, so the ack lands ahead of the
    /// record that makes the write visible.
    fn sync_before_the_map_update(
        m: &mut VolumeManager,
        name: &str,
        start_block: u64,
        data: &[u8],
    ) -> Result<(), VolumeError> {
        let (first_recipe, chunk_bytes) = (
            m.pipeline.ingested_chunks(),
            m.pipeline.config().chunk_bytes,
        );
        m.pipeline.ingest(data, None);
        let slots = m.volumes.extent(name, start_block, data.len(), chunk_bytes);
        let slots = slots.expect("the sweep's volume");
        map_blocks(slots, first_recipe);
        let record = Record::MapUpdate {
            name: name.into(),
            start_block,
            nblocks: slots.len() as u64,
            first_recipe: first_recipe as u64,
        };
        let p = &mut m.pipeline;
        p.commit();
        stage_record(
            p.journal.as_mut(),
            &mut p.ssd,
            p.report.reduction_end,
            &record,
        );
        Ok(())
    }

    #[test]
    fn the_cut_sweep_kills_a_sync_before_the_map_update_is_staged() {
        let found = crate::cut_sweep::sweep(sync_before_the_map_update)
            .expect_err("the mutant must not survive the sweep");
        assert!(found.contains("acknowledged but only"), "{found}");
    }

    #[test]
    fn a_duplicate_write_stages_two_records_and_programs_one_page() {
        let obs = dr_obs::ObsHandle::enabled("volume-test");
        let mut m = VolumeManager::new(PipelineConfig {
            mode: IntegrationMode::CpuOnly,
            journal_pages: 64,
            obs: obs.clone(),
            ..PipelineConfig::default()
        });
        m.create_volume("v", 4).unwrap();
        m.write("v", 0, &block(1)).unwrap();
        let counters = || {
            ["journal.appends", "journal.syncs", "journal.pages_written"]
                .map(|name| obs.counter(name).get())
        };
        let (before, ack) = (counters(), m.last_ack());
        m.write("v", 1, &block(1)).unwrap();
        assert_eq!(m.report().dedup_hits, 1);
        let after = counters();
        let added: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        // A batch commit and a map update, one sync, one program of the
        // journal's open page — and nothing else on the device.
        assert_eq!(added, [2, 1, 1]);
        assert!(m.last_ack() > ack);
    }

    #[test]
    fn acks_strictly_increase_write_after_write() {
        let mut m = journaled_manager();
        m.create_volume("v", 8).unwrap();
        let mut last = m.last_ack();
        let writes = [
            (0, vec![1]),
            (1, vec![1]),
            (2, vec![2, 3, 4]),
            (5, vec![2, 3, 4]),
        ];
        for (start, tags) in writes {
            let data: Vec<u8> = tags.iter().flat_map(|&t| block(t)).collect();
            m.write("v", start, &data).unwrap();
            assert!(m.last_ack() > last, "write at {start} acked no later");
            last = m.last_ack();
        }
    }

    /// The store keeps its own books: with observability off — the
    /// default, so no metric is read — writes that outlive their device
    /// retries, a flush, a power cut and the writes after it leave them
    /// balanced at every step.
    #[test]
    fn the_books_balance_with_observability_off() {
        let mut m = journaled_manager();
        assert!(!m.pipeline().obs().is_enabled());
        let noise = |seed: u64| {
            let mut rng = dr_des::SplitMix64::new(seed);
            (0..4096).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()
        };
        let books = |m: &VolumeManager, step: &str| {
            let checked = m.pipeline().check_conservation();
            checked.unwrap_or_else(|e| panic!("after {step}: {e}"));
        };
        m.create_volume("v", 96).unwrap();
        for b in 0..16 {
            m.write("v", b, &noise(b % 12)).unwrap();
            books(&m, "a clean write");
        }
        m.pipeline_mut().set_ssd_faults(dr_ssd_sim::SsdFaultSpec {
            write_error_rate: 0.5,
            seed: 2,
            ..Default::default()
        });
        // Only a drain that outlived its retries opens the SSD latch.
        let mut latched = false;
        for b in 16..64 {
            m.write("v", b, &noise(b % 40)).unwrap();
            books(&m, "a faulted write");
            latched |= m.pipeline().destage.ssd_write.is_degraded();
        }
        assert!(latched, "a drain outlived its retries");
        m.pipeline_mut().set_ssd_faults(Default::default());
        m.pipeline_mut().flush().unwrap();
        books(&m, "the flush");
        let at = m.last_ack();
        m.crash_and_recover(CrashSpec { at, torn_seed: 5 }).unwrap();
        books(&m, "the recovery");
        for b in 64..80 {
            m.write("v", b, &noise(b % 50)).unwrap();
            books(&m, "a write after the recovery");
        }
    }

    #[test]
    fn crash_after_ack_preserves_every_acknowledged_write() {
        let mut m = journaled_manager();
        m.create_volume("v", 8).unwrap();
        m.write("v", 0, &block(1)).unwrap();
        m.write("v", 3, &block(2)).unwrap();
        let ack = m.last_ack();
        let outcome = m
            .crash_and_recover(CrashSpec {
                at: ack,
                torn_seed: 7,
            })
            .unwrap();
        // Two map records, two batch commits, one create record.
        assert_eq!(outcome.records_replayed, 5);
        assert_eq!(outcome.chunks_recovered, 2);
        assert_eq!(m.read("v", 0).unwrap(), block(1));
        assert_eq!(m.read("v", 3).unwrap(), block(2));
        assert!(matches!(m.read("v", 1), Err(VolumeError::Unwritten { .. })));
    }

    #[test]
    fn crash_at_time_zero_loses_everything_atomically() {
        let mut m = journaled_manager();
        m.create_volume("v", 8).unwrap();
        m.write("v", 0, &block(1)).unwrap();
        let outcome = m
            .crash_and_recover(CrashSpec {
                at: dr_des::SimTime::ZERO,
                torn_seed: 1,
            })
            .unwrap();
        assert_eq!(outcome.records_replayed, 0, "nothing was durable at t=0");
        assert!(m.volume_names().is_empty());
        assert!(matches!(m.read("v", 0), Err(VolumeError::UnknownVolume(_))));
    }

    #[test]
    fn unacked_overwrite_reverts_to_previous_contents() {
        let mut m = journaled_manager();
        m.create_volume("v", 4).unwrap();
        m.write("v", 0, &block(1)).unwrap();
        let acked = m.last_ack();
        m.write("v", 0, &block(2)).unwrap();
        // Cut power exactly at the first write's ack point: the overwrite's
        // journal record cannot have landed yet (strict grant order).
        m.crash_and_recover(CrashSpec {
            at: acked,
            torn_seed: 42,
        })
        .unwrap();
        assert_eq!(
            m.read("v", 0).unwrap(),
            block(1),
            "unacknowledged overwrite must be atomically absent"
        );
    }

    #[test]
    fn recovered_array_accepts_new_writes_and_dedups_against_survivors() {
        let mut m = journaled_manager();
        m.create_volume("v", 8).unwrap();
        m.write("v", 0, &block(5)).unwrap();
        let ack = m.last_ack();
        m.crash_and_recover(CrashSpec {
            at: ack,
            torn_seed: 3,
        })
        .unwrap();
        // A duplicate of the surviving chunk dedups against recovered state.
        m.write("v", 1, &block(5)).unwrap();
        assert_eq!(m.read("v", 1).unwrap(), block(5));
        assert_eq!(m.report().dedup_hits, 1);
        // Fresh content still round-trips.
        m.write("v", 2, &block(6)).unwrap();
        assert_eq!(m.read("v", 2).unwrap(), block(6));
    }
}
