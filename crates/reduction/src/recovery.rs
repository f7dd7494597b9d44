//! The pipeline's side of the journal ([`crate::journal`] is the
//! on-device log): the records it appends, and [`Pipeline::recover`],
//! which rebuilds every volatile structure from the durable prefix.

use std::borrow::Cow;

use dr_binindex::{BinIndex, ChunkRef};
use dr_des::SimTime;
use dr_ssd_sim::{CrashReport, CrashSpec, SsdDevice};

use crate::ingest::FrameArena;
use crate::journal::{Checkpoint, Journal, JournalError, Record};
use crate::pipeline::{power_on_gpu, Pipeline};
use crate::report::Report;

/// What [`Pipeline::recover`] rebuilt from the journal.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// What the power cut did to in-flight device writes (zeroed when
    /// [`Pipeline::recover`] is called without a cut).
    pub crash: CrashReport,
    /// Journal records replayed (the durable prefix).
    pub records_replayed: u64,
    /// True when a torn/corrupt journal tail was discarded.
    pub torn_discarded: bool,
    /// Recipe entries (stored-chunk references) reconstructed.
    pub chunks_recovered: u64,
    /// The durable record prefix, in append order: the volume layer
    /// rebuilds its block maps from the create and map records in it.
    pub records: Vec<Record<'static>>,
}

/// Crash-recovery failures.
#[derive(Debug)]
pub enum RecoverError {
    /// The journal's embedded index checkpoint did not restore.
    Checkpoint(dr_binindex::SnapshotError),
    /// A journal-region read failed past the retry schedule.
    Device(dr_ssd_sim::SsdError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Checkpoint(e) => write!(f, "journal checkpoint corrupt: {e}"),
            RecoverError::Device(e) => write!(f, "journal region unreadable: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Stages a write-path record — a batch commit, a map update or a volume
/// create — in `journal`, when there is one, no earlier than `at`; the
/// operation's [`Pipeline::journal_sync`] acknowledges it.
///
/// # Panics
///
/// Panics when the journal refuses the record: the write path has no
/// error to return it through yet.
pub(crate) fn stage_record(
    journal: Option<&mut Journal>,
    ssd: &mut SsdDevice,
    at: SimTime,
    record: &Record,
) {
    if let Some(journal) = journal {
        journal
            .stage(at, ssd, record)
            .unwrap_or_else(|e| panic!("journal {} append failed: {e}", record.kind_name()));
    }
}

impl Pipeline {
    /// Syncs the journal: one program of its open page for every record
    /// staged since the last sync, whose grant end becomes
    /// [`Pipeline::last_ack`] and raises the device clock. A no-op when
    /// journaling is disabled.
    pub(crate) fn journal_sync(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let g = journal
            .sync(self.report.reduction_end, &mut self.ssd)
            .unwrap_or_else(|e| panic!("journal sync failed: {e}"));
        self.report.ssd_end = self.report.ssd_end.max(g.end);
    }

    /// Embeds an index checkpoint in the journal, so a later recovery can
    /// restore the bin index from the snapshot and skip re-inserting
    /// every pre-checkpoint chunk. A no-op when journaling is disabled.
    ///
    /// # Errors
    ///
    /// [`JournalError::Full`] when the region cannot hold the snapshot,
    /// [`JournalError::Ssd`] when the device fails past retries.
    pub fn journal_checkpoint(&mut self) -> Result<(), JournalError> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        let snapshot =
            dr_binindex::snapshot(&self.index).expect("snapshotting a live index cannot fail");
        // Like a batch commit, not before the pages below the frontier.
        let at = self.report.reduction_end.max(self.destage.data_end());
        let record = Record::Checkpoint(Checkpoint {
            frontier: self.destage.frontier(),
            snapshot: Cow::Owned(snapshot),
        });
        let g = journal.append(at, &mut self.ssd, &record)?;
        self.report.ssd_end = self.report.ssd_end.max(g.end);
        Ok(())
    }

    /// Cuts power at `spec.at` — tearing or reverting device writes in
    /// flight at that instant — then runs [`Pipeline::recover`].
    ///
    /// # Errors
    ///
    /// See [`Pipeline::recover`].
    ///
    /// # Panics
    ///
    /// Panics when journaling is disabled (there is nothing to recover
    /// from; an unjournaled pipeline does not model crashes).
    pub fn power_cut_and_recover(
        &mut self,
        spec: CrashSpec,
    ) -> Result<RecoveryOutcome, RecoverError> {
        assert!(
            self.journal.is_some(),
            "power_cut_and_recover needs journal_pages > 0"
        );
        let crash = self.ssd.power_cut(spec);
        let mut outcome = self.recover(spec.at)?;
        outcome.crash = crash;
        Ok(outcome)
    }

    /// Rebuilds all volatile pipeline state from the on-device journal,
    /// as a restart after a power failure would: every in-memory
    /// structure (bin index, recipe, read cache, degradation latches, GPU
    /// state, destage frontier, report counters) is discarded and
    /// reconstructed from the journal's durable record prefix. The
    /// `fault.*` counters in the obs registry run on across the restart.
    ///
    /// The journal region is re-read page by page on the simulated
    /// device (charged, retried); a torn tail is discarded, so exactly
    /// the acknowledged prefix survives. The restored GPU index mirror
    /// starts empty — a power cycle clears device memory — which is
    /// miss-safe because the CPU bins are authoritative.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Device`] when the journal region cannot be read,
    /// [`RecoverError::Checkpoint`] when an embedded index snapshot is
    /// corrupt.
    ///
    /// # Panics
    ///
    /// Panics when journaling is disabled.
    pub fn recover(&mut self, now: SimTime) -> Result<RecoveryOutcome, RecoverError> {
        let journal = self
            .journal
            .as_mut()
            .expect("recover needs journal_pages > 0");
        let replay = journal
            .replay(now, &mut self.ssd)
            .map_err(RecoverError::Device)?;
        let done = journal.ack_end();

        // Restore the index: from the last embedded checkpoint when one
        // exists, else empty. Replay then re-inserts only the unique
        // chunks committed *after* that checkpoint.
        let last_cp = replay
            .records
            .iter()
            .rposition(|r| matches!(r, Record::Checkpoint(_)));
        let mut index = match last_cp.map(|pos| &replay.records[pos]) {
            Some(Record::Checkpoint(cp)) => {
                dr_binindex::restore(&cp.snapshot).map_err(RecoverError::Checkpoint)?
            }
            _ => BinIndex::new(self.config.index),
        };
        index.set_obs(&self.config.obs);

        let mut report = Report::new(self.config.mode);
        let mut recipe: Vec<ChunkRef> = Vec::new();
        let mut frontier = None;
        for (pos, record) in replay.records.iter().enumerate() {
            match record {
                // The volume layer's records: see `VolumeManager`.
                Record::VolumeCreate { .. } | Record::MapUpdate { .. } => {}
                Record::BatchCommit(batch) => {
                    frontier = Some(&batch.frontier);
                    let past_checkpoint = last_cp.is_none_or(|cp| pos > cp);
                    for c in batch.chunks.iter() {
                        report.chunks += 1;
                        report.bytes_in += c.orig_len as u64;
                        let r = ChunkRef::new(c.addr, c.stored_len);
                        recipe.push(r);
                        if c.dup {
                            report.dedup_hits += 1;
                            report.bytes_deduped += c.orig_len as u64;
                        } else {
                            report.unique_chunks += 1;
                            report.stored_bytes += c.stored_len as u64;
                            if past_checkpoint
                                && self.config.dedup_enabled
                                && index.insert(c.digest, r).is_some()
                            {
                                // Replay never re-writes index spills to
                                // the device: the journal already made
                                // the inserts durable, and the frontiers
                                // below restore the device-side cursor.
                                report.bin_flushes += 1;
                            }
                        }
                    }
                }
                Record::Checkpoint(cp) => frontier = Some(&cp.frontier),
            }
        }

        // Destage frontier: from the last state-bearing record, else the
        // empty log. The SSD latch closes with it.
        self.destage.restore(frontier);

        // Every other volatile structure restarts fresh, exactly as a
        // reboot would leave it: cold read cache, closed GPU latches,
        // empty frame arena, a power-cycled GPU with an empty index mirror.
        self.drop_read_cache();
        self.fault.gpu_dedup.reset();
        self.fault.gpu_compress.reset();
        self.arena = FrameArena::new(self.config.batch_chunks);
        (self.gpu, self.gpu_index) = power_on_gpu(&self.config);

        report.reduction_end = done;
        report.ssd_end = done;
        self.index = index;
        self.report = report;
        let chunks_recovered = recipe.len() as u64;
        self.recipe = recipe;

        Ok(RecoveryOutcome {
            crash: CrashReport::default(),
            records_replayed: replay.records.len() as u64,
            torn_discarded: replay.torn(),
            chunks_recovered,
            records: replay.records,
        })
    }
}
