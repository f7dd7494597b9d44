//! The bare [`VolumeManager`] as a system under test.
//!
//! On top of the harness's byte identity and error mirroring, a single
//! array adds:
//!
//! 1. **Conservation** — the array's own
//!    [`Pipeline::check_conservation`](dr_reduction::Pipeline::check_conservation):
//!    `chunks = unique_chunks + dedup_hits`, and the destage log holds
//!    exactly the stored frame bytes.
//! 2. **Reduction-ratio sanity** — stored bytes never exceed the unique
//!    byte volume plus a bounded per-chunk envelope overhead, and dedup
//!    never "removes" more bytes than came in.
//! 3. **Sim-time monotonicity** — `reduction_end` / `ssd_end` /
//!    `read_end` never move backwards.
//! 4. **Snapshot fixed point** — index snapshot → restore → snapshot
//!    stabilizes, and the restored index keeps resolving every chunk.
//! 5. **Crash durability** — after a power cut the durable prefix matches
//!    the acknowledged prefix record-for-record ([`ArraySut::check_crash`]).
//!
//! Its own ops are the device-fault toggles, `SnapshotRestore` and
//! `Crash`.

use dr_cluster::PlacedRun;
use dr_des::{SimTime, SplitMix64};
use dr_gpu_sim::GpuFaultSpec;
use dr_obs::{ObsHandle, Tracer};
use dr_reduction::{IntegrationMode, ReadError, Record, Report, VolumeError, VolumeManager};
use dr_ssd_sim::{CrashSpec, SsdFaultSpec};

use crate::harness::{
    fail, node_config, volume_kind, Failure, Sut, CHUNK_BYTES, TRANSIENT_RETRIES,
};
use crate::model::{ModelError, Oracle};
use crate::ops::Op;

/// Per-chunk allowance for frame header + integrity trailer + worst-case
/// incompressible expansion of the sealed envelope.
const FRAME_OVERHEAD_BYTES: u64 = 64;

/// True when a read error is a transient device fault worth re-issuing.
fn transient(e: &ReadError) -> bool {
    matches!(e, ReadError::Device(d) if d.is_transient())
}

/// One successfully acknowledged state-changing operation, logged in
/// crash-scenario runs so the durable prefix after a power cut can be
/// cross-checked record-for-record and the oracle rebuilt from it.
enum Action {
    Create {
        name: String,
        blocks: u64,
    },
    Write {
        name: String,
        block: u64,
        data: Vec<u8>,
    },
}

pub(crate) struct ArraySut {
    system: VolumeManager,
    oracle: Oracle,
    obs: ObsHandle,
    /// Watermarks of the report's `reduction_end`, `ssd_end`, `read_end`.
    clocks: [SimTime; 3],
    /// Journal enabled (crash-scenario run)?
    journaled: bool,
    /// Acknowledged state changes with their ack instants, in journal
    /// order. Only populated when `journaled`.
    actions: Vec<(Action, SimTime)>,
}

impl ArraySut {
    /// A fresh array for `ops`. The metadata journal is enabled exactly
    /// when the sequence can cut power, so journal-free sequences keep
    /// producing bit-identical simulated results.
    pub(crate) fn new(mode: IntegrationMode, tracer: Tracer, ops: &[Op]) -> Self {
        let journaled = ops.iter().any(|op| matches!(op, Op::Crash { .. }));
        let obs = ObsHandle::enabled("dr-check").with_tracer(tracer);
        ArraySut {
            system: VolumeManager::new(node_config(mode, journaled, obs.clone())),
            oracle: Oracle::new(CHUNK_BYTES),
            obs,
            clocks: [SimTime::ZERO; 3],
            journaled,
            actions: Vec::new(),
        }
    }

    /// Invariant 4: snapshot → restore → snapshot reaches a fixed point;
    /// the restored index replaces the live one.
    fn check_snapshot_fixed_point(&mut self, idx: usize) -> Result<(), Failure> {
        let p = self.system.pipeline_mut();
        let s1 = p
            .snapshot_index()
            .map_err(|e| fail(idx, "snapshot", format!("first snapshot failed: {e:?}")))?;
        p.restore_index(&s1)
            .map_err(|e| fail(idx, "snapshot", format!("restore failed: {e:?}")))?;
        let s2 = p
            .snapshot_index()
            .map_err(|e| fail(idx, "snapshot", format!("re-snapshot failed: {e:?}")))?;
        p.restore_index(&s2)
            .map_err(|e| fail(idx, "snapshot", format!("re-restore failed: {e:?}")))?;
        let s3 = p
            .snapshot_index()
            .map_err(|e| fail(idx, "snapshot", format!("fixpoint snapshot failed: {e:?}")))?;
        if s2 != s3 {
            return Err(fail(
                idx,
                "snapshot",
                format!(
                    "snapshot/restore is not a fixed point: \
                     {} bytes then {} bytes",
                    s2.len(),
                    s3.len()
                ),
            ));
        }
        Ok(())
    }

    /// The crash oracle: pick a seeded cut instant within the acknowledged
    /// horizon, cut power, recover, and verify the durable prefix.
    ///
    /// What must hold after recovery:
    ///
    /// 1. Every operation acknowledged at or before the cut survives (the
    ///    journal's durable-prefix guarantee), and recovery never produces
    ///    *more* records than operations happened.
    /// 2. The surviving records match the action log record-for-record —
    ///    same kind, target, and extent, in the same order.
    /// 3. The oracle rebuilt from the surviving prefix agrees with the
    ///    recovered system byte-for-byte (checked by every later read and
    ///    the final sweep).
    fn check_crash(&mut self, idx: usize, seed: u64) -> Result<(), Failure> {
        let mut rng = SplitMix64::new(seed);
        let at = SimTime::from_nanos(rng.next_below(self.system.last_ack().as_nanos() + 1));
        let acked = self.actions.iter().filter(|(_, ack)| *ack <= at).count();
        let outcome = self
            .system
            .crash_and_recover(CrashSpec {
                at,
                torn_seed: seed,
            })
            .map_err(|e| fail(idx, "recovery", format!("recovery failed: {e}")))?;
        // The pipeline's own records (batch commits, checkpoints) have
        // no op of their own in the action log.
        let volume_records: Vec<&Record> = outcome
            .records
            .iter()
            .filter(|r| matches!(r, Record::VolumeCreate { .. } | Record::MapUpdate { .. }))
            .collect();
        let survived = volume_records.len();
        if survived < acked {
            return Err(fail(
                idx,
                "durability",
                format!(
                    "cut at {:?}: {acked} of {} operations were acknowledged \
                     but only {survived} survived recovery",
                    at,
                    self.actions.len()
                ),
            ));
        }
        if survived > self.actions.len() {
            return Err(fail(
                idx,
                "durability",
                format!(
                    "recovery produced {survived} records for {} operations",
                    self.actions.len()
                ),
            ));
        }
        for (i, record) in volume_records.into_iter().enumerate() {
            let (action, _) = &self.actions[i];
            let agrees = match (action, record) {
                (
                    Action::Create { name, blocks },
                    Record::VolumeCreate {
                        name: r_name,
                        blocks: r_blocks,
                    },
                ) => name == r_name && blocks == r_blocks,
                (
                    Action::Write { name, block, data },
                    Record::MapUpdate {
                        name: r_name,
                        start_block,
                        nblocks,
                        ..
                    },
                ) => {
                    name == r_name
                        && block == start_block
                        && *nblocks == (data.len() / CHUNK_BYTES) as u64
                }
                _ => false,
            };
            if !agrees {
                return Err(fail(
                    idx,
                    "replay-divergence",
                    format!("recovered record {i} does not match the {i}th acknowledged op"),
                ));
            }
        }
        // Both sides now agree the tail is gone: truncate the action log
        // and rebuild the oracle from the surviving prefix.
        self.actions.truncate(survived);
        self.oracle = Oracle::new(CHUNK_BYTES);
        for (action, _) in &self.actions {
            let replayed = match action {
                Action::Create { name, blocks } => self.oracle.create_volume(name, *blocks),
                Action::Write { name, block, data } => self.oracle.write(name, *block, data),
            };
            if let Err(e) = replayed {
                return Err(fail(
                    idx,
                    "replay-divergence",
                    format!("oracle replay of a surviving op failed: {e}"),
                ));
            }
        }
        // Recovery starts a fresh report (clocks restart at the replay
        // horizon, read clock at zero); re-anchor the monotonicity
        // watermarks.
        let r = self.system.report();
        self.clocks = [r.reduction_end, r.ssd_end, r.read_end];
        Ok(())
    }
}

impl Sut for ArraySut {
    type Error = VolumeError;

    fn oracle(&mut self) -> &mut Oracle {
        &mut self.oracle
    }

    fn create_volume(&mut self, name: &str, blocks: u64) -> Result<(), VolumeError> {
        self.system.create_volume(name, blocks)
    }

    /// A bare array takes a write as one run, acknowledged at the
    /// manager's ack point (journal grant end when journaled).
    fn write(
        &mut self,
        name: &str,
        block: u64,
        data: &[u8],
    ) -> Result<Vec<PlacedRun>, VolumeError> {
        self.system.write(name, block, data)?;
        Ok(vec![PlacedRun {
            start_block: block,
            nblocks: (data.len() / CHUNK_BYTES) as u64,
            node: 0,
            ack: self.system.last_ack(),
        }])
    }

    fn read(&mut self, name: &str, block: u64) -> Result<Vec<u8>, VolumeError> {
        self.system.read(name, block)
    }

    fn read_batch(&mut self, name: &str, blocks: &[u64]) -> Result<Vec<Vec<u8>>, VolumeError> {
        self.system.read_batch(name, blocks)
    }

    fn flush(&mut self) -> Result<(), String> {
        let mut retries = 0;
        loop {
            match self.system.pipeline_mut().flush() {
                Ok(()) => break,
                Err(e) if transient(&e) && retries < TRANSIENT_RETRIES => retries += 1,
                Err(e) => return Err(format!("destage flush failed: {e}")),
            }
        }
        // Crash runs also cut a journal checkpoint here, so recovery
        // exercises the snapshot-restore replay path, not just
        // record-by-record rebuilds.
        if self.journaled {
            self.system
                .pipeline_mut()
                .journal_checkpoint()
                .map_err(|e| format!("journal checkpoint: {e}"))?;
        }
        Ok(())
    }

    fn kind_of(e: &VolumeError) -> Option<ModelError> {
        volume_kind(e)
    }

    fn is_transient(e: &VolumeError) -> bool {
        matches!(e, VolumeError::ReadFailed(e) if transient(e))
    }

    fn acked_create(&mut self, name: &str, blocks: u64) {
        if self.journaled {
            let name = name.to_owned();
            self.actions
                .push((Action::Create { name, blocks }, self.system.last_ack()));
        }
    }

    fn acked_write(&mut self, name: &str, block: u64, data: &[u8], runs: &[PlacedRun]) {
        if self.journaled {
            let action = Action::Write {
                name: name.to_owned(),
                block,
                data: data.to_vec(),
            };
            self.actions.push((action, runs[0].ack));
        }
    }

    fn apply_other(&mut self, idx: usize, op: &Op) -> Result<bool, Failure> {
        match op {
            Op::SetSsdFaults {
                write_milli,
                busy_milli,
                read_milli,
                seed,
            } => self.system.pipeline_mut().set_ssd_faults(SsdFaultSpec {
                write_error_rate: *write_milli as f64 / 1000.0,
                busy_rate: *busy_milli as f64 / 1000.0,
                read_error_rate: *read_milli as f64 / 1000.0,
                seed: *seed,
                ..SsdFaultSpec::default()
            }),
            Op::SetGpuFaults {
                launch_milli,
                timeout_milli,
                seed,
            } => self.system.pipeline_mut().set_gpu_faults(GpuFaultSpec {
                launch_failure_rate: *launch_milli as f64 / 1000.0,
                probe_timeout_rate: *timeout_milli as f64 / 1000.0,
                seed: *seed,
                ..GpuFaultSpec::default()
            }),
            Op::ClearFaults => {
                let p = self.system.pipeline_mut();
                p.set_ssd_faults(SsdFaultSpec::default());
                p.set_gpu_faults(GpuFaultSpec::default());
            }
            Op::SnapshotRestore => self.check_snapshot_fixed_point(idx)?,
            Op::Crash { seed } => self.check_crash(idx, *seed)?,
            // Hand-written or replayed sequences may carry cluster ops; a
            // bare volume manager has no membership.
            _ => {}
        }
        Ok(false)
    }

    /// Invariants 1–3.
    fn after_op(&mut self, idx: usize) -> Result<(), Failure> {
        let books = self.system.pipeline().check_conservation();
        books.map_err(|detail| fail(idx, "conservation", detail))?;
        let r: Report = self.system.report().clone();
        if r.bytes_deduped > r.bytes_in {
            return Err(fail(
                idx,
                "ratio-sanity",
                format!(
                    "deduped bytes {} exceed input bytes {}",
                    r.bytes_deduped, r.bytes_in
                ),
            ));
        }
        let unique_bytes = r.bytes_in - r.bytes_deduped;
        let bound = unique_bytes + FRAME_OVERHEAD_BYTES * r.unique_chunks;
        if r.stored_bytes > bound {
            return Err(fail(
                idx,
                "ratio-sanity",
                format!(
                    "stored {} bytes > {} unique bytes + envelope allowance {}",
                    r.stored_bytes,
                    unique_bytes,
                    FRAME_OVERHEAD_BYTES * r.unique_chunks
                ),
            ));
        }
        let clocks = [r.reduction_end, r.ssd_end, r.read_end];
        if clocks
            .iter()
            .zip(&self.clocks)
            .any(|(now, last)| now < last)
        {
            return Err(fail(
                idx,
                "time-monotonic",
                format!(
                    "a clock moved backwards: [reduction, ssd, read] {:?} -> {clocks:?}",
                    self.clocks
                ),
            ));
        }
        self.clocks = clocks;
        Ok(())
    }

    fn obs_json(&self) -> String {
        self.obs.snapshot().map(|s| s.to_json()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{generate, Scenario};
    use crate::{run_scenario_ops, run_scenario_ops_observed};

    /// Single-node runs: any non-cluster scenario selects the array.
    fn run_ops(mode: IntegrationMode, ops: &[Op]) -> Result<(), Failure> {
        run_scenario_ops(mode, Scenario::FaultFree, ops)
    }

    #[test]
    fn a_handful_of_seeds_pass_in_cpu_mode() {
        for seed in 0..4 {
            let ops = generate(seed, 30, Scenario::FaultFree);
            run_ops(IntegrationMode::CpuOnly, &ops).expect("seed must pass");
        }
    }

    #[test]
    fn observed_runs_capture_metrics_and_traces() {
        let ops = generate(2, 20, Scenario::FaultFree);
        let tracer = Tracer::enabled();
        let (result, obs_json) = run_scenario_ops_observed(
            IntegrationMode::GpuForCompression,
            Scenario::FaultFree,
            &ops,
            tracer.clone(),
        );
        assert_eq!(result, Ok(()));
        assert!(obs_json.contains("dr-check"), "snapshot names the registry");
        assert!(
            !tracer.sink().unwrap().drain().is_empty(),
            "the pipeline emits trace events under the checker"
        );
    }

    #[test]
    fn batched_reads_cross_check_against_the_oracle() {
        let ops = vec![
            Op::CreateVolume { vol: 0, blocks: 16 },
            Op::Write {
                vol: 0,
                block: 0,
                nblocks: 8,
                seed: 3,
                ratio_milli: 2000,
            },
            // Fully readable ranges, including a repeat that hits the cache.
            Op::ReadBatch {
                vol: 0,
                block: 0,
                nblocks: 8,
            },
            Op::ReadBatch {
                vol: 0,
                block: 2,
                nblocks: 4,
            },
            // Ranges crossing into unwritten / out-of-range / missing-volume
            // territory must mirror the oracle's error kind.
            Op::ReadBatch {
                vol: 0,
                block: 6,
                nblocks: 6,
            },
            Op::ReadBatch {
                vol: 0,
                block: 14,
                nblocks: 4,
            },
            Op::ReadBatch {
                vol: 1,
                block: 0,
                nblocks: 2,
            },
        ];
        run_ops(IntegrationMode::CpuOnly, &ops).expect("cpu routing arm");
        run_ops(IntegrationMode::GpuForCompression, &ops).expect("gpu routing arm");
    }

    #[test]
    fn runs_are_deterministic() {
        let ops = generate(7, 40, Scenario::Faulted);
        let a = run_ops(IntegrationMode::GpuForCompression, &ops);
        let b = run_ops(IntegrationMode::GpuForCompression, &ops);
        assert_eq!(a, b);
    }

    #[test]
    fn crash_scenario_seeds_pass_in_every_mode() {
        for mode in IntegrationMode::ALL {
            for seed in 0..3 {
                let ops = generate(seed, 40, Scenario::Crash);
                run_ops(mode, &ops).expect("crash seed must pass");
            }
        }
    }

    #[test]
    fn crash_runs_are_deterministic() {
        let ops = generate(11, 40, Scenario::Crash);
        assert!(
            ops.iter().any(|op| matches!(op, Op::Crash { .. })),
            "seed 11 must actually crash for this test to bite"
        );
        let a = run_ops(IntegrationMode::GpuForBoth, &ops);
        let b = run_ops(IntegrationMode::GpuForBoth, &ops);
        assert_eq!(a, b);
    }

    #[test]
    fn a_crash_right_after_writes_keeps_them_readable() {
        // A hand-built sequence where every write is acknowledged well
        // before the cut instant can land (seed 0 → cut at t=0 is possible,
        // so crash twice with different seeds to cover both extremes).
        let ops = vec![
            Op::CreateVolume { vol: 0, blocks: 16 },
            Op::Write {
                vol: 0,
                block: 0,
                nblocks: 4,
                seed: 5,
                ratio_milli: 2000,
            },
            Op::Crash { seed: 1 },
            Op::Read { vol: 0, block: 0 },
            Op::Write {
                vol: 0,
                block: 4,
                nblocks: 2,
                seed: 9,
                ratio_milli: 1500,
            },
            Op::Flush,
            Op::Crash { seed: 2 },
            Op::ReadBatch {
                vol: 0,
                block: 0,
                nblocks: 6,
            },
        ];
        run_ops(IntegrationMode::CpuOnly, &ops).expect("crash oracle must hold");
        run_ops(IntegrationMode::GpuForCompression, &ops).expect("gpu arm too");
    }

    #[test]
    fn crash_with_fault_schedules_active_still_recovers() {
        let ops = vec![
            Op::CreateVolume { vol: 0, blocks: 16 },
            Op::SetSsdFaults {
                write_milli: 120,
                busy_milli: 100,
                read_milli: 100,
                seed: 77,
            },
            Op::Write {
                vol: 0,
                block: 0,
                nblocks: 4,
                seed: 3,
                ratio_milli: 2000,
            },
            Op::Crash { seed: 13 },
            Op::Read { vol: 0, block: 0 },
            Op::Flush,
        ];
        run_ops(IntegrationMode::GpuForBoth, &ops).expect("faulted crash run");
    }

    #[test]
    fn ops_on_missing_volumes_mirror_cleanly() {
        // No create-volume at all: every data op must error identically on
        // both sides, and the run must pass.
        let ops = vec![
            Op::Write {
                vol: 3,
                block: 0,
                nblocks: 1,
                seed: 1,
                ratio_milli: 2000,
            },
            Op::Read { vol: 3, block: 0 },
            Op::Flush,
            Op::SnapshotRestore,
        ];
        run_ops(IntegrationMode::CpuOnly, &ops).expect("mirrored errors are not failures");
    }
}
