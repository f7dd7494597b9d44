//! The one differential harness: a system under test and the [`Oracle`]
//! driven in lockstep, with invariant checks after every op.
//!
//! The bare [`VolumeManager`](dr_reduction::VolumeManager) and the
//! multi-node [`Cluster`](dr_cluster::Cluster) serve the same volume
//! contract, so one harness checks both through the [`Sut`] trait and
//! fails on the *first* divergence:
//!
//! 1. **Byte identity** — every read returns exactly the oracle's bytes,
//!    one block at a time or batched.
//! 2. **Error mirroring** — ops that fail must fail with the same *kind*
//!    on both sides (so shrunken subsets remain comparable sequences).
//! 3. **Read-back sweep** — every written block is read back at the end
//!    of the sequence, and whenever a system asks for it (the cluster
//!    does after each membership op).
//!
//! Everything a particular system adds — fault toggles, power cuts,
//! membership churn, structural and conservation invariants — lives
//! behind [`Sut::apply_other`] and [`Sut::after_op`] in that system's
//! impl (`single.rs`, `cluster.rs`).
//!
//! Panics inside the system are caught and reported as failures with the
//! panic message, so the shrinker can minimize aborts too.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dr_cluster::PlacedRun;
use dr_obs::ObsHandle;
use dr_reduction::{IntegrationMode, PipelineConfig, VolumeError};
use dr_workload::{synthesize_block, StreamConfig, StreamGenerator, ZipfSampler};

use crate::model::{ModelError, Oracle};
use crate::ops::{vol_name, Op, MAX_VOLUME_BLOCKS};

/// Chunk size the checker runs with (the paper's 4 KB).
pub(crate) const CHUNK_BYTES: usize = 4096;

/// Transient device errors surviving the pipeline's internal retries are
/// re-issued this many times at the op level before counting as real.
pub(crate) const TRANSIENT_RETRIES: usize = 10;

/// Journal region size for journaled runs (top of the logical space):
/// single-node sequences that can cut power, and every cluster run.
const JOURNAL_PAGES: u64 = 1024;

/// The pipeline every checked system runs, a bare array or each cluster
/// node: batches of eight, the integrity envelope on, the metadata
/// journal when `journaled`, metrics and traces into `obs`.
pub(crate) fn node_config(
    mode: IntegrationMode,
    journaled: bool,
    obs: ObsHandle,
) -> PipelineConfig {
    PipelineConfig {
        mode,
        batch_chunks: 8,
        integrity: true,
        journal_pages: if journaled { JOURNAL_PAGES } else { 0 },
        obs,
        ..PipelineConfig::default()
    }
}

/// One invariant violation, pinned to the op that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Index into the op sequence (== `ops.len()` for the final sweep).
    pub op_index: usize,
    /// Which invariant broke (short kebab-case kind).
    pub invariant: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {}: [{}] {}",
            self.op_index, self.invariant, self.detail
        )
    }
}

pub(crate) fn fail(op_index: usize, invariant: &str, detail: String) -> Failure {
    Failure {
        op_index,
        invariant: invariant.to_owned(),
        detail,
    }
}

/// Maps a volume error to the oracle's kind space; `None` for
/// `ReadFailed`, which the model never predicts.
pub(crate) fn volume_kind(e: &VolumeError) -> Option<ModelError> {
    match e {
        VolumeError::UnknownVolume(_) => Some(ModelError::UnknownVolume),
        VolumeError::AlreadyExists(_) => Some(ModelError::AlreadyExists),
        VolumeError::NameTooLong { .. } => Some(ModelError::NameTooLong),
        VolumeError::OutOfRange { .. } => Some(ModelError::OutOfRange),
        VolumeError::Unwritten { .. } => Some(ModelError::Unwritten),
        VolumeError::Misaligned { .. } => Some(ModelError::Misaligned),
        VolumeError::ReadFailed(_) => None,
    }
}

/// A system under test: something that serves the volume contract the
/// [`Oracle`] models, plus whatever it alone can do.
///
/// The data-path methods report raw system facts; the harness compares
/// them with the oracle and hands acknowledged state changes back through
/// `acked_*`, so a test double wrapped around an impl can tamper with
/// what the system *claims* without touching the bookkeeping behind it.
pub(crate) trait Sut {
    /// The system's own error type.
    type Error: fmt::Display;

    /// The model this system is compared against; the impl owns it
    /// because its own ops rewrite it (a power cut rebuilds it from the
    /// durable prefix, a node crash loses or reverts blocks).
    fn oracle(&mut self) -> &mut Oracle;

    fn create_volume(&mut self, name: &str, blocks: u64) -> Result<(), Self::Error>;

    /// Writes whole chunks at `block`; `Ok` carries where each contiguous
    /// run landed and when it was acknowledged, in block order.
    fn write(&mut self, name: &str, block: u64, data: &[u8])
        -> Result<Vec<PlacedRun>, Self::Error>;

    fn read(&mut self, name: &str, block: u64) -> Result<Vec<u8>, Self::Error>;

    fn read_batch(&mut self, name: &str, blocks: &[u64]) -> Result<Vec<Vec<u8>>, Self::Error>;

    /// Forces buffered state out; `Err` is the `flush` failure detail.
    fn flush(&mut self) -> Result<(), String>;

    /// The oracle kind `e` corresponds to; `None` when the model never
    /// predicts it.
    fn kind_of(e: &Self::Error) -> Option<ModelError>;

    /// Whether a failed read should be re-issued rather than compared.
    fn is_transient(e: &Self::Error) -> bool;

    /// Both sides created the volume.
    fn acked_create(&mut self, _name: &str, _blocks: u64) {}

    /// Both sides took the write; `runs` is what [`Sut::write`] returned.
    fn acked_write(&mut self, name: &str, block: u64, data: &[u8], runs: &[PlacedRun]);

    /// Applies an op outside the shared alphabet (ops this system has no
    /// surface for are no-ops, so any subset of any sequence stays
    /// valid). `Ok(true)` asks for an immediate read-back sweep.
    fn apply_other(&mut self, idx: usize, op: &Op) -> Result<bool, Failure>;

    /// This system's own invariants, evaluated after every op.
    fn after_op(&mut self, idx: usize) -> Result<(), Failure>;

    /// The final metric state as JSON — what a replay artifact embeds.
    fn obs_json(&self) -> String;
}

/// Drives `sut` through `ops`; `Err` carries the first invariant
/// violation. The final metric state is rendered only when `observed`
/// (a cluster rollup costs half a sequence's run time), else left empty.
pub(crate) fn run<S: Sut>(mut sut: S, ops: &[Op], observed: bool) -> (Result<(), Failure>, String) {
    let result = drive(&mut sut, ops);
    let obs_json = if observed {
        sut.obs_json()
    } else {
        String::new()
    };
    (result, obs_json)
}

/// The drive loop: each op, then the system's after-op invariants; the
/// read-back sweep as the final step. A panic in any step is a failure.
pub(crate) fn drive<S: Sut>(sut: &mut S, ops: &[Op]) -> Result<(), Failure> {
    for idx in 0..=ops.len() {
        let step = catch_unwind(AssertUnwindSafe(|| match ops.get(idx) {
            Some(op) => {
                apply(sut, idx, op)?;
                sut.after_op(idx)
            }
            None => sweep(sut, idx),
        }));
        match step {
            Ok(outcome) => outcome?,
            Err(payload) => return Err(fail(idx, "panic", panic_message(&*payload))),
        }
    }
    Ok(())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn apply<S: Sut>(sut: &mut S, idx: usize, op: &Op) -> Result<(), Failure> {
    match op {
        Op::CreateVolume { vol, blocks } => {
            let name = vol_name(*vol);
            let got = sut.create_volume(&name, *blocks);
            let want = sut.oracle().create_volume(&name, *blocks);
            if mirrored::<S, _>(idx, format_args!("create {name}"), got, want)?.is_some() {
                sut.acked_create(&name, *blocks);
            }
            Ok(())
        }
        Op::Write {
            vol,
            block,
            nblocks,
            seed,
            ratio_milli,
        } => {
            let ratio = *ratio_milli as f64 / 1000.0;
            let data: Vec<u8> = (0..*nblocks)
                .flat_map(|i| synthesize_block(seed + i, CHUNK_BYTES, ratio))
                .collect();
            check_write(sut, idx, &vol_name(*vol), *block, &data)
        }
        Op::Read { vol, block } => check_read(sut, idx, &vol_name(*vol), *block),
        Op::ReadBatch {
            vol,
            block,
            nblocks,
        } => {
            let blocks: Vec<u64> = (*block..block.saturating_add(*nblocks)).collect();
            check_read_batch(sut, idx, &vol_name(*vol), &blocks)
        }
        Op::ZipfBurst {
            vol,
            count,
            theta_milli,
            seed,
        } => {
            let name = vol_name(*vol);
            let range = sut
                .oracle()
                .volume_size(&name)
                .unwrap_or(MAX_VOLUME_BLOCKS)
                .max(1);
            let theta = *theta_milli as f64 / 1000.0;
            let mut sampler = ZipfSampler::new(range as usize, theta, *seed);
            for k in 0..*count {
                let block = sampler.sample() as u64;
                let data = synthesize_block(seed + k, CHUNK_BYTES, 2.0);
                check_write(sut, idx, &name, block, &data)?;
            }
            Ok(())
        }
        Op::StreamBurst {
            vol,
            block,
            nblocks,
            seed,
        } => {
            let generator = StreamGenerator::new(StreamConfig {
                total_bytes: nblocks * CHUNK_BYTES as u64,
                block_bytes: CHUNK_BYTES,
                seed: *seed,
                ..StreamConfig::default()
            });
            let data: Vec<u8> = generator.blocks().flatten().collect();
            check_write(sut, idx, &vol_name(*vol), *block, &data)
        }
        Op::Flush => sut.flush().map_err(|detail| fail(idx, "flush", detail)),
        other => {
            if sut.apply_other(idx, other)? {
                sweep(sut, idx)?;
            }
            Ok(())
        }
    }
}

fn describe<T, E: fmt::Display>(r: &Result<T, E>, ok: impl FnOnce(&T) -> String) -> String {
    match r {
        Ok(v) => format!("Ok({})", ok(v)),
        Err(e) => format!("Err({e})"),
    }
}

/// Error mirroring for a state-changing op: both sides succeed
/// (`Some(system's value)`) or both fail with the same kind (`None`).
fn mirrored<S: Sut, T>(
    idx: usize,
    what: fmt::Arguments<'_>,
    got: Result<T, S::Error>,
    want: Result<(), ModelError>,
) -> Result<Option<T>, Failure> {
    match (got, want) {
        (Ok(value), Ok(())) => Ok(Some(value)),
        (Err(e), Err(k)) if S::kind_of(&e) == Some(k) => Ok(None),
        (got, want) => Err(fail(
            idx,
            "error-mirror",
            format!(
                "{what}: system {}, oracle {want:?}",
                describe(&got, |_| String::new())
            ),
        )),
    }
}

/// Writes on both sides and, on success, hands the system's reported
/// placement (runs and their acks) to the impl's bookkeeping.
fn check_write<S: Sut>(
    sut: &mut S,
    idx: usize,
    name: &str,
    block: u64,
    data: &[u8],
) -> Result<(), Failure> {
    let got = sut.write(name, block, data);
    let want = sut.oracle().write(name, block, data);
    if let Some(runs) = mirrored::<S, _>(idx, format_args!("write {name}/{block}"), got, want)? {
        sut.acked_write(name, block, data, &runs);
    }
    Ok(())
}

/// Issues a read, re-issuing it while it fails with a transient fault.
fn reissue<S: Sut, T>(
    sut: &mut S,
    mut call: impl FnMut(&mut S) -> Result<T, S::Error>,
) -> Result<T, S::Error> {
    let mut got = call(sut);
    for _ in 0..TRANSIENT_RETRIES {
        match &got {
            Err(e) if S::is_transient(e) => got = call(sut),
            _ => break,
        }
    }
    got
}

/// Reads one block on both sides.
///
/// Failure details summarize payloads by length — dumping 4 KiB of
/// block bytes into an artifact helps nobody.
fn check_read<S: Sut>(sut: &mut S, idx: usize, name: &str, block: u64) -> Result<(), Failure> {
    let want = sut.oracle().read(name, block).map(<[u8]>::to_vec);
    let got = reissue(sut, |s| s.read(name, block));
    match (got, want) {
        (Ok(bytes), Ok(expect)) => {
            if bytes == expect {
                Ok(())
            } else {
                Err(fail(
                    idx,
                    "byte-identity",
                    format!(
                        "read {name}/{block}: {} bytes diverged from oracle \
                         (first difference at offset {})",
                        bytes.len(),
                        bytes
                            .iter()
                            .zip(&expect)
                            .position(|(a, b)| a != b)
                            .map_or_else(|| "length".to_owned(), |p| p.to_string()),
                    ),
                ))
            }
        }
        (Err(e), Err(k)) if S::kind_of(&e) == Some(k) => Ok(()),
        (got, want) => Err(fail(
            idx,
            "error-mirror",
            format!(
                "read {name}/{block}: system {}, oracle {}",
                describe(&got, |b| format!("{} bytes", b.len())),
                describe(&want, |b| format!("{} bytes", b.len())),
            ),
        )),
    }
}

/// Reads a consecutive block range through the batched read path and
/// cross-checks it block-for-block against the oracle.
///
/// When every block is readable on the oracle side the batched call
/// must return exactly the oracle's bytes (transient device faults are
/// re-issued, like single reads). When the range contains an invalid
/// block, `read_batch` validates before any device work and must fail
/// with the kind of the *first* invalid block — and the same range read
/// serially must mirror block-for-block too.
fn check_read_batch<S: Sut>(
    sut: &mut S,
    idx: usize,
    name: &str,
    blocks: &[u64],
) -> Result<(), Failure> {
    let wants: Vec<Result<Vec<u8>, ModelError>> = blocks
        .iter()
        .map(|&b| sut.oracle().read(name, b).map(<[u8]>::to_vec))
        .collect();
    if let Some(first_err) = wants.iter().find_map(|w| w.as_ref().err().copied()) {
        match sut.read_batch(name, blocks) {
            Err(e) if S::kind_of(&e) == Some(first_err) => {}
            got => {
                return Err(fail(
                    idx,
                    "error-mirror",
                    format!(
                        "read-batch {name}{blocks:?}: system {}, oracle predicts {first_err}",
                        describe(&got, |chunks| format!("{} blocks", chunks.len()))
                    ),
                ))
            }
        }
        // The serial path over the same range must mirror per block.
        for &b in blocks {
            check_read(sut, idx, name, b)?;
        }
        return Ok(());
    }
    match reissue(sut, |s| s.read_batch(name, blocks)) {
        Ok(chunks) => {
            if chunks.len() != blocks.len() {
                return Err(fail(
                    idx,
                    "byte-identity",
                    format!(
                        "read-batch {name}{blocks:?}: {} blocks back for {} requested",
                        chunks.len(),
                        blocks.len()
                    ),
                ));
            }
            for (i, (chunk, want)) in chunks.iter().zip(&wants).enumerate() {
                let want = want.as_ref().expect("all-readable branch");
                if chunk != want {
                    return Err(fail(
                        idx,
                        "byte-identity",
                        format!(
                            "read-batch {name}{blocks:?}: block {} diverged from \
                             oracle ({} bytes vs {})",
                            blocks[i],
                            chunk.len(),
                            want.len()
                        ),
                    ));
                }
            }
            Ok(())
        }
        Err(e) => Err(fail(
            idx,
            "error-mirror",
            format!(
                "read-batch {name}{blocks:?}: system Err({e}), oracle predicts \
                 {} readable blocks",
                blocks.len()
            ),
        )),
    }
}

/// Reads back every oracle-written block — the sweep that catches
/// stale-reference and rebalancing bugs no single read tripped over.
fn sweep<S: Sut>(sut: &mut S, idx: usize) -> Result<(), Failure> {
    let targets: Vec<(String, u64)> = sut
        .oracle()
        .written_blocks()
        .map(|(name, block)| (name.to_owned(), block))
        .collect();
    for (name, block) in targets {
        check_read(sut, idx, &name, block)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Planted-bug doubles: how we know the oracle catches anything.
    //!
    //! [`Planted`] wraps a real [`Sut`] impl and misreports one thing the
    //! way a real bug would. Each plant must be killed by a generated
    //! sequence from the CI smoke's seed range, with the invariant kind
    //! the design says owns that class of bug, and shrink to a reproducer
    //! a person can read. A plant that survives is a missing invariant.

    use dr_des::SimTime;
    use dr_obs::Tracer;
    use dr_reduction::IntegrationMode;

    use super::*;
    use crate::cluster::ClusterSut;
    use crate::ops::{generate, Scenario};
    use crate::shrink::{shrink, DEFAULT_BUDGET};
    use crate::single::ArraySut;

    #[derive(Debug, Clone, Copy)]
    enum Plant {
        /// The third successful single-block read comes back with its
        /// first byte flipped (a stale or misdirected chunk reference).
        FlipReadByte,
        /// A one-chunk write to an already-written block is acknowledged
        /// but never applied (a lost overwrite).
        DropOverwrite,
        /// Reads of block 0 report `Unwritten` although the block is
        /// there (a dropped map entry).
        UnwrittenRead,
        /// Every write is reported acknowledged at time zero — before it
        /// can be durable.
        EarlyAck,
        /// Every run is reported on a node other than the one that took
        /// it (a front-end acking through the wrong member).
        WrongRunNode,
        /// A flush panics with a formatted message (an abort deep in the
        /// write path).
        PanicOnFlush,
    }

    struct Planted<S> {
        inner: S,
        plant: Plant,
        reads: usize,
    }

    impl<S: Sut> Sut for Planted<S>
    where
        S::Error: From<VolumeError>,
    {
        type Error = S::Error;

        fn oracle(&mut self) -> &mut Oracle {
            self.inner.oracle()
        }

        fn create_volume(&mut self, name: &str, blocks: u64) -> Result<(), S::Error> {
            self.inner.create_volume(name, blocks)
        }

        fn write(
            &mut self,
            name: &str,
            block: u64,
            data: &[u8],
        ) -> Result<Vec<PlacedRun>, S::Error> {
            // The harness writes the system first, so the oracle still
            // holds the block's previous state here.
            if matches!(self.plant, Plant::DropOverwrite)
                && data.len() == CHUNK_BYTES
                && self.oracle().read(name, block).is_ok()
            {
                return Ok(vec![PlacedRun {
                    start_block: block,
                    nblocks: 1,
                    node: 0,
                    ack: SimTime::ZERO,
                }]);
            }
            let mut runs = self.inner.write(name, block, data)?;
            for run in &mut runs {
                match self.plant {
                    Plant::EarlyAck => run.ack = SimTime::ZERO,
                    Plant::WrongRunNode => run.node += 1,
                    _ => {}
                }
            }
            Ok(runs)
        }

        fn read(&mut self, name: &str, block: u64) -> Result<Vec<u8>, S::Error> {
            let mut bytes = self.inner.read(name, block)?;
            self.reads += 1;
            match self.plant {
                Plant::FlipReadByte if self.reads == 3 => bytes[0] ^= 0xFF,
                Plant::UnwrittenRead if block == 0 => {
                    return Err(VolumeError::Unwritten { block }.into())
                }
                _ => {}
            }
            Ok(bytes)
        }

        fn read_batch(&mut self, name: &str, blocks: &[u64]) -> Result<Vec<Vec<u8>>, S::Error> {
            self.inner.read_batch(name, blocks)
        }

        fn flush(&mut self) -> Result<(), String> {
            if matches!(self.plant, Plant::PanicOnFlush) {
                let code = 7;
                panic!("journal sync failed: {code}");
            }
            self.inner.flush()
        }

        fn kind_of(e: &S::Error) -> Option<ModelError> {
            S::kind_of(e)
        }

        fn is_transient(e: &S::Error) -> bool {
            S::is_transient(e)
        }

        fn acked_create(&mut self, name: &str, blocks: u64) {
            self.inner.acked_create(name, blocks);
        }

        fn acked_write(&mut self, name: &str, block: u64, data: &[u8], runs: &[PlacedRun]) {
            self.inner.acked_write(name, block, data, runs);
        }

        fn apply_other(&mut self, idx: usize, op: &Op) -> Result<bool, Failure> {
            self.inner.apply_other(idx, op)
        }

        fn after_op(&mut self, idx: usize) -> Result<(), Failure> {
            self.inner.after_op(idx)
        }

        fn obs_json(&self) -> String {
            self.inner.obs_json()
        }
    }

    fn run_planted(plant: Plant, scenario: Scenario, ops: &[Op]) -> Result<(), Failure> {
        fn planted<S: Sut>(inner: S, plant: Plant) -> Planted<S> {
            Planted {
                inner,
                plant,
                reads: 0,
            }
        }
        let mode = IntegrationMode::GpuForBoth;
        match scenario {
            Scenario::Cluster => drive(&mut planted(ClusterSut::new(mode), plant), ops),
            _ => {
                let array = ArraySut::new(mode, Tracer::disabled(), ops);
                drive(&mut planted(array, plant), ops)
            }
        }
    }

    /// Sweeps the smoke seed range until `plant` is caught, shrinks the
    /// catch, and checks its invariant kind and that it shrank to at most
    /// `max_ops` (DESIGN §11's table).
    fn assert_killed(plant: Plant, scenario: Scenario, invariant: &str, max_ops: usize) {
        let run = |ops: &[Op]| run_planted(plant, scenario, ops);
        let caught = (0..25)
            .map(|seed| generate(seed, 40, scenario))
            .find(|ops| run(ops).is_err())
            .unwrap_or_else(|| panic!("{plant:?} survived 25 {} seeds", scenario.name()));
        let shrunk = shrink(run, &caught, DEFAULT_BUDGET);
        assert_eq!(
            shrunk.failure.invariant, invariant,
            "{plant:?} killed by the wrong invariant: {}",
            shrunk.failure
        );
        assert!(
            shrunk.ops.len() <= max_ops,
            "{plant:?} reproducer did not shrink to <= {max_ops} ops: {:?}",
            shrunk.ops
        );
    }

    #[test]
    fn a_flipped_read_byte_is_a_byte_identity_failure() {
        assert_killed(Plant::FlipReadByte, Scenario::FaultFree, "byte-identity", 2);
    }

    #[test]
    fn a_dropped_overwrite_is_a_byte_identity_failure() {
        assert_killed(Plant::DropOverwrite, Scenario::Faulted, "byte-identity", 2);
    }

    #[test]
    fn a_written_block_read_as_unwritten_is_an_error_mirror_failure() {
        assert_killed(Plant::UnwrittenRead, Scenario::FaultFree, "error-mirror", 2);
    }

    #[test]
    fn an_ack_before_the_write_is_durable_is_a_durability_failure() {
        assert_killed(Plant::EarlyAck, Scenario::Crash, "durability", 3);
    }

    #[test]
    fn a_run_acked_through_the_wrong_node_is_a_rebalance_mirror_failure() {
        assert_killed(
            Plant::WrongRunNode,
            Scenario::Cluster,
            "rebalance-mirror",
            3,
        );
    }

    #[test]
    fn a_panicking_step_is_reported_with_its_message() {
        let failure =
            run_planted(Plant::PanicOnFlush, Scenario::FaultFree, &[Op::Flush]).unwrap_err();
        assert_eq!(
            failure,
            fail(0, "panic", "journal sync failed: 7".to_owned())
        );
    }
}
