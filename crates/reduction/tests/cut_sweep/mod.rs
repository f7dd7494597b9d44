//! A bounded power-cut sweep over a short journaled `VolumeManager`
//! sequence: unique and duplicate writes of one and three chunks, an
//! index checkpoint, overwrites.
//!
//! One traced run yields every SSD program grant; the sequence is then
//! replayed on a fresh array once per cut instant — every grant's start
//! and end, and one nanosecond either side — and after each cut and
//! recovery the durability contract is checked: every operation
//! acknowledged at or before the cut survives byte for byte, and an
//! unacknowledged one is atomically absent (or, when the cut tore its
//! last program past its record, atomically present). Then every block
//! content of the sequence is written again and read back: a recovered
//! index entry whose data never became durable would dedup that write
//! against missing bytes.
//!
//! The volume's name sizes every map update, so it moves where journal
//! page boundaries fall; per mode the sweep picks the shortest name under
//! which some map update fills a journal page — the page then carries
//! the batch commit staged before it, whose data may still be in flight.
//!
//! Shared by `tests/group_commit_cuts.rs`, which sweeps
//! `VolumeManager::write`, and by the crate's unit tests, which sweep a
//! planted mutant of it; the includer brings `IntegrationMode`,
//! `PipelineConfig`, `VolumeError` and `VolumeManager` into scope.

use std::collections::BTreeSet;

use dr_des::SimTime;
use dr_obs::trace::{Tracer, Track};
use dr_obs::ObsHandle;
use dr_ssd_sim::CrashSpec;

use super::{IntegrationMode, PipelineConfig, Record, VolumeError, VolumeManager};

/// A volume write: the array's own, or a planted mutant of it.
pub type WriteFn = fn(&mut VolumeManager, &str, u64, &[u8]) -> Result<(), VolumeError>;

const BLOCKS: u64 = 8;
/// Every tag the sequence writes.
const TAGS: [u8; 5] = [1, 2, 3, 4, 5];
/// Longest volume name tried when looking for a page-filling map update.
const MAX_NAME: usize = 128;

enum Op {
    Create,
    Write { block: u64, data: Vec<u8> },
    Checkpoint,
}

/// A distinct, compressible 4 KiB block per tag.
fn block(tag: u8) -> Vec<u8> {
    (0..4096u32)
        .map(|i| if i % 64 < 8 { tag } else { (i / 64) as u8 })
        .collect()
}

fn blocks(tags: &[u8]) -> Vec<u8> {
    tags.iter().flat_map(|&t| block(t)).collect()
}

fn sequence() -> Vec<Op> {
    let write = |block, tags: &[u8]| Op::Write {
        block,
        data: blocks(tags),
    };
    vec![
        Op::Create,
        write(0, &[1]),       // unique, one chunk
        write(1, &[1]),       // duplicate, one chunk
        write(2, &[2, 3, 4]), // unique, three chunks
        Op::Checkpoint,
        write(5, &[2, 3, 4]), // duplicate, three chunks
        write(0, &[5]),       // unique overwrite
        write(2, &[1, 5, 2]), // duplicate overwrite, three chunks
    ]
}

fn config(mode: IntegrationMode, obs: ObsHandle) -> PipelineConfig {
    PipelineConfig {
        mode,
        journal_pages: 64,
        obs,
        ..PipelineConfig::default()
    }
}

/// Runs `ops` on a fresh array with a volume called `name`; returns the
/// array and each op's ack instant.
fn run(
    write: WriteFn,
    mode: IntegrationMode,
    name: &str,
    ops: &[Op],
    obs: ObsHandle,
) -> (VolumeManager, Vec<SimTime>) {
    let mut array = VolumeManager::new(config(mode, obs));
    let acks = ops
        .iter()
        .map(|op| {
            match op {
                Op::Create => array.create_volume(name, BLOCKS).unwrap(),
                Op::Write { block, data } => write(&mut array, name, *block, data).unwrap(),
                Op::Checkpoint => array.pipeline_mut().journal_checkpoint().unwrap(),
            }
            array.last_ack()
        })
        .collect();
    (array, acks)
}

/// Every SSD program's grant start and end, one nanosecond either side,
/// up to just past the last acknowledgement — or `None` when no map
/// update of the run filled a journal page.
fn cut_instants(
    write: WriteFn,
    mode: IntegrationMode,
    name: &str,
    ops: &[Op],
) -> Result<Option<Vec<u64>>, String> {
    let obs = ObsHandle::enabled("cut-sweep").with_tracer(Tracer::enabled());
    let (_, acks) = run(write, mode, name, ops, obs.clone());
    if let Some(w) = acks.windows(2).find(|w| w[1] <= w[0]) {
        return Err(format!(
            "{mode}: acks not strictly increasing: {:?} then {:?}",
            w[0], w[1]
        ));
    }
    let sink = obs.tracer().sink().expect("tracing is on");
    let horizon = acks.last().map_or(0, |a| a.as_nanos()) + 1;
    let mut cuts = BTreeSet::new();
    let mut map_update_filled = false;
    for e in sink.drain() {
        // A staged record's span lasts as long as the pages it filled.
        if e.track == Track::Journal && e.name == "map-update" {
            map_update_filled |= e.dur_ns.unwrap_or(0) > 0;
        }
        if e.track != Track::Ssd || e.name != "write-page" {
            continue;
        }
        let end = e.ts_ns + e.dur_ns.unwrap_or(0);
        for edge in [e.ts_ns, end] {
            cuts.extend([edge.saturating_sub(1), edge, edge + 1]);
        }
    }
    Ok(map_update_filled.then(|| cuts.into_iter().filter(|&t| t <= horizon).collect()))
}

/// Volume contents after the volume-visible ops `visible`, in order:
/// `None` before the create.
fn model(visible: &[&Op]) -> Option<Vec<Option<Vec<u8>>>> {
    let mut volume = None;
    for op in visible {
        match op {
            Op::Create => volume = Some(vec![None; BLOCKS as usize]),
            Op::Write { block, data } => {
                let blocks = volume.as_mut().expect("writes follow the create");
                for (i, chunk) in data.chunks(4096).enumerate() {
                    blocks[*block as usize + i] = Some(chunk.to_vec());
                }
            }
            Op::Checkpoint => {}
        }
    }
    volume
}

/// Cuts a fresh replay of `ops` at `at` and checks the durable prefix,
/// then writes every tag again and reads it back.
fn check_cut(
    write: WriteFn,
    mode: IntegrationMode,
    name: &str,
    ops: &[Op],
    at: u64,
    seed: u64,
) -> Result<(), String> {
    let (mut array, acks) = run(write, mode, name, ops, ObsHandle::disabled());
    let at = SimTime::from_nanos(at);
    let outcome = array
        .crash_and_recover(CrashSpec {
            at,
            torn_seed: seed,
        })
        .map_err(|e| format!("cut at {at:?}: recovery failed: {e}"))?;
    let visible: Vec<(&Op, SimTime)> = ops
        .iter()
        .zip(acks)
        .filter(|(op, _)| !matches!(op, Op::Checkpoint))
        .collect();
    let acked = visible.iter().filter(|(_, ack)| *ack <= at).count();
    let survived = outcome
        .records
        .iter()
        .filter(|r| matches!(r, Record::VolumeCreate { .. } | Record::MapUpdate { .. }))
        .count();
    if survived < acked {
        return Err(format!(
            "cut at {at:?}: {acked} operations were acknowledged but only {survived} survived"
        ));
    }
    if survived > acked && (survived > acked + 1 || outcome.crash.torn == 0) {
        return Err(format!(
            "cut at {at:?}: {survived} operations survived but only {acked} were acknowledged"
        ));
    }
    let ops: Vec<&Op> = visible[..survived].iter().map(|(op, _)| *op).collect();
    match model(&ops) {
        None => match array.read(name, 0) {
            Err(VolumeError::UnknownVolume(_)) => array.create_volume(name, BLOCKS).unwrap(),
            other => {
                return Err(format!(
                    "cut at {at:?}: an unacknowledged volume exists ({:?})",
                    other.err()
                ))
            }
        },
        Some(want) => {
            for (b, want) in want.iter().enumerate() {
                let got = array.read(name, b as u64);
                let agrees = match (want, &got) {
                    (Some(bytes), Ok(read)) => read == bytes,
                    (None, Err(VolumeError::Unwritten { .. })) => true,
                    _ => false,
                };
                if !agrees {
                    return Err(format!(
                        "cut at {at:?}: block {b} does not hold the first {survived} \
                         operations' bytes"
                    ));
                }
            }
        }
    }
    write(&mut array, name, 0, &blocks(&TAGS))
        .map_err(|e| format!("cut at {at:?}: the write after recovery failed: {e}"))?;
    for (b, &tag) in TAGS.iter().enumerate() {
        if array.read(name, b as u64).ok() != Some(block(tag)) {
            return Err(format!(
                "cut at {at:?}: block {b}, written after recovery, does not read back"
            ));
        }
    }
    Ok(())
}

/// Sweeps every cut instant of the sequence through `write`, in every
/// integration mode; returns the number of cuts checked, or the first
/// violation.
pub fn sweep(write: WriteFn) -> Result<usize, String> {
    let ops = sequence();
    let mut swept = 0;
    for mode in IntegrationMode::ALL {
        let mut picked = None;
        for len in 1..=MAX_NAME {
            let name = "v".repeat(len);
            if let Some(cuts) = cut_instants(write, mode, &name, &ops)? {
                picked = Some((name, cuts));
                break;
            }
        }
        let (name, cuts) = picked.ok_or_else(|| {
            format!("{mode}: no volume name up to {MAX_NAME} bytes makes a map update fill a page")
        })?;
        for (seed, &at) in cuts.iter().enumerate() {
            check_cut(write, mode, &name, &ops, at, seed as u64)
                .map_err(|e| format!("{mode}, name of {} bytes, {e}", name.len()))?;
        }
        swept += cuts.len();
    }
    Ok(swept)
}
