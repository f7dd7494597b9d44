//! Corruption suite: no persisted or shipped record may ever panic its
//! reader, no matter how it was damaged.
//!
//! Every record kind is CRC-32C sealed the one way (`dr_hashes::seal`),
//! so one table-driven sweep covers them all: the index snapshot, the four
//! journal record kinds, the destaged-frame integrity envelope around a
//! raw and an LZ frame, and the rebalance handoff wire. Each row is hit
//! with every single-bit flip, every truncation and every splice of its
//! two valid records, and the site's own reader must answer with a typed
//! error or exactly a payload that was written. Each row also pins the
//! bytes of its first record, so a format change is a deliberate edit
//! here rather than an accident.
//!
//! A larger snapshot gets every flip and truncation of its own, the
//! journal is also damaged in place on a device, where replay must cut
//! to a durable prefix, and a pipeline must stay usable after it refused
//! a snapshot.

use std::panic::{catch_unwind, AssertUnwindSafe};

use inline_dr::binindex::{restore, snapshot, BinIndex, BinIndexConfig, ChunkRef};
use inline_dr::compress::{frame, Codec, FastLz, Frame};
use inline_dr::des::{SimTime, SplitMix64};
use inline_dr::hashes::{crc32c, open, seal, sha1_digest, ChunkDigest};
use inline_dr::reduction::journal::{
    encode_record, parse_log, BatchCommit, Checkpoint, ChunkCommit, Frontier,
};
use inline_dr::reduction::{Journal, Record};
use inline_dr::ssd_sim::{SsdDevice, SsdSpec};

fn populated_index(chunks: u64) -> BinIndex {
    let mut index = BinIndex::new(BinIndexConfig::default());
    for i in 0..chunks {
        let digest = sha1_digest(&i.to_le_bytes());
        index.insert(digest, ChunkRef::new(i * 4096, 4096));
    }
    index
}

/// A reader's answer: what it decoded, in a canonical byte form, or its
/// typed error, rendered for the failure message.
type Answer = Result<Vec<u8>, String>;

/// One sealed record kind.
struct Row {
    kind: &'static str,
    /// Two valid records, as the site writes them.
    records: [Vec<u8>; 2],
    /// The site's own reader.
    read: fn(&[u8]) -> Answer,
    /// SHA-1 of `records[0]`.
    golden: &'static str,
}

/// Restores, then snapshots again: two blobs holding the same index read
/// back to the same bytes.
fn read_snapshot(bytes: &[u8]) -> Answer {
    let index = restore(bytes).map_err(|e| format!("{e:?}"))?;
    Ok(snapshot(&index).expect("a restored index snapshots"))
}

/// The records replay keeps, encoded again; an empty durable prefix is
/// the reader's refusal, reported with how the log ended.
fn read_journal(bytes: &[u8]) -> Answer {
    let parsed = parse_log(bytes);
    if parsed.records.is_empty() {
        return Err(format!("{:?}", parsed.tail));
    }
    Ok(parsed.records.iter().flat_map(encode_record).collect())
}

/// The read path: open the envelope, then decode the frame inside it.
fn read_envelope(bytes: &[u8]) -> Answer {
    let frame = open(bytes).map_err(|e| format!("{e:?}"))?;
    frame::open(frame).map_err(|e| format!("{e:?}"))
}

/// The rebalance destination: open the wire, keep the block.
fn read_handoff(bytes: &[u8]) -> Answer {
    open(bytes)
        .map(<[u8]>::to_vec)
        .map_err(|e| format!("{e:?}"))
}

fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    seal(&mut body, 0);
    body
}

fn frontier(tail: &[u8]) -> Frontier<'static> {
    Frontier {
        next_data_lpn: 2,
        next_index_lpn: 9_000,
        appended_bytes: 8_192 + tail.len() as u64,
        tail: tail.to_vec().into(),
    }
}

fn commit(i: u8, dup: bool) -> ChunkCommit {
    ChunkCommit {
        digest: ChunkDigest::new([i; 20]),
        dup,
        addr: u64::from(i) * 4_101,
        stored_len: 900 + u32::from(i),
        orig_len: 4_096,
    }
}

fn journal_row(kind: &'static str, records: [Record<'static>; 2], golden: &'static str) -> Row {
    Row {
        kind,
        records: records.map(|r| encode_record(&r)),
        read: read_journal,
        golden,
    }
}

/// Two 1 KiB chunks that the codec stores as frames of `method`, sealed
/// as destage seals them.
fn envelope_row(method: Frame, golden: &'static str) -> Row {
    let mut rng = SplitMix64::new(0xE7);
    let records = [0u8, 1].map(|seed| {
        let chunk: Vec<u8> = match method {
            Frame::Raw => (0..1024).map(|_| rng.next_u64() as u8).collect(),
            Frame::Lz => format!("chunk {seed} ").into_bytes().repeat(200)[..1024].to_vec(),
        };
        let frame = FastLz::new().compress(&chunk);
        assert_eq!(frame::inspect(&frame).unwrap().0, method);
        let envelope = sealed(frame.clone());
        // The envelope is the frame followed by its CRC-32C.
        assert_eq!(envelope[..frame.len()], frame[..]);
        assert_eq!(envelope[frame.len()..], crc32c(&frame).to_le_bytes());
        envelope
    });
    let kind = match method {
        Frame::Raw => "raw frame envelope",
        Frame::Lz => "lz frame envelope",
    };
    Row {
        kind,
        records,
        read: read_envelope,
        golden,
    }
}

/// One row per sealed record kind. The snapshot and journal goldens are
/// the bytes those records had before they shared one seal.
fn rows() -> Vec<Row> {
    vec![
        Row {
            kind: "index snapshot",
            records: [64, 40].map(|n| snapshot(&populated_index(n)).expect("snapshot")),
            read: read_snapshot,
            golden: "08d86806b4c68cf1f5a18aba0900cce8cd447381",
        },
        journal_row(
            "volume-create",
            [
                Record::VolumeCreate {
                    name: "vol0".into(),
                    blocks: 48,
                },
                Record::VolumeCreate {
                    name: "v1".into(),
                    blocks: 1 << 40,
                },
            ],
            "09f623656f5cf4d57e1487bb3f95c18f5564eed0",
        ),
        journal_row(
            "map-update",
            [
                Record::MapUpdate {
                    name: "vol0".into(),
                    start_block: 3,
                    nblocks: 2,
                    first_recipe: 17,
                },
                Record::MapUpdate {
                    name: "vol0".into(),
                    start_block: 40,
                    nblocks: 8,
                    first_recipe: 123_456,
                },
            ],
            "4292c3d8207eb6ef67eb4971972aa2b449d16121",
        ),
        journal_row(
            "batch-commit",
            [
                Record::BatchCommit(BatchCommit {
                    frontier: frontier(&[0xAB; 77]),
                    chunks: vec![commit(1, false), commit(2, true)].into(),
                }),
                Record::BatchCommit(BatchCommit {
                    frontier: frontier(&[]),
                    chunks: vec![commit(3, false)].into(),
                }),
            ],
            "913e35d7abd95637fb6d0ecadbe3e9ce147defab",
        ),
        journal_row(
            "checkpoint",
            [(8, &[0x5A; 9][..]), (3, &[])].map(|(n, tail)| {
                Record::Checkpoint(Checkpoint {
                    frontier: frontier(tail),
                    snapshot: snapshot(&populated_index(n)).expect("snapshot").into(),
                })
            }),
            "96a83b35293b545d868eae65219b7869fe97fe4f",
        ),
        envelope_row(Frame::Raw, "66d9491e4aaaa329576ba79e7eb264fc1b165e9e"),
        envelope_row(Frame::Lz, "939c4b47e767caa1024f18b5ee6cc2b01191cbce"),
        Row {
            kind: "handoff wire",
            records: [0x11u8, 0x22].map(|b| sealed(vec![b; 4096])),
            read: read_handoff,
            golden: "198575f0bb5ec0db1a5896ede134d0893b28d0e9",
        },
    ]
}

/// Runs the row's reader on `input`, turning a panic into a failure that
/// names the row and the damage.
fn answer(row: &Row, input: &[u8], damage: impl Fn() -> String) -> Answer {
    catch_unwind(AssertUnwindSafe(|| (row.read)(input)))
        .unwrap_or_else(|_| panic!("{}: the reader panicked on {}", row.kind, damage()))
}

/// Format pins: a change to any sealed record's bytes is an edit here.
#[test]
fn every_sealed_record_keeps_its_pinned_bytes() {
    for row in rows() {
        let pinned = sha1_digest(&row.records[0]).to_hex();
        assert_eq!(pinned, row.golden, "{}: bytes moved", row.kind);
        for record in &row.records {
            (row.read)(record).unwrap_or_else(|e| panic!("{}: {e}", row.kind));
        }
    }
}

/// Every byte is under the seal or checked against a constant, so no
/// single-bit flip gets through.
#[test]
fn every_single_bit_flip_of_every_sealed_record_is_refused() {
    for row in rows() {
        for record in &row.records {
            for pos in 0..record.len() {
                for bit in 0..8 {
                    let mut bad = record.clone();
                    bad[pos] ^= 1 << bit;
                    let got = answer(&row, &bad, || format!("bit {bit} of byte {pos} flipped"));
                    assert!(got.is_err(), "{}: bit {bit} of byte {pos}", row.kind);
                }
            }
        }
    }
}

#[test]
fn every_truncation_of_every_sealed_record_is_refused() {
    for row in rows() {
        for record in &row.records {
            for len in 0..record.len() {
                let got = answer(&row, &record[..len], || format!("a {len}-byte prefix"));
                assert!(got.is_err(), "{}: a {len}-byte prefix read", row.kind);
            }
        }
    }
}

/// The head of one record cut onto the tail of the other, at every offset
/// both reach, reads as one of the two or not at all.
#[test]
fn every_splice_of_two_sealed_records_reads_as_one_of_them_or_not_at_all() {
    for row in rows() {
        let [a, b] = &row.records;
        let written = [a, b].map(|r| (row.read)(r).expect("a written record reads"));
        for (head, tail) in [(a, b), (b, a)] {
            for cut in 0..=head.len().min(tail.len()) {
                let spliced = [&head[..cut], &tail[cut..]].concat();
                if let Ok(got) = answer(&row, &spliced, || format!("a splice at {cut}")) {
                    assert!(written.contains(&got), "{}: splice at {cut}", row.kind);
                }
            }
        }
    }
}

/// Every single-bit corruption of a 64-entry snapshot is rejected with a
/// typed error. The version byte is in scope: only version 3 is readable,
/// and the header is checked before anything else, so no flip can route
/// the blob around its seal (a 3 -> 1 flip used to, restoring `Ok` with an
/// index that held none of the original entries).
#[test]
fn snapshot_restore_survives_every_single_bit_flip() {
    let blob = snapshot(&populated_index(64)).expect("snapshot");
    for pos in 0..blob.len() {
        for bit in 0..8 {
            let mut bad = blob.clone();
            bad[pos] ^= 1 << bit;
            let restored = restore(&bad);
            assert!(
                restored.is_err(),
                "flipping bit {bit} of byte {pos} went undetected"
            );
        }
    }
}

#[test]
fn snapshot_restore_survives_every_truncation() {
    let blob = snapshot(&populated_index(64)).expect("snapshot");
    for len in 0..blob.len() {
        assert!(
            restore(&blob[..len]).is_err(),
            "a {len}-byte prefix of a {}-byte snapshot must be rejected",
            blob.len()
        );
    }
}

/// A pipeline asked to restore a corrupt snapshot must report the error
/// and keep serving its existing state.
#[test]
fn pipeline_rejects_corrupt_snapshots_and_stays_usable() {
    use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig};
    use inline_dr::workload::{StreamConfig, StreamGenerator};

    let mut pipeline = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        ..PipelineConfig::default()
    });
    let data: Vec<u8> = StreamGenerator::new(StreamConfig {
        total_bytes: 1 << 20,
        ..StreamConfig::default()
    })
    .blocks()
    .flatten()
    .collect();
    pipeline.run(&data);
    let good = pipeline.snapshot_index().expect("snapshot");

    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..64 {
        let mut bad = good.clone();
        let pos = rng.next_below(bad.len() as u64) as usize;
        bad[pos] ^= 1 << rng.next_below(8);
        if pipeline.restore_index(&bad).is_err() {
            // The reject must leave the pipeline readable.
            pipeline.read_block(0).expect("pipeline survives a reject");
        }
    }
    // And the undamaged snapshot still restores.
    pipeline
        .restore_index(&good)
        .expect("good snapshot restores");
    pipeline.read_block(0).expect("restored pipeline reads");
}

fn small_device() -> (SsdDevice, Journal) {
    let spec = SsdSpec {
        channels: 2,
        dies_per_channel: 2,
        blocks_per_die: 64,
        pages_per_block: 16,
        ..SsdSpec::samsung_830_256g()
    };
    let page_bytes = spec.page_bytes;
    let mut ssd = SsdDevice::new(spec);
    let journal = Journal::new(ssd.logical_pages(), page_bytes, 8);
    ssd.arm_crash_capture();
    (ssd, journal)
}

fn sample_records() -> Vec<Record<'static>> {
    (0..12u64)
        .map(|i| Record::VolumeCreate {
            name: format!("v{i}").into(),
            blocks: 8 + i,
        })
        .collect()
}

/// Journal replay must be total under single-bit damage: any flip in the
/// journal region yields a valid prefix of the original records (possibly
/// all of them, when the flip lands in slack space), never a panic and
/// never a record that was not appended.
#[test]
fn journal_replay_survives_every_single_bit_flip() {
    let (mut ssd, mut journal) = small_device();
    let records = sample_records();
    let mut now = SimTime::ZERO;
    for record in &records {
        let grant = journal.append(now, &mut ssd, record).expect("append");
        now = grant.end;
    }
    let region_start = journal.region_start();
    let page_bytes = ssd.spec().page_bytes as usize;
    let written = journal.written_bytes() as usize;

    let mut rng = SplitMix64::new(7);
    for _ in 0..256 {
        // Fresh copy of the journal region per trial: re-write the page,
        // flip one bit, replay.
        let byte = rng.next_below(written as u64) as usize;
        let page = byte / page_bytes;
        let offset = byte % page_bytes;
        let lpn = region_start + page as u64;
        let (mut bytes, _) = ssd.read_page(now, lpn).expect("read journal page");
        let original = bytes.clone();
        bytes[offset] ^= 1 << rng.next_below(8);
        ssd.write_page(now, lpn, &bytes)
            .expect("write damaged page");

        let replay = journal.replay(now, &mut ssd).expect("replay is total");
        assert!(
            replay.records.len() <= records.len(),
            "replay invented records"
        );
        for (got, want) in replay.records.iter().zip(&records) {
            assert_eq!(got, want, "surviving prefix diverged");
        }

        ssd.write_page(now, lpn, &original).expect("undo damage");
    }
    // Undamaged, the journal replays completely.
    let replay = journal.replay(now, &mut ssd).expect("clean replay");
    assert_eq!(replay.records, records);
}

/// Zeroing the journal's tail (the torn-write shape a power cut leaves
/// after a page revert) discards only the affected suffix.
#[test]
fn journal_replay_survives_torn_tails() {
    let (mut ssd, mut journal) = small_device();
    let records = sample_records();
    let mut now = SimTime::ZERO;
    for record in &records {
        let grant = journal.append(now, &mut ssd, record).expect("append");
        now = grant.end;
    }
    let region_start = journal.region_start();
    let page_bytes = ssd.spec().page_bytes as usize;
    let written = journal.written_bytes() as usize;
    let pages = written.div_ceil(page_bytes);

    // Zero whole pages from the tail forward; each cut keeps a (possibly
    // shorter) valid prefix.
    let mut survived = usize::MAX;
    for cut in (0..pages).rev() {
        let lpn = region_start + cut as u64;
        ssd.write_page(now, lpn, &vec![0u8; page_bytes])
            .expect("zero tail page");
        let replay = journal.replay(now, &mut ssd).expect("replay is total");
        assert!(replay.records.len() <= survived, "prefix must shrink");
        survived = replay.records.len();
        for (got, want) in replay.records.iter().zip(&records) {
            assert_eq!(got, want);
        }
    }
    assert_eq!(survived, 0, "fully zeroed journal replays empty");
}
