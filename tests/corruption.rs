//! Corruption property suite: no persisted artifact — index snapshot or
//! metadata journal — may ever panic its reader, no matter how it was
//! damaged. Bit flips, truncations, and version skew must surface as
//! typed errors (snapshots) or a clean durable-prefix cut (journal), and
//! the component must stay usable afterwards.

use inline_dr::binindex::{restore, snapshot, BinIndex, BinIndexConfig, ChunkRef};
use inline_dr::des::{SimTime, SplitMix64};
use inline_dr::hashes::sha1_digest;
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

/// Every single-bit corruption of a snapshot is rejected with a typed
/// error. The version byte is in scope: only version 3 is readable, and
/// the header is checked before anything else, so no flip can route the
/// blob around its CRC-32C (a 3 -> 1 flip used to, restoring `Ok` with an
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

fn sample_records() -> Vec<Record> {
    (0..12u64)
        .map(|i| Record::VolumeCreate {
            name: format!("v{i}"),
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
