//! Crash-recovery integration: snapshot the dedup index, rebuild it, and
//! keep deduplicating against data stored before the "crash" — plus the
//! full journaled power-cut path: cut, replay, verify the durable prefix.

use inline_dr::binindex::{restore, snapshot, BinIndex, BinIndexConfig, ChunkRef};
use inline_dr::hashes::sha1_digest;
use inline_dr::workload::{StreamConfig, StreamGenerator};

fn blocks() -> Vec<Vec<u8>> {
    StreamGenerator::new(StreamConfig {
        total_bytes: 2 << 20,
        dedup_ratio: 2.0,
        ..StreamConfig::default()
    })
    .blocks()
    .collect()
}

#[test]
fn restored_index_finds_pre_crash_chunks() {
    let data = blocks();
    let mut index = BinIndex::new(BinIndexConfig::default());
    let mut refs = Vec::new();
    for (i, b) in data.iter().enumerate() {
        let d = sha1_digest(b);
        if index.lookup(&d).is_none() {
            let r = ChunkRef::new(i as u64 * 4096, 4096);
            index.insert(d, r);
            refs.push((d, r));
        }
    }

    // "Crash": only the snapshot bytes survive.
    let blob = snapshot(&index).expect("snapshot");
    drop(index);
    let mut recovered = restore(&blob).expect("restore");

    // Every pre-crash unique chunk must still dedupe.
    for (d, r) in &refs {
        assert_eq!(recovered.lookup(d), Some(*r));
    }
    // And a rewrite of the whole stream produces zero new uniques.
    let new_uniques = data
        .iter()
        .filter(|b| recovered.lookup(&sha1_digest(b)).is_none())
        .count();
    assert_eq!(new_uniques, 0);
}

#[test]
fn snapshot_size_tracks_the_memory_model() {
    let data = blocks();
    let mut index = BinIndex::new(BinIndexConfig::default());
    for (i, b) in data.iter().enumerate() {
        let d = sha1_digest(b);
        if index.lookup(&d).is_none() {
            index.insert(d, ChunkRef::new(i as u64 * 4096, 4096));
        }
    }
    let blob = snapshot(&index).expect("snapshot");
    // Columnar (v3) cost: per entry an 18-byte suffix + 12-byte metadata
    // (the paper's truncated entry, bin id hoisted out), per *occupied
    // bin* an 8-byte group header, plus the fixed header and the 4-byte
    // CRC-32C trailer.
    let occupied_bins = (0..index.router().bin_count())
        .filter(|&b| !index.bin(b).is_empty())
        .count();
    let expected = 34 + occupied_bins * 8 + index.len() as usize * 30 + 4;
    assert_eq!(blob.len(), expected);
}

#[test]
fn index_snapshotted_after_a_faulty_run_still_recovers() {
    // Run a pipeline against an SSD that injects transient write faults,
    // snapshot the index it built, "crash", and keep deduplicating: the
    // degradation machinery must never leave the index unsnapshottable or
    // the stored chunks unreadable.
    use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig};
    use inline_dr::ssd_sim::SsdSpec;

    let mut ssd_spec = SsdSpec::samsung_830_256g();
    ssd_spec.faults.write_error_rate = 0.05;
    ssd_spec.faults.busy_rate = 0.05;
    let mut pipeline = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        ssd_spec,
        verify: true,
        ..PipelineConfig::default()
    });
    let data: Vec<u8> = blocks().into_iter().flatten().collect();
    let report = pipeline.run(&data);
    assert!(report.faults_injected > 0, "no faults were injected");

    let blob = snapshot(pipeline.index()).expect("snapshot");
    let mut recovered = restore(&blob).expect("restore");
    assert_eq!(recovered.len(), report.unique_chunks);
    // The recovered index points every chunk at the stored copy the live
    // one does, and that copy reads back as the original bytes through
    // the surviving pipeline's device.
    for (i, block) in data.chunks(4096).enumerate().step_by(37) {
        let d = sha1_digest(block);
        let index = pipeline.index();
        let bin = index.bin(index.router().route(&d));
        let (live, _) = bin.lookup(&index.key_of(&d)).expect("chunk indexed");
        assert_eq!(recovered.lookup(&d), Some(live), "chunk {i} re-pointed");
        let back = pipeline.read_block(i).expect("read path");
        assert_eq!(back, block, "chunk {i} corrupted");
    }
}

/// Regression for the snapshot-restore / read-cache interaction: restoring
/// the index must drop every cached decompressed chunk, so a post-restore
/// read re-charges the device instead of serving bytes whose backing
/// frames the restore may no longer vouch for.
#[test]
fn restore_index_clears_the_read_cache() {
    use inline_dr::obs::ObsHandle;
    use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig};

    let obs = ObsHandle::enabled("recovery-test");
    let mut pipeline = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        obs: obs.clone(),
        ..PipelineConfig::default()
    });
    let data: Vec<u8> = blocks().into_iter().flatten().collect();
    pipeline.run(&data);

    let gauge = |obs: &ObsHandle| {
        obs.snapshot()
            .map(|s| {
                s.gauges
                    .iter()
                    .find(|(n, _)| n == "read.cache_entries")
                    .map_or(0, |(_, v)| *v)
            })
            .unwrap_or(0)
    };

    let first = pipeline.read_block(0).expect("read");
    assert!(gauge(&obs) > 0, "the read must have populated the cache");
    // A cached re-read is cheap: remember how cheap.
    let before_cached = pipeline.report().read_end;
    pipeline.read_block(0).expect("cached re-read");
    let cached_cost = pipeline.report().read_end - before_cached;

    let blob = pipeline.snapshot_index().expect("snapshot");
    pipeline.restore_index(&blob).expect("restore");
    assert_eq!(gauge(&obs), 0, "restore must clear the read cache");

    // The post-restore read serves identical bytes but pays the device
    // again — strictly more than the cached re-read did.
    let before_cold = pipeline.report().read_end;
    let after_restore = pipeline.read_block(0).expect("post-restore read");
    let cold_cost = pipeline.report().read_end - before_cold;
    assert_eq!(after_restore, first);
    assert!(
        cold_cost > cached_cost,
        "post-restore read must re-charge the device ({cold_cost} vs cached {cached_cost})"
    );
}

/// End-to-end journaled power cut through the volume layer: cut at an
/// instant strictly between two acknowledgements and verify the durable
/// prefix — the first write survives byte-identically, the second is
/// atomically absent, and the array keeps working afterwards.
#[test]
fn power_cut_between_acks_keeps_the_durable_prefix() {
    use inline_dr::des::SimTime;
    use inline_dr::reduction::{IntegrationMode, PipelineConfig, VolumeError, VolumeManager};
    use inline_dr::ssd_sim::CrashSpec;

    let mut array = VolumeManager::new(PipelineConfig {
        mode: IntegrationMode::GpuForCompression,
        journal_pages: 256,
        ..PipelineConfig::default()
    });
    array.create_volume("vm", 32).unwrap();
    let gen = |seed: u64| -> Vec<u8> {
        StreamGenerator::new(StreamConfig {
            total_bytes: 4 * 4096,
            seed,
            ..StreamConfig::default()
        })
        .blocks()
        .flatten()
        .collect()
    };
    let first = gen(1);
    array.write("vm", 0, &first).unwrap();
    let first_ack = array.last_ack();
    array.write("vm", 8, &gen(2)).unwrap();
    let second_ack = array.last_ack();
    assert!(second_ack > first_ack, "acks must be strictly ordered");

    // Cut one nanosecond after the first ack: the first write is durable
    // by the ack contract, the second cannot be.
    let at = SimTime::from_nanos(first_ack.as_nanos() + 1);
    let outcome = array
        .crash_and_recover(CrashSpec { at, torn_seed: 99 })
        .expect("recovery");
    assert!(outcome.chunks_recovered >= 4);

    for (i, chunk) in first.chunks(4096).enumerate() {
        assert_eq!(
            array.read("vm", i as u64).expect("durable block"),
            chunk,
            "acked block {i} must survive byte-identically"
        );
    }
    assert!(
        matches!(array.read("vm", 8), Err(VolumeError::Unwritten { .. })),
        "the unacknowledged write must be atomically absent"
    );
    // The recovered array accepts new writes on the same region.
    array.write("vm", 8, &gen(3)).unwrap();
    assert_eq!(array.read("vm", 8).expect("rewritten"), &gen(3)[..4096]);
}

/// Recovery must be idempotent: running `recover` a second time over the
/// same durable journal — as a node that crashes again *during* recovery
/// effectively does — rebuilds exactly the same state. The cluster's
/// per-node recovery leans on this (a node may be recovered, reconciled,
/// and later recovered again), so divergence here would let repeated
/// crashes smuggle in state drift.
#[test]
fn recovering_twice_from_the_same_journal_is_idempotent() {
    use inline_dr::des::SimTime;
    use inline_dr::reduction::{IntegrationMode, PipelineConfig, VolumeManager};
    use inline_dr::ssd_sim::CrashSpec;

    let mut array = VolumeManager::new(PipelineConfig {
        mode: IntegrationMode::GpuForCompression,
        journal_pages: 256,
        ..PipelineConfig::default()
    });
    array.create_volume("vm", 32).unwrap();
    let gen = |seed: u64| -> Vec<u8> {
        StreamGenerator::new(StreamConfig {
            total_bytes: 4 * 4096,
            seed,
            ..StreamConfig::default()
        })
        .blocks()
        .flatten()
        .collect()
    };
    array.write("vm", 0, &gen(1)).unwrap();
    array.pipeline_mut().journal_checkpoint().unwrap();
    array.write("vm", 8, &gen(2)).unwrap();
    array.write("vm", 3, &gen(1)).unwrap(); // duplicate content, new mapping
    let cut = SimTime::from_nanos(array.last_ack().as_nanos());

    let first = array
        .crash_and_recover(CrashSpec {
            at: cut,
            torn_seed: 7,
        })
        .expect("first recovery");
    let report_first = array.report().clone();
    let survivors: Vec<(u64, Vec<u8>)> = (0..32)
        .filter_map(|b| array.read("vm", b).ok().map(|bytes| (b, bytes)))
        .collect();
    assert!(
        !survivors.is_empty(),
        "the cut at last_ack keeps acked data"
    );

    // Second recovery: same journal, no new power cut. Everything that is
    // a pure function of the durable prefix must come back identical
    // (`recovered_end` may differ — the journal re-read is charged on a
    // device clock the first recovery already advanced).
    let second = array
        .pipeline_mut()
        .recover(cut)
        .expect("second recovery over the same journal");
    assert_eq!(second.records_replayed, first.records_replayed);
    assert_eq!(second.torn_discarded, first.torn_discarded);
    assert_eq!(second.chunks_recovered, first.chunks_recovered);
    assert_eq!(second.records, first.records);

    let report_second = array.report().clone();
    assert_eq!(report_second.chunks, report_first.chunks);
    assert_eq!(report_second.unique_chunks, report_first.unique_chunks);
    assert_eq!(report_second.dedup_hits, report_first.dedup_hits);
    assert_eq!(report_second.bytes_in, report_first.bytes_in);
    assert_eq!(report_second.stored_bytes, report_first.stored_bytes);

    for (b, bytes) in &survivors {
        assert_eq!(
            array.read("vm", *b).expect("block survives re-recovery"),
            *bytes,
            "block {b} diverged after the second recovery"
        );
    }
}
