//! Integration: logical volumes + integrity envelopes + GPU modes, end to
//! end on the device models.

use inline_dr::gpu_sim::GpuSpec;
use inline_dr::reduction::{IntegrationMode, PipelineConfig, VolumeManager};
use inline_dr::ssd_sim::SsdFaultSpec;
use inline_dr::workload::synthesize_block;

fn fleet(mode: IntegrationMode, gpu: GpuSpec) -> VolumeManager {
    VolumeManager::new(PipelineConfig {
        mode,
        gpu_spec: gpu,
        integrity: true,
        verify: true,
        ..PipelineConfig::default()
    })
}

#[test]
fn volumes_round_trip_with_integrity_on_every_mode() {
    for mode in IntegrationMode::ALL {
        let mut array = fleet(mode, GpuSpec::radeon_hd_7970());
        array.create_volume("data", 32).unwrap();
        let blocks: Vec<Vec<u8>> = (0..32u64)
            .map(|i| synthesize_block(i % 8, 4096, 2.0))
            .collect();
        array.write("data", 0, &blocks.concat()).unwrap();
        for (i, expect) in blocks.iter().enumerate() {
            assert_eq!(
                &array.read("data", i as u64).unwrap(),
                expect,
                "block {i} in mode {mode}"
            );
        }
        // 8 distinct patterns over 32 blocks.
        assert_eq!(array.report().unique_chunks, 8, "mode {mode}");
    }
}

#[test]
fn dedup_domain_spans_volumes_and_survives_overwrites() {
    let mut array = fleet(IntegrationMode::GpuForCompression, GpuSpec::weak_igpu());
    array.create_volume("a", 8).unwrap();
    array.create_volume("b", 8).unwrap();
    let shared = synthesize_block(1, 4096, 2.0);
    let unique = synthesize_block(2, 4096, 2.0);

    array.write("a", 0, &shared).unwrap();
    array.write("b", 0, &shared).unwrap(); // cross-volume duplicate
    array.write("a", 0, &unique).unwrap(); // overwrite remaps volume a

    assert_eq!(array.read("a", 0).unwrap(), unique);
    assert_eq!(
        array.read("b", 0).unwrap(),
        shared,
        "b still sees the old data"
    );
    let r = array.report();
    assert_eq!(r.dedup_hits, 1);
    assert_eq!(r.unique_chunks, 2);
}

/// Overwriting one reference to a deduped chunk must not disturb the
/// other references — the classic silent reference-resolution bug in
/// inline dedup stores.
#[test]
fn read_after_overwrite_of_deduped_block() {
    for mode in IntegrationMode::ALL {
        let mut array = fleet(mode, GpuSpec::radeon_hd_7970());
        array.create_volume("v", 8).unwrap();
        let shared = synthesize_block(10, 4096, 2.0);
        let replacement = synthesize_block(11, 4096, 2.0);

        // Blocks 0, 1 and 2 all dedup to the same stored chunk.
        array.write("v", 0, &shared).unwrap();
        array.write("v", 1, &shared).unwrap();
        array.write("v", 2, &shared).unwrap();
        assert_eq!(array.report().dedup_hits, 2, "mode {mode}");

        // Remap the middle reference only.
        array.write("v", 1, &replacement).unwrap();

        assert_eq!(array.read("v", 1).unwrap(), replacement, "mode {mode}");
        assert_eq!(
            array.read("v", 0).unwrap(),
            shared,
            "mode {mode}: overwrite of block 1 disturbed block 0"
        );
        assert_eq!(
            array.read("v", 2).unwrap(),
            shared,
            "mode {mode}: overwrite of block 1 disturbed block 2"
        );
    }
}

/// Dedup may share physical chunks across volumes, but the logical
/// namespaces must stay isolated: same block index, different volumes,
/// independent contents and overwrites.
#[test]
fn cross_volume_dedup_isolation() {
    let mut array = fleet(IntegrationMode::GpuForBoth, GpuSpec::strong_dgpu());
    array.create_volume("a", 4).unwrap();
    array.create_volume("b", 4).unwrap();
    let shared = synthesize_block(20, 4096, 2.0);
    let a_only = synthesize_block(21, 4096, 2.0);
    let b_only = synthesize_block(22, 4096, 2.0);

    // The same bytes land at the same index of both volumes (one stored
    // copy), plus a distinct block per volume at index 1.
    array.write("a", 0, &shared).unwrap();
    array.write("b", 0, &shared).unwrap();
    array.write("a", 1, &a_only).unwrap();
    array.write("b", 1, &b_only).unwrap();
    let r = array.report();
    assert_eq!(r.unique_chunks, 3);
    assert_eq!(r.dedup_hits, 1);

    // Overwrite every one of a's references to the shared chunk; b's view
    // must be unaffected even though a no longer references it.
    array.write("a", 0, &a_only).unwrap();
    assert_eq!(array.read("a", 0).unwrap(), a_only);
    assert_eq!(array.read("a", 1).unwrap(), a_only);
    assert_eq!(
        array.read("b", 0).unwrap(),
        shared,
        "b lost the shared chunk after a dropped its references"
    );
    assert_eq!(array.read("b", 1).unwrap(), b_only);

    // An unwritten index in one volume stays unwritten regardless of
    // writes at the same index elsewhere.
    assert!(array.read("a", 2).is_err());
}

/// Blocks accepted while the ssd-write degrade latch is open are sealed
/// as *raw* frames (compression shed to give a struggling device the
/// simplest possible I/O). Those frames must read back byte-identically
/// once things calm down.
#[test]
fn blocks_written_under_open_ssd_write_latch_read_back() {
    let mut config = PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        integrity: true,
        ..PipelineConfig::default()
    };
    // The latch opens only after the destager's in-line retries (4
    // attempts by default) all fail, i.e. with probability rate^4 per
    // page — the rate and fault seed are pinned to a combination where
    // that happens at least once over this stream without exhausting the
    // post-latch rest retry.
    config.ssd_spec.faults = SsdFaultSpec {
        write_error_rate: 0.4,
        seed: 2,
        ..SsdFaultSpec::default()
    };
    let mut array = VolumeManager::new(config);
    array.create_volume("v", 64).unwrap();
    let blocks: Vec<Vec<u8>> = (0..64u64)
        .map(|i| synthesize_block(100 + i, 4096, 2.0))
        .collect();
    array.write("v", 0, &blocks.concat()).unwrap();

    let r = array.report();
    assert!(
        r.faults_injected > 0,
        "no write faults fired — the scenario proves nothing"
    );
    assert!(
        r.degraded_transitions >= 1,
        "the ssd-write latch never opened — raise the fault rate"
    );
    for (i, expect) in blocks.iter().enumerate() {
        assert_eq!(
            &array.read("v", i as u64).unwrap(),
            expect,
            "block {i} (written around an open latch) diverged"
        );
    }
}

#[test]
fn integrity_catches_corruption_behind_volumes() {
    let mut config = PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        integrity: true,
        ..PipelineConfig::default()
    };
    config.ssd_spec.faults.bit_flip_rate = 1.0;
    let mut array = VolumeManager::new(config);
    array.create_volume("v", 64).unwrap();
    let blocks: Vec<Vec<u8>> = (0..64u64).map(|i| synthesize_block(i, 4096, 1.0)).collect();
    array.write("v", 0, &blocks.concat()).unwrap();
    let mut detected = 0;
    for i in 0..64 {
        if let Err(e) = array.read("v", i) {
            assert!(e.to_string().contains("checksum"), "unexpected: {e}");
            detected += 1;
        }
    }
    assert!(detected > 0, "injected corruption was never detected");
}
