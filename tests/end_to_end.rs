//! End-to-end integration tests: workload → pipeline → device → read-back.

use inline_dr::hashes::sha1_digest;
use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig};
use inline_dr::workload::{StreamConfig, StreamGenerator};
use std::collections::HashSet;

fn stream(total: u64, dedup: f64, comp: f64, seed: u64) -> Vec<u8> {
    StreamGenerator::new(StreamConfig {
        total_bytes: total,
        dedup_ratio: dedup,
        compression_ratio: comp,
        seed,
        ..StreamConfig::default()
    })
    .generate()
}

#[test]
fn measured_ratios_track_workload_knobs() {
    let data = stream(8 << 20, 2.0, 2.0, 1);
    let mut p = Pipeline::new(PipelineConfig::default());
    let r = p.run(&data);

    // Dedup ratio: the pipeline must find exactly the true duplicates.
    let true_unique = data
        .chunks(4096)
        .map(sha1_digest)
        .collect::<HashSet<_>>()
        .len() as u64;
    assert_eq!(r.unique_chunks, true_unique);
    assert!(
        (r.dedup_ratio() - 2.0).abs() < 0.4,
        "dedup ratio {}",
        r.dedup_ratio()
    );
    // Compression ratio: within a band of the workload's target.
    assert!(
        (1.5..3.0).contains(&r.compression_ratio()),
        "compression ratio {}",
        r.compression_ratio()
    );
    // Overall ≈ product of the two.
    assert!(
        (r.reduction_ratio() - r.dedup_ratio() * r.compression_ratio()).abs() / r.reduction_ratio()
            < 0.05
    );
}

#[test]
fn every_mode_round_trips_every_chunk() {
    // Small stream, verify=true: the pipeline itself asserts each frame
    // decodes to the original chunk; additionally read a sample back
    // through the index at the end.
    let data = stream(1 << 20, 2.0, 2.0, 2);
    for mode in IntegrationMode::ALL {
        let mut p = Pipeline::new(PipelineConfig {
            mode,
            verify: true,
            ..PipelineConfig::default()
        });
        p.run(&data);
        for (i, sample) in data.chunks(4096).enumerate().step_by(37) {
            let indexed = p.index().contains(&sha1_digest(sample));
            assert!(indexed, "chunk not indexed in mode {mode}");
            let back = p.read_block(i).expect("read path");
            assert_eq!(back, sample, "round-trip failed in mode {mode}");
        }
    }
}

#[test]
fn incompressible_dedup_free_stream_is_stored_whole() {
    let data = stream(2 << 20, 1.0, 1.0, 3);
    let mut p = Pipeline::new(PipelineConfig {
        verify: true,
        ..PipelineConfig::default()
    });
    let r = p.run(&data);
    assert_eq!(r.dedup_hits, 0);
    // Raw fallback: stored = input + 5-byte headers.
    assert_eq!(r.stored_bytes, r.bytes_in + 5 * r.unique_chunks);
    assert!(r.reduction_ratio() < 1.01);
}

#[test]
fn highly_redundant_stream_reduces_hard() {
    let data = stream(4 << 20, 8.0, 4.0, 4);
    let mut p = Pipeline::new(PipelineConfig {
        verify: true,
        ..PipelineConfig::default()
    });
    let r = p.run(&data);
    assert!(r.dedup_ratio() > 5.0, "dedup {}", r.dedup_ratio());
    assert!(
        r.reduction_ratio() > 12.0,
        "overall {}",
        r.reduction_ratio()
    );
}

#[test]
fn functional_results_identical_across_modes() {
    // Unique/duplicate decisions are made by the same ground-truth index
    // in all modes (GPU results only short-circuit timing paths), so the
    // stored byte counts must agree when no flush staleness is possible.
    let data = stream(2 << 20, 2.0, 2.0, 5);
    let mut stored = Vec::new();
    for mode in IntegrationMode::ALL {
        let mut p = Pipeline::new(PipelineConfig {
            mode,
            ..PipelineConfig::default()
        });
        let r = p.run(&data);
        stored.push((mode, r.unique_chunks, r.dedup_hits));
    }
    for w in stored.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{:?} vs {:?}", w[0], w[1]);
        assert_eq!(w[0].2, w[1].2, "{:?} vs {:?}", w[0], w[1]);
    }
}

#[test]
fn write_amplification_stays_sane() {
    let data = stream(8 << 20, 2.0, 2.0, 6);
    let mut p = Pipeline::new(PipelineConfig::default());
    let r = p.run(&data);
    // An append-only destage log should barely amplify.
    assert!(
        (1.0..1.5).contains(&r.write_amplification),
        "WA {}",
        r.write_amplification
    );
}
