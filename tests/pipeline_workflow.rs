//! Integration test of the paper's Figure-1 workflow across crates.
//!
//! Asserts the control-flow properties of the integrated pipeline: GPU
//! indexing before CPU indexing, bin buffer before bin tree, flushes
//! producing sequential SSD writes plus GPU bin updates, and unique chunks
//! flowing through compression into the destage log.

use inline_dr::binindex::BinIndexConfig;
use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig};
use inline_dr::workload::{StreamConfig, StreamGenerator};

fn stream(total: u64, dedup: f64) -> Vec<u8> {
    StreamGenerator::new(StreamConfig {
        total_bytes: total,
        dedup_ratio: dedup,
        compression_ratio: 2.0,
        locality: 0.8,
        ..StreamConfig::default()
    })
    .generate()
}

#[test]
fn duplicates_resolve_in_buffer_before_tree() {
    // High locality + roomy bin buffers: most duplicate hits must come
    // from the buffer (the paper: "recently updated chunks can reside in
    // the bin buffer and chunks are more likely to find duplicates in the
    // bin buffer due to temporal locality").
    let mut p = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        index: BinIndexConfig {
            bin_buffer_capacity: 1 << 20,
            ..BinIndexConfig::default()
        },
        ..PipelineConfig::default()
    });
    let r = p.run(&stream(4 << 20, 2.0));
    assert!(r.dedup_hits > 0);
    assert_eq!(r.tree_hits, 0, "nothing ever flushed to trees");
    assert_eq!(r.buffer_hits, r.dedup_hits);
}

#[test]
fn flushes_move_hits_to_the_tree_and_write_sequentially() {
    let mut p = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        index: BinIndexConfig {
            prefix_bytes: 1, // loaded bins at test scale
            bin_buffer_capacity: 2,
            ..BinIndexConfig::default()
        },
        ..PipelineConfig::default()
    });
    let data = stream(4 << 20, 1.0); // all unique: fills buffers fast
    p.run(&data);
    // Re-write the same data: now everything is a duplicate, found in trees.
    let r = p.run(&data);
    assert!(r.bin_flushes > 0, "tiny buffers must flush");
    assert!(
        r.tree_hits > r.buffer_hits,
        "flushed entries must be found in bin trees: {} tree vs {} buffer",
        r.tree_hits,
        r.buffer_hits
    );
    // Each flush produced at least one sequential index write to the SSD.
    assert!(r.ssd_writes > r.unique_chunks / 4, "index writes missing");
}

#[test]
fn gpu_first_then_cpu_fallback() {
    let cfg = PipelineConfig {
        mode: IntegrationMode::GpuForDedup,
        index: BinIndexConfig {
            prefix_bytes: 1,
            bin_buffer_capacity: 2,
            ..BinIndexConfig::default()
        },
        ..PipelineConfig::default()
    };
    let mut p = Pipeline::new(cfg);
    let data = stream(4 << 20, 1.0);
    let first = p.run(&data);
    // First pass: every chunk was queried on the GPU (workflow order).
    assert_eq!(first.gpu_index_queries, first.chunks);
    // Second pass: flushed bins are GPU-resident, so re-writes hit there.
    let second = p.run(&data);
    assert!(
        second.gpu_index_hits > first.gpu_index_hits,
        "GPU bins never produced hits: {second:?}"
    );
    // CPU index remains the functional ground truth: every duplicate found.
    assert_eq!(
        second.chunks - first.chunks,
        second.dedup_hits - first.dedup_hits
    );
}

#[test]
fn unique_chunks_flow_through_compression_to_the_ssd() {
    let mut p = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::GpuForCompression,
        verify: true,
        ..PipelineConfig::default()
    });
    let r = p.run(&stream(4 << 20, 2.0));
    assert!(r.gpu_comp_batches > 0, "GPU compression never launched");
    assert!(
        r.compression_ratio() > 1.5,
        "ratio {}",
        r.compression_ratio()
    );
    // Stored bytes (plus page padding) reached the device.
    assert!(r.ssd_bytes_written >= r.stored_bytes);
    // And the engine did not destage duplicate chunks.
    assert!(r.stored_bytes < r.bytes_in / 2);
}

#[test]
fn timeline_is_causally_ordered() {
    let mut p = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::GpuForBoth,
        index: BinIndexConfig {
            bin_buffer_capacity: 4,
            ..BinIndexConfig::default()
        },
        ..PipelineConfig::default()
    });
    let r = p.run(&stream(2 << 20, 2.0));
    assert!(r.reduction_end > inline_dr::des::SimTime::ZERO);
    // Destage writes can only finish at or after reduction produced them.
    assert!(r.ssd_end >= inline_dr::des::SimTime::ZERO);
    assert!(r.cpu_busy > inline_dr::des::SimDuration::ZERO);
}
