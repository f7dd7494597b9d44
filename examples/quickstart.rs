//! Quickstart: run a write stream through the inline reduction pipeline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a vdbench-style stream (dedup ratio 2.0, compression ratio
//! 2.0 — the paper's defaults), pushes it through the pipeline with the
//! GPU assigned to compression (the paper's best integration), prints the
//! report, and reads one chunk back to show the full
//! write→dedupe→compress→destage→read loop is lossless.

use inline_dr::hashes::sha1_digest;
use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig};
use inline_dr::workload::{StreamConfig, StreamGenerator};

fn main() {
    // 1. A 16 MiB synthetic primary-storage write stream.
    let generator = StreamGenerator::new(StreamConfig {
        total_bytes: 16 << 20,
        dedup_ratio: 2.0,
        compression_ratio: 2.0,
        ..StreamConfig::default()
    });
    let stream = generator.generate();
    println!(
        "generated {} MiB (dedup ratio 2.0, compression ratio 2.0)\n",
        stream.len() >> 20
    );

    // 2. Run it through the pipeline.
    let mut pipeline = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::GpuForCompression,
        verify: true, // self-check every destaged frame
        ..PipelineConfig::default()
    });
    let report = pipeline.run(&stream);
    println!("{report}\n");

    // 3. Read the very first chunk back: the dedup index knows it, and the
    //    logical map leads to its stored copy.
    let digest = sha1_digest(&stream[..4096]);
    assert!(
        pipeline.index().contains(&digest),
        "first chunk must be indexed"
    );
    let chunk = pipeline.read_block(0).expect("read path failed");
    assert_eq!(chunk, &stream[..4096], "read-back must match the original");
    println!("read block 0 back: {} bytes, bit-exact ✓", chunk.len());
    println!(
        "space saved: {:.1}% (reduction ratio {:.2}x)",
        (1.0 - 1.0 / report.reduction_ratio()) * 100.0,
        report.reduction_ratio()
    );
}
