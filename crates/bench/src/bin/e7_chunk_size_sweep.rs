//! E7 — sensitivity sweep: chunk size vs throughput, reduction and index
//! memory.
//!
//! The paper fixes 4 KB chunks for compression and uses 8 KB in its
//! index-memory sizing example; this sweep quantifies the trade the
//! authors navigated: bigger chunks amortize per-chunk costs (higher
//! IOPS-equivalent bandwidth, smaller index) but find fewer duplicates.

use dr_bench::{render_table, scale};
use dr_binindex::MemoryModel;
use dr_obs::{snapshots_to_json, ObsHandle};
use dr_reduction::{IntegrationMode, Pipeline, PipelineConfig};
use dr_ssd_sim::SsdSpec;
use dr_workload::{StreamConfig, StreamGenerator};

fn main() {
    let stream_bytes = (16.0 * scale() * (1 << 20) as f64) as u64;
    println!("E7: chunk-size sensitivity (dedup 2.0 x compression 2.0 stream)\n");
    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    for chunk_kb in [4usize, 8, 16, 32] {
        let chunk_bytes = chunk_kb * 1024;
        let obs = ObsHandle::enabled(format!("e7/{chunk_kb}kb"));
        let generator = StreamGenerator::new(StreamConfig {
            total_bytes: stream_bytes,
            block_bytes: chunk_bytes,
            dedup_ratio: 2.0,
            compression_ratio: 2.0,
            ..StreamConfig::default()
        });
        let mut pipeline = Pipeline::new(PipelineConfig {
            mode: IntegrationMode::GpuForCompression,
            chunk_bytes,
            ssd_spec: SsdSpec::samsung_830_sweep(),
            obs: obs.clone(),
            ..PipelineConfig::default()
        });
        let report = pipeline.run(&generator.generate());
        snapshots.push(obs.snapshot().expect("enabled handle snapshots"));
        let memory = MemoryModel::new(4 << 40, chunk_bytes as u64, 2);
        rows.push(vec![
            format!("{chunk_kb} KB"),
            format!("{:.0}", report.mb_per_sec()),
            format!("{:.2}x", report.reduction_ratio()),
            format!(
                "{:.1} GB",
                memory.index_bytes() as f64 / (1u64 << 30) as f64
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["chunk size", "MB/s", "reduction", "index RAM @4TB"],
            &rows
        )
    );
    println!(
        "bigger chunks amortize per-chunk work and shrink the index; smaller chunks dedupe finer."
    );
    dr_bench::finish("e7_chunk_size_sweep", &snapshots_to_json(&snapshots), None);
}
