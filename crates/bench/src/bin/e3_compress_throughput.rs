//! E3 — Section 4(2): parallel data compression throughput.
//!
//! The paper: the CPU codec manages *"about 50 K IOPS"* — below the SSD's
//! *"about 80 K IOPS"* — when the compression ratio is low, while the
//! GPU-based method delivers *"100 K IOPS even when the compression ratio
//! is low"*; overall the GPU path is **88.3% better** than parallel
//! QuickLZ, and throughput rises with the compression ratio.
//!
//! This harness sweeps the workload's compression ratio and measures the
//! compression-only pipeline (dedup disabled) in CPU and GPU modes,
//! against the raw SSD baseline.

use dr_bench::{kiops, pct_gain, render_table, scale, Trace};
use dr_obs::{snapshots_to_json, ObsHandle, Snapshot, Tracer};
use dr_reduction::{IntegrationMode, Pipeline, PipelineConfig};
use dr_ssd_sim::{SsdDevice, SsdSpec};
use dr_workload::{StreamConfig, StreamGenerator};

fn run_mode(
    mode: IntegrationMode,
    ratio: f64,
    stream_bytes: u64,
    tracer: Tracer,
) -> (f64, f64, Snapshot) {
    let obs = ObsHandle::enabled(format!("e3/{mode}/r{ratio:.1}")).with_tracer(tracer);
    let config = PipelineConfig {
        mode,
        dedup_enabled: false,
        ssd_spec: SsdSpec::samsung_830_sweep(),
        obs: obs.clone(),
        ..PipelineConfig::default()
    };
    let generator = StreamGenerator::new(StreamConfig {
        total_bytes: stream_bytes,
        dedup_ratio: 1.0, // compression-only stream
        compression_ratio: ratio,
        ..StreamConfig::default()
    });
    let mut pipeline = Pipeline::new(config);
    let report = pipeline.run(&generator.generate());
    (
        report.iops(),
        report.compression_ratio(),
        obs.snapshot().expect("enabled handle snapshots"),
    )
}

fn main() {
    let stream_bytes = (16.0 * scale() * (1 << 20) as f64) as u64;
    let trace = Trace::from_args();

    let mut ssd = SsdDevice::new(SsdSpec {
        store_data: false,
        ..SsdSpec::samsung_830_256g()
    });
    let ssd_iops = ssd.measure_write_iops(20_000, 7);

    println!("E3: compression-only throughput vs workload compression ratio (4 KB chunks)\n");
    let mut rows = Vec::new();
    let mut gains = Vec::new();
    let mut snapshots = Vec::new();
    for ratio in [1.0f64, 1.5, 2.0, 3.0, 4.0] {
        let (cpu_iops, measured, cpu_snap) = run_mode(
            IntegrationMode::CpuOnly,
            ratio,
            stream_bytes,
            Tracer::disabled(),
        );
        // Trace one representative point: the GPU path at the paper's
        // dedup/compression ratio of 2.0.
        let t = if ratio == 2.0 {
            trace.tracer()
        } else {
            Tracer::disabled()
        };
        let (gpu_iops, _, gpu_snap) =
            run_mode(IntegrationMode::GpuForCompression, ratio, stream_bytes, t);
        snapshots.push(cpu_snap);
        snapshots.push(gpu_snap);
        let gain = pct_gain(gpu_iops, cpu_iops);
        gains.push(gain);
        rows.push(vec![
            format!("{ratio:.1}"),
            format!("{measured:.2}"),
            kiops(cpu_iops),
            kiops(gpu_iops),
            kiops(ssd_iops),
            format!("{gain:+.1}%"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "target ratio",
                "achieved",
                "cpu IOPS",
                "gpu IOPS",
                "ssd IOPS",
                "gpu gain"
            ],
            &rows
        )
    );
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    println!(
        "paper: GPU +88.3% over parallel QuickLZ; CPU ~50K < SSD ~80K < GPU ~100K at low ratio"
    );
    println!("measured: average GPU gain {avg:+.1}% across the sweep");
    dr_bench::finish(
        "e3_compress_throughput",
        &snapshots_to_json(&snapshots),
        Some(&trace),
    );
}
