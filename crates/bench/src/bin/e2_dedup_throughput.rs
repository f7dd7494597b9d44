//! E2 — Section 4(1): parallel data deduplication throughput.
//!
//! The paper: *"the GPU-supported data deduplication scheme can improve
//! throughput by 15% over CPU-only data deduplication. In addition, it
//! shows three times the throughput of the SSD."*
//!
//! This harness runs a vdbench-style stream (dedup ratio 2.0) through the
//! dedup-only pipeline in CPU-only and GPU-assisted modes and compares
//! both against the raw SSD write throughput. The stream is written
//! *twice*: the first pass populates the index and the GPU-resident bins
//! (as a warm primary storage system would be); the second pass is
//! measured.

use dr_bench::{kiops, pct_gain, render_table, scale, Trace};
use dr_obs::{snapshots_to_json, ObsHandle, Snapshot, Tracer};
use dr_reduction::{IntegrationMode, Pipeline, PipelineConfig};
use dr_ssd_sim::{SsdDevice, SsdSpec};
use dr_workload::{StreamConfig, StreamGenerator};

fn run_mode(mode: IntegrationMode, stream_bytes: u64, tracer: Tracer) -> (f64, f64, Snapshot) {
    // Recording is free on the simulated clock, so the measured pass can
    // stay instrumented without skewing the figure.
    let obs = ObsHandle::enabled(format!("e2/{mode}")).with_tracer(tracer);
    let config = PipelineConfig {
        mode,
        compress_enabled: false,
        obs: obs.clone(),
        index: dr_binindex::BinIndexConfig {
            // Few bins + small buffers: bins load up and flush often, so
            // the GPU mirror stays fresh (a full-scale system reaches the
            // same state through sheer data volume).
            prefix_bytes: 1,
            bin_buffer_capacity: 4,
            ..dr_binindex::BinIndexConfig::default()
        },
        ssd_spec: SsdSpec::samsung_830_sweep(),
        ..PipelineConfig::default()
    };
    let generator = StreamGenerator::new(StreamConfig {
        total_bytes: stream_bytes,
        dedup_ratio: 2.0,
        compression_ratio: 2.0,
        ..StreamConfig::default()
    });
    let stream = generator.generate();
    let mut pipeline = Pipeline::new(config);
    // Warm-up pass: populate index + GPU bins.
    let warm = pipeline.run(&stream);
    // Measured pass: a re-write of the same working set.
    let report = pipeline.run(&stream);
    let pass_chunks = report.chunks - warm.chunks;
    let pass_secs = report
        .reduction_end
        .saturating_duration_since(warm.reduction_end)
        .as_secs_f64();
    let iops = pass_chunks as f64 / pass_secs;
    (iops, report.dedup_ratio(), obs.snapshot().expect("enabled"))
}

fn main() {
    let stream_bytes = (32.0 * scale() * (1 << 20) as f64) as u64;
    let trace = Trace::from_args();

    // Baseline: raw SSD 4 KB write throughput.
    let mut ssd = SsdDevice::new(SsdSpec {
        store_data: false,
        ..SsdSpec::samsung_830_256g()
    });
    let ssd_iops = ssd.measure_write_iops(20_000, 7);

    // Trace only the GPU-assisted run: both runs start their sim clocks at
    // zero, so a combined trace would overlay the two timelines.
    let (cpu_iops, _, cpu_snap) =
        run_mode(IntegrationMode::CpuOnly, stream_bytes, Tracer::disabled());
    let (gpu_iops, _, gpu_snap) =
        run_mode(IntegrationMode::GpuForDedup, stream_bytes, trace.tracer());

    println!("E2: dedup-only throughput (vdbench stream, dedup ratio 2.0, 4 KB chunks)\n");
    let rows = vec![
        vec![
            "ssd raw writes".into(),
            kiops(ssd_iops),
            "1.00x".into(),
            "-".into(),
        ],
        vec![
            "dedup cpu-only".into(),
            kiops(cpu_iops),
            format!("{:.2}x", cpu_iops / ssd_iops),
            "-".into(),
        ],
        vec![
            "dedup cpu+gpu".into(),
            kiops(gpu_iops),
            format!("{:.2}x", gpu_iops / ssd_iops),
            format!("{:+.1}%", pct_gain(gpu_iops, cpu_iops)),
        ],
    ];
    println!(
        "{}",
        render_table(&["configuration", "IOPS", "vs SSD", "vs cpu-only"], &rows)
    );
    println!("paper: GPU-supported dedup +15.0% over CPU-only; ~3x the SSD throughput");
    println!(
        "measured: {:+.1}% over CPU-only; {:.1}x the SSD",
        pct_gain(gpu_iops, cpu_iops),
        gpu_iops / ssd_iops
    );
    dr_bench::finish(
        "e2_dedup_throughput",
        &snapshots_to_json(&[cpu_snap, gpu_snap]),
        Some(&trace),
    );
}
