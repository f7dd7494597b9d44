//! E4 — Figure 2 of Section 4(3): throughput of the integration methods.
//!
//! The paper's only data figure compares the four ways of assigning the
//! GPU across deduplication and compression, on a stream with dedup ratio
//! 2.0 and compression ratio 2.0. Its findings: **allocating the GPU to
//! compression is the best choice** ("data compression, which has a high
//! performance gain when using a GPU, monopolizes the GPU"), with an
//! **89.7% improvement over the CPU-only** configuration.
//!
//! This harness regenerates the figure's series on the calibrated HD 7970
//! profile, and repeats it on a weak iGPU profile to show the ordering is
//! platform dependent (the paper's motivation for dummy-I/O calibration).

use dr_bench::{kiops, pct_gain, render_table, scale, Trace};
use dr_gpu_sim::GpuSpec;
use dr_obs::{snapshots_to_json, ObsHandle, Snapshot, Tracer};
use dr_reduction::{IntegrationMode, Pipeline, PipelineConfig};
use dr_ssd_sim::SsdSpec;
use dr_workload::{StreamConfig, StreamGenerator};

fn run_mode(
    mode: IntegrationMode,
    gpu_spec: GpuSpec,
    stream_bytes: u64,
    label: &str,
    tracer: Tracer,
) -> (f64, Snapshot) {
    let obs = ObsHandle::enabled(format!("{label}/{mode}")).with_tracer(tracer);
    let config = PipelineConfig {
        mode,
        gpu_spec,
        index: dr_binindex::BinIndexConfig {
            prefix_bytes: 1, // loaded bins at experiment scale
            bin_buffer_capacity: 8,
            ..dr_binindex::BinIndexConfig::default()
        },
        ssd_spec: SsdSpec::samsung_830_sweep(),
        obs: obs.clone(),
        ..PipelineConfig::default()
    };
    let generator = StreamGenerator::new(StreamConfig {
        total_bytes: stream_bytes,
        dedup_ratio: 2.0,
        compression_ratio: 2.0,
        ..StreamConfig::default()
    });
    let mut pipeline = Pipeline::new(config);
    let iops = pipeline.run(&generator.generate()).iops();
    (iops, obs.snapshot().expect("enabled handle snapshots"))
}

fn figure(
    gpu_spec: GpuSpec,
    stream_bytes: u64,
    label: &str,
    snapshots: &mut Vec<Snapshot>,
    tracer: Tracer,
) -> Vec<(IntegrationMode, f64)> {
    IntegrationMode::ALL
        .into_iter()
        .map(|mode| {
            // Each run's sim timeline starts at zero, so a combined trace
            // of all eight runs would overlay confusingly; trace only the
            // paper's winning configuration.
            let t = match mode {
                IntegrationMode::GpuForCompression => tracer.clone(),
                _ => Tracer::disabled(),
            };
            let (iops, snap) = run_mode(mode, gpu_spec.clone(), stream_bytes, label, t);
            snapshots.push(snap);
            (mode, iops)
        })
        .collect()
}

fn print_figure(title: &str, series: &[(IntegrationMode, f64)]) {
    let cpu_only = series
        .iter()
        .find(|(m, _)| *m == IntegrationMode::CpuOnly)
        .expect("cpu-only probed")
        .1;
    println!("{title}");
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(mode, iops)| {
            vec![
                mode.to_string(),
                kiops(*iops),
                format!("{:+.1}%", pct_gain(*iops, cpu_only)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["integration", "IOPS", "vs cpu-only"], &rows)
    );
    let best = series
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    println!(
        "best: {} ({:+.1}% over cpu-only)\n",
        best.0,
        pct_gain(best.1, cpu_only)
    );
}

fn main() {
    let stream_bytes = (24.0 * scale() * (1 << 20) as f64) as u64;
    let mut snapshots = Vec::new();
    let trace = Trace::from_args();

    println!("E4 / Figure 2: integration-method throughput (dedup 2.0 x compression 2.0)\n");
    print_figure(
        "Radeon HD 7970 (the paper's testbed):",
        &figure(
            GpuSpec::radeon_hd_7970(),
            stream_bytes,
            "hd7970",
            &mut snapshots,
            trace.tracer(),
        ),
    );
    print_figure(
        "Weak iGPU (sensitivity — the ordering is platform dependent):",
        &figure(
            GpuSpec::weak_igpu(),
            stream_bytes,
            "weak-igpu",
            &mut snapshots,
            Tracer::disabled(),
        ),
    );
    println!("paper: GPU-for-compression best, +89.7% over CPU-only (their testbed)");

    // One snapshot per (gpu, mode) run: per-stage latency histograms
    // (p50/p95/p99), router decision counters, device metrics.
    dr_bench::finish(
        "e4_fig2_integration",
        &snapshots_to_json(&snapshots),
        Some(&trace),
    );
}
