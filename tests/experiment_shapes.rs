//! Small-scale assertions that the paper's evaluation *shapes* hold —
//! the same comparisons the `e1`–`e5` harness binaries print, pinned as
//! tests so regressions in the models or calibration are caught.

use inline_dr::binindex::BinIndexConfig;
use inline_dr::reduction::{calibrate, IntegrationMode, Pipeline, PipelineConfig};
use inline_dr::ssd_sim::{SsdDevice, SsdSpec};
use inline_dr::workload::{StreamConfig, StreamGenerator};

fn run(mode: IntegrationMode, dedup: bool, compress: bool, total: u64, comp_ratio: f64) -> f64 {
    let config = PipelineConfig {
        mode,
        dedup_enabled: dedup,
        compress_enabled: compress,
        index: BinIndexConfig {
            prefix_bytes: 1, // loaded bins at test scale
            bin_buffer_capacity: 8,
            ..BinIndexConfig::default()
        },
        ..PipelineConfig::default()
    };
    let generator = StreamGenerator::new(StreamConfig {
        total_bytes: total,
        dedup_ratio: if dedup { 2.0 } else { 1.0 },
        compression_ratio: comp_ratio,
        ..StreamConfig::default()
    });
    let mut pipeline = Pipeline::new(config);
    pipeline.run(&generator.generate()).iops()
}

fn ssd_baseline() -> f64 {
    let mut ssd = SsdDevice::new(SsdSpec {
        store_data: false,
        ..SsdSpec::samsung_830_256g()
    });
    ssd.measure_write_iops(10_000, 7)
}

#[test]
fn e2_shape_dedup_beats_ssd_by_multiples() {
    // Paper: dedup throughput ≈ 3x the SSD's.
    let ssd = ssd_baseline();
    let dedup = run(IntegrationMode::CpuOnly, true, false, 8 << 20, 2.0);
    let multiple = dedup / ssd;
    assert!(
        (2.0..4.5).contains(&multiple),
        "dedup/SSD multiple {multiple} (dedup {dedup}, ssd {ssd})"
    );
}

#[test]
fn e3_shape_compression_ordering_cpu_ssd_gpu() {
    // Paper at low compression ratio: CPU (~50K) < SSD (~80K) < GPU (~100K).
    let ssd = ssd_baseline();
    let cpu = run(IntegrationMode::CpuOnly, false, true, 4 << 20, 1.0);
    let gpu = run(
        IntegrationMode::GpuForCompression,
        false,
        true,
        4 << 20,
        1.0,
    );
    assert!(cpu < ssd, "cpu {cpu} should be below ssd {ssd}");
    assert!(gpu > ssd, "gpu {gpu} should beat ssd {ssd}");
    let gain = gpu / cpu - 1.0;
    // Paper: +88.3%.
    assert!((0.5..1.4).contains(&gain), "gpu gain {gain:+.2}");
}

#[test]
fn e3_shape_throughput_rises_with_compressibility() {
    let lo = run(
        IntegrationMode::GpuForCompression,
        false,
        true,
        4 << 20,
        1.0,
    );
    let hi = run(
        IntegrationMode::GpuForCompression,
        false,
        true,
        4 << 20,
        4.0,
    );
    assert!(hi > lo, "hi {hi} vs lo {lo}");
    let cl = run(IntegrationMode::CpuOnly, false, true, 4 << 20, 1.0);
    let ch = run(IntegrationMode::CpuOnly, false, true, 4 << 20, 4.0);
    assert!(ch > cl, "cpu hi {ch} vs lo {cl}");
}

#[test]
fn e4_shape_gpu_compression_wins_the_integration_race() {
    // Paper Figure 2: GPU-for-compression is the best allocation and the
    // CPU-only configuration is the worst.
    let scores: Vec<(IntegrationMode, f64)> = IntegrationMode::ALL
        .into_iter()
        .map(|m| (m, run(m, true, true, 8 << 20, 2.0)))
        .collect();
    let cpu_only = scores[0].1;
    let best = scores
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    assert!(
        best.0.gpu_compression(),
        "winner must use GPU compression: {scores:?}"
    );
    let gain = best.1 / cpu_only - 1.0;
    // Paper: +89.7%; our calibration is documented to land lower but the
    // win must be substantial.
    assert!(gain > 0.3, "integrated GPU gain {gain:+.2}: {scores:?}");
    // And no GPU-assisted mode should fall below CPU-only (a fraction of
    // a percent of scheduling jitter is tolerated: with strong temporal
    // locality most duplicates resolve in bin buffers, so GPU-for-dedup
    // can only tie CPU-only in the integrated run).
    for (mode, iops) in &scores {
        if *mode != IntegrationMode::CpuOnly {
            assert!(
                *iops >= cpu_only * 0.97,
                "{mode} below cpu-only: {scores:?}"
            );
        }
    }
}

#[test]
fn e5_shape_calibration_picks_a_gpu_compression_mode_on_the_testbed() {
    let outcome = calibrate(&PipelineConfig::default(), 128);
    assert!(
        outcome.best.gpu_compression(),
        "calibration picked {}",
        outcome.best
    );
}
