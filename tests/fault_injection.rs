//! Fault-injection integration suite: with *any* seeded fault schedule,
//! the reconstructed logical volume contents must be byte-identical to the
//! fault-free run — reduction is best-effort, correctness is not — and
//! with faults disabled the simulated results must be bit-identical to a
//! build without the fault layer at all.

use inline_dr::gpu_sim::GpuFaultSpec;
use inline_dr::obs::ObsHandle;
use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig};
use inline_dr::ssd_sim::SsdFaultSpec;

/// A dedup-able, compressible stream: 192 blocks over 48 patterns, half of
/// each block pseudo-random so compression has real work to do.
fn stream() -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..192u32 {
        let tag = (i % 48) as u8;
        let mut block = vec![tag; 4096];
        let mut state = (i % 48) as u64 + 1;
        for b in block[..2048].iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        out.extend_from_slice(&block);
    }
    out
}

fn config(mode: IntegrationMode) -> PipelineConfig {
    PipelineConfig {
        mode,
        ..PipelineConfig::default()
    }
}

/// `cfg` recording into a registry of its own, the one book of its
/// `fault.*` counters.
fn counted(cfg: PipelineConfig) -> PipelineConfig {
    PipelineConfig {
        obs: ObsHandle::enabled("fault-injection"),
        ..cfg
    }
}

/// The device models' injected-fault counters.
const INJECTED: [&str; 2] = ["fault.gpu.injected", "fault.ssd.injected"];
/// The guarded components' retry counters.
const RETRIES: [&str; 3] = [
    "fault.gpu_dedup.retries",
    "fault.gpu_compress.retries",
    "fault.ssd_write.retries",
];
/// The guarded components' latch-opening counters.
const DEGRADED: [&str; 3] = [
    "fault.gpu_dedup.degraded_transitions",
    "fault.gpu_compress.degraded_transitions",
    "fault.ssd_write.degraded_transitions",
];

/// The sum of `p`'s counters `names`.
fn sum(p: &Pipeline, names: &[&str]) -> u64 {
    names.iter().map(|name| p.obs().counter(name).get()).sum()
}

/// Runs `cfg` over the stream, counted, and returns the pipeline plus
/// every logically-reconstructed block.
fn run_and_read_back(cfg: PipelineConfig, data: &[u8]) -> (Pipeline, Vec<Vec<u8>>) {
    let mut p = Pipeline::new(counted(cfg));
    p.run(data);
    let blocks: Vec<Vec<u8>> = (0..p.ingested_chunks())
        .map(|i| p.read_block(i).expect("logical read"))
        .collect();
    (p, blocks)
}

/// The correctness invariant every fault scenario must uphold: same
/// configuration, faults on vs off, byte-identical logical contents.
fn assert_logical_contents_identical(cfg: PipelineConfig, label: &str) {
    let data = stream();
    let mut clean = cfg.clone();
    clean.ssd_spec.faults = SsdFaultSpec::default();
    clean.gpu_spec.faults = GpuFaultSpec::default();
    let (_, fault_free) = run_and_read_back(clean, &data);
    let (p, faulted) = run_and_read_back(cfg, &data);
    assert!(
        sum(&p, &INJECTED) > 0,
        "{label}: scenario injected no faults — the test proves nothing"
    );
    assert_eq!(
        faulted.len(),
        fault_free.len(),
        "{label}: block count diverged"
    );
    for (i, (a, b)) in faulted.iter().zip(&fault_free).enumerate() {
        assert_eq!(a, b, "{label}: block {i} diverged from the fault-free run");
    }
    // And both equal the original stream, not merely each other.
    for (i, original) in data.chunks(4096).enumerate() {
        assert_eq!(faulted[i], original, "{label}: block {i} lost data");
    }
}

#[test]
fn ssd_write_faults_preserve_logical_contents() {
    let mut cfg = config(IntegrationMode::CpuOnly);
    cfg.ssd_spec.faults = SsdFaultSpec {
        write_error_rate: 0.2,
        ..SsdFaultSpec::default()
    };
    assert_logical_contents_identical(cfg, "ssd-write");
}

#[test]
fn ssd_busy_and_write_faults_with_verify_preserve_logical_contents() {
    let mut cfg = config(IntegrationMode::CpuOnly);
    cfg.verify = true;
    cfg.integrity = true;
    cfg.ssd_spec.faults = SsdFaultSpec {
        write_error_rate: 0.1,
        busy_rate: 0.15,
        ..SsdFaultSpec::default()
    };
    assert_logical_contents_identical(cfg, "ssd-mixed");
}

#[test]
fn gpu_launch_faults_preserve_logical_contents() {
    let mut cfg = config(IntegrationMode::GpuForCompression);
    // Small batches: more kernel launches, hence more fault draws.
    cfg.batch_chunks = 8;
    cfg.gpu_spec.faults = GpuFaultSpec {
        launch_failure_rate: 0.5,
        ..GpuFaultSpec::default()
    };
    assert_logical_contents_identical(cfg, "gpu-launch");
}

#[test]
fn gpu_probe_timeouts_preserve_logical_contents() {
    let mut cfg = config(IntegrationMode::GpuForBoth);
    cfg.batch_chunks = 8;
    cfg.gpu_spec.faults = GpuFaultSpec {
        probe_timeout_rate: 0.25,
        ..GpuFaultSpec::default()
    };
    // Keep the GPU index exercised: flush-on-insert, tiny bins.
    cfg.index.bin_buffer_capacity = 1;
    cfg.index.prefix_bytes = 1;
    assert_logical_contents_identical(cfg, "gpu-timeout");
}

#[test]
fn lost_gpu_device_degrades_to_cpu_and_preserves_contents() {
    let mut cfg = config(IntegrationMode::GpuForBoth);
    cfg.gpu_spec.faults = GpuFaultSpec {
        device_lost_after: 1,
        ..GpuFaultSpec::default()
    };
    let data = stream();
    let (fault_free_p, fault_free) = run_and_read_back(config(IntegrationMode::GpuForBoth), &data);
    let (p, blocks) = run_and_read_back(cfg, &data);
    for (i, (a, b)) in blocks.iter().zip(&fault_free).enumerate() {
        assert_eq!(a, b, "block {i} diverged after device loss");
    }
    let report = p.report();
    // The device died and stayed dead: the pipeline must have latched
    // degraded at least once and finished the run on the CPU path.
    assert!(sum(&p, &DEGRADED) >= 1, "never latched degraded");
    assert!(
        report.gpu_kernels < fault_free_p.report().gpu_kernels,
        "a lost device cannot have served the full kernel load"
    );
}

#[test]
fn total_gpu_launch_failure_forces_degraded_mode() {
    let mut cfg = config(IntegrationMode::GpuForCompression);
    cfg.gpu_spec.faults = GpuFaultSpec {
        launch_failure_rate: 1.0,
        ..GpuFaultSpec::default()
    };
    let data = stream();
    let (p, blocks) = run_and_read_back(cfg, &data);
    let report = p.report();
    assert!(sum(&p, &DEGRADED) >= 1, "never latched degraded");
    assert!(sum(&p, &RETRIES) > 0, "no retries were attempted");
    assert_eq!(
        report.gpu_comp_batches, 0,
        "no GPU batch can complete at failure rate 1.0"
    );
    for (i, original) in data.chunks(4096).enumerate() {
        assert_eq!(blocks[i], original, "block {i} lost data");
    }
}

#[test]
fn fault_metrics_appear_in_obs_snapshots() {
    let obs = ObsHandle::enabled("fault-metrics-test");
    let mut cfg = config(IntegrationMode::GpuForCompression);
    cfg.obs = obs.clone();
    cfg.batch_chunks = 8;
    cfg.gpu_spec.faults = GpuFaultSpec {
        launch_failure_rate: 0.5,
        ..GpuFaultSpec::default()
    };
    cfg.ssd_spec.faults = SsdFaultSpec {
        write_error_rate: 0.2,
        ..SsdFaultSpec::default()
    };
    let mut p = Pipeline::new(cfg);
    p.run(&stream());
    let snap = obs.snapshot().expect("enabled handle snapshots");
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter("fault.gpu.injected") > 0, "no GPU faults counted");
    assert!(counter("fault.ssd.injected") > 0, "no SSD faults counted");
    assert!(
        counter("fault.ssd_write.retries") > 0,
        "destage write retries not counted"
    );
    assert!(
        counter("fault.gpu_compress.retries") > 0,
        "GPU compression retries not counted"
    );
}

#[test]
fn faults_cost_simulated_time() {
    // Degradation is never free: the faulted run must finish no earlier
    // than the fault-free run on the simulated clock.
    let data = stream();
    let mut clean = Pipeline::new(config(IntegrationMode::GpuForCompression));
    let clean_report = clean.run(&data);
    let mut cfg = config(IntegrationMode::GpuForCompression);
    cfg.gpu_spec.faults = GpuFaultSpec {
        launch_failure_rate: 0.5,
        ..GpuFaultSpec::default()
    };
    let mut faulty = Pipeline::new(counted(cfg));
    let faulty_report = faulty.run(&data);
    assert!(sum(&faulty, &INJECTED) > 0);
    assert!(
        faulty_report.reduction_end >= clean_report.reduction_end,
        "retries and fallbacks must not make the run faster: {:?} < {:?}",
        faulty_report.reduction_end,
        clean_report.reduction_end
    );
}

#[test]
fn cold_reads_decode_on_the_cpu_even_when_the_gpu_fails_every_launch() {
    // Cold reads decode on the CPU in every mode, so in a GPU-compression
    // mode a GPU that fails every launch costs a cold batch of the
    // stream's 48 distinct frames no retry, no latch transition and no
    // device work.
    let data = stream();
    let obs = ObsHandle::enabled("cold-reads");
    let mut cfg = config(IntegrationMode::GpuForCompression);
    cfg.obs = obs.clone();
    let mut p = Pipeline::new(cfg);
    p.run(&data);
    p.set_gpu_faults(GpuFaultSpec {
        launch_failure_rate: 1.0,
        seed: 7,
        ..GpuFaultSpec::default()
    });
    // The fault tallies, and the device's own counters: the obs mirror
    // of its `GpuStats` (launches, both transfer directions, faults).
    let tallies = |p: &Pipeline| {
        let device = [
            "gpu.kernel_launches",
            "gpu.h2d_bytes",
            "gpu.d2h_bytes",
            "fault.gpu.injected",
        ]
        .map(|name| obs.counter(name).get());
        (sum(p, &RETRIES), sum(p, &DEGRADED), device)
    };
    let before = tallies(&p);
    let all: Vec<usize> = (0..p.ingested_chunks()).collect();
    let blocks = p.read_blocks(&all).expect("cold batched read");
    assert_eq!(blocks.concat(), data);
    assert_eq!(p.report().read_cache_hits, 0, "the batch was cold");
    assert_eq!(tallies(&p), before);
}

#[test]
fn transient_ssd_read_errors_are_absorbed_by_retries() {
    let data = stream();
    let mut p = Pipeline::new(counted(config(IntegrationMode::CpuOnly)));
    p.run(&data);
    p.set_ssd_faults(SsdFaultSpec {
        read_error_rate: 0.2,
        seed: 21,
        ..SsdFaultSpec::default()
    });
    let all: Vec<usize> = (0..p.ingested_chunks()).collect();
    let blocks = p.read_blocks(&all).expect("faulted batch read");
    for (i, original) in data.chunks(4096).enumerate() {
        assert_eq!(blocks[i], original, "block {i} diverged under read faults");
    }
    assert!(sum(&p, &INJECTED) > 0, "no read faults were drawn");
    assert!(sum(&p, &RETRIES) > 0, "no read retries were charged");
}

#[test]
fn zero_fault_config_is_bit_identical_to_default() {
    // The fault layer must be invisible when disabled: explicitly zeroed
    // fault specs take the exact same code paths (no RNG draws, no timer
    // arms) as the defaults.
    let data = stream();
    for mode in IntegrationMode::ALL {
        let mut base = Pipeline::new(config(mode));
        let rb = base.run(&data);
        let mut cfg = config(mode);
        cfg.ssd_spec.faults = SsdFaultSpec::default();
        cfg.gpu_spec.faults = GpuFaultSpec::default();
        let mut explicit = Pipeline::new(counted(cfg));
        let re = explicit.run(&data);
        assert_eq!(rb.chunks, re.chunks, "{mode}");
        assert_eq!(rb.stored_bytes, re.stored_bytes, "{mode}");
        assert_eq!(rb.reduction_end, re.reduction_end, "{mode}");
        assert_eq!(rb.ssd_end, re.ssd_end, "{mode}");
        for name in INJECTED.iter().chain(&RETRIES).chain(&DEGRADED) {
            assert_eq!(explicit.obs().counter(name).get(), 0, "{mode}: {name}");
        }
        // The printed report is also byte-identical.
        assert_eq!(rb.to_string(), re.to_string(), "{mode}");
    }
}
