//! Fault-injection integration suite: with *any* seeded fault schedule,
//! the reconstructed logical volume contents must be byte-identical to the
//! fault-free run — reduction is best-effort, correctness is not — and
//! with faults disabled the simulated results must be bit-identical to a
//! build without the fault layer at all.

use inline_dr::des::SimDuration;
use inline_dr::gpu_sim::GpuFaultSpec;
use inline_dr::obs::{ObsHandle, Tracer, Track};
use inline_dr::reduction::{DegradePolicy, IntegrationMode, Pipeline, PipelineConfig, Report};
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

/// Runs `cfg` over the stream and returns the pipeline plus every
/// logically-reconstructed block.
fn run_and_read_back(cfg: PipelineConfig, data: &[u8]) -> (Pipeline, Vec<Vec<u8>>) {
    let mut p = Pipeline::new(cfg);
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
        p.report().faults_injected > 0,
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
    assert!(report.degraded_transitions >= 1, "never latched degraded");
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
    assert!(report.degraded_transitions >= 1, "never latched degraded");
    assert!(report.fault_retries > 0, "no retries were attempted");
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
    let report = p.report();
    assert_eq!(
        report.faults_injected,
        counter("fault.gpu.injected") + counter("fault.ssd.injected"),
        "report and obs disagree on injected faults"
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
    let mut faulty = Pipeline::new(cfg);
    let faulty_report = faulty.run(&data);
    assert!(faulty_report.faults_injected > 0);
    assert!(
        faulty_report.reduction_end >= clean_report.reduction_end,
        "retries and fallbacks must not make the run faster: {:?} < {:?}",
        faulty_report.reduction_end,
        clean_report.reduction_end
    );
}

#[test]
fn cold_reads_decode_on_the_cpu_even_when_the_gpu_fails_every_launch() {
    // A GPU-compression mode on one simulated CPU worker: a cold batch of
    // the stream's 48 distinct frames queues deep on the CPU, where an
    // idle GPU would finish it first. Cold reads decode on the CPU in
    // every mode, so a GPU that fails every launch costs them no retry,
    // no latch transition and no device work.
    let data = stream();
    let obs = ObsHandle::enabled("cold-reads");
    let mut cfg = config(IntegrationMode::GpuForCompression);
    cfg.cpu.workers = 1;
    cfg.obs = obs.clone();
    let mut p = Pipeline::new(cfg);
    p.run(&data);
    p.set_gpu_faults(GpuFaultSpec {
        launch_failure_rate: 1.0,
        seed: 7,
        ..GpuFaultSpec::default()
    });
    // The report's fault tallies, and the device's own counters: the obs
    // mirror of its `GpuStats` (launches, both transfer directions, faults).
    let tallies = |p: &Pipeline| {
        let r = p.report();
        let device = [
            "gpu.kernel_launches",
            "gpu.h2d_bytes",
            "gpu.d2h_bytes",
            "fault.gpu.injected",
        ]
        .map(|name| obs.counter(name).get());
        (r.fault_retries, r.degraded_transitions, device)
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
    let mut p = Pipeline::new(config(IntegrationMode::CpuOnly));
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
    let report = p.report();
    assert!(report.faults_injected > 0, "no read faults were drawn");
    assert!(report.fault_retries > 0, "no read retries were charged");
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
        let mut explicit = Pipeline::new(cfg);
        let re = explicit.run(&data);
        assert_eq!(rb.chunks, re.chunks, "{mode}");
        assert_eq!(rb.stored_bytes, re.stored_bytes, "{mode}");
        assert_eq!(rb.reduction_end, re.reduction_end, "{mode}");
        assert_eq!(rb.ssd_end, re.ssd_end, "{mode}");
        assert_eq!(re.faults_injected, 0, "{mode}");
        assert_eq!(re.fault_retries, 0, "{mode}");
        assert_eq!(re.degraded_transitions, 0, "{mode}");
        // The printed report is also byte-identical (no fault line).
        assert_eq!(rb.to_string(), re.to_string(), "{mode}");
    }
}

// ---------------------------------------------------------------------------
// Fault-track conformance: for every guarded component the fault-track
// instants, the `fault.*` counters and the report tallies must tell the
// same story, and tracing must not perturb a faulted run.

/// What one faulted scenario left behind, traced.
struct FaultedRun {
    report: Report,
    /// Fault-track event names, in emission order.
    fault_track: Vec<String>,
    counters: Vec<(String, u64)>,
}

impl FaultedRun {
    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn instants(&self, name: &str) -> u64 {
        self.fault_track.iter().filter(|n| *n == name).count() as u64
    }
}

/// Drives `cfg` through `drive` twice — tracer off, tracer on — requires
/// the two reports to be equal, and returns the traced run.
fn run_faulted_traced(cfg: &PipelineConfig, drive: impl Fn(&mut Pipeline)) -> FaultedRun {
    let run = |tracer: Tracer| {
        let obs = ObsHandle::enabled("fault-track").with_tracer(tracer);
        let mut p = Pipeline::new(PipelineConfig {
            obs: obs.clone(),
            ..cfg.clone()
        });
        drive(&mut p);
        (
            p.report().clone(),
            obs.snapshot().expect("enabled").counters,
        )
    };
    let (untraced, _) = run(Tracer::disabled());
    let tracer = Tracer::enabled();
    let (report, counters) = run(tracer.clone());
    assert_eq!(
        format!("{report:?}"),
        format!("{untraced:?}"),
        "tracing changed a faulted run's report"
    );
    // Every fault instant is emitted by the driving thread, so the drain
    // preserves emission order within the fault track.
    let fault_track = tracer
        .sink()
        .expect("enabled tracer has a sink")
        .drain()
        .into_iter()
        .filter(|e| e.track == Track::Fault)
        .map(|e| e.name.into_owned())
        .collect();
    FaultedRun {
        report,
        fault_track,
        counters,
    }
}

/// The per-component contract. `track` is the fault-track prefix
/// (`gpu-dedup`), `metric` the counter infix (`gpu_dedup`), and
/// `retry_instants` every instant name that tallies on the component's
/// retry counter. The scenario must fault this component only, so its
/// share of the report tallies is the whole of them.
fn assert_component_conforms(run: &FaultedRun, track: &str, metric: &str, retry_instants: &[&str]) {
    let retries: u64 = retry_instants.iter().map(|n| run.instants(n)).sum();
    assert!(retries > 0, "{track}: scenario never retried");
    assert_eq!(
        retries,
        run.counter(&format!("fault.{metric}.retries")),
        "{track}: retry instants vs counter"
    );
    assert_eq!(
        retries, run.report.fault_retries,
        "{track}: retry instants vs Report::fault_retries"
    );
    let (open, close) = (
        format!("{track} latch open"),
        format!("{track} latch close"),
    );
    assert_eq!(
        run.instants(&open),
        run.counter(&format!("fault.{metric}.degraded_transitions")),
        "{track}: latch-open instants vs counter"
    );
    assert_eq!(
        run.instants(&open),
        run.report.degraded_transitions,
        "{track}: latch-open instants vs Report::degraded_transitions"
    );
    // Opens and closes alternate, starting with an open.
    let mut is_open = false;
    for name in &run.fault_track {
        if *name == open {
            assert!(!is_open, "{track}: latch opened twice without a close");
            is_open = true;
        } else if *name == close {
            assert!(is_open, "{track}: latch closed while closed");
            is_open = false;
        }
    }
}

/// A degrade policy whose rest interval is short against these runs, so
/// latches re-probe and close again inside one scenario.
fn quick_reprobe() -> DegradePolicy {
    DegradePolicy {
        reprobe_interval: SimDuration::from_micros(200),
        ..DegradePolicy::default()
    }
}

#[test]
fn gpu_dedup_fault_track_matches_counters_and_report() {
    let mut cfg = config(IntegrationMode::GpuForDedup);
    cfg.batch_chunks = 4;
    cfg.compress_enabled = false;
    cfg.degrade = quick_reprobe();
    cfg.index.bin_buffer_capacity = 1;
    cfg.index.prefix_bytes = 1;
    cfg.gpu_spec.faults = GpuFaultSpec {
        launch_failure_rate: 0.55,
        seed: 3,
        ..GpuFaultSpec::default()
    };
    let data = stream();
    let run = run_faulted_traced(&cfg, |p| {
        p.run(&data);
        p.run(&data);
    });
    assert_component_conforms(&run, "gpu-dedup", "gpu_dedup", &["gpu-dedup retry"]);
    assert!(run.instants("gpu-dedup latch open") > 0, "never opened");
    assert!(run.instants("gpu-dedup latch close") > 0, "never closed");
}

#[test]
fn gpu_compress_fault_track_matches_counters_and_report() {
    let mut cfg = config(IntegrationMode::GpuForCompression);
    cfg.batch_chunks = 4;
    cfg.degrade = quick_reprobe();
    cfg.gpu_spec.faults = GpuFaultSpec {
        launch_failure_rate: 0.55,
        seed: 5,
        ..GpuFaultSpec::default()
    };
    let data = stream();
    let run = run_faulted_traced(&cfg, |p| {
        p.run(&data);
    });
    assert_component_conforms(
        &run,
        "gpu-compress",
        "gpu_compress",
        &["gpu-compress retry"],
    );
    assert!(run.instants("gpu-compress latch open") > 0, "never opened");
    assert!(run.instants("gpu-compress latch close") > 0, "never closed");
}

#[test]
fn ssd_fault_track_matches_counters_and_report() {
    // One counter, two loops: page-read retries tally on
    // `fault.ssd_write.retries` next to the page-write ones.
    let mut cfg = config(IntegrationMode::CpuOnly);
    cfg.compress_enabled = false;
    cfg.dedup_enabled = false; // every block is a page write
    cfg.batch_chunks = 8;
    // The whole ingest is ~160 simulated µs of CPU time, so the latch
    // must rest far less than that to re-probe and close inside it.
    cfg.degrade = DegradePolicy {
        reprobe_interval: SimDuration::from_micros(5),
        ..DegradePolicy::default()
    };
    cfg.ssd_spec.faults = SsdFaultSpec {
        write_error_rate: 0.45,
        seed: 4,
        ..SsdFaultSpec::default()
    };
    let data = stream();
    let run = run_faulted_traced(&cfg, |p| {
        p.run(&data);
        p.set_ssd_faults(SsdFaultSpec {
            read_error_rate: 0.1,
            seed: 21,
            ..SsdFaultSpec::default()
        });
        let all: Vec<usize> = (0..p.ingested_chunks()).collect();
        let blocks = p.read_blocks(&all).expect("faulted batch read");
        assert_eq!(blocks.concat(), data);
    });
    assert_component_conforms(
        &run,
        "ssd-write",
        "ssd_write",
        &["ssd-write retry", "ssd-read retry"],
    );
    assert!(run.instants("ssd-write retry") > 0, "no write retries");
    assert!(run.instants("ssd-read retry") > 0, "no read retries");
    assert!(run.instants("ssd-write latch open") > 0, "never opened");
    assert!(run.instants("ssd-write latch close") > 0, "never closed");
}
