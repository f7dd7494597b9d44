//! Tracing must observe, never perturb: a trace-enabled run produces a
//! bit-identical report to a trace-disabled run, at every pool width and
//! in every integration mode. Spans are derived from the grants the cost
//! models hand out anyway, so recording them cannot move the simulated
//! timeline.

use inline_dr::obs::{ObsHandle, Tracer, Track};
use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig, Report};
use inline_dr::workload::{StreamConfig, StreamGenerator};

fn stream(seed: u64) -> Vec<u8> {
    StreamGenerator::new(StreamConfig {
        total_bytes: 2 << 20,
        dedup_ratio: 2.0,
        compression_ratio: 2.0,
        seed,
        ..StreamConfig::default()
    })
    .generate()
}

fn run(mode: IntegrationMode, pool_workers: usize, tracer: Tracer) -> Report {
    let obs = ObsHandle::enabled("trace-invariance").with_tracer(tracer);
    let mut pipeline = Pipeline::new(PipelineConfig {
        mode,
        pool_workers,
        obs,
        ..PipelineConfig::default()
    });
    pipeline.run(&stream(11))
}

/// The full report (every counter, every sim timestamp) must match with
/// tracing on and off, across pool widths — and the traced run must
/// actually have recorded something, so the invariance isn't vacuous.
#[test]
fn traced_runs_are_bit_identical_across_pool_widths() {
    for pool_workers in [1usize, 2, 8] {
        let baseline = run(
            IntegrationMode::GpuForCompression,
            pool_workers,
            Tracer::disabled(),
        );
        let tracer = Tracer::enabled();
        let traced = run(
            IntegrationMode::GpuForCompression,
            pool_workers,
            tracer.clone(),
        );
        assert_eq!(
            format!("{traced:?}"),
            format!("{baseline:?}"),
            "tracing changed the report at pool width {pool_workers}"
        );
        let events = tracer.sink().expect("enabled tracer has a sink").drain();
        assert!(
            !events.is_empty(),
            "traced run recorded nothing at pool width {pool_workers}"
        );
    }
}

/// Batched reads are trace-invariant too, emit spans on the read track,
/// and visibly advance the simulated read clock batch over batch.
#[test]
fn batched_reads_are_trace_invariant_and_advance_the_clock() {
    let read_back = |tracer: Tracer| {
        let obs = ObsHandle::enabled("trace-invariance").with_tracer(tracer);
        let mut pipeline = Pipeline::new(PipelineConfig {
            mode: IntegrationMode::GpuForCompression,
            obs,
            ..PipelineConfig::default()
        });
        pipeline.run(&stream(11));
        let total = pipeline.ingested_chunks();
        let mut ends = Vec::new();
        for start in (0..total).step_by(64) {
            let batch: Vec<usize> = (start..(start + 64).min(total)).collect();
            pipeline.read_blocks(&batch).expect("batched read");
            ends.push(pipeline.report().read_end);
        }
        (format!("{:?}", pipeline.report()), ends)
    };
    let (baseline, ends) = read_back(Tracer::disabled());
    let tracer = Tracer::enabled();
    let (traced, _) = read_back(tracer.clone());
    assert_eq!(traced, baseline, "tracing changed the read-path report");
    let events = tracer.sink().unwrap().drain();
    assert!(
        events.iter().any(|e| e.track == Track::Read),
        "no read spans recorded"
    );
    // Each batch costs simulated time: the read frontier strictly climbs.
    for pair in ends.windows(2) {
        assert!(pair[0] < pair[1], "read clock stalled: {pair:?}");
    }
}

/// Every integration mode stays invariant under tracing, and each mode's
/// trace covers the tracks its data path actually exercises.
#[test]
fn every_mode_is_trace_invariant_and_covers_its_tracks() {
    for mode in IntegrationMode::ALL {
        let baseline = run(mode, 2, Tracer::disabled());
        let tracer = Tracer::enabled();
        let traced = run(mode, 2, tracer.clone());
        assert_eq!(
            format!("{traced:?}"),
            format!("{baseline:?}"),
            "tracing changed the report in mode {mode}"
        );
        let events = tracer.sink().unwrap().drain();
        let has = |track: Track| events.iter().any(|e| e.track == track);
        assert!(has(Track::Chunk), "no chunk spans in mode {mode}");
        assert!(has(Track::Destage), "no destage spans in mode {mode}");
        assert!(has(Track::Ssd), "no ssd spans in mode {mode}");
        let uses_gpu = !matches!(mode, IntegrationMode::CpuOnly);
        assert_eq!(
            has(Track::GpuCompute),
            uses_gpu,
            "gpu-compute track mismatch in mode {mode}"
        );
    }
}
