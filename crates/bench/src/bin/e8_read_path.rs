//! E8 — read path: batched reads and the decompressed-chunk cache.
//!
//! The paper's evaluation is write-side; primary storage still has to
//! serve the data back. This harness measures the read pipeline:
//!
//! * **cold bulk** — batched reads sweep the whole working set with
//!   nothing cached; each frame decodes on a simulated CPU worker as soon
//!   as its pages are in, in every mode.
//! * **hot Zipf** — small skewed re-read batches, absorbed by the
//!   decompressed-chunk cache.
//!
//! A final pass drives the balanced read/write mix from `dr-workload` so
//! reads race freshly destaged frames. `--parity-check` instead verifies
//! the tentpole invariant — batched reads are bit-identical to a serial
//! `read` loop across pool widths, in a CPU-only and a GPU-compression
//! mode, on a read clock the pool width does not move — and exits
//! non-zero on any divergence.

use dr_bench::{kiops, render_table, scale, Trace};
use dr_obs::{snapshots_to_json, ObsHandle, Snapshot, Tracer};
use dr_reduction::{IntegrationMode, PipelineConfig, Report, VolumeManager};
use dr_workload::{RwBurst, RwMixConfig, RwMixGenerator, ZipfSampler};

const VOL: &str = "vol";
const CHUNK: usize = 4096;
/// Cold-pass batch size.
const COLD_BATCH: u64 = 32;
/// Hot-pass batch size.
const HOT_BATCH: u64 = 8;

fn manager(mode: IntegrationMode, pool_workers: usize, obs: ObsHandle) -> VolumeManager {
    VolumeManager::new(PipelineConfig {
        mode,
        pool_workers,
        obs,
        ..PipelineConfig::default()
    })
}

/// The parity modes: the write path differs (CPU or GPU compression,
/// so different frames), the read path is the same.
const PARITY_MODES: [IntegrationMode; 2] =
    [IntegrationMode::CpuOnly, IntegrationMode::GpuForCompression];

/// Writes the full working set (sequential bursts, dedup-able content)
/// and destages it, so every subsequent read is served from the SSD.
fn populate(vm: &mut VolumeManager, blocks: u64, seed: u64) {
    vm.create_volume(VOL, blocks).expect("fresh volume");
    let gen = RwMixGenerator::new(RwMixConfig {
        blocks,
        bursts: blocks.div_ceil(COLD_BATCH),
        burst_blocks: COLD_BATCH,
        read_fraction: 0.0,
        seed,
        ..RwMixConfig::default()
    });
    for burst in gen.bursts() {
        match burst {
            RwBurst::Write { block, data } => {
                vm.write(VOL, block, &data).expect("populate write");
            }
            RwBurst::Read { .. } => unreachable!("write-only mix"),
        }
    }
    vm.pipeline_mut().flush().expect("destage working set");
}

/// Simulated seconds the pass spent reading: the read clock starts each
/// batch no earlier than `before`'s write/read frontier.
fn pass_secs(before: &Report, after: &Report) -> f64 {
    let start = before.read_end.max(before.reduction_end);
    after
        .read_end
        .saturating_duration_since(start)
        .as_secs_f64()
}

struct ModeRun {
    cold_iops: f64,
    hot_iops: f64,
    mixed_reads: u64,
    cache_hits: u64,
    p99_us: f64,
    snapshot: Snapshot,
}

fn run_mode(mode: IntegrationMode, blocks: u64, tracer: Tracer) -> ModeRun {
    let obs = ObsHandle::enabled(format!("e8/{mode}")).with_tracer(tracer);
    let mut vm = manager(mode, dr_pool::default_workers(), obs.clone());
    populate(&mut vm, blocks, 0xE8);

    // Cold bulk sweep: every frame decoded exactly once, batches wide
    // enough for the GPU arm.
    let before = vm.report().clone();
    for start in (0..blocks).step_by(COLD_BATCH as usize) {
        let batch: Vec<u64> = (start..(start + COLD_BATCH).min(blocks)).collect();
        vm.read_batch(VOL, &batch).expect("cold read");
    }
    let after_cold = vm.report().clone();
    let cold_iops = (after_cold.reads - before.reads) as f64 / pass_secs(&before, &after_cold);

    // Hot Zipf re-reads: small batches, mostly cache hits.
    let mut zipf = ZipfSampler::new(blocks as usize, 0.99, 0xE8);
    for _ in 0..blocks / HOT_BATCH {
        let batch: Vec<u64> = (0..HOT_BATCH).map(|_| zipf.sample() as u64).collect();
        vm.read_batch(VOL, &batch).expect("hot read");
    }
    let after_hot = vm.report().clone();
    let hot_iops = (after_hot.reads - after_cold.reads) as f64 / pass_secs(&after_cold, &after_hot);

    // Balanced mix: reads interleave with overwrites of the same set.
    let mixed = RwMixGenerator::new(RwMixConfig {
        blocks,
        bursts: blocks.div_ceil(COLD_BATCH),
        burst_blocks: COLD_BATCH,
        seed: 0x8E,
        ..RwMixConfig::mixed()
    });
    for burst in mixed.bursts() {
        match burst {
            RwBurst::Write { block, data } => {
                vm.write(VOL, block, &data).expect("mixed write");
            }
            RwBurst::Read { blocks } => {
                vm.read_batch(VOL, &blocks).expect("mixed read");
            }
        }
    }
    let after_mixed = vm.report().clone();

    let snapshot = obs.snapshot().expect("enabled handle snapshots");
    let p99_ns = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name == "read.latency_sim_ns")
        .map_or(0, |(_, s)| s.p99);
    ModeRun {
        cold_iops,
        hot_iops,
        mixed_reads: after_mixed.reads - after_hot.reads,
        cache_hits: after_mixed.read_cache_hits,
        p99_us: p99_ns as f64 / 1000.0,
        snapshot,
    }
}

/// `--parity-check`: batched reads must be bit-identical to a serial
/// `read` loop, for every pool width and every [`PARITY_MODES`] entry, and
/// the simulated read clock must not depend on the pool width.
fn parity_check(blocks: u64) -> bool {
    let mut ok = true;
    for mode in PARITY_MODES {
        let mut frontier = None;
        let build = |pool_workers| manager(mode, pool_workers, ObsHandle::disabled());
        for pool_workers in [1usize, 2, 4] {
            let mut batched = build(pool_workers);
            populate(&mut batched, blocks, 0xE8);
            let mut serial = build(pool_workers);
            populate(&mut serial, blocks, 0xE8);
            for start in (0..blocks).step_by(COLD_BATCH as usize) {
                let range: Vec<u64> = (start..(start + COLD_BATCH).min(blocks)).collect();
                let got = batched.read_batch(VOL, &range).expect("batched read");
                for (&block, bytes) in range.iter().zip(&got) {
                    let want = serial.read(VOL, block).expect("serial read");
                    if bytes != &want {
                        println!(
                            "parity: FAIL {mode} pool={pool_workers} block {block}: \
                             batched read diverged from serial"
                        );
                        ok = false;
                    }
                }
            }
            let read_end = batched.report().read_end;
            match frontier {
                None => frontier = Some(read_end),
                Some(t) if t != read_end => {
                    println!(
                        "parity: FAIL {mode} pool={pool_workers}: read clock {:?} \
                         differs from width-1 clock {t:?}",
                        read_end
                    );
                    ok = false;
                }
                Some(_) => {}
            }
        }
    }
    ok
}

fn main() {
    let blocks = (1024.0 * scale()) as u64;
    if std::env::args().any(|a| a == "--parity-check") {
        // A smaller set is plenty: parity is structural, not statistical.
        if parity_check(blocks.min(256)) {
            println!(
                "parity: ok (batched == serial, pool widths 1/2/4, cpu-only + gpu-compression)"
            );
            return;
        }
        std::process::exit(1);
    }

    let trace = Trace::from_args();

    println!(
        "E8: read path ({} MB working set, cold {}-block batches, hot zipf {}-block batches)\n",
        blocks * CHUNK as u64 / (1 << 20),
        COLD_BATCH,
        HOT_BATCH
    );
    let cpu = run_mode(IntegrationMode::CpuOnly, blocks, Tracer::disabled());
    // Trace only the GPU-assisted run: both runs start their sim clocks at
    // zero, so a combined trace would overlay the two timelines.
    let gpu = run_mode(IntegrationMode::GpuForCompression, blocks, trace.tracer());

    let row = |name: &str, r: &ModeRun| {
        vec![
            name.into(),
            kiops(r.cold_iops),
            kiops(r.hot_iops),
            r.mixed_reads.to_string(),
            r.cache_hits.to_string(),
            format!("{:.1}", r.p99_us),
        ]
    };
    println!(
        "{}",
        render_table(
            &[
                "mode",
                "cold IOPS",
                "hot IOPS",
                "mixed reads",
                "cache hits",
                "p99 us"
            ],
            &[row("cpu-only", &cpu), row("cpu+gpu", &gpu)]
        )
    );
    println!(
        "cold batches decode on the cpu in every mode: gpu lz decode pays only over many \
         independent streams without serial back-reference chains, not for a batch of \
         <= {COLD_BATCH} frames of 4 KB.\nthe chunk cache absorbs hot zipf repeats."
    );
    dr_bench::finish(
        "e8_read_path",
        &snapshots_to_json(&[cpu.snapshot, gpu.snapshot]),
        Some(&trace),
    );
}
