//! Fault-matrix gate: every (integration mode × fault scenario) run must
//! reconstruct byte-identical logical volume contents to the fault-free
//! run of the same mode.
//!
//! This is the CI face of the degradation policy (DESIGN.md §10): faults
//! are allowed to cost reduction ratio and simulated time, never data.
//! Everything is seeded and offline, so a digest mismatch is always
//! reproducible with the printed scenario name.
//!
//! Exits non-zero when any scenario diverges — or injects no faults at
//! all, since a fault-free "fault run" would prove nothing.

use dr_bench::fault_tally;
use dr_cluster::{Cluster, ClusterConfig};
use dr_gpu_sim::GpuFaultSpec;
use dr_hashes::sha1_digest;
use dr_obs::ObsHandle;
use dr_reduction::{IntegrationMode, Pipeline, PipelineConfig};
use dr_ssd_sim::{CrashSpec, SsdFaultSpec};
use dr_workload::{StreamConfig, StreamGenerator};
use std::process::ExitCode;

/// The e2/e4 workload shape at gate-friendly scale: dedup 2.0 ×
/// compression 2.0.
fn stream() -> Vec<u8> {
    StreamGenerator::new(StreamConfig {
        total_bytes: 8 << 20,
        dedup_ratio: 2.0,
        compression_ratio: 2.0,
        ..StreamConfig::default()
    })
    .blocks()
    .flatten()
    .collect()
}

struct Scenario {
    name: &'static str,
    ssd: SsdFaultSpec,
    gpu: GpuFaultSpec,
    /// GPU-fault scenarios are skipped for modes that never launch a
    /// kernel for the faulted stage.
    needs_gpu: bool,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "ssd-write-errors",
            ssd: SsdFaultSpec {
                write_error_rate: 0.1,
                seed: 7,
                ..SsdFaultSpec::default()
            },
            gpu: GpuFaultSpec::default(),
            needs_gpu: false,
        },
        Scenario {
            name: "ssd-write-and-busy",
            ssd: SsdFaultSpec {
                write_error_rate: 0.05,
                busy_rate: 0.1,
                seed: 7,
                ..SsdFaultSpec::default()
            },
            gpu: GpuFaultSpec::default(),
            needs_gpu: false,
        },
        Scenario {
            name: "gpu-launch-failures",
            ssd: SsdFaultSpec::default(),
            gpu: GpuFaultSpec {
                launch_failure_rate: 0.5,
                seed: 11,
                ..GpuFaultSpec::default()
            },
            needs_gpu: true,
        },
        Scenario {
            name: "gpu-probe-timeouts",
            ssd: SsdFaultSpec::default(),
            gpu: GpuFaultSpec {
                probe_timeout_rate: 0.4,
                seed: 11,
                ..GpuFaultSpec::default()
            },
            needs_gpu: true,
        },
        Scenario {
            name: "gpu-device-lost",
            ssd: SsdFaultSpec::default(),
            gpu: GpuFaultSpec {
                device_lost_after: 2,
                ..GpuFaultSpec::default()
            },
            needs_gpu: true,
        },
        Scenario {
            name: "everything-at-once",
            ssd: SsdFaultSpec {
                write_error_rate: 0.05,
                busy_rate: 0.05,
                seed: 7,
                ..SsdFaultSpec::default()
            },
            gpu: GpuFaultSpec {
                launch_failure_rate: 0.3,
                probe_timeout_rate: 0.2,
                seed: 11,
                ..GpuFaultSpec::default()
            },
            needs_gpu: false, // SSD faults fire in every mode
        },
    ]
}

/// SHA-1 over the per-block digests of the reconstructed logical volume:
/// one compact fingerprint of every byte the pipeline stored.
fn volume_digest(p: &mut Pipeline) -> dr_hashes::ChunkDigest {
    let mut acc = Vec::new();
    for i in 0..p.ingested_chunks() {
        let block = p.read_block(i).expect("logical read");
        acc.extend_from_slice(sha1_digest(&block).as_bytes());
    }
    sha1_digest(&acc)
}

/// Runs the stream through a fresh pipeline under `ssd` and `gpu` faults;
/// returns it with the faults injected so far, read off its registry.
fn run(mode: IntegrationMode, ssd: SsdFaultSpec, gpu: GpuFaultSpec) -> (Pipeline, u64) {
    let mut cfg = PipelineConfig {
        mode,
        batch_chunks: 32, // more kernel launches => more fault draws
        obs: ObsHandle::enabled("fault-matrix"),
        ..PipelineConfig::default()
    };
    cfg.ssd_spec.faults = ssd;
    cfg.gpu_spec.faults = gpu;
    let mut p = Pipeline::new(cfg);
    p.run(&stream());
    let injected = fault_tally(p.obs(), "injected");
    (p, injected)
}

/// The cluster column's workload: small enough that three full node
/// stacks stay gate-friendly, shaped like the e2/e4 stream.
fn cluster_stream() -> Vec<u8> {
    StreamGenerator::new(StreamConfig {
        total_bytes: 2 << 20,
        dedup_ratio: 2.0,
        compression_ratio: 2.0,
        ..StreamConfig::default()
    })
    .blocks()
    .flatten()
    .collect()
}

/// SHA-1 over the per-block digests of one logical cluster volume.
fn cluster_digest(c: &mut Cluster, name: &str, blocks: u64) -> dr_hashes::ChunkDigest {
    let mut acc = Vec::new();
    for b in 0..blocks {
        let block = c.read(name, b).expect("logical cluster read");
        acc.extend_from_slice(sha1_digest(&block).as_bytes());
    }
    sha1_digest(&acc)
}

/// Cluster column: a 3-node sharded cluster with per-node seeded SSD
/// faults and one mid-run power-cut node must converge — after the
/// upper-layer resync a real system would run — to byte-identical
/// logical contents with the fault-free cluster run of the same mode.
fn cluster_column(mode: IntegrationMode, failures: &mut u32) {
    let data = cluster_stream();
    let blocks = (data.len() / 4096) as u64;
    let config = |journal: u64| ClusterConfig {
        nodes: 3,
        node: PipelineConfig {
            mode,
            batch_chunks: 32,
            journal_pages: journal,
            obs: ObsHandle::enabled("fault-matrix"),
            ..PipelineConfig::default()
        },
        ..ClusterConfig::default()
    };

    let mut clean = Cluster::new(config(0));
    clean.create_volume("cm", blocks).unwrap();
    clean.write("cm", 0, &data).unwrap();
    let want = cluster_digest(&mut clean, "cm", blocks);

    // Faulted run: every node draws its own seeded transient-fault
    // stream (seed 7 ^ node id), and one member is power-cut mid-run.
    let mut faulted = Cluster::new(config(1024));
    for id in faulted.node_ids() {
        let node = faulted.node_mut(id).expect("member");
        node.vm.pipeline_mut().set_ssd_faults(SsdFaultSpec {
            write_error_rate: 0.05,
            busy_rate: 0.05,
            seed: 7 ^ u64::from(id),
            ..SsdFaultSpec::default()
        });
    }
    faulted.create_volume("cm", blocks).unwrap();
    let half = (blocks / 2) as usize * 4096;
    faulted.write("cm", 0, &data[..half]).unwrap();
    let victim = faulted.node_ids()[1];
    let recovery = match faulted.crash_node(victim, 7) {
        Ok(r) => r,
        Err(e) => {
            *failures += 1;
            println!("  {mode:<16} cluster-node-faults    RECOVERY FAILED: {e}");
            return;
        }
    };
    faulted.write("cm", blocks / 2, &data[half..]).unwrap();
    // Upper-layer resync: rewrite the whole stream; dedup makes the
    // surviving blocks cheap and the lost/reverted ones come back.
    faulted.write("cm", 0, &data).unwrap();

    let injected: u64 = faulted
        .node_ids()
        .into_iter()
        .map(|id| fault_tally(&faulted.node(id).expect("member").obs, "injected"))
        .sum();
    let got = cluster_digest(&mut faulted, "cm", blocks);
    let verdict = if injected == 0 {
        *failures += 1;
        "NO FAULTS INJECTED"
    } else if got != want {
        *failures += 1;
        "DIGEST MISMATCH"
    } else if let Err(e) = faulted.check_integrity() {
        *failures += 1;
        println!("    integrity: {e}");
        "INTEGRITY VIOLATION"
    } else {
        "ok"
    };
    let mode_name = mode.to_string();
    println!(
        "  {mode_name:<16} {:<22} injected={injected:<6} cut-lost={:<4} cut-reverted={:<3} {verdict}",
        "cluster-node-faults",
        recovery.lost.len(),
        recovery.reverted.len(),
    );
}

fn main() -> ExitCode {
    println!("Fault matrix: logical-volume digest, faulted vs fault-free\n");
    let mut failures = 0u32;
    for mode in IntegrationMode::ALL {
        let (mut clean, _) = run(mode, SsdFaultSpec::default(), GpuFaultSpec::default());
        let want = volume_digest(&mut clean);
        for s in scenarios() {
            if s.needs_gpu && mode == IntegrationMode::CpuOnly {
                continue;
            }
            let (mut p, injected) = run(mode, s.ssd, s.gpu);
            let got = volume_digest(&mut p);
            let verdict = if injected == 0 {
                failures += 1;
                "NO FAULTS INJECTED"
            } else if got != want {
                failures += 1;
                "DIGEST MISMATCH"
            } else {
                "ok"
            };
            let mode_name = mode.to_string();
            println!(
                "  {mode_name:<16} {:<22} injected={injected:<6} retries={:<5} degraded={:<3} {verdict}",
                s.name,
                fault_tally(p.obs(), "retries"),
                fault_tally(p.obs(), "degraded_transitions"),
            );
        }
        // Crash column: journal on, power cut at the acknowledged horizon,
        // recovery replay — the recovered volume must digest identically
        // to the fault-free run (everything was acknowledged, so
        // everything must survive).
        let mut cfg = PipelineConfig {
            mode,
            batch_chunks: 32,
            journal_pages: 1024,
            ..PipelineConfig::default()
        };
        cfg.ssd_spec.faults = SsdFaultSpec {
            write_error_rate: 0.05,
            seed: 7,
            ..SsdFaultSpec::default()
        };
        let mut p = Pipeline::new(cfg);
        p.run(&stream());
        let at = p.last_ack();
        match p.power_cut_and_recover(CrashSpec { at, torn_seed: 7 }) {
            Ok(outcome) => {
                let got = volume_digest(&mut p);
                let verdict = if got != want {
                    failures += 1;
                    "DIGEST MISMATCH"
                } else if outcome.records_replayed == 0 {
                    failures += 1;
                    "NO RECORDS REPLAYED"
                } else {
                    "ok"
                };
                let mode_name = mode.to_string();
                println!(
                    "  {mode_name:<16} {:<22} replayed={:<6} chunks={:<6} torn={:<5} {verdict}",
                    "power-cut-replay",
                    outcome.records_replayed,
                    outcome.chunks_recovered,
                    outcome.torn_discarded,
                );
            }
            Err(e) => {
                failures += 1;
                println!("  {mode:<16} power-cut-replay       RECOVERY FAILED: {e}");
            }
        }
        cluster_column(mode, &mut failures);
    }
    if failures > 0 {
        println!("\nfault matrix FAILED: {failures} scenario(s) diverged");
        return ExitCode::FAILURE;
    }
    println!("\nfault matrix passed: contents identical under every fault schedule");
    ExitCode::SUCCESS
}
