//! Ablation study of the design choices called out in `DESIGN.md` §5.
//!
//! Each section isolates one knob of the paper's design and reports the
//! simulated metric it trades against:
//!
//! 1. **Prefix truncation** — index memory saved vs dedup correctness,
//! 2. **Bin-buffer capacity** — buffer hit rate vs flush frequency,
//! 3. **GPU threads-per-chunk / history size** — parallelism vs
//!    compression ratio (private histories see less context),
//! 4. **In-memory-only index budget** — memory vs missed duplicates,
//! 5. **Replacement policy** for GPU-resident bins — hit rate,
//! 6. **Operation order** — dedup-before-compression vs the reverse,
//! 7. **SSD over-provisioning** — write amplification under overwrites.

use dr_bench::{fault_tally, render_table};
use dr_binindex::{BinIndexConfig, MemoryModel, ReplacementPolicy};
use dr_compress::{Codec, FastLz, GpuCompressor, GpuCompressorConfig};
use dr_hashes::sha1_digest;
use dr_obs::{snapshots_to_json, ObsHandle, Snapshot};
use dr_reduction::{IntegrationMode, Pipeline, PipelineConfig};
use dr_workload::{StreamConfig, StreamGenerator};
use std::collections::HashSet;

/// The stream's block (and the pipeline's chunk) size.
const BLOCK: usize = 4096;

fn stream(total_bytes: u64, dedup: f64, comp: f64) -> Vec<u8> {
    StreamGenerator::new(StreamConfig {
        total_bytes,
        dedup_ratio: dedup,
        compression_ratio: comp,
        block_bytes: BLOCK,
        ..StreamConfig::default()
    })
    .generate()
}

fn prefix_truncation() {
    println!("A1: prefix truncation — index memory (4 TB store, 8 KB chunks)\n");
    let mut rows = Vec::new();
    for n in [0u64, 1, 2, 3] {
        let m = MemoryModel::new(4 << 40, 8 << 10, n);
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", m.index_bytes() as f64 / (1u64 << 30) as f64),
            format!("{:.1}", m.truncation_savings() as f64 / (1u64 << 30) as f64),
        ]);
    }
    println!(
        "{}",
        render_table(&["prefix bytes", "index GB", "saved GB"], &rows)
    );
    println!("paper: 16 GB at n=0; a 2-byte prefix saves 1 GB\n");
}

fn bin_buffer_capacity(snapshots: &mut Vec<Snapshot>) {
    println!("A2: bin-buffer capacity — hit locality vs flush traffic\n");
    let data = stream(8 << 20, 3.0, 2.0);
    let mut rows = Vec::new();
    for cap in [2usize, 8, 32, 128] {
        let obs = ObsHandle::enabled(format!("a2/buffer-cap-{cap}"));
        let mut p = Pipeline::new(PipelineConfig {
            mode: IntegrationMode::CpuOnly,
            index: BinIndexConfig {
                prefix_bytes: 1, // loaded bins at this scale
                bin_buffer_capacity: cap,
                ..BinIndexConfig::default()
            },
            obs: obs.clone(),
            ..PipelineConfig::default()
        });
        // Two passes: the re-write pass shows where duplicates resolve.
        p.run(&data);
        let r = p.run(&data);
        snapshots.push(obs.snapshot().expect("enabled"));
        rows.push(vec![
            cap.to_string(),
            r.buffer_hits.to_string(),
            r.tree_hits.to_string(),
            r.bin_flushes.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["capacity", "buffer hits", "tree hits", "flushes"], &rows)
    );
    println!("(bigger buffers keep hits in the cheap buffer path but flush less sequentially)\n");
}

fn gpu_kernel_shape() {
    println!("A3: GPU threads-per-chunk and history size vs compression ratio\n");
    // A chunk with *long-range* structure: a ~600-byte phrase repeated.
    // Matches only exist at distance ~600, so private histories shorter
    // than that (or region splits) lose them — the paper's trade.
    let phrase = dr_workload::synthesize_block(7, 600, 1.0);
    let chunk: Vec<u8> = phrase.iter().cycle().take(4096).copied().collect();
    let whole = FastLz::new().compress(&chunk).len();
    let mut rows = Vec::new();
    for threads in [1usize, 4, 8, 16, 32] {
        for history in [128usize, 768] {
            let comp = GpuCompressor::new(GpuCompressorConfig {
                threads_per_chunk: threads,
                history,
            });
            let len = comp.compress_functional(&chunk).len();
            rows.push(vec![
                threads.to_string(),
                history.to_string(),
                format!("{:.2}", 4096.0 / len as f64),
                format!("{:+.1}%", (len as f64 / whole as f64 - 1.0) * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["threads/chunk", "history B", "ratio", "size vs whole-chunk"],
            &rows
        )
    );
    println!("(more threads = more GPU parallelism, less shared history = worse ratio)\n");
}

fn in_memory_budget() {
    println!("A4: in-memory-only index budget vs missed duplicates\n");
    let data = stream(8 << 20, 2.0, 2.0);
    let total = (data.len() / BLOCK) as u64;
    let true_unique = data
        .chunks(BLOCK)
        .map(sha1_digest)
        .collect::<HashSet<_>>()
        .len() as u64;
    let mut rows = Vec::new();
    for budget in [u64::MAX, 1024, 512, 256] {
        let mut p = Pipeline::new(PipelineConfig {
            mode: IntegrationMode::CpuOnly,
            index: BinIndexConfig {
                max_entries: budget,
                ..BinIndexConfig::default()
            },
            ..PipelineConfig::default()
        });
        let r = p.run(&data);
        let missed = r.unique_chunks - true_unique;
        rows.push(vec![
            if budget == u64::MAX {
                "unbounded".into()
            } else {
                budget.to_string()
            },
            r.unique_chunks.to_string(),
            missed.to_string(),
            format!("{:.1}%", missed as f64 / total as f64 * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["entry budget", "stored unique", "missed dups", "miss rate"],
            &rows
        )
    );
    println!("paper: misses are tolerated (\"that is not a big deal\") to avoid disk-resident index I/O\n");
}

fn replacement_policy(snapshots: &mut Vec<Snapshot>) {
    println!("A5: GPU bin replacement policy vs GPU hit rate\n");
    let data = stream(8 << 20, 2.0, 2.0);
    let mut rows = Vec::new();
    for policy in [
        ReplacementPolicy::Random,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Lru,
    ] {
        let obs = ObsHandle::enabled(format!("a5/{policy:?}"));
        let mut p = Pipeline::new(PipelineConfig {
            obs: obs.clone(),
            mode: IntegrationMode::GpuForDedup,
            index: BinIndexConfig {
                prefix_bytes: 1, // 256 bins, so 64 GPU slots are scarce
                bin_buffer_capacity: 2,
                ..BinIndexConfig::default()
            },
            gpu_index: dr_binindex::GpuBinIndexConfig {
                bin_slots: 64, // scarce slots make the policy matter
                policy,
                ..dr_binindex::GpuBinIndexConfig::default()
            },
            ..PipelineConfig::default()
        });
        // Two passes: populate, then measure re-write hits.
        p.run(&data);
        let r = p.run(&data);
        snapshots.push(obs.snapshot().expect("enabled"));
        let rate = if r.gpu_index_queries == 0 {
            0.0
        } else {
            r.gpu_index_hits as f64 / r.gpu_index_queries as f64 * 100.0
        };
        rows.push(vec![
            format!("{policy:?}"),
            r.gpu_index_queries.to_string(),
            r.gpu_index_hits.to_string(),
            format!("{rate:.1}%"),
        ]);
    }
    println!(
        "{}",
        render_table(&["policy", "gpu queries", "gpu hits", "hit rate"], &rows)
    );
    println!("paper: \"currently, random based replacement policy is applied\"\n");
}

fn operation_order() {
    println!("A6: dedup-before-compression vs compression-before-dedup\n");
    let data = stream(8 << 20, 2.0, 2.0);
    let codec = FastLz::new();

    // Dedup-first (the paper's order): compress only unique chunks.
    let mut seen = HashSet::new();
    let mut dedup_first_bytes = 0u64;
    let mut dedup_first_compressions = 0u64;
    for b in data.chunks(BLOCK) {
        if seen.insert(sha1_digest(b)) {
            dedup_first_bytes += codec.compress(b).len() as u64;
            dedup_first_compressions += 1;
        }
    }

    // Compression-first: compress everything, dedup the compressed frames.
    let mut seen_c = HashSet::new();
    let mut comp_first_bytes = 0u64;
    let comp_first_compressions = (data.len() / BLOCK) as u64;
    for b in data.chunks(BLOCK) {
        let f = codec.compress(b);
        if seen_c.insert(sha1_digest(&f)) {
            comp_first_bytes += f.len() as u64;
        }
    }

    let raw = data.len() as u64;
    let rows = vec![
        vec![
            "dedup -> compress".into(),
            format!("{:.2}x", raw as f64 / dedup_first_bytes as f64),
            dedup_first_compressions.to_string(),
        ],
        vec![
            "compress -> dedup".into(),
            format!("{:.2}x", raw as f64 / comp_first_bytes as f64),
            comp_first_compressions.to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(&["order", "reduction ratio", "codec invocations"], &rows)
    );
    println!("paper (after Constantinescu et al.): dedup-before-compression — same or better ratio, strictly less codec work\n");
}

fn ssd_overprovisioning() {
    use dr_des::{SimTime, SplitMix64};
    use dr_ssd_sim::{SsdDevice, SsdSpec};

    println!("A7: SSD write amplification vs over-provisioning (uniform overwrites, 90% full)\n");
    let mut rows = Vec::new();
    for op in [0.12f64, 0.2, 0.3] {
        let spec = SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 64,
            pages_per_block: 32,
            over_provisioning: op,
            store_data: false,
            ..SsdSpec::samsung_830_256g()
        };
        let mut ssd = SsdDevice::new(spec);
        // The device is 90% full; uniform overwrites spread invalidations
        // evenly, the worst case for greedy GC.
        let working_set = ssd.logical_pages() * 9 / 10;
        // Only the addresses matter: the device keeps no payloads.
        let page = vec![0u8; ssd.spec().page_bytes as usize];
        let mut rng = SplitMix64::new(0x7ACE);
        // Several overwrite rounds.
        for _ in 0..working_set * 8 {
            ssd.write_page(SimTime::ZERO, rng.next_below(working_set), &page)
                .expect("write");
        }
        let stats = ssd.ftl_stats();
        rows.push(vec![
            format!("{:.0}%", op * 100.0),
            format!("{:.2}", stats.write_amplification()),
            stats.erases.to_string(),
            format!("{:.1}%", ssd.endurance_consumed() * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["over-provisioning", "write amp", "erases", "endurance used"],
            &rows
        )
    );
    println!("(more spare blocks => greedier GC victims => less migration wear)\n");
}

fn gpu_bin_layout() {
    use dr_binindex::{ChunkRef, GpuBinIndex, GpuBinIndexConfig, GpuBinLayout};
    use dr_des::SimTime;
    use dr_gpu_sim::{GpuDevice, GpuSpec};

    println!("A9: GPU bin layout — linear table (paper) vs binary-search tree\n");
    let kernel_us = |layout: GpuBinLayout, entries: usize| {
        let mut device = GpuDevice::new(GpuSpec::radeon_hd_7970());
        let mut idx = GpuBinIndex::new(
            &mut device,
            GpuBinIndexConfig {
                entries_per_bin: entries,
                bin_slots: 4,
                layout,
                ..GpuBinIndexConfig::default()
            },
            2,
        )
        .expect("table fits");
        let d0 = sha1_digest(b"probe");
        let bin = d0.prefix_u64(2) as usize;
        let mut key = *d0.as_bytes();
        key[0] = 0;
        key[1] = 0;
        let table: Vec<_> = (0..entries as u64)
            .map(|i| {
                let mut k = key;
                k[12..20].copy_from_slice(&i.to_be_bytes());
                (k, ChunkRef::new(i, 1))
            })
            .collect();
        idx.install_bin(SimTime::ZERO, &mut device, bin, &table)
            .expect("install");
        let queries = vec![d0; 4096];
        let report = idx
            .lookup_batch(SimTime::ZERO, &mut device, &queries, &mut Vec::new())
            .expect("lookup");
        report.kernel.timing.duration().as_secs_f64() * 1e6
    };
    let mut rows = Vec::new();
    for entries in [32usize, 64, 128, 512, 4096] {
        let linear = kernel_us(GpuBinLayout::Linear, entries);
        let tree = kernel_us(GpuBinLayout::Tree, entries);
        rows.push(vec![
            entries.to_string(),
            format!("{linear:.1}"),
            format!("{tree:.1}"),
            if linear <= tree {
                "linear".into()
            } else {
                "tree".into()
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &["entries/bin", "linear (us)", "tree (us)", "winner"],
            &rows
        )
    );
    println!(
        "paper: \"we organize one bin into a linear table structure rather than a tree\" — \
         correct at primary-storage bin sizes; binary search only pays off on much larger tables.\n"
    );
}

fn degradation_policy(snapshots: &mut Vec<Snapshot>) {
    use dr_gpu_sim::GpuFaultSpec;
    use dr_ssd_sim::SsdFaultSpec;

    println!("A10: fault injection — graceful degradation (DESIGN.md section 10)\n");
    let flat = stream(8 << 20, 2.0, 2.0);
    let scenarios: &[(&str, SsdFaultSpec, GpuFaultSpec)] = &[
        (
            "fault-free",
            SsdFaultSpec::default(),
            GpuFaultSpec::default(),
        ),
        (
            "ssd-write-5pct",
            SsdFaultSpec {
                write_error_rate: 0.05,
                ..SsdFaultSpec::default()
            },
            GpuFaultSpec::default(),
        ),
        (
            "gpu-launch-30pct",
            SsdFaultSpec::default(),
            GpuFaultSpec {
                launch_failure_rate: 0.3,
                ..GpuFaultSpec::default()
            },
        ),
        (
            "gpu-device-lost",
            SsdFaultSpec::default(),
            GpuFaultSpec {
                device_lost_after: 4,
                ..GpuFaultSpec::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, ssd_faults, gpu_faults) in scenarios {
        let obs = ObsHandle::enabled(format!("a10/{label}"));
        let mut cfg = PipelineConfig {
            mode: IntegrationMode::GpuForBoth,
            obs: obs.clone(),
            ..PipelineConfig::default()
        };
        cfg.ssd_spec.faults = ssd_faults.clone();
        cfg.gpu_spec.faults = gpu_faults.clone();
        let mut p = Pipeline::new(cfg);
        let r = p.run(&flat);
        let [injected, retries, degraded] =
            ["injected", "retries", "degraded_transitions"].map(|t| fault_tally(&obs, t));
        let intact = (0..p.ingested_chunks())
            .all(|i| p.read_block(i).ok().as_deref() == flat.chunks(BLOCK).nth(i));
        snapshots.push(obs.snapshot().expect("enabled"));
        rows.push(vec![
            (*label).into(),
            injected.to_string(),
            retries.to_string(),
            degraded.to_string(),
            format!("{:.2}x", flat.len() as f64 / r.stored_bytes as f64),
            if intact {
                "ok".into()
            } else {
                "CORRUPT".into()
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "injected",
                "retries",
                "degraded",
                "reduction",
                "contents",
            ],
            &rows
        )
    );
    println!("(reduction is best-effort under faults — logical contents are not)\n");
}

fn main() {
    println!("Ablation report for the design choices in DESIGN.md section 5\n");
    let mut snapshots = Vec::new();
    prefix_truncation();
    bin_buffer_capacity(&mut snapshots);
    gpu_kernel_shape();
    in_memory_budget();
    replacement_policy(&mut snapshots);
    operation_order();
    ssd_overprovisioning();
    gpu_bin_layout();
    degradation_policy(&mut snapshots);
    // Per-run pipeline metrics for the sections that exercise the full
    // pipeline (A2 buffer capacities, A5 replacement policies).
    dr_bench::finish("ablation_report", &snapshots_to_json(&snapshots), None);
}
