//! E1 — Preliminary experiment of Section 3.1(3): CPU vs GPU indexing.
//!
//! The paper compares the execution time of indexing the same number of
//! hash-table entries on the CPU and on the GPU, and finds **CPU 4.16 to
//! 5.45 times faster** — the fixed kernel-launch time dominates small
//! batches, which is why the design uses the GPU for indexing only as a
//! co-processor when the CPU is saturated.
//!
//! This harness populates identical CPU and GPU bin indexes, probes them
//! with batches of varying size, and reports per-batch execution time on
//! each device plus the CPU-advantage ratio.

use dr_bench::render_table;
use dr_binindex::{BinIndex, BinIndexConfig, ChunkRef, GpuBinIndex, GpuBinIndexConfig};
use dr_des::SimTime;
use dr_gpu_sim::{GpuDevice, GpuSpec};
use dr_hashes::{sha1_digest, ChunkDigest};
use dr_obs::ObsHandle;

fn main() {
    let entries_per_bin = 512usize;
    let cpu_model = dr_reduction::CpuModel::I7_3770K;
    let obs = ObsHandle::enabled("e1");

    // Identical entry populations on both devices (the paper's condition).
    let mut cpu_index = BinIndex::new(BinIndexConfig {
        prefix_bytes: 1,
        bin_buffer_capacity: usize::MAX >> 1, // keep everything in buffers
        ..BinIndexConfig::default()
    });
    let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
    gpu.set_obs(&obs);
    let mut gpu_index = GpuBinIndex::new(
        &mut gpu,
        GpuBinIndexConfig {
            entries_per_bin,
            bin_slots: 256,
            ..GpuBinIndexConfig::default()
        },
        cpu_index.router().prefix_bytes(),
    )
    .expect("GPU table fits");

    // Populate: `entries_per_bin` entries spread over all 256 bins.
    let population = entries_per_bin * 256;
    let mut per_bin: Vec<Vec<(dr_binindex::BinKey, ChunkRef)>> = vec![Vec::new(); 256];
    let mut digests: Vec<ChunkDigest> = Vec::with_capacity(population);
    for i in 0..population as u64 {
        let d = sha1_digest(&i.to_le_bytes());
        let r = ChunkRef::new(i * 4096, 4096);
        cpu_index.insert(d, r);
        let bin = cpu_index.router().route(&d);
        per_bin[bin].push((cpu_index.key_of(&d), r));
        digests.push(d);
    }
    for (bin, entries) in per_bin.iter().enumerate() {
        gpu_index
            .install_bin(SimTime::ZERO, &mut gpu, bin, entries)
            .expect("install");
    }

    println!("E1: indexing execution time, CPU (8 workers) vs GPU (HD 7970)");
    println!("    {population} entries resident on both devices\n");

    let mut rows = Vec::new();
    let mut band: Vec<f64> = Vec::new();
    for batch in [8usize, 12, 16, 20, 24, 32, 48, 64, 128, 256] {
        let queries: Vec<ChunkDigest> = digests.iter().step_by(7).take(batch).copied().collect();

        // CPU: each probe pays buffer scan + (here) no tree; use the full
        // probe cost (buffer + tree) as in the pipeline's miss path, spread
        // over the workers.
        let per_probe = cpu_model.buffer_probe_cost() + cpu_model.tree_probe_cost();
        let cpu_us = (per_probe.as_nanos() as f64 * queries.len() as f64)
            / cpu_model.workers as f64
            / 1000.0;

        // GPU: one batched kernel; execution time from the device model.
        gpu.reset_timeline();
        let report = gpu_index
            .lookup_batch(SimTime::ZERO, &mut gpu, &queries, &mut Vec::new())
            .expect("lookup");
        let gpu_us = report.done.as_secs_f64() * 1e6;

        let ratio = gpu_us / cpu_us;
        if (4.0..=5.6).contains(&ratio) {
            band.push(ratio);
        }
        rows.push(vec![
            batch.to_string(),
            format!("{cpu_us:.1}"),
            format!("{gpu_us:.1}"),
            format!("{ratio:.2}x"),
        ]);
    }
    println!(
        "{}",
        render_table(&["batch", "cpu (us)", "gpu (us)", "cpu advantage"], &rows)
    );
    println!("paper: CPU 4.16x - 5.45x faster (launch latency floor)");
    if band.is_empty() {
        println!("measured: the paper's band is crossed between the batch sizes above");
    } else {
        println!(
            "measured: batches landing inside the paper's band: {}",
            band.iter()
                .map(|r| format!("{r:.2}x"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    // Device-side metrics for the GPU probes (kernel launches, batch
    // sizes, transfer volume).
    let snap = obs.snapshot().expect("enabled handle snapshots");
    dr_bench::finish("e1_indexing_cpu_vs_gpu", &snap.to_json(), None);
}
