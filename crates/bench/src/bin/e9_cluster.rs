//! E9 — cluster scale-out: the sharded multi-node reduction cluster
//! under a zipf-skewed client population.
//!
//! The paper evaluates one node; `dr-cluster` shards the bin space over
//! several full single-node stacks with a rendezvous-hash router. This
//! harness sweeps node counts 1/2/4/8 over *identical* client traffic and
//! reports aggregate throughput (total chunks over the slowest node's
//! simulated makespan), cluster-wide dedup, and the rolled-up read p99.
//!
//! Two invariants are enforced on every run, not just measured:
//!
//! * **routing invisibility** — the logical read-back digest must be
//!   bit-identical across all node counts; sharding may move bytes, never
//!   change them.
//! * **single-node parity** — a 1-node cluster must read back
//!   bit-identically to a bare `VolumeManager` fed the same traffic, with
//!   the same chunk count: the router layer adds no reduction behaviour
//!   of its own.
//!
//! Exits non-zero when either invariant fails.

use dr_bench::{kiops, render_table, scale};
use dr_cluster::{Cluster, ClusterConfig};
use dr_hashes::{sha1_digest, ChunkDigest};
use dr_obs::{snapshots_to_json, ObsHandle, Snapshot};
use dr_reduction::{IntegrationMode, PipelineConfig, VolumeManager};
use dr_workload::{ClientPopulation, ClientWrite, PopulationConfig};

const VOL: &str = "pop";
const NODE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Passes over the population's block space; rewrites and cross-client
/// duplicates are what give the cluster-wide dedup domain work to do.
const PASSES: u64 = 4;

/// Materialises the client traffic once; every cluster (and the bare
/// array) replays exactly this sequence.
fn traffic(clients: usize) -> (Vec<ClientWrite>, u64) {
    let mut pop = ClientPopulation::new(PopulationConfig {
        clients,
        seed: 0xE9,
        ..PopulationConfig::default()
    });
    let blocks = pop.volume_blocks();
    let writes = (0..blocks * PASSES).map(|_| pop.next_write()).collect();
    (writes, blocks)
}

fn node_config(mode: IntegrationMode, nodes: usize) -> PipelineConfig {
    PipelineConfig {
        mode,
        // The host's cores are split across the simulated nodes: scaling
        // out does not conjure extra compute. Host threads never show in
        // the table, which is simulated (`scripts/ci.sh` runs it at two
        // pool widths).
        pool_workers: (dr_pool::default_workers() / nodes).max(1),
        obs: ObsHandle::enabled("e9"),
        ..PipelineConfig::default()
    }
}

/// SHA-1 over the per-block digests of every written block, in block
/// order: one fingerprint of the whole logical volume. Reading it also
/// populates the read-latency histograms the p99 column reports.
fn read_back_digest(read: &mut dyn FnMut(u64) -> Vec<u8>, written: &[u64]) -> ChunkDigest {
    let mut acc = Vec::new();
    for &b in written {
        acc.extend_from_slice(sha1_digest(&read(b)).as_bytes());
    }
    sha1_digest(&acc)
}

struct ClusterRun {
    nodes: usize,
    iops: f64,
    chunks: u64,
    dedup_hits: u64,
    unique: u64,
    p99_us: f64,
    digest: ChunkDigest,
    snapshot: Snapshot,
}

fn run_cluster(
    mode: IntegrationMode,
    nodes: usize,
    writes: &[ClientWrite],
    blocks: u64,
    written: &[u64],
) -> ClusterRun {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes,
        max_nodes: nodes,
        node: node_config(mode, nodes),
    });
    cluster.create_volume(VOL, blocks).expect("fresh volume");
    for w in writes {
        cluster.write(VOL, w.block, &w.data).expect("client write");
    }
    cluster.flush().expect("destage");

    let report = cluster.report();
    // Nodes ingest concurrently; the cluster is as slow as its slowest
    // member's simulated write frontier.
    let makespan_ns = report
        .nodes
        .iter()
        .map(|(_, r)| r.reduction_end.as_nanos())
        .max()
        .unwrap_or(0);
    let secs = makespan_ns as f64 / 1e9;
    let digest = read_back_digest(
        &mut |b| cluster.read(VOL, b).expect("logical read"),
        written,
    );
    cluster.check_integrity().expect("cluster integrity");

    let snapshot = cluster.rollup();
    let p99_ns = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name == "cluster.read.latency_sim_ns")
        .map_or(0, |(_, s)| s.p99);
    ClusterRun {
        nodes,
        iops: report.chunks as f64 / secs,
        chunks: report.chunks,
        dedup_hits: report.dedup_hits,
        unique: report.unique_chunks,
        p99_us: p99_ns as f64 / 1000.0,
        digest,
        snapshot,
    }
}

/// The bare single-node array fed the same traffic: the parity baseline.
fn run_bare(
    mode: IntegrationMode,
    writes: &[ClientWrite],
    blocks: u64,
    written: &[u64],
) -> (ChunkDigest, u64) {
    let mut vm = VolumeManager::new(node_config(mode, 1));
    vm.create_volume(VOL, blocks).expect("fresh volume");
    for w in writes {
        vm.write(VOL, w.block, &w.data).expect("client write");
    }
    vm.pipeline_mut().flush().expect("destage");
    let digest = read_back_digest(&mut |b| vm.read(VOL, b).expect("logical read"), written);
    (digest, vm.report().chunks)
}

fn main() {
    let clients = ((64.0 * scale()) as usize).max(4);
    let (writes, blocks) = traffic(clients);
    let mut written: Vec<u64> = writes.iter().map(|w| w.block).collect();
    written.sort_unstable();
    written.dedup();

    let mode = IntegrationMode::GpuForBoth;
    println!(
        "E9: cluster scale-out ({mode}, {clients} clients, {} writes over {} blocks, {} touched)\n",
        writes.len(),
        blocks,
        written.len()
    );

    let runs: Vec<ClusterRun> = NODE_COUNTS
        .iter()
        .map(|&n| run_cluster(mode, n, &writes, blocks, &written))
        .collect();

    let base_iops = runs[0].iops;
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                kiops(r.iops),
                format!("{:.2}x", r.iops / base_iops),
                r.chunks.to_string(),
                r.dedup_hits.to_string(),
                r.unique.to_string(),
                format!("{:.1}", r.p99_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "nodes",
                "agg KIOPS",
                "speedup",
                "chunks",
                "dedup hits",
                "unique",
                "read p99 us"
            ],
            &rows
        )
    );

    let mut failed = false;

    // Routing invisibility: every node count reads back the same bytes.
    for r in &runs[1..] {
        if r.digest != runs[0].digest {
            println!(
                "FAIL: {}-node read-back digest diverged from the 1-node cluster",
                r.nodes
            );
            failed = true;
        }
    }
    if !failed {
        println!(
            "read-back identical across {:?} nodes (digest {})",
            NODE_COUNTS, runs[0].digest
        );
    }

    // Cross-node dedup must count each chunk exactly once: the write
    // count is conserved no matter how the bin space is sharded.
    for r in &runs[1..] {
        if r.chunks != runs[0].chunks {
            println!(
                "FAIL: {}-node cluster ingested {} chunks, 1-node ingested {}",
                r.nodes, r.chunks, runs[0].chunks
            );
            failed = true;
        }
    }

    // Single-node parity, in the CPU and full-integration arms: the
    // router in front of one node must be behaviourally invisible.
    for parity_mode in [IntegrationMode::CpuOnly, mode] {
        let one = run_cluster(parity_mode, 1, &writes, blocks, &written);
        let (bare_digest, bare_chunks) = run_bare(parity_mode, &writes, blocks, &written);
        if one.digest == bare_digest && one.chunks == bare_chunks {
            println!("parity: ok ({parity_mode}: 1-node cluster == bare volume manager)");
        } else {
            println!(
                "parity: FAIL ({parity_mode}: cluster digest {} chunks {} vs bare {} chunks {})",
                one.digest, one.chunks, bare_digest, bare_chunks
            );
            failed = true;
        }
    }

    let snapshots: Vec<Snapshot> = runs.into_iter().map(|r| r.snapshot).collect();
    dr_bench::finish("e9_cluster", &snapshots_to_json(&snapshots), None);
    if failed {
        std::process::exit(1);
    }
}
