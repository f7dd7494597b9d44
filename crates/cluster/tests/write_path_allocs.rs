//! Allocation budget of a routed single-block write.
//!
//! A cluster write fingerprints the block into the front-end's reused
//! digest list, routes it, and hands it to its home node, whose stages
//! run on the pipeline's reused per-batch lists: the GPU-index probe
//! charges its staging buffers instead of backing them, the CPU probe
//! and the intra-batch check fill kept scratch, the journal grows its
//! open page in place on the device. The refcount directory and the
//! placement map are updated in place. What is left is the
//! `WriteOutcome` the call returns, and now and then a journal page the
//! device stores for the first time. This test pins that with a counting
//! global allocator, on the shape `cluster_small_ops` drives: a
//! journaled gpu-both 4-node cluster.
//!
//! Kept to a single `#[test]` on purpose: the libtest harness runs tests
//! in one process, and a sibling test allocating concurrently would make
//! the counter racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dr_cluster::{Cluster, ClusterConfig};
use dr_reduction::{IntegrationMode, PipelineConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations one single-block duplicate write may make: its
/// `WriteOutcome`, plus room for the journal page the write may fill and
/// the device then stores under a new address.
const PER_WRITE_BOUND: u64 = 4;

#[test]
fn a_single_block_duplicate_write_allocates_at_most_four_times() {
    const WRITES: u64 = 256;
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 4,
        max_nodes: 4,
        node: PipelineConfig {
            mode: IntegrationMode::GpuForBoth,
            journal_pages: 256,
            ..PipelineConfig::default()
        },
    });
    cluster.create_volume("v", 2 * WRITES).unwrap();
    let mut block = vec![0x5Au8; 4096];
    block[..4].copy_from_slice(b"seed");
    // Steady state: the chunk is stored on its home node, every reused
    // list has grown, each block below has been written once.
    for b in 0..WRITES {
        cluster.write("v", b, &block).unwrap();
    }
    let home = cluster.locate("v", 0).unwrap().node;
    let before = cluster.report();
    let gpu_queries = |report: &dr_cluster::ClusterReport| {
        let (_, node) = report.nodes.iter().find(|(id, _)| *id == home).unwrap();
        node.gpu_index_queries
    };

    let mut worst = 0;
    let mut total = 0;
    for b in WRITES..2 * WRITES {
        let start = ALLOCS.load(Ordering::Relaxed);
        let outcome = cluster.write("v", b, &block).unwrap();
        let allocs = ALLOCS.load(Ordering::Relaxed) - start;
        drop(outcome);
        worst = worst.max(allocs);
        total += allocs;
    }

    let after = cluster.report();
    assert_eq!(
        after.dedup_hits,
        before.dedup_hits + WRITES,
        "all duplicates"
    );
    assert_eq!(
        gpu_queries(&after),
        gpu_queries(&before) + WRITES,
        "every write probed the GPU index"
    );
    assert!(
        worst <= PER_WRITE_BOUND,
        "a duplicate write allocated {worst} times (mean {:.2})",
        total as f64 / WRITES as f64
    );
    assert_eq!(cluster.read("v", 2 * WRITES - 1).unwrap(), block);
}
