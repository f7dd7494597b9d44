//! Allocation budget of the read path.
//!
//! A cold chunk costs one frame copy (into the pipeline's fetch buffer),
//! one decode and one delivery copy; a cache hit costs the delivery copy
//! alone, shared out of the cache; a single-block read builds no hash
//! container. Once the cache is full, a cold decode lands in a buffer the
//! cache evicted, so nothing is allocated per frame. This test pins those
//! budgets with a counting global allocator, so a per-request clone, a
//! per-call map or a per-frame buffer that creeps back in fails here
//! rather than in a benchmark run.
//!
//! Kept to a single `#[test]` on purpose: the libtest harness runs tests
//! in one process, and a sibling test allocating concurrently would make
//! the counter racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dr_reduction::{IntegrationMode, Pipeline, PipelineConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
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

/// Allocations `f` makes.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Distinct blocks in [`stream`]: more than the pipeline's 256-chunk read
/// cache holds.
const BLOCKS: usize = 384;

/// [`BLOCKS`] distinct blocks, half of each compressible, so every frame
/// is a real LZ decode.
fn stream() -> Vec<u8> {
    let mut out = Vec::new();
    let mut state = 0x5EEDu64;
    for i in 0..BLOCKS as u32 {
        let mut block = vec![i as u8; 4096];
        for b in &mut block[..2048] {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        out.extend_from_slice(&block);
    }
    out
}

#[test]
fn reads_allocate_per_frame_and_per_request_not_per_copy() {
    let data = stream();
    let mut p = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        ..PipelineConfig::default()
    });
    p.run(&data);
    // Everything the first read forces once (the open page's flush).
    p.read_block(BLOCKS - 1).unwrap();

    // Cold, CPU arm: 32 requests over 32 distinct frames. Per frame a
    // decode buffer and its share handle — the stored bytes land in one
    // buffer for the whole batch; per request the returned `Vec`.
    let cold: Vec<usize> = (0..32).collect();
    let (got, n) = allocs_during(|| p.read_blocks(&cold).unwrap());
    assert_eq!(p.report().read_cache_hits, 0);
    assert!(
        n <= 3 * 32 + 32,
        "cold 32-block batch allocated {n} times (budget 3 per frame + 1 per request)"
    );
    for (i, block) in got.iter().enumerate() {
        assert_eq!(block, &data[i * 4096..][..4096]);
    }

    // Warm: 8 requests, all resident. One buffer per request, plus the
    // call's own result and grouping lists.
    let warm: Vec<usize> = (8..16).collect();
    let hits_before = p.report().read_cache_hits;
    let (got, n) = allocs_during(|| p.read_blocks(&warm).unwrap());
    assert_eq!(p.report().read_cache_hits, hits_before + 8);
    assert!(
        (8..=8 + 4).contains(&n),
        "warm 8-block batch allocated {n} times (budget 8 + at most 4 per call)"
    );
    assert_eq!(got[0], &data[8 * 4096..][..4096]);

    // One resident block: the result list, its one buffer, the grouping
    // list — no room for a `HashMap` or `HashSet`.
    let (got, n) = allocs_during(|| p.read_block(20).unwrap());
    assert_eq!(p.report().read_cache_hits, hits_before + 9);
    assert!(n <= 3, "single-block hit allocated {n} times (budget 3)");
    assert_eq!(got, &data[20 * 4096..][..4096]);

    // Steady state: every other block read cold, 32 at a time. More than
    // the cache's 256 frames have passed through it, so it is full, and
    // each batch's evictions are the next batch's decode buffers.
    for batch in (32..BLOCKS).collect::<Vec<_>>().chunks(32) {
        p.read_blocks(batch).unwrap();
    }
    // Blocks 0..32 were evicted since: the batch is cold again. Per
    // request the returned `Vec`; per call the request and result lists;
    // per frame nothing.
    let hits_before = p.report().read_cache_hits;
    let (got, n) = allocs_during(|| p.read_blocks(&cold).unwrap());
    assert_eq!(p.report().read_cache_hits, hits_before);
    assert!(
        n <= 32 + 3,
        "steady-state cold 32-block batch allocated {n} times (budget 1 per request + 3 per call)"
    );
    for (i, block) in got.iter().enumerate() {
        assert_eq!(block, &data[i * 4096..][..4096]);
    }

    // One resident block: the result list and its one buffer.
    let (got, n) = allocs_during(|| p.read_block(BLOCKS - 1).unwrap());
    assert_eq!(p.report().read_cache_hits, hits_before + 1);
    assert!(
        n <= 2,
        "steady-state single-block hit allocated {n} times (budget 2)"
    );
    assert_eq!(got, &data[(BLOCKS - 1) * 4096..][..4096]);
}
