//! Allocation regression gate for the GPU compression kernel emulation.
//!
//! `GpuCompressor::compress_batch` scans every region straight to wire
//! bytes in the caller's recycled frame buffers; the token IR it used to
//! build (a `Vec<Token>` per region, a `Vec<u8>` per literal run, a fresh
//! frame per chunk) is gone from the ingest path. This test pins that with
//! a counting global allocator: a steady-state batch may allocate a small
//! constant number of times per *batch*, never per chunk or per region —
//! and only a few dozen KiB: the batch's device buffers are charged
//! against device memory, not backed by host bytes nobody reads.
//!
//! Kept to a single `#[test]` on purpose: the libtest harness runs tests
//! in one process, and a sibling test allocating concurrently would make
//! the counter racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dr_compress::{GpuCompressor, GpuCompressorConfig};
use dr_des::SimTime;
use dr_gpu_sim::{GpuDevice, GpuSpec};
use dr_pool::WorkerPool;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations one steady-state batch makes, whatever its chunk count.
/// Two on an inline pool: the work-item cost list and the fan-out slot
/// list — the kernel's name is a literal, the two device buffers are
/// charged, not backed, and each thread's matcher scratch dates from its
/// first chunk. A threaded pool adds its batch state and range table.
const PER_BATCH_BOUND: u64 = 4;

/// Bytes those allocations may add up to for the 128-chunk batch below:
/// the cost list is 24 KiB (1 024 work items) and the slot list 4 KiB.
/// Backing the staging buffers would be another 512 KiB and more.
const PER_BATCH_BYTES_BOUND: u64 = 48 << 10;

#[test]
fn steady_state_batches_do_not_allocate_per_chunk() {
    const CHUNKS: usize = 128;
    // Half compressible text-like chunks, half noise that takes the
    // stored-raw fallback (its payload outgrows the chunk before sealing).
    let mut state = 0x5EEDu64;
    let chunks: Vec<Vec<u8>> = (0..CHUNKS)
        .map(|i| {
            if i % 2 == 0 {
                format!("chunk {i} of the batch / ")
                    .into_bytes()
                    .repeat(256)[..4096]
                    .to_vec()
            } else {
                (0..4096)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (state >> 33) as u8
                    })
                    .collect()
            }
        })
        .collect();
    let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    let comp = GpuCompressor::new(GpuCompressorConfig::default());
    let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
    let mut frames = vec![Vec::new(); CHUNKS];

    for pool in [WorkerPool::new(0), WorkerPool::new(1)] {
        // Warm-up: every participant of the batch — the caller and the
        // pool's one thread — scans a chunk and gets its matcher scratch.
        // A warm-up batch alone does not promise that: the caller can
        // claim every chunk before the worker wakes, and the worker's
        // first scan then lands in the counted batch. `join` runs its
        // first half on a pool thread (on the caller for an inline pool).
        let scan = || drop(comp.compress_functional(views[0]));
        pool.join(scan, scan);
        // Frame buffers grow to their steady capacity, the pool and the
        // device settle their one-time allocations.
        for _ in 0..2 {
            comp.compress_batch(SimTime::ZERO, &mut gpu, &pool, &views, &mut frames)
                .unwrap();
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
        let report = comp
            .compress_batch(SimTime::ZERO, &mut gpu, &pool, &views, &mut frames)
            .unwrap();
        let after = ALLOCS.load(Ordering::Relaxed);
        let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
        assert_eq!(report.work_items.len(), CHUNKS * 8);
        assert!(
            after - before <= PER_BATCH_BOUND,
            "a {CHUNKS}-chunk batch on a {}-worker pool allocated {} times \
             (bound {PER_BATCH_BOUND}) — per-chunk or per-region allocation \
             has crept back in",
            pool.workers(),
            after - before
        );
        assert!(
            bytes <= PER_BATCH_BYTES_BOUND,
            "a {CHUNKS}-chunk batch on a {}-worker pool allocated {bytes} bytes \
             (bound {PER_BATCH_BYTES_BOUND}) — a batch-sized buffer is being \
             backed again",
            pool.workers()
        );
    }
}
