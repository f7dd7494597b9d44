//! Allocation budget of the write path.
//!
//! No stage copies a write: chunking, hashing (also when the next batch is
//! fingerprinted on a pool thread meanwhile), the index probe and
//! compression all read the caller's slice. A single-chunk write into a
//! journaled array encodes its two journal records (its batch commit and
//! its map update) straight into the journal's tail and programs the tail
//! page once — the sync that acknowledges it: one page-sized buffer, which
//! the device keeps. Everything else it allocates is lists of one element.
//! A 1 MiB duplicate write — two full batches, the second hashed while the
//! first runs its stages — allocates per-batch lists and no more. This test
//! pins both with a counting global allocator, so a copy of the stream, an
//! encoded-record buffer, a cloned tail page or a copy of the page a write
//! displaced fails here rather than in a benchmark run. The integrity
//! envelope is sealed in the frame's own buffer, so a unique write costs
//! no more bytes with it than without it. A 128 KiB unique write hashes
//! and compresses on two threads; fanning out costs a few allocations per
//! stage, never one per chunk.
//!
//! Kept to a single `#[test]` on purpose: the libtest harness runs tests
//! in one process, and a sibling test allocating concurrently would make
//! the counters racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dr_reduction::{HashedChunks, IntegrationMode, PipelineConfig, VolumeManager};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static PAGE_SIZED: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= 4096 {
        PAGE_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(page-sized allocations, bytes allocated)` during `f`.
fn allocated_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (
        PAGE_SIZED.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    f();
    (
        PAGE_SIZED.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

/// Bytes allocated by the ninth of nine unique single-block writes into a
/// fresh, unjournaled array.
fn unique_write_bytes(integrity: bool) -> u64 {
    let mut array = VolumeManager::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        integrity,
        ..PipelineConfig::default()
    });
    array.create_volume("v", 64).unwrap();
    // Incompressible, and different every block: each one is a unique
    // chunk stored as a raw frame.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut block = || -> Vec<u8> {
        (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    };
    for b in 0..8 {
        array.write("v", b, &block()).unwrap();
    }
    let last = block();
    let unique = array.report().unique_chunks;
    let (_, bytes) = allocated_during(|| array.write("v", 8, &last).unwrap());
    assert_eq!(array.report().unique_chunks, unique + 1);
    bytes
}

/// Allocations made by the last of ten `chunks`-chunk writes of unique
/// blocks into a fresh, unjournaled cpu-only array on `pool_workers`
/// participants.
fn unique_write_allocs(pool_workers: usize, chunks: usize) -> u64 {
    const WRITES: usize = 10;
    let mut array = VolumeManager::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        pool_workers,
        ..PipelineConfig::default()
    });
    array.create_volume("v", (WRITES * chunks) as u64).unwrap();
    // Every block different: its number in its first bytes.
    let block = |n: usize| -> Vec<u8> {
        let mut block: Vec<u8> = (0..4096).map(|i| (i as u8).wrapping_mul(31)).collect();
        block[..8].copy_from_slice(&(n as u64).to_le_bytes());
        block
    };
    let write = |w: usize| -> Vec<u8> { (w * chunks..(w + 1) * chunks).flat_map(block).collect() };
    for w in 0..WRITES - 1 {
        array.write("v", (w * chunks) as u64, &write(w)).unwrap();
    }
    let last = write(WRITES - 1);
    let unique = array.report().unique_chunks;
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = ((WRITES - 1) * chunks) as u64;
    array.write("v", start, &last).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(array.report().unique_chunks, unique + chunks as u64);
    allocs
}

/// Bytes allocated by the third of three identical 1 MiB writes (two full
/// batches, 256 different chunks) into a journaled array.
fn two_batch_duplicate_write_bytes() -> u64 {
    let mut array = VolumeManager::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        journal_pages: 256,
        ..PipelineConfig::default()
    });
    array.create_volume("v", 256).unwrap();
    let data: Vec<u8> = (0..1usize << 20)
        .map(|i| (i / 4096 * 31 + i % 241) as u8)
        .collect();
    // Steady state: every chunk is stored and the scratch lists have grown.
    for _ in 0..2 {
        array.write("v", 0, &data).unwrap();
    }
    let dedup_hits = array.report().dedup_hits;
    let (_, bytes) = allocated_during(|| array.write("v", 0, &data).unwrap());
    assert_eq!(array.report().dedup_hits, dedup_hits + 256);
    bytes
}

#[test]
fn a_journaled_write_allocates_no_copy_of_its_data() {
    let mut array = VolumeManager::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        journal_pages: 256,
        ..PipelineConfig::default()
    });
    array.create_volume("v", 64).unwrap();
    let mut block = vec![0x5Au8; 4096];
    block[..4].copy_from_slice(b"seed");
    // Steady state: the chunk is stored, the scratch lists have grown, the
    // journal's open page has been programmed before.
    for b in 0..8 {
        array.write("v", b, &block).unwrap();
    }
    let dedup_hits = array.report().dedup_hits;

    let (pages, bytes) = allocated_during(|| array.write("v", 9, &block).unwrap());
    assert_eq!(array.report().dedup_hits, dedup_hits + 1);
    assert!(pages <= 1, "duplicate write: {pages} page-sized buffers");
    assert!(bytes <= 5 * 1024, "duplicate write: {bytes} bytes");

    // Fingerprinted upstream: the same budget (the digest list is the
    // caller's).
    let write = HashedChunks::hash(&block, 4096);
    let (pages, bytes) = allocated_during(|| array.write_hashed("v", 10, &write).unwrap());
    assert_eq!(array.report().dedup_hits, dedup_hits + 2);
    assert!(pages <= 1, "pre-hashed write: {pages} page-sized buffers");
    assert!(bytes <= 5 * 1024, "pre-hashed write: {bytes} bytes");
    assert_eq!(array.read("v", 10).unwrap(), block);

    // A copy of the stream alone would be 1 MiB.
    let big = two_batch_duplicate_write_bytes();
    assert!(big < 128 * 1024, "1 MiB duplicate write: {big} bytes");

    let (sealed, plain) = (unique_write_bytes(true), unique_write_bytes(false));
    assert!(
        sealed <= plain,
        "a unique write allocates {sealed} bytes with the integrity envelope, {plain} without"
    );

    // A 128 KiB unique write fans its hashing and its compression out to
    // the pool's one worker thread. What that adds over the same write on
    // an inline pool is the batch state of two fan-outs, and at twice the
    // chunks it adds no more.
    for chunks in [32, 64] {
        let inline = unique_write_allocs(1, chunks);
        let fanned = unique_write_allocs(2, chunks);
        assert!(
            fanned <= inline + 2 * PER_FAN_OUT,
            "{chunks}-chunk unique write: {fanned} allocations fanned out, {inline} inline"
        );
    }
}

/// Allocations one fan-out adds: its batch state (the shared core and its
/// range table), with room for one thread-local scratch buffer the worker
/// may take the first time it meets a stage.
const PER_FAN_OUT: u64 = 3;
