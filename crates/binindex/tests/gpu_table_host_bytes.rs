//! Host-memory gate for the GPU-resident index.
//!
//! The device model keeps buffer sizes, not bytes: the lookup kernel runs
//! on the host against the index's own metadata pages, so uploading a bin
//! charges a PCIe transfer and copies nothing. A default `GpuBinIndex`
//! reserves 10 MiB of device memory (1 024 slots × 512 entries × 20 B);
//! none of it may turn into host memory. This test pins that with a
//! byte-counting global allocator.
//!
//! Kept to a single `#[test]` on purpose: the libtest harness runs tests
//! in one process, and a sibling test allocating concurrently would make
//! the counter racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dr_binindex::{
    BinKey, BinRouter, ChunkRef, FlushEvent, GpuBinIndex, GpuBinIndexConfig, GpuProbe,
};
use dr_des::SimTime;
use dr_gpu_sim::{GpuDevice, GpuSpec};
use dr_hashes::sha1_digest;

struct ByteCountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn the_resident_table_costs_no_host_memory() {
    let (config, prefix_bytes) = (GpuBinIndexConfig::default(), 2);
    let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
    // A full bin: one real digest's key (the digest with the routing
    // prefix zeroed) and 511 more keys in the same bin.
    let digest = sha1_digest(b"resident");
    let bin = BinRouter::new(prefix_bytes).route(&digest);
    let mut key: BinKey = *digest.as_bytes();
    key[..prefix_bytes].fill(0);
    let variant = |i: u16| {
        let mut k = key;
        for (b, x) in k[18..].iter_mut().zip(i.to_le_bytes()) {
            *b ^= x;
        }
        k
    };
    let entries: Vec<(BinKey, ChunkRef)> = (0..config.entries_per_bin as u16)
        .map(|i| (variant(i), ChunkRef::new(u64::from(i) * 4096, 4096)))
        .collect();
    let flush = FlushEvent {
        bin,
        entries: vec![(variant(u16::MAX), ChunkRef::new(1 << 30, 4096))],
    };
    let mut probes = Vec::with_capacity(1);

    let before = allocated_bytes();
    let mut index = GpuBinIndex::new(&mut gpu, config, prefix_bytes).unwrap();
    let installed = index
        .install_bin(SimTime::ZERO, &mut gpu, bin, &entries)
        .unwrap();
    let synced = index.apply_flush(installed, &mut gpu, &flush).unwrap();
    index
        .lookup_batch(synced, &mut gpu, &[digest], &mut probes)
        .unwrap();
    let host_bytes = allocated_bytes() - before;

    assert_eq!(probes, [GpuProbe::Hit(ChunkRef::new(0, 4096))]);
    assert!(synced > installed && installed > SimTime::ZERO);
    assert!(
        host_bytes < 1 << 20,
        "{host_bytes} host bytes for a {} B device table",
        index.device_bytes()
    );
    assert_eq!(gpu.mem_used(), index.device_bytes());
}
