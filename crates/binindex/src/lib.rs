//! The bin-based parallel deduplication index.
//!
//! The paper's core deduplication data structure. The global hash table is
//! split into many small tables called **bins** (DHT-style partitioning by
//! digest prefix) so that worker threads operating on different bins never
//! contend — "multiple computing threads can check the chunks of multiple
//! hash tables at the same time without locking mechanism". Three further
//! design points from the paper, all implemented here:
//!
//! * **In-memory only.** Entries never spill to disk; when the memory
//!   budget is reached a victim entry is evicted (random replacement).
//!   Missed duplicates are tolerated — "that is not a big deal" — and the
//!   miss-rate consequences are measurable in the `index.misses` and
//!   `index.evictions` counters.
//! * **Prefix truncation.** A digest's first `n` bytes choose its bin, so
//!   the bin only stores the remaining `20 − n` bytes. With a 2-byte prefix
//!   a 4 TB / 8 KB-chunk system saves 1 GB of index memory (the paper's
//!   arithmetic is reproduced in [`memory::MemoryModel`]).
//! * **Bin buffer + bin tree.** Each bin fronts its tree with a small
//!   append buffer holding the most recent inserts. Lookups check the
//!   buffer first (temporal locality), then the tree. A full buffer is
//!   flushed: its entries move to the bin tree, the flush is announced so
//!   the destage path can issue the corresponding *sequential* SSD writes
//!   and so the GPU-resident copy of the bin can be updated.
//!
//! The GPU side ([`gpu::GpuBinIndex`]) keeps a subset of bins in **linear
//! table layout** in device memory — contiguous digest arrays that scan
//! with coalesced accesses and no branch divergence — while all chunk
//! metadata stays in host memory and lookups return `(index, hit)` pairs,
//! exactly as the paper prescribes.
//!
//! # Example
//!
//! ```
//! use dr_binindex::{BinIndex, BinIndexConfig, ChunkRef};
//! use dr_hashes::sha1_digest;
//!
//! let mut index = BinIndex::new(BinIndexConfig::default());
//! let d = sha1_digest(b"some chunk");
//! assert_eq!(index.lookup(&d), None);
//! index.insert(d, ChunkRef::new(42, 4096));
//! assert_eq!(index.lookup(&d), Some(ChunkRef::new(42, 4096)));
//! ```

#![forbid(unsafe_code)]

pub mod bin;
pub mod entry;
pub mod gpu;
pub mod index;
pub mod memory;
pub mod page;
pub mod router;
pub mod snapshot;

pub use bin::BinHit;
pub use bin::{Bin, BinKey, FlushEvent};
pub use entry::ChunkRef;
pub use gpu::{
    GpuBinIndex, GpuBinIndexConfig, GpuBinLayout, GpuLookupReport, GpuProbe, ReplacementPolicy,
};
pub use index::{BinIndex, BinIndexConfig, ProbeKind};
pub use memory::MemoryModel;
pub use page::EntryPage;
pub use router::{BinRouter, RoutingObs};
pub use snapshot::{restore, snapshot, SnapshotError};
