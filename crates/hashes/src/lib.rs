//! Cryptographic and fast hashing for the `inline-dr` deduplication path.
//!
//! The paper fingerprints every chunk with **SHA-1** (20-byte digests, 32-byte
//! index entries including metadata) and routes digests to *bins* by a hash
//! prefix. This crate implements, from scratch:
//!
//! * [`Sha1`] — FIPS 180-1 SHA-1 with an incremental API, verified against
//!   the standard test vectors,
//! * [`sha1_mb`] — multi-buffer SHA-1: eight or sixteen equal-length
//!   messages per instruction stream on AVX-512 hosts
//!   ([`sha1_digest_many`]),
//! * [`fast`] — fast non-cryptographic 64-bit hashes for compression match
//!   tables and bin routing,
//! * [`lz_hash`] — the LZ match-table slot hash, one key or (vectorised) a
//!   whole buffer of positions at a time,
//! * [`lz_match`] — the LZ resolve step over those slots: probe positions
//!   against the match table until one has a usable candidate, sixteen
//!   positions per step on AVX-512 hosts ([`lz_find_match`]),
//! * [`parallel`] — order-preserving hashing of a chunk batch over a shared
//!   worker pool, a multi-buffer group at a time (the paper's "hashing has
//!   no inter-chunk dependency" stage),
//! * [`ChunkDigest`] — the 20-byte chunk fingerprint with prefix extraction
//!   used by the bin router and by prefix truncation,
//! * [`seal()`] / [`open()`] — the CRC-32C trailer every persisted or shipped
//!   record carries.
//!
//! # Example
//!
//! ```
//! use dr_hashes::{sha1_digest, ChunkDigest};
//!
//! let d: ChunkDigest = sha1_digest(b"hello world");
//! assert_eq!(d.to_hex(), "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed");
//! assert_eq!(d.prefix_u64(2), 0x2aae); // 2-byte bin-routing prefix
//! ```

pub mod crc32c;
pub mod digest;
pub mod fast;
pub mod lz_hash;
pub mod lz_match;
pub mod parallel;
pub mod seal;
pub mod sha1;
pub mod sha1_mb;
pub mod simd;

pub use crc32c::{crc32c, Crc32c};
pub use digest::ChunkDigest;
pub use fast::mix64;
pub use lz_hash::{lz_slot, lz_slots, LZ_SLOT_BITS};
pub use lz_match::lz_find_match;
pub use parallel::{hash_chunks_into, hash_chunks_pooled};
pub use seal::{open, seal, SealError, SEAL_LEN};
pub use sha1::{sha1_digest, Sha1};
pub use sha1_mb::sha1_digest_many;
