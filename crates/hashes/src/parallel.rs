//! Order-preserving parallel hashing of chunk batches.
//!
//! The paper observes that hashing has *no inter-chunk dependency*, so the
//! chunking stage's output can be fingerprinted by any number of CPU worker
//! threads. [`hash_chunks_pooled`] fans a batch out over a caller-owned
//! persistent [`WorkerPool`] — worker threads are created once, not per
//! batch, and idle workers steal from busy ones instead of relying on
//! static partitioning. Digests always come back in input order.

use crate::digest::ChunkDigest;
use crate::sha1::sha1_digest;
use dr_pool::WorkerPool;

/// Hashes every chunk over an existing pool, returning digests in input
/// order.
///
/// ```
/// use dr_hashes::{hash_chunks_pooled, sha1_digest};
/// use dr_pool::WorkerPool;
/// let pool = WorkerPool::new(2);
/// let ds = hash_chunks_pooled(&pool, &[b"xy".as_slice()]);
/// assert_eq!(ds[0], sha1_digest(b"xy"));
/// ```
pub fn hash_chunks_pooled<T: AsRef<[u8]> + Sync>(
    pool: &WorkerPool,
    chunks: &[T],
) -> Vec<ChunkDigest> {
    pool.map_collect(chunks.len(), |i| sha1_digest(chunks[i].as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pool_hashing_preserves_order_and_equals_serial() {
        // Pool widths: inline (the caller alone), then 1, 2 and 7 threads;
        // batches: empty, single, and one that does not divide evenly.
        // Each pool is reused across all batch sizes.
        for threads in [0usize, 1, 2, 7] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 97] {
                let chunks: Vec<Vec<u8>> = (0..n)
                    .map(|i| format!("chunk payload number {i}").into_bytes())
                    .collect();
                let serial: Vec<ChunkDigest> = chunks.iter().map(|c| sha1_digest(c)).collect();
                assert_eq!(
                    hash_chunks_pooled(&pool, &chunks),
                    serial,
                    "{threads} pool threads, {n} chunks"
                );
            }
        }
    }
}
