//! Order-preserving parallel hashing of chunk batches.
//!
//! The paper observes that hashing has *no inter-chunk dependency*, so the
//! chunking stage's output can be fingerprinted by any number of CPU worker
//! threads. [`hash_chunks_pooled`] fans a batch out over a caller-owned
//! persistent [`WorkerPool`] — worker threads are created once, not per
//! batch, and idle workers steal from busy ones instead of relying on
//! static partitioning. A batch too small to repay waking a worker
//! (`HASH_FANOUT_GRAIN`) is hashed on the caller. Digests always come back
//! in input order.

use crate::digest::ChunkDigest;
use crate::sha1::sha1_digest;
use dr_pool::WorkerPool;

/// Hashes every chunk over an existing pool — on the caller alone when
/// there are fewer than two `HASH_FANOUT_GRAIN`s of them — returning
/// digests in input order.
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
    let mut digests = vec![ChunkDigest::new([0; ChunkDigest::LEN]); chunks.len()];
    pool.for_each_mut_grained(&mut digests, HASH_FANOUT_GRAIN, |i, digest| {
        *digest = sha1_digest(chunks[i].as_ref());
    });
    digests
}

/// Chunks per participant below which [`hash_chunks_pooled`] stays on the
/// caller.
///
/// Measured on the 2-core reference host (one worker thread beside the
/// caller, 4 KiB chunks, SHA-1 at 2.2–2.9 µs each; serial / fanned out to
/// a spinning worker / fanned out to a parked one, µs): 8 chunks 17.9 /
/// 11.5 / 24.1, 16 chunks 35.8 / 20.7 / 38.6, 24 chunks 53.7 / 31.8 /
/// 54.6, 32 chunks 91.5 / 42.0 / 57.9. Waking a parked worker costs what
/// about 16 digests cost — one `dr_pool::SPIN_WINDOW` — so only from 16
/// chunks per participant does the fan-out win whichever state the worker
/// is in; below that the same call would be fast or slow depending on how
/// long ago the pool was last used.
const HASH_FANOUT_GRAIN: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pool_hashing_preserves_order_and_equals_serial() {
        // Pool widths: inline (the caller alone), then 1, 2 and 7 threads;
        // batches: empty, single, either side of two fan-out grains, and
        // one that does not divide evenly. Each pool is reused across all
        // batch sizes.
        for threads in [0usize, 1, 2, 7] {
            let pool = WorkerPool::new(threads);
            for n in [0, 1, 2 * HASH_FANOUT_GRAIN - 1, 2 * HASH_FANOUT_GRAIN, 97] {
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
