//! Order-preserving parallel hashing of chunk batches.
//!
//! The paper observes that hashing has *no inter-chunk dependency*, so the
//! chunking stage's output can be fingerprinted by any number of CPU worker
//! threads — and, within one thread, by any number of SIMD lanes.
//! [`hash_chunks_pooled`] does both: it cuts a batch into groups of
//! [`SHA1_MB_LANES`] chunks, the unit [`sha1_digest_many`]'s multi-buffer
//! arm hashes in one instruction stream, and fans the groups out over a
//! caller-owned persistent [`WorkerPool`] — worker threads are created
//! once, not per batch, and idle workers steal from busy ones instead of
//! relying on static partitioning. A batch too small to repay waking a
//! worker (`HASH_FANOUT_GRAIN`) is hashed on the caller. Digests always
//! come back in input order.

use crate::digest::ChunkDigest;
use crate::sha1::sha1_digest;
use crate::sha1_mb::{sha1_digest_many, SHA1_MB_LANES};
use dr_pool::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hashes every chunk over an existing pool — on the caller alone when
/// there are fewer than two `HASH_FANOUT_GRAIN`s of groups — returning
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
    hash_chunks_pooled_counted(pool, chunks).0
}

/// [`hash_chunks_pooled`], and with the digests how many chunks went
/// through the multi-buffer arm (what [`sha1_digest_many`] returns, summed
/// over the groups).
pub fn hash_chunks_pooled_counted<T: AsRef<[u8]> + Sync>(
    pool: &WorkerPool,
    chunks: &[T],
) -> (Vec<ChunkDigest>, usize) {
    let mut digests = vec![ChunkDigest::zero(); chunks.len()];
    let (groups, tail) = digests.as_chunks_mut::<SHA1_MB_LANES>();
    // A statistic summed across participants; it publishes nothing.
    let wide = AtomicUsize::new(0);
    pool.for_each_mut_grained(groups, HASH_FANOUT_GRAIN, |g, out| {
        let msgs: [&[u8]; SHA1_MB_LANES] =
            std::array::from_fn(|lane| chunks[g * SHA1_MB_LANES + lane].as_ref());
        wide.fetch_add(sha1_digest_many(&msgs, out), Ordering::Relaxed);
    });
    // What is left is less than a group: too little for the wide arm or
    // for another thread.
    let tail_chunks = &chunks[chunks.len() - tail.len()..];
    for (digest, chunk) in tail.iter_mut().zip(tail_chunks) {
        *digest = sha1_digest(chunk.as_ref());
    }
    (digests, wide.into_inner())
}

/// Groups of [`SHA1_MB_LANES`] chunks per participant below which
/// [`hash_chunks_pooled`] stays on the caller.
///
/// Measured on the 2-core reference host (AVX-512; one worker thread
/// beside the caller, pinned to the other CPU as the benchmark pins them;
/// groups of sixteen 4 KiB chunks at 9–11 µs each; serial / fanned out to
/// a spinning worker / fanned out to a parked one, µs, medians of 500 over
/// three runs): 2 groups 20–25 / 12–16 / 43–44, 4 groups 41–51 / 24–42 /
/// 63–64, 6 groups 61–76 / 37–42 / 85–88, 8 groups 89–95 / 48 / 90–111,
/// 12 groups 132–138 / 70–89 / 127–154, 16 groups 182–191 / 86–94 /
/// 142–181. A group costs what five single digests did, so waking a
/// parked worker — one `dr_pool::SPIN_WINDOW` and more — now outweighs
/// four of them: below four groups per participant a parked worker makes
/// the call slower than the serial loop by 10–25 µs, from four it costs
/// what it saves and a spinning one halves the call. The default
/// 128-chunk batch is exactly two grains; a 32-chunk write (two groups)
/// stays on the caller, where it takes 20 µs, not 43.
const HASH_FANOUT_GRAIN: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pool_hashing_preserves_order_and_equals_serial() {
        // Pool widths: inline (the caller alone), then 1, 2 and 7 threads;
        // batches: empty, single, either side of every group boundary up
        // to three groups, and two that span many. Each pool is reused
        // across all batch sizes. Chunks are whole blocks of distinct
        // bytes, so full groups take the multi-buffer arm where there is
        // one; the second round's short last chunk keeps its group off it.
        for threads in [0usize, 1, 2, 7] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 15, 16, 17, 31, 32, 33, 48, 97, 128] {
                for last_len in [256usize, 100] {
                    let mut chunks: Vec<Vec<u8>> = (0..n)
                        .map(|i| (0..256).map(|j| (i * 31 + j) as u8).collect())
                        .collect();
                    if let Some(last) = chunks.last_mut() {
                        last.truncate(last_len);
                    }
                    let serial: Vec<ChunkDigest> = chunks.iter().map(|c| sha1_digest(c)).collect();
                    let (digests, wide) = hash_chunks_pooled_counted(&pool, &chunks);
                    assert_eq!(digests, serial, "{threads} pool threads, {n} chunks");
                    assert_eq!(hash_chunks_pooled(&pool, &chunks), serial);
                    let whole = if last_len == 256 {
                        n
                    } else {
                        n.saturating_sub(1)
                    };
                    let full_groups = if crate::simd::sha1_mb_avx512() {
                        whole / SHA1_MB_LANES
                    } else {
                        0
                    };
                    assert_eq!(wide, full_groups * SHA1_MB_LANES, "{threads} threads, {n}");
                }
            }
        }
    }
}
