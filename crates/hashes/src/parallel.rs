//! Order-preserving parallel hashing of chunk batches.
//!
//! The paper observes that hashing has *no inter-chunk dependency*, so the
//! chunking stage's output can be fingerprinted by any number of CPU worker
//! threads — and, within one thread, by any number of SIMD lanes.
//! [`hash_chunks_into`] does both, and is the one place a batch is
//! fingerprinted: it cuts the batch into groups of [`SHA1_MB_LANES`]
//! chunks, the unit [`sha1_digest_many`]'s sixteen-lane arm hashes in one
//! instruction stream, and fans the groups out over a caller-owned
//! persistent [`WorkerPool`] — worker threads are created once, not per
//! batch, and idle workers steal from busy ones instead of relying on
//! static partitioning. A batch of fewer than two whole groups
//! (`HASH_FANOUT_GRAIN`) is hashed on the caller, and so is the tail of
//! fewer than sixteen chunks, which [`sha1_digest_many`] puts in padded
//! lanes when it is long enough. Digests always come back in input order.

use crate::{digest::ChunkDigest, sha1_mb::sha1_digest_many, sha1_mb::SHA1_MB_LANES};
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
    let mut digests = vec![ChunkDigest::zero(); chunks.len()];
    hash_chunks_into(pool, |i| chunks[i].as_ref(), &mut digests);
    digests
}

/// Fingerprints `out.len()` chunks, the `i`-th being `chunk(i)`, into
/// `out` in input order, and returns how many went through a lane arm
/// (what [`sha1_digest_many`] returns, summed over the groups and the
/// tail). Nothing is allocated for the chunk views: a group's are built on
/// the stack of whichever participant hashes it.
///
/// ```
/// use dr_hashes::{hash_chunks_into, sha1_digest, ChunkDigest};
/// use dr_pool::WorkerPool;
/// let data = [5u8; 10];
/// let mut out = [ChunkDigest::zero(); 3];
/// hash_chunks_into(&WorkerPool::new(0), |i| &data[i * 4..(i * 4 + 4).min(10)], &mut out);
/// assert_eq!(out[2], sha1_digest(&[5, 5]));
/// ```
pub fn hash_chunks_into<'a>(
    pool: &WorkerPool,
    chunk: impl Fn(usize) -> &'a [u8] + Sync,
    out: &mut [ChunkDigest],
) -> usize {
    let n = out.len();
    let (groups, tail) = out.as_chunks_mut::<SHA1_MB_LANES>();
    // A statistic summed across participants; it publishes nothing.
    let wide = AtomicUsize::new(0);
    pool.for_each_mut_grained(groups, HASH_FANOUT_GRAIN, |g, out| {
        let msgs: [_; SHA1_MB_LANES] = std::array::from_fn(|lane| chunk(g * SHA1_MB_LANES + lane));
        wide.fetch_add(sha1_digest_many(&msgs, out), Ordering::Relaxed);
    });
    // What is left is less than a group: too little for another thread.
    let mut views = [&[][..]; SHA1_MB_LANES];
    for (view, i) in views.iter_mut().zip(n - tail.len()..n) {
        *view = chunk(i);
    }
    wide.into_inner() + sha1_digest_many(&views[..tail.len()], tail)
}

/// Groups of [`SHA1_MB_LANES`] chunks per participant below which
/// [`hash_chunks_into`] stays on the caller: one, so any batch of two
/// whole groups (32 chunks) fans out.
///
/// The rule is that a participant's share must outweigh a hand-off to a
/// worker that is already awake, about 3 µs — not a wake-up. In a stream
/// of writes the worker is still spinning from the previous fan-out; after
/// an idle gap this fan-out is the one that wakes it, and the write's
/// compression fan-out then finds it awake. Measured on the 2-core
/// reference host (AVX-512; one worker thread beside the caller, pinned
/// to the other CPU as the benchmark pins them; serial / fanned out to a
/// spinning worker / fanned out after a 2 ms sleep, µs, medians of 500,
/// median of three runs): 2 groups 28.7 / 16.7 / 47.0, 3 groups 60.5 /
/// 30.6 / 61.7, 4 groups 57.6 / 48.0 / 76.1, 8 groups 119 / 62.6 / 110. A
/// group (14 µs) is worth several hand-offs, so a spinning worker wins
/// from two groups. Against a parked one the stage alone loses, but the
/// write as a whole does not: DESIGN.md §9 has the write-level table.
const HASH_FANOUT_GRAIN: usize = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pool_hashing_preserves_order_and_equals_serial() {
        // Pool widths: inline (the caller alone), then 1, 2 and 7 threads;
        // batches: every size up to two and a half groups, and two that
        // span many. Each pool is reused across all batch sizes. Chunks are
        // whole blocks of distinct bytes, so runs take lanes where the
        // host has them; the second round's short last chunk keeps itself
        // out and shortens its group's run by one. Each batch is hashed
        // from a list of chunks and from one buffer cut at the block size,
        // the way the pipeline views a write.
        for threads in [0usize, 1, 2, 7] {
            let pool = WorkerPool::new(threads);
            for n in (0..=40usize).chain([97, 128]) {
                for last_len in [256usize, 100] {
                    let mut chunks: Vec<Vec<u8>> = (0..n)
                        .map(|i| (0..256).map(|j| (i * 31 + j) as u8).collect())
                        .collect();
                    if let Some(last) = chunks.last_mut() {
                        last.truncate(last_len);
                    }
                    let serial: Vec<ChunkDigest> =
                        chunks.iter().map(|c| crate::sha1_digest(c)).collect();
                    assert_eq!(hash_chunks_pooled(&pool, &chunks), serial);
                    let buffer = chunks.concat();
                    let cut = |i: usize| &buffer[i * 256..((i + 1) * 256).min(buffer.len())];
                    let mut digests = vec![ChunkDigest::zero(); n];
                    let wide = hash_chunks_into(&pool, cut, &mut digests);
                    assert_eq!(digests, serial, "{threads} pool threads, {n} chunks");
                    let whole = if last_len == 256 {
                        n
                    } else {
                        n.saturating_sub(1)
                    };
                    let lanes = crate::sha1_mb::tests::lanes(whole);
                    assert_eq!(wide, lanes, "{threads} threads, {n}, last {last_len}");
                }
            }
        }
    }
}
