//! Mixed read/write burst workloads, for driving the *read* pipeline.
//!
//! The stream generator produces write-only load; exercising the
//! batched read path needs interleaved reads whose targets are valid (only
//! written blocks are read) and realistically skewed (a hot head absorbs
//! most re-reads, so the decompressed-chunk cache has something to do).
//!
//! [`RwMixGenerator`] emits a sequence of [`RwBurst`]s over a
//! block-addressed volume: write bursts advance sequentially through the
//! working set (so the written high-water mark grows like a log), read
//! bursts draw Zipf-skewed targets from everything written so far. The
//! first burst is always a write — reads always have targets. Everything
//! is deterministic in the seed.

use dr_des::SplitMix64;

use crate::synth::synthesize_block;
use crate::zipf::ZipfSampler;

/// Payload seed for `block`: half the working set carries distinct
/// content — blocks `b` and `b + blocks/2` are identical, a dedup ratio
/// of 2.0 like the paper's vdbench streams — so read batches land on
/// shared frames without collapsing the set into a cache-sized handful
/// of unique chunks.
fn payload_seed(config: &RwMixConfig, block: u64) -> u64 {
    config.seed ^ (block % (config.blocks / 2).max(1))
}

/// One burst of a mixed workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RwBurst {
    /// Write `data` (a whole number of blocks) starting at `block`.
    Write {
        /// First target block.
        block: u64,
        /// Concatenated block payloads.
        data: Vec<u8>,
    },
    /// Read `blocks` (in order) as one batch.
    Read {
        /// Target blocks; every index has been written by a prior burst.
        blocks: Vec<u64>,
    },
}

/// Mixed-workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RwMixConfig {
    /// Volume working set, in blocks.
    pub blocks: u64,
    /// Number of bursts to generate.
    pub bursts: u64,
    /// Blocks per burst (write span / read batch size).
    pub burst_blocks: u64,
    /// Fraction of bursts (after the first) that are reads.
    pub read_fraction: f64,
    /// Zipf skew of read targets (0 = uniform over written blocks).
    pub zipf_theta: f64,
    /// Block size in bytes.
    pub block_bytes: usize,
    /// Compression ratio of written payloads.
    pub compression_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RwMixConfig {
    fn default() -> Self {
        RwMixConfig {
            blocks: 2_048,
            bursts: 64,
            burst_blocks: 32,
            read_fraction: 0.5,
            zipf_theta: 0.99,
            block_bytes: 4096,
            compression_ratio: 2.0,
            seed: 0x52_57,
        }
    }
}

impl RwMixConfig {
    /// The read-heavy preset: 90% reads — the cache and the batched read
    /// path carry the run.
    pub fn read_heavy() -> Self {
        RwMixConfig {
            read_fraction: 0.9,
            ..RwMixConfig::default()
        }
    }

    /// The balanced preset: half reads, half writes — reads race freshly
    /// destaged frames.
    pub fn mixed() -> Self {
        RwMixConfig {
            read_fraction: 0.5,
            ..RwMixConfig::default()
        }
    }
}

/// Deterministic mixed read/write burst generator.
///
/// ```
/// use dr_workload::{RwBurst, RwMixConfig, RwMixGenerator};
/// let gen = RwMixGenerator::new(RwMixConfig {
///     bursts: 8,
///     ..RwMixConfig::read_heavy()
/// });
/// let bursts: Vec<RwBurst> = gen.bursts().collect();
/// assert_eq!(bursts.len(), 8);
/// assert!(matches!(bursts[0], RwBurst::Write { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct RwMixGenerator {
    config: RwMixConfig,
}

impl RwMixGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics on an empty working set, empty bursts, zero block size, an
    /// out-of-range read fraction, or an invalid skew.
    pub fn new(config: RwMixConfig) -> Self {
        assert!(config.blocks > 0, "working set must be non-empty");
        assert!(config.burst_blocks > 0, "bursts must be non-empty");
        assert!(config.block_bytes > 0, "block size must be positive");
        assert!(
            (0.0..=1.0).contains(&config.read_fraction),
            "read fraction must be in [0, 1]"
        );
        assert!(
            config.zipf_theta.is_finite() && config.zipf_theta >= 0.0,
            "invalid zipf theta"
        );
        RwMixGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> RwMixConfig {
        self.config
    }

    /// Iterates over the workload's bursts.
    pub fn bursts(&self) -> RwBursts {
        RwBursts {
            config: self.config,
            rng: SplitMix64::new(self.config.seed),
            zipf: ZipfSampler::new(
                self.config.blocks as usize,
                self.config.zipf_theta,
                self.config.seed ^ 0xA5A5,
            ),
            emitted: 0,
            write_cursor: 0,
            written: 0,
        }
    }
}

/// Iterator over mixed-workload bursts.
#[derive(Debug, Clone)]
pub struct RwBursts {
    config: RwMixConfig,
    rng: SplitMix64,
    zipf: ZipfSampler,
    emitted: u64,
    /// Next sequential block a write burst starts at.
    write_cursor: u64,
    /// Written high-water mark: blocks `0..written` have content.
    written: u64,
}

impl Iterator for RwBursts {
    type Item = RwBurst;

    fn next(&mut self) -> Option<RwBurst> {
        if self.emitted >= self.config.bursts {
            return None;
        }
        // The coin is tossed every burst (including the forced first
        // write) so the read/write schedule does not depend on outcomes.
        let coin = self.rng.next_f64();
        let read = self.emitted > 0 && self.written > 0 && coin < self.config.read_fraction;
        self.emitted += 1;
        if read {
            let blocks = (0..self.config.burst_blocks)
                .map(|_| self.zipf.sample() as u64 % self.written)
                .collect();
            return Some(RwBurst::Read { blocks });
        }
        let start = self.write_cursor;
        // Clamp at the end of the working set instead of wrapping a burst
        // around it — bursts stay contiguous.
        let nblocks = self.config.burst_blocks.min(self.config.blocks - start);
        let data: Vec<u8> = (start..start + nblocks)
            .flat_map(|block| {
                synthesize_block(
                    payload_seed(&self.config, block),
                    self.config.block_bytes,
                    self.config.compression_ratio,
                )
            })
            .collect();
        self.write_cursor = (start + nblocks) % self.config.blocks;
        self.written = self.written.max(start + nblocks);
        Some(RwBurst::Write { block: start, data })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.config.bursts - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RwBursts {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_burst_is_always_a_write() {
        for seed in 0..32 {
            let gen = RwMixGenerator::new(RwMixConfig {
                seed,
                read_fraction: 1.0,
                ..RwMixConfig::default()
            });
            assert!(
                matches!(gen.bursts().next(), Some(RwBurst::Write { .. })),
                "seed {seed} opened with a read"
            );
        }
    }

    #[test]
    fn reads_only_target_written_blocks() {
        let gen = RwMixGenerator::new(RwMixConfig {
            bursts: 200,
            ..RwMixConfig::read_heavy()
        });
        let mut written = 0u64;
        for burst in gen.bursts() {
            match burst {
                RwBurst::Write { block, data } => {
                    written = written.max(block + (data.len() / 4096) as u64);
                }
                RwBurst::Read { blocks } => {
                    assert!(!blocks.is_empty());
                    for b in blocks {
                        assert!(b < written, "read block {b} beyond high-water {written}");
                    }
                }
            }
        }
    }

    #[test]
    fn read_heavy_is_mostly_reads_and_mixed_is_balanced() {
        let count_reads = |config: RwMixConfig| -> usize {
            RwMixGenerator::new(RwMixConfig {
                bursts: 400,
                ..config
            })
            .bursts()
            .filter(|b| matches!(b, RwBurst::Read { .. }))
            .count()
        };
        let heavy = count_reads(RwMixConfig::read_heavy());
        let mixed = count_reads(RwMixConfig::mixed());
        assert!(heavy > 320, "read-heavy produced only {heavy}/400 reads");
        assert!(
            (140..=260).contains(&mixed),
            "mixed produced {mixed}/400 reads"
        );
    }

    #[test]
    fn write_bursts_tile_the_working_set_contiguously() {
        let gen = RwMixGenerator::new(RwMixConfig {
            blocks: 100,
            burst_blocks: 32,
            read_fraction: 0.0,
            bursts: 8,
            ..RwMixConfig::default()
        });
        let spans: Vec<(u64, u64)> = gen
            .bursts()
            .map(|b| match b {
                RwBurst::Write { block, data } => (block, (data.len() / 4096) as u64),
                RwBurst::Read { .. } => panic!("read in a write-only mix"),
            })
            .collect();
        // 32 + 32 + 32 + 4 tiles 100 blocks, then the cursor wraps.
        assert_eq!(
            spans,
            vec![
                (0, 32),
                (32, 32),
                (64, 32),
                (96, 4),
                (0, 32),
                (32, 32),
                (64, 32),
                (96, 4),
            ]
        );
    }

    #[test]
    fn content_dedups_at_ratio_two() {
        let gen = RwMixGenerator::new(RwMixConfig {
            blocks: 96,
            burst_blocks: 96,
            read_fraction: 0.0,
            bursts: 1,
            ..RwMixConfig::default()
        });
        let Some(RwBurst::Write { data, .. }) = gen.bursts().next() else {
            panic!("expected a write burst");
        };
        let lo = &data[..4096];
        let hi = &data[48 * 4096..][..4096];
        assert_eq!(
            lo, hi,
            "blocks half a set apart must carry identical content"
        );
        let unique: std::collections::HashSet<&[u8]> = data.chunks(4096).collect();
        assert_eq!(unique.len(), 48, "half the set must be unique");
    }

    #[test]
    fn deterministic() {
        let config = RwMixConfig::read_heavy();
        let a: Vec<RwBurst> = RwMixGenerator::new(config).bursts().collect();
        let b: Vec<RwBurst> = RwMixGenerator::new(config).bursts().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn exact_size() {
        let gen = RwMixGenerator::new(RwMixConfig {
            bursts: 17,
            ..RwMixConfig::default()
        });
        assert_eq!(gen.bursts().len(), 17);
    }
}
