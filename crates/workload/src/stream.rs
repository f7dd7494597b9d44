//! Stream assembly: unique/duplicate block sequencing with locality.

use dr_des::SplitMix64;

use crate::synth::synthesize_block;

/// Parameters of a generated write stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Total stream length in bytes (rounded down to whole blocks).
    pub total_bytes: u64,
    /// Block size (the paper uses 4 KB chunks for compression, 8 KB for
    /// capacity sizing).
    pub block_bytes: usize,
    /// Target deduplication ratio `total / unique` (>= 1.0).
    pub dedup_ratio: f64,
    /// Target LZ compression ratio of unique blocks (>= 1.0).
    pub compression_ratio: f64,
    /// Probability that a duplicate references a *recent* unique block
    /// (temporal locality), `[0, 1]`.
    pub locality: f64,
    /// How many recent unique blocks count as "recent".
    pub locality_window: usize,
    /// RNG seed; equal configs generate identical streams.
    pub seed: u64,
}

impl Default for StreamConfig {
    /// The paper's evaluation defaults: 4 KB blocks, dedup 2.0,
    /// compression 2.0 ("a common ratio for primary storage systems").
    fn default() -> Self {
        StreamConfig {
            total_bytes: 64 << 20,
            block_bytes: 4096,
            dedup_ratio: 2.0,
            compression_ratio: 2.0,
            locality: 0.5,
            locality_window: 256,
            seed: 0x5EED,
        }
    }
}

impl StreamConfig {
    /// A VDI (virtual desktop) profile: heavy cross-image duplication with
    /// strong temporal locality and OS-like compressibility.
    pub fn vdi(total_bytes: u64) -> Self {
        StreamConfig {
            total_bytes,
            dedup_ratio: 4.0,
            compression_ratio: 2.5,
            locality: 0.8,
            locality_window: 512,
            ..StreamConfig::default()
        }
    }

    fn validate(&self) {
        assert!(self.block_bytes > 0, "block size must be positive");
        assert!(
            self.total_bytes >= self.block_bytes as u64,
            "stream must hold at least one block"
        );
        assert!(self.dedup_ratio >= 1.0, "dedup ratio must be >= 1.0");
        assert!(
            self.compression_ratio >= 1.0,
            "compression ratio must be >= 1.0"
        );
        assert!(
            (0.0..=1.0).contains(&self.locality),
            "locality must be in [0,1]"
        );
        assert!(self.locality_window > 0, "locality window must be positive");
    }

    /// Number of whole blocks in the stream.
    pub fn block_count(&self) -> u64 {
        self.total_bytes / self.block_bytes as u64
    }
}

/// The deterministic stream generator.
///
/// ```
/// use dr_workload::{StreamConfig, StreamGenerator};
/// let gen = StreamGenerator::new(StreamConfig::default());
/// let first = gen.blocks().next().unwrap();
/// assert_eq!(first.len(), 4096);
/// ```
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    config: StreamConfig,
}

impl StreamGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent (see field docs).
    pub fn new(config: StreamConfig) -> Self {
        config.validate();
        StreamGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Iterates over the stream's blocks in write order.
    pub fn blocks(&self) -> BlockIter {
        BlockIter {
            config: self.config,
            rng: SplitMix64::new(self.config.seed),
            unique_seeds: Vec::new(),
            emitted: 0,
            next_unique_seed: self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Materializes the whole stream as one buffer. Only sensible for
    /// small configurations (tests, examples).
    pub fn generate(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.config.total_bytes as usize);
        for block in self.blocks() {
            out.extend_from_slice(&block);
        }
        out
    }
}

/// Iterator over generated blocks.
#[derive(Debug, Clone)]
pub struct BlockIter {
    config: StreamConfig,
    rng: SplitMix64,
    /// Seeds of every unique block emitted so far.
    unique_seeds: Vec<u64>,
    emitted: u64,
    next_unique_seed: u64,
}

impl Iterator for BlockIter {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        if self.emitted >= self.config.block_count() {
            return None;
        }
        self.emitted += 1;

        // Emit a unique block with probability 1/D (the first block is
        // always unique), otherwise duplicate an earlier one.
        let make_unique =
            self.unique_seeds.is_empty() || self.rng.next_f64() < 1.0 / self.config.dedup_ratio;
        let seed = if make_unique {
            let seed = self.next_unique_seed;
            self.next_unique_seed = self.next_unique_seed.wrapping_add(0x9E37_79B9_7F4A_7C16);
            self.unique_seeds.push(seed);
            seed
        } else if self.rng.next_f64() < self.config.locality {
            // Temporal locality: one of the last `locality_window` uniques.
            let window = self.config.locality_window.min(self.unique_seeds.len());
            let idx = self.unique_seeds.len() - 1 - self.rng.next_below(window as u64) as usize;
            self.unique_seeds[idx]
        } else {
            // Cold duplicate: uniform over all uniques.
            let idx = self.rng.next_below(self.unique_seeds.len() as u64) as usize;
            self.unique_seeds[idx]
        };
        Some(synthesize_block(
            seed,
            self.config.block_bytes,
            self.config.compression_ratio,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.config.block_count() - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for BlockIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn count_blocks(cfg: StreamConfig) -> (u64, usize) {
        let gen = StreamGenerator::new(cfg);
        let mut counts: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut total = 0;
        for block in gen.blocks() {
            *counts.entry(block).or_insert(0) += 1;
            total += 1;
        }
        (total, counts.len())
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = StreamConfig {
            total_bytes: 1 << 20,
            ..StreamConfig::default()
        };
        let a: Vec<Vec<u8>> = StreamGenerator::new(cfg).blocks().collect();
        let b: Vec<Vec<u8>> = StreamGenerator::new(cfg).blocks().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let base = StreamConfig {
            total_bytes: 1 << 18,
            ..StreamConfig::default()
        };
        let a = StreamGenerator::new(base).generate();
        let b = StreamGenerator::new(StreamConfig { seed: 777, ..base }).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn dedup_ratio_is_respected() {
        for target in [1.0f64, 2.0, 4.0] {
            let (total, unique) = count_blocks(StreamConfig {
                total_bytes: 8 << 20,
                dedup_ratio: target,
                ..StreamConfig::default()
            });
            let measured = total as f64 / unique as f64;
            assert!(
                (measured / target - 1.0).abs() < 0.15,
                "target {target}, measured {measured}"
            );
        }
    }

    #[test]
    fn block_count_and_sizes() {
        let cfg = StreamConfig {
            total_bytes: (4096 * 10) + 1000, // partial tail dropped
            ..StreamConfig::default()
        };
        let gen = StreamGenerator::new(cfg);
        let blocks: Vec<Vec<u8>> = gen.blocks().collect();
        assert_eq!(blocks.len(), 10);
        assert!(blocks.iter().all(|b| b.len() == 4096));
        assert_eq!(gen.blocks().len(), 10);
    }

    #[test]
    fn duplicates_prefer_recent_blocks_under_locality() {
        // With locality 1.0 every duplicate comes from the recent window.
        let cfg = StreamConfig {
            total_bytes: 4 << 20,
            locality: 1.0,
            locality_window: 16,
            dedup_ratio: 3.0,
            ..StreamConfig::default()
        };
        let gen = StreamGenerator::new(cfg);
        let mut last_seen: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut max_gap = 0usize;
        for (i, block) in gen.blocks().enumerate() {
            if let Some(&prev) = last_seen.get(&block) {
                max_gap = max_gap.max(i - prev);
            }
            last_seen.insert(block, i);
        }
        // A window of 16 uniques at dedup 3.0 spans ~48 emitted blocks;
        // re-reference gaps must stay bounded (generously: 16 * 3 * 4).
        assert!(
            max_gap <= 192,
            "gap {max_gap} too large for locality window"
        );
    }

    #[test]
    fn generate_concatenates_blocks() {
        let cfg = StreamConfig {
            total_bytes: 4096 * 4,
            ..StreamConfig::default()
        };
        let gen = StreamGenerator::new(cfg);
        let flat = gen.generate();
        assert_eq!(flat.len(), 4096 * 4);
        let blocks: Vec<Vec<u8>> = gen.blocks().collect();
        assert_eq!(&flat[..4096], blocks[0].as_slice());
        assert_eq!(&flat[4096 * 3..], blocks[3].as_slice());
    }

    #[test]
    fn presets_hit_their_ratio_targets() {
        for (cfg, target) in [
            (StreamConfig::vdi(8 << 20), 4.0f64),
            (
                StreamConfig {
                    total_bytes: 8 << 20,
                    ..StreamConfig::default()
                },
                2.0,
            ),
        ] {
            let gen = StreamGenerator::new(cfg);
            let mut counts: HashMap<Vec<u8>, u64> = HashMap::new();
            let mut total = 0u64;
            for b in gen.blocks() {
                *counts.entry(b).or_insert(0) += 1;
                total += 1;
            }
            let measured = total as f64 / counts.len() as f64;
            assert!(
                (measured / target - 1.0).abs() < 0.2,
                "target {target}, measured {measured}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dedup ratio")]
    fn sub_unity_dedup_rejected() {
        StreamGenerator::new(StreamConfig {
            dedup_ratio: 0.5,
            ..StreamConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_stream_rejected() {
        StreamGenerator::new(StreamConfig {
            total_bytes: 100,
            block_bytes: 4096,
            ..StreamConfig::default()
        });
    }
}
