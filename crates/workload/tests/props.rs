//! Randomized tests: workload generation invariants.

use dr_des::testkit::{self, Cases};
use dr_pool::WorkerPool;
use dr_workload::{synthesize_block, StreamConfig, StreamGenerator, ZipfSampler};
use std::collections::HashSet;

/// Block synthesis is a pure function of (seed, size, ratio).
#[test]
fn synthesis_is_pure() {
    Cases::new("synthesis_is_pure", 0x301_0001).run(48, |rng| {
        let seed = rng.next_u64();
        let size = testkit::usize_in(rng, 1, 8191);
        let ratio = testkit::f64_in(rng, 1.0, 8.0);
        assert_eq!(
            synthesize_block(seed, size, ratio),
            synthesize_block(seed, size, ratio)
        );
    });
}

/// Distinct seeds produce distinct blocks (no accidental dedup).
#[test]
fn distinct_seeds_distinct_blocks() {
    Cases::new("distinct_seeds_distinct_blocks", 0x301_0002).run(48, |rng| {
        let mut seeds = HashSet::new();
        let want = testkit::usize_in(rng, 2, 49);
        while seeds.len() < want {
            seeds.insert(rng.next_u64());
        }
        let ratio = testkit::f64_in(rng, 1.0, 8.0);
        let blocks: HashSet<Vec<u8>> = seeds
            .iter()
            .map(|s| synthesize_block(*s, 4096, ratio))
            .collect();
        assert_eq!(blocks.len(), seeds.len());
    });
}

/// The stream generator always emits exactly `block_count` blocks of
/// the configured size, deterministically.
#[test]
fn stream_shape_is_exact() {
    Cases::new("stream_shape_is_exact", 0x301_0003).run(48, |rng| {
        let total_kb = testkit::u64_in(rng, 4, 511);
        let dedup = testkit::f64_in(rng, 1.0, 6.0);
        let seed = rng.next_u64();
        let cfg = StreamConfig {
            total_bytes: total_kb * 1024,
            block_bytes: 4096,
            dedup_ratio: dedup,
            seed,
            ..StreamConfig::default()
        };
        if cfg.total_bytes < cfg.block_bytes as u64 {
            return;
        }
        let gen = StreamGenerator::new(cfg);
        let blocks: Vec<Vec<u8>> = gen.blocks().collect();
        assert_eq!(blocks.len() as u64, cfg.block_count());
        assert!(blocks.iter().all(|b| b.len() == 4096));
        let again: Vec<Vec<u8>> = gen.blocks().collect();
        assert_eq!(blocks, again);
    });
}

/// Unique-block count never exceeds what the dedup ratio implies by
/// much, and duplicates really are byte-identical copies.
#[test]
fn dedup_knob_bounds_uniques() {
    Cases::new("dedup_knob_bounds_uniques", 0x301_0004).run(16, |rng| {
        let cfg = StreamConfig {
            total_bytes: 2 << 20,
            dedup_ratio: 4.0,
            seed: rng.next_u64(),
            ..StreamConfig::default()
        };
        let gen = StreamGenerator::new(cfg);
        let total = cfg.block_count() as f64;
        let unique: HashSet<Vec<u8>> = gen.blocks().collect();
        let measured = total / unique.len() as f64;
        assert!(
            measured > 2.0,
            "dedup ratio {measured} far below target 4.0"
        );
    });
}

/// Zipf samples stay inside `0..n` for any (n, theta), including the
/// uniform and extreme-skew corners.
#[test]
fn zipf_range_holds_for_any_theta() {
    Cases::new("zipf_range_holds_for_any_theta", 0x301_0006).run(48, |rng| {
        let n = testkit::usize_in(rng, 1, 2000);
        let theta = testkit::f64_in(rng, 0.0, 3.0);
        let mut z = ZipfSampler::new(n, theta, rng.next_u64());
        assert_eq!(z.len(), n);
        for _ in 0..2_000 {
            assert!(z.sample() < n);
        }
    });
}

/// Skew bound: for any meaningful theta, the hottest decile of ranks
/// draws strictly more mass than the coldest decile, and mass on the
/// hottest decile grows with theta.
#[test]
fn zipf_skew_orders_rank_mass() {
    Cases::new("zipf_skew_orders_rank_mass", 0x301_0007).run(16, |rng| {
        let n = testkit::usize_in(rng, 100, 1000);
        let seed = rng.next_u64();
        let decile_mass = |theta: f64| -> (u32, u32) {
            let mut z = ZipfSampler::new(n, theta, seed);
            let (mut hot, mut cold) = (0u32, 0u32);
            for _ in 0..20_000 {
                let r = z.sample();
                if r < n / 10 {
                    hot += 1;
                } else if r >= n - n / 10 {
                    cold += 1;
                }
            }
            (hot, cold)
        };
        let (hot_mild, cold_mild) = decile_mass(0.6);
        assert!(
            hot_mild > cold_mild,
            "theta 0.6: hot decile {hot_mild} <= cold decile {cold_mild} (n={n})"
        );
        let (hot_steep, _) = decile_mass(1.3);
        assert!(
            hot_steep > hot_mild,
            "theta 1.3 hot mass {hot_steep} not above theta 0.6 mass {hot_mild} (n={n})"
        );
    });
}

/// The stream generator is a pure function of its seed: regenerating any
/// block index on worker pools of different widths — including the
/// zero-worker inline pool — yields byte-identical output. Reduction runs
/// on a work-stealing pool, so workload bytes must never depend on which
/// thread synthesizes them.
#[test]
fn stream_blocks_identical_across_pool_widths() {
    let cfg = StreamConfig {
        total_bytes: 64 * 4096,
        seed: 0xBEEF,
        ..StreamConfig::default()
    };
    let reference: Vec<Vec<u8>> = StreamGenerator::new(cfg).blocks().collect();
    for workers in [0, 1, 4] {
        let pool = WorkerPool::new(workers);
        let parallel: Vec<Vec<u8>> = pool.map_collect(reference.len(), |i| {
            StreamGenerator::new(cfg)
                .blocks()
                .nth(i)
                .expect("index within block count")
        });
        assert_eq!(
            parallel, reference,
            "stream bytes diverged on a {workers}-worker pool"
        );
    }
}
