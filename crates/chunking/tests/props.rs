//! Randomized tests: the chunker frames losslessly on arbitrary inputs.

use dr_chunking::{Chunker, FixedChunker};
use dr_des::testkit::{self, Cases};

/// Fixed chunking reassembles exactly, for any size and input.
#[test]
fn fixed_is_lossless() {
    Cases::new("fixed_is_lossless", 0xC4A_0001).run(64, |rng| {
        let data = testkit::vec_u8(rng, 0, 20_000);
        let size = testkit::usize_in(rng, 1, 4_999);
        let chunker = FixedChunker::new(size);
        let mut rebuilt = Vec::with_capacity(data.len());
        for c in chunker.chunk(&data) {
            assert_eq!(c.offset as usize, rebuilt.len());
            assert!(!c.data.is_empty());
            assert!(c.data.len() <= size);
            rebuilt.extend_from_slice(c.data);
        }
        assert_eq!(rebuilt, data);
    });
}

/// All fixed chunks except the tail have exactly the configured size.
#[test]
fn fixed_sizes_are_exact() {
    Cases::new("fixed_sizes_are_exact", 0xC4A_0002).run(64, |rng| {
        let data = testkit::vec_u8(rng, 1, 10_000);
        let size = testkit::usize_in(rng, 1, 1_999);
        let chunker = FixedChunker::new(size);
        let chunks: Vec<_> = chunker.chunk(&data).collect();
        for c in &chunks[..chunks.len() - 1] {
            assert_eq!(c.data.len(), size);
        }
    });
}
