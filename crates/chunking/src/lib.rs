//! Chunking: splitting an incoming data stream into dedup units.
//!
//! The paper's pipeline begins with *chunking* — breaking the write stream
//! into the base units whose redundancy is checked. Primary-storage systems
//! overwhelmingly use **fixed-size** chunks aligned to the block size (the
//! paper uses 4 KB for compression experiments and 8 KB for capacity
//! sizing); this crate provides that chunker. Content-defined chunking is
//! a non-goal (DESIGN.md §17).
//!
//! * [`FixedChunker`] — fixed-size, block-aligned chunking,
//! * [`Chunk`] — a borrowed view of one chunk plus its stream offset.
//!
//! # Example
//!
//! ```
//! use dr_chunking::{Chunker, FixedChunker};
//!
//! let data = vec![7u8; 10_000];
//! let chunker = FixedChunker::new(4096);
//! let chunks: Vec<_> = chunker.chunk(&data).collect();
//! assert_eq!(chunks.len(), 3); // 4096 + 4096 + 1808 (short tail kept)
//! assert_eq!(chunks[2].data.len(), 10_000 - 2 * 4096);
//! ```

#![forbid(unsafe_code)]

pub mod fixed;

pub use fixed::FixedChunker;

/// A single chunk cut from a stream: a borrowed byte window plus where it
/// came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk<'a> {
    /// Byte offset of this chunk within the stream it was cut from.
    pub offset: u64,
    /// The chunk payload.
    pub data: &'a [u8],
}

impl<'a> Chunk<'a> {
    /// Length of the chunk in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the chunk is empty (never produced by a chunker).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Something that can cut a byte stream into [`Chunk`]s.
///
/// A chunker guarantees: chunks are non-empty, contiguous, in stream
/// order, and concatenating `chunk.data` in order reproduces the input
/// exactly (lossless framing).
pub trait Chunker {
    /// The iterator type produced by [`Chunker::chunk`].
    type Iter<'a>: Iterator<Item = Chunk<'a>>
    where
        Self: 'a;

    /// Cuts `data` into chunks.
    fn chunk<'a>(&'a self, data: &'a [u8]) -> Self::Iter<'a>;

    /// The average/target chunk size in bytes, used for capacity planning.
    fn target_chunk_size(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_helpers() {
        let c = Chunk {
            offset: 0,
            data: b"abc",
        };
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }
}
