//! LZ compression for the `inline-dr` pipeline.
//!
//! The paper compresses 4 KB chunks inline with LZ-family codecs, on two
//! execution paths:
//!
//! * **CPU path** — each chunk is handed whole to one worker thread running
//!   a fast single-pass codec (the paper compares against parallel
//!   *QuickLZ*; our from-scratch equivalent is [`FastLz`]).
//! * **GPU path** — a 4 KB chunk cannot fill a GPU by itself, so the paper
//!   assigns *multiple threads per chunk*: each thread LZ-compresses its own
//!   sub-region with a private history/look-ahead buffer, adjacent threads
//!   overlap by the history size, and the **CPU post-processes** the raw
//!   per-thread outputs into one valid stream ([`gpu::GpuCompressor`]).
//!
//! Both paths share one token IR ([`token`]) and one self-framing container
//! ([`frame`]) that falls back to stored-raw when compression does not pay,
//! so a frame written by either decodes with the other's decoder — verified
//! by unit and property tests.
//!
//! # Example
//!
//! ```
//! use dr_compress::{Codec, FastLz};
//!
//! let codec = FastLz::new();
//! let data = b"abcabcabcabcabcabcabcabcabcabc".repeat(10);
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(codec.decompress(&packed).unwrap(), data);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod fastlz;
pub mod frame;
pub mod gpu;
pub mod gpu_decomp;
pub mod scan;
pub mod token;

pub use error::CodecError;
pub use fastlz::FastLz;
pub use frame::{compression_ratio, Frame, FrameStats};
pub use gpu::{GpuCompressor, GpuCompressorConfig};
pub use gpu_decomp::{GpuDecompReport, GpuDecompressor};
pub use token::Token;

/// A lossless block codec.
///
/// Implementations guarantee `decompress(compress(x)) == x` for every `x`,
/// and bounded expansion on incompressible input (one frame header plus the
/// stored-raw fallback).
pub trait Codec {
    /// A short human-readable codec name for reports.
    fn name(&self) -> &str;

    /// Compresses `input` into a self-framing block.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Compresses `input` into `out`, clearing it first and reusing its
    /// capacity. The result is byte-identical to [`Codec::compress`].
    ///
    /// The default delegates to [`Codec::compress`]; single-pass codecs
    /// override it to write directly into the recycled buffer so the hot
    /// path allocates nothing in the steady state.
    fn compress_to(&self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.compress(input));
    }

    /// Decompresses a block produced by [`Codec::compress`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the block is truncated or corrupt.
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError>;
}
