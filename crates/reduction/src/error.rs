//! Typed errors for the pipeline read path.
//!
//! The read path crosses four layers — recipe lookup, the SSD device
//! model, the integrity envelope, and frame decode — and each can fail for
//! a different reason.
//! Callers like the differential checker (`dr-check`) need to classify
//! failures ("device fault" vs "corrupt frame" vs "bad index") instead of
//! string-matching, so every layer's error is preserved as a variant.

use dr_compress::CodecError;
use dr_hashes::SealError;
use dr_ssd_sim::SsdError;

/// A failure on the chunk/block read path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The logical block index was never ingested (out of recipe range).
    UnknownBlock {
        /// Offending recipe index.
        index: usize,
    },
    /// The SSD device model refused the read (or the flush forced by an
    /// unwritten tail failed) after retries.
    Device(SsdError),
    /// The stored frame's integrity envelope did not open: its CRC-32C
    /// seal does not match (device corruption).
    Integrity(SealError),
    /// The stored frame failed to decode: truncated or malformed.
    Frame(CodecError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::UnknownBlock { index } => {
                write!(f, "block {index} was never ingested")
            }
            ReadError::Device(e) => write!(f, "device read failed: {e}"),
            ReadError::Integrity(e) => write!(f, "frame integrity check failed: {e}"),
            ReadError::Frame(e) => write!(f, "frame decode failed: {e}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::UnknownBlock { .. } => None,
            ReadError::Device(e) => Some(e),
            ReadError::Integrity(e) => Some(e),
            ReadError::Frame(e) => Some(e),
        }
    }
}

impl From<SsdError> for ReadError {
    fn from(e: SsdError) -> Self {
        ReadError::Device(e)
    }
}

impl From<SealError> for ReadError {
    fn from(e: SealError) -> Self {
        ReadError::Integrity(e)
    }
}

impl From<CodecError> for ReadError {
    fn from(e: CodecError) -> Self {
        ReadError::Frame(e)
    }
}
