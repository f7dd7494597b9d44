//! Codec errors.

use std::error::Error;
use std::fmt;

/// Errors returned when decoding a compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The block ended in the middle of a token or header.
    Truncated,
    /// The frame header is not one this library produced.
    BadHeader,
    /// A match token pointed before the start of the decoded output.
    BadMatchOffset {
        /// Decoded length at the point of failure.
        position: usize,
        /// The (invalid) backward distance.
        offset: usize,
    },
    /// The decoded length did not match the length declared in the header.
    LengthMismatch {
        /// Length declared in the frame header.
        expected: usize,
        /// Length actually produced by decoding.
        got: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed block is truncated"),
            CodecError::BadHeader => write!(f, "unrecognized frame header"),
            CodecError::BadMatchOffset { position, offset } => write!(
                f,
                "match offset {offset} reaches before output start at position {position}"
            ),
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "decoded {got} bytes but header declared {expected}")
            }
        }
    }
}

impl Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        assert_eq!(
            CodecError::Truncated.to_string(),
            "compressed block is truncated"
        );
        let e = CodecError::BadMatchOffset {
            position: 3,
            offset: 9,
        };
        assert!(e.to_string().contains("9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CodecError>();
    }
}
