//! The self-framing compressed-block container.
//!
//! Every codec wraps its token stream in a [`Frame`] so a destaged chunk is
//! self-describing: the destage path (and the paper's "refinement" step)
//! can always fall back to storing the chunk raw when compression does not
//! pay — LZ on incompressible data would otherwise *expand* it.
//!
//! # Layout
//!
//! ```text
//! byte 0      method: 0 = stored raw, 1 = LZ token stream
//! bytes 1..5  original length, little-endian u32
//! bytes 5..   payload (raw bytes or encoded tokens)
//! ```

use crate::error::CodecError;
use crate::token::{decode_stream, Token};

const METHOD_RAW: u8 = 0;
const METHOD_LZ: u8 = 1;
const HEADER_LEN: usize = 5;

/// The header's original-length field, checked instead of silently
/// narrowed: a >4 GiB "chunk" would previously truncate to a bogus length
/// in release builds (the `debug_assert!` only fired under debug).
fn header_len_of(original: &[u8]) -> [u8; 4] {
    let len = u32::try_from(original.len())
        .expect("chunk exceeds the frame format's 4 GiB original-length field");
    len.to_le_bytes()
}

/// A parsed view of a compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The block stores the original bytes verbatim.
    Raw,
    /// The block stores an LZ token stream.
    Lz,
}

/// Wraps `tokens` for `original` into a frame, falling back to stored-raw
/// when the encoded tokens are not strictly smaller than the input.
///
/// # Panics
///
/// Panics when `original` exceeds the format's u32 length field.
pub fn seal(original: &[u8], tokens: &[Token]) -> Vec<u8> {
    let header_len = header_len_of(original);
    // Size the payload without encoding it: when stored-raw wins (every
    // low-ratio chunk), the whole token encode would be thrown away.
    let encoded_len = crate::token::encoded_len(tokens);
    let mut out = Vec::with_capacity(HEADER_LEN + encoded_len.min(original.len()));
    if encoded_len < original.len() {
        out.push(METHOD_LZ);
        out.extend_from_slice(&header_len);
        for token in tokens {
            match token {
                Token::Literals(bytes) => crate::token::emit_literals(&mut out, bytes),
                &Token::Match { offset, len } => crate::token::emit_match(&mut out, offset, len),
            }
        }
        debug_assert_eq!(out.len(), HEADER_LEN + encoded_len);
    } else {
        out.push(METHOD_RAW);
        out.extend_from_slice(&header_len);
        out.extend_from_slice(original);
    }
    out
}

/// In-place sealing for single-pass codecs: clears `out`, writes an LZ
/// header, runs `encode` to append the wire payload directly, then — with
/// the same strict rule as [`seal`] — rewrites the buffer as a stored-raw
/// frame when the payload is not strictly smaller than `original`.
///
/// Reuses whatever capacity `out` already has, so a recycled buffer makes
/// compression allocation-free in the steady state.
///
/// # Panics
///
/// Panics when `original` exceeds the format's u32 length field.
pub fn seal_with(original: &[u8], out: &mut Vec<u8>, encode: impl FnOnce(&[u8], &mut Vec<u8>)) {
    let header_len = header_len_of(original);
    out.clear();
    out.push(METHOD_LZ);
    out.extend_from_slice(&header_len);
    encode(original, out);
    if out.len() - HEADER_LEN >= original.len() {
        out.clear();
        out.push(METHOD_RAW);
        out.extend_from_slice(&header_len);
        out.extend_from_slice(original);
    }
}

/// Wraps `original` as a stored-raw frame unconditionally.
pub fn seal_raw(original: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + original.len());
    seal_raw_into(original, &mut out);
    out
}

/// [`seal_raw`] into a recycled buffer (cleared first).
///
/// # Panics
///
/// Panics when `original` exceeds the format's u32 length field.
pub fn seal_raw_into(original: &[u8], out: &mut Vec<u8>) {
    let header_len = header_len_of(original);
    out.clear();
    out.push(METHOD_RAW);
    out.extend_from_slice(&header_len);
    out.extend_from_slice(original);
}

/// Identifies the frame method without decoding.
///
/// # Errors
///
/// [`CodecError::Truncated`] / [`CodecError::BadHeader`].
pub fn inspect(block: &[u8]) -> Result<(Frame, usize), CodecError> {
    if block.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let original_len = u32::from_le_bytes(block[1..5].try_into().expect("4 bytes")) as usize;
    match block[0] {
        METHOD_RAW => Ok((Frame::Raw, original_len)),
        METHOD_LZ => Ok((Frame::Lz, original_len)),
        _ => Err(CodecError::BadHeader),
    }
}

/// Unwraps a frame back to the original bytes.
///
/// # Errors
///
/// Any [`CodecError`]: truncation, corruption, or a length mismatch between
/// the header and the decoded payload.
pub fn open(block: &[u8]) -> Result<Vec<u8>, CodecError> {
    let (method, original_len) = inspect(block)?;
    let payload = &block[HEADER_LEN..];
    let out = match method {
        Frame::Raw => payload.to_vec(),
        Frame::Lz => {
            let mut out = Vec::with_capacity(original_len);
            decode_stream(payload, &mut out)?;
            out
        }
    };
    if out.len() != original_len {
        return Err(CodecError::LengthMismatch {
            expected: original_len,
            got: out.len(),
        });
    }
    Ok(out)
}

/// `original / compressed` size ratio of a sealed block; > 1 means the
/// block shrank. Matches the paper's "compression ratio 2.0" convention.
pub fn compression_ratio(original_len: usize, block: &[u8]) -> f64 {
    original_len as f64 / block.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressible_input_uses_lz() {
        let original = b"abcabcabcabcabcabcabcabcabc";
        let tokens = vec![
            Token::Literals(b"abc".to_vec()),
            Token::Match {
                offset: 3,
                len: original.len() - 3,
            },
        ];
        let block = seal(original, &tokens);
        assert_eq!(inspect(&block).unwrap().0, Frame::Lz);
        assert_eq!(open(&block).unwrap(), original);
        assert!(compression_ratio(original.len(), &block) > 1.0);
    }

    #[test]
    fn incompressible_input_falls_back_to_raw() {
        let original: Vec<u8> = (0..=255u8).collect();
        // Worst-case tokens: everything literal (encoded >= original).
        let tokens = vec![Token::Literals(original.clone())];
        let block = seal(&original, &tokens);
        assert_eq!(inspect(&block).unwrap().0, Frame::Raw);
        assert_eq!(open(&block).unwrap(), original);
        // Bounded expansion: header only.
        assert_eq!(block.len(), original.len() + 5);
    }

    #[test]
    fn seal_raw_is_always_raw() {
        let block = seal_raw(b"abcabcabc");
        assert_eq!(inspect(&block).unwrap().0, Frame::Raw);
        assert_eq!(open(&block).unwrap(), b"abcabcabc");
    }

    #[test]
    fn empty_input_round_trips() {
        let block = seal(&[], &[]);
        assert_eq!(open(&block).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(inspect(&[1, 2]), Err(CodecError::Truncated));
        assert_eq!(open(&[1, 2]), Err(CodecError::Truncated));
    }

    #[test]
    fn unknown_method_rejected() {
        // Methods 0 and 1 are the whole format: every other byte over an
        // otherwise valid frame of either kind is a bad header, before any
        // payload byte is looked at.
        let original = b"abcabcabcabcabcabcabcabcabc";
        let lz = seal(
            original,
            &[
                Token::Literals(b"abc".to_vec()),
                Token::Match {
                    offset: 3,
                    len: original.len() - 3,
                },
            ],
        );
        assert_eq!(inspect(&lz).unwrap().0, Frame::Lz);
        for valid in [seal_raw(original), lz] {
            for method in 2..=255u8 {
                let mut block = valid.clone();
                block[0] = method;
                assert_eq!(inspect(&block), Err(CodecError::BadHeader), "{method}");
                assert_eq!(open(&block), Err(CodecError::BadHeader), "{method}");
            }
        }
    }

    #[test]
    fn length_mismatch_detected_for_raw() {
        let mut block = seal_raw(b"abcdef");
        block.pop();
        assert!(matches!(
            open(&block),
            Err(CodecError::LengthMismatch {
                expected: 6,
                got: 5
            })
        ));
    }

    /// The integrity envelope destage writes: the frame, then its
    /// CRC-32C trailer.
    fn protect(frame: &[u8]) -> Vec<u8> {
        let mut envelope = frame.to_vec();
        dr_hashes::seal(&mut envelope, 0);
        envelope
    }

    #[test]
    fn protect_round_trips() {
        let frame = seal_raw(b"some frame");
        let protected = protect(&frame);
        assert_eq!(protected.len(), frame.len() + dr_hashes::SEAL_LEN);
        assert_eq!(protected[..frame.len()], frame[..]);
        assert_eq!(dr_hashes::open(&protected), Ok(frame.as_slice()));
    }

    #[test]
    fn protect_detects_every_single_bit_flip() {
        let frame = seal_raw(b"integrity matters");
        let protected = protect(&frame);
        for byte in 0..protected.len() {
            let mut corrupt = protected.clone();
            corrupt[byte] ^= 0x40;
            assert!(
                matches!(
                    dr_hashes::open(&corrupt),
                    Err(dr_hashes::SealError::Mismatch { .. })
                ),
                "flip at byte {byte} not detected"
            );
        }
    }

    #[test]
    fn protect_catches_a_rewritten_method_byte_before_the_method_is_read() {
        // The envelope is checked first: a method byte damaged on the
        // device is a checksum error, whether or not the new value names a
        // method (0 -> 1 would otherwise decode raw bytes as tokens).
        let protected = protect(&seal_raw(b"integrity matters"));
        for method in 1..=255u8 {
            let mut corrupt = protected.clone();
            corrupt[0] = method;
            assert!(
                matches!(
                    dr_hashes::open(&corrupt),
                    Err(dr_hashes::SealError::Mismatch { .. })
                ),
                "method {method}"
            );
        }
    }

    #[test]
    fn protect_rejects_truncation() {
        let protected = protect(&seal_raw(b"integrity matters"));
        for len in 0..dr_hashes::SEAL_LEN {
            assert_eq!(
                dr_hashes::open(&protected[..len]),
                Err(dr_hashes::SealError::Truncated)
            );
        }
        for len in dr_hashes::SEAL_LEN..protected.len() {
            assert!(
                matches!(
                    dr_hashes::open(&protected[..len]),
                    Err(dr_hashes::SealError::Mismatch { .. })
                ),
                "a {len}-byte prefix must be rejected"
            );
        }
    }

    #[test]
    fn length_mismatch_detected_for_lz() {
        let original = b"abcabcabcabcabcabcabc";
        let tokens = vec![
            Token::Literals(b"abc".to_vec()),
            Token::Match {
                offset: 3,
                len: original.len() - 3,
            },
        ];
        let mut block = seal(original, &tokens);
        // Lie about the original length.
        block[1] = 5;
        block[2] = 0;
        assert!(matches!(
            open(&block),
            Err(CodecError::LengthMismatch { .. })
        ));
    }
}
