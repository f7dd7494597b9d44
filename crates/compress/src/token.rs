//! The shared LZ token IR and its byte-stream encoding.
//!
//! Every matcher in this crate (FastLz, each GPU sub-chunk thread)
//! produces [`Token`]s; one encoder/decoder pair turns token sequences into
//! bytes. Keeping the IR shared is what makes the GPU path's CPU
//! *post-processing* simple: merging per-thread outputs is token surgery,
//! not bit twiddling.
//!
//! # Wire encoding
//!
//! A token stream is a sequence of records introduced by a control byte:
//!
//! * `0xxxxxxx` — literal run of `x + 1` bytes (1..=128), bytes follow,
//! * `1xxxxxxx` — match of length `x + MIN_MATCH` (3..=130), followed by a
//!   2-byte little-endian backward distance (1..=65535).

use crate::error::CodecError;

/// Shortest encodable match; shorter repeats are cheaper as literals.
pub const MIN_MATCH: usize = 3;
/// Longest encodable match per token (longer matches split).
pub const MAX_MATCH: usize = 130;
/// Longest literal run per control byte.
pub const MAX_LITERAL_RUN: usize = 128;
/// Largest encodable backward distance.
pub const MAX_OFFSET: usize = 65_535;

/// One LZ token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Copy these bytes to the output verbatim.
    Literals(Vec<u8>),
    /// Copy `len` bytes starting `offset` bytes back in the decoded output.
    Match {
        /// Backward distance, `1..=MAX_OFFSET`.
        offset: usize,
        /// Match length, `MIN_MATCH..=MAX_MATCH` after splitting.
        len: usize,
    },
}

/// Appends a literal run to a wire stream, splitting runs longer than
/// [`MAX_LITERAL_RUN`]. Shared by [`encode_tokens`] and the single-pass
/// codecs that emit wire bytes without materializing a token IR.
pub fn emit_literals(out: &mut Vec<u8>, bytes: &[u8]) {
    for run in bytes.chunks(MAX_LITERAL_RUN) {
        if run.is_empty() {
            continue;
        }
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
}

/// Appends a match record to a wire stream, splitting over-long matches.
///
/// # Panics
///
/// Panics if `offset == 0`, `offset > MAX_OFFSET`, or `len < MIN_MATCH` —
/// matchers never emit these.
pub fn emit_match(out: &mut Vec<u8>, offset: usize, len: usize) {
    assert!(
        (1..=MAX_OFFSET).contains(&offset),
        "match offset {offset} out of range"
    );
    assert!(len >= MIN_MATCH, "match length {len} below minimum");
    let mut remaining = len;
    while remaining > 0 {
        // Never leave a sub-minimum tail: cap the piece so the
        // remainder is either 0 or >= MIN_MATCH.
        let mut piece = remaining.min(MAX_MATCH);
        if remaining - piece != 0 && remaining - piece < MIN_MATCH {
            piece = remaining - MIN_MATCH;
        }
        out.push(0x80 | (piece - MIN_MATCH) as u8);
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        remaining -= piece;
    }
}

/// Exact wire length of `tokens` under [`encode_tokens`], without
/// materializing the stream — the frame sealers use it to pick stored-raw
/// frames before paying for an encode that would only be discarded.
pub fn encoded_len(tokens: &[Token]) -> usize {
    let mut total = 0;
    for token in tokens {
        match token {
            Token::Literals(bytes) => {
                total += bytes.len() + bytes.len().div_ceil(MAX_LITERAL_RUN);
            }
            &Token::Match { len, .. } => {
                // Mirror `emit_match`'s piece split: 3 wire bytes apiece.
                let mut remaining = len;
                while remaining > 0 {
                    let mut piece = remaining.min(MAX_MATCH);
                    if remaining - piece != 0 && remaining - piece < MIN_MATCH {
                        piece = remaining - MIN_MATCH;
                    }
                    total += 3;
                    remaining -= piece;
                }
            }
        }
    }
    total
}

/// Serializes `tokens` to the wire encoding, splitting over-long runs and
/// matches as needed.
///
/// # Panics
///
/// Panics if a match has `offset == 0`, `offset > MAX_OFFSET`, or
/// `len < MIN_MATCH` — matchers never emit these.
pub fn encode_tokens(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for token in tokens {
        match token {
            Token::Literals(bytes) => emit_literals(&mut out, bytes),
            &Token::Match { offset, len } => emit_match(&mut out, offset, len),
        }
    }
    out
}

/// Decodes a wire-encoded token stream into `out`, appending — the one
/// decoder.
///
/// Literal runs and matches are both block copies. A match that overlaps
/// its own output (`offset < len`, the LZ idiom for runs) is the decode's
/// only serial dependency: its output repeats the `offset` bytes before
/// it, so each copy doubles the replicated span instead of moving one
/// byte.
///
/// # Errors
///
/// [`CodecError::Truncated`] on a short stream,
/// [`CodecError::BadMatchOffset`] when a match reaches before the start of
/// `out` as it stood at call time plus what has been decoded since.
pub fn decode_stream(mut input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    while let Some((&control, rest)) = input.split_first() {
        input = rest;
        if control & 0x80 == 0 {
            let run = control as usize + 1;
            if input.len() < run {
                return Err(CodecError::Truncated);
            }
            out.extend_from_slice(&input[..run]);
            input = &input[run..];
        } else {
            let len = (control & 0x7F) as usize + MIN_MATCH;
            if input.len() < 2 {
                return Err(CodecError::Truncated);
            }
            let offset = u16::from_le_bytes([input[0], input[1]]) as usize;
            input = &input[2..];
            if offset == 0 || offset > out.len() {
                return Err(CodecError::BadMatchOffset {
                    position: out.len(),
                    offset,
                });
            }
            // `span` bytes from `start` are already a whole number of
            // periods, so appending any prefix of them continues the
            // pattern; a non-overlapping match is done in one copy.
            let start = out.len() - offset;
            let (mut span, mut remaining) = (offset, len);
            while remaining > 0 {
                let n = span.min(remaining);
                out.extend_from_within(start..start + n);
                span += n;
                remaining -= n;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(tokens: &[Token]) -> Vec<u8> {
        let wire = encode_tokens(tokens);
        let mut out = Vec::new();
        decode_stream(&wire, &mut out).expect("decode failed");
        out
    }

    #[test]
    fn literal_run_round_trips() {
        let out = round_trip(&[Token::Literals(b"hello world".to_vec())]);
        assert_eq!(out, b"hello world");
    }

    #[test]
    fn long_literal_run_splits() {
        let data = vec![7u8; 1000];
        let out = round_trip(&[Token::Literals(data.clone())]);
        assert_eq!(out, data);
    }

    #[test]
    fn simple_match_round_trips() {
        let out = round_trip(&[
            Token::Literals(b"abc".to_vec()),
            Token::Match { offset: 3, len: 6 },
        ]);
        assert_eq!(out, b"abcabcabc");
    }

    #[test]
    fn overlapping_match_makes_runs() {
        // "a" then match(offset=1, len=9) = "aaaaaaaaaa".
        let out = round_trip(&[
            Token::Literals(b"a".to_vec()),
            Token::Match { offset: 1, len: 9 },
        ]);
        assert_eq!(out, b"aaaaaaaaaa");
    }

    #[test]
    fn long_match_splits_without_sub_minimum_tail() {
        // 131 = MAX_MATCH + 1 would naively split 130 + 1; the encoder must
        // split it as 128 + 3 instead.
        let mut expect = b"xyz".to_vec();
        let rep: Vec<u8> = expect.iter().cycle().copied().take(131).collect();
        expect.extend_from_slice(&rep);
        let out = round_trip(&[
            Token::Literals(b"xyz".to_vec()),
            Token::Match {
                offset: 3,
                len: 131,
            },
        ]);
        assert_eq!(out, expect);
    }

    #[test]
    fn very_long_match_round_trips() {
        let seed = b"0123456789";
        let mut expect = seed.to_vec();
        let rep: Vec<u8> = expect.iter().cycle().copied().take(5000).collect();
        expect.extend_from_slice(&rep);
        let out = round_trip(&[
            Token::Literals(seed.to_vec()),
            Token::Match {
                offset: 10,
                len: 5000,
            },
        ]);
        assert_eq!(out, expect);
    }

    #[test]
    fn truncated_literal_is_error() {
        let mut wire = encode_tokens(&[Token::Literals(b"abcdef".to_vec())]);
        wire.truncate(3);
        let mut out = Vec::new();
        assert_eq!(decode_stream(&wire, &mut out), Err(CodecError::Truncated));
    }

    #[test]
    fn truncated_match_is_error() {
        let mut wire = encode_tokens(&[
            Token::Literals(b"abc".to_vec()),
            Token::Match { offset: 3, len: 3 },
        ]);
        wire.truncate(wire.len() - 1);
        let mut out = Vec::new();
        assert_eq!(decode_stream(&wire, &mut out), Err(CodecError::Truncated));
    }

    #[test]
    fn match_before_start_is_error() {
        let wire = encode_tokens(&[Token::Match { offset: 5, len: 3 }]);
        let mut out = Vec::new();
        assert!(matches!(
            decode_stream(&wire, &mut out),
            Err(CodecError::BadMatchOffset { offset: 5, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn zero_offset_match_panics_encoder() {
        encode_tokens(&[Token::Match { offset: 0, len: 3 }]);
    }
}
