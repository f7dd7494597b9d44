//! A QuickLZ-class fast LZ codec.
//!
//! The paper's CPU baseline is *parallel QuickLZ*: a single-pass,
//! byte-oriented LZ with a direct-mapped hash table over 3-byte sequences
//! and greedy match extension — trading ratio for speed. QuickLZ itself is
//! closed-source; [`FastLz`] is a from-scratch codec of the same
//! algorithmic class (see `DESIGN.md` §2).

use dr_hashes::mix64;

use crate::error::CodecError;
use crate::frame;
use crate::scan::match_len;
use crate::token::{emit_literals, emit_match, Token, MAX_OFFSET, MIN_MATCH};
use crate::Codec;

/// Number of slots in the direct-mapped match table (power of two).
const TABLE_SIZE: usize = 1 << 12;

/// Upper bound on the candidate-bucket width (see [`FastLz::with_probes`]).
pub const MAX_PROBES: u8 = 4;

/// The fast single-pass codec.
///
/// ```
/// use dr_compress::{Codec, FastLz};
/// let codec = FastLz::new();
/// let packed = codec.compress(&[0u8; 4096]);
/// assert!(packed.len() < 128);
/// assert_eq!(codec.decompress(&packed).unwrap(), vec![0u8; 4096]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastLz {
    /// Candidates examined per table slot (1 = classic direct-mapped).
    probes: u8,
}

impl Default for FastLz {
    fn default() -> Self {
        Self::new()
    }
}

impl FastLz {
    /// Creates the codec with the classic single-candidate table.
    pub fn new() -> Self {
        FastLz { probes: 1 }
    }

    /// A codec whose match table keeps `probes` recent candidates per slot
    /// (a 4-ary set-associative table at the maximum). More probes buy
    /// ratio on hash-collision-heavy data for a proportional scan cost;
    /// `probes == 1` is byte-identical to [`FastLz::new`].
    ///
    /// # Panics
    ///
    /// Panics if `probes` is zero or exceeds [`MAX_PROBES`].
    pub fn with_probes(probes: u8) -> Self {
        assert!(
            (1..=MAX_PROBES).contains(&probes),
            "probes must be in 1..={MAX_PROBES}"
        );
        FastLz { probes }
    }

    /// The configured candidates-per-slot count.
    pub fn probes(&self) -> u8 {
        self.probes
    }

    /// Tokenizes `input` with a greedy single-pass matcher — the token-IR
    /// reference [`FastLz::compress_into`] is tested against. Always
    /// single-probe, matching [`FastLz::new`].
    pub fn tokenize(input: &[u8]) -> Vec<Token> {
        tokenize_region(input, 0, input.len(), input.len())
    }

    /// Compresses `input` into `out` (cleared first), reusing its capacity.
    ///
    /// Single-pass: the matcher emits wire bytes directly into the frame as
    /// it scans, so no token IR or intermediate buffer is allocated. The
    /// produced frame is byte-identical to [`Codec::compress`].
    pub fn compress_into(&self, input: &[u8], out: &mut Vec<u8>) {
        frame::seal_with(input, out, |original, payload| {
            scan_region_dispatch(
                original,
                0,
                original.len(),
                original.len(),
                self.probes,
                &mut WireSink(payload),
            );
        });
    }
}

/// Receives matcher output: either a literal span or a back-reference.
/// Lets one matcher implementation drive both the single-pass wire paths
/// (the CPU codec and the GPU kernel emulation, neither of which may
/// allocate per token) and the token IR the differential tests use as
/// their reference.
trait TokenSink {
    fn literals(&mut self, bytes: &[u8]);
    fn matched(&mut self, offset: usize, len: usize);
}

impl TokenSink for Vec<Token> {
    fn literals(&mut self, bytes: &[u8]) {
        self.push(Token::Literals(bytes.to_vec()));
    }
    fn matched(&mut self, offset: usize, len: usize) {
        self.push(Token::Match { offset, len });
    }
}

/// Emits the wire encoding straight into a byte buffer.
struct WireSink<'a>(&'a mut Vec<u8>);

impl TokenSink for WireSink<'_> {
    fn literals(&mut self, bytes: &[u8]) {
        emit_literals(self.0, bytes);
    }
    fn matched(&mut self, offset: usize, len: usize) {
        emit_match(self.0, offset, len);
    }
}

/// [`WireSink`] that also tallies what the GPU cost model charges for the
/// raw token stream a kernel thread writes out: `len + 1` bytes per
/// literal token and 3 per match token. The tally is per *token*, not per
/// wire piece — a run longer than `MAX_LITERAL_RUN` or a match longer than
/// `MAX_MATCH` splits on the wire but is one token to the kernel.
struct CountingWireSink<'a> {
    out: &'a mut Vec<u8>,
    raw_token_bytes: u64,
}

impl TokenSink for CountingWireSink<'_> {
    fn literals(&mut self, bytes: &[u8]) {
        emit_literals(self.out, bytes);
        self.raw_token_bytes += bytes.len() as u64 + 1;
    }
    fn matched(&mut self, offset: usize, len: usize) {
        emit_match(self.out, offset, len);
        self.raw_token_bytes += 3;
    }
}

/// Greedy-tokenizes `input[start..end]`, allowing matches that reach back
/// at most `window` bytes (and never before `input[0]`). Offsets are
/// relative distances, so the produced tokens decode correctly whenever at
/// least `start` bytes of history precede them — the property the GPU
/// post-processor relies on.
///
/// The token IR is the reference the differential tests hold the
/// single-pass paths to; nothing on the ingest path materializes it.
pub fn tokenize_region(input: &[u8], start: usize, end: usize, window: usize) -> Vec<Token> {
    let mut tokens = Vec::new();
    scan_region(input, start, end, window, &mut tokens);
    tokens
}

/// Scans `input[start..end]` exactly as [`tokenize_region`] does, but
/// appends the wire encoding of the tokens straight to `out`. Returns the
/// raw-token bytes the GPU cost model charges for the region.
pub(crate) fn scan_region_to_wire(
    input: &[u8],
    start: usize,
    end: usize,
    window: usize,
    out: &mut Vec<u8>,
) -> u64 {
    let mut sink = CountingWireSink {
        out,
        raw_token_bytes: 0,
    };
    scan_region(input, start, end, window, &mut sink);
    sink.raw_token_bytes
}

/// The greedy single-pass matcher core behind [`tokenize_region`] and
/// [`FastLz::compress_into`]; match decisions are identical regardless of
/// the sink, so both paths produce the same token sequence.
fn scan_region(input: &[u8], start: usize, end: usize, window: usize, sink: &mut dyn TokenSink) {
    scan_region_probed::<1>(input, start, end, window, sink);
}

/// Monomorphizes the probe width: the table is a stack array, so its size
/// must be a compile-time constant per variant.
fn scan_region_dispatch(
    input: &[u8],
    start: usize,
    end: usize,
    window: usize,
    probes: u8,
    sink: &mut dyn TokenSink,
) {
    match probes {
        1 => scan_region_probed::<1>(input, start, end, window, sink),
        2 => scan_region_probed::<2>(input, start, end, window, sink),
        3 => scan_region_probed::<3>(input, start, end, window, sink),
        _ => scan_region_probed::<4>(input, start, end, window, sink),
    }
}

/// The 3-byte match key at `at`, as a little-endian word — both the hash
/// input and the candidate prefilter word.
#[inline]
fn three_bytes(input: &[u8], at: usize) -> u32 {
    // One unaligned 4-byte load beats three byte loads; the tail guard
    // keeps the read in bounds on the last position of the buffer.
    if at + 4 <= input.len() {
        u32::from_le_bytes(input[at..at + 4].try_into().unwrap()) & 0x00FF_FFFF
    } else {
        u32::from_le_bytes([input[at], input[at + 1], input[at + 2], 0])
    }
}

#[inline]
fn hash_key(key: u32) -> usize {
    (mix64(key as u64 | 0x0100_0000) as usize) & (TABLE_SIZE - 1)
}

/// Absent-slot sentinel. Positions are stored as `u32` so the table stays
/// half the size (and cache footprint) of a `usize` table; the frame
/// format's u32 length field already bounds inputs below `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// Pushes `pos` as the newest candidate in its bucket, aging out the
/// oldest. With `PROBES == 1` this is exactly the direct-mapped overwrite.
#[inline]
fn bucket_push<const PROBES: usize>(
    table: &mut [[u32; PROBES]; TABLE_SIZE],
    slot: usize,
    pos: usize,
) {
    let bucket = &mut table[slot];
    for i in (1..PROBES).rev() {
        bucket[i] = bucket[i - 1];
    }
    bucket[0] = pos as u32;
}

/// Greedy single-pass scan over a `PROBES`-way set-associative match
/// table. Candidates are probed newest-first; the longest match wins, with
/// ties going to the most recent (smallest-offset) candidate. Extension is
/// SWAR ([`match_len`]) — decision-identical to the byte-at-a-time loop,
/// so `PROBES == 1` reproduces the historical output byte for byte.
fn scan_region_probed<const PROBES: usize>(
    input: &[u8],
    start: usize,
    end: usize,
    window: usize,
    sink: &mut dyn TokenSink,
) {
    debug_assert!(start <= end && end <= input.len());
    let mut table = [[EMPTY; PROBES]; TABLE_SIZE];
    // Seed the table with positions from the visible history window so the
    // first bytes of the region can match backwards into it.
    let hist_start = start.saturating_sub(window);
    if end >= MIN_MATCH {
        for pos in hist_start..start.min(end - MIN_MATCH + 1) {
            bucket_push(&mut table, hash_key(three_bytes(input, pos)), pos);
        }
    }

    let mut literal_start = start;
    let mut pos = start;
    while pos + MIN_MATCH <= end {
        let here = three_bytes(input, pos);
        let slot = hash_key(here);

        let mut matched = 0usize;
        let mut best = usize::MAX;
        let limit = end - pos;
        for &candidate in &table[slot] {
            // Reject empty, future, and out-of-window slots without
            // branching: `EMPTY as usize` is `u32::MAX` (never below a
            // valid position — the frame format bounds inputs under
            // `u32::MAX`), and `wrapping_sub` turns a future candidate
            // into a huge distance both range checks refuse. Eager `&`
            // instead of `&&` keeps this a flag computation — a fresh
            // table makes slot occupancy a coin flip for most of a 4 KiB
            // chunk, and a data-dependent branch here mispredicts its
            // way to ~2x the scan cost.
            let candidate = candidate as usize;
            let distance = pos.wrapping_sub(candidate);
            let in_range = (candidate < pos)
                & (distance <= MAX_OFFSET)
                & (distance <= window)
                & (candidate >= hist_start);
            // A candidate disagreeing in the first MIN_MATCH bytes can
            // never reach MIN_MATCH, and sub-minimum lengths never emit —
            // the word prefilter is decision-identical and avoids the
            // slice setup of a doomed extension. Rejected candidates load
            // from `pos` (always in bounds) so the load itself needs no
            // branch; the flag keeps them out of the accept path.
            let probe_at = if in_range { candidate } else { pos };
            let accept = in_range & (three_bytes(input, probe_at) == here);
            if accept {
                // Extend the match greedily, bounded by the region end.
                let len = match_len(&input[candidate..candidate + limit], &input[pos..end]);
                if len > matched {
                    matched = len;
                    best = candidate;
                }
            }
        }
        bucket_push(&mut table, slot, pos);

        if matched >= MIN_MATCH {
            if literal_start < pos {
                sink.literals(&input[literal_start..pos]);
            }
            sink.matched(pos - best, matched);
            // Insert a few positions inside the match so later data can
            // reference it (bounded to keep the pass single-speed).
            let insert_end = (pos + matched).min(end.saturating_sub(MIN_MATCH - 1));
            for p in (pos + 1..insert_end).take(8) {
                bucket_push(&mut table, hash_key(three_bytes(input, p)), p);
            }
            pos += matched;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    if literal_start < end {
        sink.literals(&input[literal_start..end]);
    }
}

impl Codec for FastLz {
    fn name(&self) -> &str {
        "fastlz"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(input, &mut out);
        out
    }

    fn compress_to(&self, input: &[u8], out: &mut Vec<u8>) {
        self.compress_into(input, out);
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        frame::open(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let codec = FastLz::new();
        let packed = codec.compress(data);
        assert_eq!(
            codec.decompress(&packed).unwrap(),
            data,
            "round trip failed"
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn run_of_zeros_compresses_hard() {
        // 4 KB of zeros: one literal + ~32 max-length match tokens.
        let data = vec![0u8; 4096];
        let packed = FastLz::new().compress(&data);
        assert!(packed.len() < 128, "packed {} bytes", packed.len());
        round_trip(&data);
    }

    #[test]
    fn repeated_phrase_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let packed = FastLz::new().compress(&data);
        assert!(packed.len() < data.len() / 2);
        round_trip(&data);
    }

    #[test]
    fn random_data_expands_only_by_header() {
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let packed = FastLz::new().compress(&data);
        assert!(packed.len() <= data.len() + 5);
        round_trip(&data);
    }

    #[test]
    fn text_like_data_round_trips() {
        let data: Vec<u8> = include_str!("fastlz.rs").as_bytes().to_vec();
        let packed = FastLz::new().compress(&data);
        assert!(packed.len() < data.len());
        round_trip(&data);
    }

    #[test]
    fn all_byte_values_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        round_trip(&data);
    }

    #[test]
    fn compress_into_matches_token_ir_path_byte_for_byte() {
        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            vec![0u8; 4096],
            b"the quick brown fox jumps over the lazy dog. ".repeat(100),
            (0..=255u8).cycle().take(10_000).collect(),
            include_str!("fastlz.rs").as_bytes().to_vec(),
        ];
        let codec = FastLz::new();
        let mut out = Vec::new();
        for input in &inputs {
            let via_tokens = frame::seal(input, &FastLz::tokenize(input));
            codec.compress_into(input, &mut out);
            assert_eq!(out, via_tokens, "input len {}", input.len());
        }
    }

    #[test]
    fn compress_into_reuses_buffer_capacity() {
        let codec = FastLz::new();
        let big = vec![0u8; 65536];
        let mut out = Vec::new();
        codec.compress_into(&big, &mut out);
        let cap = out.capacity();
        for _ in 0..10 {
            codec.compress_into(&big, &mut out);
            assert_eq!(out.capacity(), cap, "steady state must not reallocate");
        }
        assert_eq!(codec.decompress(&out).unwrap(), big);
    }

    #[test]
    fn single_probe_codec_matches_default() {
        // `with_probes(1)` must be byte-identical to `new()` — the default
        // dispatch arm the pipeline relies on for reproducible output.
        let data = include_str!("fastlz.rs").as_bytes().repeat(2);
        assert_eq!(
            FastLz::with_probes(1).compress(&data),
            FastLz::new().compress(&data)
        );
    }

    #[test]
    fn deeper_probing_round_trips_and_does_not_hurt_ratio() {
        let data = include_str!("token.rs").as_bytes().repeat(2);
        let base = FastLz::new().compress(&data);
        for probes in 2..=MAX_PROBES {
            let codec = FastLz::with_probes(probes);
            let packed = codec.compress(&data);
            assert!(
                packed.len() <= base.len(),
                "probes {probes}: {} vs {}",
                packed.len(),
                base.len()
            );
            assert_eq!(codec.decompress(&packed).unwrap(), data, "probes {probes}");
        }
    }

    #[test]
    #[should_panic(expected = "probes must be")]
    fn zero_probes_rejected() {
        FastLz::with_probes(0);
    }

    #[test]
    fn region_tokenizer_respects_window() {
        // A match candidate further back than `window` must be ignored.
        let mut data = b"UNIQUEPREFIX".to_vec();
        data.extend_from_slice(&[b'x'; 300]);
        data.extend_from_slice(b"UNIQUEPREFIX");
        let tokens = tokenize_region(&data, 0, data.len(), 64);
        for t in &tokens {
            if let Token::Match { offset, .. } = t {
                assert!(*offset <= 64, "match crossed the window: offset {offset}");
            }
        }
    }

    #[test]
    fn region_tokens_decode_with_history_present() {
        // Tokenize only the second half; decoding after pre-seeding the
        // first half must reproduce the second half.
        let data = b"abcdefghij".repeat(50);
        let mid = data.len() / 2;
        let tokens = tokenize_region(&data, mid, data.len(), mid);
        let mut out = data[..mid].to_vec();
        crate::token::decode_stream(&crate::token::encode_tokens(&tokens), &mut out).unwrap();
        assert_eq!(out, data);
    }
}
