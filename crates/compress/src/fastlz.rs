//! A QuickLZ-class fast LZ codec.
//!
//! The paper's CPU baseline is *parallel QuickLZ*: a single-pass,
//! byte-oriented LZ with a direct-mapped hash table over 3-byte sequences
//! and greedy match extension — trading ratio for speed. QuickLZ itself is
//! closed-source; [`FastLz`] is a from-scratch codec of the same
//! algorithmic class (see `DESIGN.md` §2).
//!
//! The greedy matcher runs in two phases over per-thread scratch
//! (`Matcher`). A *slot pass* hashes every position of the input once,
//! a block at a time, with the vectorised [`dr_hashes::lz_slots`]; a
//! *resolve pass* then walks the input in order, probing each position's
//! precomputed slot with [`dr_hashes::lz_find_match`] (sixteen positions
//! a step on AVX-512 hosts, decision for decision the one-position loop),
//! and makes the match decisions. [`FastLz`] is one
//! region over the whole input; the GPU sub-chunk kernel's host emulation
//! ([`crate::gpu`]) walks a chunk's regions over the same scratch.
//! [`tokenize_region`] keeps the plain one-pass loop — fresh table, one
//! hash per probe — as the token-IR reference the differential tests hold
//! the two-phase core to.

use std::cell::RefCell;
use std::hint::select_unpredictable;

use dr_hashes::{lz_find_match, lz_slot, lz_slots, LZ_SLOT_BITS};

use crate::error::CodecError;
use crate::frame;
use crate::scan::match_len;
use crate::token::{emit_literals, emit_match, Token, MAX_OFFSET, MIN_MATCH};
use crate::Codec;

/// Number of slots in the direct-mapped match table (power of two).
const TABLE_SIZE: usize = 1 << LZ_SLOT_BITS;

/// Positions the slot block holds: a whole 4 KiB chunk, so the kernel
/// emulation hashes each chunk exactly once however many regions look
/// back into it, while a long [`FastLz`] input keeps the scratch at 24.5 KiB.
const SLOT_BLOCK: usize = 4096;

/// Positions one call of the slot pass hashes: far enough ahead to keep
/// the vector kernel in its main loop, not so far that a long match
/// skips much of what was hashed.
const SLOT_STEP: usize = 256;

/// Positions the slot pass hashes first on a block that starts mid-input.
const FIRST_SLOT_STEP: usize = 32;

/// Positions a match inserts into the table past its first one.
const MATCH_INSERTS: usize = 8;

/// Ranges of skipped positions one region can hand to the next: a match
/// leaves a range only when it is longer than `MATCH_INSERTS + 1`, so a
/// region of up to 640 bytes never fills this, and one that does makes
/// the next region seed its whole window.
const SKIPPED_CAP: usize = 64;

/// The fast single-pass codec.
///
/// ```
/// use dr_compress::{Codec, FastLz};
/// let codec = FastLz::new();
/// let packed = codec.compress(&[0u8; 4096]);
/// assert!(packed.len() < 128);
/// assert_eq!(codec.decompress(&packed).unwrap(), vec![0u8; 4096]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastLz;

impl FastLz {
    /// Creates the codec.
    pub fn new() -> Self {
        FastLz
    }

    /// Tokenizes `input` with a greedy single-pass matcher — the token-IR
    /// reference [`FastLz::compress_into`] is tested against.
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
            with_chunk_scan(original, |scan| {
                scan.region(0, original.len(), original.len(), payload);
            });
        });
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
    lz_slot(key) as usize
}

/// Absent-slot sentinel. Positions are stored as `u32` so the table stays
/// half the size (and cache footprint) of a `usize` table; the frame
/// format's u32 length field already bounds inputs below `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// Greedy-tokenizes `input[start..end]`, allowing matches that reach back
/// at most `window` bytes (and never before `input[0]`). Offsets are
/// relative distances, so the produced tokens decode correctly whenever at
/// least `start` bytes of history precede them — the property the GPU
/// post-processor relies on.
///
/// This is the matcher as one plain loop — a fresh table per region, its
/// history hashed in, one hash per probe, every range check spelled out —
/// and the reference the differential tests hold `ChunkScan::region` to;
/// nothing on the ingest path materializes the token IR.
pub fn tokenize_region(input: &[u8], start: usize, end: usize, window: usize) -> Vec<Token> {
    debug_assert!(start <= end && end <= input.len());
    let mut tokens = Vec::new();
    let mut table = [EMPTY; TABLE_SIZE];
    // Seed the table with positions from the visible history window so the
    // first bytes of the region can match backwards into it.
    let hist_start = start.saturating_sub(window);
    if end >= MIN_MATCH {
        for pos in hist_start..start.min(end - MIN_MATCH + 1) {
            table[hash_key(three_bytes(input, pos))] = pos as u32;
        }
    }

    let mut literal_start = start;
    let mut pos = start;
    while pos + MIN_MATCH <= end {
        let here = three_bytes(input, pos);
        let slot = hash_key(here);
        // `EMPTY as usize` is `u32::MAX`, never below a valid position.
        let candidate = table[slot] as usize;
        table[slot] = pos as u32;
        let in_range = candidate < pos
            && pos - candidate <= MAX_OFFSET
            && pos - candidate <= window
            && candidate >= hist_start;
        // A candidate disagreeing in the first MIN_MATCH bytes can never
        // reach MIN_MATCH, and sub-minimum lengths never emit.
        if in_range && three_bytes(input, candidate) == here {
            // Extend the match greedily, bounded by the region end.
            let matched = match_len(&input[candidate..candidate + (end - pos)], &input[pos..end]);
            if literal_start < pos {
                tokens.push(Token::Literals(input[literal_start..pos].to_vec()));
            }
            tokens.push(Token::Match {
                offset: pos - candidate,
                len: matched,
            });
            // Insert a few positions inside the match so later data can
            // reference it (bounded to keep the pass single-speed).
            let insert_end = (pos + matched).min(end.saturating_sub(MIN_MATCH - 1));
            for p in (pos + 1..insert_end).take(MATCH_INSERTS) {
                table[hash_key(three_bytes(input, p))] = p as u32;
            }
            pos += matched;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    if literal_start < end {
        tokens.push(Token::Literals(input[literal_start..end].to_vec()));
    }
    tokens
}

/// Per-thread scratch of the two-phase matcher: the match table, one
/// block of precomputed slots and the positions the last region left out
/// of the table. 24.5 KiB, allocated once per OS thread.
pub(crate) struct Matcher {
    /// Most recent position inserted per slot, or [`EMPTY`].
    table: [u32; TABLE_SIZE],
    /// `slots[i]` is the table slot of input position `base + i`, for
    /// `i < filled`.
    slots: [u16; SLOT_BLOCK],
    base: usize,
    filled: usize,
    /// `[from, to)` ranges, ascending, of positions the last region scanned
    /// neither probed nor inserted and its successor has to seed; the
    /// first `skipped_len` are live, and `SKIPPED_CAP + 1` means the
    /// region left out more than the list holds.
    skipped: [(u32, u32); SKIPPED_CAP],
    skipped_len: usize,
    /// History positions stored by seeding, over the matcher's life.
    #[cfg(test)]
    seeded: usize,
}

thread_local! {
    static MATCHER: RefCell<Box<Matcher>> = RefCell::new(Matcher::new());
}

/// Runs `body` with this thread's [`Matcher`] set up for `input`.
pub(crate) fn with_chunk_scan<R>(input: &[u8], body: impl FnOnce(&mut ChunkScan<'_>) -> R) -> R {
    MATCHER.with_borrow_mut(|matcher| body(&mut matcher.chunk(input)))
}

impl Matcher {
    fn new() -> Box<Matcher> {
        Box::new(Matcher {
            table: [EMPTY; TABLE_SIZE],
            slots: [0; SLOT_BLOCK],
            base: 0,
            filled: 0,
            skipped: [(0, 0); SKIPPED_CAP],
            skipped_len: 0,
            #[cfg(test)]
            seeded: 0,
        })
    }

    /// Starts on a new input: one table clear, whatever the number of
    /// regions scanned over it, and no slot of the previous input kept.
    fn chunk<'a>(&'a mut self, input: &'a [u8]) -> ChunkScan<'a> {
        self.table.fill(EMPTY);
        self.filled = 0;
        ChunkScan {
            matcher: self,
            input,
            scanned_to: 0,
            carry: None,
        }
    }
}

/// A [`Matcher`] bound to one input, over which the regions of the input
/// are scanned **in ascending order** — all of them sharing the table.
///
/// Why one table is decision-identical to [`tokenize_region`]'s fresh
/// table per region. Call a position *represented* when its slot holds
/// it or a newer position. Seeding region `r` leaves every position of
/// its history `[hist_start, start)` represented while the table holds
/// nothing at or past `start`, so a slot with any occupant inside the
/// window holds the same (newest) position a fresh table would. A slot
/// without one holds `EMPTY` or a stale position below `hist_start`;
/// `EMPTY` fails the distance filter as it would in a fresh table, and a
/// stale position is more than `window` behind every position of the
/// region, so the filter refuses it too (when `start < window`,
/// `hist_start` is 0 and nothing lies below it). From there both designs
/// make the same inserts. The filter thereby also covers the reference's
/// `candidate >= hist_start`.
///
/// Seeding stores only what the table lacks. The scan of region `r − 1`
/// stores, newer over older, every position it probes and the first
/// `MATCH_INSERTS` of each match; it records the rest — each match's body
/// past those, and the `MIN_MATCH − 1` positions at its end that are never
/// probed. When `r` starts where `r − 1` ended and its window starts no
/// earlier, every position of `r`'s window is represented except these,
/// and seeding stores the recorded ones inside the window, newest-wins (a
/// store never replaces a newer position, which the scan may have put in
/// the same slot). Of a match body with offset `d` ending at `e` only the
/// last `d + MIN_MATCH − 1` positions are recorded: every earlier position
/// has the 3-byte key of the one `d` bytes later, inside the same match,
/// and is represented once that one is. Any other region — the first, one
/// not adjacent to the last region scanned, one after a region that did
/// not scan or recorded more than `SKIPPED_CAP` ranges — seeds its whole
/// window in ascending order. A region that ends the input records
/// nothing: no region follows it, and [`FastLz`]'s one region is such a
/// region.
pub(crate) struct ChunkScan<'a> {
    matcher: &'a mut Matcher,
    input: &'a [u8],
    /// End of the last region scanned, for the ordering assertion.
    scanned_to: usize,
    /// `(hist_start, end)` of the last region scanned when every position
    /// of `[hist_start, end)` is represented but for the matcher's
    /// `skipped` ranges.
    carry: Option<(usize, usize)>,
}

impl ChunkScan<'_> {
    /// Slot pass: makes the slot block cover `pos`, hashing ahead when it
    /// does not, and returns the end of the covered range. `pos` must have
    /// a full 3-byte key.
    ///
    /// The block grows a step at a time while the scan runs off its end,
    /// so a chunk that fits it is hashed once however many regions look
    /// back into it; a scan that leaves the block — a match that jumped
    /// far ahead, an input longer than the block — starts a new one at
    /// `pos` and hashes nothing it skipped. A block that starts mid-input
    /// hashes `FIRST_SLOT_STEP` positions first: the scan has just jumped
    /// a match, and in repetitive data the next one starts close by.
    #[inline]
    fn cover(&mut self, pos: usize) -> usize {
        let m = &mut *self.matcher;
        if pos.wrapping_sub(m.base) >= m.filled {
            if pos != m.base + m.filled || m.filled + SLOT_STEP > SLOT_BLOCK {
                m.base = pos;
                m.filled = 0;
            }
            // A region inside a long run needs one slot before its first
            // match jumps to the region's end.
            let step = if m.filled == 0 && pos > 0 {
                FIRST_SLOT_STEP
            } else {
                SLOT_STEP
            };
            let room = &mut m.slots[m.filled..m.filled + step];
            let hashed = lz_slots(&self.input[pos..], room);
            debug_assert!(hashed > 0, "position {pos} has no 3-byte key");
            m.filled += hashed;
        }
        m.base + m.filled
    }

    /// Stores every position of `[from, to)` in the table, in ascending
    /// order, from its precomputed slot.
    fn insert(&mut self, from: usize, to: usize) {
        let mut pos = from;
        while pos < to {
            let covered = self.cover(pos).min(to);
            let m = &mut *self.matcher;
            let mut quads = m.slots[pos - m.base..covered - m.base].chunks_exact(4);
            let mut p = pos as u32;
            // Seeding a history window is a few hundred of these stores
            // per region; four to a step keeps the loop overhead off them.
            for quad in &mut quads {
                m.table[quad[0] as usize % TABLE_SIZE] = p;
                m.table[quad[1] as usize % TABLE_SIZE] = p + 1;
                m.table[quad[2] as usize % TABLE_SIZE] = p + 2;
                m.table[quad[3] as usize % TABLE_SIZE] = p + 3;
                p += 4;
            }
            for &slot in quads.remainder() {
                m.table[slot as usize % TABLE_SIZE] = p;
                p += 1;
            }
            pos = covered;
        }
    }

    /// Seeds the history `[hist_start, start)` of a region that follows
    /// the last one scanned (see [`ChunkScan`]): stores the recorded
    /// positions inside it, each only over an older occupant of its slot.
    fn seed_skipped(&mut self, hist_start: usize) {
        let input = self.input;
        let m = &mut *self.matcher;
        let block = &m.slots[..m.filled];
        let base = m.base;
        for &(from, to) in &m.skipped[..m.skipped_len] {
            for pos in (from as usize).max(hist_start)..to as usize {
                // The slot block holds most of them; a match that jumped
                // past the block left the rest unhashed.
                let slot = match block.get(pos.wrapping_sub(base)) {
                    Some(&slot) => slot as usize % TABLE_SIZE,
                    None => hash_key(three_bytes(input, pos)),
                };
                // `EMPTY` wraps to 0, below every position plus one.
                // Whether the occupant is newer is a coin flip on text,
                // so the pick must not become a branch.
                let occupant = m.table[slot];
                let newer = occupant.wrapping_add(1) > pos as u32;
                m.table[slot] = select_unpredictable(newer, occupant, pos as u32);
                #[cfg(test)]
                {
                    m.seeded += 1;
                }
            }
        }
    }

    /// Records `[from, to)` for the next region to seed. One range past
    /// `SKIPPED_CAP` marks the list incomplete, and the next region seeds
    /// its whole window.
    #[inline]
    fn skip(&mut self, from: usize, to: usize) {
        let m = &mut *self.matcher;
        if m.skipped_len < SKIPPED_CAP {
            // Most matches on text leave nothing: write the range anyway
            // and keep it only when it is not empty, without a branch.
            m.skipped[m.skipped_len] = (from as u32, to as u32);
            m.skipped_len += usize::from(from < to);
        } else if from < to {
            m.skipped_len = SKIPPED_CAP + 1;
        }
    }

    /// A match at `at` against `candidate` inside a region ending at `end`:
    /// extends it, emits the literals pending since `literal_start` and
    /// the match, and inserts its first positions; with `RECORD`, records
    /// what of its body the next region must seed. Returns its length.
    ///
    /// Out of line so that its calls do not cost [`ChunkScan::region`]'s
    /// literal-run loop its registers.
    #[inline(never)]
    fn take_match<const RECORD: bool>(
        &mut self,
        literal_start: usize,
        at: usize,
        candidate: usize,
        end: usize,
        out: &mut Vec<u8>,
    ) -> usize {
        let input = self.input;
        // Extend the match greedily, bounded by the region end.
        let matched = match_len(&input[candidate..candidate + (end - at)], &input[at..end]);
        if literal_start < at {
            emit_literals(out, &input[literal_start..at]);
        }
        let offset = at - candidate;
        emit_match(out, offset, matched);
        // Insert a few positions inside the match so later data can
        // reference it (bounded to keep the pass single-speed).
        let body_end = at + matched;
        let insert_end = body_end.min(end - (MIN_MATCH - 1));
        let inserted_end = insert_end.min(at + 1 + MATCH_INSERTS);
        self.insert(at + 1, inserted_end);
        if RECORD {
            // The rest of the body: a position there has the key of the
            // one `offset` bytes later while that one's key lies inside
            // the match, so only the last `offset + MIN_MATCH - 1` are not
            // dominated.
            let undominated = body_end.saturating_sub(offset + MIN_MATCH - 1);
            self.skip(inserted_end.max(undominated), insert_end);
        }
        matched
    }

    /// Scans region `input[start..end]`, whose matches reach back at most
    /// `window` bytes, exactly as [`tokenize_region`] does, but appends
    /// the wire encoding of the tokens straight to `out`. Returns the
    /// raw-token bytes the GPU cost model charges for the stream a kernel
    /// thread writes out — `len + 1` per literal token and 3 per match
    /// token; per *token*, not per wire piece: a run longer than
    /// `MAX_LITERAL_RUN` or a match longer than `MAX_MATCH` splits on the
    /// wire but is one token to the kernel.
    pub(crate) fn region(
        &mut self,
        start: usize,
        end: usize,
        window: usize,
        out: &mut Vec<u8>,
    ) -> u64 {
        let input = self.input;
        debug_assert!(self.scanned_to <= start && start <= end && end <= input.len());
        self.scanned_to = end;
        let hist_start = start.saturating_sub(window);
        let follows = self
            .carry
            .take()
            .is_some_and(|(prev_hist, prev_end)| prev_end == start && prev_hist <= hist_start);
        // Positions below `scan_end` have their 3-byte key inside the
        // region. A match needs a position behind it as well, so a region
        // ending before the input's fourth byte is all literals.
        let scan_end = end.saturating_sub(MIN_MATCH - 1);
        if start >= scan_end || end <= MIN_MATCH {
            if start == end {
                return 0;
            }
            emit_literals(out, &input[start..end]);
            return (end - start) as u64 + 1;
        }
        // Seed the table with the visible history window so the first
        // bytes of the region can match backwards into it.
        if follows {
            self.seed_skipped(hist_start);
        } else {
            self.insert(hist_start, start);
            #[cfg(test)]
            {
                self.matcher.seeded += start - hist_start;
            }
        }
        self.matcher.skipped_len = 0;
        if end == input.len() {
            // No region follows: nothing to record.
            return self.resolve::<false>(start, end, window, out);
        }
        let raw_token_bytes = self.resolve::<true>(start, end, window, out);
        // The last `MIN_MATCH - 1` positions are never probed.
        self.skip(scan_end, end);
        if self.matcher.skipped_len <= SKIPPED_CAP {
            self.carry = Some((hist_start, end));
        }
        raw_token_bytes
    }

    /// The resolve pass of [`ChunkScan::region`], its history seeded; with
    /// `RECORD`, records the match bodies it leaves out of the table. A
    /// const parameter, so that [`FastLz`]'s one region runs the loop as
    /// if recording did not exist.
    fn resolve<const RECORD: bool>(
        &mut self,
        start: usize,
        end: usize,
        window: usize,
        out: &mut Vec<u8>,
    ) -> u64 {
        let input = self.input;
        let scan_end = end - (MIN_MATCH - 1);
        let reach = window.min(MAX_OFFSET) as u32;
        let mut raw_token_bytes = 0u64;
        let mut literal_start = start;
        let mut pos = start;
        while pos < scan_end {
            // Literal run: step until a match starts or the block ends.
            let run_end = self.cover(pos).min(scan_end);
            let m = &mut *self.matcher;
            let slots = &m.slots[pos - m.base..run_end - m.base];
            let Some((at, candidate)) = lz_find_match(&mut m.table, slots, input, pos, reach)
            else {
                pos = run_end;
                continue;
            };

            if literal_start < at {
                raw_token_bytes += (at - literal_start) as u64 + 1;
            }
            raw_token_bytes += 3;
            let matched = self.take_match::<RECORD>(literal_start, at, candidate, end, out);
            pos = at + matched;
            literal_start = pos;
        }
        if literal_start < end {
            emit_literals(out, &input[literal_start..end]);
            raw_token_bytes += (end - literal_start) as u64 + 1;
        }
        raw_token_bytes
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
        let data = noise(4096, 0x12345678);
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

    /// `regions` equal strides over `input` with `window` bytes of
    /// history each, scanned on `matcher`: the wire bytes and the
    /// per-region raw-token tallies.
    fn scan_on(
        matcher: &mut Matcher,
        input: &[u8],
        regions: usize,
        window: usize,
    ) -> (Vec<u8>, Vec<u64>) {
        let mut scan = matcher.chunk(input);
        let stride = input.len().div_ceil(regions).max(1);
        let mut wire = Vec::new();
        let tallies = (0..regions)
            .map(|r| {
                let start = (r * stride).min(input.len());
                let end = ((r + 1) * stride).min(input.len());
                scan.region(start, end, window, &mut wire)
            })
            .collect();
        (wire, tallies)
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    /// A pair built so that a table left over from `a` changes what `b`
    /// compresses to: the key `opX` sits at position 30 in both. In `a` it
    /// is a literal position, so the table keeps it; in `b` it is deep in
    /// a match, where the matcher inserts nothing — so when `opX` comes
    /// round again, a fresh table has no candidate and a stale one has a
    /// valid one.
    fn stale_candidate_pair() -> (Vec<u8>, Vec<u8>) {
        let mut a = noise(600, 0xA);
        a[30..33].copy_from_slice(b"opX");
        let mut b = b"abcdefghijklmnop".repeat(2);
        b.extend_from_slice(b"XYZ 0123456789 opX tail");
        assert_eq!(&b[30..33], b"opX");
        (a, b)
    }

    #[test]
    fn a_used_scratch_scans_like_a_fresh_one() {
        let (stale_a, stale_b) = stale_candidate_pair();
        let text: Vec<u8> = include_bytes!("fastlz.rs").repeat(2);
        assert!(text.len() >= 20_000);
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (stale_a, stale_b),
            // The same keys at the same places, then fewer of them.
            (text[..4096].to_vec(), text[..4096].to_vec()),
            (text[..4096].to_vec(), text[..1000].to_vec()),
            // Everything of `a` lands in few slots; `b` probes them all.
            (vec![0u8; 4096], text[4096..8192].to_vec()),
            (text[..4096].to_vec(), vec![0u8; 700]),
            // Longer than the slot block, then shorter, and the reverse.
            (text[..20_000].to_vec(), noise(4096, 1)),
            (noise(300, 2), text[..20_000].to_vec()),
            (noise(4096, 3), Vec::new()),
            (noise(4096, 4), b"ab".to_vec()),
        ];
        for (i, (a, b)) in pairs.iter().enumerate() {
            for (regions, window) in [(1, usize::MAX), (8, 512), (3, 70_000), (64, 3)] {
                let want = scan_on(&mut Matcher::new(), b, regions, window);
                let mut used = Matcher::new();
                scan_on(&mut used, a, regions, window);
                let got = scan_on(&mut used, b, regions, window);
                assert_eq!(got, want, "pair {i}, {regions} regions, window {window}");
            }
        }
    }

    #[test]
    fn the_per_chunk_table_clear_is_load_bearing() {
        // The same scan of `b` after `a` with the table left as `a` left
        // it: the stale candidate is in range and agrees in three bytes,
        // so `b` gains a match a fresh table cannot see.
        let (a, b) = stale_candidate_pair();
        let want = scan_on(&mut Matcher::new(), &b, 1, usize::MAX);
        let mut used = Matcher::new();
        scan_on(&mut used, &a, 1, usize::MAX);
        used.filled = 0;
        let mut wire = Vec::new();
        let mut scan = ChunkScan {
            matcher: &mut used,
            input: &b,
            scanned_to: 0,
            carry: None,
        };
        scan.region(0, b.len(), usize::MAX, &mut wire);
        assert_ne!(wire, want.0, "the pair no longer exercises a stale slot");
    }

    #[test]
    fn region_scan_matches_the_reference_tokens() {
        // The unit-level twin of the property suite in
        // `tests/roundtrip_props.rs`: one region, its history in the table.
        let data = include_bytes!("fastlz.rs");
        for (start, end, window) in [(0, 4096, 4096), (512, 1024, 512), (4000, 4003, 64)] {
            let mut matcher = Matcher::new();
            let mut scan = matcher.chunk(data);
            let mut wire = Vec::new();
            // Regions before `start` are scanned first in real use; an
            // untouched table must do as well.
            let raw = scan.region(start, end, window, &mut wire);
            let tokens = tokenize_region(data, start, end, window);
            assert_eq!(wire, crate::token::encode_tokens(&tokens), "{start}..{end}");
            let want_raw: u64 = tokens
                .iter()
                .map(|t| match t {
                    Token::Literals(bytes) => bytes.len() as u64 + 1,
                    Token::Match { .. } => 3,
                })
                .sum();
            assert_eq!(raw, want_raw, "{start}..{end}");
        }
    }

    /// History positions seeding stores over the default kernel's scan of
    /// `chunk`: 8 regions, 512 bytes of history each.
    fn seeded_on(chunk: &[u8]) -> usize {
        let mut matcher = Matcher::new();
        scan_on(&mut matcher, chunk, 8, 512);
        matcher.seeded
    }

    #[test]
    fn seeding_stores_only_what_the_table_lacks() {
        // Whole windows would be 7 × 512 = 3 584 stores per 4 KiB chunk.
        // A paper-profile block is a noise head, then one period-16
        // match per region: its last 18 positions and the region's tail.
        for seed in 0..32 {
            let block = dr_workload::synthesize_block(seed, 4096, 2.0);
            let seeded = seeded_on(&block);
            assert!(seeded <= 64, "seed {seed}: {seeded} positions seeded");
        }
        // Noise has no match long enough to skip anything: each of the
        // seven boundaries hands over the two unprobed positions.
        assert_eq!(seeded_on(&noise(4096, 5)), 14);
    }

    #[test]
    fn a_region_that_does_not_follow_the_last_one_seeds_its_whole_window() {
        let data = include_bytes!("fastlz.rs");
        let mut matcher = Matcher::new();
        let mut scan = matcher.chunk(&data[..4096]);
        let mut wire = Vec::new();
        scan.region(0, 512, 512, &mut wire);
        // Region 1 is never scanned; region 2 cannot know what it left out.
        wire.clear();
        scan.region(1024, 1536, 512, &mut wire);
        let tokens = tokenize_region(&data[..4096], 1024, 1536, 512);
        assert_eq!(wire, crate::token::encode_tokens(&tokens));
        assert_eq!(matcher.seeded, 512);
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
