//! The LZ matchers' resolve step: probe positions in order against the
//! direct-mapped match table until one has a usable candidate.
//!
//! [`lz_find_match`] walks positions `first, first + 1, …`, each with its
//! slot precomputed by [`crate::lz_slots`]: it reads the slot's occupant,
//! stores the position over it, and stops at the first position whose
//! occupant lies at most `reach` bytes behind it and agrees with it in
//! three bytes. One position's probe depends on the earlier ones only
//! through the table, so a block of positions can be probed together,
//! with the slots it shares patched — the data-parallel candidate search
//! GPULZ runs on the device.
//!
//! Like [`crate::lz_slots`] the step has a portable scalar arm and an
//! x86_64 arm (AVX-512F+CD+BW+VBMI, sixteen positions per step) chosen
//! once per process by [`crate::simd`]. The vector arm makes exactly the
//! scalar arm's decisions and leaves exactly its table, which is what
//! keeps frames and every simulated number independent of the arm:
//!
//! * a lane whose slot an earlier lane of the same step also takes gets
//!   the newest such lane's position as its candidate (`vpconflictd`,
//!   `vplzcntd`), as the scalar loop would have stored it there first;
//! * the range test is the unsigned `candidate < pos && pos - candidate
//!   <= reach`, which refuses the empty sentinel `u32::MAX` and anything
//!   at or ahead of the position;
//! * a step leaves the positions of its lanes up to and including the
//!   first match in the table, and of all sixteen when none matches. It
//!   scatters all sixteen (overlapping scatter stores retire lowest lane
//!   first, so the newest position owns a shared slot) and, after a
//!   match, gives each slot a later lane took back what it held before
//!   the first such lane: that lane's candidate.
//!
//! The scalar arm finishes every tail: the last positions of `slots`, the
//! positions whose 32-byte key load would run past the input or past
//! `i32::MAX` (the gathers' offsets are signed 32-bit), and everything on
//! hosts without the features or under `DR_SIMD=scalar`.

use std::hint::select_unpredictable;

use crate::lz_hash::LZ_SLOT_BITS;
#[cfg(target_arch = "x86_64")]
use crate::simd;

/// Number of slots in the match table [`lz_find_match`] probes.
const TABLE_SIZE: usize = 1 << LZ_SLOT_BITS;

/// Probes positions `first..` — one per entry of `slots`, their
/// precomputed table slots — storing each over its slot's occupant, until
/// one has a candidate (the occupant it replaced) at most `reach` bytes
/// behind it that agrees with it in the first three bytes. Returns that
/// position and its candidate; the table then holds every position probed,
/// that one included.
///
/// An occupant at or past the position it is probed for, such as the
/// empty sentinel `u32::MAX`, is never a candidate. `input` must be at
/// least four bytes long and every probed position must have a full
/// 3-byte key, `first + slots.len() + 2 <= input.len()`.
///
/// ```
/// use dr_hashes::{lz_find_match, lz_slots, LZ_SLOT_BITS};
/// let input = b"abcdabcd";
/// let mut slots = [0u16; 6];
/// let n = lz_slots(input, &mut slots);
/// let mut table = [u32::MAX; 1 << LZ_SLOT_BITS];
/// assert_eq!(lz_find_match(&mut table, &slots[..n], input, 0, 64), Some((4, 0)));
/// assert_eq!(table[slots[4] as usize], 4);
/// ```
// Always inlined: the scalar loop runs in the caller's literal loop, as
// it did before there was a vector arm; called out of line it costs text,
// whose literal runs are a few positions long, about a tenth.
#[inline(always)]
pub fn lz_find_match(
    table: &mut [u32; TABLE_SIZE],
    slots: &[u16],
    input: &[u8],
    first: usize,
    reach: u32,
) -> Option<(usize, usize)> {
    let head = slots.len().min(SCALAR_HEAD);
    let found = find_match_scalar(table, &slots[..head], input, first, reach);
    if found.is_some() || head == slots.len() {
        return found;
    }
    find_match_rest(table, &slots[head..], input, first + head, reach)
}

/// Positions probed one at a time before the vector arm takes over. On
/// text most literal runs end within a few positions, where a sixteen-lane
/// step mostly probes positions a match will skip.
const SCALAR_HEAD: usize = 16;

/// The probes past the head: the vector arm where the CPU has it, then
/// the scalar arm for what it leaves. Out of line, so that the caller's
/// literal loop keeps one copy of the scalar loop inline.
#[inline(never)]
fn find_match_rest(
    table: &mut [u32; TABLE_SIZE],
    slots: &[u16],
    input: &[u8],
    first: usize,
    reach: u32,
) -> Option<(usize, usize)> {
    #[cfg(target_arch = "x86_64")]
    if simd::lz_match_avx512() {
        // SAFETY: lz_match_avx512() verified avx512f/cd/bw/vbmi at runtime.
        return unsafe { find_match_avx512(table, slots, input, first, reach) };
    }
    find_match_scalar(table, slots, input, first, reach)
}

/// Portable arm, and the head and tail of the vector arm: one position
/// at a time.
#[inline]
fn find_match_scalar(
    table: &mut [u32; TABLE_SIZE],
    slots: &[u16],
    input: &[u8],
    first: usize,
    reach: u32,
) -> Option<(usize, usize)> {
    if slots.is_empty() {
        return None;
    }
    // The 3-byte key at each position, rolled forward a byte at a time.
    let mut key = (input[first] as u32) << 8 | (input[first + 1] as u32) << 16;
    for (p, (&slot, &newest)) in (first..).zip(slots.iter().zip(&input[first + 2..])) {
        key = key >> 8 | (newest as u32) << 16;
        let slot = slot as usize % TABLE_SIZE;
        let candidate = table[slot];
        table[slot] = p as u32;
        // A candidate is in range when `1 <= p - candidate <= reach`. In
        // wrapping arithmetic wider than the table's u32 that is one
        // compare, and it refuses `u32::MAX`, `p` itself and anything
        // ahead.
        let distance = (p as u64).wrapping_sub(candidate as u64);
        let in_range = distance.wrapping_sub(1) < u64::from(reach);
        // A candidate disagreeing in the first three bytes can never make
        // a match. Slot occupancy is a coin flip for most of a chunk, so
        // the range test must not become a branch: a refused candidate
        // loads from the start of the input (always in bounds; an
        // accepted one ends before `p + 3`) and is told apart by a flag
        // or-ed into the key difference, leaving "a match starts here" as
        // the loop's only data-dependent branch.
        let probe_at = select_unpredictable(in_range, candidate as usize, 0);
        let there = u32::from_le_bytes(input[probe_at..probe_at + 4].try_into().unwrap());
        let differs = (there ^ key) << 8;
        if differs | u32::from(!in_range) == 0 {
            return Some((p, candidate as usize));
        }
    }
    None
}

/// Positions one step of the vector arm probes: the 32-bit lanes of a
/// `zmm` register.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 16;

/// Input bytes one step loads for its sixteen keys (it needs eighteen).
#[cfg(target_arch = "x86_64")]
const KEY_LOAD: usize = 32;

/// AVX-512 arm: sixteen positions per step, each step a gather of their
/// slots' occupants (`vpgatherdd`), the in-step conflict patch, the range
/// and key tests of all sixteen, a scatter of their positions
/// (`vpscatterdd`) and, after a match, a second one that undoes the
/// lanes past it (see the module docs for why that is the scalar arm's
/// decision and table). Steps while sixteen slots are left and the key
/// load stays inside `input` and below `i32::MAX`; the scalar arm
/// probes the rest.
///
/// Safe to call only where AVX-512F, AVX-512CD, AVX-512BW and
/// AVX-512VBMI are known to be present, which is what makes a call from
/// ordinary code `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512cd,avx512bw,avx512vbmi")]
fn find_match_avx512(
    table: &mut [u32; TABLE_SIZE],
    slots: &[u16],
    input: &[u8],
    first: usize,
    reach: u32,
) -> Option<(usize, usize)> {
    use std::arch::x86_64::*;
    // Positions and the input gather's byte offsets are signed 32-bit.
    let end = input.len().min(i32::MAX as usize);
    let lane = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
    // Lane j's key is bytes j, j + 1 and j + 2 of the load; the mask
    // zeroes every fourth byte.
    let spread = _mm512_add_epi32(
        _mm512_mullo_epi32(lane, _mm512_set1_epi32(0x01_01_01)),
        _mm512_set1_epi32(0x02_01_00),
    );
    let key_bytes: __mmask64 = 0x7777_7777_7777_7777;
    let key_mask = _mm512_set1_epi32(0x00FF_FFFF);
    let slot_mask = _mm512_set1_epi32(TABLE_SIZE as i32 - 1);
    let reach_lanes = _mm512_set1_epi32(reach as i32);
    let mut i = 0;
    while i + LANES <= slots.len() && first.saturating_add(i + KEY_LOAD) <= end {
        let at = first + i;
        let pos = _mm512_add_epi32(_mm512_set1_epi32(at as i32), lane);
        // SAFETY: the loop condition keeps the sixteen `u16`s read from
        // `slots[i]` on inside the slice; the load is unaligned.
        let slot = unsafe { _mm256_loadu_si256(slots.as_ptr().add(i).cast()) };
        let slot = _mm512_and_si512(_mm512_cvtepu16_epi32(slot), slot_mask);
        // SAFETY: every index is masked below TABLE_SIZE, the table's
        // length in 4-byte elements.
        let occupant = unsafe { _mm512_i32gather_epi32::<4>(slot, table.as_ptr().cast()) };
        // A lane's conflict word has bit i set for each earlier lane i
        // with the same slot; the newest of them, at bit 31 - lzcnt, has
        // stored its position there by the time the scalar loop gets to
        // this lane.
        let conflicts = _mm512_conflict_epi32(slot);
        let repeated = _mm512_test_epi32_mask(conflicts, conflicts);
        let candidate = _mm512_mask_sub_epi32(
            occupant,
            repeated,
            _mm512_set1_epi32((at as u32).wrapping_add(31) as i32),
            _mm512_lzcnt_epi32(conflicts),
        );
        let behind = _mm512_cmplt_epu32_mask(candidate, pos);
        let in_range =
            _mm512_mask_cmple_epu32_mask(behind, _mm512_sub_epi32(pos, candidate), reach_lanes);
        debug_assert!(at + KEY_LOAD <= input.len());
        // SAFETY: the loop condition keeps the 32 bytes read from
        // `input[at]` on inside the slice; the load is unaligned.
        let bytes = unsafe { _mm256_loadu_si256(input.as_ptr().add(at).cast()) };
        let here = _mm512_maskz_permutexvar_epi8(key_bytes, spread, _mm512_castsi256_si512(bytes));
        // SAFETY: only in-range lanes load, and an in-range candidate is
        // below the step's last position `at + 15`, so its four bytes end
        // by `at + 18`, inside the 32 the loop condition keeps in bounds
        // and below `i32::MAX`, so every offset is non-negative.
        let there = unsafe {
            _mm512_mask_i32gather_epi32::<1>(
                _mm512_setzero_si512(),
                in_range,
                candidate,
                input.as_ptr().cast(),
            )
        };
        let hits = _mm512_mask_cmpeq_epi32_mask(in_range, _mm512_and_si512(there, key_mask), here);
        // All sixteen positions go in unmasked: a scatter whose mask
        // waited for `hits` would hold the next step's gather behind the
        // whole chain above.
        // SAFETY: as for the table gather above.
        unsafe { _mm512_i32scatter_epi32::<4>(table.as_mut_ptr().cast(), slot, pos) };
        if hits != 0 {
            // Undo the lanes past the first hit, k: each slot they took
            // gets back what it held before the first of them took it —
            // that lane's candidate, conflict patch included.
            let k = hits.trailing_zeros();
            let past: __mmask16 = !(hits ^ hits.wrapping_sub(1));
            let earlier_past = _mm512_set1_epi32(past as i32);
            let first_of_slot = _mm512_mask_testn_epi32_mask(past, conflicts, earlier_past);
            // SAFETY: as for the table gather above.
            unsafe {
                _mm512_mask_i32scatter_epi32::<4>(
                    table.as_mut_ptr().cast(),
                    first_of_slot,
                    slot,
                    candidate,
                )
            };
            let candidate = _mm512_permutexvar_epi32(_mm512_set1_epi32(k as i32), candidate);
            let candidate = _mm512_cvtsi512_si32(candidate) as u32;
            return Some((at + k as usize, candidate as usize));
        }
        i += LANES;
    }
    find_match_scalar(table, &slots[i..], input, first + i, reach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz_hash::lz_slots;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    /// The slot of every position of `input` that has a 3-byte key.
    fn slots_of(input: &[u8]) -> Vec<u16> {
        let mut slots = vec![0u16; input.len().saturating_sub(2)];
        let n = lz_slots(input, &mut slots);
        slots.truncate(n);
        slots
    }

    /// The vector arm, scalar tail included.
    type Run = fn(&mut [u32; TABLE_SIZE], &[u16], &[u8], usize, u32) -> Option<(usize, usize)>;

    /// The vector arm and its scalar tail, whatever `DR_SIMD` says; `None`
    /// on a CPU without the features (with a note on stderr).
    fn vector_arm() -> Option<Run> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512cd")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vbmi")
        {
            // SAFETY: avx512f/cd/bw/vbmi detected just above.
            return Some(|table, slots, input, first, reach| unsafe {
                find_match_avx512(table, slots, input, first, reach)
            });
        }
        eprintln!("note: no avx512f/cd/bw/vbmi on this CPU; the vector arm is not tested");
        None
    }

    /// Runs the scalar arm on `table` and the vector arm on a copy of it,
    /// and asserts that both return the same match and leave the same
    /// table. Returns the scalar arm's result.
    fn both_arms(
        table: &mut [u32; TABLE_SIZE],
        slots: &[u16],
        input: &[u8],
        first: usize,
        reach: u32,
        what: &str,
    ) -> Option<(usize, usize)> {
        let mut vector_table = Box::new(*table);
        let want = find_match_scalar(table, slots, input, first, reach);
        if let Some(vector) = vector_arm() {
            let got = vector(&mut vector_table, slots, input, first, reach);
            assert_eq!(got, want, "{what}: result");
            assert!(vector_table[..] == table[..], "{what}: the tables differ");
        }
        want
    }

    fn empty_table() -> Box<[u32; TABLE_SIZE]> {
        Box::new([u32::MAX; TABLE_SIZE])
    }

    #[test]
    fn arms_agree_on_whole_inputs() {
        // Resolved the way the codec resolves: probe, skip `skip`
        // positions past a match, probe again, on one table.
        let text = include_bytes!("lz_match.rs");
        let mut periodic = noise(64, 9).repeat(40);
        periodic.extend(noise(300, 10));
        let inputs: Vec<(&str, Vec<u8>)> = vec![
            ("noise", noise(4096, 1)),
            ("zeros", vec![0u8; 600]),
            ("text", text[..4096.min(text.len())].to_vec()),
            ("periodic", periodic),
            ("bytes", (0..=255u8).cycle().take(3000).collect()),
        ];
        for (name, input) in &inputs {
            let slots = slots_of(input);
            for reach in [0u32, 1, 3, 15, 16, 64, 512, 65_535, u32::MAX] {
                for skip in [1usize, 3, 40] {
                    let what = format!("{name}, reach {reach}, skip {skip}");
                    let mut table = empty_table();
                    let mut pos = 0;
                    while let Some((at, _)) =
                        both_arms(&mut table, &slots[pos..], input, pos, reach, &what)
                    {
                        pos = (at + skip).min(slots.len());
                    }
                }
            }
        }
    }

    /// A table, slots and input laid out by hand: `slots[j]` is the slot
    /// of position `first + j`, and `occupants` is what the table holds.
    fn probe_layout(
        input: &[u8],
        first: usize,
        slots: &[u16],
        occupants: &[(u16, u32)],
        reach: u32,
        what: &str,
    ) -> Option<(usize, usize)> {
        let mut table = empty_table();
        for &(slot, pos) in occupants {
            table[slot as usize] = pos;
        }
        both_arms(&mut table, slots, input, first, reach, what)
    }

    #[test]
    fn in_step_duplicate_slots_take_the_newest_earlier_lane() {
        // Every position reads the same three bytes, so a lane matches
        // whatever in-range candidate it gets.
        let input = vec![b'z'; 128];
        // Lanes 0, 3 and 9 share slot 7; the rest are distinct and empty.
        let mut slots: Vec<u16> = (100..148).collect();
        for j in [0, 3, 9] {
            slots[j] = 7;
        }
        // An empty slot 7: lane 3's candidate is lane 0, the first match.
        let got = probe_layout(&input, 40, &slots, &[], 64, "dup, empty");
        assert_eq!(got, Some((43, 40)));
        // Distance 3 is out of reach 2: lane 9 must see lane 3, not lane 0
        // and not the table, and is itself out of reach (6): no match.
        let got = probe_layout(&input, 40, &slots, &[], 2, "dup, short reach");
        assert_eq!(got, None);
        // Reach 6: lane 3 (distance 3) matches first.
        let got = probe_layout(&input, 40, &slots, &[(7, 10)], 6, "dup, occupied");
        assert_eq!(got, Some((43, 40)));
        // A match on a duplicated lane whose earlier twin is too far:
        // lanes 0 and 15 share a slot, reach 15 takes lane 0's position.
        let mut slots: Vec<u16> = (200..232).collect();
        slots[0] = 9;
        slots[15] = 9;
        let got = probe_layout(&input, 20, &slots, &[(9, 1)], 15, "dup lane 15");
        assert_eq!(got, Some((35, 20)));
        let got = probe_layout(&input, 20, &slots, &[(9, 1)], 14, "dup lane 15, short");
        assert_eq!(got, None);
        // Four lanes on one slot, the key of the second differing: the
        // third lane's candidate is the second lane, whose key differs,
        // so no match until the fourth, whose candidate is the third.
        let mut input = vec![b'z'; 128];
        input[41] = b'q';
        let mut slots: Vec<u16> = (300..332).collect();
        for j in [0, 1, 2, 6] {
            slots[j] = 11;
        }
        let got = probe_layout(&input, 40, &slots, &[], 64, "chain");
        assert_eq!(got, Some((46, 42)));
    }

    #[test]
    fn a_match_in_the_first_and_in_the_last_lane() {
        let input = noise(256, 3);
        let slots: Vec<u16> = (0..64).map(|j| 1000 + j).collect();
        let mut same = input.clone();
        // Position 100 repeats position 10's key; 115 repeats 20's.
        same[100..103].copy_from_slice(&input[10..13]);
        same[115..118].copy_from_slice(&input[20..23]);
        let lane_0 = probe_layout(&same, 100, &slots, &[(1000, 10)], 1000, "lane 0");
        assert_eq!(lane_0, Some((100, 10)));
        let lane_15 = probe_layout(&same, 100, &slots, &[(1015, 20)], 1000, "lane 15");
        assert_eq!(lane_15, Some((115, 20)));
        // The same lane-15 match in the second step.
        let lane_31 = probe_layout(&same, 84, &slots, &[(1031, 20)], 1000, "lane 31");
        assert_eq!(lane_31, Some((115, 20)));
    }

    #[test]
    fn a_candidate_reach_bytes_back_matches_and_one_more_does_not() {
        let mut input = noise(512, 4);
        input.copy_within(100..103, 300);
        let slots: Vec<u16> = (0..64).map(|j| 2000 + j).collect();
        for lane in [0usize, 7, 15] {
            let first = 300 - lane;
            let occupants = [(2000 + lane as u16, 100)];
            let at = probe_layout(&input, first, &slots, &occupants, 200, "reach");
            assert_eq!(at, Some((300, 100)), "lane {lane}");
            let past = probe_layout(&input, first, &slots, &occupants, 199, "reach + 1");
            assert_eq!(past, None, "lane {lane}");
        }
    }

    #[test]
    fn empty_and_ahead_occupants_are_refused() {
        // Every key agrees, so only the range test can refuse.
        let input = vec![b'a'; 200];
        let slots: Vec<u16> = (0..64).map(|j| 500 + j).collect();
        let occupants: Vec<(u16, u32)> = (0..64)
            .map(|j| {
                let pos = match j % 4 {
                    0 => u32::MAX,
                    1 => 60 + j as u32, // the position itself
                    2 => 200,           // ahead of it
                    _ => u32::MAX - 1,
                };
                (500 + j, pos)
            })
            .collect();
        let got = probe_layout(&input, 60, &slots, &occupants, u32::MAX, "empty");
        assert_eq!(got, None);
    }

    #[test]
    fn slot_lists_of_every_length_and_loads_near_the_end() {
        // Position `rep` repeats position 0's key and shares its slot,
        // whose occupant is 0; every other slot is its own and empty. So
        // a probe of positions `1..=count` matches exactly when it
        // reaches `rep`, wherever the vector arm's last whole step ends:
        // it stops where its 32-byte key load would run past the input.
        for len in [6usize, 17, 18, 19, 33, 34, 35, 48, 49, 50, 64, 65, 97] {
            for rep in 3..=len - 3 {
                let mut input = noise(len, len as u64);
                input.copy_within(0..3, rep);
                let mut slots: Vec<u16> = (1..=len as u16 - 3).collect();
                slots[rep - 1] = 0;
                for count in 0..=slots.len() {
                    let what = format!("len {len}, repeat at {rep}, {count} slots");
                    let got = probe_layout(&input, 1, &slots[..count], &[(0, 0)], 1 << 16, &what);
                    assert_eq!(got, (count >= rep).then_some((rep, 0)), "{what}");
                }
            }
        }
        // Inputs too short for a single step.
        for len in [4usize, 5] {
            let input = noise(len, 5);
            let slots = slots_of(&input);
            for count in 0..=slots.len() {
                both_arms(&mut empty_table(), &slots[..count], &input, 0, 64, "short");
            }
        }
    }
}
