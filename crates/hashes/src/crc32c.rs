//! CRC-32C (Castagnoli), table-driven with SWAR/SIMD fast paths.
//!
//! Storage systems checksum what they destage; CRC-32C is the industry
//! polynomial (iSCSI, ext4, Btrfs). Every persisted or shipped record is
//! sealed with it through [`crate::seal()`]; it is also available
//! standalone.
//!
//! Three implementation arms, all bit-identical:
//!
//! * **hardware** — x86_64 SSE4.2 `crc32` (the instruction natively
//!   implements the reflected Castagnoli polynomial, 8 bytes/op), or the
//!   aarch64 CRC extension's `crc32cd`;
//! * **slicing-by-8** — the scalar fast path: eight compile-time tables
//!   fold one `u64` per iteration instead of one byte;
//! * **bytewise** — the single-table reference, kept as the differential
//!   baseline the other arms are pinned against.
//!
//! Dispatch follows [`crate::simd`]: detected once, `DR_SIMD=scalar`
//! forces slicing-by-8 (still scalar code, no `std::arch`).

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::simd;

/// The Castagnoli polynomial, reflected.
const POLY: u32 = 0x82F6_3B78;

/// Slicing tables: `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k]` advances a byte through `k` additional zero bytes, so the
/// eight tables jointly fold a whole little-endian `u64` into the CRC in
/// one step.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One-shot CRC-32C of `data`.
///
/// ```
/// use dr_hashes::crc32c;
/// // RFC 3720 test vector: 32 bytes of zeros.
/// assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
/// ```
pub fn crc32c(data: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(data);
    crc.finalize()
}

/// Incremental CRC-32C.
///
/// ```
/// use dr_hashes::{crc32c, Crc32c};
/// let mut c = Crc32c::new();
/// c.update(b"123");
/// c.update(b"456789");
/// assert_eq!(c.finalize(), crc32c(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Creates a fresh checksum.
    pub fn new() -> Self {
        Crc32c { state: 0xFFFF_FFFF }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        if simd::crc32c_hw() {
            // SAFETY: crc32c_hw() verified the CPU feature at runtime.
            self.state = unsafe { update_hw(self.state, data) };
            return;
        }
        self.state = update_slice8(self.state, data);
    }

    /// Returns the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// Bytewise reference arm (single table). Exposed for differential tests.
#[doc(hidden)]
pub fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Slicing-by-8 scalar arm: folds one `u64` per iteration through eight
/// tables. Exposed for differential tests.
#[doc(hidden)]
pub fn update_slice8(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap()) ^ crc as u64;
        crc = TABLES[7][(word & 0xFF) as usize]
            ^ TABLES[6][((word >> 8) & 0xFF) as usize]
            ^ TABLES[5][((word >> 16) & 0xFF) as usize]
            ^ TABLES[4][((word >> 24) & 0xFF) as usize]
            ^ TABLES[3][((word >> 32) & 0xFF) as usize]
            ^ TABLES[2][((word >> 40) & 0xFF) as usize]
            ^ TABLES[1][((word >> 48) & 0xFF) as usize]
            ^ TABLES[0][((word >> 56) & 0xFF) as usize];
    }
    update_bytewise(crc, chunks.remainder())
}

/// Hardware arm: the `crc32` instruction implements reflected Castagnoli
/// directly, so the running state feeds it with no bit reversal.
/// Exposed for differential tests.
///
/// # Safety
/// Caller must ensure the CPU supports SSE4.2 (x86_64) or the CRC
/// extension (aarch64).
#[cfg(target_arch = "x86_64")]
#[doc(hidden)]
#[target_feature(enable = "sse4.2")]
pub unsafe fn update_hw(mut crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut state = crc as u64;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap());
        state = _mm_crc32_u64(state, word);
    }
    crc = state as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// See the x86_64 variant.
///
/// # Safety
/// Caller must ensure the CPU supports the aarch64 CRC extension.
#[cfg(target_arch = "aarch64")]
#[doc(hidden)]
#[target_feature(enable = "crc")]
pub unsafe fn update_hw(mut crc: u32, data: &[u8]) -> u32 {
    use std::arch::aarch64::{__crc32cb, __crc32cd};
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap());
        crc = __crc32cd(crc, word);
    }
    for &b in chunks.remainder() {
        crc = __crc32cb(crc, b);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 3720 appendix B.4 test vectors.
    #[test]
    fn zeros_32() {
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn ones_32() {
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn ascending_32() {
        let data: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&data), 0x46DD_794E);
    }

    #[test]
    fn descending_32() {
        let data: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&data), 0x113F_DB5C);
    }

    #[test]
    fn check_string() {
        // The classic "123456789" check value for CRC-32C.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let whole = crc32c(&data);
        for split in [1usize, 7, 256, 999] {
            let mut c = Crc32c::new();
            for piece in data.chunks(split) {
                c.update(piece);
            }
            assert_eq!(c.finalize(), whole, "split {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let original = crc32c(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), original, "missed flip at {byte}.{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn slice8_matches_bytewise() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(31) % 256) as u8)
            .collect();
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4096] {
            assert_eq!(
                update_slice8(0xFFFF_FFFF, &data[..len]),
                update_bytewise(0xFFFF_FFFF, &data[..len]),
                "len {len}"
            );
        }
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[test]
    fn hardware_matches_bytewise() {
        if !simd::crc32c_hw() {
            return; // no hardware CRC on this host (or DR_SIMD=scalar)
        }
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(131) % 256) as u8)
            .collect();
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4096] {
            let hw = unsafe { update_hw(0xFFFF_FFFF, &data[..len]) };
            assert_eq!(hw, update_bytewise(0xFFFF_FFFF, &data[..len]), "len {len}");
        }
    }
}
