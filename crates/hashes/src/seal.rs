//! The one CRC-32C seal every persisted or shipped record carries.
//!
//! A sealed record is its body followed by the CRC-32C of that body, a
//! 4-byte little-endian trailer. The index snapshot, each journal record,
//! the destaged-frame integrity envelope and the rebalance handoff wire
//! are all sealed this way; each keeps its own header (magic, kind,
//! length) in front of the body, and [`open`] is the one place the
//! trailer is checked.

use std::error::Error;
use std::fmt;

use crate::crc32c;

/// Bytes [`seal`] appends.
pub const SEAL_LEN: usize = 4;

/// Why [`open`] refused a sealed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Shorter than the trailer.
    Truncated,
    /// The trailer does not match the body (corruption in transit or at
    /// rest).
    Mismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum computed over the body.
        actual: u32,
    },
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::Truncated => write!(f, "sealed record is shorter than its trailer"),
            SealError::Mismatch { stored, actual } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            ),
        }
    }
}

impl Error for SealError {}

/// Appends the CRC-32C of `out[from..]` to `out` as a little-endian
/// trailer, sealing the record that starts at `from`.
///
/// ```
/// use dr_hashes::{crc32c, open, seal};
/// let mut out = b"head".to_vec();
/// out.extend_from_slice(b"body");
/// seal(&mut out, 4);
/// assert_eq!(out[8..], crc32c(b"body").to_le_bytes());
/// assert_eq!(open(&out[4..]), Ok(&b"body"[..]));
/// ```
///
/// # Panics
///
/// Panics when `from` is past the end of `out`.
pub fn seal(out: &mut Vec<u8>, from: usize) {
    let crc = crc32c(&out[from..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Checks the trailer [`seal`] appended and returns the body in front of
/// it.
///
/// # Errors
///
/// [`SealError::Truncated`] when `sealed` is shorter than the trailer,
/// [`SealError::Mismatch`] when the trailer is not the body's CRC-32C.
pub fn open(sealed: &[u8]) -> Result<&[u8], SealError> {
    let body_len = sealed
        .len()
        .checked_sub(SEAL_LEN)
        .ok_or(SealError::Truncated)?;
    let (body, trailer) = sealed.split_at(body_len);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let actual = crc32c(body);
    if stored != actual {
        return Err(SealError::Mismatch { stored, actual });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sealed_record_opens_to_its_body_and_nothing_shorter_opens() {
        for len in [0usize, 1, 5, 64, 4101] {
            let body: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut sealed = body.clone();
            seal(&mut sealed, 0);
            assert_eq!(sealed.len(), len + SEAL_LEN);
            assert_eq!(open(&sealed), Ok(&body[..]), "len {len}");
            for short in 0..SEAL_LEN {
                assert_eq!(open(&sealed[..short]), Err(SealError::Truncated));
            }
        }
    }

    #[test]
    fn a_damaged_trailer_reports_both_checksums() {
        let mut sealed = b"record".to_vec();
        seal(&mut sealed, 0);
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        let want = crc32c(b"record");
        assert_eq!(
            open(&sealed),
            Err(SealError::Mismatch {
                stored: want ^ 0x8000_0000,
                actual: want
            })
        );
    }
}
