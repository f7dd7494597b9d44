//! Index snapshot and recovery.
//!
//! The paper flushes bin-buffer contents to storage as sequential writes;
//! that on-device index stream is what makes the in-memory index
//! recoverable after a crash or restart. This module defines the
//! serialized form: a [`BinIndex`] can be checkpointed to bytes
//! ([`snapshot`]) and rebuilt from them ([`restore`]), with entries
//! landing directly in the bin trees (a restore is logically "everything
//! already flushed").
//!
//! # Format (version 3, columnar)
//!
//! ```text
//! bytes 0..4    magic "DRIX"
//! byte  4       version (3)
//! byte  5       prefix_bytes
//! bytes 6..10   bin_buffer_capacity, LE u32
//! bytes 10..18  max_entries, LE u64
//! bytes 18..26  rng seed, LE u64
//! bytes 26..34  total entry count, LE u64
//! per non-empty bin (ascending bin id):
//!   bin id      LE u32
//!   bin count   LE u32
//!   suffix col  count × (20 − prefix_bytes) bytes (digest suffixes, in
//!               bin order: flushed page sorted-by-key, then buffer page
//!               in append order)
//!   addr col    count × LE u64
//!   len col     count × LE u32
//! seal          CRC-32C of every preceding byte, LE u32 (dr_hashes::seal)
//! ```
//!
//! The per-bin groups mirror the in-memory SoA pages ([`crate::page`]):
//! each column is written with one sequential walk of the corresponding
//! page column, and a restore refills the columns in the same order —
//! ascending keys per bin, so the sorted-page insert path is a straight
//! append.
//!
//! Version 3 is the only format [`restore`] reads. Versions 1 and 2 never
//! left this repository, and version 1 had no integrity trailer — while it
//! was accepted, one flipped bit in the version byte skipped the CRC check.

use std::error::Error;
use std::fmt;

use dr_hashes::{open, seal, SEAL_LEN};

use crate::bin::BinKey;
use crate::entry::ChunkRef;
use crate::index::{BinIndex, BinIndexConfig};
use crate::page::KEY_BYTES;

const MAGIC: &[u8; 4] = b"DRIX";
/// The one readable revision: columnar per-bin groups + CRC-32C seal.
const VERSION: u8 = 3;
const HEADER_LEN: usize = 34;

/// Errors when building or restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob is shorter than its own accounting claims.
    Truncated,
    /// The magic or version does not match.
    BadHeader,
    /// A field held an impossible value (e.g. prefix length 9).
    BadField(&'static str),
    /// The blob does not match its CRC-32C seal.
    Corrupt,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadHeader => write!(f, "unrecognized snapshot header"),
            SnapshotError::BadField(name) => write!(f, "snapshot field {name} is invalid"),
            SnapshotError::Corrupt => write!(f, "snapshot failed its integrity check"),
        }
    }
}

impl Error for SnapshotError {}

/// Serializes the index (all bins, buffers included) to bytes.
///
/// # Errors
///
/// [`SnapshotError::BadField`] when a configuration value does not fit its
/// serialized width (`bin_buffer_capacity` wider than 32 bits).
pub fn snapshot(index: &BinIndex) -> Result<Vec<u8>, SnapshotError> {
    let config = index.config();
    let prefix = config.prefix_bytes;
    let suffix_len = 20 - prefix;
    let buffer_capacity = u32::try_from(config.bin_buffer_capacity)
        .map_err(|_| SnapshotError::BadField("bin_buffer_capacity"))?;
    let mut out = Vec::with_capacity(
        HEADER_LEN + index.len() as usize * (prefix + suffix_len + 12) + SEAL_LEN,
    );
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(prefix as u8);
    out.extend_from_slice(&buffer_capacity.to_le_bytes());
    out.extend_from_slice(&config.max_entries.to_le_bytes());
    out.extend_from_slice(&config.seed.to_le_bytes());
    out.extend_from_slice(&index.len().to_le_bytes());
    for bin_id in 0..index.router().bin_count() {
        let bin = index.bin(bin_id);
        if bin.is_empty() {
            continue;
        }
        let count = u32::try_from(bin.len()).map_err(|_| SnapshotError::BadField("bin_count"))?;
        out.extend_from_slice(&(bin_id as u32).to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        let pages = [bin.flushed_page(), bin.buffer_page()];
        // Each column is one sequential walk over the matching SoA page
        // column; the routed prefix bytes (always zero in stored keys)
        // are stripped on the way out.
        for page in pages {
            let keys = page.key_bytes();
            for i in 0..page.len() {
                out.extend_from_slice(&keys[i * KEY_BYTES + prefix..(i + 1) * KEY_BYTES]);
            }
        }
        for page in pages {
            for i in 0..page.len() {
                out.extend_from_slice(&page.ref_at(i).addr().to_le_bytes());
            }
        }
        for page in pages {
            for i in 0..page.len() {
                out.extend_from_slice(&page.ref_at(i).stored_len().to_le_bytes());
            }
        }
    }
    seal(&mut out, 0);
    Ok(out)
}

/// Rebuilds an index from a [`snapshot`] blob.
///
/// Nothing is trusted before the magic, the version and the CRC-32C
/// seal have checked out, and the declared entry count is validated
/// against the actual blob length — with overflow-checked arithmetic —
/// *before* any allocation is sized from it.
///
/// # Errors
///
/// Any [`SnapshotError`] for malformed input; a version other than 3 is
/// [`SnapshotError::BadHeader`].
pub fn restore(bytes: &[u8]) -> Result<BinIndex, SnapshotError> {
    if bytes.len() < HEADER_LEN + SEAL_LEN {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..4] != MAGIC || bytes[4] != VERSION {
        return Err(SnapshotError::BadHeader);
    }
    // The seal protects header + entries against bit rot.
    let bytes = open(bytes).map_err(|_| SnapshotError::Corrupt)?;
    let prefix = bytes[5] as usize;
    if !(1..=3).contains(&prefix) {
        return Err(SnapshotError::BadField("prefix_bytes"));
    }
    let buffer_capacity = u32::from_le_bytes(le(bytes, 6)?) as usize;
    if buffer_capacity == 0 {
        return Err(SnapshotError::BadField("bin_buffer_capacity"));
    }
    let max_entries = u64::from_le_bytes(le(bytes, 10)?);
    let seed = u64::from_le_bytes(le(bytes, 18)?);
    let count = u64::from_le_bytes(le(bytes, 26)?);

    // Validate the declared count against what the blob actually holds
    // before sizing anything from it: a corrupted count must fail cleanly,
    // never drive an allocation.
    let entry_len = (20 - prefix) + 12;
    let count = usize::try_from(count).map_err(|_| SnapshotError::BadField("entry_count"))?;
    let need = count
        .checked_mul(entry_len)
        .ok_or(SnapshotError::BadField("entry_count"))?;
    let body = &bytes[HEADER_LEN..];
    if body.len() < need {
        return Err(SnapshotError::Truncated);
    }

    let mut index = BinIndex::new(BinIndexConfig {
        prefix_bytes: prefix,
        bin_buffer_capacity: buffer_capacity,
        max_entries,
        seed,
    });

    restore_columnar(&mut index, body, prefix, count)?;
    Ok(index)
}

/// The `N` bytes of `bytes` at `at`, for a fixed-width little-endian
/// read; [`SnapshotError::Truncated`] when the blob ends first.
fn le<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], SnapshotError> {
    bytes
        .get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(SnapshotError::Truncated)
}

/// Parses the columnar body: per-bin `(id, count)` headers
/// followed by suffix / addr / len columns.
fn restore_columnar(
    index: &mut BinIndex,
    body: &[u8],
    prefix: usize,
    declared: usize,
) -> Result<(), SnapshotError> {
    let suffix_len = 20 - prefix;
    let per_entry = suffix_len + 12;
    let bin_count = index.router().bin_count();
    let mut cursor = 0usize;
    let mut seen = 0usize;
    while cursor < body.len() {
        if body.len() - cursor < 8 {
            return Err(SnapshotError::Truncated);
        }
        let bin_id = u32::from_le_bytes(le(body, cursor)?) as usize;
        let n = u32::from_le_bytes(le(body, cursor + 4)?) as usize;
        cursor += 8;
        if bin_id >= bin_count {
            return Err(SnapshotError::BadField("bin_id"));
        }
        let group = n
            .checked_mul(per_entry)
            .ok_or(SnapshotError::BadField("bin_count"))?;
        if body.len() - cursor < group {
            return Err(SnapshotError::Truncated);
        }
        seen = seen
            .checked_add(n)
            .filter(|&s| s <= declared)
            .ok_or(SnapshotError::BadField("entry_count"))?;
        let suffixes = &body[cursor..cursor + n * suffix_len];
        let addrs = &body[cursor + n * suffix_len..cursor + n * (suffix_len + 8)];
        let lens = &body[cursor + n * (suffix_len + 8)..cursor + group];
        for i in 0..n {
            let mut key: BinKey = [0u8; 20];
            key[prefix..].copy_from_slice(&suffixes[i * suffix_len..(i + 1) * suffix_len]);
            let addr = u64::from_le_bytes(le(addrs, i * 8)?);
            let len = u32::from_le_bytes(le(lens, i * 4)?);
            index.restore_entry(bin_id, key, ChunkRef::new(addr, len));
        }
        cursor += group;
    }
    if seen != declared {
        return Err(SnapshotError::BadField("entry_count"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_hashes::sha1_digest;

    fn populated(n: u64) -> BinIndex {
        let mut index = BinIndex::new(BinIndexConfig {
            bin_buffer_capacity: 4, // force a mix of buffer and tree entries
            ..BinIndexConfig::default()
        });
        for i in 0..n {
            index.insert(sha1_digest(&i.to_le_bytes()), ChunkRef::new(i * 4096, 4096));
        }
        index
    }

    /// Re-seals the blob after a deliberate body edit, so a test can reach
    /// the semantic validators behind the integrity check.
    fn fix_crc(blob: &mut Vec<u8>) {
        blob.truncate(blob.len() - SEAL_LEN);
        seal(blob, 0);
    }

    #[test]
    fn snapshot_round_trips_every_entry() {
        let index = populated(500);
        let blob = snapshot(&index).expect("snapshot");
        let mut restored = restore(&blob).expect("restore");
        assert_eq!(restored.len(), index.len());
        for i in 0..500u64 {
            let d = sha1_digest(&i.to_le_bytes());
            assert_eq!(
                restored.lookup(&d),
                Some(ChunkRef::new(i * 4096, 4096)),
                "entry {i} lost"
            );
        }
    }

    #[test]
    fn restored_config_matches() {
        let index = populated(10);
        let restored = restore(&snapshot(&index).unwrap()).unwrap();
        assert_eq!(restored.config(), index.config());
    }

    #[test]
    fn empty_index_round_trips() {
        let index = BinIndex::new(BinIndexConfig::default());
        let restored = restore(&snapshot(&index).unwrap()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let blob = snapshot(&populated(100)).unwrap();
        assert!(restore(&blob[..blob.len() - 3]).is_err());
        for short in [0, 20, HEADER_LEN, HEADER_LEN + SEAL_LEN - 1] {
            assert!(matches!(
                restore(&blob[..short]),
                Err(SnapshotError::Truncated)
            ));
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut blob = snapshot(&populated(1)).unwrap();
        blob[0] = b'X';
        assert!(matches!(restore(&blob), Err(SnapshotError::BadHeader)));
    }

    #[test]
    fn future_version_rejected() {
        let mut blob = snapshot(&populated(1)).unwrap();
        blob[4] = VERSION + 1;
        assert!(matches!(restore(&blob), Err(SnapshotError::BadHeader)));
    }

    #[test]
    fn older_versions_are_rejected_with_bad_header() {
        // Versions 1 and 2 are gone. The header check comes before the
        // CRC, so the answer is the same whether or not the trailer was
        // re-stamped — in particular a bit flip 3 -> 1 or 3 -> 2 in byte 4
        // can no longer talk `restore` out of the integrity check.
        for version in [0u8, 1, 2] {
            let mut blob = snapshot(&populated(8)).unwrap();
            blob[4] = version;
            assert!(matches!(restore(&blob), Err(SnapshotError::BadHeader)));
            fix_crc(&mut blob);
            assert!(matches!(restore(&blob), Err(SnapshotError::BadHeader)));
        }
    }

    #[test]
    fn bad_prefix_detected() {
        let mut blob = snapshot(&populated(1)).unwrap();
        blob[5] = 9;
        fix_crc(&mut blob);
        assert!(matches!(
            restore(&blob),
            Err(SnapshotError::BadField("prefix_bytes"))
        ));
    }

    #[test]
    fn single_bit_flip_fails_the_integrity_check() {
        let blob = snapshot(&populated(64)).unwrap();
        // Flip one bit in every region: header fields, entry bytes, CRC.
        for offset in [4usize, 27, HEADER_LEN + 3, blob.len() - 1] {
            let mut bad = blob.clone();
            bad[offset] ^= 0x10;
            assert!(
                restore(&bad).is_err(),
                "bit flip at {offset} went undetected"
            );
        }
    }

    #[test]
    fn entry_flip_is_reported_as_corrupt() {
        let mut blob = snapshot(&populated(64)).unwrap();
        let mid = HEADER_LEN + (blob.len() - HEADER_LEN - SEAL_LEN) / 2;
        blob[mid] ^= 0x01;
        assert!(matches!(restore(&blob), Err(SnapshotError::Corrupt)));
    }

    #[test]
    fn inflated_count_is_rejected_before_any_entry_is_read() {
        let mut blob = snapshot(&populated(8)).unwrap();
        // Claim u64::MAX entries; the checked size math must refuse it
        // (CRC re-stamped, so it does not mask the count validation).
        blob[26..34].copy_from_slice(&u64::MAX.to_le_bytes());
        fix_crc(&mut blob);
        assert!(matches!(
            restore(&blob),
            Err(SnapshotError::BadField("entry_count")) | Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn v3_out_of_range_bin_id_is_rejected() {
        let mut blob = snapshot(&populated(1)).unwrap();
        // First group header starts right after the fixed header.
        blob[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fix_crc(&mut blob);
        assert!(matches!(
            restore(&blob),
            Err(SnapshotError::BadField("bin_id"))
        ));
    }

    #[test]
    fn v3_group_sum_must_match_declared_count() {
        let mut blob = snapshot(&populated(8)).unwrap();
        let declared = u64::from_le_bytes(blob[26..34].try_into().unwrap());
        blob[26..34].copy_from_slice(&(declared + 1).to_le_bytes());
        fix_crc(&mut blob);
        assert!(matches!(
            restore(&blob),
            Err(SnapshotError::BadField("entry_count")) | Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn restore_does_not_emit_flushes() {
        // Restored entries land in trees; inserting one more into a bin
        // must not immediately flush a huge buffer.
        let index = populated(300);
        let mut restored = restore(&snapshot(&index).unwrap()).unwrap();
        let obs = dr_obs::ObsHandle::enabled("restore-test");
        restored.set_obs(&obs);
        assert!(restored
            .insert(sha1_digest(b"new"), ChunkRef::new(0, 1))
            .is_none());
        assert_eq!(obs.counter("index.flushes").get(), 0);
        assert_eq!(obs.counter("index.inserts").get(), 1);
    }
}
