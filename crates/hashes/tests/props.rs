//! Randomized tests: hashing invariants on arbitrary inputs.

use dr_des::testkit::{self, Cases};
use dr_hashes::{crc32c, sha1_digest, ChunkDigest, Crc32c, Sha1};

/// Incremental SHA-1 over arbitrary split points equals one-shot.
#[test]
fn sha1_incremental_equals_one_shot() {
    Cases::new("sha1_incremental_equals_one_shot", 0x5A1_0001).run(96, |rng| {
        let data = testkit::vec_u8(rng, 0, 4096);
        let mut cuts: Vec<usize> = (0..testkit::usize_in(rng, 0, 7))
            .map(|_| testkit::usize_in(rng, 0, data.len()))
            .collect();
        cuts.sort_unstable();
        let mut h = Sha1::new();
        let mut prev = 0;
        for cut in cuts {
            h.update(&data[prev..cut]);
            prev = cut;
        }
        h.update(&data[prev..]);
        assert_eq!(h.finalize(), sha1_digest(&data));
    });
}

/// Incremental CRC-32C equals one-shot.
#[test]
fn crc_incremental_equals_one_shot() {
    Cases::new("crc_incremental_equals_one_shot", 0x5A1_0003).run(96, |rng| {
        let data = testkit::vec_u8(rng, 0, 4096);
        let cut = testkit::usize_in(rng, 0, data.len());
        let mut c = Crc32c::new();
        c.update(&data[..cut]);
        c.update(&data[cut..]);
        assert_eq!(c.finalize(), crc32c(&data));
    });
}

/// Hex round-trips for arbitrary digests.
#[test]
fn digest_hex_round_trips() {
    Cases::new("digest_hex_round_trips", 0x5A1_0004).run(96, |rng| {
        let mut bytes = [0u8; 20];
        rng.fill_bytes(&mut bytes);
        let d = ChunkDigest::new(bytes);
        assert_eq!(ChunkDigest::from_hex(&d.to_hex()), Some(d));
    });
}

/// Appending a byte always changes the SHA-1 digest (prefix freedom).
#[test]
fn sha1_sensitive_to_appends() {
    Cases::new("sha1_sensitive_to_appends", 0x5A1_0005).run(96, |rng| {
        let mut data = testkit::vec_u8(rng, 0, 512);
        let extra = (rng.next_u64() & 0xFF) as u8;
        let base = sha1_digest(&data);
        data.push(extra);
        assert_ne!(base, sha1_digest(&data));
    });
}

/// Prefix extraction is consistent with the raw bytes.
#[test]
fn prefix_matches_bytes() {
    Cases::new("prefix_matches_bytes", 0x5A1_0006).run(96, |rng| {
        let mut bytes = [0u8; 20];
        rng.fill_bytes(&mut bytes);
        let n = testkit::usize_in(rng, 1, 8);
        let d = ChunkDigest::new(bytes);
        let expect = bytes[..n]
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | b as u64);
        assert_eq!(d.prefix_u64(n), expect);
    });
}
