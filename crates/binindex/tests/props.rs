//! Randomized tests: the bin index behaves like a map, in every
//! configuration, and snapshots are faithful.

use dr_binindex::{restore, snapshot, BinIndex, BinIndexConfig, ChunkRef, ProbeKind};
use dr_des::testkit::{self, Cases};
use dr_hashes::sha1_digest;
use dr_pool::WorkerPool;
use std::collections::{HashMap, HashSet};

fn digest_of(i: u64) -> dr_hashes::ChunkDigest {
    sha1_digest(&i.to_le_bytes())
}

/// With unbounded memory the index answers exactly like a HashMap
/// (newest insert wins), regardless of prefix and buffer settings.
#[test]
fn behaves_like_a_map() {
    Cases::new("behaves_like_a_map", 0xB14_0001).run(64, |rng| {
        let n = testkit::usize_in(rng, 1, 299);
        let ops: Vec<(u64, u32)> = (0..n)
            .map(|_| {
                (
                    testkit::u64_in(rng, 0, 199),
                    testkit::u64_in(rng, 0, u32::MAX as u64) as u32,
                )
            })
            .collect();
        let prefix = testkit::usize_in(rng, 1, 2);
        let capacity = testkit::usize_in(rng, 1, 31);
        let mut index = BinIndex::new(BinIndexConfig {
            prefix_bytes: prefix,
            bin_buffer_capacity: capacity,
            ..BinIndexConfig::default()
        });
        let mut model: HashMap<u64, ChunkRef> = HashMap::new();
        for (key, len) in ops {
            let r = ChunkRef::new(key * 4096, len);
            index.insert(digest_of(key), r);
            model.insert(key, r);
        }
        for (key, want) in &model {
            assert_eq!(index.lookup(&digest_of(*key)), Some(*want));
        }
        // Absent keys miss.
        for key in 200u64..220 {
            assert_eq!(index.lookup(&digest_of(key)), None);
        }
    });
}

/// Batched stats-free probes (the pipeline path) return bit-identical
/// results for every pool width, and `Full` probes agree with plain
/// serial lookups. Half the cases draw enough queries (2 048 and up, two
/// fan-out grains) for the wider pools to cut the batch into ranges; the
/// rest stay serial at every width.
#[test]
fn batched_probes_match_serial_across_widths() {
    Cases::new("batched_probes_match_serial_across_widths", 0xB14_0004).run(48, |rng| {
        let present: Vec<u64> = (0..testkit::usize_in(rng, 0, 99))
            .map(|_| testkit::u64_in(rng, 0, 99))
            .collect();
        let mut index = BinIndex::new(BinIndexConfig {
            bin_buffer_capacity: testkit::usize_in(rng, 1, 7),
            ..BinIndexConfig::default()
        });
        for k in &present {
            index.insert(digest_of(*k), ChunkRef::new(*k, 1));
        }
        let count = if testkit::u64_in(rng, 0, 1) == 0 {
            testkit::usize_in(rng, 0, 149)
        } else {
            testkit::usize_in(rng, 2048, 4500)
        };
        let queries: Vec<(dr_hashes::ChunkDigest, ProbeKind)> = (0..count)
            .map(|_| {
                let d = digest_of(testkit::u64_in(rng, 0, 149));
                let kind = if testkit::u64_in(rng, 0, 1) == 0 {
                    ProbeKind::Full
                } else {
                    ProbeKind::BufferOnly
                };
                (d, kind)
            })
            .collect();
        // Width 1 is always the serial scan. All widths must agree.
        let reference = index.probe_batch_on(&WorkerPool::new(0), &queries);
        for extra_workers in 1..4usize {
            let pool = WorkerPool::new(extra_workers);
            assert_eq!(
                index.probe_batch_on(&pool, &queries),
                reference,
                "width {} diverged from serial",
                extra_workers + 1
            );
        }
        // Full probes agree with the serial stats-tracking lookup.
        for ((d, kind), got) in queries.iter().zip(&reference) {
            if *kind == ProbeKind::Full {
                assert_eq!(index.lookup(d), got.map(|(r, _)| r));
            }
        }
    });
}

/// Snapshot/restore preserves every entry of an index built from `keys`.
fn assert_snapshot_round_trips(keys: &HashSet<u64>, prefix_bytes: usize, capacity: usize) {
    let mut index = BinIndex::new(BinIndexConfig {
        prefix_bytes,
        bin_buffer_capacity: capacity,
        ..BinIndexConfig::default()
    });
    for k in keys {
        index.insert(digest_of(*k), ChunkRef::new(*k, 7));
    }
    let (bytes, len) = (snapshot(&index).expect("snapshot"), index.len());
    // One index alive at a time: at a 3-byte prefix each is gigabytes.
    drop(index);
    let mut restored = restore(&bytes).expect("restore");
    assert_eq!(restored.len(), len);
    for k in keys {
        assert_eq!(restored.lookup(&digest_of(*k)), Some(ChunkRef::new(*k, 7)));
    }
}

/// Snapshot/restore preserves every entry under any configuration. The
/// property stays at 1- and 2-byte prefixes: a 3-byte prefix is 2^24
/// bins, and building and dropping two such indexes per case used to be
/// most of the workspace suite's wall time; one fixed case covers it.
#[test]
fn snapshot_round_trips() {
    Cases::new("snapshot_round_trips", 0xB14_0003).run(64, |rng| {
        let keys: HashSet<u64> = (0..testkit::usize_in(rng, 0, 199))
            .map(|_| testkit::u64_in(rng, 0, 499))
            .collect();
        let prefix = testkit::usize_in(rng, 1, 2);
        let capacity = testkit::usize_in(rng, 1, 15);
        assert_snapshot_round_trips(&keys, prefix, capacity);
    });
}

#[test]
fn snapshot_round_trips_at_a_three_byte_prefix() {
    let keys: HashSet<u64> = (0..200).map(|k| k * 7).collect();
    assert_snapshot_round_trips(&keys, 3, 4);
}

/// Collects the full lookup table of an index for equality comparison.
fn contents_of(index: &mut BinIndex, universe: u64) -> Vec<Option<ChunkRef>> {
    (0..universe).map(|k| index.lookup(&digest_of(k))).collect()
}

/// Truncating a snapshot at *every* boundary — mid-header, mid-entry,
/// mid-trailer — must fail cleanly, never panic, and never restore an
/// index with different contents.
#[test]
fn truncated_snapshots_never_restore_wrong_contents() {
    Cases::new(
        "truncated_snapshots_never_restore_wrong_contents",
        0xB14_0005,
    )
    .run(16, |rng| {
        let keys: HashSet<u64> = (0..testkit::usize_in(rng, 1, 24))
            .map(|_| testkit::u64_in(rng, 0, 99))
            .collect();
        let mut index = BinIndex::new(BinIndexConfig::default());
        for k in &keys {
            index.insert(digest_of(*k), ChunkRef::new(*k, 7));
        }
        let want = contents_of(&mut index, 100);
        let blob = snapshot(&index).expect("snapshot");
        for cut in 0..blob.len() {
            match restore(&blob[..cut]) {
                Err(_) => {}
                Ok(mut got) => {
                    // A prefix that still parses may only be accepted when
                    // it reproduces the exact original contents.
                    assert_eq!(
                        contents_of(&mut got, 100),
                        want,
                        "truncation at {cut}/{} restored different contents",
                        blob.len()
                    );
                }
            }
        }
    });
}

/// Flipping one random byte anywhere in the blob must fail cleanly or
/// restore identical contents — silent corruption is the one forbidden
/// outcome. The CRC-32C trailer is what makes this hold for entry bytes.
#[test]
fn corrupted_snapshots_never_restore_wrong_contents() {
    Cases::new(
        "corrupted_snapshots_never_restore_wrong_contents",
        0xB14_0006,
    )
    .run(64, |rng| {
        let keys: HashSet<u64> = (0..testkit::usize_in(rng, 1, 49))
            .map(|_| testkit::u64_in(rng, 0, 199))
            .collect();
        let mut index = BinIndex::new(BinIndexConfig::default());
        for k in &keys {
            index.insert(digest_of(*k), ChunkRef::new(*k, 7));
        }
        let want = contents_of(&mut index, 200);
        let mut blob = snapshot(&index).expect("snapshot");
        let offset = testkit::usize_in(rng, 0, blob.len() - 1);
        let bit = 1u8 << testkit::usize_in(rng, 0, 7);
        blob[offset] ^= bit;
        match restore(&blob) {
            Err(_) => {}
            Ok(mut got) => assert_eq!(
                contents_of(&mut got, 200),
                want,
                "byte flip at {offset} (bit {bit:#04x}) restored different contents"
            ),
        }
    });
}

/// A memory budget is never exceeded, whatever the insert pattern.
#[test]
fn capacity_bound_holds() {
    Cases::new("capacity_bound_holds", 0xB14_0004).run(64, |rng| {
        let n = testkit::usize_in(rng, 1, 399);
        let keys: Vec<u64> = (0..n).map(|_| testkit::u64_in(rng, 0, 9_999)).collect();
        let budget = testkit::u64_in(rng, 1, 63);
        let mut index = BinIndex::new(BinIndexConfig {
            max_entries: budget,
            ..BinIndexConfig::default()
        });
        for k in keys {
            index.insert(digest_of(k), ChunkRef::new(k, 1));
            assert!(index.len() <= budget);
        }
    });
}
