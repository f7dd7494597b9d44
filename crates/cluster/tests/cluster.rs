//! End-to-end cluster behavior: loss-free membership change, cross-node
//! dedup accounting, crash reconciliation, CRC-validated handoff, the
//! obs rollup and its `router.*` names, and single-node bit-identity
//! with the bare array.

use dr_cluster::{Cluster, ClusterConfig, ClusterError};
use dr_obs::ObsHandle;
use dr_reduction::{IntegrationMode, PipelineConfig, VolumeError, VolumeManager};
use dr_ssd_sim::SsdFaultSpec;
use dr_workload::synthesize_block;

const CHUNK: usize = 4096;

fn node_config(journal: bool, obs: bool) -> PipelineConfig {
    PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        pool_workers: 1,
        journal_pages: if journal { 1024 } else { 0 },
        obs: if obs {
            ObsHandle::enabled("template")
        } else {
            ObsHandle::disabled()
        },
        ..PipelineConfig::default()
    }
}

fn cluster(nodes: usize, journal: bool) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        node: node_config(journal, true),
        ..ClusterConfig::default()
    })
}

fn payload(seed: u64) -> Vec<u8> {
    synthesize_block(seed, CHUNK, 2.0)
}

/// Writes `count` distinct blocks and returns their contents.
fn fill(c: &mut Cluster, name: &str, count: u64) -> Vec<Vec<u8>> {
    (0..count)
        .map(|b| {
            let data = payload(1000 + b);
            c.write(name, b, &data).unwrap();
            data
        })
        .collect()
}

#[test]
fn writes_spread_across_nodes_and_read_back() {
    let mut c = cluster(3, false);
    c.create_volume("v", 64).unwrap();
    let contents = fill(&mut c, "v", 64);
    let homes: std::collections::BTreeSet<_> =
        (0..64).map(|b| c.locate("v", b).unwrap().node).collect();
    assert!(
        homes.len() > 1,
        "64 distinct blocks must span several nodes"
    );
    for (b, want) in contents.iter().enumerate() {
        assert_eq!(&c.read("v", b as u64).unwrap(), want, "block {b}");
    }
    c.check_integrity().unwrap();
}

#[test]
fn multi_chunk_write_routes_per_chunk() {
    let mut c = cluster(4, false);
    c.create_volume("v", 16).unwrap();
    let data: Vec<u8> = (0..8).flat_map(|i| payload(50 + i)).collect();
    let outcome = c.write("v", 2, &data).unwrap();
    let total: u64 = outcome.runs.iter().map(|r| r.nblocks).sum();
    assert_eq!(total, 8);
    for (i, chunk) in data.chunks(CHUNK).enumerate() {
        assert_eq!(c.read("v", 2 + i as u64).unwrap(), chunk);
    }
    let batch = c.read_batch("v", &[9, 2, 5, 2]).unwrap();
    assert_eq!(batch[1], batch[3]);
    assert_eq!(batch[1], data.chunks(CHUNK).next().unwrap());
    c.check_integrity().unwrap();
}

#[test]
fn cross_node_dedup_counts_exactly_once() {
    let mut c = cluster(3, false);
    c.create_volume("a", 8).unwrap();
    c.create_volume("b", 8).unwrap();
    let shared = payload(7);
    c.write("a", 0, &shared).unwrap();
    c.write("b", 3, &shared).unwrap();
    c.write("a", 5, &shared).unwrap();
    let r = c.report();
    assert_eq!(r.chunks, 3);
    assert_eq!(
        r.unique_chunks, 1,
        "identical bytes stored once cluster-wide"
    );
    assert_eq!(r.dedup_hits, 2);
    assert_eq!(r.live_digests, 1);
    // Content routing puts every copy on the same node, so the node-level
    // counters agree with the cluster-level ones.
    let stored: u64 = r.nodes.iter().map(|(_, n)| n.unique_chunks).sum();
    assert_eq!(stored, 1);
    c.check_integrity().unwrap();
}

#[test]
fn overwrite_with_same_content_is_a_dedup_hit() {
    let mut c = cluster(2, false);
    c.create_volume("v", 4).unwrap();
    let data = payload(3);
    c.write("v", 0, &data).unwrap();
    c.write("v", 0, &data).unwrap();
    let r = c.report();
    assert_eq!((r.unique_chunks, r.dedup_hits), (1, 1));
    assert_eq!(r.live_digests, 1);
    c.check_integrity().unwrap();
}

#[test]
fn join_and_leave_lose_nothing_and_keep_accounting() {
    let mut c = cluster(2, false);
    c.create_volume("v", 48).unwrap();
    let contents = fill(&mut c, "v", 48);
    let before = c.report();
    let (joined, outcome) = c.join().unwrap();
    assert!(!outcome.moves.is_empty(), "a join must win some bins");
    assert!(
        outcome.moves.iter().all(|m| m.to == joined),
        "join migrations flow to the joiner only"
    );
    c.check_integrity().unwrap();
    let after_join = c.report();
    assert_eq!(after_join.chunks, before.chunks);
    assert_eq!(after_join.unique_chunks, before.unique_chunks);
    assert_eq!(after_join.dedup_hits, before.dedup_hits);
    for (b, want) in contents.iter().enumerate() {
        assert_eq!(&c.read("v", b as u64).unwrap(), want, "post-join block {b}");
    }
    let drained = c.leave(0).unwrap();
    assert!(drained.moves.iter().all(|m| m.from == 0));
    assert!(!c.node_ids().contains(&0));
    c.check_integrity().unwrap();
    for (b, want) in contents.iter().enumerate() {
        assert_eq!(
            &c.read("v", b as u64).unwrap(),
            want,
            "post-leave block {b}"
        );
    }
    let after_leave = c.report();
    assert_eq!(after_leave.chunks, before.chunks);
    assert_eq!(after_leave.unique_chunks, before.unique_chunks);
}

#[test]
fn corrupted_handoff_is_detected_and_resent() {
    let mut c = cluster(2, false);
    c.create_volume("v", 32).unwrap();
    let contents = fill(&mut c, "v", 32);
    c.corrupt_next_handoff = true;
    let (_, outcome) = c.join().unwrap();
    assert_eq!(outcome.crc_resends, 1, "destination caught the bad frame");
    for (b, want) in contents.iter().enumerate() {
        assert_eq!(&c.read("v", b as u64).unwrap(), want);
    }
    c.check_integrity().unwrap();
}

#[test]
fn membership_errors_are_typed() {
    let mut c = Cluster::new(ClusterConfig {
        nodes: 1,
        max_nodes: 1,
        node: node_config(false, false),
    });
    assert!(matches!(c.join(), Err(ClusterError::Full { max: 1 })));
    assert!(matches!(c.leave(9), Err(ClusterError::UnknownNode(9))));
    assert!(matches!(c.leave(0), Err(ClusterError::LastNode)));
    c.create_volume("v", 4).unwrap();
    assert!(matches!(
        c.create_volume("v", 4),
        Err(ClusterError::Volume(VolumeError::AlreadyExists(_)))
    ));
    assert!(matches!(
        c.write("v", 0, &[1, 2, 3]),
        Err(ClusterError::Volume(VolumeError::Misaligned { .. }))
    ));
    assert!(matches!(
        c.read("v", 0),
        Err(ClusterError::Volume(VolumeError::Unwritten { .. }))
    ));
    assert!(matches!(
        c.read("v", 9),
        Err(ClusterError::Volume(VolumeError::OutOfRange { .. }))
    ));
    // A range whose end overflows is out of range, refused before routing.
    for (start, blocks) in [(u64::MAX, 1), (u64::MAX - 1, 2)] {
        assert!(matches!(
            c.write("v", start, &payload(1).repeat(blocks)),
            Err(ClusterError::Volume(VolumeError::OutOfRange {
                block: u64::MAX,
                size: 4
            }))
        ));
    }
    // Every malformed request is refused alike by the cluster and by a
    // bare array, with the same error.
    let mut array = VolumeManager::new(node_config(false, false));
    array.create_volume("v", 4).unwrap();
    let long = "n".repeat(VolumeManager::MAX_NAME_BYTES + 1);
    let unknown = || Err(VolumeError::UnknownVolume("nope".to_owned()));
    let table = [
        (Request::Write("nope", 0, payload(1)), unknown()),
        (Request::Read("nope", 0), unknown()),
        (Request::ReadBatch("nope", vec![0]), unknown()),
        (Request::ReadBatch("nope", vec![]), Ok(vec![])),
        (
            Request::Write("v", u64::MAX, payload(1)),
            Err(VolumeError::OutOfRange {
                block: u64::MAX,
                size: 4,
            }),
        ),
        (
            Request::Write("v", 0, vec![1, 2, 3]),
            Err(VolumeError::Misaligned {
                len: 3,
                chunk_bytes: CHUNK,
            }),
        ),
        (
            Request::Read("v", 4),
            Err(VolumeError::OutOfRange { block: 4, size: 4 }),
        ),
        (
            Request::Read("v", 0),
            Err(VolumeError::Unwritten { block: 0 }),
        ),
        (
            Request::Create(&long),
            Err(VolumeError::NameTooLong { len: long.len() }),
        ),
        (
            Request::Create("v"),
            Err(VolumeError::AlreadyExists("v".to_owned())),
        ),
    ];
    for (request, want) in table {
        let what = format!("{request:?}");
        assert_eq!(request.send_to_cluster(&mut c), want, "cluster: {what}");
        assert_eq!(request.send_to_array(&mut array), want, "array: {what}");
    }
    assert_eq!(c.report().chunks, 0);
    assert_eq!(array.report().chunks, 0);
}

/// One volume request, sent alike to a cluster and to a bare array.
#[derive(Debug)]
enum Request<'a> {
    Create(&'a str),
    Write(&'a str, u64, Vec<u8>),
    Read(&'a str, u64),
    ReadBatch(&'a str, Vec<u64>),
}

impl Request<'_> {
    fn send_to_array(&self, array: &mut VolumeManager) -> Result<Vec<Vec<u8>>, VolumeError> {
        match self {
            Request::Create(name) => array.create_volume(name, 4).map(|()| vec![]),
            Request::Write(name, start, data) => array.write(name, *start, data).map(|()| vec![]),
            Request::Read(name, block) => array.read(name, *block).map(|data| vec![data]),
            Request::ReadBatch(name, blocks) => array.read_batch(name, blocks),
        }
    }

    fn send_to_cluster(&self, c: &mut Cluster) -> Result<Vec<Vec<u8>>, VolumeError> {
        let got = match self {
            Request::Create(name) => c.create_volume(name, 4).map(|()| vec![]),
            Request::Write(name, start, data) => c.write(name, *start, data).map(|_| vec![]),
            Request::Read(name, block) => c.read(name, *block).map(|data| vec![data]),
            Request::ReadBatch(name, blocks) => c.read_batch(name, blocks),
        };
        got.map_err(|e| match e {
            ClusterError::Volume(e) => e,
            other => panic!("not a volume error: {other}"),
        })
    }
}

#[test]
fn an_over_long_volume_name_is_refused_on_every_node() {
    let mut c = cluster(3, true);
    let name = "n".repeat(VolumeManager::MAX_NAME_BYTES + 1);
    assert_eq!(
        c.create_volume(&name, 4),
        Err(ClusterError::Volume(VolumeError::NameTooLong {
            len: name.len()
        }))
    );
    for id in c.node_ids() {
        assert!(
            c.node(id).unwrap().vm.volume_names().is_empty(),
            "node {id}"
        );
    }
    assert!(matches!(
        c.write(&name, 0, &payload(1)),
        Err(ClusterError::Volume(VolumeError::UnknownVolume(_)))
    ));
    // A joiner replicates the (empty) volume set, and the cluster goes on.
    c.join().unwrap();
    c.create_volume("v", 4).unwrap();
    c.write("v", 0, &payload(1)).unwrap();
    assert_eq!(c.read("v", 0).unwrap(), payload(1));
    c.check_integrity().unwrap();
}

#[test]
fn node_crash_keeps_acked_blocks_and_drops_unacked_tail() {
    let mut c = cluster(3, true);
    c.create_volume("v", 32).unwrap();
    let contents = fill(&mut c, "v", 32);
    c.flush().unwrap();
    let victim = c.locate("v", 0).unwrap().node;
    // Crash seed 0 draws a cut somewhere inside the horizon; whatever
    // survives must be byte-identical to what was written, and the
    // cluster must stay structurally sound.
    let recovery = c.crash_node(victim, 12345).unwrap();
    assert_eq!(recovery.node, victim);
    c.check_integrity().unwrap();
    for (b, want) in contents.iter().enumerate() {
        match c.read("v", b as u64) {
            Ok(got) => assert_eq!(&got, want, "surviving block {b} must be intact"),
            Err(ClusterError::Volume(VolumeError::Unwritten { .. })) => {
                assert!(
                    recovery
                        .lost
                        .iter()
                        .any(|(n, blk)| n == "v" && *blk == b as u64),
                    "unreadable block {b} must be in the reported lost set"
                );
            }
            Err(e) => panic!("block {b}: unexpected error {e}"),
        }
    }
    // Blocks on other nodes are untouched.
    let elsewhere: Vec<u64> = (0..contents.len() as u64)
        .filter(|&b| matches!(c.locate("v", b), Some(e) if e.node != victim))
        .collect();
    assert!(!elsewhere.is_empty());
    for b in elsewhere {
        assert_eq!(&c.read("v", b).unwrap(), &contents[b as usize]);
    }
}

#[test]
fn crash_at_full_ack_horizon_loses_nothing() {
    let mut c = cluster(2, true);
    c.create_volume("v", 24).unwrap();
    let contents = fill(&mut c, "v", 24);
    // Seed 0: SplitMix64::new(0).next_below(h+1) picks some cut; instead
    // force the no-loss case by crashing a node that acked everything —
    // scan seeds until the cut equals the horizon.
    let victim = c.node_ids()[0];
    let horizon = c.node(victim).unwrap().vm.last_ack();
    let seed = (0..u64::MAX)
        .find(|&s| {
            dr_des::SplitMix64::new(s).next_below(horizon.as_nanos() + 1) == horizon.as_nanos()
        })
        .unwrap();
    let recovery = c.crash_node(victim, seed).unwrap();
    assert_eq!(recovery.cut, horizon);
    assert!(recovery.lost.is_empty(), "cut at horizon keeps everything");
    assert!(recovery.reverted.is_empty());
    for (b, want) in contents.iter().enumerate() {
        assert_eq!(&c.read("v", b as u64).unwrap(), want);
    }
    c.check_integrity().unwrap();
}

#[test]
fn a_crash_reverts_an_overwrite_and_re_homes_the_older_version() {
    // payload(1) homes on node 0 of {0, 1} and on the joiner of
    // {0, 1, 2}; payload(3) homes on node 0 of {0, 1, 2}. So node 0
    // durably holds the old bytes, the join migrates them away, and the
    // overwrite lands back on node 0.
    let (old, new) = (payload(1), payload(3));
    let mut c = cluster(2, true);
    c.create_volume("v", 16).unwrap();
    fill(&mut c, "v", 8);
    let first = c.write("v", 12, &old).unwrap().runs[0].clone();
    assert_eq!(first.node, 0);
    let (joined, _) = c.join().unwrap();
    assert_eq!(c.locate("v", 12).unwrap().node, joined);
    let second = c.write("v", 12, &new).unwrap().runs[0].clone();
    assert_eq!(second.node, 0);
    let horizon = c.node(0).unwrap().vm.last_ack();
    assert_eq!(horizon, second.ack, "the overwrite is node 0's last ack");
    // Cut at the first ack itself, inside [first ack, second ack): a
    // journal sync never starts before the previous one ended, so the
    // overwrite's record cannot be in flight (and torn intact) there.
    let seed = (0..u64::MAX)
        .find(|&s| {
            dr_des::SplitMix64::new(s).next_below(horizon.as_nanos() + 1) == first.ack.as_nanos()
        })
        .unwrap();

    let recovery = c.crash_node(0, seed).unwrap();
    assert!(recovery.lost.is_empty());
    assert_eq!(recovery.reverted, vec![("v".to_owned(), 12)]);
    assert_eq!(c.read("v", 12).unwrap(), old);
    let distinct: std::collections::BTreeSet<_> = (0..16)
        .filter_map(|b| c.locate("v", b))
        .map(|e| e.digest)
        .collect();
    let r = c.report();
    assert_eq!(r.live_digests, distinct.len() as u64);
    c.check_integrity().unwrap();
    // The older digest homes on the joiner, so the revert re-homes it.
    let moves: Vec<_> = recovery
        .rebalance
        .moves
        .iter()
        .map(|m| (m.name.as_str(), m.block, m.from, m.to, m.ack.as_nanos()))
        .collect();
    assert_eq!(moves, [("v", 12, 0, joined, 1_698_000)]);
    let counts = (r.chunks, r.unique_chunks, r.dedup_hits, r.live_digests);
    assert_eq!(counts, (10, 10, 0, 9));
}

#[test]
fn router_metric_names_are_a_contract() {
    let mut c = cluster(3, true);
    c.create_volume("v", 32).unwrap();
    fill(&mut c, "v", 24);
    let (joined, _) = c.join().unwrap();
    c.leave(1).unwrap();
    c.crash_node(joined, 7).unwrap();
    let roll = c.rollup();
    let mut names: Vec<&str> = roll
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| n.starts_with("router."))
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "router.hashing.multibuffer_chunks",
            "router.ingest.dedup_hits",
            "router.ingest.unique",
            "router.membership.crashes",
            "router.membership.joins",
            "router.membership.leaves",
            "router.rebalance.bytes",
            "router.rebalance.crc_resends",
            "router.rebalance.moves",
            "router.rebalance.transfer_sim_ns",
            "router.reconcile.lost",
            "router.reconcile.reverted",
        ]
    );
}

#[test]
fn cluster_keeps_serving_after_crash() {
    let mut c = cluster(3, true);
    c.create_volume("v", 16).unwrap();
    fill(&mut c, "v", 16);
    c.crash_node(1, 77).unwrap();
    let fresh = payload(9999);
    c.write("v", 2, &fresh).unwrap();
    assert_eq!(c.read("v", 2).unwrap(), fresh);
    c.check_integrity().unwrap();
}

#[test]
fn rollup_namespaces_nodes_and_aggregates() {
    let mut c = cluster(2, false);
    c.create_volume("v", 16).unwrap();
    fill(&mut c, "v", 16);
    c.join().unwrap();
    let roll = c.rollup();
    assert_eq!(roll.name, "cluster");
    let names: Vec<&str> = roll.counters.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.iter().any(|n| n.starts_with("node0.")));
    assert!(
        names.iter().any(|n| n.starts_with("node2.")),
        "joiner present"
    );
    assert!(names.contains(&"cluster.destage.appends"));
    assert!(names.contains(&"router.rebalance.moves"));
    assert!(names.contains(&"cluster.rebalance.moves"));
    let get = |k: &str| {
        roll.counters
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let per_node: u64 = c
        .node_ids()
        .iter()
        .map(|id| get(&format!("node{id}.destage.appends")))
        .sum();
    assert_eq!(get("cluster.destage.appends"), per_node);
    assert!(get("router.rebalance.transfer_sim_ns") > 0);
}

#[test]
fn a_client_write_is_fingerprinted_once_at_the_router() {
    let mut c = cluster(4, true);
    c.create_volume("v", 64).unwrap();
    let writes = 48u64;
    for b in 0..writes {
        // Fresh blocks, repeats and overwrites alike.
        c.write("v", b % 40, &payload(b % 29)).unwrap();
    }
    let roll = c.rollup();
    let hashing = |registry: &str| {
        let name = format!("{registry}.hashing.wall_ns");
        let found = roll.histograms.iter().find(|(n, _)| *n == name);
        found.map_or(0, |(_, h)| h.count)
    };
    for id in c.node_ids() {
        assert_eq!(hashing(&format!("node{id}")), 0, "node {id} hashed again");
    }
    assert_eq!(hashing("router"), writes);
    assert_eq!(hashing("cluster"), writes, "the roll-up's one hashing pass");
    // The simulated hash cost is still charged where the chunk lands.
    let sim = roll
        .histograms
        .iter()
        .find(|(n, _)| n == "cluster.hashing.sim_ns");
    assert_eq!(sim.expect("nodes charge the hash").1.count, writes);
    c.check_integrity().unwrap();
}

#[test]
fn the_router_counts_the_chunks_it_hashed_in_lanes() {
    // The lane rule as the pipeline's own counter test states it: runs of
    // three or more whole-block chunks take lanes where `dr_hashes::simd`
    // finds both AVX-512 arms (nowhere under DR_SIMD=scalar) — here all 5
    // of the first write and all 16 of the second.
    let arms = (
        dr_hashes::simd::sha1_mb_avx512(),
        dr_hashes::simd::sha1_mb8_avx512vl(),
    );
    let mut c = cluster(3, false);
    c.create_volume("v", 32).unwrap();
    for (start, blocks) in [(0u64, 5u64), (8, 16)] {
        let data: Vec<u8> = (start..start + blocks).flat_map(payload).collect();
        c.write("v", start, &data).unwrap();
    }
    let roll = c.rollup();
    let counter = |name: &str| {
        let found = roll.counters.iter().find(|(n, _)| n == name);
        found.expect("counter interned at construction").1
    };
    let lanes = counter("router.hashing.multibuffer_chunks");
    match arms {
        (true, true) => assert_eq!(lanes, 21),
        (false, false) => assert_eq!(lanes, 0),
        // One arm only: `dr_hashes::sha1_mb`'s tests model that host.
        _ => {}
    }
    assert_eq!(counter("cluster.hashing.multibuffer_chunks"), lanes);
    for id in c.node_ids() {
        let node = format!("node{id}.hashing.multibuffer_chunks");
        assert_eq!(counter(&node), 0, "node {id} hashed again");
    }
}

#[test]
fn single_node_cluster_is_bit_identical_to_bare_array() {
    for mode in [
        IntegrationMode::CpuOnly,
        IntegrationMode::GpuForDedup,
        IntegrationMode::GpuForCompression,
        IntegrationMode::GpuForBoth,
    ] {
        let config = PipelineConfig {
            mode,
            pool_workers: 1,
            obs: ObsHandle::disabled(),
            ..PipelineConfig::default()
        };
        let mut bare = VolumeManager::new(config.clone());
        let mut c = Cluster::new(ClusterConfig {
            nodes: 1,
            node: config,
            ..ClusterConfig::default()
        });
        bare.create_volume("v", 32).unwrap();
        c.create_volume("v", 32).unwrap();
        for b in 0..16u64 {
            let data = payload(b % 5);
            bare.write("v", b, &data).unwrap();
            c.write("v", b, &data).unwrap();
        }
        let multi: Vec<u8> = (0..4).flat_map(|i| payload(100 + i)).collect();
        bare.write("v", 20, &multi).unwrap();
        c.write("v", 20, &multi).unwrap();
        for b in [0u64, 5, 20, 23] {
            assert_eq!(bare.read("v", b).unwrap(), c.read("v", b).unwrap());
        }
        assert_eq!(
            bare.read_batch("v", &[1, 2, 3, 20]).unwrap(),
            c.read_batch("v", &[1, 2, 3, 20]).unwrap()
        );
        let br = bare.report().clone();
        let cr = &c.report().nodes[0].1;
        assert_eq!(
            &br, cr,
            "{mode:?}: single-node cluster must equal bare array"
        );
    }
}

#[test]
fn placed_run_acks_strictly_increase_per_node() {
    // Journaled nodes group-commit each node write: one sync per run, its
    // grant end the run's ack. Unique and duplicate single-block writes
    // and multi-block writes split across nodes must all ack strictly
    // later than the node's previous run.
    let mut c = cluster(3, true);
    c.create_volume("v", 64).unwrap();
    let mut last = std::collections::BTreeMap::new();
    let mut runs = 0;
    let writes = (0..24u64)
        .map(|b| (b, payload(b % 6)))
        .chain((0..4u64).map(|k| (32 + 8 * k, (0..8).flat_map(|s| payload(k + s)).collect())));
    for (block, data) in writes {
        for run in c.write("v", block, &data).unwrap().runs {
            if let Some(prev) = last.insert(run.node, run.ack) {
                assert!(
                    run.ack > prev,
                    "node {} acked {:?} after {prev:?}",
                    run.node,
                    run.ack
                );
            }
            runs += 1;
        }
    }
    assert_eq!(last.len(), 3, "every node took writes");
    assert!(runs > 28, "multi-block writes split into several runs");
}

/// Every node checks its own books, so they hold with observability off —
/// the default — through writes that outlive their device retries, a
/// join, a leave and a node crash. The same run with observability on
/// shows, in the nodes' counters, that a drain did outlive its retries.
#[test]
fn every_node_keeps_its_books_with_observability_off() {
    books_through_faults_and_membership(ObsHandle::disabled());
    let latched = books_through_faults_and_membership(ObsHandle::enabled("books"));
    assert!(latched > 0, "a drain outlived its retries");
}

/// Drives a journaled cluster recording into `obs` through faulted
/// writes, a join, a leave, a node crash and writes after it, checking
/// every node's books at each step; returns the SSD latch openings the
/// nodes counted during the faulted writes.
fn books_through_faults_and_membership(obs: ObsHandle) -> u64 {
    let mut c = Cluster::new(ClusterConfig {
        node: PipelineConfig {
            journal_pages: 1024,
            obs,
            ..PipelineConfig::default()
        },
        ..ClusterConfig::default()
    });
    let check = |c: &Cluster, step: &str| {
        c.check_integrity()
            .unwrap_or_else(|e| panic!("after {step}: {e}"));
    };
    c.create_volume("v", 160).unwrap();
    fill(&mut c, "v", 16);
    check(&c, "clean writes");
    let set_faults = |c: &mut Cluster, write_error_rate| {
        for id in c.node_ids() {
            let pipeline = c.node_mut(id).unwrap().vm.pipeline_mut();
            pipeline.set_ssd_faults(SsdFaultSpec {
                write_error_rate,
                seed: u64::from(id) + 30,
                ..SsdFaultSpec::default()
            });
        }
    };
    set_faults(&mut c, 0.6);
    for b in 16..112 {
        c.write("v", b, &payload(2000 + b)).unwrap();
        check(&c, "a faulted write");
    }
    let latched = c.node_ids().into_iter().map(|id| {
        let obs = &c.node(id).unwrap().obs;
        obs.counter("fault.ssd_write.degraded_transitions").get()
    });
    let latched = latched.sum();
    set_faults(&mut c, 0.0);
    let (joined, _) = c.join().unwrap();
    check(&c, "the join");
    c.leave(joined - 1).unwrap();
    check(&c, "the leave");
    c.crash_node(joined, 3).unwrap();
    check(&c, "the node crash");
    for b in 112..128 {
        c.write("v", b, &payload(3000 + b)).unwrap();
        check(&c, "a write after the crash");
    }
    latched
}
