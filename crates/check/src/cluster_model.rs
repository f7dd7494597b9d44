//! What a cluster adds to the oracle: a membership mirror and per-node
//! durable version histories.
//!
//! The byte/size/validation model is the one [`Oracle`] — the cluster
//! serves the same volume contract as a bare array, whatever the node
//! count underneath — so [`ClusterModel`] owns an `Oracle` and keeps only
//! the two things a cluster adds on top of it:
//!
//! 1. **Membership**: a sorted member list and a never-reused next-id
//!    counter, mirrored against [`Cluster::node_ids`](dr_cluster::Cluster)
//!    after every membership op.
//! 2. **Crash envelopes**: for every block, its current home and the
//!    versions that were ever written *through each node*, with their
//!    acknowledgement instants.
//!    When node X power-cuts at `cut`, the block's fate is bounded by its
//!    history on X: the latest version acked at or before `cut` **must**
//!    survive (so the block may only be `lost` when nothing was acked),
//!    and a `reverted` block must come back as some version at or after
//!    that latest-acked index — the journal keeps a record *prefix*, so
//!    recovery can overshoot acked work but never undershoot it, and can
//!    never fabricate bytes that were not durably written through X.
//!
//! Histories are per `(block, node)` and append-only across placement
//! changes, because migration does not erase the source node's journal
//! records: a block that lived on X years ago, moved away, and moved
//! back can legitimately revert to the *ancient* X version when X's cut
//! lands before the re-placement record.

use std::collections::BTreeMap;

use dr_des::SimTime;

use crate::model::Oracle;

/// A cluster node id, as the model tracks it (mirrors
/// [`dr_cluster::NodeId`]).
pub type NodeId = u32;

/// One durable-candidate version of a block on one node.
#[derive(Debug, Clone)]
pub struct Version {
    /// The block's bytes at this version.
    pub data: Vec<u8>,
    /// When the node acknowledged the write (journal grant end).
    pub ack: SimTime,
}

/// Per-block placement state: current home and the per-node version
/// histories that bound crash outcomes. The block's current bytes live in
/// the [`Oracle`].
#[derive(Debug, Clone, Default)]
struct Placement {
    /// Node the placement map points at (`None` after a loss).
    home: Option<NodeId>,
    /// Versions ever written through each node, in write order.
    history: BTreeMap<NodeId, Vec<Version>>,
}

/// What the model says may happen to one block when its home node
/// power-cuts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashFate {
    /// The latest version was acked before the cut: the block must
    /// survive with exactly its current bytes.
    MustSurvive,
    /// Older acked versions exist: the block must survive, but may
    /// revert to any version from the latest-acked one onward.
    MayRevert {
        /// First allowed index into the node's version history.
        from_index: usize,
    },
    /// Nothing was acked through this node: the block may be lost
    /// entirely (or survive as any durable version, prefix rules
    /// permitting).
    MayBeLost,
}

/// The reference cluster: the logical bytes ([`Oracle`]) plus membership
/// and crash envelopes.
#[derive(Debug)]
pub struct ClusterModel {
    /// Logical volume contents — sizes, bytes and validation.
    pub oracle: Oracle,
    max_nodes: usize,
    /// Sorted live member ids.
    members: Vec<NodeId>,
    /// Next id a joiner receives; never reused.
    next_node: NodeId,
    /// Volume → block → placement, for every block ever placed.
    placed: BTreeMap<String, BTreeMap<u64, Placement>>,
    /// Chunks ingested through the front-end (conservation mirror for
    /// [`ClusterReport::chunks`](dr_cluster::ClusterReport)).
    pub chunks: u64,
}

impl ClusterModel {
    /// A fresh model matching a cluster built with `nodes` initial
    /// members (ids `0..nodes`) and a `max_nodes` join cap.
    pub fn new(chunk_bytes: usize, nodes: usize, max_nodes: usize) -> Self {
        ClusterModel {
            oracle: Oracle::new(chunk_bytes),
            max_nodes,
            members: (0..nodes as NodeId).collect(),
            next_node: nodes as NodeId,
            placed: BTreeMap::new(),
            chunks: 0,
        }
    }

    /// Live members, sorted ascending.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Resolves a generated member *selector* to a live id
    /// (`members[sel % len]`) — the same resolution the runner applies to
    /// the system, so both sides always target the same node.
    pub fn resolve_member(&self, selector: u8) -> NodeId {
        self.members[selector as usize % self.members.len()]
    }

    /// Mirrors a join. Returns the id the cluster must have assigned, or
    /// `None` when the cluster is full (the system must error).
    pub fn join(&mut self) -> Option<NodeId> {
        if self.members.len() >= self.max_nodes {
            return None;
        }
        let id = self.next_node;
        self.next_node += 1;
        self.members.push(id);
        self.members.sort_unstable();
        Some(id)
    }

    /// Mirrors a leave. Returns `false` when `id` is the last member
    /// (the system must refuse).
    pub fn leave(&mut self, id: NodeId) -> bool {
        if self.members.len() == 1 {
            return false;
        }
        self.members.retain(|&n| n != id);
        true
    }

    fn placement(&self, name: &str, block: u64) -> Option<&Placement> {
        self.placed.get(name)?.get(&block)
    }

    /// Places the block's current oracle bytes on `node` — a front-end
    /// write or a migration, which re-writes the bytes through the
    /// destination (fresh journal record, fresh ack): the placement flips
    /// and the bytes become a version in `node`'s history. The blocks of
    /// one write run share the run's `ack` exactly, not approximately: one
    /// journal record covers the run, so its blocks live or die together.
    pub fn place(&mut self, name: &str, block: u64, node: NodeId, ack: SimTime) {
        let data = self
            .oracle
            .read(name, block)
            .expect("placing a written block")
            .to_vec();
        if !self.placed.contains_key(name) {
            self.placed.insert(name.to_owned(), BTreeMap::new());
        }
        let volume = self.placed.get_mut(name).expect("just ensured");
        let placement = volume.entry(block).or_default();
        placement.home = Some(node);
        placement
            .history
            .entry(node)
            .or_default()
            .push(Version { data, ack });
    }

    /// Current home of a written block.
    pub fn home(&self, name: &str, block: u64) -> Option<NodeId> {
        self.placement(name, block).and_then(|p| p.home)
    }

    /// Blocks currently homed on `node`, in (name, block) order.
    pub fn blocks_on(&self, node: NodeId) -> Vec<(String, u64)> {
        self.placed
            .iter()
            .flat_map(|(name, volume)| volume.iter().map(move |(block, p)| (name, *block, p)))
            .filter(|(_, _, p)| p.home == Some(node))
            .map(|(name, block, _)| (name.clone(), block))
            .collect()
    }

    /// What may happen to `(name, block)` when its home `node` cuts
    /// power at `cut` — the crash envelope derived from the block's
    /// version history on that node.
    pub fn crash_fate(&self, name: &str, block: u64, node: NodeId, cut: SimTime) -> CrashFate {
        let versions = self.versions_on(name, block, node);
        let latest_acked = versions.iter().rposition(|v| v.ack <= cut);
        match latest_acked {
            None => CrashFate::MayBeLost,
            Some(i) if i + 1 == versions.len() => CrashFate::MustSurvive,
            Some(i) => CrashFate::MayRevert { from_index: i },
        }
    }

    /// The versions `(name, block)` ever wrote through `node`.
    pub fn versions_on(&self, name: &str, block: u64, node: NodeId) -> &[Version] {
        self.placement(name, block)
            .and_then(|p| p.history.get(&node))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn placement_mut(&mut self, name: &str, block: u64) -> &mut Placement {
        self.placed
            .get_mut(name)
            .and_then(|volume| volume.get_mut(&block))
            .expect("reconciling a placed block")
    }

    /// Applies a validated loss: the block becomes unwritten and `node`'s
    /// journal no longer holds any record of it (every version was torn).
    pub fn apply_loss(&mut self, name: &str, block: u64, node: NodeId) {
        self.oracle.forget(name, block);
        let placement = self.placement_mut(name, block);
        placement.home = None;
        placement.history.remove(&node);
    }

    /// Applies a validated revert: the block's bytes roll back to
    /// `node`'s version at `index`, and the history truncates there —
    /// recovery rebuilt the journal from the surviving prefix, so later
    /// records are gone for good.
    pub fn apply_revert(&mut self, name: &str, block: u64, node: NodeId, index: usize) {
        let placement = self.placement_mut(name, block);
        let versions = placement
            .history
            .get_mut(&node)
            .expect("revert needs history");
        versions.truncate(index + 1);
        let data = versions[index].data.clone();
        self.oracle
            .write(name, block, &data)
            .expect("a reverted block is in range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelError;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn membership_mirror_assigns_fresh_ids_and_caps() {
        let mut m = ClusterModel::new(4, 2, 3);
        assert_eq!(m.members(), &[0, 1]);
        assert_eq!(m.join(), Some(2));
        assert_eq!(m.join(), None, "at the cap");
        assert!(m.leave(1));
        assert_eq!(m.members(), &[0, 2]);
        assert_eq!(m.join(), Some(3), "ids are never reused");
        assert_eq!(m.resolve_member(7), m.members()[7 % 3]);
    }

    #[test]
    fn crash_fates_follow_the_ack_horizon() {
        let mut m = ClusterModel::new(4, 2, 4);
        m.oracle.create_volume("v", 8).unwrap();
        m.oracle.write("v", 0, &[1u8; 4]).unwrap();
        m.place("v", 0, 0, t(100));
        m.oracle.write("v", 0, &[2u8; 4]).unwrap();
        m.place("v", 0, 0, t(200));
        // Cut after both acks: the latest version is pinned.
        assert_eq!(m.crash_fate("v", 0, 0, t(200)), CrashFate::MustSurvive);
        // Cut between the acks: may revert to version 0, not below.
        assert_eq!(
            m.crash_fate("v", 0, 0, t(150)),
            CrashFate::MayRevert { from_index: 0 }
        );
        // Cut before everything: the block may vanish.
        assert_eq!(m.crash_fate("v", 0, 0, t(50)), CrashFate::MayBeLost);
        // A node the block never touched has no durable claim on it.
        assert_eq!(m.crash_fate("v", 0, 1, t(500)), CrashFate::MayBeLost);
    }

    #[test]
    fn histories_survive_placement_changes() {
        // v1 through node 0, then the block moves to node 1, then back:
        // node 0's history must keep both residencies' versions.
        let mut m = ClusterModel::new(4, 2, 4);
        m.oracle.create_volume("v", 8).unwrap();
        m.oracle.write("v", 3, &[1u8; 4]).unwrap();
        m.place("v", 3, 0, t(10));
        m.place("v", 3, 1, t(20));
        assert_eq!(m.home("v", 3), Some(1));
        m.place("v", 3, 0, t(30));
        assert_eq!(m.versions_on("v", 3, 0).len(), 2);
        // Cut at t=15: the re-placement record is torn but the original
        // write survives — a revert to index 0 is legal.
        assert_eq!(
            m.crash_fate("v", 3, 0, t(15)),
            CrashFate::MayRevert { from_index: 0 }
        );
    }

    #[test]
    fn loss_and_revert_update_bytes_and_histories() {
        let mut m = ClusterModel::new(4, 2, 4);
        m.oracle.create_volume("v", 8).unwrap();
        m.oracle.write("v", 0, &[1u8; 4]).unwrap();
        m.place("v", 0, 0, t(10));
        m.oracle.write("v", 0, &[2u8; 4]).unwrap();
        m.place("v", 0, 0, t(20));
        m.apply_revert("v", 0, 0, 0);
        assert_eq!(m.oracle.read("v", 0).unwrap(), &[1u8; 4]);
        assert_eq!(m.versions_on("v", 0, 0).len(), 1);
        m.apply_loss("v", 0, 0);
        assert_eq!(m.oracle.read("v", 0), Err(ModelError::Unwritten));
        assert!(m.versions_on("v", 0, 0).is_empty());
        assert_eq!(m.oracle.written_blocks().count(), 0);
        assert!(m.blocks_on(0).is_empty());
    }
}
