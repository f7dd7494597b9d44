//! A sharded multi-node reduction cluster over the simulated single-node
//! stacks.
//!
//! ROADMAP item 1 taken to its conclusion: the paper's bin-partitioned
//! dedup index is already a DHT in miniature, so this crate fronts N
//! complete single-node pipelines (each with its own dr-pool, SSD sim,
//! GPU sim, and journal) with a rendezvous-hash router from bin ids to
//! nodes. Chunks route by *content* — digest prefix picks the bin, the
//! ring picks the node — which makes per-node deduplication cluster-wide
//! by construction, with one refcounted digest directory, derived from
//! the placement map, counting every stored chunk exactly once.
//!
//! The pieces:
//!
//! - [`Ring`]: rendezvous (highest-random-weight) bin→node routing,
//!   near-uniform and provably minimal-movement under membership change.
//! - [`Node`]: one cluster member wrapping a
//!   [`VolumeManager`](dr_reduction::VolumeManager) and its obs registry.
//! - [`Cluster`]: the front-end — volume namespace, placement map,
//!   join/leave with CRC-validated migration, per-node power-cut
//!   recovery with placement reconciliation, cluster-wide accounting,
//!   and the merged obs rollup.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod node;
pub mod ring;

pub use cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterReport, MapEntry, MovedBlock, NodeRecovery,
    PlacedRun, RebalanceOutcome, WriteOutcome,
};
pub use node::Node;
pub use ring::{NodeId, Ring};
