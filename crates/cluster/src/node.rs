//! One cluster node: a full single-node reduction stack plus the node's
//! obs registry.

use dr_obs::{ObsHandle, Snapshot};
use dr_reduction::{PipelineConfig, VolumeManager};

use crate::ring::NodeId;

/// A storage node owning a complete single-node stack — its own
/// [`Pipeline`](dr_reduction::Pipeline) (and with it the node's dr-pool
/// workers, SSD sim, GPU sim, and journal), wrapped by a
/// [`VolumeManager`] carrying the node-local slice of every cluster
/// volume.
#[derive(Debug)]
pub struct Node {
    /// Cluster-assigned id; never reused.
    pub id: NodeId,
    /// The node's array: local block maps over its private pipeline.
    pub vm: VolumeManager,
    /// The node's metric registry, named `node{id}`.
    pub obs: ObsHandle,
}

impl Node {
    /// Builds the node from the cluster's template config, swapping in a
    /// per-node obs registry named `node{id}`.
    pub fn new(id: NodeId, template: &PipelineConfig) -> Self {
        let obs = if template.obs.is_enabled() {
            ObsHandle::enabled(format!("node{id}"))
        } else {
            ObsHandle::disabled()
        };
        let config = PipelineConfig {
            obs: obs.clone(),
            ..template.clone()
        };
        Node {
            id,
            vm: VolumeManager::new(config),
            obs,
        }
    }

    /// The node's current metric snapshot (empty when obs is disabled).
    pub fn snapshot(&self) -> Snapshot {
        self.obs.snapshot().unwrap_or_default()
    }
}
