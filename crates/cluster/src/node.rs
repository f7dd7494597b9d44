//! One cluster node: a full single-node reduction stack plus the node's
//! obs registry and crash-conservation anchors.

use dr_obs::{CounterHandle, ObsHandle, Snapshot};
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
    /// The node pipeline's `destage.appends` counter.
    appends: CounterHandle,
    /// `unique_chunks` at the node's last recovery; destage conservation
    /// is checked on deltas since this anchor because the physical log
    /// retains pre-crash appends while the recovered report restarts.
    pub unique_base: u64,
    /// `destage.appends` at the node's last recovery.
    pub appends_base: u64,
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
            appends: obs.counter("destage.appends"),
            obs,
            unique_base: 0,
            appends_base: 0,
        }
    }

    /// The node's current metric snapshot (empty when obs is disabled).
    pub fn snapshot(&self) -> Snapshot {
        self.obs.snapshot().unwrap_or_default()
    }

    /// Re-anchors the conservation baselines after a recovery.
    pub fn reanchor(&mut self) {
        self.unique_base = self.vm.report().unique_chunks;
        self.appends_base = self.appends.get();
    }

    /// Destage conservation since the last recovery: every unique chunk
    /// the node admitted became exactly one destage-log append. Vacuously
    /// true when obs is disabled (no counter to compare).
    pub fn destage_conserved(&self) -> bool {
        if !self.obs.is_enabled() {
            return true;
        }
        let unique = self.vm.report().unique_chunks - self.unique_base;
        let appends = self.appends.get() - self.appends_base;
        unique == appends
    }
}
