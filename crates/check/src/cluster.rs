//! The multi-node [`Cluster`] as a system under test.
//!
//! One logical volume namespace, whatever the node count underneath: the
//! harness's byte identity and error mirroring hold across any routing
//! history (joins, leaves, crashes, migrations). On top of them a cluster
//! adds, against the [`ClusterModel`]:
//!
//! 1. **Membership mirror** — the cluster's member list and id
//!    assignment match the model after every op, and the membership
//!    errors (last-node leave, full-cluster join) mirror too.
//! 2. **Rebalance custody** — every reported migration starts from the
//!    block's modeled home and lands on a live member; after a leave the
//!    departed node holds nothing.
//! 3. **Crash envelopes** — a power-cut node may only lose blocks that
//!    had nothing acknowledged and may only revert a block to bytes it
//!    durably wrote, never below the latest acknowledged version.
//! 4. **Structural integrity** — [`Cluster::check_integrity`] (placement
//!    map ↔ ring ↔ refcount directory ↔ node indexes ↔ each node's own
//!    conservation check) and chunk conservation against the model,
//!    after every op.
//!
//! Its own ops are `NodeJoin`, `NodeLeave` and `NodeCrash`. They are rare
//! and violent, so each one asks the harness for a full read-back sweep —
//! rebalancing bugs that a later random read might miss surface
//! immediately, pinned to the op that caused them.

use dr_cluster::{Cluster, ClusterConfig, ClusterError, PlacedRun, RebalanceOutcome};
use dr_obs::ObsHandle;
use dr_reduction::{IntegrationMode, PipelineConfig};

use crate::cluster_model::{ClusterModel, CrashFate};
use crate::harness::{fail, node_config, volume_kind, Failure, Sut, CHUNK_BYTES};
use crate::model::{ModelError, Oracle};
use crate::ops::Op;

/// Initial member count for checker clusters. Two nodes, not one: the
/// routing and migration machinery must both be live from op zero.
const CLUSTER_NODES: usize = 2;

/// Join cap for checker clusters — small enough that generated
/// sequences actually hit the full-cluster error path.
const CLUSTER_MAX_NODES: usize = 5;

pub(crate) struct ClusterSut {
    system: Cluster,
    model: ClusterModel,
}

impl ClusterSut {
    pub(crate) fn new(mode: IntegrationMode) -> Self {
        let config = ClusterConfig {
            nodes: CLUSTER_NODES,
            max_nodes: CLUSTER_MAX_NODES,
            node: PipelineConfig {
                // One worker per node: N nodes already multiply the
                // simulated stacks, and checker throughput comes from
                // sequence count, not per-node parallel grind.
                pool_workers: 1,
                // Always journaled — node power cuts are in the alphabet
                // and recovery without a journal is a panic by design.
                ..node_config(mode, true, ObsHandle::enabled("dr-check"))
            },
        };
        ClusterSut {
            system: Cluster::new(config),
            model: ClusterModel::new(CHUNK_BYTES, CLUSTER_NODES, CLUSTER_MAX_NODES),
        }
    }

    /// Mirrors a reported migration list into the model, verifying each
    /// move's custody chain first.
    fn apply_moves(&mut self, idx: usize, reb: &RebalanceOutcome) -> Result<(), Failure> {
        for m in &reb.moves {
            let home = self.model.home(&m.name, m.block);
            if home != Some(m.from) {
                return Err(fail(
                    idx,
                    "rebalance-mirror",
                    format!(
                        "move of {}/{} claims source node {} but the model places \
                         it on {home:?}",
                        m.name, m.block, m.from
                    ),
                ));
            }
            if !self.model.members().contains(&m.to) {
                return Err(fail(
                    idx,
                    "rebalance-mirror",
                    format!(
                        "move of {}/{} targets node {}, which is not a member",
                        m.name, m.block, m.to
                    ),
                ));
            }
            self.model.place(&m.name, m.block, m.to, m.ack);
        }
        Ok(())
    }

    fn check_membership(&self, idx: usize) -> Result<(), Failure> {
        let got = self.system.node_ids();
        if got != self.model.members() {
            return Err(fail(
                idx,
                "membership-mirror",
                format!(
                    "cluster members {got:?} != model members {:?}",
                    self.model.members()
                ),
            ));
        }
        Ok(())
    }

    /// `Ok(true)` when a node joined, `Ok(false)` when both sides refused.
    fn check_join(&mut self, idx: usize) -> Result<bool, Failure> {
        match self.model.join() {
            None => match self.system.join() {
                Err(ClusterError::Full { .. }) => Ok(false),
                other => Err(fail(
                    idx,
                    "membership-mirror",
                    format!(
                        "join at the {CLUSTER_MAX_NODES}-node cap: system {:?}, model refuses",
                        other.map(|(id, _)| id)
                    ),
                )),
            },
            Some(expect) => match self.system.join() {
                Ok((id, reb)) => {
                    if id != expect {
                        return Err(fail(
                            idx,
                            "membership-mirror",
                            format!("join assigned id {id}, model expected {expect}"),
                        ));
                    }
                    self.apply_moves(idx, &reb)?;
                    self.check_membership(idx)?;
                    Ok(true)
                }
                Err(e) => Err(fail(idx, "membership-mirror", format!("join failed: {e}"))),
            },
        }
    }

    /// `Ok(true)` when the node left, `Ok(false)` when both sides refused.
    fn check_leave(&mut self, idx: usize, selector: u8) -> Result<bool, Failure> {
        let id = self.model.resolve_member(selector);
        if !self.model.leave(id) {
            return match self.system.leave(id) {
                Err(ClusterError::LastNode) => Ok(false),
                other => Err(fail(
                    idx,
                    "membership-mirror",
                    format!(
                        "leave of last node {id}: system {:?}, model refuses",
                        other.map(|moves| moves.moves.len())
                    ),
                )),
            };
        }
        match self.system.leave(id) {
            Ok(reb) => {
                self.apply_moves(idx, &reb)?;
                let stranded = self.model.blocks_on(id);
                if !stranded.is_empty() {
                    return Err(fail(
                        idx,
                        "rebalance-mirror",
                        format!(
                            "node {id} left but the model still places {} block(s) \
                             on it (first: {:?})",
                            stranded.len(),
                            stranded[0]
                        ),
                    ));
                }
                self.check_membership(idx)?;
                Ok(true)
            }
            Err(e) => Err(fail(
                idx,
                "membership-mirror",
                format!("leave of node {id} failed: {e}"),
            )),
        }
    }

    fn check_node_crash(&mut self, idx: usize, selector: u8, seed: u64) -> Result<(), Failure> {
        let id = self.model.resolve_member(selector);
        let recovery = self
            .system
            .crash_node(id, seed)
            .map_err(|e| fail(idx, "recovery", format!("node {id} recovery failed: {e}")))?;
        let on_node = self.model.blocks_on(id);
        // Reconciliation may only touch blocks homed on the crashed node,
        // and each fate must fit the model's crash envelope.
        for (name, block) in recovery.lost.iter().chain(&recovery.reverted) {
            if !on_node.contains(&(name.clone(), *block)) {
                return Err(fail(
                    idx,
                    "durability",
                    format!(
                        "node {id} crash reconciled {name}/{block}, which the model \
                         does not place on it"
                    ),
                ));
            }
        }
        for (name, block) in &on_node {
            let fate = self.model.crash_fate(name, *block, id, recovery.cut);
            let is_lost = recovery.lost.contains(&(name.clone(), *block));
            let is_reverted = recovery.reverted.contains(&(name.clone(), *block));
            let violated = match fate {
                CrashFate::MustSurvive => is_lost || is_reverted,
                CrashFate::MayRevert { .. } => is_lost,
                CrashFate::MayBeLost => false,
            };
            if violated {
                return Err(fail(
                    idx,
                    "durability",
                    format!(
                        "{name}/{block} is {fate:?} for a cut at {:?} (from what was \
                         acknowledged before it) but node {id} {} it",
                        recovery.cut,
                        if is_lost { "lost" } else { "reverted" }
                    ),
                ));
            }
        }
        for (name, block) in &recovery.lost {
            self.model.apply_loss(name, *block, id);
        }
        // Every reverted block must have come back as bytes the node
        // durably wrote, at or after the latest acknowledged version.
        for (name, block) in &recovery.reverted {
            let bytes = self.system.read(name, *block).map_err(|e| {
                fail(
                    idx,
                    "durability",
                    format!("reverted block {name}/{block} is unreadable: {e}"),
                )
            })?;
            let from = match self.model.crash_fate(name, *block, id, recovery.cut) {
                CrashFate::MayRevert { from_index } => from_index,
                // MustSurvive reverts were rejected above; an unacked
                // block may revert to any durable version.
                _ => 0,
            };
            let versions = self.model.versions_on(name, *block, id);
            let index = (from..versions.len())
                .rev()
                .find(|&i| versions[i].data == bytes);
            match index {
                Some(i) => self.model.apply_revert(name, *block, id, i),
                None => {
                    return Err(fail(
                        idx,
                        "durability",
                        format!(
                            "{name}/{block} reverted to {} bytes that match none of \
                             the {} durable version(s) node {id} holds at or above \
                             the acked horizon",
                            bytes.len(),
                            versions.len() - from
                        ),
                    ))
                }
            }
        }
        // Reverted digests may re-home; mirror the recovery's own
        // rebalance pass — membership itself is unchanged.
        self.apply_moves(idx, &recovery.rebalance)?;
        self.check_membership(idx)
    }
}

impl Sut for ClusterSut {
    type Error = ClusterError;

    fn oracle(&mut self) -> &mut Oracle {
        &mut self.model.oracle
    }

    fn create_volume(&mut self, name: &str, blocks: u64) -> Result<(), ClusterError> {
        self.system.create_volume(name, blocks)
    }

    fn write(
        &mut self,
        name: &str,
        block: u64,
        data: &[u8],
    ) -> Result<Vec<PlacedRun>, ClusterError> {
        self.system.write(name, block, data).map(|o| o.runs)
    }

    fn read(&mut self, name: &str, block: u64) -> Result<Vec<u8>, ClusterError> {
        self.system.read(name, block)
    }

    fn read_batch(&mut self, name: &str, blocks: &[u64]) -> Result<Vec<Vec<u8>>, ClusterError> {
        self.system.read_batch(name, blocks)
    }

    fn flush(&mut self) -> Result<(), String> {
        self.system
            .flush()
            .map_err(|e| format!("cluster flush failed: {e}"))
    }

    /// Device failures and handoff faults are kinds the model never
    /// predicts.
    fn kind_of(e: &ClusterError) -> Option<ModelError> {
        match e {
            ClusterError::Volume(v) => volume_kind(v),
            _ => None,
        }
    }

    /// No fault schedule is ever armed on a checker cluster, so a device
    /// error of any kind is a finding, not something to re-issue.
    fn is_transient(_: &ClusterError) -> bool {
        false
    }

    /// Feeds the system's reported placement (runs and their acks) into
    /// the model's histories.
    fn acked_write(&mut self, name: &str, _block: u64, data: &[u8], runs: &[PlacedRun]) {
        self.model.chunks += (data.len() / CHUNK_BYTES) as u64;
        for run in runs {
            for block in run.start_block..run.start_block + run.nblocks {
                self.model.place(name, block, run.node, run.ack);
            }
        }
    }

    /// A membership event that went through asks for the sweep; a
    /// mirrored refusal changed nothing.
    fn apply_other(&mut self, idx: usize, op: &Op) -> Result<bool, Failure> {
        match op {
            Op::NodeJoin => self.check_join(idx),
            Op::NodeLeave { node } => self.check_leave(idx, *node),
            Op::NodeCrash { node, seed } => self.check_node_crash(idx, *node, *seed).map(|()| true),
            // Shrunk or hand-written sequences may carry single-node ops
            // (fault toggles, snapshot-restore, whole-array crash); the
            // cluster front-end has no surface for them.
            _ => Ok(false),
        }
    }

    /// Invariant 4, and the membership mirror again.
    fn after_op(&mut self, idx: usize) -> Result<(), Failure> {
        self.system
            .check_integrity()
            .map_err(|detail| fail(idx, "cluster-integrity", detail))?;
        let report = self.system.report();
        if report.chunks != self.model.chunks {
            return Err(fail(
                idx,
                "conservation",
                format!(
                    "cluster ingested {} chunks, model counted {} — migrations or \
                     recovery leaked into front-end accounting",
                    report.chunks, self.model.chunks
                ),
            ));
        }
        self.check_membership(idx)
    }

    fn obs_json(&self) -> String {
        self.system.rollup().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{generate, Scenario};
    use crate::{run_scenario_ops, run_scenario_ops_observed};

    fn run_cluster_ops(mode: IntegrationMode, ops: &[Op]) -> Result<(), Failure> {
        run_scenario_ops(mode, Scenario::Cluster, ops)
    }

    #[test]
    fn a_handful_of_cluster_seeds_pass_in_cpu_mode() {
        for seed in 0..3 {
            let ops = generate(seed, 30, Scenario::Cluster);
            run_cluster_ops(IntegrationMode::CpuOnly, &ops).expect("cluster seed must pass");
        }
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let ops = generate(5, 40, Scenario::Cluster);
        let a = run_cluster_ops(IntegrationMode::GpuForCompression, &ops);
        let b = run_cluster_ops(IntegrationMode::GpuForCompression, &ops);
        assert_eq!(a, b);
    }

    #[test]
    fn membership_churn_with_live_data_passes() {
        // A hand-built torture sequence: data in place before every kind
        // of membership event, reads interleaved throughout.
        let ops = vec![
            Op::CreateVolume { vol: 0, blocks: 24 },
            Op::Write {
                vol: 0,
                block: 0,
                nblocks: 4,
                seed: 11,
                ratio_milli: 2000,
            },
            Op::NodeJoin,
            Op::Read { vol: 0, block: 0 },
            Op::Write {
                vol: 0,
                block: 8,
                nblocks: 4,
                seed: 12,
                ratio_milli: 1500,
            },
            Op::NodeJoin,
            Op::NodeLeave { node: 0 },
            Op::ReadBatch {
                vol: 0,
                block: 0,
                nblocks: 12,
            },
            Op::Flush,
            Op::NodeCrash { node: 1, seed: 9 },
            Op::Read { vol: 0, block: 8 },
        ];
        run_cluster_ops(IntegrationMode::CpuOnly, &ops).expect("membership churn");
        run_cluster_ops(IntegrationMode::GpuForBoth, &ops).expect("gpu arm too");
    }

    #[test]
    fn leaving_the_last_node_is_refused_on_both_sides() {
        let ops = vec![
            Op::CreateVolume { vol: 0, blocks: 8 },
            Op::Write {
                vol: 0,
                block: 0,
                nblocks: 2,
                seed: 1,
                ratio_milli: 2000,
            },
            // Two members at start: drain to one, then try again.
            Op::NodeLeave { node: 0 },
            Op::NodeLeave { node: 0 },
            Op::Read { vol: 0, block: 0 },
        ];
        run_cluster_ops(IntegrationMode::CpuOnly, &ops).expect("last-node refusal mirrors");
    }

    #[test]
    fn joining_past_the_cap_is_refused_on_both_sides() {
        let mut ops = vec![Op::CreateVolume { vol: 0, blocks: 8 }];
        // 2 initial + 3 joins = cap; the 4th join must mirror Full.
        for _ in 0..4 {
            ops.push(Op::NodeJoin);
        }
        ops.push(Op::Write {
            vol: 0,
            block: 0,
            nblocks: 4,
            seed: 3,
            ratio_milli: 2000,
        });
        ops.push(Op::ReadBatch {
            vol: 0,
            block: 0,
            nblocks: 4,
        });
        run_cluster_ops(IntegrationMode::CpuOnly, &ops).expect("full-cluster refusal mirrors");
    }

    #[test]
    fn observed_cluster_runs_capture_the_rollup() {
        let ops = generate(1, 25, Scenario::Cluster);
        let (result, rollup) = run_scenario_ops_observed(
            IntegrationMode::CpuOnly,
            Scenario::Cluster,
            &ops,
            dr_obs::Tracer::disabled(),
        );
        assert_eq!(result, Ok(()));
        assert!(
            rollup.contains("cluster."),
            "rollup must carry cluster-wide aggregates"
        );
    }
}
