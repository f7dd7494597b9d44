//! The operation alphabet and the seeded sequence generator.
//!
//! Every op is **self-contained**: payloads derive from an embedded seed,
//! volumes are named by a small fixed index, and an op against a volume
//! that does not (yet, or anymore) exist simply produces an error — which
//! the runner cross-checks against the oracle's error. That property makes
//! *any subset* of a generated sequence a valid sequence, which is exactly
//! what delta-debugging needs.
//!
//! Floats never appear: fault rates, skew, and compression targets are
//! stored in integer milli-units so JSON artifacts round-trip bit-exactly.
//!
//! The alphabet is declared once, in the `declare_ops!` table below: each
//! op's tag, its fields and each field's shrink floor. The artifact codec
//! (`artifact.rs`) and the shrinker's per-field candidates (`shrink.rs`)
//! are derived from it. Adding an op is one entry there, a band in
//! [`generate`], and an arm in a `Sut` (`harness.rs`'s `apply`, or
//! `apply_other` in `single.rs` / `cluster.rs`).

use dr_des::SplitMix64;

/// How many distinct volumes a generated sequence may address ("v0".."v3").
pub const MAX_VOLUMES: u8 = 4;

/// Largest generated volume, in blocks.
pub const MAX_VOLUME_BLOCKS: u64 = 48;

/// Canonical name of volume index `vol`.
pub fn vol_name(vol: u8) -> String {
    format!("v{vol}")
}

/// One declared field of an op, as the artifact and the shrinker see it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Field {
    /// The field's name, which is also its artifact key.
    pub(crate) name: &'static str,
    /// The value, widened to `u64`.
    pub(crate) value: u64,
    /// The value the shrinker may lower the field to; `None` when the
    /// field is never shrunk.
    pub(crate) floor: Option<u64>,
}

/// Declares the op alphabet. Each variant is written once: its artifact
/// tag, then its fields in artifact order, a field marked `=> floor`
/// being one the shrinker may lower to `floor`. Everything else —
/// [`Op`], [`Op::tag`], [`Op::fields`], [`Op::from_fields`] — derives
/// from the declaration.
macro_rules! declare_ops {
    (@floor) => { None };
    (@floor $floor:literal) => { Some($floor) };
    ($(
        $(#[$doc:meta])*
        $variant:ident $tag:literal $({
            $($(#[$field_doc:meta])* $field:ident: $ty:ty $(=> $floor:literal)?,)*
        })?,
    )*) => {
        /// One step of a checker sequence.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Op {
            $($(#[$doc])* $variant $({ $($(#[$field_doc])* $field: $ty,)* })?,)*
        }

        impl Op {
            /// Short tag for labels and artifacts.
            pub fn tag(&self) -> &'static str {
                match self {
                    $(Op::$variant { .. } => $tag,)*
                }
            }

            /// The declared fields, in declaration order.
            pub(crate) fn fields(&self) -> Vec<Field> {
                match self {
                    $(Op::$variant $({ $($field,)* })? => vec![$($(Field {
                        name: stringify!($field),
                        value: u64::from(*$field),
                        floor: declare_ops!(@floor $($floor)?),
                    },)*)?],)*
                }
            }

            /// Builds the op tagged `tag`, reading each declared field's
            /// value through `get`.
            ///
            /// # Errors
            ///
            /// An unknown tag, `get`'s error, or a value the field's type
            /// cannot hold (a `vol` of 256), naming the field.
            pub(crate) fn from_fields(
                tag: &str,
                mut get: impl FnMut(&'static str) -> Result<u64, String>,
            ) -> Result<Op, String> {
                match tag {
                    $($tag => Ok(Op::$variant $({ $(
                        $field: narrow(stringify!($field), get(stringify!($field))?)?,
                    )* })?),)*
                    other => Err(format!("unknown op tag '{other}'")),
                }
            }
        }
    };
}

/// `value` as the field type `T`, or an error naming the field.
fn narrow<T: TryFrom<u64>>(name: &str, value: u64) -> Result<T, String> {
    T::try_from(value).map_err(|_| format!("field '{name}' out of range: {value}"))
}

declare_ops! {
    /// Create volume `vol` with `blocks` blocks.
    CreateVolume "create-volume" {
        /// Volume index (`v0`..).
        vol: u8,
        /// Volume size in blocks.
        blocks: u64 => 1,
    },
    /// Write `nblocks` synthesized chunks at `block`; payload bytes derive
    /// from `seed` and the target compression ratio (milli-units).
    Write "write" {
        /// Volume index.
        vol: u8,
        /// First block to write.
        block: u64 => 0,
        /// Number of consecutive blocks.
        nblocks: u64 => 1,
        /// Payload seed (block `i` uses `seed + i`).
        seed: u64 => 0,
        /// Target compression ratio × 1000.
        ratio_milli: u64,
    },
    /// Read one block and compare against the oracle.
    Read "read" {
        /// Volume index.
        vol: u8,
        /// Block to read.
        block: u64 => 0,
    },
    /// Read `nblocks` consecutive blocks in one batched call and compare
    /// every block against the oracle (and the error kind, when the range
    /// includes an invalid block).
    ReadBatch "read-batch" {
        /// Volume index.
        vol: u8,
        /// First block to read.
        block: u64 => 0,
        /// Number of consecutive blocks.
        nblocks: u64 => 1,
    },
    /// `count` single-block writes at Zipf-skewed offsets — the hot/cold
    /// overwrite pattern that stresses recipe remapping. Shrinks only by
    /// its rewrite to one [`Op::Write`].
    ZipfBurst "zipf-burst" {
        /// Volume index.
        vol: u8,
        /// Number of writes.
        count: u64,
        /// Zipf skew θ × 1000.
        theta_milli: u64,
        /// Seed for both the sampler and the payloads.
        seed: u64,
    },
    /// A sequential burst from `dr-workload`'s stream generator starting
    /// at `block` — dedup-able, compressible, locality-shaped data.
    /// Shrinks only by its rewrite to one [`Op::Write`].
    StreamBurst "stream-burst" {
        /// Volume index.
        vol: u8,
        /// First block.
        block: u64,
        /// Number of consecutive blocks.
        nblocks: u64,
        /// Stream generator seed.
        seed: u64,
    },
    /// Swap in an SSD transient-fault schedule (rates in milli-units).
    /// Shrinks only by its rewrite to one nonzero rate.
    SetSsdFaults "set-ssd-faults" {
        /// Write-error rate × 1000.
        write_milli: u64,
        /// Busy rate × 1000.
        busy_milli: u64,
        /// Read-error rate × 1000.
        read_milli: u64,
        /// Fault-stream seed.
        seed: u64,
    },
    /// Swap in a GPU fault schedule (rates in milli-units). Shrinks only
    /// by its rewrite to one nonzero rate.
    SetGpuFaults "set-gpu-faults" {
        /// Kernel-launch failure rate × 1000.
        launch_milli: u64,
        /// Probe-timeout rate × 1000.
        timeout_milli: u64,
        /// Fault-stream seed.
        seed: u64,
    },
    /// Zero every fault schedule.
    ClearFaults "clear-faults",
    /// Force the destage partial page out to the SSD.
    Flush "flush",
    /// Snapshot the bin index, restore it, and verify the round trip is a
    /// fixed point; the restored index replaces the live one.
    SnapshotRestore "snapshot-restore",
    /// Cut power at a seeded instant within the acknowledged horizon,
    /// recover from the metadata journal, and verify durability: every
    /// acknowledged operation survives, unacknowledged ones are atomically
    /// absent, and the recovered state keeps serving correct bytes.
    Crash "crash" {
        /// Seed for the cut instant and the torn-page split points. Not
        /// shrunk: it pins the durable prefix, and no other seed is a
        /// simpler cut of the same one.
        seed: u64,
    },
    /// Cluster scenario only: add a node and verify rebalancing moved
    /// every re-homed block intact.
    NodeJoin "node-join",
    /// Cluster scenario only: remove a member and verify it drained
    /// completely. `node` is a *selector*, resolved against the live
    /// member list (`members[node % len]`), so the op stays valid in any
    /// subset the shrinker produces.
    NodeLeave "node-leave" {
        /// Member selector (index into the sorted live member list);
        /// 0, the lowest live id, is the simplest target.
        node: u8 => 0,
    },
    /// Cluster scenario only: power-cut one member at a seeded instant
    /// within its acked horizon, recover it from its journal, and verify
    /// the cluster-wide crash contract (acked blocks survive, reverted
    /// blocks match an older durable version, lost blocks had nothing
    /// acked).
    NodeCrash "node-crash" {
        /// Member selector, as in [`Op::NodeLeave`].
        node: u8 => 0,
        /// Seed for the cut instant and torn-page split points.
        seed: u64,
    },
}

impl Op {
    /// This op with each declared field set to `value(name, current)`.
    ///
    /// # Errors
    ///
    /// A value the field's type cannot hold.
    pub(crate) fn with_fields(&self, value: impl Fn(&str, u64) -> u64) -> Result<Op, String> {
        let fields = self.fields();
        Op::from_fields(self.tag(), |name| {
            let field = fields.iter().find(|f| f.name == name);
            Ok(value(name, field.map_or(0, |f| f.value)))
        })
    }
}

/// Whether a generated sequence may toggle fault schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No fault ops; devices stay clean.
    FaultFree,
    /// Fault-schedule toggles are in the alphabet. Rates are capped well
    /// below the level where the pipeline's *designed* abort (destage
    /// failure after a degraded rest) becomes reachable.
    Faulted,
    /// Power-cut ops are in the alphabet (alongside fault toggles): the
    /// pipeline runs with the metadata journal enabled and the runner
    /// checks crash durability after every cut. Not part of
    /// [`Scenario::ALL`]: crash runs flip the journal on, so they sweep
    /// separately from the bit-identity-pinned default matrix.
    Crash,
    /// Membership ops ([`Op::NodeJoin`] / [`Op::NodeLeave`] /
    /// [`Op::NodeCrash`]) are in the alphabet and the sequence runs
    /// against a multi-node [`Cluster`](dr_cluster::Cluster) instead of a
    /// bare volume manager, checked by the cluster oracle. Not part of
    /// [`Scenario::ALL`] for the same reason as [`Scenario::Crash`]: the
    /// cluster runs journaled and on a different system under test.
    Cluster,
}

impl Scenario {
    /// Default scenarios for matrix runs ([`Scenario::Crash`] and
    /// [`Scenario::Cluster`] are opt-in).
    pub const ALL: [Scenario; 2] = [Scenario::FaultFree, Scenario::Faulted];

    /// Canonical CLI / artifact name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::FaultFree => "fault-free",
            Scenario::Faulted => "faulted",
            Scenario::Crash => "crash",
            Scenario::Cluster => "cluster",
        }
    }

    /// Parses a canonical name.
    ///
    /// # Errors
    ///
    /// Describes the accepted names.
    pub fn parse(s: &str) -> Result<Scenario, String> {
        match s {
            "fault-free" => Ok(Scenario::FaultFree),
            "faulted" => Ok(Scenario::Faulted),
            "crash" => Ok(Scenario::Crash),
            "cluster" => Ok(Scenario::Cluster),
            other => Err(format!(
                "unknown scenario '{other}' (fault-free | faulted | crash | cluster)"
            )),
        }
    }
}

/// Generates a `count`-op sequence from `seed`. Identical arguments yield
/// identical sequences on every platform (SplitMix64, no ambient state).
pub fn generate(seed: u64, count: usize, scenario: Scenario) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut ops = Vec::with_capacity(count);
    // Seed the sequence with one guaranteed volume so short sequences do
    // real work; shrinking may still remove it (subsets stay valid).
    ops.push(Op::CreateVolume {
        vol: 0,
        blocks: 8 + rng.next_below(MAX_VOLUME_BLOCKS - 8),
    });
    while ops.len() < count {
        let vol = rng.next_below(MAX_VOLUMES as u64) as u8;
        let roll = rng.next_below(100);
        let op = match roll {
            0..=7 => Op::CreateVolume {
                vol,
                blocks: 1 + rng.next_below(MAX_VOLUME_BLOCKS),
            },
            8..=37 => Op::Write {
                vol,
                block: rng.next_below(MAX_VOLUME_BLOCKS),
                nblocks: 1 + rng.next_below(4),
                seed: rng.next_u64() % 1024,
                ratio_milli: 1000 + 500 * rng.next_below(5),
            },
            38..=54 => Op::Read {
                vol,
                block: rng.next_below(MAX_VOLUME_BLOCKS),
            },
            55..=62 => Op::ReadBatch {
                vol,
                block: rng.next_below(MAX_VOLUME_BLOCKS),
                nblocks: 1 + rng.next_below(8),
            },
            63..=70 => Op::ZipfBurst {
                vol,
                count: 1 + rng.next_below(8),
                theta_milli: 400 + rng.next_below(800),
                seed: rng.next_u64() % 1024,
            },
            71..=78 => Op::StreamBurst {
                vol,
                block: rng.next_below(MAX_VOLUME_BLOCKS),
                nblocks: 1 + rng.next_below(8),
                seed: rng.next_u64() % 1024,
            },
            79..=84 => Op::Flush,
            // Cluster sequences spend the snapshot band on membership
            // churn instead (the cluster front-end has no index-snapshot
            // surface). Join-biased 2:1 so clusters grow from their
            // 2-node start and leaves have members to remove. Guarded
            // arm, so the other scenarios stay bit-identical.
            85..=89 if scenario == Scenario::Cluster => {
                if rng.next_below(3) == 0 {
                    Op::NodeLeave {
                        node: rng.next_below(8) as u8,
                    }
                } else {
                    Op::NodeJoin
                }
            }
            85..=89 => Op::SnapshotRestore,
            // Cluster sequences carve per-node power cuts out of the
            // fault band and fold the rest into reads: fault schedules
            // are per-node knobs the cluster front-end does not expose.
            90..=92 if scenario == Scenario::Cluster => Op::NodeCrash {
                node: rng.next_below(8) as u8,
                seed: rng.next_u64(),
            },
            _ if scenario == Scenario::Cluster => Op::Read {
                vol,
                block: rng.next_below(MAX_VOLUME_BLOCKS),
            },
            // The fault band: in fault-free scenarios fold it back into
            // reads so both scenarios see comparable op mixes.
            _ if scenario == Scenario::FaultFree => Op::Read {
                vol,
                block: rng.next_below(MAX_VOLUME_BLOCKS),
            },
            // Crash scenarios carve power cuts out of the fault band
            // (guarded arm, so the faulted band below is untouched for the
            // other scenarios — sequences stay bit-identical).
            90..=92 if scenario == Scenario::Crash => Op::Crash {
                seed: rng.next_u64(),
            },
            90..=93 => Op::SetSsdFaults {
                write_milli: 30 * rng.next_below(5), // ≤ 0.12
                busy_milli: 25 * rng.next_below(5),  // ≤ 0.10
                read_milli: 25 * rng.next_below(5),  // ≤ 0.10
                seed: rng.next_u64(),
            },
            94..=96 => Op::SetGpuFaults {
                launch_milli: 100 * rng.next_below(6), // ≤ 0.50
                timeout_milli: 50 * rng.next_below(6), // ≤ 0.25
                seed: rng.next_u64(),
            },
            _ => Op::ClearFaults,
        };
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            generate(42, 50, Scenario::Faulted),
            generate(42, 50, Scenario::Faulted)
        );
        assert_ne!(
            generate(42, 50, Scenario::Faulted),
            generate(43, 50, Scenario::Faulted)
        );
    }

    #[test]
    fn every_generated_op_round_trips_through_its_declared_fields() {
        for scenario in [
            Scenario::FaultFree,
            Scenario::Faulted,
            Scenario::Crash,
            Scenario::Cluster,
        ] {
            for seed in 0..64 {
                for op in generate(seed, 200, scenario) {
                    let fields = op.fields();
                    let back = Op::from_fields(op.tag(), |name| {
                        let field = fields.iter().find(|f| f.name == name);
                        field.map(|f| f.value).ok_or(format!("no field '{name}'"))
                    });
                    assert_eq!(back.as_ref(), Ok(&op), "{scenario:?} seed {seed}");
                    assert_eq!(op.with_fields(|_, value| value), Ok(op));
                }
            }
        }
    }

    #[test]
    fn fault_free_sequences_contain_no_fault_ops() {
        for seed in 0..20 {
            for op in generate(seed, 80, Scenario::FaultFree) {
                assert!(
                    !matches!(
                        op,
                        Op::SetSsdFaults { .. } | Op::SetGpuFaults { .. } | Op::ClearFaults
                    ),
                    "fault op in fault-free sequence (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn crash_band_is_guarded_so_other_scenarios_are_unchanged() {
        // The crash and cluster arms must not perturb the sequences the
        // pinned (fault-free / faulted) matrix cells generate.
        for seed in 0..20 {
            for scenario in Scenario::ALL {
                for op in generate(seed, 80, scenario) {
                    assert!(
                        !matches!(
                            op,
                            Op::Crash { .. }
                                | Op::NodeJoin
                                | Op::NodeLeave { .. }
                                | Op::NodeCrash { .. }
                        ),
                        "membership/crash op outside its scenario (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn cluster_sequences_stay_inside_the_cluster_alphabet() {
        // No single-node-only ops (snapshot-restore, whole-array crash,
        // fault toggles) may appear in a cluster sequence.
        for seed in 0..20 {
            for op in generate(seed, 80, Scenario::Cluster) {
                assert!(
                    !matches!(
                        op,
                        Op::SnapshotRestore
                            | Op::Crash { .. }
                            | Op::SetSsdFaults { .. }
                            | Op::SetGpuFaults { .. }
                            | Op::ClearFaults
                    ),
                    "single-node op in cluster sequence (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn the_smoke_seed_range_exercises_join_leave_and_node_crash() {
        // The CI smoke runs seeds 0..25 at the default 40 ops; those
        // cells must collectively cover all three membership events or
        // the smoke proves less than it claims.
        let (mut joins, mut leaves, mut crashes) = (0usize, 0usize, 0usize);
        for seed in 0..25 {
            for op in generate(seed, 40, Scenario::Cluster) {
                match op {
                    Op::NodeJoin => joins += 1,
                    Op::NodeLeave { .. } => leaves += 1,
                    Op::NodeCrash { .. } => crashes += 1,
                    _ => {}
                }
            }
        }
        assert!(joins > 0, "no node-join in the smoke seed range");
        assert!(leaves > 0, "no node-leave in the smoke seed range");
        assert!(crashes > 0, "no node-crash in the smoke seed range");
    }

    #[test]
    fn crash_sequences_contain_crash_ops() {
        let crashes: usize = (0..20)
            .map(|seed| {
                generate(seed, 80, Scenario::Crash)
                    .iter()
                    .filter(|op| matches!(op, Op::Crash { .. }))
                    .count()
            })
            .sum();
        assert!(crashes > 10, "crash band too cold: {crashes} in 20 seeds");
    }

    #[test]
    fn faulted_fault_rates_stay_below_the_designed_abort_threshold() {
        for seed in 0..50 {
            for op in generate(seed, 80, Scenario::Faulted) {
                if let Op::SetSsdFaults {
                    write_milli,
                    busy_milli,
                    read_milli,
                    ..
                } = op
                {
                    assert!(write_milli <= 150, "write rate too hot");
                    assert!(busy_milli <= 150, "busy rate too hot");
                    assert!(read_milli <= 150, "read rate too hot");
                }
            }
        }
    }
}
