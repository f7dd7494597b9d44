//! Delta-debugging over failing op sequences.
//!
//! Two passes, both accepting *any* failure (not necessarily the original
//! one — a shorter sequence exposing a different invariant violation is
//! still a better bug report):
//!
//! 1. **ddmin over ops** — remove chunks of the sequence at doubling
//!    granularity until no chunk can be removed (classic Zeller/Hildebrandt
//!    minimization; valid because every op subset is a valid sequence).
//! 2. **Payload simplification** — per surviving op, try strictly simpler
//!    replacements until none applies: the few cross-variant rewrites
//!    below (burst → single write), then each field lowered to the floor
//!    the alphabet declares for it (`ops.rs`: one block, seed 0).
//!
//! Every candidate execution counts against a budget so shrinking a
//! pathological case stays bounded.

use crate::harness::Failure;
use crate::ops::Op;

/// Upper bound on candidate executions across both passes.
pub const DEFAULT_BUDGET: usize = 400;

/// A minimized failing sequence and the failure it still produces.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimized op sequence.
    pub ops: Vec<Op>,
    /// The failure the minimized sequence reproduces.
    pub failure: Failure,
    /// Candidate executions spent.
    pub executions: usize,
}

/// The run function under a budget of candidate executions.
struct Budget<'a> {
    left: usize,
    run: &'a mut dyn FnMut(&[Op]) -> Result<(), Failure>,
}

impl Budget<'_> {
    fn try_run(&mut self, ops: &[Op]) -> Option<Failure> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        (self.run)(ops).err()
    }
}

/// Minimizes `ops`, which must fail under `run` — any deterministic
/// function from a sequence to its verdict, usually
/// [`run_scenario_ops`](crate::run_scenario_ops) with the mode and
/// scenario fixed — and returns the reduced sequence together with its
/// failure.
///
/// # Panics
///
/// Panics if `ops` does not fail — shrinking a passing sequence is a
/// harness bug, not a checkable state.
pub fn shrink(
    mut run: impl FnMut(&[Op]) -> Result<(), Failure>,
    ops: &[Op],
    budget: usize,
) -> Shrunk {
    let mut failure = run(ops).expect_err("shrink requires a failing sequence");
    let total = budget;
    let mut budget = Budget {
        left: budget,
        run: &mut run,
    };
    let mut current = ops.to_vec();

    ddmin(&mut current, &mut failure, &mut budget);
    simplify_payloads(&mut current, &mut failure, &mut budget);
    // Payload simplification can unlock further op removal (a simplified
    // op may now be redundant); one more cheap pass.
    ddmin(&mut current, &mut failure, &mut budget);

    Shrunk {
        ops: current,
        failure,
        executions: total - budget.left,
    }
}

/// Classic ddmin: try removing each of `n` chunks, refine granularity.
fn ddmin(current: &mut Vec<Op>, failure: &mut Failure, budget: &mut Budget<'_>) {
    let mut n = 2usize;
    while current.len() >= 2 {
        let len = current.len();
        let chunk = len.div_ceil(n);
        let mut removed = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<Op> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if candidate.is_empty() {
                start = end;
                continue;
            }
            if let Some(f) = budget.try_run(&candidate) {
                *current = candidate;
                *failure = f;
                removed = true;
                // Keep position: the next chunk now sits at `start`.
            } else {
                start = end;
            }
            if budget.left == 0 {
                return;
            }
        }
        if removed {
            n = n.saturating_sub(1).max(2);
        } else if n >= len {
            break;
        } else {
            n = (n * 2).min(current.len().max(2));
        }
    }
}

/// Strictly-simpler replacement candidates for one op, most aggressive
/// first: its rewrites onto a simpler op, then each field the alphabet
/// declares a floor for (`ops.rs`) lowered to that floor.
fn simpler(op: &Op) -> Vec<Op> {
    let mut out = rewrites(op);
    for field in op.fields() {
        if let Some(floor) = field.floor.filter(|&floor| field.value > floor) {
            let lowered = op.with_fields(|name, v| if name == field.name { floor } else { v });
            out.extend(lowered.ok());
        }
    }
    out
}

/// The cross-variant rewrites: a multi-block batched read becomes a
/// single read, a burst one write, a fault schedule each of its nonzero
/// rates alone on the same fault stream (`seed`).
fn rewrites(op: &Op) -> Vec<Op> {
    match *op {
        Op::ReadBatch {
            vol,
            block,
            nblocks,
        } if nblocks > 1 => vec![Op::Read { vol, block }],
        Op::ZipfBurst { vol, seed, .. } => vec![Op::Write {
            vol,
            block: 0,
            nblocks: 1,
            seed,
            ratio_milli: 2000,
        }],
        Op::StreamBurst {
            vol, block, seed, ..
        } => vec![Op::Write {
            vol,
            block,
            nblocks: 1,
            seed,
            ratio_milli: 2000,
        }],
        Op::SetSsdFaults { .. } | Op::SetGpuFaults { .. } => op
            .fields()
            .into_iter()
            .filter(|rate| rate.name != "seed" && rate.value != 0)
            .filter_map(|rate| {
                let keep = |name: &str| name == rate.name || name == "seed";
                op.with_fields(|name, v| if keep(name) { v } else { 0 })
                    .ok()
            })
            .filter(|candidate| candidate != op)
            .collect(),
        _ => Vec::new(),
    }
}

fn simplify_payloads(current: &mut Vec<Op>, failure: &mut Failure, budget: &mut Budget<'_>) {
    let mut changed = true;
    while changed && budget.left > 0 {
        changed = false;
        for i in 0..current.len() {
            for candidate_op in simpler(&current[i]) {
                let mut candidate = current.clone();
                candidate[i] = candidate_op;
                if let Some(f) = budget.try_run(&candidate) {
                    *current = candidate;
                    *failure = f;
                    changed = true;
                    break;
                }
                if budget.left == 0 {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The real `ddmin` / `simplify_payloads`, driven by predicate runners:
    //! a sequence "fails" when the predicate holds. Sequences are built
    //! from reads whose block number names the op.

    use super::*;
    use crate::ops::{generate, Scenario};

    fn reads(blocks: std::ops::Range<u64>) -> Vec<Op> {
        blocks.map(|block| Op::Read { vol: 0, block }).collect()
    }

    fn has_read(ops: &[Op], block: u64) -> bool {
        ops.contains(&Op::Read { vol: 0, block })
    }

    /// A run function failing exactly when `culprit(ops)` holds.
    fn failing_when(culprit: impl Fn(&[Op]) -> bool) -> impl FnMut(&[Op]) -> Result<(), Failure> {
        move |ops| match culprit(ops) {
            true => Err(Failure {
                op_index: ops.len(),
                invariant: "planted".to_owned(),
                detail: String::new(),
            }),
            false => Ok(()),
        }
    }

    #[test]
    fn every_candidate_lowers_one_field_to_its_floor_or_is_a_rewrite() {
        for scenario in [
            Scenario::FaultFree,
            Scenario::Faulted,
            Scenario::Crash,
            Scenario::Cluster,
        ] {
            for seed in 0..64 {
                for op in generate(seed, 200, scenario) {
                    for candidate in simpler(&op) {
                        assert_ne!(candidate, op, "a candidate must differ from its op");
                        let changed: Vec<_> = op
                            .fields()
                            .into_iter()
                            .zip(candidate.fields())
                            .filter(|(was, now)| was != now)
                            .collect();
                        let lowered = candidate.tag() == op.tag()
                            && matches!(&changed[..], [(was, now)]
                                if now.floor == Some(now.value) && was.value > now.value);
                        assert!(
                            lowered || rewrites(&op).contains(&candidate),
                            "{op:?} -> {candidate:?}: neither a floor nor a rewrite"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ddmin_isolates_a_single_culprit() {
        let out = shrink(failing_when(|s| has_read(s, 37)), &reads(1..65), 400);
        assert_eq!(out.ops, reads(37..38));
        assert_eq!(out.failure.op_index, 1, "the failure is the shrunk run's");
    }

    #[test]
    fn ddmin_isolates_an_interacting_pair() {
        let run = failing_when(|s| has_read(s, 3) && has_read(s, 59));
        let out = shrink(run, &reads(1..65), 400);
        assert_eq!(out.ops, [reads(3..4), reads(59..60)].concat());
    }

    #[test]
    fn budget_exhaustion_stops_cleanly_with_a_failing_sequence() {
        let mut calls = 0usize;
        let mut inner = failing_when(|s| has_read(s, 3) && has_read(s, 59));
        let run = |ops: &[Op]| {
            calls += 1;
            inner(ops)
        };
        let out = shrink(run, &reads(1..65), 5);
        assert_eq!(out.executions, 5);
        assert_eq!(calls, 6, "the initial run plus exactly the budget");
        assert!(
            out.ops.len() < 64,
            "five candidates still removed something"
        );
        assert!(has_read(&out.ops, 3) && has_read(&out.ops, 59));
        assert_eq!(out.failure.op_index, out.ops.len());
    }

    #[test]
    fn payload_simplification_unlocks_a_further_removal() {
        // Fails on a write at block 0, or on any write next to a create:
        // the create is load-bearing only until the write moves to 0.
        let culprit = |ops: &[Op]| {
            ops.iter().any(|op| match op {
                Op::Write { block, .. } => {
                    *block == 0 || ops.iter().any(|o| matches!(o, Op::CreateVolume { .. }))
                }
                _ => false,
            })
        };
        let ops = vec![
            Op::CreateVolume { vol: 0, blocks: 8 },
            Op::Read { vol: 0, block: 1 },
            Op::Write {
                vol: 0,
                block: 2,
                nblocks: 4,
                seed: 9,
                ratio_milli: 2000,
            },
        ];
        let out = shrink(failing_when(culprit), &ops, 400);
        // The first ddmin keeps create + write; moving the write to block
        // 0 makes the create redundant, which the second ddmin removes.
        assert_eq!(
            out.ops,
            vec![Op::Write {
                vol: 0,
                block: 0,
                nblocks: 1,
                seed: 0,
                ratio_milli: 2000,
            }]
        );
    }
}
