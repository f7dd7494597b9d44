//! `dr-check` — model-based differential checker for the reduction stack.
//!
//! The paper's transparency claim (reduction changes ratios and latency,
//! never logical contents) is exactly the kind of property hand-written
//! tests under-cover once four integration modes, fault schedules, and
//! overwrite patterns multiply. `dr-check` drives a real system under
//! test — the bare [`VolumeManager`](dr_reduction::VolumeManager) or the
//! multi-node [`Cluster`](dr_cluster::Cluster) — and a trivially-correct
//! in-memory [`Oracle`] through seeded op sequences in
//! lockstep, checks invariants after every op, shrinks any failing
//! sequence with delta debugging, and records it as a replayable JSON
//! artifact. One harness (`harness.rs`) does the driving; each system
//! plugs in through one trait impl (`single.rs`, `cluster.rs`).
//!
//! ```text
//! dr-check run [--seeds N] [--seed-start S] [--ops N] [--mode M|all]
//!              [--scenario fault-free|faulted|crash|cluster|both]
//!              [--artifact-dir DIR] [--trace-dir DIR]
//! dr-check replay <artifact.json>
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod cluster_model;
pub mod json;
pub mod model;
pub mod ops;
pub mod shrink;

mod cli;
mod cluster;
mod harness;
mod single;

pub use artifact::Artifact;
pub use cli::cli;
pub use cluster_model::{ClusterModel, CrashFate};
pub use harness::Failure;
pub use model::{ModelError, Oracle};
pub use ops::{generate, Op, Scenario};
pub use shrink::{shrink, Shrunk};

use dr_obs::Tracer;
use dr_reduction::IntegrationMode;
use std::path::{Path, PathBuf};

/// Runs `ops` against the system under test `scenario` selects: the
/// multi-node [`Cluster`](dr_cluster::Cluster) for [`Scenario::Cluster`],
/// the single-node [`VolumeManager`](dr_reduction::VolumeManager) for
/// everything else.
///
/// # Errors
///
/// The first [`Failure`] the run hit (panics in the system included).
pub fn run_scenario_ops(
    mode: IntegrationMode,
    scenario: Scenario,
    ops: &[Op],
) -> Result<(), Failure> {
    run_on_sut(mode, scenario, ops, Tracer::disabled(), false).0
}

/// Like [`run_scenario_ops`], also returning the system's final metric
/// state as JSON — the post-mortem state a replay artifact embeds: the
/// array's snapshot, or the cluster-wide obs rollup. `tracer` is attached
/// to the array's obs handle; cluster runs emit no trace events (they do
/// not flow through the per-node registries). Runs are deterministic, so
/// re-running a shrunk sequence through this reproduces the recorded
/// failure with its metrics (and trace) captured.
pub fn run_scenario_ops_observed(
    mode: IntegrationMode,
    scenario: Scenario,
    ops: &[Op],
    tracer: Tracer,
) -> (Result<(), Failure>, String) {
    run_on_sut(mode, scenario, ops, tracer, true)
}

/// The one place a scenario picks its system under test.
fn run_on_sut(
    mode: IntegrationMode,
    scenario: Scenario,
    ops: &[Op],
    tracer: Tracer,
    observed: bool,
) -> (Result<(), Failure>, String) {
    match scenario {
        Scenario::Cluster => harness::run(cluster::ClusterSut::new(mode), ops, observed),
        _ => harness::run(single::ArraySut::new(mode, tracer, ops), ops, observed),
    }
}

/// What to sweep in [`run_matrix`].
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Number of generator seeds per (mode, scenario) cell.
    pub seeds: u64,
    /// First seed (cells use `seed_start..seed_start + seeds`).
    pub seed_start: u64,
    /// Ops per generated sequence.
    pub ops: usize,
    /// Integration modes to sweep.
    pub modes: Vec<IntegrationMode>,
    /// Scenarios to sweep.
    pub scenarios: Vec<Scenario>,
    /// Where to write a failing artifact (created if missing).
    pub artifact_dir: Option<PathBuf>,
    /// Where to write a Chrome trace of the shrunk failing sequence
    /// (created if missing); the artifact records the path.
    pub trace_dir: Option<PathBuf>,
    /// Shrink budget (candidate executions).
    pub shrink_budget: usize,
    /// Print per-cell progress to stderr.
    pub progress: bool,
}

impl Default for MatrixOptions {
    fn default() -> Self {
        MatrixOptions {
            seeds: 25,
            seed_start: 0,
            ops: 40,
            modes: IntegrationMode::ALL.to_vec(),
            scenarios: Scenario::ALL.to_vec(),
            artifact_dir: None,
            trace_dir: None,
            shrink_budget: shrink::DEFAULT_BUDGET,
            progress: false,
        }
    }
}

/// Result of a matrix sweep.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Sequences executed before stopping.
    pub cases_run: u64,
    /// The first failure, shrunk and packaged — `None` when all passed.
    pub failure: Option<Artifact>,
    /// Where the artifact was written, when a directory was configured.
    pub artifact_path: Option<PathBuf>,
}

/// Sweeps seeds × modes × scenarios, stopping at the first failure, which
/// is shrunk and (optionally) written to disk as a replay artifact.
///
/// Pipeline panics are converted to failures by the harness; the default
/// panic hook still prints them, so long sweeps install a quiet hook for
/// the duration (restored on exit).
pub fn run_matrix(opts: &MatrixOptions) -> MatrixOutcome {
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = run_matrix_inner(opts);
    std::panic::set_hook(prior_hook);
    outcome
}

fn run_matrix_inner(opts: &MatrixOptions) -> MatrixOutcome {
    let mut cases_run = 0u64;
    for scenario in &opts.scenarios {
        for mode in &opts.modes {
            if opts.progress {
                eprintln!(
                    "dr-check: {} x {} ({} seeds, {} ops each)",
                    mode,
                    scenario.name(),
                    opts.seeds,
                    opts.ops
                );
            }
            for seed in opts.seed_start..opts.seed_start + opts.seeds {
                cases_run += 1;
                let ops = generate(seed, opts.ops, *scenario);
                let run = |ops: &[Op]| run_scenario_ops(*mode, *scenario, ops);
                if run(&ops).is_err() {
                    let shrunk = shrink(run, &ops, opts.shrink_budget);
                    // One deterministic re-run of the shrunk sequence
                    // captures its final metric state (and, when a trace
                    // directory is configured, its event trace) for the
                    // artifact's post-mortem fields.
                    let tracer = if opts.trace_dir.is_some() {
                        Tracer::enabled()
                    } else {
                        Tracer::disabled()
                    };
                    let (_, obs_json) =
                        run_scenario_ops_observed(*mode, *scenario, &shrunk.ops, tracer.clone());
                    let trace_path = opts
                        .trace_dir
                        .as_ref()
                        .and_then(|dir| write_trace(dir, seed, *mode, *scenario, &tracer));
                    let artifact = Artifact {
                        seed,
                        mode: *mode,
                        scenario: *scenario,
                        ops: shrunk.ops,
                        failure: shrunk.failure,
                        obs_snapshot: Some(obs_json),
                        trace_path: trace_path.map(|p| p.display().to_string()),
                    };
                    let artifact_path = opts
                        .artifact_dir
                        .as_ref()
                        .and_then(|dir| write_artifact(dir, &artifact));
                    return MatrixOutcome {
                        cases_run,
                        failure: Some(artifact),
                        artifact_path,
                    };
                }
            }
        }
    }
    MatrixOutcome {
        cases_run,
        failure: None,
        artifact_path: None,
    }
}

fn write_trace(
    dir: &Path,
    seed: u64,
    mode: IntegrationMode,
    scenario: Scenario,
    tracer: &Tracer,
) -> Option<PathBuf> {
    let sink = tracer.sink()?;
    let events = sink.drain();
    // A run that emitted nothing (every cluster run) carries no trace.
    if events.is_empty() {
        return None;
    }
    let name = format!("seed-{seed}-{mode}-{}-trace.json", scenario.name());
    write_file(
        dir,
        &name,
        &dr_obs::chrome_trace_json(&events, sink.dropped()),
    )
}

fn write_artifact(dir: &Path, artifact: &Artifact) -> Option<PathBuf> {
    let name = format!(
        "seed-{}-{}-{}.json",
        artifact.seed,
        artifact.mode,
        artifact.scenario.name()
    );
    write_file(dir, &name, &artifact.to_json())
}

/// Writes `dir/name` (creating `dir`); a failure is reported on stderr
/// and costs the run only the file.
fn write_file(dir: &Path, name: &str, contents: &str) -> Option<PathBuf> {
    let path = dir.join(name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("dr-check: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Replays an artifact's op sequence and classifies the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The recorded failure reproduced bit-identically.
    Reproduced(Failure),
    /// A failure occurred, but not the recorded one.
    Diverged {
        /// What this replay produced.
        observed: Failure,
        /// What the artifact recorded.
        recorded: Failure,
    },
    /// The sequence passed — the recorded bug no longer reproduces.
    Passed,
}

/// Re-executes `artifact` deterministically against the system its
/// scenario selects.
pub fn replay(artifact: &Artifact) -> ReplayOutcome {
    match run_scenario_ops(artifact.mode, artifact.scenario, &artifact.ops) {
        Ok(()) => ReplayOutcome::Passed,
        Err(observed) if observed == artifact.failure => ReplayOutcome::Reproduced(observed),
        Err(observed) => ReplayOutcome::Diverged {
            observed,
            recorded: artifact.failure.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_matrix_passes_in_every_cell() {
        let outcome = run_matrix(&MatrixOptions {
            seeds: 2,
            ops: 25,
            ..MatrixOptions::default()
        });
        assert!(
            outcome.failure.is_none(),
            "unexpected failure: {:?}",
            outcome.failure
        );
        // 2 seeds x 4 modes x 2 scenarios.
        assert_eq!(outcome.cases_run, 16);
    }

    #[test]
    fn replay_of_a_passing_sequence_reports_passed() {
        let artifact = Artifact {
            seed: 3,
            mode: IntegrationMode::CpuOnly,
            scenario: Scenario::FaultFree,
            ops: generate(3, 20, Scenario::FaultFree),
            failure: Failure {
                op_index: 0,
                invariant: "byte-identity".to_owned(),
                detail: "made up".to_owned(),
            },
            obs_snapshot: None,
            trace_path: None,
        };
        assert_eq!(replay(&artifact), ReplayOutcome::Passed);
    }
}
