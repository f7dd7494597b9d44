//! Regression corpus: every artifact in `corpus/` is a sequence that once
//! exposed a real bug. Each is replayed as an ordinary test and must now
//! pass clean — a reappearing failure means the bug (or a cousin sharing
//! its trigger) is back.

use dr_check::{replay, Artifact, ReplayOutcome};

/// Every corpus file's path and text, sorted by path.
fn corpus_files() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read corpus artifact");
        out.push((path.display().to_string(), text));
    }
    out.sort();
    out
}

fn corpus_artifacts() -> Vec<(String, Artifact)> {
    corpus_files()
        .into_iter()
        .map(|(path, text)| {
            let artifact = Artifact::from_json(&text)
                .unwrap_or_else(|e| panic!("{path} is not a valid artifact: {e}"));
            (path, artifact)
        })
        .collect()
}

#[test]
fn corpus_is_nonempty_and_well_formed() {
    let artifacts = corpus_artifacts();
    assert!(!artifacts.is_empty(), "the corpus must not be empty");
    for (path, artifact) in &artifacts {
        assert!(!artifact.ops.is_empty(), "{path}: empty op list");
        // Serialization is a fixed point, so artifacts stay replayable
        // bit-identically after any rewrite.
        let back = Artifact::from_json(&artifact.to_json()).expect("round trip");
        assert_eq!(&back, artifact, "{path}: serialization not a fixed point");
    }
}

#[test]
fn corpus_files_re_serialize_byte_for_byte() {
    for (path, text) in corpus_files() {
        let artifact = Artifact::from_json(&text).expect("valid artifact");
        assert_eq!(artifact.to_json(), text, "{path}: not in canonical form");
    }
}

#[test]
fn every_corpus_bug_stays_fixed() {
    for (path, artifact) in corpus_artifacts() {
        match replay(&artifact) {
            ReplayOutcome::Passed => {}
            ReplayOutcome::Reproduced(failure) => {
                panic!("{path}: regressed — {failure}")
            }
            ReplayOutcome::Diverged { observed, .. } => {
                panic!("{path}: new failure on old trigger — {observed}")
            }
        }
    }
}

/// The double-stage bug dr-check found during development (seed 415): a
/// destage drain that failed after retries caused the frame to be staged
/// a second time, double-counting `destage.appends` and burning device
/// pages on a duplicate copy. Pin its exact trigger shape independent of
/// the JSON file.
#[test]
fn destage_retry_does_not_double_stage() {
    use dr_check::{run_scenario_ops, Op, Scenario};
    use dr_reduction::IntegrationMode;

    let ops = vec![
        Op::CreateVolume { vol: 0, blocks: 42 },
        Op::StreamBurst {
            vol: 0,
            block: 10,
            nblocks: 5,
            seed: 192,
        },
        Op::SetSsdFaults {
            write_milli: 120,
            busy_milli: 100,
            read_milli: 100,
            seed: 8045539223791145392,
        },
        Op::CreateVolume { vol: 2, blocks: 30 },
        Op::Read { vol: 0, block: 12 },
        Op::Write {
            vol: 2,
            block: 0,
            nblocks: 3,
            seed: 0,
            ratio_milli: 1500,
        },
    ];
    run_scenario_ops(IntegrationMode::CpuOnly, Scenario::Faulted, &ops)
        .expect("staged frames must be counted exactly once");
}
