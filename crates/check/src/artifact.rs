//! Replayable failure artifacts.
//!
//! An artifact pins everything a failure needs to reproduce bit-exactly:
//! the generator seed (provenance), the integration mode, the scenario,
//! the (minimized) op list, and the failure that was observed. All numeric
//! fields are unsigned integers — rates and ratios travel in milli-units —
//! so serialization is exact and replay is deterministic across platforms.
//! An op is written and read through the fields the alphabet declares
//! for it (`Op::fields`, `Op::from_fields`); a value too wide for its
//! field is refused.
//!
//! Version 2 adds two optional post-mortem fields: `obs_snapshot` (the
//! final metric snapshot of the shrunk failing run, embedded as a JSON
//! *string* so the integer-only artifact parser never has to read the
//! float-bearing snapshot dialect) and `trace_path` (where the Chrome
//! trace of the failing sequence was written, when tracing was on).
//! Version 3 adds the `crash` op and the `crash` scenario for power-cut
//! sequences. Version 4 adds the `cluster` scenario and its membership
//! ops (`node-join`, `node-leave`, `node-crash`). No artifact ever left
//! this repository, so only the current version parses; the corpus is
//! re-encoded whenever the format moves.

use crate::harness::Failure;
use crate::json::{self, quote, Value};
use crate::ops::{Op, Scenario};
use dr_reduction::IntegrationMode;

/// Artifact schema version.
pub const VERSION: u64 = 4;

/// One recorded failure: seed, environment, minimized ops, observed
/// failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Generator seed that produced the original sequence.
    pub seed: u64,
    /// Integration mode the failure occurred in.
    pub mode: IntegrationMode,
    /// Scenario the sequence was generated for.
    pub scenario: Scenario,
    /// The (minimized) op sequence.
    pub ops: Vec<Op>,
    /// The failure the sequence reproduces.
    pub failure: Failure,
    /// Final metric snapshot of the shrunk failing run (JSON text),
    /// when one was captured.
    pub obs_snapshot: Option<String>,
    /// Where the Chrome trace of the failing sequence was written, when
    /// tracing was on.
    pub trace_path: Option<String>,
}

impl Artifact {
    /// Serializes to the canonical JSON artifact format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {VERSION},\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"mode\": {},\n", quote(&self.mode.to_string())));
        out.push_str(&format!(
            "  \"scenario\": {},\n",
            quote(self.scenario.name())
        ));
        out.push_str(&format!(
            "  \"failure\": {{\"op_index\": {}, \"invariant\": {}, \"detail\": {}}},\n",
            self.failure.op_index,
            quote(&self.failure.invariant),
            quote(&self.failure.detail)
        ));
        if let Some(snap) = &self.obs_snapshot {
            out.push_str(&format!("  \"obs_snapshot\": {},\n", quote(snap)));
        }
        if let Some(path) = &self.trace_path {
            out.push_str(&format!("  \"trace_path\": {},\n", quote(path)));
        }
        out.push_str("  \"ops\": [\n");
        for (i, op) in self.ops.iter().enumerate() {
            let sep = if i + 1 == self.ops.len() { "" } else { "," };
            out.push_str(&format!("    {}{sep}\n", op_to_json(op)));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the canonical JSON artifact format.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem.
    pub fn from_json(text: &str) -> Result<Artifact, String> {
        let v = json::parse(text)?;
        let version = field_u64(&v, "version")?;
        if version != VERSION {
            return Err(format!(
                "unsupported artifact version {version} (this build reads {VERSION})"
            ));
        }
        let mode: IntegrationMode = field_str(&v, "mode")?.parse()?;
        let scenario = Scenario::parse(field_str(&v, "scenario")?)?;
        let failure = {
            let f = v.get("failure").ok_or("missing field 'failure'")?;
            Failure {
                op_index: field_u64(f, "op_index")? as usize,
                invariant: field_str(f, "invariant")?.to_owned(),
                detail: field_str(f, "detail")?.to_owned(),
            }
        };
        let ops = v
            .get("ops")
            .and_then(Value::as_arr)
            .ok_or("missing field 'ops'")?
            .iter()
            .map(op_from_json)
            .collect::<Result<Vec<Op>, String>>()?;
        Ok(Artifact {
            seed: field_u64(&v, "seed")?,
            mode,
            scenario,
            ops,
            failure,
            obs_snapshot: opt_field_str(&v, "obs_snapshot")?,
            trace_path: opt_field_str(&v, "trace_path")?,
        })
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

/// Optional string field: absent is `None`, present-but-not-a-string is
/// an error (a mistyped field should not silently vanish).
fn opt_field_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("field '{key}' is not a string")),
    }
}

fn op_to_json(op: &Op) -> String {
    let mut out = format!("{{\"op\": {}", quote(op.tag()));
    for field in op.fields() {
        out.push_str(&format!(", \"{}\": {}", field.name, field.value));
    }
    out.push('}');
    out
}

fn op_from_json(v: &Value) -> Result<Op, String> {
    Op::from_fields(field_str(v, "op")?, |name| field_u64(v, name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{generate, Scenario};

    #[test]
    fn artifacts_round_trip_bit_exactly() {
        for seed in [0u64, 7, 42, u64::MAX] {
            let artifact = Artifact {
                seed,
                mode: IntegrationMode::GpuForBoth,
                scenario: Scenario::Faulted,
                ops: generate(seed, 40, Scenario::Faulted),
                failure: Failure {
                    op_index: 3,
                    invariant: "byte-identity".to_owned(),
                    detail: "quotes \" and\nnewlines must survive".to_owned(),
                },
                obs_snapshot: None,
                trace_path: None,
            };
            let text = artifact.to_json();
            let back = Artifact::from_json(&text).expect("parse back");
            assert_eq!(back, artifact);
            // And serialization itself is a fixed point.
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn every_op_kind_survives_the_round_trip() {
        let ops = vec![
            Op::CreateVolume { vol: 1, blocks: 9 },
            Op::Write {
                vol: 0,
                block: 2,
                nblocks: 3,
                seed: 4,
                ratio_milli: 1500,
            },
            Op::Read { vol: 2, block: 1 },
            Op::ReadBatch {
                vol: 1,
                block: 4,
                nblocks: 6,
            },
            Op::ZipfBurst {
                vol: 3,
                count: 5,
                theta_milli: 990,
                seed: 6,
            },
            Op::StreamBurst {
                vol: 0,
                block: 7,
                nblocks: 2,
                seed: 8,
            },
            Op::SetSsdFaults {
                write_milli: 120,
                busy_milli: 100,
                read_milli: 50,
                seed: u64::MAX,
            },
            Op::SetGpuFaults {
                launch_milli: 500,
                timeout_milli: 250,
                seed: 9,
            },
            Op::ClearFaults,
            Op::Flush,
            Op::SnapshotRestore,
            Op::Crash { seed: 77 },
            Op::NodeJoin,
            Op::NodeLeave { node: 2 },
            Op::NodeCrash { node: 1, seed: 99 },
        ];
        let artifact = Artifact {
            seed: 1,
            mode: IntegrationMode::CpuOnly,
            scenario: Scenario::FaultFree,
            ops: ops.clone(),
            failure: Failure {
                op_index: 0,
                invariant: "panic".to_owned(),
                detail: String::new(),
            },
            obs_snapshot: None,
            trace_path: None,
        };
        let text = artifact.to_json();
        // Every op kind's canonical text, pinned: an edit to the alphabet's
        // declaration that moves an artifact byte fails here.
        assert_eq!(text, EVERY_OP_KIND);
        let back = Artifact::from_json(&text).unwrap();
        assert_eq!(back.ops, ops);
    }

    const EVERY_OP_KIND: &str = r#"{
  "version": 4,
  "seed": 1,
  "mode": "cpu-only",
  "scenario": "fault-free",
  "failure": {"op_index": 0, "invariant": "panic", "detail": ""},
  "ops": [
    {"op": "create-volume", "vol": 1, "blocks": 9},
    {"op": "write", "vol": 0, "block": 2, "nblocks": 3, "seed": 4, "ratio_milli": 1500},
    {"op": "read", "vol": 2, "block": 1},
    {"op": "read-batch", "vol": 1, "block": 4, "nblocks": 6},
    {"op": "zipf-burst", "vol": 3, "count": 5, "theta_milli": 990, "seed": 6},
    {"op": "stream-burst", "vol": 0, "block": 7, "nblocks": 2, "seed": 8},
    {"op": "set-ssd-faults", "write_milli": 120, "busy_milli": 100, "read_milli": 50, "seed": 18446744073709551615},
    {"op": "set-gpu-faults", "launch_milli": 500, "timeout_milli": 250, "seed": 9},
    {"op": "clear-faults"},
    {"op": "flush"},
    {"op": "snapshot-restore"},
    {"op": "crash", "seed": 77},
    {"op": "node-join"},
    {"op": "node-leave", "node": 2},
    {"op": "node-crash", "node": 1, "seed": 99}
  ]
}
"#;

    #[test]
    fn post_mortem_fields_round_trip() {
        // The embedded snapshot is an arbitrary JSON document with floats
        // and quotes — it must survive as an opaque string.
        let snap = "{\"name\": \"dr-check\", \"histograms\": {\"p99\": 1.5}}";
        let artifact = Artifact {
            seed: 11,
            mode: IntegrationMode::GpuForDedup,
            scenario: Scenario::Faulted,
            ops: vec![Op::Flush],
            failure: Failure {
                op_index: 0,
                invariant: "flush".to_owned(),
                detail: "x".to_owned(),
            },
            obs_snapshot: Some(snap.to_owned()),
            trace_path: Some("artifacts/seed-11-trace.json".to_owned()),
        };
        let text = artifact.to_json();
        let back = Artifact::from_json(&text).expect("parse back");
        assert_eq!(back, artifact);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn older_versions_are_rejected() {
        let document = |version: u64| {
            format!(
                r#"{{"version": {version}, "seed": 5, "mode": "cpu-only",
                "scenario": "fault-free", "failure": {{"op_index": 0,
                "invariant": "x", "detail": ""}},
                "ops": [{{"op": "flush"}}]}}"#
            )
        };
        for version in 0..VERSION {
            let err = Artifact::from_json(&document(version)).unwrap_err();
            assert!(err.contains("version"), "v{version}: {err}");
        }
        // The same document at the current version parses, optional
        // post-mortem fields absent.
        let artifact = Artifact::from_json(&document(VERSION)).expect("current version");
        assert_eq!(artifact.seed, 5);
        assert_eq!(artifact.obs_snapshot, None);
        assert_eq!(artifact.trace_path, None);
    }

    #[test]
    fn bad_documents_are_rejected_with_reasons() {
        assert!(Artifact::from_json("{}").is_err());
        assert!(Artifact::from_json("not json").is_err());
        let wrong_version = r#"{"version": 99, "seed": 0, "mode": "cpu-only",
            "scenario": "faulted", "failure": {"op_index": 0, "invariant": "x",
            "detail": ""}, "ops": []}"#;
        assert!(Artifact::from_json(wrong_version)
            .unwrap_err()
            .contains("version"));
        // A field wider than its type is refused, not truncated.
        for (op, field) in [
            (r#"{"op": "read", "vol": 256, "block": 0}"#, "vol"),
            (r#"{"op": "node-leave", "node": 300}"#, "node"),
        ] {
            let document = format!(
                r#"{{"version": {VERSION}, "seed": 0, "mode": "cpu-only",
                "scenario": "faulted", "failure": {{"op_index": 0,
                "invariant": "x", "detail": ""}}, "ops": [{op}]}}"#
            );
            let err = Artifact::from_json(&document).unwrap_err();
            assert!(
                err.contains(&format!("field '{field}' out of range")),
                "{op}: {err}"
            );
        }
    }
}
