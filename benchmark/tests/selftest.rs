//! Self-tests that drive the built `dr-benchmark` binary: the contract
//! with `BENCHMARK.json`, the smoke run, seed behaviour, and proof that
//! the verifier verifies.
//!
//! Only `smoke_runs_all_four_workloads` uses `--trace 1`, so only it
//! writes under `out/`; the tests can run in parallel.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::{Command, Output};
use std::time::{Duration, Instant};

use json::Json;

const WORKLOADS: [&str; 4] = [
    "bulk_ingest",
    "dedup_ingest",
    "read_mix",
    "cluster_small_ops",
];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dr-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The contract's last stdout line, parsed.
fn last_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("some output");
    json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

/// The machine-readable `detail` line.
fn detail(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .expect("a detail line");
    json::parse(detail).unwrap()
}

fn sim_digest(output: &Output) -> String {
    detail(output)["sim_digest"].as_str().unwrap().to_owned()
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or_else(|| panic!("no member {key:?}"))
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()[section]
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_owned(),
                m["unit"].as_str().unwrap().to_owned(),
            )
        })
        .collect()
}

fn emitted(output: &Output) -> Vec<(String, String)> {
    last_line(output)["metrics"]
        .members()
        .iter()
        .map(|(name, m)| (name.clone(), m["unit"].as_str().unwrap().to_owned()))
        .collect()
}

#[test]
fn emitted_names_equal_the_lists_in_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc["workloads"]
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let name_ok = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for (name, _) in declared("end_to_end").iter().chain(&declared("per_layer")) {
        assert!(name_ok(name), "{name}");
    }
    // Every workload prints every end-to-end metric untraced. (The
    // per-layer side is checked by the smoke test, the only traced one.)
    for workload in WORKLOADS {
        let out = bench(&["--workload", workload, "--smoke", "--trace", "0"]);
        assert!(out.status.success(), "{workload} failed");
        assert_eq!(emitted(&out), declared("end_to_end"), "{workload}");
        let line = last_line(&out);
        assert_eq!(line.members().len(), 4, "exactly four top-level keys");
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert_eq!(line["failed"].as_f64(), Some(0.0));
        assert!(line["attempted"].as_f64().unwrap() >= 1.0);
        // Pinning the client thread narrows what `available_parallelism`
        // reports; the pool width must still be the host's, to the end.
        let cpus = std::thread::available_parallelism().unwrap().get();
        assert_eq!(
            detail(&out)["pool_workers"].as_f64(),
            Some(cpus.min(4) as f64),
            "{workload}"
        );
    }
}

#[test]
fn smoke_runs_all_four_workloads() {
    let start = Instant::now();
    let out = bench(&["--smoke"]);
    let took = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke run failed:\n{stdout}");
    assert!(took < Duration::from_secs(10), "smoke took {took:?}");
    for workload in WORKLOADS {
        assert!(
            stdout.contains(&format!("== {workload} ")),
            "{workload} did not run"
        );
    }
    // It left a result file `compare` accepts, equal to itself.
    let result = concat!(env!("CARGO_MANIFEST_DIR"), "/out/result.json");
    let cmp = bench(&["compare", result, result]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "self-compare failed:\n{table}");
    assert!(!table.contains("worse"), "{table}");
    // And a traced run prints every per-layer metric.
    let traced = bench(&["--workload", "read_mix", "--smoke", "--trace", "1"]);
    assert!(traced.status.success());
    assert_eq!(emitted(&traced), declared("per_layer"));
}

#[test]
fn seeds_steer_the_simulated_result() {
    for workload in WORKLOADS {
        let run = |seed: &str| {
            let out = bench(&["--workload", workload, "--smoke", "--seed", seed]);
            assert!(out.status.success(), "{workload} seed {seed} failed");
            sim_digest(&out)
        };
        let a = run("7");
        assert_eq!(a, run("7"), "{workload}: same seed, different digest");
        assert_ne!(a, run("8"), "{workload}: different seeds, same digest");
        assert_eq!(a, run("0x7"), "{workload}: hex and decimal seeds differ");
    }
}

/// A failing run: non-zero exit, `correct: false`, `failed >= 1`.
fn assert_fails(args: &[&str]) {
    let out = bench(args);
    assert!(!out.status.success(), "{args:?} passed but must fail");
    let line = last_line(&out);
    assert_eq!(line["correct"].as_bool(), Some(false), "{args:?}");
    assert!(line["failed"].as_f64().unwrap() >= 1.0, "{args:?}");
}

#[test]
fn a_corrupt_model_fails_every_workload() {
    for workload in WORKLOADS {
        assert_fails(&["--workload", workload, "--smoke", "--corrupt-model"]);
    }
    // ... and the all-workloads command with it.
    assert!(!bench(&["--smoke", "--corrupt-model"]).status.success());
}

#[test]
fn an_early_power_cut_fails_the_durability_sweep() {
    assert_fails(&["--workload", "read_mix", "--smoke", "--cut-early"]);
    // The same run with the cut where the program promised it passes.
    assert!(bench(&["--workload", "read_mix", "--smoke"])
        .status
        .success());
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("\"metrics\"")
        );
    }
}

/// The `key = value` lines of one table of a manifest.
fn manifest_table(manifest: &str, table: &str) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != table)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap()
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_equals_the_roots() {
    let ours = manifest_table(
        concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
        "[profile.release]",
    );
    let roots = manifest_table(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"),
        "[profile.release]",
    );
    assert!(!roots.is_empty(), "the root manifest has a release profile");
    assert_eq!(ours, roots, "the benchmark must time the shipped build");
}
