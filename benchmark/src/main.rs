//! `dr-benchmark` — the repo benchmark (see README.md, BENCHMARK.json).
//!
//! ```text
//! dr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dr-benchmark [--seed <n>] [--seconds <s>]        # every workload, both modes
//! dr-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the driver's contract: one workload in this process,
//! a human-readable report on stdout, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! second form runs the first form for every workload in child processes
//! (so `peak_rss_mb` is per workload) and writes `out/result.json`, which
//! the third form compares.

mod affinity;
mod compare;
mod json;
mod measure;
mod metrics;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use measure::{Hooks, Rep};
use metrics::{Measured, TracedContext, END_TO_END, PER_LAYER};
use trace::Recorder;
use workloads::{Params, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Seed every generator derives from unless `--seed` says otherwise.
/// `0xC0FFEE` is held back: a performance claim must also hold on it, and
/// it is never used while developing a change.
const DEFAULT_SEED: u64 = 0x5EED;
const DEFAULT_SECONDS: f64 = 15.0;
/// Timed repetitions per run: never fewer (the prototype's 5-repetition
/// medians did not repeat within the bounds, its 7-repetition ones did),
/// never more (the driver's time cap).
const MIN_REPS: usize = 7;
const MAX_REPS: usize = 9;
/// Times the inputs are synthesized; `setup_s` takes the median.
const SYNTH_ROUNDS: usize = 5;
/// Marks the machine-readable detail line a single-workload run prints
/// before its final contract line.
const DETAIL_PREFIX: &str = "detail ";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    hooks: Hooks,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        hooks: Hooks::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_owned()),
            "--seed" => {
                out.seed =
                    parse_u64(value()?).ok_or("--seed takes an integer (decimal or 0x..)")?;
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                out.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => out.smoke = true,
            "--corrupt-model" => out.hooks.corrupt_model = true,
            "--cut-early" => out.hooks.cut_early = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("usage: dr-benchmark compare <a.json> <b.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    }
}

// ---------------------------------------------------------------------
// One workload, in this process.

/// Runs one repetition and folds the allocation counter's delta into it.
fn repetition(workload: &dyn Workload, observed: bool, rec: &mut Recorder) -> Rep {
    let before = trace::alloc_counts();
    rec.enter("repetition");
    let mut rep = workload.repetition(observed, rec);
    rec.exit();
    let after = trace::alloc_counts();
    rep.allocs = (after.0 - before.0, after.1 - before.1);
    rep
}

fn log_rep(label: &str, rep: &Rep) {
    println!(
        "  {label:<9} set-up {:6.3} s   write calls {:6.3} s   read calls {:6.3} s   \
         attempted {}  failed {}",
        rep.setup_s,
        rep.write_s(),
        rep.read_s(),
        rep.attempted,
        rep.failed
    );
    for failure in &rep.failures {
        println!("    FAILED: {failure}");
    }
}

/// Attempted / failed totals and the digest check across repetitions.
struct Outcome {
    attempted: u64,
    failed: u64,
    digest: String,
    digests_agree: bool,
}

fn outcome(reps: &[&Rep]) -> Outcome {
    let digests: Vec<String> = reps.iter().map(|r| metrics::sim_digest(r)).collect();
    let digests_agree = digests.windows(2).all(|w| w[0] == w[1]);
    if !digests_agree {
        println!("  FAILED: sim_digest differs between repetitions: {digests:?}");
    }
    Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        // A repetition that simulated something else is one more failed
        // operation: it fails the run like a wrong read-back does.
        failed: reps.iter().map(|r| r.failed).sum::<u64>() + u64::from(!digests_agree),
        digest: digests[0].clone(),
        digests_agree,
    }
}

impl Outcome {
    fn print(&self) {
        println!(
            "    ops_attempted {}  ops_failed {}  sim_digest {}",
            self.attempted, self.failed, self.digest
        );
    }

    /// The members every `detail` line starts with.
    fn detail_header(&self, name: &str, args: &Args) -> Vec<(&'static str, Json)> {
        vec![
            ("workload", Json::str(name)),
            ("trace", Json::Bool(args.traced)),
            ("seed", Json::str(format!("{:#x}", args.seed))),
            ("pool_workers", Json::Num(sut::pool_workers() as f64)),
            ("sim_digest", Json::str(self.digest.as_str())),
            ("sim_digests_agree", Json::Bool(self.digests_agree)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
        ]
    }
}

fn measured_json(unit: &str, m: &Measured) -> Json {
    Json::obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::str(unit)),
        ("q1", Json::Num(m.q1)),
        ("q3", Json::Num(m.q3)),
        ("n", Json::Num(m.n as f64)),
    ])
}

/// The contract's last line.
fn contract_line(v: &Outcome, metrics: Vec<(&str, &str, f64)>) -> String {
    Json::obj([
        ("correct", Json::Bool(v.failed == 0)),
        ("attempted", Json::Num(v.attempted.max(1) as f64)),
        ("failed", Json::Num(v.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, unit, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
    .render()
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    let params = Params {
        seed: args.seed,
        smoke: args.smoke,
        hooks: args.hooks,
    };
    println!(
        "== {name}  seed {:#x}  {}  pool_workers {}  host_parallelism {}{}",
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        sut::pool_workers(),
        sut::host_parallelism(),
        if args.smoke { "  (smoke)" } else { "" },
    );
    // Synthesis is the one-time part of `setup_s`; one sample of it would
    // be that metric's whole noise, so it is taken several times.
    let mut synth = Vec::new();
    let mut workload = None;
    for _ in 0..if args.smoke { 1 } else { SYNTH_ROUNDS } {
        drop(workload.take());
        let start = Instant::now();
        workload = workloads::prepare(name, &params);
        synth.push(start.elapsed().as_secs_f64());
    }
    let Some(workload) = workload else {
        eprintln!(
            "dr-benchmark: unknown workload {name:?} (expected one of {:?})",
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let synth_s = stats::median(&synth);
    println!(
        "  inputs and model synthesized in {synth_s:.3} s (median of {})",
        synth.len()
    );

    let mut off = Recorder::new(false);
    if !args.smoke {
        log_rep("warm-up", &repetition(workload.as_ref(), false, &mut off));
    }
    // Timed repetitions fill `--seconds`; the traced run spends half of
    // it on the untraced baseline its overhead figure needs.
    let (budget, min_reps) = match (args.smoke, args.traced) {
        (true, _) => (0.0, 1),
        (false, false) => (args.seconds, MIN_REPS),
        (false, true) => (args.seconds / 2.0, 2),
    };
    let measuring = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps
        || (reps.len() < MAX_REPS && measuring.elapsed().as_secs_f64() < budget)
    {
        let rep = repetition(workload.as_ref(), false, &mut off);
        log_rep(&format!("rep {}", reps.len() + 1), &rep);
        reps.push(rep);
    }

    let code = if args.traced {
        report_traced(name, args, workload.as_ref(), synth_s, &reps)
    } else {
        report_end_to_end(name, args, synth_s, &reps)
    };
    // Dropping the inputs is not part of any measurement.
    drop(workload);
    code
}

fn report_end_to_end(name: &str, args: &Args, synth_s: f64, reps: &[Rep]) -> ExitCode {
    let values = metrics::end_to_end(reps, synth_s);
    let v = outcome(&reps.iter().collect::<Vec<_>>());
    println!(
        "  end-to-end ({} timed repetitions, median [q1 .. q3]):",
        reps.len()
    );
    for (m, val) in END_TO_END.iter().zip(&values) {
        println!(
            "    {:<22} {:>14.4} {:<6} {:<6} [{:.4} .. {:.4}] n={}{}",
            m.name,
            val.value,
            m.unit,
            m.better.as_str(),
            val.q1,
            val.q3,
            val.n,
            if m.simulated {
                "  (simulated clock)"
            } else {
                ""
            },
        );
    }
    v.print();
    let mut detail = v.detail_header(name, args);
    detail.extend([
        ("repetitions", Json::Num(reps.len() as f64)),
        (
            "metrics",
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(&values)
                    .map(|(m, val)| (m.name, measured_json(m.unit, val))),
            ),
        ),
    ]);
    println!("{DETAIL_PREFIX}{}", Json::obj(detail).render());
    println!(
        "{}",
        contract_line(
            &v,
            END_TO_END
                .iter()
                .zip(&values)
                .map(|(m, val)| (m.name, m.unit, val.value))
                .collect(),
        )
    );
    exit_code(&v)
}

fn report_traced(
    name: &str,
    args: &Args,
    workload: &dyn Workload,
    synth_s: f64,
    untraced: &[Rep],
) -> ExitCode {
    let mut rec = Recorder::new(true);
    let mut traced = repetition(workload, true, &mut rec);
    log_rep("traced", &traced);
    let bare = workload.bare_replay(&mut traced, &mut rec);
    // Kernel probes over the workload's own chunks (at most 32 MiB of
    // them: each probe then takes tens of milliseconds, five rounds each).
    let sample = workload.probe_sample();
    let sample = &sample[..sample.len().min(32 << 20)];
    rec.enter("kernel_probes");
    let probes = sut::kernel_probes(sample, sut::pool_workers(), &mut |probe, body| {
        rec.enter(probe);
        body();
        rec.exit();
    });
    rec.exit();

    let call_s: Vec<f64> = untraced.iter().map(|r| r.write_s() + r.read_s()).collect();
    let cx = TracedContext {
        probes: &probes,
        synth_mb_s: workload.synth_bytes() as f64 / 1e6 / synth_s,
        untraced_call_s: stats::median(&call_s),
        bare: bare.as_ref(),
    };
    let values = metrics::per_layer(&traced, &cx);
    let all: Vec<&Rep> = untraced.iter().chain([&traced]).collect();
    let v = outcome(&all);

    println!("  per-layer (traced repetition; 0 = layer not on this workload's path):");
    for ((name, value), (_, unit, better)) in values.iter().zip(&PER_LAYER) {
        println!("    {name:<50} {value:>16.4} {unit:<9} {}", better.as_str());
    }
    v.print();
    let totals = rec.totals();
    println!("  benchmark-side spans (self = duration minus child spans):");
    for (span, t) in &totals {
        println!(
            "    {span:<32} n={:<8} total {:>10.3} ms   self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    let reads = traced.read_ns[0].len() + traced.read_ns[1].len();
    let mut layers = v.detail_header(name, args);
    layers.extend([
        (
            "call_samples",
            Json::obj([
                ("write", Json::Num(traced.write_ns.len() as f64)),
                ("read_hot", Json::Num(traced.read_ns[0].len() as f64)),
                ("read_cold", Json::Num(traced.read_ns[1].len() as f64)),
                (
                    "tail_percentile_write",
                    Json::Num(stats::tail_percentile(traced.write_ns.len())),
                ),
                (
                    "tail_percentile_read",
                    Json::Num(stats::tail_percentile(reads)),
                ),
            ]),
        ),
        (
            "metrics",
            Json::obj(
                values
                    .iter()
                    .zip(&PER_LAYER)
                    .map(|((name, value), (_, unit, better))| {
                        (
                            *name,
                            Json::obj([
                                ("value", Json::Num(*value)),
                                ("unit", Json::str(*unit)),
                                ("better", Json::str(better.as_str())),
                            ]),
                        )
                    }),
            ),
        ),
        (
            "spans",
            Json::obj(totals.iter().map(|(span, t)| {
                (
                    *span,
                    Json::obj([
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                    ]),
                )
            })),
        ),
    ]);
    let layers = Json::obj(layers).render();
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{name}.trace.json")),
                rec.chrome_trace(name),
            )
        })
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{name}.layers.json")),
                format!("{layers}\n"),
            )
        });
    match written {
        Ok(()) => println!(
            "  trace: {0}/{name}.trace.json (chrome://tracing, ui.perfetto.dev)   layers: {0}/{name}.layers.json",
            dir.display()
        ),
        Err(e) => println!("  trace files not written: {e}"),
    }
    println!("{DETAIL_PREFIX}{layers}");
    println!(
        "{}",
        contract_line(
            &v,
            values
                .iter()
                .zip(&PER_LAYER)
                .map(|((name, value), (_, unit, _))| (*name, *unit, *value))
                .collect(),
        )
    );
    exit_code(&v)
}

fn exit_code(v: &Outcome) -> ExitCode {
    if v.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Every workload, each in its own child process.

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dr-benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut runs = Vec::new();
    for traced in [false, true] {
        for name in workloads::NAMES {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(args.smoke.then_some("--smoke"))
                .args(args.hooks.corrupt_model.then_some("--corrupt-model"))
                .args(args.hooks.cut_early.then_some("--cut-early"))
                .stdin(Stdio::null())
                .stdout(Stdio::piped());
            // `output` waits for the child, so none outlives this loop.
            let output = match cmd.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("dr-benchmark: cannot run {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix(DETAIL_PREFIX) {
                    Some(text) => detail = json::parse(text).ok(),
                    // The contract line repeats the detail line; skip it.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            ok &= output.status.success();
            match detail {
                Some(detail) => runs.push(detail),
                None => {
                    eprintln!("dr-benchmark: {name} printed no result");
                    ok = false;
                }
            }
        }
    }
    let result = Json::obj([
        ("seed", Json::str(format!("{:#x}", args.seed))),
        ("runs", Json::Arr(runs)),
    ]);
    let path = out_dir().join("result.json");
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, result.render() + "\n"))
    {
        Ok(()) => println!(
            "result: {} (feed two of these to `compare`)",
            path.display()
        ),
        Err(e) => {
            eprintln!("dr-benchmark: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one workload failed verification");
        ExitCode::FAILURE
    }
}
