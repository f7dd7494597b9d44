//! `dr-benchmark compare <a.json> <b.json>`: one row per (workload,
//! end-to-end metric) of two `out/result.json` files, `a` the base.

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either side's quartile spread exceeds the metric's bound, so a
    /// difference within it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// Judges `new` against `base`. `exact` (simulated metrics of equal
/// seeds) turns any difference into better / worse; otherwise the
/// metric's bound decides, and a spread beyond it leaves the row
/// unresolved.
pub fn judge(m: &EndToEnd, base: Reading, new: Reading, exact: bool) -> Verdict {
    let gain = match m.better {
        Better::Higher => new.value / base.value - 1.0,
        Better::Lower => 1.0 - new.value / base.value,
    };
    if exact {
        return match gain {
            g if g > 0.0 => Verdict::Better,
            g if g < 0.0 => Verdict::Worse,
            _ => Verdict::Same,
        };
    }
    if base.spread() > m.bound || new.spread() > m.bound {
        Verdict::Unresolved
    } else if gain < -m.bound {
        Verdict::Worse
    } else if gain > m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The untraced run of `workload` in a result file.
fn end_to_end_run<'a>(result: &'a Json, workload: &str) -> Option<&'a Json> {
    result.get("runs")?.as_arr()?.iter().find(|run| {
        run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("trace").and_then(Json::as_bool) == Some(false)
    })
}

fn reading(run: &Json, metric: &str) -> Option<Reading> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

fn failed_share(run: &Json) -> Option<(f64, f64)> {
    Some((
        run.get("ops_failed")?.as_f64()?,
        run.get("ops_attempted")?.as_f64()?,
    ))
}

pub fn run(a: &str, b: &str) -> ExitCode {
    let (base, new) = match (load(a), load(b)) {
        (Ok(base), Ok(new)) => (base, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let same_seed = base.get("seed").is_some() && base.get("seed") == new.get("seed");
    if !same_seed {
        println!("seeds differ: simulated metrics are judged by their bounds, digests not at all");
    }
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    let mut failed = false;
    for workload in crate::workloads::NAMES {
        let (Some(base_run), Some(new_run)) = (
            end_to_end_run(&base, workload),
            end_to_end_run(&new, workload),
        ) else {
            println!("{workload:<18} missing from one side");
            failed = true;
            continue;
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (reading(base_run, m.name), reading(new_run, m.name)) else {
                println!("{workload:<18} {:<22} missing from one side", m.name);
                failed = true;
                continue;
            };
            let verdict = judge(m, x, y, m.simulated && same_seed);
            failed |= verdict == Verdict::Worse;
            println!(
                "{workload:<18} {:<22} {:>14.4} {:>14.4} {:>8.4}  {}",
                m.name,
                x.value,
                y.value,
                y.value / x.value,
                verdict.as_str()
            );
        }
        if same_seed {
            let digest = |run: &Json| {
                run.get("sim_digest")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            };
            let (x, y) = (digest(base_run), digest(new_run));
            let equal = x.is_some() && x == y;
            // A changed simulated result is never noise.
            failed |= !equal;
            println!(
                "{workload:<18} {:<22} {:>14.12} {:>14.12} {:>8}  {}",
                "sim_digest",
                x.unwrap_or_default(),
                y.unwrap_or_default(),
                "",
                if equal {
                    "same"
                } else {
                    "worse (simulated behaviour changed)"
                }
            );
        }
        match (failed_share(base_run), failed_share(new_run)) {
            (Some((fa, na)), Some((fb, nb))) => {
                println!(
                    "{workload:<18} {:<22} {:>14} {:>14}",
                    "ops_failed/attempted",
                    format!("{fa}/{na}"),
                    format!("{fb}/{nb}")
                );
                failed |= fb / nb > fa / na;
            }
            _ => failed = true,
        }
    }
    if failed {
        println!("FAILED: a metric is worse, a digest changed, or more operations failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Reading {
        Reading {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
        }
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn host_metrics_are_judged_by_their_bound() {
        let ingest = metric("ingest_mb_s"); // higher is better
        let at = |gain: f64| tight(100.0 * (1.0 + gain * ingest.bound));
        assert_eq!(judge(ingest, at(0.0), at(-0.8), false), Verdict::Same);
        assert_eq!(judge(ingest, at(0.0), at(-1.2), false), Verdict::Worse);
        assert_eq!(judge(ingest, at(0.0), at(1.2), false), Verdict::Better);
        let setup = metric("setup_s"); // lower is better
        let at = |gain: f64| tight(1.0 + gain * setup.bound);
        assert_eq!(judge(setup, at(0.0), at(0.8), false), Verdict::Same);
        assert_eq!(judge(setup, at(0.0), at(1.2), false), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let ingest = metric("ingest_mb_s");
        let noisy = Reading {
            value: 100.0,
            q1: 100.0 * (1.0 - ingest.bound),
            q3: 105.0,
        };
        assert_eq!(
            judge(ingest, noisy, tight(50.0), false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(ingest, tight(100.0), noisy, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn simulated_metrics_compare_exactly() {
        let kiops = metric("sim_write_kiops");
        let once = |v| Reading {
            value: v,
            q1: v,
            q3: v,
        };
        assert_eq!(judge(kiops, once(80.0), once(80.0), true), Verdict::Same);
        assert_eq!(judge(kiops, once(80.0), once(79.999), true), Verdict::Worse);
        assert_eq!(
            judge(kiops, once(80.0), once(80.001), true),
            Verdict::Better
        );
        let mean = metric("sim_read_mean_us"); // lower is better
        assert_eq!(judge(mean, once(100.0), once(100.5), true), Verdict::Worse);
    }
}
