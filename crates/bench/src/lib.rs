//! Shared harness utilities for the experiment binaries (`src/bin/`)
//! that regenerate every table and figure of the paper's evaluation.
//! Host-clock measurements live in the repo benchmark (`benchmark/`,
//! outside the workspace), not here.
//!
//! Experiment index (see `DESIGN.md` §4 and `EXPERIMENTS.md`):
//!
//! | binary | result |
//! |---|---|
//! | `e1_indexing_cpu_vs_gpu` | CPU indexing 4.16–5.45× faster than GPU |
//! | `e2_dedup_throughput` | GPU-assisted dedup +15%, 3× SSD |
//! | `e3_compress_throughput` | GPU compression ≈ +88.3%, always > SSD |
//! | `e4_fig2_integration` | Figure 2: four integration modes |
//! | `e5_calibration` | dummy-I/O probe picks the best mode |
//! | `e6_endurance` | background reduction wears the SSD more than none (the case for inline) |
//! | `e7_chunk_size_sweep` | chunk size vs throughput, dedup fineness and index RAM |
//! | `e8_read_path` | batched cold reads decoded on the CPU workers, hot re-reads from the chunk cache |
//! | `e9_cluster` | 1/2/4/8 nodes read back bit-identically; throughput scales out |
//! | `ablation_report` | the `DESIGN.md` §5 design-choice ablations |
//! | `fault_matrix` | injected / retried / degraded per mode × fault scenario, diffed against `fault_matrix.golden` |

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// Renders an aligned ASCII table: a header row plus data rows.
///
/// ```
/// use dr_bench::render_table;
/// let t = render_table(
///     &["mode", "iops"],
///     &[vec!["cpu".into(), "50000".into()], vec!["gpu".into(), "100000".into()]],
/// );
/// assert!(t.contains("cpu"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header width");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let rule: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let emit_row = |cells: &[String], out: &mut String| {
        let line = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:>w$} "))
            .collect::<Vec<_>>()
            .join("|");
        writeln!(out, "{line}").expect("writing to String cannot fail");
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    writeln!(out, "{rule}").unwrap();
    emit_row(&header_cells, &mut out);
    writeln!(out, "{rule}").unwrap();
    for row in rows {
        emit_row(row, &mut out);
    }
    writeln!(out, "{rule}").unwrap();
    out
}

/// Percentage change from `old` to `new` (positive = improvement).
pub fn pct_gain(new: f64, old: f64) -> f64 {
    (new / old - 1.0) * 100.0
}

/// Formats a throughput in thousands of IOPS ("83.4K").
pub fn kiops(iops: f64) -> String {
    format!("{:.1}K", iops / 1000.0)
}

/// The sum of the `fault.<component>.<tally>` counters in `obs` over
/// every component: `injected` (the device models), `retries` or
/// `degraded_transitions` (the guarded pipeline components). 0 when `obs`
/// is disabled.
pub fn fault_tally(obs: &dr_obs::ObsHandle, tally: &str) -> u64 {
    let suffix = format!(".{tally}");
    let snapshot = obs.snapshot().unwrap_or_default();
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("fault.") && name.ends_with(&suffix))
        .map(|(_, n)| n)
        .sum()
}

/// Writes an experiment's metrics-snapshot JSON and returns the path it
/// landed at.
///
/// The destination directory is `$DR_METRICS_OUT` when set, otherwise
/// `target/metrics/` under the current directory; the file is named
/// `<name>.json`. Pass the output of [`dr_obs::Snapshot::to_json`] or
/// [`dr_obs::snapshots_to_json`].
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk).
pub fn write_metrics_json(name: &str, json: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var_os("DR_METRICS_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/metrics"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// An experiment's `--trace <path>` (or `--trace=<path>`) argument: a
/// tracer that records only when the argument was passed, and the file
/// [`finish`] writes its events to. Everything else about an
/// experiment's CLI is env-driven.
pub struct Trace {
    path: Option<std::path::PathBuf>,
    tracer: dr_obs::Tracer,
}

impl Trace {
    /// Reads `--trace` from the process arguments.
    pub fn from_args() -> Trace {
        let mut path = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--trace" {
                path = args.next().map(std::path::PathBuf::from);
                break;
            }
            if let Some(p) = a.strip_prefix("--trace=") {
                path = Some(std::path::PathBuf::from(p));
                break;
            }
        }
        let tracer = match path {
            Some(_) => dr_obs::Tracer::enabled(),
            None => dr_obs::Tracer::disabled(),
        };
        Trace { path, tracer }
    }

    /// The tracer to hand the traced run; disabled without `--trace`.
    pub fn tracer(&self) -> dr_obs::Tracer {
        self.tracer.clone()
    }
}

/// The tail every experiment ends with: writes its metrics JSON (see
/// [`write_metrics_json`]) and prints `metrics: <path>` on stdout, then,
/// when `trace` was requested, writes the Chrome `trace_event` JSON and
/// prints the folded profiler report on **stderr** — stdout carries the
/// simulated results and must stay bit-identical whether tracing is on
/// or off. Failures to write are reported on stderr, not fatal.
pub fn finish(name: &str, metrics_json: &str, trace: Option<&Trace>) {
    match write_metrics_json(name, metrics_json) {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("metrics: write failed: {e}"),
    }
    let Some(trace) = trace else { return };
    let (Some(path), Some(sink)) = (&trace.path, trace.tracer.sink()) else {
        return;
    };
    let events = sink.drain();
    let dropped = sink.dropped();
    if let Err(e) = std::fs::write(path, dr_obs::chrome_trace_json(&events, dropped)) {
        eprintln!("trace: write failed: {e}");
        return;
    }
    eprint!("{}", dr_obs::profile(&events, dropped));
    eprintln!(
        "trace: {} events -> {} (open in chrome://tracing or ui.perfetto.dev)",
        events.len(),
        path.display()
    );
}

/// Reads an experiment scale factor from `DR_SCALE` (default 1.0): CI runs
/// use small streams; pass `DR_SCALE=4` for paper-sized runs.
pub fn scale() -> f64 {
    std::env::var("DR_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        // rule, header, rule, 2 rows, rule
        assert_eq!(lines.len(), 6);
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "{t}");
    }

    #[test]
    fn pct_gain_signs() {
        assert!((pct_gain(150.0, 100.0) - 50.0).abs() < 1e-9);
        assert!((pct_gain(75.0, 100.0) + 25.0).abs() < 1e-9);
    }

    #[test]
    fn kiops_format() {
        assert_eq!(kiops(83_400.0), "83.4K");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn metrics_json_lands_in_the_requested_directory() {
        let dir = std::env::temp_dir().join("dr-bench-metrics-test");
        // Exercise the default-path logic indirectly by setting the env
        // override for this test only (tests run in one process; use a
        // unique name to avoid cross-test interference on the variable).
        std::env::set_var("DR_METRICS_OUT", &dir);
        let path = write_metrics_json("unit", "{\"ok\":true}").expect("write");
        std::env::remove_var("DR_METRICS_OUT");
        assert_eq!(path, dir.join("unit.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
