//! Point-in-time metric snapshots with text and JSON rendering.

use std::fmt;

use crate::hist::Histogram;

/// The digest of one histogram at snapshot time.
///
/// All fields are zero when the histogram was empty (`count == 0`), so
/// downstream tooling never has to special-case nulls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact minimum sample.
    pub min: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Median (bucket-resolution, ≤ 12.5 % relative error).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Digests a live histogram.
    pub fn of(h: &Histogram) -> Self {
        if h.count() == 0 {
            return HistogramSummary::default();
        }
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            mean: h.mean().unwrap_or(0.0),
            p50: h.quantile(0.5).unwrap_or(0),
            p95: h.quantile(0.95).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
        }
    }
}

/// A point-in-time copy of a [`Registry`](crate::Registry): every metric's
/// name and value, each kind sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The registry label (e.g. the run or mode name).
    pub name: String,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram digests, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// Renders the snapshot as one JSON object.
    ///
    /// The serializer is hand-rolled (this crate depends on `std` alone):
    /// counters and gauges become `name: value` maps, histograms become a
    /// map of summary objects. Metric names pass through `json_escape`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"name\": \"");
        json_escape(&self.name, &mut out);
        out.push_str("\",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            json_escape(k, &mut out);
            out.push_str(&format!("\": {v}"));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            json_escape(k, &mut out);
            out.push_str(&format!("\": {v}"));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (k, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            json_escape(k, &mut out);
            out.push_str(&format!(
                "\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                s.count,
                s.sum,
                s.min,
                s.max,
                json_f64(s.mean),
                s.p50,
                s.p95,
                s.p99
            ));
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out
    }
}

/// Merges per-node snapshots into one namespaced report.
///
/// Every metric of part `p` reappears as `<p.name>.<metric>` (e.g.
/// `node3.destage.appends`), and metrics sharing a name across parts are
/// additionally aggregated under `<name>.<metric>` (e.g.
/// `cluster.destage.appends`). Counters and gauges sum. Histogram digests
/// sum `count`/`sum`, span `min`/`max`, recompute the mean, and take the
/// worst (max) per-part quantiles — exact merged quantiles cannot be
/// reconstructed from digests, so the aggregate quantiles are
/// deliberately conservative upper bounds.
///
/// The result keeps the per-kind sorted-by-name invariant of
/// [`Snapshot`], so existing report tooling (JSON rendering, text tables)
/// works unchanged on the merged view.
pub fn merge_snapshots(name: &str, parts: &[Snapshot]) -> Snapshot {
    use std::collections::BTreeMap;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, HistogramSummary> = BTreeMap::new();
    for part in parts {
        for (k, v) in &part.counters {
            counters.insert(format!("{}.{k}", part.name), *v);
            *counters.entry(format!("{name}.{k}")).or_insert(0) += *v;
        }
        for (k, v) in &part.gauges {
            gauges.insert(format!("{}.{k}", part.name), *v);
            *gauges.entry(format!("{name}.{k}")).or_insert(0) += *v;
        }
        for (k, s) in &part.histograms {
            histograms.insert(format!("{}.{k}", part.name), *s);
            let agg = histograms.entry(format!("{name}.{k}")).or_default();
            *agg = merge_histogram_summaries(agg, s);
        }
    }
    Snapshot {
        name: name.to_owned(),
        counters: counters.into_iter().collect(),
        gauges: gauges.into_iter().collect(),
        histograms: histograms.into_iter().collect(),
    }
}

/// Combines two histogram digests: exact for `count`/`sum`/`min`/`max`/
/// `mean`, conservative (max) for the quantiles.
fn merge_histogram_summaries(a: &HistogramSummary, b: &HistogramSummary) -> HistogramSummary {
    if a.count == 0 {
        return *b;
    }
    if b.count == 0 {
        return *a;
    }
    let count = a.count + b.count;
    let sum = a.sum + b.sum;
    HistogramSummary {
        count,
        sum,
        min: a.min.min(b.min),
        max: a.max.max(b.max),
        mean: sum as f64 / count as f64,
        p50: a.p50.max(b.p50),
        p95: a.p95.max(b.p95),
        p99: a.p99.max(b.p99),
    }
}

/// Renders several snapshots (one per run/mode) as a JSON array.
pub fn snapshots_to_json(snapshots: &[Snapshot]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in snapshots.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&s.to_json());
    }
    out.push_str("\n]");
    out
}

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters). Shared with the trace writer and the
/// checker's replay artifacts.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// An `f64` as a JSON number: finite values print plainly, non-finite
/// values (which JSON cannot express) degrade to 0.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Keep a decimal point so the field parses as a float everywhere.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        "0.0".to_string()
    }
}

impl fmt::Display for Snapshot {
    /// Pretty text rendering: aligned `name value` lines per section, and
    /// a `count/mean/p50/p95/p99/max` line per histogram.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== metrics: {} ===", self.name)?;
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (k, v) in &self.counters {
                writeln!(f, "  {k:<width$}  {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (k, v) in &self.gauges {
                writeln!(f, "  {k:<width$}  {v}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (k, s) in &self.histograms {
                writeln!(
                    f,
                    "  {k:<width$}  n={} mean={:.1} p50={} p95={} p99={} max={}",
                    s.count, s.mean, s.p50, s.p95, s.p99, s.max
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsHandle;

    fn sample_snapshot() -> Snapshot {
        let obs = ObsHandle::enabled("test-run");
        obs.counter("router.to_cpu").add(7);
        obs.gauge("index.resident_bins").set(-3);
        let h = obs.histogram("index.probe_sim_ns");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        obs.snapshot().unwrap()
    }

    #[test]
    fn json_has_all_sections_and_fields() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"name\": \"test-run\""));
        assert!(json.contains("\"router.to_cpu\": 7"));
        assert!(json.contains("\"index.resident_bins\": -3"));
        assert!(json.contains("\"index.probe_sim_ns\""));
        for field in ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"] {
            assert!(json.contains(&format!("\"{field}\": ")), "missing {field}");
        }
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut out = String::new();
        json_escape("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn json_floats_are_always_floats() {
        assert_eq!(json_f64(20.0), "20.0");
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
        assert!(json_f64(1.25).starts_with("1.25"));
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let snap = Snapshot {
            name: "empty".into(),
            ..Snapshot::default()
        };
        let json = snap.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(HistogramSummary::of(&h), HistogramSummary::default());
    }

    #[test]
    fn snapshots_array_wraps_each_object() {
        let a = sample_snapshot();
        let mut b = sample_snapshot();
        b.name = "second".into();
        let json = snapshots_to_json(&[a, b]);
        assert!(json.starts_with("[\n{"));
        assert!(json.ends_with("}\n]"));
        assert!(json.contains("\"test-run\""));
        assert!(json.contains("\"second\""));
    }

    fn node_snapshot(name: &str, appends: u64, lat: &[u64]) -> Snapshot {
        let obs = ObsHandle::enabled(name);
        obs.counter("destage.appends").add(appends);
        obs.gauge("index.resident_bins").set(appends as i64);
        let h = obs.histogram("read.latency_sim_ns");
        for &v in lat {
            h.record(v);
        }
        obs.snapshot().unwrap()
    }

    #[test]
    fn merged_snapshot_namespaces_and_aggregates() {
        let parts = [
            node_snapshot("node0", 3, &[100, 200]),
            node_snapshot("node1", 5, &[400]),
        ];
        let merged = merge_snapshots("cluster", &parts);
        assert_eq!(merged.name, "cluster");
        let counter = |k: &str| {
            merged
                .counters
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("node0.destage.appends"), Some(3));
        assert_eq!(counter("node1.destage.appends"), Some(5));
        assert_eq!(counter("cluster.destage.appends"), Some(8));
        let gauge = |k: &str| merged.gauges.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(gauge("cluster.index.resident_bins"), Some(8));
        let hist = |k: &str| {
            merged
                .histograms
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, s)| *s)
        };
        let agg = hist("cluster.read.latency_sim_ns").unwrap();
        assert_eq!(agg.count, 3);
        assert_eq!(agg.sum, 700);
        assert!(agg.min <= 100 + 100 / 8, "bucketed min near 100");
        assert!(agg.max >= 400, "max spans both parts");
        assert!(
            agg.p99 >= hist("node0.read.latency_sim_ns").unwrap().p99,
            "aggregate quantiles are conservative"
        );
    }

    #[test]
    fn merged_snapshot_stays_sorted_and_renders() {
        let parts = [
            node_snapshot("node1", 1, &[10]),
            node_snapshot("node0", 2, &[20]),
        ];
        let merged = merge_snapshots("cluster", &parts);
        for w in merged.counters.windows(2) {
            assert!(w[0].0 < w[1].0, "counters sorted: {} vs {}", w[0].0, w[1].0);
        }
        for w in merged.histograms.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        let json = merged.to_json();
        assert!(json.contains("\"cluster.destage.appends\": 3"));
        assert!(json.contains("\"node0.destage.appends\": 2"));
    }

    #[test]
    fn merging_empty_summary_is_identity() {
        let s = HistogramSummary {
            count: 2,
            sum: 10,
            min: 4,
            max: 6,
            mean: 5.0,
            p50: 5,
            p95: 6,
            p99: 6,
        };
        assert_eq!(
            merge_histogram_summaries(&HistogramSummary::default(), &s),
            s
        );
        assert_eq!(
            merge_histogram_summaries(&s, &HistogramSummary::default()),
            s
        );
    }

    #[test]
    fn display_lists_every_metric() {
        let text = sample_snapshot().to_string();
        assert!(text.contains("=== metrics: test-run ==="));
        assert!(text.contains("router.to_cpu"));
        assert!(text.contains("index.resident_bins"));
        assert!(text.contains("index.probe_sim_ns"));
        assert!(text.contains("p95="));
    }
}
