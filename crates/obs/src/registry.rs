//! The metric registry and the `ObsHandle` threaded through the pipeline.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;
use crate::metric::{Counter, Gauge};
use crate::snapshot::{HistogramSummary, Snapshot};
use crate::trace::Tracer;

/// A named collection of metrics.
///
/// Metrics are created on first use and live for the registry's lifetime;
/// handles returned by the accessors are `Arc`s, so the hot path touches
/// only the atomic itself — the registry lock is paid once per metric
/// name, at wiring time.
#[derive(Debug, Default)]
pub struct Registry {
    name: String,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry labelled `name` (the label lands in the
    /// snapshot, so multi-run reports can tell runs apart).
    pub fn new(name: impl Into<String>) -> Self {
        Registry {
            name: name.into(),
            ..Registry::default()
        }
    }

    /// The registry label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The counter called `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge called `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram called `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A point-in-time copy of every metric, ready for rendering.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSummary::of(v)))
            .collect();
        Snapshot {
            name: self.name.clone(),
            counters,
            gauges,
            histograms,
        }
    }
}

/// The observability handle every instrumented component holds.
///
/// Cloning is one `Option<Arc>` copy. The default handle is disabled:
/// every metric accessor then returns an inert handle whose operations
/// compile down to a branch on `None` — instrumentation costs nothing
/// when nobody is watching.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    registry: Option<Arc<Registry>>,
    tracer: Tracer,
}

impl ObsHandle {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Self {
        ObsHandle::default()
    }

    /// A handle backed by a fresh registry labelled `name`.
    pub fn enabled(name: impl Into<String>) -> Self {
        ObsHandle {
            registry: Some(Arc::new(Registry::new(name))),
            tracer: Tracer::disabled(),
        }
    }

    /// A handle sharing an existing registry.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        ObsHandle {
            registry: Some(registry),
            tracer: Tracer::disabled(),
        }
    }

    /// The same handle with `tracer` attached. Components pick the
    /// tracer up through their existing `set_obs` wiring, so attaching
    /// it before building a pipeline traces the whole stack.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The event tracer carried by this handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True when metrics are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// An interned counter handle; inert when disabled.
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle(self.registry.as_ref().map(|r| r.counter(name)))
    }

    /// An interned gauge handle; inert when disabled.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        GaugeHandle(self.registry.as_ref().map(|r| r.gauge(name)))
    }

    /// An interned histogram handle; inert when disabled.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.registry.as_ref().map(|r| r.histogram(name)))
    }

    /// The wall + simulated histogram pair for a pipeline stage:
    /// `<stage>.wall_ns` and `<stage>.sim_ns`.
    pub fn stage(&self, stage: &str) -> StageObs {
        StageObs {
            wall: self.histogram(&format!("{stage}.wall_ns")),
            sim: self.histogram(&format!("{stage}.sim_ns")),
        }
    }

    /// Starts a wall-clock span recording into `<name>.wall_ns` on drop.
    pub fn span(&self, name: &str) -> Span {
        self.histogram(&format!("{name}.wall_ns")).span()
    }

    /// Renders a snapshot; `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }
}

/// A counter bound to one metric name (or to nothing, when disabled).
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<Counter>>);

impl CounterHandle {
    /// Adds `n`; no-op when disabled.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }

    /// Adds one; no-op when disabled.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value; 0 when disabled.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A gauge bound to one metric name (or to nothing, when disabled).
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Option<Arc<Gauge>>);

impl GaugeHandle {
    /// Sets the level; no-op when disabled.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Raises the level; no-op when disabled.
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.add(n);
        }
    }

    /// Lowers the level; no-op when disabled.
    pub fn sub(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.sub(n);
        }
    }

    /// Current level; 0 when disabled.
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }
}

/// A histogram bound to one metric name (or to nothing, when disabled).
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// True when bound to a live histogram (lets callers skip loops that
    /// would only feed no-ops).
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample; no-op when disabled.
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Starts a wall-clock span recording into this histogram on drop.
    /// A disabled handle's span reads no clock.
    pub fn span(&self) -> Span {
        Span {
            hist: self.clone(),
            start: self.is_live().then(Instant::now),
        }
    }

    /// Samples recorded; 0 when disabled.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count())
    }
}

/// The wall + simulated-time histogram pair for one pipeline stage.
///
/// Wall time is what the host actually spent (measured by [`Span`]);
/// simulated time is what the cost models charged on the `SimTime`
/// timeline — the number the paper's throughput claims are about. They
/// are recorded independently because simulated durations are computed,
/// not measured.
#[derive(Debug, Clone, Default)]
pub struct StageObs {
    /// `<stage>.wall_ns` — measured host time.
    pub wall: HistogramHandle,
    /// `<stage>.sim_ns` — simulated time charged by the cost models.
    pub sim: HistogramHandle,
}

impl StageObs {
    /// Starts a wall-clock span for this stage.
    pub fn span(&self) -> Span {
        self.wall.span()
    }

    /// Records a simulated duration, in nanoseconds.
    pub fn record_sim_ns(&self, ns: u64) {
        self.sim.record(ns);
    }
}

/// An RAII wall-clock timer: records the elapsed nanoseconds into its
/// histogram when dropped (or earlier, via [`Span::finish`]).
#[derive(Debug)]
pub struct Span {
    hist: HistogramHandle,
    /// `None` once recorded, and from the start when `hist` is disabled.
    start: Option<Instant>,
}

impl Span {
    /// Ends the span now and records it.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.hist.record(ns);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = ObsHandle::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        obs.gauge("g").set(7);
        obs.histogram("h").record(1);
        let stage = obs.stage("s");
        stage.record_sim_ns(9);
        drop(stage.span());
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn metrics_intern_by_name() {
        let obs = ObsHandle::enabled("t");
        obs.counter("a.b").add(2);
        obs.counter("a.b").add(3);
        assert_eq!(obs.counter("a.b").get(), 5);
        obs.gauge("g").add(4);
        obs.gauge("g").sub(1);
        assert_eq!(obs.gauge("g").get(), 3);
    }

    #[test]
    fn span_records_on_drop_and_on_finish() {
        let obs = ObsHandle::enabled("t");
        {
            let _s = obs.span("stage");
        }
        obs.span("stage").finish();
        let h = obs.histogram("stage.wall_ns");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn stage_pairs_wall_and_sim() {
        let obs = ObsHandle::enabled("t");
        let stage = obs.stage("chunking");
        stage.record_sim_ns(1_000);
        drop(stage.span());
        let snap = obs.snapshot().unwrap();
        let names: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"chunking.sim_ns"));
        assert!(names.contains(&"chunking.wall_ns"));
    }

    #[test]
    fn snapshot_is_ordered_and_labelled() {
        let obs = ObsHandle::enabled("run-1");
        obs.counter("b").incr();
        obs.counter("a").incr();
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.name, "run-1");
        assert_eq!(snap.counters[0].0, "a");
        assert_eq!(snap.counters[1].0, "b");
    }

    #[test]
    fn shared_registry_merges_views() {
        let reg = Arc::new(Registry::new("shared"));
        let a = ObsHandle::with_registry(Arc::clone(&reg));
        let b = ObsHandle::with_registry(Arc::clone(&reg));
        a.counter("n").incr();
        b.counter("n").incr();
        assert_eq!(reg.counter("n").get(), 2);
    }
}
