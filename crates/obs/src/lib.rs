//! Zero-dependency observability for the `inline-dr` pipeline.
//!
//! The paper's central claims are latency claims — a CPU index probe beats
//! a GPU probe because kernel-launch latency dominates; the scheduler
//! offloads only when cores saturate. Verifying (and later improving) any
//! of that requires *seeing* per-stage latency, router decisions, and GPU
//! batch occupancy, not just an end-of-run totals report. This crate is
//! that instrumentation layer, built on `std` alone:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars,
//! * [`Histogram`] — a log-bucketed latency histogram (8 sub-buckets per
//!   octave, ≤ 12.5 % relative error) with p50/p95/p99/max extraction,
//! * [`Span`] — an RAII wall-clock timer; [`StageObs`] pairs it with a
//!   simulated-time histogram so every pipeline stage reports both
//!   `<stage>.wall_ns` (host time actually spent) and `<stage>.sim_ns`
//!   (simulated device/CPU-model time charged),
//! * [`Registry`] — a named collection of metrics rendered as pretty text
//!   ([`Snapshot`]'s `Display`) or machine-readable JSON
//!   ([`Snapshot::to_json`], hand-rolled — no serde),
//! * [`ObsHandle`] — the cheap clonable handle threaded through every
//!   layer. A disabled handle ([`ObsHandle::disabled`]) reduces every
//!   operation to a branch on `None`; enabling observability never alters
//!   *simulated* time, so throughput numbers are identical either way.
//!
//! # Metric naming
//!
//! Names follow a `stage.metric` scheme: the stage prefix is the pipeline
//! layer (`chunking`, `hashing`, `index`, `router`, `gpu`, `compress`,
//! `destage`, `ssd`) and the suffix says what is measured and its unit
//! (`*_ns` histograms, `*_bytes` counters, bare nouns for event counts).
//!
//! # Example
//!
//! ```
//! use dr_obs::ObsHandle;
//!
//! let obs = ObsHandle::enabled("demo");
//! let stage = obs.stage("chunking");
//! {
//!     let _span = stage.span();       // wall-clock, recorded on drop
//!     stage.record_sim_ns(1_250);     // simulated cost, recorded explicitly
//! }
//! obs.counter("router.to_cpu").incr();
//! let snap = obs.snapshot().unwrap();
//! assert!(snap.to_json().contains("\"chunking.sim_ns\""));
//! ```

#![forbid(unsafe_code)]

pub mod hist;
pub mod metric;
pub mod profile;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use hist::Histogram;
pub use metric::{Counter, Gauge};
pub use profile::{profile, ProfileReport, TrackStat, WorkerStat};
pub use registry::{
    CounterHandle, GaugeHandle, HistogramHandle, ObsHandle, Registry, Span, StageObs,
};
pub use snapshot::{json_escape, merge_snapshots, snapshots_to_json, HistogramSummary, Snapshot};
pub use trace::{chrome_trace_json, trace_args, TraceEvent, TraceSink, Tracer, Track, WallSpan};
