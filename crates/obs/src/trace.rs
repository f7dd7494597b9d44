//! dr-trace: structured event tracing with Chrome `trace_event` export.
//!
//! Counters and histograms (the rest of this crate) answer *how much*;
//! tracing answers *when*. A [`TraceEvent`] is a span or an instant on one
//! [`Track`], where a track is a (process, thread) pair in the Chrome
//! trace model:
//!
//! * **host (wall-clock)** — the driver thread and each pool worker, on
//!   the host's wall-clock axis. Spans here are measured with
//!   [`Instant`], exactly like [`Span`](crate::Span).
//! * **pipeline (sim-time)** — one track per reduction stage (chunk,
//!   hash, index, route, compress, destage) plus a fault track, on the
//!   *simulated* timeline. Spans here are computed from `SimTime`
//!   grants, never measured.
//! * **devices (sim-time)** — GPU compute, GPU copy engine, and SSD
//!   program/read activity, also on the simulated timeline.
//!
//! Keeping wall and sim events in separate trace processes means
//! chrome://tracing / Perfetto renders them as separate track groups and
//! never tries to align the two unrelated time axes.
//!
//! Events are recorded into a [`TraceSink`]: a set of fixed-capacity
//! shards, one mutex each, with the shard chosen per-thread so pool
//! workers almost never contend. The buffers are preallocated once; when
//! a shard fills, new events are **dropped and counted** — the hot path
//! never reallocates. [`chrome_trace_json`] renders the drained events as
//! a Chrome `trace_event` JSON object loadable in chrome://tracing or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! A disabled [`Tracer`] (the default) reduces every operation to a
//! branch on `None`, mirroring [`ObsHandle`](crate::ObsHandle): tracing
//! never alters simulated time, so enabling it leaves simulated results
//! bit-identical.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::json_escape;

/// Default total event capacity of a [`TraceSink`] (spread over shards).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 17;

/// Shard count: enough that the driver plus a full-width pool rarely
/// collide on one mutex.
const SHARDS: usize = 16;

/// Maximum named `u64` arguments carried inline by one event.
pub const MAX_ARGS: usize = 2;

/// One timeline in the trace: a (process, thread) pair in the Chrome
/// model, with the process choosing the time axis (wall vs sim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The thread that drives the pipeline (wall-clock axis).
    Driver,
    /// Pool worker `w` (wall-clock axis).
    Worker(u16),
    /// Chunking stage (sim axis).
    Chunk,
    /// Hashing stage (sim axis).
    Hash,
    /// Dedup index probe stage (sim axis).
    Index,
    /// Router decisions (sim axis).
    Route,
    /// Compression stage (sim axis).
    Compress,
    /// Destage / write-back stage (sim axis).
    Destage,
    /// Degrade-latch transitions and fault retries (sim axis).
    Fault,
    /// Read-path batches (sim axis).
    Read,
    /// Metadata-journal appends, checkpoints, and recovery replay (sim
    /// axis).
    Journal,
    /// GPU compute queue occupancy (sim axis).
    GpuCompute,
    /// GPU copy-engine occupancy (sim axis).
    GpuCopy,
    /// SSD program/read occupancy (sim axis).
    Ssd,
}

/// The three trace processes (track groups). The numeric values are the
/// Chrome `pid`s.
const HOST_PID: u64 = 1;
const PIPELINE_PID: u64 = 2;
const DEVICE_PID: u64 = 3;

impl Track {
    /// The Chrome process id: 1 = host (wall), 2 = pipeline (sim),
    /// 3 = devices (sim).
    pub fn pid(self) -> u64 {
        match self {
            Track::Driver | Track::Worker(_) => HOST_PID,
            Track::Chunk
            | Track::Hash
            | Track::Index
            | Track::Route
            | Track::Compress
            | Track::Destage
            | Track::Fault
            | Track::Read
            | Track::Journal => PIPELINE_PID,
            Track::GpuCompute | Track::GpuCopy | Track::Ssd => DEVICE_PID,
        }
    }

    /// The Chrome thread id within [`Track::pid`].
    pub fn tid(self) -> u64 {
        match self {
            Track::Driver => 0,
            Track::Worker(w) => 1 + w as u64,
            Track::Chunk => 0,
            Track::Hash => 1,
            Track::Index => 2,
            Track::Route => 3,
            Track::Compress => 4,
            Track::Destage => 5,
            Track::Fault => 6,
            Track::Read => 7,
            Track::Journal => 8,
            Track::GpuCompute => 0,
            Track::GpuCopy => 1,
            Track::Ssd => 2,
        }
    }

    /// True when this track's timestamps are simulated time, not wall
    /// time.
    pub fn is_sim(self) -> bool {
        self.pid() != HOST_PID
    }

    /// The display name of the track's process (track group).
    pub fn process_name(self) -> &'static str {
        match self.pid() {
            HOST_PID => "host (wall-clock)",
            PIPELINE_PID => "pipeline (sim-time)",
            _ => "devices (sim-time)",
        }
    }

    /// The display name of the track itself.
    pub fn thread_name(self) -> Cow<'static, str> {
        match self {
            Track::Driver => Cow::Borrowed("driver"),
            Track::Worker(w) => Cow::Owned(format!("worker-{w}")),
            Track::Chunk => Cow::Borrowed("chunk"),
            Track::Hash => Cow::Borrowed("hash"),
            Track::Index => Cow::Borrowed("index"),
            Track::Route => Cow::Borrowed("route"),
            Track::Compress => Cow::Borrowed("compress"),
            Track::Destage => Cow::Borrowed("destage"),
            Track::Fault => Cow::Borrowed("fault"),
            Track::Read => Cow::Borrowed("read"),
            Track::Journal => Cow::Borrowed("journal"),
            Track::GpuCompute => Cow::Borrowed("gpu-compute"),
            Track::GpuCopy => Cow::Borrowed("gpu-copy"),
            Track::Ssd => Cow::Borrowed("ssd"),
        }
    }
}

/// Named `u64` arguments carried by an event (unused slots are `None`).
pub type TraceArgs = [Option<(&'static str, u64)>; MAX_ARGS];

/// Builds a [`TraceArgs`] from up to [`MAX_ARGS`] `(key, value)` pairs.
pub fn trace_args(pairs: &[(&'static str, u64)]) -> TraceArgs {
    let mut out: TraceArgs = [None; MAX_ARGS];
    for (slot, pair) in out.iter_mut().zip(pairs.iter()) {
        *slot = Some(*pair);
    }
    out
}

/// One recorded span or instant.
///
/// `ts_ns` is nanoseconds on the track's axis: wall time since the
/// sink's epoch for host tracks, simulated time for sim tracks. A
/// `dur_ns` of `None` marks an instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The timeline this event belongs to.
    pub track: Track,
    /// The event label (static for hot-path events; owned only for
    /// dynamic names like GPU kernel labels, cloned only when enabled).
    pub name: Cow<'static, str>,
    /// Start timestamp in nanoseconds on the track's axis.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; `None` for instant events.
    pub dur_ns: Option<u64>,
    /// Up to [`MAX_ARGS`] named integer arguments.
    pub args: TraceArgs,
}

/// One fixed-capacity event buffer guarded by its own mutex.
#[derive(Debug)]
struct Shard {
    events: Mutex<Vec<TraceEvent>>,
}

/// The bounded, sharded event sink shared by every [`Tracer`] clone.
#[derive(Debug)]
pub struct TraceSink {
    /// Wall-clock zero for every host-track timestamp.
    epoch: Instant,
    shards: Box<[Shard]>,
    per_shard: usize,
    dropped: AtomicU64,
}

/// Picks a stable shard for the calling thread. Threads get sequential
/// ids on first use, so up to [`SHARDS`] concurrent threads never share
/// a shard mutex.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v % SHARDS
    })
}

impl TraceSink {
    /// Creates a sink holding at most `capacity` events in total; every
    /// shard's buffer is preallocated here, so recording never grows an
    /// allocation.
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        let shards = (0..SHARDS)
            .map(|_| Shard {
                events: Mutex::new(Vec::with_capacity(per_shard)),
            })
            .collect();
        TraceSink {
            epoch: Instant::now(),
            shards,
            per_shard,
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds of wall time since this sink's epoch.
    pub fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records one event; drops it (and counts the drop) when the calling
    /// thread's shard is full.
    pub fn record(&self, event: TraceEvent) {
        let shard = &self.shards[thread_shard()];
        let mut buf = shard.events.lock().expect("trace shard lock");
        if buf.len() < self.per_shard {
            buf.push(event);
        } else {
            drop(buf);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped because their shard was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.events.lock().expect("trace shard lock").len())
            .sum()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every buffered event out of the sink, sorted by track and
    /// timestamp (a deterministic order for rendering and reports). The
    /// sink stays usable afterwards.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            out.append(&mut shard.events.lock().expect("trace shard lock"));
        }
        out.sort_by(|a, b| {
            (a.track.pid(), a.track.tid(), a.ts_ns, &a.name).cmp(&(
                b.track.pid(),
                b.track.tid(),
                b.ts_ns,
                &b.name,
            ))
        });
        out
    }
}

/// The cheap clonable tracing handle threaded through the stack inside
/// [`ObsHandle`](crate::ObsHandle). Disabled (the default) it is a
/// `None` branch; enabled, all clones share one [`TraceSink`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<TraceSink>>,
}

impl Tracer {
    /// A tracer that records nothing (the default).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer backed by a fresh sink with the default capacity.
    pub fn enabled() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer backed by a fresh sink holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            sink: Some(Arc::new(TraceSink::new(capacity))),
        }
    }

    /// True when events are being recorded. Callers building dynamic
    /// event names (e.g. kernel labels) should gate the allocation on
    /// this.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The backing sink, when enabled.
    pub fn sink(&self) -> Option<&Arc<TraceSink>> {
        self.sink.as_ref()
    }

    /// Starts a wall-clock span on `track`; the span records itself when
    /// dropped (or via [`WallSpan::finish`]).
    pub fn wall_span(&self, track: Track, name: impl Into<Cow<'static, str>>) -> WallSpan {
        match &self.sink {
            None => WallSpan {
                sink: None,
                track,
                name: Cow::Borrowed(""),
                start_ns: 0,
                args: [None; MAX_ARGS],
            },
            Some(sink) => WallSpan {
                start_ns: sink.wall_ns(),
                sink: Some(Arc::clone(sink)),
                track,
                name: name.into(),
                args: [None; MAX_ARGS],
            },
        }
    }

    /// Records an instant on a wall-clock track, stamped now.
    pub fn wall_instant(&self, track: Track, name: &'static str, args: TraceArgs) {
        if let Some(sink) = &self.sink {
            let ts_ns = sink.wall_ns();
            sink.record(TraceEvent {
                track,
                name: Cow::Borrowed(name),
                ts_ns,
                dur_ns: None,
                args,
            });
        }
    }

    /// Records a simulated-time span `[start_ns, end_ns)` on `track`.
    /// Inverted intervals clamp to zero duration.
    pub fn sim_span(
        &self,
        track: Track,
        name: impl Into<Cow<'static, str>>,
        start_ns: u64,
        end_ns: u64,
        args: TraceArgs,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                track,
                name: name.into(),
                ts_ns: start_ns,
                dur_ns: Some(end_ns.saturating_sub(start_ns)),
                args,
            });
        }
    }

    /// Records an instant at simulated time `ts_ns` on `track`.
    pub fn sim_instant(&self, track: Track, name: &'static str, ts_ns: u64, args: TraceArgs) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                track,
                name: Cow::Borrowed(name),
                ts_ns,
                dur_ns: None,
                args,
            });
        }
    }
}

/// An RAII wall-clock trace span: emits a complete event covering its
/// lifetime when dropped. The disabled variant does nothing.
#[derive(Debug)]
pub struct WallSpan {
    sink: Option<Arc<TraceSink>>,
    track: Track,
    name: Cow<'static, str>,
    start_ns: u64,
    args: TraceArgs,
}

impl WallSpan {
    /// Attaches a named argument (up to [`MAX_ARGS`]; extras are
    /// silently ignored).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        for slot in self.args.iter_mut() {
            if slot.is_none() {
                *slot = Some((key, value));
                break;
            }
        }
        self
    }

    /// Ends the span now and records it.
    pub fn finish(self) {}

    fn record(&mut self) {
        if let Some(sink) = self.sink.take() {
            let end = sink.wall_ns();
            sink.record(TraceEvent {
                track: self.track,
                name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                ts_ns: self.start_ns,
                dur_ns: Some(end.saturating_sub(self.start_ns)),
                args: self.args,
            });
        }
    }
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        self.record();
    }
}

/// Appends a nanosecond timestamp as Chrome's microsecond `ts`/`dur`
/// value, preserving nanosecond precision as a fraction.
fn push_us(ns: u64, out: &mut String) {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    out.push_str(&format!("{whole}.{frac:03}"));
}

/// Renders drained events as a Chrome `trace_event` JSON object (the
/// "JSON Object Format": a `traceEvents` array plus metadata), loadable
/// in chrome://tracing and Perfetto.
///
/// Process/thread name metadata events are emitted for every track that
/// appears, so the three groups (host wall-clock, pipeline sim-time,
/// device sim-time) render with readable labels. `dropped` (from
/// [`TraceSink::dropped`]) lands in `otherData` so a truncated trace is
/// self-describing.
pub fn chrome_trace_json(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[\n");

    // One metadata pair per distinct track, in track order.
    let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
    tracks.sort_by_key(|t| (t.pid(), t.tid()));
    tracks.dedup();
    let mut first = true;
    for t in &tracks {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            t.pid(),
            t.tid(),
            t.process_name()
        ));
        out.push_str(",\n");
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
             \"args\":{{\"name\":\"",
            t.pid(),
            t.tid()
        ));
        json_escape(&t.thread_name(), &mut out);
        out.push_str("\"}}");
    }

    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("{\"name\":\"");
        json_escape(&e.name, &mut out);
        out.push_str("\",\"ph\":\"");
        out.push_str(if e.dur_ns.is_some() { "X" } else { "i" });
        out.push_str("\",\"pid\":");
        out.push_str(&e.track.pid().to_string());
        out.push_str(",\"tid\":");
        out.push_str(&e.track.tid().to_string());
        out.push_str(",\"ts\":");
        push_us(e.ts_ns, &mut out);
        match e.dur_ns {
            Some(dur) => {
                out.push_str(",\"dur\":");
                push_us(dur, &mut out);
            }
            // Thread-scoped instants render as small markers on the track.
            None => out.push_str(",\"s\":\"t\""),
        }
        if e.args.iter().any(Option::is_some) {
            out.push_str(",\"args\":{");
            let mut first_arg = true;
            for (key, value) in e.args.iter().flatten() {
                if !first_arg {
                    out.push(',');
                }
                first_arg = false;
                out.push('"');
                json_escape(key, &mut out);
                out.push_str(&format!("\":{value}"));
            }
            out.push('}');
        }
        out.push('}');
    }

    out.push_str("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedEvents\":");
    out.push_str(&dropped.to_string());
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.sim_span(Track::Chunk, "x", 0, 10, trace_args(&[]));
        t.sim_instant(Track::Fault, "y", 5, trace_args(&[]));
        t.wall_instant(Track::Driver, "z", trace_args(&[]));
        drop(t.wall_span(Track::Driver, "w"));
        assert!(t.sink().is_none());
    }

    #[test]
    fn events_round_trip_through_the_sink() {
        let t = Tracer::enabled();
        t.sim_span(Track::Hash, "batch", 100, 250, trace_args(&[("batch", 3)]));
        t.sim_instant(Track::Fault, "latch-open", 120, trace_args(&[]));
        let sink = t.sink().unwrap();
        assert_eq!(sink.len(), 2);
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert!(sink.is_empty());
        let span = events.iter().find(|e| e.name == "batch").unwrap();
        assert_eq!(span.ts_ns, 100);
        assert_eq!(span.dur_ns, Some(150));
        assert_eq!(span.args[0], Some(("batch", 3)));
        assert_eq!(span.args[1], None);
    }

    #[test]
    fn wall_span_measures_a_positive_duration() {
        let t = Tracer::enabled();
        {
            let _s = t.wall_span(Track::Worker(2), "job").arg("items", 8);
        }
        let events = t.sink().unwrap().drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].track, Track::Worker(2));
        assert!(events[0].dur_ns.is_some());
        assert_eq!(events[0].args[0], Some(("items", 8)));
    }

    #[test]
    fn overflow_drops_and_counts_without_reallocating() {
        let sink = TraceSink::new(SHARDS); // one event per shard
                                           // All records below land in the calling thread's single shard.
        for i in 0..10 {
            sink.record(TraceEvent {
                track: Track::Ssd,
                name: Cow::Borrowed("w"),
                ts_ns: i,
                dur_ns: Some(1),
                args: [None; MAX_ARGS],
            });
        }
        assert_eq!(sink.len(), 1, "one slot per shard, one shard used");
        assert_eq!(sink.dropped(), 9);
        // The preallocated capacity must be untouched by the overflow.
        let shard = &sink.shards[thread_shard()];
        let buf = shard.events.lock().unwrap();
        assert_eq!(buf.capacity(), sink.per_shard);
    }

    #[test]
    fn track_layout_separates_wall_and_sim_processes() {
        for t in [Track::Driver, Track::Worker(3)] {
            assert!(!t.is_sim());
            assert_eq!(t.pid(), HOST_PID);
        }
        for t in [
            Track::Chunk,
            Track::Hash,
            Track::Index,
            Track::Route,
            Track::Compress,
            Track::Destage,
            Track::Fault,
            Track::Read,
            Track::Journal,
        ] {
            assert!(t.is_sim());
            assert_eq!(t.pid(), PIPELINE_PID);
        }
        for t in [Track::GpuCompute, Track::GpuCopy, Track::Ssd] {
            assert!(t.is_sim());
            assert_eq!(t.pid(), DEVICE_PID);
        }
        // tids are unique within a pid.
        assert_ne!(Track::Worker(0).tid(), Track::Driver.tid());
        assert_ne!(Track::GpuCompute.tid(), Track::GpuCopy.tid());
    }

    #[test]
    fn chrome_json_has_metadata_spans_and_instants() {
        let t = Tracer::enabled();
        t.sim_span(
            Track::GpuCompute,
            "sha1_batch",
            1_500,
            9_000,
            trace_args(&[("items", 64)]),
        );
        t.sim_instant(Track::Fault, "retry", 2_000, trace_args(&[]));
        let sink = t.sink().unwrap();
        let json = chrome_trace_json(&sink.drain(), sink.dropped());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("devices (sim-time)"));
        assert!(json.contains("\"gpu-compute\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":7.500"));
        assert!(json.contains("\"items\":64"));
        assert!(json.contains("\"droppedEvents\":0"));
    }

    #[test]
    fn chrome_json_escapes_event_names() {
        let t = Tracer::enabled();
        t.sim_span(
            Track::GpuCompute,
            Cow::Owned("kernel \"q\"\\\n".to_string()),
            0,
            1,
            trace_args(&[]),
        );
        let sink = t.sink().unwrap();
        let json = chrome_trace_json(&sink.drain(), 0);
        assert!(json.contains("kernel \\\"q\\\"\\\\\\n"));
    }

    #[test]
    fn microsecond_rendering_preserves_nanoseconds() {
        let mut out = String::new();
        push_us(1_234_567, &mut out);
        assert_eq!(out, "1234.567");
        out.clear();
        push_us(42, &mut out);
        assert_eq!(out, "0.042");
    }

    #[test]
    fn drain_orders_by_track_then_time() {
        let t = Tracer::enabled();
        t.sim_span(Track::Ssd, "b", 50, 60, trace_args(&[]));
        t.sim_span(Track::Chunk, "a", 100, 110, trace_args(&[]));
        t.sim_span(Track::Chunk, "a", 10, 20, trace_args(&[]));
        let events = t.sink().unwrap().drain();
        let keys: Vec<(u64, u64, u64)> = events
            .iter()
            .map(|e| (e.track.pid(), e.track.tid(), e.ts_ns))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
