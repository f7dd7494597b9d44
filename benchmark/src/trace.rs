//! Benchmark-side tracing: a span around every call the benchmark makes
//! into the program, and an allocation counter for the traced repetition.
//!
//! Spans are recorded here, outside the program (spans inside it are a
//! later change); they stay in memory until the run ends and are then
//! written in Chrome `trace_event` form.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Which operation of the workload's schedule this call served
    /// (phase-level spans carry 0).
    pub op: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// Leaf spans kept per name in the written trace; totals always cover
/// all of them.
const MAX_WRITTEN_LEAVES_PER_NAME: usize = 20_000;

/// Collects spans while enabled; every method is a branch on a bool
/// otherwise, so the untraced repetitions run the same code.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that encloses everything recorded until the matching
    /// [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            op: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let index = self.open.pop().expect("exit without enter");
        self.spans[index as usize].end_ns = now;
    }

    /// Records a finished call that the caller timed itself.
    pub fn leaf(&mut self, name: &'static str, op: u64, start: Instant, took: Duration) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (open it in
    /// `chrome://tracing` or ui.perfetto.dev). Leaf spans beyond
    /// [`MAX_WRITTEN_LEAVES_PER_NAME`] per name are dropped from the file
    /// (not from the totals) and counted in `metadata.dropped_spans`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut written: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut dropped = 0u64;
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_insert(0);
            *n += 1;
            if *n > MAX_WRITTEN_LEAVES_PER_NAME {
                dropped += 1;
                continue;
            }
            let event = Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p.into())),
                        ),
                        ("op", Json::Num(s.op as f64)),
                    ]),
                ),
            ]);
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&event.render());
        }
        let metadata = Json::obj([
            ("workload", Json::str(workload)),
            ("clock", Json::str("host wall clock, benchmark side")),
            ("spans", Json::Num(self.spans.len() as f64)),
            ("dropped_spans", Json::Num(dropped as f64)),
        ]);
        out.push_str("\n], \"displayTimeUnit\": \"ns\", \"metadata\": ");
        out.push_str(&metadata.render());
        out.push_str("}\n");
        out
    }
}

/// The process allocator: `System`, plus a count of allocations and
/// bytes while armed. Armed only around the traced repetition's write
/// calls, so `reduction.alloc_per_chunk` is the write path's alone.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
// Statistics only: they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    fn count(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts (`true`) or stops (`false`) counting allocations.
pub fn arm_alloc_counter(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far while armed.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(true);
        r.enter("rep");
        r.enter("phase");
        let t = Instant::now();
        r.leaf("call", 7, t, Duration::from_nanos(300));
        r.leaf("call", 8, t, Duration::from_nanos(200));
        r.exit();
        r.exit();
        let totals = r.totals();
        assert_eq!(totals["call"].count, 2);
        assert_eq!(totals["call"].total_ns, 500);
        assert_eq!(totals["call"].self_ns, 500);
        let phase = totals["phase"];
        assert_eq!(phase.self_ns, phase.total_ns.saturating_sub(500));
        let rep = totals["rep"];
        assert_eq!(rep.self_ns, rep.total_ns - phase.total_ns);
        assert_eq!(r.spans[2].parent, Some(1));
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.enter("rep");
        r.leaf("call", 1, Instant::now(), Duration::from_nanos(5));
        r.exit();
        assert!(r.totals().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_and_caps_leaves() {
        let mut r = Recorder::new(true);
        r.enter("rep");
        let t = Instant::now();
        for op in 0..(MAX_WRITTEN_LEAVES_PER_NAME as u64 + 5) {
            r.leaf("call", op, t, Duration::from_nanos(1));
        }
        r.exit();
        let doc = crate::json::parse(&r.chrome_trace("w")).expect("valid json");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), MAX_WRITTEN_LEAVES_PER_NAME + 1);
        let meta = doc.get("metadata").unwrap();
        assert_eq!(meta.get("dropped_spans").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            r.totals()["call"].count,
            MAX_WRITTEN_LEAVES_PER_NAME as u64 + 5
        );
    }

    #[test]
    fn alloc_counter_counts_only_while_armed() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let (a0, _) = alloc_counts();
        arm_alloc_counter(true);
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        arm_alloc_counter(false);
        let (a1, b1) = alloc_counts();
        assert!(a1 > a0 && b1 >= 4096);
    }
}
