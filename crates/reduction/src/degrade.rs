//! Graceful-degradation policy: bounded retry, sticky latches, re-probing.
//!
//! The paper treats data reduction as *best-effort* — the index is
//! in-memory only, missed duplicates are acceptable, the GPU is an
//! opportunistic co-processor. The degradation policy extends that stance
//! to faults: when a component (GPU dedup, GPU compression, SSD writes)
//! keeps failing, the pipeline stops leaning on it — routing work to the
//! CPU path or writing data unreduced — and re-probes it on a sim-time
//! timer. Correctness is never best-effort: every logical byte reaches the
//! device no matter which path it takes.

use dr_des::{ExponentialBackoff, Retried, SimDuration, SimTime};
use dr_gpu_sim::GpuError;
use dr_obs::trace::{trace_args, Tracer, Track};
use dr_obs::{CounterHandle, ObsHandle};

/// The degradation policy's knobs. The pipeline runs one policy,
/// [`DEGRADE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DegradePolicy {
    /// Retries allowed per operation before the component latches degraded.
    max_retries: u32,
    /// Backoff before the first retry.
    backoff_base: SimDuration,
    /// Backoff multiplier per subsequent retry.
    backoff_factor: u64,
    /// How long a degraded component rests before the next probe attempt.
    reprobe_interval: SimDuration,
    /// Consecutive probe successes required to close the latch again
    /// (hysteresis: one lucky probe must not flap the pipeline back).
    reprobe_successes: u32,
}

/// The pipeline's degradation policy: three retries at 50 µs doubling
/// (350 µs of backoff at most), 10 ms rest, two clean probes to recover.
const DEGRADE: DegradePolicy = DegradePolicy {
    max_retries: 3,
    backoff_base: SimDuration::from_micros(50),
    backoff_factor: 2,
    reprobe_interval: SimDuration::from_millis(10),
    reprobe_successes: 2,
};

impl DegradePolicy {
    /// The retry schedule this policy prescribes.
    pub(crate) fn backoff(&self) -> ExponentialBackoff {
        ExponentialBackoff::new(self.backoff_base, self.backoff_factor, self.max_retries)
    }
}

/// The sticky degraded-mode latch for one component.
///
/// State machine: healthy → (failure) → degraded; while degraded, one
/// probe attempt is allowed each `reprobe_interval`; after
/// `reprobe_successes` consecutive clean probes the latch closes. A
/// failure at any point re-opens it and restarts the rest timer.
#[derive(Debug, Clone)]
pub(crate) struct ComponentLatch {
    policy: DegradePolicy,
    degraded: bool,
    /// Earliest sim time the next probe may run (only while degraded).
    next_probe_at: SimTime,
    /// Clean probes in a row (only while degraded).
    consecutive_ok: u32,
    /// Times this latch opened (healthy → degraded transitions).
    transitions: u64,
}

impl ComponentLatch {
    /// A healthy latch under `policy`.
    pub fn new(policy: DegradePolicy) -> Self {
        ComponentLatch {
            policy,
            degraded: false,
            next_probe_at: SimTime::ZERO,
            consecutive_ok: 0,
            transitions: 0,
        }
    }

    /// Whether the component is currently degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Healthy → degraded transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Whether an attempt may be made at `now`: always while healthy, and
    /// once per rest interval while degraded (the probe).
    pub fn allow_attempt(&self, now: SimTime) -> bool {
        !self.degraded || now >= self.next_probe_at
    }

    /// Records an operation-level failure (after its retries were
    /// exhausted). Opens the latch and starts/restarts the rest timer.
    pub fn record_failure(&mut self, now: SimTime) {
        if !self.degraded {
            self.degraded = true;
            self.transitions += 1;
        }
        self.consecutive_ok = 0;
        self.next_probe_at = now + self.policy.reprobe_interval;
    }

    /// Records a successful operation. While degraded, counts toward the
    /// hysteresis threshold and closes the latch once reached; spaces
    /// probes a rest interval apart until then.
    pub fn record_success(&mut self, now: SimTime) {
        if !self.degraded {
            return;
        }
        self.consecutive_ok += 1;
        if self.consecutive_ok >= self.policy.reprobe_successes {
            self.degraded = false;
            self.consecutive_ok = 0;
        } else {
            self.next_probe_at = now + self.policy.reprobe_interval;
        }
    }
}

/// The names one guarded component goes by: two `fault.*` counters and
/// three instants on the fault trace track. Names are a tested contract,
/// so each is spelled out here, once.
#[derive(Debug)]
pub(crate) struct ComponentNames {
    retries: &'static str,
    degraded_transitions: &'static str,
    retry: &'static str,
    latch_open: &'static str,
    latch_close: &'static str,
}

pub(crate) const GPU_DEDUP: ComponentNames = ComponentNames {
    retries: "fault.gpu_dedup.retries",
    degraded_transitions: "fault.gpu_dedup.degraded_transitions",
    retry: "gpu-dedup retry",
    latch_open: "gpu-dedup latch open",
    latch_close: "gpu-dedup latch close",
};
pub(crate) const GPU_COMPRESS: ComponentNames = ComponentNames {
    retries: "fault.gpu_compress.retries",
    degraded_transitions: "fault.gpu_compress.degraded_transitions",
    retry: "gpu-compress retry",
    latch_open: "gpu-compress latch open",
    latch_close: "gpu-compress latch close",
};
pub(crate) const SSD_WRITE: ComponentNames = ComponentNames {
    retries: "fault.ssd_write.retries",
    degraded_transitions: "fault.ssd_write.degraded_transitions",
    retry: "ssd-write retry",
    latch_open: "ssd-write latch open",
    latch_close: "ssd-write latch close",
};

/// One component behind the degradation policy: its latch and retry
/// schedule with everything that accounts for them — the retry tally the
/// report sums, the `fault.<component>.*` counters, the fault-track
/// instants — so that bookkeeping exists once for every site.
#[derive(Debug)]
pub(crate) struct Guarded {
    names: &'static ComponentNames,
    latch: ComponentLatch,
    backoff: ExponentialBackoff,
    /// Retries spent so far (kept here because counters may be disabled).
    retries: u64,
    retries_counter: CounterHandle,
    degraded_counter: CounterHandle,
    tracer: Tracer,
}

impl Guarded {
    /// A healthy component under [`DEGRADE`], recording into `obs`.
    pub(crate) fn new(names: &'static ComponentNames, obs: &ObsHandle) -> Self {
        let mut guarded = Guarded {
            names,
            latch: ComponentLatch::new(DEGRADE),
            backoff: DEGRADE.backoff(),
            retries: 0,
            retries_counter: CounterHandle::default(),
            degraded_counter: CounterHandle::default(),
            tracer: Tracer::disabled(),
        };
        guarded.set_obs(obs);
        guarded
    }

    /// Re-points the counters and the fault track at `obs`.
    pub(crate) fn set_obs(&mut self, obs: &ObsHandle) {
        self.retries_counter = obs.counter(self.names.retries);
        self.degraded_counter = obs.counter(self.names.degraded_transitions);
        self.tracer = obs.tracer().clone();
    }

    /// Closes the latch, as a restart does. The retry tally is kept.
    pub(crate) fn reset(&mut self) {
        self.latch = ComponentLatch::new(self.latch.policy);
    }

    /// Puts the component under `policy` with a closed latch.
    #[cfg(test)]
    fn set_policy(&mut self, policy: DegradePolicy) {
        self.latch = ComponentLatch::new(policy);
        self.backoff = policy.backoff();
    }

    /// How long the component rests once degraded.
    pub(crate) fn reprobe_interval(&self) -> SimDuration {
        self.latch.policy.reprobe_interval
    }

    /// The latch, to read its state.
    pub(crate) fn latch(&self) -> &ComponentLatch {
        &self.latch
    }

    /// Retries spent so far.
    pub(crate) fn retries(&self) -> u64 {
        self.retries
    }

    /// Whether the component may be tried at `now`: always while healthy,
    /// once per rest interval while degraded.
    pub(crate) fn allow(&self, now: SimTime) -> bool {
        self.latch.allow_attempt(now)
    }

    /// Runs `op` under the retry schedule without touching the latch.
    /// Each retry is tallied, counted, and left on the fault track as
    /// `instant` (by default the component's own `retry` name; a second
    /// loop on the same counter passes its own).
    pub(crate) fn retry<T, E>(
        &mut self,
        instant: Option<&'static str>,
        at: SimTime,
        is_transient: impl Fn(&E) -> bool,
        op: impl FnMut(SimTime) -> Result<T, E>,
    ) -> Retried<T, E> {
        let instant = instant.unwrap_or(self.names.retry);
        let on_retry = |at: SimTime, k: u32| {
            self.retries += 1;
            self.retries_counter.incr();
            let args = trace_args(&[("retry", k as u64)]);
            self.tracer
                .sim_instant(Track::Fault, instant, at.as_nanos(), args);
        };
        self.backoff.retry(at, is_transient, on_retry, op)
    }

    /// The whole policy for one GPU operation: skipped while the latch
    /// rests (floor [`SimTime::ZERO`]), otherwise retried. A success is
    /// recorded at the instant `done_at` reads off the result; a failure
    /// at the instant the attempts burnt the clock to, which comes back as
    /// the floor for the CPU fallback — degradation is never free.
    pub(crate) fn attempt<T>(
        &mut self,
        at: SimTime,
        op: impl FnMut(SimTime) -> Result<T, GpuError>,
        done_at: impl Fn(&T) -> SimTime,
    ) -> Result<T, SimTime> {
        if !self.allow(at) {
            return Err(SimTime::ZERO);
        }
        let run = self.retry(None, at, GpuError::is_transient, op);
        match run.result {
            Ok(value) => {
                self.succeeded(done_at(&value));
                Ok(value)
            }
            Err(_) => {
                self.failed(run.at);
                Err(run.at)
            }
        }
    }

    /// Records an operation-level success, leaving a `latch close`
    /// instant when it is the one that closed the latch.
    pub(crate) fn succeeded(&mut self, now: SimTime) {
        let was_degraded = self.latch.is_degraded();
        self.latch.record_success(now);
        if was_degraded && !self.latch.is_degraded() {
            self.fault_instant(self.names.latch_close, now);
        }
    }

    /// Records an operation-level failure: one transitions-counter bump
    /// and one `latch open` instant per healthy → degraded edge.
    pub(crate) fn failed(&mut self, now: SimTime) {
        let before = self.latch.transitions();
        self.latch.record_failure(now);
        if self.latch.transitions() > before {
            self.degraded_counter.incr();
            self.fault_instant(self.names.latch_open, now);
        }
    }

    fn fault_instant(&self, name: &'static str, now: SimTime) {
        let args = trace_args(&[]);
        self.tracer
            .sim_instant(Track::Fault, name, now.as_nanos(), args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DegradePolicy {
        DegradePolicy {
            reprobe_interval: SimDuration::from_millis(1),
            reprobe_successes: 2,
            ..DEGRADE
        }
    }

    #[test]
    fn healthy_latch_always_allows() {
        let latch = ComponentLatch::new(policy());
        assert!(latch.allow_attempt(SimTime::ZERO));
        assert!(!latch.is_degraded());
        assert_eq!(latch.transitions(), 0);
    }

    #[test]
    fn failure_opens_latch_and_blocks_until_reprobe() {
        let mut latch = ComponentLatch::new(policy());
        let t0 = SimTime::ZERO;
        latch.record_failure(t0);
        assert!(latch.is_degraded());
        assert_eq!(latch.transitions(), 1);
        assert!(!latch.allow_attempt(t0));
        assert!(!latch.allow_attempt(t0 + SimDuration::from_micros(999)));
        assert!(latch.allow_attempt(t0 + SimDuration::from_millis(1)));
    }

    #[test]
    fn hysteresis_needs_consecutive_successes() {
        let mut latch = ComponentLatch::new(policy());
        let mut now = SimTime::ZERO;
        latch.record_failure(now);
        now += SimDuration::from_millis(1);
        latch.record_success(now);
        assert!(latch.is_degraded(), "one probe is not enough");
        assert!(
            !latch.allow_attempt(now),
            "next probe waits a rest interval"
        );
        now += SimDuration::from_millis(1);
        latch.record_success(now);
        assert!(!latch.is_degraded(), "two clean probes close the latch");
        assert!(latch.allow_attempt(now));
    }

    #[test]
    fn probe_failure_resets_the_streak() {
        let mut latch = ComponentLatch::new(policy());
        let mut now = SimTime::ZERO;
        latch.record_failure(now);
        now += SimDuration::from_millis(1);
        latch.record_success(now);
        latch.record_failure(now);
        assert!(latch.is_degraded());
        // Still only one healthy→degraded transition (it never closed).
        assert_eq!(latch.transitions(), 1);
        now += SimDuration::from_millis(1);
        latch.record_success(now);
        assert!(latch.is_degraded(), "streak restarted after the failure");
        now += SimDuration::from_millis(1);
        latch.record_success(now);
        assert!(!latch.is_degraded());
    }

    #[test]
    fn reopening_counts_a_second_transition() {
        let mut latch = ComponentLatch::new(policy());
        let mut now = SimTime::ZERO;
        latch.record_failure(now);
        for _ in 0..2 {
            now += SimDuration::from_millis(1);
            latch.record_success(now);
        }
        assert!(!latch.is_degraded());
        latch.record_failure(now);
        assert_eq!(latch.transitions(), 2);
    }

    #[test]
    fn success_while_healthy_is_a_no_op() {
        let mut latch = ComponentLatch::new(policy());
        latch.record_success(SimTime::ZERO);
        assert!(!latch.is_degraded());
        assert_eq!(latch.transitions(), 0);
    }

    #[test]
    fn policy_backoff_matches_knobs() {
        let b = DEGRADE.backoff();
        assert_eq!(b.base, SimDuration::from_micros(50));
        assert_eq!(b.delay(1), SimDuration::from_micros(100));
        assert_eq!(b.max_attempts(), 4);
    }

    /// A guarded GPU component recording into a fresh registry and trace.
    fn guarded() -> (Guarded, ObsHandle, Tracer) {
        let tracer = Tracer::enabled();
        let obs = ObsHandle::enabled("guarded-test").with_tracer(tracer.clone());
        let mut g = Guarded::new(&GPU_COMPRESS, &obs);
        g.set_policy(policy());
        (g, obs, tracer)
    }

    fn counter(obs: &ObsHandle, name: &str) -> u64 {
        let snap = obs.snapshot().expect("enabled");
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn fault_track(tracer: &Tracer) -> Vec<(String, u64)> {
        let events = tracer.sink().expect("enabled").drain();
        events
            .into_iter()
            .filter(|e| e.track == Track::Fault)
            .map(|e| (e.name.into_owned(), e.ts_ns))
            .collect()
    }

    fn launch_failed() -> GpuError {
        GpuError::LaunchFailed {
            kernel: "k".to_owned(),
        }
    }

    #[test]
    fn guarded_edges_bump_the_counter_once_and_leave_one_instant_each() {
        let (mut g, obs, tracer) = guarded();
        let ms = SimDuration::from_millis(1);
        let t = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
        g.failed(t(0));
        g.failed(t(0)); // already open: no second edge
        g.succeeded(t(1));
        g.failed(t(1)); // a failed probe re-arms the rest, still one edge
        g.succeeded(t(2));
        g.succeeded(t(3)); // second clean probe closes
        g.succeeded(t(4)); // healthy: nothing to close
        g.failed(t(5)); // second healthy -> degraded edge
        assert_eq!(g.latch().transitions(), 2);
        assert_eq!(counter(&obs, "fault.gpu_compress.degraded_transitions"), 2);
        assert_eq!(
            fault_track(&tracer),
            [
                ("gpu-compress latch open".to_owned(), 0),
                ("gpu-compress latch close".to_owned(), 3 * ms.as_nanos()),
                ("gpu-compress latch open".to_owned(), 5 * ms.as_nanos()),
            ]
        );
    }

    #[test]
    fn attempt_retries_then_records_success_at_the_done_instant() {
        let (mut g, obs, tracer) = guarded();
        let mut failures = 2;
        let done = SimTime::ZERO + SimDuration::from_millis(7);
        let out = g.attempt(
            SimTime::ZERO,
            |at| {
                if failures == 0 {
                    return Ok(at);
                }
                failures -= 1;
                Err(launch_failed())
            },
            |_| done,
        );
        // Two retries: 50 us, then 100 us more.
        assert_eq!(out, Ok(SimTime::ZERO + SimDuration::from_micros(150)));
        assert_eq!(g.retries(), 2);
        assert_eq!(counter(&obs, "fault.gpu_compress.retries"), 2);
        assert!(!g.latch().is_degraded());
        assert_eq!(
            fault_track(&tracer),
            [
                ("gpu-compress retry".to_owned(), 50_000),
                ("gpu-compress retry".to_owned(), 150_000),
            ]
        );
    }

    #[test]
    fn attempt_failure_opens_the_latch_and_hands_back_the_burnt_instant() {
        let (mut g, obs, _) = guarded();
        let start = SimTime::ZERO + SimDuration::from_micros(3);
        let floor = g.attempt(start, |_| Err::<(), _>(launch_failed()), |_| SimTime::ZERO);
        let burnt = start + policy().backoff().total_delay();
        assert_eq!(floor, Err(burnt));
        assert_eq!(g.retries(), 3);
        assert_eq!(counter(&obs, "fault.gpu_compress.retries"), 3);
        assert!(g.latch().is_degraded());
        assert!(!g.allow(burnt), "the rest starts at the burnt instant");
        assert!(g.allow(burnt + policy().reprobe_interval));

        // A hard fault is not retried at all.
        let (mut g, _, _) = guarded();
        let floor = g.attempt(start, |_| Err::<(), _>(GpuError::DeviceLost), |_| start);
        assert_eq!(floor, Err(start));
        assert_eq!(g.retries(), 0);
        assert!(g.latch().is_degraded());
    }

    #[test]
    fn attempt_on_a_resting_latch_does_not_call_op() {
        let (mut g, _, _) = guarded();
        g.failed(SimTime::ZERO);
        let resting = SimTime::ZERO + SimDuration::from_micros(999);
        let out = g.attempt(
            resting,
            |_| -> Result<(), GpuError> { panic!("op must not run while the latch rests") },
            |_| SimTime::ZERO,
        );
        assert_eq!(out, Err(SimTime::ZERO), "a resting latch costs nothing");
        assert_eq!(g.retries(), 0);
    }

    #[test]
    fn reset_closes_the_latch_and_keeps_the_tally() {
        let (mut g, _, _) = guarded();
        let run = g.retry(None, SimTime::ZERO, |_: &()| true, |_| Err::<(), ()>(()));
        assert_eq!(run.retries, 3);
        g.failed(run.at);
        assert!(g.latch().is_degraded());
        g.reset();
        assert!(!g.latch().is_degraded(), "a restart closes the latch");
        assert_eq!(g.retries(), 3, "and keeps the tally");
        assert_eq!(g.reprobe_interval(), policy().reprobe_interval);
    }

    /// Fault-track conformance: for every guarded component the fault-track
    /// instants, the `fault.*` counters and the report tallies must tell the
    /// same story, and tracing must not perturb a faulted run. The scenarios
    /// put the pipeline's components under a short rest through
    /// [`Guarded::set_policy`], so latches re-probe and close again inside
    /// one run.
    mod fault_track {
        use super::*;
        use crate::{IntegrationMode, Pipeline, PipelineConfig, Report};
        use dr_gpu_sim::GpuFaultSpec;
        use dr_ssd_sim::SsdFaultSpec;

        /// A dedup-able, compressible stream: 192 blocks over 48 patterns, half
        /// of each block pseudo-random so compression has real work to do.
        fn stream() -> Vec<u8> {
            let mut out = Vec::new();
            for i in 0..192u32 {
                let tag = (i % 48) as u8;
                let mut block = vec![tag; 4096];
                let mut state = (i % 48) as u64 + 1;
                for b in block[..2048].iter_mut() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    *b = (state >> 33) as u8;
                }
                out.extend_from_slice(&block);
            }
            out
        }

        fn config(mode: IntegrationMode) -> PipelineConfig {
            PipelineConfig {
                mode,
                ..PipelineConfig::default()
            }
        }

        /// The degradation policy with a rest of `reprobe_interval`.
        fn resting(reprobe_interval: SimDuration) -> DegradePolicy {
            DegradePolicy {
                reprobe_interval,
                ..DEGRADE
            }
        }

        /// What one faulted scenario left behind, traced.
        struct FaultedRun {
            report: Report,
            /// Fault-track event names, in emission order.
            fault_track: Vec<String>,
            counters: Vec<(String, u64)>,
        }

        impl FaultedRun {
            fn counter(&self, name: &str) -> u64 {
                self.counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |(_, v)| *v)
            }

            fn instants(&self, name: &str) -> u64 {
                self.fault_track.iter().filter(|n| *n == name).count() as u64
            }
        }

        /// Drives `cfg`, every guarded component under `policy`, through `drive`
        /// twice — tracer off, tracer on — requires the two reports to be equal,
        /// and returns the traced run.
        fn run_faulted_traced(
            cfg: &PipelineConfig,
            policy: DegradePolicy,
            drive: impl Fn(&mut Pipeline),
        ) -> FaultedRun {
            let run = |tracer: Tracer| {
                let obs = ObsHandle::enabled("fault-track").with_tracer(tracer);
                let mut p = Pipeline::new(PipelineConfig {
                    obs: obs.clone(),
                    ..cfg.clone()
                });
                p.fault.gpu_dedup.set_policy(policy);
                p.fault.gpu_compress.set_policy(policy);
                p.destage.ssd_write.set_policy(policy);
                drive(&mut p);
                (
                    p.report().clone(),
                    obs.snapshot().expect("enabled").counters,
                )
            };
            let (untraced, _) = run(Tracer::disabled());
            let tracer = Tracer::enabled();
            let (report, counters) = run(tracer.clone());
            assert_eq!(
                format!("{report:?}"),
                format!("{untraced:?}"),
                "tracing changed a faulted run's report"
            );
            // Every fault instant is emitted by the driving thread, so the drain
            // preserves emission order within the fault track.
            let fault_track = tracer
                .sink()
                .expect("enabled tracer has a sink")
                .drain()
                .into_iter()
                .filter(|e| e.track == Track::Fault)
                .map(|e| e.name.into_owned())
                .collect();
            FaultedRun {
                report,
                fault_track,
                counters,
            }
        }

        /// The per-component contract. `track` is the fault-track prefix
        /// (`gpu-dedup`), `metric` the counter infix (`gpu_dedup`), and
        /// `retry_instants` every instant name that tallies on the component's
        /// retry counter. The scenario must fault this component only, so its
        /// share of the report tallies is the whole of them.
        fn assert_component_conforms(
            run: &FaultedRun,
            track: &str,
            metric: &str,
            retry_instants: &[&str],
        ) {
            let retries: u64 = retry_instants.iter().map(|n| run.instants(n)).sum();
            assert!(retries > 0, "{track}: scenario never retried");
            assert_eq!(
                retries,
                run.counter(&format!("fault.{metric}.retries")),
                "{track}: retry instants vs counter"
            );
            assert_eq!(
                retries, run.report.fault_retries,
                "{track}: retry instants vs Report::fault_retries"
            );
            let (open, close) = (
                format!("{track} latch open"),
                format!("{track} latch close"),
            );
            assert_eq!(
                run.instants(&open),
                run.counter(&format!("fault.{metric}.degraded_transitions")),
                "{track}: latch-open instants vs counter"
            );
            assert_eq!(
                run.instants(&open),
                run.report.degraded_transitions,
                "{track}: latch-open instants vs Report::degraded_transitions"
            );
            // Opens and closes alternate, starting with an open.
            let mut is_open = false;
            for name in &run.fault_track {
                if *name == open {
                    assert!(!is_open, "{track}: latch opened twice without a close");
                    is_open = true;
                } else if *name == close {
                    assert!(is_open, "{track}: latch closed while closed");
                    is_open = false;
                }
            }
        }

        #[test]
        fn gpu_dedup_fault_track_matches_counters_and_report() {
            let mut cfg = config(IntegrationMode::GpuForDedup);
            cfg.batch_chunks = 4;
            cfg.compress_enabled = false;
            cfg.index.bin_buffer_capacity = 1;
            cfg.index.prefix_bytes = 1;
            cfg.gpu_spec.faults = GpuFaultSpec {
                launch_failure_rate: 0.55,
                seed: 3,
                ..GpuFaultSpec::default()
            };
            let data = stream();
            let quick = resting(SimDuration::from_micros(200));
            let run = run_faulted_traced(&cfg, quick, |p| {
                p.run(&data);
                p.run(&data);
            });
            assert_component_conforms(&run, "gpu-dedup", "gpu_dedup", &["gpu-dedup retry"]);
            assert!(run.instants("gpu-dedup latch open") > 0, "never opened");
            assert!(run.instants("gpu-dedup latch close") > 0, "never closed");
        }

        #[test]
        fn gpu_compress_fault_track_matches_counters_and_report() {
            let mut cfg = config(IntegrationMode::GpuForCompression);
            cfg.batch_chunks = 4;
            cfg.gpu_spec.faults = GpuFaultSpec {
                launch_failure_rate: 0.55,
                seed: 5,
                ..GpuFaultSpec::default()
            };
            let data = stream();
            let quick = resting(SimDuration::from_micros(200));
            let run = run_faulted_traced(&cfg, quick, |p| {
                p.run(&data);
            });
            assert_component_conforms(
                &run,
                "gpu-compress",
                "gpu_compress",
                &["gpu-compress retry"],
            );
            assert!(run.instants("gpu-compress latch open") > 0, "never opened");
            assert!(run.instants("gpu-compress latch close") > 0, "never closed");
        }

        #[test]
        fn ssd_fault_track_matches_counters_and_report() {
            // One counter, two loops: page-read retries tally on
            // `fault.ssd_write.retries` next to the page-write ones.
            let mut cfg = config(IntegrationMode::CpuOnly);
            cfg.compress_enabled = false;
            cfg.dedup_enabled = false; // every block is a page write
            cfg.batch_chunks = 8;
            cfg.ssd_spec.faults = SsdFaultSpec {
                write_error_rate: 0.45,
                seed: 4,
                ..SsdFaultSpec::default()
            };
            let data = stream();
            // The whole ingest is ~160 simulated µs of CPU time, so the latch
            // must rest far less than that to re-probe and close inside it.
            let quick = resting(SimDuration::from_micros(5));
            let run = run_faulted_traced(&cfg, quick, |p| {
                p.run(&data);
                p.set_ssd_faults(SsdFaultSpec {
                    read_error_rate: 0.1,
                    seed: 21,
                    ..SsdFaultSpec::default()
                });
                let all: Vec<usize> = (0..p.ingested_chunks()).collect();
                let blocks = p.read_blocks(&all).expect("faulted batch read");
                assert_eq!(blocks.concat(), data);
            });
            assert_component_conforms(
                &run,
                "ssd-write",
                "ssd_write",
                &["ssd-write retry", "ssd-read retry"],
            );
            assert!(run.instants("ssd-write retry") > 0, "no write retries");
            assert!(run.instants("ssd-read retry") > 0, "no read retries");
            assert!(run.instants("ssd-write latch open") > 0, "never opened");
            assert!(run.instants("ssd-write latch close") > 0, "never closed");
        }
    }
}
