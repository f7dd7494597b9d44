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

/// The retry schedule of every guarded operation: three retries at 50 µs
/// doubling (350 µs of backoff at most) before the latch opens.
const BACKOFF: ExponentialBackoff = ExponentialBackoff {
    base: SimDuration::from_micros(50),
    factor: 2,
    max_retries: 3,
};
/// How long a degraded component rests before the next probe attempt.
const REPROBE_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Consecutive probe successes required to close the latch again
/// (hysteresis: one lucky probe must not flap the pipeline back).
const REPROBE_SUCCESSES: u32 = 2;

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

/// One component behind the degradation policy: its sticky latch and
/// retry schedule with everything that accounts for them — the
/// `fault.<component>.*` counters, the only fault tallies the pipeline
/// keeps, and the fault-track instants — so that bookkeeping exists once
/// for every site.
///
/// The latch: healthy → (failure) → degraded; while degraded, one probe
/// attempt is allowed each rest interval; after [`REPROBE_SUCCESSES`]
/// consecutive clean probes it closes. A failure at any point re-opens it
/// and restarts the rest timer.
#[derive(Debug)]
pub(crate) struct Guarded {
    names: &'static ComponentNames,
    /// Whether the latch is open (the component is degraded).
    degraded: bool,
    /// Earliest sim time the next probe may run (only while degraded).
    next_probe_at: SimTime,
    /// Clean probes in a row (only while degraded).
    consecutive_ok: u32,
    /// How long the component rests once degraded: [`REPROBE_INTERVAL`],
    /// shortened only by tests.
    rest: SimDuration,
    retries_counter: CounterHandle,
    degraded_counter: CounterHandle,
    tracer: Tracer,
}

impl Guarded {
    /// A healthy component, recording into `obs`.
    pub(crate) fn new(names: &'static ComponentNames, obs: &ObsHandle) -> Self {
        let mut guarded = Guarded {
            names,
            degraded: false,
            next_probe_at: SimTime::ZERO,
            consecutive_ok: 0,
            rest: REPROBE_INTERVAL,
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

    /// Closes the latch, as a restart does. The counters run on.
    pub(crate) fn reset(&mut self) {
        self.degraded = false;
        self.next_probe_at = SimTime::ZERO;
        self.consecutive_ok = 0;
    }

    /// Shortens the rest, so a test's latch re-probes inside one run.
    #[cfg(test)]
    fn set_rest(&mut self, rest: SimDuration) {
        self.rest = rest;
    }

    /// How long the component rests once degraded.
    pub(crate) fn reprobe_interval(&self) -> SimDuration {
        self.rest
    }

    /// Whether the latch is open.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Whether the component may be tried at `now`: always while healthy,
    /// once per rest interval while degraded.
    pub(crate) fn allow(&self, now: SimTime) -> bool {
        !self.degraded || now >= self.next_probe_at
    }

    /// Runs `op` under the retry schedule without touching the latch.
    /// Each retry is counted and left on the fault track as
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
            self.retries_counter.incr();
            let args = trace_args(&[("retry", k as u64)]);
            self.tracer
                .sim_instant(Track::Fault, instant, at.as_nanos(), args);
        };
        BACKOFF.retry(at, is_transient, on_retry, op)
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

    /// Records an operation-level success. While degraded it counts toward
    /// the hysteresis threshold, and the success that reaches it closes the
    /// latch and leaves a `latch close` instant; until then probes are
    /// spaced a rest interval apart. A healthy latch ignores it.
    pub(crate) fn succeeded(&mut self, now: SimTime) {
        if !self.degraded {
            return;
        }
        self.consecutive_ok += 1;
        if self.consecutive_ok >= REPROBE_SUCCESSES {
            self.degraded = false;
            self.consecutive_ok = 0;
            self.fault_instant(self.names.latch_close, now);
        } else {
            self.next_probe_at = now + self.rest;
        }
    }

    /// Records an operation-level failure (after its retries were
    /// exhausted): opens the latch and starts or restarts the rest timer.
    /// Each healthy → degraded edge bumps the transitions counter once and
    /// leaves one `latch open` instant.
    pub(crate) fn failed(&mut self, now: SimTime) {
        if !self.degraded {
            self.degraded = true;
            self.degraded_counter.incr();
            self.fault_instant(self.names.latch_open, now);
        }
        self.consecutive_ok = 0;
        self.next_probe_at = now + self.rest;
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

    /// The rest the tests' guards take: short, so latches re-probe soon.
    const REST: SimDuration = SimDuration::from_millis(1);

    /// A guarded GPU component under [`REST`], recording into a fresh
    /// registry and trace.
    fn guarded() -> (Guarded, ObsHandle, Tracer) {
        let tracer = Tracer::enabled();
        let obs = ObsHandle::enabled("guarded-test").with_tracer(tracer.clone());
        let mut g = Guarded::new(&GPU_COMPRESS, &obs);
        g.set_rest(REST);
        (g, obs, tracer)
    }

    #[test]
    fn healthy_latch_always_allows() {
        let (g, obs, _) = guarded();
        assert!(g.allow(SimTime::ZERO));
        assert!(!g.is_degraded());
        assert_eq!(transitions(&obs), 0);
    }

    #[test]
    fn failure_opens_latch_and_blocks_until_reprobe() {
        let (mut g, obs, _) = guarded();
        let t0 = SimTime::ZERO;
        g.failed(t0);
        assert!(g.is_degraded());
        assert_eq!(transitions(&obs), 1);
        assert!(!g.allow(t0));
        assert!(!g.allow(t0 + SimDuration::from_micros(999)));
        assert!(g.allow(t0 + SimDuration::from_millis(1)));
    }

    #[test]
    fn hysteresis_needs_consecutive_successes() {
        let (mut g, _, _) = guarded();
        let mut now = SimTime::ZERO;
        g.failed(now);
        now += SimDuration::from_millis(1);
        g.succeeded(now);
        assert!(g.is_degraded(), "one probe is not enough");
        assert!(!g.allow(now), "next probe waits a rest interval");
        now += SimDuration::from_millis(1);
        g.succeeded(now);
        assert!(!g.is_degraded(), "two clean probes close the latch");
        assert!(g.allow(now));
    }

    #[test]
    fn probe_failure_resets_the_streak() {
        let (mut g, obs, _) = guarded();
        let mut now = SimTime::ZERO;
        g.failed(now);
        now += SimDuration::from_millis(1);
        g.succeeded(now);
        g.failed(now);
        assert!(g.is_degraded());
        // Still only one healthy→degraded transition (it never closed).
        assert_eq!(transitions(&obs), 1);
        now += SimDuration::from_millis(1);
        g.succeeded(now);
        assert!(g.is_degraded(), "streak restarted after the failure");
        now += SimDuration::from_millis(1);
        g.succeeded(now);
        assert!(!g.is_degraded());
    }

    #[test]
    fn reopening_counts_a_second_transition() {
        let (mut g, obs, _) = guarded();
        let mut now = SimTime::ZERO;
        g.failed(now);
        for _ in 0..2 {
            now += SimDuration::from_millis(1);
            g.succeeded(now);
        }
        assert!(!g.is_degraded());
        g.failed(now);
        assert_eq!(transitions(&obs), 2);
    }

    #[test]
    fn success_while_healthy_is_a_no_op() {
        let (mut g, obs, tracer) = guarded();
        g.succeeded(SimTime::ZERO);
        assert!(!g.is_degraded());
        assert_eq!(transitions(&obs), 0);
        assert!(fault_track(&tracer).is_empty(), "nothing to close");
    }

    #[test]
    fn policy_backoff_matches_knobs() {
        let b = BACKOFF;
        assert_eq!(b.base, SimDuration::from_micros(50));
        assert_eq!(b.delay(1), SimDuration::from_micros(100));
        assert_eq!(b.max_attempts(), 4);
        assert_eq!(b.total_delay(), SimDuration::from_micros(350));
        let g = Guarded::new(&SSD_WRITE, &ObsHandle::disabled());
        assert_eq!(g.reprobe_interval(), SimDuration::from_millis(10));
        assert_eq!(REPROBE_SUCCESSES, 2);
    }

    /// The test component's latch openings, as its counter holds them.
    fn transitions(obs: &ObsHandle) -> u64 {
        obs.counter("fault.gpu_compress.degraded_transitions").get()
    }

    /// The test component's retries, as its counter holds them.
    fn retries(obs: &ObsHandle) -> u64 {
        obs.counter("fault.gpu_compress.retries").get()
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
        assert_eq!(transitions(&obs), 2);
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
        assert_eq!(retries(&obs), 2);
        assert!(!g.is_degraded());
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
        let burnt = start + BACKOFF.total_delay();
        assert_eq!(floor, Err(burnt));
        assert_eq!(retries(&obs), 3);
        assert!(g.is_degraded());
        assert!(!g.allow(burnt), "the rest starts at the burnt instant");
        assert!(g.allow(burnt + REST));

        // A hard fault is not retried at all.
        let (mut g, obs, _) = guarded();
        let floor = g.attempt(start, |_| Err::<(), _>(GpuError::DeviceLost), |_| start);
        assert_eq!(floor, Err(start));
        assert_eq!(retries(&obs), 0);
        assert!(g.is_degraded());
    }

    #[test]
    fn attempt_on_a_resting_latch_does_not_call_op() {
        let (mut g, obs, _) = guarded();
        g.failed(SimTime::ZERO);
        let resting = SimTime::ZERO + SimDuration::from_micros(999);
        let out = g.attempt(
            resting,
            |_| -> Result<(), GpuError> { panic!("op must not run while the latch rests") },
            |_| SimTime::ZERO,
        );
        assert_eq!(out, Err(SimTime::ZERO), "a resting latch costs nothing");
        assert_eq!(retries(&obs), 0);
    }

    #[test]
    fn reset_closes_the_latch_and_keeps_the_tally() {
        let (mut g, obs, _) = guarded();
        let run = g.retry(None, SimTime::ZERO, |_: &()| true, |_| Err::<(), ()>(()));
        assert_eq!(run.retries, 3);
        g.failed(run.at);
        assert!(g.is_degraded());
        g.reset();
        assert!(!g.is_degraded(), "a restart closes the latch");
        assert!(g.allow(run.at), "and ends the rest");
        assert_eq!(retries(&obs), 3, "the counters run on");
        assert_eq!(transitions(&obs), 1);
        assert_eq!(g.reprobe_interval(), REST, "and the rest");
    }

    /// A power cut closes every latch and the `fault.*` counters run on
    /// across it: none reads less after the recovery than before, and the
    /// next faulted write raises them again.
    #[test]
    fn a_power_cut_closes_every_latch_and_the_counters_run_on() {
        use crate::{IntegrationMode, Pipeline, PipelineConfig};
        let obs = ObsHandle::enabled("restart");
        let mut cfg = PipelineConfig {
            mode: IntegrationMode::GpuForBoth,
            batch_chunks: 8,
            journal_pages: 256,
            obs: obs.clone(),
            ..PipelineConfig::default()
        };
        cfg.ssd_spec.faults = dr_ssd_sim::SsdFaultSpec {
            write_error_rate: 0.5,
            seed: 3,
            ..Default::default()
        };
        cfg.gpu_spec.faults = dr_gpu_sim::GpuFaultSpec {
            launch_failure_rate: 0.8,
            seed: 3,
            ..Default::default()
        };
        // Unique blocks, so every write compresses and programs pages.
        let noise = |seed: u64| {
            let mut rng = dr_des::SplitMix64::new(seed);
            (0..64 * 4096)
                .map(|_| rng.next_u64() as u8)
                .collect::<Vec<u8>>()
        };
        let counters = || {
            let snapshot = obs.snapshot().expect("enabled");
            let fault = snapshot.counters.into_iter();
            fault
                .filter(|(name, _)| name.starts_with("fault."))
                .collect::<Vec<_>>()
        };
        let latches = |p: &Pipeline| {
            let guards = [
                &p.fault.gpu_dedup,
                &p.fault.gpu_compress,
                &p.destage.ssd_write,
            ];
            guards.map(Guarded::is_degraded)
        };
        let mut p = Pipeline::new(cfg);
        p.run(&noise(1));
        let before = counters();
        assert_eq!(before.len(), 8, "{before:?}");
        assert!(before.iter().all(|(_, n)| *n > 0), "{before:?}");
        assert_eq!(latches(&p), [true; 3], "every latch open before the cut");

        let at = p.last_ack();
        let cut = dr_ssd_sim::CrashSpec { at, torn_seed: 7 };
        p.power_cut_and_recover(cut).expect("recovery");
        assert_eq!(latches(&p), [false; 3], "a restart closes every latch");
        let after = counters();
        assert_eq!(after.len(), before.len());
        for ((name, was), (_, is)) in before.iter().zip(&after) {
            assert!(is >= was, "{name}: {was} before the cut, {is} after");
        }

        // Gentler SSD faults, so no drain outlives its rest.
        p.set_ssd_faults(dr_ssd_sim::SsdFaultSpec {
            write_error_rate: 0.2,
            seed: 5,
            ..Default::default()
        });
        p.run(&noise(2));
        let total = |counters: &[(String, u64)], tally: &str| -> u64 {
            let of = counters.iter().filter(|(name, _)| name.ends_with(tally));
            of.map(|(_, n)| n).sum()
        };
        for tally in [".injected", ".retries"] {
            assert!(total(&counters(), tally) > total(&after, tally), "{tally}");
        }
    }

    /// Fault-track conformance: for every guarded component the fault-track
    /// instants and the `fault.*` counters must tell the same story, and
    /// tracing must not perturb a faulted run. The scenarios
    /// give the pipeline's components a short rest through
    /// [`Guarded::set_rest`], so latches re-probe and close again inside
    /// one run.
    mod fault_track {
        use super::*;
        use crate::{IntegrationMode, Pipeline, PipelineConfig};
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

        /// What one faulted scenario left behind, traced.
        struct FaultedRun {
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

        /// Drives `cfg`, every guarded component resting `rest`, through `drive`
        /// twice — tracer off, tracer on — requires the two reports to be equal,
        /// and returns the traced run.
        fn run_faulted_traced(
            cfg: &PipelineConfig,
            rest: SimDuration,
            drive: impl Fn(&mut Pipeline),
        ) -> FaultedRun {
            let run = |tracer: Tracer| {
                let obs = ObsHandle::enabled("fault-track").with_tracer(tracer);
                let mut p = Pipeline::new(PipelineConfig {
                    obs: obs.clone(),
                    ..cfg.clone()
                });
                p.fault.gpu_dedup.set_rest(rest);
                p.fault.gpu_compress.set_rest(rest);
                p.destage.ssd_write.set_rest(rest);
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
                fault_track,
                counters,
            }
        }

        /// The per-component contract. `track` is the fault-track prefix
        /// (`gpu-dedup`), `metric` the counter infix (`gpu_dedup`), and
        /// `retry_instants` every instant name that tallies on the component's
        /// retry counter.
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
            let (open, close) = (
                format!("{track} latch open"),
                format!("{track} latch close"),
            );
            assert_eq!(
                run.instants(&open),
                run.counter(&format!("fault.{metric}.degraded_transitions")),
                "{track}: latch-open instants vs counter"
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
            let quick = SimDuration::from_micros(200);
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
            let quick = SimDuration::from_micros(200);
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
            let quick = SimDuration::from_micros(5);
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
