//! A persistent work-stealing worker pool for the reduction hot path.
//!
//! The paper's CPU stages (hashing, compression, index probes) have no
//! inter-chunk dependency, so they scale across workers — but spawning a
//! fresh `thread::scope` per batch pays thread-creation latency on every
//! batch, exactly the per-item setup cost the paper's bin buffer exists to
//! amortize. [`WorkerPool`] creates its threads **once** and feeds them
//! batches for the pool's whole lifetime:
//!
//! * [`WorkerPool::map_batch`] — an order-preserving parallel for-loop over
//!   `0..n`. Work is split into one contiguous range per participant; a
//!   participant that drains its own range **steals half of the largest
//!   remaining range** of another, so skewed per-item costs still balance.
//!   The caller participates too, and the call returns only when every
//!   index has been processed (panics from items are re-raised on the
//!   caller after the batch quiesces).
//! * [`WorkerPool::map_collect`] / [`WorkerPool::for_each_mut`] — the same
//!   loop, collecting results in input order / mutating disjoint slots.
//! * [`WorkerPool::for_each_mut_grained`] — `for_each_mut` for callers that
//!   know what an item costs: it involves
//!   [`WorkerPool::fan_out_width`]`(n, grain)` participants, and a batch
//!   below two grains is a plain loop on the caller. The pipeline's stages
//!   all fan out through it, so a write of up to three chunks never
//!   touches another thread.
//! * [`WorkerPool::spawn`] — a fire-and-forget `'static` job with a
//!   joinable [`JobHandle`].
//! * [`WorkerPool::join`] — a scoped job: `a` runs on a pool thread while
//!   the caller runs `b`, and `a` may borrow the caller's data because
//!   `join` waits for it on every way out, unwinding included. The
//!   pipeline hashes batch *N+1* this way, straight from the caller's
//!   write buffer, while batch *N* compresses and destages (double
//!   buffering). A hand-off to another thread is worth it only when the
//!   submitter has something else to do meanwhile; the pipeline joins
//!   only then.
//!
//! A pool with **zero workers** degrades to inline execution on the caller
//! thread — no threads, deterministic, and useful for tests and
//! single-core containers.
//!
//! # Wake-up protocol
//!
//! The units handed over are small (a 16-chunk hash group is 14 µs, two
//! 4 KiB compressions about 10), so a wake-up is a large part of what a
//! hand-off costs. Every wait in the pool is therefore **spin-then-park**:
//!
//! * An idle worker spins for one [`SPIN_WINDOW`] (40 µs, one park/unpark
//!   round trip as measured — see `park.rs`) on a publish epoch, an
//!   atomic that `map_batch`, `spawn` and shutdown bump. Work published
//!   inside the window — the next fan-out of the same batch — is
//!   picked up with no system call on either side. Spinning reads one
//!   atomic; it never takes the state mutex the publisher needs.
//! * A worker that outlasts the window parks on the pool condvar and
//!   counts itself in a **sleeper count** kept under the state mutex,
//!   after a last scan of the queue under that same mutex.
//! * A publisher queues its work under the state mutex, reads the sleeper
//!   count there, and issues `notify_all` (batch) / `notify_one` (job)
//!   **only when the count is non-zero**. Either the work was queued
//!   before the worker's last scan (which finds it) or the count already
//!   includes the worker (which gets the notify): no lost wake-up, and no
//!   `futex` call at all while the workers are awake.
//! * The submitter's own waits — `map_batch` for the tail of the batch,
//!   [`JobHandle::join`] and [`WorkerPool::join`] for the job — spin the
//!   same window on a completion flag before parking, and the finishing
//!   thread notifies only a parked waiter.
//!
//! Instrumentation (all through `dr-obs`, inert unless enabled): a
//! `pool.queue_depth` gauge, `pool.tasks` / `pool.steals` / `pool.batches`
//! / `pool.fan_outs` / `pool.jobs` counters, and a `pool.batch_wall_ns`
//! latency histogram. `pool.batches` counts every `map_batch` call,
//! `pool.fan_outs` the ones that left the caller — how many stage calls
//! used a worker, without opening a trace.
//!
//! ```
//! use dr_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(2);
//! let squares = pool.map_collect(5, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

mod batch;
mod job;
mod park;

pub use job::JobHandle;
pub use park::SPIN_WINDOW;

use batch::BatchCore;
use dr_obs::trace::{Tracer, Track};
use dr_obs::{CounterHandle, GaugeHandle, HistogramHandle, ObsHandle};
use job::JoinOnDrop;
use park::spin_until;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{JoinHandle as ThreadHandle, ThreadId};
use std::time::Instant;

thread_local! {
    /// The pool-worker id of the current thread, when it is one.
    static WORKER_ID: Cell<Option<u16>> = const { Cell::new(None) };
}

/// The wall-clock trace track of the calling thread: `Worker(w)` on a
/// pool thread, `Driver` everywhere else (including nested calls made
/// from inside pool jobs, which attribute to the executing worker).
pub(crate) fn current_track() -> Track {
    WORKER_ID.with(|c| match c.get() {
        Some(w) => Track::Worker(w),
        None => Track::Driver,
    })
}

/// Hard ceiling on [`default_workers`] — beyond this, batch sizes in the
/// 64–256 chunk range stop amortizing coordination.
pub const MAX_DEFAULT_WORKERS: usize = 16;

/// The default worker count: `DR_POOL_WORKERS` when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] clamped to
/// `1..=`[`MAX_DEFAULT_WORKERS`].
///
/// Every layer that needs a worker count without an explicit configuration
/// (bench binaries, `PipelineConfig`) derives it from here instead of
/// hard-coding a constant.
pub fn default_workers() -> usize {
    if let Some(n) = std::env::var("DR_POOL_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_DEFAULT_WORKERS)
}

/// Interned pool metrics; all handles are no-ops until
/// [`WorkerPool::set_obs`] installs live ones.
#[derive(Debug, Default)]
struct PoolObs {
    queue_depth: GaugeHandle,
    tasks: CounterHandle,
    steals: CounterHandle,
    batches: CounterHandle,
    fan_outs: CounterHandle,
    jobs: CounterHandle,
    batch_wall_ns: HistogramHandle,
    tracer: Tracer,
}

/// The pool's current [`PoolObs`], read on every `map_batch` / `spawn` /
/// worker wake-up without a lock or a clone: an append-only chain whose
/// last link is current. [`WorkerPool::set_obs`] appends (once per
/// pipeline in practice), readers walk to the end — one hop.
#[derive(Default)]
struct ObsChain {
    obs: PoolObs,
    next: OnceLock<Box<ObsChain>>,
}

impl ObsChain {
    fn last(&self) -> &ObsChain {
        let mut link = self;
        while let Some(next) = link.next.get() {
            link = next;
        }
        link
    }

    fn append(&self, obs: PoolObs) {
        let mut new = Box::new(ObsChain {
            obs,
            next: OnceLock::new(),
        });
        // A concurrent `append` may take the tail first; chain behind it.
        while let Err(lost) = self.last().next.set(new) {
            new = lost;
        }
    }
}

/// What a pool thread does next.
enum Work {
    Job(Box<dyn FnOnce() + Send>),
    Batch(Arc<BatchCore>),
    /// The pool is shutting down: leave the worker loop.
    Exit,
}

/// Shared pool state behind the mutex.
struct State {
    jobs: VecDeque<Box<dyn FnOnce() + Send>>,
    batches: Vec<Arc<BatchCore>>,
    shutdown: bool,
    /// Workers parked on `Inner::cv`. A worker counts itself in under
    /// this mutex, after a scan that found nothing and before `wait`
    /// releases it; a publisher queues its work under the same mutex and
    /// reads the count there. So the publisher either queued before the
    /// scan (the worker finds the work) or reads a count that includes
    /// the worker (and notifies): no wake-up can be lost, and none is
    /// issued while every worker is awake.
    sleepers: usize,
}

impl State {
    fn queue_depth(&self) -> i64 {
        (self.jobs.len() + self.batches.len()) as i64
    }

    /// The next thing a worker should do, if there is anything.
    fn take_work(&mut self, obs: &PoolObs) -> Option<Work> {
        if self.shutdown {
            return Some(Work::Exit);
        }
        if let Some(job) = self.jobs.pop_front() {
            obs.queue_depth.set(self.queue_depth());
            return Some(Work::Job(job));
        }
        let batch = self.batches.iter().find(|b| b.has_work())?;
        Some(Work::Batch(Arc::clone(batch)))
    }
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    /// Bumped (under `state`) whenever work is queued or shutdown is
    /// raised: what an idle worker spins on, so spinning never touches
    /// the mutex the publisher needs.
    epoch: AtomicU64,
    workers: usize,
    obs: ObsChain,
}

impl Inner {
    fn obs(&self) -> &PoolObs {
        &self.obs.last().obs
    }

    /// Changes the queue under the state lock, then wakes parked workers —
    /// all of them or one — only if there are any.
    fn publish(&self, wake_all: bool, change: impl FnOnce(&mut State)) {
        let sleepers = {
            let mut st = self.state.lock().expect("pool state lock");
            change(&mut st);
            // Release: a spinner that sees the new epoch sees the change
            // too once it takes the lock; the lock alone orders the rest.
            self.epoch.fetch_add(1, Ordering::Release);
            st.sleepers
        };
        match (sleepers, wake_all) {
            (0, _) => {}
            (_, true) => self.cv.notify_all(),
            (_, false) => self.cv.notify_one(),
        }
    }
}

/// Joins the pool threads when the last [`WorkerPool`] clone drops.
struct Owner {
    inner: Arc<Inner>,
    handles: Mutex<Vec<ThreadHandle<()>>>,
    thread_ids: Vec<ThreadId>,
}

impl Drop for Owner {
    fn drop(&mut self) {
        self.inner.publish(true, |st| st.shutdown = true);
        // A pool clone captured by one of its own jobs can be the last one
        // dropped — *on a pool thread*. Joining ourselves would deadlock;
        // the threads see `shutdown` and exit on their own, so detaching
        // is safe.
        let me = std::thread::current().id();
        if self.thread_ids.contains(&me) {
            return;
        }
        for h in self.handles.lock().expect("pool handles lock").drain(..) {
            let _ = h.join();
        }
    }
}

/// A persistent pool of worker threads. Cheap to clone (all clones share
/// the same threads); the threads exit when the last clone drops.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<Inner>,
    _owner: Arc<Owner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.inner.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` persistent threads. `workers == 0`
    /// builds an inline pool: every operation runs on the caller thread.
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                batches: Vec::new(),
                shutdown: false,
                sleepers: 0,
            }),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            workers,
            obs: ObsChain::default(),
        });
        let mut handles = Vec::with_capacity(workers);
        let mut thread_ids = Vec::with_capacity(workers);
        for id in 0..workers {
            let inner = Arc::clone(&inner);
            let h = std::thread::Builder::new()
                .name(format!("dr-pool-{id}"))
                .spawn(move || worker_main(inner, id))
                .expect("spawning pool worker");
            thread_ids.push(h.thread().id());
            handles.push(h);
        }
        WorkerPool {
            _owner: Arc::new(Owner {
                inner: Arc::clone(&inner),
                handles: Mutex::new(handles),
                thread_ids,
            }),
            inner,
        }
    }

    /// The number of pool threads (0 for an inline pool).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Installs an observability sink; pass a disabled handle to turn
    /// instrumentation back off.
    pub fn set_obs(&self, obs: &ObsHandle) {
        self.inner.obs.append(PoolObs {
            queue_depth: obs.gauge("pool.queue_depth"),
            tasks: obs.counter("pool.tasks"),
            steals: obs.counter("pool.steals"),
            batches: obs.counter("pool.batches"),
            fan_outs: obs.counter("pool.fan_outs"),
            jobs: obs.counter("pool.jobs"),
            batch_wall_ns: obs.histogram("pool.batch_wall_ns"),
            tracer: obs.tracer().clone(),
        });
    }

    /// How many participants a fan-out of `n` items is worth when a
    /// participant should get at least `grain` of them: the caller plus as
    /// many pool threads as that leaves work for, `1` (the caller alone)
    /// when there is not enough for two.
    ///
    /// Handing work to a thread that is still spinning costs about 3 µs;
    /// one that has parked needs a wake-up round trip ([`SPIN_WINDOW`])
    /// first. Callers pick `grain` so that one participant's share
    /// outweighs a hand-off to a worker that is awake. In a stream of
    /// calls the worker stays awake from one fan-out to the next; after an
    /// idle gap the first fan-out wakes it and the ones after it find it
    /// spinning. Batches below two grains never leave the calling thread.
    pub fn fan_out_width(&self, n: usize, grain: usize) -> usize {
        (self.inner.workers + 1).min(n / grain.max(1)).max(1)
    }

    /// Runs `f(i)` for every `i in 0..n` across the pool, returning once
    /// all calls completed. Each index runs exactly once; the caller
    /// thread participates, so the pool can never deadlock on its own
    /// batches (including batches published from inside pool jobs).
    ///
    /// # Panics
    ///
    /// If any `f(i)` panics, remaining work is abandoned, the batch
    /// quiesces, and the first panic is re-raised on the caller.
    pub fn map_batch<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.map_batch_grained(n, 1, f);
    }

    /// [`WorkerPool::map_batch`] over [`WorkerPool::fan_out_width`]`(n,
    /// grain)` participants: a batch too small to give two participants
    /// `grain` items each is a plain loop on the caller — no queue entry,
    /// no lock, no wake-up.
    fn map_batch_grained<F>(&self, n: usize, grain: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let obs = self.inner.obs();
        obs.batches.incr();
        obs.tasks.add(n as u64);
        let _trace = obs
            .tracer
            .wall_span(current_track(), "batch")
            .arg("items", n as u64);
        let participants = self.fan_out_width(n, grain);
        if participants < 2 {
            let start = Instant::now();
            for i in 0..n {
                f(i);
            }
            obs.batch_wall_ns.record(start.elapsed().as_nanos() as u64);
            return;
        }
        obs.fan_outs.incr();

        // SAFETY: the closure reference is erased to 'static so pool
        // threads can see it, but `map_batch` only returns after the batch
        // quiesced (every claimed index finished, no participant active)
        // and late arrivals can no longer claim an index — so no thread
        // dereferences the pointer after `f` goes out of scope.
        let core = unsafe { BatchCore::new(&f, participants, n) };
        self.inner.publish(true, |st| {
            st.batches.push(Arc::clone(&core));
            obs.queue_depth.set(st.queue_depth());
        });

        let start = Instant::now();
        core.participate(0, &obs.tracer);
        core.wait_done();
        obs.batch_wall_ns.record(start.elapsed().as_nanos() as u64);
        obs.steals.add(core.steals());
        {
            let mut st = self.inner.state.lock().expect("pool state lock");
            st.batches.retain(|b| !Arc::ptr_eq(b, &core));
            obs.queue_depth.set(st.queue_depth());
        }
        if let Some(payload) = core.take_panic() {
            resume_unwind(payload);
        }
    }

    /// Order-preserving parallel map: returns `[f(0), f(1), .., f(n-1)]`.
    pub fn map_collect<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        self.for_each_mut(&mut out, |i, slot| *slot = Some(f(i)));
        out.into_iter()
            .map(|r| r.expect("every batch index runs exactly once"))
            .collect()
    }

    /// Runs `f(i, &mut items[i])` for every slot in parallel. Slots are
    /// disjoint, so no synchronization is needed beyond the batch itself.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.for_each_mut_grained(items, 1, f);
    }

    /// [`WorkerPool::for_each_mut`] that leaves the calling thread only
    /// when [`WorkerPool::fan_out_width`]`(items.len(), grain)` is two or
    /// more; `grain` is the number of items whose cost outweighs a
    /// hand-off to a worker that is awake.
    pub fn for_each_mut_grained<T, F>(&self, items: &mut [T], grain: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        struct SlotPtr<T>(*mut T);
        // SAFETY: each index is claimed exactly once, so every slot is
        // mutated by exactly one participant at a time.
        unsafe impl<T: Send> Sync for SlotPtr<T> {}
        impl<T> SlotPtr<T> {
            /// # Safety
            /// `i` must be in bounds and claimed by exactly one caller.
            unsafe fn slot(&self, i: usize) -> *mut T {
                self.0.add(i)
            }
        }
        let ptr = SlotPtr(items.as_mut_ptr());
        let n = items.len();
        self.map_batch_grained(n, grain, move |i| {
            debug_assert!(i < n);
            // SAFETY: `i < n` and indices are claimed exactly once.
            f(i, unsafe { &mut *ptr.slot(i) });
        });
    }

    /// Submits an asynchronous job and returns a handle to claim its
    /// result. On an inline pool the job runs immediately on the caller.
    ///
    /// Jobs may capture a clone of their own pool and publish nested
    /// batches; the executing worker participates in those itself.
    pub fn spawn<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let obs = self.inner.obs();
        obs.jobs.incr();
        if self.inner.workers == 0 {
            return JobHandle::ready(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        }
        let (handle, job) = boxed_job(f);
        self.queue_job(obs, job);
        handle
    }

    /// Runs `a` as a pool job and `b` on the caller, and returns both
    /// results. Unlike a [`WorkerPool::spawn`]ed job, `a` may borrow from
    /// the caller's frame: `join` neither returns nor unwinds before `a`
    /// has finished. On an inline pool it is `a()` then `b()`. `a` needs a
    /// free pool thread, so from inside a pool job `join` waits for
    /// another worker to take it.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from either half once both have finished — `b`'s
    /// when both panicked.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        RA: Send,
        B: FnOnce() -> RB,
    {
        let obs = self.inner.obs();
        obs.jobs.incr();
        if self.inner.workers == 0 {
            let ra = a();
            return (ra, b());
        }
        let (handle, job) = boxed_job(a);
        // SAFETY: the job's borrows are erased to 'static so a pool thread
        // can run it, but `join` only returns — or unwinds out of `b` —
        // after the job completed (`JoinOnDrop` waits on either way out),
        // and the job's result is taken out of the shared slot on this
        // thread, so the worker's last reference drops an empty slot. No
        // thread touches anything `a` borrowed after this frame is gone —
        // the `map_batch` argument.
        let job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
        };
        self.queue_job(obs, job);
        // Armed once the job is queued: a guard waiting on a job that was
        // never queued would wait forever.
        let mut job_half = JoinOnDrop(Some(handle));
        let rb = b();
        let ra = job_half.0.take().expect("joined once").join();
        (ra, rb)
    }

    /// Queues a job for the next free worker.
    fn queue_job(&self, obs: &PoolObs, job: Box<dyn FnOnce() + Send>) {
        self.inner.publish(false, |st| {
            st.jobs.push_back(job);
            obs.queue_depth.set(st.queue_depth());
        });
    }
}

/// `f` as a pool job, and the handle it resolves with `f`'s result — or
/// its panic.
fn boxed_job<'f, T: Send + 'f>(
    f: impl FnOnce() -> T + Send + 'f,
) -> (JobHandle<T>, Box<dyn FnOnce() + Send + 'f>) {
    let (handle, completer) = JobHandle::pending();
    let job = Box::new(move || {
        completer.complete(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    });
    (handle, job)
}

/// Blocks until there is something for this worker to do. An idle worker
/// first spins on the publish epoch for one [`SPIN_WINDOW`] — the next
/// fan-out of the same write call, or the next call of a busy client,
/// arrives inside it and is picked up with no system call on either side
/// — and only then parks on the condvar, counted in `State::sleepers` so
/// that publishers know to notify.
fn next_work(inner: &Inner) -> Work {
    let lock = || inner.state.lock().expect("pool state lock");
    loop {
        let seen = inner.epoch.load(Ordering::Acquire);
        if let Some(work) = lock().take_work(inner.obs()) {
            return work;
        }
        if spin_until(|| inner.epoch.load(Ordering::Acquire) != seen) {
            continue;
        }
        let mut st = lock();
        loop {
            if let Some(work) = st.take_work(inner.obs()) {
                return work;
            }
            st.sleepers += 1;
            st = inner.cv.wait(st).expect("pool state lock");
            st.sleepers -= 1;
        }
    }
}

fn worker_main(inner: Arc<Inner>, id: usize) {
    WORKER_ID.with(|c| c.set(Some(id.min(u16::MAX as usize) as u16)));
    loop {
        let work = next_work(&inner);
        let tracer = &inner.obs().tracer;
        match work {
            Work::Job(job) => {
                let _trace = tracer.wall_span(current_track(), "job");
                job();
            }
            // Slot `id + 1`: slot 0 belongs to the publishing caller.
            Work::Batch(core) => {
                let _trace = tracer.wall_span(current_track(), "batch-help");
                core.participate(id + 1, tracer);
            }
            Work::Exit => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_positive_and_clamped() {
        let n = default_workers();
        assert!(n >= 1);
        // An explicit env override may exceed the clamp; without one the
        // clamp applies. Either way the value must be usable.
        assert!(n <= 4096);
    }

    #[test]
    fn map_collect_preserves_order() {
        let pool = WorkerPool::new(3);
        let got = pool.map_collect(100, |i| i * 2);
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.map_batch(0, |_| panic!("must not run"));
        assert!(pool.map_collect(0, |i| i).is_empty());
    }

    #[test]
    fn fan_out_width_counts_whole_grains_up_to_the_pool_width() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.fan_out_width(0, 8), 1);
        assert_eq!(pool.fan_out_width(15, 8), 1);
        assert_eq!(pool.fan_out_width(16, 8), 2);
        assert_eq!(pool.fan_out_width(31, 8), 3);
        assert_eq!(pool.fan_out_width(1000, 8), 4);
        assert_eq!(pool.fan_out_width(2, 1), 2);
        assert_eq!(pool.fan_out_width(5, 0), 4, "a zero grain means one");
        assert_eq!(WorkerPool::new(0).fan_out_width(1000, 8), 1);
    }

    #[test]
    fn a_batch_below_two_grains_never_leaves_the_caller() {
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(2);
        let me = std::thread::current().id();
        let helped = AtomicBool::new(false);
        // Every item the caller runs holds on until a pool thread has run
        // one too (or, failing that, for ten seconds).
        let ran_on = |n: usize, wait_for_help: bool| {
            let mut ids = vec![None; n];
            pool.for_each_mut_grained(&mut ids, 8, |_, id| {
                let here = std::thread::current().id();
                *id = Some(here);
                if here != me {
                    helped.store(true, Ordering::Release);
                }
                let start = Instant::now();
                while wait_for_help
                    && !helped.load(Ordering::Acquire)
                    && start.elapsed().as_secs() < 10
                {
                    std::thread::yield_now();
                }
            });
            ids
        };
        assert!(ran_on(15, false).iter().all(|id| *id == Some(me)));
        assert!(!helped.load(Ordering::Acquire));
        // From two grains up the pool is in, and every slot still runs.
        assert!(ran_on(16, true).iter().all(Option::is_some));
        assert!(helped.load(Ordering::Acquire), "no pool thread joined");
    }

    #[test]
    fn inline_pool_runs_on_caller() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let got = pool.map_collect(10, |i| i + 1);
        assert_eq!(got, (1..=10).collect::<Vec<_>>());
        assert_eq!(pool.spawn(|| 7usize).join(), 7);
    }

    #[test]
    fn spawned_jobs_return_results() {
        let pool = WorkerPool::new(2);
        let handles: Vec<_> = (0..8).map(|i| pool.spawn(move || i * i)).collect();
        let got: Vec<usize> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(got, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_joined_job_reads_and_writes_the_callers_stack() {
        let pool = WorkerPool::new(2);
        let me = std::thread::current().id();
        let input: Vec<u64> = (1..=1000).collect();
        let mut out = [0u64; 2];
        let (ran_on, local) = pool.join(
            || {
                out[0] = input.iter().sum();
                out[1] = input[999];
                std::thread::current().id()
            },
            || input.len(),
        );
        assert_ne!(ran_on, me, "the job half runs on a pool thread");
        assert_eq!(out, [500_500, 1000]);
        assert_eq!(local, 1000);
    }

    /// The message of a caught panic.
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload.downcast_ref::<&str>().copied().unwrap_or_default()
    }

    #[test]
    fn a_panic_in_the_joined_job_is_re_raised_after_both_halves_finish() {
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(2);
        let caller_done = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.join(
                || panic!("job failure"),
                || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    caller_done.store(true, Ordering::Release);
                },
            )
        }));
        let payload = result.expect_err("the job's panic reaches the caller");
        assert_eq!(panic_message(&*payload), "job failure");
        assert!(caller_done.load(Ordering::Acquire));
        assert_eq!(pool.join(|| 1, || 2), (1, 2), "the pool survives");
    }

    #[test]
    fn a_panic_in_the_callers_half_still_waits_for_the_job() {
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(1);
        let job_done = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.join(
                || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    job_done.store(true, Ordering::Release);
                },
                || panic!("caller failure"),
            )
        }));
        let payload = result.expect_err("the caller's panic propagates");
        assert_eq!(panic_message(&*payload), "caller failure");
        assert!(
            job_done.load(Ordering::Acquire),
            "join unwound before its job finished"
        );
    }

    #[test]
    fn join_on_an_inline_pool_runs_the_job_then_the_callers_half() {
        let pool = WorkerPool::new(0);
        let me = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let (ran_on, b) = pool.join(
            || {
                order.lock().unwrap().push("a");
                std::thread::current().id()
            },
            || {
                order.lock().unwrap().push("b");
                7
            },
        );
        assert_eq!((ran_on, b), (me, 7));
        assert_eq!(*order.lock().unwrap(), ["a", "b"]);
    }

    #[test]
    fn batch_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_batch(64, |i| {
                if i == 17 {
                    panic!("boom at 17");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // The pool must still work after a poisoned batch.
        assert_eq!(pool.map_collect(8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_map_batch_from_a_job_completes() {
        let pool = WorkerPool::new(2);
        let inner_pool = pool.clone();
        let handle = pool.spawn(move || inner_pool.map_collect(32, |i| i + 1));
        assert_eq!(handle.join(), (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn obs_counts_tasks_batches_and_jobs() {
        let obs = ObsHandle::enabled("pool-test");
        let pool = WorkerPool::new(2);
        pool.set_obs(&obs);
        pool.map_batch(10, |_| {});
        // Under two grains: a batch that never leaves the caller.
        pool.for_each_mut_grained(&mut [0u8; 7], 4, |_, _| {});
        pool.spawn(|| ()).join();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("pool.tasks"), 17);
        assert_eq!(counter("pool.batches"), 2);
        assert_eq!(counter("pool.fan_outs"), 1);
        assert_eq!(counter("pool.jobs"), 1);
    }
}
