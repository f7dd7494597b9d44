//! Thread placement for the measuring process: the client thread on one
//! CPU, every thread the program spawns on the others.
//!
//! Left to the scheduler, a woken pool thread sometimes lands beside the
//! client thread (hand-off is a context switch, but nothing overlaps) and
//! sometimes on another CPU (work overlaps, but every hand-off is a
//! cross-CPU wake-up, which a virtual machine makes expensive). On the
//! 2-core reference host the two placements differ by 25 % on
//! `bulk_ingest` and 70 % on `read_mix` overwrites, and which one a run
//! gets lasts minutes — the measured metric was bimodal. Fixing the
//! placement to the one a multi-core deployment has (threads on their own
//! cores) makes runs comparable. This is `taskset` from inside: the
//! program is not touched, its threads only inherit a mask.

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs this process may use, split into the lowest one and the
    /// rest; `None` when there is only one (or the kernel will not say).
    fn split() -> Option<(CpuSet, CpuSet)> {
        static SPLIT: std::sync::OnceLock<Option<(CpuSet, CpuSet)>> = std::sync::OnceLock::new();
        *SPLIT.get_or_init(|| {
            let mut allowed: CpuSet = [0; 16];
            // SAFETY: `allowed` is a writable buffer of exactly the size
            // passed; pid 0 names the calling thread.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
            if rc != 0 || allowed.iter().map(|w| w.count_ones()).sum::<u32>() < 2 {
                return None;
            }
            let word = allowed.iter().position(|w| *w != 0)?;
            let mut first: CpuSet = [0; 16];
            first[word] = 1 << allowed[word].trailing_zeros();
            let mut rest = allowed;
            rest[word] &= !first[word];
            Some((first, rest))
        })
    }

    fn set(mask: &CpuSet) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread. A refusal (ignored) only leaves
        // the placement to the scheduler.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    }

    pub fn spawn_side() {
        if let Some((_, rest)) = split() {
            set(&rest);
        }
    }

    pub fn client_side() {
        if let Some((first, _)) = split() {
            set(&first);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn spawn_side() {}
    pub fn client_side() {}
}

/// Runs `build` — which constructs a system and with it the program's
/// pool threads — restricted to every CPU but the client's, so the
/// threads it spawns inherit that mask; then moves the calling (client)
/// thread to its own CPU. A no-op on a single-CPU host.
pub fn with_spawned_threads_elsewhere<T>(build: impl FnOnce() -> T) -> T {
    imp::spawn_side();
    let built = build();
    imp::client_side();
    built
}
