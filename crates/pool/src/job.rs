//! Joinable results for jobs submitted with `WorkerPool::spawn`.

use std::sync::{Arc, Mutex};
use std::thread::Result as ThreadResult;

use crate::park::Completion;

struct Slot<T> {
    result: Mutex<Option<ThreadResult<T>>>,
    /// Set after `result` is stored; the joiner waits on it spin-then-park
    /// and only then touches the mutex.
    done: Completion,
}

impl<T> Slot<T> {
    fn new(result: Option<ThreadResult<T>>) -> Arc<Self> {
        Arc::new(Slot {
            done: Completion::new(result.is_some()),
            result: Mutex::new(result),
        })
    }
}

/// The producing end of a job slot, moved into the pool job.
pub(crate) struct Completer<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Completer<T> {
    pub(crate) fn complete(self, result: ThreadResult<T>) {
        *self.slot.result.lock().expect("job slot lock") = Some(result);
        self.slot.done.set();
    }
}

/// A handle to a job submitted with `WorkerPool::spawn`.
///
/// Dropping the handle without joining is allowed; the job still runs to
/// completion and its result is discarded.
#[must_use = "join the handle to observe the job's result (and any panic)"]
pub struct JobHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> JobHandle<T> {
    /// A pending handle plus the completer the job resolves it with.
    pub(crate) fn pending() -> (Self, Completer<T>) {
        let slot = Slot::new(None);
        (
            JobHandle {
                slot: Arc::clone(&slot),
            },
            Completer { slot },
        )
    }

    /// A handle that is already resolved (inline pools run jobs eagerly).
    pub(crate) fn ready(result: ThreadResult<T>) -> Self {
        JobHandle {
            slot: Slot::new(Some(result)),
        }
    }

    /// Blocks until the job finished and returns its result.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic, if it panicked.
    pub fn join(self) -> T {
        match self.wait_result() {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Blocks until the job finished and takes its result, panic or not,
    /// out of the slot on the calling thread.
    pub(crate) fn wait_result(&self) -> ThreadResult<T> {
        self.slot.done.wait();
        let result = self.slot.result.lock().expect("job slot lock").take();
        result.expect("a completed job stored its result")
    }

    /// True once the job finished (join will not block).
    pub fn is_finished(&self) -> bool {
        self.slot.done.is_set()
    }
}

/// The job half of `WorkerPool::join`, which borrows from the caller's
/// frame: dropping the guard — on the way out of `join`, by return or by
/// unwind — waits for the job and drops its result on this thread.
pub(crate) struct JoinOnDrop<T>(pub(crate) Option<JobHandle<T>>);

impl<T> Drop for JoinOnDrop<T> {
    fn drop(&mut self) {
        if let Some(job) = self.0.take() {
            drop(job.wait_result());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_handles_resolve_immediately() {
        let h = JobHandle::ready(Ok(42));
        assert!(h.is_finished());
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn pending_handles_resolve_on_complete() {
        let (h, c) = JobHandle::<&str>::pending();
        assert!(!h.is_finished());
        c.complete(Ok("done"));
        assert_eq!(h.join(), "done");
    }
}
