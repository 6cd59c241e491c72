//! Shimmed scoped threads.
//!
//! Normal builds re-export `std::thread` items untouched. Under
//! `gpf_check`, a scoped spawn from a model thread registers a new
//! *virtual* thread with the scheduler: the OS thread is still real (so
//! TLS, borrows and panics behave exactly as in production), but it only
//! executes while the scheduler's baton grants it, and spawn/join edges
//! update the vector clocks (a join makes everything the child did
//! happen-before the joiner). Spawns from non-model threads pass through
//! to `std`.

#[cfg(not(gpf_check))]
pub use std::thread::{scope, Scope, ScopedJoinHandle};

#[cfg(gpf_check)]
pub use checked::{scope, Scope, ScopedJoinHandle};

#[cfg(gpf_check)]
mod checked {
    use crate::rt;

    /// Instrumented `std::thread::scope` wrapper.
    ///
    /// Before `std::thread::scope`'s implicit join (which OS-blocks), any
    /// model children not explicitly joined are model-joined first —
    /// otherwise the scope owner would block in the OS while still holding
    /// the scheduler baton and wedge the whole schedule. On unwind out of
    /// the scope body the schedule is aborted instead, so parked model
    /// threads wake and unwind rather than deadlocking the join.
    pub fn scope<'env, F, R>(f: F) -> R
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        std::thread::scope(|s| {
            let wrapped = Scope { inner: s, pending: std::sync::Mutex::new(Vec::new()) };
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&wrapped))) {
                Ok(v) => {
                    wrapped.join_pending();
                    v
                }
                Err(payload) => {
                    rt::abort_current_schedule("panic unwinding a thread scope");
                    std::panic::resume_unwind(payload);
                }
            }
        })
    }

    /// Scope handle mirroring `std::thread::Scope`.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        /// Model tids spawned in this scope and not yet explicitly joined.
        pending: std::sync::Mutex<Vec<usize>>,
    }

    /// Join handle mirroring `std::thread::ScopedJoinHandle`.
    pub struct ScopedJoinHandle<'scope, 'a, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
        tid: Option<usize>,
        pending: Option<&'a std::sync::Mutex<Vec<usize>>>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread in the scope; a virtual (scheduler-registered)
        /// thread when the spawner is itself a model thread.
        pub fn spawn<'a, F, T>(&'a self, f: F) -> ScopedJoinHandle<'scope, 'a, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match rt::spawn_register() {
                Some((sched, tid)) => {
                    self.pending.lock().unwrap_or_else(|e| e.into_inner()).push(tid);
                    let inner = self.inner.spawn(move || rt::child_main(sched, tid, f));
                    ScopedJoinHandle { inner, tid: Some(tid), pending: Some(&self.pending) }
                }
                None => {
                    ScopedJoinHandle { inner: self.inner.spawn(f), tid: None, pending: None }
                }
            }
        }

        /// Model-join every child not explicitly joined, in spawn order.
        fn join_pending(&self) {
            let tids = {
                let mut p = self.pending.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *p)
            };
            for tid in tids {
                rt::join_wait(tid);
            }
        }
    }

    impl<'scope, 'a, T> ScopedJoinHandle<'scope, 'a, T> {
        /// Join the thread, returning its result (or the panic payload).
        pub fn join(self) -> std::thread::Result<T> {
            if let Some(tid) = self.tid {
                // Model join: park until the child's virtual thread is
                // finished (the real join below then returns immediately)
                // and acquire its final clock.
                if let Some(pending) = self.pending {
                    pending.lock().unwrap_or_else(|e| e.into_inner()).retain(|t| *t != tid);
                }
                rt::join_wait(tid);
            }
            self.inner.join()
        }
    }
}
