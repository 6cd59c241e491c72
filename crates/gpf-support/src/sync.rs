//! Locks with `parking_lot` ergonomics over `std::sync`.
//!
//! The workspace treats a poisoned lock as unreachable: engine tasks that
//! panic already abort the whole job through [`crate::par`]'s panic
//! propagation, so a poison state can only be observed while unwinding —
//! where propagating data is harmless. These wrappers therefore expose the
//! `parking_lot` API (`lock()` returning a guard directly) and recover the
//! inner data from poison instead of bubbling a `Result` through every
//! call site.

/// The implementation now lives in `gpf_check::shim::sync`, so one set of
/// lock types serves both worlds: real `std` locks in normal builds, and —
/// under `RUSTFLAGS="--cfg gpf_check"` — scheduler-instrumented doubles
/// whose acquisition order the model checker explores and whose
/// release→acquire edges carry the releaser's view to the acquirer. This
/// re-export also adds `const fn new` on both locks.
pub use gpf_check::shim::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_counts() {
        let m = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn lock_survives_poison() {
        let m = Arc::new(Mutex::new(41u64));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        *m.lock() += 1; // would panic on a raw std::sync::Mutex unwrap
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2, 3]);
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(*l.read(), vec![1, 2, 3, 4]);
        assert_eq!(l.into_inner(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(5);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().expect("uncontended"), 5);
    }
}
