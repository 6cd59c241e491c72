//! Shimmed locks, with `parking_lot` ergonomics.
//!
//! The workspace treats a poisoned lock as unreachable: engine tasks that
//! panic already abort the whole job through `gpf_support::par`'s panic
//! propagation, so a poison state can only be observed while unwinding —
//! where propagating data is harmless. Both builds therefore expose
//! `lock()` returning a guard directly and recover the inner data from
//! poison instead of bubbling a `Result` through every call site.
//!
//! Under `gpf_check`, acquisition order is mediated by the scheduler: a
//! model thread that finds the lock model-held parks in the lock-wait
//! graph (deadlock-detectable) instead of blocking in the OS, and every
//! release→acquire pair carries the releaser's clock and visibility floors
//! to the acquirer. The inner `std` lock still provides real mutual
//! exclusion against non-model threads (pass-through access stays
//! correct).

#[cfg(not(gpf_check))]
pub use real::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(gpf_check)]
pub use checked::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Init-once cell. Pass-through in both builds: initialization racing is
/// resolved by `std`, and init closures must not perform shim operations
/// (documented model-checker gap — the registry-style init closures in
/// this workspace are trivial).
pub use std::sync::OnceLock;

#[cfg(not(gpf_check))]
mod real {
    /// A mutual-exclusion lock whose `lock()` never fails.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    /// Guard type returned by [`Mutex::lock`].
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

    impl<T> Mutex<T> {
        /// Wrap a value.
        pub const fn new(value: T) -> Self {
            Self(std::sync::Mutex::new(value))
        }

        /// Consume the lock, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire the lock, ignoring poison.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Try to acquire the lock without blocking.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.0.try_lock() {
                Ok(g) => Some(g),
                Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// A readers-writer lock whose acquisition methods never fail.
    #[derive(Debug, Default)]
    pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

    /// Guard type returned by [`RwLock::read`].
    pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
    /// Guard type returned by [`RwLock::write`].
    pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

    impl<T> RwLock<T> {
        /// Wrap a value.
        pub const fn new(value: T) -> Self {
            Self(std::sync::RwLock::new(value))
        }

        /// Consume the lock, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquire a shared read guard, ignoring poison.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(|e| e.into_inner())
        }

        /// Acquire an exclusive write guard, ignoring poison.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(|e| e.into_inner())
        }
    }
}

#[cfg(gpf_check)]
mod checked {
    use crate::rt::{self, LocId};

    /// Instrumented mutual-exclusion lock (non-poisoning API).
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized> {
        id: LocId,
        inner: std::sync::Mutex<T>,
    }

    /// Guard for [`Mutex`]: releases the real lock first, then reports the
    /// model-level release (with its happens-before edge) to the scheduler.
    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
        std: Option<std::sync::MutexGuard<'a, T>>,
        model: bool,
    }

    impl<T> Mutex<T> {
        /// Wrap a value.
        pub const fn new(value: T) -> Self {
            Self { id: LocId::new(), inner: std::sync::Mutex::new(value) }
        }

        /// Consume the lock, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        fn std_lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Acquire the lock, ignoring poison.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            // Model path: `lock_acquire` returns once this thread won the
            // model-level acquisition, so no *model* thread holds the std
            // lock; any contention below is a brief non-model holder.
            let model = rt::lock_acquire(&self.id);
            MutexGuard { lock: self, std: Some(self.std_lock()), model }
        }

        /// Try to acquire the lock without blocking.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match rt::lock_try_acquire(&self.id) {
                Some(true) => Some(MutexGuard { lock: self, std: Some(self.std_lock()), model: true }),
                Some(false) => None,
                None => match self.inner.try_lock() {
                    Ok(g) => Some(MutexGuard { lock: self, std: Some(g), model: false }),
                    Err(std::sync::TryLockError::Poisoned(e)) => {
                        Some(MutexGuard { lock: self, std: Some(e.into_inner()), model: false })
                    }
                    Err(std::sync::TryLockError::WouldBlock) => None,
                },
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<'a, T: ?Sized> std::ops::Deref for MutexGuard<'a, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // gpf-lint: allow(no-panic): the std guard is present for the
            // guard's whole lifetime; only `Drop` takes it.
            self.std.as_ref().expect("guard taken")
        }
    }

    impl<'a, T: ?Sized> std::ops::DerefMut for MutexGuard<'a, T> {
        fn deref_mut(&mut self) -> &mut T {
            // gpf-lint: allow(no-panic): see Deref.
            self.std.as_mut().expect("guard taken")
        }
    }

    impl<'a, T: ?Sized> Drop for MutexGuard<'a, T> {
        fn drop(&mut self) {
            // Order matters: release the real lock before telling the
            // scheduler, so a model waiter granted next never OS-blocks on
            // our still-held std guard while carrying the baton.
            drop(self.std.take());
            if self.model {
                rt::lock_release(&self.lock.id);
            }
        }
    }

    /// Instrumented readers-writer lock (non-poisoning API).
    #[derive(Debug, Default)]
    pub struct RwLock<T: ?Sized> {
        id: LocId,
        inner: std::sync::RwLock<T>,
    }

    /// Read guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T: ?Sized> {
        lock: &'a RwLock<T>,
        std: Option<std::sync::RwLockReadGuard<'a, T>>,
        model: bool,
    }

    /// Write guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        lock: &'a RwLock<T>,
        std: Option<std::sync::RwLockWriteGuard<'a, T>>,
        model: bool,
    }

    impl<T> RwLock<T> {
        /// Wrap a value.
        pub const fn new(value: T) -> Self {
            Self { id: LocId::new(), inner: std::sync::RwLock::new(value) }
        }

        /// Consume the lock, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquire a shared read guard, ignoring poison.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let model = rt::rw_read_acquire(&self.id);
            let std = self.inner.read().unwrap_or_else(|e| e.into_inner());
            RwLockReadGuard { lock: self, std: Some(std), model }
        }

        /// Acquire an exclusive write guard, ignoring poison.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let model = rt::rw_write_acquire(&self.id);
            let std = self.inner.write().unwrap_or_else(|e| e.into_inner());
            RwLockWriteGuard { lock: self, std: Some(std), model }
        }
    }

    impl<'a, T: ?Sized> std::ops::Deref for RwLockReadGuard<'a, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // gpf-lint: allow(no-panic): the std guard is present for the
            // guard's whole lifetime.
            self.std.as_ref().expect("guard taken")
        }
    }

    impl<'a, T: ?Sized> std::ops::Deref for RwLockWriteGuard<'a, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // gpf-lint: allow(no-panic): the std guard is present for the
            // guard's whole lifetime.
            self.std.as_ref().expect("guard taken")
        }
    }

    impl<'a, T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'a, T> {
        fn deref_mut(&mut self) -> &mut T {
            // gpf-lint: allow(no-panic): see Deref.
            self.std.as_mut().expect("guard taken")
        }
    }

    impl<'a, T: ?Sized> Drop for RwLockReadGuard<'a, T> {
        fn drop(&mut self) {
            drop(self.std.take());
            if self.model {
                rt::rw_read_release(&self.lock.id);
            }
        }
    }

    impl<'a, T: ?Sized> Drop for RwLockWriteGuard<'a, T> {
        fn drop(&mut self) {
            drop(self.std.take());
            if self.model {
                rt::rw_write_release(&self.lock.id);
            }
        }
    }
}
