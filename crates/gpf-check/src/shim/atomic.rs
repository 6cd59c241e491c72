//! Shimmed atomics.
//!
//! Normal builds: plain re-exports of `std::sync::atomic` — zero cost.
//!
//! Under `gpf_check`, each atomic keeps its authoritative latest value in
//! an inner std atomic (so pass-through access from non-model threads and
//! post-schedule reads stay coherent) and mirrors every model-thread
//! access into the scheduler's per-location store history. Loads choose
//! which visible store to observe (a `Relaxed`/`Acquire` load may see a
//! stale value unless a happens-before edge has raised this thread's
//! visibility floor); RMWs always read the newest store per the C++
//! coherence rule.

#[cfg(not(gpf_check))]
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(gpf_check)]
pub use checked::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
#[cfg(gpf_check)]
pub use std::sync::atomic::Ordering;

#[cfg(gpf_check)]
mod checked {
    use super::Ordering;
    use crate::rt::{self, LocId};

    macro_rules! chk_atomic_common {
        ($name:ident, $std:ty, $t:ty, $to:expr, $from:expr) => {
            /// Instrumented drop-in for the std atomic of the same name.
            #[derive(Debug, Default)]
            pub struct $name {
                v: $std,
                id: LocId,
            }

            impl $name {
                /// Construct (usable in `const`/`static` position).
                pub const fn new(v: $t) -> Self {
                    Self { v: <$std>::new(v), id: LocId::new() }
                }

                /// Ordering-aware load: under a model, the scheduler picks
                /// which visible store this thread observes.
                pub fn load(&self, order: Ordering) -> $t {
                    match rt::atomic_load(&self.id, order, &|| ($to)(self.v.load(Ordering::SeqCst)))
                    {
                        Some(bits) => ($from)(bits),
                        None => self.v.load(order),
                    }
                }

                /// Ordering-aware store (appends to the location's
                /// modification order under a model).
                pub fn store(&self, val: $t, order: Ordering) {
                    let bits = ($to)(val);
                    // The apply closure returns the previous mirror value so
                    // rt can seed the location's initial store lazily.
                    let applied = rt::atomic_store(&self.id, order, bits, &|| {
                        ($to)(self.v.swap(val, Ordering::SeqCst))
                    });
                    if !applied {
                        self.v.store(val, order);
                    }
                }

                /// Swap, modeled as an RMW on the newest store.
                pub fn swap(&self, val: $t, order: Ordering) -> $t {
                    let bits = ($to)(val);
                    match rt::atomic_rmw(
                        &self.id,
                        order,
                        &|| ($to)(self.v.load(Ordering::SeqCst)),
                        &|_| bits,
                        &|new| self.v.store(($from)(new), Ordering::SeqCst),
                    ) {
                        Some(old) => ($from)(old),
                        None => self.v.swap(val, order),
                    }
                }

                /// Mutable access without synchronization (exclusive borrow).
                pub fn get_mut(&mut self) -> &mut $t {
                    self.v.get_mut()
                }

                /// Consume, returning the inner value.
                pub fn into_inner(self) -> $t {
                    self.v.into_inner()
                }
            }
        };
    }

    macro_rules! chk_atomic_int {
        ($name:ident, $std:ty, $t:ty) => {
            chk_atomic_common!($name, $std, $t, |v: $t| v as u64, |b: u64| b as $t);

            impl $name {
                /// Fetch-add, modeled as an RMW on the newest store.
                pub fn fetch_add(&self, val: $t, order: Ordering) -> $t {
                    match rt::atomic_rmw(
                        &self.id,
                        order,
                        &|| self.v.load(Ordering::SeqCst) as u64,
                        &|old| (old as $t).wrapping_add(val) as u64,
                        &|new| self.v.store(new as $t, Ordering::SeqCst),
                    ) {
                        Some(old) => old as $t,
                        None => self.v.fetch_add(val, order),
                    }
                }

                /// Fetch-max, modeled as an RMW on the newest store.
                pub fn fetch_max(&self, val: $t, order: Ordering) -> $t {
                    match rt::atomic_rmw(
                        &self.id,
                        order,
                        &|| self.v.load(Ordering::SeqCst) as u64,
                        &|old| (old as $t).max(val) as u64,
                        &|new| self.v.store(new as $t, Ordering::SeqCst),
                    ) {
                        Some(old) => old as $t,
                        None => self.v.fetch_max(val, order),
                    }
                }
            }
        };
    }

    chk_atomic_int!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    chk_atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    chk_atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    chk_atomic_common!(
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool,
        |v: bool| v as u64,
        |b: u64| b != 0
    );
}
