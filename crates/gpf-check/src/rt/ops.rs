//! Per-primitive model operations: ordering-aware atomics over store
//! histories and scheduler-mediated locks. Every function here is a
//! scheduling point; all return pass-through sentinels (`None` / `false`)
//! when the caller is not a model thread.

use std::sync::atomic::Ordering;

use super::{cur_ctx, merge_view, FailureKind, Phase, Store, VClock, Wait, STORE_WINDOW};

fn is_acquire(order: Ordering) -> bool {
    matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(order: Ordering) -> bool {
    matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Ordering-aware atomic load. The scheduler picks which store of the
/// location's visible window this thread observes: a `Relaxed` or
/// `Acquire` load with no happens-before edge to the newest store may
/// legitimately read a stale value, which is exactly the class of bug the
/// checker exists to surface. `latest` reads the mirror atomic, used only
/// to seed the location's initial value.
pub fn atomic_load(id: &super::LocId, order: Ordering, latest: &dyn Fn() -> u64) -> Option<u64> {
    let (sched, my) = cur_ctx()?;
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        drop(st);
        return Some(latest());
    }
    seed_loc(&mut st, key, latest);
    let val = observe(&mut st, key, my, order, true);
    let _ = sched.pick_and_wait(st, my);
    Some(val)
}

/// Ordering-aware atomic store: appends to the location's modification
/// order. `apply` must write the value into the mirror atomic and return
/// the previous mirror value (used to seed the initial store). Returns
/// false for pass-through (caller stores directly).
pub fn atomic_store(id: &super::LocId, order: Ordering, bits: u64, apply: &dyn Fn() -> u64) -> bool {
    let Some((sched, my)) = cur_ctx() else { return false };
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        drop(st);
        let _ = apply();
        return true;
    }
    let prev = apply();
    seed_loc(&mut st, key, &|| prev);
    push_store(&mut st, key, my, bits, order);
    let _ = sched.pick_and_wait(st, my);
    true
}

/// Atomic read-modify-write. Per the C++ coherence rule an RMW always
/// reads the newest store in modification order, regardless of ordering —
/// the ordering only controls which happens-before edges transfer.
pub fn atomic_rmw(
    id: &super::LocId,
    order: Ordering,
    latest: &dyn Fn() -> u64,
    compute: &dyn Fn(u64) -> u64,
    apply: &dyn Fn(u64),
) -> Option<u64> {
    let (sched, my) = cur_ctx()?;
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        drop(st);
        let old = latest();
        apply(compute(old));
        return Some(old);
    }
    seed_loc(&mut st, key, latest);
    let old = observe(&mut st, key, my, order, false);
    let new = compute(old);
    push_store(&mut st, key, my, new, order);
    apply(new);
    let _ = sched.pick_and_wait(st, my);
    Some(old)
}

/// Seed a location's modification order with its pre-model value. The
/// initial store is a release with the zero clock: it happened-before
/// every model thread (written during setup), so any load of it is clean.
fn seed_loc(st: &mut super::State, key: usize, latest: &dyn Fn() -> u64) {
    let loc = st.locs.entry(key).or_default();
    if loc.stores.is_empty() {
        loc.stores.push(Store {
            val: latest(),
            clock: VClock::default(),
            view: super::View::default(),
            release: true,
        });
    }
}

/// Read one store of `key`'s modification order: for a load (`window`),
/// the one the decider picks from the visible window above this thread's
/// coherence floor; for an RMW, the newest. A SeqCst op first joins the
/// global SeqCst clock and view; an acquiring read of a release store joins
/// that store's clock and view; the floor rises to the store read.
fn observe(st: &mut super::State, key: usize, my: usize, order: Ordering, window: bool) -> u64 {
    if order == Ordering::SeqCst {
        let sc_clock = st.sc_clock.clone();
        let sc_view = st.sc_view.clone();
        st.threads[my].clock.join(&sc_clock);
        merge_view(&mut st.threads[my].view, &sc_view);
    }
    let hi = st.locs[&key].stores.len() - 1;
    let idx = if window {
        let floor = st.threads[my].view.get(&key).copied().unwrap_or(0);
        let lo = floor.max((hi + 1).saturating_sub(STORE_WINDOW));
        let n = hi - lo + 1;
        // Choice 0 is the newest store, so forced moves and DFS-first paths
        // read sequentially-consistent values.
        hi - if n > 1 { st.decider.pick(n) } else { 0 }
    } else {
        hi
    };
    let (val, s_release, s_clock, s_view) = {
        let s = &st.locs[&key].stores[idx];
        (s.val, s.release, s.clock.clone(), s.view.clone())
    };
    if is_acquire(order) && s_release {
        st.threads[my].clock.join(&s_clock);
        merge_view(&mut st.threads[my].view, &s_view);
    }
    let floor = st.threads[my].view.entry(key).or_insert(0);
    *floor = (*floor).max(idx);
    val
}

/// Append a store by `my` to `key`'s modification order, carrying this
/// thread's clock iff the ordering releases, and updating the SeqCst
/// global view for SeqCst stores.
fn push_store(st: &mut super::State, key: usize, my: usize, val: u64, order: Ordering) {
    let clock = st.threads[my].clock.clone();
    let view = st.threads[my].view.clone();
    let idx = st.locs[&key].stores.len();
    if let Some(loc) = st.locs.get_mut(&key) {
        loc.stores.push(Store {
            val,
            clock: clock.clone(),
            view: view.clone(),
            release: is_release(order),
        });
    }
    let floor = st.threads[my].view.entry(key).or_insert(0);
    *floor = (*floor).max(idx);
    if order == Ordering::SeqCst {
        st.sc_clock.join(&clock);
        merge_view(&mut st.sc_view, &view);
        let sc_floor = st.sc_view.entry(key).or_insert(0);
        *sc_floor = (*sc_floor).max(idx);
    }
}

// ---------------------------------------------------------------------------
// Mutex

/// Model-level mutex acquisition: parks in the scheduler while another
/// model thread holds the lock (deadlock chains detected eagerly), and
/// joins the lock's release clock on success. Returns false outside a
/// model (caller uses the real lock directly).
pub fn lock_acquire(id: &super::LocId) -> bool {
    let Some((sched, my)) = cur_ctx() else { return false };
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        return true;
    }
    st.local_loc(key);
    loop {
        let holder = st.locks.entry(key).or_default().held;
        match holder {
            None => {
                let clock = st.locks[&key].clock.clone();
                let view = st.locks[&key].view.clone();
                st.threads[my].clock.join(&clock);
                merge_view(&mut st.threads[my].view, &view);
                // gpf-lint: allow(no-panic): entry() above materialized it.
                st.locks.get_mut(&key).expect("lock entry").held = Some(my);
                break;
            }
            Some(holder) => {
                if let Some(chain) = lock_cycle(&st, my, holder) {
                    let msg = format!("lock-wait cycle: {chain}");
                    sched.fail_abort(&mut st, FailureKind::Deadlock, msg);
                    drop(st);
                    sched.abort_exit();
                    return true;
                }
                st.threads[my].phase = Phase::Parked(Wait::Lock(key));
                sched.pick_next(&mut st, Some(my));
                if st.abort {
                    drop(st);
                    sched.abort_exit();
                    return true;
                }
                sched.cv.notify_all();
                st = match sched.wait_granted(st, my) {
                    Some(s) => s,
                    None => return true,
                };
                // Granted: the lock was released and we were picked, but
                // another thread may have retaken it — re-check.
            }
        }
    }
    let _ = sched.pick_and_wait(st, my);
    true
}

/// Walk the lock-wait chain from `holder`: if it leads back to `me`, the
/// park we are about to do would complete a cycle.
fn lock_cycle(st: &super::State, me: usize, mut holder: usize) -> Option<String> {
    let mut chain = format!("t{me}");
    for _ in 0..st.threads.len() {
        chain.push_str(&format!(" -> t{holder}"));
        if holder == me {
            return Some(chain);
        }
        match st.threads[holder].phase {
            Phase::Parked(Wait::Lock(k)) => match st.locks.get(&k).and_then(|l| l.held) {
                Some(next) => holder = next,
                None => return None,
            },
            _ => return None,
        }
    }
    None
}

/// Model-level try-lock: `Some(granted)` under a model (no parking — a
/// held lock is an immediate, explorable `false`), `None` to pass through.
pub fn lock_try_acquire(id: &super::LocId) -> Option<bool> {
    let (sched, my) = cur_ctx()?;
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        return Some(false);
    }
    let granted = {
        let entry = st.locks.entry(key).or_default();
        if entry.held.is_none() {
            entry.held = Some(my);
            true
        } else {
            false
        }
    };
    if granted {
        let clock = st.locks[&key].clock.clone();
        let view = st.locks[&key].view.clone();
        st.threads[my].clock.join(&clock);
        merge_view(&mut st.threads[my].view, &view);
    }
    let _ = sched.pick_and_wait(st, my);
    Some(granted)
}

/// Model-level mutex release: publishes this thread's clock to the lock
/// and readies every parked waiter (they re-contend when scheduled).
pub fn lock_release(id: &super::LocId) {
    let Some((sched, my)) = cur_ctx() else { return };
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        return;
    }
    let clock = st.threads[my].clock.clone();
    let view = st.threads[my].view.clone();
    let entry = st.locks.entry(key).or_default();
    entry.held = None;
    entry.clock.join(&clock);
    merge_view(&mut entry.view, &view);
    for t in st.threads.iter_mut() {
        if t.phase == Phase::Parked(Wait::Lock(key)) {
            t.phase = Phase::Ready;
        }
    }
    let _ = sched.pick_and_wait(st, my);
}

// ---------------------------------------------------------------------------
// RwLock

/// Model-level shared acquisition.
pub fn rw_read_acquire(id: &super::LocId) -> bool {
    let Some((sched, my)) = cur_ctx() else { return false };
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        return true;
    }
    st.local_loc(key);
    loop {
        let free = st.rws.entry(key).or_default().writer.is_none();
        if free {
            let wclock = st.rws[&key].wclock.clone();
            let wview = st.rws[&key].wview.clone();
            st.threads[my].clock.join(&wclock);
            merge_view(&mut st.threads[my].view, &wview);
            // gpf-lint: allow(no-panic): entry() above materialized it.
            st.rws.get_mut(&key).expect("rw entry").readers += 1;
            break;
        }
        st.threads[my].phase = Phase::Parked(Wait::Rw(key));
        sched.pick_next(&mut st, Some(my));
        if st.abort {
            drop(st);
            sched.abort_exit();
            return true;
        }
        sched.cv.notify_all();
        st = match sched.wait_granted(st, my) {
            Some(s) => s,
            None => return true,
        };
    }
    let _ = sched.pick_and_wait(st, my);
    true
}

/// Model-level exclusive acquisition (joins both read and write clocks).
pub fn rw_write_acquire(id: &super::LocId) -> bool {
    let Some((sched, my)) = cur_ctx() else { return false };
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        return true;
    }
    st.local_loc(key);
    loop {
        let free = {
            let e = st.rws.entry(key).or_default();
            e.writer.is_none() && e.readers == 0
        };
        if free {
            let (wclock, rclock, wview, rview) = {
                let e = &st.rws[&key];
                (e.wclock.clone(), e.rclock.clone(), e.wview.clone(), e.rview.clone())
            };
            st.threads[my].clock.join(&wclock);
            st.threads[my].clock.join(&rclock);
            merge_view(&mut st.threads[my].view, &wview);
            merge_view(&mut st.threads[my].view, &rview);
            // gpf-lint: allow(no-panic): entry() above materialized it.
            st.rws.get_mut(&key).expect("rw entry").writer = Some(my);
            break;
        }
        st.threads[my].phase = Phase::Parked(Wait::Rw(key));
        sched.pick_next(&mut st, Some(my));
        if st.abort {
            drop(st);
            sched.abort_exit();
            return true;
        }
        sched.cv.notify_all();
        st = match sched.wait_granted(st, my) {
            Some(s) => s,
            None => return true,
        };
    }
    let _ = sched.pick_and_wait(st, my);
    true
}

/// Model-level shared release.
pub fn rw_read_release(id: &super::LocId) {
    let Some((sched, my)) = cur_ctx() else { return };
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        return;
    }
    let clock = st.threads[my].clock.clone();
    let view = st.threads[my].view.clone();
    let entry = st.rws.entry(key).or_default();
    entry.readers = entry.readers.saturating_sub(1);
    entry.rclock.join(&clock);
    merge_view(&mut entry.rview, &view);
    wake_rw_waiters(&mut st, key);
    let _ = sched.pick_and_wait(st, my);
}

/// Model-level exclusive release.
pub fn rw_write_release(id: &super::LocId) {
    let Some((sched, my)) = cur_ctx() else { return };
    let key = id.key();
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        return;
    }
    let clock = st.threads[my].clock.clone();
    let view = st.threads[my].view.clone();
    let entry = st.rws.entry(key).or_default();
    entry.writer = None;
    entry.wclock.join(&clock);
    merge_view(&mut entry.wview, &view);
    wake_rw_waiters(&mut st, key);
    let _ = sched.pick_and_wait(st, my);
}

fn wake_rw_waiters(st: &mut super::State, key: usize) {
    for t in st.threads.iter_mut() {
        if t.phase == Phase::Parked(Wait::Rw(key)) {
            t.phase = Phase::Ready;
        }
    }
}
