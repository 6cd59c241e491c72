//! Bounded event ring buffer.

use crate::counters;
use crate::event::{Event, Trace};
use gpf_check::shim::sync::{Mutex, MutexGuard};
use std::collections::VecDeque;

/// Default ring capacity of a [`TraceLog::new`] log.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

struct Inner {
    events: VecDeque<Event>,
    dropped: u64,
    pushed: u64,
}

/// A consistent accounting snapshot of a [`TraceLog`], taken under one
/// lock acquisition so the three figures always balance:
/// `held + dropped == pushed`. (Reading them through separate calls can
/// tear — a concurrent pusher may land between the reads.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    /// Events currently held in the ring.
    pub held: usize,
    /// Events dropped by overflow since creation (or the last drain).
    pub dropped: u64,
    /// Events ever pushed since creation (or the last drain).
    pub pushed: u64,
}

/// A bounded ring of trace events.
///
/// Overflow drops the **oldest** events (the newest data is what a
/// post-mortem wants) and increments both the log-local drop count and the
/// global `trace.dropped` counter. Pushes go through one mutex; writers are
/// expected to batch (the per-thread recorder and the engine both do).
pub struct TraceLog {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceLog {
    /// Ring with [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Ring holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Inner { events: VecDeque::new(), dropped: 0, pushed: 0 }),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Non-poisoning (the shim lock recovers from poison): a panicking
        // writer left a consistent ring — every push is a complete event —
        // so later readers proceed.
        self.inner.lock()
    }

    /// Maximum number of events held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one event.
    pub fn push(&self, event: Event) {
        let mut newly_dropped = 0u64;
        {
            let mut inner = self.lock();
            Self::push_locked(&mut inner, self.capacity, event, &mut newly_dropped);
        }
        if newly_dropped > 0 {
            counters::counter(crate::names::TRACE_DROPPED).add(newly_dropped);
        }
    }

    /// Append a batch under a single lock acquisition.
    pub fn push_batch(&self, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        let mut newly_dropped = 0u64;
        {
            let mut inner = self.lock();
            for ev in events {
                Self::push_locked(&mut inner, self.capacity, ev, &mut newly_dropped);
            }
        }
        if newly_dropped > 0 {
            counters::counter(crate::names::TRACE_DROPPED).add(newly_dropped);
        }
    }

    fn push_locked(inner: &mut Inner, capacity: usize, event: Event, newly_dropped: &mut u64) {
        if inner.events.len() == capacity {
            inner.events.pop_front();
            inner.dropped += 1;
            *newly_dropped += 1;
        }
        inner.pushed += 1;
        inner.events.push_back(event);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// `true` when the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped by overflow since creation (or the last [`drain`](Self::drain)).
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Consistent `(held, dropped, pushed)` snapshot from one lock
    /// acquisition — the numbers always satisfy
    /// `held + dropped == pushed`, which separate `len()`/`dropped()`
    /// calls cannot guarantee under concurrent pushers.
    pub fn stats(&self) -> RingStats {
        let inner = self.lock();
        RingStats {
            held: inner.events.len(),
            dropped: inner.dropped,
            pushed: inner.pushed,
        }
    }

    /// Copy the current contents.
    pub fn snapshot(&self) -> Trace {
        let inner = self.lock();
        Trace { events: inner.events.iter().cloned().collect(), dropped: inner.dropped }
    }

    /// Visit every held event, oldest first, under one lock acquisition —
    /// a clone-free alternative to [`snapshot`](Self::snapshot) for scans
    /// (e.g. deriving a threshold from the latest matching counter event).
    pub fn for_each(&self, mut f: impl FnMut(&Event)) {
        let inner = self.lock();
        for ev in &inner.events {
            f(ev);
        }
    }

    /// Take the contents, resetting the ring (and its drop and push counts).
    pub fn drain(&self) -> Trace {
        let mut inner = self.lock();
        inner.pushed = 0;
        Trace {
            events: std::mem::take(&mut inner.events).into_iter().collect(),
            dropped: std::mem::take(&mut inner.dropped),
        }
    }
}

impl TraceLog {
    fn _assert_send_sync()
    where
        Self: Send + Sync,
    {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, EventKind};
    use std::sync::Arc;

    fn ev(n: u64) -> Event {
        Event {
            kind: EventKind::Instant,
            name: Arc::from(format!("e{n}")),
            cat: Category::Other,
            phase: Arc::from(""),
            ts_ns: n,
            tid: 0,
            id: 0,
            parent: 0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn overflow_drops_oldest() {
        let log = TraceLog::with_capacity(3);
        log.push_batch((0..5).map(ev).collect());
        let t = log.snapshot();
        assert_eq!(t.dropped, 2);
        let names: Vec<&str> = t.events.iter().map(|e| &*e.name).collect();
        assert_eq!(names, vec!["e2", "e3", "e4"], "oldest events dropped first");
    }

    #[test]
    fn overflow_bumps_global_counter() {
        let before = counters::counter("trace.dropped").get();
        let log = TraceLog::with_capacity(2);
        log.push_batch((0..6).map(ev).collect());
        let after = counters::counter("trace.dropped").get();
        // `>=`: other tests in this binary may also drop concurrently.
        assert!(after >= before + 4, "before {before} after {after}");
    }

    #[test]
    fn stats_balance_and_reset() {
        let log = TraceLog::with_capacity(3);
        log.push_batch((0..7).map(ev).collect());
        let s = log.stats();
        assert_eq!(s, RingStats { held: 3, dropped: 4, pushed: 7 });
        assert_eq!(s.held as u64 + s.dropped, s.pushed);
        let _ = log.drain();
        assert_eq!(log.stats(), RingStats { held: 0, dropped: 0, pushed: 0 });
    }

    #[test]
    fn drain_resets() {
        let log = TraceLog::with_capacity(2);
        log.push_batch((0..3).map(ev).collect());
        let t = log.drain();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 1);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.snapshot().events.len(), 0);
    }
}
