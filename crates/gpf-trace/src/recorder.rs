//! Per-thread lock-light span recording.
//!
//! Every thread keeps a span stack (for parent linkage) and a pending
//! event buffer. Events append to the buffer and flush to the target
//! [`TraceLog`] in batches — when the buffer reaches `FLUSH_THRESHOLD`
//! events, when the thread's span stack empties, or when a different log
//! becomes the target — so the steady-state cost of a span is two clock
//! reads plus an amortized fraction of one mutex acquisition.
//!
//! One recording plane: [`span_in`] and [`instant_in`] write to the
//! [`TraceLog`] their caller names, unconditionally. The engine's session
//! log is that log for everything a run records — its events *are* the job
//! metrics and must never be silently absent — and an application span
//! joins the same log through `EngineContext::trace_log`. [`set_enabled`]
//! does not gate them: it switches the engine's task `Begin` events,
//! allocation tracking and the tracing-only counters.

use crate::clock::now_ns;
use crate::event::{Category, Event, EventKind};
use crate::ring::TraceLog;
use gpf_check::shim::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Pending events per thread before a forced flush.
const FLUSH_THRESHOLD: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Turn tracing on or off: the engine's task `Begin` events, allocation
/// tracking and the tracing-only counters follow it; [`span_in`] /
/// [`instant_in`] record either way.
pub fn set_enabled(on: bool) {
    // ordering: Relaxed — a pure on/off gate; every event it gates is
    // published through the ring's mutex, so the flag carries no data.
    ENABLED.store(on, Ordering::Relaxed);
    // The tracking allocator's hook gate is `requested && enabled`;
    // recompute the derived flag so untraced runs pay it zero cost.
    crate::alloc::sync_enabled(on);
}

/// Whether tracing is on.
pub fn enabled() -> bool {
    // ordering: Relaxed — see set_enabled; every traced site reads it.
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
    static TID_OVERRIDE: Cell<Option<u32>> = const { Cell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static PENDING: RefCell<Pending> = const { RefCell::new(Pending { target: None, events: Vec::new() }) };
}

struct Pending {
    target: Option<Arc<TraceLog>>,
    events: Vec<Event>,
}

fn flush_pending(p: &mut Pending) {
    if p.events.is_empty() {
        return;
    }
    if let Some(log) = &p.target {
        log.push_batch(std::mem::take(&mut p.events));
    } else {
        p.events.clear();
    }
}

/// Flush the current thread's pending buffer to its target log.
///
/// Rarely needed: the buffer auto-flushes when the thread's span stack
/// empties. Call before snapshotting a log that another recording site on
/// *this* thread may still be buffering for.
pub fn flush_thread() {
    PENDING.with(|p| flush_pending(&mut p.borrow_mut()));
}

fn enqueue(log: &Arc<TraceLog>, event: Event) {
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        let same_target = p.target.as_ref().is_some_and(|t| Arc::ptr_eq(t, log));
        if !same_target {
            flush_pending(&mut p);
            p.target = Some(Arc::clone(log));
        }
        p.events.push(event);
        let stack_empty = SPAN_STACK.with(|s| s.borrow().is_empty());
        if stack_empty || p.events.len() >= FLUSH_THRESHOLD {
            flush_pending(&mut p);
        }
    });
}

/// Dense id of the calling thread (assigned on first use; stable for the
/// thread's lifetime). A [`crate::clock::MockClock`] overrides this to 0.
pub fn current_tid() -> u32 {
    if let Some(id) = TID_OVERRIDE.with(|o| o.get()) {
        return id;
    }
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            // ordering: Relaxed — a unique-id generator; only atomicity of
            // the increment matters, never ordering against other memory.
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Force [`current_tid`] to report `tid` on this thread (`None` restores
/// real assignment). Installed by [`crate::clock::MockClock`].
pub(crate) fn set_tid_override(tid: Option<u32>) {
    TID_OVERRIDE.with(|o| o.set(tid));
}

fn empty_phase() -> Arc<str> {
    thread_local! {
        static EMPTY: Arc<str> = Arc::from("");
    }
    EMPTY.with(Arc::clone)
}

fn stack_top() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span; records the End event (with any attached counters) on
/// drop. Obtained from [`span_in`].
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    log: Arc<TraceLog>,
    name: Arc<str>,
    cat: Category,
    id: u64,
    counters: Vec<(Arc<str>, u64)>,
    // Heap-attribution scope for the span's category. Declared last so
    // drop glue releases it *after* Drop::drop records the End event:
    // allocations made while building the End event still charge to this
    // span's tag.
    _alloc_scope: Option<crate::alloc::AllocScope>,
}

impl SpanGuard {
    /// Attach a counter to the span's End event.
    pub fn add_counter(&mut self, key: &str, value: u64) {
        self.counters.push((Arc::from(key), value));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let event = Event {
            kind: EventKind::End,
            name: Arc::clone(&self.name),
            cat: self.cat,
            phase: empty_phase(),
            ts_ns: now_ns(),
            tid: current_tid(),
            id: self.id,
            parent: stack_top(),
            counters: std::mem::take(&mut self.counters),
        };
        enqueue(&self.log, event);
    }
}

/// Open a span in `log` (always records).
pub fn span_in(log: &Arc<TraceLog>, name: &str, cat: Category) -> SpanGuard {
    // ordering: Relaxed — a unique-id generator; only atomicity of the
    // increment matters, never ordering against other memory.
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = stack_top();
    let name: Arc<str> = Arc::from(name);
    let event = Event {
        kind: EventKind::Begin,
        name: Arc::clone(&name),
        cat,
        phase: empty_phase(),
        ts_ns: now_ns(),
        tid: current_tid(),
        id,
        parent,
        counters: Vec::new(),
    };
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    enqueue(log, event);
    SpanGuard {
        log: Arc::clone(log),
        name,
        cat,
        id,
        counters: Vec::new(),
        _alloc_scope: crate::alloc::scope_for_category(cat),
    }
}

/// Record an instant event with counters in `log` (always records).
pub fn instant_in(log: &Arc<TraceLog>, name: &str, cat: Category, counters: &[(&str, u64)]) {
    let event = Event {
        kind: EventKind::Instant,
        name: Arc::from(name),
        cat,
        phase: empty_phase(),
        ts_ns: now_ns(),
        tid: current_tid(),
        id: 0,
        parent: stack_top(),
        counters: counters.iter().map(|(k, v)| (Arc::from(*k), *v)).collect(),
    };
    enqueue(log, event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_in_links_parents_and_flushes_on_outermost_close() {
        let log = Arc::new(TraceLog::new());
        {
            let _outer = span_in(&log, "outer", Category::Scheduler);
            {
                let mut inner = span_in(&log, "inner", Category::Compute);
                inner.add_counter("bytes", 7);
            }
            // Inner closed, but the outer span still holds the stack open:
            // everything is still buffered thread-locally.
        }
        let t = log.snapshot();
        assert_eq!(t.events.len(), 4);
        let begins: Vec<&Event> =
            t.events.iter().filter(|e| e.kind == EventKind::Begin).collect();
        assert_eq!(begins.len(), 2);
        let outer_id = begins.iter().find(|e| &*e.name == "outer").map(|e| e.id).unwrap_or(0);
        let inner_begin = begins.iter().find(|e| &*e.name == "inner");
        assert_eq!(inner_begin.map(|e| e.parent), Some(outer_id), "child links to parent");
        let inner_end = t
            .events
            .iter()
            .find(|e| e.kind == EventKind::End && &*e.name == "inner");
        assert_eq!(inner_end.and_then(|e| e.counter("bytes")), Some(7));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(&*spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
    }

    #[test]
    fn instant_in_records_counters_immediately() {
        let log = Arc::new(TraceLog::new());
        instant_in(&log, "tick", Category::Io, &[("b", 42)]);
        let t = log.snapshot();
        assert_eq!(t.events.len(), 1, "no open span -> immediate flush");
        assert_eq!(t.events[0].counter("b"), Some(42));
        assert_eq!(t.events[0].cat, Category::Io);
    }

    #[test]
    fn pending_buffer_flushes_at_threshold() {
        let log = Arc::new(TraceLog::new());
        let _outer = span_in(&log, "hold", Category::Other);
        for i in 0..(FLUSH_THRESHOLD + 5) {
            instant_in(&log, &format!("i{i}"), Category::Other, &[]);
        }
        // Stack is non-empty, so only the threshold flush has happened.
        assert!(log.len() >= FLUSH_THRESHOLD, "len {} < threshold", log.len());
    }

    #[test]
    fn current_tid_is_stable_and_nonzero() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        assert!(a > 0);
        let other = std::thread::scope(|s| {
            // gpf-lint: allow(thread-spawn): scoped probe thread in a unit test
            s.spawn(current_tid).join().unwrap_or(a)
        });
        assert_ne!(other, a, "distinct threads get distinct ids");
    }

    #[test]
    fn tid_override_applies_and_restores() {
        let real = current_tid();
        set_tid_override(Some(0));
        assert_eq!(current_tid(), 0);
        set_tid_override(None);
        assert_eq!(current_tid(), real);
    }
}
