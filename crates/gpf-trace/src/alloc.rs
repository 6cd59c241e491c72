//! Tracking global allocator with span-scoped attribution.
//!
//! [`TrackingAlloc`] wraps [`std::alloc::System`] and, while tracking is
//! *active*, charges every allocation to cheap per-thread [`Cell`] counters:
//! bytes allocated/freed, live, peak, allocation count, and a log₂
//! size-class histogram. A thread-local stack of [`AllocTag`]s (pushed by
//! [`scope`], and by the span recorder for category-bearing spans) charges
//! bytes to the innermost attribution scope — `task`, `serde`, `shuffle`,
//! `spill`, `repartition` — so a heap profile decomposes the same way the
//! Figure-12 time breakdown does.
//!
//! ## Fast path and gating
//!
//! The only per-allocation cost while *untracked* is one `Relaxed` load of
//! the derived [`ACTIVE`] flag (`tracking requested && recorder enabled`);
//! the flag is recomputed on [`set_tracking`] and on every
//! [`crate::set_enabled`] flip, never on the allocation path. While
//! tracked, accounting is pure thread-local `Cell` arithmetic — **zero
//! atomics** on the common path. Per-thread live deltas buffer in a
//! `pending` cell and publish to the global [`LIVE`]/[`PEAK`] gauges only
//! when they exceed [`FLUSH_PENDING_BYTES`] (and at scope exit / thread
//! exit), so the global gauges are exact to within one flush quantum per
//! thread and the shared cache line is touched rarely.
//!
//! ## Re-entrancy
//!
//! The allocator hooks may run *inside* any allocation, including the ones
//! std makes to register TLS destructors. Two defenses: all hook state is
//! `Cell`-based (no borrows held across calls), and a dedicated no-`Drop`
//! [`IN_HOOK`] guard cell short-circuits recursive entry, so the one-time
//! destructor registration for [`HEAP`] (which itself allocates) cannot
//! recurse. TLS access uses `try_with` throughout: allocations during
//! thread teardown are silently uncounted (see "known gaps" in DESIGN.md
//! §14).
//!
//! ## gpf-check
//!
//! Under `--cfg gpf_check` the `#[global_allocator]` static is **not**
//! installed — shim atomics are scheduling points, and a checker that
//! deschedules inside `malloc` deadlocks itself. The accounting machinery
//! ([`note_alloc`], [`note_dealloc`], [`scope`], the gauges) is fully
//! exercised by the models in `gpf-check/tests/models.rs` instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpf_check::shim::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::counters::{self, BUCKETS};
use crate::event::Category;
use crate::names;

/// Attribution category charged by the innermost active allocation scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AllocTag {
    /// No scope active on this thread.
    Untagged = 0,
    /// Narrow-operator task execution.
    Task = 1,
    /// Record serialization / codec work.
    Serde = 2,
    /// Shuffle scatter/gather.
    Shuffle = 3,
    /// Barrier-via-disk spill and reload.
    Spill = 4,
}

/// Number of [`AllocTag`] variants (array sizing).
const N_TAGS: usize = 5;

/// Registry counter charged per tag, indexed by `AllocTag as u8`.
const TAG_COUNTERS: [&str; N_TAGS] = [
    names::HEAP_TAG_UNTAGGED,
    names::HEAP_TAG_TASK,
    names::HEAP_TAG_SERDE,
    names::HEAP_TAG_SHUFFLE,
    names::HEAP_TAG_SPILL,
];

/// Scopes deeper than this inherit the 16th tag (saturation, not UB).
const MAX_SCOPE_DEPTH: usize = 16;

/// A thread publishes its buffered live-byte delta to the global gauge
/// once |pending| reaches this, bounding both the atomic traffic and the
/// gauge's staleness (≤ one quantum per thread between scope exits).
const FLUSH_PENDING_BYTES: i64 = 64 * 1024;

// The derived allocation-hook gate: `tracking requested && recorder
// enabled`. Recomputed on either flip; the hooks only ever load it.
static ACTIVE: AtomicBool = AtomicBool::new(false);
// The user-requested half of the gate (survives recorder toggles).
static REQUESTED: AtomicBool = AtomicBool::new(false);

// Global live/peak heap gauges. Stored as u64 but accumulated in two's
// complement: a thread that frees memory allocated before tracking was
// enabled (or allocated on another thread) drives the sum "negative", and
// readers clamp at zero instead of wrapping.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Per-thread accounting state. All `Cell`s: the allocator hooks must
/// never hold a borrow or take a lock.
struct ThreadHeap {
    live: Cell<i64>,
    peak: Cell<i64>,
    pending: Cell<i64>,
    allocated: Cell<u64>,
    freed: Cell<u64>,
    count: Cell<u64>,
    depth: Cell<usize>,
    tags: [Cell<u8>; MAX_SCOPE_DEPTH],
    tag_bytes: [Cell<u64>; N_TAGS],
    size_classes: [Cell<u64>; BUCKETS],
}

impl Drop for ThreadHeap {
    fn drop(&mut self) {
        // A dying thread publishes its pending delta and accumulated
        // stats: without this, bytes allocated on a short-lived worker and
        // freed on the driver would skew the global live gauge negative.
        // Under gpf_check the registry flush would re-enter the scheduler
        // during thread teardown, and models flush explicitly instead.
        #[cfg(not(gpf_check))]
        flush_heap(self);
    }
}

thread_local! {
    /// Re-entrancy guard. Deliberately a separate, `Drop`-free TLS slot:
    /// its first access never allocates, so it is safe to consult before
    /// touching [`HEAP`] (whose destructor registration *does* allocate).
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };

    static HEAP: ThreadHeap = const {
        ThreadHeap {
            live: Cell::new(0),
            peak: Cell::new(0),
            pending: Cell::new(0),
            allocated: Cell::new(0),
            freed: Cell::new(0),
            count: Cell::new(0),
            depth: Cell::new(0),
            tags: [const { Cell::new(0) }; MAX_SCOPE_DEPTH],
            tag_bytes: [const { Cell::new(0) }; N_TAGS],
            size_classes: [const { Cell::new(0) }; BUCKETS],
        }
    };
}

/// Publish the thread's buffered live-byte delta to the global gauges.
fn publish_pending(h: &ThreadHeap) {
    let delta = h.pending.replace(0);
    if delta == 0 {
        return;
    }
    // ordering: Relaxed — LIVE is a pure gauge accumulated in two's
    // complement; readers clamp at zero and nobody synchronizes through it.
    let prev = LIVE.fetch_add(delta as u64, Ordering::Relaxed);
    let now = prev.wrapping_add(delta as u64) as i64;
    if now > 0 {
        // ordering: Relaxed — a max over post-RMW observations: the
        // fetch_adds above serialize, so the max over every published
        // point is the true peak of the published series. Guarded by the
        // positivity check so a wrapped-negative live can never poison the
        // max with a huge unsigned value.
        PEAK.fetch_max(now as u64, Ordering::Relaxed);
    }
}

/// Flush everything thread-local: pending delta to the gauges, accumulated
/// totals / per-tag bytes / size classes to the registry. Runs at
/// outermost-scope exit and thread exit; cheap (all zero checks) when idle.
fn flush_heap(h: &ThreadHeap) {
    publish_pending(h);
    let a = h.allocated.replace(0);
    if a > 0 {
        counters::counter(names::HEAP_ALLOC_BYTES).add(a);
    }
    let f = h.freed.replace(0);
    if f > 0 {
        counters::counter(names::HEAP_FREED_BYTES).add(f);
    }
    let n = h.count.replace(0);
    if n > 0 {
        counters::counter(names::HEAP_ALLOC_COUNT).add(n);
    }
    for (idx, cell) in h.tag_bytes.iter().enumerate() {
        let b = cell.replace(0);
        if b > 0 {
            counters::counter(TAG_COUNTERS[idx]).add(b);
        }
    }
    let mut buckets = [0u64; BUCKETS];
    let mut any = false;
    for (idx, cell) in h.size_classes.iter().enumerate() {
        let c = cell.replace(0);
        if c > 0 {
            buckets[idx] = c;
            any = true;
        }
    }
    if any {
        counters::histogram(names::HEAP_SIZE_CLASS).merge_raw(&buckets);
    }
}

/// Account one allocation of `size` bytes on this thread.
///
/// Unconditional (the [`ACTIVE`] gate lives in the [`GlobalAlloc`] hooks)
/// so tests and gpf-check models can drive the machinery directly.
pub fn note_alloc(size: usize) {
    let _ = IN_HOOK.try_with(|g| {
        if g.get() {
            return;
        }
        g.set(true);
        let _ = HEAP.try_with(|h| {
            h.allocated.set(h.allocated.get().wrapping_add(size as u64));
            h.count.set(h.count.get() + 1);
            let live = h.live.get() + size as i64;
            h.live.set(live);
            if live > h.peak.get() {
                h.peak.set(live);
            }
            let d = h.depth.get();
            let tag = if d == 0 { 0 } else { h.tags[d.min(MAX_SCOPE_DEPTH) - 1].get() as usize };
            let cell = &h.tag_bytes[tag.min(N_TAGS - 1)];
            cell.set(cell.get().wrapping_add(size as u64));
            let sc = &h.size_classes[counters::Histogram::bucket_of(size as u64)];
            sc.set(sc.get() + 1);
            let pending = h.pending.get() + size as i64;
            h.pending.set(pending);
            if pending >= FLUSH_PENDING_BYTES {
                publish_pending(h);
            }
        });
        g.set(false);
    });
}

/// Account one deallocation of `size` bytes on this thread.
pub fn note_dealloc(size: usize) {
    let _ = IN_HOOK.try_with(|g| {
        if g.get() {
            return;
        }
        g.set(true);
        let _ = HEAP.try_with(|h| {
            h.freed.set(h.freed.get().wrapping_add(size as u64));
            h.live.set(h.live.get() - size as i64);
            let pending = h.pending.get() - size as i64;
            h.pending.set(pending);
            if pending <= -FLUSH_PENDING_BYTES {
                publish_pending(h);
            }
        });
        g.set(false);
    });
}

/// RAII attribution scope: until the guard drops, allocations on this
/// thread are charged to `tag` (innermost scope wins). Dropping the
/// outermost scope flushes the thread's accumulators to the registry.
pub struct AllocScope {
    pushed: bool,
}

/// Enter an attribution scope. Never allocates; safe on any thread.
pub fn scope(tag: AllocTag) -> AllocScope {
    let pushed = HEAP
        .try_with(|h| {
            let d = h.depth.get();
            if d < MAX_SCOPE_DEPTH {
                h.tags[d].set(tag as u8);
            }
            h.depth.set(d + 1);
            true
        })
        .unwrap_or(false);
    AllocScope { pushed }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        let _ = HEAP.try_with(|h| {
            let d = h.depth.get().saturating_sub(1);
            h.depth.set(d);
            if d == 0 {
                flush_heap(h);
            }
        });
    }
}

/// The attribution scope implied by a span category: compute spans charge
/// `Task`, serde spans `Serde`, shuffle spans `Shuffle`, io spans `Spill`;
/// scheduler/warn/other spans carry no attribution.
pub(crate) fn scope_for_category(cat: Category) -> Option<AllocScope> {
    let tag = match cat {
        Category::Compute => AllocTag::Task,
        Category::Serde => AllocTag::Serde,
        Category::Shuffle => AllocTag::Shuffle,
        Category::Io => AllocTag::Spill,
        Category::Scheduler | Category::Warn | Category::Other => return None,
    };
    Some(scope(tag))
}

/// Request allocation tracking. Effective only while the recorder is also
/// enabled; the request itself survives recorder toggles.
pub fn set_tracking(on: bool) {
    // ordering: Relaxed — control flags flipped at run boundaries; the
    // hooks tolerate observing the flip late by a few allocations.
    REQUESTED.store(on, Ordering::Relaxed);
    // ordering: Relaxed — same run-boundary control flag as above.
    ACTIVE.store(on && crate::recorder::enabled(), Ordering::Relaxed);
}

/// Recompute the derived hook gate after a recorder enable/disable flip
/// (called from [`crate::set_enabled`]).
pub(crate) fn sync_enabled(enabled: bool) {
    // ordering: Relaxed — see set_tracking.
    ACTIVE.store(enabled && REQUESTED.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Whether the allocator hooks are live right now.
pub fn tracking_active() -> bool {
    // ordering: Relaxed — the same single-flag gate the hooks use.
    ACTIVE.load(Ordering::Relaxed)
}

/// The process's resident set size in KiB (`VmRSS` of
/// `/proc/self/status`) — what the allocator still holds, not only what is
/// live. `None` where there is no procfs, and under a
/// [`crate::clock::MockClock`] (the value differs from run to run).
pub fn rss_kb() -> Option<u64> {
    if crate::clock::mocked() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.split_whitespace().next()?.parse().ok()
}

/// Global live heap bytes (clamped at zero). Exact to within one
/// [`FLUSH_PENDING_BYTES`] quantum per thread with unflushed scopes.
pub fn live_bytes() -> u64 {
    // ordering: Relaxed — gauge read; see publish_pending.
    (LIVE.load(Ordering::Relaxed) as i64).max(0) as u64
}

/// Global peak live bytes over the current window (since the last
/// [`take_peak`], or process start).
pub fn peak_bytes() -> u64 {
    // ordering: Relaxed — gauge read; see publish_pending.
    (PEAK.load(Ordering::Relaxed) as i64).max(0) as u64
}

/// Close the current peak window: return its peak and start a new window
/// at the current live level. Stage-boundary samplers call this so each
/// stage reports the max reached *during* that stage.
pub fn take_peak() -> u64 {
    let live = live_bytes();
    // ordering: Relaxed — window reset on a pure gauge; concurrent
    // publishes between the read and the swap shift a few bytes between
    // adjacent windows, which the sampling contract allows.
    (PEAK.swap(live, Ordering::Relaxed) as i64).max(0) as u64
}

/// Publish this thread's pending delta and accumulated stats now.
/// Samplers call this before reading the gauges/registry so the reading
/// thread's own contribution is visible.
pub fn flush_thread_stats() {
    let _ = HEAP.try_with(flush_heap);
}

/// Reset the global gauges to zero (test / bench isolation between runs;
/// per-thread state is deliberately left alone).
pub fn reset_gauges() {
    // ordering: Relaxed — isolation helper, never concurrent with
    // meaningful accumulation.
    LIVE.store(0, Ordering::Relaxed);
    // ordering: Relaxed — same isolation-only reset as above.
    PEAK.store(0, Ordering::Relaxed);
}

/// Per-window heap stats measured on the executing thread (per-task
/// attribution: the window spans exactly one task body).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapWindow {
    /// Peak net live-byte growth over the window's starting level.
    pub peak_bytes: u64,
    /// Bytes allocated during the window.
    pub alloc_bytes: u64,
}

/// Begin token for [`window_end`]; carries the state to restore.
#[derive(Debug, Clone, Copy)]
pub struct WindowToken {
    saved_peak: i64,
    start_live: i64,
    start_alloc: u64,
    armed: bool,
}

/// Open a per-thread measurement window: resets the thread peak to the
/// current live level so the window observes its own maximum.
pub fn window_begin() -> WindowToken {
    HEAP.try_with(|h| {
        let t = WindowToken {
            saved_peak: h.peak.get(),
            start_live: h.live.get(),
            start_alloc: h.allocated.get(),
            armed: true,
        };
        h.peak.set(h.live.get());
        t
    })
    .unwrap_or(WindowToken { saved_peak: 0, start_live: 0, start_alloc: 0, armed: false })
}

/// Close a measurement window and restore the thread's running peak.
pub fn window_end(t: WindowToken) -> HeapWindow {
    if !t.armed {
        return HeapWindow::default();
    }
    HEAP.try_with(|h| {
        let peak_bytes = (h.peak.get() - t.start_live).max(0) as u64;
        // allocated is reset by outer-scope flushes, so saturate rather
        // than assume monotonicity across the window.
        let alloc_bytes = h.allocated.get().saturating_sub(t.start_alloc);
        h.peak.set(h.peak.get().max(t.saved_peak));
        HeapWindow { peak_bytes, alloc_bytes }
    })
    .unwrap_or_default()
}

/// The tracking allocator: delegates verbatim to [`System`] and, while
/// [`tracking_active`], routes sizes through [`note_alloc`]/[`note_dealloc`].
pub struct TrackingAlloc;

// SAFETY: every method delegates the actual allocation verbatim to
// `System` (which upholds the GlobalAlloc contract) and only *observes*
// sizes afterwards; the accounting never touches the returned memory,
// never allocates on the hook path (Cell-only TLS guarded by IN_HOOK),
// and never unwinds (no panics, no unwrap).
unsafe impl GlobalAlloc for TrackingAlloc {
    // SAFETY: signature required unsafe by the trait; body only forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's GlobalAlloc contract.
        let p = unsafe { System.alloc(layout) };
        // ordering: Relaxed — single derived gate flag; see set_tracking.
        if !p.is_null() && ACTIVE.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY: signature required unsafe by the trait; body only forwards.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's GlobalAlloc contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        // ordering: Relaxed — single derived gate flag; see set_tracking.
        if !p.is_null() && ACTIVE.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY: signature required unsafe by the trait; body only forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // ordering: Relaxed — single derived gate flag; see set_tracking.
        if ACTIVE.load(Ordering::Relaxed) {
            note_dealloc(layout.size());
        }
        // SAFETY: ptr/layout pair came from a matching alloc on `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: signature required unsafe by the trait; body only forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's GlobalAlloc contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        // ordering: Relaxed — single derived gate flag; see set_tracking.
        if !p.is_null() && ACTIVE.load(Ordering::Relaxed) {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

// Not installed under gpf_check: the shim atomics inside the hooks are
// scheduling points, and a checker descheduled inside malloc deadlocks.
// The models drive note_alloc/note_dealloc/scope directly instead.
#[cfg(not(gpf_check))]
#[global_allocator]
static GLOBAL_ALLOC: TrackingAlloc = TrackingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_measures_peak_and_alloc_bytes() {
        flush_thread_stats();
        let t = window_begin();
        note_alloc(1000);
        note_alloc(24);
        note_dealloc(24);
        note_alloc(100);
        let w = window_end(t);
        assert_eq!(w.alloc_bytes, 1124);
        // Peak live within the window: 1000 + 100 held simultaneously at
        // the end beats the transient 1000 + 24 spike.
        assert_eq!(w.peak_bytes, 1100);
        note_dealloc(1000);
        note_dealloc(100);
        let w2 = window_end(window_begin());
        assert_eq!(w2, HeapWindow::default());
    }

    #[test]
    fn window_restores_outer_peak() {
        flush_thread_stats();
        note_alloc(5000);
        let outer = window_begin();
        note_alloc(10);
        note_dealloc(10);
        let inner = window_begin();
        note_alloc(1);
        note_dealloc(1);
        let wi = window_end(inner);
        assert_eq!(wi.peak_bytes, 1);
        let wo = window_end(outer);
        // The outer window's 10-byte spike must survive the inner reset.
        assert_eq!(wo.peak_bytes, 10);
        note_dealloc(5000);
    }

    #[test]
    fn scopes_charge_innermost_tag() {
        flush_thread_stats();
        {
            let _shuffle = scope(AllocTag::Shuffle);
            note_alloc(100);
            {
                let _serde = scope(AllocTag::Serde);
                note_alloc(50);
            }
            note_alloc(10);
            note_dealloc(160);
        }
        // Outermost scope exit flushed per-tag bytes to the registry.
        let find = |name: &str| {
            counters::counters_snapshot().iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
        };
        assert!(find(names::HEAP_TAG_SHUFFLE).unwrap_or(0) >= 110);
        assert!(find(names::HEAP_TAG_SERDE).unwrap_or(0) >= 50);
        assert!(find(names::HEAP_ALLOC_BYTES).unwrap_or(0) >= 160);
        assert!(find(names::HEAP_FREED_BYTES).unwrap_or(0) >= 160);
    }

    #[test]
    fn gauges_and_peak_windows_track_published_deltas() {
        // One sequential test owns all global-gauge assertions: the other
        // tests in this binary only move the gauges by small balanced
        // deltas, covered by `slack`.
        flush_thread_stats();
        let before = live_bytes();
        let big = 16u64 << 20;
        let slack = 1u64 << 20;
        note_alloc(big as usize);
        flush_thread_stats();
        let after = live_bytes();
        assert!(after + slack >= before + big, "live {before} -> {after}");
        assert!(peak_bytes() + slack >= after);
        let p1 = take_peak();
        assert!(p1 + slack >= after, "window peak must cover the step: {p1} vs {after}");
        note_dealloc(big as usize);
        flush_thread_stats();
        let settled = live_bytes();
        assert!(settled <= before + slack, "live must return near baseline: {before} -> {settled}");
    }

    #[test]
    fn hooks_are_gated_until_requested() {
        // Tracking is off by default in unit tests; the real allocator ran
        // for every line of this test already, so the thread-local cells
        // only ever move via explicit note_* calls.
        assert!(!tracking_active());
    }
}
