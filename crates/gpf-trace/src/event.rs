//! Trace events and snapshots.

use std::sync::Arc;

/// Event shape, mapping 1:1 onto Chrome trace-event phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter,
}

impl EventKind {
    /// Chrome trace-event `ph` code.
    pub fn code(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        }
    }
}

/// What kind of work an event describes — the axes of the paper's Figure 12
/// blocked-time breakdown (compute vs shuffle vs serde vs scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Task/operator CPU work.
    Compute,
    /// Shuffle data movement (write/read byte accounting, stage closes).
    Shuffle,
    /// Serialization / deserialization.
    Serde,
    /// Pipeline scheduling: validation, topo order, fusion, state changes.
    Scheduler,
    /// Driver I/O: collects, broadcasts.
    Io,
    /// Anything else.
    Other,
}

impl Category {
    /// Stable lowercase name (Chrome `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Shuffle => "shuffle",
            Category::Serde => "serde",
            Category::Scheduler => "scheduler",
            Category::Io => "io",
            Category::Other => "other",
        }
    }
}

/// One trace event.
///
/// `name` and `phase` are `Arc<str>` so the engine can stamp thousands of
/// per-partition task events with two refcount bumps instead of two string
/// allocations each.
#[derive(Debug, Clone)]
pub struct Event {
    /// Shape of the event.
    pub kind: EventKind,
    /// Span/operator label.
    pub name: Arc<str>,
    /// Work category.
    pub cat: Category,
    /// Pipeline phase tag active at emission (e.g. `"aligner"`).
    pub phase: Arc<str>,
    /// Timestamp from [`crate::clock::now_ns`].
    pub ts_ns: u64,
    /// Recording thread (dense ids assigned by [`crate::current_tid`]).
    pub tid: u32,
    /// Span id (0 for events outside the span recorder).
    pub id: u64,
    /// Enclosing span id at emission (0 = top level).
    pub parent: u64,
    /// Counter attachments. Keys may repeat: the engine stores
    /// per-partition byte vectors as repeated `("b", bytes)` entries whose
    /// order is the partition order.
    pub counters: Vec<(Arc<str>, u64)>,
}

impl Event {
    /// First counter value under `key`.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| &**k == key).map(|(_, v)| *v)
    }

    /// Every counter value under `key`, in attachment order.
    pub fn counter_values(&self, key: &str) -> Vec<u64> {
        self.counters.iter().filter(|(k, _)| &**k == key).map(|(_, v)| *v).collect()
    }
}

/// A reconstructed span: a matched Begin/End pair.
#[derive(Debug, Clone)]
pub struct SpanView {
    /// Span label.
    pub name: Arc<str>,
    /// Work category.
    pub cat: Category,
    /// Phase tag at Begin.
    pub phase: Arc<str>,
    /// Begin timestamp.
    pub start_ns: u64,
    /// End timestamp.
    pub end_ns: u64,
    /// Recording thread.
    pub tid: u32,
    /// Nesting depth on its thread (0 = outermost).
    pub depth: usize,
}

impl SpanView {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An immutable snapshot of a [`crate::TraceLog`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in ring order (per-thread emission order is preserved; sinks
    /// stable-sort by timestamp before rendering).
    pub events: Vec<Event>,
    /// Events the bounded ring dropped (oldest first) before this snapshot.
    pub dropped: u64,
}

impl Trace {
    /// Events stable-sorted by timestamp — the canonical render order
    /// (thread-local batching may flush a parent's Begin after a child's
    /// events reached the ring).
    pub fn sorted_events(&self) -> Vec<&Event> {
        let mut evs: Vec<&Event> = self.events.iter().collect();
        evs.sort_by_key(|e| e.ts_ns);
        evs
    }

    /// Reconstruct spans from Begin/End nesting, per thread.
    ///
    /// Unmatched Begins (still open at snapshot time) and stray Ends are
    /// skipped. Spans are returned in End order.
    pub fn spans(&self) -> Vec<SpanView> {
        let mut stacks: std::collections::HashMap<u32, Vec<&Event>> =
            std::collections::HashMap::new();
        let mut out = Vec::new();
        for ev in self.sorted_events() {
            match ev.kind {
                EventKind::Begin => stacks.entry(ev.tid).or_default().push(ev),
                EventKind::End => {
                    let stack = stacks.entry(ev.tid).or_default();
                    if let Some(begin) = stack.pop() {
                        out.push(SpanView {
                            name: Arc::clone(&begin.name),
                            cat: begin.cat,
                            phase: Arc::clone(&begin.phase),
                            start_ns: begin.ts_ns,
                            end_ns: ev.ts_ns,
                            tid: ev.tid,
                            depth: stack.len(),
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &str, ts: u64, tid: u32) -> Event {
        Event {
            kind,
            name: Arc::from(name),
            cat: Category::Other,
            phase: Arc::from(""),
            ts_ns: ts,
            tid,
            id: 0,
            parent: 0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn spans_reconstruct_nesting() {
        let t = Trace {
            events: vec![
                ev(EventKind::Begin, "outer", 0, 1),
                ev(EventKind::Begin, "inner", 10, 1),
                ev(EventKind::End, "inner", 20, 1),
                ev(EventKind::End, "outer", 30, 1),
            ],
            dropped: 0,
        };
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(&*spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].dur_ns(), 10);
        assert_eq!(&*spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].dur_ns(), 30);
    }

    #[test]
    fn spans_separate_threads() {
        let t = Trace {
            events: vec![
                ev(EventKind::Begin, "a", 0, 1),
                ev(EventKind::Begin, "b", 5, 2),
                ev(EventKind::End, "a", 10, 1),
                ev(EventKind::End, "b", 15, 2),
            ],
            dropped: 0,
        };
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.depth == 0));
    }

    #[test]
    fn counter_accessors_handle_repeats() {
        let mut e = ev(EventKind::Counter, "c", 0, 0);
        let key: Arc<str> = Arc::from("b");
        e.counters = vec![(Arc::clone(&key), 1), (Arc::clone(&key), 2), (Arc::from("x"), 9)];
        assert_eq!(e.counter("b"), Some(1));
        assert_eq!(e.counter_values("b"), vec![1, 2]);
        assert_eq!(e.counter("missing"), None);
    }

    #[test]
    fn sorted_events_is_stable_on_ties() {
        let t = Trace {
            events: vec![ev(EventKind::Instant, "first", 5, 0), ev(EventKind::Instant, "second", 5, 0)],
            dropped: 0,
        };
        let names: Vec<&str> = t.sorted_events().iter().map(|e| &*e.name).collect();
        assert_eq!(names, vec!["first", "second"]);
    }
}
