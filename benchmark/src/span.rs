//! Benchmark-side spans around the calls into each layer: name, start,
//! end, parent. Kept in memory, written once at exit in Chrome trace
//! format. A span's self time is its duration minus the part of that
//! interval its child spans cover.

use crate::record::quote;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

/// Records spans on one thread; the open spans form a stack.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open one.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration in seconds of the (first) span called `name`; 0 if absent.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }
}

/// Self time of `spans[id]`, nanoseconds: its duration minus the union of
/// its direct children's intervals, each clipped to the parent's.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev): one
/// complete (`"ph": "X"`) event per span, microsecond timestamps, with the
/// self time and the parent's name as arguments.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("", |p| spans[p].name.as_str());
        let _ = write!(
            out,
            "{{\"name\": {}, \"cat\": \"walk\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \"self_us\": {:.3}}}}}",
            quote(&s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            quote(parent),
            self_time_ns(spans, id) as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 50, Some(0)),       // adjacent to a
            span("a.inner", 12, 20, Some(1)), // nested: counts against a, not root
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 20 - 20);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert_eq!(self_time_ns(&spans, 3), 8);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("late", 90, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_scopes() {
        let mut r = Recorder::new();
        r.scope("outer", |r| {
            r.scope("first", |_| ());
            r.scope("second", |r| r.scope("leaf", |_| ()));
        });
        let names: Vec<(&str, Option<usize>)> =
            r.spans().iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            names,
            [("outer", None), ("first", Some(0)), ("second", Some(0)), ("leaf", Some(2))]
        );
        for (id, s) in r.spans().iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            assert!(self_time_ns(r.spans(), id) <= s.end_ns - s.start_ns);
        }
    }
}
