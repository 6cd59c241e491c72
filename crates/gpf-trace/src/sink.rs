//! Trace exporters and the sanctioned console.
//!
//! Two views over a [`Trace`] snapshot:
//!
//! - [`chrome_trace`] — Chrome trace-event JSON (`chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev)).
//! - [`text_report`] — terminal report: slowest spans, per-phase CPU
//!   utilization, and the Figure-12-style blocked-time breakdown
//!   (compute vs shuffle vs serde vs scheduler).
//!
//! Plus [`validate_chrome_trace`], a dependency-free structural check used
//! by CI, and [`console_out`] / [`console_err`] — the **only** sites in the
//! workspace's library code permitted to call `println!`/`eprintln!`
//! (gpf-lint's `no-raw-print` rule points every other would-be caller
//! here, so ad-hoc prints can't bypass the trace).

use crate::counters;
use crate::event::{Category, Event, EventKind, Trace};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with nanosecond fraction, as Chrome expects
/// (`ts` is a double in µs; we format `1234567 ns` as `"1234.567"`).
fn ts_us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

fn chrome_args(ev: &Event) -> String {
    // Chrome's `args` is an object, so repeated counter keys (the engine's
    // per-partition byte vectors) are summed into one entry; the `Trace`
    // itself keeps them apart.
    let mut keys: Vec<&str> = Vec::new();
    let mut sums: Vec<u64> = Vec::new();
    for (k, v) in &ev.counters {
        match keys.iter().position(|existing| *existing == &**k) {
            Some(i) => sums[i] += *v,
            None => {
                keys.push(k);
                sums.push(*v);
            }
        }
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, sum) in keys.iter().zip(&sums) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", json_escape(k), sum);
    }
    if !ev.phase.is_empty() {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "\"phase\":\"{}\"", json_escape(&ev.phase));
    }
    out.push('}');
    out
}

/// Render a [`Trace`] as Chrome trace-event JSON.
///
/// Events are stable-sorted by timestamp; span ids are deliberately
/// omitted (nesting is positional in the B/E stream), which keeps the
/// output byte-identical across runs under a
/// [`crate::clock::MockClock`].
pub fn chrome_trace(trace: &Trace) -> String {
    // `gpfDropped` surfaces ring overflow to validators (extra top-level
    // keys are ignored by Chrome/Perfetto); deterministic, so MockClock
    // byte-stability is preserved.
    let mut out = format!(
        "{{\"displayTimeUnit\":\"ms\",\"gpfDropped\":{},\"traceEvents\":[",
        trace.dropped
    );
    let mut first = true;
    for ev in trace.sorted_events() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            json_escape(&ev.name),
            ev.cat.name(),
            ev.kind.code(),
            ts_us(ev.ts_ns),
            ev.tid,
        );
        if ev.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        let args = chrome_args(ev);
        if args != "{}" {
            let _ = write!(out, ",\"args\":{args}");
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn fmt_s(ns: u64) -> String {
    format!("{:.6}", ns as f64 * 1e-9)
}

/// Render a terminal text report over a [`Trace`].
///
/// Sections: totals, top-`top_n` slowest spans, per-phase CPU utilization,
/// the Figure-12-style blocked-time breakdown, the heap track, what was
/// resident after each Process of a traced pipeline, and the global
/// counter/histogram registries.
pub fn text_report(trace: &Trace, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== gpf-trace report ===");
    let _ = writeln!(
        out,
        "events {}  dropped {}  spans {}",
        trace.events.len(),
        trace.dropped,
        trace.spans().len()
    );
    if trace.dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} events dropped (ring overflow) — derived numbers below undercount; \
             raise the log capacity or trace a smaller run",
            trace.dropped
        );
    }

    // Top-N slowest spans.
    let mut spans = trace.spans();
    spans.sort_by_key(|s| std::cmp::Reverse(s.dur_ns()));
    if !spans.is_empty() {
        let _ = writeln!(out, "\n-- top {} slowest spans --", top_n.min(spans.len()));
        for s in spans.iter().take(top_n) {
            let _ = writeln!(
                out,
                "{:>12}s  tid {:>3}  depth {}  [{}] {}",
                fmt_s(s.dur_ns()),
                s.tid,
                s.depth,
                s.cat.name(),
                s.name
            );
        }
    }

    // Per-phase utilization: CPU nanoseconds from task End events, grouped
    // by the phase tag stamped at emission.
    let mut phases: Vec<(&str, u64, u64)> = Vec::new(); // (phase, cpu_ns, tasks)
    for ev in &trace.events {
        if ev.kind != EventKind::End {
            continue;
        }
        let Some(cpu) = ev.counter("cpu_ns") else { continue };
        let phase: &str = if ev.phase.is_empty() { "(none)" } else { &ev.phase };
        match phases.iter_mut().find(|(p, _, _)| *p == phase) {
            Some(row) => {
                row.1 += cpu;
                row.2 += 1;
            }
            None => phases.push((phase, cpu, 1)),
        }
    }
    if !phases.is_empty() {
        let total_cpu: u64 = phases.iter().map(|(_, c, _)| *c).sum::<u64>().max(1);
        let _ = writeln!(out, "\n-- per-phase cpu --");
        let _ = writeln!(out, "{:<24} {:>12} {:>8} {:>7}", "phase", "cpu_s", "tasks", "share");
        for (phase, cpu, tasks) in &phases {
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>8} {:>6.1}%",
                phase,
                fmt_s(*cpu),
                tasks,
                *cpu as f64 * 100.0 / total_cpu as f64
            );
        }
    }

    // Figure-12-style blocked-time breakdown.
    let mut compute_ns = 0u64;
    let mut serde_ns = 0u64;
    let mut sched_ns = 0u64;
    let mut shuffle_write = 0u64;
    let mut shuffle_read = 0u64;
    for ev in &trace.events {
        match (ev.kind, ev.cat) {
            (EventKind::End, Category::Compute) => {
                compute_ns += ev.counter("cpu_ns").unwrap_or(0);
            }
            (EventKind::Instant, Category::Serde) => {
                serde_ns += ev.counter("ns").unwrap_or(0);
            }
            (EventKind::Counter, Category::Shuffle) => {
                let bytes: u64 = ev.counter_values("b").iter().sum();
                if &*ev.name == "shuffle.read" {
                    shuffle_read += bytes;
                } else {
                    shuffle_write += bytes;
                }
            }
            _ => {}
        }
    }
    for s in trace.spans() {
        if s.cat == Category::Scheduler && s.depth == 0 {
            sched_ns += s.dur_ns();
        }
    }
    let _ = writeln!(out, "\n-- blocked-time breakdown (fig. 12) --");
    let _ = writeln!(out, "compute   {:>14}s", fmt_s(compute_ns));
    let _ = writeln!(out, "serde     {:>14}s", fmt_s(serde_ns));
    let _ = writeln!(out, "scheduler {:>14}s (outermost scheduler spans, wall)", fmt_s(sched_ns));
    let _ = writeln!(out, "shuffle   {:>14} B written, {} B read", shuffle_write, shuffle_read);

    // Memory: the heap.live_bytes counter track sampled at stage/span
    // boundaries (present only when allocation tracking was active).
    let mut heap_samples = 0usize;
    let mut heap_last_live = 0u64;
    let mut heap_max_live = 0u64;
    let mut heap_max_peak = 0u64;
    for ev in trace.sorted_events() {
        if ev.kind == EventKind::Counter && &*ev.name == crate::names::HEAP_LIVE_TRACK {
            heap_samples += 1;
            if let Some(live) = ev.counter(crate::names::HEAP_LIVE_KEY) {
                heap_last_live = live;
                heap_max_live = heap_max_live.max(live);
            }
            if let Some(peak) = ev.counter(crate::names::HEAP_PEAK_KEY) {
                heap_max_peak = heap_max_peak.max(peak);
            }
        }
    }
    if heap_samples > 0 {
        let _ = writeln!(out, "\n-- memory (heap.live_bytes track) --");
        let _ = writeln!(out, "samples   {heap_samples:>14}");
        let _ = writeln!(out, "peak      {:>14} B", heap_max_peak.max(heap_max_live));
        let _ = writeln!(out, "max live  {heap_max_live:>14} B");
        let _ = writeln!(out, "end live  {heap_last_live:>14} B");
    }

    // Where the memory is: what was resident once each Process had run,
    // from the `proc:*` span ends of a traced pipeline.
    let steps: Vec<&Event> = trace
        .sorted_events()
        .into_iter()
        .filter(|ev| ev.kind == EventKind::End && ev.name.starts_with("proc:"))
        .filter(|ev| ev.counter(crate::names::RSS_KB).is_some())
        .collect();
    if !steps.is_empty() {
        let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
        let _ = writeln!(out, "\n-- resident after each Process --");
        let _ = writeln!(out, "{:<44} {:>9} {:>9}  resources defined (records)", "step", "rss MiB", "live MiB");
        for ev in steps {
            let rss = mib(ev.counter(crate::names::RSS_KB).unwrap_or(0) * 1024);
            let live = match ev.counter(crate::names::HEAP_LIVE_TRACK) {
                Some(bytes) => format!("{:.1}", mib(bytes)),
                None => "-".to_string(),
            };
            let held: Vec<String> = ev
                .counters
                .iter()
                .filter_map(|(key, records)| {
                    key.strip_prefix(crate::names::RESIDENT_PREFIX).map(|name| format!("{name} ({records})"))
                })
                .collect();
            let step = ev.name.trim_start_matches("proc:");
            let _ = writeln!(out, "{step:<44} {rss:>9.1} {live:>9}  {}", held.join(", "));
        }
    }

    // Global registries.
    let counter_rows = counters::counters_snapshot();
    if !counter_rows.is_empty() {
        let _ = writeln!(out, "\n-- counters --");
        for (name, v) in counter_rows {
            let _ = writeln!(out, "{name:<32} {v:>16}");
        }
    }
    let histo_rows = counters::histograms_snapshot();
    if !histo_rows.is_empty() {
        let _ = writeln!(out, "\n-- histograms (count / p50 / p95 / p99) --");
        for (name, h) in histo_rows {
            let _ = writeln!(
                out,
                "{name:<32} {:>8} {:>10} {:>10} {:>10}",
                h.count, h.p50, h.p95, h.p99
            );
        }
    }
    out
}

/// Structurally validate Chrome trace JSON (as produced by
/// [`chrome_trace`] or any spec-shaped tool).
///
/// Checks performed, without a JSON dependency: the top level contains a
/// `"traceEvents"` array; braces/brackets balance outside string literals;
/// every event object carries `name`, `ph`, `ts`, `pid`, and `tid` keys;
/// and per tid, `B`/`E` events balance (never more `E` than `B`, none left
/// open). Returns the event count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let Some(key_at) = json.find("\"traceEvents\"") else {
        return Err("missing \"traceEvents\" key".to_string());
    };
    let after = &json[key_at + "\"traceEvents\"".len()..];
    let Some(rel) = after.find('[') else {
        return Err("\"traceEvents\" is not an array".to_string());
    };
    let body = &after[rel + 1..];

    let mut depth = 0usize; // object nesting inside the array
    let mut in_str = false;
    let mut escaped = false;
    let mut obj = String::new();
    let mut count = 0usize;
    let mut open_per_tid: Vec<(String, i64)> = Vec::new();
    let mut closed = false;

    for c in body.chars() {
        if in_str {
            obj.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                obj.push(c);
            }
            '{' => {
                depth += 1;
                obj.push(c);
            }
            '}' => {
                if depth == 0 {
                    return Err("unbalanced '}' in traceEvents".to_string());
                }
                depth -= 1;
                obj.push(c);
                if depth == 0 {
                    count += 1;
                    check_event_object(&obj, &mut open_per_tid)?;
                    obj.clear();
                }
            }
            ']' if depth == 0 => {
                closed = true;
                break;
            }
            _ => {
                if depth > 0 {
                    obj.push(c);
                }
            }
        }
    }
    if !closed {
        return Err("traceEvents array never closes".to_string());
    }
    if depth != 0 {
        return Err("unbalanced '{' in traceEvents".to_string());
    }
    for (tid, open) in &open_per_tid {
        if *open != 0 {
            return Err(format!("tid {tid}: {open} span Begin(s) without End"));
        }
    }
    Ok(count)
}

fn field_value<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)?;
    let rest = obj[at + pat.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .char_indices()
        .find(|(i, c)| {
            if rest.starts_with('"') {
                *i > 0 && *c == '"'
            } else {
                *c == ',' || *c == '}'
            }
        })
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    if rest.starts_with('"') {
        Some(&rest[1..end])
    } else {
        Some(rest[..end].trim())
    }
}

fn check_event_object(obj: &str, open_per_tid: &mut Vec<(String, i64)>) -> Result<(), String> {
    for key in ["name", "ph", "ts", "pid", "tid"] {
        if field_value(obj, key).is_none() {
            return Err(format!("event missing required key \"{key}\": {obj}"));
        }
    }
    let ph = field_value(obj, "ph").unwrap_or("");
    let tid = field_value(obj, "tid").unwrap_or("").to_string();
    if ph == "B" || ph == "E" {
        let row = match open_per_tid.iter_mut().find(|(t, _)| *t == tid) {
            Some(r) => r,
            None => {
                open_per_tid.push((tid, 0));
                // gpf-lint: allow(no-panic): element pushed on the previous line
                open_per_tid.last_mut().expect("just pushed")
            }
        };
        if ph == "B" {
            row.1 += 1;
        } else {
            row.1 -= 1;
            if row.1 < 0 {
                return Err(format!("tid {}: span End without Begin", row.0));
            }
        }
    }
    Ok(())
}

/// Print one line to stdout. The single sanctioned stdout site for
/// workspace library code (see module docs).
pub fn console_out(msg: &str) {
    println!("{msg}");
}

/// Print one line to stderr. The single sanctioned stderr site for
/// workspace library code (see module docs).
pub fn console_err(msg: &str) {
    eprintln!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(kind: EventKind, name: &str, cat: Category, ts: u64, tid: u32) -> Event {
        Event {
            kind,
            name: Arc::from(name),
            cat,
            phase: Arc::from("aligner"),
            ts_ns: ts,
            tid,
            id: 0,
            parent: 0,
            counters: Vec::new(),
        }
    }

    fn sample_trace() -> Trace {
        let mut begin = ev(EventKind::Begin, "task", Category::Compute, 1_000, 1);
        begin.id = 1;
        let mut end = ev(EventKind::End, "task", Category::Compute, 3_500, 1);
        end.id = 1;
        end.counters = vec![(Arc::from("cpu_ns"), 2_000)];
        let mut shuffle = ev(EventKind::Counter, "shuffle.write", Category::Shuffle, 4_000, 0);
        shuffle.counters = vec![(Arc::from("b"), 10), (Arc::from("b"), 20)];
        let mut serde = ev(EventKind::Instant, "serde", Category::Serde, 4_100, 0);
        serde.counters = vec![(Arc::from("ns"), 500)];
        Trace { events: vec![begin, end, shuffle, serde], dropped: 0 }
    }

    #[test]
    fn chrome_trace_shape_and_validation() {
        let json = chrome_trace(&sample_trace());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"gpfDropped\":0,\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ts\":1.000"));
        // Repeated "b" keys sum in chrome args.
        assert!(json.contains("\"b\":30"), "{json}");
        // Instants carry a scope.
        assert!(json.contains("\"s\":\"t\""));
        assert_eq!(validate_chrome_trace(&json), Ok(4));
    }

    #[test]
    fn text_report_sections_present() {
        let report = text_report(&sample_trace(), 5);
        assert!(report.contains("gpf-trace report"));
        assert!(report.contains("slowest spans"));
        assert!(report.contains("per-phase cpu"));
        assert!(report.contains("blocked-time breakdown"));
        assert!(report.contains("aligner"));
        assert!(report.contains("30 B written"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        let unbalanced = "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
        let err = validate_chrome_trace(unbalanced);
        assert!(err.is_err(), "open span must be rejected: {err:?}");
        let missing = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":0,\"pid\":1}]}";
        assert!(validate_chrome_trace(missing).is_err(), "missing tid key");
        let stray_end = "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"E\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
        assert!(validate_chrome_trace(stray_end).is_err());
    }

    #[test]
    fn validator_handles_braces_inside_strings() {
        let tricky = "{\"traceEvents\":[{\"name\":\"a{b}c\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
        assert_eq!(validate_chrome_trace(tricky), Ok(1));
    }

    #[test]
    fn json_escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
