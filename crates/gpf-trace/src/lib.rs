//! # gpf-trace
//!
//! Span-based runtime tracing for the GPF workspace — the observability
//! substrate behind the paper's whole evaluation chapter: Table 4's stage
//! and shuffle accounting, Figure 12's blocked-time breakdown and Figure
//! 13's utilization timelines are all *views over an event stream*, so the
//! engine now records that stream and derives everything else from it.
//!
//! ## Model
//!
//! - [`Event`] — one timestamped record: a span [`EventKind::Begin`]/
//!   [`EventKind::End`] pair, a point [`EventKind::Instant`], or a
//!   [`EventKind::Counter`] sample. Every event carries a [`Category`]
//!   (compute / shuffle / serde / scheduler / io / other), the pipeline
//!   *phase* tag active when it was emitted, a thread id, and a list of
//!   `u64` counter attachments.
//! - [`TraceLog`] — a bounded ring buffer of events. Overflow drops the
//!   *oldest* events and increments both the log's local drop count and the
//!   global `trace.dropped` counter.
//! - [`recorder`] — per-thread lock-light span recording: events buffer in
//!   a thread-local vector and flush to the target log in batches (at the
//!   latest when the thread's span stack empties), so a span costs two
//!   clock reads and an amortized fraction of one mutex acquisition.
//! - [`counters`] — a global registry of named atomic counters and
//!   log-bucketed latency histograms (p50/p95/p99).
//! - [`sink`] — two exporters over a [`Trace`] snapshot: Chrome
//!   `chrome://tracing` JSON (loadable in Perfetto) and a
//!   terminal text report (top-N slowest spans, per-phase utilization,
//!   Figure-12-style blocked-time breakdown). The sink module is also the
//!   only place in the workspace allowed to call `println!`/`eprintln!`
//!   (enforced by gpf-lint's `no-raw-print` rule).
//! - [`clock`] — monotonic nanosecond wall clock and the thread-CPU timer
//!   (moved here from gpf-engine's `timing.rs`), plus a deterministic
//!   thread-local [`clock::MockClock`] that makes trace-shape tests
//!   byte-stable.
//!
//! ## One recording plane
//!
//! Every span and instant names the [`TraceLog`] it writes to
//! ([`span_in`]/[`instant_in`]) and records unconditionally. The engine's
//! per-context session log is that log for a run — its events *are* the
//! metrics, so they cannot be optional — and an application span opened on
//! it (`EngineContext::trace_log`) lands in the same exported trace.
//! [`set_enabled`] does not gate them: it switches the engine's task
//! `Begin` events, allocation tracking and the tracing-only counters.

pub mod alloc;
pub mod clock;
pub mod counters;
pub mod event;
pub mod names;
pub mod recorder;
pub mod ring;
pub mod sink;

pub use counters::{counter, counters_snapshot, histogram, histograms_snapshot, LocalHistogram};
pub use event::{Category, Event, EventKind, SpanView, Trace};
pub use recorder::{current_tid, enabled, instant_in, set_enabled, span_in, SpanGuard};
pub use ring::{RingStats, TraceLog};
