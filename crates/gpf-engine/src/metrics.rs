//! Job / stage / task metrics — derived from the trace event stream.
//!
//! The engine records a [`JobRun`]: an ordered list of [`StageMetrics`]
//! following Spark's stage model — a stage is the pipelined narrow work each
//! partition receives between two shuffle boundaries. Narrow operations
//! *accumulate* per-partition CPU time into the open stage; a wide operation
//! closes the stage (recording per-partition shuffle-write bytes) and opens
//! a new one (recording shuffle-read bytes).
//!
//! Since the tracing refactor the engine no longer maintains this record
//! directly: [`crate::context::EngineContext`] emits `gpf-trace` events into
//! a session [`gpf_trace::TraceLog`], and [`derive_job_run`] replays that
//! event stream into a `JobRun`. The trace is the single source of truth —
//! the Chrome-trace export and the stage metrics can never disagree,
//! because one is a rendering and the other a fold over the same events.
//!
//! Everything the paper's evaluation reports is derived from this record:
//! stage counts and shuffle volumes (Table 4), serialized sizes (Table 3),
//! and — through [`crate::sim`] — scaling curves, blocked-time analysis and
//! utilization timelines (Figures 10, 12, 13).

use gpf_trace::{Category, Event, EventKind};

/// Event / counter names shared by the emitting side
/// ([`crate::context::EngineContext`]) and the replay side
/// ([`derive_job_run`]).
///
/// CPU seconds travel losslessly as `f64::to_bits` counters (`cpu_bits`,
/// `s_bits`); the sibling nanosecond counters (`cpu_ns`, `ns`) exist for
/// human-readable sinks and are never used in derivation.
pub(crate) mod names {
    /// Serde instant (category `Serde`).
    pub(crate) const SERDE: &str = "serde";
    /// Per-map-partition shuffle bytes written (category `Shuffle`).
    pub(crate) const SHUFFLE_WRITE: &str = "shuffle.write";
    /// Per-reduce-partition shuffle bytes read (category `Shuffle`).
    pub(crate) const SHUFFLE_READ: &str = "shuffle.read";
    /// Driver-to-cluster broadcast bytes (category `Io`).
    pub(crate) const BROADCAST: &str = "broadcast";
    /// Task partition index (on task `End` events).
    pub(crate) const PART: &str = "part";
    /// Task CPU nanoseconds (display only).
    pub(crate) const CPU_NS: &str = "cpu_ns";
    /// Task CPU seconds as `f64::to_bits` (derivation).
    pub(crate) const CPU_BITS: &str = "cpu_bits";
    /// Records flowing out of an operation.
    pub(crate) const RECORDS: &str = "records";
    /// Estimated heap churn in bytes.
    pub(crate) const ALLOC: &str = "alloc";
    /// A byte count; repeated entries encode per-partition vectors in
    /// partition order.
    pub(crate) const BYTES: &str = "b";
    /// Duration in nanoseconds (display only).
    pub(crate) const NS: &str = "ns";
    /// Duration in seconds as `f64::to_bits` (derivation).
    pub(crate) const SECONDS_BITS: &str = "s_bits";
    /// Per-task peak heap bytes measured by the tracking allocator (on
    /// task `End` events, only while tracking is active).
    pub(crate) const HEAP_TASK_PEAK: &str = "h_peak";
    /// Per-task allocated heap bytes (sibling of `h_peak`).
    pub(crate) const HEAP_TASK_ALLOC: &str = "h_alloc";
}

/// What closed a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Stage ended at a shuffle boundary.
    Shuffle,
    /// Stage ended by collecting results to the driver (serial step).
    Collect,
    /// Stage was still open when the job finished.
    Final,
}

/// Metrics for one stage.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Stage id (dense, in execution order).
    pub id: usize,
    /// Human-readable label (last operation label attached).
    pub label: String,
    /// Pipeline phase tag active when the stage ran (e.g. "aligner").
    pub phase: String,
    /// Per-partition accumulated CPU seconds (measured wall time of the
    /// partition's closures, including serialization work).
    pub task_cpu_s: Vec<f64>,
    /// Per-partition shuffle-read bytes paid at the start of this stage.
    pub shuffle_read_bytes: Vec<u64>,
    /// Per-partition shuffle-write bytes paid at the end of this stage.
    pub shuffle_write_bytes: Vec<u64>,
    /// Records flowing out of the stage's last operation.
    pub records_out: u64,
    /// Estimated heap churn in bytes (drives the GC model).
    pub alloc_bytes: u64,
    /// Time spent in serialization/deserialization (subset of CPU time).
    pub serde_s: f64,
    /// How the stage ended.
    pub kind: StageKind,
    /// Bytes broadcast to every node during this stage (driver → cluster).
    pub broadcast_bytes: u64,
    /// Measured peak live heap bytes during the stage (max over the
    /// stage's `heap.live_bytes` samples; 0 while tracking is inactive).
    pub heap_peak_bytes: u64,
    /// Measured live heap bytes at the stage boundary (last sample; 0
    /// while tracking is inactive).
    pub heap_live_bytes: u64,
    /// Max single-task peak heap bytes (worker-thread windows; 0 while
    /// tracking is inactive).
    pub heap_task_peak_bytes: u64,
    /// CPU seconds contributed per phase tag (a stage can straddle a phase
    /// change; `phase` reports the dominant contributor).
    pub(crate) phase_cpu: Vec<(String, f64)>,
}

impl StageMetrics {
    pub(crate) fn new(id: usize, phase: String) -> Self {
        Self {
            id,
            label: String::new(),
            phase,
            task_cpu_s: Vec::new(),
            shuffle_read_bytes: Vec::new(),
            shuffle_write_bytes: Vec::new(),
            records_out: 0,
            alloc_bytes: 0,
            serde_s: 0.0,
            kind: StageKind::Final,
            broadcast_bytes: 0,
            heap_peak_bytes: 0,
            heap_live_bytes: 0,
            heap_task_peak_bytes: 0,
            phase_cpu: Vec::new(),
        }
    }

    /// Merge one operation's per-partition CPU seconds into the stage,
    /// crediting the CPU to `phase` and re-deriving the dominant phase tag.
    pub(crate) fn add_task_cpu(&mut self, per_partition: &[f64], phase: &str) {
        if self.task_cpu_s.len() < per_partition.len() {
            self.task_cpu_s.resize(per_partition.len(), 0.0);
        }
        for (acc, &t) in self.task_cpu_s.iter_mut().zip(per_partition) {
            *acc += t;
        }
        self.credit_phase(phase, per_partition.iter().sum());
    }

    /// Merge one task's CPU seconds at partition index `part` (the
    /// trace-replay path: task `End` events arrive one partition at a time).
    pub(crate) fn add_task_cpu_at(&mut self, part: usize, cpu_s: f64, phase: &str) {
        if self.task_cpu_s.len() <= part {
            self.task_cpu_s.resize(part + 1, 0.0);
        }
        self.task_cpu_s[part] += cpu_s;
        self.credit_phase(phase, cpu_s);
    }

    fn credit_phase(&mut self, phase: &str, cpu: f64) {
        match self.phase_cpu.iter_mut().find(|(p, _)| p == phase) {
            Some((_, acc)) => *acc += cpu,
            None => self.phase_cpu.push((phase.to_string(), cpu)),
        }
        self.recompute_dominant_phase();
    }

    fn recompute_dominant_phase(&mut self) {
        // Strictly-greater comparison: on ties the first-inserted phase
        // wins, so a stage straddling a phase change keeps the tag it
        // opened under instead of flapping to whichever phase was credited
        // last.
        let mut best: Option<(&String, f64)> = None;
        for (p, c) in &self.phase_cpu {
            if best.is_none_or(|(_, bc)| *c > bc) {
                best = Some((p, *c));
            }
        }
        if let Some((dominant, _)) = best {
            self.phase = dominant.clone();
        }
    }

    /// Number of tasks (partitions) in the stage.
    pub fn num_tasks(&self) -> usize {
        self.task_cpu_s
            .len()
            .max(self.shuffle_read_bytes.len())
            .max(self.shuffle_write_bytes.len())
    }

    /// Total CPU seconds across tasks.
    pub fn total_cpu_s(&self) -> f64 {
        self.task_cpu_s.iter().sum()
    }

    /// Total shuffle bytes written by the stage.
    pub fn total_shuffle_write(&self) -> u64 {
        self.shuffle_write_bytes.iter().sum()
    }

    /// Total shuffle bytes read by the stage.
    pub fn total_shuffle_read(&self) -> u64 {
        self.shuffle_read_bytes.iter().sum()
    }
}

/// A recorded job: the ordered stages of one pipeline execution.
#[derive(Debug, Clone, Default)]
pub struct JobRun {
    /// Stages in execution order.
    pub stages: Vec<StageMetrics>,
}

impl JobRun {
    /// Number of stages (the paper's Table 4 "Stage Num." row).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total shuffle data written, in bytes (Table 4 "Shuffle Data").
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.total_shuffle_write()).sum()
    }

    /// Total CPU seconds over all tasks.
    pub fn total_cpu_s(&self) -> f64 {
        self.stages.iter().map(|s| s.total_cpu_s()).sum()
    }

    /// Total serialization/deserialization seconds.
    pub fn total_serde_s(&self) -> f64 {
        self.stages.iter().map(|s| s.serde_s).sum()
    }

    /// Stages belonging to a phase tag.
    pub fn stages_in_phase<'a>(&'a self, phase: &'a str) -> impl Iterator<Item = &'a StageMetrics> {
        self.stages.iter().filter(move |s| s.phase == phase)
    }

    /// Distinct phase tags in first-appearance order.
    pub fn phases(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.stages {
            if !out.contains(&s.phase) {
                out.push(s.phase.clone());
            }
        }
        out
    }
}

/// Replay an engine trace-event stream into a [`JobRun`].
///
/// This is the fold that makes the trace the single source of truth for
/// stage metrics. Events must be in emission order (the engine records
/// driver-side, so ring order *is* emission order). The mapping mirrors the
/// pre-trace recorder exactly:
///
/// | event                                  | effect                                    |
/// |----------------------------------------|-------------------------------------------|
/// | `End`/`Compute` with `part`+`cpu_bits` | task CPU into the open stage              |
/// | `Instant`/`Compute`                    | op label, records-out, alloc bytes        |
/// | `Instant`/`Serde`                      | serde seconds (`s_bits`)                  |
/// | `Counter`/`Shuffle` `shuffle.write`    | per-partition write bytes                 |
/// | `Counter`/`Shuffle` `shuffle.read`     | read bytes charged to the *next* stage    |
/// | `Instant`/`Shuffle`                    | close stage as [`StageKind::Shuffle`]     |
/// | `Counter`/`Io` `broadcast`             | broadcast bytes into the open stage       |
/// | `Instant`/`Io`                         | close stage as [`StageKind::Collect`]     |
/// | `Counter`/`Scheduler` `heap.live_bytes`| stage heap peak/live (max/last sample)    |
///
/// `Begin`, other `Scheduler`, and `Warn` events are timeline-only and
/// ignored here. A stage still open when the stream ends is pushed as
/// [`StageKind::Final`].
pub fn derive_job_run(events: &[Event]) -> JobRun {
    struct Derive {
        run: JobRun,
        current: Option<StageMetrics>,
        next_read: Vec<u64>,
    }
    impl Derive {
        fn ensure(&mut self, phase: &str) -> &mut StageMetrics {
            let id = self.run.stages.len();
            let next_read = &mut self.next_read;
            self.current.get_or_insert_with(|| {
                let mut stage = StageMetrics::new(id, phase.to_string());
                stage.shuffle_read_bytes = std::mem::take(next_read);
                stage
            })
        }
        fn close(&mut self) {
            if let Some(done) = self.current.take() {
                self.run.stages.push(done);
            }
        }
    }
    let mut d = Derive { run: JobRun::default(), current: None, next_read: Vec::new() };
    for ev in events {
        let phase = &*ev.phase;
        match (ev.kind, ev.cat) {
            (EventKind::End, Category::Compute) => {
                let (Some(part), Some(bits)) =
                    (ev.counter(names::PART), ev.counter(names::CPU_BITS))
                else {
                    continue;
                };
                let stage = d.ensure(phase);
                stage.add_task_cpu_at(part as usize, f64::from_bits(bits), phase);
                if let Some(task_peak) = ev.counter(names::HEAP_TASK_PEAK) {
                    stage.heap_task_peak_bytes = stage.heap_task_peak_bytes.max(task_peak);
                }
            }
            (EventKind::Instant, Category::Compute) => {
                let stage = d.ensure(phase);
                // Mirrors the old recorder: even a zero-task op credits the
                // phase (with 0 CPU), which can retag an otherwise idle
                // stage.
                stage.add_task_cpu(&[], phase);
                if let Some(records) = ev.counter(names::RECORDS) {
                    stage.records_out = records;
                }
                stage.alloc_bytes += ev.counter(names::ALLOC).unwrap_or(0);
                stage.label = ev.name.to_string();
            }
            (EventKind::Instant, Category::Serde) => {
                let s = ev.counter(names::SECONDS_BITS).map(f64::from_bits).unwrap_or(0.0);
                d.ensure(phase).serde_s += s;
            }
            (EventKind::Counter, Category::Shuffle) => {
                if &*ev.name == names::SHUFFLE_READ {
                    // Charged to the stage the *next* ensure() opens.
                    d.next_read = ev.counter_values(names::BYTES);
                } else {
                    d.ensure(phase).shuffle_write_bytes = ev.counter_values(names::BYTES);
                }
            }
            (EventKind::Instant, Category::Shuffle) => {
                let stage = d.ensure(phase);
                stage.kind = StageKind::Shuffle;
                if !ev.name.is_empty() {
                    stage.label = ev.name.to_string();
                }
                d.close();
            }
            (EventKind::Counter, Category::Io) if &*ev.name == names::BROADCAST => {
                d.ensure(phase).broadcast_bytes += ev.counter(names::BYTES).unwrap_or(0);
            }
            (EventKind::Instant, Category::Io) => {
                let stage = d.ensure(phase);
                stage.kind = StageKind::Collect;
                if stage.label.is_empty() {
                    stage.label = ev.name.to_string();
                } else {
                    stage.label = format!("{} -> {}", stage.label, ev.name);
                }
                d.close();
                d.next_read.clear();
            }
            // Heap gauge samples from the tracking allocator; other
            // scheduler counters stay timeline-only.
            (EventKind::Counter, Category::Scheduler)
                if &*ev.name == gpf_trace::names::HEAP_LIVE_TRACK =>
            {
                let stage = d.ensure(phase);
                if let Some(live) = ev.counter(gpf_trace::names::HEAP_LIVE_KEY) {
                    stage.heap_live_bytes = live;
                }
                if let Some(peak) = ev.counter(gpf_trace::names::HEAP_PEAK_KEY) {
                    stage.heap_peak_bytes = stage.heap_peak_bytes.max(peak);
                }
            }
            _ => {}
        }
    }
    d.close();
    d.run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_task_cpu_accumulates_and_resizes() {
        let mut s = StageMetrics::new(0, "p".into());
        s.add_task_cpu(&[1.0, 2.0], "p");
        s.add_task_cpu(&[0.5, 0.5, 3.0], "p");
        assert_eq!(s.task_cpu_s, vec![1.5, 2.5, 3.0]);
        assert_eq!(s.num_tasks(), 3);
        assert!((s.total_cpu_s() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn phase_follows_dominant_cpu_contributor() {
        let mut s = StageMetrics::new(0, "cleaner".into());
        s.add_task_cpu(&[0.1, 0.1], "cleaner");
        assert_eq!(s.phase, "cleaner");
        s.add_task_cpu(&[5.0, 5.0], "caller");
        assert_eq!(s.phase, "caller", "caller dominates the stage's CPU");
    }

    #[test]
    fn phase_tie_goes_to_first_inserted() {
        // Pin the tie-break: with equal CPU, the phase credited first keeps
        // the stage (the old `max_by` picked whichever was inserted last).
        let mut s = StageMetrics::new(0, "aligner".into());
        s.add_task_cpu(&[1.0], "aligner");
        s.add_task_cpu(&[1.0], "cleaner");
        assert_eq!(s.phase, "aligner", "first-inserted phase wins the tie");

        let mut s = StageMetrics::new(0, "cleaner".into());
        s.add_task_cpu(&[1.0], "cleaner");
        s.add_task_cpu(&[1.0], "aligner");
        assert_eq!(s.phase, "cleaner", "tie-break is insertion order, not name order");
    }

    #[test]
    fn add_task_cpu_at_matches_slice_accumulation() {
        let mut whole = StageMetrics::new(0, "p".into());
        whole.add_task_cpu(&[0.25, 0.5], "p");
        let mut by_part = StageMetrics::new(0, "p".into());
        by_part.add_task_cpu_at(0, 0.25, "p");
        by_part.add_task_cpu_at(1, 0.5, "p");
        assert_eq!(whole.task_cpu_s, by_part.task_cpu_s);
        assert_eq!(whole.phase, by_part.phase);
    }

    #[test]
    fn derive_replays_a_two_stage_job() {
        use gpf_trace::{Category, Event, EventKind};
        use std::sync::Arc;
        let phase: Arc<str> = Arc::from("aligner");
        let mk = |kind, name: &str, cat, counters: Vec<(&str, u64)>| Event {
            kind,
            name: Arc::from(name),
            cat,
            phase: Arc::clone(&phase),
            ts_ns: 0,
            tid: 0,
            id: 0,
            parent: 0,
            counters: counters.into_iter().map(|(k, v)| (Arc::from(k), v)).collect(),
        };
        let events = vec![
            mk(
                EventKind::End,
                "map",
                Category::Compute,
                vec![(names::PART, 0), (names::CPU_BITS, 0.5f64.to_bits())],
            ),
            mk(
                EventKind::Instant,
                "map",
                Category::Compute,
                vec![(names::RECORDS, 100), (names::ALLOC, 4096)],
            ),
            mk(
                EventKind::Instant,
                names::SERDE,
                Category::Serde,
                vec![(names::SECONDS_BITS, 0.125f64.to_bits())],
            ),
            mk(
                EventKind::Counter,
                names::SHUFFLE_WRITE,
                Category::Shuffle,
                vec![(names::BYTES, 10), (names::BYTES, 20)],
            ),
            mk(EventKind::Instant, "groupBy", Category::Shuffle, vec![]),
            mk(EventKind::Counter, names::SHUFFLE_READ, Category::Shuffle, vec![(names::BYTES, 30)]),
            mk(
                EventKind::End,
                "reduce",
                Category::Compute,
                vec![(names::PART, 0), (names::CPU_BITS, 0.25f64.to_bits())],
            ),
        ];
        let run = derive_job_run(&events);
        assert_eq!(run.num_stages(), 2);
        let s0 = &run.stages[0];
        assert_eq!(s0.label, "groupBy");
        assert_eq!(s0.kind, StageKind::Shuffle);
        assert_eq!(s0.task_cpu_s, vec![0.5]);
        assert_eq!(s0.records_out, 100);
        assert_eq!(s0.alloc_bytes, 4096);
        assert_eq!(s0.serde_s, 0.125);
        assert_eq!(s0.shuffle_write_bytes, vec![10, 20]);
        let s1 = &run.stages[1];
        assert_eq!(s1.shuffle_read_bytes, vec![30], "read bytes charge the next stage");
        assert_eq!(s1.kind, StageKind::Final);
        assert_eq!(s1.task_cpu_s, vec![0.25]);
    }

    #[test]
    fn job_aggregates() {
        let mut run = JobRun::default();
        let mut a = StageMetrics::new(0, "aligner".into());
        a.shuffle_write_bytes = vec![10, 20];
        let mut b = StageMetrics::new(1, "cleaner".into());
        b.shuffle_read_bytes = vec![30];
        b.shuffle_write_bytes = vec![5];
        run.stages.push(a);
        run.stages.push(b);
        assert_eq!(run.num_stages(), 2);
        assert_eq!(run.total_shuffle_bytes(), 35);
        assert_eq!(run.phases(), vec!["aligner".to_string(), "cleaner".to_string()]);
        assert_eq!(run.stages_in_phase("cleaner").count(), 1);
    }
}
