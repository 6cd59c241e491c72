//! The engine context — GPF's `SparkContext` analogue.
//!
//! Since the tracing refactor the context no longer maintains stage metrics
//! directly. Every accounting call (`record_tasks`, `record_serde`, stage
//! closes, broadcasts) emits [`gpf_trace`] events into a per-context
//! session [`TraceLog`]; [`EngineContext::take_run`] replays that stream
//! through [`crate::metrics::derive_job_run`]. One event stream therefore
//! feeds both the Chrome-trace timeline and the stage metrics the cluster
//! simulator consumes — they cannot disagree.

use crate::broadcast::Broadcast;
use crate::budget::{BudgetAccountant, BudgetBreach};
use crate::config::EngineConfig;
use crate::fault::{EngineError, FaultPlan};
use crate::metrics::{derive_job_run, names, JobRun};
use gpf_compress::{serializer::serialize_batch, GpfSerialize, SerializerKind};
use gpf_support::chk::atomic::{AtomicBool, AtomicU32, Ordering};
use gpf_support::sync::Mutex;
use gpf_trace::clock::now_ns;
use gpf_trace::event::Trace;
use gpf_trace::{current_tid, Category, Event, EventKind, TraceLog};
use std::sync::Arc;

/// Ring capacity of the per-context session log.
///
/// Session events *are* the job metrics, so this is set far above what any
/// in-repo workload emits (the full WGS pipeline records on the order of
/// 10^5 events): overflow here would silently corrupt derived metrics, not
/// just truncate a timeline. The `trace.dropped` counter still reports it
/// if a future workload ever gets there.
const SESSION_LOG_CAPACITY: usize = 1 << 22;

/// Shared execution context: configuration, session trace log, phase tag.
///
/// Create once per job with [`EngineContext::new`], hand the `Arc` to every
/// dataset, and call [`EngineContext::take_run`] (or
/// [`EngineContext::take_run_traced`] to also keep the raw event stream) at
/// the end to obtain the recorded [`JobRun`] for simulation and reporting.
pub struct EngineContext {
    config: EngineConfig,
    trace: Arc<TraceLog>,
    phase: Mutex<Arc<str>>,
    /// Stage index used to address fault sites: incremented at every stage
    /// close so `(stage, partition, attempt)` coordinates are stable and
    /// cheap to read (no replay of the trace).
    stage_counter: AtomicU32,
    /// Set once a task exhausts its retry budget; datasets short-circuit to
    /// empty results after this so the failure propagates without panics.
    failed_flag: AtomicBool,
    /// The first terminal failure (first-failure-wins).
    failure: Mutex<Option<EngineError>>,
    /// The memory-budget accountant, installed when
    /// [`EngineConfig::memory_budget`] is set.
    accountant: Option<Arc<BudgetAccountant>>,
    /// The first terminal budget breach (first-failure-wins), kept separate
    /// from `failure` so `take_failure`'s contract is untouched.
    budget_breach: Mutex<Option<BudgetBreach>>,
}

/// One task's measurements, captured on the worker and recorded
/// driver-side by [`EngineContext::record_tasks`] (driver-side batching
/// keeps the session ring in deterministic emission order even when tasks
/// ran on many threads).
#[derive(Clone, Copy)]
pub(crate) struct TaskSample {
    /// Thread-CPU seconds the task consumed.
    pub cpu_s: f64,
    /// Wall-clock start ([`now_ns`]).
    pub start_ns: u64,
    /// Wall-clock end ([`now_ns`]).
    pub end_ns: u64,
    /// Worker thread id ([`current_tid`]).
    pub tid: u32,
    /// Peak net heap growth on the worker during the task, measured by the
    /// tracking allocator's per-thread window (0 while untracked).
    pub heap_peak_bytes: u64,
    /// Bytes allocated on the worker during the task (0 while untracked).
    pub heap_alloc_bytes: u64,
}

impl EngineContext {
    /// Create a context with the given configuration.
    pub fn new(config: EngineConfig) -> Arc<Self> {
        let accountant = config.memory_budget.map(|b| Arc::new(BudgetAccountant::new(b)));
        Arc::new(Self {
            config,
            trace: Arc::new(TraceLog::with_capacity(SESSION_LOG_CAPACITY)),
            phase: Mutex::new(Arc::from("")),
            stage_counter: AtomicU32::new(0),
            failed_flag: AtomicBool::new(false),
            failure: Mutex::new(None),
            accountant,
            budget_breach: Mutex::new(None),
        })
    }

    /// The configuration.
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The active shuffle serializer.
    pub fn serializer(&self) -> SerializerKind {
        self.config.serializer
    }

    /// The session trace log (scheduler spans from `gpf-core` and sinks
    /// read it through this handle).
    pub fn trace_log(&self) -> &Arc<TraceLog> {
        &self.trace
    }

    fn phase_tag(&self) -> Arc<str> {
        Arc::clone(&self.phase.lock())
    }

    /// Build an event stamped with the current phase, time and thread.
    fn ev(
        &self,
        kind: EventKind,
        name: Arc<str>,
        cat: Category,
        counters: Vec<(Arc<str>, u64)>,
    ) -> Event {
        Event {
            kind,
            name,
            cat,
            phase: self.phase_tag(),
            ts_ns: now_ns(),
            tid: current_tid(),
            id: 0,
            parent: 0,
            counters,
        }
    }

    /// Tag subsequent stages with a pipeline phase name (e.g. `"aligner"`),
    /// used by the Figure 12/13 per-phase reports.
    pub fn set_phase(self: &Arc<Self>, phase: &str) {
        *self.phase.lock() = Arc::from(phase);
        let ev = self.ev(
            EventKind::Instant,
            Arc::from(format!("phase:{phase}")),
            Category::Scheduler,
            Vec::new(),
        );
        self.trace.push(ev);
    }

    /// Broadcast a value to every simulated node.
    ///
    /// The serialized size is charged to the current stage as broadcast
    /// traffic — this is what makes BQSR's "multiple-gigabyte mask table
    /// broadcast to all of the nodes" (§5.2.2) visible to the simulator.
    pub fn broadcast<T: GpfSerialize + Send + Sync>(self: &Arc<Self>, value: T) -> Broadcast<T> {
        let bytes = serialize_batch(self.serializer(), std::slice::from_ref(&value)).len() as u64;
        let ev = self.ev(
            EventKind::Counter,
            Arc::from(names::BROADCAST),
            Category::Io,
            vec![(Arc::from(names::BYTES), bytes)],
        );
        self.trace.push(ev);
        Broadcast::new(value)
    }

    /// Record one narrow operation's per-task measurements into the open
    /// stage: a `Begin`/`End` pair per task (`Begin` only while
    /// tracing is enabled — `End` events carry the metrics and are always
    /// recorded) plus one op-metadata instant.
    pub(crate) fn record_tasks(
        &self,
        label: &str,
        samples: &[TaskSample],
        records_out: u64,
        alloc_bytes: u64,
    ) {
        let phase = self.phase_tag();
        let name: Arc<str> = Arc::from(label);
        let spans_on = gpf_trace::enabled();
        // Counter names are shared by every task's event, not rebuilt per
        // task: this loop is serial driver time, once per task.
        let part_key: Arc<str> = Arc::from(names::PART);
        let cpu_ns_key: Arc<str> = Arc::from(names::CPU_NS);
        let cpu_bits_key: Arc<str> = Arc::from(names::CPU_BITS);
        let mut batch = Vec::with_capacity(samples.len() * 2 + 1);
        for (part, s) in samples.iter().enumerate() {
            if spans_on {
                batch.push(Event {
                    kind: EventKind::Begin,
                    name: Arc::clone(&name),
                    cat: Category::Compute,
                    phase: Arc::clone(&phase),
                    ts_ns: s.start_ns,
                    tid: s.tid,
                    id: 0,
                    parent: 0,
                    counters: Vec::new(),
                });
            }
            let mut counters = vec![
                (Arc::clone(&part_key), part as u64),
                (Arc::clone(&cpu_ns_key), (s.cpu_s * 1e9) as u64),
                (Arc::clone(&cpu_bits_key), s.cpu_s.to_bits()),
            ];
            // Per-task heap attribution, only when the tracking allocator
            // measured something (keeps untracked traces byte-identical).
            if s.heap_peak_bytes > 0 || s.heap_alloc_bytes > 0 {
                counters.push((Arc::from(names::HEAP_TASK_PEAK), s.heap_peak_bytes));
                counters.push((Arc::from(names::HEAP_TASK_ALLOC), s.heap_alloc_bytes));
            }
            batch.push(Event {
                kind: EventKind::End,
                name: Arc::clone(&name),
                cat: Category::Compute,
                phase: Arc::clone(&phase),
                ts_ns: s.end_ns,
                tid: s.tid,
                id: 0,
                parent: 0,
                counters,
            });
        }
        batch.push(self.ev(
            EventKind::Instant,
            name,
            Category::Compute,
            vec![
                (Arc::from(names::RECORDS), records_out),
                (Arc::from(names::ALLOC), alloc_bytes),
            ],
        ));
        self.trace.push_batch(batch);
        // Sample the heap gauges at the op (span-batch) boundary so the
        // Perfetto counter track follows the schedule.
        self.heap_sample();
    }

    /// Record one narrow operation from per-partition CPU seconds alone
    /// (no measured wall windows): task spans are synthesized back-to-back
    /// from the current clock.
    #[cfg(test)]
    pub(crate) fn record_narrow(
        &self,
        label: &str,
        per_partition_cpu_s: &[f64],
        records_out: u64,
        alloc_bytes: u64,
    ) {
        let samples: Vec<TaskSample> = per_partition_cpu_s
            .iter()
            .map(|&cpu_s| {
                let start_ns = now_ns();
                let end_ns = start_ns.saturating_add((cpu_s * 1e9) as u64);
                TaskSample {
                    cpu_s,
                    start_ns,
                    end_ns,
                    tid: current_tid(),
                    heap_peak_bytes: 0,
                    heap_alloc_bytes: 0,
                }
            })
            .collect();
        self.record_tasks(label, &samples, records_out, alloc_bytes);
    }

    /// Record extra serde CPU seconds (already included in task CPU).
    pub(crate) fn record_serde(&self, seconds: f64) {
        let ev = self.ev(
            EventKind::Instant,
            Arc::from(names::SERDE),
            Category::Serde,
            vec![
                (Arc::from(names::NS), (seconds * 1e9) as u64),
                (Arc::from(names::SECONDS_BITS), seconds.to_bits()),
            ],
        );
        self.trace.push(ev);
    }

    /// Close the open stage at a shuffle boundary.
    ///
    /// `write_bytes` are the per-map-partition serialized bucket sizes;
    /// `read_bytes` the per-reduce-partition sizes charged to the next stage.
    pub(crate) fn close_stage_shuffle(
        &self,
        label: &str,
        write_bytes: Vec<u64>,
        read_bytes: Vec<u64>,
    ) {
        // Charge the closing stage's heap profile before the close events.
        self.heap_sample();
        let bytes_key: Arc<str> = Arc::from(names::BYTES);
        let batch = vec![
            self.ev(
                EventKind::Counter,
                Arc::from(names::SHUFFLE_WRITE),
                Category::Shuffle,
                write_bytes.iter().map(|&v| (Arc::clone(&bytes_key), v)).collect(),
            ),
            self.ev(EventKind::Instant, Arc::from(label), Category::Shuffle, Vec::new()),
            self.ev(
                EventKind::Counter,
                Arc::from(names::SHUFFLE_READ),
                Category::Shuffle,
                read_bytes.iter().map(|&v| (Arc::clone(&bytes_key), v)).collect(),
            ),
        ];
        self.trace.push_batch(batch);
        self.advance_stage();
    }

    /// Close the open stage as a collect-to-driver (serial) step.
    ///
    /// `per_partition_bytes` are each task's serialized result size: tasks
    /// send their results over the network, and the driver drains the total
    /// serially (the simulator charges both).
    pub(crate) fn close_stage_collect(&self, label: &str, per_partition_bytes: Vec<u64>) {
        // Charge the closing stage's heap profile before the close events.
        self.heap_sample();
        let bytes_key: Arc<str> = Arc::from(names::BYTES);
        let batch = vec![
            self.ev(
                EventKind::Counter,
                Arc::from(names::SHUFFLE_WRITE),
                Category::Shuffle,
                per_partition_bytes.iter().map(|&v| (Arc::clone(&bytes_key), v)).collect(),
            ),
            self.ev(EventKind::Instant, Arc::from(label), Category::Io, Vec::new()),
        ];
        self.trace.push_batch(batch);
        self.advance_stage();
    }

    /// Sample the tracking allocator's global gauges into the session
    /// trace as one `heap.live_bytes` [`EventKind::Counter`] event — the
    /// Perfetto counter track. No-op while allocation tracking is
    /// inactive, so untracked traces stay byte-identical.
    fn heap_sample(&self) {
        if !gpf_trace::alloc::tracking_active() {
            return;
        }
        // Publish the driver thread's own pending delta first; workers
        // flushed theirs when their task scopes closed.
        gpf_trace::alloc::flush_thread_stats();
        let live = gpf_trace::alloc::live_bytes();
        let peak = gpf_trace::alloc::take_peak().max(live);
        let mut counters = vec![
            (Arc::from(gpf_trace::names::HEAP_LIVE_KEY), live),
            (Arc::from(gpf_trace::names::HEAP_PEAK_KEY), peak),
        ];
        // With a budget installed, annotate each sample with the exact
        // ledger value so the allocator gauge and the accountant can be
        // cross-checked sample-by-sample. Unknown keys are ignored by the
        // metrics fold, so unbudgeted traces stay byte-identical.
        if let Some(acct) = &self.accountant {
            counters.push((Arc::from(gpf_trace::names::BUDGET_LEDGER_KEY), acct.used()));
        }
        let ev = self.ev(
            EventKind::Counter,
            Arc::from(gpf_trace::names::HEAP_LIVE_TRACK),
            Category::Scheduler,
            counters,
        );
        self.trace.push(ev);
    }

    /// Stage index for fault-site addressing (0 until the first stage
    /// closes).
    pub(crate) fn current_stage(&self) -> u32 {
        self.stage_counter.load(Ordering::SeqCst)
    }

    pub(crate) fn advance_stage(&self) {
        self.stage_counter.fetch_add(1, Ordering::SeqCst);
    }

    /// The fault plan, if fault tolerance is enabled.
    pub(crate) fn faults(&self) -> Option<&FaultPlan> {
        self.config.faults.as_ref()
    }

    /// Record a terminal task failure. First failure wins; later ones are
    /// dropped (they are usually short-circuit echoes of the first).
    pub(crate) fn fail(&self, err: EngineError) {
        let mut slot = self.failure.lock();
        if slot.is_none() {
            self.failed_flag.store(true, Ordering::SeqCst);
            let ev = self.ev(
                EventKind::Instant,
                Arc::from("task.failed"),
                Category::Scheduler,
                vec![
                    (Arc::from("stage"), err.stage as u64),
                    (Arc::from("part"), err.partition as u64),
                    (Arc::from("attempts"), err.attempts.len() as u64),
                ],
            );
            self.trace.push(ev);
            *slot = Some(err);
        }
    }

    /// Whether a terminal failure has been recorded (datasets short-circuit
    /// on this to let the error surface without running further work).
    pub(crate) fn has_failed(&self) -> bool {
        self.failed_flag.load(Ordering::SeqCst)
    }

    /// Take the recorded failure, if any, clearing it so the context can be
    /// reused for another run.
    pub fn take_failure(&self) -> Option<EngineError> {
        let taken = self.failure.lock().take();
        if taken.is_some() {
            self.failed_flag.store(false, Ordering::SeqCst);
        }
        taken
    }

    /// The memory-budget accountant, when a budget is installed.
    pub fn accountant(&self) -> Option<&Arc<BudgetAccountant>> {
        self.accountant.as_ref()
    }

    /// Record a terminal memory-budget breach. First breach wins; later
    /// ones are short-circuit echoes. Sets the same failed flag as
    /// [`EngineContext::fail`] so datasets stop scheduling work.
    pub(crate) fn fail_budget(&self, breach: BudgetBreach) {
        let mut slot = self.budget_breach.lock();
        if slot.is_none() {
            self.failed_flag.store(true, Ordering::SeqCst);
            let ev = self.ev(
                EventKind::Instant,
                Arc::from("budget.breach"),
                Category::Scheduler,
                vec![
                    (Arc::from("stage"), breach.stage as u64),
                    (Arc::from("requested"), breach.requested),
                    (Arc::from("budget"), breach.budget),
                ],
            );
            self.trace.push(ev);
            *slot = Some(breach);
        }
    }

    /// Take the recorded budget breach, if any, clearing it so the context
    /// can be reused. Checked by `Pipeline::run` *before* `take_failure`,
    /// because a breach's short-circuiting can echo as task failures.
    pub fn take_budget_breach(&self) -> Option<BudgetBreach> {
        let taken = self.budget_breach.lock().take();
        if taken.is_some() {
            self.failed_flag.store(false, Ordering::SeqCst);
        }
        taken
    }

    /// Record one recovery event: a scheduler instant in the session trace
    /// plus a global counter bump. The global counters are unconditional
    /// (not gated on `set_enabled`) — this path only executes when faults
    /// are configured, so the disabled-cost is zero and chaos tests can
    /// read the counters without toggling `set_enabled`.
    pub(crate) fn record_fault_event(&self, name: &'static str, stage: u32, part: u32, n: u64) {
        gpf_trace::counter(name).add(n);
        let ev = self.ev(
            EventKind::Instant,
            Arc::from(name),
            Category::Scheduler,
            vec![
                (Arc::from("stage"), stage as u64),
                (Arc::from("part"), part as u64),
                (Arc::from("n"), n),
            ],
        );
        self.trace.push(ev);
    }

    /// Record one repartition decision (the paper's §4.4 dynamic split),
    /// made by whoever built the split table — in a pipeline, the
    /// `ReadRepartitioner` Process, once per run. Bumps the global
    /// `repartition.splits` / `repartition.moved_records` counters (and
    /// `repartition.cap_hit` when the 64-piece cap actually bound,
    /// `repartition.merged` when the table merges underfull partitions),
    /// and drops one scheduler instant into the session trace so the
    /// timeline shows *when* the driver rebalanced. Counters are
    /// unconditional, like `EngineContext::record_fault_event`'s: one
    /// call per decision costs nothing, and tests read them without
    /// toggling `set_enabled`.
    pub fn record_repartition(&self, splits: u64, moved_records: u64, cap_hits: u64, merged: u64) {
        gpf_trace::counter(gpf_trace::names::REPARTITION_SPLITS).add(splits);
        gpf_trace::counter(gpf_trace::names::REPARTITION_MOVED).add(moved_records);
        if cap_hits > 0 {
            gpf_trace::counter(gpf_trace::names::REPARTITION_CAP_HIT).add(cap_hits);
        }
        if merged > 0 {
            gpf_trace::counter(gpf_trace::names::REPARTITION_MERGED).add(merged);
        }
        let ev = self.ev(
            EventKind::Instant,
            Arc::from("repartition.split"),
            Category::Scheduler,
            vec![
                (Arc::from("splits"), splits),
                (Arc::from("moved"), moved_records),
                (Arc::from("cap_hits"), cap_hits),
                (Arc::from("merged"), merged),
            ],
        );
        self.trace.push(ev);
    }

    /// Finish recording: derives the job from the session trace and resets
    /// the log for the next job.
    pub fn take_run(&self) -> JobRun {
        self.take_run_traced().0
    }

    /// Finish recording, returning both the derived [`JobRun`] and the raw
    /// [`Trace`] it was derived from (for the Chrome/text sinks).
    pub fn take_run_traced(&self) -> (JobRun, Trace) {
        let trace = self.trace.drain();
        let run = derive_job_run(&trace.events);
        // Reset fault-site addressing so a reused context replays the same
        // (stage, partition) coordinates on its next job.
        self.stage_counter.store(0, Ordering::SeqCst);
        (run, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StageKind;

    fn default_ctx() -> Arc<EngineContext> {
        EngineContext::new(EngineConfig::default())
    }

    #[test]
    fn stages_accumulate_and_close() {
        let ctx = default_ctx();
        ctx.set_phase("aligner");
        ctx.record_narrow("map", &[0.1, 0.2], 100, 1000);
        ctx.record_narrow("filter", &[0.1, 0.1], 80, 500);
        ctx.close_stage_shuffle("groupBy", vec![10, 10], vec![20]);
        ctx.record_narrow("map2", &[0.3], 40, 100);
        let run = ctx.take_run();
        assert_eq!(run.num_stages(), 2);
        let s0 = &run.stages[0];
        assert_eq!(s0.phase, "aligner");
        assert_eq!(s0.task_cpu_s.len(), 2);
        assert!((s0.task_cpu_s[0] - 0.2).abs() < 1e-12);
        assert!((s0.task_cpu_s[1] - 0.3).abs() < 1e-12);
        assert_eq!(s0.kind, StageKind::Shuffle);
        assert_eq!(s0.total_shuffle_write(), 20);
        let s1 = &run.stages[1];
        assert_eq!(s1.shuffle_read_bytes, vec![20]);
        assert_eq!(s1.kind, StageKind::Final);
    }

    #[test]
    fn take_run_resets() {
        let ctx = default_ctx();
        ctx.record_narrow("op", &[0.1], 1, 1);
        let run1 = ctx.take_run();
        assert_eq!(run1.num_stages(), 1);
        let run2 = ctx.take_run();
        assert_eq!(run2.num_stages(), 0);
    }

    #[test]
    fn broadcast_charges_current_stage() {
        let ctx = default_ctx();
        let value = vec![1u64; 100];
        let bytes = serialize_batch(ctx.serializer(), std::slice::from_ref(&value)).len() as u64;
        let _b = ctx.broadcast(value);
        let run = ctx.take_run();
        assert_eq!(run.stages.len(), 1);
        assert!(bytes > 0);
        assert_eq!(run.stages[0].broadcast_bytes, bytes);
    }

    #[test]
    fn collect_close_is_serial_kind() {
        let ctx = default_ctx();
        ctx.record_narrow("op", &[0.1], 1, 1);
        ctx.close_stage_collect("collect", vec![4096]);
        let run = ctx.take_run();
        assert_eq!(run.stages[0].kind, StageKind::Collect);
        assert_eq!(run.stages[0].total_shuffle_write(), 4096);
    }

    #[test]
    fn take_run_traced_exposes_the_event_stream() {
        let ctx = default_ctx();
        ctx.set_phase("cleaner");
        ctx.record_narrow("dedup", &[0.25, 0.5], 10, 64);
        ctx.record_serde(0.125);
        ctx.close_stage_shuffle("sortByKey", vec![100], vec![100]);
        let (run, trace) = ctx.take_run_traced();
        assert_eq!(run.num_stages(), 1, "open trailing stage would need events after the close");
        assert!((run.stages[0].serde_s - 0.125).abs() < 1e-15);
        // End events carry lossless CPU bits.
        let ends: Vec<&Event> =
            trace.events.iter().filter(|e| e.kind == EventKind::End).collect();
        assert_eq!(ends.len(), 2);
        assert_eq!(ends[0].counter(names::PART), Some(0));
        assert_eq!(ends[0].counter(names::CPU_BITS).map(f64::from_bits), Some(0.25));
        assert!(ends.iter().all(|e| &*e.phase == "cleaner"));
        // Re-deriving from the returned trace reproduces the same run.
        let again = derive_job_run(&trace.events);
        assert_eq!(again.num_stages(), run.num_stages());
        assert_eq!(again.stages[0].task_cpu_s, run.stages[0].task_cpu_s);
        assert_eq!(again.stages[0].shuffle_write_bytes, run.stages[0].shuffle_write_bytes);
        // The log itself was drained.
        assert!(ctx.trace_log().is_empty());
    }

    #[test]
    fn record_repartition_emits_counters_and_instant() {
        let before_splits = gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == "repartition.splits")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let before_cap = gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == "repartition.cap_hit")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let before_merged = gpf_trace::counters_snapshot()
            .iter()
            .find(|(n, _)| *n == "repartition.merged")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let ctx = default_ctx();
        ctx.record_repartition(3, 12_000, 0, 0);
        ctx.record_repartition(1, 500, 2, 5);
        let (_, trace) = ctx.take_run_traced();
        let instants: Vec<&Event> = trace
            .events
            .iter()
            .filter(|e| &*e.name == "repartition.split")
            .collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(instants[0].counter("splits"), Some(3));
        assert_eq!(instants[0].counter("moved"), Some(12_000));
        assert_eq!(instants[1].counter("cap_hits"), Some(2));
        assert_eq!(instants[0].counter("merged"), Some(0));
        assert_eq!(instants[1].counter("merged"), Some(5));
        let snap = gpf_trace::counters_snapshot();
        let splits_now =
            snap.iter().find(|(n, _)| *n == "repartition.splits").map(|(_, v)| *v).unwrap_or(0);
        let cap_now =
            snap.iter().find(|(n, _)| *n == "repartition.cap_hit").map(|(_, v)| *v).unwrap_or(0);
        let merged_now =
            snap.iter().find(|(n, _)| *n == "repartition.merged").map(|(_, v)| *v).unwrap_or(0);
        assert_eq!(splits_now - before_splits, 4);
        assert_eq!(cap_now - before_cap, 2);
        assert_eq!(merged_now - before_merged, 5);
    }

    #[test]
    fn budget_breach_slot_is_separate_from_failure() {
        let ctx = EngineContext::new(EngineConfig::gpf().with_memory_budget(1 << 16));
        assert!(ctx.accountant().is_some());
        assert!(ctx.take_budget_breach().is_none());
        ctx.fail_budget(crate::budget::BudgetBreach {
            stage: 2,
            operator: "map".into(),
            requested: 100,
            budget: 50,
        });
        // Echoes after the first breach are dropped.
        ctx.fail_budget(crate::budget::BudgetBreach {
            stage: 3,
            operator: "later".into(),
            requested: 1,
            budget: 1,
        });
        assert!(ctx.has_failed());
        assert!(ctx.take_failure().is_none(), "a breach must not masquerade as a task failure");
        let breach = ctx.take_budget_breach().expect("breach recorded");
        assert_eq!(breach.stage, 2);
        assert_eq!(breach.operator, "map");
        assert_eq!((breach.requested, breach.budget), (100, 50));
        assert!(!ctx.has_failed(), "taking the breach clears the short-circuit flag");
    }

    #[test]
    fn phase_changes_stamp_events() {
        let ctx = default_ctx();
        ctx.set_phase("aligner");
        ctx.record_narrow("a", &[0.1], 1, 0);
        ctx.set_phase("caller");
        ctx.record_narrow("b", &[0.2], 1, 0);
        let (_, trace) = ctx.take_run_traced();
        let phases: Vec<&str> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .map(|e| &*e.phase)
            .collect();
        assert_eq!(phases, vec!["aligner", "caller"]);
        // Phase flips also land as scheduler instants for the timeline.
        let marks = trace
            .events
            .iter()
            .filter(|e| e.cat == Category::Scheduler && e.kind == EventKind::Instant)
            .count();
        assert_eq!(marks, 2);
    }
}
