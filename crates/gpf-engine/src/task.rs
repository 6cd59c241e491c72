//! The task runner: the one way a task is measured, retried, speculated and
//! recorded.
//!
//! Every parallel stage in the engine — narrow operators, both shuffle
//! sides, the barrier read-back — goes through
//! [`run_stage`], and every task body through [`Task::run`], which is plain
//! [`timed`] when faults are off and the bounded retry loop when they are
//! on. Fault tolerance therefore costs a fault-free run three `Option`
//! branches per task (retry here; checksum and verify in
//! [`crate::shuffle`]) instead of a second copy of each operator.

use crate::budget::BudgetBreach;
use crate::context::{EngineContext, TaskSample};
use crate::fault::{AttemptRecord, EngineError, FaultConfig, FaultKind, FaultSurface};
use crate::timing::TaskTimer;
use gpf_support::par;
use gpf_trace::alloc::{self, AllocTag};
use gpf_trace::clock::now_ns;
use gpf_trace::current_tid;
use gpf_trace::names as tn;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `body` as one measured task: wall window, thread-CPU seconds and the
/// worker's heap window, with allocations attributed to `tag`. The only
/// place a [`TaskSample`] is built from a live measurement.
pub(crate) fn timed<R>(tag: AllocTag, body: impl FnOnce() -> R) -> (R, TaskSample) {
    let start_ns = now_ns();
    let t0 = TaskTimer::start();
    let scope = alloc::scope(tag);
    let ht = alloc::window_begin();
    let out = body();
    let w = alloc::window_end(ht);
    drop(scope);
    let cpu_s = t0.elapsed_s();
    let sample = TaskSample {
        cpu_s,
        start_ns,
        end_ns: now_ns(),
        tid: current_tid(),
        heap_peak_bytes: w.peak_bytes,
        heap_alloc_bytes: w.alloc_bytes,
    };
    (out, sample)
}

/// A completed task: its output plus what the runner observed.
pub(crate) struct TaskRun<R> {
    out: R,
    sample: TaskSample,
    /// Failed attempts, in order (empty when the first attempt succeeded).
    attempts: Vec<AttemptRecord>,
    /// Faults injected into this task (panics that were retried away plus
    /// straggler delays).
    injected: u32,
}

/// Why a stage stops early: the pipeline's two structured failures.
pub(crate) enum Abort {
    /// A tracked restore does not fit the memory budget.
    Breach { requested: u64, budget: u64 },
    /// A task exhausted its retry budget.
    Task(EngineError),
}

/// `Parts::get`'s `(requested, budget)` restore failure, so stage bodies
/// can `?` a restore.
impl From<(u64, u64)> for Abort {
    fn from((requested, budget): (u64, u64)) -> Self {
        Abort::Breach { requested, budget }
    }
}

/// How a stage schedules its tasks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// One parallel wave over [`gpf_support::par`].
    Parallel,
    /// One task at a time on the calling thread, stopping at the first
    /// failure: a stage that restores budget-tracked partitions keeps at
    /// most one task's restores admitted, so any budget that fits the
    /// largest single task stays feasible. Trades parallelism for a
    /// bounded footprint.
    Serial,
}

/// One task's coordinates, handed to the stage body by [`run_stage`].
pub(crate) struct Task<'a> {
    /// Fault plan and surface when this task runs under retry; `None` for
    /// fault-free runs, unfaulted stage kinds and speculative duplicates.
    retry: Option<(&'a FaultConfig, FaultSurface)>,
    label: &'a str,
    stage: u32,
    partition: u32,
}

impl Task<'_> {
    /// Run the task body, heap-attributed to `tag`. `body` runs exactly
    /// once unless this task is under retry.
    pub(crate) fn run<R>(&self, tag: AllocTag, body: impl Fn() -> R) -> Result<TaskRun<R>, Abort> {
        match self.retry {
            None => {
                let (out, sample) = timed(tag, body);
                Ok(TaskRun { out, sample, attempts: Vec::new(), injected: 0 })
            }
            Some((fc, surface)) => self.run_with_retry(fc, surface, tag, body).map_err(Abort::Task),
        }
    }

    /// Run under the fault plan: injected panics and real panics (captured
    /// via `catch_unwind`) consume attempts until the budget is exhausted;
    /// an injected straggler completes but with its measured window
    /// inflated by [`FaultConfig::straggler_extra_ns`] (accounting-only —
    /// no sleeping — which keeps chaos runs fast and deterministic).
    fn run_with_retry<R>(
        &self,
        fc: &FaultConfig,
        surface: FaultSurface,
        tag: AllocTag,
        body: impl Fn() -> R,
    ) -> Result<TaskRun<R>, EngineError> {
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut injected = 0u32;
        let mut attempt = 0u32;
        loop {
            let decision = fc.plan.decide(self.stage, self.partition, attempt, surface);
            let cause = if decision == Some(FaultKind::TaskPanic) {
                injected += 1;
                "injected: task panic".to_string()
            } else {
                // A panicked attempt's heap stats are meaningless and are
                // dropped with its sample; `timed` still closed the window,
                // so the thread-local peak state stays balanced.
                match timed(tag, || catch_unwind(AssertUnwindSafe(&body))) {
                    (Ok(out), mut sample) => {
                        if decision == Some(FaultKind::Straggler) {
                            injected += 1;
                            sample.end_ns = sample.end_ns.saturating_add(fc.straggler_extra_ns);
                            sample.cpu_s += fc.straggler_extra_ns as f64 * 1e-9;
                        }
                        return Ok(TaskRun { out, sample, attempts, injected });
                    }
                    (Err(payload), _) => panic_message(payload),
                }
            };
            attempts.push(AttemptRecord { attempt, cause, backoff_ns: fc.backoff_ns(attempt) });
            if attempt >= fc.max_task_retries {
                return Err(EngineError {
                    label: self.label.to_string(),
                    stage: self.stage,
                    partition: self.partition,
                    attempts,
                });
            }
            attempt += 1;
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Run one stage of `n` tasks and record it into the open engine stage.
///
/// `body(i, task)` prepares task `i`'s input (a budget-tracked restore may
/// [`Abort::Breach`]) and runs its work through [`Task::run`]; `account`
/// maps the task outputs to the `(records_out, alloc_bytes)` the op
/// instant carries. `surface` puts the stage's tasks under the fault plan
/// (retry, then speculative duplicates for stragglers) when faults are
/// configured.
///
/// Returns `None` when the pipeline has failed — before this stage (nothing
/// runs) or in it (the failure is recorded on `ctx`) — and the caller
/// propagates the empty placeholder dataset.
pub(crate) fn run_stage<R: Send>(
    ctx: &EngineContext,
    label: &str,
    surface: Option<FaultSurface>,
    n: usize,
    mode: Mode,
    body: impl Fn(usize, &Task<'_>) -> Result<TaskRun<R>, Abort> + Sync,
    account: impl FnOnce(&[R]) -> (u64, u64),
) -> Option<Vec<R>> {
    if ctx.has_failed() {
        return None;
    }
    let stage = ctx.current_stage();
    let retry = ctx.faults().zip(surface);
    let task_at = |i: usize, retry| Task { retry, label, stage, partition: i as u32 };
    let run_one = |i: usize| body(i, &task_at(i, retry));
    let runs: Result<Vec<TaskRun<R>>, Abort> = match mode {
        Mode::Parallel => par::map_range(n, run_one).into_iter().collect(),
        Mode::Serial => (0..n).map(run_one).collect(),
    };
    let mut runs = match runs {
        Ok(runs) => runs,
        Err(Abort::Breach { requested, budget }) => {
            let operator = label.to_string();
            ctx.fail_budget(BudgetBreach { stage, operator, requested, budget });
            return None;
        }
        Err(Abort::Task(err)) => {
            let retries = err.attempts.len() as u64;
            ctx.record_fault_event(tn::TASK_RETRIES, stage, err.partition, retries);
            ctx.fail(err);
            return None;
        }
    };
    if let Some((fc, _)) = retry {
        // No speculation on a serial stage: there is no parallel wave for
        // a straggler to lag behind.
        if mode == Mode::Parallel {
            speculate(ctx, fc, stage, &mut runs, |i| body(i, &task_at(i, None)));
        }
        // Recovery events are emitted driver-side so the session trace
        // stays in deterministic order.
        for (i, r) in runs.iter().enumerate() {
            if r.injected > 0 {
                ctx.record_fault_event(tn::FAULT_INJECTED, stage, i as u32, r.injected as u64);
            }
            if !r.attempts.is_empty() {
                let retries = r.attempts.len() as u64;
                ctx.record_fault_event(tn::TASK_RETRIES, stage, i as u32, retries);
            }
        }
    }
    let (outs, samples): (Vec<R>, Vec<TaskSample>) =
        runs.into_iter().map(|r| (r.out, r.sample)).unzip();
    let (records, alloc_bytes) = account(&outs);
    ctx.record_tasks(label, &samples, records, alloc_bytes);
    Some(outs)
}

/// Speculative execution over a completed stage's tasks: any task whose
/// measured window exceeds `speculation_multiplier ×` the stage median gets
/// one clean (injection-free) duplicate through the same stage body — same
/// input preparation, same heap tag — and the strictly faster finisher
/// wins. Runs driver-side after the stage completes, which makes the winner
/// deterministic — under MockClock and, for the injected-straggler case,
/// under the real clock too (the injected delay dwarfs task jitter).
fn speculate<R>(
    ctx: &EngineContext,
    fc: &FaultConfig,
    stage: u32,
    runs: &mut [TaskRun<R>],
    rerun: impl Fn(usize) -> Result<TaskRun<R>, Abort>,
) {
    if !fc.speculation || runs.len() < 2 {
        return;
    }
    let window = |r: &TaskRun<R>| r.sample.end_ns.saturating_sub(r.sample.start_ns);
    let mut durs: Vec<u64> = runs.iter().map(window).collect();
    durs.sort_unstable();
    let median = durs[durs.len() / 2];
    if median == 0 {
        return;
    }
    let threshold = (median as f64 * fc.speculation_multiplier) as u64;
    for (i, run) in runs.iter_mut().enumerate() {
        if window(run) <= threshold {
            continue;
        }
        ctx.record_fault_event(tn::SPEC_LAUNCHED, stage, i as u32, 1);
        // A duplicate that cannot get its input (a restore that no longer
        // fits) simply loses to the original.
        if let Ok(dup) = rerun(i) {
            if window(&dup) < window(run) {
                run.out = dup.out;
                run.sample = dup.sample;
                ctx.record_fault_event(tn::SPEC_WON, stage, i as u32, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::fault::{FaultPlan, FaultSite};

    fn counter(name: &str) -> u64 {
        gpf_trace::counters_snapshot().iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    /// A speculative duplicate must be heap-attributed like the attempt it
    /// duplicates. Bodies charge a synthetic 1 GiB through the allocator's
    /// accounting entry points (independent of the global tracking gate, and
    /// far above anything a concurrently running test could add).
    #[test]
    fn speculative_duplicate_keeps_the_stage_heap_tag() {
        const FAKE: usize = 1 << 30;
        let site = FaultSite { stage: 0, partition: 1, attempt: 0, kind: FaultKind::Straggler };
        let mut fc = FaultConfig::new(FaultPlan::explicit(vec![site]));
        fc.straggler_extra_ns = 500_000_000;
        let ctx = EngineContext::new(EngineConfig::default().with_faults(fc));
        let (shuffle0, task0) = (counter(tn::HEAP_TAG_SHUFFLE), counter(tn::HEAP_TAG_TASK));
        let (launched0, won0) = (counter(tn::SPEC_LAUNCHED), counter(tn::SPEC_WON));
        let body = |i: usize, task: &Task<'_>| {
            task.run(AllocTag::Shuffle, || {
                alloc::note_alloc(FAKE);
                alloc::note_dealloc(FAKE);
                (0..20_000u64).map(|x| x ^ i as u64).sum::<u64>()
            })
        };
        let surface = Some(FaultSurface::ShuffleMap);
        let outs =
            run_stage(&ctx, "map", surface, 4, Mode::Parallel, body, |o| (o.len() as u64, 0));
        assert_eq!(outs.map(|o| o.len()), Some(4));
        assert!(counter(tn::SPEC_LAUNCHED) > launched0, "the straggler must be speculated");
        assert!(counter(tn::SPEC_WON) > won0, "the clean duplicate beats a 500 ms straggler");
        // Four first attempts plus the duplicate, all charged to `shuffle`.
        let shuffle = counter(tn::HEAP_TAG_SHUFFLE) - shuffle0;
        let task = counter(tn::HEAP_TAG_TASK) - task0;
        assert!(shuffle >= 5 * FAKE as u64, "duplicate not charged to shuffle: {shuffle}");
        assert!(task < FAKE as u64, "duplicate leaked into the task tag: {task}");
    }
}
