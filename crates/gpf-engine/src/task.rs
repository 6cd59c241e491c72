//! The task runner: the one way a task is measured, retried and recorded.
//!
//! Every parallel stage in the engine — narrow operators and both shuffle
//! sides, the disk barrier's included — goes through
//! [`run_stage`], and every task body through [`Task::run`], which is plain
//! [`timed`] when faults are off and the bounded retry loop when they are
//! on. Fault tolerance therefore costs a fault-free run three `Option`
//! branches per task (retry here; checksum in [`crate::shuffle`], verify in
//! [`crate::frame`]) instead of a second copy of each operator.

use crate::budget::BudgetBreach;
use crate::context::{EngineContext, Failure, TaskSample};
use crate::fault::{
    AttemptRecord, EngineError, FaultKind, FaultPlan, FaultSurface, MAX_TASK_RETRIES,
};
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
    /// Panics injected into this task (and retried away).
    injected: u32,
}

impl<R> TaskRun<R> {
    /// Finish a completed task's output on the worker that ran it: `g` runs
    /// once however many attempts the body took, outside the measured
    /// window — where a side effect on shared state (a fold into an
    /// accumulator) belongs, since a retried body must not repeat it.
    pub(crate) fn map<S>(self, g: impl FnOnce(R) -> S) -> TaskRun<S> {
        TaskRun { out: g(self.out), sample: self.sample, attempts: self.attempts, injected: self.injected }
    }
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

/// One task's coordinates, handed to the stage body by [`run_stage`].
pub(crate) struct Task<'a> {
    /// Fault plan and surface when this task runs under retry; `None` for
    /// fault-free runs and unfaulted stage kinds.
    retry: Option<(&'a FaultPlan, FaultSurface)>,
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
            Some((plan, surface)) => {
                self.run_with_retry(plan, surface, tag, body).map_err(Abort::Task)
            }
        }
    }

    /// Run under the fault plan: injected panics and real panics (captured
    /// via `catch_unwind`) consume attempts until [`MAX_TASK_RETRIES`] is
    /// exhausted.
    fn run_with_retry<R>(
        &self,
        plan: &FaultPlan,
        surface: FaultSurface,
        tag: AllocTag,
        body: impl Fn() -> R,
    ) -> Result<TaskRun<R>, EngineError> {
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut injected = 0u32;
        let mut attempt = 0u32;
        loop {
            let decision = plan.decide(self.stage, self.partition, attempt, surface);
            let cause = if decision == Some(FaultKind::TaskPanic) {
                injected += 1;
                "injected: task panic".to_string()
            } else {
                // A panicked attempt's heap stats are meaningless and are
                // dropped with its sample; `timed` still closed the window,
                // so the thread-local peak state stays balanced.
                match timed(tag, || catch_unwind(AssertUnwindSafe(&body))) {
                    (Ok(out), sample) => return Ok(TaskRun { out, sample, attempts, injected }),
                    (Err(payload), _) => panic_message(payload),
                }
            };
            attempts.push(AttemptRecord { attempt, cause });
            if attempt >= MAX_TASK_RETRIES {
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
/// (bounded retry) when faults are configured.
///
/// Every stage is one parallel wave over [`gpf_support::par`]. A restore
/// that breaches in the wave may only have met other tasks' pins, so its
/// task is run again once the wave is over, alone and in index order, when
/// no other task holds a pin: a budget that fits the largest single task
/// stays feasible, and only a breach on that serial re-run fails the stage.
///
/// Returns `None` when the pipeline has failed — before this stage (nothing
/// runs) or in it (the failure is recorded on `ctx`) — and the caller
/// propagates the empty placeholder dataset.
pub(crate) fn run_stage<R: Send>(
    ctx: &EngineContext,
    label: &str,
    surface: Option<FaultSurface>,
    n: usize,
    body: impl Fn(usize, &Task<'_>) -> Result<TaskRun<R>, Abort> + Sync,
    account: impl FnOnce(&[R]) -> (u64, u64),
) -> Option<Vec<R>> {
    if ctx.has_failed() {
        return None;
    }
    let stage = ctx.current_stage();
    let retry = ctx.faults().zip(surface);
    let run_one = |i: usize| body(i, &Task { retry, label, stage, partition: i as u32 });
    let mut runs = Vec::with_capacity(n);
    for (i, run) in par::map_range(n, run_one).into_iter().enumerate() {
        let run = match run {
            Err(Abort::Breach { .. }) => run_one(i),
            run => run,
        };
        match run {
            Ok(run) => runs.push(run),
            Err(Abort::Breach { requested, budget }) => {
                let operator = label.to_string();
                ctx.fail(Failure::Budget(BudgetBreach { stage, operator, requested, budget }));
                return None;
            }
            Err(Abort::Task(err)) => {
                let retries = err.attempts.len() as u64;
                ctx.record_fault_event(tn::TASK_RETRIES, stage, err.partition, retries);
                ctx.fail(Failure::Task(err));
                return None;
            }
        }
    }
    if retry.is_some() {
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
