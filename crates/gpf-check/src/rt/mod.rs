//! The cooperative scheduler behind `--cfg gpf_check`.
//!
//! Model threads are real OS threads (TLS, borrows and panics behave as in
//! production), but a baton serializes them: exactly one model thread runs
//! at a time, and every shim operation is a scheduling point where the
//! thread that just completed its operation picks — through the schedule's
//! [`Decider`] — which ready thread runs next. Recording only the decisions
//! with more than one alternative makes a schedule a short replayable
//! choice string, which is what the explorer backtracks over (exhaustive
//! mode) or derives from a seed (random mode).
//!
//! This module owns thread/baton lifecycle, vector clocks, and failure
//! classification; the per-primitive operations (atomics and locks) live in
//! [`ops`] and are re-exported at `rt::*`.

mod ops;

pub use ops::*;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// How many trailing stores of a location's modification order a load may
/// observe (beyond its coherence floor). Small on purpose: it bounds the
/// decision fan-out while still exposing stale-read bugs one or two stores
/// deep, which is where real ordering mistakes live.
pub(crate) const STORE_WINDOW: usize = 3;

/// Stable identity for a shimmed location (atomic or lock).
///
/// Const-constructible so shimmed statics work; the id itself is assigned
/// lazily from a process-global counter on first model access, so it stays
/// stable across the many schedules of one exploration.
#[derive(Debug, Default)]
pub struct LocId {
    id: OnceLock<usize>,
}

static NEXT_LOC: AtomicUsize = AtomicUsize::new(1);

impl LocId {
    /// An unassigned location id.
    pub const fn new() -> Self {
        Self { id: OnceLock::new() }
    }

    /// The process-global key, assigned on first use.
    pub(crate) fn key(&self) -> usize {
        *self.id.get_or_init(|| NEXT_LOC.fetch_add(1, Ordering::Relaxed))
    }
}

/// A grow-on-demand vector clock indexed by virtual thread id.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    pub(crate) fn bump(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, v) in other.0.iter().enumerate() {
            self.0[i] = self.0[i].max(*v);
        }
    }
}

/// Per-thread visibility floors: the oldest store index of each location
/// this thread is still allowed to observe (coherence + acquired edges).
pub(crate) type View = HashMap<usize, usize>;

pub(crate) fn merge_view(into: &mut View, from: &View) {
    for (k, v) in from {
        let e = into.entry(*k).or_insert(0);
        *e = (*e).max(*v);
    }
}

/// What a parked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Wait {
    Lock(usize),
    Rw(usize),
    Join(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Phase {
    Ready,
    Parked(Wait),
    Finished,
}

#[derive(Debug)]
pub(crate) struct Th {
    pub(crate) phase: Phase,
    pub(crate) clock: VClock,
    pub(crate) view: View,
}

/// One entry in a location's modification order.
#[derive(Debug)]
pub(crate) struct Store {
    pub(crate) val: u64,
    /// Clock of the storing thread, transferred to acquiring loads iff
    /// `release` is set.
    pub(crate) clock: VClock,
    pub(crate) view: View,
    pub(crate) release: bool,
}

#[derive(Debug, Default)]
pub(crate) struct Loc {
    pub(crate) stores: Vec<Store>,
}

#[derive(Debug, Default)]
pub(crate) struct LockSt {
    pub(crate) held: Option<usize>,
    /// Joined from every releaser; joined into every acquirer.
    pub(crate) clock: VClock,
    /// Visibility floors released with the lock — an acquirer must observe
    /// every store the releaser had observed (or made) by the unlock.
    pub(crate) view: View,
}

#[derive(Debug, Default)]
pub(crate) struct RwSt {
    pub(crate) writer: Option<usize>,
    pub(crate) readers: usize,
    /// Clock joined from write releases (acquired by readers and writers).
    pub(crate) wclock: VClock,
    /// Clock joined from read releases (acquired by writers only).
    pub(crate) rclock: VClock,
    /// Visibility floors from write releases.
    pub(crate) wview: View,
    /// Visibility floors from read releases.
    pub(crate) rview: View,
}

/// Why a schedule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// No thread runnable and at least one parked on a lock/join.
    Deadlock,
    /// The schedule exceeded its step budget without finishing.
    Livelock,
    /// A model thread panicked (failed assertion or real bug).
    ModelPanic,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Deadlock => "deadlock",
            FailureKind::Livelock => "livelock (step budget exceeded)",
            FailureKind::ModelPanic => "model panic",
        };
        f.write_str(s)
    }
}

/// A recorded failure, before the explorer attaches replay info.
#[derive(Debug, Clone)]
pub struct FailureRec {
    pub kind: FailureKind,
    pub message: String,
}

/// One recorded decision: `chosen` out of `n > 1` alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    pub n: u32,
    pub chosen: u32,
}

/// Where a schedule's decisions come from.
#[derive(Debug, Clone)]
pub enum DecisionSource {
    /// Replay these choices, then always pick alternative 0 (the
    /// exhaustive explorer's DFS order).
    Prefix(Vec<u32>),
    /// SplitMix64-derived choices from this seed.
    Random(u64),
}

#[derive(Debug)]
pub(crate) struct Decider {
    mode: DecisionSource,
    pos: usize,
    rng: u64,
    pub(crate) trace: Vec<Choice>,
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Decider {
    fn new(mode: DecisionSource) -> Self {
        let rng = match &mode {
            DecisionSource::Random(seed) => *seed,
            DecisionSource::Prefix(_) => 0,
        };
        Self { mode, pos: 0, rng, trace: Vec::new() }
    }

    /// Pick among `n > 1` alternatives and record the choice.
    pub(crate) fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 1);
        let chosen = match &self.mode {
            DecisionSource::Prefix(p) => {
                // Clamp a diverged replay instead of indexing out of
                // bounds; same-code replays never diverge.
                p.get(self.pos).map(|c| (*c as usize).min(n - 1)).unwrap_or(0)
            }
            DecisionSource::Random(_) => (splitmix64(&mut self.rng) % n as u64) as usize,
        };
        self.pos += 1;
        self.trace.push(Choice { n: n as u32, chosen: chosen as u32 });
        chosen
    }
}

/// Per-schedule scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    pub max_steps: usize,
    /// `Some(bound)` enables the exhaustive mode's preemption bound.
    pub max_preemptions: Option<usize>,
    pub decisions: DecisionSource,
}

/// Everything a finished schedule reports back to the explorer.
#[derive(Debug)]
pub struct Outcome {
    pub failure: Option<FailureRec>,
    pub choices: Vec<Choice>,
    pub steps: usize,
}

pub(crate) struct State {
    pub(crate) threads: Vec<Th>,
    pub(crate) current: Option<usize>,
    pub(crate) abort: bool,
    pub(crate) done: bool,
    pub(crate) failure: Option<FailureRec>,
    pub(crate) steps: usize,
    pub(crate) max_steps: usize,
    pub(crate) preemptions: usize,
    pub(crate) max_preemptions: Option<usize>,
    pub(crate) decider: Decider,
    pub(crate) locs: HashMap<usize, Loc>,
    pub(crate) locks: HashMap<usize, LockSt>,
    pub(crate) rws: HashMap<usize, RwSt>,
    pub(crate) sc_clock: VClock,
    pub(crate) sc_view: View,
    /// Schedule-local display names for locations, assigned in first-touch
    /// order — process-global [`LocId`] keys differ between schedules for
    /// model-local state, so reports must never print them.
    pub(crate) loc_names: HashMap<usize, usize>,
}

impl State {
    /// Schedule-local, deterministic display index for a location.
    pub(crate) fn local_loc(&mut self, key: usize) -> usize {
        let n = self.loc_names.len();
        *self.loc_names.entry(key).or_insert(n)
    }

    pub(crate) fn loc_name(&self, key: usize) -> usize {
        self.loc_names.get(&key).copied().unwrap_or(usize::MAX)
    }
}

/// One schedule's scheduler: the baton, the model state, the decider.
pub struct Sched {
    pub(crate) st: Mutex<State>,
    pub(crate) cv: Condvar,
}

/// Panic payload used to unwind model threads when a schedule aborts.
/// Deliberately not an error in itself — the recorded [`FailureRec`] (or
/// the absence of one, for clean teardown) is the schedule's verdict.
pub(crate) struct AbortSchedule;

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Sched>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// True when the calling OS thread is a registered model thread.
pub fn in_model() -> bool {
    CTX.try_with(|c| c.borrow().is_some()).unwrap_or(false)
}

pub(crate) fn cur_ctx() -> Option<(Arc<Sched>, usize)> {
    CTX.try_with(|c| c.borrow().clone()).unwrap_or(None)
}

struct CtxGuard;

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let _ = CTX.try_with(|c| *c.borrow_mut() = None);
    }
}

/// Abort the current schedule (no failure recorded — used by shim wrappers
/// tearing down after a panic already captured elsewhere). No-op outside a
/// model thread.
pub fn abort_current_schedule(_why: &str) {
    if let Some((sched, _)) = cur_ctx() {
        let mut st = sched.lock_state();
        st.abort = true;
        sched.cv.notify_all();
    }
}

impl Sched {
    pub fn new(cfg: SchedConfig) -> Arc<Self> {
        Arc::new(Self {
            st: Mutex::new(State {
                threads: Vec::new(),
                current: None,
                abort: false,
                done: false,
                failure: None,
                steps: 0,
                max_steps: cfg.max_steps,
                preemptions: 0,
                max_preemptions: cfg.max_preemptions,
                decider: Decider::new(cfg.decisions),
                locs: HashMap::new(),
                locks: HashMap::new(),
                rws: HashMap::new(),
                sc_clock: VClock::default(),
                sc_view: View::default(),
                loc_names: HashMap::new(),
            }),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn lock_state(&self) -> MutexGuard<'_, State> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a virtual thread (before `launch`, or from a running model
    /// thread via the shim's spawn). Returns its tid.
    pub fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        let clock = match st.current {
            // Spawn edge: child inherits the spawner's clock.
            Some(parent) => {
                let mut c = st.threads[parent].clock.clone();
                c.bump(parent);
                st.threads[parent].clock.bump(parent);
                c
            }
            None => VClock::default(),
        };
        let view = st.current.map(|p| st.threads[p].view.clone()).unwrap_or_default();
        st.threads.push(Th { phase: Phase::Ready, clock, view });
        tid
    }

    /// Hand the baton to the first thread (a recorded decision when more
    /// than one thread is registered).
    pub fn launch(&self) {
        let mut st = self.lock_state();
        self.pick_next(&mut st, None);
        self.cv.notify_all();
    }

    /// Read the schedule's result. Call after every model thread exited.
    pub fn outcome(&self) -> Outcome {
        let st = self.lock_state();
        Outcome {
            failure: st.failure.clone(),
            choices: st.decider.trace.clone(),
            steps: st.steps,
        }
    }

    /// Per-op bookkeeping: advance this thread's clock component, charge
    /// the step budget, and convert exhaustion into a livelock failure.
    /// Returns false when the op must not proceed (schedule aborted): the
    /// caller returns its pass-through fallback, which only actually runs
    /// when the thread is already unwinding (see [`Sched::abort_exit`]).
    #[must_use]
    pub(crate) fn bump_step(&self, st: &mut MutexGuard<'_, State>, my: usize) -> bool {
        if st.abort {
            self.abort_exit();
            return false;
        }
        st.steps += 1;
        st.threads[my].clock.bump(my);
        if st.steps > st.max_steps {
            let msg = format!(
                "schedule exceeded its step budget ({} ops) without completing",
                st.max_steps
            );
            self.fail_abort(st, FailureKind::Livelock, msg);
            self.abort_exit();
            return false;
        }
        true
    }

    /// Record a failure (first one wins), abort the schedule, wake parked
    /// threads so they unwind.
    pub(crate) fn fail_abort(
        &self,
        st: &mut MutexGuard<'_, State>,
        kind: FailureKind,
        message: String,
    ) {
        if st.failure.is_none() {
            st.failure = Some(FailureRec { kind, message });
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// Unwind the calling model thread out of the aborted schedule — but
    /// never panic from inside an unwind (guard `Drop`s run model release
    /// ops while panicking; a second panic would abort the process). When
    /// already unwinding, return and let the caller bail out quietly.
    pub(crate) fn abort_exit(&self) {
        if !std::thread::panicking() {
            std::panic::panic_any(AbortSchedule);
        }
    }

    /// Choose the next thread to run. `my` is the thread that just
    /// completed an op (None during `launch`). Detects the "nobody is
    /// runnable" terminal states.
    pub(crate) fn pick_next(&self, st: &mut MutexGuard<'_, State>, my: Option<usize>) {
        let ready: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.phase == Phase::Ready)
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            if st.threads.iter().all(|t| t.phase == Phase::Finished) {
                st.done = true;
                st.current = None;
                return;
            }
            let message = stuck_message(st);
            self.fail_abort(st, FailureKind::Deadlock, message);
            // The caller is the running thread; it unwinds via its
            // post-pick abort check (wait_granted or finish_thread).
            return;
        }
        let candidates = match (my, st.max_preemptions) {
            // Preemption bound: if the just-ran thread is still runnable
            // and the budget is spent, it must keep running.
            (Some(me), Some(bound))
                if st.preemptions >= bound && st.threads[me].phase == Phase::Ready =>
            {
                vec![me]
            }
            _ => ready,
        };
        let idx = if candidates.len() > 1 { st.decider.pick(candidates.len()) } else { 0 };
        let next = candidates[idx];
        if let Some(me) = my {
            if next != me && st.threads[me].phase == Phase::Ready {
                st.preemptions += 1;
            }
        }
        st.current = Some(next);
    }

    /// The trailing half of every op: pick who runs next, hand over the
    /// baton, and (if it isn't us) park until it comes back. Returns false
    /// when the schedule aborted while we were parked (only reachable
    /// during an unwind — see [`Sched::abort_exit`]).
    pub(crate) fn pick_and_wait(&self, mut st: MutexGuard<'_, State>, my: usize) -> bool {
        self.pick_next(&mut st, Some(my));
        if st.abort {
            drop(st);
            self.abort_exit();
            return false;
        }
        if st.current == Some(my) {
            return true;
        }
        self.cv.notify_all();
        self.wait_granted(st, my).is_some()
    }

    /// Block (on the scheduler condvar, not in model state) until this
    /// thread holds the baton again. `None` means the schedule aborted:
    /// the calling thread either panicked out of here (normal case) or is
    /// already unwinding and must bail out quietly.
    pub(crate) fn wait_granted<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        my: usize,
    ) -> Option<MutexGuard<'a, State>> {
        while !st.abort && st.current != Some(my) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            drop(st);
            self.abort_exit();
            return None;
        }
        Some(st)
    }

    /// Mark `my` finished, transfer its clock to joiners, hand the baton on.
    pub(crate) fn finish_thread(&self, my: usize) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            self.abort_exit();
            return;
        }
        st.threads[my].phase = Phase::Finished;
        let my_clock = st.threads[my].clock.clone();
        let my_view = st.threads[my].view.clone();
        for t in st.threads.iter_mut() {
            if t.phase == Phase::Parked(Wait::Join(my)) {
                t.clock.join(&my_clock);
                // The join edge also raises visibility floors: everything
                // the finished thread stored is now the oldest observable.
                merge_view(&mut t.view, &my_view);
                t.phase = Phase::Ready;
            }
        }
        self.pick_next(&mut st, Some(my));
        self.cv.notify_all();
        if st.abort {
            drop(st);
            self.abort_exit();
        }
    }
}

/// Describe an all-parked state: who waits on what.
fn stuck_message(st: &State) -> String {
    let detail: Vec<String> = st
        .threads
        .iter()
        .enumerate()
        .filter_map(|(tid, t)| match t.phase {
            Phase::Parked(Wait::Lock(k)) => {
                Some(format!("t{tid} waits on mutex #{}", st.loc_name(k)))
            }
            Phase::Parked(Wait::Rw(k)) => {
                Some(format!("t{tid} waits on rwlock #{}", st.loc_name(k)))
            }
            Phase::Parked(Wait::Join(t)) => Some(format!("t{tid} waits to join t{t}")),
            _ => None,
        })
        .collect();
    format!("no runnable thread: {}", detail.join("; "))
}

/// Register a virtual thread for a shim-level spawn. `None` when the
/// spawner is not a model thread (pass through to plain `std`).
pub fn spawn_register() -> Option<(Arc<Sched>, usize)> {
    let (sched, _my) = cur_ctx()?;
    let tid = sched.register_thread();
    Some((sched, tid))
}

/// Body wrapper for shim-spawned model threads: waits for its first baton
/// grant, runs `f`, reports the outcome, and propagates panics (the
/// spawner's scope/join sees them exactly as with plain `std` threads).
pub fn child_main<F, T>(sched: Arc<Sched>, tid: usize, f: F) -> T
where
    F: FnOnce() -> T,
{
    match run_model_body(sched, tid, f) {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Body wrapper for explorer-owned model threads: like [`child_main`], but
/// swallows the unwind (schedule aborts are ordinary control flow for the
/// explorer; real panics are already recorded as `ModelPanic`).
pub fn run_thread<F>(sched: Arc<Sched>, tid: usize, f: F)
where
    F: FnOnce(),
{
    let _ = run_model_body(sched, tid, f);
}

/// Run `f` as model thread `tid` on the calling OS thread (used by the
/// explorer for single-rooted models). The caller must have registered
/// exactly this tid and must call `launch` itself beforehand or let this
/// root be the sole registered thread.
pub fn run_root<F, T>(sched: Arc<Sched>, tid: usize, f: F) -> Option<T>
where
    F: FnOnce() -> T,
{
    run_model_body(sched, tid, f).ok()
}

fn run_model_body<F, T>(
    sched: Arc<Sched>,
    tid: usize,
    f: F,
) -> Result<T, Box<dyn std::any::Any + Send>>
where
    F: FnOnce() -> T,
{
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched), tid)));
    let _guard = CtxGuard;
    // First grant: even the first op of this thread is a scheduled one.
    {
        let st = sched.lock_state();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sched.wait_granted(st, tid)
        })) {
            Ok(_st) => {}
            Err(p) => return Err(p),
        }
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sched.finish_thread(tid)
            })) {
                Ok(()) => Ok(v),
                Err(p) => Err(p),
            }
        }
        Err(payload) => {
            if payload.is::<AbortSchedule>() {
                return Err(payload);
            }
            // A real model panic: record it (first failure wins) and
            // abort so every other thread unwinds too.
            let msg = panic_message(&payload);
            let mut st = sched.lock_state();
            st.threads[tid].phase = Phase::Finished;
            sched.fail_abort(&mut st, FailureKind::ModelPanic, msg);
            drop(st);
            Err(payload)
        }
    }
}

pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked (non-string payload)".to_string()
    }
}

/// Park until virtual thread `target` finishes, acquiring its final clock.
pub fn join_wait(target: usize) {
    let Some((sched, my)) = cur_ctx() else { return };
    let mut st = sched.lock_state();
    if !sched.bump_step(&mut st, my) {
        return;
    }
    if st.threads[target].phase == Phase::Finished {
        let tc = st.threads[target].clock.clone();
        let tv = st.threads[target].view.clone();
        st.threads[my].clock.join(&tc);
        merge_view(&mut st.threads[my].view, &tv);
    } else {
        st.threads[my].phase = Phase::Parked(Wait::Join(target));
    }
    let _ = sched.pick_and_wait(st, my);
}

/// Whether the scheduler's panic hook should silence this panic: model
/// threads unwind constantly (schedule aborts, seeded-bug assertions) and
/// their payloads are captured into the schedule outcome instead.
pub fn suppress_panic_output() -> bool {
    in_model()
}
