//! The Pipeline runtime: Algorithm 1 DAG scheduling plus §4.3 redundancy
//! elimination.
//!
//! [`Pipeline::run`] implements the paper's Algorithm 1 verbatim: maintain a
//! resource pool of Defined resources; each iteration, every Process whose
//! inputs are all in the pool executes and its outputs join the pool; if an
//! iteration finds no runnable Process while work remains, the dependency
//! graph is circular and the run aborts.
//!
//! Before executing a runnable *partition Process* (a [`BundleStage`]), the
//! scheduler looks for the Figure 7 fusion pattern — a chain of bundle
//! stages where each link's SAM output feeds exactly the next link, over
//! the same PartitionInfo and the same known sites — and, when optimization
//! is enabled, hands the whole chain to `process::run_bundle_chain`,
//! which runs it over a single bundled RDD: FASTA/VCF partition RDDs are
//! built once, and the merge → repartition → join round-trips between links
//! disappear. A bundle stage run alone goes through the same executor as a
//! chain of one.
//!
//! The plan also decides Resource lifetimes: the last step that lists a
//! Resource among its inputs is handed it (its `consume()` gets the bundle's
//! own handle, so the operators downstream can move records instead of
//! copying them), and the Resource is released when that step has run. A
//! run therefore holds one copy of the reads at a time, not one per
//! Resource; what no step reads — a result — stays Defined.
//!
//! Since PR 2, the scheduling decisions are made *statically*:
//! [`Pipeline::check`] (backed by [`crate::validate`]) analyzes the
//! Process/Resource graph up front, reports every defect at once, and —
//! when the graph is valid — emits the exact execution plan (fusion chains
//! included) that [`Pipeline::run`] then executes. A defective graph makes
//! `run()` return [`PipelineError::Invalid`] before any dataset work
//! starts, instead of stalling mid-flight.

use crate::process::{run_bundle_chain, BundleStage, Process};
use crate::resource::ResourceAny;
use crate::validate::{self, Diagnostic, Severity, ValidationReport};
use gpf_engine::EngineContext;
use gpf_trace::names as tn;
use gpf_trace::{instant_in, span_in, Category, TraceLog};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Process scheduling states, attached to `state:<name>` instants as the
/// `state` counter so the timeline shows every Blocked→Ready→Running→Done
/// transition the Algorithm 1 scheduler decides.
mod state {
    /// Inputs not yet in the resource pool.
    pub const BLOCKED: u64 = 0;
    /// All inputs defined; queued behind the topo order.
    pub const READY: u64 = 1;
    /// Executing.
    pub const RUNNING: u64 = 2;
    /// Outputs defined.
    pub const DONE: u64 = 3;
}

fn state_event(log: &Arc<TraceLog>, name: &str, code: u64) {
    instant_in(log, &format!("state:{name}"), Category::Scheduler, &[("state", code)]);
}

/// Pipeline execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The Process/Resource graph failed validation — carries every
    /// error-severity [`Diagnostic`] found by [`Pipeline::check`] (cycles,
    /// undefined inputs, duplicate producers, kind mismatches, …).
    Invalid(Vec<Diagnostic>),
    /// Input loading failed.
    Load(String),
    /// A task exhausted its retry budget under the engine's fault-tolerance
    /// layer. Names the Process (or fused chain) that was executing and
    /// carries the engine's structured failure — stage, partition, and the
    /// full attempt history with per-attempt causes and backoff accounting.
    TaskFailed {
        /// The Process (or `a+b` fused-chain label) whose execution failed.
        process: String,
        /// The engine-level failure detail.
        failure: gpf_engine::EngineError,
    },
    /// The configured memory budget
    /// ([`gpf_engine::EngineConfig::with_memory_budget`]) cannot admit the
    /// pipeline: even after the accountant exhausted its degradation ladder
    /// (streamed maps, spill, recompute) one operation still needed more
    /// than the whole budget. Infeasible budgets surface here as a clean
    /// structured error, never a panic or an OOM kill.
    MemoryBudgetExceeded {
        /// The Process (or fused-chain label) that was executing.
        process: String,
        /// Stage index at the failing operation's entry.
        stage: u32,
        /// Operation label (`"map"`, `"collect"`, …).
        operator: String,
        /// Bytes the operation tried to admit.
        requested: u64,
        /// The installed budget, bytes.
        budget: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Invalid(diags) => {
                // Each Diagnostic renders its own compatibility text (a cycle
                // still prints "circular dependency among processes: …").
                write!(f, "invalid pipeline: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            PipelineError::Load(msg) => write!(f, "load error: {msg}"),
            PipelineError::TaskFailed { process, failure } => {
                write!(f, "task failed in process `{process}`: {failure}")
            }
            PipelineError::MemoryBudgetExceeded { process, stage, operator, requested, budget } => {
                write!(
                    f,
                    "memory budget exceeded in process `{process}`, operator `{operator}` \
                     (stage {stage}): requested {requested} bytes, budget {budget} bytes"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The runtime system driver (Table 2: `Pipeline(name, sc)`).
pub struct Pipeline {
    name: String,
    ctx: Arc<EngineContext>,
    processes: Vec<Arc<dyn Process>>,
    optimize: bool,
    executed: Vec<String>,
    fused_chains: Vec<Vec<String>>,
}

impl Pipeline {
    /// Create a pipeline bound to an engine context.
    pub fn new(name: impl Into<String>, ctx: Arc<EngineContext>) -> Self {
        Self {
            name: name.into(),
            ctx,
            processes: Vec::new(),
            optimize: true,
            executed: Vec::new(),
            fused_chains: Vec::new(),
        }
    }

    /// Enable/disable the §4.3 redundancy elimination (on by default).
    /// Disabling it reproduces the paper's Table 4 "Original" column.
    pub fn set_optimize(&mut self, optimize: bool) {
        self.optimize = optimize;
    }

    /// Add a Process to the execution DAG (Table 2's `addProcess`).
    pub fn add_process(&mut self, process: Arc<dyn Process>) {
        self.processes.push(process);
    }

    /// Names of executed Processes, in execution order (fused chains list
    /// every member).
    pub fn executed(&self) -> &[String] {
        &self.executed
    }

    /// Fused chains detected during the last run.
    pub fn fused_chains(&self) -> &[Vec<String>] {
        &self.fused_chains
    }

    /// Validate the Process/Resource graph without executing anything.
    ///
    /// Reports *all* defects at once — cycles (with the full
    /// Process → Resource → Process path), inputs nobody produces, duplicate
    /// producers, bundle-kind mismatches, aliased resource names, dead
    /// outputs — plus the Figure 7 fusion-eligibility report showing which
    /// [`BundleStage`] chains will fuse under `optimize`.
    pub fn check(&self) -> ValidationReport {
        ValidationReport::new(validate::analyze(&self.processes, self.optimize).diagnostics)
    }

    /// Execute all Processes (Table 2's `run()`), per Algorithm 1.
    ///
    /// Validates first: a defective graph returns
    /// [`PipelineError::Invalid`] carrying every error-severity diagnostic
    /// before any dataset work starts.
    ///
    /// A run spends its inputs: every Resource a step reads is
    /// [`crate::ResourceState::Released`] afterwards (only results stay
    /// Defined), so a second `run()` over the same inputs is `Invalid` too —
    /// [`crate::DiagnosticKind::ReleasedInput`] — unless they are defined
    /// again first.
    pub fn run(&mut self) -> Result<(), PipelineError> {
        self.executed.clear();
        self.fused_chains.clear();
        let log = Arc::clone(self.ctx.trace_log());
        let mut pipeline_span =
            span_in(&log, &format!("pipeline:{}", self.name), Category::Scheduler);
        let analysis = {
            let _validate_span = span_in(&log, "validate", Category::Scheduler);
            validate::analyze(&self.processes, self.optimize)
        };
        let Some(plan) = analysis.plan else {
            let errors: Vec<Diagnostic> = analysis
                .diagnostics
                .into_iter()
                .filter(|d| d.severity() == Severity::Error)
                .collect();
            return Err(PipelineError::Invalid(errors));
        };
        pipeline_span.add_counter("processes", self.processes.len() as u64);
        pipeline_span.add_counter("chains", plan.len() as u64);

        // Every process starts Blocked; the plan's topo order is the
        // scheduler's decision record, so announce both it and each fusion
        // choice before any dataset work starts.
        for process in &self.processes {
            state_event(&log, process.name(), state::BLOCKED);
        }
        for chain in &plan {
            if chain.len() > 1 {
                let members: Vec<&str> = chain.iter().map(|&j| self.processes[j].name()).collect();
                instant_in(
                    &log,
                    &format!("fuse:{}", members.join("+")),
                    Category::Scheduler,
                    &[("members", chain.len() as u64)],
                );
            }
        }

        // The plan decides lifetimes too: the last step that lists a
        // Resource among its inputs is handed it, and once that step has run
        // the Resource is released — so a run holds one copy of the reads,
        // not one per Resource. A Resource no step reads (a result) is
        // never released.
        let mut last_reader: BTreeMap<String, usize> = BTreeMap::new();
        for (k, chain) in plan.iter().enumerate() {
            for r in chain.iter().flat_map(|&j| self.processes[j].input_resources()) {
                last_reader.insert(r.name().to_string(), k);
            }
        }

        // The plan lists execution steps in dependency order; each step is a
        // §4.3 fusion chain (singletons run alone).
        for (k, chain) in plan.iter().enumerate() {
            let last_read_here: Vec<Arc<dyn ResourceAny>> = chain
                .iter()
                .flat_map(|&j| self.processes[j].input_resources())
                .filter(|r| last_reader.get(r.name()) == Some(&k))
                .collect();
            let members: Vec<String> =
                chain.iter().map(|&j| self.processes[j].name().to_string()).collect();
            let step_label = members.join("+");
            for name in &members {
                state_event(&log, name, state::READY);
                state_event(&log, name, state::RUNNING);
            }
            {
                let mut proc_span =
                    span_in(&log, &format!("proc:{step_label}"), Category::Scheduler);
                last_read_here.iter().for_each(|r| r.hand_to(&step_label));
                if let [i] = chain[..] {
                    self.processes[i].execute(&self.ctx);
                } else {
                    proc_span.add_counter("fused", chain.len() as u64);
                    // The planner fuses bundle stages only.
                    let stages: Vec<&dyn BundleStage> =
                        chain.iter().filter_map(|&j| self.processes[j].as_bundle_stage()).collect();
                    run_bundle_chain(&self.ctx, &stages);
                }
                // Released whether or not the step consumed them — and
                // whether or not it failed: nothing later reads them.
                last_read_here.iter().for_each(|r| r.release(&step_label));
                if gpf_trace::enabled() {
                    self.note_resident(&mut proc_span);
                }
            }
            for name in &members {
                state_event(&log, name, state::DONE);
            }
            if members.len() > 1 {
                self.fused_chains.push(members.clone());
            }
            self.executed.extend(members);
            // A budget breach is the more specific failure: it may also have
            // aborted the task layer, so check it before the generic channel
            // and surface the operator/bytes detail instead of a retry tale.
            if let Some(b) = self.ctx.take_budget_breach() {
                return Err(PipelineError::MemoryBudgetExceeded {
                    process: step_label,
                    stage: b.stage,
                    operator: b.operator,
                    requested: b.requested,
                    budget: b.budget,
                });
            }
            // The engine records terminal task failures in the context
            // (Process::execute has no Result channel); surface the first
            // one here with the step that was executing.
            if let Some(failure) = self.ctx.take_failure() {
                return Err(PipelineError::TaskFailed { process: step_label, failure });
            }
        }
        Ok(())
    }

    /// Close a `proc:*` span with what is resident now that its step has
    /// run: the process's resident set size, the live heap when allocation
    /// tracking is on, and every Defined Resource with its record count
    /// (`res:<name>`). Traced runs only — an untraced run reads nothing.
    fn note_resident(&self, span: &mut gpf_trace::SpanGuard) {
        if let Some(kb) = gpf_trace::alloc::rss_kb() {
            span.add_counter(tn::RSS_KB, kb);
        }
        if gpf_trace::alloc::tracking_active() {
            gpf_trace::alloc::flush_thread_stats();
            span.add_counter(tn::HEAP_LIVE_TRACK, gpf_trace::alloc::live_bytes());
        }
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for p in &self.processes {
            for r in p.input_resources().into_iter().chain(p.output_resources()) {
                if let Some(records) = r.held_records() {
                    if seen.insert(r.name().to_string()) {
                        span.add_counter(&format!("{}{}", tn::RESIDENT_PREFIX, r.name()), records);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{ResourceAny, SamBundle};
    use gpf_engine::{Dataset, EngineConfig};
    use gpf_formats::sam::SamHeaderInfo;
    use gpf_formats::ContigDict;

    /// A trivial process copying input to output.
    struct Copy {
        name: String,
        input: Arc<SamBundle>,
        output: Arc<SamBundle>,
    }

    impl Process for Copy {
        fn name(&self) -> &str {
            &self.name
        }
        fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
            vec![self.input.clone()]
        }
        fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
            vec![self.output.clone()]
        }
        fn execute(&self, _ctx: &Arc<EngineContext>) {
            self.output.define(self.input.dataset());
        }
    }

    fn bundle(name: &str) -> Arc<SamBundle> {
        let dict = ContigDict::from_pairs([("chr1", 1000u64)]);
        SamBundle::undefined(name, SamHeaderInfo::unsorted_header(dict))
    }

    #[test]
    fn runs_in_dependency_order_regardless_of_add_order() {
        let ctx = EngineContext::new(EngineConfig::default());
        let a = bundle("a");
        let b = bundle("b");
        let c = bundle("c");
        a.define(Dataset::from_vec(Arc::clone(&ctx), vec![], 1));
        let mut pipeline = Pipeline::new("p", Arc::clone(&ctx));
        // Added reversed: b->c first, then a->b.
        pipeline.add_process(Arc::new(Copy { name: "second".into(), input: b.clone(), output: c.clone() }));
        pipeline.add_process(Arc::new(Copy { name: "first".into(), input: a, output: b }));
        pipeline.run().unwrap();
        assert_eq!(pipeline.executed(), &["first".to_string(), "second".to_string()]);
        assert!(c.is_defined());
    }

    #[test]
    fn detects_circular_dependency() {
        let ctx = EngineContext::new(EngineConfig::default());
        let a = bundle("a");
        let b = bundle("b");
        let mut pipeline = Pipeline::new("p", ctx);
        pipeline.add_process(Arc::new(Copy { name: "x".into(), input: a.clone(), output: b.clone() }));
        pipeline.add_process(Arc::new(Copy { name: "y".into(), input: b, output: a }));
        let err = pipeline.run().unwrap_err();
        match &err {
            PipelineError::Invalid(diags) => {
                let cycle = diags
                    .iter()
                    .find_map(|d| match d.kind() {
                        crate::validate::DiagnosticKind::Cycle { path } => Some(path.clone()),
                        _ => None,
                    })
                    .expect("cycle diagnostic present");
                // Alternating proc/res path closing on itself: x -[b]-> y -[a]-> x.
                assert_eq!(cycle.len(), 5);
                assert_eq!(cycle.first(), cycle.last());
            }
            other => panic!("unexpected {other}"),
        }
        // Compatibility: the Display still names the stuck processes.
        let text = err.to_string();
        assert!(text.contains("circular dependency among processes:"), "{text}");
        assert!(text.contains('x') && text.contains('y'), "{text}");
    }

    #[test]
    fn diamond_dependencies_execute_once_each() {
        let ctx = EngineContext::new(EngineConfig::default());
        let root = bundle("root");
        root.define(Dataset::from_vec(Arc::clone(&ctx), vec![], 1));
        let left = bundle("left");
        let right = bundle("right");
        let mut pipeline = Pipeline::new("p", ctx);
        pipeline.add_process(Arc::new(Copy { name: "l".into(), input: root.clone(), output: left.clone() }));
        pipeline.add_process(Arc::new(Copy { name: "r".into(), input: root, output: right.clone() }));
        struct Join {
            l: Arc<SamBundle>,
            r: Arc<SamBundle>,
            out: Arc<SamBundle>,
        }
        impl Process for Join {
            fn name(&self) -> &str {
                "join"
            }
            fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
                vec![self.l.clone(), self.r.clone()]
            }
            fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
                vec![self.out.clone()]
            }
            fn execute(&self, _ctx: &Arc<EngineContext>) {
                self.out.define(self.l.dataset());
            }
        }
        let out = bundle("out");
        pipeline.add_process(Arc::new(Join { l: left, r: right, out: out.clone() }));
        pipeline.run().unwrap();
        assert_eq!(pipeline.executed().len(), 3);
        assert_eq!(pipeline.executed().last().unwrap(), "join");
        assert!(out.is_defined());
    }

    /// A process that actually maps through the engine, so fault injection
    /// has a task to hit (the `Copy` helper defines without running tasks).
    struct Mapper {
        input: Arc<SamBundle>,
        output: Arc<SamBundle>,
    }

    impl Process for Mapper {
        fn name(&self) -> &str {
            "mapper"
        }
        fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
            vec![self.input.clone()]
        }
        fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
            vec![self.output.clone()]
        }
        fn execute(&self, _ctx: &Arc<EngineContext>) {
            self.output.define(self.input.dataset().map(|r| r.clone()));
        }
    }

    #[test]
    fn task_failure_surfaces_process_and_site_detail() {
        use gpf_engine::{FaultKind, FaultPlan, FaultSite};
        // Explicit panics at (stage 0, partition 0) on every attempt defeat
        // the default 3-retry budget.
        let sites = (0..=3)
            .map(|a| FaultSite { stage: 0, partition: 0, attempt: a, kind: FaultKind::TaskPanic })
            .collect();
        let ctx = EngineContext::new(
            EngineConfig::default().with_faults(FaultPlan::explicit(sites)),
        );
        let a = bundle("a");
        let b = bundle("b");
        a.define(Dataset::from_vec(Arc::clone(&ctx), vec![], 1));
        let mut pipeline = Pipeline::new("doomed", Arc::clone(&ctx));
        pipeline.add_process(Arc::new(Mapper { input: a, output: b }));
        let err = pipeline.run().unwrap_err();
        match &err {
            PipelineError::TaskFailed { process, failure } => {
                assert_eq!(process, "mapper");
                assert_eq!(failure.stage, 0);
                assert_eq!(failure.partition, 0);
                assert_eq!(failure.attempts.len(), 4, "1 + max_task_retries attempts");
                assert!(failure.attempts.iter().all(|r| r.cause.contains("injected")));
            }
            other => panic!("unexpected {other}"),
        }
        let text = err.to_string();
        assert!(text.contains("`mapper`"), "{text}");
        assert!(text.contains("stage 0"), "{text}");
        assert!(text.contains("partition 0"), "{text}");
        assert!(text.contains("failed after 4 attempts"), "{text}");
    }

    #[test]
    fn infeasible_budget_surfaces_structured_error() {
        use gpf_formats::sam::SamRecord;
        // A whole-partition operator must restore its partition in one
        // piece; under a budget smaller than any single partition that
        // restore is infeasible and must surface as a structured error.
        struct Whole {
            input: Arc<SamBundle>,
            output: Arc<SamBundle>,
        }
        impl Process for Whole {
            fn name(&self) -> &str {
                "sorter"
            }
            fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
                vec![self.input.clone()]
            }
            fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
                vec![self.output.clone()]
            }
            fn execute(&self, _ctx: &Arc<EngineContext>) {
                let whole = self.input.dataset().evictable().map_partitions(|p| p.to_vec());
                self.output.define(whole);
            }
        }
        let ctx = EngineContext::new(EngineConfig::default().with_memory_budget(64));
        let records: Vec<SamRecord> = (0..64)
            .map(|i| SamRecord::unmapped(format!("r{i}"), b"ACGTACGT".to_vec(), b"IIIIIIII".to_vec()))
            .collect();
        let a = bundle("a");
        let b = bundle("b");
        a.define(Dataset::from_vec(Arc::clone(&ctx), records, 1));
        let mut pipeline = Pipeline::new("strained", Arc::clone(&ctx));
        pipeline.add_process(Arc::new(Whole { input: a, output: b }));
        let err = pipeline.run().unwrap_err();
        match &err {
            PipelineError::MemoryBudgetExceeded { process, operator, requested, budget, .. } => {
                assert_eq!(process, "sorter");
                assert_eq!(operator, "mapPartitions");
                assert_eq!(*budget, 64);
                assert!(*requested > 64, "requested {requested}");
            }
            other => panic!("unexpected {other}"),
        }
        // Pin the message: it must name the process, operator, stage and
        // both byte figures so operators can size budgets from the error.
        let text = err.to_string();
        assert!(text.starts_with("memory budget exceeded in process `sorter`"), "{text}");
        assert!(text.contains("operator `mapPartitions`"), "{text}");
        assert!(text.contains("(stage "), "{text}");
        assert!(text.contains("budget 64 bytes"), "{text}");
        assert!(text.contains("requested "), "{text}");
    }
}
