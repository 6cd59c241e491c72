//! Trace-shape stability: under a [`MockClock`], the Chrome export of a
//! 4-process pipeline run is **byte-identical** across runs — the property
//! that lets trace-shape regressions show up as a one-line diff instead of
//! a flaky timestamp soup.

use gpf_core::prelude::*;
use gpf_core::resource::SamBundle;
use gpf_core::Process;
use gpf_engine::{Dataset, EngineConfig, EngineContext, JobRun};
use gpf_formats::sam::{SamHeaderInfo, SamRecord};
use gpf_formats::ContigDict;
use gpf_trace::clock::MockClock;
use gpf_trace::sink::{chrome_trace, validate_chrome_trace};
use gpf_trace::{span_in, Category};
use std::sync::{Arc, Mutex};

/// A process that shuffles its input into one partition and maps it
/// through the engine (so the trace carries real Compute/task events and
/// shuffle bytes, not just scheduler spans).
struct Relabel {
    name: String,
    input: Arc<SamBundle>,
    output: Arc<SamBundle>,
}

impl Process for Relabel {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_resources(&self) -> Vec<Arc<dyn gpf_core::resource::ResourceAny>> {
        vec![self.input.clone()]
    }
    fn output_resources(&self) -> Vec<Arc<dyn gpf_core::resource::ResourceAny>> {
        vec![self.output.clone()]
    }
    fn execute(&self, _ctx: &Arc<EngineContext>) {
        self.output.define(self.input.dataset().into_partition_by(1, |_| 0).into_map(|r| r));
    }
}

fn bundle(name: &str) -> Arc<SamBundle> {
    let dict = ContigDict::from_pairs([("chr1", 1000u64)]);
    SamBundle::undefined(name, SamHeaderInfo::unsorted_header(dict))
}

/// One full traced run under a fresh mock clock: a 4-process chain
/// a → b → c → d → e over a single-partition dataset (single-partition
/// stages take gpf-support's sequential path, so every clock read happens
/// on the mocked thread). With `app_span`, an application span opened on
/// the context's log wraps the pipeline setup. Returns the Chrome export
/// and the `JobRun` derived from the same events.
fn traced_run(app_span: bool) -> (String, JobRun) {
    // The enable switch is process-global: runs in this binary take turns,
    // or one run's `set_enabled(false)` drops another's Begin events.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Engine task Begin events are gated on the global enable (End events
    // are always recorded — they carry the metrics), so a B/E-balanced
    // export needs tracing on, exactly like `experiments --trace`.
    gpf_trace::set_enabled(true);
    let _clock = MockClock::install(1_000, 7);
    let ctx = EngineContext::new(EngineConfig::default());
    let a = bundle("a");
    let b = bundle("b");
    let c = bundle("c");
    let d = bundle("d");
    let e = bundle("e");
    let reads = (0..8).map(|i| SamRecord::unmapped(format!("r{i}"), b"ACGT".to_vec(), b"IIII".to_vec()));
    a.define(Dataset::from_vec(Arc::clone(&ctx), reads.collect(), 1));
    let setup = app_span.then(|| span_in(ctx.trace_log(), "setup:graph", Category::Other));
    let mut pipeline = Pipeline::new("stable", Arc::clone(&ctx));
    // Added out of dependency order on purpose: the scheduler's topo sort is
    // part of the trace shape under test.
    pipeline.add_process(Arc::new(Relabel { name: "third".into(), input: c.clone(), output: d }));
    pipeline.add_process(Arc::new(Relabel { name: "first".into(), input: a, output: b.clone() }));
    pipeline.add_process(Arc::new(Relabel { name: "fourth".into(), input: e.clone(), output: bundle("f") }));
    pipeline.add_process(Arc::new(Relabel { name: "second".into(), input: b, output: c }));
    // "fourth" consumes e, produced by nothing traced — define it directly so
    // the graph stays valid while keeping four executable processes.
    e.define(Dataset::from_vec(Arc::clone(&ctx), Vec::new(), 1));
    drop(setup);
    pipeline.run().expect("pipeline executes");
    let (run, trace) = ctx.take_run_traced();
    gpf_trace::set_enabled(false);
    assert!(run.num_stages() >= 1, "derived job has stages");
    assert!(!trace.events.is_empty(), "trace captured events");
    (chrome_trace(&trace), run)
}

#[test]
fn chrome_export_is_byte_identical_under_mock_clock() {
    let (first, _) = traced_run(false);
    let (second, _) = traced_run(false);
    assert_eq!(first, second, "trace shape must be deterministic under MockClock");
    let events = validate_chrome_trace(&first).expect("export passes the schema check");
    assert!(events > 0, "export is non-trivial");
    // Topo order is visible in the export: processes begin in dependency
    // order regardless of add order.
    let order: Vec<usize> = ["proc:first", "proc:second", "proc:third"]
        .iter()
        .map(|n| first.find(n).expect("scheduler span present"))
        .collect();
    assert!(order[0] < order[1] && order[1] < order[2], "{order:?}");
}

/// An application span opened on the context's log shares the session
/// trace: it is exported beside the engine's events, the export stays
/// byte-identical across runs, and the job derived from the same events is
/// the one derived without it.
#[test]
fn an_application_span_joins_the_session_log() {
    let (first, run) = traced_run(true);
    let (second, _) = traced_run(true);
    assert_eq!(first, second, "the export stays deterministic with an application span");
    validate_chrome_trace(&first).expect("export passes the schema check");
    assert!(first.contains("setup:graph"), "the application span is in the export");
    let (plain, plain_run) = traced_run(false);
    assert!(!plain.contains("setup:graph"));
    assert_eq!(run.num_stages(), plain_run.num_stages(), "stage count");
    assert_eq!(run.total_shuffle_bytes(), plain_run.total_shuffle_bytes(), "shuffle bytes");
    assert!(run.total_shuffle_bytes() > 0, "the pipeline shuffles");
}
