//! The pipeline-level semantic gates: recovery, the memory budget and the
//! skew split, as plain tests.
//!
//! Each holds a mechanism to what it promises on a whole workload rather
//! than on one operator — the engine-level batteries
//! (`gpf-engine/tests/{chaos,budget,skew}.rs`) pin the same mechanisms per
//! operator. None of them reads a clock: every quantity asserted here is a
//! byte string or a count that repeats exactly from run to run, which is
//! why these are tests and not benchmark steps. Speed is defended
//! elsewhere, by `benchmark/` against the parent commit.
//!
//! The two WGS gates share one workload, `WgsWorkload::build(0.05, 2018)`
//! (24 calls, 430 serialized bytes), and one fault-free run of it.

use gpf_bench::workload::{GpfRun, SkewedWorkload, WgsWorkload};
use gpf_compress::serializer::{serialize_batch, SerializerKind};
use gpf_engine::{EngineConfig, FaultPlan, JobRun};
use gpf_support::rng::SplitMix64;
use gpf_trace::names as tn;
use std::sync::OnceLock;

fn workload() -> &'static WgsWorkload {
    static W: OnceLock<WgsWorkload> = OnceLock::new();
    W.get_or_init(|| WgsWorkload::build(0.05, 2018))
}

fn config() -> EngineConfig {
    EngineConfig::gpf().with_parallelism(workload().fastq_parts)
}

fn call_bytes(run: &GpfRun) -> Vec<u8> {
    serialize_batch(SerializerKind::Gpf, &run.calls)
}

/// The calls of the fault-free, unbudgeted run, serialized.
fn fault_free_calls() -> &'static [u8] {
    static CALLS: OnceLock<Vec<u8>> = OnceLock::new();
    CALLS.get_or_init(|| {
        let run = workload().run_gpf(true);
        assert!(run.calls.len() >= 20, "the workload must call variants: {}", run.calls.len());
        call_bytes(&run)
    })
}

/// Recovery events of one kind in this run's own session trace. The global
/// `fault.*` counters count the same events, but across every test of the
/// process; the trace belongs to the run.
fn recovery_events(run: &GpfRun, name: &str) -> u64 {
    run.trace.events.iter().filter(|e| &*e.name == name).filter_map(|e| e.counter("n")).sum()
}

#[test]
fn seeded_fault_plans_recover_byte_identical_calls() {
    const SEED: u64 = 2018;
    const RATE_PERMILLE: u32 = 25;
    for k in 0..3 {
        let plan_seed = SplitMix64::mix(SEED, k);
        let cfg = config().with_faults(FaultPlan::seeded(plan_seed, RATE_PERMILLE));
        let run = workload()
            .run_gpf_cfg(true, cfg)
            .unwrap_or_else(|e| panic!("plan {k} (seed {plan_seed}): in-budget faults must recover: {e}"));
        assert!(
            call_bytes(&run) == fault_free_calls(),
            "plan {k} (seed {plan_seed}): calls diverged from the fault-free run"
        );
        // A plan under which nothing fired recovered from nothing.
        for name in [tn::FAULT_INJECTED, tn::TASK_RETRIES, tn::SHUFFLE_RECOMPUTED] {
            assert!(recovery_events(&run, name) > 0, "plan {k} (seed {plan_seed}): no {name}");
        }
    }
}

#[test]
fn memory_budgets_complete_byte_identical_within_the_ledger() {
    /// Driver-side buffers the ledger does not track.
    const SLACK_BYTES: u64 = 64 * 1024;
    let spilled = || gpf_trace::counter(tn::MEM_BUDGET_SPILLED).get();

    // An accountant that never refuses measures the materialized footprint.
    let unbudgeted = workload().run_gpf_cfg(true, config().with_memory_budget(u64::MAX)).unwrap();
    let materialized = unbudgeted.ledger_peak_bytes.unwrap();
    assert!(materialized > 0, "the accountant recorded no footprint");
    assert!(call_bytes(&unbudgeted) == fault_free_calls(), "an accountant alone moved the calls");

    for denom in [2u64, 4, 8] {
        let budget = materialized / denom;
        // No other test of this binary sets a budget, so the global
        // counter's delta is this run's spills.
        let spilled_before = spilled();
        let run = workload()
            .run_gpf_cfg(true, config().with_memory_budget(budget))
            .unwrap_or_else(|e| panic!("1/{denom} of the footprint ({budget} bytes): {e}"));
        assert!(
            call_bytes(&run) == fault_free_calls(),
            "1/{denom} of the footprint: calls diverged from the unbudgeted run"
        );
        let peak = run.ledger_peak_bytes.unwrap();
        assert!(
            peak <= budget + SLACK_BYTES,
            "1/{denom} of the footprint: ledger peak {peak} > budget {budget} + {SLACK_BYTES}"
        );
        assert!(spilled() > spilled_before, "1/{denom} of the footprint fit without a spill");
    }
}

/// Straggler tail of the compute stage — the last recorded one: shuffle
/// read plus the fused pileup op — as the largest task's shuffle-read bytes
/// over the median task's. A task's input bytes are its partition's depth,
/// the load the split is meant to level, and unlike its CPU time they are
/// the same on every run.
fn read_tail(run: &JobRun) -> f64 {
    let mut bytes = run.stages.last().unwrap().shuffle_read_bytes.clone();
    bytes.sort_unstable();
    *bytes.last().unwrap() as f64 / bytes[bytes.len() / 2].max(1) as f64
}

#[test]
fn adaptive_split_cuts_the_straggler_tail_and_preserves_output() {
    let w = SkewedWorkload::build(0.2, 0x5e_2018);
    let unsplit = w.run(false);
    let adaptive = w.run(true);
    assert!(adaptive.canonical == unsplit.canonical, "the split must change placement only");
    assert!(adaptive.splits >= 1, "the hotspot must split");
    // 102.0 -> 11.05 on this shape; 8.6-10.5x on other (scale, seed) pairs.
    let (before, after) = (read_tail(&unsplit.run), read_tail(&adaptive.run));
    assert!(before >= 5.0 * after, "tail {before:.2} -> {after:.2}: less than a 5x cut");
}
