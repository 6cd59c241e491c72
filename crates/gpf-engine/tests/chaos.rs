//! Chaos tests: the fault-tolerance layer's headline invariant is that any
//! injected fault schedule within the retry budget leaves pipeline output
//! **identical to the fault-free run** — recovery may cost time, never
//! correctness. Property tests drive seeded `FaultPlan`s over a
//! map → disk barrier → shuffle → map job (failing cases print a
//! `GPF_PROPTEST_REPLAY` seed); directed tests pin each recovery mechanism
//! (retry, lineage recompute for corrupt buckets — the disk barrier's
//! "files" included — the bounded re-read of a damaged spill read, budget
//! exhaustion) and the MockClock determinism of the whole trace. No test
//! here depends on wall time.

use gpf_engine::{
    Dataset, EngineConfig, EngineContext, Failure, FaultKind, FaultPlan, FaultSite,
};
use gpf_support::proptest::prelude::*;
use std::sync::Arc;

fn plain_ctx() -> Arc<EngineContext> {
    EngineContext::new(EngineConfig::default().with_parallelism(4))
}

fn chaos_ctx(plan: FaultPlan) -> Arc<EngineContext> {
    EngineContext::new(EngineConfig::default().with_parallelism(4).with_faults(plan))
}

/// The job every chaos-identity check runs: narrow map → disk barrier →
/// consuming shuffle → narrow map, touching every fault surface. Returns
/// the final per-partition layout so identity checks cover placement, not
/// just multiset equality.
fn job(ctx: &Arc<EngineContext>, data: &[(u64, u64)], parts: usize, nparts: usize) -> Vec<Vec<(u64, u64)>> {
    let d = Dataset::from_vec(Arc::clone(ctx), data.to_vec(), parts);
    let out = d
        .map(|kv| (kv.0, kv.1.wrapping_mul(3)))
        .barrier_via_disk("spill")
        .into_partition_by(nparts, move |kv| (kv.0 % nparts as u64) as usize)
        .map(|kv| (kv.0, kv.1 ^ 0xa5))
        ;
    (0..out.num_partitions()).map(|i| out.partition(i).to_vec()).collect()
}

fn counter(name: &str) -> u64 {
    gpf_trace::counters_snapshot()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Headline invariant: any seeded fault schedule (rate-based plans only
    /// inject on first attempts, so they always sit inside the retry
    /// budget) produces partition-identical output to the fault-free run,
    /// with no terminal failure.
    #[test]
    fn chaos_schedules_within_budget_preserve_output(
        data in proptest::collection::vec((0u64..40, any::<u64>()), 0..250),
        parts in 1usize..6,
        nparts in 1usize..6,
        seed in any::<u64>(),
        rate in 0u32..200,
    ) {
        let base_ctx = plain_ctx();
        let baseline = job(&base_ctx, &data, parts, nparts);

        let ctx = chaos_ctx(FaultPlan::seeded(seed, rate));
        let chaotic = job(&ctx, &data, parts, nparts);

        prop_assert!(
            ctx.take_failure().is_none(),
            "in-budget schedule must not fail terminally (fault seed 0x{:x}, rate {}‰)",
            seed,
            rate
        );
        prop_assert_eq!(
            chaotic,
            baseline,
            "fault seed 0x{:x} rate {}‰ changed the output",
            seed,
            rate
        );
    }
}

#[test]
fn exhausted_retry_budget_surfaces_structured_error() {
    // Panics on every attempt of (stage 0, partition 1) defeat the budget.
    let sites = (0..=3)
        .map(|a| FaultSite { stage: 0, partition: 1, attempt: a, kind: FaultKind::TaskPanic })
        .collect();
    let ctx = chaos_ctx(FaultPlan::explicit(sites));
    let d = Dataset::from_vec(Arc::clone(&ctx), (0u64..64).collect(), 4);
    let out = d.map(|x| x + 1);
    // The failed op degrades to an empty dataset (partition count kept) so
    // downstream short-circuits instead of panicking.
    assert_eq!(out.num_partitions(), 4);
    assert!(out.is_empty());
    // Downstream ops while the failure is pending stay inert (no new tasks
    // run, so the deterministic plan cannot re-fire).
    let again = out.map(|x| x * 2);
    assert!(again.is_empty());
    let Some(Failure::Task(err)) = ctx.take_failure() else {
        panic!("budget exhaustion records a task failure");
    };
    assert_eq!(err.label, "map");
    assert_eq!(err.stage, 0);
    assert_eq!(err.partition, 1);
    assert_eq!(err.attempts.len(), 4, "1 + max_task_retries attempts recorded");
    for (i, a) in err.attempts.iter().enumerate() {
        assert_eq!(a.attempt, i as u32);
        assert!(a.cause.contains("injected"), "{}", a.cause);
    }
    assert!(ctx.take_failure().is_none(), "failure is taken exactly once");
}

#[test]
fn injected_panics_within_budget_recover_with_identical_output() {
    // One panic on the first attempt of two different tasks: both retry
    // once and succeed.
    let sites = vec![
        FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::TaskPanic },
        FaultSite { stage: 0, partition: 2, attempt: 0, kind: FaultKind::TaskPanic },
    ];
    let retries0 = counter("task.retries");
    let injected0 = counter("fault.injected");
    let ctx = chaos_ctx(FaultPlan::explicit(sites));
    let d = Dataset::from_vec(Arc::clone(&ctx), (0u64..64).collect(), 4);
    let out = d.map(|x| x * 7).collect_local();
    assert_eq!(out, (0u64..64).map(|x| x * 7).collect::<Vec<_>>());
    assert!(ctx.take_failure().is_none());
    assert!(counter("task.retries") >= retries0 + 2, "both tasks record a retry");
    assert!(counter("fault.injected") >= injected0 + 2, "both injections counted");
}

#[test]
fn real_panics_are_caught_and_retried() {
    // A genuinely panicking closure (not an injected fault): first call
    // panics, the retry succeeds. The panic must be captured as an attempt
    // cause, never propagate.
    use std::sync::atomic::{AtomicU32, Ordering};
    let calls = AtomicU32::new(0);
    let ctx = chaos_ctx(FaultPlan::seeded(0, 0));
    let d = Dataset::from_vec(Arc::clone(&ctx), (0u64..8).collect(), 1);
    let out = d
        .map_partitions(|p| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky task");
            }
            p.iter().map(|x| x + 1).collect()
        })
        .collect_local();
    assert_eq!(out, (1u64..9).collect::<Vec<_>>());
    assert!(ctx.take_failure().is_none());
    assert_eq!(calls.load(Ordering::SeqCst), 2, "one panic + one clean retry");
}

#[test]
fn corrupt_shuffle_bucket_recomputes_from_lineage() {
    let data: Vec<(u64, u64)> = (0u64..200).map(|i| (i % 13, i)).collect();
    let route = |kv: &(u64, u64)| (kv.0 % 5) as usize;
    let baseline = {
        let ctx = plain_ctx();
        let d = Dataset::from_vec(Arc::clone(&ctx), data.clone(), 4);
        let p = d.clone().into_partition_by(5, route);
        (0..5).map(|i| p.partition(i).to_vec()).collect::<Vec<_>>()
    };
    let recomputed0 = counter("shuffle.recomputed");
    let sites = vec![
        FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::CorruptBucket },
        FaultSite { stage: 0, partition: 3, attempt: 0, kind: FaultKind::CorruptBucket },
    ];
    let ctx = chaos_ctx(FaultPlan::explicit(sites));
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 4);
    let p = d.clone().into_partition_by(5, route);
    let chaotic = (0..5).map(|i| p.partition(i).to_vec()).collect::<Vec<_>>();
    assert_eq!(chaotic, baseline, "recomputed buckets must be byte-identical");
    assert!(ctx.take_failure().is_none());
    assert!(
        counter("shuffle.recomputed") >= recomputed0 + 2,
        "both corrupted buckets trigger a lineage recompute"
    );
}

/// The disk barrier's "files" are its buckets: one damaged file is
/// recomputed from the barrier's input, and only that partition.
#[test]
fn corrupt_barrier_file_recomputes_partition() {
    let data: Vec<u64> = (0u64..120).collect();
    let baseline = {
        let ctx = plain_ctx();
        Dataset::from_vec(Arc::clone(&ctx), data.clone(), 3)
            .barrier_via_disk("checkpoint")
            .collect_local()
    };
    let sites =
        vec![FaultSite { stage: 0, partition: 1, attempt: 0, kind: FaultKind::CorruptBucket }];
    let ctx = chaos_ctx(FaultPlan::explicit(sites));
    let back =
        Dataset::from_vec(Arc::clone(&ctx), data, 3).barrier_via_disk("checkpoint").collect_local();
    assert_eq!(back, baseline);
    assert!(ctx.take_failure().is_none());
    let (_, trace) = ctx.take_run_traced();
    let parts = |name: &str| -> Vec<Option<u64>> {
        trace.events.iter().filter(|e| &*e.name == name).map(|e| e.counter("part")).collect()
    };
    assert_eq!(parts("fault.injected"), vec![Some(1)], "the damaged file");
    assert_eq!(parts("shuffle.recomputed"), vec![Some(1)], "exactly the damaged partition is recomputed");
}

#[test]
fn damaged_spill_reads_recover_byte_identically() {
    let data: Vec<(u64, u64)> = (0..900u64).map(|i| (i % 17, i.wrapping_mul(0x9e37_79b9))).collect();
    let run = |ctx: &Arc<EngineContext>| {
        let d = Dataset::from_vec(Arc::clone(ctx), data.clone(), 3).evictable();
        let spilled = d.spilled_partitions();
        // Whole-partition op: every spilled input partition must be
        // restored, frame by checksummed frame.
        let out = d.map(|kv| (kv.0, kv.1 ^ 0x5a)).map_partitions(|p| p.to_vec());
        let parts = (0..out.num_partitions()).map(|i| out.partition(i).to_vec()).collect::<Vec<_>>();
        (spilled, parts)
    };
    let (_, baseline) = run(&plain_ctx());
    // Damage the first two read attempts at every conceivable spill-read
    // site (explicit sites only fire on their kind's surface, so blanketing
    // stages is safe); the third attempt reads the pristine frame.
    let mut sites = Vec::new();
    for stage in 0..6u32 {
        for partition in 0..3u32 {
            sites.push(FaultSite { stage, partition, attempt: 0, kind: FaultKind::CorruptSpillRead });
            sites.push(FaultSite { stage, partition, attempt: 1, kind: FaultKind::TruncateSpill });
        }
    }
    let injected0 = counter("fault.injected");
    // A budget around one partition's footprint forces the evictable input
    // to spill at build time while keeping single-partition restores
    // feasible.
    let ctx = EngineContext::new(
        EngineConfig::default()
            .with_parallelism(4)
            .with_memory_budget(8 * 1024)
            .with_faults(FaultPlan::explicit(sites)),
    );
    let (spilled, chaotic) = run(&ctx);
    assert!(spilled > 0, "the budget must actually force spills");
    assert_eq!(chaotic, baseline, "checksummed re-reads must recover byte-identically");
    assert_eq!(ctx.take_failure(), None, "read-back damage is never terminal and a feasible budget never breaches");
    assert!(
        counter("fault.injected") >= injected0 + 2,
        "corrupt and truncated read-backs must both have fired"
    );
}

/// Barrier battery: `barrier_via_disk` output ≡ input, partition for
/// partition, for every serializer × partition sizes straddling the spill
/// frame boundary × {faults off, a damaged file, the two read-side
/// damages} × {no budget, a budget that spills every output partition}.
/// Each faulted cell reads its own run's trace: a damaged file fires and is
/// recomputed in every non-empty partition. Read-side damage has frames to
/// hit only where the budget spilled the output: there every frame's first
/// read is damaged and re-read, and without a budget it never fires.
#[test]
fn barrier_round_trips_every_serializer_size_fault_and_budget() {
    const SIZES: [usize; 6] = [0, 1, 1023, 1024, 1025, 3000];
    /// Spill frames of 1,024 records across `SIZES`.
    const FRAMES: u64 = 8;
    type Rec = (u64, String);
    let input: Vec<Vec<Rec>> = SIZES
        .iter()
        .enumerate()
        .map(|(p, &n)| {
            (0..n as u64).map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20, format!("p{p}r{i}"))).collect()
        })
        .collect();
    let want: Vec<Rec> = input.concat();
    // Explicit sites only fire on their kind's surface, so blanketing the
    // write stage (0) and the read stage (1) is safe.
    let blanket = |kind: FaultKind| -> Vec<FaultSite> {
        (0..2u32)
            .flat_map(|stage| {
                (0..SIZES.len() as u32).map(move |partition| FaultSite { stage, partition, attempt: 0, kind })
            })
            .collect()
    };
    let modes: [(&str, Option<FaultKind>); 4] = [
        ("faults off", None),
        ("CorruptBucket", Some(FaultKind::CorruptBucket)),
        ("CorruptSpillRead", Some(FaultKind::CorruptSpillRead)),
        ("TruncateSpill", Some(FaultKind::TruncateSpill)),
    ];
    for base in [EngineConfig::gpf(), EngineConfig::kryo(), EngineConfig::java()] {
        for (mode, kind) in modes {
            for budget in [None, Some(1u64)] {
                let cell = format!("{:?}, {mode}, budget {budget:?}", base.serializer);
                let mut cfg = base.clone().with_parallelism(4);
                if let Some(kind) = kind {
                    cfg = cfg.with_faults(FaultPlan::explicit(blanket(kind)));
                }
                if let Some(bytes) = budget {
                    cfg = cfg.with_memory_budget(bytes);
                }
                let ctx = EngineContext::new(cfg);
                let out = Dataset::from_partitions(Arc::clone(&ctx), input.clone()).barrier_via_disk("frames");
                assert_eq!(out.partition_sizes(), SIZES, "[{cell}] partition layout");
                if budget.is_some() {
                    assert_eq!(out.spilled_partitions(), SIZES.len(), "[{cell}] every output partition spills");
                }
                // One streamed concatenation: feasible under any budget.
                let read0 = counter("fault.injected");
                assert!(out.collect_local() == want, "[{cell}] records diverged from the input");
                let read_damage = counter("fault.injected") - read0;
                assert_eq!(ctx.take_failure(), None, "[{cell}] damage is never terminal and streaming never breaches");
                let (_, trace) = ctx.take_run_traced();
                let seen = |name: &str, part: usize| {
                    trace.events.iter().any(|e| &*e.name == name && e.counter("part") == Some(part as u64))
                };
                let damaged_file = kind == Some(FaultKind::CorruptBucket);
                for (p, _) in SIZES.iter().enumerate().filter(|(_, &n)| n > 0) {
                    assert_eq!(seen("fault.injected", p), damaged_file, "[{cell}] partition {p} injection");
                    assert_eq!(seen("shuffle.recomputed", p), damaged_file, "[{cell}] partition {p} recompute");
                }
                if kind.is_some() && !damaged_file && budget.is_some() {
                    // The store's re-reads count in the registry, not the
                    // run's trace; other tests only ever add to it.
                    assert!(read_damage >= FRAMES, "[{cell}] {read_damage} damaged reads of {FRAMES} frames");
                }
            }
        }
    }
}

/// One full traced chaos run under a fresh MockClock: single-partition
/// datasets keep every clock read on the mocked thread (multi-partition par
/// ops would read the real clock from workers), and the explicit sites
/// exercise a retry, a damaged barrier file's recompute, and a bucket
/// recompute.
fn traced_chaos_run(seed: u64) -> String {
    use gpf_trace::clock::MockClock;
    use gpf_trace::sink::chrome_trace;
    gpf_trace::set_enabled(true);
    let _clock = MockClock::install(1_000, 7);
    let mut plan = FaultPlan::seeded(seed, 0);
    plan.sites = vec![
        FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::TaskPanic },
        FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::CorruptBucket },
        FaultSite { stage: 1, partition: 0, attempt: 0, kind: FaultKind::CorruptBucket },
    ];
    let ctx = chaos_ctx(plan);
    let data: Vec<(u64, u64)> = (0u64..40).map(|i| (i % 7, i)).collect();
    let parts = job(&ctx, &data, 1, 1);
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].len(), 40);
    assert!(ctx.take_failure().is_none());
    let (_, trace) = ctx.take_run_traced();
    gpf_trace::set_enabled(false);
    assert!(!trace.events.is_empty());
    chrome_trace(&trace)
}

#[test]
fn chaos_trace_is_byte_identical_under_mock_clock() {
    let first = traced_chaos_run(0x2018);
    let second = traced_chaos_run(0x2018);
    assert_eq!(first, second, "same FaultPlan seed must replay the same trace bytes");
    // Recovery events are part of the recorded timeline.
    assert!(first.contains("fault.injected"), "injections recorded in the trace");
    assert!(first.contains("task.retries"), "retries recorded in the trace");
    assert!(first.contains("shuffle.recomputed"), "recomputes recorded in the trace");
}

#[test]
fn fault_free_chaos_config_changes_nothing() {
    // Faults configured but a plan that injects nothing: output and layout
    // must match the plain engine exactly (checksums are on, recovery never
    // fires).
    let data: Vec<(u64, u64)> = (0u64..150).map(|i| (i % 9, i * i)).collect();
    let baseline = job(&plain_ctx(), &data, 4, 3);
    let ctx = chaos_ctx(FaultPlan::seeded(1, 0));
    let quiet = job(&ctx, &data, 4, 3);
    assert_eq!(quiet, baseline);
    assert!(ctx.take_failure().is_none());
}
