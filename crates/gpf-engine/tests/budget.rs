//! Bounded-memory streaming: the headline invariant is that any memory
//! budget admitting a feasible schedule yields output **byte-identical**
//! to the unbudgeted run — degradation (spill, streamed maps, recompute)
//! may cost time, never correctness. The property test sweeps budgets at
//! 1/2, 1/4 and 1/8 of the materialized size crossed with seeded fault
//! plans and split-table routing on/off; directed tests pin ledger-peak
//! bounding, infeasible-budget structured errors, and the breach message.

use gpf_compress::{ByteReader, ByteWriter, CodecError, GpfSerialize};
use gpf_engine::{Dataset, EngineConfig, EngineContext, Failure, FaultPlan};
use gpf_support::par;
use gpf_support::proptest::prelude::*;
use gpf_trace::names as tn;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Approximate materialized footprint of the input: the record payload is
/// what the accountant charges (16 bytes per `(u64, u64)`), and the exact
/// per-`Vec` overhead does not matter for picking budget fractions.
fn materialized_bytes(data: &[(u64, u64)]) -> u64 {
    (data.len() as u64 * 16).max(64)
}

/// The job every identity check runs: evictable input → streamed narrow
/// ops → shuffle (optionally through a split table). Read-back streams
/// tracked partitions, so it is feasible under any budget; layout identity
/// is `partition_sizes` + the concatenated stream.
fn job(
    ctx: &Arc<EngineContext>,
    data: &[(u64, u64)],
    parts: usize,
    nparts: usize,
    split: bool,
) -> (Vec<usize>, Vec<(u64, u64)>) {
    let d = Dataset::from_vec(Arc::clone(ctx), data.to_vec(), parts).evictable();
    let m = d.map(|kv| (kv.0, kv.1.rotate_left(7))).filter(|kv| kv.1 % 97 != 0);
    // Deterministic split table: base 0 splits by value parity into one
    // extra final partition. The same table drives the unbudgeted baseline.
    let out = m.into_partition_by(nparts + split as usize, move |kv: &(u64, u64)| {
        let base = (kv.0 % nparts as u64) as usize;
        if split && base == 0 && kv.1 & 1 == 1 {
            nparts
        } else {
            base
        }
    });
    (out.partition_sizes(), out.collect_local())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Headline invariant: budgets at 1/2, 1/4 and 1/8 of the materialized
    /// input size — crossed with seeded fault plans and split-table routing —
    /// produce output identical to the unbudgeted, fault-free run, with no
    /// terminal failure and no breach (every stage of this job streams, so
    /// every budget fraction is feasible).
    #[test]
    fn budgeted_runs_are_byte_identical(
        data in proptest::collection::vec((0u64..40, any::<u64>()), 1..300),
        parts in 1usize..5,
        nparts in 1usize..5,
        seed in any::<u64>(),
        rate in 0u32..150,
        knobs in 0usize..6,
    ) {
        let denom_idx = knobs % 3;
        let split = knobs >= 3;
        let baseline = {
            let ctx = EngineContext::new(EngineConfig::default().with_parallelism(4));
            job(&ctx, &data, parts, nparts, split)
        };
        let denom = [2u64, 4, 8][denom_idx];
        let budget = (materialized_bytes(&data) / denom).max(1);
        let ctx = EngineContext::new(
            EngineConfig::default()
                .with_parallelism(4)
                .with_memory_budget(budget)
                .with_faults(FaultPlan::seeded(seed, rate)),
        );
        let budgeted = job(&ctx, &data, parts, nparts, split);
        prop_assert_eq!(budgeted, baseline, "budget {} must not change output", budget);
        prop_assert_eq!(ctx.take_failure(), None, "degradation is never terminal and streaming schedules never breach");
    }
}

/// Ledger discipline: a budget an eighth of the materialized size forces
/// spills, and the accountant's peak never exceeds the budget (checked
/// exactly — the +64 KiB slack of the bench gate covers driver-side
/// buffers the ledger does not track, not accountant overshoot).
#[test]
fn ledger_peak_stays_within_budget_and_spills_happen() {
    let data: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % 23, i.wrapping_mul(0x2545f491))).collect();
    let budget = materialized_bytes(&data) / 8;
    let ctx = EngineContext::new(
        EngineConfig::default().with_parallelism(4).with_memory_budget(budget),
    );
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 8).evictable();
    assert!(d.spilled_partitions() > 0, "budget/8 must force spills at build");
    let out = d.map(|kv| (kv.0, kv.1 ^ 0xff)).into_partition_by(4, |kv| (kv.0 % 4) as usize);
    let _ = out.collect_local();
    let acct = ctx.accountant().expect("budget installs an accountant");
    assert!(
        acct.peak() <= budget,
        "ledger peak {} exceeds budget {}",
        acct.peak(),
        budget
    );
    assert_eq!(ctx.take_failure(), None);
}

/// Infeasible budgets surface as a clean structured breach naming the
/// operator and both byte figures — never a panic, never a partial
/// result silently presented as complete.
#[test]
fn infeasible_budget_breaches_cleanly_with_pinned_message() {
    let data: Vec<(u64, u64)> = (0..2000u64).map(|i| (i, i)).collect();
    let budget = 256u64; // far below any single partition
    let ctx = EngineContext::new(
        EngineConfig::default().with_parallelism(4).with_memory_budget(budget),
    );
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 2).evictable();
    // A whole-partition operator needs one partition resident: infeasible.
    let out = d.map_partitions(|p| p.to_vec());
    assert_eq!(out.partition_sizes().iter().sum::<usize>(), 0, "breached run yields empty output");
    let Some(Failure::Budget(breach)) = ctx.take_failure() else {
        panic!("infeasible restore records a breach");
    };
    assert_eq!(breach.operator, "mapPartitions");
    assert_eq!(breach.budget, budget);
    assert!(breach.requested > budget);
    let text = breach.to_string();
    assert!(
        text.contains("memory budget exceeded in operator `mapPartitions`"),
        "{text}"
    );
    assert!(text.contains(&format!("budget {budget} bytes")), "{text}");
    assert!(text.contains(&format!("requested {} bytes", breach.requested)), "{text}");
}

/// The ledger charge of one of `parts` equal partitions of `data`, read off
/// an accountant that never refuses.
fn one_partition_charge(data: &[(u64, u64)], parts: usize) -> u64 {
    let ctx = EngineContext::new(EngineConfig::default().with_memory_budget(u64::MAX));
    let d = Dataset::from_vec(Arc::clone(&ctx), data.to_vec(), parts).evictable();
    assert_eq!(d.spilled_partitions(), 0);
    ctx.accountant().expect("budget installs an accountant").peak() / parts as u64
}

/// Under a budget, a whole-partition stage over evicted partitions runs
/// in the parallel wave like any other stage: no task runs on the calling
/// thread. The budget fits all four restores at once, so none is re-run.
#[test]
fn budgeted_whole_partition_stage_runs_in_the_parallel_wave() {
    if par::max_threads() < 2 {
        return;
    }
    let data: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % 31, i.wrapping_mul(0x9E37_79B9))).collect();
    let one = one_partition_charge(&data, 4);
    let ctx = EngineContext::new(EngineConfig::default().with_memory_budget(4 * one + 64));
    let d = Dataset::from_vec(Arc::clone(&ctx), data.clone(), 4).evictable();
    // A second dataset as large evicts the first to make room, so the
    // stage below restores every partition.
    let other = Dataset::from_vec(Arc::clone(&ctx), data.clone(), 4).evictable();
    assert_eq!(d.spilled_partitions(), 4);
    let caller = thread::current().id();
    let ran_on: Mutex<Vec<thread::ThreadId>> = Mutex::new(Vec::new());
    let out = d.map_partitions(|p| {
        ran_on.lock().unwrap().push(thread::current().id());
        p.iter().map(|kv| (kv.0, kv.1 ^ 0xff)).collect()
    });
    assert_eq!(ctx.take_failure(), None);
    let want: Vec<(u64, u64)> = data.iter().map(|kv| (kv.0, kv.1 ^ 0xff)).collect();
    assert_eq!(out.collect_local(), want);
    let ran_on = ran_on.into_inner().unwrap();
    assert_eq!(ran_on.len(), 4);
    assert!(!ran_on.contains(&caller), "a budgeted whole-partition task ran on the calling thread");
    // Held through the stage: its partitions are what the restores evict.
    drop(other);
}

/// A budget that fits one partition's restore but not two: the wave's
/// restores meet each other's pins and breach, and each breached task is
/// re-run alone after the wave, so the stage finishes with the unbudgeted
/// output and no failure. A task on a worker holds its pin until some
/// restore has breached: only one partition fits, so whichever task pins
/// first, the next restore on another worker breaches against it. (The
/// counter is process-wide, so another test's breach can only end the wait
/// early; the re-runs run on the calling thread and never wait.)
#[test]
fn restores_that_meet_another_tasks_pin_are_re_run_alone() {
    let data: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % 31, i.wrapping_mul(0x2545_f491))).collect();
    let one = one_partition_charge(&data, 4);
    let ctx = EngineContext::new(EngineConfig::default().with_memory_budget(one + one / 2));
    let d = Dataset::from_vec(Arc::clone(&ctx), data.clone(), 4).evictable();
    assert_eq!(d.spilled_partitions(), 3);
    let breaches = || gpf_trace::counter(tn::MEM_BUDGET_BREACH).get();
    let before = breaches();
    let caller = thread::current().id();
    let out = d.map_partitions_with_index(|_, p| {
        while thread::current().id() != caller && breaches() == before {
            thread::yield_now();
        }
        p.iter().map(|kv| (kv.1, kv.0)).collect()
    });
    assert_eq!(ctx.take_failure(), None, "a restore that fits alone never fails the stage");
    let want: Vec<(u64, u64)> = data.iter().map(|kv| (kv.1, kv.0)).collect();
    assert_eq!(out.collect_local(), want);
    if par::max_threads() >= 2 {
        assert!(breaches() > before, "the wave's restores must have met a pin");
    }
    let acct = ctx.accountant().expect("budget installs an accountant");
    assert!(acct.peak() <= one + one / 2);
}

/// A consuming zip whose left input is the last handle to a tracked store
/// and whose right input is a shared tracked dataset, under a budget of a
/// quarter of both inputs' footprint: one left and one right partition fit
/// at once, two right partitions do not. The wave's restores meet each
/// other's pins and breach (on whichever side a task reaches first), and
/// each breached task is re-run alone after the wave, where it must still
/// find its left partition. The output equals the unbudgeted run's under
/// every serializer.
#[test]
fn a_zip_re_run_after_a_breach_still_finds_its_sole_owned_partition() {
    let left: Vec<(u64, u64)> = (0..800u64).map(|i| (i, i.wrapping_mul(0x9E37_79B9))).collect();
    let right: Vec<(u64, u64)> = (0..2400u64).map(|i| (i % 97, i ^ 0x5a5a)).collect();
    let (l, r) = (one_partition_charge(&left, 4), one_partition_charge(&right, 4));
    let breaches = || gpf_trace::counter(tn::MEM_BUDGET_BREACH).get();
    let caller = thread::current().id();
    let zip = |ctx: &Arc<EngineContext>| {
        // The right input first: the left one then has resident partitions
        // and a spilled one to hand over.
        let shared = Dataset::from_vec(Arc::clone(ctx), right.clone(), 4).evictable();
        let keep = shared.clone();
        let owned = Dataset::from_vec(Arc::clone(ctx), left.clone(), 4).evictable();
        let before = breaches();
        let out = owned.into_zip_partitions(shared, |_, l, r| {
            // A task on a worker holds its pins until some restore has
            // breached against them; the re-runs run on the calling thread.
            while ctx.accountant().is_some() && thread::current().id() != caller && breaches() == before {
                thread::yield_now();
            }
            l.into_iter().chain(r).collect::<Vec<(u64, u64)>>()
        });
        assert_eq!(keep.len(), right.len(), "the shared input keeps its records");
        (out.partition_sizes(), out.collect_local(), breaches() > before)
    };
    for base in [EngineConfig::gpf(), EngineConfig::kryo(), EngineConfig::java()] {
        let kind = base.serializer;
        let (want_sizes, want, _) = zip(&EngineContext::new(base.clone()));
        let ctx = EngineContext::new(base.with_memory_budget(l + r));
        let (sizes, got, breached) = zip(&ctx);
        assert_eq!(ctx.take_failure(), None, "{kind:?}: a task that fits alone never fails the stage");
        assert_eq!(sizes, want_sizes, "{kind:?}");
        assert!(got == want, "{kind:?}: the budgeted zip diverged from the unbudgeted one");
        if par::max_threads() >= 2 {
            assert!(breached, "{kind:?}: the wave's restores must have met a pin");
        }
        let acct = ctx.accountant().expect("budget installs an accountant");
        assert!(acct.peak() <= l + r, "{kind:?}: ledger peak {} over budget {}", acct.peak(), l + r);
    }
}

/// Clones of [`Tallied`] records, process-wide: only
/// `consuming_a_sole_owned_tracked_input_clones_no_record` makes them.
static CLONES: AtomicUsize = AtomicUsize::new(0);

/// A record that counts its own clones, decoded copies included.
struct Tallied(u64);

impl Clone for Tallied {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::SeqCst);
        Tallied(self.0)
    }
}

impl GpfSerialize for Tallied {
    fn write(&self, w: &mut ByteWriter) {
        w.write_u64(self.0);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Tallied(r.read_u64()?))
    }
}

/// Every consuming operator, and the shuffle, over a tracked input that is
/// the last handle to its store clones no record under a quarter budget:
/// the resident partition moves out of its slot and the spilled ones are
/// decoded straight into the task's vector. A second handle on the input
/// still costs one clone per record.
#[test]
fn consuming_a_sole_owned_tracked_input_clones_no_record() {
    const RECORDS: usize = 400;
    let charge = (RECORDS / 4 * std::mem::size_of::<Tallied>() + std::mem::size_of::<Vec<Tallied>>()) as u64;
    let ctx = EngineContext::new(EngineConfig::default().with_memory_budget(charge));
    let build = || Dataset::from_vec(Arc::clone(&ctx), (0..RECORDS as u64).map(Tallied).collect(), 4).evictable();
    type Op = fn(Dataset<Tallied>, Dataset<Tallied>) -> Dataset<u64>;
    let ops: [(&str, Op); 6] = [
        ("into_map", |d, _| d.into_map(|t| t.0)),
        ("into_map_indexed", |d, _| d.into_map_indexed(|_, _, t| t.0)),
        ("into_flat_map", |d, _| d.into_flat_map(|t| [t.0])),
        ("into_map_partitions", |d, _| d.into_map_partitions(|p| p.into_iter().map(|t| t.0).collect())),
        ("into_zip_partitions", |d, e| {
            d.into_zip_partitions(e, |_, l, r| l.iter().zip(&r).map(|(a, b)| a.0 + b.0).collect())
        }),
        ("into_partition_by", |d, _| d.into_partition_by(4, |t| (t.0 % 4) as usize).into_map(|t| t.0)),
    ];
    for (name, op) in ops {
        let (d, e) = (build(), build());
        assert_eq!(d.spilled_partitions(), 4, "{name}: the second input evicted the first");
        assert_eq!(e.spilled_partitions(), 3, "{name}: one partition fits");
        let before = CLONES.load(Ordering::SeqCst);
        let moved = op(d, e);
        assert_eq!(CLONES.load(Ordering::SeqCst), before, "{name}: a sole owner clones nothing");
        let (d, e) = (build(), build());
        let keep = d.clone();
        let before = CLONES.load(Ordering::SeqCst);
        let cloned = op(d, e);
        assert_eq!(CLONES.load(Ordering::SeqCst), before + RECORDS, "{name}: a shared input, one clone per record");
        assert_eq!(cloned.collect_local(), moved.collect_local(), "{name}");
        assert_eq!(keep.len(), RECORDS, "{name}: the kept handle still holds its records");
        assert_eq!(ctx.take_failure(), None, "{name}");
    }
}

/// A consuming stage over sole-owned tracked inputs takes every partition
/// without admitting one, so it evicts nothing: the run's trace records the
/// spills that building the inputs made, keyed by stage and partition, and
/// in the consuming stage no spill and one read-back (a restore) of each
/// partition that was spilled when the stage began.
#[test]
fn a_consuming_wave_spills_nothing() {
    let data: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % 29, i.wrapping_mul(0x2545_f491))).collect();
    let one = one_partition_charge(&data, 8);
    let ctx = EngineContext::new(EngineConfig::default().with_memory_budget(4 * one));
    // `(stage, partition)` of every spill and every restore in the run so
    // far, in recorded order.
    type Sites = Vec<(Option<u64>, Option<u64>)>;
    let drain = || -> (Sites, Sites) {
        let (_, trace) = ctx.take_run_traced();
        let sites = |name: &str| -> Sites {
            trace.events.iter().filter(|e| &*e.name == name).map(|e| (e.counter("stage"), e.counter("part"))).collect()
        };
        (sites(tn::MEM_BUDGET_SPILLED), sites(tn::MEM_BUDGET_RESTORED))
    };
    type Op = fn(Dataset<(u64, u64)>, Dataset<(u64, u64)>) -> Dataset<(u64, u64)>;
    let ops: [(&str, Op, usize); 2] = [
        ("into_map_partitions", |d, _| d.into_map_partitions(|p| p.into_iter().rev().collect()), 1),
        ("into_zip_partitions", |d, e| d.into_zip_partitions(e, |_, l, r| l.into_iter().chain(r).collect()), 2),
    ];
    for (name, op, inputs) in ops {
        let d = Dataset::from_vec(Arc::clone(&ctx), data.clone(), 8).evictable();
        let e = Dataset::from_vec(Arc::clone(&ctx), data.clone(), 8).evictable();
        let spilled = [d.spilled_partitions(), e.spilled_partitions()];
        assert!(spilled[0] + spilled[1] >= 8, "{name}: the inputs do not fit the budget");
        let (spills, restores) = drain();
        assert_eq!((spills.len(), restores.len()), (spilled[0] + spilled[1], 0), "{name}: the builds' spills");
        let out = op(d, e);
        let (spills, restores) = drain();
        assert_eq!(spills, Vec::new(), "{name}: the consuming wave spilled");
        let read_back: usize = spilled[..inputs].iter().sum();
        assert_eq!(restores.len(), read_back, "{name}: each spilled partition is read back once");
        assert_eq!(out.len(), inputs * data.len(), "{name}");
        assert_eq!(ctx.take_failure(), None, "{name}");
    }
}

/// A borrowed whole-partition stage over a tracked input whose partitions
/// are all spilled, under a budget of a quarter of its footprint: a second
/// input as large evicts the first and holds the only resident partitions.
/// Under every serializer the output equals the unbudgeted run's, nothing
/// fails, the ledger peak stays within the budget, and once the stage is
/// over the ledger holds exactly the stores' resident charges. No slot
/// returns to resident: the input is as spilled after the stage as before
/// it, and running the stage twice decodes each partition twice.
#[test]
fn a_borrowed_stage_over_spilled_partitions_leaves_only_resident_charges() {
    let data: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % 37, i.wrapping_mul(0x9E37_79B9))).collect();
    let one = one_partition_charge(&data, 8);
    let stage = |ctx: &Arc<EngineContext>| {
        let d = Dataset::from_vec(Arc::clone(ctx), data.clone(), 8).evictable();
        let other = Dataset::from_vec(Arc::clone(ctx), data.clone(), 8).evictable();
        if ctx.accountant().is_some() {
            assert_eq!(d.spilled_partitions(), 8, "the second input evicted the first");
        }
        drop(ctx.take_run_traced());
        let swap = |p: &[(u64, u64)]| p.iter().rev().map(|kv| (kv.1, kv.0)).collect();
        let out = d.map_partitions(swap);
        assert!(d.map_partitions(swap).collect_local() == out.collect_local(), "the second run");
        (out.partition_sizes(), out.collect_local(), d, other)
    };
    for base in [EngineConfig::gpf(), EngineConfig::kryo(), EngineConfig::java()] {
        let kind = base.serializer;
        let (want_sizes, want, _, _) = stage(&EngineContext::new(base.clone()));
        let budget = 2 * one;
        let ctx = EngineContext::new(base.with_memory_budget(budget));
        let (sizes, got, d, other) = stage(&ctx);
        assert_eq!(ctx.take_failure(), None, "{kind:?}");
        assert_eq!(sizes, want_sizes, "{kind:?}");
        assert!(got == want, "{kind:?}: the budgeted stage diverged from the unbudgeted one");
        let acct = ctx.accountant().expect("budget installs an accountant");
        assert!(acct.peak() <= budget, "{kind:?}: ledger peak {} over budget {budget}", acct.peak());
        let resident = (16 - d.spilled_partitions() - other.spilled_partitions()) as u64 * one;
        assert_eq!(acct.used(), resident, "{kind:?}: the ledger holds exactly the resident charges");
        assert_eq!(d.spilled_partitions(), 8, "{kind:?}: a read returned a slot to resident");
        let (_, trace) = ctx.take_run_traced();
        let mut decoded = [0usize; 8];
        for e in trace.events.iter().filter(|e| &*e.name == tn::MEM_BUDGET_RESTORED) {
            decoded[e.counter("part").expect("a restore names its partition") as usize] += 1;
        }
        assert_eq!(decoded, [2; 8], "{kind:?}: each of two reads decodes its partition");
    }
}

/// `mem.budget.breach` counts breaches only. A build that spills
/// partitions it cannot admit records none; a whole-partition read whose
/// charge never fits records one per attempt — in the wave, and again on
/// the re-run alone that then fails the stage — keyed by partition.
#[test]
fn breaches_are_recorded_per_read_attempt_and_never_by_a_build() {
    let data: Vec<(u64, u64)> = (0..2000u64).map(|i| (i, i)).collect();
    let ctx = EngineContext::new(EngineConfig::default().with_memory_budget(256));
    let breaches = || -> Vec<Option<u64>> {
        let (_, trace) = ctx.take_run_traced();
        trace.events.iter().filter(|e| &*e.name == tn::MEM_BUDGET_BREACH).map(|e| e.counter("part")).collect()
    };
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 2).evictable();
    assert_eq!(d.spilled_partitions(), 2);
    assert_eq!(breaches(), Vec::new(), "a spilling build breaches nothing");
    let out = d.map_partitions(|p| p.to_vec());
    assert!(matches!(ctx.take_failure(), Some(Failure::Budget(_))));
    assert_eq!(out.len(), 0);
    let mut sites = breaches();
    sites.sort();
    assert_eq!(sites, vec![Some(0), Some(0), Some(1)], "partition 0 in the wave and alone, partition 1 in the wave");
}
