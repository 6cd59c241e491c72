//! Operator-matrix differential test: one job touching every operator
//! family — element-wise narrow, whole-partition narrow over a shuffle
//! output, a bundle zip (two key shuffles + `into_zip_partitions`), `sort_by_key`,
//! `reduce_by_key`, `barrier_via_disk`, a split-table shuffle, `collect` — run
//! under {faults off, quiet plan, seeded plans} × {no budget, tight budget}
//! × {sole-owner, shared shuffle input}.
//!
//! Every cell must reproduce the plain cell's partition layout and records
//! at every checkpoint, and the fault-free and quiet-plan cells must also
//! reproduce its `JobRun` shape (stage labels and kinds, tasks per stage,
//! shuffle write/read byte vectors). The plain cell — no faults, no budget,
//! sole-owned shuffle input — is itself held to the pure-function seed
//! shuffle in `shuffle_oracle/`: its `partitionBy` checkpoint and that
//! stage's two byte vectors are the oracle's. The engine's configuration
//! axes select execution strategy (move vs clone vs stream, a restore in
//! the wave vs its re-run alone, checksum-and-recompute), never results — this test pins
//! that for the whole operator surface at once, where the
//! chaos/budget/skew batteries pin it per mechanism.
//!
//! Beside the job: every consuming operator against its borrowed twin (the
//! shuffle and the zip against themselves on shared handles), and
//! `map_fold` against `map` + `collect` + a fold.

mod shuffle_oracle;

use gpf_engine::{
    Dataset, EngineConfig, EngineContext, Failure, FaultKind, FaultPlan, FaultSite, JobRun,
    StageKind,
};
use shuffle_oracle::shuffle_oracle;
use std::sync::Arc;

type Rec = (u64, u64);

/// One dataset's partition layout: a debug rendering per partition, so
/// equality covers placement and order, not just the multiset.
struct Checkpoint {
    name: &'static str,
    parts: Vec<String>,
}

fn checkpoint<T>(name: &'static str, ds: &Dataset<T>) -> Checkpoint
where
    T: Clone + std::fmt::Debug + Send + Sync + 'static,
{
    // Sizes + one streamed concatenation: feasible under any budget (a
    // per-partition `partition(i)` restore would be charged to the ledger).
    let all = ds.collect_local();
    let mut at = 0usize;
    let parts = ds
        .partition_sizes()
        .into_iter()
        .map(|n| {
            let s = format!("{:?}", &all[at..at + n]);
            at += n;
            s
        })
        .collect();
    Checkpoint { name, parts }
}

struct Outcome {
    checkpoints: Vec<Checkpoint>,
    collected: Vec<Rec>,
    /// Input partitions evicted at build time (0 without a budget).
    spilled_inputs: usize,
}

fn input() -> Vec<Rec> {
    (0u64..6000)
        .map(|i| {
            (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40, i.wrapping_mul(0x2545_f491_4f6c_dd1d))
        })
        .collect()
}

/// Output partitions and router of the job's explicit shuffle.
const SHUFFLE_PARTS: usize = 5;

fn route(kv: &Rec) -> usize {
    (kv.0 % SHUFFLE_PARTS as u64) as usize
}

/// The explicit shuffle's input: element-wise narrow ops over the evictable
/// source (they stream spilled frames under a budget).
fn shuffle_input(d: &Dataset<Rec>) -> Dataset<Rec> {
    d.map(|kv| (kv.0 % 61, kv.1.rotate_left(7))).filter(|kv| kv.1 % 11 != 0)
}

/// The matrix job. `shared` keeps a second handle on the explicit shuffle's
/// input alive (forcing the clone path where the sole-owner cell moves).
fn job(ctx: &Arc<EngineContext>, data: &[Rec], shared: bool) -> Outcome {
    let d = Dataset::from_vec(Arc::clone(ctx), data.to_vec(), 4).evictable();
    let spilled_inputs = d.spilled_partitions();
    let m = shuffle_input(&d);
    let _keep = shared.then(|| m.clone());
    let p = m.into_partition_by(SHUFFLE_PARTS, route);
    // Whole-partition narrow op over a shuffle output (restores under a
    // budget, a breached one re-run alone after the wave).
    let w = p.map_partitions(|part| {
        let mut v = part.to_vec();
        v.sort_by_key(|kv| kv.1);
        v
    });
    let b = w.barrier_via_disk("checkpoint");
    let s = b.sort_by_key(4);
    let r = s.reduce_by_key(3, |a, b| a.wrapping_add(*b));
    let tags = s.filter(|kv| kv.1 % 4 == 0).map(|kv| (kv.0, format!("t{}", kv.1 % 1000)));
    // The bundle shape: both sides shuffled by key, then zipped pairwise
    // (`r` is checkpointed below, so it goes in as a shared handle).
    let by_key = |k: &u64| (*k % 3) as usize;
    let j = r.clone().into_partition_by_key(3, by_key).into_zip_partitions(
        tags.into_partition_by_key(3, by_key),
        |_, l, t| {
            l.iter()
                .flat_map(|(k, v)| t.iter().filter(move |(tk, _)| tk == k).map(move |(_, s)| (*k, (*v, s.clone()))))
                .collect()
        },
    );
    let jc = checkpoint("zip", &j);
    // Shuffle through a fixed split table: base 0 splits by tag length.
    let a = j.into_partition_by(4, |kv: &(u64, (u64, String))| {
        let base = (kv.0 % 3) as usize;
        if base == 0 && kv.1 .1.len() % 2 == 1 {
            3
        } else {
            base
        }
    });
    let out = a.map(|kv| (kv.0, kv.1 .0 ^ kv.1 .1.len() as u64));
    let collected = out.collect();
    let checkpoints = vec![
        checkpoint("partitionBy", &p),
        checkpoint("mapPartitions", &w),
        checkpoint("barrier", &b),
        checkpoint("sortByKey", &s),
        checkpoint("reduceByKey", &r),
        jc,
        checkpoint("splitTable", &a),
        checkpoint("map", &out),
    ];
    Outcome { checkpoints, collected, spilled_inputs }
}

/// What the simulator consumes of one stage, minus measured times.
#[derive(Debug, PartialEq)]
struct StageShape {
    label: String,
    kind: StageKind,
    tasks: usize,
    shuffle_write: Vec<u64>,
    shuffle_read: Vec<u64>,
}

fn shape(run: &JobRun) -> Vec<StageShape> {
    run.stages
        .iter()
        .map(|s| StageShape {
            label: s.label.clone(),
            kind: s.kind,
            tasks: s.task_cpu_s.len(),
            shuffle_write: s.shuffle_write_bytes.clone(),
            shuffle_read: s.shuffle_read_bytes.clone(),
        })
        .collect()
}

fn assert_same_output(cell: &str, got: &Outcome, want: &Outcome) {
    assert_eq!(got.checkpoints.len(), want.checkpoints.len());
    for (g, w) in got.checkpoints.iter().zip(&want.checkpoints) {
        assert_eq!(g.parts.len(), w.parts.len(), "[{cell}] {}: partition count", g.name);
        for (i, (gp, wp)) in g.parts.iter().zip(&w.parts).enumerate() {
            assert!(gp == wp, "[{cell}] {}: partition {i} diverged from the plain cell", g.name);
        }
    }
    assert!(got.collected == want.collected, "[{cell}] collect() diverged from the plain cell");
}

/// The plain cell's explicit shuffle is the oracle's: the same records in
/// every output partition, the same bytes per map task and per reduce task.
fn assert_plain_cell_matches_oracle(data: &[Rec], plain: &Outcome, plain_shape: &[StageShape]) {
    let ctx = EngineContext::new(EngineConfig::default().with_parallelism(4));
    let m = shuffle_input(&Dataset::from_vec(Arc::clone(&ctx), data.to_vec(), 4));
    let input: Vec<Vec<Rec>> = (0..m.num_partitions()).map(|i| m.partition(i).to_vec()).collect();
    let want = shuffle_oracle(ctx.serializer(), &input, SHUFFLE_PARTS, route);

    let got = &plain.checkpoints[0];
    assert_eq!(got.name, "partitionBy");
    let want_parts: Vec<String> = want.parts.iter().map(|p| format!("{p:?}")).collect();
    assert!(got.parts == want_parts, "the plain cell's partitionBy diverged from the oracle");
    // The explicit shuffle is the job's first: its map stage carries the
    // write vector, the stage after it the read vector.
    let at = plain_shape.iter().position(|s| s.kind == StageKind::Shuffle).unwrap();
    assert_eq!(plain_shape[at].label, "partitionBy");
    assert_eq!(plain_shape[at].shuffle_write, want.write_bytes, "bytes written per map task");
    assert_eq!(plain_shape[at + 1].shuffle_read, want.read_bytes, "bytes read per reduce task");
}

#[test]
fn every_operator_agrees_across_faults_budget_and_ownership() {
    let data = input();
    let plain_ctx = EngineContext::new(EngineConfig::default().with_parallelism(4));
    let plain = job(&plain_ctx, &data, false);
    let plain_shape = shape(&plain_ctx.take_run());
    assert!(plain.collected.len() > 1000, "the job must carry real volume to the end");
    assert_eq!(
        plain_shape.iter().filter(|s| s.kind == StageKind::Shuffle).count(),
        7,
        "partitionBy, barrier, sortByKey, reduceByKey, partitionByKey x2, split table: {plain_shape:?}"
    );
    assert_plain_cell_matches_oracle(&data, &plain, &plain_shape);

    // About a third of the widest intermediate's footprint: forces spills,
    // streamed maps and re-run restores, yet fits the largest zip pair.
    let tight = data.len() as u64 * 16 / 3;
    let plans: [(&str, Option<FaultPlan>); 5] = [
        ("faults off", None),
        ("quiet plan", Some(FaultPlan::seeded(1, 0))),
        ("seed 0x2018", Some(FaultPlan::seeded(0x2018, 120))),
        ("seed 0xbeef", Some(FaultPlan::seeded(0xbeef, 120))),
        ("seed 7", Some(FaultPlan::seeded(7, 250))),
    ];
    for (plan_name, plan) in &plans {
        for budget in [None, Some(tight)] {
            for shared in [false, true] {
                let cell = format!("{plan_name}, budget {budget:?}, shared {shared}");
                let mut cfg = EngineConfig::default().with_parallelism(4);
                if let Some(plan) = plan {
                    cfg = cfg.with_faults(plan.clone());
                }
                if let Some(bytes) = budget {
                    cfg = cfg.with_memory_budget(bytes);
                }
                let ctx = EngineContext::new(cfg);
                let got = job(&ctx, &data, shared);
                assert_eq!(ctx.take_failure(), None, "[{cell}] feasible budget breached or in-budget faults did not recover");
                assert_eq!(
                    got.spilled_inputs > 0,
                    budget.is_some(),
                    "[{cell}] the tight budget (and only it) must force spills"
                );
                assert_same_output(&cell, &got, &plain);
                let injects = plan.as_ref().is_some_and(|p| p.rate_permille > 0);
                if !injects {
                    assert_eq!(shape(&ctx.take_run()), plain_shape, "[{cell}] JobRun shape");
                }
            }
        }
    }
}

/// The consuming operators, each beside the borrowed twin it must agree
/// with (the shuffle and the zip: beside themselves on shared handles). `e`
/// is the zip's right-hand side; the other operators ignore it.
#[derive(Clone, Copy, Debug)]
enum Twin {
    PartitionByKey,
    Map,
    MapIndexed,
    FlatMap,
    MapPartitions,
    ZipPartitions,
}

impl Twin {
    /// Element-wise operators stream an evicted partition of a shared input
    /// and never restore it; the whole-partition ones restore it. (A
    /// sole-owned input is taken by every operator, never restored.)
    fn streams(self) -> bool {
        !matches!(self, Twin::MapPartitions | Twin::ZipPartitions)
    }
}

/// A record stamped with where it sat, so a wrong position shows.
fn stamp(part: usize, index: usize, kv: &Rec) -> Rec {
    (kv.0 ^ (part as u64) << 32, kv.1.wrapping_add(index as u64))
}

/// One record to none, one or two.
fn fan_out(kv: &Rec) -> Vec<Rec> {
    (0..kv.1 % 3).map(|k| (kv.0, kv.1 ^ k)).collect()
}

const TWIN_PARTS: usize = 16;

fn key_route(k: &u64) -> usize {
    (*k % 5) as usize
}

fn zip_pair(a: &Rec, b: &Rec) -> Rec {
    (a.0 ^ b.0, a.1.wrapping_add(b.1))
}

/// Runs `twin` and calls `tick` once per user-closure invocation, so a cell
/// can make the first invocation fail.
fn run_borrowed(twin: Twin, d: &Dataset<Rec>, e: &Dataset<Rec>, tick: &(dyn Fn() + Sync)) -> Dataset<Rec> {
    match twin {
        // The shuffle and the zip have no borrowed twin: their reference is
        // themselves on shared handles (`d` and `e` stay alive), the path a
        // Resource-held input takes.
        Twin::PartitionByKey => d.clone().into_partition_by_key(5, |k| {
            tick();
            key_route(k)
        }),
        Twin::Map => d.map(|kv| {
            tick();
            (kv.0, kv.1.rotate_left(3))
        }),
        // The indexed map's borrowed twin is the indexed flat-map of one.
        Twin::MapIndexed => d.flat_map_indexed(|part, index, kv| {
            tick();
            Some(stamp(part, index, kv))
        }),
        Twin::FlatMap => d.flat_map(|kv| {
            tick();
            fan_out(kv)
        }),
        Twin::MapPartitions => d.map_partitions(|p| {
            tick();
            p.iter().rev().copied().collect()
        }),
        Twin::ZipPartitions => d.clone().into_zip_partitions(e.clone(), |_, l, r| {
            tick();
            l.iter().zip(&r).map(|(a, b)| zip_pair(a, b)).collect()
        }),
    }
}

fn run_consuming(twin: Twin, d: Dataset<Rec>, e: Dataset<Rec>, tick: &(dyn Fn() + Sync)) -> Dataset<Rec> {
    match twin {
        Twin::PartitionByKey => d.into_partition_by_key(5, |k| {
            tick();
            key_route(k)
        }),
        Twin::Map => d.into_map(|kv| {
            tick();
            (kv.0, kv.1.rotate_left(3))
        }),
        Twin::MapIndexed => d.into_map_indexed(|part, index, kv| {
            tick();
            stamp(part, index, &kv)
        }),
        Twin::FlatMap => d.into_flat_map(|kv| {
            tick();
            fan_out(&kv)
        }),
        Twin::MapPartitions => d.into_map_partitions(|p| {
            tick();
            p.into_iter().rev().collect()
        }),
        Twin::ZipPartitions => d.into_zip_partitions(e, |_, l, r| {
            tick();
            l.iter().zip(&r).map(|(a, b)| zip_pair(a, b)).collect()
        }),
    }
}

fn twin_inputs(ctx: &Arc<EngineContext>, data: &[Rec]) -> (Dataset<Rec>, Dataset<Rec>) {
    let right: Vec<Rec> = data.iter().map(|kv| (kv.1, kv.0)).collect();
    (
        Dataset::from_vec(Arc::clone(ctx), data.to_vec(), TWIN_PARTS).evictable(),
        Dataset::from_vec(Arc::clone(ctx), right, TWIN_PARTS).evictable(),
    )
}

/// One operator-matrix cell per consuming operator: its output (placement,
/// order, stage shape) is its borrowed twin's with a sole owner, with a
/// second handle alive, under a quarter budget and under a plan that makes
/// the first attempt fail; an infeasible budget is no obstacle for a sole
/// owner, which takes its partitions, and over a shared input a structured
/// breach for the whole-partition operators and none for the streamed ones.
#[test]
fn consuming_operators_agree_with_their_borrowed_twins() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let data = input();
    let footprint = data.len() as u64 * 16;
    let quiet = || {};
    let twins =
        [Twin::PartitionByKey, Twin::Map, Twin::MapIndexed, Twin::FlatMap, Twin::MapPartitions, Twin::ZipPartitions];
    for twin in twins {
        let want_ctx = EngineContext::new(EngineConfig::default().with_parallelism(4));
        let (d, e) = twin_inputs(&want_ctx, &data);
        let want = checkpoint("borrowed", &run_borrowed(twin, &d, &e, &quiet));
        let mut want_shape = shape(&want_ctx.take_run());
        if let Twin::MapIndexed = twin {
            // A map is labelled one; its twin here is a flat-map of `Some`.
            want_shape.iter_mut().for_each(|stage| stage.label = stage.label.replace("flatMap", "map"));
        }
        let same = |cell: &str, got: &Dataset<Rec>| {
            let got = checkpoint("consuming", got);
            assert!(got.parts == want.parts, "[{twin:?}, {cell}] diverged from the borrowed twin");
        };

        // Sole owner, and a second handle kept alive across the operator.
        for shared in [false, true] {
            let cell = format!("shared {shared}");
            let ctx = EngineContext::new(EngineConfig::default().with_parallelism(4));
            let (d, e) = twin_inputs(&ctx, &data);
            let keep = shared.then(|| (d.clone(), e.clone()));
            same(&cell, &run_consuming(twin, d, e, &quiet));
            assert_eq!(shape(&ctx.take_run()), want_shape, "[{twin:?}, {cell}] JobRun shape");
            if let Some((d, _)) = keep {
                assert!(d.collect_local() == data, "[{twin:?}, {cell}] the kept handle lost records");
            }
        }

        // A quarter of the input's footprint: inputs spill at build and
        // every operator takes its sole-owned partitions, the resident ones
        // out of their slots and the spilled ones decoded without admission.
        {
            let cfg = EngineConfig::default().with_parallelism(4).with_memory_budget(footprint / 4);
            let ctx = EngineContext::new(cfg);
            let (d, e) = twin_inputs(&ctx, &data);
            assert!(d.spilled_partitions() > 0, "[{twin:?}] budget 1/4 must force spills");
            same("budget 1/4", &run_consuming(twin, d, e, &quiet));
            assert_eq!(ctx.take_failure(), None, "[{twin:?}] feasible budget breached");
            assert_eq!(shape(&ctx.take_run()), want_shape, "[{twin:?}, budget 1/4] JobRun shape");
        }

        // Far below one partition: restoring is infeasible, streaming and
        // taking are not. A sole owner takes; a second handle keeps the
        // shared path, where the whole-partition operators restore.
        for shared in [false, true] {
            let cfg = EngineConfig::default().with_parallelism(4).with_memory_budget(64);
            let ctx = EngineContext::new(cfg);
            let (d, e) = twin_inputs(&ctx, &data);
            let keep = shared.then(|| (d.clone(), e.clone()));
            let got = run_consuming(twin, d, e, &quiet);
            let failure = ctx.take_failure();
            drop(keep);
            if !shared || twin.streams() {
                assert!(failure.is_none(), "[{twin:?}, shared {shared}] a take or a stream never restores");
                same(&format!("budget 64 B, shared {shared}"), &got);
            } else {
                let Some(Failure::Budget(breach)) = failure else {
                    panic!("[{twin:?}] an infeasible restore is a structured breach, got {failure:?}");
                };
                assert_eq!(breach.operator, want_shape[0].label, "[{twin:?}]");
                assert!(got.is_empty(), "[{twin:?}] a breached stage yields no records");
            }
        }

        // Faults on, and the user closure panics the first time it runs —
        // after its task obtained the input. The retry must find the input
        // still there.
        {
            let calls = AtomicU32::new(0);
            let flaky = || {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("flaky first attempt");
                }
            };
            let quiet_plan = FaultPlan::seeded(0, 0);
            let ctx = EngineContext::new(EngineConfig::default().with_parallelism(4).with_faults(quiet_plan));
            let (d, e) = twin_inputs(&ctx, &data);
            same("retry", &run_consuming(twin, d, e, &flaky));
            assert!(ctx.take_failure().is_none(), "[{twin:?}] one panic is inside the retry budget");
            let (_, trace) = ctx.take_run_traced();
            let retried = trace.events.iter().filter(|ev| &*ev.name == "task.retries").count();
            assert_eq!(retried, 1, "[{twin:?}] exactly the flaky task retried");
        }
    }
}

/// A shared plain input through `into_partition_by` on a clone — the
/// shuffle a Resource-held dataset takes: for every serializer kind the input is
/// untouched (same records, same places) and still readable afterwards, the
/// output and the bytes per map and per reduce task are the oracle's, and
/// with a segment of every map task corrupted the output is recomputed from
/// that very input.
#[test]
fn a_shared_plain_input_is_shuffled_where_it_sits() {
    let data = input();
    for cfg in [EngineConfig::java(), EngineConfig::kryo(), EngineConfig::gpf()] {
        let kind = cfg.serializer;
        let parts = |d: &Dataset<Rec>| -> Vec<Vec<Rec>> {
            (0..d.num_partitions()).map(|i| d.partition(i).to_vec()).collect()
        };
        let corrupt_every_map =
            (0..4).map(|partition| FaultSite { stage: 0, partition, attempt: 0, kind: FaultKind::CorruptBucket });
        for plan in [None, Some(FaultPlan::explicit(corrupt_every_map.collect()))] {
            let cell = format!("{kind:?}, faults {}", plan.is_some());
            let mut cfg = cfg.clone().with_parallelism(4);
            if let Some(plan) = &plan {
                cfg = cfg.with_faults(plan.clone());
            }
            let ctx = EngineContext::new(cfg);
            let d = Dataset::from_vec(Arc::clone(&ctx), data.clone(), 4);
            let before = parts(&d);
            let want = shuffle_oracle(kind, &before, SHUFFLE_PARTS, route);

            let p = d.clone().into_partition_by(SHUFFLE_PARTS, route);
            assert!(ctx.take_failure().is_none(), "[{cell}] a corrupt segment is recoverable");
            assert!(parts(&p) == want.parts, "[{cell}] output diverged from the oracle");
            assert!(parts(&d) == before, "[{cell}] the shuffle disturbed its input");
            // Still an operand: a second shuffle of the same handle agrees.
            let again = d.clone().into_partition_by(SHUFFLE_PARTS, route);
            assert!(parts(&again) == want.parts, "[{cell}] second read");

            let (run, trace) = ctx.take_run_traced();
            assert_eq!(run.stages[0].shuffle_write_bytes, want.write_bytes, "[{cell}] bytes per map task");
            assert_eq!(run.stages[1].shuffle_read_bytes, want.read_bytes, "[{cell}] bytes per reduce task");
            let recomputed = trace.events.iter().filter(|ev| &*ev.name == "shuffle.recomputed").count();
            assert_eq!(recomputed > 0, plan.is_some(), "[{cell}] lineage recompute");
        }
    }
}

/// A small dense table: what `map_fold` folds in BQSR's place.
type Table = Vec<u64>;

fn table_of(kv: &Rec) -> Table {
    let mut t = vec![0u64; 16];
    t[(kv.0 % 16) as usize] += 1;
    t[(kv.1 % 16) as usize] += kv.0;
    t
}

fn add_into(acc: &mut Table, t: &Table) {
    if acc.is_empty() {
        acc.resize(t.len(), 0);
    }
    acc.iter_mut().zip(t).for_each(|(a, b)| *a = a.wrapping_add(*b));
}

fn map_fold_tables(d: &Dataset<Rec>, tick: &(dyn Fn() + Sync)) -> Table {
    d.map_fold(
        |kv| {
            tick();
            table_of(kv)
        },
        Table::new,
        add_into,
        |acc, other| add_into(acc, &other),
    )
}

/// `map_fold` is `map` + `collect` + a fold of what arrived: the same value
/// and the same stage — `map` tasks closed by a `collect` charged each
/// partition's values at their serialized size — for every serializer kind,
/// under a quarter budget and under one a partition cannot fit in (it is
/// element-wise: an evicted partition is streamed, never restored, so no
/// budget breaches), with a seeded fault plan, and with a task whose first
/// attempt panics: its values are folded once.
#[test]
fn map_fold_is_map_then_collect_then_fold() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let data = input();
    let footprint = data.len() as u64 * 16;
    let quiet = || {};
    for base in [EngineConfig::java(), EngineConfig::kryo(), EngineConfig::gpf()] {
        let kind = base.serializer;
        let base = base.with_parallelism(4);
        let want_ctx = EngineContext::new(base.clone());
        let (d, _) = twin_inputs(&want_ctx, &data);
        let mut want = Table::new();
        d.map(table_of).collect().iter().for_each(|t| add_into(&mut want, t));
        let want_shape = shape(&want_ctx.take_run());
        assert_eq!((want_shape.len(), want_shape[0].kind), (1, StageKind::Collect));
        assert!(want_shape[0].shuffle_write.iter().all(|&bytes| bytes > 0), "every partition sends its tables");

        let cells: [(&str, EngineConfig); 4] = [
            ("plain", base.clone()),
            ("budget 1/4", base.clone().with_memory_budget(footprint / 4)),
            ("budget 64 B", base.clone().with_memory_budget(64)),
            ("seeded plan", base.clone().with_faults(FaultPlan::seeded(0x2018, 250))),
        ];
        for (cell, cfg) in cells {
            let (budgeted, faulted) = (cfg.memory_budget.is_some(), cfg.faults.is_some());
            let ctx = EngineContext::new(cfg);
            let (d, _) = twin_inputs(&ctx, &data);
            assert_eq!(d.spilled_partitions() > 0, budgeted, "[{kind:?}, {cell}] a budget (and only one) must force spills");
            assert!(map_fold_tables(&d, &quiet) == want, "[{kind:?}, {cell}] folded value");
            assert_eq!(ctx.take_failure(), None, "[{kind:?}, {cell}] a streamed operator never restores and in-budget faults recover");
            let (run, trace) = ctx.take_run_traced();
            assert_eq!(shape(&run), want_shape, "[{kind:?}, {cell}] JobRun shape");
            let injected = trace.events.iter().any(|ev| &*ev.name == "fault.injected");
            assert_eq!(injected, faulted, "[{kind:?}, {cell}] the seeded plan (and only it) must inject");
        }

        // The user closure panics the first time it runs: that task's body
        // runs again, and what it produced is folded once.
        let calls = AtomicU32::new(0);
        let flaky = || {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky first attempt");
            }
        };
        let ctx = EngineContext::new(base.with_faults(FaultPlan::seeded(0, 0)));
        let (d, _) = twin_inputs(&ctx, &data);
        assert!(map_fold_tables(&d, &flaky) == want, "[{kind:?}, retry] a retried task folds once");
        assert!(ctx.take_failure().is_none(), "[{kind:?}] one panic is inside the retry budget");
        let (run, trace) = ctx.take_run_traced();
        assert_eq!(shape(&run), want_shape, "[{kind:?}, retry] JobRun shape");
        let retried = trace.events.iter().filter(|ev| &*ev.name == "task.retries").count();
        assert_eq!(retried, 1, "[{kind:?}] exactly the flaky task retried");
    }
}
