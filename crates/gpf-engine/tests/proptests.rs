//! Property-based tests for the engine: shuffle correctness (held to the
//! pure-function seed shuffle in `shuffle_oracle/`) and simulator
//! invariants.

mod shuffle_oracle;

use gpf_compress::GpfSerialize;
use gpf_engine::{Dataset, EngineConfig, EngineContext, SimCluster, SimOptions};
use gpf_support::proptest::prelude::*;
use shuffle_oracle::shuffle_oracle;
use std::fmt::Debug;

fn ctx() -> std::sync::Arc<EngineContext> {
    EngineContext::new(EngineConfig::default())
}

/// Hold the engine's one shuffle to the oracle through both of its entry
/// points — a borrowed input (serialized where it sits) and a consumed
/// sole-owner input (each partition freed by the task that serialized it):
/// the same records partition for partition,
/// and the same bytes per map task written and per reduce task read.
/// `evictable` puts the input under `cfg`'s memory budget first, so the map
/// side streams spill frames and the output is read back by streaming.
fn check_input_against_oracle<T>(
    cfg: &EngineConfig,
    input: &[Vec<T>],
    evictable: bool,
    nparts: usize,
    route: impl Fn(&T) -> usize + Send + Sync + Copy,
) -> Result<(), TestCaseError>
where
    T: GpfSerialize + Clone + Debug + PartialEq + Send + Sync + 'static,
{
    let want = shuffle_oracle(cfg.serializer, input, nparts, route);
    let dataset = |c: &std::sync::Arc<EngineContext>| {
        let d = Dataset::from_partitions(std::sync::Arc::clone(c), input.to_vec());
        if evictable {
            d.evictable()
        } else {
            d
        }
    };
    let c_new = EngineContext::new(cfg.clone());
    let p_new = dataset(&c_new).partition_by(nparts, route);
    let run_new = c_new.take_run();

    let c_mv = EngineContext::new(cfg.clone());
    let p_mv = dataset(&c_mv).into_partition_by(nparts, route);
    let run_mv = c_mv.take_run();

    for (path, c, p, run) in [("borrowed", &c_new, &p_new, &run_new), ("consumed", &c_mv, &p_mv, &run_mv)] {
        prop_assert!(c.take_budget_breach().is_none(), "{} path: a streamed shuffle breached", path);
        prop_assert!(c.take_failure().is_none(), "{} path: the shuffle failed", path);
        prop_assert_eq!(p.num_partitions(), nparts);
        // Sizes + one streamed concatenation: feasible under any budget.
        let sizes: Vec<usize> = want.parts.iter().map(Vec::len).collect();
        prop_assert_eq!(p.partition_sizes(), sizes, "{} path: records per partition", path);
        prop_assert_eq!(p.collect_local(), want.parts.concat(), "{} path: records", path);
        prop_assert_eq!(run.num_stages(), 2, "{} path: a map stage and a read stage", path);
        prop_assert_eq!(&run.stages[0].shuffle_write_bytes, &want.write_bytes, "{} path", path);
        prop_assert_eq!(&run.stages[1].shuffle_read_bytes, &want.read_bytes, "{} path", path);
    }
    Ok(())
}

fn check_shuffle_against_oracle<T>(
    data: Vec<T>,
    parts: usize,
    nparts: usize,
    route: impl Fn(&T) -> usize + Send + Sync + Copy,
) -> Result<(), TestCaseError>
where
    T: GpfSerialize + Clone + Debug + PartialEq + Send + Sync + 'static,
{
    let d = Dataset::from_vec(ctx(), data, parts);
    let input: Vec<Vec<T>> = (0..d.num_partitions()).map(|i| d.partition(i).to_vec()).collect();
    check_input_against_oracle(&EngineConfig::default(), &input, false, nparts, route)
}

/// The fixed case the property cannot draw: string payloads (variable-length
/// records), more input partitions than outputs.
#[test]
fn shuffle_paths_agree_with_reference() {
    let data: Vec<(u64, String)> = (0u64..300).map(|i| (i % 11, format!("rec-{i:05}"))).collect();
    check_shuffle_against_oracle(data, 6, 5, |kv| (kv.0 % 5) as usize).unwrap();
}

type Rec = (u64, u64);

/// Map and reduce widths of the geometry battery: the degenerate width, a
/// narrow one, and two where almost every (map, bucket) cell is empty.
const WIDTHS: [usize; 4] = [1, 7, 512, 2048];

/// Record counts: nothing, one record, fewer than any wide geometry has
/// partitions, and more than the narrow ones do.
const COUNTS: [usize; 4] = [0, 1, 18, 600];

fn serializer_configs() -> [EngineConfig; 3] {
    [EngineConfig::java(), EngineConfig::kryo(), EngineConfig::gpf()]
}

/// `records` records over `nmaps` input partitions. The stride is coprime
/// to every width, so a wide input holds one record in each of a scattered
/// few partitions and none in the rest, and a narrow one holds runs.
fn place(records: usize, nmaps: usize) -> Vec<Vec<Rec>> {
    let mut input = vec![Vec::new(); nmaps];
    for j in 0..records {
        input[j * 37 % nmaps].push((j as u64, (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    }
    input
}

#[derive(Clone, Copy, Debug)]
enum Route {
    /// Hash-like: buckets hold zero, one or several records.
    Spread,
    /// Every record to the last bucket.
    OneBucket,
    /// Record `j` to bucket `j % nparts`: one record per bucket while
    /// `records <= nparts`.
    Identity,
}

fn router(route: Route, nparts: usize) -> impl Fn(&Rec) -> usize + Send + Sync + Copy {
    move |kv: &Rec| match route {
        Route::Spread => ((kv.1 >> 17) % nparts as u64) as usize,
        Route::OneBucket => nparts - 1,
        Route::Identity => (kv.0 % nparts as u64) as usize,
    }
}

/// The geometries a dense `nmaps x nparts` segment index made too costly to
/// sweep: every width pair, with entirely empty maps, every record in one
/// bucket and one record per bucket, for each serializer kind, borrowed
/// and consumed.
#[test]
fn sparse_geometries_agree_with_the_oracle() {
    for cfg in serializer_configs() {
        for nmaps in WIDTHS {
            for nparts in WIDTHS {
                for records in COUNTS {
                    let input = place(records, nmaps);
                    for route in [Route::Spread, Route::OneBucket, Route::Identity] {
                        check_input_against_oracle(&cfg, &input, false, nparts, router(route, nparts))
                            .unwrap_or_else(|e| {
                                panic!(
                                    "{:?} {nmaps}->{nparts}, {records} records, {route:?}: {e}",
                                    cfg.serializer
                                )
                            });
                    }
                }
            }
        }
    }
}

/// The same geometries with the input under a budget of a quarter of its
/// footprint: the map side gathers streamed spill frames (a tracked input
/// is never taken apart), the output is tracked too, and nothing about
/// records or bytes may change.
#[test]
fn sparse_geometries_agree_with_the_oracle_under_a_quarter_budget() {
    for cfg in serializer_configs() {
        for nmaps in WIDTHS {
            for nparts in WIDTHS {
                for records in COUNTS {
                    let input = place(records, nmaps);
                    let footprint = records as u64 * std::mem::size_of::<Rec>() as u64;
                    let cfg = cfg.clone().with_memory_budget((footprint / 4).max(1));
                    check_input_against_oracle(&cfg, &input, true, nparts, router(Route::Spread, nparts))
                        .unwrap_or_else(|e| {
                            panic!(
                                "{:?} {nmaps}->{nparts}, {records} records, budget 1/4: {e}",
                                cfg.serializer
                            )
                        });
                }
            }
        }
    }
}

/// `CorruptBucket` picks among a map task's *non-empty* segments in bucket
/// order by the site's salt. Pin that choice — on maps with exactly one
/// non-empty segment and on one with several — together with the recovery:
/// the reduce task that owns the segment recomputes exactly that segment
/// from lineage, and the records are the oracle's.
#[test]
fn corrupt_bucket_hits_the_salted_nonempty_segment_and_recovers() {
    use gpf_engine::{FaultKind, FaultPlan, FaultSite};
    let cells: [(usize, usize, usize, Route); 7] = [
        (1, 7, 1, Route::Spread),
        (7, 7, 600, Route::OneBucket),
        (7, 7, 600, Route::Spread),
        (512, 2048, 600, Route::OneBucket),
        (2048, 512, 18, Route::Identity),
        (2048, 2048, 600, Route::Identity),
        (2048, 2048, 1, Route::Spread),
    ];
    for base in serializer_configs() {
        for (nmaps, nparts, records, route) in cells {
            let input = place(records, nmaps);
            let route_fn = router(route, nparts);
            // The faulted map task: the last one that holds records.
            let m = input.iter().rposition(|p| !p.is_empty()).unwrap();
            let mut nonempty: Vec<usize> = input[m].iter().map(route_fn).collect();
            nonempty.sort_unstable();
            nonempty.dedup();
            if !matches!(route, Route::Spread) || records == 1 {
                assert_eq!(nonempty.len(), 1, "{nmaps}->{nparts} {route:?}: one non-empty segment");
            }
            let site =
                FaultSite { stage: 0, partition: m as u32, attempt: 0, kind: FaultKind::CorruptBucket };
            let plan = FaultPlan::explicit(vec![site]);
            let hit = nonempty[(plan.corruption_salt(0, m as u32) % nonempty.len() as u64) as usize];
            let cfg = base.clone().with_faults(plan);
            let want = shuffle_oracle(cfg.serializer, &input, nparts, route_fn);
            for consume in [false, true] {
                let cell = format!(
                    "{:?} {nmaps}->{nparts}, {records} records, {route:?}, consume {consume}",
                    cfg.serializer
                );
                let c = EngineContext::new(cfg.clone());
                let d = Dataset::from_partitions(std::sync::Arc::clone(&c), input.clone());
                let p = if consume {
                    d.into_partition_by(nparts, route_fn)
                } else {
                    d.partition_by(nparts, route_fn)
                };
                assert!(c.take_failure().is_none(), "[{cell}] a corrupt bucket is never terminal");
                for t in 0..nparts {
                    assert_eq!(&p.partition(t)[..], &want.parts[t][..], "[{cell}] partition {t}");
                }
                let (run, trace) = c.take_run_traced();
                assert_eq!(run.stages[0].shuffle_write_bytes, want.write_bytes, "[{cell}]");
                assert_eq!(run.stages[1].shuffle_read_bytes, want.read_bytes, "[{cell}]");
                let events = |name: &str| -> Vec<(u64, u64, u64)> {
                    trace
                        .events
                        .iter()
                        .filter(|e| &*e.name == name)
                        .map(|e| {
                            let get = |k| e.counter(k).unwrap();
                            (get("stage"), get("part"), get("n"))
                        })
                        .collect()
                };
                assert_eq!(events("fault.injected"), [(0, m as u64, 1)], "[{cell}]");
                assert_eq!(events("shuffle.recomputed"), [(1, hit as u64, 1)], "[{cell}]");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_by_key_preserves_multiset(
        data in proptest::collection::vec((0u64..20, any::<u64>()), 0..300),
        parts in 1usize..8,
        out_parts in 1usize..8,
    ) {
        let d = Dataset::from_vec(ctx(), data.clone(), parts);
        let grouped = d.group_by_key(out_parts);
        let mut flat: Vec<(u64, u64)> = grouped
            .collect_local()
            .into_iter()
            .flat_map(|(k, vs)| vs.into_iter().map(move |v| (k, v)))
            .collect();
        let mut expect = data;
        flat.sort();
        expect.sort();
        prop_assert_eq!(flat, expect);
    }

    #[test]
    fn sort_by_key_outputs_sorted_multiset(
        data in proptest::collection::vec((any::<u64>(), 0u64..100), 1..300),
        parts in 1usize..6,
        out_parts in 1usize..6,
    ) {
        let d = Dataset::from_vec(ctx(), data.clone(), parts);
        let sorted = d.sort_by_key(out_parts).collect_local();
        let keys: Vec<u64> = sorted.iter().map(|(k, _)| *k).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let mut got = sorted;
        let mut expect = data;
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn partition_by_respects_router(
        data in proptest::collection::vec(any::<u64>(), 0..200),
        nparts in 1usize..10,
    ) {
        let d = Dataset::from_vec(ctx(), data.clone(), 3);
        let p = d.partition_by(nparts, move |x| (*x % nparts as u64) as usize);
        for i in 0..nparts {
            prop_assert!(p.partition(i).iter().all(|x| (*x % nparts as u64) as usize == i));
        }
        prop_assert_eq!(p.len(), data.len());
    }

    #[test]
    fn shuffle_agrees_with_reference_implementation(
        data in proptest::collection::vec((0u64..50, any::<u64>()), 0..300),
        parts in 1usize..8,
        nparts in 1usize..10,
    ) {
        check_shuffle_against_oracle(data, parts, nparts, move |kv| (kv.0 % nparts as u64) as usize)?;
    }

    #[test]
    fn reduce_by_key_agrees_with_sequential(
        data in proptest::collection::vec((0u64..10, 0u64..1000), 0..200),
    ) {
        let d = Dataset::from_vec(ctx(), data.clone(), 4);
        let mut got = d.reduce_by_key(3, |a, b| a + b).collect_local();
        got.sort();
        let mut expect: std::collections::BTreeMap<u64, u64> = Default::default();
        for (k, v) in data {
            *expect.entry(k).or_default() += v;
        }
        prop_assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn simulator_is_monotone_in_cores(
        data in proptest::collection::vec((0u64..32, any::<u64>()), 1..400),
        parts in 1usize..8,
    ) {
        // Record a real shuffle-bearing run through the public API.
        let c = ctx();
        let d = Dataset::from_vec(std::sync::Arc::clone(&c), data, parts);
        let _ = d.map(|kv| (kv.0, kv.1 / 2)).group_by_key(parts).map(|(k, vs)| (*k, vs.len() as u64));
        let run = c.take_run();
        let opts = SimOptions::default();
        let mut last = f64::INFINITY;
        for cores in [16usize, 64, 256, 1024] {
            let r = gpf_engine::sim::simulate(&run, &SimCluster::paper_cluster(cores), &opts);
            prop_assert!(r.makespan_s <= last + 1e-9);
            prop_assert!(r.makespan_s >= 0.0);
            last = r.makespan_s;
        }
    }

    #[test]
    fn blocked_time_counterfactuals_never_exceed_base(
        data in proptest::collection::vec((0u64..16, any::<u64>()), 1..200),
    ) {
        let c = ctx();
        let d = Dataset::from_vec(std::sync::Arc::clone(&c), data, 4);
        let _ = d.group_by_key(4);
        let run = c.take_run();
        let rep = gpf_engine::sim::blocked_time(
            &run,
            &SimCluster::paper_cluster(64),
            &SimOptions::default(),
        );
        prop_assert!(rep.without_disk_s <= rep.base_s + 1e-9);
        prop_assert!(rep.without_net_s <= rep.base_s + 1e-9);
    }
}
