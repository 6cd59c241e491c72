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

/// Hold the engine's one shuffle to the oracle on both of its map-side
/// paths — a borrowed input (every record cloned) and a consumed sole-owner
/// input (every record moved): the same records partition for partition,
/// and the same bytes per map task written and per reduce task read.
fn check_shuffle_against_oracle<T>(
    data: Vec<T>,
    parts: usize,
    nparts: usize,
    route: impl Fn(&T) -> usize + Send + Sync + Copy,
) -> Result<(), TestCaseError>
where
    T: GpfSerialize + Clone + Debug + PartialEq + Send + Sync + 'static,
{
    let c_new = ctx();
    let d_new = Dataset::from_vec(std::sync::Arc::clone(&c_new), data.clone(), parts);
    let input: Vec<Vec<T>> =
        (0..d_new.num_partitions()).map(|i| d_new.partition(i).to_vec()).collect();
    let want = shuffle_oracle(c_new.serializer(), &input, nparts, route);
    let p_new = d_new.partition_by(nparts, route);
    let run_new = c_new.take_run();

    let c_mv = ctx();
    let d_mv = Dataset::from_vec(std::sync::Arc::clone(&c_mv), data, parts);
    let p_mv = d_mv.into_partition_by(nparts, route);
    let run_mv = c_mv.take_run();

    prop_assert_eq!(p_new.num_partitions(), nparts);
    prop_assert_eq!(p_mv.num_partitions(), nparts);
    for t in 0..nparts {
        prop_assert_eq!(&p_new.partition(t)[..], &want.parts[t][..], "clone path, partition {}", t);
        prop_assert_eq!(&p_mv.partition(t)[..], &want.parts[t][..], "move path, partition {}", t);
    }
    for (path, run) in [("clone", &run_new), ("move", &run_mv)] {
        prop_assert_eq!(run.num_stages(), 2, "{} path: a map stage and a read stage", path);
        prop_assert_eq!(&run.stages[0].shuffle_write_bytes, &want.write_bytes, "{} path", path);
        prop_assert_eq!(&run.stages[1].shuffle_read_bytes, &want.read_bytes, "{} path", path);
    }
    Ok(())
}

/// The fixed case the property cannot draw: string payloads (variable-length
/// records), more input partitions than outputs.
#[test]
fn shuffle_paths_agree_with_reference() {
    let data: Vec<(u64, String)> = (0u64..300).map(|i| (i % 11, format!("rec-{i:05}"))).collect();
    check_shuffle_against_oracle(data, 6, 5, |kv| (kv.0 % 5) as usize).unwrap();
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
