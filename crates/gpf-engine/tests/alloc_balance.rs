//! Allocation-balance properties for the tracking allocator: with heap
//! tracking live, a codec round-trip plus a full map → spill → shuffle →
//! map job return the global live-byte gauge to its pre-run baseline (to
//! within the documented per-thread flush quantum), and the job's output
//! stays byte-identical to an untracked run — the accounting observes the
//! workload, never perturbs it. And an allocation bound: a wide, almost
//! empty shuffle allocates by its records, not by its geometry.

use gpf_compress::serializer::{deserialize_batch, serialize_batch};
use gpf_compress::SerializerKind;
use gpf_engine::{Dataset, EngineConfig, EngineContext};
use gpf_support::proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The heap gauges and tag counters are process-global: the tests here read
/// them exactly, so they run one at a time.
static TRACKING: Mutex<()> = Mutex::new(());

/// Live-gauge slack: each pool worker may hold an unflushed pending delta
/// below the 64 KiB quantum, and pool/registry bookkeeping allocated
/// outside any scope settles only at thread exit.
const LIVE_SLACK_BYTES: u64 = 1 << 20;

fn ctx() -> Arc<EngineContext> {
    EngineContext::new(EngineConfig::default().with_parallelism(4))
}

/// The balance job: narrow map → spill barrier → consuming shuffle →
/// narrow map, touching every allocation-attribution surface (task, spill,
/// shuffle, serde).
fn job(ctx: &Arc<EngineContext>, data: &[(u64, u64)], parts: usize, nparts: usize) -> Vec<Vec<(u64, u64)>> {
    let d = Dataset::from_vec(Arc::clone(ctx), data.to_vec(), parts);
    let out = d
        .map(|kv| (kv.0, kv.1.rotate_left(9)))
        .barrier_via_disk("spill")
        .into_partition_by(nparts, move |kv| (kv.0 % nparts as u64) as usize)
        .map(|kv| (kv.0, kv.1 ^ 0x5a));
    (0..out.num_partitions()).map(|i| out.partition(i).to_vec()).collect()
}

/// Round-trip `data` through every serializer kind, returning the decoded
/// copies so the caller can both check identity and control their drop.
fn codec_round_trip(data: &[(u64, u64)]) -> Vec<Vec<(u64, u64)>> {
    [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf]
        .iter()
        .map(|&kind| {
            let bytes = serialize_batch(kind, data);
            deserialize_batch::<(u64, u64)>(kind, &bytes).expect("round-trip decodes")
        })
        .collect()
}

/// Flush this thread's pending accounting, then read the global gauge.
fn measured_live() -> u64 {
    gpf_trace::alloc::flush_thread_stats();
    gpf_trace::alloc::live_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With tracking on: output identical to the untracked run, and the
    /// live gauge returns to its pre-run level once the run's datasets,
    /// trace, and codec buffers are dropped.
    #[test]
    fn tracked_runs_balance_and_preserve_output(
        data in proptest::collection::vec((0u64..40, any::<u64>()), 0..300),
        parts in 1usize..5,
        nparts in 1usize..5,
    ) {
        let _one_at_a_time = TRACKING.lock().unwrap_or_else(|e| e.into_inner());
        // Untracked baseline for byte-identity.
        let baseline = job(&ctx(), &data, parts, nparts);

        gpf_trace::set_enabled(true);
        gpf_trace::alloc::set_tracking(true);
        prop_assert!(gpf_trace::alloc::tracking_active(), "hooks must be live for this property");

        // Warmup at full instrumentation: first-use registrations (counter
        // slots, histogram arrays, scratch pools, ring capacity) allocate
        // once and persist, so they must land before the baseline read.
        {
            let warm_ctx = ctx();
            let warm = job(&warm_ctx, &data, parts, nparts);
            prop_assert_eq!(&warm, &baseline);
            drop(codec_round_trip(&data));
            drop(warm_ctx.take_run_traced());
        }

        let live0 = measured_live();
        {
            let run_ctx = ctx();
            let tracked = job(&run_ctx, &data, parts, nparts);
            prop_assert_eq!(&tracked, &baseline, "tracking must not change shuffle output");
            let decoded = codec_round_trip(&data);
            for copy in &decoded {
                prop_assert_eq!(copy, &data, "tracking must not change codec round-trips");
            }
            drop(run_ctx.take_run_traced());
        }
        let live1 = measured_live();

        prop_assert!(
            live1.abs_diff(live0) <= LIVE_SLACK_BYTES,
            "live gauge did not return to baseline: {live0} -> {live1}"
        );
    }
}

/// Bytes allocated so far under the `shuffle` and `serde` heap tags — what
/// the shuffle's map and reduce tasks allocate.
fn shuffle_and_serde_bytes() -> u64 {
    gpf_trace::counters_snapshot()
        .iter()
        .filter(|(name, _)| ["heap.tag.shuffle", "heap.tag.serde"].contains(name))
        .map(|(_, v)| *v)
        .sum()
}

/// 64 records through a 2048 -> 2048 shuffle: 4,194,304 (map, bucket) cells
/// of which 64 hold a record. A per-cell segment index alone is 128 MiB;
/// the tasks must allocate for their records only, and — every task's
/// allocations being a function of its records — the same bytes every run.
#[test]
fn wide_sparse_shuffle_allocates_by_records_not_geometry() {
    const WIDTH: usize = 2048;
    let _one_at_a_time = TRACKING.lock().unwrap_or_else(|e| e.into_inner());
    gpf_trace::set_enabled(true);
    gpf_trace::alloc::set_tracking(true);
    assert!(gpf_trace::alloc::tracking_active(), "hooks must be live for this test");
    let run = || {
        // One record in each of 64 scattered input partitions, each to its
        // own bucket; the high bit keeps every encoded record the same size.
        let mut input: Vec<Vec<(u64, u64)>> = vec![Vec::new(); WIDTH];
        for j in 0..64u64 {
            input[j as usize * 31 % WIDTH].push(((1 << 63) | j, (1 << 63) | (j * j)));
        }
        let d = Dataset::from_partitions(ctx(), input);
        let before = shuffle_and_serde_bytes();
        let p = d.partition_by(WIDTH, |kv| (kv.0 & 0xffff) as usize * 37 % WIDTH);
        let allocated = shuffle_and_serde_bytes() - before;
        assert_eq!(p.len(), 64);
        assert_eq!(p.partition_sizes().iter().filter(|&&n| n == 1).count(), 64);
        allocated
    };
    // The first run grows the pooled scratch buffers and registers the
    // pool-miss counter; the second, reusing them, registers the pool-hit
    // counter. From the third on nothing is first-use.
    run();
    run();
    let (first, second) = (run(), run());
    assert!(first < 1 << 20, "a 64-record shuffle allocated {first} bytes in its tasks");
    assert_eq!(first, second, "task allocations must repeat exactly");
}
