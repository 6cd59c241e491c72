//! The shuffle: route, order by bucket, serialize runs, exchange,
//! deserialize.
//!
//! One implementation serves every configuration. What varies is decided
//! from what the code can observe, not from a second code path:
//!
//! * the map side serializes its input *by reference*, wherever the records
//!   sit: a shared plain input is borrowed in place, a sole-owned one —
//!   plain or budget-tracked — is taken and dropped by the task that
//!   serialized it, and a shared budget-tracked one is gathered from its
//!   streamed chunks (one spill frame at a time, never restored); nothing
//!   is charged to the ledger either way — decided once, by
//!   [`TaskSource`], for the shuffle and the consuming narrow operators
//!   alike;
//! * with faults configured the input is retained as *lineage* (and
//!   `TaskSource` never takes it), every segment is checksummed, and the
//!   reduce side recomputes any segment that fails verification from its
//!   owning input partition.
//!
//! Cost follows the records, not the geometry. A map task orders
//! `(target, index)` pairs — never the records — by target bucket and
//! writes one segment per *run*, so it emits only its non-empty segments;
//! the driver transposes those lists once into a per-reduce index
//! ([`ReduceIndex`]). Nothing here is sized `nmaps x nparts`, and nothing a
//! map task does is sized `nparts`.
//!
//! The pre-optimization shuffle (clone per record, a buffer per bucket)
//! survives as a pure function in `tests/shuffle_oracle/`, which
//! `tests/proptests.rs` and `tests/operator_matrix.rs` hold this one to:
//! records partition for partition, bytes per map and per reduce task.

use crate::context::EngineContext;
use crate::dataset::{output_parts, Dataset, Parts, TaskSource};
use crate::fault::{corrupt_bit, FaultKind, FaultPlan, FaultSurface};
use crate::frame::{fnv64, verify_decode};
use crate::task::run_stage;
use crate::timing::TaskTimer;
use gpf_compress::{ByteWriter, GpfSerialize, SerializerKind};
use gpf_trace::alloc::{self, AllocTag};
use gpf_trace::names as tn;
use std::sync::Arc;

/// One serialized non-empty bucket inside a map task's output buffer.
///
/// Offsets, lengths and record counts are recorded *while writing*, so
/// nothing re-traverses the serialized data afterwards: shuffle-write bytes
/// come from the buffer length, shuffle-read bytes and the reduce side's
/// pre-sizing from the transposed index.
#[derive(Clone, Copy, Default)]
struct BucketSeg {
    offset: usize,
    len: usize,
    records: usize,
    /// FNV-1a over the segment's bytes when the shuffle runs under fault
    /// tolerance; `None` (and unchecked) otherwise, so a fault-free run
    /// never pays for hashing (DESIGN.md §11 documents this trade).
    checksum: Option<u64>,
}

/// Output of one map-side shuffle task: its non-empty buckets serialized
/// back-to-back into a single buffer, listed as `(reduce id,
/// segment)` in ascending reduce id.
struct MapTaskOut {
    data: Vec<u8>,
    segs: Vec<(usize, BucketSeg)>,
    ser_s: f64,
}

/// The map outputs' segment lists transposed once, driver-side: for each
/// reduce task, its `(map id, segment)`s in map order. Built in
/// O(non-empty segments + nparts); `read_bytes`, the reduce task's
/// pre-sizing and its decode loop all read it.
struct ReduceIndex {
    /// `segs[starts[t]..starts[t + 1]]` belong to reduce task `t`.
    starts: Vec<usize>,
    segs: Vec<(usize, BucketSeg)>,
}

impl ReduceIndex {
    fn transpose(map_out: &[MapTaskOut], nparts: usize) -> Self {
        let mut starts = vec![0usize; nparts + 1];
        for m in map_out {
            for &(t, _) in &m.segs {
                starts[t + 1] += 1;
            }
        }
        for t in 0..nparts {
            starts[t + 1] += starts[t];
        }
        let mut next = starts.clone();
        let mut segs = vec![(0, BucketSeg::default()); starts[nparts]];
        for (mi, m) in map_out.iter().enumerate() {
            for &(t, seg) in &m.segs {
                segs[next[t]] = (mi, seg);
                next[t] += 1;
            }
        }
        Self { starts, segs }
    }

    fn of(&self, t: usize) -> &[(usize, BucketSeg)] {
        &self.segs[self.starts[t]..self.starts[t + 1]]
    }
}

/// Route every record of source partition `src` (`items`) and return
/// `(target, index)` pairs ordered by target bucket — stably, so the
/// per-source order inside a bucket is unchanged. Equal targets are
/// adjacent, which is what [`serialize_runs`] cuts segments from; the
/// records themselves stay where they are.
fn order_by_bucket<T>(
    src: usize,
    items: &[T],
    nparts: usize,
    route: &(impl Fn(usize, &T) -> usize + Send + Sync),
) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let target = route(src, item);
            assert!(target < nparts, "router produced partition {target} >= {nparts}");
            (target, i)
        })
        .collect();
    if !order.is_sorted() {
        // Indices are distinct, so the unstable sort is a stable one.
        order.sort_unstable();
    }
    order
}

/// Serialize each run of equal targets in `order` (from
/// [`order_by_bucket`]) back-to-back into one buffer, each record
/// written from where it sits in `items`, recording a [`BucketSeg`] per run
/// as it is written. One writer serves every run of the task.
fn serialize_runs<T: GpfSerialize>(
    kind: SerializerKind,
    items: &[T],
    order: &[(usize, usize)],
    with_checksum: bool,
) -> (Vec<u8>, Vec<(usize, BucketSeg)>) {
    // A map task with no records writes nothing and allocates no buffer.
    if items.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // Serialization allocations (buffer growth, codec temporaries) charge
    // the serde heap tag; one scope per map task keeps this off the
    // per-segment hot path.
    let _serde_scope = alloc::scope(AllocTag::Serde);
    let mut w = ByteWriter::new(kind);
    let mut segs = Vec::new();
    // Segment stats accumulate locally and merge into the registry once
    // per task: even an uncontended per-segment `fetch_add` shows up in the
    // traced run's wall time (the benchmark's `trace.overhead_pct`).
    let mut stats = if gpf_trace::enabled() {
        Some((gpf_trace::LocalHistogram::new(), gpf_trace::LocalHistogram::new()))
    } else {
        None
    };
    for run in order.chunk_by(|a, b| a.0 == b.0) {
        let offset = w.buf.len();
        let len = w.write_batch(run.iter().map(|&(_, i)| &items[i]));
        if let Some((by, recs)) = &mut stats {
            by.record(len as u64);
            recs.record(run.len() as u64);
        }
        let checksum = with_checksum.then(|| fnv64(&w.buf[offset..offset + len]));
        segs.push((run[0].0, BucketSeg { offset, len, records: run.len(), checksum }));
    }
    if let Some((by, recs)) = &stats {
        gpf_trace::histogram(tn::SHUFFLE_BUCKET_BYTES).merge(by);
        gpf_trace::histogram(tn::SHUFFLE_BUCKET_RECORDS).merge(recs);
    }
    (w.buf, segs)
}

/// Bucket corruption is injected driver-side, after the map side
/// checksummed the correct bytes — the reduce-side verify must fire even if
/// the flipped bit would still decode to something.
fn inject_bucket_corruption(
    ctx: &EngineContext,
    plan: &FaultPlan,
    stage: u32,
    map_out: &mut [MapTaskOut],
) {
    for (i, m) in map_out.iter_mut().enumerate() {
        if plan.decide(stage, i as u32, 0, FaultSurface::ShuffleBucket)
            != Some(FaultKind::CorruptBucket)
        {
            continue;
        }
        // Every listed segment is non-empty and they are in bucket order,
        // so a salt picks the segment it always picked.
        if m.segs.is_empty() {
            continue;
        }
        let salt = plan.corruption_salt(stage, i as u32);
        let (_, seg) = m.segs[(salt % m.segs.len() as u64) as usize];
        if corrupt_bit(&mut m.data[seg.offset..seg.offset + seg.len], salt) {
            ctx.record_part_event(tn::FAULT_INJECTED, stage, i as u32, 1);
        }
    }
}

/// Repartition `parts` into `nparts` partitions by `route`, which sees
/// each record with the index of the partition it comes from (the disk
/// barrier routes by that alone: partition *i* to partition *i*).
///
/// Takes the partitions by value: when the caller held the only reference
/// (consuming APIs like [`Dataset::into_partition_by`] or internal
/// intermediates like `reduceByKey`'s map-side combine) and faults are off,
/// each map task frees its input partition as soon as it is serialized; a
/// shared input is read where it sits. No record is copied either way.
pub(crate) fn shuffle<T>(
    ctx: &Arc<EngineContext>,
    parts: Parts<T>,
    nparts: usize,
    label: &str,
    route: impl Fn(usize, &T) -> usize + Send + Sync,
) -> Dataset<T>
where
    T: GpfSerialize + Clone + Send + Sync + 'static,
{
    assert!(nparts > 0, "shuffle needs at least one output partition");
    let kind = ctx.serializer();
    let faults = ctx.faults();
    let stage = ctx.current_stage();
    let n_in = parts.num();
    let records = parts.total_len() as u64;
    // Lineage = the routing closure + the input, which stays resident for
    // exactly this; `TaskSource` borrows rather than takes while faults are
    // on, so the move optimization is deliberately traded away.
    let lineage: Option<Parts<T>> = faults.map(|_| parts.clone());
    let source = TaskSource::new(ctx, parts);
    if gpf_trace::enabled() {
        gpf_trace::counter(source.access_counter()).add(n_in as u64);
    }

    let map_task = |i: usize| -> MapTaskOut {
        source.with_part(i, |items| {
            let order = order_by_bucket(i, items, nparts, &route);
            let t1 = TaskTimer::start();
            let (data, segs) = serialize_runs(kind, items, &order, lineage.is_some());
            MapTaskOut { data, segs, ser_s: t1.elapsed_s() }
        })
    };
    let failed = || Dataset::failed(ctx, nparts);
    let Some(mut map_out) = run_stage(
        ctx,
        label,
        Some(FaultSurface::ShuffleMap),
        n_in,
        |i, task| task.run(AllocTag::Shuffle, || map_task(i)),
        |_| (records, 0),
    ) else {
        return failed();
    };
    if let Some(plan) = faults {
        inject_bucket_corruption(ctx, plan, stage, &mut map_out);
    }
    // Transfer sizes come straight from the segment index recorded while
    // writing — no second traversal of the serialized buffers.
    let index = ReduceIndex::transpose(&map_out, nparts);
    let write_bytes: Vec<u64> = map_out.iter().map(|m| m.data.len() as u64).collect();
    let read_bytes: Vec<u64> =
        (0..nparts).map(|t| index.of(t).iter().map(|(_, seg)| seg.len as u64).sum()).collect();
    let read_total: u64 = read_bytes.iter().sum();
    ctx.record_serde(map_out.iter().map(|m| m.ser_s).sum());
    ctx.close_stage_shuffle(label, write_bytes, read_bytes);
    let read_stage = ctx.current_stage();

    // Reduce side: deserialize this task's segments in map order into one
    // output vector pre-sized from their record counts. The pre-sizing
    // trusted the segment index, so `verify_decode` checks the decoded
    // count against it (and, under faults, the checksum first); a damaged
    // segment's records are recomputed from the owning input partition
    // (same routing closure, same order, so the recovered records are
    // identical to the lost ones). One task yields
    // `(records, segments recomputed, decode seconds)`.
    let reduce_task = |t: usize| -> (Vec<T>, u64, f64) {
        let t0 = TaskTimer::start();
        let segs = index.of(t);
        let expected: usize = segs.iter().map(|(_, seg)| seg.records).sum();
        let mut out: Vec<T> = Vec::with_capacity(expected);
        let mut recomputed = 0u64;
        for &(mi, seg) in segs {
            let bytes = &map_out[mi].data[seg.offset..seg.offset + seg.len];
            if verify_decode(kind, bytes, seg.checksum, seg.records, &mut out) {
                continue;
            }
            let Some(lineage) = &lineage else {
                // gpf-lint: allow(no-panic): with faults off nothing can
                // damage a segment the map side wrote in this same
                // shuffle; a failed decode is engine corruption, not an
                // input error, and there is no lineage to recover from.
                panic!("shuffle segment {mi}->{t}: {} records did not decode", seg.records);
            };
            lineage.stream(mi, &mut |chunk| {
                out.extend(chunk.iter().filter(|item| route(mi, item) == t).cloned());
            });
            recomputed += 1;
        }
        (out, recomputed, t0.elapsed_s())
    };
    let overhead = ctx.config().per_record_overhead_bytes;
    let Some(reduce_out) = run_stage(
        ctx,
        &format!("{label}(read)"),
        None,
        nparts,
        |t, task| task.run(AllocTag::Serde, || reduce_task(t)),
        // Deserialized shuffle data is fresh heap churn (the GC driver).
        |outs| {
            let records: u64 = outs.iter().map(|(v, _, _)| v.len() as u64).sum();
            (records, read_total + records * overhead)
        },
    ) else {
        return failed();
    };
    // The reduce side has drained every map buffer: free them before the
    // output partitions are registered.
    drop(map_out);
    for (t, (_, recomputed, _)) in reduce_out.iter().enumerate() {
        if *recomputed > 0 {
            ctx.record_part_event(tn::SHUFFLE_RECOMPUTED, read_stage, t as u32, *recomputed);
        }
    }
    ctx.record_serde(reduce_out.iter().map(|(_, _, de_s)| de_s).sum());
    let outs = reduce_out.into_iter().map(|(v, _, _)| v).collect();
    Dataset { ctx: Arc::clone(ctx), parts: output_parts(ctx, outs) }
}
