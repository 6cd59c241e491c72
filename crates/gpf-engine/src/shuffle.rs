//! The shuffle: route, scatter, serialize, exchange, deserialize.
//!
//! One implementation serves every configuration. What varies is decided
//! from what the code can observe, not from a second code path:
//!
//! * a sole-owned plain input *moves* its records into buckets; a shared or
//!   budget-tracked input streams and clones them (a tracked partition one
//!   spill frame at a time, never rematerialized whole);
//! * with faults configured the input is retained as *lineage* — which is
//!   also what makes it shared, so the clone path follows without a flag —
//!   every bucket segment is checksummed, and the reduce side recomputes
//!   any segment that fails verification from its owning input partition.
//!
//! The pre-optimization shuffle (clone per record, a buffer per bucket)
//! survives as a pure function in `tests/shuffle_oracle/`, which
//! `tests/proptests.rs` and `tests/operator_matrix.rs` hold this one to:
//! records partition for partition, bytes per map and per reduce task.

use crate::context::EngineContext;
use crate::dataset::{fnv64, output_parts, Dataset, Parts};
use crate::fault::{corrupt_bit, FaultConfig, FaultKind, FaultSurface};
use crate::task::{run_stage, Mode};
use crate::timing::TaskTimer;
use gpf_compress::serializer::{deserialize_batch_into, serialize_batch_into};
use gpf_compress::{GpfSerialize, SerializerKind};
use gpf_support::sync::Mutex;
use gpf_trace::alloc::{self, AllocTag};
use gpf_trace::names as tn;
use std::sync::{Arc, OnceLock};

/// One serialized bucket inside a map task's output buffer.
///
/// Offsets, lengths and record counts are recorded *while writing*, so
/// nothing re-traverses the serialized data afterwards: shuffle-write bytes
/// come from the buffer length, shuffle-read bytes from summing one segment
/// column, and the reduce side pre-sizes its output from the record counts.
#[derive(Clone, Copy)]
struct BucketSeg {
    offset: usize,
    len: usize,
    records: usize,
    /// FNV-1a over the segment's bytes when the shuffle runs under fault
    /// tolerance; 0 (and unchecked) otherwise, so a fault-free run never
    /// pays for hashing (DESIGN.md §11 documents this trade).
    checksum: u64,
}

/// Output of one map-side shuffle task: every bucket serialized
/// back-to-back into a single pooled buffer, indexed by [`BucketSeg`]s.
struct MapTaskOut {
    data: Vec<u8>,
    segs: Vec<BucketSeg>,
    ser_s: f64,
}

/// Cap on pooled map-side serialization buffers. Bounds idle memory while
/// still covering every worker thread of the widest in-repo shuffle.
const SCRATCH_POOL_CAP: usize = 64;

fn scratch_pool() -> &'static Mutex<Vec<Vec<u8>>> {
    static POOL: OnceLock<Mutex<Vec<Vec<u8>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Take a cleared serialization buffer from the pool (or allocate the first
/// time). Reuse keeps steady-state shuffles from re-growing a fresh `Vec`
/// through the allocator on every map task.
fn scratch_take() -> Vec<u8> {
    let got = scratch_pool().lock().pop();
    if gpf_trace::enabled() {
        if got.is_some() {
            gpf_trace::counter(tn::SHUFFLE_SCRATCH_REUSED).add(1);
        } else {
            gpf_trace::counter(tn::SHUFFLE_SCRATCH_ALLOCATED).add(1);
        }
    }
    got.unwrap_or_default()
}

/// Return a buffer to the pool once the reduce side has drained it.
fn scratch_put(mut buf: Vec<u8>) {
    buf.clear();
    let mut pool = scratch_pool().lock();
    if pool.len() < SCRATCH_POOL_CAP {
        pool.push(buf);
    }
}

/// Map-side input. `Owned` cells are built only for a sole-owned plain
/// input, which excludes faults (lineage would share it), so each cell is
/// taken by exactly one task invocation.
enum MapSource<T> {
    Owned(Vec<Mutex<Vec<T>>>),
    Shared(Parts<T>),
}

/// Compute every record's target bucket in one routing pass, plus the
/// per-bucket counts used to pre-size the scatter.
fn plan_routes<T>(
    chunk: &[T],
    nparts: usize,
    route: &(impl Fn(&T) -> usize + Send + Sync),
) -> (Vec<u32>, Vec<usize>) {
    let mut routes = Vec::with_capacity(chunk.len());
    let mut counts = vec![0usize; nparts];
    for item in chunk {
        let target = route(item);
        assert!(target < nparts, "router produced partition {target} >= {nparts}");
        counts[target] += 1;
        routes.push(target as u32);
    }
    (routes, counts)
}

/// Move `items` into their planned buckets, reserving each bucket's share
/// first — no bucket reallocates mid-chunk, and a plain partition is
/// exactly one chunk.
fn scatter<T>(
    buckets: &mut [Vec<T>],
    (routes, counts): (Vec<u32>, Vec<usize>),
    items: impl Iterator<Item = T>,
) {
    for (b, &c) in buckets.iter_mut().zip(&counts) {
        b.reserve(c);
    }
    for (item, r) in items.zip(routes) {
        buckets[r as usize].push(item);
    }
}

/// Serialize every bucket back-to-back into one pooled buffer, recording a
/// [`BucketSeg`] per bucket as it is written.
fn serialize_buckets<T: GpfSerialize>(
    kind: SerializerKind,
    buckets: &[Vec<T>],
    with_checksum: bool,
) -> (Vec<u8>, Vec<BucketSeg>) {
    let mut data = scratch_take();
    // Serialization allocations (scratch growth, codec temporaries) charge
    // the serde heap tag; one scope per map task keeps this off the
    // per-bucket hot path.
    let _serde_scope = alloc::scope(AllocTag::Serde);
    let mut segs = Vec::with_capacity(buckets.len());
    // Bucket stats accumulate locally and merge into the registry once
    // per task: a smoke run serializes millions of buckets, and even an
    // uncontended per-bucket `fetch_add` shows up in the traced run's wall
    // time (the benchmark's `trace.overhead_pct`).
    let mut stats = if gpf_trace::enabled() {
        Some((gpf_trace::LocalHistogram::new(), gpf_trace::LocalHistogram::new()))
    } else {
        None
    };
    for b in buckets {
        let offset = data.len();
        // Empty buckets produce zero bytes (Spark's shuffle index marks
        // them with zero-length segments; no framing is written).
        let len = if b.is_empty() { 0 } else { serialize_batch_into(kind, b, &mut data) };
        if let Some((by, recs)) = &mut stats {
            by.record(len as u64);
            recs.record(b.len() as u64);
        }
        let checksum =
            if with_checksum && len > 0 { fnv64(&data[offset..offset + len]) } else { 0 };
        segs.push(BucketSeg { offset, len, records: b.len(), checksum });
    }
    if let Some((by, recs)) = &stats {
        gpf_trace::histogram(tn::SHUFFLE_BUCKET_BYTES).merge(by);
        gpf_trace::histogram(tn::SHUFFLE_BUCKET_RECORDS).merge(recs);
    }
    (data, segs)
}

/// Bucket corruption is injected driver-side, after the map side
/// checksummed the correct bytes — the reduce-side verify must fire even if
/// the flipped bit would still decode to something.
fn inject_bucket_corruption(
    ctx: &EngineContext,
    fc: &FaultConfig,
    stage: u32,
    map_out: &mut [MapTaskOut],
) {
    for (i, m) in map_out.iter_mut().enumerate() {
        if fc.plan.decide(stage, i as u32, 0, FaultSurface::ShuffleBucket)
            != Some(FaultKind::CorruptBucket)
        {
            continue;
        }
        let nonempty: Vec<BucketSeg> = m.segs.iter().copied().filter(|s| s.len > 0).collect();
        if nonempty.is_empty() {
            continue;
        }
        let salt = fc.plan.corruption_salt(stage, i as u32);
        let seg = nonempty[(salt % nonempty.len() as u64) as usize];
        if corrupt_bit(&mut m.data[seg.offset..seg.offset + seg.len], salt) {
            ctx.record_fault_event(tn::FAULT_INJECTED, stage, i as u32, 1);
        }
    }
}

/// Repartition `parts` into `nparts` partitions by `route`.
///
/// Takes the partitions by value: when the caller held the only reference
/// (consuming APIs like [`Dataset::into_partition_by`] or internal
/// intermediates like `reduceByKey`'s map-side combine) and faults are off,
/// records are *moved* into their buckets; otherwise each record is cloned
/// exactly once.
pub(crate) fn shuffle<T>(
    ctx: &Arc<EngineContext>,
    parts: Parts<T>,
    nparts: usize,
    label: &str,
    route: impl Fn(&T) -> usize + Send + Sync,
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
    // exactly this. Holding it is also what forces the clone path below:
    // the move optimization is deliberately traded away while faults are on.
    let lineage: Option<Parts<T>> = faults.map(|_| parts.clone());
    let source = match parts {
        Parts::Plain(arc) => match Arc::try_unwrap(arc) {
            Ok(owned) => MapSource::Owned(owned.into_iter().map(Mutex::new).collect()),
            Err(shared) => MapSource::Shared(Parts::Plain(shared)),
        },
        tracked => MapSource::Shared(tracked),
    };
    if gpf_trace::enabled() {
        let counter = match &source {
            MapSource::Owned(_) => tn::SHUFFLE_PARTITIONS_MOVED,
            MapSource::Shared(_) => tn::SHUFFLE_PARTITIONS_CLONED,
        };
        gpf_trace::counter(counter).add(n_in as u64);
    }

    let map_task = |i: usize| -> MapTaskOut {
        let mut buckets: Vec<Vec<T>> = (0..nparts).map(|_| Vec::new()).collect();
        match &source {
            MapSource::Owned(cells) => {
                let p = std::mem::take(&mut *cells[i].lock());
                scatter(&mut buckets, plan_routes(&p, nparts, &route), p.into_iter());
            }
            MapSource::Shared(shared) => shared.stream(i, &mut |chunk| {
                let plan = plan_routes(chunk, nparts, &route);
                scatter(&mut buckets, plan, chunk.iter().cloned());
            }),
        }
        let t1 = TaskTimer::start();
        let (data, segs) = serialize_buckets(kind, &buckets, lineage.is_some());
        MapTaskOut { data, segs, ser_s: t1.elapsed_s() }
    };
    let failed = || Dataset::failed(ctx, nparts);
    let Some(mut map_out) = run_stage(
        ctx,
        label,
        Some(FaultSurface::ShuffleMap),
        n_in,
        Mode::Parallel,
        |i, task| task.run(AllocTag::Shuffle, || map_task(i)),
        |_| (records, 0),
    ) else {
        return failed();
    };
    if let Some(fc) = faults {
        inject_bucket_corruption(ctx, fc, stage, &mut map_out);
    }
    // Transfer sizes come straight from the segment index recorded while
    // writing — no second traversal of the serialized buffers.
    let write_bytes: Vec<u64> = map_out.iter().map(|m| m.data.len() as u64).collect();
    let read_bytes: Vec<u64> =
        (0..nparts).map(|t| map_out.iter().map(|m| m.segs[t].len as u64).sum()).collect();
    let read_total: u64 = read_bytes.iter().sum();
    ctx.record_serde(map_out.iter().map(|m| m.ser_s).sum());
    ctx.close_stage_shuffle(label, write_bytes, read_bytes);
    let read_stage = ctx.current_stage();

    // Reduce side: deserialize segments in map order into one output vector
    // pre-sized from the per-bucket record counts. Under faults each
    // segment is verify → decode → count-checked, and a failure discards
    // its partial output and recomputes its records from the owning input
    // partition (same routing closure, same order, so the recovered
    // records are identical to the lost ones). One task yields
    // `(records, segments recomputed, decode seconds)`.
    let reduce_task = |t: usize| -> (Vec<T>, u64, f64) {
        let t0 = TaskTimer::start();
        let expected: usize = map_out.iter().map(|m| m.segs[t].records).sum();
        let mut out: Vec<T> = Vec::with_capacity(expected);
        let mut recomputed = 0u64;
        for (mi, m) in map_out.iter().enumerate() {
            let seg = m.segs[t];
            if seg.len == 0 {
                continue;
            }
            let base = out.len();
            let bytes = &m.data[seg.offset..seg.offset + seg.len];
            // The pre-sizing above trusted the segment index; the decoded
            // count is checked against it instead of silently mis-sizing.
            let verified = lineage.is_none() || fnv64(bytes) == seg.checksum;
            let intact = verified
                && matches!(deserialize_batch_into(kind, bytes, &mut out), Ok(n) if n == seg.records);
            if intact {
                continue;
            }
            let Some(lineage) = &lineage else {
                // gpf-lint: allow(no-panic): with faults off nothing can
                // damage a segment the map side wrote in this same
                // shuffle; a failed decode is engine corruption, not an
                // input error, and there is no lineage to recover from.
                panic!("shuffle segment {mi}->{t}: {} records did not decode", seg.records);
            };
            out.truncate(base);
            lineage.stream(mi, &mut |chunk| {
                out.extend(chunk.iter().filter(|item| route(item) == t).cloned());
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
        Mode::Parallel,
        |t, task| task.run(AllocTag::Serde, || reduce_task(t)),
        // Deserialized shuffle data is fresh heap churn (the GC driver).
        |outs| {
            let records: u64 = outs.iter().map(|(v, _, _)| v.len() as u64).sum();
            (records, read_total + records * overhead)
        },
    ) else {
        return failed();
    };
    for m in map_out {
        scratch_put(m.data);
    }
    for (t, (_, recomputed, _)) in reduce_out.iter().enumerate() {
        if *recomputed > 0 {
            ctx.record_fault_event(tn::SHUFFLE_RECOMPUTED, read_stage, t as u32, *recomputed);
        }
    }
    ctx.record_serde(reduce_out.iter().map(|(_, _, de_s)| de_s).sum());
    let outs = reduce_out.into_iter().map(|(v, _, _)| v).collect();
    Dataset { ctx: Arc::clone(ctx), parts: output_parts(ctx, outs) }
}
