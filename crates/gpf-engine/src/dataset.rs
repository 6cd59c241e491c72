//! Partitioned, eagerly evaluated datasets with Spark-shaped operations.
//!
//! A [`Dataset<T>`] is an in-memory collection split into partitions.
//! *Narrow* operations run per-partition in parallel ([`gpf_support::par`])
//! and accumulate
//! measured CPU time into the engine's open stage; *wide* operations perform
//! a real shuffle — every bucket is serialized with the context's configured
//! [`gpf_compress::SerializerKind`] and deserialized on the reduce side — so
//! shuffle byte counts and serde CPU costs are measured, not estimated.
//!
//! Partition contents are held behind an `Arc`, so cloning a dataset is
//! cheap and read-only datasets (the FASTA/VCF partition RDDs of the paper's
//! Figure 7) can be reused by many downstream processes without copying.
//!
//! This module is the operator API and the partition representation
//! (`Parts`). Every operator is a thin caller of the one task runner
//! (`task.rs`) and the one shuffle (`shuffle.rs`).

use crate::budget::{Charge, TrackedParts, TrackedStore};
use crate::context::EngineContext;
use crate::fault::FaultSurface;
use crate::shuffle::shuffle;
use crate::task::{run_stage, Abort, Task, TaskRun};
use crate::timing::TaskTimer;
use gpf_compress::serializer::serialize_batch;
use gpf_compress::{GpfSerialize, SerializerKind};
use gpf_support::par;
use gpf_support::sync::Mutex;
use gpf_trace::alloc::AllocTag;
use gpf_trace::clock::now_ns;
use gpf_trace::names as tn;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Deterministic FNV-1a hasher used for hash partitioning, so shuffles
/// produce identical layouts across runs (important for reproducible
/// experiment tables).
#[derive(Default)]
pub(crate) struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }
}

/// Deterministic hash of a key.
pub fn stable_hash<K: Hash>(key: &K) -> u64 {
    let mut h = Fnv1a::default();
    key.hash(&mut h);
    h.finish()
}

/// Physical representation of a dataset's partitions.
///
/// `Plain` is the classic fully-resident form — zero overhead, byte-for-byte
/// the engine as it existed before memory budgets. `Tracked` partitions live
/// in a budget-accounted [`TrackedStore`]: they may be evicted to checksummed
/// spill frames under memory pressure, and an evicted one is decoded for
/// its reader (or streamed chunk-by-chunk) on access.
pub(crate) enum Parts<T> {
    Plain(Arc<Vec<Vec<T>>>),
    Tracked(Arc<dyn TrackedParts<T>>),
}

impl<T> Clone for Parts<T> {
    fn clone(&self) -> Self {
        match self {
            Parts::Plain(v) => Parts::Plain(Arc::clone(v)),
            Parts::Tracked(s) => Parts::Tracked(Arc::clone(s)),
        }
    }
}

impl<T> Parts<T> {
    pub(crate) fn num(&self) -> usize {
        match self {
            Parts::Plain(v) => v.len(),
            Parts::Tracked(s) => s.num_parts(),
        }
    }

    fn part_len(&self, i: usize) -> usize {
        match self {
            Parts::Plain(v) => v[i].len(),
            Parts::Tracked(s) => s.part_len(i),
        }
    }

    pub(crate) fn total_len(&self) -> usize {
        (0..self.num()).map(|i| self.part_len(i)).sum()
    }

    /// Borrow (plain) or read (tracked) partition `i`.
    /// `Err((requested, budget))` only when a tracked read of an evicted
    /// partition is infeasible under the installed memory budget.
    fn get(&self, i: usize) -> Result<PartRef<'_, T>, (u64, u64)> {
        match self {
            Parts::Plain(v) => Ok(PartRef::Slice(&v[i])),
            Parts::Tracked(s) => s.read(i),
        }
    }

    /// Visit partition `i` chunk-by-chunk without materializing it: a plain
    /// or resident partition is one chunk, a spilled partition yields one
    /// spill frame at a time. Infallible — nothing is charged to the budget
    /// ledger.
    pub(crate) fn stream(&self, i: usize, f: &mut dyn FnMut(&[T])) {
        match self {
            Parts::Plain(v) => f(&v[i]),
            Parts::Tracked(s) => s.stream(i, f),
        }
    }

    /// Run `f` over partition `i` as one slice, read by reference: a plain
    /// partition is borrowed where it sits, a tracked one gathered from its
    /// streamed chunks — a chunk is a spill frame decoded into a buffer the
    /// next frame reuses, so it cannot be borrowed past the callback, and
    /// restoring the partition instead would charge the ledger and pin it
    /// for the whole call.
    pub(crate) fn with_part<R>(&self, i: usize, f: impl FnOnce(&[T]) -> R) -> R
    where
        T: Clone,
    {
        match self {
            Parts::Plain(v) => f(&v[i]),
            Parts::Tracked(_) => {
                let mut gathered = Vec::with_capacity(self.part_len(i));
                self.stream(i, &mut |chunk| gathered.extend_from_slice(chunk));
                f(&gathered)
            }
        }
    }
}

/// A stage's input taken *by value* — the one place that decides how a
/// consuming operator reaches its records, for the shuffle and the `into_*`
/// narrow operators alike.
///
/// It observes two things. **Ownership**: only an input whose `Arc` this
/// was the last handle to — plain partitions or a budget-tracked store —
/// can be taken apart. **Faults**: with a fault plan configured a task may
/// run again (a retry) and a shuffle keeps its input as lineage, so the
/// input must still be there afterwards.
/// Sole-owned and faults off ⇒ `Owned`: each partition is handed over once,
/// by the one task invocation that takes it ([`OwnedParts::take`]).
/// Anything else — shared, or faults on — ⇒ `Shared`: tasks borrow, stream
/// or restore exactly as the borrowed operators do, so a tracked restore
/// that breaches in the wave is re-run alone, as theirs is. An operator
/// that hands records on by value clones them; the shuffle, which only
/// reads them, does not.
pub(crate) enum TaskSource<T> {
    Owned(OwnedParts<T>),
    Shared(Parts<T>),
}

/// A sole-owned input: plain partitions, each in a cell that one task
/// empties, or a budget-tracked store whose slots one task each takes.
pub(crate) enum OwnedParts<T> {
    Cells(Vec<Mutex<Vec<T>>>),
    Store(Arc<dyn TrackedParts<T>>),
}

impl<T> OwnedParts<T> {
    /// Partition `i` by value; a second take yields an empty partition. A
    /// tracked partition leaves the store here — its charge leaves the
    /// ledger, and a spilled one is decoded without admission, so a take
    /// never evicts and never breaches.
    pub(crate) fn take(&self, i: usize) -> Vec<T> {
        match self {
            OwnedParts::Cells(cells) => std::mem::take(&mut *cells[i].lock()),
            OwnedParts::Store(store) => store.take(i),
        }
    }
}

impl<T: Clone> TaskSource<T> {
    pub(crate) fn new(ctx: &EngineContext, parts: Parts<T>) -> Self {
        if ctx.faults().is_some() {
            return TaskSource::Shared(parts);
        }
        match parts {
            Parts::Plain(arc) => match Arc::try_unwrap(arc) {
                Ok(owned) => TaskSource::Owned(OwnedParts::Cells(owned.into_iter().map(Mutex::new).collect())),
                Err(shared) => TaskSource::Shared(Parts::Plain(shared)),
            },
            // The accountant holds the store only weakly, so a strong count
            // of one is this handle alone (a reclaim holding it upgraded at
            // this moment makes it read as shared, which is only slower).
            Parts::Tracked(store) if Arc::strong_count(&store) == 1 => TaskSource::Owned(OwnedParts::Store(store)),
            shared => TaskSource::Shared(shared),
        }
    }

    /// The `shuffle.partitions.*` counter naming how [`TaskSource::with_part`]
    /// reaches a partition: taken and freed, read in place, or gathered
    /// from a shared budget-tracked store's chunks.
    pub(crate) fn access_counter(&self) -> &'static str {
        match self {
            TaskSource::Owned(_) => tn::SHUFFLE_PARTITIONS_MOVED,
            TaskSource::Shared(Parts::Plain(_)) => tn::SHUFFLE_PARTITIONS_BORROWED,
            TaskSource::Shared(Parts::Tracked(_)) => tn::SHUFFLE_PARTITIONS_CLONED,
        }
    }

    /// Run `f` over partition `i` as one slice, read by reference. An owned
    /// partition is taken and dropped when `f` returns; a shared one is
    /// borrowed or gathered by [`Parts::with_part`].
    pub(crate) fn with_part<R>(&self, i: usize, f: impl FnOnce(&[T]) -> R) -> R {
        match self {
            TaskSource::Owned(owned) => f(&owned.take(i)),
            TaskSource::Shared(parts) => parts.with_part(i, f),
        }
    }

    /// Partition `i` by value, chunk by chunk and never restored: the whole
    /// partition handed over when owned, a clone of each streamed chunk
    /// (one per spill frame of an evicted partition) otherwise.
    pub(crate) fn for_each_chunk(&self, i: usize, f: &mut dyn FnMut(Vec<T>)) {
        match self {
            TaskSource::Owned(owned) => f(owned.take(i)),
            TaskSource::Shared(parts) => parts.stream(i, &mut |chunk| f(chunk.to_vec())),
        }
    }

    /// Partition `i` whole, for a task body to turn into a vector with
    /// [`TaskPart::take_or_clone`]. A shared tracked partition is restored
    /// here — outside the task body, where an infeasible restore can abort
    /// the stage with a structured breach. An owned one is only taken in
    /// the body, after every restore of the task has succeeded, so a task
    /// re-run alone after a breach still finds it.
    fn part(&self, i: usize, task: &Task<'_>) -> Result<TaskPart<'_, T>, Abort> {
        match self {
            TaskSource::Owned(owned) => Ok(TaskPart::Owned(owned, i)),
            TaskSource::Shared(parts) => task.restore(|| parts.get(i)).map(TaskPart::Ref),
        }
    }
}

/// One task's whole input partition: the owned partition to take, or a
/// borrowed / restored view to clone (which a retried attempt finds still
/// there).
enum TaskPart<'a, T> {
    Owned(&'a OwnedParts<T>, usize),
    Ref(PartRef<'a, T>),
}

impl<T: Clone> TaskPart<'_, T> {
    fn take_or_clone(&self) -> Vec<T> {
        match self {
            TaskPart::Owned(owned, i) => owned.take(*i),
            TaskPart::Ref(part) => part.to_vec(),
        }
    }
}

/// [`Dataset::map_fold`]'s accumulators: one per contiguous group of
/// partitions, as many groups as workers, each behind its own lock. A task
/// folds into its partition's group; the driver merges the groups in order
/// once every task is done.
pub(crate) struct FoldGroups<A> {
    accs: Vec<Mutex<A>>,
    nparts: usize,
}

impl<A> FoldGroups<A> {
    pub(crate) fn new(nparts: usize, zero: impl Fn() -> A) -> Self {
        let groups = par::max_threads().min(nparts).max(1);
        Self { accs: (0..groups).map(|_| Mutex::new(zero())).collect(), nparts }
    }

    /// Run `f` on the accumulator of partition `i`'s group.
    pub(crate) fn fold(&self, i: usize, f: impl FnOnce(&mut A)) {
        f(&mut self.accs[i * self.accs.len() / self.nparts].lock());
    }

    /// Every group's accumulator merged into the first, in group order.
    pub(crate) fn merged(self, merge: impl Fn(&mut A, A)) -> Option<A> {
        self.accs.into_iter().map(Mutex::into_inner).reduce(|mut acc, next| {
            merge(&mut acc, next);
            acc
        })
    }
}

/// Wrap freshly produced output partitions: budget-tracked (evictable)
/// when the context has a memory-budget accountant installed, plain
/// otherwise. Every shuffle output routes through this, so under a budget
/// every wide-operation result is an eviction candidate.
pub(crate) fn output_parts<T: GpfSerialize + Clone + Send + Sync + 'static>(
    ctx: &Arc<EngineContext>,
    parts: Vec<Vec<T>>,
) -> Parts<T> {
    match ctx.accountant() {
        Some(acct) => Parts::Tracked(TrackedStore::build(parts, ctx, Arc::clone(acct))),
        None => Parts::Plain(Arc::new(parts)),
    }
}

/// A borrowed view of one partition: a direct slice for plain datasets; for
/// tracked ones a pinned `Arc` of a resident partition (the pin keeps
/// eviction from spilling it while it is read) or a copy of an evicted one
/// decoded for this reader alone, holding its ledger charge until it drops.
/// Derefs to `[T]`.
pub enum PartRef<'a, T> {
    Slice(&'a [T]),
    Owned(Arc<Vec<T>>),
    Restored(Vec<T>, Charge),
}

impl<T> std::ops::Deref for PartRef<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            PartRef::Slice(s) => s,
            PartRef::Owned(v) => v,
            PartRef::Restored(v, _) => v,
        }
    }
}

impl<'b, T: PartialEq> PartialEq<PartRef<'b, T>> for PartRef<'_, T> {
    fn eq(&self, other: &PartRef<'b, T>) -> bool {
        **self == **other
    }
}

impl<T: PartialEq> PartialEq<[T]> for PartRef<'_, T> {
    fn eq(&self, other: &[T]) -> bool {
        **self == *other
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for PartRef<'_, T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PartRef<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Add one mapped chunk to an element-wise task's output. A one-chunk
/// partition — every plain one — hands its output over as is.
fn append_chunk<U>(out: &mut Vec<U>, mut mapped: Vec<U>) {
    if out.is_empty() {
        *out = mapped;
    } else {
        out.append(&mut mapped);
    }
}

/// One narrow stage of `n` tasks: `body` runs task `i` through the task
/// runner, outputs become a plain dataset, and the op is recorded with its
/// output record count and estimated churn.
fn narrow_stage<U: Send + Sync + 'static>(
    ctx: &Arc<EngineContext>,
    n: usize,
    label: &str,
    body: impl Fn(usize, &Task<'_>) -> Result<TaskRun<Vec<U>>, Abort> + Sync,
) -> Dataset<U> {
    let overhead = ctx.config().per_record_overhead_bytes;
    let surface = Some(FaultSurface::NarrowTask);
    let outs = run_stage(ctx, label, surface, n, body, |outs| {
        let records: u64 = outs.iter().map(|v| v.len() as u64).sum();
        (records, records * overhead)
    });
    match outs {
        Some(outs) => Dataset { ctx: Arc::clone(ctx), parts: Parts::Plain(Arc::new(outs)) },
        None => Dataset::failed(ctx, n),
    }
}

/// A partitioned in-memory dataset (the RDD analogue).
pub struct Dataset<T> {
    pub(crate) ctx: Arc<EngineContext>,
    pub(crate) parts: Parts<T>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Self { ctx: Arc::clone(&self.ctx), parts: self.parts.clone() }
    }
}

impl<T> Dataset<T> {
    /// What every operator returns once the pipeline has failed (a task
    /// out of retries, a budget breach): `n` empty partitions, so
    /// downstream operators short-circuit and the structured failure on the
    /// context is what surfaces.
    pub(crate) fn failed(ctx: &Arc<EngineContext>, n: usize) -> Self {
        let parts = Parts::Plain(Arc::new((0..n).map(|_| Vec::new()).collect()));
        Self { ctx: Arc::clone(ctx), parts }
    }
}

impl<T: Send + Sync + 'static> Dataset<T> {
    /// Build a dataset from a vector, chunked into `parts` partitions.
    pub fn from_vec(ctx: Arc<EngineContext>, items: Vec<T>, parts: usize) -> Self
    where
        T: Clone,
    {
        assert!(parts > 0, "partition count must be positive");
        let n = items.len();
        let chunk = n.div_ceil(parts).max(1);
        let mut out: Vec<Vec<T>> = Vec::with_capacity(parts);
        let mut it = items.into_iter();
        for _ in 0..parts {
            out.push(it.by_ref().take(chunk).collect());
        }
        Self { ctx, parts: Parts::Plain(Arc::new(out)) }
    }

    /// Build from explicit partitions (used by shuffles and generators).
    pub fn from_partitions(ctx: Arc<EngineContext>, parts: Vec<Vec<T>>) -> Self {
        assert!(!parts.is_empty(), "dataset needs at least one partition");
        Self { ctx, parts: Parts::Plain(Arc::new(parts)) }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.num()
    }

    /// Total number of records (metadata peek; unlike Spark's `count()` this
    /// does not run a job — use [`Dataset::collect`] for an accounted action).
    pub fn len(&self) -> usize {
        self.parts.total_len()
    }

    /// `true` when the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records per partition (load-balance diagnostics; §4.4 of the paper
    /// drives its dynamic repartitioning off exactly this measure).
    pub fn partition_sizes(&self) -> Vec<usize> {
        (0..self.parts.num()).map(|i| self.parts.part_len(i)).collect()
    }

    /// Borrow a partition's records. On a budget-tracked dataset an evicted
    /// partition is decoded into a copy for the returned `PartRef`, charged
    /// to the ledger until it drops, and stays evicted; a charge that cannot
    /// fit panics, so pipelines should go through operators (which surface a
    /// structured breach instead) — this accessor is for tests, benches and
    /// diagnostics.
    pub fn partition(&self, idx: usize) -> PartRef<'_, T> {
        match self.parts.get(idx) {
            Ok(p) => p,
            Err((req, bud)) => {
                // gpf-lint: allow(no-panic): diagnostics-only accessor;
                // inside pipelines an infeasible restore surfaces as a
                // structured budget breach through the operators instead.
                panic!("partition({idx}): restore needs {req} bytes under a {bud}-byte budget")
            }
        }
    }

    /// Serialized size of every partition under `kind`, one batch per
    /// partition, measured in parallel. A tracked partition is gathered
    /// from its streamed chunks ([`Parts::with_part`]), so measuring never
    /// admits (or breaches) anything and reads the same bytes as the plain
    /// representation under any budget.
    fn serialized_part_bytes(&self, kind: SerializerKind) -> Vec<u64>
    where
        T: GpfSerialize + Clone,
    {
        par::map_range(self.parts.num(), |i| {
            self.parts.with_part(i, |p| serialize_batch(kind, p).len() as u64)
        })
    }

    /// Core narrow operation: per-partition transform with metric
    /// recording. `f` receives `(partition_index, records)`.
    ///
    /// One parallel wave: plain partitions are borrowed, resident
    /// budget-tracked ones pinned for the task and evicted ones decoded into
    /// a copy the task holds, charged to the ledger until the task drops it
    /// (the slot stays evicted). A restore that does not fit beside the
    /// other tasks' pins and copies is re-run after the wave, alone, so any
    /// budget that fits the largest single partition stays feasible; only
    /// a restore that does not fit alone surfaces as a structured budget
    /// breach. Element-wise operators avoid even the restore via
    /// `Dataset::narrow_op_chunked`.
    pub fn narrow_op<U: Send + Sync + 'static>(
        &self,
        label: &str,
        f: impl Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    ) -> Dataset<U> {
        narrow_stage(&self.ctx, self.parts.num(), label, |i, task| {
            let part = task.restore(|| self.parts.get(i))?;
            task.run(AllocTag::Task, || f(i, &part))
        })
    }

    /// Element-wise narrow operation: `f` maps a *chunk* of records to
    /// outputs and is applied once per partition for plain (or resident)
    /// partitions but once per spill frame for evicted ones — a map stage
    /// over an evicted partition never materializes it, charges nothing to
    /// the ledger, and so stays parallel under any budget. `f` receives
    /// `(partition, offset of the chunk within it, chunk)`.
    fn narrow_op_chunked<U: Send + Sync + 'static>(
        &self,
        label: &str,
        f: impl Fn(usize, usize, &[T]) -> Vec<U> + Send + Sync,
    ) -> Dataset<U> {
        narrow_stage(&self.ctx, self.parts.num(), label, |i, task| {
            task.run(AllocTag::Task, || {
                let mut out = Vec::new();
                let mut offset = 0usize;
                self.parts.stream(i, &mut |chunk| {
                    append_chunk(&mut out, f(i, offset, chunk));
                    offset += chunk.len();
                });
                out
            })
        })
    }

    /// Element-wise transform.
    pub fn map<U: Send + Sync + 'static>(
        &self,
        f: impl Fn(&T) -> U + Send + Sync,
    ) -> Dataset<U> {
        self.narrow_op_chunked("map", move |_, _, p| p.iter().map(&f).collect())
    }

    /// Element-to-many transform.
    pub fn flat_map<U: Send + Sync + 'static, I: IntoIterator<Item = U>>(
        &self,
        f: impl Fn(&T) -> I + Send + Sync,
    ) -> Dataset<U> {
        self.narrow_op_chunked("flatMap", move |_, _, p| p.iter().flat_map(&f).collect())
    }

    /// [`Dataset::flat_map`] whose `f` also learns where each record sits:
    /// `f(partition, index within the partition, record)`. Element-wise like
    /// `flat_map` — an evicted partition is streamed, never restored — so a
    /// stage can name records by position for a later stage over the same
    /// dataset to find again, without moving them.
    pub fn flat_map_indexed<U: Send + Sync + 'static, I: IntoIterator<Item = U>>(
        &self,
        f: impl Fn(usize, usize, &T) -> I + Send + Sync,
    ) -> Dataset<U> {
        self.narrow_op_chunked("flatMap", move |part, offset, p| {
            p.iter().enumerate().flat_map(|(k, t)| f(part, offset + k, t)).collect()
        })
    }

    /// Keep records matching the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync) -> Dataset<T>
    where
        T: Clone,
    {
        self.narrow_op_chunked("filter", move |_, _, p| p.iter().filter(|t| f(t)).cloned().collect())
    }

    /// Whole-partition transform.
    pub fn map_partitions<U: Send + Sync + 'static>(
        &self,
        f: impl Fn(&[T]) -> Vec<U> + Send + Sync,
    ) -> Dataset<U> {
        self.narrow_op("mapPartitions", |_, p| f(p))
    }

    /// Whole-partition transform with the partition index.
    pub fn map_partitions_with_index<U: Send + Sync + 'static>(
        &self,
        f: impl Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    ) -> Dataset<U> {
        self.narrow_op("mapPartitionsWithIndex", f)
    }

    /// Close the open stage as a driver-bound action, charging every
    /// partition's serialized size as driver traffic.
    fn close_stage_to_driver(&self)
    where
        T: GpfSerialize + Clone,
    {
        let t0 = now_ns();
        let per_partition = self.serialized_part_bytes(self.ctx.serializer());
        self.ctx.record_serde(now_ns().saturating_sub(t0) as f64 * 1e-9);
        self.ctx.close_stage_collect("collect", per_partition);
    }

    /// Collect every record to the driver — an *action* that closes the
    /// stage and charges the serialized result size as driver traffic.
    pub fn collect(&self) -> Vec<T>
    where
        T: GpfSerialize + Clone,
    {
        if self.ctx.has_failed() {
            return Vec::new();
        }
        self.close_stage_to_driver();
        self.collect_local()
    }

    /// `map(f)` followed by Spark's `aggregate`, as one operator that never
    /// holds the mapped dataset: the same `map` tasks (label, fault surface,
    /// streamed under a budget), then the same driver-bound `collect` close
    /// charging every partition's values at their serialized size — but each
    /// task measures its own values, folds them into the accumulator of its
    /// contiguous group of partitions and drops them, so what is alive at
    /// once is one accumulator per worker and one partition's values per
    /// running task, not a value per record. `fold` must be associative and
    /// commutative over the values for the grouping (and the order tasks
    /// finish in) not to show; the driver merges the few accumulators in
    /// group order. A retried task's values are folded once.
    pub fn map_fold<U, A: Send>(
        &self,
        f: impl Fn(&T) -> U + Send + Sync,
        zero: impl Fn() -> A + Sync,
        fold: impl Fn(&mut A, &U) + Sync,
        merge: impl Fn(&mut A, A),
    ) -> A
    where
        U: GpfSerialize,
    {
        let n = self.parts.num();
        let kind = self.ctx.serializer();
        let groups = FoldGroups::new(n, &zero);
        let overhead = self.ctx.config().per_record_overhead_bytes;
        // One task yields `(values, their serialized bytes, seconds spent
        // measuring)`.
        let Some(done) = run_stage(
            &self.ctx,
            "map",
            Some(FaultSurface::NarrowTask),
            n,
            |i, task| {
                let run = task.run(AllocTag::Task, || {
                    let mut values: Vec<U> = Vec::with_capacity(self.parts.part_len(i));
                    self.parts.stream(i, &mut |chunk| values.extend(chunk.iter().map(&f)));
                    values
                })?;
                Ok(run.map(|values| {
                    let t0 = TaskTimer::start();
                    let bytes = serialize_batch(kind, &values).len() as u64;
                    let ser_s = t0.elapsed_s();
                    groups.fold(i, |acc| values.iter().for_each(|v| fold(acc, v)));
                    (values.len() as u64, bytes, ser_s)
                }))
            },
            |outs| {
                let records: u64 = outs.iter().map(|(records, _, _)| records).sum();
                (records, records * overhead)
            },
        ) else {
            return zero();
        };
        self.ctx.record_serde(done.iter().map(|(_, _, ser_s)| ser_s).sum());
        self.ctx.close_stage_collect("collect", done.iter().map(|&(_, bytes, _)| bytes).collect());
        groups.merged(merge).unwrap_or_else(zero)
    }

    /// Concatenate all partitions without any accounting (test/diagnostic
    /// helper — not an engine action). Streams tracked partitions, so it
    /// works under any budget.
    pub fn collect_local(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.parts.num() {
            self.parts.stream(i, &mut |chunk| out.extend_from_slice(chunk));
        }
        out
    }

    /// Serialized size of the whole dataset under `kind` — the measurement
    /// behind the paper's Table 3.
    pub fn serialized_size(&self, kind: gpf_compress::SerializerKind) -> u64
    where
        T: GpfSerialize + Clone,
    {
        self.serialized_part_bytes(kind).into_iter().sum()
    }

    /// Materialize the dataset through "disk": the shuffle that sends
    /// partition *i* to partition *i*, so every record is serialized, closes
    /// the stage as shuffle-write bytes and is read back as the same
    /// shuffle-read bytes.
    ///
    /// This models classic file-based pipelines (Churchill, HugeSeq,
    /// GATK-Queue) whose steps hand intermediate SAM/BAM files to each other
    /// through the filesystem — the I/O pattern the paper's Table 1 blames
    /// for their poor scaling. Its "files" are the shuffle's buckets, so
    /// they fail and recover as buckets do: a write task is retried, and a
    /// damaged file is recomputed from the input, which the shuffle keeps
    /// as lineage under faults.
    pub fn barrier_via_disk(&self, label: &str) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        shuffle(&self.ctx, self.parts.clone(), self.parts.num(), label, |src, _| src)
    }

    /// Opt this dataset into the memory-budget eviction policy: under a
    /// configured budget ([`crate::EngineConfig::with_memory_budget`]) its
    /// partitions become eviction victims and map stages over
    /// evicted partitions stream chunk-by-chunk. A no-op when no budget is
    /// installed or the dataset is already tracked. Takes the dataset: a
    /// sole-owned one moves into the store, record for record where it
    /// sits (only a shared one is copied).
    pub fn evictable(self) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        let Dataset { ctx, parts } = self;
        let parts = match parts {
            Parts::Plain(v) if ctx.accountant().is_some() => {
                let owned = Arc::try_unwrap(v).unwrap_or_else(|shared| shared.as_ref().clone());
                output_parts(&ctx, owned)
            }
            as_is => as_is,
        };
        Dataset { ctx, parts }
    }

    /// Number of partitions currently evicted to checksummed spill frames.
    /// Always `0` for a plain (untracked) dataset — i.e. whenever no memory
    /// budget is installed.
    pub fn spilled_partitions(&self) -> usize {
        match &self.parts {
            Parts::Plain(_) => 0,
            Parts::Tracked(s) => (0..s.num_parts()).filter(|&i| s.is_spilled(i)).count(),
        }
    }

    /// Repartition arbitrary records by an explicit routing function. When
    /// this handle holds the last reference to its partitions, each map task
    /// frees its input partition as soon as it has serialized it, instead of
    /// the whole input living until the shuffle ends. A caller that reads
    /// the dataset again passes a `.clone()`: the shuffle then reads the
    /// shared partitions in place. Neither way copies a record of a plain
    /// input.
    pub fn into_partition_by(
        self,
        nparts: usize,
        route: impl Fn(&T) -> usize + Send + Sync,
    ) -> Dataset<T>
    where
        T: GpfSerialize + Clone,
    {
        let Dataset { ctx, parts } = self;
        shuffle(&ctx, parts, nparts, "partitionBy", move |_, item| route(item))
    }

    /// Consuming twin of [`Dataset::narrow_op_chunked`]: `f` receives each
    /// chunk by value — the partition itself when this handle holds the
    /// last reference to it (taken out of its store when budget-tracked),
    /// a clone of each streamed chunk otherwise ([`TaskSource`] decides) —
    /// as `(partition, offset of the chunk within it, chunk)`. Neither way
    /// admits anything, so the stage stays parallel under any budget.
    fn into_narrow_op_chunked<U: Send + Sync + 'static>(
        self,
        label: &str,
        f: impl Fn(usize, usize, Vec<T>) -> Vec<U> + Send + Sync,
    ) -> Dataset<U>
    where
        T: Clone,
    {
        let Dataset { ctx, parts } = self;
        let n = parts.num();
        let source = TaskSource::new(&ctx, parts);
        narrow_stage(&ctx, n, label, |i, task| {
            task.run(AllocTag::Task, || {
                let mut out = Vec::new();
                let mut offset = 0usize;
                source.for_each_chunk(i, &mut |chunk| {
                    let len = chunk.len();
                    append_chunk(&mut out, f(i, offset, chunk));
                    offset += len;
                });
                out
            })
        })
    }

    /// Consuming [`Dataset::map`]: `f` receives each record by value —
    /// moved when this handle holds the last reference to its partitions,
    /// a clone otherwise (`TaskSource` decides). Same stage label, fault
    /// surface and accounting as `map`, and like it never admits a
    /// partition to a memory budget. Each chunk is
    /// collected straight off its own iterator, so when `T` and `U` share a
    /// layout (`RegionBundle -> RegionBundle`) the output is the input's
    /// allocation, rewritten in place.
    pub fn into_map<U: Send + Sync + 'static>(
        self,
        f: impl Fn(T) -> U + Send + Sync,
    ) -> Dataset<U>
    where
        T: Clone,
    {
        self.into_narrow_op_chunked("map", move |_, _, chunk| chunk.into_iter().map(&f).collect())
    }

    /// [`Dataset::into_map`] whose `f` also learns where each record sat:
    /// `f(partition, index within the partition, record)` — the positions
    /// [`Dataset::flat_map_indexed`] names.
    pub fn into_map_indexed<U: Send + Sync + 'static>(
        self,
        f: impl Fn(usize, usize, T) -> U + Send + Sync,
    ) -> Dataset<U>
    where
        T: Clone,
    {
        self.into_narrow_op_chunked("map", move |part, offset, chunk| {
            chunk.into_iter().enumerate().map(|(k, t)| f(part, offset + k, t)).collect()
        })
    }

    /// Consuming [`Dataset::flat_map`]: `f` receives each record by value,
    /// moved or cloned as for [`Dataset::into_map`].
    pub fn into_flat_map<U: Send + Sync + 'static, I: IntoIterator<Item = U>>(
        self,
        f: impl Fn(T) -> I + Send + Sync,
    ) -> Dataset<U>
    where
        T: Clone,
    {
        self.into_narrow_op_chunked("flatMap", move |_, _, chunk| chunk.into_iter().flat_map(&f).collect())
    }

    /// Consuming [`Dataset::map_partitions`]: `f` receives each partition
    /// as an owned vector — the partition itself when this handle holds the
    /// last reference (taken out of its store when budget-tracked, without
    /// admission), a clone of the borrowed (or, under a budget, restored)
    /// partition otherwise. Shared tracked restores run in the stage's one
    /// wave, a breached one again alone after it, as for
    /// [`Dataset::narrow_op`].
    pub fn into_map_partitions<U: Send + Sync + 'static>(
        self,
        f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync,
    ) -> Dataset<U>
    where
        T: Clone,
    {
        let Dataset { ctx, parts } = self;
        let n = parts.num();
        let source = TaskSource::new(&ctx, parts);
        narrow_stage(&ctx, n, "mapPartitions", |i, task| {
            let part = source.part(i, task)?;
            task.run(AllocTag::Task, || f(part.take_or_clone()))
        })
    }

    /// Pairwise partition zip (both datasets must have equal partition
    /// counts) — the primitive behind bundled RDDs (paper Figure 7(b)).
    /// Both sides are taken by value, each moved or cloned on its own
    /// ownership (`TaskSource` decides).
    ///
    /// A side that is the last handle to its budget-tracked store is taken
    /// in the task body, without admission. A shared tracked side is
    /// pinned or restored as in [`Dataset::narrow_op`], in the stage's one
    /// wave; a task whose restore does not fit beside the other tasks' pins
    /// and copies is re-run after the wave, alone, so any budget that fits
    /// the largest pair stays feasible — not the whole right-hand dataset,
    /// which is what pinning every restore up front would cost. The re-run still finds a sole-owned side's
    /// partition: it is only taken once both sides are in hand.
    pub fn into_zip_partitions<U, V>(
        self,
        other: Dataset<U>,
        f: impl Fn(usize, Vec<T>, Vec<U>) -> Vec<V> + Send + Sync,
    ) -> Dataset<V>
    where
        T: Clone,
        U: Clone + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        assert_eq!(
            self.num_partitions(),
            other.num_partitions(),
            "zip_partitions requires equal partition counts"
        );
        let Dataset { ctx, parts } = self;
        let n = parts.num();
        let (left, right) = (TaskSource::new(&ctx, parts), TaskSource::new(&ctx, other.parts));
        narrow_stage(&ctx, n, "zipPartitions", |i, task| {
            let (l, r) = (left.part(i, task)?, right.part(i, task)?);
            task.run(AllocTag::Task, || f(i, l.take_or_clone(), r.take_or_clone()))
        })
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Hash + Eq + Clone + Send + Sync + GpfSerialize + 'static,
    V: Clone + Send + Sync + GpfSerialize + 'static,
{
    /// Hash-partition by key and fold values with `f`.
    pub fn reduce_by_key(&self, nparts: usize, f: impl Fn(&V, &V) -> V + Send + Sync) -> Dataset<(K, V)> {
        // Map-side combine first (Spark does this too) to cut shuffle volume.
        let combined = self.narrow_op("mapSideCombine", |_, p| fold_by_key(p, &f));
        // `combined` is a freshly built intermediate nobody else references,
        // so destructuring it hands the shuffle sole ownership of the
        // partitions and each map task frees the one it serialized.
        let Dataset { ctx, parts } = combined;
        let shuffled = shuffle(&ctx, parts, nparts, "reduceByKey", |_, kv: &(K, V)| {
            (stable_hash(&kv.0) % nparts as u64) as usize
        });
        shuffled.narrow_op("reduce", |_, p| fold_by_key(p, &f))
    }

    /// Repartition key-value records by a key routing function, preserving
    /// record order within each source partition. Input partitions are
    /// freed by the map tasks that serialized them when this handle holds
    /// the last reference to them, as for [`Dataset::into_partition_by`].
    pub fn into_partition_by_key(
        self,
        nparts: usize,
        route: impl Fn(&K) -> usize + Send + Sync,
    ) -> Dataset<(K, V)> {
        let Dataset { ctx, parts } = self;
        shuffle(&ctx, parts, nparts, "partitionByKey", move |_, kv: &(K, V)| route(&kv.0))
    }

    /// Range-partition by key and sort each partition — Spark's
    /// `sortByKey`. Boundaries are computed from a deterministic sample.
    pub fn sort_by_key(&self, nparts: usize) -> Dataset<(K, V)>
    where
        K: Ord,
    {
        // Sample up to 1024 keys deterministically (every k-th record).
        let total = self.len().max(1);
        let step = (total / 1024).max(1);
        let mut sample: Vec<K> = Vec::new();
        let mut idx = 0usize;
        for pi in 0..self.parts.num() {
            self.parts.stream(pi, &mut |chunk| {
                for (k, _) in chunk {
                    if idx.is_multiple_of(step) {
                        sample.push(k.clone());
                    }
                    idx += 1;
                }
            });
        }
        sample.sort();
        // An empty sample (empty input, or an upstream budget breach that
        // degraded to an empty dataset) yields no bounds: every record —
        // there are none — routes to partition 0 and the op stays total.
        let bounds: Vec<K> = if sample.is_empty() {
            Vec::new()
        } else {
            (1..nparts)
                .map(|i| sample[(i * sample.len() / nparts).min(sample.len() - 1)].clone())
                .collect()
        };
        let shuffled = shuffle(&self.ctx, self.parts.clone(), nparts, "sortByKey", move |_, kv: &(K, V)| {
            bounds.partition_point(|b| *b <= kv.0)
        });
        shuffled.narrow_op("sortPartition", |_, p| {
            let mut v: Vec<(K, V)> = p.to_vec();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        })
    }
}

/// Fold each key's values with `f`, emitting keys in order of first
/// arrival so the result is deterministic.
fn fold_by_key<K, V>(p: &[(K, V)], f: &impl Fn(&V, &V) -> V) -> Vec<(K, V)>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    let mut order: Vec<K> = Vec::new();
    let mut acc: std::collections::HashMap<K, V> = std::collections::HashMap::new();
    for (k, v) in p {
        match acc.get_mut(k) {
            Some(cur) => *cur = f(cur, v),
            None => {
                order.push(k.clone());
                acc.insert(k.clone(), v.clone());
            }
        }
    }
    order
        .into_iter()
        .filter_map(|k| {
            let v = acc.remove(&k)?;
            Some((k, v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    fn ctx() -> Arc<EngineContext> {
        EngineContext::new(EngineConfig::default().with_parallelism(4))
    }

    #[test]
    fn from_vec_chunks_evenly() {
        let d = Dataset::from_vec(ctx(), (0u64..10).collect(), 3);
        assert_eq!(d.num_partitions(), 3);
        assert_eq!(d.len(), 10);
        assert_eq!(d.partition_sizes(), vec![4, 4, 2]);
        assert_eq!(d.collect_local(), (0u64..10).collect::<Vec<_>>());
    }

    #[test]
    fn from_vec_more_parts_than_items() {
        let d = Dataset::from_vec(ctx(), vec![1u64], 4);
        assert_eq!(d.num_partitions(), 4);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn map_filter_flat_map() {
        let d = Dataset::from_vec(ctx(), (0u64..8).collect(), 2);
        let m = d.map(|x| x * 2);
        assert_eq!(m.collect_local(), vec![0, 2, 4, 6, 8, 10, 12, 14]);
        let f = m.filter(|x| *x >= 8);
        assert_eq!(f.collect_local(), vec![8, 10, 12, 14]);
        let fm = d.flat_map(|x| vec![*x, *x]);
        assert_eq!(fm.len(), 16);
    }

    #[test]
    fn narrow_ops_stay_in_one_stage() {
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), (0u64..100).collect(), 4);
        let _x = d.map(|x| x + 1).filter(|x| x % 2 == 0).map(|x| x * 3);
        let run = c.take_run();
        assert_eq!(run.num_stages(), 1, "narrow chains must not create stages");
    }

    #[test]
    fn reduce_by_key_sums() {
        let data: Vec<(u64, u64)> = (0u64..50).map(|i| (i % 3, 1)).collect();
        let d = Dataset::from_vec(ctx(), data, 4);
        let mut out = d.reduce_by_key(2, |a, b| a + b).collect_local();
        out.sort();
        assert_eq!(out, vec![(0, 17), (1, 17), (2, 16)]);
    }

    #[test]
    fn sort_by_key_sorts_globally() {
        let data: Vec<(u64, u64)> = (0u64..200).rev().map(|i| (i, i * 10)).collect();
        let d = Dataset::from_vec(ctx(), data, 7);
        let s = d.sort_by_key(4);
        let collected = s.collect_local();
        let keys: Vec<u64> = collected.iter().map(|(k, _)| *k).collect();
        let mut expect: Vec<u64> = (0u64..200).collect();
        expect.sort();
        assert_eq!(keys, expect, "global order across partitions");
        // Partition boundaries respect ranges.
        for i in 0..s.num_partitions() - 1 {
            let last = s.partition(i).last().map(|(k, _)| *k);
            let first = s.partition(i + 1).first().map(|(k, _)| *k);
            if let (Some(l), Some(f)) = (last, first) {
                assert!(l <= f);
            }
        }
    }

    #[test]
    fn partition_by_routes_records() {
        let d = Dataset::from_vec(ctx(), (0u64..40).collect(), 4);
        let p = d.into_partition_by(4, |x| (*x % 4) as usize);
        for i in 0..4 {
            assert!(p.partition(i).iter().all(|x| (*x % 4) as usize == i));
        }
        assert_eq!(p.len(), 40);
    }

    #[test]
    fn zip_partitions_combines() {
        let c = ctx();
        let a = Dataset::from_vec(Arc::clone(&c), (0u64..10).collect(), 2);
        let b = Dataset::from_vec(Arc::clone(&c), (100u64..110).collect(), 2);
        let z = a.into_zip_partitions(b, |_, x, y| {
            x.iter().zip(&y).map(|(a, b)| a + b).collect::<Vec<u64>>()
        });
        assert_eq!(z.collect_local(), (0u64..10).map(|i| i + 100 + i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "equal partition counts")]
    fn zip_partitions_rejects_mismatch() {
        let c = ctx();
        let a = Dataset::from_vec(Arc::clone(&c), (0u64..10).collect(), 2);
        let b = Dataset::from_vec(Arc::clone(&c), (0u64..10).collect(), 3);
        let _ = a.into_zip_partitions(b, |_, x, _| x);
    }

    #[test]
    fn collect_closes_stage_with_bytes() {
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), (0u64..100).collect(), 4);
        let got = d.collect();
        assert_eq!(got.len(), 100);
        let run = c.take_run();
        assert_eq!(run.num_stages(), 1);
        assert_eq!(run.stages[0].kind, crate::metrics::StageKind::Collect);
        assert!(run.stages[0].total_shuffle_write() > 0);
    }

    #[test]
    fn shuffle_bytes_depend_on_serializer() {
        use gpf_compress::SerializerKind;
        let data: Vec<(u64, String)> =
            (0..200).map(|i| (i % 10, format!("value-{i:06}"))).collect();
        let sizes: Vec<u64> = [EngineConfig::java(), EngineConfig::kryo()]
            .into_iter()
            .map(|cfg| {
                let c = EngineContext::new(cfg);
                let d = Dataset::from_vec(Arc::clone(&c), data.clone(), 4);
                let _p = d.into_partition_by_key(4, |k| (*k % 4) as usize);
                c.take_run().total_shuffle_bytes()
            })
            .collect();
        assert!(sizes[0] > sizes[1], "java {} should exceed kryo {}", sizes[0], sizes[1]);
        // And serialized_size agrees in direction.
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), data, 4);
        assert!(
            d.serialized_size(SerializerKind::JavaSim) > d.serialized_size(SerializerKind::KryoSim)
        );
    }

    #[test]
    fn barrier_via_disk_preserves_data_and_records_bytes() {
        let c = ctx();
        let d = Dataset::from_vec(Arc::clone(&c), (0u64..200).collect(), 4);
        let back = d.barrier_via_disk("checkpoint");
        assert_eq!(back.collect_local(), d.collect_local());
        let run = c.take_run();
        assert_eq!(run.num_stages(), 2, "barrier closes a stage");
        let wrote = run.stages[0].total_shuffle_write();
        let read = run.stages[1].total_shuffle_read();
        assert!(wrote > 0);
        assert_eq!(wrote, read, "everything written is read back");
    }

    #[test]
    fn consuming_shuffle_moves_partitions() {
        use gpf_trace::counters_snapshot;
        let get = |name: &str| {
            counters_snapshot().iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
        };
        gpf_trace::set_enabled(true);
        let moved0 = get("shuffle.partitions.moved");
        let d = Dataset::from_vec(ctx(), (0u64..64).collect(), 4);
        let p = d.into_partition_by(4, |x| (*x % 4) as usize);
        assert_eq!(p.len(), 64);
        let moved1 = get("shuffle.partitions.moved");
        // A shared handle is read where it sits.
        let borrowed0 = get("shuffle.partitions.borrowed");
        let d2 = Dataset::from_vec(ctx(), (0u64..64).collect(), 4);
        let keep = d2.clone();
        let p2 = d2.into_partition_by(4, |x| (*x % 4) as usize);
        assert_eq!(p2.len(), 64);
        let borrowed1 = get("shuffle.partitions.borrowed");
        gpf_trace::set_enabled(false);
        // Deltas are >= because other concurrently running tests may also
        // shuffle while tracing is on.
        assert!(moved1 >= moved0 + 4, "sole-owner shuffle should take its partitions");
        assert!(borrowed1 >= borrowed0 + 4, "shared partitions are borrowed");
        assert_eq!(keep.collect_local(), (0u64..64).collect::<Vec<_>>(), "and left as they were");
    }

    /// A record that counts its clones.
    struct Counted(u64, Arc<std::sync::atomic::AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Counted(self.0, Arc::clone(&self.1))
        }
    }

    impl GpfSerialize for Counted {
        fn write(&self, w: &mut gpf_compress::ByteWriter) {
            w.write_u64(self.0);
        }
        fn read(r: &mut gpf_compress::ByteReader<'_>) -> Result<Self, gpf_compress::CodecError> {
            Ok(Counted(r.read_u64()?, Arc::default()))
        }
    }

    #[test]
    fn a_plain_shuffle_input_is_serialized_by_reference_owned_or_shared() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let clones = Arc::new(AtomicUsize::new(0));
        for shared in [false, true] {
            let items: Vec<Counted> = (0u64..40).rev().map(|i| Counted(i, Arc::clone(&clones))).collect();
            let d = Dataset::from_vec(ctx(), items, 4);
            let keep = shared.then(|| d.clone());
            let p = d.into_partition_by(3, |c| (c.0 % 3) as usize);
            assert_eq!(clones.load(Ordering::SeqCst), 0, "shared {shared}: no record is copied to be routed");
            for t in 0..3 {
                let got: Vec<u64> = p.partition(t).iter().map(|c| c.0).collect();
                let want: Vec<u64> = (0u64..40).rev().filter(|i| i % 3 == t as u64).collect();
                assert_eq!(got, want, "shared {shared}: bucket {t} keeps source order");
            }
            if let Some(keep) = keep {
                let left: Vec<u64> = (0..4).flat_map(|i| keep.partition(i).iter().map(|c| c.0).collect::<Vec<_>>()).collect();
                assert_eq!(left, (0u64..40).rev().collect::<Vec<_>>(), "the input is not permuted");
            }
        }
    }

    #[test]
    fn flat_map_indexed_names_positions_across_streamed_frames() {
        // Two 3000-record partitions under a budget far below one: both
        // spill at build and stream back in three frames each.
        let c = EngineContext::new(EngineConfig::default().with_memory_budget(64));
        let d = Dataset::from_vec(Arc::clone(&c), (0u64..6000).collect(), 2).evictable();
        assert_eq!(d.spilled_partitions(), 2);
        let at = d.flat_map_indexed(|part, index, x| (x % 2 == 0).then_some((part, index, *x)));
        assert!(c.take_failure().is_none(), "an element-wise operator never restores");
        let want: Vec<(usize, usize, u64)> =
            (0u64..6000).filter(|x| x % 2 == 0).map(|x| ((x / 3000) as usize, (x % 3000) as usize, x)).collect();
        assert_eq!(at.collect_local(), want);
    }

    #[test]
    fn spilled_partitions_measure_and_collect_one_batch_each() {
        // Two 3000-record partitions under a budget far below one: both
        // spill, three frames each, and still serialize as one batch apiece.
        let data: Vec<(u64, u64)> = (0u64..6000).map(|i| (i, i * 7)).collect();
        for cfg in [EngineConfig::gpf(), EngineConfig::kryo(), EngineConfig::java()] {
            let kind = cfg.serializer;
            let measure = |cfg: EngineConfig| {
                let c = EngineContext::new(cfg);
                let d = Dataset::from_vec(Arc::clone(&c), data.clone(), 2).evictable();
                let size = d.serialized_size(kind);
                assert_eq!(d.collect(), data);
                (d.spilled_partitions(), size, c.take_run().stages[0].shuffle_write_bytes.clone())
            };
            let (spilled, size, collected) = measure(cfg.clone().with_memory_budget(64));
            let (_, plain_size, plain_collected) = measure(cfg);
            assert_eq!(spilled, 2, "{kind:?}");
            assert_eq!(size, plain_size, "{kind:?} serialized_size");
            assert_eq!(collected, plain_collected, "{kind:?} collect");
        }
    }

    #[test]
    fn map_fold_folds_every_value_with_map_and_collects_accounting() {
        let (c1, c2) = (ctx(), ctx());
        let data: Vec<u64> = (0u64..1000).collect();
        let sum = |d: &Dataset<u64>| d.map_fold(|x| x * 3, || 0u64, |acc, v| *acc += v, |acc, other| *acc += other);
        // More partitions than workers, as many or fewer, one, and none
        // that hold a record.
        for parts in [37, 2, 1] {
            assert_eq!(
                sum(&Dataset::from_vec(Arc::clone(&c1), data.clone(), parts)),
                data.iter().map(|x| x * 3).sum::<u64>(),
                "{parts} partitions"
            );
            let mapped = Dataset::from_vec(Arc::clone(&c2), data.clone(), parts).map(|x| x * 3);
            assert_eq!(mapped.collect().len(), data.len());
        }
        assert_eq!(sum(&Dataset::from_vec(Arc::clone(&c1), Vec::new(), 3)), 0);
        let (folded, collected) = (c1.take_run(), c2.take_run());
        for (a, b) in folded.stages.iter().zip(&collected.stages) {
            assert_eq!(
                (a.kind, &a.label, a.records_out, a.task_cpu_s.len(), &a.shuffle_write_bytes),
                (b.kind, &b.label, b.records_out, b.task_cpu_s.len(), &b.shuffle_write_bytes)
            );
        }
    }

    #[test]
    fn consuming_narrow_ops_move_a_sole_owned_input_and_clone_a_shared_one() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let clones = Arc::new(AtomicUsize::new(0));
        let build = |c: &Arc<EngineContext>| {
            let items: Vec<Counted> = (0u64..40).map(|i| Counted(i, Arc::clone(&clones))).collect();
            Dataset::from_vec(Arc::clone(c), items, 4)
        };
        type Op = fn(Dataset<Counted>, Dataset<Counted>) -> Vec<u64>;
        let ops: [(&str, Op); 3] = [
            ("into_map", |d, _| d.into_map(|c| c.0).collect_local()),
            ("into_map_partitions", |d, _| {
                d.into_map_partitions(|p| p.into_iter().map(|c| c.0).collect()).collect_local()
            }),
            ("into_zip_partitions", |d, e| {
                d.into_zip_partitions(e, |_, l, r| l.iter().zip(&r).map(|(a, b)| a.0 + b.0).collect())
                    .collect_local()
            }),
        ];
        for (name, op) in ops {
            let c = ctx();
            let before = clones.load(Ordering::SeqCst);
            let moved = op(build(&c), build(&c));
            assert_eq!(clones.load(Ordering::SeqCst), before, "{name}: a sole owner clones nothing");
            // A second handle on the left input: its 40 records are cloned,
            // the sole-owned right input still moves.
            let left = build(&c);
            let keep = left.clone();
            let before = clones.load(Ordering::SeqCst);
            let cloned = op(left, build(&c));
            assert_eq!(clones.load(Ordering::SeqCst), before + 40, "{name}: one clone per record");
            assert_eq!(cloned, moved, "{name}");
            assert_eq!(keep.len(), 40, "{name}: the kept handle still holds its records");
        }
    }

    #[test]
    fn empty_dataset_ops() {
        let c = ctx();
        let d: Dataset<(u64, u64)> = Dataset::from_vec(Arc::clone(&c), vec![], 3);
        assert!(d.is_empty());
        let r = d.reduce_by_key(2, |a, b| a + b);
        assert!(r.collect_local().is_empty());
        let m = d.map(|kv| kv.0);
        assert_eq!(m.num_partitions(), 3);
    }
}
