//! Canonical registry of counter and histogram names.
//!
//! Every name passed to [`crate::counter`] / [`crate::histogram`] anywhere
//! in the workspace is declared here exactly once. A typo'd metric name
//! used to register (and silently accumulate into) a fresh counter nobody
//! reads; gpf-lint's `counter-name-registry` rule now flags any
//! `counter("...")` / `histogram("...")` call site whose string literal is
//! not in this registry — it reads [`ALL_COUNTERS`] / [`ALL_HISTOGRAMS`]
//! themselves.
//!
//! The `heap.*` names belong to the tracking allocator ([`crate::alloc`]);
//! [`HEAP_LIVE_TRACK`] is a trace *event* name (the Perfetto counter
//! track), not a registry counter, and is declared here so the emitting
//! side (gpf-engine) and the report side agree on it.

/// Events dropped by bounded trace rings (bumped on overflow).
pub const TRACE_DROPPED: &str = "trace.dropped";

/// Windows where the Myers prefilter admitted the banded DP — mate-rescue
/// and realignment windows only: seed candidates are decided by
/// `align.verify.*` and never reach the prefilter (PR 25).
pub const ALIGN_PREFILTER_HIT: &str = "align.prefilter.hit";
/// Windows the Myers prefilter proved unalignable (DP skipped); same scope
/// as [`ALIGN_PREFILTER_HIT`].
pub const ALIGN_PREFILTER_SKIP: &str = "align.prefilter.skip";
/// Band cells evaluated by the Smith–Waterman fitting alignment.
pub const ALIGN_SW_CELLS: &str = "align.sw.cells";
/// Seed-candidate verifications decided by running the banded DP.
pub const ALIGN_VERIFY_DP: &str = "align.verify.dp";
/// Seed-candidate verifications decided by a unique verbatim in-band
/// occurrence (no DP).
pub const ALIGN_VERIFY_EXACT: &str = "align.verify.exact";
/// Seed-candidate verifications decided by the one-mismatch certificate
/// (no DP).
pub const ALIGN_VERIFY_ONE_MISMATCH: &str = "align.verify.one_mismatch";
/// DP cells evaluated by the pair-HMM likelihood kernel.
pub const PAIRHMM_CELLS: &str = "pairhmm.cells";
/// Lane-cells the pair-HMM kernel swept, padding included:
/// `pairhmm.cells / pairhmm.lane_cells` is its lane occupancy.
pub const PAIRHMM_LANE_CELLS: &str = "pairhmm.lane_cells";
/// (read, haplotype) evaluations answered by an identical window of the
/// same read instead of a DP of their own.
pub const PAIRHMM_SHARED_WINDOWS: &str = "pairhmm.shared_windows";
/// Pair-HMM groups (up to four jobs) whose column sweeps ran at AVX2 width;
/// 0 on a host without AVX2, where every group takes the portable sweep.
pub const PAIRHMM_WIDE_GROUPS: &str = "pairhmm.wide_groups";

/// Chunks claimed by the work-stealing pool.
pub const PAR_CHUNKS: &str = "par.chunks";
/// Successful steals in the work-stealing pool.
pub const PAR_STEALS: &str = "par.steals";
/// Worker busy nanoseconds.
pub const PAR_BUSY_NS: &str = "par.busy_ns";
/// Worker idle (stealing/parked) nanoseconds.
pub const PAR_IDLE_NS: &str = "par.idle_ns";

/// Bases pushed through the 2-bit sequence codec.
pub const CODEC_BASES: &str = "codec.bases";
/// Bytes written by batch serialization.
pub const CODEC_SERIALIZE_BYTES: &str = "codec.serialize.bytes";
/// Records written by batch serialization.
pub const CODEC_SERIALIZE_RECORDS: &str = "codec.serialize.records";
/// Bytes read by batch deserialization.
pub const CODEC_DESERIALIZE_BYTES: &str = "codec.deserialize.bytes";
/// Records read by batch deserialization.
pub const CODEC_DESERIALIZE_RECORDS: &str = "codec.deserialize.records";

/// Partition splits decided by the §4.4 dynamic repartition.
pub const REPARTITION_SPLITS: &str = "repartition.splits";
/// Records moved off their base partition by a split.
pub const REPARTITION_MOVED: &str = "repartition.moved_records";
/// Times the 64-piece split cap actually bound.
pub const REPARTITION_CAP_HIT: &str = "repartition.cap_hit";
/// Underfull base partitions merged into a shared final partition by the
/// piece-aware rebalance plan.
pub const REPARTITION_MERGED: &str = "repartition.merged";

/// Faults injected by the active fault plan.
pub const FAULT_INJECTED: &str = "fault.injected";
/// Task attempts beyond the first.
pub const TASK_RETRIES: &str = "task.retries";
/// Shuffle segments (the disk barrier's included) recomputed from lineage.
pub const SHUFFLE_RECOMPUTED: &str = "shuffle.recomputed";

/// Shuffle input partitions taken by the map task that serialized them and
/// freed there (sole owner, plain or out of a budget store).
pub const SHUFFLE_PARTITIONS_MOVED: &str = "shuffle.partitions.moved";
/// Shuffle input partitions serialized where they sit (shared plain input,
/// or any plain input kept as lineage under a fault plan).
pub const SHUFFLE_PARTITIONS_BORROWED: &str = "shuffle.partitions.borrowed";
/// Shuffle input partitions gathered, record by record, from a shared
/// budget-tracked store's streamed chunks.
pub const SHUFFLE_PARTITIONS_CLONED: &str = "shuffle.partitions.cloned";

/// Bytes allocated while heap tracking was active (all threads).
pub const HEAP_ALLOC_BYTES: &str = "heap.alloc.bytes";
/// Bytes freed while heap tracking was active (all threads).
pub const HEAP_FREED_BYTES: &str = "heap.freed.bytes";
/// Allocation count while heap tracking was active.
pub const HEAP_ALLOC_COUNT: &str = "heap.alloc.count";
/// Bytes charged to no attribution scope.
pub const HEAP_TAG_UNTAGGED: &str = "heap.tag.untagged";
/// Bytes charged to task (narrow-operator) scopes.
pub const HEAP_TAG_TASK: &str = "heap.tag.task";
/// Bytes charged to serialization scopes.
pub const HEAP_TAG_SERDE: &str = "heap.tag.serde";
/// Bytes charged to shuffle scopes.
pub const HEAP_TAG_SHUFFLE: &str = "heap.tag.shuffle";
/// Bytes charged to spill (memory-budget spill frame) scopes.
pub const HEAP_TAG_SPILL: &str = "heap.tag.spill";

/// Budget breaches: a read of a spilled partition could not admit its
/// charge even after exhausting every eviction victim (the task is re-run
/// alone, and a breach on that re-run surfaces as a structured error).
/// A store build that spills a partition on the spot is not a breach.
pub const MEM_BUDGET_BREACH: &str = "mem.budget.breach";
/// Spilled partitions read back (decoded + checksum-verified) on demand:
/// a copy for one reader, or taken out of the store by a consuming task.
pub const MEM_BUDGET_RESTORED: &str = "mem.budget.restored";
/// Resident bytes restored from spill.
pub const MEM_BUDGET_RESTORED_BYTES: &str = "mem.budget.restored_bytes";
/// Resident partitions serialized to spill frames: by eviction, or by a
/// store build that could not admit them.
pub const MEM_BUDGET_SPILLED: &str = "mem.budget.spilled";
/// Resident bytes evicted to spill frames.
pub const MEM_BUDGET_SPILLED_BYTES: &str = "mem.budget.spilled_bytes";

/// Allocation-size distribution (log₂ size classes).
pub const HEAP_SIZE_CLASS: &str = "heap.size_class";
/// Sizes in bytes of the shuffle segments *written*: one sample per
/// non-empty (map task, bucket) pair. Empty buckets write nothing and are
/// not sampled (until PR 21 every bucket was, so most samples were 0).
pub const SHUFFLE_BUCKET_BYTES: &str = "shuffle.bucket.bytes";
/// Records per written (non-empty) shuffle segment; same sampling as
/// [`SHUFFLE_BUCKET_BYTES`].
pub const SHUFFLE_BUCKET_RECORDS: &str = "shuffle.bucket.records";

/// Trace *event* name of the Perfetto heap counter track sampled at span
/// and stage boundaries (not a registry counter).
pub const HEAP_LIVE_TRACK: &str = "heap.live_bytes";
/// Counter key on a [`HEAP_LIVE_TRACK`] event: live bytes at the sample.
pub const HEAP_LIVE_KEY: &str = "live";
/// Counter key on a [`HEAP_LIVE_TRACK`] event: peak bytes over the window
/// since the previous sample.
pub const HEAP_PEAK_KEY: &str = "peak";
/// Counter key on a [`HEAP_LIVE_TRACK`] event: exact bytes the memory-budget
/// accountant currently holds in its ledger (only present when a budget is
/// installed).
pub const BUDGET_LEDGER_KEY: &str = "ledger";

/// Counter key on a `proc:*` span's end: the process's resident set size in
/// KiB once the step had run (traced runs only).
pub const RSS_KB: &str = "rss_kb";
/// Prefix of the counter keys on a `proc:*` span's end that name the
/// Resources Defined once the step had run (`res:<name>` = records held).
pub const RESIDENT_PREFIX: &str = "res:";

/// Every registered counter name (sorted), for the registry cross-check.
pub const ALL_COUNTERS: &[&str] = &[
    ALIGN_PREFILTER_HIT,
    ALIGN_PREFILTER_SKIP,
    ALIGN_SW_CELLS,
    ALIGN_VERIFY_DP,
    ALIGN_VERIFY_EXACT,
    ALIGN_VERIFY_ONE_MISMATCH,
    CODEC_BASES,
    CODEC_DESERIALIZE_BYTES,
    CODEC_DESERIALIZE_RECORDS,
    CODEC_SERIALIZE_BYTES,
    CODEC_SERIALIZE_RECORDS,
    FAULT_INJECTED,
    HEAP_ALLOC_BYTES,
    HEAP_ALLOC_COUNT,
    HEAP_FREED_BYTES,
    HEAP_TAG_SERDE,
    HEAP_TAG_SHUFFLE,
    HEAP_TAG_SPILL,
    HEAP_TAG_TASK,
    HEAP_TAG_UNTAGGED,
    MEM_BUDGET_BREACH,
    MEM_BUDGET_RESTORED,
    MEM_BUDGET_RESTORED_BYTES,
    MEM_BUDGET_SPILLED,
    MEM_BUDGET_SPILLED_BYTES,
    PAIRHMM_CELLS,
    PAIRHMM_LANE_CELLS,
    PAIRHMM_SHARED_WINDOWS,
    PAIRHMM_WIDE_GROUPS,
    PAR_BUSY_NS,
    PAR_CHUNKS,
    PAR_IDLE_NS,
    PAR_STEALS,
    REPARTITION_CAP_HIT,
    REPARTITION_MERGED,
    REPARTITION_MOVED,
    REPARTITION_SPLITS,
    SHUFFLE_PARTITIONS_BORROWED,
    SHUFFLE_PARTITIONS_CLONED,
    SHUFFLE_PARTITIONS_MOVED,
    SHUFFLE_RECOMPUTED,
    TASK_RETRIES,
    TRACE_DROPPED,
];

/// Every registered histogram name (sorted), for the registry cross-check.
pub const ALL_HISTOGRAMS: &[&str] = &[HEAP_SIZE_CLASS, SHUFFLE_BUCKET_BYTES, SHUFFLE_BUCKET_RECORDS];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for list in [ALL_COUNTERS, ALL_HISTOGRAMS] {
            for pair in list.windows(2) {
                assert!(pair[0] < pair[1], "registry must be sorted/deduped: {pair:?}");
            }
        }
    }

    #[test]
    fn registry_names_are_dotted_lowercase() {
        for name in ALL_COUNTERS.iter().chain(ALL_HISTOGRAMS) {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "metric name {name:?} breaks the lowercase.dotted convention"
            );
        }
    }
}
