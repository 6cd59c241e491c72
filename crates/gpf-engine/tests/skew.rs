//! Differential battery for the dynamic repartition (paper §4.4): a
//! shuffle routed through a split table must change *placement only*.
//! Across seeded skew profiles the split run's output, grouped back to base
//! partitions and canonically ordered, is byte-identical to the unsplit
//! run — with and without an active chaos `FaultPlan`. Directed tests pin
//! the fault interplay (a corrupted bucket on a *split* piece recomputes
//! from lineage under the final id, not the base id) and the
//! `repartition.*` counter emission.
//!
//! gpf-engine cannot depend on gpf-core (the dependency points the other
//! way), so these tests carry a minimal split table with the same piece
//! math as `PartitionInfo`; the real table is covered by
//! `gpf-core/tests/partition_props.rs` and gpf-bench's `SkewedWorkload`
//! (`crates/gpf-bench/tests/pipeline_gates.rs` holds its tail cut).

use gpf_compress::serializer::{serialize_batch, SerializerKind};
use gpf_engine::{
    Dataset, EngineConfig, EngineContext, FaultKind, FaultPlan, FaultSite,
};
use gpf_support::proptest::prelude::*;
use gpf_support::rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// Test-local split table with `PartitionInfo`'s piece math: a base
/// partition over `threshold` records splits into `ceil(count/threshold)`
/// pieces (capped at 64), final ids renumbered densely.
#[derive(Clone)]
struct MiniSplits {
    plen: u64,
    split_count: Vec<u32>,
    start_id: Vec<u32>,
    n_final: usize,
}

impl MiniSplits {
    fn from_counts(plen: u64, counts: &[u64], threshold: u64) -> Self {
        let split_count: Vec<u32> = counts
            .iter()
            .map(|&c| if c > threshold { c.div_ceil(threshold).min(64) as u32 } else { 1 })
            .collect();
        let mut start_id = Vec::with_capacity(split_count.len());
        let mut next = 0u32;
        for &sc in &split_count {
            start_id.push(next);
            next += sc;
        }
        Self { plen, split_count, start_id, n_final: next as usize }
    }

    fn base_of(&self, key: u64) -> usize {
        ((key / self.plen) as usize).min(self.split_count.len() - 1)
    }

    fn final_of(&self, key: u64) -> usize {
        let b = self.base_of(key);
        let sc = self.split_count[b] as u64;
        if sc == 1 {
            return self.start_id[b] as usize;
        }
        let piece_len = (self.plen / sc).max(1);
        let piece = ((key % self.plen) / piece_len).min(sc - 1);
        self.start_id[b] as usize + piece as usize
    }

    fn splits(&self) -> u64 {
        self.split_count.iter().filter(|&&sc| sc > 1).count() as u64
    }

    fn moved(&self, counts: &[u64]) -> u64 {
        counts.iter().zip(&self.split_count).filter(|(_, &sc)| sc > 1).map(|(&c, _)| c).sum()
    }
}

/// One seeded skew profile: a hotspot base partition holding most records
/// over an exponential-ish coverage floor elsewhere.
fn skew_profile(seed: u64) -> (usize, u64, u64, Vec<(u64, u64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let nbase = rng.gen_range(2usize..12);
    // Odd lengths so the piece width usually doesn't divide plen.
    let plen = 2 * rng.gen_range(50u64..500) + 1;
    let hotspot = rng.gen_range(0usize..nbase);
    let n = rng.gen_range(150usize..500);
    let records: Vec<(u64, u64)> = (0..n)
        .map(|_| {
            let base = if rng.gen_bool(0.7) { hotspot } else { rng.gen_range(0usize..nbase) };
            let key = base as u64 * plen + rng.gen_range(0u64..plen);
            (key, rng.next_u64())
        })
        .collect();
    let threshold = ((n as u64 / nbase as u64) / 2).max(1);
    (nbase, plen, threshold, records)
}

fn plain_ctx() -> Arc<EngineContext> {
    EngineContext::new(EngineConfig::default().with_parallelism(4))
}

fn base_counts(nbase: usize, ms_plen: u64, data: &[(u64, u64)]) -> Vec<u64> {
    let mut counts = vec![0u64; nbase];
    for (k, _) in data {
        counts[((k / ms_plen) as usize).min(nbase - 1)] += 1;
    }
    counts
}

/// Do §4.4 by hand — count, build the split table, shuffle through its
/// final ids, record the decision — and canonicalize: final partitions
/// grouped back to their base partition (contiguous final-id ranges),
/// concatenated, and sorted — serialized to bytes for identity comparison.
fn split_canonical(
    ctx: &Arc<EngineContext>,
    data: &[(u64, u64)],
    parts: usize,
    nbase: usize,
    plen: u64,
    threshold: u64,
) -> (Vec<Vec<u8>>, MiniSplits) {
    let counts = base_counts(nbase, plen, data);
    let ms = MiniSplits::from_counts(plen, &counts, threshold);
    let d = Dataset::from_vec(Arc::clone(ctx), data.to_vec(), parts);
    let ms_route = ms.clone();
    let out = d.into_partition_by(ms.n_final, move |kv: &(u64, u64)| ms_route.final_of(kv.0));
    ctx.record_repartition(ms.splits(), ms.moved(&counts), 0, 0);
    let mut canon = Vec::with_capacity(nbase);
    for b in 0..nbase {
        let start = ms.start_id[b] as usize;
        let mut group: Vec<(u64, u64)> = (start..start + ms.split_count[b] as usize)
            .flat_map(|t| out.partition(t).to_vec())
            .collect();
        group.sort_unstable();
        canon.push(serialize_batch(SerializerKind::Gpf, &group));
    }
    (canon, ms)
}

/// The unsplit reference: a plain shuffle into the base layout, same
/// canonical ordering and serialization.
fn unsplit_canonical(
    ctx: &Arc<EngineContext>,
    data: &[(u64, u64)],
    parts: usize,
    nbase: usize,
    plen: u64,
) -> Vec<Vec<u8>> {
    let d = Dataset::from_vec(Arc::clone(ctx), data.to_vec(), parts);
    let out = d.into_partition_by(nbase, move |kv: &(u64, u64)| {
        ((kv.0 / plen) as usize).min(nbase - 1)
    });
    (0..nbase)
        .map(|b| {
            let mut group = out.partition(b).to_vec();
            group.sort_unstable();
            serialize_batch(SerializerKind::Gpf, &group)
        })
        .collect()
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

    /// Headline differential property: across seeded skew profiles the
    /// split run is byte-identical to the unsplit run once pieces are
    /// grouped back to their base partition.
    #[test]
    fn adaptive_run_is_byte_identical_to_unsplit(
        seed in any::<u64>(),
        parts in 1usize..6,
    ) {
        let (nbase, plen, threshold, data) = skew_profile(seed);
        let baseline = unsplit_canonical(&plain_ctx(), &data, parts, nbase, plen);
        let ctx = plain_ctx();
        let (split, ms) = split_canonical(&ctx, &data, parts, nbase, plen, threshold);
        prop_assert!(ms.n_final >= nbase);
        prop_assert_eq!(split, baseline, "profile seed 0x{:x} diverged", seed);
    }

    /// The same property with a chaos `FaultPlan` active during the
    /// repartitioned shuffle: recovery must resolve final (post-split)
    /// partition ids, so injected faults change nothing.
    #[test]
    fn adaptive_run_under_fault_plan_stays_identical(
        seed in any::<u64>(),
        parts in 1usize..6,
        rate in 0u32..200,
    ) {
        let (nbase, plen, threshold, data) = skew_profile(seed);
        let baseline = unsplit_canonical(&plain_ctx(), &data, parts, nbase, plen);
        let ctx = EngineContext::new(
            EngineConfig::default()
                .with_parallelism(4)
                .with_faults(FaultPlan::seeded(seed, rate)),
        );
        let (split, _) = split_canonical(&ctx, &data, parts, nbase, plen, threshold);
        prop_assert!(
            ctx.take_failure().is_none(),
            "in-budget schedule must not fail terminally (seed 0x{:x}, rate {}‰)",
            seed,
            rate
        );
        prop_assert_eq!(
            split,
            baseline,
            "fault seed 0x{:x} rate {}‰ changed split output",
            seed,
            rate
        );
    }
}

/// Directed interplay test: one extremely hot base partition means *every*
/// shuffle bucket is a split piece, so the corrupted bucket is guaranteed
/// to target a split partition. Lineage recompute must re-route through
/// the final table and recover byte-identically.
#[test]
fn corrupt_bucket_on_split_partition_recovers_byte_identically() {
    let plen = 101u64;
    let nbase = 1usize;
    // 240 records in the single base partition, threshold 60 → 4 pieces.
    let data: Vec<(u64, u64)> =
        (0..240u64).map(|i| (i * 37 % plen, i.wrapping_mul(0x9e3779b97f4a7c15))).collect();
    let baseline = unsplit_canonical(&plain_ctx(), &data, 4, nbase, plen);

    let recomputed0 = counter("shuffle.recomputed");
    let injected0 = counter("fault.injected");
    let splits0 = counter("repartition.splits");
    let sites = vec![
        FaultSite { stage: 0, partition: 0, attempt: 0, kind: FaultKind::CorruptBucket },
        FaultSite { stage: 0, partition: 2, attempt: 0, kind: FaultKind::CorruptBucket },
    ];
    let ctx = EngineContext::new(
        EngineConfig::default()
            .with_parallelism(4)
            .with_faults(FaultPlan::explicit(sites)),
    );
    let (split, ms) = split_canonical(&ctx, &data, 4, nbase, plen, 60);
    assert_eq!(ms.n_final, 4, "the hot partition split into 4 pieces");
    assert_eq!(split, baseline, "recovered pieces must be byte-identical");
    assert!(ctx.take_failure().is_none());
    assert!(
        counter("shuffle.recomputed") >= recomputed0 + 2,
        "both corrupted split-piece buckets recompute from lineage"
    );
    assert!(counter("fault.injected") >= injected0 + 2);
    assert!(counter("repartition.splits") > splits0, "the split decision was recorded");
}

/// The engine surfaces a repartition decision through the `repartition.*`
/// counters, including the cap signal.
#[test]
fn repartition_counters_reflect_plan_stats() {
    let splits0 = counter("repartition.splits");
    let moved0 = counter("repartition.moved_records");
    let cap0 = counter("repartition.cap_hit");
    let merged0 = counter("repartition.merged");
    plain_ctx().record_repartition(1, 57, 3, 5);
    // >= deltas: the counters are global and other tests in this binary
    // record decisions concurrently (same idiom as the chaos tests).
    assert!(counter("repartition.splits") > splits0);
    assert!(counter("repartition.moved_records") >= moved0 + 57);
    assert!(counter("repartition.cap_hit") >= cap0 + 3);
    assert!(counter("repartition.merged") >= merged0 + 5);
}

/// Piece-aware merging pinning test: a split table that *merges* a run
/// of underfull base partitions into one shared final partition changes
/// placement only — regrouped by each record's base partition, the output
/// is byte-identical to the unmerged run — and the decision is visible via
/// the `repartition.merged` counter.
#[test]
fn merged_plan_is_byte_identical_to_unmerged() {
    let merged0 = counter("repartition.merged");
    let plen = 100u64;
    let nbase = 6usize;
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    // Bases 1..=3 are underfull (few records); 0, 4, 5 carry the load.
    let data: Vec<(u64, u64)> = (0..300usize)
        .map(|i| {
            let b = match i % 10 {
                0 => 1,
                1 => 2,
                2 => 3,
                j if j < 6 => 0,
                j if j < 8 => 4,
                _ => 5,
            } as u64;
            (b * plen + rng.gen_range(0u64..plen), rng.next_u64())
        })
        .collect();
    let baseline = unsplit_canonical(&plain_ctx(), &data, 4, nbase, plen);

    let ctx = plain_ctx();
    let d = Dataset::from_vec(Arc::clone(&ctx), data, 4);
    // Merge bases 1..=3 into one shared final partition: 0→0, {1,2,3}→1,
    // 4→2, 5→3.
    let fid = |b: usize| match b {
        0 => 0,
        1..=3 => 1,
        4 => 2,
        _ => 3,
    };
    let out = d.into_partition_by(4, move |kv: &(u64, u64)| {
        fid(((kv.0 / plen) as usize).min(nbase - 1))
    });
    ctx.record_repartition(0, 0, 0, 3);
    assert_eq!(out.num_partitions(), 4);
    // Canonicalize by each record's *base* id (the merged layout shares
    // final ids, so final-id grouping would conflate the run).
    let mut groups: Vec<Vec<(u64, u64)>> = (0..nbase).map(|_| Vec::new()).collect();
    for t in 0..out.num_partitions() {
        for &(k, v) in out.partition(t).iter() {
            groups[((k / plen) as usize).min(nbase - 1)].push((k, v));
        }
    }
    let canon: Vec<Vec<u8>> = groups
        .into_iter()
        .map(|mut g| {
            g.sort_unstable();
            serialize_batch(SerializerKind::Gpf, &g)
        })
        .collect();
    assert_eq!(canon, baseline, "merging must change placement only");
    assert!(counter("repartition.merged") >= merged0 + 3, "merge decision must be counted");
}
