//! Property battery for [`PartitionInfo`]'s split machinery (paper §4.4,
//! Figures 8–9) — the invariants the dynamic repartition leans on.
//!
//! Covered here:
//! * piece-boundary math of `partition_id` when `partition_len` is *not*
//!   divisible by `split_count` (the last piece absorbs the remainder);
//! * the 64-piece cap, and that [`SplitStats`] reports it instead of
//!   truncating silently;
//! * a base id reported in several pairs counts as their sum, in the
//!   split-only and the split-and-merge entry points alike;
//! * dense renumbering is a bijection: `final_range_of_base` tiles
//!   `0..num_partitions()` exactly;
//! * `GpfSerialize` round-trips a populated split table byte-identically.

use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
use gpf_core::partition::{PartitionInfo, MAX_SPLIT_PIECES};
use gpf_formats::GenomePosition;
use gpf_support::proptest::prelude::*;

/// Build an info with a non-trivial split table from arbitrary inputs.
fn split_info(
    lens: &[u64],
    plen: u64,
    hot: &[(u32, u64)],
    threshold: u64,
) -> (PartitionInfo, PartitionInfo) {
    let base = PartitionInfo::new(lens, plen);
    let counts: Vec<(u32, u64)> =
        hot.iter().map(|&(id, c)| (id % base.num_base_partitions(), c)).collect();
    let info = base.with_splits(&counts, threshold);
    (base, info)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Piece boundaries when `partition_len` is not divisible by the piece
    /// count: pieces are `partition_len / split_count` wide (floored), the
    /// last piece absorbs the remainder, and the piece index is exactly the
    /// Figure 9 formula for every position of the base partition.
    #[test]
    fn piece_boundaries_handle_nondivisible_lengths(
        lens in proptest::collection::vec(200u64..4_000, 1..4),
        // Prime-ish lengths so plen % split_count is usually nonzero.
        plen in 97u64..1_001,
        hot in proptest::collection::vec((0u32..8, 1_000u64..200_000), 1..5),
        threshold in 1u64..2_000,
    ) {
        let (base, info) = split_info(&lens, plen, &hot, threshold);
        for base_id in 0..base.num_base_partitions() {
            let range = info.final_range_of_base(base_id);
            let sc = range.len() as u64;
            let piece_len = (plen / sc).max(1);
            let iv = info.base_partition_interval(base_id);
            for pos in (iv.start..iv.end).step_by(13) {
                let p = GenomePosition::new(iv.contig, pos);
                let id = info.partition_id(p);
                prop_assert!(range.contains(&id), "{id} outside {range:?}");
                let offset = pos % plen;
                let expect = range.start + ((offset / piece_len) as u32).min(sc as u32 - 1);
                prop_assert_eq!(id, expect, "pos {} (offset {})", pos, offset);
            }
            // Positions past the last full piece boundary (the remainder
            // when sc doesn't divide plen) land in the LAST piece, not a
            // phantom one.
            if sc > 1 && iv.len() == plen {
                let last = GenomePosition::new(iv.contig, iv.start + plen - 1);
                prop_assert_eq!(info.partition_id(last), range.end - 1);
            }
        }
    }

    /// A partition asking for more than [`MAX_SPLIT_PIECES`] pieces is
    /// capped to exactly that many, and the stats say so.
    #[test]
    fn cap_binds_at_64_and_is_reported(
        count in 1u64..u64::MAX / 2,
        threshold in 1u64..1_000,
    ) {
        let base = PartitionInfo::new(&[100_000], 1_000);
        let (info, stats) = base.with_splits_stats(&[(0, count)], threshold);
        let need = count.div_ceil(threshold);
        let sc = info.final_range_of_base(0).len() as u64;
        if need > MAX_SPLIT_PIECES as u64 {
            prop_assert_eq!(sc, MAX_SPLIT_PIECES as u64);
            prop_assert_eq!(stats.cap_hits, 1, "cap must be reported");
            prop_assert_eq!(stats.max_pieces_requested, need);
        } else {
            prop_assert_eq!(sc, need.max(1));
            prop_assert_eq!(stats.cap_hits, 0);
        }
        if count > threshold {
            prop_assert_eq!(stats.splits, 1);
            prop_assert_eq!(stats.moved_records, count);
        }
    }

    /// A base id reported more than once (one pair per input, in any order)
    /// counts as the sum of its pairs: same table and same stats as the one
    /// pre-summed pair, from both entry points.
    #[test]
    fn repeated_base_ids_sum(
        a in 0u64..5_000,
        b in 0u64..5_000,
        other in 0u64..5_000,
        threshold in 1u64..2_000,
    ) {
        let base = PartitionInfo::new(&[10_000], 1_000);
        let summed = [(3, a + b), (7, other)];
        for repeated in [[(3, a), (7, other), (3, b)], [(3, b), (3, a), (7, other)]] {
            prop_assert_eq!(
                base.with_splits_stats(&repeated, threshold),
                base.with_splits_stats(&summed, threshold)
            );
            prop_assert_eq!(
                base.with_splits_merges_stats(&repeated, threshold),
                base.with_splits_merges_stats(&summed, threshold)
            );
        }
    }

    /// Dense renumbering is a bijection onto `0..num_partitions()`: the
    /// per-base final ranges are consecutive, disjoint, and cover every
    /// final id exactly once.
    #[test]
    fn renumbering_is_a_bijection(
        lens in proptest::collection::vec(100u64..3_000, 1..5),
        plen in 50u64..900,
        hot in proptest::collection::vec((0u32..16, 0u64..300_000), 0..10),
        threshold in 1u64..5_000,
    ) {
        let (base, info) = split_info(&lens, plen, &hot, threshold);
        let mut next = 0u32;
        for base_id in 0..base.num_base_partitions() {
            let r = info.final_range_of_base(base_id);
            prop_assert_eq!(r.start, next, "gap or overlap at base {}", base_id);
            prop_assert!(!r.is_empty());
            next = r.end;
        }
        prop_assert_eq!(next, info.num_partitions(), "ranges must cover 0..n_final");
        // And the sum of piece counts equals the final count.
        let pieces: u64 = (0..base.num_base_partitions())
            .map(|b| info.final_range_of_base(b).len() as u64)
            .sum();
        prop_assert_eq!(pieces, info.num_partitions() as u64);
    }

    /// A populated split table survives `GpfSerialize` byte-identically:
    /// serialize → deserialize → re-serialize yields the same bytes, and
    /// the decoded table routes every sampled position identically.
    #[test]
    fn serialization_round_trips_byte_identically(
        lens in proptest::collection::vec(150u64..2_500, 1..4),
        plen in 60u64..700,
        hot in proptest::collection::vec((0u32..12, 500u64..150_000), 1..6),
        threshold in 1u64..1_500,
    ) {
        let (_, info) = split_info(&lens, plen, &hot, threshold);
        let bytes = serialize_batch(SerializerKind::Gpf, std::slice::from_ref(&info));
        let decoded: Vec<PartitionInfo> = deserialize_batch(SerializerKind::Gpf, &bytes)
            .expect("engine-produced buffer decodes");
        prop_assert_eq!(decoded.len(), 1);
        let back = &decoded[0];
        let again = serialize_batch(SerializerKind::Gpf, std::slice::from_ref(back));
        prop_assert_eq!(&bytes, &again, "re-serialization must be byte-identical");
        prop_assert_eq!(back.num_partitions(), info.num_partitions());
        prop_assert_eq!(back.splits.len(), info.splits.len());
        for (contig, &len) in lens.iter().enumerate() {
            for pos in (0..len).step_by(29) {
                let p = GenomePosition::new(contig as u32, pos);
                prop_assert_eq!(back.partition_id(p), info.partition_id(p));
            }
        }
    }
}
