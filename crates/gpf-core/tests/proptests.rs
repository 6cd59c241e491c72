//! Property tests for GPF's partitioning and scheduling invariants.

use gpf_core::partition::PartitionInfo;
use gpf_core::process::route_record;
use gpf_formats::sam::{SamFlags, SamRecord};
use gpf_formats::GenomePosition;
use gpf_support::proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every position maps to a valid final partition whose interval
    /// contains it — with and without splits (Figures 8 and 9).
    #[test]
    fn partition_mapping_is_total_and_consistent(
        lens in proptest::collection::vec(100u64..5_000, 1..5),
        plen in 50u64..1_500,
        hot in proptest::collection::vec((0u32..4, 1u64..100_000), 0..6),
        threshold in 1u64..10_000,
    ) {
        let base = PartitionInfo::new(&lens, plen);
        let counts: Vec<(u32, u64)> = hot
            .into_iter()
            .map(|(id, c)| (id % base.num_base_partitions(), c))
            .collect();
        let info = base.with_splits(&counts, threshold);
        for (contig, &len) in lens.iter().enumerate() {
            for pos in (0..len).step_by(17) {
                let p = GenomePosition::new(contig as u32, pos);
                let id = info.partition_id(p);
                prop_assert!(id < info.num_partitions());
                let iv = info.partition_interval(id);
                prop_assert!(iv.contains(p), "{p:?} not in {iv:?} (id {id})");
            }
        }
    }

    /// `route_record` is total: a record built in code — no parser held
    /// its coordinates to the contig — routes to an existing final
    /// partition from any position on an in-range contig, mapped or
    /// following its mate, with and without splits.
    #[test]
    fn route_record_is_total_for_in_range_contigs(
        lens in proptest::collection::vec(100u64..5_000, 1..5),
        plen in 50u64..1_500,
        hot in proptest::collection::vec((0u32..40, 1u64..100_000), 0..6),
        threshold in 1u64..10_000,
        pos in 0u64..u64::MAX / 2,
    ) {
        let base = PartitionInfo::new(&lens, plen);
        let counts: Vec<(u32, u64)> = hot
            .into_iter()
            .map(|(id, c)| (id % base.num_base_partitions(), c))
            .collect();
        let info = base.with_splits(&counts, threshold);
        for contig in 0..lens.len() as u32 {
            let mut r = SamRecord::unmapped("r", b"ACGT".to_vec(), b"IIII".to_vec());
            (r.mate_contig, r.mate_pos) = (contig, pos);
            prop_assert!(route_record(&r, &info) < info.num_partitions(), "mate at {pos}");
            r.flags = SamFlags::default();
            (r.contig, r.pos) = (contig, pos);
            prop_assert!(route_record(&r, &info) < info.num_partitions(), "mapped at {pos}");
        }
    }

    /// Final partition intervals tile the genome exactly, in genome order:
    /// read in id order they ascend in `(contig, start)` across contigs,
    /// with splits alone and with splits plus merges. The Caller's output
    /// is its bundles' calls flattened in partition order, so this is the
    /// order the VCF comes out in.
    #[test]
    fn intervals_tile_exactly(
        lens in proptest::collection::vec(100u64..3_000, 1..4),
        plen in 50u64..800,
        hot in proptest::collection::vec((0u32..40, 0u64..50_000), 0..6),
    ) {
        let base = PartitionInfo::new(&lens, plen);
        let counts: Vec<(u32, u64)> = hot
            .into_iter()
            .map(|(id, c)| (id % base.num_base_partitions(), c))
            .collect();
        let merged = base.with_splits_merges_stats(&counts, 500).0;
        for info in [base.with_splits(&counts, 500), merged] {
            let ivs = info.intervals();
            let total: u64 = ivs.iter().map(|iv| iv.len()).sum();
            prop_assert_eq!(total, lens.iter().sum::<u64>());
            prop_assert_eq!((ivs[0].contig, ivs[0].start), (0, 0));
            for w in ivs.windows(2) {
                prop_assert!(
                    (w[0].contig, w[0].start) <= (w[1].contig, w[1].start),
                    "{:?} before {:?}", w[0], w[1]
                );
                if w[0].contig == w[1].contig {
                    // Adjacent intervals on one contig are contiguous.
                    prop_assert_eq!(w[0].end, w[1].start);
                } else {
                    // A contig ends at its length; the next starts at 0.
                    prop_assert_eq!(w[1].contig, w[0].contig + 1);
                    prop_assert_eq!(w[0].end, lens[w[0].contig as usize]);
                    prop_assert_eq!(w[1].start, 0);
                }
            }
        }
    }

    /// Splitting never decreases the partition count, and the split table's
    /// start ids are strictly increasing.
    #[test]
    fn splits_are_monotone(
        counts in proptest::collection::vec((0u32..30, 0u64..100_000), 0..20),
        threshold in 1u64..5_000,
    ) {
        let base = PartitionInfo::new(&[30_000], 1_000);
        let info = base.with_splits(&counts, threshold);
        prop_assert!(info.num_partitions() >= base.num_partitions());
        let mut entries: Vec<_> = info.splits.values().collect();
        entries.sort_by_key(|e| e.start_id);
        for w in entries.windows(2) {
            prop_assert!(w[0].start_id + w[0].split_count <= w[1].start_id);
        }
    }
}
