//! Differential battery: the shipped BQSR table against the hash-map oracle
//! in `bqsr_oracle/`, over seeded random records. Whatever layout
//! `gpf_cleaner::bqsr` uses, it must count the same bases, recalibrate every
//! (read group, quality, cycle bucket, context) to the same `u8`, rewrite
//! the same quality strings and serialize to the same bytes as the oracle.

// Verbatim means verbatim: keep rustfmt off it too.
#[rustfmt::skip]
mod bqsr_oracle;

use gpf_cleaner::bqsr::{apply_recalibration, build_recal_table, known_sites_mask, RecalTable};
use gpf_compress::serializer::{deserialize_batch, serialize_batch, SerializerKind};
use gpf_compress::GpfSerialize;
use gpf_formats::cigar::CigarOp;
use gpf_formats::quality::phred_to_char;
use gpf_formats::sam::{SamFlags, SamRecord, NO_CONTIG};
use gpf_formats::vcf::{Genotype, VcfRecord};
use gpf_formats::{Cigar, ReferenceGenome};
use gpf_support::proptest::prelude::*;
use gpf_support::rng::{Rng, SeedableRng, StdRng};

const KINDS: [SerializerKind; 3] =
    [SerializerKind::JavaSim, SerializerKind::KryoSim, SerializerKind::Gpf];
const READ_GROUPS: [u16; 5] = [0, 1, 2, 7, 300];
/// Most bases report one of these, so rows pass the 20-observation floor.
const COMMON_QUALS: [u8; 7] = [2, 10, 20, 30, 37, 40, 93];
/// One base in ten reports one of these, so sparse rows exist too. (Few
/// distinct values keep the exhaustive grid below affordable: the oracle
/// pays three hash probes and five logarithms per grid point of a held row.)
const RARE_QUALS: [u8; 5] = [0, 5, 41, 60, 92];

struct World {
    reference: ReferenceGenome,
    known: Vec<VcfRecord>,
    records: Vec<SamRecord>,
}

fn random_bases(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| b"ACGT"[rng.gen_range(0..4usize)]).collect()
}

/// A CIGAR over `M/=/X/I/D/S` that consumes exactly `read_len` read bases.
fn random_cigar(rng: &mut StdRng, read_len: usize) -> Cigar {
    let mut ops: Vec<(u32, CigarOp)> = Vec::new();
    let mut left = read_len;
    let lead = rng.gen_range(0..6usize).min(left.saturating_sub(1));
    if lead > 0 && rng.gen_bool(0.3) {
        ops.push((lead as u32, CigarOp::SoftClip));
        left -= lead;
    }
    let trail =
        if rng.gen_bool(0.3) { rng.gen_range(1..6usize).min(left.saturating_sub(1)) } else { 0 };
    left -= trail;
    while left > 0 {
        let n = rng.gen_range(1..=left.min(60));
        let op = [CigarOp::Match, CigarOp::Match, CigarOp::Equal, CigarOp::Diff]
            [rng.gen_range(0..4usize)];
        ops.push((n as u32, op));
        left -= n;
        if left > 1 && rng.gen_bool(0.4) {
            if rng.gen_bool(0.5) {
                let ins = rng.gen_range(1..=left.min(4) - 1).max(1);
                ops.push((ins as u32, CigarOp::Ins));
                left -= ins;
            } else {
                ops.push((rng.gen_range(1..5u32), CigarOp::Del));
            }
        }
    }
    if trail > 0 {
        ops.push((trail as u32, CigarOp::SoftClip));
    }
    // Adjacent blocks of one op are legal SAM; zero-length ones are not.
    Cigar::from_ops(ops)
}

fn random_record(rng: &mut StdRng, reference: &ReferenceGenome, id: usize) -> SamRecord {
    let contig = rng.gen_range(0..3u32);
    let refseq = reference.contig_seq(contig);
    // One read in forty is long enough to reach the 255 cycle-bucket cap.
    let read_len = if contig == 0 && rng.gen_bool(0.025) {
        rng.gen_range(1290..1400usize)
    } else {
        rng.gen_range(20..160usize)
    };
    // Starts run up to the last base, so late reads overhang the contig.
    let pos = rng.gen_range(0..refseq.len() as u64);
    let cigar = random_cigar(rng, read_len);
    let mut seq = Vec::with_capacity(read_len);
    for block in cigar.walk() {
        if !block.op.consumes_read() {
            continue;
        }
        for k in 0..block.len as u64 {
            let from_ref = block
                .op
                .consumes_ref()
                .then(|| refseq.get((pos + block.ref_off + k) as usize).copied())
                .flatten();
            let base = match from_ref {
                Some(b) if !rng.gen_bool(0.08) => b,
                _ => b"ACGT"[rng.gen_range(0..4usize)],
            };
            seq.push(if rng.gen_bool(0.02) { b'N' } else { base });
        }
    }
    let qual: Vec<u8> = (0..read_len)
        .map(|_| {
            let q = if rng.gen_bool(0.9) {
                COMMON_QUALS[rng.gen_range(0..COMMON_QUALS.len())]
            } else {
                RARE_QUALS[rng.gen_range(0..RARE_QUALS.len())]
            };
            phred_to_char(q)
        })
        .collect();
    let read_group = READ_GROUPS[rng.gen_range(0..READ_GROUPS.len())];
    if rng.gen_bool(0.05) {
        let mut r = SamRecord::unmapped(format!("u{id}"), seq, qual);
        r.read_group = read_group;
        return r;
    }
    let mut flags = SamFlags::default();
    if rng.gen_bool(0.5) {
        flags.set(SamFlags::REVERSE);
    }
    if rng.gen_bool(0.08) {
        flags.set(SamFlags::DUPLICATE);
    }
    if rng.gen_bool(0.05) {
        flags.set(SamFlags::SECONDARY);
    }
    SamRecord {
        name: format!("r{id}"),
        flags,
        contig,
        pos,
        mapq: 60,
        cigar,
        mate_contig: NO_CONTIG,
        mate_pos: 0,
        tlen: 0,
        seq,
        qual,
        read_group,
        edit_distance: 0,
    }
}

fn world(seed: u64, n_records: usize) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let contigs: Vec<(String, Vec<u8>)> = [4000usize, 900, 400]
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let mut seq = random_bases(&mut rng, len);
            for _ in 0..3 {
                let at = rng.gen_range(0..len - 12);
                let run = rng.gen_range(1..12usize);
                seq[at..at + run].fill(b'N');
            }
            (format!("chr{}", i + 1), seq)
        })
        .collect();
    let reference = ReferenceGenome::from_contigs(contigs);
    let mut known: Vec<VcfRecord> = (0..80)
        .map(|_| {
            let contig = rng.gen_range(0..3u32);
            let len = reference.contig_seq(contig).len() as u64;
            // Multi-base (and empty) reference alleles, some hanging past
            // the contig end, so the mask holds runs and out-of-range sites.
            let pos = rng.gen_range(0..len);
            let allele_len = rng.gen_range(0..5usize);
            let ref_allele = random_bases(&mut rng, allele_len);
            VcfRecord {
                contig,
                pos,
                ref_allele,
                alt_allele: b"T".to_vec(),
                qual: 50.0,
                genotype: Genotype::Het,
                depth: 0,
            }
        })
        .collect();
    // Overlapping and repeated sites.
    let repeats: Vec<VcfRecord> = known.iter().step_by(7).cloned().collect();
    known.extend(repeats);
    let records = (0..n_records).map(|i| random_record(&mut rng, &reference, i)).collect();
    World { reference, known, records }
}

fn observe_new(records: &[SamRecord], w: &World) -> RecalTable {
    build_recal_table(records, &w.reference, &w.known)
}

fn observe_oracle(records: &[SamRecord], w: &World) -> bqsr_oracle::RecalTable {
    bqsr_oracle::build_recal_table(records, &w.reference, &w.known)
}

type Counts<K> = Vec<(K, (u64, u64))>;
/// The (read group, quality), cycle and context tables, each in key order.
type TableCounts = (Counts<(u16, u8)>, Counts<(u16, u8, u8)>, Counts<(u16, u8, u8)>);

fn sorted<K: Ord + Copy>(m: &std::collections::HashMap<K, (u64, u64)>) -> Counts<K> {
    let mut v: Counts<K> = m.iter().map(|(k, c)| (*k, *c)).collect();
    v.sort();
    v
}

/// The shipped table's non-empty counts; its accessors promise key order.
fn counts_new(t: &RecalTable) -> TableCounts {
    (t.rg_q_counts().collect(), t.cycle_counts().collect(), t.context_counts().collect())
}

fn counts_oracle(t: &bqsr_oracle::RecalTable) -> TableCounts {
    (sorted(&t.rg_q), sorted(&t.cycle), sorted(&t.context))
}

fn wire<T: GpfSerialize>(kind: SerializerKind, t: &T) -> Vec<u8> {
    serialize_batch(kind, std::slice::from_ref(t))
}

fn assert_same_table(new: &RecalTable, oracle: &bqsr_oracle::RecalTable, what: &str) {
    assert_eq!(counts_new(new), counts_oracle(oracle), "{what}: counts");
    assert_eq!(new.observations(), oracle.observations(), "{what}: observations");
    for kind in KINDS {
        let bytes = wire(kind, new);
        assert_eq!(bytes, wire(kind, oracle), "{what}: {kind:?} wire bytes");
        let back: Vec<RecalTable> = deserialize_batch(kind, &bytes).expect("own bytes decode");
        assert_eq!(&back[0], new, "{what}: {kind:?} round trip");
        assert_eq!(wire(kind, &back[0]), bytes, "{what}: {kind:?} re-encode");
    }
}

/// `recalibrate` agrees on the whole `bucket, ctx ∈ 0..=255` grid for every
/// row the tables hold. Rows they do not hold — every other `q` of every
/// read group, and a read group never seen — are compared on the grid's
/// edges, and when `exhaustive` on the whole grid for one seen and one
/// unseen read group.
fn assert_same_recalibration(new: &RecalTable, oracle: &bqsr_oracle::RecalTable, exhaustive: bool) {
    const EDGES: [u8; 9] = [0, 1, 7, 15, 16, 17, 128, 254, 255];
    const UNSEEN_RG: u16 = 9;
    let all: Vec<u8> = (0..=255).collect();
    for rg in READ_GROUPS.into_iter().chain([UNSEEN_RG]) {
        for q in 0..=255u8 {
            let whole = oracle.rg_q.contains_key(&(rg, q))
                || (exhaustive && (rg == READ_GROUPS[4] || rg == UNSEEN_RG));
            let axis: &[u8] = if whole { &all } else { &EDGES };
            for &bucket in axis {
                for &ctx in axis {
                    assert_eq!(
                        new.recalibrate(rg, q, bucket, ctx),
                        oracle.recalibrate(rg, q, bucket, ctx),
                        "recalibrate(rg {rg}, q {q}, bucket {bucket}, ctx {ctx})"
                    );
                }
            }
        }
    }
}

fn quals(records: &[SamRecord]) -> Vec<&[u8]> {
    records.iter().map(|r| r.qual.as_slice()).collect()
}

#[test]
fn random_records_match_the_oracle() {
    for seed in 0..4u64 {
        let w = world(0xb95c + seed, 700);
        // Per-partition tables, then the driver-side merge.
        let mut merged_new = RecalTable::default();
        let mut merged_oracle = bqsr_oracle::RecalTable::default();
        for (pi, part) in w.records.chunks(180).enumerate() {
            let (n, o) = (observe_new(part, &w), observe_oracle(part, &w));
            assert_same_table(&n, &o, &format!("seed {seed} partition {pi}"));
            merged_new.merge(&n);
            merged_oracle.merge(&o);
        }
        assert_same_table(&merged_new, &merged_oracle, &format!("seed {seed} merged"));
        assert_same_table(
            &observe_new(&w.records, &w),
            &merged_oracle,
            &format!("seed {seed} whole"),
        );
        assert!(merged_new.observations() > 20_000, "seed {seed}: the generator aligned bases");
        assert!(
            bqsr_oracle::build_recal_table(&w.records, &w.reference, &[]).observations()
                > merged_oracle.observations(),
            "seed {seed}: the mask hid some"
        );
        assert!(
            merged_oracle.cycle.keys().any(|k| k.2 == 255),
            "seed {seed}: a long read reached the bucket cap"
        );

        assert_same_recalibration(&merged_new, &merged_oracle, seed == 0);

        let mut by_new = w.records.clone();
        let mut by_oracle = w.records.clone();
        apply_recalibration(&mut by_new, &merged_new);
        bqsr_oracle::apply_recalibration(&mut by_oracle, &merged_oracle);
        assert_eq!(quals(&by_new), quals(&by_oracle), "seed {seed}: recalibrated quality strings");
        assert_ne!(quals(&by_new), quals(&w.records), "seed {seed}: recalibration moved something");
        // Only qualities move.
        for (a, b) in by_new.iter_mut().zip(&w.records) {
            a.qual.clone_from(&b.qual);
        }
        assert_eq!(by_new, w.records);
    }
}

#[test]
fn empty_and_unobserved_tables_match_the_oracle() {
    let w = world(1, 40);
    let (n, o) = (RecalTable::default(), bqsr_oracle::RecalTable::default());
    assert_same_table(&n, &o, "empty");
    assert_same_recalibration(&n, &o, false);
    let mut records = w.records.clone();
    apply_recalibration(&mut records, &n);
    assert_eq!(records, w.records, "an empty table recalibrates nothing");
}

/// A cached answer must not outlive the counts it was computed from.
#[test]
fn apply_after_more_counts_reflects_them() {
    let w = world(0xcac4e, 900);
    let (first, second) = w.records.split_at(300);
    let mut new = observe_new(first, &w);
    let mut oracle = observe_oracle(first, &w);

    let mut early_new = w.records.clone();
    let mut early_oracle = w.records.clone();
    apply_recalibration(&mut early_new, &new);
    bqsr_oracle::apply_recalibration(&mut early_oracle, &oracle);
    assert_eq!(quals(&early_new), quals(&early_oracle));

    // More counts by both routes: a merged partition table, then records
    // observed straight into the table that has already been applied.
    let (merged_in, observed_in) = second.split_at(300);
    new.merge(&observe_new(merged_in, &w));
    oracle.merge(&observe_oracle(merged_in, &w));
    let mask = known_sites_mask(&w.known);
    let oracle_mask = bqsr_oracle::known_sites_mask(&w.known);
    for r in observed_in {
        new.observe(r, &w.reference, &mask);
        oracle.observe(r, &w.reference, &oracle_mask);
    }
    assert_same_table(&new, &oracle, "after more counts");

    let mut late_new = w.records.clone();
    let mut late_oracle = w.records.clone();
    apply_recalibration(&mut late_new, &new);
    bqsr_oracle::apply_recalibration(&mut late_oracle, &oracle);
    assert_eq!(quals(&late_new), quals(&late_oracle));
    assert_ne!(quals(&late_new), quals(&early_new), "the added counts changed some quality");
    assert_same_recalibration(&new, &oracle, false);
}

/// Pins the wire form itself, not just agreement with the oracle: three
/// reads over a fixed reference, Gpf serializer.
#[test]
fn golden_wire_bytes() {
    let reference =
        ReferenceGenome::from_contigs(vec![("chr1", b"ACGTACGTTGCAACGTTTGACCAGT".to_vec())]);
    let read = |pos: u64, seq: &[u8], q: u8, rg: u16, reverse: bool| {
        let mut flags = SamFlags::default();
        if reverse {
            flags.set(SamFlags::REVERSE);
        }
        SamRecord {
            name: "g".into(),
            flags,
            contig: 0,
            pos,
            mapq: 60,
            cigar: Cigar::from_ops(vec![(seq.len() as u32, CigarOp::Match)]),
            mate_contig: NO_CONTIG,
            mate_pos: 0,
            tlen: 0,
            seq: seq.to_vec(),
            qual: vec![phred_to_char(q); seq.len()],
            read_group: rg,
            edit_distance: 0,
        }
    };
    let records = [
        read(0, b"ACGTACCT", 30, 1, false),
        read(8, b"TGCAAC", 30, 1, true),
        read(16, b"TTGA", 12, 513, false),
    ];
    let mut table = RecalTable::default();
    let mask = known_sites_mask(&[]);
    for r in &records {
        table.observe(r, &reference, &mask);
    }
    assert_eq!(wire(SerializerKind::Gpf, &table), GOLDEN_GPF);
    let back: Vec<RecalTable> =
        deserialize_batch(SerializerKind::Gpf, GOLDEN_GPF).expect("golden bytes decode");
    assert_eq!(back[0], table);
}

#[rustfmt::skip]
const GOLDEN_GPF: &[u8] = &[
    1, 2, 1, 30, 1, 14, 129, 4, 12, 0, 4, 3, 1, 30, 0, 0, 10, 1, 30, 1,
    1, 4, 129, 4, 12, 0, 0, 4, 15, 1, 30, 0, 0, 2, 1, 30, 1, 0, 3, 1,
    30, 3, 0, 1, 1, 30, 4, 0, 1, 1, 30, 5, 1, 1, 1, 30, 6, 0, 1, 1,
    30, 7, 0, 1, 1, 30, 9, 0, 1, 1, 30, 11, 0, 1, 1, 30, 12, 0, 1, 1,
    30, 14, 0, 1, 129, 4, 12, 3, 0, 1, 129, 4, 12, 8, 0, 1, 129, 4, 12, 14,
    0, 1, 129, 4, 12, 15, 0, 1,
];

fn small_table(seed: u64) -> RecalTable {
    let w = world(seed, 60);
    observe_new(&w.records, &w)
}

proptest! {
    #[test]
    fn merge_is_associative_and_commutative(sa in 0u64..500, sb in 500u64..1000, sc in 1000u64..1500) {
        let (a, b, c) = (small_table(sa), small_table(sb), small_table(sc));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(wire(SerializerKind::Gpf, &ab), wire(SerializerKind::Gpf, &ba));

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert_eq!(wire(SerializerKind::Gpf, &ab_c), wire(SerializerKind::Gpf, &a_bc));
        prop_assert_eq!(ab_c.observations(), a.observations() + b.observations() + c.observations());

        // Merging invalidates nothing it should keep: a table that answered
        // before the merge answers like one that never did.
        let mut asked = a.clone();
        asked.recalibrate(1, 30, 0, 0);
        asked.merge(&b);
        prop_assert_eq!(asked.recalibrate(1, 30, 3, 5), ab.recalibrate(1, 30, 3, 5));

        // The empty table is the identity, from either side.
        let mut e = RecalTable::default();
        e.merge(&a);
        prop_assert_eq!(&e, &a);
        let mut a_e = a.clone();
        a_e.merge(&RecalTable::default());
        prop_assert_eq!(&a_e, &a);
    }

    #[test]
    fn mask_as_sorted_vector_is_mask_as_set(
        sites in proptest::collection::vec((0u32..3, 0u64..60, 0usize..5), 0..40)
    ) {
        let known: Vec<VcfRecord> = sites
            .iter()
            .map(|&(contig, pos, allele_len)| VcfRecord {
                contig,
                pos,
                ref_allele: vec![b'A'; allele_len],
                alt_allele: b"T".to_vec(),
                qual: 50.0,
                genotype: Genotype::Het,
                depth: 0,
            })
            .collect();
        let mask = known_sites_mask(&known);
        let mut set: Vec<(u32, u64)> = bqsr_oracle::known_sites_mask(&known).into_iter().collect();
        set.sort_unstable();
        prop_assert_eq!(mask.sites(), set.as_slice());
        prop_assert!(mask.sites().windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
    }
}
