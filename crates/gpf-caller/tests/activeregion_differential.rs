//! Differential battery: the shipped active-region finder against the
//! hash-map oracle in `activeregion_oracle/`. However the library piles
//! reads up, every read set must come back as the same regions in the same
//! order.
//!
//! The read sets are built around what a position-indexed sweep can get
//! wrong and a hash map cannot: input that is not sorted, several contigs,
//! loci only a deletion or a trailing insertion touches, reads clipped at
//! the contig end, reads that must not count at all, and loci sitting
//! exactly on the depth and evidence thresholds. The thresholds are the
//! library's constants, so the cases below are built from them: a cluster
//! longer than `MAX_REGION_LEN` that splits, `PAD` clamped at both ends of a
//! contig, and loci exactly on `MIN_DEPTH` and `MIN_EVIDENCE_FRAC`.

// Verbatim means verbatim: keep rustfmt off it too.
#[rustfmt::skip]
mod activeregion_oracle;

use gpf_caller::activeregion::{MAX_REGION_LEN, MIN_DEPTH, MIN_EVIDENCE_FRAC, PAD};
use gpf_caller::find_active_regions;
use gpf_formats::cigar::CigarOp;
use gpf_formats::sam::{SamFlags, SamRecord, NO_CONTIG};
use gpf_formats::{Cigar, GenomeInterval, ReferenceGenome};
use gpf_support::rng::{Rng, SeedableRng, StdRng};

fn reference(rng: &mut StdRng, lengths: &[usize]) -> ReferenceGenome {
    ReferenceGenome::from_contigs(
        lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let seq: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0..4usize)]).collect();
                (format!("chr{}", i + 1), seq)
            })
            .collect::<Vec<_>>(),
    )
}

fn other_base(b: u8) -> u8 {
    if b == b'A' {
        b'G'
    } else {
        b'A'
    }
}

/// A mapped primary read at `pos` with the given CIGAR, clipped where it
/// would leave the contig ([`clip_at_contig_end`]). Aligned bases copy the
/// reference except at reference positions in `alt`; inserted and clipped
/// bases are `T`.
fn read(
    reference: &ReferenceGenome,
    name: String,
    contig: u32,
    pos: u64,
    ops: Vec<(u32, CigarOp)>,
    alt: &[u64],
) -> SamRecord {
    let refseq = reference.contig_seq(contig);
    let cigar = Cigar::from_ops(clip_at_contig_end(ops, pos, refseq.len() as u64));
    let mut seq = Vec::new();
    for block in cigar.walk() {
        for k in 0..block.len as u64 {
            match block.op {
                CigarOp::Match | CigarOp::Equal | CigarOp::Diff => {
                    let p = pos + block.ref_off + k;
                    let b = refseq[p as usize];
                    seq.push(if alt.contains(&p) { other_base(b) } else { b });
                }
                CigarOp::Ins | CigarOp::SoftClip => seq.push(b'T'),
                _ => {}
            }
        }
    }
    SamRecord {
        name,
        flags: SamFlags::default(),
        contig,
        pos,
        mapq: 60,
        mate_contig: NO_CONTIG,
        mate_pos: 0,
        tlen: 0,
        qual: vec![b'I'; seq.len()],
        seq,
        cigar,
        read_group: 1,
        edit_distance: 0,
    }
}

/// A random CIGAR over `M`/`=`/`X`/`I`/`D`/`S`: optional clips at both ends,
/// one to four aligned blocks with an indel between neighbours, and now and
/// then an insertion as the first or last aligned op.
fn random_ops(rng: &mut StdRng) -> Vec<(u32, CigarOp)> {
    let mut ops = Vec::new();
    if rng.gen_bool(0.2) {
        ops.push((rng.gen_range(1..12u32), CigarOp::SoftClip));
    }
    if rng.gen_bool(0.05) {
        ops.push((rng.gen_range(1..4u32), CigarOp::Ins));
    }
    let blocks = rng.gen_range(1..5usize);
    for i in 0..blocks {
        if i > 0 {
            let indel = if rng.gen_bool(0.5) { CigarOp::Ins } else { CigarOp::Del };
            ops.push((rng.gen_range(1..9u32), indel));
        }
        let aligned = [CigarOp::Match, CigarOp::Match, CigarOp::Equal, CigarOp::Diff];
        ops.push((rng.gen_range(1..40u32), aligned[rng.gen_range(0..4usize)]));
    }
    if rng.gen_bool(0.05) {
        ops.push((rng.gen_range(1..4u32), CigarOp::Ins));
    }
    if rng.gen_bool(0.2) {
        ops.push((rng.gen_range(1..12u32), CigarOp::SoftClip));
    }
    ops
}

/// Clip an alignment at `pos` where it would leave a contig of `clen`
/// bases, as an aligner does: every read base from there on becomes one
/// trailing soft clip and reference-only ops out there go, so the record
/// keeps the invariant that its alignment ends inside its contig. An
/// alignment that fits is returned as it is.
fn clip_at_contig_end(ops: Vec<(u32, CigarOp)>, pos: u64, clen: u64) -> Vec<(u32, CigarOp)> {
    let mut room = clen - pos;
    let mut out = Vec::with_capacity(ops.len() + 1);
    // Read bases past the end, once the alignment has reached it.
    let mut clipped: Option<u32> = None;
    for (len, op) in ops {
        if let Some(c) = clipped.as_mut() {
            *c += if op.consumes_read() { len } else { 0 };
        } else if !op.consumes_ref() || len as u64 <= room {
            room -= if op.consumes_ref() { len as u64 } else { 0 };
            out.push((len, op));
        } else {
            let keep = room as u32;
            if keep > 0 {
                out.push((keep, op));
            }
            clipped = Some(if op.consumes_read() { len - keep } else { 0 });
        }
    }
    if let Some(c @ 1..) = clipped {
        out.push((c, CigarOp::SoftClip));
    }
    out
}

/// A read set over `reference`: every contig gets variant sites that a
/// share of the covering reads carry, plus a sprinkling of reads that must
/// not count (duplicate, secondary, supplementary, unmapped) and reads that
/// would hang over the contig end and are clipped there.
fn random_reads(rng: &mut StdRng, reference: &ReferenceGenome, n: usize) -> Vec<SamRecord> {
    let contigs = reference.dict().len() as u32;
    let sites: Vec<Vec<u64>> = (0..contigs)
        .map(|c| {
            let clen = reference.dict().length_of(c);
            (0..rng.gen_range(2..8usize)).map(|_| rng.gen_range(0..clen)).collect()
        })
        .collect();
    // Carrier share per read set: none, about the threshold, half, all.
    let carrier = [0.0, 0.15, 0.5, 1.0][rng.gen_range(0..4usize)];
    (0..n)
        .map(|i| {
            let contig = rng.gen_range(0..contigs);
            let clen = reference.dict().length_of(contig);
            // Starts crowd the variant sites and the contig end.
            let pos = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..clen),
                1 => clen.saturating_sub(rng.gen_range(1..60u64)),
                _ => {
                    let site =
                        sites[contig as usize][rng.gen_range(0..sites[contig as usize].len())];
                    site.saturating_sub(rng.gen_range(0..50u64))
                }
            };
            let alt: &[u64] = if rng.gen_bool(carrier) { &sites[contig as usize] } else { &[] };
            let mut r = read(reference, format!("r{i}"), contig, pos, random_ops(rng), alt);
            if rng.gen_bool(0.05) {
                let at = rng.gen_range(0..r.seq.len());
                r.seq[at] = b'N';
            }
            match rng.gen_range(0..40u32) {
                0 => r.flags.set(SamFlags::DUPLICATE),
                1 => r.flags.set(SamFlags::SECONDARY),
                2 => r.flags.set(SamFlags::SUPPLEMENTARY),
                3 => r.flags.set(SamFlags::UNMAPPED),
                _ => {}
            }
            r
        })
        .collect()
}

fn shuffle(rng: &mut StdRng, records: &mut [SamRecord]) {
    for i in (1..records.len()).rev() {
        records.swap(i, rng.gen_range(0..=i));
    }
}

/// Library and oracle agree on `records` as given, sorted and shuffled.
/// Returns the regions.
fn assert_agree(
    rng: &mut StdRng,
    records: &mut [SamRecord],
    reference: &ReferenceGenome,
    what: &str,
) -> Vec<GenomeInterval> {
    let mut first = None;
    for order in ["as built", "sorted", "shuffled"] {
        match order {
            "sorted" => records.sort_by_key(|r| (r.contig, r.pos)),
            "shuffled" => shuffle(rng, records),
            _ => {}
        }
        let want = activeregion_oracle::find_active_regions(records, reference);
        let got = find_active_regions(&*records, reference);
        assert_eq!(got, want, "{what}, {order}");
        first.get_or_insert(got);
    }
    first.unwrap_or_default()
}

#[test]
fn random_read_sets_give_the_oracles_regions() {
    let mut rng = StdRng::seed_from_u64(0x0ac7_1fe5);
    let mut with_regions = 0;
    for case in 0..60 {
        let lengths: Vec<usize> =
            (0..rng.gen_range(1..4usize)).map(|_| rng.gen_range(80..900usize)).collect();
        let reference = reference(&mut rng, &lengths);
        let n = rng.gen_range(0..400usize);
        let mut records = random_reads(&mut rng, &reference, n);
        let regions = assert_agree(&mut rng, &mut records, &reference, &format!("case {case}"));
        with_regions += usize::from(!regions.is_empty());
    }
    assert!(with_regions >= 20, "only {with_regions} of 60 read sets had an active region");
}

#[test]
fn deep_pileups_and_long_clusters_give_the_oracles_regions() {
    // Evidence every 50 bases over 1,500: the merged cluster is far longer
    // than `MAX_REGION_LEN` and must split at the same offsets.
    let mut rng = StdRng::seed_from_u64(77);
    let reference = reference(&mut rng, &[2200, 300]);
    let mut records = Vec::new();
    for start in (100..1600u64).step_by(50) {
        for k in 0..6 {
            let name = format!("c{start}-{k}");
            records.push(read(
                &reference,
                name,
                0,
                start,
                vec![(100, CigarOp::Match)],
                &[start + 25],
            ));
        }
    }
    let regions = assert_agree(&mut rng, &mut records, &reference, "long cluster");
    // One cluster, cut into `MAX_REGION_LEN` pieces and a shorter tail.
    let cluster = GenomeInterval::new(0, 125 - PAD, 1575 + 1 + PAD);
    assert!(cluster.len() > 3 * MAX_REGION_LEN);
    let starts: Vec<u64> = regions.iter().map(|iv| iv.start).collect();
    let want: Vec<u64> = (cluster.start..cluster.end).step_by(MAX_REGION_LEN as usize).collect();
    assert_eq!(starts, want, "{regions:?}");
    assert!(regions.iter().all(|iv| iv.contig == 0 && iv.len() <= MAX_REGION_LEN));
    assert_eq!(regions.last().map(|iv| iv.end), Some(cluster.end));
}

#[test]
fn loci_exactly_on_a_threshold_give_the_oracles_regions() {
    let mut rng = StdRng::seed_from_u64(5);
    let reference = reference(&mut rng, &[1000]);
    let pile = |depth: usize, carriers: usize, site: u64| -> Vec<SamRecord> {
        (0..depth)
            .map(|i| {
                let alt: &[u64] = if i < carriers { &[site] } else { &[] };
                read(&reference, format!("t{i}"), 0, site - 30, vec![(60, CigarOp::Match)], alt)
            })
            .collect()
    };
    let padded = vec![GenomeInterval::new(0, 500 - PAD, 501 + PAD)];
    // Depth exactly `MIN_DEPTH` is deep enough, one less is not.
    let d = MIN_DEPTH as usize;
    let at = assert_agree(&mut rng, &mut pile(d, d, 500), &reference, "depth at the floor");
    assert_eq!(at, padded);
    let below = assert_agree(&mut rng, &mut pile(d - 1, d - 1, 500), &reference, "depth below");
    assert!(below.is_empty());
    // At depth 20 the fewest carriers `>=` admits sit exactly on the
    // fraction; one fewer stays out.
    let c = (1..=20).find(|&c| c as f64 / 20.0 >= MIN_EVIDENCE_FRAC).unwrap();
    assert_eq!(c as f64 / 20.0, MIN_EVIDENCE_FRAC, "{c} of 20 is not exactly on the threshold");
    let at = assert_agree(&mut rng, &mut pile(20, c, 500), &reference, "carriers on the fraction");
    assert_eq!(at, padded);
    let below = assert_agree(&mut rng, &mut pile(20, c - 1, 500), &reference, "one carrier fewer");
    assert!(below.is_empty());
    // One indel weighs 2: active at the deepest pile where 2 / depth still
    // reaches the fraction, inactive one read deeper. The deletion itself
    // adds to the depth of the locus it starts at.
    let deepest =
        (MIN_DEPTH as usize..).take_while(|&n| 2.0 / n as f64 >= MIN_EVIDENCE_FRAC).last();
    let deepest = deepest.unwrap();
    for (depth, active) in [(deepest + 1, false), (deepest, true)] {
        let mut records = pile(depth - 1, 0, 500);
        let ops = vec![(30, CigarOp::Match), (2, CigarOp::Del), (28, CigarOp::Match)];
        records.push(read(&reference, "del".into(), 0, 470, ops, &[]));
        let got = assert_agree(&mut rng, &mut records, &reference, "one deletion");
        assert_eq!(!got.is_empty(), active, "depth {depth}: {got:?}");
    }
}

#[test]
fn alignments_at_and_past_the_contig_end_give_the_oracles_regions() {
    let mut rng = StdRng::seed_from_u64(9);
    let reference = reference(&mut rng, &[400, 250]);
    let mut records = Vec::new();
    for (contig, clen) in [(0u32, 400u64), (1, 250)] {
        for k in 0..6u64 {
            // A deletion that starts inside the contig and would run past
            // its end: clipped, it ends there and the read's tail is `S`.
            let ops = vec![(20, CigarOp::Match), (40, CigarOp::Del), (10, CigarOp::Match)];
            records.push(read(
                &reference,
                format!("d{contig}-{k}"),
                contig,
                clen - 30 - k,
                ops,
                &[],
            ));
            // An `M` block that would hang over the end, mismatching right
            // up to it, clipped there.
            let ops = vec![(50, CigarOp::Match)];
            records.push(read(
                &reference,
                format!("m{contig}-{k}"),
                contig,
                clen - 25,
                ops,
                &[clen - 1],
            ));
            // The same placement clipped at the end instead, and one clipped
            // at the contig start with an insertion as its last aligned op.
            let ops = vec![(25, CigarOp::Match), (25, CigarOp::SoftClip)];
            records.push(read(&reference, format!("s{contig}-{k}"), contig, clen - 25, ops, &[]));
            let ops = vec![(9, CigarOp::SoftClip), (30, CigarOp::Equal), (3, CigarOp::Ins)];
            records.push(read(&reference, format!("i{contig}-{k}"), contig, 0, ops, &[0]));
        }
    }
    let regions = assert_agree(&mut rng, &mut records, &reference, "contig ends");
    // Both ends of both contigs are active, and `PAD` is clamped at each:
    // the first region starts at 0 and the last ends at the contig end.
    assert_eq!(regions.len(), 4, "{regions:?}");
    for (pair, clen) in regions.chunks(2).zip([400u64, 250]) {
        assert_eq!((pair[0].start, pair[1].end), (0, clen), "{pair:?}");
        assert!(pair[0].len() < 2 * PAD + 1 && pair[1].len() < 2 * PAD + 1, "{pair:?}");
    }
}

#[test]
fn no_countable_read_gives_no_region() {
    let mut rng = StdRng::seed_from_u64(3);
    let reference = reference(&mut rng, &[500]);
    let mut records: Vec<SamRecord> = (0..12)
        .map(|i| read(&reference, format!("x{i}"), 0, 100, vec![(80, CigarOp::Match)], &[140]))
        .collect();
    for (i, r) in records.iter_mut().enumerate() {
        r.flags.set([SamFlags::DUPLICATE, SamFlags::SECONDARY, SamFlags::UNMAPPED][i % 3]);
    }
    let regions = assert_agree(&mut rng, &mut records, &reference, "all skipped");
    assert!(regions.is_empty());
    assert!(assert_agree(&mut rng, &mut [], &reference, "empty").is_empty());
}
