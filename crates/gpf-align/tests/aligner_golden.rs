//! Aligner golden: the SAM text both aligners produce over a fixed simulated
//! run, pinned by digest.
//!
//! The aligner's hot path (FM-index rank, candidate voting, verification)
//! may be rebuilt for speed, but never for different output: every record —
//! placement, CIGAR, MAPQ, NM, flags, mate fields — must stay byte for byte
//! what it was. The digest says *whether* anything moved; the mapped count
//! and the MAPQ histogram next to it say roughly *what*, so a failure reads
//! as "MAPQ 60 lost 12 reads", not as two unequal hex numbers.
//!
//! The genome carries `ReferenceSpec`'s default 15% repeats (diverged
//! copies, so multi-candidate reads and MAPQ < 60 occur), the donor carries
//! the default variant load (so indel CIGARs occur), and the simulator keeps
//! its default `N` rate and duplicates; a fixed few reads are then damaged
//! so unmapped and rescued mates occur as well.

use gpf_align::{BwaMemAligner, SnapAligner};
use gpf_formats::fastq::FastqPair;
use gpf_formats::sam::{format_sam, SamHeaderInfo, SamRecord};
use gpf_formats::ReferenceGenome;
use gpf_workloads::readsim::{ReadSimulator, SimulatorConfig};
use gpf_workloads::refgen::ReferenceSpec;
use gpf_workloads::variants::{DonorGenome, VariantSpec};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn world() -> (ReferenceGenome, Vec<FastqPair>) {
    let reference =
        ReferenceSpec { contig_lengths: vec![150_000, 60_000], seed: 1618, ..Default::default() }
            .generate();
    let donor = DonorGenome::generate(&reference, &VariantSpec::default());
    let cfg = SimulatorConfig { coverage: 2.2, hotspot_count: 0, seed: 31, ..Default::default() };
    let mut pairs: Vec<FastqPair> = ReadSimulator::new(&reference, &donor, cfg)
        .simulate()
        .into_iter()
        .map(|p| p.pair)
        .collect();
    assert!(pairs.len() >= 2000, "only {} pairs", pairs.len());
    // The simulator's reads all map; damage a fixed few so the unmapped,
    // mate-rescue and shorter-than-a-seed paths are under the pin too.
    for (i, pair) in pairs.iter_mut().enumerate() {
        match i % 50 {
            7 => every_fifth_base(&mut pair.r2.seq),
            13 => every_fifth_base(&mut pair.r1.seq),
            21 => junk(&mut pair.r1.seq),
            33 => {
                junk(&mut pair.r1.seq);
                junk(&mut pair.r2.seq);
            }
            45 => {
                pair.r2.seq.truncate(12);
                pair.r2.qual.truncate(12);
            }
            _ => {}
        }
    }
    (reference, pairs)
}

/// Substitute every fifth base: no seed survives, 80% of the read does.
fn every_fifth_base(seq: &mut [u8]) {
    for b in seq.iter_mut().step_by(5) {
        *b = if *b == b'A' { b'G' } else { b'A' };
    }
}

/// A read that occurs nowhere.
fn junk(seq: &mut [u8]) {
    for (i, b) in seq.iter_mut().enumerate() {
        *b = if i % 2 == 0 { b'A' } else { b'C' };
    }
}

/// What a run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Summary {
    digest: u64,
    records: usize,
    mapped: usize,
    /// Mapped records with MAPQ 0, 1–19, 20–39, 40–59 and 60.
    mapq: [usize; 5],
    with_indel: usize,
}

fn summarize(reference: &ReferenceGenome, records: &[SamRecord]) -> Summary {
    let header = SamHeaderInfo::unsorted_header(reference.dict().clone());
    let mut mapq = [0usize; 5];
    let (mut mapped, mut with_indel) = (0, 0);
    for r in records.iter().filter(|r| r.flags.is_mapped()) {
        mapped += 1;
        mapq[match r.mapq {
            0 => 0,
            1..=19 => 1,
            20..=39 => 2,
            40..=59 => 3,
            _ => 4,
        }] += 1;
        with_indel += usize::from(r.cigar.has_indel());
    }
    Summary {
        digest: fnv1a(format_sam(&header, records).as_bytes()),
        records: records.len(),
        mapped,
        mapq,
        with_indel,
    }
}

#[test]
fn bwamem_pairs_match_the_pinned_sam() {
    let (reference, pairs) = world();
    let aligner = BwaMemAligner::new(&reference);
    let records: Vec<SamRecord> = pairs
        .iter()
        .flat_map(|p| {
            let (a, b) = aligner.align_pair(p);
            [a, b]
        })
        .collect();
    assert_eq!(
        summarize(&reference, &records),
        Summary {
            digest: 6778478786657280965,
            records: 5252,
            mapped: 5091,
            mapq: [169, 0, 411, 0, 4511],
            with_indel: 37,
        }
    );
}

#[test]
fn snap_reads_match_the_pinned_sam() {
    let (reference, pairs) = world();
    let aligner = SnapAligner::new(&reference);
    let records: Vec<SamRecord> = pairs
        .iter()
        .flat_map(|p| [&p.r1, &p.r2])
        .map(|r| aligner.align_read(&r.name, &r.seq, &r.qual))
        .collect();
    assert_eq!(
        summarize(&reference, &records),
        Summary {
            digest: 6584648091939311128,
            records: 5252,
            mapped: 4937,
            mapq: [184, 0, 257, 0, 4496],
            with_indel: 36,
        }
    );
}
