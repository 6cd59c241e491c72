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
//! so unmapped and rescued mates occur as well. A second, smaller world
//! (`hostile_world`) pins what the simulator never makes: `N`s and
//! lower-case bases where seeds are taken, one-mismatch reads, and
//! one-mismatch reads inside short tandem repeats.

use gpf_align::{BwaMemAligner, SnapAligner};
use gpf_formats::base::reverse_complement;
use gpf_formats::fastq::{FastqPair, FastqRecord};
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

/// Reads the simulator never makes, over a genome with short tandem
/// repeats: an `N` (one, or one every ten bases so no seed survives),
/// lower-case bases (a few, or the whole mate), exactly one mismatch at the
/// first, a middle or the last base, and a one-mismatch mate lying wholly
/// inside a tandem repeat, where several in-band offsets hold it with one
/// mismatch each and only the DP's tie-break may choose.
fn hostile_world() -> (ReferenceGenome, Vec<FastqPair>) {
    let mut state = 0x7a4d_3c21u64;
    let mut next = move |n: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let mut random = |n: usize| -> Vec<u8> { (0..n).map(|_| b"ACGT"[next(4) as usize]).collect() };
    // Tandems of period 3 and 7 short enough that a seed inside one stays
    // under the repeat filter (at most 64 hits).
    let tandems: [(usize, &[u8], usize); 2] = [(6_000, b"GAT", 50), (15_000, b"CCTAGGA", 20)];
    let mut chr1 = random(24_000);
    for &(at, unit, copies) in &tandems {
        chr1.splice(at..at, unit.repeat(copies));
    }
    let reference =
        ReferenceGenome::from_contigs(vec![("chr1", chr1.clone()), ("chr2", random(8_000))]);

    let mut state = 0x51de_f00du64;
    let mut next = move |n: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let qual = vec![b'I'; 100];
    let mut pairs = Vec::new();
    for i in 0..240usize {
        // Mate 1 forward at `start`, mate 2 reverse 280 bases on; every
        // tenth pair puts mate 1 inside a tandem repeat.
        let start = match i % 10 {
            9 => {
                let (at, unit, copies) = tandems[i / 10 % 2];
                at + next(unit.len() * copies - 100 + 1)
            }
            _ => next(chr1.len() - 500),
        };
        let mut r1 = chr1[start..start + 100].to_vec();
        let mut r2 = reverse_complement(&chr1[start + 280..start + 380]);
        let flip = |b: u8| if b == b'A' { b'C' } else { b'A' };
        match i % 10 {
            0 => r1[next(100)] = b'N',
            1 => r2.iter_mut().step_by(10).for_each(|b| *b = b'N'),
            2 => {
                for _ in 0..3 {
                    let at = next(100);
                    r1[at] = r1[at].to_ascii_lowercase();
                }
            }
            3 => r2.make_ascii_lowercase(),
            4..=6 => {
                let at = [0, 50, 99][i % 10 - 4];
                r1[at] = flip(r1[at]);
            }
            7 => r2[98..].fill(b'N'),
            9 => {
                let at = 40 + next(20);
                r1[at] = flip(r1[at]);
            }
            _ => {}
        }
        let mate = |name: String, seq: Vec<u8>| FastqRecord { name, seq, qual: qual.clone() };
        pairs.push(FastqPair { r1: mate(format!("h{i}/1"), r1), r2: mate(format!("h{i}/2"), r2) });
    }
    (reference, pairs)
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

/// Both mates of every pair through BWA-MEM's paired path.
fn bwamem_records(reference: &ReferenceGenome, pairs: &[FastqPair]) -> Vec<SamRecord> {
    let aligner = BwaMemAligner::new(reference);
    pairs
        .iter()
        .flat_map(|p| {
            let (a, b) = aligner.align_pair(p);
            [a, b]
        })
        .collect()
}

/// Every mate through SNAP single-end.
fn snap_records(reference: &ReferenceGenome, pairs: &[FastqPair]) -> Vec<SamRecord> {
    let aligner = SnapAligner::new(reference);
    pairs
        .iter()
        .flat_map(|p| [&p.r1, &p.r2])
        .map(|r| aligner.align_read(&r.name, &r.seq, &r.qual))
        .collect()
}

#[test]
fn bwamem_pairs_match_the_pinned_sam() {
    let (reference, pairs) = world();
    assert_eq!(
        summarize(&reference, &bwamem_records(&reference, &pairs)),
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
    assert_eq!(
        summarize(&reference, &snap_records(&reference, &pairs)),
        Summary {
            digest: 6584648091939311128,
            records: 5252,
            mapped: 4937,
            mapq: [184, 0, 257, 0, 4496],
            with_indel: 36,
        }
    );
}

#[test]
fn bwamem_hostile_reads_match_the_pinned_sam() {
    let (reference, pairs) = hostile_world();
    assert_eq!(
        summarize(&reference, &bwamem_records(&reference, &pairs)),
        Summary {
            digest: 7855180724012029722,
            records: 480,
            mapped: 456,
            mapq: [26, 0, 24, 0, 406],
            with_indel: 1,
        }
    );
}

#[test]
fn snap_hostile_reads_match_the_pinned_sam() {
    let (reference, pairs) = hostile_world();
    assert_eq!(
        summarize(&reference, &snap_records(&reference, &pairs)),
        Summary {
            digest: 12236289746630061438,
            records: 480,
            mapped: 418,
            mapq: [16, 0, 0, 0, 402],
            with_indel: 1,
        }
    );
}
