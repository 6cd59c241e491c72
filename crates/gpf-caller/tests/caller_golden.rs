//! Caller golden: the VCF text `HaplotypeCaller::call` produces over a fixed
//! simulated run, pinned by digest.
//!
//! The caller's hot path (active-region pileup, pair-HMM, the read plumbing
//! between them) may be rebuilt for speed, but never for different output:
//! every call — position, alleles, QUAL, genotype, depth — must stay byte for
//! byte what it was. The digest says *whether* anything moved; the counts
//! next to it say roughly *what*, so a failure reads as "two het SNVs went
//! missing", not as two unequal hex numbers.
//!
//! The run is `end_to_end.rs`'s recipe over two contigs, with SNVs and indels
//! dense enough that some land within a read length of each other, the
//! simulator's `N` calls and duplicates, and one coverage hotspot per contig.
//! `the_world_has_what_the_golden_is_for` checks that the two shapes the
//! hot path treats specially really occur: a region assembling three or more
//! haplotypes, and one deeper than `max_reads`.

use gpf_align::BwaMemAligner;
use gpf_caller::assembly::assemble;
use gpf_caller::{call_region, find_active_regions, CallerOptions, HaplotypeCaller};
use gpf_cleaner::{coordinate_sort, mark_duplicates};
use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::{format_vcf, Genotype, VcfHeaderInfo, VcfRecord};
use gpf_formats::ReferenceGenome;
use gpf_workloads::readsim::{ReadSimulator, SimulatorConfig};
use gpf_workloads::refgen::ReferenceSpec;
use gpf_workloads::variants::{DonorGenome, VariantSpec};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Aligned, coordinate-sorted, duplicate-marked records over two contigs.
fn world() -> (ReferenceGenome, Vec<SamRecord>) {
    let reference = ReferenceSpec {
        contig_lengths: vec![30_000, 20_000],
        seed: 2718,
        repeat_fraction: 0.05,
        ..Default::default()
    }
    .generate();
    let donor = DonorGenome::generate(
        &reference,
        &VariantSpec { snv_rate: 2e-3, indel_rate: 3e-4, seed: 9, ..Default::default() },
    );
    // 24x over genome plus hotspot mass: about 18x outside the hotspots and
    // 65x inside them — deep enough that a region there overlaps more than
    // `max_reads` reads, shallow enough that the first `max_reads` of them
    // still reach its variant.
    let cfg = SimulatorConfig {
        coverage: 24.0,
        duplicate_rate: 0.08,
        hotspot_count: 1,
        hotspot_multiplier: 3.5,
        hotspot_len: 3000,
        seed: 41,
        ..Default::default()
    };
    let pairs = ReadSimulator::new(&reference, &donor, cfg).simulate();
    let aligner = BwaMemAligner::new(&reference);
    let mut records = Vec::with_capacity(pairs.len() * 2);
    for p in &pairs {
        let (a, b) = aligner.align_pair(&p.pair);
        records.push(a);
        records.push(b);
    }
    coordinate_sort(&mut records);
    let stats = mark_duplicates(&mut records);
    assert!(stats.duplicate_fragments > 0, "simulator planted duplicates");
    assert!(records.iter().any(|r| r.seq.contains(&b'N')), "simulator planted Ns");
    (reference, records)
}

/// What a run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Summary {
    digest: u64,
    calls: usize,
    snvs: usize,
    indels: usize,
    het: usize,
    hom_alt: usize,
    /// Calls per contig.
    per_contig: Vec<usize>,
}

fn summarize(reference: &ReferenceGenome, calls: &[VcfRecord]) -> Summary {
    let header = VcfHeaderInfo::new_header(reference.dict().clone(), vec!["s".into()]);
    let snvs = calls.iter().filter(|c| c.ref_allele.len() == 1 && c.alt_allele.len() == 1).count();
    Summary {
        digest: fnv1a(format_vcf(&header, calls).as_bytes()),
        calls: calls.len(),
        snvs,
        indels: calls.len() - snvs,
        het: calls.iter().filter(|c| c.genotype == Genotype::Het).count(),
        hom_alt: calls.iter().filter(|c| c.genotype == Genotype::HomAlt).count(),
        per_contig: (0..reference.dict().len() as u32)
            .map(|c| calls.iter().filter(|v| v.contig == c).count())
            .collect(),
    }
}

#[test]
fn calls_match_the_pinned_vcf() {
    let (reference, records) = world();
    let calls = HaplotypeCaller::default().call(&records, &reference);
    assert_eq!(
        summarize(&reference, &calls),
        Summary {
            digest: 9223423503998217478,
            calls: 92,
            snvs: 82,
            indels: 10,
            het: 53,
            hom_alt: 39,
            per_contig: vec![56, 36],
        }
    );
}

#[test]
fn the_world_has_what_the_golden_is_for() {
    let (reference, records) = world();
    let caller = HaplotypeCaller::default();
    let opts = CallerOptions::default();
    let usable: Vec<SamRecord> = records
        .iter()
        .filter(|r| r.flags.is_mapped() && !r.flags.is_duplicate() && r.mapq >= caller.min_mapq)
        .cloned()
        .collect();
    let regions = find_active_regions(&usable, &reference, &caller.region_opts);
    assert!(regions.iter().any(|iv| iv.contig == 0) && regions.iter().any(|iv| iv.contig == 1));
    // Called regions only: a region that assembles nothing but the reference
    // never reaches the pair-HMM.
    let (mut most_haps, mut deepest) = (0, 0);
    for region in &regions {
        let reads: Vec<&SamRecord> = usable
            .iter()
            .filter(|r| {
                r.contig == region.contig && r.pos < region.end && r.ref_end() > region.start
            })
            .collect();
        if call_region(&reads, &reference, *region, &opts).is_empty() {
            continue;
        }
        deepest = deepest.max(reads.len());
        let window = region.padded(opts.window_pad, reference.dict().length_of(region.contig));
        let seqs: Vec<&[u8]> =
            reads.iter().take(opts.max_reads).map(|r| r.seq.as_slice()).collect();
        most_haps = most_haps.max(assemble(reference.slice(window), &seqs, &opts.assembly).len());
    }
    assert!(most_haps >= 3, "no called region assembles 3 haplotypes (most: {most_haps})");
    assert!(deepest > opts.max_reads, "no called region is deeper than max_reads ({deepest})");
}
