//! End-to-end caller validation: simulate reads from a donor genome with
//! planted variants, align, clean, call — and check recall/precision against
//! the planted truth.

use gpf_align::BwaMemAligner;
use gpf_caller::HaplotypeCaller;
use gpf_cleaner::{coordinate_sort, mark_duplicates};
use gpf_workloads::readsim::{ReadSimulator, SimulatorConfig};
use gpf_workloads::refgen::ReferenceSpec;
use gpf_workloads::variants::{DonorGenome, VariantSpec};

#[test]
fn pipeline_recovers_planted_variants() {
    let reference = ReferenceSpec {
        contig_lengths: vec![80_000],
        seed: 31,
        repeat_fraction: 0.05,
        ..Default::default()
    }
    .generate();
    let donor = DonorGenome::generate(
        &reference,
        &VariantSpec { snv_rate: 8e-4, indel_rate: 8e-5, seed: 5, ..Default::default() },
    );
    let cfg = SimulatorConfig {
        coverage: 35.0,
        duplicate_rate: 0.08,
        hotspot_count: 0,
        n_rate: 0.001,
        ..Default::default()
    };
    let pairs = ReadSimulator::new(&reference, &donor, cfg).simulate();

    // Align.
    let aligner = BwaMemAligner::new(&reference);
    let mut records = Vec::with_capacity(pairs.len() * 2);
    for p in &pairs {
        let (a, b) = aligner.align_pair(&p.pair);
        records.push(a);
        records.push(b);
    }

    // Clean.
    coordinate_sort(&mut records);
    let stats = mark_duplicates(&mut records);
    assert!(stats.duplicate_fragments > 0, "simulator planted duplicates");

    // Call.
    let calls = HaplotypeCaller.call(&records, &reference);
    assert!(!calls.is_empty(), "caller should find variants");

    // Score against truth (positions within 1bp count; indel representations
    // can shift by the anchor).
    let truth: Vec<_> = donor.truth.iter().collect();
    let mut recalled = 0usize;
    for t in &truth {
        if calls.iter().any(|c| c.contig == t.pos.contig && c.pos.abs_diff(t.pos.pos) <= 1) {
            recalled += 1;
        }
    }
    let recall = recalled as f64 / truth.len() as f64;

    let mut correct = 0usize;
    for c in &calls {
        if truth.iter().any(|t| t.pos.contig == c.contig && c.pos.abs_diff(t.pos.pos) <= 1) {
            correct += 1;
        }
    }
    let precision = correct as f64 / calls.len() as f64;

    assert!(
        recall > 0.6,
        "recall {recall:.2} ({recalled}/{} truth variants; {} calls)",
        truth.len(),
        calls.len()
    );
    assert!(precision > 0.7, "precision {precision:.2} ({correct}/{})", calls.len());
}

#[test]
fn het_hom_genotypes_mostly_correct() {
    let reference = ReferenceSpec {
        contig_lengths: vec![50_000],
        seed: 77,
        repeat_fraction: 0.03,
        ..Default::default()
    }
    .generate();
    let donor = DonorGenome::generate(
        &reference,
        &VariantSpec { snv_rate: 1e-3, indel_rate: 0.0, het_fraction: 0.5, seed: 6, ..Default::default() },
    );
    let cfg = SimulatorConfig {
        coverage: 40.0,
        duplicate_rate: 0.0,
        hotspot_count: 0,
        ..Default::default()
    };
    let pairs = ReadSimulator::new(&reference, &donor, cfg).simulate();
    let aligner = BwaMemAligner::new(&reference);
    let mut records = Vec::new();
    for p in &pairs {
        let (a, b) = aligner.align_pair(&p.pair);
        records.push(a);
        records.push(b);
    }
    coordinate_sort(&mut records);
    let calls = HaplotypeCaller.call(&records, &reference);

    let mut genotype_checked = 0usize;
    let mut genotype_right = 0usize;
    for c in &calls {
        if let Some(t) = donor
            .truth
            .iter()
            .find(|t| t.pos.contig == c.contig && t.pos.pos == c.pos && t.is_snv())
        {
            genotype_checked += 1;
            let expect_het = t.het;
            let got_het = c.genotype == gpf_formats::vcf::Genotype::Het;
            if expect_het == got_het {
                genotype_right += 1;
            }
        }
    }
    assert!(genotype_checked >= 10, "matched calls: {genotype_checked}");
    let acc = genotype_right as f64 / genotype_checked as f64;
    assert!(acc > 0.8, "genotype accuracy {acc:.2} ({genotype_right}/{genotype_checked})");
}
