//! Input generation: seed and scale in, six text files out. The measured
//! program only ever sees these files.
//!
//! Generator parameters are `gpf_bench::WgsWorkload::build`'s (20×
//! coverage, 10% duplicates, 2 hotspots × 35, known-sites overlap 0.8);
//! every sub-seed derives from `seed`, so a new seed changes every file.

use gpf_align::BwaMemAligner;
use gpf_engine::{Dataset, EngineConfig, EngineContext};
use gpf_formats::fastq::{format_fastq, FastqPair};
use gpf_formats::sam::{format_sam, SamHeaderInfo};
use gpf_formats::vcf::{format_vcf, Genotype, VcfHeaderInfo, VcfRecord};
use gpf_workloads::readsim::{simulate_fastq_pairs, SimulatorConfig};
use gpf_workloads::refgen::ReferenceSpec;
use gpf_workloads::variants::{DonorGenome, VariantSpec};
use std::path::Path;
use std::sync::Arc;

pub const READS_1: &str = "reads_1.fastq";
pub const READS_2: &str = "reads_2.fastq";
pub const REFERENCE: &str = "reference.fa";
pub const KNOWN: &str = "known.vcf";
pub const TRUTH: &str = "truth.vcf";
pub const ALIGNED: &str = "aligned.sam";

/// Write the six input files for `(seed, scale)` into `dir`.
pub fn generate(seed: u64, scale: f64, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let unit = (350_000.0 * scale) as u64;
    let reference = Arc::new(
        ReferenceSpec {
            contig_lengths: vec![
                unit.max(40_000),
                (unit * 4 / 5).max(30_000),
                (unit * 3 / 5).max(20_000),
            ],
            seed,
            ..Default::default()
        }
        .generate(),
    );
    let donor = DonorGenome::generate(
        &reference,
        &VariantSpec { seed: seed ^ 0xaaaa, ..Default::default() },
    );
    let pairs = simulate_fastq_pairs(
        &reference,
        &donor,
        SimulatorConfig {
            coverage: 20.0,
            duplicate_rate: 0.10,
            hotspot_count: 2,
            hotspot_multiplier: 35.0,
            // The simulator's hotspot length is fixed in bases, so at a
            // small scale the hotspots would swallow the genome (87% of
            // reads at scale 0.1). Scale it, keeping the 59% share of
            // reads the 3000-base default gives `WgsWorkload` at scale 0.5.
            hotspot_len: (6_000.0 * scale) as u64,
            seed: seed ^ 0x5555,
            ..Default::default()
        },
    );
    let known = donor.known_sites(&reference, 0.8, 50, seed ^ 0x1234);
    let truth: Vec<VcfRecord> = donor
        .truth
        .iter()
        .map(|v| VcfRecord {
            contig: v.pos.contig,
            pos: v.pos.pos,
            ref_allele: v.ref_allele.clone(),
            alt_allele: v.alt_allele.clone(),
            qual: 100.0,
            genotype: if v.het { Genotype::Het } else { Genotype::HomAlt },
            depth: 0,
        })
        .collect();

    let dict = reference.dict().clone();
    let vcf_header = VcfHeaderInfo::new_header(dict.clone(), vec!["s".into()]);
    std::fs::write(dir.join(REFERENCE), reference.to_fasta_string())?;
    std::fs::write(dir.join(KNOWN), format_vcf(&vcf_header, &known))?;
    std::fs::write(dir.join(TRUTH), format_vcf(&vcf_header, &truth))?;
    let (r1, r2): (Vec<_>, Vec<_>) = pairs.iter().map(|p| (p.r1.clone(), p.r2.clone())).unzip();
    std::fs::write(dir.join(READS_1), format_fastq(&r1))?;
    std::fs::write(dir.join(READS_2), format_fastq(&r2))?;

    // One BwaMem pass, so the `clean-call*` workloads start where the
    // Aligner of `wgs-full` ends.
    let aligned = align_all(&reference, pairs);
    std::fs::write(dir.join(ALIGNED), format_sam(&SamHeaderInfo::unsorted_header(dict), &aligned))
}

fn align_all(
    reference: &gpf_formats::ReferenceGenome,
    pairs: Vec<FastqPair>,
) -> Vec<gpf_formats::sam::SamRecord> {
    let aligner = BwaMemAligner::new(reference);
    let ctx = EngineContext::new(EngineConfig::gpf());
    Dataset::from_vec(ctx, pairs, 64)
        .flat_map(move |p| {
            let (a, b) = aligner.align_pair(p);
            [a, b]
        })
        .collect_local()
}
