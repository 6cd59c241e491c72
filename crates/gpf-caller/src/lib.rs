//! # gpf-caller
//!
//! The Caller stage: a HaplotypeCaller-style variant caller (§2.1 of the
//! paper — "calling variants via local de-novo assembly of haplotypes in an
//! active region based on paired-HMM algorithm", Table 2).
//!
//! The pipeline per active region:
//!
//! 1. [`activeregion`] — pileup statistics find loci where reads disagree
//!    with the reference (mismatch/indel evidence above threshold);
//! 2. [`assembly`] — a de Bruijn graph over the region's reads + reference
//!    yields candidate haplotypes;
//! 3. [`pairhmm`] — a pair-HMM computes `P(read | haplotype)` for every
//!    read/haplotype combination, using base qualities as emission
//!    probabilities (this is the CPU hot spot, exactly as the paper notes
//!    in §5.3.2);
//! 4. [`genotyper`] — haplotypes are decomposed into variants, diploid
//!    genotype likelihoods are computed, and confident non-reference calls
//!    are emitted as VCF records.
//!
//! [`HaplotypeCaller`] wires the four together over sorted, borrowed records.

pub mod activeregion;
pub mod assembly;
pub mod genotyper;
pub mod pairhmm;

// The test-side oracles under `tests/` name this crate as `gpf_caller`; a
// unit test that includes one by path resolves that name through this.
#[cfg(test)]
extern crate self as gpf_caller;

pub use activeregion::find_active_regions;
pub use genotyper::call_region;

use gpf_formats::sam::SamRecord;
use gpf_formats::vcf::VcfRecord;
use gpf_formats::ReferenceGenome;

/// Reads below this mapping quality are ignored (GATK's
/// MappingQualityReadFilter defaults to 20): ambiguous repeat placements
/// otherwise flood the assembler with junk active regions.
pub const MIN_MAPQ: u8 = 20;

/// End-to-end caller over a (coordinate-sorted) record collection.
#[derive(Debug, Clone, Copy, Default)]
pub struct HaplotypeCaller;

impl HaplotypeCaller {
    /// Call variants over `records` (must be coordinate-sorted), borrowed:
    /// `&[SamRecord]`, `&Vec<SamRecord>` and `Vec<&SamRecord>` all do.
    /// Duplicates, unmapped reads and low-MAPQ reads are skipped internally;
    /// the rest keep the record invariant (`SamRecord::check`) against
    /// `reference`'s dictionary. Returns records sorted by position.
    pub fn call<'a>(
        &self,
        records: impl IntoIterator<Item = &'a SamRecord>,
        reference: &ReferenceGenome,
    ) -> Vec<VcfRecord> {
        let usable: Vec<&SamRecord> = records
            .into_iter()
            .filter(|r| r.flags.is_mapped() && !r.flags.is_duplicate() && r.mapq >= MIN_MAPQ)
            .collect();
        let regions = find_active_regions(usable.iter().copied(), reference);
        let mut out = Vec::new();
        for region in &regions {
            let overlapping: Vec<&SamRecord> = usable
                .iter()
                .copied()
                .filter(|r| {
                    r.contig == region.contig
                        && r.pos < region.end
                        && r.ref_end() > region.start
                })
                .collect();
            out.extend(call_region(&overlapping, reference, *region));
        }
        sort_and_dedup(&mut out);
        out
    }
}

/// Sort calls by (contig, position, alt, ref) and drop repeats of the same
/// (contig, position, ref, alt) — the same call found from two overlapping
/// regions. The sort key must hold every field the dedup compares: were
/// `ref` left out, a call of another `ref` at the same (position, alt)
/// could sort between two copies and keep both. `ref` goes last, so calls
/// that differ before it keep their order.
fn sort_and_dedup(calls: &mut Vec<VcfRecord>) {
    calls.sort_by(|a, b| {
        (a.contig, a.pos, &a.alt_allele, &a.ref_allele)
            .cmp(&(b.contig, b.pos, &b.alt_allele, &b.ref_allele))
    });
    calls.dedup_by(|a, b| {
        (a.contig, a.pos, &a.ref_allele, &a.alt_allele)
            == (b.contig, b.pos, &b.ref_allele, &b.alt_allele)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::vcf::Genotype;

    fn call(pos: u64, ref_allele: &[u8], alt_allele: &[u8], qual: f64) -> VcfRecord {
        VcfRecord {
            contig: 0,
            pos,
            ref_allele: ref_allele.to_vec(),
            alt_allele: alt_allele.to_vec(),
            qual,
            genotype: Genotype::Het,
            depth: 10,
        }
    }

    #[test]
    fn a_call_found_twice_is_kept_once_around_another_ref() {
        // `ACG→A` from two overlapping regions, and an `AC→A` at the same
        // position found between them.
        let mut calls = vec![
            call(7, b"ACG", b"A", 50.0),
            call(7, b"AC", b"A", 40.0),
            call(7, b"ACG", b"A", 60.0),
        ];
        sort_and_dedup(&mut calls);
        assert_eq!(calls, vec![call(7, b"AC", b"A", 40.0), call(7, b"ACG", b"A", 50.0)]);
    }
}
